"""Replayable witness files: a violation you can hand to someone.

A witness captures everything needed to re-execute one run of a
*registered* protocol deterministically: the spec name, the instance
``(n, k, t)``, the input vector, an optional static crash plan, and the
schedule as a choice sequence (replayed tolerantly via
:class:`repro.verify.shrink.SubsequenceScheduler`, so shrunk schedules
replay exactly).  ``repro verify-run witness.json`` replays it twice,
checks determinism, and runs the oracle stack.

Limitations (v1, documented): Byzantine behaviours are arbitrary Python
objects and are not serialized -- witnesses cover the crash models and
failure-free runs.  An ``outcome``-only witness (no schedule) carries a
bare :class:`~repro.core.problem.Outcome` for oracle re-checking without
replay.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.problem import Outcome, SCProblem
from repro.core.validity import by_code
from repro.core.values import Value, decode_value, encode_value
from repro.failures.crash import CrashPlan, CrashPoint
from repro.runtime.kernel import ExecutionResult
from repro.verify.oracles import (
    Violation,
    check_execution,
    outcome_result,
    safety_violations,
)
from repro.verify.shrink import kernel_factory_for_spec, run_choices

__all__ = [
    "Witness",
    "WitnessReport",
    "load_witness",
    "replay_witness",
    "save_witness",
    "verify_witness",
]

_FORMAT = "repro-witness/1"


@dataclasses.dataclass
class Witness:
    """One serialized, deterministically replayable execution."""

    spec: str
    n: int
    k: int
    t: int
    inputs: Tuple[Value, ...]
    choices: Tuple[int, ...]
    kind: str  # "mp" | "sm"
    crash_points: Dict[int, Dict[str, int]] = dataclasses.field(
        default_factory=dict
    )
    validity: Optional[str] = None  # defaults to the spec's condition
    note: str = ""
    expect: Tuple[str, ...] = ()  # oracle names this witness demonstrates

    def describe(self) -> str:
        crash = (
            f", crashes {sorted(self.crash_points)}" if self.crash_points else ""
        )
        note = f" -- {self.note}" if self.note else ""
        return (
            f"{self.spec} n={self.n} k={self.k} t={self.t}, "
            f"{len(self.choices)} {self.kind} choices{crash}{note}"
        )

    def crash_adversary(self) -> Optional[CrashPlan]:
        if not self.crash_points:
            return None
        return CrashPlan({
            pid: CrashPoint(**point) for pid, point in self.crash_points.items()
        })

    def problem(self) -> SCProblem:
        from repro.protocols.base import get_spec

        code = self.validity or get_spec(self.spec).validity
        return SCProblem(n=self.n, k=self.k, t=self.t, validity=by_code(code))

    def to_json(self) -> str:
        return json.dumps({
            "format": _FORMAT,
            "spec": self.spec,
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "inputs": [encode_value(v) for v in self.inputs],
            "choices": list(self.choices),
            "kind": self.kind,
            "crash_points": {
                str(pid): {k: v for k, v in point.items() if v is not None}
                for pid, point in self.crash_points.items()
            },
            "validity": self.validity,
            "note": self.note,
            "expect": list(self.expect),
        }, indent=2)

    @classmethod
    def from_json(cls, blob: str) -> "Witness":
        data = json.loads(blob)
        if data.get("format") != _FORMAT:
            raise ValueError(
                f"not a {_FORMAT} witness: format={data.get('format')!r}"
            )
        return cls(
            spec=data["spec"],
            n=data["n"],
            k=data["k"],
            t=data["t"],
            inputs=tuple(decode_value(v) for v in data["inputs"]),
            choices=tuple(data["choices"]),
            kind=data["kind"],
            crash_points={
                int(pid): dict(point)
                for pid, point in data.get("crash_points", {}).items()
            },
            validity=data.get("validity"),
            note=data.get("note", ""),
            expect=tuple(data.get("expect", ())),
        )


def crash_points_of(adversary) -> Dict[int, Dict[str, int]]:
    """Extract serializable crash points from a static crash adversary.

    Supports :class:`CrashPlan` and :class:`RandomCrashes` (whose plan
    is precomputed from its seed).  Dynamic adversaries have no static
    representation and raise ``ValueError``.
    """
    from repro.failures.crash import RandomCrashes

    if adversary is None:
        return {}
    if isinstance(adversary, RandomCrashes):
        adversary = adversary._plan
    if isinstance(adversary, CrashPlan):
        out: Dict[int, Dict[str, int]] = {}
        for pid, point in adversary._points.items():
            entry = {}
            if point.after_steps is not None:
                entry["after_steps"] = point.after_steps
            if point.after_sends is not None:
                entry["after_sends"] = point.after_sends
            out[pid] = entry
        return out
    raise ValueError(
        f"cannot serialize crash adversary {type(adversary).__name__}; "
        "witnesses support static crash plans only"
    )


__all__.append("crash_points_of")


def replay_witness(witness: Witness) -> Tuple[ExecutionResult, Tuple[int, ...]]:
    """Re-execute a witness once; returns (result, applied choices)."""
    from repro.protocols.base import get_spec

    spec = get_spec(witness.spec)
    factory, kind = kernel_factory_for_spec(
        spec,
        witness.n,
        witness.k,
        witness.t,
        witness.inputs,
        crash_adversary=witness.crash_adversary(),
    )
    if kind != witness.kind:
        raise ValueError(
            f"witness kind {witness.kind!r} does not match spec model "
            f"({kind!r})"
        )
    return run_choices(factory, witness.choices, kind)


@dataclasses.dataclass
class WitnessReport:
    """Replay + oracle verdicts for one witness."""

    witness: Witness
    result: ExecutionResult
    violations: List[Violation]
    deterministic: bool

    @property
    def demonstrates_expected(self) -> bool:
        """All oracle names the witness claims to break actually fired."""
        fired = {v.oracle for v in self.violations}
        return set(self.witness.expect) <= fired

    def summary(self) -> str:
        det = "replay deterministic" if self.deterministic else (
            "REPLAY DIVERGED"
        )
        if not self.violations:
            return f"clean ({det})"
        lines = "; ".join(str(v) for v in self.violations)
        return f"{len(self.violations)} violation(s) ({det}): {lines}"


def verify_witness(witness: Witness) -> WitnessReport:
    """Replay a witness twice, check determinism, run the oracle stack.

    Safety oracles only when the schedule is truncated (some correct
    process undecided by construction); the full stack otherwise.
    """
    result, applied = replay_witness(witness)
    again, applied_again = replay_witness(witness)
    deterministic = (
        applied == applied_again
        and result.outcome == again.outcome
        and result.ticks == again.ticks
    )
    problem = witness.problem()
    outcome = result.outcome
    undecided = outcome.correct - set(outcome.decisions)
    if undecided:
        # A shrunk/truncated schedule leaves correct processes undecided
        # by construction; flagging termination on it would be noise.
        violations = safety_violations(result, problem)
    else:
        violations = check_execution(result, problem)
    return WitnessReport(
        witness=witness,
        result=result,
        violations=violations,
        deterministic=deterministic,
    )


def exploration_witnesses(
    exploration,
    spec: str,
    inputs: Sequence[Value],
    k: int,
    t: int,
    crash_adversary=None,
    validity: Optional[str] = None,
) -> List[Witness]:
    """One witness per counterexample an exhaustive exploration found.

    The exhaustive explorer (:mod:`repro.harness.exhaustive`) records a
    violating run as its choice path -- event seqs for message passing,
    pids for shared memory.  Nearly every message-passing step of that
    path was a transition-memo hit that ran no handler, and nearly every
    shared-memory step executed on a *restored* kernel, so turning the
    path into a replayable witness is the explorer's soundness check:
    the same choices on a fresh kernel must reproduce the violation.
    :func:`confirm_exploration` performs that check end to end.

    ``expect`` is filled with the oracle names implied by the
    explorer's failure keys (the bare judge's ``"validity"`` key maps
    to the stack's ``"validity:<code>"``).  Termination failures are
    omitted from ``expect``: a choice-list replay is indistinguishable
    from a truncated schedule, on which :func:`verify_witness`
    deliberately skips the termination oracle.

    Dynamic crash adversaries have no serializable form
    (:func:`crash_points_of` raises); explorations under them cannot be
    turned into witnesses.
    """
    from repro.protocols.base import get_spec

    protocol = get_spec(spec)
    code = validity or protocol.validity
    kind = "sm" if protocol.is_shared_memory else "mp"
    crash_points = crash_points_of(crash_adversary)
    witnesses = []
    for path, failures in exploration.violations:
        expect = tuple(sorted(
            f"validity:{code}" if key == "validity" else key
            for key in failures
            if key != "termination"
        ))
        witnesses.append(Witness(
            spec=spec,
            n=len(inputs),
            k=k,
            t=t,
            inputs=tuple(inputs),
            choices=tuple(path),
            kind=kind,
            crash_points=dict(crash_points),
            validity=code,
            note="exhaustive exploration counterexample",
            expect=expect,
        ))
    return witnesses


def confirm_exploration(
    exploration,
    spec: str,
    inputs: Sequence[Value],
    k: int,
    t: int,
    crash_adversary=None,
    validity: Optional[str] = None,
) -> List[WitnessReport]:
    """Replay every explorer counterexample on a fresh kernel.

    This is the explorer's external soundness check: a violation found
    through memoized steps or snapshot/restore forking must survive
    being re-executed from scratch.  Returns one report per recorded
    violation; raises ``ValueError`` if any witness replays
    non-deterministically or fails to demonstrate the oracles the
    explorer reported -- either would mean the explored states diverged
    from real executions.
    """
    reports = []
    broken = []
    for witness in exploration_witnesses(
        exploration, spec, inputs, k, t,
        crash_adversary=crash_adversary, validity=validity,
    ):
        report = verify_witness(witness)
        reports.append(report)
        if not report.deterministic or not report.demonstrates_expected:
            broken.append(report)
    if broken:
        details = "; ".join(
            f"[{report.witness.describe()}] {report.summary()}"
            for report in broken
        )
        raise ValueError(
            f"{len(broken)} exploration witness(es) failed to replay: "
            f"{details}"
        )
    return reports


__all__ += ["confirm_exploration", "exploration_witnesses"]


def save_witness(witness: Witness, path: Union[str, pathlib.Path]) -> None:
    # Atomic: a crash mid-save must never leave a torn witness that a
    # later ``verify-run`` fails to parse.
    from repro.io import atomic_write_text

    atomic_write_text(path, witness.to_json() + "\n")


def load_witness(path: Union[str, pathlib.Path]) -> Witness:
    return Witness.from_json(pathlib.Path(path).read_text())


def check_outcome_json(blob: str, problem: SCProblem) -> List[Violation]:
    """Oracle-check a bare serialized :class:`Outcome` (no replay)."""
    return check_execution(outcome_result(Outcome.from_json(blob)), problem)


__all__.append("check_outcome_json")
