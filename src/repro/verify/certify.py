"""Machine certification of the paper's claimed regions.

:data:`repro.paper.CLAIMED_REGIONS` records which protocol is claimed to
solve ``SC(k, t, C)`` where.  This module turns that lookup table into a
checked artifact: for one ``n`` it sweeps every claim over the full
``(k, t)`` grid and, point by point,

* **inside** the claimed region (``spec.solvable(n, k, t)``), runs the
  protocol through the exhaustive explorer over every input pattern and
  every enumerated crash plan; the point is ``CONFIRMED_SOLVABLE`` only
  when every exploration is exhaustive and violation-free;
* **outside** the region, where the solvability classifier says the
  point is ``IMPOSSIBLE``, hunts for a counterexample run
  (``COUNTEREXAMPLE_CONFIRMED``);
* outside the region where the protocol's factory refuses to build at
  all, records ``REGION_GUARDED`` -- the implementation enforces its own
  precondition, which is itself evidence the claim's boundary is real;
* outside the region where the classifier says ``POSSIBLE`` or ``OPEN``
  the point is ``SKIPPED``: the claim says nothing there.

Both explored cases run one loop.  Every search stops at its first
violation on the exact visited store, since a verdict rests on one run
or on none.  That violation is replayed on a fresh kernel through the
full :mod:`repro.verify` oracle stack (:func:`confirm_exploration`) and
optionally saved as a replayable witness file, whether it refutes an
inside point (``REFUTED``) or confirms an outside one; a violation that
does not replay raises.

The factory is asked once per point, before any exploration, and only
its refusal (a ``ValueError``) is read as a guard.  Any exception an
exploration raises -- a ``MemoryError`` under an address-space cap, say
-- makes the point ``ABORTED``, a failing verdict whose note names the
exception and the instance; the other points still settle.

Grid points are independent ``SC(k, t, C)`` instances, so ``jobs``
fans whole points out over long-lived worker processes
(:func:`repro.harness.parallel.fan_out`) while each point's
explorations run serially inside its worker.  The report is therefore
identical for every ``jobs``.  A worker that dies mid-point (the OOM
killer, a SIGKILL) makes that point ``ABORTED`` with the signal in its
note; the other points settle and the report is still written.

Byzantine-model claims are certified under the crash-restricted
sub-adversary the explorer models; crash failures are a subset of
Byzantine behaviour, so counterexamples transfer soundly while
``CONFIRMED_SOLVABLE`` is, for those claims, confirmation under crash
failures only (recorded in the claim's ``note``).

The report serializes as ``repro-certification/1`` JSON for CI baseline
guards (``repro certify --check-baseline``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.solvability import Solvability, classify
from repro.core.validity import by_code
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.exhaustive import (
    SpecFactory,
    crash_patterns,
    explore_mp,
    explore_sm,
)
from repro.harness.parallel import DIED, fan_out
from repro.paper import CLAIMED_REGIONS, ClaimedRegion, claimed_region_by_spec
from repro.verify.witness import confirm_exploration, save_witness

__all__ = [
    "CertificationReport",
    "ClaimResult",
    "InvalidGrid",
    "PointResult",
    "REPORT_FORMAT",
    "certify_claims",
]

REPORT_FORMAT = "repro-certification/1"

#: Point verdicts, in severity order (worst first).
VERDICTS = (
    "REFUTED",                   # claimed solvable, violation found
    "COUNTEREXAMPLE_MISSING",    # claimed impossible, no violation found
    "ABORTED",                   # an exploration raised (e.g. MemoryError)
    "INCONCLUSIVE",              # exploration hit its state budget
    "COUNTEREXAMPLE_CONFIRMED",  # impossibility witnessed + re-proven
    "CONFIRMED_SOLVABLE",        # clean exhaustive sweep inside region
    "REGION_GUARDED",            # factory refuses outside its region
    "SKIPPED",                   # claim says nothing at this point
)

_FAILING = frozenset({"REFUTED", "COUNTEREXAMPLE_MISSING", "ABORTED"})


class InvalidGrid(ValueError):
    """A ``specs`` filter names a spec with no claim or selects none, or
    a ``ks``/``ts`` filter names a k outside ``1..n`` or a negative t."""


@dataclasses.dataclass
class PointResult:
    """Certification outcome of one ``(k, t)`` grid point."""

    k: int
    t: int
    inside: bool
    classification: str
    verdict: str
    states: int = 0
    explorations: int = 0
    #: Always ``False``: certify searches the exact store only.  Kept in
    #: the report because the e2e benchmark's certify workload sums it.
    escalated: bool = False
    witness_path: Optional[str] = None
    note: str = ""
    #: Why symmetry reduction was refused (empty when active or off);
    #: surfaces e.g. the sim-* simulation wrappers' refusal instead of
    #: silently exploring unreduced.
    symmetry_reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ClaimResult:
    """All grid points of one claimed region."""

    spec_name: str
    protocol: str
    model: str
    validity: str
    lemma: str
    points: List[PointResult] = dataclasses.field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return not any(p.verdict in _FAILING for p in self.points)

    @property
    def states(self) -> int:
        return sum(p.states for p in self.points)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_name": self.spec_name,
            "protocol": self.protocol,
            "model": self.model,
            "validity": self.validity,
            "lemma": self.lemma,
            "ok": self.ok,
            "note": self.note,
            "points": [p.to_dict() for p in self.points],
        }


@dataclasses.dataclass
class CertificationReport:
    """One full certification sweep, serializable for CI guards."""

    n: int
    symmetry: bool
    claims: List[ClaimResult] = dataclasses.field(default_factory=list)
    skipped_specs: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(claim.ok for claim in self.claims)

    @property
    def total_states(self) -> int:
        return sum(claim.states for claim in self.claims)

    def verdict_counts(self) -> Dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for claim in self.claims:
            for point in claim.points:
                counts[point.verdict] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": REPORT_FORMAT,
            "n": self.n,
            "symmetry": self.symmetry,
            "ok": self.ok,
            "total_states": self.total_states,
            "verdicts": self.verdict_counts(),
            "skipped_specs": list(self.skipped_specs),
            "claims": [claim.to_dict() for claim in self.claims],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: Union[str, pathlib.Path]) -> None:
        from repro.io import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")


# ---------------------------------------------------------------------------
# instance enumeration


def _input_patterns(n: int) -> List[Tuple[str, List[str]]]:
    """The input vectors each point is certified over.

    ``uniform`` probes the agreement-trivial corner, ``split`` the
    two-value validity conditions, ``distinct`` the k-agreement pigeon-
    hole (with n distinct inputs any decision spread beyond ``k`` values
    is observable).  Patterns are swept in this order; counterexample
    hunts therefore try the most discriminating vector first.
    """
    distinct = [f"v{i}" for i in range(n)]
    split = ["v" if i < (n + 1) // 2 else "w" for i in range(n)]
    uniform = ["v"] * n
    return [("distinct", distinct), ("split", split), ("uniform", uniform)]


def _sm_crash_plans(n: int, t: int) -> List[Optional[CrashPlan]]:
    """Crash plans for shared-memory points (step-indexed only).

    SM processes take no send actions, so only ``after_steps`` crash
    points are meaningful: the failure-free plan plus every single
    victim halting before op 0, 1, or 2 (before its write, mid-scan,
    and between scan cycles).
    """
    plans: List[Optional[CrashPlan]] = [None]
    if t < 1:
        return plans
    for victim in range(n):
        for ops in (0, 1, 2):
            plans.append(CrashPlan({victim: CrashPoint(after_steps=ops)}))
    return plans


@dataclasses.dataclass(frozen=True)
class _PointTask:
    """One ``(k, t)`` grid point of one claim, picklable for the pool."""

    claim: ClaimedRegion
    n: int
    k: int
    t: int
    symmetry: bool
    max_states: int
    max_sends: int
    witness_dir: Optional[pathlib.Path]


def _explore_or_abort(
    task: _PointTask,
    spec,
    point: PointResult,
    instance: Tuple[str, List[str], Optional[CrashPlan]],
):
    """Explore one instance up to its first violation, or return
    ``None`` after marking the point ``ABORTED`` if the search raised.

    The factory already built once before any exploration, so nothing
    raised here is a region guard: it is the search running out of a
    resource (or a bug), and it must not pass for a verdict about the
    claim.  The tracebacks go first: their frames hold everything the
    failed search built, and a search that ran out of memory leaves
    nothing to build the note with until they are freed.
    """
    label, inputs, plan = instance
    explore = explore_sm if spec.is_shared_memory else explore_mp
    try:
        return explore(
            SpecFactory(spec.name, task.n, task.k, task.t),
            inputs, task.k, task.t, by_code(spec.validity),
            crash_adversary=plan,
            max_states=task.max_states,
            symmetry=task.symmetry,
            stop_on_violation=True,
        )
    except Exception as exc:
        chained: Optional[BaseException] = exc
        while chained is not None:
            chained.__traceback__ = None
            chained = chained.__context__
        point.verdict = "ABORTED"
        point.note = f"{type(exc).__name__} under inputs={label} plan={plan!r}"
        if str(exc):
            point.note += f": {exc}"
        return None


def _note_stats(point: PointResult, result) -> None:
    """Fold one exploration's observability stats into the point."""
    point.explorations += 1
    point.states += result.states
    if not point.symmetry_reason and result.stats.symmetry_reason:
        point.symmetry_reason = result.stats.symmetry_reason


# ---------------------------------------------------------------------------
# per-point certification


def _certify_instances(
    task: _PointTask, spec, point: PointResult,
    instances: List[Tuple[str, List[str], Optional[CrashPlan]]],
) -> None:
    """Settle an explored point at its first violation, or after its
    last clean instance.

    A violation is replayed through :func:`confirm_exploration` (which
    raises if it does not replay) and its witness saved; it refutes an
    inside point and confirms an outside one.
    """
    for instance in instances:
        label, inputs, plan = instance
        result = _explore_or_abort(task, spec, point, instance)
        if result is None:
            return
        _note_stats(point, result)
        if result.violations:
            (replay,) = confirm_exploration(
                result, spec.name, inputs, point.k, point.t,
                crash_adversary=plan, validity=spec.validity,
            )
            if task.witness_dir is not None:
                path = task.witness_dir / (
                    f"{spec.name}-n{task.n}-k{point.k}-t{point.t}.json"
                )
                task.witness_dir.mkdir(parents=True, exist_ok=True)
                save_witness(replay.witness, path)
                point.witness_path = str(path)
            if point.inside:
                point.verdict = "REFUTED"
                point.note = (
                    f"violation under inputs={label} plan={plan!r}: "
                    f"{sorted(map(sorted, result.violation_kinds()))}"
                )
            else:
                point.verdict = "COUNTEREXAMPLE_CONFIRMED"
                point.note = f"inputs={label} plan={plan!r}"
            return
        if not result.exhausted:
            point.verdict = "INCONCLUSIVE"
            point.note = f"state budget hit under inputs={label}"
            return
    if point.inside:
        point.verdict = "CONFIRMED_SOLVABLE"
    else:
        point.verdict = "COUNTEREXAMPLE_MISSING"
        point.note = (
            "no violating schedule within the enumerated instance family"
        )


# ---------------------------------------------------------------------------
# the sweep


def certify_claims(
    n: int = 4,
    specs: Optional[Sequence[str]] = None,
    ks: Optional[Sequence[int]] = None,
    ts: Optional[Sequence[int]] = None,
    symmetry: bool = True,
    max_states: int = 500_000,
    jobs: Optional[int] = None,
    max_sends: int = 1,
    witness_dir: Optional[Union[str, pathlib.Path]] = None,
    progress=None,
) -> CertificationReport:
    """Certify ``CLAIMED_REGIONS`` exhaustively at one ``n``.

    Args:
        n: system size; the grid is ``k in 1..n`` x ``t in 0..n-1``
            (restrictable via ``ks``/``ts``).
        specs: spec-name filter (default: every claim except the
            ``sim-*`` simulation claims, whose points multiply the grid
            by the simulated protocol's own exploration; name one here
            to certify it).
        ks, ts: restrict the k and t grids.
        symmetry: enable process-permutation reduction (on by default;
            the explorer drops it automatically where unsound).
        max_states: per-exploration state budget; exceeding it makes a
            point ``INCONCLUSIVE``, never silently certified.
        jobs: certify grid points on this many worker processes (``0``
            means one per core).  Each point's explorations run
            serially inside its worker, so the report is identical for
            every value, including the default serial ``None``.
        max_sends: partial-broadcast crash depth for MP crash plans
            (see :func:`repro.harness.exhaustive.crash_patterns`).
        witness_dir: when set, the witness of every reported violation
            (a counterexample or a refutation) is saved here.
        progress: optional callable invoked as ``progress(message)``
            after every finished point, in grid order (the CLI prints
            these).

    Raises:
        InvalidGrid: before any point runs, if ``specs`` names a spec
            with no claim or selects no claim at all, or ``ks``/``ts``
            name a k outside ``1..n`` or a negative t.
    """
    report = CertificationReport(n=n, symmetry=symmetry)
    directory = pathlib.Path(witness_dir) if witness_dir else None
    wanted = set(specs) if specs is not None else None
    if wanted is not None:
        unknown = sorted(
            name for name in wanted if claimed_region_by_spec(name) is None
        )
        if unknown:
            raise InvalidGrid(f"no claim for spec(s): {', '.join(unknown)}")
        if not wanted:
            raise InvalidGrid("the spec filter selects no claim")
    k_values = list(ks) if ks is not None else list(range(1, n + 1))
    t_values = list(ts) if ts is not None else list(range(n))
    bad_ks = [k for k in k_values if not 1 <= k <= n]
    if bad_ks:
        raise InvalidGrid(f"k must be in 1..{n}, got {bad_ks}")
    bad_ts = [t for t in t_values if t < 0]
    if bad_ts:
        raise InvalidGrid(f"t must be >= 0, got {bad_ts}")

    tasks: List[_PointTask] = []
    owners: List[ClaimResult] = []
    for claim in CLAIMED_REGIONS:
        if wanted is not None and claim.spec_name not in wanted:
            continue
        if claim.spec_name.startswith("sim-") and wanted is None:
            report.skipped_specs.append(claim.spec_name)
            continue
        result = ClaimResult(
            spec_name=claim.spec_name,
            protocol=claim.protocol,
            model=claim.model_attr,
            validity=claim.validity,
            lemma=claim.lemma,
        )
        if claim.model.is_byzantine:
            result.note = (
                "certified under the crash-restricted sub-adversary: "
                "crash failures are a subset of Byzantine behaviour, so "
                "counterexamples transfer; solvable confirmations cover "
                "crash failures only"
            )
        report.claims.append(result)
        for k in k_values:
            for t in t_values:
                tasks.append(_PointTask(
                    claim, n, k, t, symmetry, max_states, max_sends,
                    directory,
                ))
                owners.append(result)

    if symmetry:  # forked workers inherit it instead of each compiling it
        import repro.harness.symmetry  # noqa: F401

    # The stream yields in task order, so points land in grid order.
    with contextlib.closing(
        fan_out(_certify_point, tasks, 1 if jobs is None else jobs)
    ) as outcomes:
        for owner, task, outcome in zip(owners, tasks, outcomes):
            if outcome.kind == DIED:
                point = _new_point(task, _registry_spec(task.claim))
                point.verdict = "ABORTED"
                point.note = f"worker {outcome.cause} before the point settled"
            else:
                point = outcome.result()
            owner.points.append(point)
            if progress is not None:
                progress(
                    f"{task.claim.spec_name} k={task.k} t={task.t}: "
                    f"{point.verdict} ({point.states} states)"
                )
    return report


def _registry_spec(claim: ClaimedRegion):
    import repro.protocols  # noqa: F401 -- populate the registry
    from repro.protocols.base import get_spec

    return get_spec(claim.spec_name)


def _new_point(task: _PointTask, spec: Any) -> PointResult:
    """The point's place and classification, verdict ``SKIPPED``."""
    claim, n, k, t = task.claim, task.n, task.k, task.t
    classification = classify(
        claim.model, by_code(claim.validity), n, k, t
    )
    return PointResult(
        k=k, t=t, inside=bool(spec.solvable(n, k, t)),
        classification=classification.status.value,
        verdict="SKIPPED",
    )


def _certify_point(task: _PointTask) -> PointResult:
    """Certify one grid point (runs in a worker under ``jobs``)."""
    n, k, t = task.n, task.k, task.t
    spec = _registry_spec(task.claim)
    point = _new_point(task, spec)
    inside = point.inside
    if not inside and point.classification != Solvability.IMPOSSIBLE.value:
        point.note = (
            f"outside claimed region, classifier says "
            f"{point.classification}: nothing to certify"
        )
        return point
    try:
        SpecFactory(spec.name, n, k, t)()
    except ValueError as exc:
        if inside:
            point.verdict = "REFUTED"
            point.note = f"factory failed inside region: {exc}"
        else:
            point.verdict = "REGION_GUARDED"
            point.note = f"factory refuses outside region: {exc}"
        return point
    if spec.is_shared_memory:
        plans = _sm_crash_plans(n, t)
    else:
        plans = crash_patterns(n, t, task.max_sends)
    instances = [
        (label, inputs, plan)
        for label, inputs in _input_patterns(n)
        for plan in plans
    ]
    _certify_instances(task, spec, point, instances)
    return point
