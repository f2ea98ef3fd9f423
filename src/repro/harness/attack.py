"""Adversarial search: how badly can a protocol be made to misbehave?

The paper leaves *open gaps* in several panels -- regions where no
protocol is known and no impossibility is proved.  This module provides
a randomized adversarial search that, given a protocol and an
``(n, k, t)`` point, hunts for schedules, crash patterns, Byzantine
behaviours, and input assignments maximizing the damage (distinct
correct decisions, or a validity break).

Uses:

* inside a protocol's claimed region it is a *falsification* harness --
  any found violation is a bug (the test suite runs it there and
  expects failure-free results);
* outside the region it quantifies the failure concretely (e.g.
  "PROTOCOL B at t = kn/(2k+1) can be driven to 5 values");
* in the open gaps it provides *evidence* (never proof) about which way
  the open question might resolve for this particular protocol.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import random
from typing import Dict, List, Optional, Tuple

from repro.failures.byzantine import (
    GarbageProcess,
    MultiFaceProcess,
    MuteProcess,
)
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.parallel import fan_out
from repro.harness.runner import ExperimentReport, run_spec
from repro.protocols.base import get_spec, is_registered
from repro.runtime.traces import TraceMode
from repro.net.schedulers import (
    FairDeliveryWrapper,
    GroupPartitionScheduler,
    RandomScheduler,
)
from repro.protocols.base import ProtocolSpec
from repro.runtime.kernel import KernelLimitError, SchedulerStall
from repro.shm.schedulers import (
    FairProcessWrapper,
    RandomProcessScheduler,
    StagedScheduler,
)

__all__ = ["AttackResult", "record_best_witness", "search_worst_run"]


@dataclasses.dataclass
class AttackResult:
    """The most damaging run found by the search."""

    spec_name: str
    n: int
    k: int
    t: int
    attempts: int
    best_distinct: int
    best_report: Optional[ExperimentReport]
    violations_found: int
    first_violation: Optional[str] = None
    #: seed of the winning attempt; feeds :func:`record_best_witness`.
    best_attempt_seed: Optional[int] = None

    @property
    def broke_agreement(self) -> bool:
        return self.best_distinct > self.k

    def summary(self) -> str:
        status = (
            f"VIOLATION after {self.attempts} attempts: {self.first_violation}"
            if self.violations_found
            else f"no violation in {self.attempts} attempts"
        )
        return (
            f"attack on {self.spec_name} at n={self.n}, k={self.k}, "
            f"t={self.t}: max distinct decisions {self.best_distinct}; {status}"
        )


def _random_partition(n: int, rng: random.Random) -> List[List[int]]:
    """A random partition of 0..n-1 into 2..4 groups."""
    pids = list(range(n))
    rng.shuffle(pids)
    group_count = rng.randint(2, min(4, n))
    cuts = sorted(rng.sample(range(1, n), group_count - 1))
    groups, start = [], 0
    for cut in cuts + [n]:
        groups.append(pids[start:cut])
        start = cut
    return [g for g in groups if g]


def _mp_scheduler(n: int, rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return RandomScheduler(seed=rng.randrange(1 << 30))
    # Partition bias wrapped in fairness: delays stay finite, so any
    # termination violation reported is genuine.
    return FairDeliveryWrapper(
        GroupPartitionScheduler(_random_partition(n, rng), release_on_stall=True),
        patience=rng.randint(16, 128),
    )


def _sm_scheduler(n: int, rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return RandomProcessScheduler(seed=rng.randrange(1 << 30))
    return FairProcessWrapper(
        StagedScheduler(_random_partition(n, rng), release_on_stall=True),
        patience=rng.randint(8, 64),
    )


def _crash_plan(n: int, t: int, rng: random.Random) -> Optional[CrashPlan]:
    count = rng.randint(0, t)
    if not count:
        return None
    points: Dict[int, CrashPoint] = {}
    for pid in rng.sample(range(n), count):
        if rng.random() < 0.5:
            points[pid] = CrashPoint(after_sends=rng.randint(0, 2 * n))
        else:
            points[pid] = CrashPoint(after_steps=rng.randint(0, n))
    return CrashPlan(points)


def _byzantine_behaviours(
    spec: ProtocolSpec, n: int, k: int, t: int, rng: random.Random
):
    count = rng.randint(0, t)
    victims = rng.sample(range(n), count)
    behaviours = {}
    for pid in victims:
        roll = rng.random()
        if spec.is_shared_memory:
            from repro.failures.byzantine_sm import (
                garbage_writer,
                mute_program,
                register_rewriter,
            )

            if roll < 0.34:
                behaviours[pid] = mute_program
            elif roll < 0.67:
                behaviours[pid] = garbage_writer(seed=rng.randrange(1 << 30))
            else:
                behaviours[pid] = register_rewriter(
                    [f"w{pid}a", f"w{pid}b", f"w{pid}c"]
                )
        else:
            if roll < 0.25:
                behaviours[pid] = MuteProcess()
            elif roll < 0.5:
                behaviours[pid] = GarbageProcess(seed=rng.randrange(1 << 30))
            else:
                faces = {f"f{i}": f"lie{pid}-{i}" for i in range(rng.randint(2, 4))}
                keys = list(faces)
                behaviours[pid] = MultiFaceProcess(
                    protocol_factory=lambda: spec.make(n, k, t),
                    face_inputs=faces,
                    face_of_peer=lambda peer, keys=keys: keys[peer % len(keys)],
                )
    return behaviours


def _inputs(n: int, rng: random.Random) -> List[str]:
    style = rng.random()
    if style < 0.3:
        return [f"v{i}" for i in range(n)]
    if style < 0.6:
        return ["v"] * n
    pool = [f"v{i}" for i in range(rng.randint(2, max(2, n // 2)))]
    return [rng.choice(pool) for _ in range(n)]


def _attempt_setup(spec: ProtocolSpec, n: int, k: int, t: int, attempt_seed: int):
    """The adversary drawn for one attempt, fully determined by the seed.

    Returns ``(inputs, scheduler, crash, byzantine)``.
    """
    rng = random.Random(attempt_seed)
    crash = None
    byzantine = None
    if spec.model.is_crash:
        crash = _crash_plan(n, t, rng)
    else:
        byzantine = _byzantine_behaviours(spec, n, k, t, rng) or None
    scheduler = (
        _sm_scheduler(n, rng)
        if spec.is_shared_memory
        else _mp_scheduler(n, rng)
    )
    return _inputs(n, rng), scheduler, crash, byzantine


def _run_attempt(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    attempt_seed: int,
    max_ticks: int,
    trace_mode: TraceMode,
    verify: bool = False,
    scheduler_wrapper=None,
) -> ExperimentReport:
    """One attempt; fully determined by ``attempt_seed``.

    May raise :class:`KernelLimitError` / :class:`SchedulerStall` (a
    termination violation).  ``scheduler_wrapper`` (if given) wraps the
    drawn scheduler -- the hook :func:`record_best_witness` uses to
    re-run the winning attempt under a recording scheduler.
    """
    inputs, scheduler, crash, byzantine = _attempt_setup(
        spec, n, k, t, attempt_seed
    )
    if scheduler_wrapper is not None:
        scheduler = scheduler_wrapper(scheduler)
    return run_spec(
        spec, n, k, t, inputs,
        scheduler=scheduler,
        crash_adversary=crash,
        byzantine_behaviours=byzantine,
        max_ticks=max_ticks,
        trace_mode=trace_mode,
        verify=verify,
    )


@dataclasses.dataclass(frozen=True)
class _AttemptSummary:
    """Lightweight, picklable score of one attempt.

    ``distinct`` is ``None`` for termination violations; ``detail``
    carries the violation description when the attempt was not ok.
    """

    distinct: Optional[int]
    ok: bool
    detail: Optional[str]


def _summarize_attempt(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    attempt_seed: int,
    max_ticks: int,
    verify: bool = False,
) -> _AttemptSummary:
    try:
        report = _run_attempt(
            spec, n, k, t, attempt_seed, max_ticks, TraceMode.COUNTERS,
            verify=verify,
        )
    except (KernelLimitError, SchedulerStall) as error:
        return _AttemptSummary(None, False, f"termination: {error}")
    distinct = len(report.outcome.correct_decision_values())
    if report.ok:
        return _AttemptSummary(distinct, True, None)
    details = [str(v) for v in report.violated().values()]
    details.extend(str(v) for v in report.oracle_violations or ())
    return _AttemptSummary(distinct, False, "; ".join(details))


def _attack_task(spec_name: str, n: int, k: int, t: int, attempt_seed: int,
                 max_ticks: int, verify: bool = False) -> _AttemptSummary:
    """Module-level worker: one attack attempt, spec resolved by name."""
    return _summarize_attempt(
        get_spec(spec_name), n, k, t, attempt_seed, max_ticks, verify=verify
    )


def search_worst_run(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    attempts: int = 200,
    seed: int = 0,
    max_ticks: int = 200_000,
    stop_on_violation: bool = False,
    jobs: int = 1,
    verify: bool = False,
) -> AttackResult:
    """Randomized adversarial search for the worst run of ``spec``.

    Every attempt draws a scheduler (random or partition-shaped -- the
    shapes the impossibility proofs use), a failure pattern within the
    budget, and an input style, then runs the protocol and scores the
    run by distinct correct decisions and condition violations.

    Per-attempt seeds are all drawn from the master RNG up front, so
    attempts are independent; with ``jobs > 1`` (``0`` = all cores) they
    run in worker processes and the result is bit-identical to serial.
    Attempts fold in order, so ``stop_on_violation`` stops at the first
    violation for every ``jobs`` (attempts still in flight are killed).
    Attempts execute with ``TraceMode.COUNTERS`` (no trace records); the
    winning attempt is re-run once in ``FULL`` mode so
    :attr:`AttackResult.best_report` still carries a complete trace for
    replay and forensics.

    With ``verify=True`` every attempt (and the final FULL re-run) also
    goes through the :mod:`repro.verify.oracles` stack, so oracle-only
    findings (e.g. a revoked decision invisible to the outcome checks)
    count as violations too.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be >= 0, got {attempts}")
    master = random.Random(seed)
    attempt_seeds = [master.randrange(1 << 62) for _ in range(attempts)]
    result = AttackResult(
        spec_name=spec.name, n=n, k=k, t=t,
        attempts=0, best_distinct=0, best_report=None, violations_found=0,
    )

    if jobs != 1 and is_registered(spec):
        attempt = functools.partial(_attack_task, spec.name, n, k, t,
                                    max_ticks=max_ticks, verify=verify)
    else:  # an ad-hoc spec does not resolve by name in a worker
        jobs = 1
        attempt = functools.partial(_summarize_attempt, spec, n, k, t,
                                    max_ticks=max_ticks, verify=verify)

    best_index: Optional[int] = None
    # Closing the stream (the with block) kills attempts still running.
    with contextlib.closing(fan_out(attempt, attempt_seeds, jobs)) as outcomes:
        for index, outcome in enumerate(outcomes):
            summary = outcome.result()
            result.attempts += 1
            if summary.distinct is None:  # termination violation
                result.violations_found += 1
                if result.first_violation is None:
                    result.first_violation = summary.detail
                if stop_on_violation:
                    break
                continue
            if summary.distinct > result.best_distinct:
                result.best_distinct = summary.distinct
                best_index = index
            if not summary.ok:
                result.violations_found += 1
                if result.first_violation is None:
                    result.first_violation = summary.detail
                if best_index is None or summary.distinct >= result.best_distinct:
                    best_index = index
                if stop_on_violation:
                    break

    if best_index is not None:
        result.best_attempt_seed = attempt_seeds[best_index]
        result.best_report = _run_attempt(
            spec, n, k, t, attempt_seeds[best_index], max_ticks, TraceMode.FULL,
            verify=verify,
        )
    return result


def record_best_witness(
    result: AttackResult,
    max_ticks: int = 200_000,
    shrink: bool = True,
    note: str = "",
):
    """Turn the winning attack attempt into a replayable witness.

    Re-runs the attempt identified by :attr:`AttackResult.best_attempt_seed`
    under a recording scheduler, (optionally) shrinks the recorded
    schedule when the run violates a safety oracle, and packages the
    result as a :class:`repro.verify.witness.Witness`.

    Only crash-model attempts are serializable: Byzantine behaviour
    objects have no witness encoding (raises ``ValueError``), as do
    attempts the search never identified (``best_attempt_seed is None``).
    """
    # Function-level import: repro.verify pulls in harness modules.
    from repro.runtime.replay import (
        RecordingProcessScheduler,
        RecordingScheduler,
    )
    from repro.verify.shrink import kernel_factory_for_spec, shrink_schedule
    from repro.verify.witness import Witness, crash_points_of

    if result.best_attempt_seed is None:
        raise ValueError("attack found no attempt worth recording")
    spec = get_spec(result.spec_name)
    n, k, t = result.n, result.k, result.t
    inputs, _, crash, byzantine = _attempt_setup(
        spec, n, k, t, result.best_attempt_seed
    )
    if byzantine:
        raise ValueError(
            "Byzantine behaviours are not serializable into a witness"
        )
    wrapper = (
        RecordingProcessScheduler if spec.is_shared_memory else RecordingScheduler
    )
    recorder = []

    def wrap(scheduler):
        wrapped = wrapper(scheduler)
        recorder.append(wrapped)
        return wrapped

    try:
        _run_attempt(
            spec, n, k, t, result.best_attempt_seed, max_ticks,
            TraceMode.COUNTERS, scheduler_wrapper=wrap,
        )
    except (KernelLimitError, SchedulerStall):
        pass  # the partial schedule up to the stall is still a witness
    choices = recorder[0].recording.choices
    factory, kind = kernel_factory_for_spec(
        spec, n, k, t, inputs, crash_adversary=crash, max_ticks=max_ticks
    )
    if shrink:
        from repro.verify.shrink import run_choices
        from repro.verify.oracles import safety_violations

        problem = _witness_problem(spec, n, k, t)
        result_now, applied = run_choices(factory, choices, kind)
        if safety_violations(result_now, problem):
            shrunk = shrink_schedule(factory, choices, kind, problem=problem)
            choices = shrunk.minimized
        else:
            choices = applied
    return Witness(
        spec=spec.name,
        n=n,
        k=k,
        t=t,
        inputs=tuple(inputs),
        choices=tuple(choices),
        kind=kind,
        crash_points=crash_points_of(crash) if crash is not None else {},
        note=note or (
            f"attack seed {result.best_attempt_seed}: "
            f"{result.best_distinct} distinct decisions"
        ),
    )


def _witness_problem(spec: ProtocolSpec, n: int, k: int, t: int):
    from repro.core.problem import SCProblem
    from repro.core.validity import by_code

    return SCProblem(n=n, k=k, t=t, validity=by_code(spec.validity))
