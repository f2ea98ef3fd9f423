"""Monte-Carlo sweeps: many randomized executions of one protocol.

A sweep exercises one registered protocol at one ``(n, k, t)`` point
across randomized schedules, failure patterns, and input shapes, and
counts condition violations.  Inside a protocol's solvable region the
expected violation count is zero; the figure benchmarks and the test
suite both assert exactly that.

Every run derives its randomness from ``(config.seed, run_index)``
alone, so runs are independent and order-free: :func:`sweep_spec` can
shard them across worker processes (``jobs > 1``) and still aggregate
results bit-identical to the serial path.  Runs default to
``TraceMode.COUNTERS`` -- the sweep only reads outcomes and aggregate
counters, so no :class:`~repro.runtime.traces.TraceRecord` is allocated
on this path.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.failures.byzantine import (
    GarbageProcess,
    MultiFaceProcess,
    MuteProcess,
    SilentDecider,
)
from repro.failures.byzantine_sm import (
    garbage_writer,
    mute_program,
    register_rewriter,
    silent_decider_program,
    with_fake_input,
)
from repro.failures.crash import RandomCrashes
from repro.harness.inputs import INPUT_PATTERNS, make_inputs
from repro.harness.parallel import parallel_map, resolve_jobs
from repro.harness.runner import ExperimentReport, run_spec
from repro.net.schedulers import RandomScheduler
from repro.protocols.base import ProtocolSpec, get_spec, is_registered
from repro.runtime.kernel import KernelLimitError
from repro.runtime.traces import TraceMode
from repro.shm.schedulers import RandomProcessScheduler

__all__ = ["ENGINES", "SweepConfig", "SweepStats", "Violation", "sweep_spec"]

#: The execution engines :func:`sweep_spec` accepts.
ENGINES = ("scalar", "auto")


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep."""

    runs: int = 50
    seed: int = 0
    input_patterns: Sequence[str] = INPUT_PATTERNS
    max_ticks: int = 300_000
    trace_mode: TraceMode = TraceMode.COUNTERS
    #: also run the :mod:`repro.verify.oracles` stack over every run;
    #: oracle findings are reported as :class:`Violation` records.
    verify: bool = False

    def __post_init__(self) -> None:
        if self.runs < 0:
            raise ValueError(f"runs must be >= 0, got {self.runs}")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One run that broke a condition (or failed to terminate)."""

    run_index: int
    pattern: str
    conditions: Tuple[str, ...]
    detail: str


@dataclasses.dataclass
class SweepStats:
    """Aggregate result of a sweep."""

    spec_name: str
    n: int
    k: int
    t: int
    runs: int = 0
    violations: List[Violation] = dataclasses.field(default_factory=list)
    decisions_histogram: Dict[int, int] = dataclasses.field(default_factory=dict)
    #: which engine produced the stats ("scalar" or "batch")
    engine: str = "scalar"
    #: how the runs were executed (serial/parallel/vectorized + why)
    execution: str = ""
    #: machine-readable code for why an ``auto`` request fell back to
    #: the scalar engine (one of
    #: :data:`repro.batch.FALLBACK_REASON_CODES`); empty when no
    #: fallback happened.
    fallback_reason: str = ""

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def max_distinct_decisions(self) -> int:
        return max(self.decisions_histogram, default=0)

    def summary(self) -> str:
        status = "clean" if self.clean else f"{len(self.violations)} violations"
        return (
            f"{self.spec_name} n={self.n} k={self.k} t={self.t}: "
            f"{self.runs} runs, {status}, "
            f"max distinct decisions {self.max_distinct_decisions}"
        )


def _mp_byzantine_pool(spec: ProtocolSpec, n: int, k: int, t: int, rng: random.Random):
    """Byzantine behaviour builders for message-passing sweeps."""

    def mute(pid: int):
        return MuteProcess()

    def garbage(pid: int):
        return GarbageProcess(seed=rng.randrange(1 << 30))

    def silent(pid: int):
        return SilentDecider()

    def faces(pid: int):
        split = rng.randrange(1, n)
        return MultiFaceProcess(
            protocol_factory=lambda: spec.make(n, k, t),
            face_inputs={"a": f"lieA{pid}", "b": f"lieB{pid}"},
            face_of_peer=lambda peer: "a" if peer < split else "b",
        )

    return (mute, garbage, silent, faces)


def _sm_byzantine_pool(spec: ProtocolSpec, n: int, k: int, t: int, rng: random.Random):
    """Byzantine behaviour builders for shared-memory sweeps."""
    base_program = spec.make(n, k, t)

    def mute(pid: int):
        return mute_program

    def garbage(pid: int):
        return garbage_writer(seed=rng.randrange(1 << 30))

    def rewriter(pid: int):
        return register_rewriter([f"x{pid}", f"y{pid}", ("junk",)])

    def liar(pid: int):
        return with_fake_input(base_program, f"lie{pid}")

    def silent(pid: int):
        return silent_decider_program

    return (mute, garbage, rewriter, liar, silent)


def _sweep_run(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    config: SweepConfig,
    index: int,
) -> Tuple[Optional[Violation], Optional[int]]:
    """Execute run ``index`` of a sweep.

    Returns ``(violation, distinct)``: the violation (if any) and the
    number of distinct correct decisions (``None`` when the run hit the
    tick budget).  All randomness is derived from ``(config.seed,
    index)``, so the result is independent of which process runs it.
    """
    rng = random.Random(f"{config.seed}:{index}")
    pattern = config.input_patterns[index % len(config.input_patterns)]
    crash_adversary = None
    byzantine = {}
    if spec.model.is_crash:
        crash_adversary = RandomCrashes(
            n, t, seed=rng.randrange(1 << 30)
        )
        faulty_hint = crash_adversary.potentially_faulty()
    else:
        count = rng.randint(0, t)
        victims = rng.sample(range(n), count)
        pool = (
            _sm_byzantine_pool(spec, n, k, t, rng)
            if spec.is_shared_memory
            else _mp_byzantine_pool(spec, n, k, t, rng)
        )
        for pid in victims:
            byzantine[pid] = rng.choice(pool)(pid)
        faulty_hint = frozenset(victims)
    inputs = make_inputs(pattern, n, rng, faulty=faulty_hint)
    scheduler = (
        RandomProcessScheduler(seed=rng.randrange(1 << 30))
        if spec.is_shared_memory
        else RandomScheduler(seed=rng.randrange(1 << 30))
    )
    try:
        report: ExperimentReport = run_spec(
            spec,
            n,
            k,
            t,
            inputs,
            scheduler=scheduler,
            crash_adversary=crash_adversary,
            byzantine_behaviours=byzantine or None,
            max_ticks=config.max_ticks,
            trace_mode=config.trace_mode,
            verify=config.verify,
        )
    except KernelLimitError as error:
        return Violation(index, pattern, ("termination",), str(error)), None
    distinct = len(report.outcome.correct_decision_values())
    if not report.ok:
        violated = report.violated()
        conditions = list(violated)
        details = [str(v) for v in violated.values()]
        for finding in report.oracle_violations or ():
            if finding.oracle not in conditions:
                conditions.append(finding.oracle)
            details.append(str(finding))
        violation = Violation(
            index,
            pattern,
            tuple(conditions),
            "; ".join(details),
        )
        return violation, distinct
    return None, distinct


def _sweep_task(task) -> Tuple[Optional[Violation], Optional[int]]:
    """Module-level worker: one sweep run, spec resolved by name."""
    spec_name, n, k, t, config, index = task
    return _sweep_run(get_spec(spec_name), n, k, t, config, index)


def sweep_spec(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    config: Optional[SweepConfig] = None,
    jobs: int = 1,
    engine: str = "scalar",
) -> SweepStats:
    """Run randomized executions of ``spec`` at ``(n, k, t)``.

    Crash-model specs face :class:`RandomCrashes`; Byzantine-model specs
    face up to ``t`` processes drawn from a pool of Byzantine behaviours
    (mute, garbage, history rewriting, input lying, two-faced protocol
    execution).  Schedulers are seeded-random.  Returns aggregate stats;
    no exception is raised on violations (callers assert on
    :attr:`SweepStats.clean`).

    ``engine`` selects the execution engine: ``"scalar"`` (default) runs
    the discrete-event kernel per run; ``"auto"`` uses the vectorized
    :mod:`repro.batch` engine where it models the sweep
    (message-passing crash model, threshold-structured protocols,
    counters-only tracing) and falls back to scalar otherwise, recording
    the fallback reason in :attr:`SweepStats.execution`.  The batch
    engine samples its own (equally distributed) adversary, so batch
    and scalar sweeps agree in aggregate but not run-by-run;
    :func:`repro.batch.batch_vs_replay` checks exact per-run agreement.

    With ``jobs != 1`` (``0`` = all cores) scalar runs are sharded across
    worker processes; results are aggregated in run-index order and
    therefore bit-identical to the serial path.  Parallel execution
    requires the spec to be resolvable by name in the registry (ad-hoc
    specs run serially).
    """
    config = config or SweepConfig()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    fallback_note = ""
    fallback_code = ""
    if engine == "auto":
        # Function-level import: repro.batch needs numpy and imports
        # this module back for SweepStats.
        from repro.batch import batch_sweep, sweep_unsupported_reason

        reason = sweep_unsupported_reason(spec, n, k, t, config)
        if reason is None:
            return batch_sweep(spec, n, k, t, config)
        fallback_note = f"batch engine not applicable ({reason}); "
        fallback_code = reason.code
    stats = SweepStats(
        spec_name=spec.name, n=n, k=k, t=t,
        fallback_reason=fallback_code,
    )

    requested = resolve_jobs(jobs)
    workers = min(requested, config.runs)
    if workers > 1 and is_registered(spec):
        tasks = [
            (spec.name, n, k, t, config, index) for index in range(config.runs)
        ]
        results = parallel_map(_sweep_task, tasks, jobs=workers)
        execution = f"parallel x{workers}: {config.runs} runs"
    else:
        results = [
            _sweep_run(spec, n, k, t, config, index)
            for index in range(config.runs)
        ]
        if workers > 1:
            execution = "serial: spec not resolvable by name in the registry"
        elif requested > 1:
            execution = f"serial: {config.runs} run(s)"
        else:
            execution = "serial: jobs <= 1 requested"
    stats.execution = fallback_note + execution

    for violation, distinct in results:
        stats.runs += 1
        if distinct is None:  # hit the tick budget
            stats.violations.append(violation)
            continue
        stats.decisions_histogram[distinct] = (
            stats.decisions_histogram.get(distinct, 0) + 1
        )
        if violation is not None:
            stats.violations.append(violation)
    return stats
