"""The shrinker on a protocol that is actually broken.

:class:`~repro.protocols.ablations.ProtocolBStrictQuorum` (PROTOCOL B
with the ``n - 2t`` margin tightened to unanimity) violates SV2 in the
seeded divergent-crash run from :mod:`repro.protocols.ablations`.  That
gives the shrinker a real counterexample: these tests record the
violating schedule, minimize it, and check the contract -- strictly
smaller, still violating, and bit-identical under double replay.
"""

import pytest

from repro.core.problem import SCProblem
from repro.core.validity import SV2
from repro.failures.crash import CrashPlan, CrashPoint
from repro.net.schedulers import FifoScheduler
from repro.protocols.ablations import ProtocolBStrictQuorum
from repro.protocols.base import get_spec
from repro.runtime.kernel import MPKernel
from repro.runtime.replay import Recording, RecordingScheduler
from repro.runtime.traces import TraceMode
from repro.verify.oracles import safety_violations
from repro.verify.shrink import (
    SubsequenceScheduler,
    kernel_factory_for_spec,
    run_choices,
    shrink_recording,
    shrink_schedule,
)

N, K, T = 5, 3, 1
INPUTS = ["w", "v", "v", "v", "v"]
PROBLEM = SCProblem(n=N, k=K, t=T, validity=SV2)


def _factory(scheduler):
    """Fresh strict-quorum kernel for the divergent-crash instance."""
    return MPKernel(
        [ProtocolBStrictQuorum() for _ in range(N)],
        list(INPUTS),
        t=T,
        scheduler=scheduler,
        crash_adversary=CrashPlan({0: CrashPoint(after_steps=1)}),
        stop_when_decided=False,
        trace_mode=TraceMode.FULL,
    )


def _recorded_violation() -> Recording:
    """Record the broken run's full schedule."""
    scheduler = RecordingScheduler(FifoScheduler())
    _factory(scheduler).run()
    return scheduler.recording


def test_seeded_run_violates_sv2():
    result, _ = run_choices(_factory, _recorded_violation().choices, "mp")
    fired = {v.oracle for v in safety_violations(result, PROBLEM)}
    assert "validity:SV2" in fired


def test_shrink_produces_strictly_smaller_still_violating_schedule():
    recording = _recorded_violation()
    shrunk = shrink_recording(_factory, recording, PROBLEM)
    assert len(shrunk.minimized) < len(recording.choices)
    assert shrunk.reduction > 0
    assert any(v.oracle == "validity:SV2" for v in shrunk.violations)
    # The minimized schedule violates on a fresh replay, not just in the
    # shrinker's own bookkeeping.
    result, applied = run_choices(_factory, shrunk.minimized, "mp")
    assert applied == shrunk.minimized, "minimized schedule must be canonical"
    assert any(
        v.oracle == "validity:SV2" for v in safety_violations(result, PROBLEM)
    )


def test_minimized_schedule_replays_bit_identically_twice():
    shrunk = shrink_recording(_factory, _recorded_violation(), PROBLEM)
    first, applied_first = run_choices(_factory, shrunk.minimized, "mp")
    second, applied_second = run_choices(_factory, shrunk.minimized, "mp")
    assert applied_first == applied_second
    assert first.outcome == second.outcome
    assert first.ticks == second.ticks
    assert list(first.trace.of_kind("decide")) == list(
        second.trace.of_kind("decide")
    )


def test_minimized_schedule_is_one_minimal():
    """ddmin's guarantee: removing any single choice loses the violation
    or changes nothing (the schedule is 1-minimal, not globally minimal)."""
    shrunk = shrink_recording(_factory, _recorded_violation(), PROBLEM)
    for index in range(len(shrunk.minimized)):
        candidate = shrunk.minimized[:index] + shrunk.minimized[index + 1:]
        result, applied = run_choices(_factory, candidate, "mp")
        if tuple(applied) == tuple(shrunk.minimized):
            continue  # the dropped entry was inapplicable anyway
        assert not any(
            v.oracle == "validity:SV2"
            for v in safety_violations(result, PROBLEM)
        ), f"dropping choice {index} kept the violation: not 1-minimal"


def test_shrink_refuses_a_clean_schedule():
    # Healthy PROTOCOL B absorbs the divergent value; same schedule
    # shape, no violation, so there is nothing to shrink.
    spec = get_spec("protocol-b@mp-cr")
    factory, kind = kernel_factory_for_spec(
        spec, N, K, T, INPUTS,
        crash_adversary=CrashPlan({0: CrashPoint(after_steps=1)}),
        stop_when_decided=False,
    )
    scheduler = RecordingScheduler(FifoScheduler())
    factory(scheduler).run()
    with pytest.raises(ValueError, match="does not violate"):
        shrink_schedule(
            factory, scheduler.recording.choices, kind, problem=PROBLEM
        )


def test_shrink_requires_problem_or_predicate():
    with pytest.raises(ValueError, match="violates predicate or a problem"):
        shrink_schedule(_factory, (1, 2, 3), "mp")


def test_subsequence_scheduler_skips_inapplicable_choices():
    recording = _recorded_violation()
    # Interleave garbage seqs; tolerant replay must skip them and apply
    # exactly the original schedule.
    noisy = []
    for choice in recording.choices:
        noisy.extend((choice, 10_000 + choice))
    result, applied = run_choices(_factory, noisy, "mp")
    assert applied == recording.choices
    baseline, _ = run_choices(_factory, recording.choices, "mp")
    assert result.outcome == baseline.outcome


def test_subsequence_scheduler_skips_unknown_sm_pid():
    """A pid the run does not have is inapplicable on SM, as an unknown
    seq is on MP: tolerant replay skips it."""
    factory, kind = kernel_factory_for_spec(
        get_spec("protocol-e@sm-cr"), 3, 2, 0, ["v", "v", "w"]
    )
    _, applied = run_choices(factory, [0, 7, 1, 2, -1], kind)
    assert applied == (0, 1, 2)


def test_subsequence_scheduler_rejects_unknown_kind():
    with pytest.raises(ValueError, match="'mp' or 'sm'"):
        SubsequenceScheduler((), "tcp")


def test_shrinker_on_sm_schedules():
    """SM kind end-to-end: shrink an agreement break of the trivial SM
    protocol run outside its solvable region (k=1, two distinct inputs)."""
    from repro.shm.schedulers import RoundRobinScheduler
    from repro.runtime.replay import RecordingProcessScheduler
    from repro.core.validity import SV1

    spec = get_spec("trivial@sm-cr")
    problem = SCProblem(n=2, k=1, t=0, validity=SV1)
    factory, kind = kernel_factory_for_spec(spec, 2, 1, 0, ["a", "b"])
    assert kind == "sm"
    scheduler = RecordingProcessScheduler(RoundRobinScheduler())
    factory(scheduler).run()
    shrunk = shrink_schedule(
        factory, scheduler.recording.choices, kind, problem=problem
    )
    assert any(v.oracle == "agreement" for v in shrunk.violations)
    assert len(shrunk.minimized) <= len(scheduler.recording.choices)
    again, applied = run_choices(factory, shrunk.minimized, kind)
    assert applied == shrunk.minimized
    assert again.outcome == shrunk.result.outcome
