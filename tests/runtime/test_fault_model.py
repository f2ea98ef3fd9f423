"""One fault model for both kernels.

``MPKernel`` and ``SMKernel`` take their instance checks, crash
bookkeeping and outcome from one base class, so a run outside the
failure budget is refused by both and dynamic adversaries apply to
both; a sender halted mid-broadcast is crashed at the end of that
handler.  Both kernels keep their stop test, and ``SMKernel`` its
runnable set, as state updated where it changes; a checking scheduler
compares that state with its definition before every pick.
"""

import pytest

from repro.failures.byzantine import SilentDecider
from repro.failures.byzantine_sm import silent_decider_program
from repro.failures.crash import (
    CrashAfterDecide, CrashPlan, CrashPoint, RandomCrashes,
)
from repro.net.schedulers import RandomScheduler
from repro.protocols.base import get_spec
from repro.protocols.protocol_a import ProtocolA
from repro.runtime.kernel import MPKernel
from repro.runtime.process import ProtocolError
from repro.shm.kernel import SMKernel
from repro.shm.schedulers import RandomProcessScheduler, RoundRobinScheduler

N, T = 4, 1
INPUTS = ["v", "v", "w", "w"]


def _mp(processes, inputs, **faults):
    return MPKernel(processes, inputs, t=T, scheduler=RandomScheduler(seed=0),
                    **faults)


def _sm(processes, inputs, **faults):
    program = get_spec("protocol-e@sm-cr").make(N, 2, T)
    return SMKernel([program] * len(processes), inputs, t=T,
                    scheduler=RoundRobinScheduler(), **faults)


RUNTIMES = [_mp, _sm]
#: case -> (inputs, fault arguments, expected error message)
BAD_INSTANCES = {
    "length mismatch": (INPUTS[:-1], {}, "inputs must have equal length"),
    "byzantine id out of range": (
        INPUTS, {"byzantine": [N]}, "byzantine ids out of range"
    ),
    "crash plan over budget": (INPUTS, {"crash_adversary": CrashPlan({
        0: CrashPoint(after_steps=0), 1: CrashPoint(after_steps=0),
    })}, "exceed the failure budget t=1"),
}


@pytest.mark.parametrize("make", RUNTIMES, ids=["mp", "sm"])
@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_every_runtime_refuses_a_run_outside_the_model(make, case):
    inputs, faults, message = BAD_INSTANCES[case]
    with pytest.raises(ValueError, match=message):
        make([ProtocolA() for _ in range(N)], inputs, **faults)


def _run_mp(seed, crash_adversary):
    return MPKernel(
        [ProtocolA() for _ in range(N)], INPUTS, t=T,
        scheduler=RandomScheduler(seed=seed), crash_adversary=crash_adversary,
    ).run()


def _run_sm(seed, crash_adversary):
    program = get_spec("protocol-e@sm-cr").make(N, 2, T)
    return SMKernel(
        [program] * N, INPUTS, t=T,
        scheduler=RandomProcessScheduler(seed=seed),
        crash_adversary=crash_adversary,
    ).run()


@pytest.mark.parametrize("run", [_run_mp, _run_sm], ids=["mp", "sm"])
@pytest.mark.parametrize("seed", range(4))
def test_dynamic_adversary_crashes_the_decided_victim(run, seed):
    result = run(seed, CrashAfterDecide([0]))
    assert result.outcome.faulty == {0}
    assert 0 in result.outcome.decisions
    kinds = [r.kind for r in result.trace if r.pid == 0]
    assert kinds.index("crash") > kinds.index("decide")
    assert kinds.count("crash") == 1


# Only MPKernel has a send gate: shared-memory processes send nothing.
@pytest.mark.parametrize("run", [_run_mp], ids=["mp"])
@pytest.mark.parametrize("seed", range(4))
def test_sender_halted_mid_broadcast_crashes_at_handler_end(run, seed):
    result = run(seed, CrashPlan({0: CrashPoint(after_sends=1)}))
    records = list(result.trace)
    last = max(i for i, r in enumerate(records)
               if r.kind == "send-suppressed" and r.pid == 0)
    assert (records[last + 1].kind, records[last + 1].pid) == ("crash", 0)
    assert result.outcome.faulty == {0}
    assert [r.peer for r in records if r.kind == "send" and r.pid == 0] == [0]


def _assert_kept_state(kernel):
    """The stop test and the runnable list equal their definitions."""
    assert kernel.all_correct_decided() == all(
        kernel.has_decided(pid) for pid in kernel.correct
    )
    if isinstance(kernel, SMKernel):
        assert kernel.runnable_pids() == [
            pid for pid in range(kernel.n) if kernel.is_runnable(pid)
        ]


class _Checking:
    """Checks the kernel's kept state before every pick of ``inner``."""

    def __init__(self, inner):
        self._inner = inner
        self.picks = 0

    def pick(self, kernel):
        _assert_kept_state(kernel)
        self.picks += 1
        return self._inner.pick(kernel)


def _checked_kernel(runtime, seed, stop, byzantine=(), **faults):
    """A kernel whose Byzantine ids run silent deciders, scheduled by a
    checking wrapper around the seeded random scheduler."""
    if runtime == "mp":
        processes = [
            SilentDecider() if pid in byzantine else ProtocolA()
            for pid in range(N)
        ]
        return MPKernel(
            processes, INPUTS, t=T,
            scheduler=_Checking(RandomScheduler(seed=seed)),
            byzantine=byzantine, stop_when_decided=stop, **faults,
        )
    program = get_spec("protocol-e@sm-cr").make(N, 2, T)
    programs = [
        silent_decider_program if pid in byzantine else program
        for pid in range(N)
    ]
    return SMKernel(
        programs, INPUTS, t=T,
        scheduler=_Checking(RandomProcessScheduler(seed=seed)),
        byzantine=byzantine, stop_when_decided=stop, **faults,
    )


#: case -> fault arguments of one run, by runtime and seed.  A crash
#: plan halts p1 mid-broadcast on MPKernel and after some operations on
#: SMKernel, whose processes send nothing.
KEPT_STATE_CASES = {
    "random crashes": lambda runtime, seed: {"crash_adversary": RandomCrashes(
        N, T, seed=seed, max_point=6, none_probability=0.0,
    )},
    "crash plan": lambda runtime, seed: {"crash_adversary": CrashPlan({
        1: CrashPoint(after_sends=seed + 1) if runtime == "mp"
        else CrashPoint(after_steps=seed + 1),
    })},
    "crash after decide": lambda runtime, seed: {
        "crash_adversary": CrashAfterDecide([1]),
    },
    "byzantine silent decider": lambda runtime, seed: {"byzantine": [1]},
}


@pytest.mark.parametrize("runtime", ["mp", "sm"])
@pytest.mark.parametrize("case", sorted(KEPT_STATE_CASES))
@pytest.mark.parametrize("stop", [True, False], ids=["stop", "no-stop"])
@pytest.mark.parametrize("seed", range(3))
def test_kept_state_matches_its_definition(runtime, case, stop, seed):
    kernel = _checked_kernel(
        runtime, seed, stop, **KEPT_STATE_CASES[case](runtime, seed)
    )
    kernel.run()
    assert kernel._scheduler.picks > 0
    _assert_kept_state(kernel)


class _Picks:
    """A scheduler that always picks ``choice``."""

    def __init__(self, choice):
        self._choice = choice

    def pick(self, kernel):
        return self._choice


@pytest.mark.parametrize("make,message", [
    (_mp, "scheduler picked non-pending event 999"),
    (_sm, "scheduler picked non-runnable p999"),
], ids=["mp", "sm"])
def test_a_pick_out_of_range_is_a_protocol_error(make, message):
    kernel = make([ProtocolA() for _ in range(N)], INPUTS)
    kernel._scheduler = _Picks(999)
    with pytest.raises(ProtocolError, match=message):
        kernel.run()
