"""One fault model for both kernels.

``MPKernel`` and ``SMKernel`` take their instance checks, crash
bookkeeping and outcome from one base class, so a run outside the
failure budget is refused by both and dynamic adversaries apply to
both; a sender halted mid-broadcast is crashed at the end of that
handler.
"""

import pytest

from repro.failures.crash import CrashAfterDecide, CrashPlan, CrashPoint
from repro.net.schedulers import RandomScheduler
from repro.protocols.base import get_spec
from repro.protocols.protocol_a import ProtocolA
from repro.runtime.kernel import MPKernel
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

