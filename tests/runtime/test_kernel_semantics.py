"""Fine-grained semantics tests for the message-passing kernel.

These pin behaviours the proofs rely on: self-messages are schedulable
(delayable) like any other, crashed processes stop affecting the world,
Byzantine processes are exempt from the crash adversary, decided
processes keep receiving (they must be able to help), and traces respect
causality.
"""

import pytest

from repro.core.validity import RV2
from repro.failures.crash import CrashPlan, CrashPoint
from repro.net.schedulers import FifoScheduler, PredicateScheduler
from repro.runtime.events import Delivery
from repro.runtime.kernel import MPKernel
from repro.runtime.process import Process


class SelfCounter(Process):
    """Decides once its own broadcast comes back."""

    def __init__(self):
        self.got_self = False
        self.others = 0

    def on_start(self, ctx):
        ctx.broadcast(("VAL", ctx.input))

    def on_message(self, ctx, sender, payload):
        if sender == ctx.pid:
            self.got_self = True
        else:
            self.others += 1
        if self.got_self and not ctx.decided:
            ctx.decide(ctx.input)


class TestSelfDelivery:
    def test_self_message_is_delivered(self):
        kernel = MPKernel(
            [SelfCounter() for _ in range(3)],
            ["v"] * 3, t=0, scheduler=FifoScheduler(),
        )
        kernel.run()
        assert kernel.all_correct_decided()

    def test_self_message_can_be_delayed(self):
        # delay p0's self-message until it heard everyone else
        processes = [SelfCounter() for _ in range(3)]

        def allow(kernel, delivery: Delivery) -> bool:
            if delivery.receiver == 0 and delivery.sender == 0:
                return processes[0].others >= 2
            return True

        kernel = MPKernel(
            processes, ["v"] * 3, t=0,
            scheduler=PredicateScheduler(allow),
        )
        kernel.run()
        assert processes[0].others >= 2  # heard both peers before itself


class TestCrashSemantics:
    def test_crashed_process_never_handles_again(self):
        handled = []

        class Recorder(Process):
            def on_start(self, ctx):
                ctx.broadcast(("VAL", ctx.input))

            def on_message(self, ctx, sender, payload):
                handled.append((ctx.pid, sender))
                if not ctx.decided:
                    ctx.decide(ctx.input)

        kernel = MPKernel(
            [Recorder() for _ in range(3)],
            ["v"] * 3, t=1,
            scheduler=FifoScheduler(),
            crash_adversary=CrashPlan({0: CrashPoint(after_steps=1)}),
            stop_when_decided=False,
        )
        kernel.run()
        assert all(pid != 0 for pid, _ in handled)

    def test_byzantine_exempt_from_crash_adversary(self):
        # the crash adversary may not touch declared-Byzantine processes
        class Chatty(Process):
            def on_start(self, ctx):
                ctx.broadcast(("NOISE", 0))

        kernel = MPKernel(
            [Chatty(), SelfCounter(), SelfCounter()],
            ["v"] * 3, t=1,
            scheduler=FifoScheduler(),
            crash_adversary=CrashPlan({0: CrashPoint(after_steps=0)}),
            byzantine=[0],
            stop_when_decided=False,
        )
        result = kernel.run()
        # p0 was NOT crashed (Byzantine wins); its noise was sent
        assert 0 not in kernel.crashed
        assert any(
            r.pid == 0 for r in result.trace.of_kind("send")
        )

    def test_crash_after_decide_keeps_decision_recorded(self):
        from repro.failures.crash import CrashAfterDecide

        kernel = MPKernel(
            [SelfCounter() for _ in range(3)],
            ["v"] * 3, t=1,
            scheduler=FifoScheduler(),
            crash_adversary=CrashAfterDecide([0]),
            stop_when_decided=False,
        )
        result = kernel.run()
        assert 0 in result.outcome.faulty
        assert result.outcome.decisions.get(0) == "v"
        # the decision is excluded from *correct* decision values
        assert 0 not in result.outcome.correct_decisions()


class TestDecidedProcessesKeepServing:
    def test_messages_still_delivered_after_decide(self):
        received_after_decide = []

        class Helper(Process):
            def on_start(self, ctx):
                ctx.broadcast(("VAL", ctx.input))
                ctx.decide(ctx.input)

            def on_message(self, ctx, sender, payload):
                received_after_decide.append((ctx.pid, sender))

        kernel = MPKernel(
            [Helper() for _ in range(2)],
            ["v"] * 2, t=0,
            scheduler=FifoScheduler(),
            stop_when_decided=False,
        )
        kernel.run()
        assert received_after_decide  # deliveries continue post-decision


class TestTraceCausality:
    def test_every_delivery_preceded_by_its_send(self):
        kernel = MPKernel(
            [SelfCounter() for _ in range(4)],
            ["v"] * 4, t=0,
            scheduler=FifoScheduler(),
            stop_when_decided=False,
        )
        result = kernel.run()
        send_times = {}
        for record in result.trace:
            if record.kind == "send":
                send_times.setdefault(
                    (record.pid, record.peer, repr(record.payload)), []
                ).append(record.tick)
        for record in result.trace:
            if record.kind == "deliver":
                key = (record.peer, record.pid, repr(record.payload))
                assert key in send_times
                assert min(send_times[key]) <= record.tick

    def test_start_precedes_all_process_activity(self):
        kernel = MPKernel(
            [SelfCounter() for _ in range(3)],
            ["v"] * 3, t=0,
            scheduler=FifoScheduler(),
            stop_when_decided=False,
        )
        result = kernel.run()
        first_activity = {}
        starts = {}
        for index, record in enumerate(result.trace):
            if record.kind == "start":
                starts[record.pid] = index
            elif record.kind in ("send", "decide"):
                first_activity.setdefault(record.pid, index)
        for pid, first in first_activity.items():
            assert starts[pid] <= first
