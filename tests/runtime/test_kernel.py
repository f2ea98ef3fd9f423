"""Tests for the deterministic message-passing kernel."""

import pytest

from repro.failures.crash import CrashPlan, CrashPoint, CrashWhenOthersDecide
from repro.net.network import verify_network_axioms
from repro.net.schedulers import FifoScheduler, LifoScheduler, RandomScheduler
from repro.runtime.kernel import KernelLimitError, MPKernel, SchedulerStall
from repro.runtime.process import Context, Process, ProtocolError


class Broadcaster(Process):
    """Broadcasts input, decides after hearing n - t values."""

    def __init__(self):
        self.seen = {}

    def on_start(self, ctx):
        ctx.broadcast(("VAL", ctx.input))

    def on_message(self, ctx, sender, payload):
        self.seen[sender] = payload[1]
        if len(self.seen) >= ctx.n - ctx.t and not ctx.decided:
            ctx.decide(sorted(self.seen.values())[0])


class PingPong(Process):
    """Replies to every message once, to exercise chains of sends."""

    def on_start(self, ctx):
        if ctx.pid == 0:
            ctx.send(1, ("PING", 0))

    def on_message(self, ctx, sender, payload):
        tag, hops = payload
        if hops < 5:
            ctx.send((ctx.pid + 1) % ctx.n, (tag, hops + 1))
        elif not ctx.decided:
            ctx.decide(hops)


def run_broadcasters(n, t, scheduler=None, **kwargs):
    kernel = MPKernel(
        [Broadcaster() for _ in range(n)],
        [f"v{i}" for i in range(n)],
        t=t,
        scheduler=scheduler or FifoScheduler(),
        **kwargs,
    )
    return kernel.run()


class TestBasicExecution:
    def test_all_decide(self):
        result = run_broadcasters(4, 1)
        assert set(result.outcome.decisions) == {0, 1, 2, 3}
        assert result.outcome.failure_free

    def test_deterministic_replay(self):
        r1 = run_broadcasters(5, 2, RandomScheduler(seed=42))
        r2 = run_broadcasters(5, 2, RandomScheduler(seed=42))
        assert r1.outcome.decisions == r2.outcome.decisions
        assert r1.ticks == r2.ticks
        assert [str(x) for x in r1.trace] == [str(x) for x in r2.trace]

    def test_different_seeds_can_differ(self):
        decisions = {
            tuple(sorted(run_broadcasters(5, 2, RandomScheduler(seed=s))
                         .outcome.decisions.items()))
            for s in range(12)
        }
        assert len(decisions) >= 2  # schedule actually matters

    def test_message_count(self):
        result = run_broadcasters(4, 1)
        assert result.message_count == 16  # broadcast = n sends, n processes

    def test_stop_when_decided_leaves_events_pending(self):
        result = run_broadcasters(4, 1)
        assert not result.quiescent  # undelivered value messages remain

    def test_run_to_quiescence(self):
        kernel = MPKernel(
            [Broadcaster() for _ in range(4)],
            ["v"] * 4,
            t=1,
            scheduler=FifoScheduler(),
            stop_when_decided=False,
        )
        result = kernel.run()
        assert result.quiescent

    def test_chain_of_sends(self):
        kernel = MPKernel(
            [PingPong() for _ in range(3)],
            [0] * 3,
            t=0,
            scheduler=FifoScheduler(),
            stop_when_decided=False,
        )
        result = kernel.run()
        assert result.trace.decisions()[0].payload == 5

    def test_network_axioms_hold(self):
        result = run_broadcasters(5, 2, RandomScheduler(7))
        report = verify_network_axioms(result.trace)
        assert report.reliable

    def test_quiescent_run_loses_no_messages(self):
        kernel = MPKernel(
            [Broadcaster() for _ in range(4)],
            ["v"] * 4,
            t=1,
            scheduler=LifoScheduler(),
            stop_when_decided=False,
        )
        result = kernel.run()
        report = verify_network_axioms(result.trace)
        assert report.reliable
        assert not report.lost


class TestCrashInjection:
    def test_crash_before_start(self):
        result = run_broadcasters(
            4, 1, crash_adversary=CrashPlan({0: CrashPoint(after_steps=0)})
        )
        assert 0 in result.outcome.faulty
        assert 0 not in result.outcome.decisions
        # p0 never broadcast: no VAL message from 0 delivered
        assert all(r.peer != 0 for r in result.trace.of_kind("deliver"))

    def test_partial_broadcast(self):
        result = run_broadcasters(
            4, 1, crash_adversary=CrashPlan({0: CrashPoint(after_sends=2)})
        )
        assert 0 in result.outcome.faulty
        sends_from_0 = [r for r in result.trace.of_kind("send") if r.pid == 0]
        assert len(sends_from_0) == 2
        suppressed = [
            r for r in result.trace.of_kind("send-suppressed") if r.pid == 0
        ]
        assert len(suppressed) == 2

    def test_correct_still_terminate_under_t_crashes(self):
        result = run_broadcasters(
            5, 2,
            crash_adversary=CrashPlan({
                0: CrashPoint(after_steps=0),
                1: CrashPoint(after_sends=1),
            }),
        )
        for pid in (2, 3, 4):
            assert pid in result.outcome.decisions

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            run_broadcasters(
                4, 1,
                crash_adversary=CrashPlan({
                    0: CrashPoint(after_steps=0),
                    1: CrashPoint(after_steps=0),
                }),
            )

    def test_dynamic_crash_when_others_decide(self):
        adversary = CrashWhenOthersDecide(victims=[3], watch=[0])
        result = run_broadcasters(4, 1, crash_adversary=adversary)
        assert 3 in result.outcome.faulty

    def test_messages_to_crashed_are_dropped(self):
        result = run_broadcasters(
            4, 1,
            crash_adversary=CrashPlan({0: CrashPoint(after_steps=1)}),
            stop_when_decided=False,
        )
        drops = [r for r in result.trace.of_kind("drop") if r.pid == 0]
        assert drops  # p0 crashed after broadcasting, incoming dropped


class TestKernelSafety:
    def test_double_decide_raises(self):
        class DoubleDecider(Process):
            def on_start(self, ctx):
                ctx.decide(1)
                ctx.decide(2)

        kernel = MPKernel(
            [DoubleDecider()], [0], t=0, scheduler=FifoScheduler()
        )
        with pytest.raises(ProtocolError):
            kernel.run()

    def test_send_to_unknown_process_raises(self):
        class BadSender(Process):
            def on_start(self, ctx):
                ctx.send(99, "hello")

        kernel = MPKernel([BadSender()], [0], t=0, scheduler=FifoScheduler())
        with pytest.raises(ProtocolError):
            kernel.run()

    def test_tick_limit(self):
        class Flooder(Process):
            def on_start(self, ctx):
                ctx.send(ctx.pid, "again")

            def on_message(self, ctx, sender, payload):
                ctx.send(ctx.pid, "again")

        kernel = MPKernel(
            [Flooder()], [0], t=0, scheduler=FifoScheduler(), max_ticks=100
        )
        with pytest.raises(KernelLimitError):
            kernel.run()

    def test_scheduler_stall_detected(self):
        class Refuser:
            def pick(self, kernel):
                return None

        kernel = MPKernel(
            [Broadcaster() for _ in range(3)],
            ["v"] * 3,
            t=0,
            scheduler=Refuser(),
        )
        with pytest.raises(SchedulerStall):
            kernel.run()

    def test_byzantine_ids_validated(self):
        with pytest.raises(ValueError):
            MPKernel(
                [Broadcaster()], ["v"], t=1,
                scheduler=FifoScheduler(), byzantine=[5],
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MPKernel(
                [Broadcaster()], ["v", "w"], t=0, scheduler=FifoScheduler()
            )
