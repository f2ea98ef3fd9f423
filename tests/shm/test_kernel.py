"""Tests for the shared-memory kernel."""

import pytest

from repro.core.values import DEFAULT, EMPTY, is_empty
from repro.failures.crash import CrashPlan, CrashPoint
from repro.runtime.kernel import KernelLimitError, SchedulerStall
from repro.runtime.process import ProtocolError
from repro.shm.kernel import SMKernel
from repro.shm.ops import Decide, Read, Write
from repro.shm.schedulers import RandomProcessScheduler, RoundRobinScheduler


def write_scan_decide(ctx):
    """Minimal protocol: write input, scan all, decide first value seen."""
    yield Write(ctx.input)
    seen = []
    for owner in range(ctx.n):
        value = yield Read(owner)
        if not is_empty(value):
            seen.append(value)
    yield Decide(seen[0])


def run(programs, inputs, t=0, scheduler=None, **kwargs):
    kernel = SMKernel(
        programs,
        inputs,
        t=t,
        scheduler=scheduler or RoundRobinScheduler(),
        **kwargs,
    )
    return kernel, kernel.run()


class TestBasicExecution:
    def test_everyone_decides(self):
        kernel, result = run([write_scan_decide] * 3, ["a", "b", "c"])
        assert len(result.outcome.decisions) == 3

    def test_one_op_per_tick(self):
        kernel, result = run([write_scan_decide] * 2, ["a", "b"])
        # each process: 1 write + 2 reads + 1 decide = 4 ops
        assert result.ticks == 8

    def test_registers_atomic(self):
        kernel, result = run([write_scan_decide] * 4, list("abcd"),
                             scheduler=RandomProcessScheduler(5))
        assert kernel.registers.verify_atomicity()

    def test_deterministic_replay(self):
        k1, r1 = run([write_scan_decide] * 4, list("abcd"),
                     scheduler=RandomProcessScheduler(3))
        k2, r2 = run([write_scan_decide] * 4, list("abcd"),
                     scheduler=RandomProcessScheduler(3))
        assert r1.outcome.decisions == r2.outcome.decisions
        assert [str(x) for x in r1.trace] == [str(x) for x in r2.trace]

    def test_generator_completion_is_halt(self):
        kernel, result = run([write_scan_decide] * 2, ["a", "b"],
                             stop_when_decided=False)
        assert result.quiescent
        assert len(result.trace.of_kind("halt")) == 2

    def test_trace_records_reads_and_writes(self):
        kernel, result = run([write_scan_decide] * 2, ["a", "b"])
        assert len(result.trace.of_kind("write")) == 2
        assert len(result.trace.of_kind("read")) == 4


class TestCrashInjection:
    def test_crash_before_any_op(self):
        kernel, result = run(
            [write_scan_decide] * 3, list("abc"), t=1,
            crash_adversary=CrashPlan({0: CrashPoint(after_steps=0)}),
        )
        assert 0 in result.outcome.faulty
        assert kernel.registers.current(0) is EMPTY

    def test_crash_mid_scan(self):
        kernel, result = run(
            [write_scan_decide] * 3, list("abc"), t=1,
            crash_adversary=CrashPlan({0: CrashPoint(after_steps=2)}),
        )
        assert 0 in result.outcome.faulty
        assert kernel.registers.current(0) == "a"  # wrote before crashing
        assert 0 not in result.outcome.decisions

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            run(
                [write_scan_decide] * 3, list("abc"), t=1,
                crash_adversary=CrashPlan({
                    0: CrashPoint(after_steps=0),
                    1: CrashPoint(after_steps=0),
                }),
            )


class TestKernelSafety:
    def test_double_decide_raises(self):
        def double(ctx):
            yield Decide(1)
            yield Decide(2)

        with pytest.raises(ProtocolError):
            run([double], [0], stop_when_decided=False)

    def test_non_op_yield_raises(self):
        def bad(ctx):
            yield "not an op"

        with pytest.raises(ProtocolError):
            run([bad], [0])

    def test_tick_limit(self):
        def spin(ctx):
            while True:
                yield Read(0)

        with pytest.raises(KernelLimitError):
            run([spin], [0], max_ticks=50)

    def test_scheduler_stall(self):
        class Refuser:
            def pick(self, kernel):
                return None

        with pytest.raises(SchedulerStall):
            run([write_scan_decide], ["a"], scheduler=Refuser())

    def test_byzantine_cannot_write_other_registers(self):
        # The Write op targets the issuer's own register by construction;
        # the register file independently enforces single-writer.
        from repro.shm.registers import SingleWriterViolation

        kernel = SMKernel(
            [write_scan_decide], ["a"], t=0, scheduler=RoundRobinScheduler()
        )
        with pytest.raises(SingleWriterViolation):
            kernel.registers.write(1, 0, "intrusion")

    def test_out_of_range_pid_is_not_runnable(self):
        kernel = SMKernel(
            [write_scan_decide] * 3, list("abc"), t=0,
            scheduler=RoundRobinScheduler(),
        )
        assert [kernel.is_runnable(pid) for pid in (-1, 0, 2, 3, 7)] == [
            False, True, True, False, False,
        ]

    def test_step_pid_out_of_range_touches_no_state(self):
        kernel = SMKernel(
            [write_scan_decide] * 3, list("abc"), t=0,
            scheduler=RoundRobinScheduler(),
        )
        kernel.step_pid(0)
        before = kernel.snapshot()
        for pid in (-1, 3):
            with pytest.raises(ProtocolError, match="non-runnable"):
                kernel.step_pid(pid)
        assert kernel.snapshot() == before
        assert kernel.choices == (0,) and kernel.tick == 1

    def test_decide_after_generator_keeps_running(self):
        def helper(ctx):
            yield Write(ctx.input)
            yield Decide(ctx.input)
            # keeps serving afterwards (like SIMULATION does)
            for _ in range(3):
                yield Read(0)

        kernel, result = run([helper] * 2, ["a", "b"],
                             stop_when_decided=False)
        assert result.outcome.decisions == {0: "a", 1: "b"}
