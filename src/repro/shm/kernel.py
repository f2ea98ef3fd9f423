"""Discrete-event kernel for the shared-memory models.

Shared-memory protocols are generator functions (see
:mod:`repro.shm.ops`).  The kernel resumes one process at a time -- the
choice being the asynchrony adversary's, via a process scheduler from
:mod:`repro.shm.schedulers` -- and executes exactly one atomic register
operation per kernel tick.  Crash and Byzantine failures are injected
the same way as in the message-passing kernel: a crash adversary halts
processes at operation boundaries, and Byzantine processes are arbitrary
generator programs installed at faulty indices (they can corrupt only
their *own* register; the memory enforces single-writer access,
Section 4 of the paper).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.values import Value
from repro.failures.adversary import CrashAdversary
from repro.runtime.kernel import (
    ExecutionResult, KernelBase, KernelLimitError, SchedulerStall,
)
from repro.runtime.process import ProtocolError
from repro.runtime.traces import TraceMode
from repro.shm.ops import Decide, Op, Read, Write
from repro.shm.registers import RegisterFile

__all__ = ["SMContext", "SMKernel", "SMProgram", "SMSnapshot"]


class SMContext:
    """Read-only per-process information handed to a program."""

    def __init__(self, pid: int, n: int, t: int, input_value: Value) -> None:
        self.pid = pid
        self.n = n
        self.t = t
        self.input = input_value

    def others(self):
        """All process ids except this one's."""
        return (p for p in range(self.n) if p != self.pid)


#: A shared-memory protocol: builds the op generator for one process.
SMProgram = Callable[[SMContext], Generator[Op, Any, None]]


class _ProcessState:
    __slots__ = (
        "generator", "pending_result", "finished", "ops_taken",
        "decision", "decided", "results_log",
    )

    def __init__(self) -> None:
        self.generator: Optional[Generator[Op, Any, None]] = None
        self.pending_result: Any = None
        self.finished = False
        self.ops_taken = 0
        self.decision: Optional[Value] = None
        self.decided = False
        #: Every operation result fed (or about to be fed) into the
        #: generator, in order.  A program's generator is a pure function
        #: of its context and of the results fed to it, which is what
        #: makes shared-memory states fingerprintable, and restorable,
        #: without copying generator frames.
        self.results_log: List[Any] = []


@dataclasses.dataclass(frozen=True)
class SMSnapshot:
    """Plain-data capture of an :class:`SMKernel` execution state.

    Generator frames cannot be copied, so a snapshot records what a
    generator's state is a function of instead: each process's results
    log.  Alongside the logs it holds the tick, each process's
    ``finished``/``decided``/``decision`` flags, the register values
    and the crashed set -- the state, not the choices that produced it.
    Logs, register values and decisions are shared with the live
    kernel, not copied (programs treat the values they read and write
    as immutable).  Snapshots are picklable, which is what lets the
    parallel frontier search ship subtree roots to worker processes.
    """

    tick: int
    #: Per process: ``(results_log, finished, decided, decision)``.
    processes: Tuple[Tuple[Tuple[Any, ...], bool, bool, Any], ...]
    registers: Tuple[Any, ...]
    crashed: frozenset


class SMKernel(KernelBase):
    """Simulates one execution of a shared-memory protocol.

    Args:
        programs: one generator function per process ``0..n-1``;
            Byzantine behaviours are arbitrary programs at faulty
            indices, listed in ``byzantine``.
        inputs: nominal input value per process.
        t: failure budget of the problem instance.
        scheduler: picks which runnable process takes its next operation;
            see :mod:`repro.shm.schedulers`.
        crash_adversary: halts processes at operation boundaries.
        stop_when_decided: stop once every correct process decided.
        max_ticks: safety valve against non-terminating runs.
        trace_mode: how much the trace retains; ``COUNTERS`` skips all
            :class:`~repro.runtime.traces.TraceRecord` allocation (the
            Monte-Carlo fast path), ``OFF`` records nothing.

    The fault model, its checks and the outcome come from
    :class:`~repro.runtime.kernel.KernelBase`; a process's steps are
    its operations, counted in its own ``ops_taken``, and its decides
    are recorded by :meth:`_execute_op`.  The runnable set is state:
    ``_runnable`` lists, ascending, the processes that are neither
    crashed nor finished; :meth:`_crash` and :meth:`_step` drop a pid
    from it, and :meth:`restore` rebuilds it.
    """

    def __init__(
        self,
        programs: Sequence[SMProgram],
        inputs: Sequence[Value],
        t: int,
        scheduler,
        crash_adversary: Optional[CrashAdversary] = None,
        byzantine: Sequence[int] = (),
        stop_when_decided: bool = True,
        max_ticks: int = 1_000_000,
        trace_mode: TraceMode = TraceMode.FULL,
    ) -> None:
        super().__init__(
            programs, inputs, t, crash_adversary, byzantine, trace_mode
        )
        self._programs = list(programs)
        self._scheduler = scheduler
        self._stop_when_decided = stop_when_decided
        self._max_ticks = max_ticks
        self.registers = RegisterFile(self.n)
        self._states = self._deciders = [
            _ProcessState() for _ in range(self.n)
        ]
        self._runnable: List[int] = list(range(self.n))
        #: Logged results fed back into generators rebuilt after a
        #: :meth:`restore` (each rebuild re-feeds its process's whole log).
        self.refed_results = 0
        self._contexts = [
            SMContext(pid, self.n, t, self._inputs[pid]) for pid in range(self.n)
        ]

    # -- introspection ------------------------------------------------------

    def is_runnable(self, pid: int) -> bool:
        """Whether ``pid`` names a process that is neither crashed nor
        finished; false for any pid outside ``range(n)``."""
        return (
            0 <= pid < self.n
            and pid not in self._crashed
            and not self._states[pid].finished
        )

    def runnable_pids(self) -> List[int]:
        """The runnable pids, ascending, as a fresh list the caller may keep."""
        return self._runnable.copy()

    def _quiescent(self) -> bool:
        return not self._runnable

    # -- execution ------------------------------------------------------------

    def _crash(self, pid: int) -> None:
        super()._crash(pid)
        if pid in self._runnable:
            self._runnable.remove(pid)

    def _execute_op(self, pid: int, op: Op) -> Any:
        if isinstance(op, Read):
            _, value = self.registers.read(pid, op.owner)
            self.trace.record(self.tick, "read", pid, op.owner, value)
            return value
        if isinstance(op, Write):
            self.registers.write(pid, pid, op.value)
            self.trace.record(self.tick, "write", pid, pid, op.value)
            return None
        if isinstance(op, Decide):
            state = self._states[pid]
            if state.decided:
                raise ProtocolError(f"p{pid} attempted to decide twice")
            state.decided = True
            state.decision = op.value
            self._note_decide(pid)
            self.trace.record(self.tick, "decide", pid, payload=op.value)
            return None
        raise ProtocolError(f"p{pid} yielded a non-operation: {op!r}")

    def _step(self, pid: int) -> Optional[Op]:
        """One step of ``pid``: the operation it executed, or ``None``
        when it crashed before the step or halted instead."""
        state = self._states[pid]
        if not self._may_step(pid, state.ops_taken):
            return None
        if state.generator is None:
            state.generator = self._programs[pid](self._contexts[pid])
            if state.results_log:
                self._refeed(state)
            else:
                self.trace.record(self.tick, "start", pid)
        try:
            op = state.generator.send(state.pending_result)
        except StopIteration:
            state.finished = True
            self._runnable.remove(pid)
            self.trace.record(self.tick, "halt", pid)
            return None
        state.pending_result = self._execute_op(pid, op)
        state.results_log.append(state.pending_result)
        state.ops_taken += 1
        return op

    def _refeed(self, state: _ProcessState) -> None:
        """Bring a rebuilt generator up to its process's results log.

        Sends every logged result but the last, which :meth:`_step`
        sends next as the pending result.
        """
        log = state.results_log
        send = state.generator.send
        send(None)
        for result in itertools.islice(log, len(log) - 1):
            send(result)
        self.refed_results += len(log)

    # -- snapshot / restore --------------------------------------------------

    def step_pid(self, pid: int) -> Optional[Op]:
        """Execute one step of ``pid`` -- one iteration of :meth:`run`'s loop.

        The single-step entry point for explorers driving the kernel
        without a scheduler.  Returns the operation ``pid`` executed, or
        ``None`` when it crashed before the step or halted instead.
        """
        if pid not in self._runnable:
            raise ProtocolError(f"stepped non-runnable p{pid}")
        op = self._step(pid)
        self._apply_dynamic_crashes()
        self.tick += 1
        return op

    def snapshot(self) -> SMSnapshot:
        """Capture the execution state as plain data (see :class:`SMSnapshot`)."""
        return SMSnapshot(
            tick=self.tick,
            processes=tuple([
                (tuple(st.results_log), st.finished, st.decided, st.decision)
                for st in self._states
            ]),
            registers=self.registers.current_values(),
            crashed=frozenset(self._crashed),
        )

    def restore(self, snapshot: SMSnapshot) -> None:
        """Reset the kernel to a previously captured snapshot.

        Executes no operation and takes the snapshot's tick.  A process
        whose live results log or ``finished`` flag differs from the
        snapshot's takes the snapshot's data and drops its generator;
        the next :meth:`_step` of that process rebuilds the generator by
        re-feeding the logged results, which is sound because a
        program's generator is a pure function of its context and of
        the results fed to it.  Every other process keeps its live
        generator.  A snapshot may be restored any number of times, into
        this kernel or a fresh one.  Like :meth:`MPKernel.restore`, this
        leaves the trace and the register histories alone.  The runnable
        list and the count of undecided correct processes are rebuilt in
        the same pass.
        """
        self.tick = snapshot.tick
        crashed = self._crashed = set(snapshot.crashed)
        byzantine = self._byzantine
        self.registers.load(snapshot.registers)
        runnable = []
        undecided = 0
        for pid, (state, (log, finished, decided, decision)) in enumerate(
            zip(self._states, snapshot.processes)
        ):
            live = state.results_log
            if (
                state.finished != finished
                or len(live) != len(log)
                or tuple(live) != log
            ):
                state.generator = None
                state.results_log = list(log)
                state.pending_result = log[-1] if log else None
                state.ops_taken = len(log)
                state.finished = finished
            state.decided = decided
            state.decision = decision
            if pid not in crashed:
                if not finished:
                    runnable.append(pid)
                if not decided and pid not in byzantine:
                    undecided += 1
        self._runnable = runnable
        self._undecided = undecided

    def run(self) -> ExecutionResult:
        """Execute until a stop state and return the result.

        Stop states: all correct processes decided (when
        ``stop_when_decided``), or no process is runnable.

        Raises:
            KernelLimitError: the tick budget was exhausted first.
            SchedulerStall: the scheduler starved every runnable process
                while some correct process was still undecided.
            ProtocolError: the scheduler picked a pid that is not
                runnable.
        """
        self._apply_dynamic_crashes()
        while self._runnable:
            if self._stop_when_decided and not self._undecided:
                break
            if self.tick >= self._max_ticks:
                raise KernelLimitError(
                    f"exceeded {self._max_ticks} ticks; runnable: "
                    f"{self.runnable_pids()}"
                )
            pid = self._scheduler.pick(self)
            if pid is None:
                if not self._undecided:
                    break
                raise SchedulerStall(
                    "scheduler starved all runnable processes but "
                    f"{sorted(self.correct - self.decided_pids())} "
                    "have not decided"
                )
            if pid not in self._runnable:
                raise ProtocolError(f"scheduler picked non-runnable p{pid}")
            self._step(pid)
            self._apply_dynamic_crashes()
            self.tick += 1
        return self._result()
