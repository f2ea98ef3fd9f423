"""Deterministic discrete-event kernel for the message-passing models.

The kernel realizes the paper's asynchronous message-passing system
(Section 3): a reliable, completely connected network where both process
steps and deliveries take arbitrary finite time.  All nondeterminism is
delegated to two pluggable adversaries -- a *scheduler* that picks the
next pending event and a *crash adversary* (crash models) or Byzantine
behaviour substitution (Byzantine models).  Runs are therefore exactly
reproducible from ``(protocol, inputs, scheduler, adversary)``.

Typical use goes through :func:`repro.harness.runner.run_mp`, but the
kernel is usable directly::

    kernel = MPKernel(
        processes=[ProtocolA() for _ in range(4)],
        inputs=[1, 2, 1, 1],
        t=1,
        scheduler=FifoScheduler(),
    )
    result = kernel.run()
    result.outcome.decisions
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.problem import Outcome
from repro.core.values import Value
from repro.failures.adversary import CrashAdversary, NoCrashes
from repro.runtime.events import Delivery, Event, Start
from repro.runtime.process import Context, Process, copy_plain
from repro.runtime.traces import Trace, TraceMode

__all__ = [
    "ExecutionResult",
    "ExecutionStats",
    "KernelBase",
    "KernelLimitError",
    "MPKernel",
    "MPSnapshot",
    "SchedulerStall",
]


class KernelLimitError(RuntimeError):
    """The run exceeded the tick budget without reaching a stop state."""


class SchedulerStall(RuntimeError):
    """The scheduler refused every pending event before all correct decided.

    A scheduler embodies "arbitrary but *finite*" delays; refusing to ever
    deliver a message while some correct process is still undecided would
    be an infinite delay, which the model forbids.
    """


@dataclasses.dataclass
class ExecutionResult:
    """Everything a finished run produced."""

    outcome: Outcome
    trace: Trace
    ticks: int
    quiescent: bool
    _stats: Optional["ExecutionStats"] = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _stats_version: Optional[int] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def message_count(self) -> int:
        return self.trace.message_count()

    def stats(self) -> "ExecutionStats":
        """Per-process counters and decision latencies for this run.

        Reads the trace's incrementally-maintained counters (available in
        both ``FULL`` and ``COUNTERS`` trace modes) and caches the result,
        so repeated calls never rescan the trace.  The cache keys on
        :attr:`Trace.version`, so extending the trace after a first call
        (e.g. merging counters into a still-live COUNTERS trace)
        invalidates it instead of serving stale aggregates.
        """
        version = self.trace.version
        if self._stats is None or self._stats_version != version:
            self._stats_version = version
            self._stats = ExecutionStats(
                ticks=self.ticks,
                sends_by_process=dict(self.trace.sends_by_process),
                deliveries_by_process=dict(self.trace.deliveries_by_process),
                register_ops_by_process=dict(self.trace.register_ops_by_process),
                decision_tick_by_process=dict(self.trace.decision_tick_by_process),
            )
        return self._stats


@dataclasses.dataclass(frozen=True)
class ExecutionStats:
    """Aggregated counters of one run (derived from the trace).

    ``decision_tick_by_process`` maps each decided process to the kernel
    tick of its decision -- the run's "latency" profile under the chosen
    schedule.
    """

    ticks: int
    sends_by_process: Mapping[int, int]
    deliveries_by_process: Mapping[int, int]
    register_ops_by_process: Mapping[int, int]
    decision_tick_by_process: Mapping[int, int]

    @property
    def total_sends(self) -> int:
        return sum(self.sends_by_process.values())

    @property
    def total_register_ops(self) -> int:
        return sum(self.register_ops_by_process.values())

    @property
    def last_decision_tick(self) -> Optional[int]:
        if not self.decision_tick_by_process:
            return None
        return max(self.decision_tick_by_process.values())

    def summary(self) -> str:
        return (
            f"ticks={self.ticks} sends={self.total_sends} "
            f"register_ops={self.total_register_ops} "
            f"last_decision_tick={self.last_decision_tick}"
        )


#: One process's part of a snapshot: its
#: :meth:`~repro.runtime.process.Process.snapshot_state` copy and its
#: context's ``(decided, decision)``.
_Entry = Tuple[Dict[str, Any], Tuple[bool, Any]]


@dataclasses.dataclass(frozen=True)
class MPSnapshot:
    """Plain-data capture of an :class:`MPKernel` execution state.

    Everything the kernel's future behaviour depends on, and nothing
    else: no handler code, no scheduler, no trace records.  Events are
    frozen dataclasses and are shared, not copied; the crash sets and
    counters are immutable copies.  ``processes`` holds one
    ``(state, (decided, decision))`` entry per process.  An entry is
    plain data that nothing mutates once it is taken, so snapshots share
    entries: a process that ran no handler between two snapshots appears
    in both as the same entry object.  A snapshot therefore stays valid
    however the live kernel moves on.  Snapshots are picklable, which is
    what lets the parallel frontier search ship subtree roots to worker
    processes.
    """

    tick: int
    seq: int
    pending: Dict[int, Event]
    crashed: frozenset
    halted_at_send: frozenset
    steps_taken: Tuple[int, ...]
    sends_made: Tuple[int, ...]
    processes: Tuple[_Entry, ...]


class KernelBase:
    """The fault model both kernels share.

    A run of the paper's model has ``n`` processes, their inputs and a
    budget of ``t`` faulty ones: Byzantine ids, whose process objects
    misbehave by themselves, and processes the crash adversary halts --
    before a step, part-way through a broadcast, or dynamically in
    reaction to the run.  :class:`MPKernel` and
    :class:`~repro.shm.kernel.SMKernel` take the budget check, the fault
    views, the crash record, crashes before a step, dynamic crashes and
    the outcome a run leaves from here; each adds how it drives its
    processes and when it is quiescent.  The halt-at-send gate belongs
    to :class:`MPKernel` alone: only its processes send messages.

    A subclass sets ``_deciders``, one object per process with
    ``decided``/``decision`` attributes, and gates each step with
    :meth:`_may_step` on its own count of the process's steps.

    Raises:
        ValueError: the inputs do not match the processes, a Byzantine
            id is out of range, or the Byzantine ids and the crash
            adversary's potential victims together exceed ``t``.
    """

    def __init__(
        self,
        processes: Sequence[Any],
        inputs: Sequence[Value],
        t: int,
        crash_adversary: Optional[CrashAdversary] = None,
        byzantine: Sequence[int] = (),
        trace_mode: TraceMode = TraceMode.FULL,
    ) -> None:
        if len(processes) != len(inputs):
            raise ValueError("processes and inputs must have equal length")
        self.n = len(processes)
        self.t = t
        self._inputs = list(inputs)
        self._crash_adversary = crash_adversary or NoCrashes()
        self._byzantine: Set[int] = set(byzantine)
        bad = self._byzantine - set(range(self.n))
        if bad:
            raise ValueError(f"byzantine ids out of range: {sorted(bad)}")
        budget_users = self._byzantine | set(
            self._crash_adversary.potentially_faulty()
        )
        if len(budget_users) > t:
            raise ValueError(
                f"{len(budget_users)} potentially faulty processes exceed "
                f"the failure budget t={t}"
            )
        self.trace = Trace(trace_mode)
        self.tick = 0
        self._crashed: Set[int] = set()
        self._deciders: Sequence[Any] = ()

    # -- fault views ---------------------------------------------------------

    @property
    def crashed(self) -> frozenset:
        return frozenset(self._crashed)

    @property
    def byzantine(self) -> frozenset:
        return frozenset(self._byzantine)

    @property
    def faulty(self) -> frozenset:
        return frozenset(self._crashed | self._byzantine)

    @property
    def correct(self) -> frozenset:
        return frozenset(range(self.n)) - self.faulty

    def decision_of(self, pid: int) -> Optional[Value]:
        return self._deciders[pid].decision

    def has_decided(self, pid: int) -> bool:
        return self._deciders[pid].decided

    def decided_pids(self) -> frozenset:
        return frozenset(
            pid for pid, decider in enumerate(self._deciders) if decider.decided
        )

    def all_correct_decided(self) -> bool:
        deciders = self._deciders
        return all(deciders[pid].decided for pid in self.correct)

    # -- crashes ---------------------------------------------------------------

    def _crash(self, pid: int) -> None:
        if pid not in self._crashed:
            self._crashed.add(pid)
            self.trace.record(self.tick, "crash", pid)

    def _may_step(self, pid: int, steps_taken: int) -> bool:
        """Whether ``pid`` takes its next step.

        A crashed process takes none; otherwise the crash adversary may
        halt it here (never a Byzantine one), which is its crash.
        """
        if pid in self._crashed:
            return False
        if pid not in self._byzantine and self._crash_adversary.crashes_before_step(
            pid, steps_taken
        ):
            self._crash(pid)
            return False
        return True

    def _apply_dynamic_crashes(self) -> None:
        for pid in self._crash_adversary.dynamic_crashes(self):
            if pid not in self._byzantine:
                self._crash(pid)

    # -- outcome ---------------------------------------------------------------

    def _quiescent(self) -> bool:
        """Whether the run has nothing left to execute."""
        raise NotImplementedError

    def _result(self) -> ExecutionResult:
        """The run so far as an :class:`ExecutionResult`."""
        outcome = Outcome(
            n=self.n,
            inputs=dict(enumerate(self._inputs)),
            decisions={
                pid: decider.decision
                for pid, decider in enumerate(self._deciders)
                if decider.decided
            },
            faulty=self.faulty,
        )
        return ExecutionResult(
            outcome=outcome,
            trace=self.trace,
            ticks=self.tick,
            quiescent=self._quiescent(),
        )


class _KernelContext(Context):
    """Context wired into an :class:`MPKernel`."""

    def __init__(self, kernel: "MPKernel", pid: int, input_value: Value) -> None:
        super().__init__(pid, kernel.n, kernel.t, input_value)
        self._kernel = kernel

    def _emit_send(self, dst: int, payload: Any) -> None:
        self._kernel._handle_send(self.pid, dst, payload)

    def _emit_decide(self, value: Value) -> None:
        self._kernel._handle_decide(self.pid, value)


class MPKernel(KernelBase):
    """Simulates one execution of a message-passing protocol.

    Args:
        processes: one :class:`Process` per identifier ``0..n-1``.
            Byzantine behaviours are installed simply by placing a
            misbehaving process object at a faulty index and listing the
            index in ``byzantine``.
        inputs: nominal input value per process.
        t: the failure budget of the problem instance (used for context
            information and budget validation).
        scheduler: picks the next pending event; see
            :mod:`repro.net.schedulers`.
        crash_adversary: crash-point decisions (crash models only).
        byzantine: identifiers whose process objects deviate arbitrarily.
        stop_when_decided: stop as soon as every correct process decided
            (the default).  When ``False`` the run continues until no
            event is pending.
        max_ticks: safety valve against non-terminating protocols.
        trace_mode: how much the trace retains; ``COUNTERS`` skips all
            :class:`~repro.runtime.traces.TraceRecord` allocation (the
            Monte-Carlo fast path), ``OFF`` records nothing.

    The budget check, crashes before a step, dynamic crashes and the
    outcome come from :class:`KernelBase`; the halt-at-send gate is
    this kernel's own.
    """

    def __init__(
        self,
        processes: Sequence[Process],
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
            processes, inputs, t, crash_adversary, byzantine, trace_mode
        )
        self._processes = list(processes)
        self._scheduler = scheduler
        self._stop_when_decided = stop_when_decided
        self._max_ticks = max_ticks
        # Start events take sequence numbers 0..n-1, deliveries the rest.
        self._pending: Dict[int, Event] = {
            pid: Start(pid, pid) for pid in range(self.n)
        }
        self._seq = self.n
        self._halted_at_send: Set[int] = set()
        self._steps_taken: List[int] = [0] * self.n
        self._sends_made: List[int] = [0] * self.n
        self._contexts = self._deciders = [
            _KernelContext(self, pid, self._inputs[pid]) for pid in range(self.n)
        ]
        # Per process, the snapshot entry its live state equals, or None
        # once one of its handlers ran since that entry was taken or
        # installed.  A fresh kernel matches no snapshot.
        self._entries: List[Optional[_Entry]] = [None] * self.n

    # -- introspection for schedulers and adversaries ----------------------

    @property
    def pending(self) -> Mapping[int, Event]:
        """Pending events keyed by sequence number (read-only view)."""
        return self._pending

    # -- internals ----------------------------------------------------------

    def _handle_send(self, sender: int, dst: int, payload: Any) -> None:
        """The halt-at-send gate.

        Once the crash adversary halts a sender at one of its sends,
        that send and every later one of the sender are suppressed;
        :meth:`_end_step` crashes it when the handler returns.
        """
        if sender in self._halted_at_send or (
            sender not in self._byzantine
            and self._crash_adversary.crashes_at_send(
                sender, self._sends_made[sender]
            )
        ):
            self._halted_at_send.add(sender)
            self.trace.record(self.tick, "send-suppressed", sender, dst, payload)
            return
        self._sends_made[sender] += 1
        self.trace.record(self.tick, "send", sender, dst, payload)
        seq = self._seq
        self._seq = seq + 1
        self._pending[seq] = Delivery(seq, sender, dst, payload)

    def _handle_decide(self, pid: int, value: Value) -> None:
        self.trace.record(self.tick, "decide", pid, payload=value)

    def _end_step(self, pid: int) -> None:
        """Count a finished handler; a sender halted in it crashes now."""
        self._steps_taken[pid] += 1
        if pid in self._halted_at_send:
            self._crash(pid)

    def _execute(self, event: Event) -> None:
        if isinstance(event, Start):
            pid = event.pid
            if self._may_step(pid, self._steps_taken[pid]):
                self.trace.record(self.tick, "start", pid)
                self._entries[pid] = None
                self._processes[pid].on_start(self._contexts[pid])
                self._end_step(pid)
        elif isinstance(event, Delivery):
            pid, sender, payload = event.receiver, event.sender, event.payload
            if pid in self._crashed:
                self.trace.record(self.tick, "drop", pid, sender, payload)
            else:
                self.trace.record(self.tick, "deliver", pid, sender, payload)
                if self._may_step(pid, self._steps_taken[pid]):
                    self._entries[pid] = None
                    self._processes[pid].on_message(
                        self._contexts[pid], sender, payload
                    )
                    self._end_step(pid)
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"unknown event type: {event!r}")

    def _quiescent(self) -> bool:
        return not self._pending

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> MPSnapshot:
        """Capture the execution state as plain data (no deepcopy).

        The capture covers exactly what future behaviour depends on:
        pending events, per-process protocol state
        (:meth:`~repro.runtime.process.Process.snapshot_state`), decision
        state, crash/halt sets, and the step/send counters the crash
        adversary keys on.  The trace is deliberately *not* captured --
        it is monitoring state, not execution state -- so snapshot users
        (the exhaustive explorer) run with ``TraceMode.OFF``.

        Copy-on-write per process: only a process that ran a handler
        since its last copy is copied; every other process's entry is
        shared with the snapshot it came from.  This rests on one
        contract: a process's state and decision change only while the
        kernel runs one of its handlers.
        """
        entries = self._entries
        for pid, entry in enumerate(entries):
            if entry is None:
                ctx = self._contexts[pid]
                entries[pid] = (
                    self._processes[pid].snapshot_state(),
                    (ctx._decided, copy_plain(ctx._decision)),
                )
        return MPSnapshot(
            tick=self.tick,
            seq=self._seq,
            pending=dict(self._pending),
            crashed=frozenset(self._crashed),
            halted_at_send=frozenset(self._halted_at_send),
            steps_taken=tuple(self._steps_taken),
            sends_made=tuple(self._sends_made),
            processes=tuple(entries),
        )

    def restore(self, snapshot: MPSnapshot) -> None:
        """Reset the kernel to a previously captured snapshot.

        Re-installs only the processes whose live state is not, by
        identity, the snapshot's entry: those that ran a handler since
        that entry was taken or installed, and every process of a kernel
        that never saw the entry (a fresh kernel, a deep copy, an
        unpickled one).  Installing copies the entry, so a snapshot may
        seed any number of branches and none of them shares mutable
        state with it.  The scheduler and the trace are left untouched.
        """
        self.tick = snapshot.tick
        self._seq = snapshot.seq
        self._pending = dict(snapshot.pending)
        self._crashed = set(snapshot.crashed)
        self._halted_at_send = set(snapshot.halted_at_send)
        self._steps_taken = list(snapshot.steps_taken)
        self._sends_made = list(snapshot.sends_made)
        entries = self._entries
        for pid, entry in enumerate(snapshot.processes):
            if entries[pid] is entry:
                continue
            state, (decided, decision) = entry
            self._processes[pid].restore_state(state)
            ctx = self._contexts[pid]
            ctx._decided = decided
            ctx._decision = copy_plain(decision)
            entries[pid] = entry

    def step(self, seq: int) -> None:
        """Execute one pending event by sequence number.

        The single-step entry point for explorers driving the kernel
        without a scheduler: pops and executes the event, applies
        dynamic crashes, and advances the tick -- exactly one iteration
        of :meth:`run`'s loop.
        """
        event = self._pending.pop(seq)
        self._execute(event)
        self._apply_dynamic_crashes()
        self.tick += 1

    # -- main loop -----------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute until a stop state and return the result.

        Stop states: all correct processes decided (when
        ``stop_when_decided``), or no event pending (quiescence).

        Raises:
            KernelLimitError: the tick budget was exhausted first.
            SchedulerStall: the scheduler refused all pending events while
                some correct process was still undecided.
        """
        self._apply_dynamic_crashes()
        while self._pending:
            if self._stop_when_decided and self.all_correct_decided():
                break
            if self.tick >= self._max_ticks:
                raise KernelLimitError(
                    f"exceeded {self._max_ticks} ticks; "
                    f"{len(self._pending)} events still pending"
                )
            choice = self._scheduler.pick(self)
            if choice is None:
                if self.all_correct_decided():
                    break
                raise SchedulerStall(
                    "scheduler refused all pending events but "
                    f"correct processes {sorted(self.correct - self.decided_pids())} "
                    "have not decided"
                )
            event = self._pending.pop(choice)
            self._execute(event)
            self._apply_dynamic_crashes()
            self.tick += 1
        return self._result()
