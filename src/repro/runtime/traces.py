"""Execution traces.

Kernels record :class:`TraceRecord` entries as the run unfolds.  Traces
serve three purposes:

* building the :class:`~repro.core.problem.Outcome` that the condition
  checkers consume,
* debugging protocol runs (the ``format`` helper renders a readable log),
* asserting fine-grained properties in tests (e.g. "no correct process
  echoed twice for the same sender" in Protocol D).

Monte-Carlo harnesses run millions of kernel events and only ever read
aggregate counters off the trace, so :class:`Trace` supports three
recording modes (:class:`TraceMode`):

* ``FULL`` (default) -- keep every :class:`TraceRecord` *and* the
  incremental counters; required by replay, forensics, space-time
  diagrams, and any test that inspects individual records;
* ``COUNTERS`` -- maintain only the integer counters (per-kind totals,
  per-process sends/deliveries/register ops, first decision tick); no
  ``TraceRecord`` is ever allocated, which is the sweep fast path;
* ``OFF`` -- record nothing at all (the exhaustive explorer forks
  kernels by snapshot and restore; a snapshot leaves the trace out, so
  the explorer keeps none).

In every mode the counters that *are* maintained agree exactly with
what a ``FULL`` trace of the same run would report.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Iterator, List, Mapping, Optional

__all__ = ["Trace", "TraceMode", "TraceRecord"]


class TraceMode(enum.Enum):
    """How much a :class:`Trace` retains of the run it observes."""

    FULL = "full"
    COUNTERS = "counters"
    OFF = "off"

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One observable step of an execution.

    Attributes:
        tick: kernel tick at which the record was emitted (0-based).
        kind: one of ``start``, ``send``, ``send-suppressed``, ``deliver``,
            ``drop``, ``decide``, ``crash``, ``read``, ``write``, ``halt``.
        pid: the process the record is about.
        peer: the other process involved, if any (message destination or
            source, register owner for reads).
        payload: message payload, register value, or decision value.
    """

    tick: int
    kind: str
    pid: int
    peer: Optional[int] = None
    payload: Any = None

    def __str__(self) -> str:
        peer = f" peer=p{self.peer}" if self.peer is not None else ""
        payload = f" {self.payload!r}" if self.payload is not None else ""
        return f"[{self.tick:6d}] {self.kind:<16} p{self.pid}{peer}{payload}"


class Trace:
    """An append-only sequence of :class:`TraceRecord` entries.

    Per-kind and per-process counters are maintained incrementally on
    every counted :meth:`record`, so ``message_count``/``delivery_count``
    and the :meth:`~repro.runtime.kernel.ExecutionResult.stats`
    aggregates never rescan the record list -- and remain available in
    ``COUNTERS`` mode, where the record list stays empty.
    """

    def __init__(self, mode: TraceMode = TraceMode.FULL) -> None:
        self._mode = mode
        self._records: List[TraceRecord] = []
        self._kind_counts: Dict[str, int] = {}
        self._sends_by_process: Dict[int, int] = {}
        self._deliveries_by_process: Dict[int, int] = {}
        self._register_ops_by_process: Dict[int, int] = {}
        self._decision_tick_by_process: Dict[int, int] = {}
        #: The per-process counter each counted kind adds to.
        self._per_process: Dict[str, Dict[int, int]] = {
            "send": self._sends_by_process,
            "deliver": self._deliveries_by_process,
            "read": self._register_ops_by_process,
            "write": self._register_ops_by_process,
        }
        self._version = 0

    @property
    def mode(self) -> TraceMode:
        return self._mode

    @property
    def version(self) -> int:
        """Monotonic record counter (the dirty flag for derived caches).

        Incremented on every counted record, in ``FULL`` and ``COUNTERS``
        modes alike; consumers caching aggregates derived from the trace
        (e.g. :meth:`~repro.runtime.kernel.ExecutionResult.stats`) compare
        versions to detect that the trace was extended after the cache
        was built.
        """
        return self._version

    # -- recording -----------------------------------------------------------

    def record(
        self,
        tick: int,
        kind: str,
        pid: int,
        peer: Optional[int] = None,
        payload: Any = None,
    ) -> None:
        """Count one record of ``kind`` about ``pid``; keep it in ``FULL``."""
        mode = self._mode
        if mode is TraceMode.OFF:
            return
        self._version += 1
        counts = self._kind_counts
        counts[kind] = counts.get(kind, 0) + 1
        per = self._per_process.get(kind)
        if per is not None:
            per[pid] = per.get(pid, 0) + 1
        elif kind == "decide":
            self._decision_tick_by_process.setdefault(pid, tick)
        if mode is TraceMode.FULL:
            self._records.append(TraceRecord(tick, kind, pid, peer, payload))

    # -- record access (FULL mode; empty otherwise) --------------------------

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in order."""
        return [r for r in self._records if r.kind == kind]

    def by_process(self, pid: int) -> List[TraceRecord]:
        """All records about one process, in order."""
        return [r for r in self._records if r.pid == pid]

    def decisions(self) -> List[TraceRecord]:
        return self.of_kind("decide")

    # -- counters (all modes except OFF) -------------------------------------

    def kind_count(self, kind: str) -> int:
        """How many records of ``kind`` were recorded (any mode but OFF)."""
        return self._kind_counts.get(kind, 0)

    def message_count(self) -> int:
        """Number of point-to-point sends (broadcast counts n sends)."""
        return self._kind_counts.get("send", 0)

    def delivery_count(self) -> int:
        return self._kind_counts.get("deliver", 0)

    @property
    def sends_by_process(self) -> Mapping[int, int]:
        return self._sends_by_process

    @property
    def deliveries_by_process(self) -> Mapping[int, int]:
        return self._deliveries_by_process

    @property
    def register_ops_by_process(self) -> Mapping[int, int]:
        return self._register_ops_by_process

    @property
    def decision_tick_by_process(self) -> Mapping[int, int]:
        return self._decision_tick_by_process

    def format(self, limit: Optional[int] = None) -> str:
        """Render the trace (optionally only the first ``limit`` records)."""
        records = self._records if limit is None else self._records[:limit]
        lines = [str(r) for r in records]
        if limit is not None and len(self._records) > limit:
            lines.append(f"... ({len(self._records) - limit} more records)")
        return "\n".join(lines)
