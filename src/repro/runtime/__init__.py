"""Message-passing runtime: the deterministic MP kernel, processes, traces."""

from repro.runtime.events import Delivery, Event, Start
from repro.runtime.kernel import (
    ExecutionResult,
    ExecutionStats,
    KernelLimitError,
    MPKernel,
    SchedulerStall,
)
from repro.runtime.process import Context, Process, ProtocolError
from repro.runtime.replay import (
    Recording,
    RecordingProcessScheduler,
    RecordingScheduler,
    ReplayProcessScheduler,
    ReplayScheduler,
)
from repro.runtime.traces import Trace, TraceMode, TraceRecord

__all__ = [
    "Context",
    "Delivery",
    "Event",
    "ExecutionResult",
    "ExecutionStats",
    "KernelLimitError",
    "MPKernel",
    "Process",
    "ProtocolError",
    "Recording",
    "RecordingProcessScheduler",
    "RecordingScheduler",
    "ReplayProcessScheduler",
    "ReplayScheduler",
    "SchedulerStall",
    "Start",
    "Trace",
    "TraceMode",
    "TraceRecord",
]
