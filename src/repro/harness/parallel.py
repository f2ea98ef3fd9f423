"""Parallel fan-out engine for the Monte-Carlo harnesses.

Sweeps, campaigns, adversarial searches, and the figure benchmarks are
all embarrassingly parallel: every run derives its randomness from a
per-task seed, never from shared mutable state.  This module provides
the shared machinery to shard those task lists across worker processes
while keeping results **bit-identical** to serial execution:

* :class:`WorkerPool` -- long-lived children, one task each at a time, a
  dead child costing only its task; :func:`fan_out` streams its outcomes
  lazily in task order and :func:`parallel_map` is an order-preserving
  ``map`` over it (both serial when ``jobs <= 1``);
* :func:`derive_seed` -- a stable hash-based seed mixer (SHA-256, not
  Python's randomized ``hash``) turning ``(base_seed, spec, n, k, t,
  run_index)``-style tuples into per-task seeds that are reproducible
  across processes, platforms, and interpreter restarts;
  :func:`seed_deriver` fixes all parts but the last and hashes them
  once, for many seeds that share a prefix;
* :func:`resolve_jobs` -- maps a user-facing ``--jobs`` value to a
  worker count (``0``/``None`` means "all cores").

Worker functions passed to :func:`parallel_map` must be module-level
(picklable), and task payloads should reference protocols by registry
name rather than by :class:`~repro.protocols.base.ProtocolSpec` object
(spec factories are frequently closures, which do not pickle).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing import connection, popen_fork
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple
from typing import TypeVar

__all__ = [
    "TaskOutcome",
    "WorkerDied",
    "WorkerPool",
    "available_jobs",
    "derive_seed",
    "fan_out",
    "parallel_map",
    "resolve_jobs",
    "seed_deriver",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

def available_jobs() -> int:
    """Number of workers a ``--jobs 0`` ("auto") request resolves to."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a user-facing jobs request to a positive worker count.

    ``None`` or ``0`` mean "one worker per core"; negative values are
    rejected.
    """
    if jobs is None or jobs == 0:
        return available_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def derive_seed(*parts: object) -> int:
    """Derive a stable 62-bit seed from one or more repr-able parts.

    Unlike ``hash()``, the derivation does not depend on interpreter
    hash randomization or process identity, so serial and parallel runs
    (and reruns on other machines) agree on every per-task seed.
    """
    *head, last = parts
    return seed_deriver(*head)(last)


def seed_deriver(*parts: object) -> Callable[[object], int]:
    """``derive_seed(*parts, last)`` as a function of ``last``.

    The seed is the top 62 bits of the SHA-256 of the parts' reprs
    joined by ``"\\x1f"``.  ``parts`` are hashed here, once; each call
    copies that hash state and adds only ``last``, so many seeds that
    share a prefix (a batch's run seeds) cost one short hash each.
    """
    prefix = hashlib.sha256(
        "".join(repr(part) + "\x1f" for part in parts).encode("utf-8")
    )

    def derive(last: object) -> int:
        hasher = prefix.copy()
        hasher.update(repr(last).encode("utf-8"))
        return int.from_bytes(hasher.digest()[:8], "big") >> 2

    return derive


def _run_serial(fn: Callable[[_T], _R], tasks: Sequence[_T]) -> List[_R]:
    return [fn(task) for task in tasks]


#: How a task ended (:attr:`TaskOutcome.kind`).
DONE, RAISED, DIED, TIMED_OUT = "done", "raised", "died", "timed out"

_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
_SIGNALS = {sig.value: sig.name for sig in signal.Signals}


class WorkerDied(RuntimeError):
    """A worker process ended before it reported its task's result."""


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """How one task ended: its result or exception (``value``), or the
    exit code of the worker that ended first (negative: a signal)."""

    task: Any
    kind: str
    value: Any = None
    exitcode: int = 0

    @property
    def cause(self) -> str:
        """Why the worker ended, e.g. ``killed by SIGKILL``."""
        if self.exitcode >= 0:
            return f"exited with code {self.exitcode}"
        return f"killed by {_SIGNALS.get(-self.exitcode, f'signal {-self.exitcode}')}"

    def result(self) -> Any:
        """The result; re-raises the task's exception, or raises
        :class:`WorkerDied` if its worker ended first."""
        if self.kind == RAISED:
            raise self.value
        if self.kind != DONE:
            raise WorkerDied(f"worker {self.cause} running task {self.task!r}")
        return self.value


def _child_main(conn: Any, fn: Callable[[Any], Any], ends: List[Any]) -> None:
    """A worker's loop: run ``fn`` on each task the parent sends."""
    import repro.protocols  # noqa: F401 -- the registry, for spawn-only platforms

    for end in ends:  # parent ends: this pipe reads EOF once the parent is gone
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent answers Ctrl-C
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            conn.send((DONE, fn(task)))
        except Exception as error:  # raised, or a result that does not pickle
            if hasattr(error, "add_note"):  # Python 3.11+: keep the traceback
                error.add_note(f"in worker {os.getpid()}:\n{traceback.format_exc()}")
            conn.send((RAISED, error))


def _close_launch_pipes(error: OSError) -> None:
    """Close the pipes a ``Process.start()`` that raised ``error`` opened.

    CPython's fork ``Popen._launch`` opens two pipes before ``os.fork()``
    and leaves them open when the fork raises; its frame, kept by the
    traceback, still holds their descriptors.
    """
    for frame, _ in traceback.walk_tb(error.__traceback__):
        code = frame.f_code
        if code.co_name == "_launch" and code.co_filename == popen_fork.__file__:
            for name in ("parent_r", "child_w", "child_r", "parent_w"):
                fd = frame.f_locals.get(name)
                if fd is not None:
                    os.close(fd)


@dataclasses.dataclass
class _Child:
    process: Any
    conn: Any
    key: Any = None
    task: Any = None
    deadline: Optional[float] = None

    def reap(self) -> int:
        self.process.join()
        self.conn.close()
        return self.process.exitcode


class WorkerPool:
    """Up to ``jobs`` long-lived worker processes running ``fn``, one
    task each at a time.  A task goes to an idle child, or to one forked
    into a free slot (a failed fork raises ``OSError``), so a slot whose
    child died gets a fresh one; :meth:`close` kills and reaps all."""

    def __init__(self, fn: Callable[[Any], Any], jobs: int) -> None:
        self._fn, self._jobs = fn, jobs
        self._idle: List[_Child] = []
        self._busy: List[_Child] = []

    @property
    def free(self) -> int:
        return self._jobs - len(self._busy)

    def submit(self, key: Any, task: Any, timeout: Optional[float] = None) -> None:
        """Start ``task``, killing its child if it runs past ``timeout``."""
        child = self._idle.pop() if self._idle else self._fork()
        if not child.process.is_alive():  # died between tasks
            child.reap()
            child = self._fork()
        self._idle.append(child)  # so close() reaps it if the send fails
        child.conn.send(task)
        self._idle.remove(child)
        child.key, child.task = key, task
        child.deadline = None if timeout is None else time.monotonic() + timeout
        self._busy.append(child)

    def _fork(self) -> _Child:
        parent_end, child_end = _CONTEXT.Pipe()
        ends = [parent_end] + [c.conn for c in self._busy + self._idle]
        process = _CONTEXT.Process(
            target=_child_main, args=(child_end, self._fn, ends), daemon=True
        )
        try:
            process.start()
        except OSError as error:
            parent_end.close()
            _close_launch_pipes(error)
            raise
        finally:
            child_end.close()
        return _Child(process, parent_end)

    def wait(self, timeout: Optional[float] = None) -> List[Tuple[Any, TaskOutcome]]:
        """Block until a task settles, or ``timeout`` seconds or a task's
        deadline pass; the settled tasks as ``(key, TaskOutcome)`` pairs."""
        if not self._busy:
            return []
        deadlines = [c.deadline for c in self._busy if c.deadline is not None]
        if deadlines:
            left = max(0.0, min(deadlines) - time.monotonic())
            timeout = left if timeout is None else min(timeout, left)
        ready = connection.wait([c.conn for c in self._busy], timeout)
        settled = []
        for child in list(self._busy):
            if child.conn in ready:
                try:
                    outcome = TaskOutcome(child.task, *child.conn.recv())
                    self._idle.append(child)
                except (EOFError, OSError):  # the pipe closed: child is gone
                    outcome = TaskOutcome(child.task, DIED, exitcode=child.reap())
            elif child.deadline is not None and time.monotonic() >= child.deadline:
                child.process.kill()
                outcome = TaskOutcome(child.task, TIMED_OUT, exitcode=child.reap())
            else:
                continue
            self._busy.remove(child)
            settled.append((child.key, outcome))
        return settled

    def close(self) -> None:
        children, self._busy, self._idle = self._busy + self._idle, [], []
        for child in children:
            child.process.kill()
            child.reap()


def fan_out(
    fn: Callable[[_T], Any], tasks: Iterable[_T], jobs: int = 1
) -> Generator[TaskOutcome, None, None]:
    """Each task's :class:`TaskOutcome`, lazily and in task order.

    With one worker (``jobs`` as for :func:`resolve_jobs`, capped at the
    task count) tasks run in-process and an exception propagates; else a
    :class:`WorkerPool` keeps every child busy.  Closing the stream (use
    :func:`contextlib.closing`) kills the children still running.
    """
    tasks = list(tasks)
    jobs = min(resolve_jobs(jobs), len(tasks))
    if jobs <= 1:
        yield from (TaskOutcome(task, DONE, fn(task)) for task in tasks)
        return
    queue = enumerate(tasks)
    settled: Dict[int, TaskOutcome] = {}
    with contextlib.closing(WorkerPool(fn, jobs)) as pool:
        for index in range(len(tasks)):
            while index not in settled:
                for key, task in itertools.islice(queue, pool.free):
                    pool.submit(key, task)
                settled.update(pool.wait())
            yield settled.pop(index)


def parallel_map(
    fn: Callable[[_T], _R], tasks: Iterable[_T], jobs: int = 1
) -> List[_R]:
    """Apply ``fn`` to every task, preserving input order in the result.

    With ``jobs <= 1`` (or at most one task) this is a plain list
    comprehension -- the serial reference path.  Otherwise chunks of
    tasks go through :func:`fan_out`; because results come back in input
    order, any deterministic aggregation over the returned list is
    bit-identical to the serial path.  A worker's exception is re-raised,
    a dead worker raises :class:`WorkerDied`.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return _run_serial(fn, tasks)
    jobs = min(jobs, len(tasks))
    # A few chunks per worker amortizes IPC without starving the pool.
    chunksize = max(1, len(tasks) // (jobs * 4))
    chunks = [tasks[i:i + chunksize] for i in range(0, len(tasks), chunksize)]
    stream = fan_out(functools.partial(_run_serial, fn), chunks, jobs)
    with contextlib.closing(stream):
        return [result for outcome in stream for result in outcome.result()]
