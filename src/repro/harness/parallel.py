"""Parallel fan-out engine for the Monte-Carlo harnesses.

Sweeps, campaigns, adversarial searches, and the figure benchmarks are
all embarrassingly parallel: every run derives its randomness from a
per-task seed, never from shared mutable state.  This module provides
the shared machinery to shard those task lists across worker processes
while keeping results **bit-identical** to serial execution:

* :func:`parallel_map` -- order-preserving ``map`` over a
  :class:`concurrent.futures.ProcessPoolExecutor` (serial when
  ``jobs <= 1``), so aggregation code is independent of where tasks ran;
* :func:`derive_seed` -- a stable hash-based seed mixer (SHA-256, not
  Python's randomized ``hash``) turning ``(base_seed, spec, n, k, t,
  run_index)``-style tuples into per-task seeds that are reproducible
  across processes, platforms, and interpreter restarts;
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
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, TypeVar

__all__ = [
    "ExecutionPlan",
    "available_jobs",
    "derive_seed",
    "parallel_map",
    "plan_execution",
    "resolve_jobs",
    "supervised_pool",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Estimated total work (seconds) below which a process pool loses to
#: plain serial execution.  Pool spin-up (worker fork/spawn + registry
#: warm-up + IPC) costs a few hundred milliseconds; batches cheaper than
#: this ran at 0.86-0.89x serial speed in BENCH_sweep_throughput.json.
POOL_AMORTIZATION_SECONDS = 0.75


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
    """Derive a stable 62-bit seed from arbitrary repr-able parts.

    Unlike ``hash()``, the derivation does not depend on interpreter
    hash randomization or process identity, so serial and parallel runs
    (and reruns on other machines) agree on every per-task seed.
    """
    blob = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 2


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """How a task batch will run, and why that mode was chosen."""

    mode: str  # "serial" or "parallel"
    jobs: int  # worker count (1 for serial)
    chunksize: int
    reason: str

    @property
    def parallel(self) -> bool:
        return self.mode == "parallel"

    def describe(self) -> str:
        if self.parallel:
            return (
                f"parallel x{self.jobs} (chunksize {self.chunksize}): "
                f"{self.reason}"
            )
        return f"serial: {self.reason}"


def plan_execution(
    jobs: Optional[int],
    task_count: int,
    est_task_seconds: Optional[float] = None,
) -> ExecutionPlan:
    """Decide serial vs pool execution for ``task_count`` uniform tasks.

    A pool only pays off when the batch is big enough to amortize its
    spin-up cost: with a per-task cost estimate, batches whose estimated
    total is under :data:`POOL_AMORTIZATION_SECONDS` run serial even
    when ``jobs > 1`` was requested (the parallel result is
    bit-identical, so the fallback is safe).  Without an estimate the
    request is honoured as-is.
    """
    workers = resolve_jobs(jobs)
    if workers <= 1:
        return ExecutionPlan("serial", 1, 1, "jobs <= 1 requested")
    if task_count <= 1:
        return ExecutionPlan("serial", 1, 1, f"{task_count} task(s)")
    if est_task_seconds is not None:
        est_total = est_task_seconds * task_count
        if est_total < POOL_AMORTIZATION_SECONDS:
            return ExecutionPlan(
                "serial",
                1,
                1,
                f"estimated {est_total:.2f}s of work does not amortize "
                f"pool spin-up (threshold {POOL_AMORTIZATION_SECONDS}s)",
            )
    workers = min(workers, task_count)
    chunksize = max(1, task_count // (workers * 4))
    return ExecutionPlan(
        "parallel", workers, chunksize, f"{task_count} tasks across "
        f"{workers} workers"
    )


def _run_serial(fn: Callable[[_T], _R], tasks: Sequence[_T]) -> List[_R]:
    return [fn(task) for task in tasks]


def _warm_registry() -> None:
    """Worker initializer: populate the protocol registry.

    Needed only under the ``spawn`` start method (fresh interpreter);
    under ``fork`` the registry is inherited.  Importing is idempotent.
    """
    import repro.protocols  # noqa: F401  (imported for registration)


@contextlib.contextmanager
def supervised_pool(jobs: int) -> Iterator[ProcessPoolExecutor]:
    """A :class:`ProcessPoolExecutor` with guaranteed clean teardown.

    The executor's own context manager blocks in ``shutdown(wait=True)``
    on exit, which on KeyboardInterrupt or a worker death (pre-3.9
    semantics, and still the case for in-flight ``map`` chunks) leaves
    live children and queued work behind.  This wrapper makes the error
    path explicit: pending work is **cancelled**, surviving workers are
    **reaped** (terminated, then killed if necessary, then joined), and
    the interruption is **reported** by annotating the propagating
    exception -- so a Ctrl-C'd sweep neither orphans processes nor dies
    silently mid-aggregation.
    """
    executor = ProcessPoolExecutor(
        max_workers=jobs, initializer=_warm_registry
    )
    try:
        yield executor
    except BaseException as error:
        # Snapshot the children and the pool's manager thread first:
        # shutdown() clears both references.
        processes = list((getattr(executor, "_processes", None) or {}).values())
        manager = getattr(executor, "_executor_manager_thread", None)
        # Cancel: drop everything not yet running.
        executor.shutdown(wait=False, cancel_futures=True)
        # Reap: no orphaned children, whatever state the pool is in.
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=1)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        # After a worker death the manager thread joins the same children.
        # When its waitpid wins the race, a child's exit code is recorded
        # only once that thread runs again, and until then is_alive() still
        # reports the dead child as running.
        if manager is not None:
            manager.join(timeout=5)
        # Report: annotate rather than replace, so callers still see
        # the original exception type (KeyboardInterrupt included).
        if hasattr(error, "add_note"):
            error.add_note(
                f"supervised_pool: tore down {len(processes)} worker "
                f"process(es) after {type(error).__name__}; pending "
                f"tasks cancelled"
            )
        raise
    else:
        executor.shutdown(wait=True)


def parallel_map(
    fn: Callable[[_T], _R],
    tasks: Iterable[_T],
    jobs: int = 1,
    chunksize: Optional[int] = None,
) -> List[_R]:
    """Apply ``fn`` to every task, preserving input order in the result.

    With ``jobs <= 1`` (or at most one task) this is a plain list
    comprehension -- the serial reference path.  Otherwise tasks are
    dispatched to a process pool; because results come back in input
    order, any deterministic aggregation over the returned list is
    bit-identical to the serial path.  On interruption or worker death
    the pool is torn down cleanly (see :func:`supervised_pool`).
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return _run_serial(fn, tasks)
    jobs = min(jobs, len(tasks))
    if chunksize is None:
        # A few chunks per worker amortizes IPC without starving the pool.
        chunksize = max(1, len(tasks) // (jobs * 4))
    with supervised_pool(jobs) as executor:
        return list(executor.map(fn, tasks, chunksize=chunksize))
