"""Worker supervision: leases, timeouts, retries, and re-lease on death.

:func:`run_shards` drains one run's shard queue through the
:class:`~repro.harness.parallel.WorkerPool` every fan-out in the repo
uses: long-lived child processes (one with ``jobs=1``), one shard
attempt in flight per child, each settling on its own.  A dead or
killed child costs only its shard, and a fresh child takes its slot,
so every failure mode has a local, recoverable response:

* **worker death** (SIGKILL, OOM, segfault) -- detected by exit code,
  the shard is failed-with-retry and re-leased; other shards keep
  running;
* **hang** -- a per-shard deadline; on expiry the worker is killed and
  the shard retried;
* **transient exception** -- reported over the result pipe, retried
  with exponential backoff and deterministic jitter (the jitter is
  derived from ``(shard_id, attempt)`` via
  :func:`~repro.harness.parallel.derive_seed`, so two supervisors
  racing on one store spread out identically and reproducibly);
* **retry exhaustion** -- the shard moves to ``failed`` with its last
  error; the run completes degraded rather than wedging.  A child that
  cannot be forked fails its attempt the same way.

Because all progress lives in the :class:`~repro.jobs.store.JobStore`,
killing the *supervisor* at any point is also recoverable: a later
invocation re-leases whatever was in flight (after lease expiry) and
continues.  ``max_shards`` deliberately stops supervision after N
shards settle -- the hook tests and the CI chaos drill use to create
interrupted runs at a deterministic point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.parallel import (
    DONE, RAISED, TIMED_OUT, TaskOutcome, WorkerPool, derive_seed, resolve_jobs,
)
from repro.jobs.chaos import ChaosPolicy, apply_chaos
from repro.jobs.store import JobStore, Shard, ShardState

__all__ = ["RetryPolicy", "SupervisorReport", "run_shards"]

#: Seconds between queue polls while no shard is runnable yet.
POLL_INTERVAL = 0.02

#: Longest single sleep while waiting out a backoff gate.
BACKOFF_WAIT_SLICE = 0.25


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Per-shard failure handling: attempts, deadline, backoff curve."""

    #: total attempts per shard (first try included).
    max_attempts: int = 3
    #: per-shard wall-clock deadline in seconds (None = no deadline).
    timeout: Optional[float] = 60.0
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 10.0
    #: jitter fraction added on top of the exponential delay.
    backoff_jitter: float = 0.25

    def backoff_delay(self, shard_id: str, attempt: int) -> float:
        """Delay before retrying ``shard_id`` after failed ``attempt``.

        Exponential in the attempt number, capped, with deterministic
        jitter: the jitter draw comes from the SHA-256 seed mix, so
        retry schedules are reproducible run-to-run and still spread
        out across shards.
        """
        exponent = max(0, attempt - 1)
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** exponent,
        )
        draw = derive_seed("backoff", shard_id, attempt) / float(1 << 62)
        return base * (1.0 + self.backoff_jitter * draw)

    def lease_timeout(self) -> float:
        """Lease duration written to the store for supervised shards.

        Comfortably longer than the supervision deadline so the
        supervisor always adjudicates its own workers first; the lease
        clock only takes over when the supervisor itself died.
        """
        if self.timeout is None:
            return 3600.0
        return self.timeout * 2 + 30.0


@dataclasses.dataclass
class SupervisorReport:
    """What one supervision session did (embedded in run stats)."""

    jobs: int
    completed: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    releases: int = 0  # expired foreign leases reclaimed
    stopped_early: bool = False
    remaining: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def drained(self) -> bool:
        """Every shard settled (done or failed); nothing left to run."""
        return not (
            self.remaining.get(ShardState.PENDING, 0)
            or self.remaining.get(ShardState.LEASED, 0)
        )

    def to_json(self) -> Dict:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        tail = []
        if self.retries:
            tail.append(f"{self.retries} retries")
        if self.timeouts:
            tail.append(f"{self.timeouts} timeouts")
        if self.worker_deaths:
            tail.append(f"{self.worker_deaths} worker deaths")
        if self.failed:
            tail.append(f"{self.failed} failed")
        extras = f" ({', '.join(tail)})" if tail else ""
        workers = "worker" if self.jobs == 1 else "workers"
        return (
            f"{self.jobs} {workers}; "
            f"{self.completed} shards completed{extras}"
        )


def _attempt(worker: Callable[[Dict], Dict], chaos: Optional[ChaosPolicy],
             task: Tuple[Dict, str, int]) -> Dict:
    """One shard attempt in a worker child: chaos hook, then payload."""
    payload, shard_id, attempt = task
    apply_chaos(chaos, shard_id, attempt)
    return worker(payload)


def run_shards(
    store: JobStore,
    run_id: str,
    worker: Callable[[Dict], Dict],
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    max_shards: Optional[int] = None,
) -> SupervisorReport:
    """Supervise ``run_id``'s queue until drained (or ``max_shards``).

    ``worker`` must be a module-level (picklable) callable taking one
    JSON payload dict and returning a JSON-serializable result dict --
    the same contract as :func:`~repro.harness.parallel.parallel_map`
    workers.  Every attempt runs in a worker child; ``jobs`` (``0`` =
    all cores) is how many run at once.  Progress is durable: every
    state transition lands in the store before the supervisor moves on,
    so this function may be killed at any point and re-invoked.
    """
    policy = policy or RetryPolicy()
    workers = resolve_jobs(jobs)
    report = SupervisorReport(jobs=workers)
    active: Dict[str, Shard] = {}
    finalized = 0  # shards settled (done/failed) by THIS session

    def handle_failure(shard: Shard, error: str) -> None:
        nonlocal finalized
        now = time.time()
        if shard.attempts >= policy.max_attempts:
            store.fail(run_id, shard.shard_id, error, retry_at=None)
            store.record_event(
                run_id, "failed",
                f"attempt {shard.attempts}/{policy.max_attempts}: {error}",
                shard_id=shard.shard_id,
            )
            report.failed += 1
            finalized += 1
            return
        delay = policy.backoff_delay(shard.shard_id, shard.attempts)
        store.fail(run_id, shard.shard_id, error, retry_at=now + delay)
        store.record_event(
            run_id, "retry",
            f"attempt {shard.attempts}/{policy.max_attempts} failed "
            f"({error}); backoff {delay:.3f}s",
            shard_id=shard.shard_id,
        )
        report.retries += 1

    def settle(shard: Shard, outcome: TaskOutcome) -> None:
        nonlocal finalized
        if outcome.kind == DONE:
            store.complete(run_id, shard.shard_id, outcome.value)
            report.completed += 1
            finalized += 1
            return
        if outcome.kind == RAISED:
            error = outcome.value
            handle_failure(shard, f"{type(error).__name__}: {error}")
            return
        if outcome.kind == TIMED_OUT:
            report.timeouts += 1
            kind = "timeout"
            detail = f"no result within {policy.timeout}s; worker terminated"
            error = f"shard timed out after {policy.timeout}s"
        else:
            report.worker_deaths += 1
            kind = "worker-death"
            detail = (f"worker exited with code {outcome.exitcode} "
                      f"({outcome.cause}) before reporting a result")
            error = f"worker died (exit code {outcome.exitcode})"
        store.record_event(run_id, kind, detail, shard_id=shard.shard_id)
        handle_failure(shard, error)

    def start(shard: Shard) -> None:
        """Hand ``shard`` to a child; a failed fork (or a send to a
        child that just died) fails the attempt like a raised error."""
        task = (shard.payload, shard.shard_id, shard.attempts)
        try:
            pool.submit(shard.shard_id, task, timeout=policy.timeout)
        except OSError as error:
            settle(shard, TaskOutcome(shard, RAISED, error))
            return
        active[shard.shard_id] = shard

    # Leaving the block kills whatever is still in flight, whatever
    # interrupted the loop (KeyboardInterrupt included).
    with contextlib.closing(WorkerPool(partial(_attempt, worker, chaos), workers)) as pool:
        while True:
            now = time.time()
            for shard_id in store.release_expired(run_id, now):
                store.record_event(
                    run_id, "lease-expired",
                    "expired lease released back to pending",
                    shard_id=shard_id,
                )
                report.releases += 1

            budget = None
            if max_shards is not None:
                budget = max_shards - finalized - len(active)
                if budget <= 0 and not active:
                    break
            capacity = workers - len(active)
            if budget is not None:
                capacity = min(capacity, budget)
            leased: List[Shard] = []
            if capacity > 0:
                leased = store.lease(
                    run_id, now, policy.lease_timeout(), capacity
                )
                for shard in leased:
                    start(shard)

            counts = store.counts(run_id)
            queued = counts[ShardState.PENDING] or (
                counts[ShardState.LEASED] > len(active)
            )
            if not active and not queued:
                break
            if active:
                # Block on the children; poll only while a free slot
                # waits for a shard that is not runnable yet.
                polling = queued and capacity > len(leased)
                for shard_id, outcome in pool.wait(POLL_INTERVAL if polling else None):
                    settle(active.pop(shard_id), outcome)
            elif not leased:
                # Nothing in flight and nothing leasable right now:
                # wait out the earliest backoff gate (or a foreign
                # supervisor's unexpired lease) without busy-spinning.
                gate = store.next_not_before(run_id)
                if gate is not None and gate > now:
                    time.sleep(min(gate - now, BACKOFF_WAIT_SLICE))
                else:
                    time.sleep(POLL_INTERVAL)

    report.remaining = store.counts(run_id)
    report.stopped_early = not report.drained
    return report
