"""Crash-safe execution layer for sweeps and campaigns.

The Monte-Carlo harnesses were, until this package, only as durable as
the single process running them: a SIGKILLed campaign restarted from
zero, a hung worker hung ``--jobs`` forever, and nothing proved
otherwise.  For a repo whose *subject* is computation that survives
crashes in asynchronous systems, the harness itself should meet the
same bar.  ``repro.jobs`` provides that bar in three pieces:

* :mod:`repro.jobs.store` -- :class:`JobStore`, a sqlite-backed job
  queue + result store.  Work is decomposed into *shards* (one
  self-contained payload each, seeded via
  :func:`repro.harness.parallel.derive_seed` so results are independent
  of where or when a shard runs) with atomic state transitions
  ``pending -> leased -> done | failed``.  Every transition is a guarded
  single-statement UPDATE, so a crash between any two statements leaves
  a consistent queue that the next run can resume.
* :mod:`repro.jobs.supervisor` -- :func:`run_shards`, a worker
  supervisor that leases shards, runs them on the repo's one worker
  pool (:class:`~repro.harness.parallel.WorkerPool`, no executor) with
  per-shard timeouts, detects dead workers (SIGKILL, OOM) and re-leases
  their shards, retries transient failures with exponential backoff and
  deterministic jitter, and degrades gracefully to serial in-process
  execution when no child can be started -- recording *why* in the
  run's event log, mirroring the ``plan_execution`` convention.
* :mod:`repro.jobs.chaos` -- :class:`ChaosPolicy`, deterministic fault
  injection (worker SIGKILL, artificial hangs, transient exceptions)
  aimed at the harness itself.  The same adversarial mindset the repo
  applies to protocols, now proving the supervisor's guarantees.

Because shard payloads are deterministic functions of their seeds, a
resumed run's aggregate is **bit-identical** to an uninterrupted run;
:func:`repro.verify.diff_resumed` checks exactly that, and the CI
``chaos-smoke`` job SIGKILLs workers mid-campaign to keep it true.
"""

from repro.jobs.chaos import ChaosError, ChaosPolicy, apply_chaos
from repro.jobs.store import (
    JobStore,
    Shard,
    ShardEvent,
    ShardState,
    StoreConflictError,
)
from repro.jobs.supervisor import (
    RetryPolicy,
    SupervisorReport,
    run_shards,
)

__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "JobStore",
    "RetryPolicy",
    "Shard",
    "ShardEvent",
    "ShardState",
    "StoreConflictError",
    "SupervisorReport",
    "apply_chaos",
    "run_shards",
]
