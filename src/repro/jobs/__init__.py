"""Crash-safe execution layer for campaigns.

Every campaign (:func:`repro.harness.campaign.run_campaign`) runs its
points here, as shards of a job queue that lives in memory or, for a
resumable run, in a sqlite file.  A SIGKILLed worker costs one attempt
of one shard, a hung worker meets its deadline, and a killed campaign
resumes from its store.  For a repo whose *subject* is computation
that survives crashes in asynchronous systems, the harness itself
meets the same bar, in three pieces:

* :mod:`repro.jobs.store` -- :class:`JobStore`, a sqlite-backed job
  queue + result store.  Work is decomposed into *shards* (one
  self-contained payload each, seeded via
  :func:`repro.harness.parallel.derive_seed` so results are independent
  of where or when a shard runs) with atomic state transitions
  ``pending -> leased -> done | failed``.  Every transition is a guarded
  single-statement UPDATE, so a crash between any two statements leaves
  a consistent queue that the next run can resume.
* :mod:`repro.jobs.supervisor` -- :func:`run_shards`, a worker
  supervisor that leases shards, runs every attempt on the repo's one
  worker pool (:class:`~repro.harness.parallel.WorkerPool`, one child
  at ``jobs=1``) with per-shard timeouts, detects dead workers
  (SIGKILL, OOM) and re-leases their shards, and retries transient
  failures and failed forks with exponential backoff and deterministic
  jitter -- recording each in the run's event log.
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
