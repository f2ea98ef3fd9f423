"""Sweep campaigns: grid-scale validation with persisted results.

A *campaign* runs Monte-Carlo sweeps for many protocols over many
``(n, k, t)`` points and records the results as JSON, so that large
validations (the kind backing EXPERIMENTS.md) are diffable across
library versions.  Re-running a campaign with the same seed reproduces
it exactly.

:func:`run_campaign` decomposes the campaign into *shards* (one per
point, seeded deterministically via
:func:`~repro.harness.parallel.derive_seed`) in a sqlite
:class:`~repro.jobs.store.JobStore` and executes them under the
:mod:`repro.jobs` supervisor: per-shard timeouts, bounded retries with
backoff, dead-worker re-lease, and chaos injection.  The store is an
in-memory one unless the caller passes a file-backed store, which makes
the run resumable after a crash.  Because every shard's result is a
pure function of its payload, a resumed campaign's aggregate is
bit-identical to an uninterrupted one (checked by
:func:`repro.verify.diff_resumed`).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import sample_solvable_points
from repro.harness.parallel import derive_seed
from repro.harness.sweep import ENGINES, SweepConfig, SweepStats, sweep_spec
from repro.io import atomic_write_json
from repro.protocols.base import ProtocolSpec, all_specs, get_spec
from repro.models import Model

import random

__all__ = [
    "Campaign",
    "CampaignResult",
    "PointRecord",
    "campaign_shards",
    "run_campaign",
]


@dataclasses.dataclass(frozen=True)
class Campaign:
    """Specification of a validation campaign."""

    name: str
    n_values: Tuple[int, ...] = (6, 8)
    points_per_spec: int = 2
    runs_per_point: int = 10
    seed: int = 0
    spec_names: Optional[Tuple[str, ...]] = None  # default: all registered
    models: Optional[Tuple[Model, ...]] = None
    #: execution engine per point: "scalar", "batch", or "auto" (batch
    #: where supported, scalar fallback) -- see :func:`sweep_spec`.
    engine: str = "scalar"

    def __post_init__(self) -> None:
        for name in ("points_per_spec", "runs_per_point"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")

    def specs(self) -> List[ProtocolSpec]:
        if self.spec_names is not None:
            return [get_spec(name) for name in self.spec_names]
        specs = list(all_specs())
        if self.models is not None:
            specs = [s for s in specs if s.model in self.models]
        return specs

    def to_json(self) -> Dict:
        """JSON form (stored in the job store's run row)."""
        return {
            "name": self.name,
            "n_values": list(self.n_values),
            "points_per_spec": self.points_per_spec,
            "runs_per_point": self.runs_per_point,
            "seed": self.seed,
            "spec_names": (
                list(self.spec_names) if self.spec_names is not None
                else None
            ),
            "models": (
                [m.shorthand for m in self.models]
                if self.models is not None else None
            ),
            "engine": self.engine,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "Campaign":
        return cls(
            name=data["name"],
            n_values=tuple(data["n_values"]),
            points_per_spec=data["points_per_spec"],
            runs_per_point=data["runs_per_point"],
            seed=data["seed"],
            spec_names=(
                tuple(data["spec_names"])
                if data.get("spec_names") is not None else None
            ),
            models=(
                tuple(Model.from_shorthand(s) for s in data["models"])
                if data.get("models") is not None else None
            ),
            engine=data.get("engine", "scalar"),
        )


@dataclasses.dataclass
class PointRecord:
    """Persisted result of one sweep point."""

    spec: str
    n: int
    k: int
    t: int
    runs: int
    violations: int
    max_distinct: int
    #: engine that produced the point ("scalar" default keeps result
    #: files from before the batch engine loadable).
    engine: str = "scalar"

    @property
    def key(self) -> str:
        return f"{self.spec}|n={self.n}|k={self.k}|t={self.t}"

    def to_json(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Dict) -> "PointRecord":
        return cls(**data)

    @classmethod
    def from_stats(cls, stats: SweepStats) -> "PointRecord":
        return cls(
            spec=stats.spec_name,
            n=stats.n,
            k=stats.k,
            t=stats.t,
            runs=stats.runs,
            violations=len(stats.violations),
            max_distinct=stats.max_distinct_decisions,
            engine=stats.engine,
        )


@dataclasses.dataclass
class CampaignResult:
    """All point records of one campaign run."""

    campaign: str
    seed: int
    records: List[PointRecord] = dataclasses.field(default_factory=list)
    #: how the run executed (supervisor report + supervision events);
    #: never part of aggregate equality, though a failed shard or an
    #: early stop recorded here makes the result not :attr:`clean`.
    execution: Optional[Dict] = None

    @property
    def failed_shards(self) -> int:
        """Points the supervisor gave up on; they have no record."""
        return len(self.execution["failed_shards"]) if self.execution else 0

    @property
    def drained(self) -> bool:
        """False when the supervisor stopped before its queue drained."""
        return not (
            self.execution and self.execution["supervisor"]["stopped_early"]
        )

    @property
    def clean(self) -> bool:
        """Every point ran, and none violated its claim."""
        return self.drained and not self.failed_shards and not self.violating()

    @property
    def total_runs(self) -> int:
        return sum(record.runs for record in self.records)

    def violating(self) -> List[PointRecord]:
        return [r for r in self.records if r.violations]

    def save(self, path: pathlib.Path) -> None:
        payload = {
            "campaign": self.campaign,
            "seed": self.seed,
            "records": [record.to_json() for record in self.records],
        }
        if self.execution is not None:
            payload["execution"] = self.execution
        atomic_write_json(path, payload)

    @classmethod
    def load(cls, path: pathlib.Path) -> "CampaignResult":
        payload = json.loads(path.read_text())
        return cls(
            campaign=payload["campaign"],
            seed=payload["seed"],
            records=[PointRecord.from_json(r) for r in payload["records"]],
            execution=payload.get("execution"),
        )

    def summary(self) -> str:
        problems = []
        if self.violating():
            problems.append(f"{len(self.violating())} violating points")
        if self.failed_shards:
            problems.append(f"{self.failed_shards} failed shards")
        if not self.drained:
            problems.append("stopped before the queue drained")
        status = ", ".join(problems) or "clean"
        return (
            f"campaign {self.campaign!r}: {len(self.records)} points, "
            f"{self.total_runs} runs, {status}"
        )


def _point_seed(campaign_seed: int, key: str) -> int:
    """Deterministic per-point sweep seed (SHA-256 mix, cross-process
    and cross-platform stable -- the same derivation the parallel and
    durable execution layers rely on)."""
    return derive_seed("campaign-point", campaign_seed, key) % (1 << 30)


def campaign_shards(campaign: Campaign) -> List[Tuple[str, Dict]]:
    """Every point of the campaign as a ``(key, payload)`` shard, in
    deterministic campaign order.

    The payload is self-contained (spec name, point, seed, run count,
    engine) and the per-point seed depends only on ``(campaign.seed,
    key)``, so any subset of points can run in any process, in any
    order, and still produce the identical :class:`PointRecord`.
    """
    shards: List[Tuple[str, Dict]] = []
    for spec in campaign.specs():
        for n in campaign.n_values:
            point_rng = random.Random(f"{campaign.seed}:{spec.name}:{n}")
            for (k, t) in sample_solvable_points(
                spec, n, campaign.points_per_spec, point_rng
            ):
                key = f"{spec.name}|n={n}|k={k}|t={t}"
                shards.append((key, {
                    "spec": spec.name,
                    "n": n,
                    "k": k,
                    "t": t,
                    "seed": _point_seed(campaign.seed, key),
                    "runs": campaign.runs_per_point,
                    "engine": campaign.engine,
                }))
    return shards


def campaign_shard_worker(payload: Dict) -> Dict:
    """Module-level shard worker: sweep one point, return its record."""
    stats = sweep_spec(
        get_spec(payload["spec"]), payload["n"], payload["k"], payload["t"],
        SweepConfig(runs=payload["runs"], seed=payload["seed"]),
        engine=payload["engine"],
    )
    return PointRecord.from_stats(stats).to_json()


def run_campaign(
    campaign: Optional[Campaign] = None,
    store=None,
    run_id: Optional[str] = None,
    jobs: int = 1,
    policy=None,
    chaos=None,
    max_shards: Optional[int] = None,
    result_path: Optional[pathlib.Path] = None,
):
    """Execute (or resume) a campaign on the job store's supervisor.

    With ``store`` omitted the shards live in a private in-memory
    :class:`~repro.jobs.store.JobStore` that ends with the call.  With
    ``campaign`` given, the run is registered in the store under
    ``run_id`` (default: the campaign name) and its shard grid
    submitted -- both idempotently, so invoking again on a file-backed
    store after a crash resumes exactly where the queue stands.  With
    ``campaign`` omitted, the campaign specification is loaded from the
    store (the ``--resume <run-id>`` path).

    ``jobs``, ``policy`` (:class:`~repro.jobs.supervisor.RetryPolicy`),
    ``chaos`` and ``max_shards`` go to
    :func:`~repro.jobs.supervisor.run_shards`.

    Returns ``(result, report)``: the aggregate
    :class:`CampaignResult` assembled from completed shards in
    deterministic campaign order -- bit-identical to an uninterrupted
    run once the queue drains -- and the supervisor's
    :class:`~repro.jobs.supervisor.SupervisorReport`.  Retry, timeout,
    worker-death, and failure events are embedded in
    ``result.execution`` and the result is written to ``result_path``
    when given.
    """
    # Imported here, not at module level: every benchmark workload
    # imports this module while setting up and none runs a campaign,
    # so the job store and sqlite3 stay out of their imports.
    from repro.jobs import JobStore, run_shards

    if store is None:
        with JobStore(":memory:") as private:
            return run_campaign(
                campaign, private, run_id, jobs, policy, chaos, max_shards,
                result_path,
            )

    if campaign is None:
        if run_id is None:
            raise ValueError("a resume needs a run_id")
        kind, spec = store.load_run(run_id)
        if kind != "campaign":
            raise ValueError(
                f"run {run_id!r} is a {kind!r} run, not a campaign"
            )
        campaign = Campaign.from_json(spec)
    else:
        run_id = run_id or campaign.name
        store.create_run(run_id, "campaign", campaign.to_json())
    store.add_shards(run_id, campaign_shards(campaign))

    report = run_shards(
        store, run_id, campaign_shard_worker,
        jobs=jobs, policy=policy, chaos=chaos, max_shards=max_shards,
    )

    records = [PointRecord.from_json(r) for r in store.results(run_id)]
    failed = store.shards(run_id, state="failed")
    execution = {
        "run_id": run_id,
        "supervisor": report.to_json(),
        "events": [e.to_json() for e in store.events(run_id)],
        "failed_shards": [
            {"shard": s.shard_id, "attempts": s.attempts, "error": s.error}
            for s in failed
        ],
    }
    result = CampaignResult(
        campaign=campaign.name, seed=campaign.seed, records=records,
        execution=execution,
    )
    if result_path is not None:
        result.save(result_path)
    return result, report
