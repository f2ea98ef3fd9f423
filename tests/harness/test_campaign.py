"""Tests for persistent sweep campaigns."""

import os
import subprocess
import sys

import pytest

import repro
from repro.harness.campaign import (
    Campaign,
    CampaignResult,
    PointRecord,
    campaign_shards,
    run_campaign,
)
from repro.jobs import ChaosPolicy, JobStore, RetryPolicy, StoreConflictError
from repro.models import Model


SMALL = Campaign(
    name="unit-test",
    n_values=(5,),
    points_per_spec=1,
    runs_per_point=3,
    seed=9,
    spec_names=("chaudhuri@mp-cr", "protocol-e@sm-cr"),
)

FAST = RetryPolicy(
    max_attempts=3, timeout=10.0, backoff_base=0.01, backoff_max=0.05
)


class TestRunCampaign:
    def test_runs_and_is_clean(self):
        result, report = run_campaign(SMALL)
        assert result.records
        assert result.clean, result.violating()
        assert result.total_runs == 3 * len(result.records)
        assert report.drained

    def test_reproducible(self):
        a, _ = run_campaign(SMALL)
        b, _ = run_campaign(SMALL)
        assert [r.to_json() for r in a.records] == [r.to_json() for r in b.records]

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "campaign.json"
        result, _ = run_campaign(SMALL, result_path=path)
        loaded = CampaignResult.load(path)
        assert loaded.summary() == result.summary()
        assert [r.to_json() for r in loaded.records] == [
            r.to_json() for r in result.records
        ]

    def test_model_filter(self):
        campaign = Campaign(
            name="mp-only", n_values=(5,), points_per_spec=1,
            runs_per_point=2, seed=3, models=(Model.MP_CR,),
        )
        result, _ = run_campaign(campaign)
        assert result.records
        for record in result.records:
            assert record.spec.endswith("@mp-cr")

    def test_failed_shards_are_not_clean(self, tmp_path):
        # every attempt of every shard raises: no point has a record,
        # and that must not read as a clean campaign
        path = tmp_path / "campaign.json"
        result, report = run_campaign(
            SMALL,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
            chaos=ChaosPolicy(error_rate=1.0, max_chaos_attempts=5),
            result_path=path,
        )
        shards = len(campaign_shards(SMALL))
        assert result.records == [] and report.failed == shards
        assert result.failed_shards == shards
        assert not result.clean
        assert f"{shards} failed shards" in result.summary()
        assert not CampaignResult.load(path).clean

    def test_stopped_early_is_not_clean(self):
        result, report = run_campaign(SMALL, policy=FAST, max_shards=1)
        assert report.stopped_early and len(result.records) == 1
        assert result.violating() == [] and result.failed_shards == 0
        assert not result.clean
        assert "stopped before the queue drained" in result.summary()


class TestImports:
    def test_harness_import_leaves_the_job_store_out(self):
        # every benchmark workload imports repro.harness while setting
        # up; the job store and sqlite3 load only when a campaign runs
        code = (
            "import sys, repro.harness; "
            "print(sorted({'repro.jobs', 'sqlite3'} & set(sys.modules)))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"


class TestCampaignJson:
    def test_roundtrip(self):
        campaign = Campaign(
            name="rt", n_values=(5, 7), points_per_spec=2,
            runs_per_point=4, seed=11,
            spec_names=("chaudhuri@mp-cr",), engine="auto",
        )
        assert Campaign.from_json(campaign.to_json()) == campaign

    def test_roundtrip_with_models(self):
        campaign = Campaign(name="rt", models=(Model.MP_CR, Model.SM_CR))
        assert Campaign.from_json(campaign.to_json()) == campaign

    def test_defaults_roundtrip(self):
        campaign = Campaign(name="plain")
        assert Campaign.from_json(campaign.to_json()) == campaign

    @pytest.mark.parametrize("field", ["points_per_spec", "runs_per_point"])
    def test_negative_counts_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            Campaign(name="neg", **{field: -1})
        assert Campaign(name="zero", **{field: 0})

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine 'gpu'"):
            Campaign(name="x", engine="gpu")


class TestCampaignShards:
    def test_deterministic_and_unique(self):
        a = campaign_shards(SMALL)
        b = campaign_shards(SMALL)
        assert a == b
        ids = [shard_id for shard_id, _ in a]
        assert len(ids) == len(set(ids))

    def test_payload_is_self_contained(self):
        for _, payload in campaign_shards(SMALL):
            assert set(payload) >= {"spec", "n", "k", "t", "seed", "runs"}

    def test_seed_changes_shard_seeds(self):
        reseeded = Campaign(
            name="unit-test", n_values=(5,), points_per_spec=1,
            runs_per_point=3, seed=10,
            spec_names=("chaudhuri@mp-cr", "protocol-e@sm-cr"),
        )
        seeds = lambda shards: [p["seed"] for _, p in shards]
        assert seeds(campaign_shards(SMALL)) != seeds(
            campaign_shards(reseeded)
        )


class TestRunCampaignDurable:
    def test_memory_store_matches_file_store(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            stored, report = run_campaign(SMALL, store, jobs=2, policy=FAST)
        in_memory, _ = run_campaign(SMALL)
        assert [r.to_json() for r in stored.records] == [
            r.to_json() for r in in_memory.records
        ]
        assert report.drained

    def test_resume_completed_run_is_noop_and_identical(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            first, _ = run_campaign(SMALL, store, jobs=1, policy=FAST)
            again, report = run_campaign(
                store=store, run_id=SMALL.name, jobs=1, policy=FAST
            )
        assert report.completed == 0
        assert [r.to_json() for r in again.records] == [
            r.to_json() for r in first.records
        ]

    def test_conflicting_campaign_same_run_id_rejected(self, tmp_path):
        other = Campaign(
            name=SMALL.name, n_values=(7,), points_per_spec=1,
            runs_per_point=3, seed=9, spec_names=("chaudhuri@mp-cr",),
        )
        with JobStore(tmp_path / "jobs.sqlite") as store:
            run_campaign(SMALL, store, policy=FAST, max_shards=1)
            with pytest.raises(StoreConflictError):
                run_campaign(other, store, policy=FAST)

    def test_resume_unknown_run_raises(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            with pytest.raises(KeyError):
                run_campaign(store=store, run_id="ghost")

    def test_result_file_roundtrips_execution_metadata(self, tmp_path):
        path = tmp_path / "result.json"
        with JobStore(tmp_path / "jobs.sqlite") as store:
            result, _ = run_campaign(
                SMALL, store, jobs=1, policy=FAST, result_path=path,
            )
        loaded = CampaignResult.load(path)
        assert loaded.execution is not None
        assert loaded.execution["run_id"] == SMALL.name
        assert [r.to_json() for r in loaded.records] == [
            r.to_json() for r in result.records
        ]


class TestPointRecord:
    def test_json_roundtrip(self):
        record = PointRecord(
            spec="x", n=5, k=2, t=1, runs=3, violations=0, max_distinct=2
        )
        assert PointRecord.from_json(record.to_json()) == record

    def test_key_format(self):
        record = PointRecord(
            spec="x", n=5, k=2, t=1, runs=3, violations=0, max_distinct=2
        )
        assert record.key == "x|n=5|k=2|t=1"
