"""Tests for persistent sweep campaigns."""

import pathlib

import pytest

from repro.harness.campaign import (
    Campaign,
    CampaignResult,
    PointRecord,
    campaign_shards,
    run_campaign,
    run_campaign_durable,
)
from repro.jobs import JobStore, RetryPolicy, StoreConflictError
from repro.models import Model


SMALL = Campaign(
    name="unit-test",
    n_values=(5,),
    points_per_spec=1,
    runs_per_point=3,
    seed=9,
    spec_names=("chaudhuri@mp-cr", "protocol-e@sm-cr"),
)


class TestRunCampaign:
    def test_runs_and_is_clean(self):
        result = run_campaign(SMALL)
        assert result.records
        assert result.clean, result.violating()
        assert result.total_runs == 3 * len(result.records)

    def test_reproducible(self):
        a = run_campaign(SMALL)
        b = run_campaign(SMALL)
        assert [r.to_json() for r in a.records] == [r.to_json() for r in b.records]

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "campaign.json"
        result = run_campaign(SMALL, result_path=path)
        loaded = CampaignResult.load(path)
        assert loaded.summary() == result.summary()
        assert [r.to_json() for r in loaded.records] == [
            r.to_json() for r in result.records
        ]

    def test_resume_skips_done_points(self, tmp_path):
        path = tmp_path / "campaign.json"
        first = run_campaign(SMALL, result_path=path)
        # resuming the identical campaign adds nothing new
        second = run_campaign(SMALL, result_path=path)
        assert len(second.records) == len(first.records)

    def test_resume_is_equivalent_to_fresh_run(self, tmp_path):
        path = tmp_path / "campaign.json"
        # run only the first spec, persist
        partial = Campaign(
            name="unit-test", n_values=(5,), points_per_spec=1,
            runs_per_point=3, seed=9, spec_names=("chaudhuri@mp-cr",),
        )
        run_campaign(partial, result_path=path)
        # resume with the full campaign: results must equal a fresh run
        resumed = run_campaign(SMALL, result_path=path)
        fresh = run_campaign(SMALL)
        assert sorted(r.key for r in resumed.records) == sorted(
            r.key for r in fresh.records
        )
        by_key_resumed = {r.key: r.to_json() for r in resumed.records}
        by_key_fresh = {r.key: r.to_json() for r in fresh.records}
        assert by_key_resumed == by_key_fresh

    def test_mismatched_result_file_rejected(self, tmp_path):
        path = tmp_path / "campaign.json"
        run_campaign(SMALL, result_path=path)
        other = Campaign(name="other", seed=9, spec_names=("chaudhuri@mp-cr",))
        with pytest.raises(ValueError):
            run_campaign(other, result_path=path)

    def test_model_filter(self):
        campaign = Campaign(
            name="mp-only", n_values=(5,), points_per_spec=1,
            runs_per_point=2, seed=3, models=(Model.MP_CR,),
        )
        result = run_campaign(campaign)
        assert result.records
        for record in result.records:
            assert record.spec.endswith("@mp-cr")


FAST = RetryPolicy(
    max_attempts=3, timeout=10.0, backoff_base=0.01, backoff_max=0.05
)


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
    def test_matches_legacy_run(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            durable, report = run_campaign_durable(
                store, campaign=SMALL, jobs=2, policy=FAST
            )
        legacy = run_campaign(SMALL)
        assert [r.to_json() for r in durable.records] == [
            r.to_json() for r in legacy.records
        ]
        assert report.drained

    def test_resume_completed_run_is_noop_and_identical(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            first, _ = run_campaign_durable(
                store, campaign=SMALL, jobs=1, policy=FAST
            )
            again, report = run_campaign_durable(
                store, run_id=SMALL.name, jobs=1, policy=FAST
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
            run_campaign_durable(store, campaign=SMALL, policy=FAST,
                                 max_shards=1)
            with pytest.raises(StoreConflictError):
                run_campaign_durable(store, campaign=other, policy=FAST)

    def test_resume_unknown_run_raises(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            with pytest.raises(KeyError):
                run_campaign_durable(store, run_id="ghost")

    def test_result_file_roundtrips_execution_metadata(self, tmp_path):
        path = tmp_path / "result.json"
        with JobStore(tmp_path / "jobs.sqlite") as store:
            result, _ = run_campaign_durable(
                store, campaign=SMALL, jobs=1, policy=FAST,
                result_path=path,
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
