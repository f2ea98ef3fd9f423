"""Chaos policy determinism and the crash-recover-converge drill.

The drill at the bottom is the PR's headline property, end to end: a
campaign run under chaos (real SIGKILLed workers), interrupted, then
resumed, produces a result bit-identical to an uninterrupted clean run
-- checked by :func:`repro.verify.diff_resumed`.
"""

import pytest

from repro.harness.campaign import Campaign, run_campaign
from repro.jobs import ChaosError, ChaosPolicy, JobStore, RetryPolicy, apply_chaos
from repro.verify import diff_resumed

FAST = RetryPolicy(
    max_attempts=3, timeout=10.0, backoff_base=0.01, backoff_max=0.05
)

SMALL = Campaign(
    name="chaos-drill",
    n_values=(5,),
    points_per_spec=1,
    runs_per_point=3,
    seed=9,
    spec_names=("chaudhuri@mp-cr", "protocol-b@mp-cr"),
)


class TestChaosPolicy:
    def test_action_is_pure(self):
        policy = ChaosPolicy(seed=7, kill_rate=0.3, hang_rate=0.3,
                             error_rate=0.3)
        actions = [policy.action(f"s{i}", 1) for i in range(50)]
        assert actions == [policy.action(f"s{i}", 1) for i in range(50)]
        # with rates summing to 0.9 over 50 shards, both faulting and
        # clean draws must occur
        assert any(a is not None for a in actions)

    def test_seed_changes_schedule(self):
        a = ChaosPolicy(seed=1, kill_rate=0.5)
        b = ChaosPolicy(seed=2, kill_rate=0.5)
        assert [a.action(f"s{i}", 1) for i in range(30)] != [
            b.action(f"s{i}", 1) for i in range(30)
        ]

    def test_retries_run_clean_by_default(self):
        policy = ChaosPolicy(seed=1, error_rate=1.0)
        assert policy.action("s0", 1) == "error"
        assert policy.action("s0", 2) is None  # max_chaos_attempts=1

    def test_max_chaos_attempts_extends_sabotage(self):
        policy = ChaosPolicy(seed=1, error_rate=1.0, max_chaos_attempts=2)
        assert policy.action("s0", 2) == "error"
        assert policy.action("s0", 3) is None

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosPolicy(kill_rate=0.6, hang_rate=0.6)
        with pytest.raises(ValueError):
            ChaosPolicy(error_rate=-0.1)

    def test_inactive_policy(self):
        assert not ChaosPolicy().active
        assert ChaosPolicy(error_rate=0.1).active


class TestApplyChaos:
    def test_none_policy_is_noop(self):
        apply_chaos(None, "s0", 1)

    def test_error_raises_chaos_error(self):
        policy = ChaosPolicy(seed=1, error_rate=1.0)
        with pytest.raises(ChaosError, match="s0"):
            apply_chaos(policy, "s0", 1)

    def test_clean_attempt_passes_through(self):
        policy = ChaosPolicy(seed=1, error_rate=1.0)
        apply_chaos(policy, "s0", 2)  # attempt 2 is past the sabotage cap


class TestCrashRecoverConverge:
    def test_interrupted_chaos_run_resumes_bit_identical(self, tmp_path):
        chaos = ChaosPolicy(seed=3, kill_rate=0.4, error_rate=0.3)
        with JobStore(tmp_path / "jobs.sqlite") as store:
            # run under chaos and stop after one settled shard: this is
            # the interrupted run (some shards done, some pending)
            partial, first = run_campaign(
                SMALL, store, jobs=2, policy=FAST, chaos=chaos,
                max_shards=1,
            )
            assert first.stopped_early
            assert len(partial.records) < 2
            # resume to completion (still under chaos)
            resumed, second = run_campaign(
                store=store, run_id=SMALL.name, jobs=2, policy=FAST,
                chaos=chaos,
            )
            assert second.drained and not second.failed
        reference, _ = run_campaign(SMALL)
        diff = diff_resumed(resumed, reference)
        assert diff.ok, diff.summary()
        assert "bit-identical" in diff.summary()

    def test_supervisor_kill_between_shards_is_resumable(self, tmp_path):
        # max_shards models the supervisor itself dying between shard
        # settlements (the store is consistent at every boundary).
        with JobStore(tmp_path / "jobs.sqlite") as store:
            for _ in range(10):  # one shard per "supervisor lifetime"
                _, report = run_campaign(
                    SMALL, store, jobs=1, policy=FAST, max_shards=1,
                )
                if not report.stopped_early:
                    break
            result, final = run_campaign(
                store=store, run_id=SMALL.name, jobs=1, policy=FAST
            )
            assert final.drained
        reference, _ = run_campaign(SMALL)
        assert diff_resumed(result, reference).ok

    def test_execution_metadata_records_the_story(self, tmp_path):
        chaos = ChaosPolicy(seed=1, error_rate=1.0)
        with JobStore(tmp_path / "jobs.sqlite") as store:
            result, report = run_campaign(
                SMALL, store, jobs=1, policy=FAST, chaos=chaos,
            )
        assert result.execution is not None
        assert result.execution["run_id"] == SMALL.name
        assert result.execution["supervisor"]["retries"] == report.retries > 0
        kinds = {e["kind"] for e in result.execution["events"]}
        assert "retry" in kinds
        assert result.execution["failed_shards"] == []
