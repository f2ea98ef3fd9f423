"""Tests for the sqlite job store's shard state machine.

The contract under test: every transition is atomic and guarded, so a
crashed or doubled supervisor can never double-claim a shard, overwrite
a completed result, or lose a retry.
"""

import pytest

from repro.jobs import JobStore, ShardState, StoreConflictError


@pytest.fixture
def store():
    with JobStore(":memory:") as js:
        yield js


def _seed_run(store, run_id="r", n=3):
    store.create_run(run_id, "test", {"n": n})
    store.add_shards(
        run_id, [(f"s{i}", {"i": i}) for i in range(n)]
    )
    return run_id


class TestRuns:
    def test_create_is_idempotent(self, store):
        store.create_run("r", "test", {"a": 1})
        store.create_run("r", "test", {"a": 1})  # no-op, no raise
        assert store.load_run("r") == ("test", {"a": 1})

    def test_spec_mismatch_rejected(self, store):
        store.create_run("r", "test", {"a": 1})
        with pytest.raises(StoreConflictError):
            store.create_run("r", "test", {"a": 2})

    def test_kind_mismatch_rejected(self, store):
        store.create_run("r", "test", {"a": 1})
        with pytest.raises(StoreConflictError):
            store.create_run("r", "other", {"a": 1})

    def test_unknown_run_raises(self, store):
        with pytest.raises(KeyError):
            store.load_run("nope")


class TestAddShards:
    def test_insert_and_seq_order(self, store):
        run = _seed_run(store)
        shards = store.shards(run)
        assert [s.shard_id for s in shards] == ["s0", "s1", "s2"]
        assert [s.seq for s in shards] == [0, 1, 2]
        assert all(s.state == ShardState.PENDING for s in shards)

    def test_resubmission_is_idempotent(self, store):
        run = _seed_run(store)
        inserted = store.add_shards(
            run, [("s1", {"i": 1}), ("s3", {"i": 3})]
        )
        assert inserted == 1  # only the genuinely new shard
        assert [s.seq for s in store.shards(run)] == [0, 1, 2, 3]

    def test_resubmission_never_disturbs_done(self, store):
        run = _seed_run(store)
        store.lease(run, now=0.0, timeout=10.0)
        store.complete(run, "s0", {"value": 7})
        store.add_shards(run, [("s0", {"i": 0})])
        assert store.get(run, "s0").state == ShardState.DONE
        assert store.get(run, "s0").result == {"value": 7}


class TestStateMachine:
    def test_lease_claims_in_seq_order(self, store):
        run = _seed_run(store)
        leased = store.lease(run, now=0.0, timeout=10.0, limit=2)
        assert [s.shard_id for s in leased] == ["s0", "s1"]
        assert all(s.state == ShardState.LEASED for s in leased)
        assert all(s.attempts == 1 for s in leased)
        assert all(s.lease_expires == 10.0 for s in leased)

    def test_leased_shard_cannot_be_leased_again(self, store):
        run = _seed_run(store, n=1)
        assert len(store.lease(run, now=0.0, timeout=10.0)) == 1
        assert store.lease(run, now=0.0, timeout=10.0) == []

    def test_backoff_gate_respected(self, store):
        run = _seed_run(store, n=1)
        store.lease(run, now=0.0, timeout=10.0)
        store.fail(run, "s0", "boom", retry_at=5.0)
        assert store.lease(run, now=4.9, timeout=10.0) == []
        again = store.lease(run, now=5.0, timeout=10.0)
        assert [s.shard_id for s in again] == ["s0"]
        assert again[0].attempts == 2

    def test_complete_requires_lease(self, store):
        run = _seed_run(store, n=1)
        assert not store.complete(run, "s0", {"v": 1})  # still pending
        store.lease(run, now=0.0, timeout=10.0)
        assert store.complete(run, "s0", {"v": 1})
        shard = store.get(run, "s0")
        assert shard.state == ShardState.DONE
        assert shard.result == {"v": 1}
        assert shard.lease_expires is None
        # completing twice is a no-op (guarded transition)
        assert not store.complete(run, "s0", {"v": 2})
        assert store.get(run, "s0").result == {"v": 1}

    def test_terminal_fail(self, store):
        run = _seed_run(store, n=1)
        store.lease(run, now=0.0, timeout=10.0)
        assert store.fail(run, "s0", "gave up", retry_at=None)
        shard = store.get(run, "s0")
        assert shard.state == ShardState.FAILED
        assert shard.error == "gave up"

    def test_fail_requires_lease(self, store):
        run = _seed_run(store, n=1)
        assert not store.fail(run, "s0", "boom", retry_at=None)
        assert store.get(run, "s0").state == ShardState.PENDING


class TestReleaseExpired:
    def test_releases_only_past_expiry(self, store):
        run = _seed_run(store, n=2)
        store.lease(run, now=0.0, timeout=10.0, limit=1)   # expires at 10
        store.lease(run, now=0.0, timeout=100.0, limit=1)  # expires at 100
        assert store.release_expired(run, now=9.0) == []
        assert store.release_expired(run, now=10.0) == ["s0"]
        shard = store.get(run, "s0")
        assert shard.state == ShardState.PENDING
        assert shard.lease_expires is None
        # the released shard keeps its attempt count (it *was* tried)
        assert shard.attempts == 1

    def test_released_shard_is_leasable_again(self, store):
        run = _seed_run(store, n=1)
        store.lease(run, now=0.0, timeout=1.0)
        store.release_expired(run, now=2.0)
        again = store.lease(run, now=2.0, timeout=10.0)
        assert [s.shard_id for s in again] == ["s0"]
        assert again[0].attempts == 2


class TestIntrospection:
    def test_results_in_seq_order_despite_completion_order(self, store):
        run = _seed_run(store)
        store.lease(run, now=0.0, timeout=10.0, limit=3)
        # complete out of order; results must come back in seq order
        store.complete(run, "s2", {"i": 2})
        store.complete(run, "s0", {"i": 0})
        store.complete(run, "s1", {"i": 1})
        assert store.results(run) == [{"i": 0}, {"i": 1}, {"i": 2}]

    def test_counts_cover_all_states(self, store):
        run = _seed_run(store)
        store.lease(run, now=0.0, timeout=10.0, limit=2)
        store.complete(run, "s0", {})
        store.fail(run, "s1", "boom", retry_at=None)
        assert store.counts(run) == {
            ShardState.PENDING: 1,
            ShardState.LEASED: 0,
            ShardState.DONE: 1,
            ShardState.FAILED: 1,
        }

    def test_next_not_before(self, store):
        run = _seed_run(store, n=2)
        store.lease(run, now=0.0, timeout=10.0, limit=2)
        store.fail(run, "s0", "boom", retry_at=7.0)
        store.fail(run, "s1", "boom", retry_at=3.0)
        assert store.next_not_before(run) == 3.0

    def test_next_not_before_none_without_pending(self, store):
        run = _seed_run(store, n=1)
        store.lease(run, now=0.0, timeout=10.0)
        store.complete(run, "s0", {})
        assert store.next_not_before(run) is None

    def test_get_unknown_shard_raises(self, store):
        run = _seed_run(store, n=1)
        with pytest.raises(KeyError):
            store.get(run, "missing")


class TestEvents:
    def test_recorded_in_order_and_filterable(self, store):
        run = _seed_run(store, n=1)
        store.record_event(run, "retry", "attempt 1", shard_id="s0")
        store.record_event(run, "timeout", "too slow", shard_id="s0")
        store.record_event(run, "retry", "attempt 2", shard_id="s0")
        kinds = [e.kind for e in store.events(run)]
        assert kinds == ["retry", "timeout", "retry"]
        retries = store.events(run, kind="retry")
        assert [e.detail for e in retries] == ["attempt 1", "attempt 2"]
        assert all(e.shard_id == "s0" for e in retries)

    def test_event_json(self, store):
        run = _seed_run(store, n=1)
        store.record_event(run, "lease-expired", "released to pending")
        (event,) = store.events(run)
        payload = event.to_json()
        assert payload["kind"] == "lease-expired"
        assert payload["shard_id"] is None


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        with JobStore(path) as store:
            run = _seed_run(store)
            store.lease(run, now=0.0, timeout=10.0)
            store.complete(run, "s0", {"v": 1})
        with JobStore(path) as store:
            assert store.load_run("r") == ("test", {"n": 3})
            assert store.counts("r")[ShardState.DONE] == 1
            assert store.results("r") == [{"v": 1}]
