"""Tests for the shard supervisor: retries, timeouts, deaths, failed forks.

Faults are injected with :class:`ChaosPolicy` (rate 1.0 on the first
attempt only), so every test exercises the genuine recovery path --
real SIGKILLed children, real hung children -- and still converges
deterministically on the retry.
"""

import errno
import multiprocessing
import os

import pytest

from repro.harness.parallel import WorkerPool
from repro.jobs import (
    ChaosPolicy,
    JobStore,
    RetryPolicy,
    ShardState,
    run_shards,
)

#: Fast-converging policy for tests: tiny backoff, generous retries.
FAST = RetryPolicy(
    max_attempts=3, timeout=5.0, backoff_base=0.01, backoff_max=0.05
)


def _double(payload):
    return {"value": payload["x"] * 2}


def _boom(payload):
    raise ValueError(f"cannot process {payload['x']}")


@pytest.fixture
def store():
    with JobStore(":memory:") as js:
        yield js


def _seed_run(store, run_id="r", n=3):
    store.create_run(run_id, "test", {})
    store.add_shards(run_id, [(f"s{i}", {"x": i}) for i in range(n)])
    return run_id


class TestHappyPath:
    def test_serial_drains_queue(self, store):
        run = _seed_run(store)
        report = run_shards(store, run, _double, jobs=1, policy=FAST)
        assert report.jobs == 1
        assert report.completed == 3
        assert report.drained and not report.stopped_early
        assert store.results(run) == [{"value": 0}, {"value": 2}, {"value": 4}]

    def test_parallel_matches_serial(self, store):
        run_a = _seed_run(store, "a")
        run_b = _seed_run(store, "b")
        run_shards(store, run_a, _double, jobs=1, policy=FAST)
        report = run_shards(store, run_b, _double, jobs=2, policy=FAST)
        assert report.describe() == "2 workers; 3 shards completed"
        assert store.results(run_a) == store.results(run_b)

    def test_rerun_on_drained_queue_is_noop(self, store):
        run = _seed_run(store)
        run_shards(store, run, _double, jobs=1, policy=FAST)
        report = run_shards(store, run, _double, jobs=1, policy=FAST)
        assert report.completed == 0 and report.drained


class TestRetries:
    def test_transient_error_retried_then_converges(self, store):
        run = _seed_run(store)
        chaos = ChaosPolicy(seed=1, error_rate=1.0)  # first attempts fail
        report = run_shards(
            store, run, _double, jobs=1, policy=FAST, chaos=chaos
        )
        assert report.completed == 3
        assert report.retries == 3  # one injected failure per shard
        assert report.failed == 0
        assert store.results(run) == [{"value": 0}, {"value": 2}, {"value": 4}]
        assert len(store.events(run, kind="retry")) == 3

    def test_exhausted_retries_mark_shard_failed(self, store):
        run = _seed_run(store, n=2)
        policy = RetryPolicy(
            max_attempts=2, timeout=5.0, backoff_base=0.01, backoff_max=0.02
        )
        report = run_shards(store, run, _boom, jobs=1, policy=policy)
        assert report.completed == 0
        assert report.failed == 2
        assert report.retries == 2  # one retry each before giving up
        assert report.drained  # degraded completion, not a wedge
        for shard in store.shards(run):
            assert shard.state == ShardState.FAILED
            assert "ValueError" in shard.error
            assert shard.attempts == 2
        assert len(store.events(run, kind="failed")) == 2

    def test_attempt_counter_spans_sessions(self, store):
        # One failing session then another: attempts accumulate in the
        # store, so the retry budget is global, not per-invocation.
        run = _seed_run(store, n=1)
        policy = RetryPolicy(
            max_attempts=2, timeout=5.0, backoff_base=0.01, backoff_max=0.02
        )
        run_shards(store, run, _boom, jobs=1, policy=policy, max_shards=1)
        assert store.get(run, "s0").state == ShardState.FAILED


class TestWorkerDeath:
    def test_sigkilled_worker_is_detected_and_retried(self, store):
        run = _seed_run(store, n=2)
        chaos = ChaosPolicy(seed=1, kill_rate=1.0)
        report = run_shards(
            store, run, _double, jobs=2, policy=FAST, chaos=chaos
        )
        assert report.worker_deaths == 2
        assert report.completed == 2
        assert report.failed == 0
        assert store.results(run) == [{"value": 0}, {"value": 2}]
        deaths = store.events(run, kind="worker-death")
        assert len(deaths) == 2
        assert all("exited with code" in e.detail for e in deaths)

    def test_one_death_does_not_disturb_other_shards(self, store):
        run = _seed_run(store, n=4)
        # kill_rate 0.5: deterministically kills some first attempts
        chaos = ChaosPolicy(seed=3, kill_rate=0.5)
        killed = sum(
            1 for i in range(4) if chaos.action(f"s{i}", 1) == "kill"
        )
        assert 0 < killed < 4  # the seed must exercise both paths
        report = run_shards(
            store, run, _double, jobs=2, policy=FAST, chaos=chaos
        )
        assert report.worker_deaths == killed
        assert report.completed == 4


class TestTimeouts:
    def test_hung_worker_is_terminated_and_retried(self, store):
        run = _seed_run(store, n=1)
        policy = RetryPolicy(
            max_attempts=2, timeout=0.3, backoff_base=0.01, backoff_max=0.02
        )
        chaos = ChaosPolicy(seed=1, hang_rate=1.0, hang_seconds=60.0)
        report = run_shards(
            store, run, _double, jobs=2, policy=policy, chaos=chaos
        )
        assert report.timeouts == 1
        assert report.completed == 1
        assert store.results(run) == [{"value": 0}]
        (event,) = store.events(run, kind="timeout")
        assert "terminated" in event.detail


class TestSerialChaos:
    """One worker (``jobs=1``) takes the same recovery paths as many."""

    def test_killed_worker_is_detected_and_retried(self, store):
        run = _seed_run(store, n=1)
        chaos = ChaosPolicy(seed=1, kill_rate=1.0)
        report = run_shards(
            store, run, _double, jobs=1, policy=FAST, chaos=chaos
        )
        assert report.worker_deaths == 1 and report.completed == 1
        assert store.results(run) == [{"value": 0}]

    def test_hung_worker_is_terminated_and_retried(self, store):
        run = _seed_run(store, n=1)
        policy = RetryPolicy(
            max_attempts=2, timeout=0.3, backoff_base=0.01, backoff_max=0.02
        )
        chaos = ChaosPolicy(seed=1, hang_rate=1.0, hang_seconds=60.0)
        report = run_shards(
            store, run, _double, jobs=1, policy=policy, chaos=chaos
        )
        assert report.timeouts == 1 and report.completed == 1
        assert store.results(run) == [{"value": 0}]

    def test_transient_errors_still_injected_serially(self, store):
        run = _seed_run(store, n=1)
        chaos = ChaosPolicy(seed=1, error_rate=1.0)
        report = run_shards(
            store, run, _double, jobs=1, policy=FAST, chaos=chaos
        )
        assert report.retries == 1 and report.completed == 1


class TestInterruption:
    def test_max_shards_stops_early_and_resume_drains(self, store):
        run = _seed_run(store, n=3)
        first = run_shards(
            store, run, _double, jobs=1, policy=FAST, max_shards=1
        )
        assert first.completed == 1
        assert first.stopped_early and not first.drained
        assert first.remaining[ShardState.PENDING] == 2
        second = run_shards(store, run, _double, jobs=1, policy=FAST)
        assert second.completed == 2
        assert second.drained and not second.stopped_early
        assert store.results(run) == [{"value": 0}, {"value": 2}, {"value": 4}]

    def test_foreign_expired_lease_is_reclaimed(self, store):
        # Simulate a supervisor that died mid-lease: the shard sits
        # leased with an expiry in the past; a new session reclaims it.
        run = _seed_run(store, n=1)
        store.lease(run, now=0.0, timeout=0.0)  # expires immediately
        report = run_shards(store, run, _double, jobs=1, policy=FAST)
        assert report.releases == 1
        assert report.completed == 1
        assert len(store.events(run, kind="lease-expired")) == 1


class TestBackoff:
    def test_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=10.0, backoff_jitter=0.25)
        first = policy.backoff_delay("s0", 1)
        assert first == policy.backoff_delay("s0", 1)  # reproducible
        assert 0.1 <= first <= 0.1 * 1.25
        second = policy.backoff_delay("s0", 2)
        assert 0.2 <= second <= 0.2 * 1.25
        # jitter spreads shards apart
        assert policy.backoff_delay("s1", 1) != first

    def test_capped_at_backoff_max(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0,
                             backoff_max=2.0, backoff_jitter=0.0)
        assert policy.backoff_delay("s0", 9) == 2.0

    def test_lease_outlives_supervision_deadline(self):
        policy = RetryPolicy(timeout=60.0)
        assert policy.lease_timeout() > 60.0
        assert RetryPolicy(timeout=None).lease_timeout() > 0


class TestReport:
    def test_describe_mentions_failures(self, store):
        run = _seed_run(store, n=1)
        policy = RetryPolicy(
            max_attempts=1, timeout=5.0, backoff_base=0.01
        )
        report = run_shards(store, run, _boom, jobs=1, policy=policy)
        text = report.describe()
        assert text.startswith("1 worker; 0 shards completed")
        assert "1 failed" in text

    def test_to_json_roundtrips_counts(self, store):
        run = _seed_run(store, n=2)
        report = run_shards(store, run, _double, jobs=1, policy=FAST)
        payload = report.to_json()
        assert payload["completed"] == 2
        assert payload["remaining"][ShardState.DONE] == 2


class TestPoolCollapse:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fork_failure_fails_every_shard(self, store, monkeypatch, jobs):
        # A fork that fails is one failed attempt: retried with backoff,
        # then failed, with the OSError on record and no child left.
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        run = _seed_run(store, n=3)
        policy = RetryPolicy(
            max_attempts=2, timeout=5.0, backoff_base=0.01, backoff_max=0.02
        )
        report = run_shards(store, run, _double, jobs=jobs, policy=policy)
        assert report.completed == 0 and report.failed == 3
        assert report.retries == 3 and report.drained
        assert not multiprocessing.active_children()
        for shard in store.shards(run):
            assert shard.state == ShardState.FAILED
            assert shard.attempts == 2
        events = store.events(run, kind="retry") + store.events(run, kind="failed")
        assert len(events) == 6
        assert all("Resource temporarily unavailable" in e.detail for e in events)

    def test_send_to_a_dead_child_is_retried(self, store, monkeypatch):
        # An idle child that dies just before its task is sent makes
        # submit raise BrokenPipeError: one failed attempt, retried.
        submit = WorkerPool.submit
        calls = []

        def flaky_submit(pool, key, task, timeout=None):
            calls.append(key)
            if len(calls) == 1:
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            submit(pool, key, task, timeout)

        monkeypatch.setattr(WorkerPool, "submit", flaky_submit)
        run = _seed_run(store, n=2)
        report = run_shards(store, run, _double, jobs=1, policy=FAST)
        assert report.retries == 1 and report.completed == 2
        assert store.results(run) == [{"value": 0}, {"value": 2}]
        (event,) = store.events(run, kind="retry")
        assert "BrokenPipeError" in event.detail
