"""Tests for the parallel fan-out engine.

The contract under test: for the same seed, parallel execution is
bit-identical to serial — any ``jobs`` value changes only wall-clock
time, never results.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

import repro.harness.attack as attack_module
import repro.harness.campaign as campaign_module
from repro.harness.attack import search_worst_run
from repro.harness.campaign import Campaign, CampaignResult, run_campaign
from repro.harness.parallel import (
    DIED,
    POOL_AMORTIZATION_SECONDS,
    RAISED,
    TIMED_OUT,
    WorkerDied,
    WorkerPool,
    derive_seed,
    fan_out,
    parallel_map,
    plan_execution,
    resolve_jobs,
)
from repro.harness.sweep import SweepConfig, sweep_spec
from repro.protocols.base import get_spec


def _square(x):
    return x * x


class TestParallelMap:
    def test_preserves_order(self):
        tasks = list(range(20))
        assert parallel_map(_square, tasks, jobs=2) == [x * x for x in tasks]

    def test_serial_fallback_matches(self):
        tasks = list(range(7))
        assert parallel_map(_square, tasks, jobs=1) == parallel_map(
            _square, tasks, jobs=2
        )

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []


def _pid(_task):
    return os.getpid()


def _die_on(task):
    """Kill this worker on the task ``"die"``; otherwise its pid."""
    if task == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return os.getpid()


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _boom(task):
    raise KeyError(task)


def _gone(pid):
    """The process ``pid`` has exited and been reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestWorkerPool:
    def test_clean_run_leaves_no_live_child(self):
        pids = parallel_map(_pid, range(8), jobs=2, chunksize=1)
        # Long-lived children: two processes serve all eight tasks.
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert all(_gone(pid) for pid in pids)
        assert not multiprocessing.active_children()

    def test_sigkilled_child_is_worker_died(self):
        with contextlib.closing(
            fan_out(_die_on, ["a", "die", "b", "c"], jobs=2)
        ) as stream:
            outcomes = list(stream)
        assert [o.task for o in outcomes] == ["a", "die", "b", "c"]
        died = outcomes[1]
        assert died.kind == DIED and died.exitcode == -signal.SIGKILL
        with pytest.raises(WorkerDied, match="SIGKILL.*'die'"):
            died.result()
        # The other tasks settle and no child outlives the stream.
        pids = [outcomes[i].result() for i in (0, 2, 3)]
        assert all(_gone(pid) for pid in pids)
        assert not multiprocessing.active_children()
        with pytest.raises(WorkerDied, match="SIGKILL"):
            parallel_map(_die_on, ["a", "die"], jobs=2)
        assert not multiprocessing.active_children()

    def test_dead_slot_gets_a_fresh_child(self):
        with contextlib.closing(WorkerPool(_die_on, 1)) as pool:
            pool.submit("first", "die")
            ((key, outcome),) = pool.wait(timeout=60)
            assert key == "first" and outcome.kind == DIED
            pool.submit("second", "b")
            ((key, outcome),) = pool.wait(timeout=60)
            assert key == "second" and not _gone(outcome.result())
        assert _gone(outcome.result())

    def test_deadline_kills_the_child(self):
        with contextlib.closing(WorkerPool(_sleep, 1)) as pool:
            pool.submit("slow", 60, timeout=0.2)
            start = time.monotonic()
            ((_, outcome),) = pool.wait(timeout=30)
            assert outcome.kind == TIMED_OUT
            assert outcome.exitcode == -signal.SIGKILL
            assert time.monotonic() - start < 10
            pool.submit("fast", 0)
            ((_, outcome),) = pool.wait(timeout=60)
            assert outcome.result() == 0

    def test_consumer_exception_kills_in_flight_children(self):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="consumer"):
            with contextlib.closing(
                fan_out(_sleep, [0, 60, 60], jobs=2)
            ) as stream:
                for _ in stream:
                    assert multiprocessing.active_children()
                    raise RuntimeError("consumer")
        assert not multiprocessing.active_children()
        assert time.monotonic() - start < 30

    def test_closing_the_stream_early_kills_in_flight_children(self):
        start = time.monotonic()
        stream = fan_out(_sleep, [0, 60, 60], jobs=2)
        assert next(stream).result() == 0
        assert multiprocessing.active_children()
        stream.close()
        assert not multiprocessing.active_children()
        assert time.monotonic() - start < 30

    def test_results_stay_in_task_order(self):
        # The first task finishes last.
        tasks = [0.5, 0, 0, 0.1, 0]
        with contextlib.closing(fan_out(_sleep, tasks, jobs=2)) as stream:
            outcomes = list(stream)
        assert [o.task for o in outcomes] == tasks
        assert [o.result() for o in outcomes] == tasks
        assert parallel_map(_sleep, tasks, jobs=2, chunksize=1) == tasks

    def test_worker_exception_keeps_its_type(self):
        with pytest.raises(KeyError, match="7") as excinfo:
            parallel_map(_boom, [7, 8], jobs=2)
        if hasattr(excinfo.value, "add_note"):  # the worker's traceback
            assert "_boom" in "".join(excinfo.value.__notes__)
        with contextlib.closing(fan_out(_boom, [7, 8], jobs=2)) as stream:
            outcome = next(stream)
            assert outcome.kind == RAISED
            assert isinstance(outcome.value, KeyError)
        assert not multiprocessing.active_children()


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "spec", 6, 3, 2) == derive_seed(42, "spec", 6, 3, 2)

    def test_sensitive_to_every_part(self):
        base = derive_seed(42, "spec", 6, 3, 2)
        assert derive_seed(43, "spec", 6, 3, 2) != base
        assert derive_seed(42, "spec2", 6, 3, 2) != base
        assert derive_seed(42, "spec", 6, 3, 3) != base

    def test_no_separator_collision(self):
        assert derive_seed("a", "bc") != derive_seed("ab", "c")

    def test_pinned_value(self):
        # Guards against accidental changes to the mixing scheme, which
        # would silently invalidate recorded campaign/bench seeds.
        assert derive_seed(1, "a") == 2829115043354823610


class TestPlanExecution:
    def test_serial_when_one_job(self):
        plan = plan_execution(1, 100)
        assert plan.mode == "serial" and not plan.parallel
        assert "jobs <= 1" in plan.reason

    def test_serial_when_single_task(self):
        plan = plan_execution(4, 1)
        assert plan.mode == "serial"

    def test_serial_when_work_does_not_amortize(self):
        # A tiny sweep must not pay pool spin-up: this is the
        # parallel-slower-than-serial regression guard.
        tiny = POOL_AMORTIZATION_SECONDS / 100
        plan = plan_execution(4, 10, est_task_seconds=tiny)
        assert plan.mode == "serial"
        assert "amortize" in plan.reason
        assert "serial" in plan.describe()

    def test_parallel_when_work_amortizes(self):
        plan = plan_execution(4, 10, est_task_seconds=1.0)
        assert plan.parallel
        assert plan.jobs == 4
        assert plan.chunksize >= 1
        assert "parallel x4" in plan.describe()

    def test_parallel_without_estimate_honours_request(self):
        plan = plan_execution(2, 4)
        assert plan.parallel and plan.jobs == 2

    def test_workers_capped_by_task_count(self):
        plan = plan_execution(16, 3, est_task_seconds=10.0)
        assert plan.parallel and plan.jobs == 3


class TestParallelSweep:
    def _compare(self, spec_name, n, k, t):
        spec = get_spec(spec_name)
        serial = sweep_spec(spec, n, k, t, SweepConfig(runs=12, seed=3), jobs=1)
        parallel = sweep_spec(spec, n, k, t, SweepConfig(runs=12, seed=3), jobs=2)
        assert serial.decisions_histogram == parallel.decisions_histogram
        assert serial.runs == parallel.runs
        assert len(serial.violations) == len(parallel.violations)

    def test_mp_crash(self):
        self._compare("protocol-a@mp-cr", 6, 3, 3)

    def test_sm_byzantine(self):
        self._compare("protocol-f@sm-byz", 6, 4, 2)

    def test_unregistered_spec_falls_back_to_serial(self):
        # Ad-hoc specs are not picklable by name; the sweep must still
        # work (serially) instead of crashing in the worker pool.
        probe = dataclasses.replace(
            get_spec("chaudhuri@mp-cr"), name="chaudhuri-parallel-probe"
        )
        stats = sweep_spec(probe, 5, 3, 2, SweepConfig(runs=6, seed=1), jobs=2)
        assert stats.runs == 6


class TestParallelCampaign:
    CAMPAIGN = Campaign(
        name="parallel-test",
        n_values=(5,),
        points_per_spec=1,
        runs_per_point=3,
        seed=9,
        spec_names=("chaudhuri@mp-cr", "protocol-e@sm-cr"),
    )

    def test_matches_serial(self):
        serial = run_campaign(self.CAMPAIGN, jobs=1)
        parallel = run_campaign(self.CAMPAIGN, jobs=2)
        assert [r.to_json() for r in serial.records] == [
            r.to_json() for r in parallel.records
        ]

    def test_parallel_resume(self, tmp_path):
        path = tmp_path / "campaign.json"
        run_campaign(self.CAMPAIGN, result_path=path, jobs=2)
        resumed = run_campaign(self.CAMPAIGN, result_path=path, jobs=2)
        fresh = run_campaign(self.CAMPAIGN)
        assert [r.to_json() for r in resumed.records] == [
            r.to_json() for r in fresh.records
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_run_keeps_finished_points(
        self, monkeypatch, tmp_path, jobs
    ):
        campaign = dataclasses.replace(self.CAMPAIGN, points_per_spec=2)
        (_, third), = campaign_module.campaign_shards(campaign)[2:3]
        sweep = campaign_module.campaign_shard_worker

        def fails_on_third(payload):
            if payload == third:
                raise RuntimeError("interrupted")
            return sweep(payload)

        path = tmp_path / "campaign.json"
        monkeypatch.setattr(
            campaign_module, "campaign_shard_worker", fails_on_third
        )
        with pytest.raises(RuntimeError, match="interrupted"):
            run_campaign(campaign, result_path=path, jobs=jobs)
        assert not multiprocessing.active_children()
        monkeypatch.setattr(campaign_module, "campaign_shard_worker", sweep)
        fresh = run_campaign(campaign)
        kept = CampaignResult.load(path).records
        assert [r.to_json() for r in kept] == [
            r.to_json() for r in fresh.records[:2]
        ]
        resumed = run_campaign(campaign, result_path=path, jobs=jobs)
        assert [r.to_json() for r in resumed.records] == [
            r.to_json() for r in fresh.records
        ]


class TestParallelAttack:
    def test_matches_serial(self):
        spec = get_spec("chaudhuri@mp-cr")
        serial = search_worst_run(spec, 5, 3, 2, attempts=12, seed=4, jobs=1)
        parallel = search_worst_run(spec, 5, 3, 2, attempts=12, seed=4, jobs=2)
        assert serial.attempts == parallel.attempts
        assert serial.best_distinct == parallel.best_distinct
        assert serial.violations_found == parallel.violations_found
        assert (serial.first_violation is None) == (
            parallel.first_violation is None
        )
        assert (
            serial.best_report.result.outcome.decisions
            == parallel.best_report.result.outcome.decisions
        )

    def test_stop_on_violation_stops_the_workers(self, monkeypatch, tmp_path):
        log = tmp_path / "calls"
        summarize = attack_module._summarize_attempt

        def counted(*args, **kwargs):
            with open(log, "a") as handle:
                handle.write("call\n")
            return summarize(*args, **kwargs)

        monkeypatch.setattr(attack_module, "_summarize_attempt", counted)
        spec = get_spec("trivial@mp-cr")
        results = {}
        for jobs in (1, 2):
            log.write_text("")
            results[jobs] = search_worst_run(
                spec, 3, 1, 0, attempts=60, seed=0,
                stop_on_violation=True, jobs=jobs,
            )
            calls = len(log.read_text().splitlines())
            # The search folds attempt 1 and stops; only attempts that
            # were already in flight ran (the winner's FULL re-run is
            # not a worker call).
            assert calls <= 20, (jobs, calls)
        assert not multiprocessing.active_children()
        serial, parallel = results[1], results[2]
        assert serial.attempts == parallel.attempts == 1
        for field in (
            "best_distinct", "violations_found", "first_violation",
            "best_attempt_seed",
        ):
            assert getattr(serial, field) == getattr(parallel, field), field
        assert (
            serial.best_report.result.outcome.decisions
            == parallel.best_report.result.outcome.decisions
        )

    def test_best_report_has_full_trace(self):
        result = search_worst_run(
            get_spec("chaudhuri@mp-cr"), 5, 3, 2, attempts=6, seed=0, jobs=2
        )
        # The search itself runs in COUNTERS mode; the winner is re-run
        # with full tracing so replay/forensics keep working.
        assert len(result.best_report.result.trace) > 0


class TestCliJobs:
    def test_sweep_jobs(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "chaudhuri@mp-cr",
            "--n", "5", "--k", "3", "--t", "2",
            "--runs", "6", "--seed", "1", "--jobs", "2",
        ]) == 0
        assert "6 runs" in capsys.readouterr().out

    def test_campaign_jobs(self, capsys, tmp_path):
        from repro.cli import main

        assert main([
            "campaign", "--name", "cli-jobs-test", "--n", "5",
            "--points", "1", "--runs", "2", "--seed", "3",
            "--out", str(tmp_path / "c.json"), "--jobs", "2",
        ]) == 0
        assert "points" in capsys.readouterr().out
