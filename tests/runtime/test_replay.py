"""Tests for run recording and replay."""

import pytest

from repro.core.validity import RV1, RV2, SV2
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.runner import run_mp, run_sm
from repro.net.schedulers import RandomScheduler
from repro.protocols.chaudhuri import ChaudhuriKSet
from repro.protocols.protocol_e import protocol_e
from repro.protocols.protocol_f import protocol_f
from repro.runtime.replay import (
    Recording,
    RecordingProcessScheduler,
    RecordingScheduler,
    ReplayExhausted,
    ReplayProcessScheduler,
    ReplayScheduler,
)
from repro.shm.schedulers import RandomProcessScheduler


def record_mp_run(seed=3, crash=None):
    scheduler = RecordingScheduler(RandomScheduler(seed))
    report = run_mp(
        [ChaudhuriKSet() for _ in range(5)],
        [f"v{i}" for i in range(5)],
        3, 2, RV1,
        scheduler=scheduler,
        crash_adversary=crash,
    )
    return report, scheduler.recording


class TestMPReplay:
    def test_replay_reproduces_decisions(self):
        report, recording = record_mp_run()
        replayed = run_mp(
            [ChaudhuriKSet() for _ in range(5)],
            [f"v{i}" for i in range(5)],
            3, 2, RV1,
            scheduler=ReplayScheduler(recording),
        )
        assert replayed.outcome.decisions == report.outcome.decisions
        assert replayed.result.ticks == report.result.ticks

    def test_replay_with_crashes(self):
        crash = CrashPlan({0: CrashPoint(after_sends=2)})
        report, recording = record_mp_run(seed=11, crash=crash)
        replayed = run_mp(
            [ChaudhuriKSet() for _ in range(5)],
            [f"v{i}" for i in range(5)],
            3, 2, RV1,
            scheduler=ReplayScheduler(recording),
            crash_adversary=CrashPlan({0: CrashPoint(after_sends=2)}),
        )
        assert replayed.outcome.decisions == report.outcome.decisions
        assert replayed.outcome.faulty == report.outcome.faulty

    def test_json_round_trip(self):
        _, recording = record_mp_run()
        restored = Recording.from_json(recording.to_json())
        assert restored == recording

    def test_divergent_replay_detected(self):
        _, recording = record_mp_run()
        # replay against a different instance size: choices miss
        with pytest.raises(ReplayExhausted):
            run_mp(
                [ChaudhuriKSet() for _ in range(3)],
                ["a", "b", "c"],
                2, 1, RV1,
                scheduler=ReplayScheduler(recording),
            )

    def test_wrong_kind_rejected(self):
        _, recording = record_mp_run()
        with pytest.raises(ValueError):
            ReplayProcessScheduler(recording)

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            Recording.from_json('{"foo": 1}')


class TestSMReplay:
    def record_sm_run(self, seed=5):
        scheduler = RecordingProcessScheduler(RandomProcessScheduler(seed))
        report = run_sm(
            [protocol_f] * 6,
            ["v"] * 6,
            5, 3, SV2,
            scheduler=scheduler,
        )
        return report, scheduler.recording

    def test_replay_reproduces_decisions(self):
        report, recording = self.record_sm_run()
        replayed = run_sm(
            [protocol_f] * 6,
            ["v"] * 6,
            5, 3, SV2,
            scheduler=ReplayProcessScheduler(recording),
        )
        assert replayed.outcome.decisions == report.outcome.decisions
        assert replayed.result.ticks == report.result.ticks

    def test_replay_different_program_diverges_or_finishes(self):
        _, recording = self.record_sm_run()
        # protocol_e takes fewer steps; the recording outlives the run,
        # which is fine (extra choices unused) -- but a *shorter*
        # recording on a longer run must raise.
        short = Recording(kind="sm", choices=recording.choices[:3])
        with pytest.raises(ReplayExhausted):
            run_sm(
                [protocol_f] * 6,
                ["v"] * 6,
                5, 3, SV2,
                scheduler=ReplayProcessScheduler(short),
            )

    def test_out_of_range_pid_diverges(self):
        recording = Recording(kind="sm", choices=(0, 7, 1))
        with pytest.raises(ReplayExhausted, match="pid 7 is not runnable"):
            run_sm(
                [protocol_f] * 6,
                ["v"] * 6,
                5, 3, SV2,
                scheduler=ReplayProcessScheduler(recording),
            )

    def test_kind_mismatch(self):
        _, recording = self.record_sm_run()
        with pytest.raises(ValueError):
            ReplayScheduler(recording)
