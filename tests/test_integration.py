"""End-to-end integration tests across the library's layers."""

import random

from repro.analysis.report import generate_experiments_md
from repro.core.lemmas import z_function
from repro.core.validity import RV1, WV1
from repro.failures.byzantine import MultiFaceProcess
from repro.harness.runner import run_mp
from repro.net.schedulers import RandomScheduler
from repro.protocols.protocol_d import ProtocolD


class TestExperimentsReport:
    def test_generate_small_report(self):
        content = generate_experiments_md(
            n_analytic=12,
            n_empirical=6,
            points_per_spec=1,
            runs_per_point=4,
            seed=2,
        )
        # every figure section present
        for fig in ("Fig. 1", "Fig. 2", "Fig. 4", "Fig. 5", "Fig. 6"):
            assert fig in content
        # zero violations on the possible side
        assert " 0 violations." in content
        # all constructions demonstrated their violations
        assert "NO VIOLATION" not in content
        # closed-form summary and cost table included
        assert "Section 2.1" in content
        assert "PROTOCOL C(l)" in content
        # the open-problem probe ran and behaved as expected
        assert "termination **violated**" in content
        assert "all conditions held." in content


class TestProtocolDZAccounting:
    """Stress the Z(n, t) bound in the regime n/3 < t < n/2, where faulty
    broadcasters can get multiple values accepted."""

    def test_multiple_equivocating_broadcasters(self):
        n, t = 10, 4
        k = z_function(n, t)
        assert k == 7  # the worked example from the paper's definition

        def make_splitter(pid):
            return MultiFaceProcess(
                ProtocolD,
                {f"f{i}": f"w{pid}-{i}" for i in range(3)},
                lambda peer: f"f{peer % 3}",
            )

        for seed in range(10):
            processes = [
                make_splitter(pid) if pid in (0, 1) else ProtocolD()
                for pid in range(n)
            ]
            report = run_mp(
                processes,
                [f"v{i}" for i in range(n)],
                k, t, WV1,
                byzantine=[0, 1],
                scheduler=RandomScheduler(seed),
            )
            assert report.verdicts["termination"], report.summary()
            assert report.verdicts["agreement"], report.summary()
            assert (
                len(report.outcome.correct_decision_values()) <= k
            ), report.outcome.decisions


class TestCrossLayerRoundTrip:
    def test_attack_finding_is_replayable(self):
        """A violation found by random search replays identically."""
        from repro.core.validity import RV2
        from repro.protocols.protocol_a import ProtocolA
        from repro.runtime.replay import (
            RecordingScheduler,
            ReplayScheduler,
        )

        # a schedule that splits PROTOCOL A at t = n (way outside region)
        n, k, t = 3, 2, 2
        found = None
        for seed in range(60):
            scheduler = RecordingScheduler(RandomScheduler(seed))
            report = run_mp(
                [ProtocolA() for _ in range(n)],
                ["a", "b", "c"], k, t, RV2,
                scheduler=scheduler,
            )
            if not report.ok:
                found = (report, scheduler.recording)
                break
        assert found is not None
        report, recording = found
        replayed = run_mp(
            [ProtocolA() for _ in range(n)],
            ["a", "b", "c"], k, t, RV2,
            scheduler=ReplayScheduler(recording),
        )
        assert replayed.outcome.decisions == report.outcome.decisions
        assert not replayed.ok
