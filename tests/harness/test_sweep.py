"""Tests for the Monte-Carlo sweep engine."""

import dataclasses
import multiprocessing
import random

from repro.harness.inputs import INPUT_PATTERNS, make_inputs
from repro.harness.sweep import SweepConfig, sweep_spec
from repro.protocols.base import get_spec

import pytest


class TestMakeInputs:
    def test_patterns_cover_all_names(self):
        rng = random.Random(0)
        for pattern in INPUT_PATTERNS:
            inputs = make_inputs(pattern, 6, rng, faulty=[1])
            assert len(inputs) == 6

    def test_distinct(self):
        inputs = make_inputs("distinct", 5, random.Random(0))
        assert len(set(inputs)) == 5

    def test_unanimous(self):
        inputs = make_inputs("unanimous", 5, random.Random(0))
        assert len(set(inputs)) == 1

    def test_unanimous_correct_diverges_only_on_faulty(self):
        inputs = make_inputs("unanimous-correct", 6, random.Random(0),
                             faulty=[2, 4])
        correct_values = {v for i, v in enumerate(inputs) if i not in (2, 4)}
        assert len(correct_values) == 1
        assert inputs[2] != inputs[0]

    def test_two_valued(self):
        inputs = make_inputs("two-valued", 20, random.Random(1))
        assert set(inputs) <= {"alpha", "beta"}

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            make_inputs("nope", 3, random.Random(0))


class TestSweep:
    def test_clean_inside_region_mp_crash(self):
        spec = get_spec("protocol-a@mp-cr")
        stats = sweep_spec(spec, 6, 3, 3, SweepConfig(runs=15, seed=2))
        assert stats.clean, stats.violations
        assert stats.runs == 15
        assert stats.max_distinct_decisions <= 3

    def test_clean_inside_region_sm_byzantine(self):
        spec = get_spec("protocol-f@sm-byz")
        stats = sweep_spec(spec, 6, 4, 2, SweepConfig(runs=15, seed=2))
        assert stats.clean, stats.violations

    def test_reproducible(self):
        spec = get_spec("protocol-b@mp-cr")
        a = sweep_spec(spec, 7, 3, 2, SweepConfig(runs=10, seed=5))
        b = sweep_spec(spec, 7, 3, 2, SweepConfig(runs=10, seed=5))
        assert a.decisions_histogram == b.decisions_histogram

    def test_histogram_counts_runs(self):
        spec = get_spec("chaudhuri@mp-cr")
        stats = sweep_spec(spec, 5, 3, 2, SweepConfig(runs=12, seed=1))
        assert sum(stats.decisions_histogram.values()) == 12

    def test_summary_text(self):
        spec = get_spec("chaudhuri@mp-cr")
        stats = sweep_spec(spec, 5, 3, 2, SweepConfig(runs=4, seed=1))
        text = stats.summary()
        assert "chaudhuri@mp-cr" in text and "4 runs" in text

    def test_detects_violations_outside_region(self):
        """Sanity-check the sweep machinery itself: flood-min checked
        against k=1 (consensus) with t=2 crashes must produce agreement
        violations (different processes see different minima)."""
        import dataclasses

        spec = get_spec("chaudhuri@mp-cr")
        probe = dataclasses.replace(spec, name="chaudhuri-k1-probe")
        stats = sweep_spec(
            probe, 6, 1, 2,
            SweepConfig(runs=40, seed=0, input_patterns=("distinct",)),
        )
        assert not stats.clean
        assert any("agreement" in v.conditions for v in stats.violations)


class TestSweepEngine:
    """The ``engine`` parameter: batch dispatch and scalar fallback."""

    def test_unknown_engine_rejected(self):
        # "batch" names the engine that ran (SweepStats.engine), never a
        # request.
        for engine in ("gpu", "batch"):
            with pytest.raises(ValueError, match="unknown engine"):
                sweep_spec(
                    get_spec("chaudhuri@mp-cr"), 5, 2, 1,
                    SweepConfig(runs=2), engine=engine,
                )

    def test_batch_engine_runs_vectorized(self):
        stats = sweep_spec(
            get_spec("chaudhuri@mp-cr"), 5, 2, 1,
            SweepConfig(runs=12, seed=4), engine="auto",
        )
        assert stats.engine == "batch"
        assert stats.runs == 12
        assert "vectorized" in stats.execution
        assert sum(stats.decisions_histogram.values()) == 12

    def test_batch_falls_back_for_shared_memory(self):
        stats = sweep_spec(
            get_spec("protocol-e@sm-cr"), 3, 3, 1,
            SweepConfig(runs=3, seed=4), engine="auto",
        )
        assert stats.engine == "scalar"
        assert "not applicable" in stats.execution
        assert "shared-memory" in stats.execution

    def test_auto_falls_back_for_byzantine_sweep(self):
        stats = sweep_spec(
            get_spec("protocol-c@mp-byz"), 6, 2, 1,
            SweepConfig(runs=2, seed=4), engine="auto",
        )
        assert stats.engine == "scalar"
        assert "Byzantine" in stats.execution

    def test_scalar_jobs_fan_out_and_match_serial(self):
        # jobs=2 fans even a 4-run sweep out, says so, and changes
        # nothing but the recorded execution mode.
        spec, config = get_spec("chaudhuri@mp-cr"), SweepConfig(runs=4, seed=4)
        serial = sweep_spec(spec, 5, 2, 1, config)
        parallel = sweep_spec(spec, 5, 2, 1, config, jobs=2)
        assert serial.execution == "serial: jobs <= 1 requested"
        assert parallel.execution == "parallel x2: 4 runs"
        assert dataclasses.replace(parallel, execution=serial.execution) == serial
        assert not multiprocessing.active_children()

    def test_negative_run_count_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            SweepConfig(runs=-3)
        stats = sweep_spec(get_spec("chaudhuri@mp-cr"), 5, 2, 1,
                           SweepConfig(runs=0), jobs=2)
        assert stats.runs == 0 and stats.execution == "serial: 0 run(s)"

    def test_batch_and_scalar_agree_in_aggregate(self):
        # Not run-by-run (different adversary sampling paths) but both
        # clean inside the solvable region, same run count.
        spec = get_spec("protocol-a@mp-cr")
        config = SweepConfig(runs=24, seed=9)
        scalar = sweep_spec(spec, 6, 3, 3, config)
        batch = sweep_spec(spec, 6, 3, 3, config, engine="auto")
        assert scalar.clean and batch.clean
        assert scalar.runs == batch.runs
