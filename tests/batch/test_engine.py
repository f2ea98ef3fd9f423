"""Differential correctness of the vectorized batch engine.

The load-bearing contract: for every spec the engine models, replaying
its exact plan (inputs, crash points, delivery order) through the real
discrete-event kernel reproduces every run's decisions, crash set, and
verdicts.  The tests sweep the whole ``BATCH_FAMILIES`` registry and
the fault-budget edges ``t = 0`` and ``t = n - 1``.
"""

import dataclasses

import numpy as np
import pytest

from repro.batch import (
    BATCH_FAMILIES,
    batch_run,
    batch_sweep,
    batch_vs_replay,
    supports_point,
    supports_spec,
    sweep_unsupported_reason,
)
from repro.harness.sweep import SweepConfig
from repro.protocols.base import get_spec

RUNS = 8


def _solvable_point(spec):
    for n, k, t in (
        (6, 3, 2), (6, 2, 1), (5, 2, 1), (4, 2, 0), (6, 6, 2), (4, 4, 3)
    ):
        if spec.solvable(n, k, t) and supports_point(spec, n, k, t):
            return n, k, t
    raise AssertionError(f"no test point for {spec.name}")


def _assert_equivalent(spec, n, k, t, runs=RUNS, seed=23):
    config = SweepConfig(runs=runs, seed=seed)
    batch, scalar, mismatched, details = batch_vs_replay(
        spec, n, k, t, config
    )
    assert mismatched == 0, "\n".join(details)
    assert batch.decisions_histogram == scalar.decisions_histogram
    assert len(batch.violations) == len(scalar.violations)


class TestRegistryEquivalence:
    @pytest.mark.parametrize("spec_name", sorted(BATCH_FAMILIES))
    def test_batch_matches_scalar_replay(self, spec_name):
        spec = get_spec(spec_name)
        n, k, t = _solvable_point(spec)
        _assert_equivalent(spec, n, k, t)

    def test_edge_t_zero(self):
        _assert_equivalent(get_spec("chaudhuri@mp-cr"), 5, 2, 0)

    def test_edge_t_n_minus_one(self):
        _assert_equivalent(get_spec("protocol-a@mp-cr"), 5, 3, 4)
        _assert_equivalent(get_spec("trivial@mp-byz"), 4, 4, 3)

    def test_violating_region_matches_run_by_run(self):
        # Outside the solvable region violations must appear in the
        # SAME runs with the SAME violated conditions on both engines.
        spec = get_spec("chaudhuri@mp-cr")
        config = SweepConfig(runs=24, seed=5)
        batch, scalar, mismatched, details = batch_vs_replay(
            spec, 6, 2, 3, config
        )
        assert mismatched == 0, "\n".join(details)
        assert [
            (v.run_index, v.conditions) for v in batch.violations
        ] == [
            (v.run_index, v.conditions) for v in scalar.violations
        ]


class TestBatchRun:
    def test_reproducible_across_batch_sizes(self):
        spec = get_spec("protocol-b@mp-cr")
        config = SweepConfig(runs=12, seed=77)
        whole = batch_run(spec, 6, 3, 2, config)
        head = batch_run(spec, 6, 3, 2, config, indices=range(5))
        tail = batch_run(spec, 6, 3, 2, config, indices=range(5, 12))
        assert np.array_equal(
            whole.decisions, np.concatenate([head.decisions, tail.decisions])
        )
        assert np.array_equal(
            whole.faulty, np.concatenate([head.faulty, tail.faulty])
        )

    def test_chunking_is_invisible(self, monkeypatch):
        import repro.batch.engine as engine_mod

        spec = get_spec("chaudhuri@mp-cr")
        config = SweepConfig(runs=10, seed=13)
        one_chunk = batch_run(spec, 5, 2, 1, config)
        violating = SweepConfig(runs=24, seed=5)

        def folds():
            # Every field, plus the histogram's key order.
            batch, scalar, _, details = batch_vs_replay(
                spec, 6, 2, 3, violating
            )
            sweep = batch_sweep(spec, 6, 2, 3, violating)
            return [
                (dataclasses.asdict(stats), list(stats.decisions_histogram))
                for stats in (sweep, batch, scalar)
            ], details

        whole, details = folds()
        assert whole[0] == whole[1]
        assert whole[0][0]["violations"] and not details
        for runs_per_chunk in (1, 3):
            monkeypatch.setattr(
                engine_mod, "_CHUNK_ELEMENTS", runs_per_chunk * 6 * 6
            )
            assert folds() == (whole, details)
        monkeypatch.setattr(engine_mod, "_CHUNK_ELEMENTS", 3 * 5 * 5)
        chunked = batch_run(spec, 5, 2, 1, config)
        assert np.array_equal(one_chunk.decisions, chunked.decisions)
        assert np.array_equal(one_chunk.distinct, chunked.distinct)
        assert one_chunk.stats().decisions_histogram == \
            chunked.stats().decisions_histogram

    @pytest.mark.parametrize("spec_name", sorted(BATCH_FAMILIES))
    def test_no_runs_is_an_empty_batch(self, spec_name):
        spec = get_spec(spec_name)
        n, k, t = _solvable_point(spec)
        stats = batch_sweep(spec, n, k, t, SweepConfig(runs=0))
        assert (stats.runs, stats.violations, stats.decisions_histogram) \
            == (0, [], {})
        assert stats.execution == "vectorized batch of 0 runs"
        result = batch_run(spec, n, k, t, SweepConfig(runs=4), indices=())
        assert result.decisions.shape == (0, n)
        assert result.stats().runs == 0

    @pytest.mark.parametrize(
        "spec_name", ["protocol-a@mp-cr", "protocol-b@mp-cr", "chaudhuri@mp-cr"]
    )
    def test_first_phase_families_draw_no_accept_keys(self, spec_name):
        result = batch_run(get_spec(spec_name), 6, 2, 1, SweepConfig(runs=8))
        assert "accept_keys" not in result.plan.__dict__

    def test_memory_is_flat_in_the_run_count(self, monkeypatch):
        import tracemalloc

        import repro.batch.engine as engine_mod

        spec = get_spec("protocol-b@mp-cr")
        monkeypatch.setattr(engine_mod, "_CHUNK_ELEMENTS", 100 * 12 * 12)

        def peak(runs):
            tracemalloc.start()
            try:
                batch_sweep(spec, 12, 6, 3, SweepConfig(runs=runs, seed=3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200), peak(3200)
        assert large < 1.3 * small, (small, large)

    def test_unsupported_point_raises(self):
        with pytest.raises(ValueError):
            batch_run(get_spec("protocol-e@sm-cr"), 4, 2, 1)

    def test_stats_shape(self):
        stats = batch_sweep(
            get_spec("protocol-a@mp-cr"), 6, 3, 3, SweepConfig(runs=6, seed=2)
        )
        assert stats.engine == "batch"
        assert stats.runs == 6
        assert "vectorized batch of 6 runs" in stats.execution
        assert sum(stats.decisions_histogram.values()) == 6


class TestSupport:
    def test_supports_spec_registry(self):
        assert supports_spec(get_spec("protocol-a@mp-cr"))
        assert not supports_spec(get_spec("protocol-e@sm-cr"))

    def test_protocol_c_outside_region_unsupported(self):
        spec = get_spec("protocol-c@mp-byz")
        # PROTOCOL C's make() requires a feasible echo threshold ell;
        # points without one must be reported unsupported, not crash.
        assert supports_point(spec, 6, 2, 1)
        assert not supports_point(spec, 6, 3, 2)

    def test_sweep_reasons(self):
        config = SweepConfig(runs=4)
        assert sweep_unsupported_reason(
            get_spec("chaudhuri@mp-cr"), 5, 2, 1, config
        ) is None
        assert "shared-memory" in sweep_unsupported_reason(
            get_spec("protocol-e@sm-cr"), 4, 2, 1, config
        )
        unregistered = dataclasses.replace(
            get_spec("chaudhuri@mp-cr"), name="chaudhuri-batch-probe"
        )
        assert "no batch kernel" in sweep_unsupported_reason(
            unregistered, 5, 2, 1, config
        )
        assert "Byzantine" in sweep_unsupported_reason(
            get_spec("protocol-c@mp-byz"), 6, 3, 2, config
        )
        assert "oracle" in sweep_unsupported_reason(
            get_spec("chaudhuri@mp-cr"), 5, 2, 1,
            SweepConfig(runs=4, verify=True),
        )
