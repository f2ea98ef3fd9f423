"""Tests for batch plan construction (struct-of-arrays run plans)."""

import pickle

import numpy as np
import pytest

from repro.batch import prng
from repro.batch.plan import (
    DEFAULT_CODE,
    build_plan,
    concat_plans,
    decode_code,
)


def _plan(indices=range(16), n=5, t=2, seed=11):
    return build_plan("protocol-a@mp-cr", n, 2, t, seed, indices)


class TestBuildPlan:
    def test_shapes_and_dtypes(self):
        plan = _plan()
        assert plan.batch_size == 16
        assert plan.input_codes.shape == (16, 5)
        assert plan.victim.shape == (16, 5)
        assert plan.arrival_keys.shape == (16, 5, 5)
        assert plan.accept_keys.shape == (16, 5, 5)
        assert plan.input_codes.dtype == np.int64
        assert plan.victim.dtype == np.bool_
        assert plan.arrival_keys.dtype == np.uint64

    def test_crash_masks_partition_victims(self):
        plan = _plan(range(64))
        # pre_crash and send_victim partition the victim set...
        assert not (plan.pre_crash & plan.send_victim).any()
        assert np.array_equal(plan.pre_crash | plan.send_victim, plan.victim)
        # ...and never exceed the fault budget t.
        assert int(plan.victim.sum(axis=1).max()) <= 2
        assert (0 <= plan.send_point).all() and (plan.send_point < 5).all()

    def test_t_zero_plans_no_victims(self):
        plan = build_plan("protocol-a@mp-cr", 5, 2, 0, 11, range(32))
        assert not plan.victim.any()

    def test_batch_size_invariance(self):
        # The same global run index yields bit-identical plan rows no
        # matter how runs are batched or chunked.
        whole = _plan(range(12))
        parts = concat_plans([_plan(range(5)), _plan(range(5, 12))])
        for field in (
            "indices", "run_seeds", "pattern_index", "input_codes",
            "victim", "pre_crash", "send_victim", "send_point",
            "arrival_keys", "accept_keys",
        ):
            assert np.array_equal(
                getattr(whole, field), getattr(parts, field)
            ), field

    def test_guards(self):
        with pytest.raises(ValueError):
            build_plan("protocol-a@mp-cr", 5, 2, 5, 11, range(4))  # t >= n
        with pytest.raises(ValueError):
            build_plan("protocol-a@mp-cr", 1000, 2, 1, 11, range(4))


class TestAcceptKeys:
    def test_drawn_from_the_run_seeds(self):
        plan = _plan()
        assert "accept_keys" not in plan.__dict__
        assert np.array_equal(
            plan.accept_keys,
            prng.stream_u64(plan.run_seeds, prng.STREAM_ACCEPT, (5, 5)),
        )

    def test_concat_keys_are_the_parts_keys(self):
        head, tail = _plan(range(5)), _plan(range(5, 12))
        assert np.array_equal(
            concat_plans([head, tail]).accept_keys,
            np.concatenate([head.accept_keys, tail.accept_keys]),
        )

    def test_survive_a_pickle_round_trip(self):
        drawn = _plan()
        keys = drawn.accept_keys
        for plan in (_plan(), drawn):
            clone = pickle.loads(pickle.dumps(plan))
            assert np.array_equal(clone.accept_keys, keys)


class TestDecodeCode:
    def test_round_trips_value_space(self):
        assert decode_code("distinct", DEFAULT_CODE) is not None
        assert decode_code("distinct", 3) == "v003"
        assert decode_code("random", 1004) == "w004"
        assert decode_code("two-valued", 0) == "alpha"
        assert decode_code("two-valued", 1) == "beta"
