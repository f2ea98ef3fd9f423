"""The batch kernels' prefix selection, pinned against the sort it replaced.

The A, B, MIN and C kernels once ordered every receiver's senders with a
stable argsort and read a prefix of that order; ``build_plan`` ranked its
crash victims the same way.  They now mark the prefix with
:func:`repro.batch.plan.stable_prefix`.  This file keeps the argsort
kernels as the reference and requires equal arrays on every family, at
small and large ``n``, at every fault budget, and on key tensors reduced
mod 2 and mod 3 so that most keys tie.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.engine as engine
from repro.batch import prng
from repro.batch.plan import DEFAULT_CODE, NO_DECISION, build_plan, stable_prefix
from repro.protocols.echo import accept_threshold
from repro.protocols.protocol_c import best_ell

_MAXKEY = engine._MAXKEY


def _stable_mask(keys, m):
    """``argsort(keys, kind="stable")[..., :m]`` as a mask; ``m`` per row."""
    order = np.argsort(keys, axis=-1, kind="stable")
    rank = np.empty_like(order)
    positions = np.broadcast_to(np.arange(keys.shape[-1]), keys.shape)
    np.put_along_axis(rank, order, positions, axis=-1)
    m = np.broadcast_to(np.asarray(m), keys.shape[:-1])
    return rank < m[..., None]


# ---------------------------------------------------------------------------
# the argsort kernels, as they were


def _arrival_order(plan, reach_t):
    keys = np.where(reach_t, plan.arrival_keys, _MAXKEY)
    return keys, np.argsort(keys, axis=2, kind="stable")


def _prefix_codes(plan, order):
    batch, n = plan.input_codes.shape
    codes = np.broadcast_to(plan.input_codes[:, None, :], (batch, n, n))
    return np.take_along_axis(codes, order, axis=2)[:, :, : n - plan.t]


def _matching_prefix(match, order, upto):
    sorted_match = np.take_along_axis(match, order, axis=2)
    cumulative = np.cumsum(sorted_match, axis=2, dtype=np.int64)
    return np.take_along_axis(
        cumulative, (upto - 1)[:, :, None], axis=2
    )[:, :, 0]


def _reference_a(plan):
    reach_t = engine._reach(plan).transpose(0, 2, 1)
    _, order = _arrival_order(plan, reach_t)
    prefix = _prefix_codes(plan, order)
    unanimous = prefix.min(axis=2) == prefix.max(axis=2)
    decided = np.where(unanimous, prefix[:, :, 0], DEFAULT_CODE)
    return np.where(plan.victim, NO_DECISION, decided), plan.victim.copy()


def _reference_min(plan):
    reach_t = engine._reach(plan).transpose(0, 2, 1)
    _, order = _arrival_order(plan, reach_t)
    decided = _prefix_codes(plan, order).min(axis=2)
    return np.where(plan.victim, NO_DECISION, decided), plan.victim.copy()


def _reference_b(plan):
    n, t = plan.n, plan.t
    reach_t = engine._reach(plan).transpose(0, 2, 1)
    keys, order = _arrival_order(plan, reach_t)
    diag = np.arange(n)
    own_key = plan.arrival_keys[:, diag, diag]
    rank_own = (keys < own_key[:, :, None]).sum(axis=2)
    upto = np.maximum(n - t, rank_own + 1)
    match = (
        plan.input_codes[:, None, :] == plan.input_codes[:, :, None]
    ) & reach_t
    matching = _matching_prefix(match, order, upto)
    decided = np.where(matching >= n - 2 * t, plan.input_codes, DEFAULT_CODE)
    return np.where(plan.victim, NO_DECISION, decided), plan.victim.copy()


def _reference_c(plan):
    n, t = plan.n, plan.t
    threshold = accept_threshold(n, t, best_ell(n, plan.k, t))
    reach = engine._reach(plan)
    votes = (reach & ~plan.victim[:, None, :]).sum(axis=2)
    accepted = votes >= threshold
    acc_keys = np.where(accepted[:, None, :], plan.accept_keys, _MAXKEY)
    acc_order = np.argsort(acc_keys, axis=2, kind="stable")
    total = accepted.sum(axis=1)
    diag = np.arange(n)
    own_key = plan.accept_keys[:, diag, diag]
    pos_own = (acc_keys < own_key[:, :, None]).sum(axis=2)
    can_decide = accepted & (total[:, None] >= n - t)
    upto = np.maximum(n - t, pos_own + 1)
    match = (
        plan.input_codes[:, None, :] == plan.input_codes[:, :, None]
    ) & accepted[:, None, :]
    matching = _matching_prefix(match, acc_order, np.maximum(upto, 1))
    decided = np.where(matching >= n - 2 * t, plan.input_codes, DEFAULT_CODE)
    decisions = np.where(~plan.victim & can_decide, decided, NO_DECISION)
    return decisions, plan.victim.copy()


#: Family -> reference kernel.  D and TRIVIAL never sorted, so their
#: reference is the engine's own kernel, run on the same plans.
REFERENCE = {
    "A": _reference_a,
    "B": _reference_b,
    "MIN": _reference_min,
    "C": _reference_c,
    "D": engine._decide_d,
    "TRIVIAL": engine._decide_trivial,
}

SIZES = (3, 4, 5, 8, 16, 24)
SEEDS = (5, 41)
RUNS = 24


def _c_k(n, t):
    """A k at which PROTOCOL C runs at ``(n, t)``, or None."""
    return next((k for k in range(1, n + 1) if best_ell(n, k, t)), None)


def _with_keys(plan, reduce):
    """``plan`` with both key tensors passed through ``reduce``."""
    tied = dataclasses.replace(plan, arrival_keys=reduce(plan.arrival_keys))
    # accept_keys is a cached_property: fill its cache, or it is redrawn.
    tied.__dict__["accept_keys"] = reduce(plan.accept_keys)
    return tied


def _assert_kernels_match(plan):
    for family, reference in REFERENCE.items():
        if family == "C" and best_ell(plan.n, plan.k, plan.t) is None:
            continue
        decisions, faulty = engine._KERNELS[family](plan)
        want_decisions, want_faulty = reference(plan)
        where = f"{family} at n={plan.n} t={plan.t} seed={plan.seed}"
        assert np.array_equal(decisions, want_decisions), where
        assert np.array_equal(faulty, want_faulty), where


def test_families_cover_the_registry():
    assert set(REFERENCE) == set(engine.BATCH_FAMILIES.values())


@pytest.mark.parametrize("n", SIZES)
def test_kernels_match_the_sorting_kernels(n):
    for t in range(n):
        for seed in SEEDS:
            k = _c_k(n, t) or 1
            plan = build_plan("protocol-a@mp-cr", n, k, t, seed, range(RUNS))
            _assert_kernels_match(plan)
            for modulus in (2, 3):
                _assert_kernels_match(_with_keys(
                    plan, lambda keys: keys % np.uint64(modulus)
                ))


def _reference_victims(plan):
    """``build_plan``'s victims as it drew them with a stable argsort."""
    seeds, n, t = plan.run_seeds, plan.n, plan.t
    frac = prng.u01(prng.stream_u64(seeds, prng.STREAM_CRASH_FRAC))
    count_draw = prng.stream_u64(seeds, prng.STREAM_CRASH_COUNT)
    count = np.where(
        frac >= 0.2, (count_draw % np.uint64(t + 1)).astype(np.int64), 0
    )
    keys = prng.stream_u64(seeds, prng.STREAM_VICTIM_KEY, (n,))
    return _stable_mask(keys, count)


@pytest.mark.parametrize("n", SIZES)
def test_victims_match_the_sorting_plan(n):
    for t in range(n):
        for seed in SEEDS:
            plan = build_plan("protocol-a@mp-cr", n, 1, t, seed, range(64))
            assert np.array_equal(plan.victim, _reference_victims(plan))


def test_maxkey_ties_keep_index_order():
    keys = np.array([[_MAXKEY, 3, _MAXKEY, 3, _MAXKEY]], dtype=np.uint64)
    assert stable_prefix(keys, 1).tolist() == [[False, True, False, False, False]]
    assert stable_prefix(keys, 3).tolist() == [[True, True, False, True, False]]
    assert stable_prefix(keys, 0).tolist() == [[False] * 5]
    assert stable_prefix(keys, 5).tolist() == [[True] * 5]


_KEYS = st.sampled_from([0, 1, 2, int(_MAXKEY)])


@st.composite
def _keys_and_counts(draw):
    shape = draw(st.tuples(
        st.integers(0, 4), st.integers(1, 3), st.integers(1, 7)
    ))
    size = shape[0] * shape[1] * shape[2]
    keys = np.array(
        draw(st.lists(_KEYS, min_size=size, max_size=size)), dtype=np.uint64
    ).reshape(shape)
    rows = shape[0] * shape[1]
    counts = np.array(
        draw(st.lists(st.integers(0, shape[2]), min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(shape[:2])
    return keys, counts


@settings(max_examples=300, deadline=None)
@given(_keys_and_counts())
def test_stable_prefix_is_the_stable_sorts_prefix(case):
    keys, counts = case
    assert np.array_equal(stable_prefix(keys, counts), _stable_mask(keys, counts))
    for m in {0, keys.shape[-1] // 2, keys.shape[-1]}:
        assert np.array_equal(stable_prefix(keys, m), _stable_mask(keys, m))
