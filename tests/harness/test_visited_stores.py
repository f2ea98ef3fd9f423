"""Unit tests for the visited stores.

The explorer's correctness leans on two store-level contracts:

* Godefroid semantics (exact/compact): a probe under a superset sleep
  is a hit, a probe under an incomparable sleep re-expands exactly the
  stored-minus-probe difference and shrinks the entry to the
  intersection, and ``set_covered`` makes every future probe hit.
* Determinism: fingerprint digests come from BLAKE2b over ``repr``,
  never Python's per-process-randomized ``hash``, so two independently
  built stores agree bit for bit (the parallel frontier merge relies on
  this).

Sleep multisets hold event signature ids -- the small ints of the
explorer's state table -- coded by ``sleep_set`` as a frozenset (the
``i``-th copy of signature ``s`` is ``s + (i << 32)``); both stores keep
the probe's set as given, and ``sleep_counts`` decodes a re-expansion.
"""

import pytest

from repro.core.validity import RV2
from repro.harness.exhaustive import SpecFactory, explore_mp, explore_sm
from repro.harness.visited import (
    EXPAND_ALL,
    CompactStore,
    ExactStore,
    NO_SLEEP,
    sleep_counts,
    sleep_set,
)

FP = ("state", 1, ("a", "b"))
OTHER = ("state", 2, ("c",))
#: Signature ids, as the explorer's state table numbers them.
SIG_X = 3
SIG_Y = 7


class TestExactStore:
    def test_new_state_expands_all(self):
        store = ExactStore()
        assert store.probe(FP, NO_SLEEP) is EXPAND_ALL
        assert store.misses == 1 and store.hits == 0

    def test_superset_sleep_is_hit(self):
        store = ExactStore()
        store.probe(FP, sleep_set([SIG_X]))
        assert store.probe(FP, sleep_set([SIG_X, SIG_Y])) is None
        assert store.hits == 1

    def test_equal_sleep_is_hit(self):
        store = ExactStore()
        store.probe(FP, sleep_set([SIG_X]))
        assert store.probe(FP, sleep_set([SIG_X])) is None

    def test_partial_reexpansion_returns_difference(self):
        store = ExactStore()
        store.probe(FP, sleep_set([SIG_X, SIG_Y]))
        missing = store.probe(FP, sleep_set([SIG_Y]))
        assert sleep_counts(missing) == {SIG_X: 1}
        # The entry shrank to the intersection: a revisit under the
        # smaller sleep is now covered.
        assert store.probe(FP, sleep_set([SIG_Y])) is None

    def test_disjoint_sleep_shrinks_to_empty(self):
        store = ExactStore()
        store.probe(FP, sleep_set([SIG_X]))
        missing = store.probe(FP, sleep_set([SIG_Y]))
        assert sleep_counts(missing) == {SIG_X: 1}
        assert store.probe(FP, NO_SLEEP) is None

    def test_multiset_counts_respected(self):
        store = ExactStore()
        store.probe(FP, sleep_set([SIG_X, SIG_X]))
        # One copy of two is missing; a revisit with both is a hit.
        missing = store.probe(FP, sleep_set([SIG_X]))
        assert sleep_counts(missing) == {SIG_X: 1}
        assert store.probe(FP, sleep_set([SIG_X, SIG_X])) is None
        assert store.probe(FP, sleep_set([SIG_X])) is None

    def test_set_covered_makes_every_probe_hit(self):
        store = ExactStore()
        store.probe(FP, sleep_set([SIG_X, SIG_Y]))
        store.set_covered(FP)
        assert store.probe(FP, NO_SLEEP) is None

    def test_probe_copies_the_sleep(self):
        """The store keeps the probe's set as given, which is safe
        because it is immutable: nothing the caller does to the ids it
        coded the set from reaches the store."""
        store = ExactStore()
        sigs = [SIG_X]
        sleep = sleep_set(sigs)
        store.probe(FP, sleep)
        sigs.append(SIG_Y)  # caller mutation must not leak into the store
        assert isinstance(sleep, frozenset)
        assert store.probe(FP, sleep_set([SIG_X])) is None

    def test_distinct_fingerprints_independent(self):
        store = ExactStore()
        store.probe(FP, NO_SLEEP)
        assert store.probe(OTHER, NO_SLEEP) is EXPAND_ALL

    def test_sleep_keys_are_signature_ids(self):
        store = ExactStore()
        store.probe(FP, sleep_set([SIG_X, SIG_Y]))
        missing = store.probe(FP, NO_SLEEP)
        assert missing == sleep_set([SIG_X, SIG_Y])
        assert sleep_counts(missing) == {SIG_X: 1, SIG_Y: 1}

    def test_copy_codes_are_multiset_operations(self):
        """Subset, difference and intersection of copy codes are the
        multiset operations on the signature ids they code."""
        two_x = sleep_set([SIG_X, SIG_Y, SIG_X])
        one_x = sleep_set([SIG_Y, SIG_X])
        assert len(two_x) == 3 and one_x < two_x
        assert sleep_counts(two_x - one_x) == {SIG_X: 1}
        assert two_x & one_x == one_x
        assert sleep_counts(two_x) == {SIG_X: 2, SIG_Y: 1}


class TestCompactStore:
    def test_same_godefroid_semantics_on_digests(self):
        store = CompactStore()
        assert store.probe(FP, sleep_set([SIG_X, SIG_Y])) is EXPAND_ALL
        missing = store.probe(FP, sleep_set([SIG_Y]))
        assert sleep_counts(missing) == {SIG_X: 1}
        assert store.probe(FP, sleep_set([SIG_Y])) is None

    def test_digests_are_ints(self):
        store = CompactStore()
        assert isinstance(store.fingerprint_key(FP), int)
        # Sleep multisets are not digested: signature ids come back as
        # the ints they were probed with.
        store.probe(FP, sleep_set([SIG_X]))
        assert store.probe(FP, NO_SLEEP) == sleep_set([SIG_X])

    def test_digests_deterministic_across_instances(self):
        assert (
            CompactStore().fingerprint_key(FP)
            == CompactStore().fingerprint_key(FP)
        )

    def test_distinct_values_distinct_digests(self):
        store = CompactStore()
        assert store.fingerprint_key(FP) != store.fingerprint_key(OTHER)


class TestStoreSelection:
    """The explorers build their store from a kind name."""

    def test_build_each_kind(self):
        for kind in ("exact", "compact"):
            mp = explore_mp(
                SpecFactory("trivial@mp-cr", n=2, k=2, t=0), ["a", "b"],
                k=2, t=0, validity=RV2, visited=kind,
            )
            sm = explore_sm(
                SpecFactory("trivial@sm-cr", n=2, k=2, t=0), ["a", "b"],
                k=2, t=0, validity=RV2, visited=kind,
            )
            assert mp.stats.visited_store == sm.stats.visited_store == kind

    def test_unknown_kind_raises(self):
        for explore, spec in (
            (explore_mp, "trivial@mp-cr"), (explore_sm, "trivial@sm-cr")
        ):
            with pytest.raises(ValueError):
                explore(
                    SpecFactory(spec, n=2, k=2, t=0), ["a", "b"],
                    k=2, t=0, validity=RV2, visited="bitstate",
                )
