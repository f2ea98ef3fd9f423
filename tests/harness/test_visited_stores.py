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
explorer's state table -- and both stores keep them exactly as given.
"""

from collections import Counter

import pytest

from repro.core.validity import RV2
from repro.harness.exhaustive import SpecFactory, explore_mp, explore_sm
from repro.harness.visited import (
    EXPAND_ALL,
    CompactStore,
    ExactStore,
    NO_SLEEP,
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
        store.probe(FP, Counter([SIG_X]))
        assert store.probe(FP, Counter([SIG_X, SIG_Y])) is None
        assert store.hits == 1

    def test_equal_sleep_is_hit(self):
        store = ExactStore()
        store.probe(FP, Counter([SIG_X]))
        assert store.probe(FP, Counter([SIG_X])) is None

    def test_partial_reexpansion_returns_difference(self):
        store = ExactStore()
        store.probe(FP, Counter([SIG_X, SIG_Y]))
        missing = store.probe(FP, Counter([SIG_Y]))
        assert missing == Counter([SIG_X])
        # The entry shrank to the intersection: a revisit under the
        # smaller sleep is now covered.
        assert store.probe(FP, Counter([SIG_Y])) is None

    def test_disjoint_sleep_shrinks_to_empty(self):
        store = ExactStore()
        store.probe(FP, Counter([SIG_X]))
        missing = store.probe(FP, Counter([SIG_Y]))
        assert missing == Counter([SIG_X])
        assert store.probe(FP, NO_SLEEP) is None

    def test_multiset_counts_respected(self):
        store = ExactStore()
        store.probe(FP, Counter({SIG_X: 2}))
        missing = store.probe(FP, Counter({SIG_X: 1}))
        assert missing == Counter({SIG_X: 1})

    def test_set_covered_makes_every_probe_hit(self):
        store = ExactStore()
        store.probe(FP, Counter([SIG_X, SIG_Y]))
        store.set_covered(FP)
        assert store.probe(FP, NO_SLEEP) is None

    def test_probe_copies_the_sleep(self):
        store = ExactStore()
        sleep = Counter([SIG_X])
        store.probe(FP, sleep)
        sleep[SIG_Y] += 1  # caller mutation must not leak into the store
        assert store.probe(FP, Counter([SIG_X])) is None

    def test_distinct_fingerprints_independent(self):
        store = ExactStore()
        store.probe(FP, NO_SLEEP)
        assert store.probe(OTHER, NO_SLEEP) is EXPAND_ALL

    def test_sleep_keys_are_signature_ids(self):
        store = ExactStore()
        store.probe(FP, Counter([SIG_X, SIG_Y]))
        missing = store.probe(FP, NO_SLEEP)
        assert missing == Counter([SIG_X, SIG_Y])


class TestCompactStore:
    def test_same_godefroid_semantics_on_digests(self):
        store = CompactStore()
        assert store.probe(FP, Counter([SIG_X, SIG_Y])) is EXPAND_ALL
        missing = store.probe(FP, Counter([SIG_Y]))
        assert missing == Counter([SIG_X])
        assert store.probe(FP, Counter([SIG_Y])) is None

    def test_digests_are_ints(self):
        store = CompactStore()
        assert isinstance(store.fingerprint_key(FP), int)
        # Sleep multisets are not digested: signature ids come back as
        # the ints they were probed with.
        store.probe(FP, Counter([SIG_X]))
        assert store.probe(FP, NO_SLEEP) == Counter([SIG_X])

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
