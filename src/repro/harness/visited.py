"""Visited-state stores for the exhaustive explorer.

The explorer's visited store maps structural state fingerprints to the
sleep-set coverage they were expanded under (Godefroid's combination of
state caching with sleep sets).  Sleep sets are multisets of event
signature ids: the message-passing explorer numbers every distinct
signature in its per-exploration state table, so both stores key sleep
coverage on those small ints as given.  Two stores share that
semantics:

* ``exact``    -- the reference store: full fingerprints, exact
  Godefroid semantics.  Lossless.
* ``compact``  -- same semantics on 8-byte BLAKE2b digests of the
  fingerprints.  A digest collision could cut an unexplored branch, but
  with 64-bit digests the expected collision count is
  ``~states^2 / 2^65`` -- negligible at any reachable state count.
  Certification still treats it as lossy: a compact run that finds no
  counterexample is re-run on the exact store.

Digests are deterministic BLAKE2b over the ``repr`` of the fingerprint
(never Python's per-process-randomized ``hash``).  Message-passing
fingerprints are flat tuples of state-table ids, which are assigned in
first-seen order of a deterministic search, so parallel frontier
workers using private tables and stores merge bit-identically for
every worker count.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Dict, Tuple

__all__ = [
    "CompactStore",
    "EXPAND_ALL",
    "ExactStore",
    "NO_SLEEP",
]

#: Sentinel returned by ``probe`` for brand-new or fully re-expandable
#: nodes ("expand every non-slept choice").
EXPAND_ALL = object()

NO_SLEEP: Counter = Counter()


def _digest64(value: Any) -> int:
    """Deterministic 64-bit digest of a plain-data value via ``repr``."""
    raw = hashlib.blake2b(repr(value).encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big")


class ExactStore:
    """The reference visited store: exact Godefroid sleep-set caching.

    Maps each structural fingerprint to the sleep set (a multiset of
    event signature ids) its expansion is known to *cover*: the subtree
    explored every continuation except those in the stored set.

    * probe sleep ⊇ stored sleep -- the cached expansion covered every
      continuation the revisit needs; cut (a cache *hit*);
    * otherwise -- re-expand only the difference ``stored - probe`` and
      shrink the stored entry to the intersection, which the state is
      covered for from now on.

    Leaves are marked covered unconditionally (an ended run has no
    continuations to miss).  Without POR every sleep set is empty and
    the store degenerates to plain fingerprint membership.
    """

    kind = "exact"

    __slots__ = ("_sleeps", "hits", "misses")

    def __init__(self) -> None:
        self._sleeps: Dict[Any, Counter] = {}
        self.hits = 0
        self.misses = 0

    def fingerprint_key(self, fingerprint: Tuple) -> Any:
        return fingerprint

    def probe(self, fingerprint: Tuple, sleep: Counter):
        """Record a visit; says what (if anything) needs expansion.

        Returns ``None`` for a cache hit, :data:`EXPAND_ALL` for a new
        state, or the multiset of slept-at-first-visit event signature
        ids that the current visit must still expand.
        """
        key = self.fingerprint_key(fingerprint)
        stored = self._sleeps.get(key)
        if stored is None:
            self._sleeps[key] = +sleep
            self.misses += 1
            return EXPAND_ALL
        if all(sleep[sig] >= need for sig, need in stored.items()):
            self.hits += 1
            return None
        missing = stored - sleep
        self._sleeps[key] = stored & sleep
        self.misses += 1
        return missing

    def set_covered(self, fingerprint: Tuple) -> None:
        """Mark a state fully covered (every future probe hits)."""
        self._sleeps[self.fingerprint_key(fingerprint)] = NO_SLEEP


class CompactStore(ExactStore):
    """Godefroid caching on 64-bit digests of the fingerprints.

    Sleep multisets stay keyed on signature ids: they are already small
    ints, and partial re-expansion matches pending events by them.
    """

    kind = "compact"

    __slots__ = ()

    def fingerprint_key(self, fingerprint: Tuple) -> Any:
        return _digest64(fingerprint)
