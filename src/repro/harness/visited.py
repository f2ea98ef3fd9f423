"""Visited-state stores for the exhaustive explorer.

The explorer's visited store maps structural state fingerprints to the
sleep-set coverage they were expanded under (Godefroid's combination of
state caching with sleep sets).  Sleep sets are multisets of event
signature ids: the message-passing explorer numbers every distinct
signature in its per-exploration state table, and :func:`sleep_set`
encodes a multiset of those small ints as a frozenset of copy codes --
the ``i``-th copy of signature ``s`` is ``s + (i << 32)`` -- so the
store's subset test, difference and intersection are frozenset
operations, which run in C and are exact multiset operations on the
codes.  Both stores keep the probe's set as given.  Two stores share
that semantics:

* ``exact``    -- the reference store: full fingerprints, exact
  Godefroid semantics.  Lossless.
* ``compact``  -- same semantics on 8-byte BLAKE2b digests of the
  fingerprints.  A digest collision could cut an unexplored branch, but
  with 64-bit digests the expected collision count is
  ``~states^2 / 2^65`` -- negligible at any reachable state count.
  It is still lossy, so certification never uses it: every certify
  search runs on the exact store, and ``repro exhaustive --visited
  compact`` is the one way to select this one.

Digests are deterministic BLAKE2b over the ``repr`` of the fingerprint
(never Python's per-process-randomized ``hash``).  Message-passing
fingerprints are flat tuples of state-table ids, which are assigned in
first-seen order of a deterministic search, so parallel frontier
workers using private tables and stores merge bit-identically for
every worker count.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, FrozenSet, Iterable, Sequence, Tuple

__all__ = [
    "CompactStore",
    "EXPAND_ALL",
    "ExactStore",
    "NO_SLEEP",
    "sleep_counts",
    "sleep_set",
]

#: Sentinel returned by ``probe`` for brand-new or fully re-expandable
#: nodes ("expand every non-slept choice").
EXPAND_ALL = object()

#: The empty sleep set.
NO_SLEEP: FrozenSet[int] = frozenset()

#: Copy codes keep a signature id in their low 32 bits.
_SIG_BITS = 32
_SIG_MASK = (1 << _SIG_BITS) - 1


def sleep_set(sigs: Sequence[int]) -> FrozenSet[int]:
    """The multiset of signature ids ``sigs`` as a set of copy codes.

    The ``i``-th copy of signature ``s`` (counting from 0) is coded
    ``s + (i << 32)``, so for multisets ``a`` and ``b`` the codes of
    ``a`` are a subset of those of ``b`` exactly when ``a`` is a
    sub-multiset of ``b``, and set difference and intersection code
    the multiset difference and intersection.  Signature ids are
    state-table ids, far below ``2 ** 32``.
    """
    codes = frozenset(sigs)
    if len(codes) == len(sigs):
        return codes
    copies: Dict[int, int] = {}
    numbered = []
    for sig in sigs:
        index = copies.get(sig, 0)
        copies[sig] = index + 1
        numbered.append(sig + (index << _SIG_BITS))
    return frozenset(numbered)


def sleep_counts(codes: Iterable[int]) -> Dict[int, int]:
    """Signature id -> multiplicity of a set of copy codes."""
    counts: Dict[int, int] = {}
    for code in codes:
        sig = code & _SIG_MASK
        counts[sig] = counts.get(sig, 0) + 1
    return counts


def _digest64(value: Any) -> int:
    """Deterministic 64-bit digest of a plain-data value via ``repr``."""
    raw = hashlib.blake2b(repr(value).encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big")


class ExactStore:
    """The reference visited store: exact Godefroid sleep-set caching.

    Maps each structural fingerprint to the sleep set (a multiset of
    event signature ids, coded by :func:`sleep_set`) its expansion is
    known to *cover*: the subtree explored every continuation except
    those in the stored set.

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
        self._sleeps: Dict[Any, FrozenSet[int]] = {}
        self.hits = 0
        self.misses = 0

    def fingerprint_key(self, fingerprint: Tuple) -> Any:
        return fingerprint

    def probe(self, fingerprint: Tuple, sleep: FrozenSet[int]):
        """Record a visit; says what (if anything) needs expansion.

        Returns ``None`` for a cache hit, :data:`EXPAND_ALL` for a new
        state, or the copy codes of the slept-at-first-visit event
        signature ids that the current visit must still expand (decode
        them with :func:`sleep_counts`).
        """
        key = self.fingerprint_key(fingerprint)
        stored = self._sleeps.get(key)
        if stored is None:
            self._sleeps[key] = sleep
            self.misses += 1
            return EXPAND_ALL
        if stored <= sleep:
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

    Sleep multisets stay coded on signature ids: they are already small
    ints, and partial re-expansion matches pending events by them.
    """

    kind = "compact"

    __slots__ = ()

    def fingerprint_key(self, fingerprint: Tuple) -> Any:
        return _digest64(fingerprint)
