"""Differential test: incremental state ids equal ids rebuilt from scratch.

The message-passing explorer hash-conses its states: every DFS frame
carries the state-table ids of each process's local state and of every
pending event's signature, and a step re-freezes only the process it
targeted.  A stale id -- a process whose state changed without being
re-frozen, or a signature kept for an event that changed -- would make
distinct states share a fingerprint and silently cut unexplored
branches.  Nothing in the explorer checks this at run time, so these
tests wrap the two consumers of the ids, ``_fingerprint_mp`` (symmetry
off) and ``MPSymmetryContext.canonical`` (symmetry on), and rebuild the
ids from the live kernel at every call.

Each case explores one n=3 instance, failure-free and under a crash
plan, with symmetry off and on, capped so the larger Byzantine
protocols stay within seconds.  Specs whose factory refuses t=1 at n=3
(PROTOCOL C) are built for t=0 and run by a t=1 kernel: what is under
test is the explorer's bookkeeping, not the protocol.
"""

from collections import Counter

import pytest

from repro.core.validity import SV2, by_code
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness import exhaustive
from repro.harness.symmetry import MPSymmetryContext
from repro.protocols.ablations import (
    CredulousProcess,
    ProtocolBStrictQuorum,
    ProtocolCPlainBroadcast,
)
from repro.protocols.base import all_specs

N = 3
T = 1
INPUTS = ["v", "v", "w"]
#: A partial broadcast by the odd-input process: pids 0 and 1 stay
#: interchangeable, so symmetry keeps a non-trivial group.
PLAN = CrashPlan({2: CrashPoint(after_sends=1)})
MAX_STATES = 1_500

ABLATIONS = (ProtocolBStrictQuorum, ProtocolCPlainBroadcast, CredulousProcess)


def _spec_instance(spec):
    """``(factory, k, validity)`` for a registered MP spec at n=3."""
    for make_t in (T, 0):
        for k in range(1, N + 1):
            try:
                spec.make(N, k, make_t)
            except ValueError:
                continue

            def factory(spec=spec, k=k, make_t=make_t):
                return [spec.make(N, k, make_t) for _ in range(N)]

            return factory, k, by_code(spec.validity)
    raise AssertionError(f"{spec.name}: no n={N} instance")


def _instances():
    cases = []
    for spec in all_specs():
        if spec.is_shared_memory or spec.name.startswith("sim-"):
            continue
        cases.append(pytest.param(*_spec_instance(spec), id=spec.name))
    for cls in ABLATIONS:
        cases.append(pytest.param(
            lambda cls=cls: [cls() for _ in range(N)], 2, SV2,
            id=cls.__name__,
        ))
    return cases


def _assert_fresh(kernel, ids):
    """The incremental ids equal a from-scratch rebuild on the same table."""
    ids.resolve(kernel)
    fresh = exhaustive._state_ids(kernel, ids.table)
    assert ids.procs == fresh.procs, "stale process state id"
    assert ids.sigs == fresh.sigs, "stale pending signature id"


@pytest.fixture
def checked(monkeypatch):
    """Wrap both id consumers; count the calls each one checked."""
    calls = Counter()
    fingerprint = exhaustive._fingerprint_mp
    canonical = MPSymmetryContext.canonical

    def checked_fingerprint(kernel, ids, include_counters):
        _assert_fresh(kernel, ids)
        calls["fingerprint"] += 1
        return fingerprint(kernel, ids, include_counters)

    def checked_canonical(self, kernel, ids, include_counters):
        _assert_fresh(kernel, ids)
        # Raw and renamed ids share one table, so renaming by the
        # identity must give back the raw ids.
        identity = self._perms[0]
        intern = ids.table.intern
        for pid, process in enumerate(kernel._processes):
            local = self._rename_local(process, kernel._contexts[pid], identity)
            assert intern(local) == ids.procs[pid]
        for seq, event in kernel._pending.items():
            assert intern(self._rename_sig(event, identity)) == ids.sigs[seq]
        calls["canonical"] += 1
        return canonical(self, kernel, ids, include_counters)

    monkeypatch.setattr(exhaustive, "_fingerprint_mp", checked_fingerprint)
    monkeypatch.setattr(MPSymmetryContext, "canonical", checked_canonical)
    return calls


@pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "sym"])
@pytest.mark.parametrize("plan", [None, PLAN], ids=["failure-free", "crash"])
@pytest.mark.parametrize("factory, k, validity", _instances())
def test_incremental_ids_match_rebuild(
    checked, factory, k, validity, plan, symmetry
):
    result = exhaustive.explore_mp(
        factory, INPUTS, k, T, validity,
        crash_adversary=plan, max_states=MAX_STATES, symmetry=symmetry,
    )
    probes = result.cache_hits + result.cache_misses
    assert probes > 1
    if result.stats.symmetry:
        assert checked["canonical"] == probes
        assert checked["fingerprint"] == 0
    else:
        assert checked["fingerprint"] == probes
        assert checked["canonical"] == 0
