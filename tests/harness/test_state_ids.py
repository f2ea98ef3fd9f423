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

The second group checks the sorting canonicalizer against a reference
kept below, ``_whole_group_key``: the minimum renamed id fingerprint over
the *whole* group, which the canonicalizer took before it renamed only
the processes whose keys tie.  The two choose different
representatives, but over every state a search without symmetry reaches,
two states must get equal new keys exactly when they get equal
whole-group keys.
"""

from collections import Counter

import pytest

from repro.core.validity import SV2, by_code
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness import exhaustive
from repro.harness.exhaustive import SpecFactory
from repro.harness.symmetry import (
    MPSymmetryContext, _rename_ids, mp_symmetry_context,
)
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


# ---------------------------------------------------------------------------
# the reference canonicalizer: the minimum over the whole group


def _whole_group_key(ctx, kernel, ids, include_counters):
    """The minimum renamed id fingerprint over every group element."""
    ids.resolve(kernel)
    pending = sorted(ids.sigs.values())
    crashed = sorted(kernel._crashed)
    steps = kernel._steps_taken
    sends = kernel._sends_made
    best = (
        tuple(pending),
        ids.procs,
        tuple(crashed),
        (tuple(steps), tuple(sends)) if include_counters else (),
    )
    for index in range(1, ctx.group_size):
        renamed = ctx._renamed[index]
        inverse = ctx._inverses[index]
        try:
            head = _rename_ids(renamed, inverse, pending, ids.procs)
        except KeyError:
            ctx._learn(kernel, ids, index)
            head = _rename_ids(renamed, inverse, pending, ids.procs)
        perm = ctx._perms[index]
        fingerprint = head + (
            tuple(sorted(perm[pid] for pid in crashed)),
            (
                tuple(steps[pid] for pid in inverse),
                tuple(sends[pid] for pid in inverse),
            ) if include_counters else (),
        )
        best = min(best, fingerprint)
    return best


def _partition_cases():
    cases = []
    for param in _instances():
        factory, k, validity = param.values
        for inputs in (["v", "v", "w"], ["v", "v", "v"]):
            for plan, plan_id in ((None, "failure-free"), (PLAN, "crash")):
                cases.append(pytest.param(
                    factory, inputs, k, T, validity, plan,
                    id=f"{param.id}-{''.join(inputs)}-{plan_id}",
                ))
    # Four interchangeable processes: |G| = 24.
    for name, k, t in (("chaudhuri@mp-cr", 3, 2), ("protocol-a@mp-cr", 2, 1)):
        cases.append(pytest.param(
            SpecFactory(name, 4, k, t), ["v"] * 4, k, t, SV2, None,
            id=f"{name}-n4-uniform",
        ))
    return cases


@pytest.mark.parametrize(
    "factory, inputs, k, t, validity, plan", _partition_cases()
)
def test_canonical_keys_partition_like_whole_group(
    monkeypatch, factory, inputs, k, t, validity, plan
):
    """Equal new keys exactly when equal whole-group keys, over every
    state a capped search without symmetry reaches."""
    kernel = exhaustive._fresh_mp_kernel(factory, inputs, t, plan)
    ctx, reason = mp_symmetry_context(kernel._processes, inputs, t, plan)
    assert ctx is not None, reason
    pairs = set()
    fingerprint = exhaustive._fingerprint_mp

    def keyed_fingerprint(kernel, ids, include_counters):
        pairs.add((
            ctx.canonical(kernel, ids, include_counters)[0],
            _whole_group_key(ctx, kernel, ids, include_counters),
        ))
        return fingerprint(kernel, ids, include_counters)

    monkeypatch.setattr(exhaustive, "_fingerprint_mp", keyed_fingerprint)
    result = exhaustive.explore_mp(
        factory, inputs, k, t, validity,
        crash_adversary=plan, max_states=MAX_STATES, por=False,
    )
    assert not result.stats.symmetry and result.states > 1
    new_to_whole = {}
    whole_to_new = {}
    for new, whole in pairs:
        new_to_whole.setdefault(new, set()).add(whole)
        whole_to_new.setdefault(whole, set()).add(new)
    assert all(len(wholes) == 1 for wholes in new_to_whole.values()), (
        "the sorting canonicalizer merges states the whole group keeps apart"
    )
    assert all(len(news) == 1 for news in whole_to_new.values()), (
        "the sorting canonicalizer splits states the whole group merges"
    )
