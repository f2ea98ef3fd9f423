"""Differential test: memoized DFS nodes equal states replayed from scratch.

The message-passing explorer walks hash-consed nodes instead of a live
kernel: a node holds each process's local-state id, each pending
event's signature id, the crashed and halted sets, the step/send
counters, the undecided count, the next sequence number and the tick,
and a child is the memoized effect of its step applied to its parent.
A memo key that leaves out something a step depends on, or an effect
that records too little, would make a node disagree with the state its
path reaches -- and distinct states share a fingerprint and silently
cut unexplored branches.  Nothing in the explorer checks this at run
time, so these tests wrap ``_process_node``, which sees every node with
its path, and replay that path at every call on a fresh kernel that
never saw the memo.

Each case explores one n=3 instance, failure-free and under two crash
plans of the odd-input process, with symmetry off and on, capped so the
larger Byzantine protocols stay within seconds.  A crash-capable target
keys the memo on its counters: the ``after_steps=1`` plan is the one
that catches a key without them (a partial broadcast alone does not).
Specs whose factory refuses t=1 at n=3 (PROTOCOL C) are built for t=0
and run by a t=1 kernel: what is under test is the explorer's
bookkeeping, not the protocol.

The second group checks the sorting canonicalizer against a reference
kept below, ``_whole_group_key``: the minimum renamed id fingerprint over
the *whole* group, which the canonicalizer took before it renamed only
the processes whose keys tie.  The two choose different
representatives, but over every state a search without symmetry reaches,
two states must get equal new keys exactly when they get equal
whole-group keys.
"""

import pytest

from repro.core.validity import SV2, by_code
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness import exhaustive
from repro.harness.exhaustive import SpecFactory
from repro.harness.symmetry import _rename_ids, mp_symmetry_context
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
#: The odd-input process halts before its second step, so whether a
#: step of it runs depends on its step counter.
STEP_PLAN = CrashPlan({2: CrashPoint(after_steps=1)})
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


def _replayed(factory, plan, path):
    """A fresh kernel driven through ``path``, one step at a time."""
    kernel = exhaustive._fresh_mp_kernel(factory, INPUTS, T, plan)
    for seq in path:
        kernel.step(seq)
    return kernel


def _assert_replays(node, kernel):
    """The node equals the replayed kernel's state, rebuilt on its table."""
    fresh = exhaustive._state_ids(kernel, node.table)
    assert node.procs == fresh.procs, "stale process state id"
    assert node.sigs == fresh.sigs, "stale pending signature id"
    assert node.crashed == fresh.crashed, "wrong crashed set"
    assert node.halted == fresh.halted, "wrong halted-at-send set"
    assert node.steps == fresh.steps, "wrong step counters"
    assert node.sends == fresh.sends, "wrong send counters"
    assert (node.seq, node.tick) == (fresh.seq, fresh.tick)
    assert node.undecided == fresh.undecided
    assert (not node.undecided) == kernel.all_correct_decided()


@pytest.fixture
def checked(monkeypatch):
    """Replay every node the explorer processes; count the nodes checked.

    The test sets ``checked["search"] = (factory, plan)`` before it
    explores.
    """
    calls = {"nodes": 0}
    process = exhaustive._process_node

    def checked_process(trans, node, path, sleep, cfg, result, store):
        factory, plan = calls["search"]
        kernel = _replayed(factory, plan, path)
        _assert_replays(node, kernel)
        if cfg.sym is not None:
            # Raw and renamed ids share one table, so renaming by the
            # identity must give back the raw ids.
            sym = cfg.sym
            identity = sym._perms[0]
            intern = node.table.intern
            for pid, proc in enumerate(kernel._processes):
                local = sym._rename_local(proc, kernel._contexts[pid], identity)
                assert intern(local) == node.procs[pid]
            for seq, event in kernel._pending.items():
                assert intern(sym._rename_sig(event, identity)) == node.sigs[seq]
        calls["nodes"] += 1
        return process(trans, node, path, sleep, cfg, result, store)

    monkeypatch.setattr(exhaustive, "_process_node", checked_process)
    return calls


@pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "sym"])
@pytest.mark.parametrize(
    "plan", [None, PLAN, STEP_PLAN],
    ids=["failure-free", "crash", "crash-steps"],
)
@pytest.mark.parametrize("factory, k, validity", _instances())
def test_incremental_ids_match_rebuild(
    checked, factory, k, validity, plan, symmetry
):
    checked["search"] = (factory, plan)
    result = exhaustive.explore_mp(
        factory, INPUTS, k, T, validity,
        crash_adversary=plan, max_states=MAX_STATES, symmetry=symmetry,
    )
    probes = result.cache_hits + result.cache_misses
    assert probes > 1
    assert checked["nodes"] == probes
    # The memo answered some steps: the check covered memoized nodes.
    assert 0 < result.handler_runs < probes - 1


# ---------------------------------------------------------------------------
# the reference canonicalizer: the minimum over the whole group


def _whole_group_key(ctx, node, include_counters, kernel_at):
    """The minimum renamed id fingerprint over every group element."""
    pending = sorted(node.sigs.values())
    crashed = sorted(node.crashed)
    steps = node.steps
    sends = node.sends
    best = (
        tuple(pending),
        node.procs,
        tuple(crashed),
        (steps, sends) if include_counters else (),
    )
    for index in range(1, ctx.group_size):
        renamed = ctx._renamed[index]
        inverse = ctx._inverses[index]
        try:
            head = _rename_ids(renamed, inverse, pending, node.procs)
        except KeyError:
            ctx._learn(kernel_at(node), node, index)
            head = _rename_ids(renamed, inverse, pending, node.procs)
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
    process = exhaustive._process_node

    def keyed_process(trans, node, path, sleep, cfg, result, store):
        include_counters = trans.include_counters
        pairs.add((
            ctx.canonical(node, include_counters, trans.materialize)[0],
            _whole_group_key(ctx, node, include_counters, trans.materialize),
        ))
        return process(trans, node, path, sleep, cfg, result, store)

    monkeypatch.setattr(exhaustive, "_process_node", keyed_process)
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
