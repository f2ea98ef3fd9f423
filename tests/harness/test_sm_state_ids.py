"""Independent checks for the shared-memory DFS nodes and canonicalizer.

The shared-memory explorer walks hash-consed nodes instead of a live
kernel: a node holds each process's results-log chain id, log length
and local-state id, the register ids, the crashed set, the runnable
pids, the decided flags and the undecided count.  A child is its parent
with the stepping process's next operation applied, looked up in a memo
keyed ``(pid, local-state id)``.  A key that leaves out something the
operation depends on, or an operation applied wrongly, would make a
node disagree with the state its path reaches -- and distinct states
share a fingerprint and silently cut unexplored branches.  Nothing in
the explorer checks this at run time, so the first group of tests wraps
``_process_sm_node``, which sees every node with its path, and replays
that path on a fresh kernel that never saw the memo: one kernel is
stepped along while the search descends and rebuilt from scratch after
each backtrack.

The second group checks the id-level canonicalizer against a reference
kept below, which renames and freezes the whole state per permutation
and takes the ``repr`` minimum over the group (``_parse_log``,
``_renamed_fingerprint``, ``_reference_key``).  The two choose different
representatives, but over every reachable state two states must get
equal new keys exactly when they get equal reference keys.
"""

import pytest

from repro.core.validity import by_code
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness import exhaustive
from repro.harness.exhaustive import SpecFactory, _freeze, _fresh_sm_kernel
from repro.harness.symmetry import sm_symmetry_context
from repro.protocols.base import all_specs

N = 3
T = 1
INPUTS = ["v", "v", "w"]
#: A crash of the odd-input process: pids 0 and 1 stay interchangeable,
#: so symmetry keeps a non-trivial group.
PLAN = CrashPlan({2: CrashPoint(after_steps=1)})
MAX_STATES = 1_500


def _sm_specs():
    return [
        pytest.param(spec, id=spec.name)
        for spec in all_specs()
        if spec.is_shared_memory and not spec.name.startswith("sim-")
    ]


def _k_for(spec):
    """A k the spec's factory accepts at (n=3, t=1)."""
    for k in range(1, N + 1):
        try:
            spec.make(N, k, T)
        except ValueError:
            continue
        return k
    raise AssertionError(f"{spec.name}: no n={N}, t={T} instance")


# ---------------------------------------------------------------------------
# memoized nodes equal states replayed on a fresh kernel


def _assert_replays(node, kernel):
    """The node equals the replayed kernel's state, rebuilt on its table."""
    fresh = exhaustive._sm_state_ids(kernel, node.table)
    assert node.logs == fresh.logs, "stale results-log chain id"
    assert node.lens == fresh.lens, "stale results-log length"
    assert node.procs == fresh.procs, "stale process state id"
    assert node.regs == fresh.regs, "stale register id"
    assert node.crashed == fresh.crashed, "wrong crashed set"
    assert node.runnable == tuple(kernel.runnable_pids()), "wrong runnable pids"
    assert node.decided == fresh.decided, "wrong decided flags"
    assert node.undecided == fresh.undecided
    assert (not node.undecided) == kernel.all_correct_decided()


@pytest.fixture
def checked(monkeypatch):
    """Replay every node the explorer processes; count the nodes checked.

    The test sets ``checked["search"] = (factory, plan)`` before it
    explores.
    """
    calls = {"nodes": 0}
    replay = {"kernel": None, "path": []}
    process = exhaustive._process_sm_node

    def replayed(path):
        """A kernel that took ``path`` by ``step_pid`` alone."""
        done = replay["path"]
        if replay["kernel"] is None or path[:len(done)] != done:
            factory, plan = calls["search"]
            replay["kernel"] = _fresh_sm_kernel(factory, INPUTS, T, plan)
            done = []
        kernel = replay["kernel"]
        for pid in path[len(done):]:
            kernel.step_pid(pid)
        replay["path"] = list(path)
        return kernel

    def checked_process(trans, node, path, cfg, result, store):
        kernel = replayed(path)
        _assert_replays(node, kernel)
        if cfg.sym is not None:
            # Raw and renamed ids share one table, so renaming by the
            # identity must give back the raw ids -- including the write
            # ack of a process that has only written.
            sym = cfg.sym
            identity = sym._inverses[0]
            table = node.table
            for pid, state in enumerate(kernel._states):
                log_id = exhaustive._chain(
                    table, exhaustive._EMPTY_LOG,
                    sym._rename_log(state, identity),
                )
                assert log_id == node.logs[pid]
                local = exhaustive._sm_local(state, log_id)
                assert table.intern(local) == node.procs[pid]
        calls["nodes"] += 1
        return process(trans, node, path, cfg, result, store)

    monkeypatch.setattr(exhaustive, "_process_sm_node", checked_process)
    return calls


@pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "sym"])
@pytest.mark.parametrize("plan", [None, PLAN], ids=["failure-free", "crash"])
@pytest.mark.parametrize("spec", _sm_specs())
def test_incremental_ids_match_rebuild(checked, spec, plan, symmetry):
    k = _k_for(spec)
    factory = SpecFactory(spec.name, N, k, T)
    checked["search"] = (factory, plan)
    result = exhaustive.explore_sm(
        factory, INPUTS, k, T, by_code(spec.validity),
        crash_adversary=plan, max_states=MAX_STATES, symmetry=symmetry,
    )
    probes = result.cache_hits + result.cache_misses
    assert probes > 1
    assert result.stats.symmetry == symmetry
    assert checked["nodes"] == probes
    assert 0 < result.handler_runs <= probes - 1
    if result.runs:
        # A run ended, so the search backtracked and the memo answered
        # some steps: the check covered memoized nodes.  A failure-free
        # PROTOCOL F search ends no run at this cap: it descends one
        # scan loop, on which every local state is new.
        assert result.handler_runs < probes - 1


# ---------------------------------------------------------------------------
# the reference canonicalizer: repr-minimum over fully renamed fingerprints


def _parse_log(ctx, state):
    """Split a results log into (write ack, full scans, partial, tail)."""
    log = state.results_log
    if ctx._shape == "decide_only" or not log:
        return None, [], [], list(log)
    reads = log[1:-1] if state.decided else log[1:]
    tail = [log[-1]] if state.decided else []
    n = ctx._n
    full = len(reads) // n
    blocks = [reads[i * n:(i + 1) * n] for i in range(full)]
    return log[0], blocks, reads[full * n:], tail


def _renamed_fingerprint(ctx, kernel, parsed, perm, inverse):
    n = ctx._n
    states = [None] * n
    for pid, state in enumerate(kernel._states):
        ack, blocks, partial, tail = parsed[pid]
        if ctx._shape == "decide_only":
            log = tail
        else:
            # Reads a write ack of None as "empty log"; the ops_taken
            # field still tells such a process from one that never ran.
            log = [] if ack is None and not blocks and not partial else [ack]
            for block in blocks:
                log.extend(block[inverse[j]] for j in range(n))
            log.extend(partial[inverse[j]] for j in range(len(partial)))
            log.extend(tail)
        states[perm[pid]] = (
            state.finished,
            state.decided,
            _freeze(state.decision),
            state.ops_taken,
            tuple(_freeze(entry) for entry in log),
        )
    registers = [None] * n
    for owner, value in enumerate(kernel.registers.current_values()):
        registers[perm[owner]] = _freeze(value)
    crashed = tuple(sorted(perm[pid] for pid in kernel._crashed))
    return (tuple(states), tuple(registers), crashed)


def _reference_key(ctx, kernel):
    parsed = [_parse_log(ctx, state) for state in kernel._states]
    prefix_lengths = sorted(
        {len(partial) for _, _, partial, _ in parsed if partial}
    )
    best, best_repr = None, ""
    for index, perm in enumerate(ctx._perms):
        if index and not all(
            all(perm[pid] < m for pid in range(m)) for m in prefix_lengths
        ):
            continue
        fingerprint = _renamed_fingerprint(
            ctx, kernel, parsed, perm, ctx._inverses[index]
        )
        key = repr(fingerprint)
        if best is None or key < best_repr:
            best, best_repr = fingerprint, key
    return best


#: ``(spec, inputs, k, t, plan, reachable states, classes)``, the counts
#: measured with the reference canonicalizer.
PARTITIONS = [
    pytest.param(
        "protocol-e@sm-cr", ["v", "v", "v"], 2, 0, None, 2757, 1254,
        id="protocol-e-vvv",
    ),
    pytest.param(
        "protocol-e@sm-cr", ["v", "v", "w"], 2, 0, None, 2757, 1891,
        id="protocol-e-vvw",
    ),
    pytest.param(
        "protocol-e@sm-cr", ["v", "v", "w"], 1, 1, PLAN, 573, 354,
        id="protocol-e-vvw-crash",
    ),
    pytest.param(
        "trivial@sm-cr", ["v", "v", "v"], 1, 0, None, 26, 9,
        id="trivial-vvv",
    ),
]


@pytest.mark.parametrize(
    "name, inputs, k, t, plan, states, classes", PARTITIONS
)
def test_canonical_keys_partition_like_reference(
    monkeypatch, name, inputs, k, t, plan, states, classes
):
    """Equal new keys exactly when equal reference keys, over every
    reachable state (a full search without symmetry visits each)."""
    factory = SpecFactory(name, len(inputs), k, t)
    ctx, reason = sm_symmetry_context(
        _fresh_sm_kernel(factory, inputs, t, plan)._programs,
        inputs, t, plan,
    )
    assert ctx is not None, reason
    keys = {}
    process = exhaustive._process_sm_node

    def keyed_process(trans, node, path, cfg, result, store):
        def kernel_at(at):
            return trans.materialize(at, path)

        keys[exhaustive._fingerprint_sm(node)] = (
            ctx.canonical(node, kernel_at)[0],
            _reference_key(ctx, kernel_at(node)),
        )
        return process(trans, node, path, cfg, result, store)

    monkeypatch.setattr(exhaustive, "_process_sm_node", keyed_process)
    result = exhaustive.explore_sm(
        factory, inputs, k, t, by_code("SV2"), crash_adversary=plan,
    )
    assert result.exhausted and not result.stats.symmetry
    assert result.states == len(keys) == states
    new_to_reference = {}
    reference_to_new = {}
    for new, reference in keys.values():
        new_to_reference.setdefault(new, set()).add(reference)
        reference_to_new.setdefault(reference, set()).add(new)
    assert all(len(refs) == 1 for refs in new_to_reference.values()), (
        "the new canonicalizer merges states the reference keeps apart"
    )
    assert all(len(news) == 1 for news in reference_to_new.values()), (
        "the new canonicalizer splits states the reference merges"
    )
    assert len(new_to_reference) == classes
