"""Exhaustive schedule exploration for small instances.

Monte-Carlo sweeps sample the schedule space; for small ``n`` the
kernels' nondeterminism can be explored *completely*: every interleaving
of pending events (and optionally every crash pattern) is enumerated by
depth-first search over kernel states.  A protocol property verified
here holds for **all** asynchronous runs of the instance, which is the
actual quantifier in the paper's lemmas.

Three cooperating mechanisms keep the search fast:

* **Memos over hash-consed nodes.**  Both DFSs walk id-level nodes,
  not a live kernel.  On message passing a :class:`_Node` holds
  per-process local-state ids, pending-event signature ids, crash
  bookkeeping and counters, and :class:`_Transitions` steps it through
  a per-exploration memo keyed by the target process, its local-state
  id and the event's signature id (plus the target's counters and crash
  flags when the adversary may crash it), whose value is the step's
  effect on the target.  On shared memory a :class:`_SMNode` holds
  per-process results-log chain ids, log lengths and local-state ids,
  the register ids and the crash bookkeeping, and
  :class:`_SMTransitions` looks up the stepping process's next
  *operation* per ``(pid, local-state id)`` -- a scan reads every
  register, so a step's effect depends on more than the process, but
  its operation does not -- and applies it to the ids.  Either kernel
  runs only on a memo miss; it is also materialized to judge a leaf, to
  learn a symmetry shape or renaming, and at a frontier root: by the
  copy-on-write :meth:`MPKernel.restore` from process entries kept per
  ``(pid, local-state id)``, or by :meth:`SMKernel.restore` from
  results logs rebuilt off the chain (generator frames cannot be
  copied, so a restore drops the generators whose log changed and their
  next step re-feeds the logged results).  Dynamic crash adversaries
  bypass both memos.  The independent references are the full DFS
  (``por=False``) and the fresh-kernel replay of every recorded
  violation in :func:`repro.verify.confirm_exploration`.

* **Partial-order reduction** (``por=True``, the default for
  :func:`explore_mp`).  Deliveries to distinct processes that cannot
  crash commute -- the receivers' handler executions touch disjoint
  state -- so only one representative interleaving per Mazurkiewicz
  trace class is explored, using sleep sets.  Events whose target may
  still crash (per ``crash_adversary.potentially_faulty()``) are treated
  as dependent on everything, and POR disables itself under *dynamic*
  crash adversaries, whose decisions react to global state.  Full DFS
  (``por=False``) remains the correctness reference.

* **A visited-state store.**  Structural fingerprints collapse states
  reached through different event orders; each fingerprint is stored
  with the sleep sets it was expanded under, and a revisit is cut only
  when a cached sleep set is a *subset* of the current one (the cached
  expansion then covered every continuation the revisit needs), which
  is what makes caching sound under sleep sets.  Every state goes
  through the store, and its hit/miss counters are reported on every
  result.  Fingerprints are hash-consed: a per-exploration table
  (:class:`_StateTable`) numbers each distinct value in first-seen
  order -- process local states and pending-event signatures on message
  passing; results-log chains, local states and register values on
  shared memory.  A fingerprint is read off a DFS node's id vectors.

:func:`explore_mp` and :func:`explore_sm` also take ``jobs``: the root
fan-out is expanded breadth-first into a fixed-width frontier whose
subtrees are distributed over worker processes with
:func:`repro.harness.parallel.parallel_map`, and the per-subtree results
are merged in frontier order -- so the merged result is bit-identical
for every jobs count (``--jobs 1`` vs ``--jobs 8`` agree exactly).
Each kernel has one set-up function (:func:`_setup_mp`,
:func:`_setup_sm`) that turns a picklable record of the caller's
arguments (:class:`_Search`) into a fresh kernel, its per-search
constants, an empty result and a visited store; the serial search and
every frontier worker are built through it.

``stop_on_violation=True`` terminates the search at the first recorded
violation, which makes counterexample hunts over outside-region points
cheap -- the result then reports ``exhausted=False`` whenever a
violation was found.  The frontier search stops each subtree at its own
first violation, so it stays bit-identical for every jobs count.

Typical use::

    outcome = explore_mp(
        lambda: [ProtocolA() for _ in range(3)],
        inputs=["v", "v", "w"],
        k=2, t=1, validity=RV2,
    )
    assert outcome.all_ok

Exploration cost grows factorially; ``max_states`` bounds the search
(the result then reports ``exhausted=False``).
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from collections import deque
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
    Union,
)

from repro.core.problem import SCProblem
from repro.core.validity import ValidityCondition
from repro.core.values import Value
from repro.failures.adversary import CrashAdversary
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.parallel import parallel_map
from repro.harness.visited import (
    EXPAND_ALL, NO_SLEEP, CompactStore, ExactStore, sleep_counts, sleep_set,
)
from repro.runtime.events import Delivery, Event
from repro.runtime.kernel import MPKernel, MPSnapshot
from repro.runtime.process import Process
from repro.runtime.traces import TraceMode
from repro.shm.kernel import SMKernel, SMSnapshot
from repro.shm.ops import Op, Read, Write

__all__ = [
    "ExplorationResult",
    "ExplorationStats",
    "SpecFactory",
    "crash_patterns",
    "explore_mp",
    "explore_sm",
]

#: Number of subtree roots the parallel engines expand the search into
#: before distributing.  Deliberately independent of ``jobs`` so that
#: the work decomposition -- and therefore the merged result -- is
#: identical for every worker count.  Workers keep private visited
#: stores (sharing one would make results scheduling-dependent), so a
#: wider frontier buys parallelism at the price of re-exploring states
#: that overlap between subtrees.
_FRONTIER_WIDTH = 16


# ---------------------------------------------------------------------------
# result type


@dataclasses.dataclass
class ExplorationStats:
    """Symmetry and visited-store observability counters.

    Reductions must be visible, not silent: these counters say which
    store ran, whether symmetry applied (and if not, why), and how much
    work the reductions actually did.
    """

    #: Which visited store ran: ``exact`` / ``compact``.
    visited_store: str = "exact"
    #: Whether process-permutation symmetry reduction was active.
    symmetry: bool = False
    #: Why symmetry was disabled (empty when active or never requested).
    symmetry_reason: str = ""
    #: Size of the process-permutation group (1 when symmetry is off).
    group_size: int = 1
    #: Canonical fingerprints computed (one per deduplicated node).
    canonicalizations: int = 0
    #: Store hits at states that are not their orbit's chosen
    #: representative.  Which member represents an orbit is the
    #: canonicalizer's choice, so this count can fall while the
    #: reduction (``states``, ``cache_hits``) stays the same.
    orbit_hits: int = 0
    #: Non-identity renamed fingerprints the canonicalizer computed:
    #: the renamings it tried, over all canonicalizations.
    renamings: int = 0


@dataclasses.dataclass
class ExplorationResult:
    """Aggregate of a complete (or budget-capped) exploration."""

    runs: int
    states: int
    exhausted: bool
    violations: List[Tuple[Tuple[int, ...], Dict[str, object]]]
    max_distinct_decisions: int
    decision_sets: Set[frozenset]
    #: Visited-state store hits (branches cut because the exact
    #: (fingerprint, sleep set) node was already expanded).
    cache_hits: int = 0
    #: Visited-state store misses (distinct nodes actually expanded).
    cache_misses: int = 0
    #: Branch choices suppressed by sleep sets (POR).
    sleep_pruned: int = 0
    #: Partial re-expansions of already-visited states whose sleep set
    #: was incomparable to the stored coverage (POR bookkeeping; not
    #: counted in ``states``, which counts *distinct* states expanded).
    reexpansions: int = 0
    #: Shared-memory engine only: kernel restores (materializations
    #: for a memo miss, a leaf or a symmetry renaming, and frontier
    #: roots)...
    replays: int = 0
    #: ...and the logged results re-fed into the generators those
    #: restores dropped, when their processes next stepped.
    replayed_steps: int = 0
    #: Steps computed on the kernel: the steps the transition memo
    #: (message passing) or operation memo (shared memory) could not
    #: answer, and every step under a dynamic crash adversary.
    handler_runs: int = 0
    #: Symmetry / visited-store observability (see ExplorationStats).
    stats: ExplorationStats = dataclasses.field(
        default_factory=ExplorationStats
    )

    @property
    def all_ok(self) -> bool:
        return not self.violations

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of store probes answered by a cached node."""
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    def violation_kinds(self) -> Set[FrozenSet]:
        """The distinct violation findings, independent of event paths.

        POR and full DFS reach the same violating *configurations*
        through different representative schedules, so equivalence is
        compared on this set rather than on raw paths.
        """
        return {frozenset(failures.items()) for _, failures in self.violations}


def _merge_into(total: ExplorationResult, part: ExplorationResult) -> None:
    """Fold one subtree's result into the aggregate (order-preserving)."""
    total.runs += part.runs
    total.states += part.states
    total.exhausted = total.exhausted and part.exhausted
    total.violations.extend(part.violations)
    total.decision_sets |= part.decision_sets
    total.max_distinct_decisions = max(
        total.max_distinct_decisions, part.max_distinct_decisions
    )
    total.cache_hits += part.cache_hits
    total.cache_misses += part.cache_misses
    total.sleep_pruned += part.sleep_pruned
    total.reexpansions += part.reexpansions
    total.replays += part.replays
    total.replayed_steps += part.replayed_steps
    total.handler_runs += part.handler_runs
    total.stats.canonicalizations += part.stats.canonicalizations
    total.stats.orbit_hits += part.stats.orbit_hits
    total.stats.renamings += part.stats.renamings


def _empty_result() -> ExplorationResult:
    return ExplorationResult(
        runs=0,
        states=0,
        exhausted=True,
        violations=[],
        max_distinct_decisions=0,
        decision_sets=set(),
    )


# ---------------------------------------------------------------------------
# leaf judging


def _make_judge(problem: SCProblem, verify: bool):
    """Leaf judge: name -> description of everything wrong with a run.

    The default judge applies the bare outcome checks
    (:meth:`SCProblem.check`); with ``verify`` the full oracle stack of
    :mod:`repro.verify.oracles` runs instead and findings are keyed by
    oracle name.
    """
    if not verify:
        def judge(execution):
            verdicts = problem.check(execution.outcome)
            return {name: str(v) for name, v in verdicts.items() if not v}

        return judge

    # Function-level import: repro.verify pulls in harness modules.
    from repro.verify.oracles import check_execution

    def oracle_judge(execution):
        findings = {}
        for violation in check_execution(execution, problem):
            findings.setdefault(violation.oracle, str(violation))
        return findings

    return oracle_judge


def _judge_leaf(kernel, path: Tuple[int, ...], judge, result: ExplorationResult) -> None:
    execution = kernel._result()
    result.runs += 1
    failures = judge(execution)
    decided = frozenset(execution.outcome.correct_decision_values())
    result.decision_sets.add(decided)
    result.max_distinct_decisions = max(
        result.max_distinct_decisions, len(decided)
    )
    if failures:
        result.violations.append((path, failures))


# ---------------------------------------------------------------------------
# fingerprints and the visited-state store


def _freeze(value: Any) -> Any:
    """Canonical hashable form of a plain-data value.

    Containers are rebuilt as order-normalized tuples (dict items and
    set members sorted by ``repr``, which is total and deterministic
    across processes -- the sentinels print as ``<default>`` etc., never
    by address).  Atoms pass through; exotic leaves fall back to their
    ``repr``.
    """
    cls = value.__class__
    if cls is dict:
        return (
            "d",
            tuple(sorted(
                ((_freeze(k), _freeze(v)) for k, v in value.items()),
                key=repr,
            )),
        )
    if cls in (set, frozenset):
        return ("s", tuple(sorted((_freeze(v) for v in value), key=repr)))
    if cls in (list, tuple):
        return tuple(_freeze(v) for v in value)
    if cls in (int, str, bool, float, bytes) or value is None:
        return value
    fingerprint = getattr(cls, "__fingerprint__", None)
    if fingerprint is not None:
        # Composite helpers (e.g. the ℓ-echo engine) expose their
        # structural state; without this they would freeze by identity
        # and defeat deduplication across forked branches.
        return (cls.__qualname__, _freeze(fingerprint(value)))
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _event_sig(event: Event) -> Tuple:
    """Structural identity of a pending event (sequence-number free).

    Sleep sets must survive fingerprint collapsing: two nodes with equal
    state fingerprints may number the *same* pending events differently,
    so the sleep component of a store key uses this structural form
    (through its :class:`_StateTable` id).
    """
    if isinstance(event, Delivery):
        return (1, event.sender, event.receiver, _freeze(event.payload))
    return (0, event.pid)


def _event_target(event: Event) -> int:
    """The process whose local state the event's execution touches."""
    return event.receiver if isinstance(event, Delivery) else event.pid


def _local_state(process: Process, ctx) -> Tuple:
    """Frozen local state of one process: ``__dict__`` plus decision."""
    return (
        tuple([
            (key, _freeze(value))
            for key, value in sorted(process.__dict__.items())
        ]),
        ctx._decided,
        _freeze(ctx._decision),
    )


class _StateTable:
    """Hash-consing table of one exploration.

    Numbers every distinct value a fingerprint is made of with a small
    int, in first-seen order, so a global state collapses to a flat
    tuple of ints (SPIN's COLLAPSE compression): per-process local
    states (:func:`_local_state`) and pending-event signatures
    (:func:`_event_sig`) on message passing, results-log chain links,
    local states (:func:`_sm_local`) and register values on shared
    memory (see :class:`_SMStateIds`).  Equal values always get the
    same id, which makes the id fingerprint exactly as discriminating
    as the frozen state it stands for.  One table serves one
    exploration; ids from different tables are unrelated.
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}

    def intern(self, value: Any) -> int:
        ids = self._ids
        return ids.setdefault(value, len(ids))


class _Node:
    """One message-passing state of the DFS, as hash-consed ids.

    ``procs[pid]`` is the id of process ``pid``'s local state and
    ``sigs[seq]`` the signature id of pending event ``seq``; the crashed
    and halted-at-send sets, the step/send counters, the number of
    undecided correct processes, the next sequence number and the tick
    complete the state, so a node is all an :class:`MPKernel` state is
    except the objects its ids stand for.  Built from scratch by
    :func:`_state_ids`, and from a parent by :meth:`_Transitions.step`.
    A node is never mutated once built.
    """

    __slots__ = (
        "table", "procs", "sigs", "crashed", "halted", "steps", "sends",
        "undecided", "seq", "tick",
    )

    def __init__(
        self,
        table: _StateTable,
        procs: Tuple[int, ...],
        sigs: Dict[int, int],
        crashed: FrozenSet[int],
        halted: FrozenSet[int],
        steps: Tuple[int, ...],
        sends: Tuple[int, ...],
        undecided: int,
        seq: int,
        tick: int,
    ) -> None:
        self.table = table
        self.procs = procs
        self.sigs = sigs
        self.crashed = crashed
        self.halted = halted
        self.steps = steps
        self.sends = sends
        self.undecided = undecided
        self.seq = seq
        self.tick = tick


def _state_ids(kernel: MPKernel, table: _StateTable) -> _Node:
    """Build a kernel state's node from scratch (roots, references)."""
    intern = table.intern
    return _Node(
        table,
        tuple([
            intern(_local_state(process, ctx))
            for process, ctx in zip(kernel._processes, kernel._contexts)
        ]),
        {seq: intern(_event_sig(event)) for seq, event in kernel._pending.items()},
        frozenset(kernel._crashed),
        frozenset(kernel._halted_at_send),
        tuple(kernel._steps_taken),
        tuple(kernel._sends_made),
        kernel._undecided,
        kernel._seq,
        kernel.tick,
    )


def _fingerprint_mp(node: _Node, include_counters: bool) -> Tuple:
    """Structural state of an MP node, as hash-consed ids.

    The sorted pending-signature ids, the per-process state ids, the
    crashed set, and the counters.  Two states with the same
    fingerprint have identical futures, so only one needs expansion.
    ``include_counters`` adds the per-process step/send counters; they
    are part of the future-relevant state exactly when a crash adversary
    is present (crash points are counter-indexed), and omitting them
    otherwise lets states that differ only in history collapse.
    """
    return (
        tuple(sorted(node.sigs.values())),
        node.procs,
        tuple(sorted(node.crashed)),
        (node.steps, node.sends) if include_counters else (),
    )


#: Chain id of an empty results log.  A log ``L + [r]`` has the id of
#: ``(id of L, _freeze(r))``, so equal logs share an id.
_EMPTY_LOG = -1


def _sm_local(state, log_id: int) -> Tuple:
    """Hash-consing key of one SM process's local state.

    ``log_id`` is the chain id of its results log, which also fixes the
    number of operations it has taken.
    """
    return (state.finished, state.decided, _freeze(state.decision), log_id)


def _chain(table: _StateTable, log_id: int, results) -> int:
    """Chain-intern ``results`` onto the log with id ``log_id``."""
    intern = table.intern
    for entry in results:
        log_id = intern((log_id, _freeze(entry)))
    return log_id


class _SMNode:
    """One shared-memory state of the DFS, as hash-consed ids.

    ``logs[pid]`` is the chain id of process ``pid``'s results log and
    ``lens[pid]`` its length, ``procs[pid]`` the id of its local state
    (:func:`_sm_local`) and ``regs[owner]`` the id of register
    ``owner``'s value, interned as the 1-tuple ``(_freeze(value),)``.
    Chain keys are pairs and local-state keys 4-tuples, so the three
    kinds never share an id.  The crashed set, the runnable pids
    (neither crashed nor finished, ascending), each process's decided
    flag and the number of undecided correct processes complete the
    state.  A node holds no results log and no choice path: the DFS
    stack holds the path, and :class:`_SMTransitions` rebuilds logs
    from the chain when it materializes a kernel.  Built from scratch
    by :func:`_sm_state_ids`, and from a parent by
    :meth:`_SMTransitions.step`.  A node is never mutated once built.
    """

    __slots__ = (
        "table", "logs", "lens", "procs", "regs", "crashed", "runnable",
        "decided", "undecided",
    )

    def __init__(
        self,
        table: _StateTable,
        logs: Tuple[int, ...],
        lens: Tuple[int, ...],
        procs: Tuple[int, ...],
        regs: Tuple[int, ...],
        crashed: FrozenSet[int],
        runnable: Tuple[int, ...],
        decided: Tuple[bool, ...],
        undecided: int,
    ) -> None:
        self.table = table
        self.logs = logs
        self.lens = lens
        self.procs = procs
        self.regs = regs
        self.crashed = crashed
        self.runnable = runnable
        self.decided = decided
        self.undecided = undecided


def _sm_state_ids(kernel: SMKernel, table: _StateTable) -> _SMNode:
    """Build a kernel state's node from scratch (roots, references)."""
    intern = table.intern
    states = kernel._states
    logs = tuple([
        _chain(table, _EMPTY_LOG, state.results_log) for state in states
    ])
    return _SMNode(
        table,
        logs,
        tuple([len(state.results_log) for state in states]),
        tuple([
            intern(_sm_local(state, log_id))
            for state, log_id in zip(states, logs)
        ]),
        tuple([
            intern((_freeze(value),))
            for value in kernel.registers.current_values()
        ]),
        frozenset(kernel._crashed),
        tuple(kernel.runnable_pids()),
        tuple([state.decided for state in states]),
        kernel._undecided,
    )


def _fingerprint_sm(node: _SMNode) -> Tuple:
    """Structural state of an SM node, as hash-consed ids.

    The per-process local-state ids, the register ids and the sorted
    crashed set.  Generator frames are opaque, but a program's
    generator is a pure function of its context and of the operation
    results fed into it (``results_log``), so logging results makes SM
    states fingerprintable.
    """
    return (node.procs, node.regs, tuple(sorted(node.crashed)))


#: Visited-store kinds the ``visited`` argument selects by name.
_STORES = {"exact": ExactStore, "compact": CompactStore}


def _make_store(visited: str) -> ExactStore:
    if visited not in _STORES:
        raise ValueError(f"unknown visited store kind {visited!r}")
    return _STORES[visited]()


# ---------------------------------------------------------------------------
# search set-up, shared by both kernels


@dataclasses.dataclass(frozen=True)
class _Search:
    """The caller's arguments to one exploration, picklable for workers.

    :func:`explore_mp` and its frontier worker both build their search
    from this record through :func:`_setup_mp` (and likewise on shared
    memory through :func:`_setup_sm`), so a worker's subtree search is
    set up exactly like the serial one.
    """

    factory: Callable[[], Sequence]
    inputs: Tuple[Value, ...]
    k: int
    t: int
    validity: ValidityCondition
    crash_adversary: Optional[CrashAdversary]
    max_states: int
    verify: bool
    visited: str
    symmetry: bool
    stop_on_violation: bool
    #: Message passing only: prune commuting interleavings (sleep sets).
    por: bool = False


@dataclasses.dataclass(frozen=True)
class _Subtree:
    """A frontier task: the search and the root of one of its subtrees.

    The root is ``(snapshot, path, sleep)`` on message passing and an
    :class:`SMSnapshot` on shared memory, each built from a node.
    """

    search: _Search
    root: Any


@dataclasses.dataclass
class _Config:
    """Per-exploration constants derived from a :class:`_Search`."""

    judge: Callable
    max_states: int
    stop_on_violation: bool
    #: Symmetry canonicalizer, or ``None`` when the reduction is off
    #: (see :func:`_symmetry_for`).
    sym: Optional[Any]
    # The remaining fields matter to message passing only.
    por: bool = False
    include_counters: bool = False
    #: Processes the adversary may still crash; events targeting one
    #: (while it is not yet crashed) are dependent on everything.
    may_crash: FrozenSet[int] = frozenset()
    #: This exploration's hash-consing table (see :class:`_StateTable`).
    table: _StateTable = dataclasses.field(default_factory=_StateTable)


#: What a set-up function returns: what the search drives (the
#: :class:`_Transitions` or :class:`_SMTransitions` in front of a fresh
#: kernel), the search's constants, an empty result and a visited store.
_Setup = Tuple[Any, _Config, ExplorationResult, ExactStore]


def _symmetry_for(
    search: _Search, kernel: Union[MPKernel, SMKernel], stats: ExplorationStats
) -> Optional[Any]:
    """Resolve either kernel's symmetry canonicalizer; record why when off."""
    if not search.symmetry:
        return None
    from repro.harness import symmetry

    if isinstance(kernel, MPKernel):
        context, members = symmetry.mp_symmetry_context, kernel._processes
    else:
        context, members = symmetry.sm_symmetry_context, kernel._programs
    sym, reason = context(
        members, search.inputs, search.t, search.crash_adversary
    )
    if sym is None:
        stats.symmetry_reason = reason
        return None
    stats.symmetry = True
    stats.group_size = sym.group_size
    return sym


def _setup(
    search: _Search, kernel: Union[MPKernel, SMKernel], **mp_only: Any
) -> _Setup:
    """``(kernel, config, result, store)`` of one search on a fresh kernel."""
    store = _make_store(search.visited)
    result = _empty_result()
    result.stats.visited_store = store.kind
    problem = SCProblem(
        n=len(search.inputs), k=search.k, t=search.t,
        validity=search.validity,
    )
    cfg = _Config(
        judge=_make_judge(problem, search.verify),
        max_states=search.max_states,
        stop_on_violation=search.stop_on_violation,
        sym=_symmetry_for(search, kernel, result.stats),
        **mp_only,
    )
    return kernel, cfg, result, store


def _finish(
    result: ExplorationResult, store: ExactStore, cfg: _Config, trans: Any
) -> ExplorationResult:
    """The one exit of every search: add its own store's,
    canonicalizer's and transition relation's counters."""
    result.cache_hits += store.hits
    result.cache_misses += store.misses
    if cfg.sym is not None:
        result.stats.renamings += cfg.sym.renamings
    trans.add_counts(result)
    return result


def _explore_frontier(
    search: _Search,
    setup: _Setup,
    root: Any,
    children: Callable[..., List[Any]],
    worker: Callable[[_Subtree], ExplorationResult],
    jobs: int,
) -> None:
    """Breadth-first expansion from ``root``, then parallel subtree searches.

    ``children(driver, cfg, result, store, node)`` processes one
    frontier node and returns its child nodes; ``worker`` explores one
    :class:`_Subtree`.  The frontier width is a constant (not a
    function of ``jobs``) and subtree results are merged in frontier
    order, so the merged result is identical for every worker count.
    Worker subtrees use private stores; cross-subtree duplicates are
    re-explored rather than shared, which costs work but keeps the
    decomposition deterministic.
    """
    driver, cfg, result, store = setup
    queue: deque = deque([root])
    while queue and len(queue) < _FRONTIER_WIDTH:
        if result.states >= cfg.max_states:
            result.exhausted = False
            return
        queue.extend(children(driver, cfg, result, store, queue.popleft()))
        if cfg.stop_on_violation and result.violations:
            result.exhausted = False
            return
    if not queue:
        return
    tasks = [_Subtree(search, node) for node in queue]
    for part in parallel_map(worker, tasks, jobs=jobs):
        _merge_into(result, part)


# ---------------------------------------------------------------------------
# message-passing exploration


def _is_dynamic(adversary: Optional[CrashAdversary]) -> bool:
    """Does the adversary override ``dynamic_crashes``?"""
    if adversary is None:
        return False
    return type(adversary).dynamic_crashes is not CrashAdversary.dynamic_crashes


def _mp_counters_matter(adversary: Optional[CrashAdversary]) -> bool:
    return bool(_may_crash_set(adversary)) or _is_dynamic(adversary)


def _may_crash_set(adversary: Optional[CrashAdversary]) -> FrozenSet[int]:
    return adversary.potentially_faulty() if adversary is not None else frozenset()


def _fresh_mp_kernel(
    process_factory, inputs, t, crash_adversary
) -> MPKernel:
    kernel = MPKernel(
        list(process_factory()),
        list(inputs),
        t=t,
        scheduler=None,
        crash_adversary=copy.deepcopy(crash_adversary),
        stop_when_decided=True,
        # Explorers need no event logs, and copying accumulated traces
        # would dominate exploration cost.
        trace_mode=TraceMode.OFF,
    )
    kernel._apply_dynamic_crashes()
    return kernel


class _Transitions:
    """The MP transition relation on nodes: a memo in front of one kernel.

    :meth:`step` advances a :class:`_Node` through a per-exploration
    memo keyed ``(target, the target's local-state id, the event's
    signature id)``; when the adversary may crash the target, the key
    also holds the target's step and send counters and its crashed and
    halted flags, which its crash points are a function of.  The value
    is the step's effect on the target: its new local-state id, the
    signature ids it sent in send order, whether it stepped, crashed or
    halted, and whether a correct process stopped being undecided.  A
    step changes nothing else -- the fact POR's independence relation
    rests on -- and a handler's effect is a function of its frozen
    local state and the event, which the visited store assumes already.

    The live kernel is touched only to compute a missing effect, to
    judge a leaf, to learn a symmetry shape or renaming, and at a
    frontier root: :meth:`materialize` restores it to a node through
    the copy-on-write :meth:`MPKernel.restore`, from process entries
    kept per ``(pid, local-state id)``.  Never per id alone: equal
    states of different processes share an id, yet PROTOCOL C's engine
    is bound to its own process.  Under a dynamic adversary, whose
    crashes react to global state, every step runs on the kernel.
    """

    __slots__ = (
        "kernel", "table", "may_crash", "bypass", "memo", "entries",
        "events", "targets", "live", "handler_runs",
    )

    def __init__(
        self,
        kernel: MPKernel,
        table: _StateTable,
        may_crash: FrozenSet[int],
        bypass: bool,
    ) -> None:
        self.kernel = kernel
        self.table = table
        self.may_crash = may_crash
        #: Run every step on the kernel (a dynamic adversary).
        self.bypass = bypass
        self.memo: Dict[Tuple, Tuple] = {}
        #: ``(pid, local-state id)`` -> the kernel's snapshot entry of
        #: the first process state seen with that id.
        self.entries: Dict[Tuple[int, int], Any] = {}
        #: Signature id -> the first event seen with it, and its target.
        self.events: Dict[int, Event] = {}
        self.targets: Dict[int, int] = {}
        #: The node the live kernel sits at (by identity), if any.
        self.live: Optional[_Node] = None
        #: Steps whose effect was computed on the kernel.
        self.handler_runs = 0

    def root(self) -> _Node:
        """The live kernel's current state as a node, built from scratch."""
        kernel = self.kernel
        node = _state_ids(kernel, self.table)
        entries = self.entries
        for pid, state in enumerate(node.procs):
            if (pid, state) not in entries:
                entries[pid, state] = kernel.entry(pid)
        pending = kernel._pending
        for seq, sig in node.sigs.items():
            self._learn_event(sig, pending[seq])
        self.live = node
        return node

    def _learn_event(self, sig: int, event: Event) -> None:
        if sig not in self.events:
            self.events[sig] = event
            self.targets[sig] = _event_target(event)

    def snapshot(self, node: _Node) -> MPSnapshot:
        """The kernel snapshot a node stands for."""
        events = self.events
        pending = {}
        for seq, sig in node.sigs.items():
            event = events[sig]
            if event.seq != seq:
                # Only deliveries are ever renumbered: a start event's
                # seq is its pid.
                event = Delivery(seq, event.sender, event.receiver, event.payload)
            pending[seq] = event
        entries = self.entries
        return MPSnapshot(
            tick=node.tick,
            seq=node.seq,
            pending=pending,
            crashed=node.crashed,
            halted_at_send=node.halted,
            steps_taken=node.steps,
            sends_made=node.sends,
            processes=tuple([
                entries[pid, state] for pid, state in enumerate(node.procs)
            ]),
            undecided=node.undecided,
        )

    def materialize(self, node: _Node) -> MPKernel:
        """The live kernel, restored to ``node`` unless it sits there."""
        if self.live is not node:
            self.kernel.restore(self.snapshot(node))
            self.live = node
        return self.kernel

    def step(self, node: _Node, seq: int) -> _Node:
        """The node that executing pending event ``seq`` reaches."""
        sig = node.sigs[seq]
        target = self.targets[sig]
        if self.bypass:
            return self._run(node, seq, target, None)
        if target in self.may_crash:
            key = (
                target, node.procs[target], sig, node.steps[target],
                node.sends[target], target in node.crashed,
                target in node.halted,
            )
        else:
            key = (target, node.procs[target], sig)
        effect = self.memo.get(key)
        if effect is None:
            return self._run(node, seq, target, key)
        state, sent, stepped, crashed, halted, settled = effect
        procs = list(node.procs)
        procs[target] = state
        sigs = node.sigs.copy()
        del sigs[seq]
        next_seq = node.seq
        for new in sent:
            sigs[next_seq] = new
            next_seq += 1
        steps = node.steps
        if stepped:
            steps = list(steps)
            steps[target] += 1
            steps = tuple(steps)
        sends = node.sends
        if sent:
            sends = list(sends)
            sends[target] += len(sent)
            sends = tuple(sends)
        return _Node(
            self.table, tuple(procs), sigs,
            node.crashed | {target} if crashed else node.crashed,
            node.halted | {target} if halted else node.halted,
            steps, sends, node.undecided - settled, next_seq, node.tick + 1,
        )

    def _run(
        self, node: _Node, seq: int, target: int, key: Optional[Tuple]
    ) -> _Node:
        """Step the kernel from ``node``; memoize the effect under ``key``."""
        kernel = self.materialize(node)
        kernel.step(seq)
        self.handler_runs += 1
        intern = self.table.intern
        state = intern(_local_state(
            kernel._processes[target], kernel._contexts[target]
        ))
        if (target, state) not in self.entries:
            self.entries[target, state] = kernel.entry(target)
        sigs = node.sigs.copy()
        del sigs[seq]
        pending = kernel._pending
        sent = []
        for new in range(node.seq, kernel._seq):
            event = pending[new]
            sig = sigs[new] = intern(_event_sig(event))
            self._learn_event(sig, event)
            sent.append(sig)
        procs = list(node.procs)
        procs[target] = state
        child = _Node(
            self.table, tuple(procs), sigs,
            frozenset(kernel._crashed), frozenset(kernel._halted_at_send),
            tuple(kernel._steps_taken), tuple(kernel._sends_made),
            kernel._undecided, kernel._seq, kernel.tick,
        )
        if key is not None:
            self.memo[key] = (
                state,
                tuple(sent),
                child.steps[target] - node.steps[target],
                target in child.crashed and target not in node.crashed,
                target in child.halted and target not in node.halted,
                node.undecided - child.undecided,
            )
        self.live = child
        return child

    def add_counts(self, result: ExplorationResult) -> None:
        result.handler_runs += self.handler_runs


def _setup_mp(search: _Search) -> _Setup:
    """``(transitions, config, result, store)`` of one MP search."""
    adversary = search.crash_adversary
    dynamic = _is_dynamic(adversary)
    kernel, cfg, result, store = _setup(
        search,
        _fresh_mp_kernel(search.factory, search.inputs, search.t, adversary),
        por=search.por and not dynamic,
        include_counters=_mp_counters_matter(adversary),
        may_crash=_may_crash_set(adversary),
    )
    trans = _Transitions(kernel, cfg.table, cfg.may_crash, dynamic)
    return trans, cfg, result, store


class _Frame:
    """One DFS branch point: a node plus its unexplored choices."""

    __slots__ = (
        "node", "path", "sleep", "choices", "idx", "target", "may_crash",
    )

    def __init__(self, node, path, sleep, choices, target, may_crash):
        self.node = node
        self.path = path
        self.sleep = sleep            # Set[int]: slept seqs at this node
        self.choices = choices        # List[int]: seqs to explore, ascending
        self.idx = 0
        self.target = target          # Dict[seq -> target pid]
        self.may_crash = may_crash    # Dict[seq -> event is crash-capable]


def _process_mp_node(
    trans: _Transitions,
    node: _Node,
    path: Tuple[int, ...],
    sleep: Set[int],
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
) -> Optional[_Frame]:
    """Count/dedup/judge one node; return a frame to expand.

    Returns ``None`` for cache hits, leaves, and fully-slept nodes.  On
    a revisit whose sleep set is incomparable to the stored coverage,
    the returned frame expands only the still-uncovered choices.
    """
    sigs = node.sigs
    if cfg.sym is not None:
        # Canonical store coordinates: the fingerprint *and* every
        # sleep/re-expansion signature are renamed by the same
        # canonicalizing permutation, so Godefroid bookkeeping
        # operates consistently inside each symmetry orbit.  Only the
        # signatures the probe reads are renamed.
        fp, renamed = cfg.sym.canonical(
            node, cfg.include_counters, trans.materialize
        )
        result.stats.canonicalizations += 1
    else:
        renamed = None
        fp = _fingerprint_mp(node, cfg.include_counters)
    if not sleep:
        sleep_sig = NO_SLEEP
    elif renamed is None:
        sleep_sig = sleep_set([sigs[seq] for seq in sleep])
    else:
        sleep_sig = sleep_set([renamed[sigs[seq]] for seq in sleep])
    to_expand = store.probe(fp, sleep_sig)
    if to_expand is None:
        if renamed is not None:
            result.stats.orbit_hits += 1
        return None
    if to_expand is EXPAND_ALL:
        result.states += 1
    else:
        result.reexpansions += 1
    if not node.undecided or not sigs:
        _judge_leaf(trans.materialize(node), path, cfg.judge, result)
        store.set_covered(fp)
        return None
    if to_expand is EXPAND_ALL:
        choices = [seq for seq in sorted(sigs) if seq not in sleep]
    else:
        # Partial re-expansion: only events slept at the first visit but
        # not now.  Structurally identical events are interchangeable,
        # so any non-slept pending event with a needed signature serves.
        need = sleep_counts(to_expand)
        choices = []
        for seq in sorted(sigs):
            if seq in sleep:
                continue
            key = sigs[seq] if renamed is None else renamed[sigs[seq]]
            if need.get(key, 0) > 0:
                need[key] -= 1
                choices.append(seq)
    result.sleep_pruned += len(sigs) - len(choices)
    if not choices:
        # Every continuation here is covered by a sibling's subtree.
        return None
    targets = trans.targets
    target = {seq: targets[sig] for seq, sig in sigs.items()}
    crashed = node.crashed
    may_crash = {
        seq: tgt in cfg.may_crash and tgt not in crashed
        for seq, tgt in target.items()
    }
    return _Frame(node, path, sleep, choices, target, may_crash)


def _child_sleep(frame: _Frame, seq: int, por: bool) -> Set[int]:
    """Sleep set for the child reached by executing ``seq``.

    Sleep-set rule: the child inherits every event from the parent's
    sleep set plus the already-explored sibling choices, filtered to
    those *independent* of ``seq``.  Independence here: distinct target
    processes, neither of which can still crash.
    """
    if not por or frame.may_crash[seq]:
        return set()
    tgt = frame.target[seq]
    inherited = itertools.chain(frame.sleep, frame.choices[:frame.idx - 1])
    return {
        z for z in inherited
        if not frame.may_crash[z] and frame.target[z] != tgt
    }


def _run_mp_dfs(
    trans: _Transitions,
    path: Tuple[int, ...],
    sleep: Set[int],
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
) -> None:
    """Depth-first exploration from the live kernel's current state.

    The search walks nodes: a child is the memoized effect of its step
    applied to its parent (see :class:`_Transitions`), and the kernel
    runs only where the memo has no answer.
    """
    root = _process_mp_node(
        trans, trans.root(), path, sleep, cfg, result, store
    )
    if cfg.stop_on_violation and result.violations:
        result.exhausted = False
        return
    if root is None:
        return
    stack = [root]
    while stack:
        frame = stack[-1]
        if frame.idx >= len(frame.choices):
            stack.pop()
            continue
        if result.states >= cfg.max_states:
            result.exhausted = False
            return
        seq = frame.choices[frame.idx]
        frame.idx += 1
        child = _process_mp_node(
            trans,
            trans.step(frame.node, seq),
            frame.path + (seq,),
            _child_sleep(frame, seq, cfg.por),
            cfg, result, store,
        )
        if cfg.stop_on_violation and result.violations:
            result.exhausted = False
            return
        if child is not None:
            stack.append(child)


def _mp_children(
    trans: _Transitions,
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
    node: Tuple[MPSnapshot, Tuple[int, ...], Tuple[int, ...]],
) -> List[Tuple]:
    """Process one MP frontier node; return its children as new roots."""
    snapshot, path, sleep = node
    trans.kernel.restore(snapshot)
    frame = _process_mp_node(
        trans, trans.root(), path, set(sleep), cfg, result, store
    )
    children = []
    while frame is not None and frame.idx < len(frame.choices):
        seq = frame.choices[frame.idx]
        frame.idx += 1
        child_sleep = tuple(sorted(_child_sleep(frame, seq, cfg.por)))
        children.append((
            trans.snapshot(trans.step(frame.node, seq)),
            path + (seq,),
            child_sleep,
        ))
    return children


def _mp_frontier_worker(task: _Subtree) -> ExplorationResult:
    """Explore one MP frontier subtree in a fresh process (or inline)."""
    trans, cfg, result, store = _setup_mp(task.search)
    snapshot, path, sleep = task.root
    trans.kernel.restore(snapshot)
    _run_mp_dfs(trans, path, set(sleep), cfg, result, store)
    return _finish(result, store, cfg, trans)


def explore_mp(
    process_factory: Callable[[], Sequence[Process]],
    inputs: Sequence[Value],
    k: int,
    t: int,
    validity: ValidityCondition,
    crash_adversary=None,
    max_states: int = 200_000,
    verify: bool = False,
    por: bool = True,
    jobs: Optional[int] = None,
    visited: str = "exact",
    symmetry: bool = False,
    stop_on_violation: bool = False,
) -> ExplorationResult:
    """Explore *every* delivery order of one message-passing instance.

    Args:
        process_factory: builds the full process list (fresh state).
            Must be picklable (e.g. a :class:`SpecFactory`) when
            ``jobs`` exceeds 1.
        inputs, k, t, validity: the ``SC(k, t, C)`` instance.
        crash_adversary: optional fixed crash pattern explored alongside
            the schedules (use :func:`crash_patterns` to enumerate).
        max_states: search budget; when hit, ``exhausted`` is ``False``.
            The parallel engine applies it per subtree.
        verify: judge each leaf with the :mod:`repro.verify.oracles`
            stack instead of the bare outcome checks; violation records
            then map oracle names to findings.  Exploration runs with
            ``TraceMode.OFF``, so trace-dependent oracles stay vacuous.
        por: prune commuting interleavings with sleep sets.  Sound for
            static crash adversaries; automatically disabled for dynamic
            ones.  ``por=False`` is the full-DFS correctness reference.
        jobs: when set, split the root fan-out across this many worker
            processes (frontier search).  Results are bit-identical for
            every value of ``jobs``, including 1.
        visited: visited-store kind, ``"exact"`` or ``"compact"``; see
            :mod:`repro.harness.visited`.  The compact store may under-
            explore on a 64-bit digest collision.
        symmetry: canonicalize states modulo process renaming (see
            :mod:`repro.harness.symmetry`).  Automatically disabled --
            with the reason recorded in ``result.stats`` -- for
            undeclared protocols and symmetry-breaking adversaries.
        stop_on_violation: abandon the search at the first recorded
            violation (``exhausted`` is then ``False``).  Searches that
            find no violation are unaffected.
    """
    search = _Search(
        factory=process_factory, inputs=tuple(inputs), k=k, t=t,
        validity=validity, crash_adversary=crash_adversary,
        max_states=max_states, verify=verify, visited=visited,
        symmetry=symmetry, stop_on_violation=stop_on_violation, por=por,
    )
    setup = _setup_mp(search)
    trans, cfg, result, store = setup
    if jobs is None:
        _run_mp_dfs(trans, (), set(), cfg, result, store)
    else:
        _explore_frontier(
            search, setup, (trans.kernel.snapshot(), (), ()), _mp_children,
            _mp_frontier_worker, jobs,
        )
    return _finish(result, store, cfg, trans)


# ---------------------------------------------------------------------------
# shared-memory exploration


def _fresh_sm_kernel(
    programs_factory, inputs, t, crash_adversary
) -> SMKernel:
    kernel = SMKernel(
        list(programs_factory()),
        list(inputs),
        t=t,
        scheduler=None,
        crash_adversary=copy.deepcopy(crash_adversary),
        stop_when_decided=True,
        trace_mode=TraceMode.OFF,
    )
    kernel._apply_dynamic_crashes()
    return kernel


#: What a process does at its next step, as the SM memo records it:
#: ``(_CRASH, settled)`` -- the adversary halts it before the step;
#: ``(_HALT, local-state id)`` -- its program returns;
#: ``(_READ, owner, results)`` -- it reads register ``owner``, and
#: ``results`` maps the register's value id to the ``(log id,
#: local-state id)`` the read leads to; ``(_WRITE, register id, log id,
#: local-state id)`` and ``(_DECIDE, log id, local-state id, settled)``.
#: ``settled`` is how many undecided correct processes the step settles.
_CRASH, _HALT, _READ, _WRITE, _DECIDE = range(5)


def _put(values: Tuple, pid: int, value: Any) -> Tuple:
    """``values`` with the entry at ``pid`` replaced by ``value``."""
    changed = list(values)
    changed[pid] = value
    return tuple(changed)


class _SMTransitions:
    """The SM transition relation on nodes: an operation memo in front
    of one kernel.

    A scan reads every register, so a step's *effect* depends on more
    than the process that takes it -- but its next *operation* does not:
    a program's generator is a pure function of its context and of its
    results log, and a static crash point of its operation count, which
    the log's chain id fixes.  :meth:`step` therefore looks the
    operation up in a per-exploration memo keyed ``(pid, local-state
    id)`` and applies it to the node's ids: a read chains the owner's
    current register value onto the log, a write replaces the writer's
    register id, a decide or a halt changes the local state, and a
    crash moves the process into the crashed set.  Read results are
    memoized per register value id inside the read's memo entry.

    The live kernel is touched only to compute a missing operation (one
    :meth:`SMKernel.step_pid`, with no restore when the kernel already
    sits at the parent), to judge a leaf, to learn a symmetry renaming,
    and at a frontier root.  :meth:`materialize` restores it to a node
    through :meth:`SMKernel.restore`, rebuilding each results log by
    walking its chain from the raw results kept once per chain link, and
    the registers from the raw values kept once per register id; a
    restore re-feeds only the generators whose log changed, and only
    when their processes next step.  Under a dynamic adversary, whose
    crashes react to global state, every step runs on the kernel.
    """

    __slots__ = (
        "kernel", "table", "bypass", "memo", "links", "locals", "values",
        "live", "handler_runs", "restores",
    )

    def __init__(
        self, kernel: SMKernel, table: _StateTable, bypass: bool
    ) -> None:
        self.kernel = kernel
        self.table = table
        #: Run every step on the kernel (a dynamic adversary).
        self.bypass = bypass
        self.memo: Dict[Tuple[int, int], Tuple] = {}
        #: Chain id -> ``(parent chain id, raw result)``, first seen.
        self.links: Dict[int, Tuple[int, Any]] = {}
        #: Local-state id -> ``(its _sm_local key, raw decision)``.
        self.locals: Dict[int, Tuple[Tuple, Any]] = {}
        #: Register id -> the raw value, first seen.
        self.values: Dict[int, Any] = {}
        #: The node the live kernel sits at (by identity), if any.
        self.live: Optional[_SMNode] = None
        #: Steps computed on the kernel.
        self.handler_runs = 0
        #: Kernel restores (materializations and frontier roots).
        self.restores = 0

    # -- raw values behind the ids -------------------------------------------

    def _link(self, log_id: int, entry: Any) -> int:
        """Chain ``entry`` onto log ``log_id``; keep the raw entry."""
        link = self.table.intern((log_id, _freeze(entry)))
        if link not in self.links:
            self.links[link] = (log_id, entry)
        return link

    def _local(self, key: Tuple, decision: Any) -> int:
        """Intern local-state ``key``; keep the raw decision."""
        local = self.table.intern(key)
        if local not in self.locals:
            self.locals[local] = (key, decision)
        return local

    def _register(self, value: Any) -> int:
        reg = self.table.intern((_freeze(value),))
        if reg not in self.values:
            self.values[reg] = value
        return reg

    def _log(self, log_id: int) -> Tuple[Any, ...]:
        """The results log with chain id ``log_id``, in order."""
        links = self.links
        entries = []
        while log_id != _EMPTY_LOG:
            log_id, entry = links[log_id]
            entries.append(entry)
        entries.reverse()
        return tuple(entries)

    # -- kernel -----------------------------------------------------------------

    def root(self) -> _SMNode:
        """The live kernel's current state as a node, built from scratch."""
        kernel = self.kernel
        node = _sm_state_ids(kernel, self.table)
        for state in kernel._states:
            log_id = _EMPTY_LOG
            for entry in state.results_log:
                log_id = self._link(log_id, entry)
            self._local(_sm_local(state, log_id), state.decision)
        for value in kernel.registers.current_values():
            self._register(value)
        self.live = node
        return node

    def load(self, snapshot: SMSnapshot) -> None:
        """Restore the kernel to a frontier root."""
        self.kernel.restore(snapshot)
        self.restores += 1
        self.live = None

    def snapshot(self, node: _SMNode, path: Sequence[int]) -> SMSnapshot:
        """The kernel snapshot of ``node``, reached by choice ``path``."""
        processes = []
        for log_id, local in zip(node.logs, node.procs):
            key, decision = self.locals[local]
            processes.append((self._log(log_id), key[0], key[1], decision))
        values = self.values
        return SMSnapshot(
            choices=tuple(path),
            processes=tuple(processes),
            registers=tuple([values[reg] for reg in node.regs]),
            crashed=node.crashed,
        )

    def materialize(self, node: _SMNode, path: Sequence[int]) -> SMKernel:
        """The live kernel, restored to ``node`` unless it sits there."""
        if self.live is not node:
            self.kernel.restore(self.snapshot(node, path))
            self.restores += 1
            self.live = node
        return self.kernel

    def add_counts(self, result: ExplorationResult) -> None:
        result.handler_runs += self.handler_runs
        result.replays += self.restores
        result.replayed_steps += self.kernel.refed_results

    # -- steps ------------------------------------------------------------------

    def step(self, node: _SMNode, pid: int, path: Sequence[int]) -> _SMNode:
        """The node ``pid``'s next step reaches from ``node``.

        ``path`` is ``node``'s choice path, read only to materialize.
        """
        if self.bypass:
            return self._run(node, pid, path, None)
        key = (pid, node.procs[pid])
        op = self.memo.get(key)
        if op is None:
            return self._run(node, pid, path, key)
        kind = op[0]
        regs = node.regs
        decided = node.decided
        undecided = node.undecided
        if kind == _READ:
            results = op[2]
            reg = regs[op[1]]
            effect = results.get(reg)
            if effect is None:
                effect = results[reg] = self._read(node.procs[pid], reg)
            log_id, local = effect
        elif kind == _WRITE:
            _, reg, log_id, local = op
            regs = _put(regs, pid, reg)
        elif kind == _DECIDE:
            _, log_id, local, settled = op
            decided = _put(decided, pid, True)
            undecided -= settled
        else:
            runnable = tuple([p for p in node.runnable if p != pid])
            if kind == _HALT:
                return _SMNode(
                    self.table, node.logs, node.lens,
                    _put(node.procs, pid, op[1]), regs, node.crashed,
                    runnable, decided, undecided,
                )
            return _SMNode(
                self.table, node.logs, node.lens, node.procs, regs,
                node.crashed | {pid}, runnable, decided, undecided - op[1],
            )
        return _SMNode(
            self.table,
            _put(node.logs, pid, log_id),
            _put(node.lens, pid, node.lens[pid] + 1),
            _put(node.procs, pid, local),
            regs, node.crashed, node.runnable, decided, undecided,
        )

    def _read(self, local: int, reg: int) -> Tuple[int, int]:
        """``(log id, local-state id)`` after reading value id ``reg``."""
        key, decision = self.locals[local]
        link = self._link(key[3], self.values[reg])
        return link, self._local(key[:3] + (link,), decision)

    def _run(
        self,
        node: _SMNode,
        pid: int,
        path: Sequence[int],
        key: Optional[Tuple[int, int]],
    ) -> _SMNode:
        """Step the kernel from ``node``; memoize the operation under ``key``."""
        kernel = self.materialize(node, path)
        op = kernel.step_pid(pid)
        self.handler_runs += 1
        state = kernel._states[pid]
        log = state.results_log
        logs, lens = node.logs, node.lens
        if len(log) != lens[pid]:
            logs = _put(logs, pid, self._link(logs[pid], log[-1]))
            lens = _put(lens, pid, len(log))
        child = _SMNode(
            self.table, logs, lens,
            _put(node.procs, pid, self._local(
                _sm_local(state, logs[pid]), state.decision
            )),
            _put(node.regs, pid, self._register(kernel.registers.current(pid))),
            frozenset(kernel._crashed), tuple(kernel._runnable),
            _put(node.decided, pid, state.decided), kernel._undecided,
        )
        if key is not None:
            self.memo[key] = _operation(op, pid, node, child)
        self.live = child
        return child


def _operation(op: Optional[Op], pid: int, node: _SMNode, child: _SMNode) -> Tuple:
    """The memo entry of the step of ``pid`` that took ``node`` to ``child``."""
    settled = node.undecided - child.undecided
    if op is None:
        if pid in child.crashed:
            return (_CRASH, settled)
        return (_HALT, child.procs[pid])
    if isinstance(op, Read):
        return (
            _READ, op.owner,
            {node.regs[op.owner]: (child.logs[pid], child.procs[pid])},
        )
    if isinstance(op, Write):
        return (_WRITE, child.regs[pid], child.logs[pid], child.procs[pid])
    return (_DECIDE, child.logs[pid], child.procs[pid], settled)


def _setup_sm(search: _Search) -> _Setup:
    """``(transitions, config, result, store)`` of one SM search."""
    kernel, cfg, result, store = _setup(search, _fresh_sm_kernel(
        search.factory, search.inputs, search.t, search.crash_adversary,
    ))
    trans = _SMTransitions(
        kernel, cfg.table, _is_dynamic(search.crash_adversary)
    )
    return trans, cfg, result, store


class _SMFrame:
    """One SM DFS branch point: a node and the pids still to step."""

    __slots__ = ("node", "choices", "idx")

    def __init__(self, node: _SMNode, choices: Tuple[int, ...]) -> None:
        self.node = node
        self.choices = choices    # pids to explore, descending
        self.idx = 0


def _process_sm_node(
    trans: _SMTransitions,
    node: _SMNode,
    path: List[int],
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
) -> Optional[_SMFrame]:
    """Count/dedup/judge one node; return a frame to expand.

    ``path`` is the node's choice path (the DFS's own list, read and
    never kept).  Cache hits and leaves have no frame.  The frame steps
    the runnable pids in descending order.
    """
    if cfg.sym is not None:
        fingerprint, identity = cfg.sym.canonical(
            node, lambda at: trans.materialize(at, path)
        )
        result.stats.canonicalizations += 1
    else:
        fingerprint, identity = _fingerprint_sm(node), True
    if store.probe(fingerprint, NO_SLEEP) is None:
        if not identity:
            result.stats.orbit_hits += 1
        return None
    result.states += 1
    runnable = node.runnable
    if not node.undecided or not runnable:
        _judge_leaf(
            trans.materialize(node, path), tuple(path), cfg.judge, result
        )
        return None
    return _SMFrame(node, runnable[::-1])


def _run_sm_dfs(
    trans: _SMTransitions,
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
) -> None:
    """Depth-first search from the live SM kernel's current state.

    The search walks nodes: a child is its parent with the memoized
    operation of the stepping process applied (see
    :class:`_SMTransitions`), and the kernel runs only where the memo
    has no answer.  ``path`` holds the choices from the search's root
    down to the node being processed; a frame at stack depth ``d``
    stands for its first ``base + d`` entries.
    """
    path = list(trans.kernel.choices)
    base = len(path)
    if result.states >= cfg.max_states:
        result.exhausted = False
        return
    frame = _process_sm_node(trans, trans.root(), path, cfg, result, store)
    if cfg.stop_on_violation and result.violations:
        result.exhausted = False
        return
    stack = [] if frame is None else [frame]
    while stack:
        frame = stack[-1]
        if frame.idx >= len(frame.choices):
            stack.pop()
            continue
        if result.states >= cfg.max_states:
            result.exhausted = False
            return
        pid = frame.choices[frame.idx]
        frame.idx += 1
        del path[base + len(stack) - 1:]
        child = trans.step(frame.node, pid, path)
        path.append(pid)
        frame = _process_sm_node(trans, child, path, cfg, result, store)
        if cfg.stop_on_violation and result.violations:
            result.exhausted = False
            return
        if frame is not None:
            stack.append(frame)


def _sm_children(
    trans: _SMTransitions,
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
    root: SMSnapshot,
) -> List[SMSnapshot]:
    """Process one SM frontier node; return its children's snapshots."""
    trans.load(root)
    path = list(root.choices)
    frame = _process_sm_node(trans, trans.root(), path, cfg, result, store)
    if frame is None:
        return []
    return [
        trans.snapshot(trans.step(frame.node, pid, path), path + [pid])
        for pid in reversed(frame.choices)
    ]


def _sm_frontier_worker(task: _Subtree) -> ExplorationResult:
    """Explore one SM frontier subtree in a fresh process (or inline)."""
    trans, cfg, result, store = _setup_sm(task.search)
    trans.load(task.root)
    _run_sm_dfs(trans, cfg, result, store)
    return _finish(result, store, cfg, trans)


def explore_sm(
    programs_factory: Callable[[], Sequence],
    inputs: Sequence[Value],
    k: int,
    t: int,
    validity: ValidityCondition,
    crash_adversary=None,
    max_states: int = 100_000,
    verify: bool = False,
    jobs: Optional[int] = None,
    visited: str = "exact",
    symmetry: bool = False,
    stop_on_violation: bool = False,
) -> ExplorationResult:
    """Explore every process interleaving of a shared-memory instance.

    The depth-first search walks hash-consed nodes (:class:`_SMNode`):
    a program's generator is a pure function of its context and of its
    logged operation results, so a process's next operation is memoized
    per ``(pid, local-state id)`` and applied to the node's ids, and
    the one live kernel runs a generator only when the memo has no
    answer (see :class:`_SMTransitions`).  Generator frames cannot be
    copied, so materializing the kernel at a node restores the results
    logs (:meth:`SMKernel.restore`), which re-feeds generators only for
    the processes whose log changed.  States are deduplicated via
    :func:`_fingerprint_sm`.  No POR applies: distinct processes'
    register operations do not commute.  Nothing bounds a run's length
    but ``max_states``: a program that spins keeps the search on one
    ever-deeper path.

    ``jobs`` distributes the frontier of snapshots across worker
    processes, merged deterministically (``programs_factory`` must then
    be picklable, e.g. a :class:`SpecFactory`).  ``visited``,
    ``symmetry`` and ``stop_on_violation`` match :func:`explore_mp`.
    """
    search = _Search(
        factory=programs_factory, inputs=tuple(inputs), k=k, t=t,
        validity=validity, crash_adversary=crash_adversary,
        max_states=max_states, verify=verify, visited=visited,
        symmetry=symmetry, stop_on_violation=stop_on_violation,
    )
    setup = _setup_sm(search)
    trans, cfg, result, store = setup
    if jobs is None:
        _run_sm_dfs(trans, cfg, result, store)
    else:
        _explore_frontier(
            search, setup, trans.kernel.snapshot(), _sm_children,
            _sm_frontier_worker, jobs,
        )
    return _finish(result, store, cfg, trans)


# ---------------------------------------------------------------------------
# picklable factories and crash-pattern enumeration


class SpecFactory:
    """Picklable process/program-list factory for a registry spec.

    Worker processes cannot unpickle lambdas; frontier exploration with
    ``jobs > 1`` therefore takes its factory in this form.  Calling the
    factory builds ``n`` fresh protocol instances via the spec's
    ``make`` hook.
    """

    def __init__(self, name: str, n: int, k: int, t: int) -> None:
        self.name = name
        self.n = n
        self.k = k
        self.t = t

    def __call__(self):
        import repro.protocols  # noqa: F401 -- populate the registry
        from repro.protocols.base import get_spec

        spec = get_spec(self.name)
        return [spec.make(self.n, self.k, self.t) for _ in range(self.n)]

    def __repr__(self) -> str:
        return (
            f"SpecFactory({self.name!r}, n={self.n}, k={self.k}, t={self.t})"
        )


def crash_patterns(
    n: int,
    t: int,
    max_sends: int,
    include_step_crashes: bool = True,
) -> List[Optional[CrashPlan]]:
    """Enumerate a family of crash plans within budget ``t``.

    Produces the failure-free plan, every single-victim plan crashing a
    process after ``0 .. max_sends`` sends (partial broadcasts), and --
    when ``include_step_crashes`` -- crash-before-step variants.  Combine
    with :func:`explore_mp` to quantify over failures as well as
    schedules.
    """
    plans: List[Optional[CrashPlan]] = [None]
    if t < 1:
        return plans
    for victim in range(n):
        for sends in range(max_sends + 1):
            plans.append(CrashPlan({victim: CrashPoint(after_sends=sends)}))
        if include_step_crashes:
            plans.append(CrashPlan({victim: CrashPoint(after_steps=0)}))
            plans.append(CrashPlan({victim: CrashPoint(after_steps=1)}))
    if t >= 2:
        for v1, v2 in itertools.combinations(range(n), 2):
            plans.append(CrashPlan({
                v1: CrashPoint(after_steps=0),
                v2: CrashPoint(after_sends=max_sends // 2),
            }))
    return plans
