"""Exhaustive schedule exploration for small instances.

Monte-Carlo sweeps sample the schedule space; for small ``n`` the
kernels' nondeterminism can be explored *completely*: every interleaving
of pending events (and optionally every crash pattern) is enumerated by
depth-first search over kernel states.  A protocol property verified
here holds for **all** asynchronous runs of the instance, which is the
actual quantifier in the paper's lemmas.

Three cooperating mechanisms keep the search fast:

* **Snapshot/restore forking.**  Branch points capture kernel state with
  the plain-data snapshot protocol (:meth:`MPKernel.snapshot` /
  :meth:`MPKernel.restore`, :meth:`SMKernel.snapshot` /
  :meth:`SMKernel.restore`).  MP snapshots are copy-on-write per
  process: a snapshot copies only the processes that ran a handler since
  their last copy, and a restore re-installs only the processes whose
  live state is not the snapshot's, so a backtrack re-installs the
  processes the abandoned branch stepped and no other.  Shared-memory
  programs are generators and cannot be copied at all, so an SM
  snapshot holds each process's results log instead, and a restore
  drops only the generators whose log changed; their next step rebuilds
  them by re-feeding the logged results (a program's generator is a
  pure function of its context and of the results fed to it).  The
  independent references are the full DFS (``por=False``) and the
  fresh-kernel replay of every recorded violation in
  :func:`repro.verify.confirm_exploration`.

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
  shared memory.  DFS entries carry the resulting id vectors, and a
  step re-interns only the process it targeted (on shared memory, plus
  that process's own register).

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
from collections import Counter, deque
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
from repro.harness.visited import EXPAND_ALL, NO_SLEEP, CompactStore, ExactStore
from repro.runtime.events import Delivery, Event
from repro.runtime.kernel import MPKernel
from repro.runtime.process import Process
from repro.runtime.traces import TraceMode
from repro.shm.kernel import SMKernel, SMSnapshot

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
    #: Store hits at states whose canonical representative is a proper
    #: renaming of the raw state -- hits attributable to symmetry.
    orbit_hits: int = 0


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
    #: Shared-memory engine only: kernel restores (backtracks and
    #: frontier roots)...
    replays: int = 0
    #: ...and the logged results re-fed into the generators those
    #: restores dropped, when their processes next stepped.
    replayed_steps: int = 0
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
    total.stats.canonicalizations += part.stats.canonicalizations
    total.stats.orbit_hits += part.stats.orbit_hits


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


class _StateIds:
    """The hash-consed coordinates of one MP kernel state.

    ``procs[pid]`` is the id of process ``pid``'s local state and
    ``sigs[seq]`` the signature id of pending event ``seq``.  Built from
    scratch by :func:`_state_ids`.  A DFS child starts as
    :meth:`after_step` of its frame's coordinates and is completed by
    :meth:`resolve`, which re-freezes only the process that stepped.
    The fingerprint layer (:func:`_fingerprint_mp`, or the symmetry
    canonicalizer) resolves, so that work counts as fingerprinting.
    """

    __slots__ = ("table", "procs", "sigs", "_step")

    def __init__(
        self,
        table: _StateTable,
        procs: Optional[Tuple[int, ...]],
        sigs: Optional[Dict[int, int]],
        step: Optional[Tuple] = None,
    ) -> None:
        self.table = table
        self.procs = procs
        self.sigs = sigs
        #: ``(parent procs, parent sigs, seq, target, first new seq)`` of
        #: a step not yet folded in; ``procs``/``sigs`` are ``None`` until
        #: then.
        self._step = step

    def after_step(
        self, seq: int, target: int, first_new: int
    ) -> "_StateIds":
        """Unresolved coordinates of the state ``kernel.step(seq)`` reaches."""
        return _StateIds(
            self.table, None, None,
            (self.procs, self.sigs, seq, target, first_new),
        )

    def resolve(self, kernel: MPKernel) -> "_StateIds":
        """Fold a pending step in (a no-op once resolved).

        A step changes only its target's local state (the fact POR's
        independence relation rests on too), consumes event ``seq`` and
        schedules the events numbered ``first_new`` onwards; crash sets
        and counters are not part of the coordinates.
        """
        if self._step is None:
            return self
        procs, sigs, seq, target, first_new = self._step
        self._step = None
        intern = self.table.intern
        state = intern(_local_state(
            kernel._processes[target], kernel._contexts[target]
        ))
        self.procs = procs[:target] + (state,) + procs[target + 1:]
        sigs = sigs.copy()
        del sigs[seq]
        pending = kernel._pending
        for new in range(first_new, kernel._seq):
            sigs[new] = intern(_event_sig(pending[new]))
        self.sigs = sigs
        return self


def _state_ids(kernel: MPKernel, table: _StateTable) -> _StateIds:
    """Build a state's coordinates from scratch (roots, references)."""
    intern = table.intern
    return _StateIds(
        table,
        tuple([
            intern(_local_state(process, ctx))
            for process, ctx in zip(kernel._processes, kernel._contexts)
        ]),
        {seq: intern(_event_sig(event)) for seq, event in kernel._pending.items()},
    )


def _fingerprint_mp(
    kernel: MPKernel, ids: _StateIds, include_counters: bool
) -> Tuple:
    """Structural state of an MP kernel, as hash-consed ids.

    The sorted pending-signature ids, the per-process state ids, the
    crashed set, and the counters.  Two kernel states with the same
    fingerprint have identical futures, so only one needs expansion.
    ``include_counters`` adds the per-process step/send counters; they
    are part of the future-relevant state exactly when a crash adversary
    is present (crash points are counter-indexed), and omitting them
    otherwise lets states that differ only in history collapse.
    """
    ids.resolve(kernel)
    counters = (
        (tuple(kernel._steps_taken), tuple(kernel._sends_made))
        if include_counters else ()
    )
    return (
        tuple(sorted(ids.sigs.values())),
        ids.procs,
        tuple(sorted(kernel._crashed)),
        counters,
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


class _SMStateIds:
    """The hash-consed coordinates of one SM kernel state.

    ``logs[pid]`` is the chain id of process ``pid``'s results log and
    ``lens[pid]`` its length, ``procs[pid]`` the id of its local state
    (:func:`_sm_local`) and ``regs[owner]`` the id of register
    ``owner``'s value, interned as the 1-tuple ``(_freeze(value),)``.
    Chain keys are pairs and local-state keys 4-tuples, so the three
    kinds never share an id.  Built from scratch by
    :func:`_sm_state_ids`.  A DFS child starts as :meth:`after_step` of
    its parent's coordinates and is completed by :meth:`resolve`, which
    re-interns only the process that stepped and that process's own
    register (registers are single-writer).  The fingerprint layer
    (:func:`_fingerprint_sm`, or the symmetry canonicalizer) resolves,
    so that work counts as fingerprinting.
    """

    __slots__ = ("table", "logs", "lens", "procs", "regs", "_step")

    def __init__(
        self,
        table: _StateTable,
        logs: Optional[Tuple[int, ...]],
        lens: Optional[Tuple[int, ...]],
        procs: Optional[Tuple[int, ...]],
        regs: Optional[Tuple[int, ...]],
        step: Optional[Tuple["_SMStateIds", int]] = None,
    ) -> None:
        self.table = table
        self.logs = logs
        self.lens = lens
        self.procs = procs
        self.regs = regs
        #: ``(parent coordinates, stepped pid)`` of a step not yet
        #: folded in; the other fields are ``None`` until then.
        self._step = step

    def after_step(self, pid: int) -> "_SMStateIds":
        """Unresolved coordinates of the state ``kernel.step_pid(pid)`` reaches."""
        return _SMStateIds(self.table, None, None, None, None, (self, pid))

    def resolve(self, kernel: SMKernel) -> "_SMStateIds":
        """Fold a pending step in (a no-op once resolved).

        A step appends at most one result to the stepped process's log
        and writes at most its own register; crashes are read from the
        kernel and are not part of the coordinates.
        """
        if self._step is None:
            return self
        parent, pid = self._step
        self._step = None
        intern = self.table.intern
        state = kernel._states[pid]
        log = state.results_log
        logs, lens = parent.logs, parent.lens
        if len(log) != lens[pid]:
            changed = list(logs)
            changed[pid] = intern((logs[pid], _freeze(log[-1])))
            logs = tuple(changed)
            changed = list(lens)
            changed[pid] = len(log)
            lens = tuple(changed)
        self.logs, self.lens = logs, lens
        changed = list(parent.procs)
        changed[pid] = intern(_sm_local(state, logs[pid]))
        self.procs = tuple(changed)
        changed = list(parent.regs)
        changed[pid] = intern((_freeze(kernel.registers.current(pid)),))
        self.regs = tuple(changed)
        return self


def _sm_state_ids(kernel: SMKernel, table: _StateTable) -> _SMStateIds:
    """Build a state's coordinates from scratch (roots, references)."""
    intern = table.intern
    logs = tuple([
        _chain(table, _EMPTY_LOG, state.results_log)
        for state in kernel._states
    ])
    return _SMStateIds(
        table,
        logs,
        tuple([len(state.results_log) for state in kernel._states]),
        tuple([
            intern(_sm_local(state, log_id))
            for state, log_id in zip(kernel._states, logs)
        ]),
        tuple([
            intern((_freeze(value),))
            for value in kernel.registers.current_values()
        ]),
    )


def _fingerprint_sm(kernel: SMKernel, ids: _SMStateIds) -> Tuple:
    """Structural state of an SM kernel, as hash-consed ids.

    The per-process local-state ids, the register ids and the sorted
    crashed set.  Generator frames are opaque, but a program's
    generator is a pure function of its context and of the operation
    results fed into it (``results_log``), so logging results makes SM
    states fingerprintable.
    """
    ids.resolve(kernel)
    return (ids.procs, ids.regs, tuple(sorted(kernel._crashed)))


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
    :class:`SMSnapshot` on shared memory.
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


#: What a set-up function returns: a fresh kernel (MP or SM), the
#: search's constants, an empty result and a visited store.
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
    result: ExplorationResult, store: ExactStore
) -> ExplorationResult:
    """The one exit of every search: add its own store's counters."""
    result.cache_hits += store.hits
    result.cache_misses += store.misses
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

    ``children(kernel, cfg, result, store, node)`` processes one
    frontier node and returns its child nodes; ``worker`` explores one
    :class:`_Subtree`.  The frontier width is a constant (not a
    function of ``jobs``) and subtree results are merged in frontier
    order, so the merged result is identical for every worker count.
    Worker subtrees use private stores; cross-subtree duplicates are
    re-explored rather than shared, which costs work but keeps the
    decomposition deterministic.
    """
    kernel, cfg, result, store = setup
    queue: deque = deque([root])
    while queue and len(queue) < _FRONTIER_WIDTH:
        if result.states >= cfg.max_states:
            result.exhausted = False
            return
        queue.extend(children(kernel, cfg, result, store, queue.popleft()))
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


def _setup_mp(search: _Search) -> _Setup:
    """``(kernel, config, result, store)`` of one MP search."""
    adversary = search.crash_adversary
    return _setup(
        search,
        _fresh_mp_kernel(search.factory, search.inputs, search.t, adversary),
        por=search.por and not _is_dynamic(adversary),
        include_counters=_mp_counters_matter(adversary),
        may_crash=_may_crash_set(adversary),
    )


class _Frame:
    """One DFS branch point: a snapshot plus its unexplored choices."""

    __slots__ = (
        "snapshot", "path", "sleep", "choices", "idx", "target", "may_crash",
        "fresh", "ids",
    )

    def __init__(self, snapshot, path, sleep, choices, target, may_crash, ids):
        self.snapshot = snapshot
        self.path = path
        self.sleep = sleep            # Set[int]: slept seqs at this node
        self.choices = choices        # List[int]: seqs to explore, ascending
        self.idx = 0
        self.target = target          # Dict[seq -> target pid]
        self.may_crash = may_crash    # Dict[seq -> event is crash-capable]
        self.fresh = True             # live kernel still sits at `snapshot`
        self.ids = ids                # _StateIds of `snapshot`

    def advance(self, kernel: MPKernel) -> int:
        """Step the live kernel into the next child; return its event seq.

        Descending into the first child of a fresh frame costs a single
        :meth:`MPKernel.step`; later children restore the snapshot first.
        """
        seq = self.choices[self.idx]
        self.idx += 1
        if not self.fresh:
            kernel.restore(self.snapshot)
        self.fresh = False
        kernel.step(seq)
        return seq


def _process_mp_node(
    kernel: MPKernel,
    path: Tuple[int, ...],
    sleep: Set[int],
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
    ids: _StateIds,
) -> Optional[_Frame]:
    """Count/dedup/judge the live kernel state; return a frame to expand.

    ``ids`` are the state's hash-consed coordinates; fingerprinting
    resolves them before they are read here.  Returns ``None`` for cache
    hits, leaves, and fully-slept nodes.  On a revisit whose sleep set
    is incomparable to the stored coverage, the returned frame expands
    only the still-uncovered choices.
    """
    pending = kernel._pending
    if cfg.sym is not None:
        # Canonical store coordinates: the fingerprint *and* every
        # sleep/re-expansion signature are renamed by the same
        # canonicalizing permutation, so Godefroid bookkeeping
        # operates consistently inside each symmetry orbit.
        fp, keys, identity = cfg.sym.canonical(
            kernel, ids, cfg.include_counters
        )
        result.stats.canonicalizations += 1
    else:
        identity = True
        fp = _fingerprint_mp(kernel, ids, cfg.include_counters)
        # The signature id of every pending event, in store coordinates.
        keys = ids.sigs
    sleep_sig = Counter([keys[seq] for seq in sleep]) if sleep else NO_SLEEP
    to_expand = store.probe(fp, sleep_sig)
    if to_expand is None:
        if not identity:
            result.stats.orbit_hits += 1
        return None
    if to_expand is EXPAND_ALL:
        result.states += 1
    else:
        result.reexpansions += 1
    if kernel.all_correct_decided() or not pending:
        _judge_leaf(kernel, path, cfg.judge, result)
        store.set_covered(fp)
        return None
    if to_expand is EXPAND_ALL:
        choices = [seq for seq in sorted(pending) if seq not in sleep]
    else:
        # Partial re-expansion: only events slept at the first visit but
        # not now.  Structurally identical events are interchangeable,
        # so any non-slept pending event with a needed signature serves.
        need = dict(to_expand)
        choices = []
        for seq in sorted(pending):
            if seq in sleep:
                continue
            key = keys[seq]
            if need.get(key, 0) > 0:
                need[key] -= 1
                choices.append(seq)
    result.sleep_pruned += len(pending) - len(choices)
    if not choices:
        # Every continuation here is covered by a sibling's subtree.
        return None
    target = {seq: _event_target(pending[seq]) for seq in pending}
    crashed = kernel._crashed
    may_crash = {
        seq: tgt in cfg.may_crash and tgt not in crashed
        for seq, tgt in target.items()
    }
    return _Frame(
        kernel.snapshot(), path, sleep, choices, target, may_crash, ids
    )


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
    kernel: MPKernel,
    path: Tuple[int, ...],
    sleep: Set[int],
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
) -> None:
    """Depth-first exploration from the kernel's current state.

    One live kernel serves the whole search (see :meth:`_Frame.advance`).
    A child's state ids derive from its frame's by re-freezing only the
    process that stepped.
    """
    root = _process_mp_node(
        kernel, path, sleep, cfg, result, store,
        _state_ids(kernel, cfg.table),
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
        seq = frame.advance(kernel)
        child = _process_mp_node(
            kernel,
            frame.path + (seq,),
            _child_sleep(frame, seq, cfg.por),
            cfg, result, store,
            frame.ids.after_step(seq, frame.target[seq], frame.snapshot.seq),
        )
        if cfg.stop_on_violation and result.violations:
            result.exhausted = False
            return
        if child is not None:
            stack.append(child)


def _mp_children(
    kernel: MPKernel,
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
    node: Tuple[Any, Tuple[int, ...], Tuple[int, ...]],
) -> List[Tuple]:
    """Process one MP frontier node; return its children as new roots."""
    snapshot, path, sleep = node
    kernel.restore(snapshot)
    frame = _process_mp_node(
        kernel, path, set(sleep), cfg, result, store,
        _state_ids(kernel, cfg.table),
    )
    children = []
    while frame is not None and frame.idx < len(frame.choices):
        seq = frame.advance(kernel)
        child_sleep = tuple(sorted(_child_sleep(frame, seq, cfg.por)))
        children.append((kernel.snapshot(), path + (seq,), child_sleep))
    return children


def _mp_frontier_worker(task: _Subtree) -> ExplorationResult:
    """Explore one MP frontier subtree in a fresh process (or inline)."""
    kernel, cfg, result, store = _setup_mp(task.search)
    snapshot, path, sleep = task.root
    kernel.restore(snapshot)
    _run_mp_dfs(kernel, path, set(sleep), cfg, result, store)
    return _finish(result, store)


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
    kernel, cfg, result, store = setup
    if jobs is None:
        _run_mp_dfs(kernel, (), set(), cfg, result, store)
    else:
        _explore_frontier(
            search, setup, (kernel.snapshot(), (), ()), _mp_children,
            _mp_frontier_worker, jobs,
        )
    return _finish(result, store)


# ---------------------------------------------------------------------------
# shared-memory exploration


#: Tick budget of one shared-memory run: a safety valve against
#: non-terminating programs.
_SM_MAX_TICKS = 5_000


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
        max_ticks=_SM_MAX_TICKS,
        trace_mode=TraceMode.OFF,
    )
    kernel._apply_dynamic_crashes()
    return kernel


def _setup_sm(search: _Search) -> _Setup:
    """``(kernel, config, result, store)`` of one SM search."""
    return _setup(search, _fresh_sm_kernel(
        search.factory, search.inputs, search.t, search.crash_adversary,
    ))


#: A shared-memory DFS entry: ``(parent snapshot, parent ids, pid)``.
_SMEntry = Tuple[SMSnapshot, _SMStateIds, int]


def _process_sm_node(
    kernel: SMKernel,
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
    ids: _SMStateIds,
) -> List[_SMEntry]:
    """Count/dedup/judge the live SM kernel state; return its children.

    ``ids`` are the state's hash-consed coordinates; fingerprinting
    resolves them before they are read here.  Cache hits and leaves
    have no children; the children of an expanded node share one
    snapshot of it.
    """
    if cfg.sym is not None:
        fingerprint, identity = cfg.sym.canonical(kernel, ids)
        result.stats.canonicalizations += 1
    else:
        fingerprint, identity = _fingerprint_sm(kernel, ids), True
    if store.probe(fingerprint, NO_SLEEP) is None:
        if not identity:
            result.stats.orbit_hits += 1
        return []
    result.states += 1
    runnable = kernel.runnable_pids()
    if kernel.all_correct_decided() or not runnable:
        _judge_leaf(kernel, kernel.choices, cfg.judge, result)
        return []
    snapshot = kernel.snapshot()
    return [(snapshot, ids, pid) for pid in runnable]


def _run_sm_dfs(
    kernel: SMKernel,
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
) -> None:
    """Depth-first search from the live SM kernel's current state.

    One live kernel serves the whole search.  Descending into the child
    pushed last costs a single :meth:`SMKernel.step_pid`; every other
    child first restores its parent's snapshot (:meth:`SMKernel.restore`,
    counted in ``replays``), which re-feeds generators only for the
    processes whose log changed, and only when they next step.  A
    child's state ids derive from its parent's by re-interning only the
    process that stepped.
    """
    ids = _sm_state_ids(kernel, cfg.table)
    stack: List[_SMEntry] = []
    live: Optional[SMSnapshot] = None  # the snapshot the kernel sits at
    while True:
        if result.states >= cfg.max_states:
            result.exhausted = False
            return
        children = _process_sm_node(kernel, cfg, result, store, ids)
        if cfg.stop_on_violation and result.violations:
            result.exhausted = False
            return
        stack.extend(children)
        live = children[0][0] if children else None
        if not stack:
            return
        snapshot, parent, pid = stack.pop()
        if snapshot is not live:
            kernel.restore(snapshot)
            result.replays += 1
        kernel.step_pid(pid)
        ids = parent.after_step(pid)


def _sm_children(
    kernel: SMKernel,
    cfg: _Config,
    result: ExplorationResult,
    store: ExactStore,
    node: SMSnapshot,
) -> List[SMSnapshot]:
    """Process one SM frontier node; return its children's snapshots."""
    kernel.restore(node)
    result.replays += 1
    children = []
    for snapshot, _, pid in _process_sm_node(
        kernel, cfg, result, store, _sm_state_ids(kernel, cfg.table)
    ):
        if children:
            kernel.restore(snapshot)
            result.replays += 1
        kernel.step_pid(pid)
        children.append(kernel.snapshot())
    return children


def _sm_frontier_worker(task: _Subtree) -> ExplorationResult:
    """Explore one SM frontier subtree in a fresh process (or inline)."""
    kernel, cfg, result, store = _setup_sm(task.search)
    kernel.restore(task.root)
    result.replays += 1
    _run_sm_dfs(kernel, cfg, result, store)
    result.replayed_steps += kernel.refed_results
    return _finish(result, store)


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

    Generator-based SM programs cannot be forked, so one live kernel is
    extended step-by-step along depth-first descents and a backtrack
    restores a snapshot of the results logs (:meth:`SMKernel.restore`),
    which re-feeds generators only for the processes whose log changed.
    States are deduplicated via :func:`_fingerprint_sm` (a generator's
    hidden state is a pure function of its logged operation results).
    No POR applies: distinct processes' register operations do not
    commute.  Each run gets a budget of ``_SM_MAX_TICKS`` kernel ticks.

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
    kernel, cfg, result, store = setup
    if jobs is None:
        _run_sm_dfs(kernel, cfg, result, store)
    else:
        _explore_frontier(
            search, setup, kernel.snapshot(), _sm_children,
            _sm_frontier_worker, jobs,
        )
    result.replayed_steps += kernel.refed_results
    return _finish(result, store)


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
