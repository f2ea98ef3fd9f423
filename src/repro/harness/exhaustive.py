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
  :meth:`MPKernel.restore`) instead of ``copy.deepcopy``; the legacy
  deepcopy engine is kept behind ``engine="deepcopy"`` as the
  correctness/bench baseline.  Shared-memory programs are generators and
  cannot be copied at all, so :func:`explore_sm` shares prefixes: one
  live kernel is *extended* along depth-first descents and replayed only
  on backtracks.

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
  is what makes caching sound under sleep sets.  Hit/miss counters are
  reported on every result.

:func:`explore_mp` and :func:`explore_sm` also take ``jobs``: the root
fan-out is expanded breadth-first into a fixed-width frontier whose
subtrees are distributed over worker processes with
:func:`repro.harness.parallel.parallel_map`, and the per-subtree results
are merged in frontier order -- so the merged result is bit-identical
for every jobs count (``--jobs 1`` vs ``--jobs 8`` agree exactly).

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
import operator
from collections import Counter, deque
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.core.problem import SCProblem
from repro.core.validity import ValidityCondition
from repro.core.values import Value
from repro.failures.adversary import CrashAdversary
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.parallel import parallel_map
from repro.harness.visited import EXPAND_ALL, NO_SLEEP, CompactStore, ExactStore
from repro.runtime.events import Delivery, Event, Start
from repro.runtime.kernel import MPKernel
from repro.runtime.process import Process
from repro.runtime.traces import TraceMode

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
    #: Shared-memory engine only: prefix replays performed on backtrack...
    replays: int = 0
    #: ...and the total steps re-executed by those replays.
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
    so the sleep component of a store key uses this structural form.
    """
    if isinstance(event, Delivery):
        return (1, event.sender, event.receiver, _freeze(event.payload))
    return (0, event.pid)


def _event_target(event: Event) -> int:
    """The process whose local state the event's execution touches."""
    return event.receiver if isinstance(event, Delivery) else event.pid


class _SigCache:
    """Memoized :func:`_event_sig`, keyed by event identity.

    Events are frozen dataclasses, so a signature never changes once
    computed; the same pending event is re-fingerprinted at every node
    it survives to, which made signature hashing the hottest path in
    the profile.  Entries keep a strong reference to their event, which
    pins its ``id`` for the cache's (per-exploration) lifetime.  The
    signature's ``repr`` -- the canonical sort key for the pending
    multiset -- is precomputed alongside it.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Event, Tuple, str]] = {}

    def sig(self, event: Event) -> Tuple:
        entry = self._entries.get(id(event))
        if entry is None:
            sig = _event_sig(event)
            entry = (event, sig, repr(sig))
            self._entries[id(event)] = entry
        return entry[1]

    def sig_and_key(self, event: Event) -> Tuple[Tuple, str]:
        entry = self._entries.get(id(event))
        if entry is None:
            sig = _event_sig(event)
            entry = (event, sig, repr(sig))
            self._entries[id(event)] = entry
        return entry[1], entry[2]


def _fingerprint_mp(
    kernel: MPKernel, include_counters: bool, sigs: _SigCache
) -> Tuple:
    """Structural state of an MP kernel: pending events + process states.

    Two kernel states with the same fingerprint have identical futures,
    so only one needs expansion.  ``include_counters`` adds the per-
    process step/send counters; they are part of the future-relevant
    state exactly when a crash adversary is present (crash points are
    counter-indexed), and omitting them otherwise lets states that
    differ only in history collapse.
    """
    pending = tuple(
        pair[0] for pair in sorted(
            (sigs.sig_and_key(event) for event in kernel._pending.values()),
            key=operator.itemgetter(1),
        )
    )
    processes = tuple(
        tuple(sorted(
            ((key, _freeze(value)) for key, value in p.__dict__.items()),
            key=repr,
        ))
        for p in kernel._processes
    )
    contexts = tuple(
        (ctx._decided, _freeze(ctx._decision)) for ctx in kernel._contexts
    )
    counters = (
        (tuple(kernel._steps_taken), tuple(kernel._sends_made))
        if include_counters else ()
    )
    return (pending, processes, contexts, tuple(sorted(kernel._crashed)), counters)


def _fingerprint_sm(kernel) -> Tuple:
    """Structural state of an SM kernel.

    Generator frames are opaque, but a deterministic generator's
    internal state is a pure function of the operation results fed into
    it (``results_log``), so logging results makes SM states
    fingerprintable -- and gives the SM explorer the deduplication the
    deepcopy-era code never had.
    """
    states = tuple(
        (
            st.finished,
            st.decided,
            _freeze(st.decision),
            st.ops_taken,
            tuple(_freeze(r) for r in st.results_log),
        )
        for st in kernel._states
    )
    registers = tuple(_freeze(v) for v in kernel.registers.current_values())
    return (states, registers, tuple(sorted(kernel._crashed)))


# The visited stores (exact / compact) live in
# :mod:`repro.harness.visited`; these aliases keep the explorer's
# long-standing internal names stable for tests and callers.
_EXPAND_ALL = EXPAND_ALL

_NO_SLEEP: Counter = NO_SLEEP

_VisitedStore = ExactStore

#: Visited-store kinds the ``visited`` argument selects by name.
_STORES = {"exact": ExactStore, "compact": CompactStore}


def _make_store(visited: str) -> _VisitedStore:
    if visited not in _STORES:
        raise ValueError(f"unknown visited store kind {visited!r}")
    return _STORES[visited]()


# ---------------------------------------------------------------------------
# message-passing exploration


@dataclasses.dataclass
class _MPConfig:
    """Per-exploration constants threaded through the MP engines."""

    judge: Callable
    max_states: int
    dedup: bool
    por: bool
    include_counters: bool
    #: Processes the adversary may still crash; events targeting one
    #: (while it is not yet crashed) are dependent on everything.
    may_crash: FrozenSet[int]
    #: Symmetry canonicalizer, or ``None`` when the reduction is off
    #: (see :func:`repro.harness.symmetry.mp_symmetry_context`).
    sym: Optional[Any] = None
    #: Per-exploration memo of event signatures (see :class:`_SigCache`).
    sigs: _SigCache = dataclasses.field(default_factory=_SigCache)
    #: Abandon the search at the first recorded violation.
    stop_on_violation: bool = False


def _is_dynamic(adversary: Optional[CrashAdversary]) -> bool:
    """Does the adversary override ``dynamic_crashes``?"""
    if adversary is None:
        return False
    return type(adversary).dynamic_crashes is not CrashAdversary.dynamic_crashes


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


class _Frame:
    """One DFS branch point: a snapshot plus its unexplored choices."""

    __slots__ = ("snapshot", "path", "sleep", "choices", "idx", "target", "may_crash", "fresh")

    def __init__(self, snapshot, path, sleep, choices, target, may_crash):
        self.snapshot = snapshot
        self.path = path
        self.sleep = sleep            # Set[int]: slept seqs at this node
        self.choices = choices        # List[int]: seqs to explore, ascending
        self.idx = 0
        self.target = target          # Dict[seq -> target pid]
        self.may_crash = may_crash    # Dict[seq -> event is crash-capable]
        self.fresh = True             # live kernel still sits at `snapshot`


def _sleep_sig(kernel: MPKernel, sleep: Set[int], sigs: _SigCache) -> Counter:
    """The sleep set as a multiset of structural event signatures.

    Sleep sets must survive fingerprint collapsing: two nodes with equal
    state fingerprints may number the *same* pending events differently,
    so store bookkeeping uses sequence-number-free signatures (and a
    multiset, because structurally identical events can coexist).
    """
    if not sleep:
        return _NO_SLEEP
    return Counter(sigs.sig(kernel._pending[seq]) for seq in sleep)


def _process_mp_node(
    kernel: MPKernel,
    path: Tuple[int, ...],
    sleep: Set[int],
    cfg: _MPConfig,
    result: ExplorationResult,
    store: _VisitedStore,
) -> Optional[_Frame]:
    """Count/dedup/judge the live kernel state; return a frame to expand.

    Returns ``None`` for cache hits, leaves, and fully-slept nodes.  On
    a revisit whose sleep set is incomparable to the stored coverage,
    the returned frame expands only the still-uncovered choices.
    """
    pending = kernel._pending
    fp = None
    sym_sigs = None
    to_expand = _EXPAND_ALL
    if cfg.dedup:
        if cfg.sym is not None:
            # Canonical store coordinates: the fingerprint *and* every
            # sleep/re-expansion signature are renamed by the same
            # canonicalizing permutation, so Godefroid bookkeeping
            # operates consistently inside each symmetry orbit.
            fp, sym_sigs, identity = cfg.sym.canonical(
                kernel, cfg.include_counters
            )
            result.stats.canonicalizations += 1
            if not sleep:
                sleep_sig = _NO_SLEEP
            else:
                sleep_sig = Counter(
                    store.sig_key(sym_sigs[id(pending[seq])])
                    for seq in sleep
                )
        else:
            identity = True
            fp = _fingerprint_mp(kernel, cfg.include_counters, cfg.sigs)
            if not sleep:
                sleep_sig = _NO_SLEEP
            elif type(store) is ExactStore:
                sleep_sig = _sleep_sig(kernel, sleep, cfg.sigs)
            else:
                sleep_sig = Counter(
                    store.sig_key(cfg.sigs.sig(pending[seq]))
                    for seq in sleep
                )
        to_expand = store.probe(fp, sleep_sig)
        if to_expand is None:
            if not identity:
                result.stats.orbit_hits += 1
            return None
    if to_expand is _EXPAND_ALL:
        result.states += 1
    else:
        result.reexpansions += 1
    if kernel.all_correct_decided() or not pending:
        _judge_leaf(kernel, path, cfg.judge, result)
        if fp is not None:
            store.set_covered(fp)
        return None
    if to_expand is _EXPAND_ALL:
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
            if sym_sigs is not None:
                key = store.sig_key(sym_sigs[id(pending[seq])])
            else:
                key = store.sig_key(cfg.sigs.sig(pending[seq]))
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
    return _Frame(kernel.snapshot(), path, sleep, choices, target, may_crash)


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
    cfg: _MPConfig,
    result: ExplorationResult,
    store: _VisitedStore,
) -> None:
    """Depth-first exploration from the kernel's current state.

    One live kernel serves the whole search: descending into the first
    child of a fresh frame costs a single :meth:`MPKernel.step`;
    visiting later children restores the frame's snapshot first.
    """
    root = _process_mp_node(kernel, path, sleep, cfg, result, store)
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
        if not frame.fresh:
            kernel.restore(frame.snapshot)
        frame.fresh = False
        kernel.step(seq)
        child = _process_mp_node(
            kernel,
            frame.path + (seq,),
            _child_sleep(frame, seq, cfg.por),
            cfg, result, store,
        )
        if cfg.stop_on_violation and result.violations:
            result.exhausted = False
            return
        if child is not None:
            stack.append(child)


def _explore_mp_deepcopy(
    process_factory, inputs, t, crash_adversary,
    cfg: _MPConfig,
    result: ExplorationResult,
    store: _VisitedStore,
) -> None:
    """The legacy engine: fork every branch with ``copy.deepcopy``.

    Kept as the snapshot engine's correctness and benchmark baseline
    (``engine="deepcopy"``).  Runs full DFS -- POR never applies -- but
    shares the fingerprint and store, so its state counts match the
    snapshot engine's full-DFS counts exactly; only the speed differs.
    """
    root = _fresh_mp_kernel(process_factory, inputs, t, crash_adversary)
    stack: List[Tuple[MPKernel, Tuple[int, ...]]] = [(root, ())]
    while stack:
        if result.states >= cfg.max_states:
            result.exhausted = False
            break
        kernel, path = stack.pop()
        result.states += 1
        if kernel.all_correct_decided() or not kernel._pending:
            _judge_leaf(kernel, path, cfg.judge, result)
            if cfg.stop_on_violation and result.violations:
                result.exhausted = False
                break
            continue
        for seq in sorted(kernel._pending):
            branch = copy.deepcopy(kernel)
            branch.step(seq)
            if cfg.dedup:
                # A throwaway cache per call: deepcopied branches hold
                # fresh event objects, so the shared memo would only
                # accumulate dead entries.
                fp = _fingerprint_mp(branch, cfg.include_counters, _SigCache())
                if store.probe(fp, _NO_SLEEP) is None:
                    continue
            stack.append((branch, path + (seq,)))


@dataclasses.dataclass(frozen=True)
class _MPFrontierTask:
    """Everything a worker needs to explore one frontier subtree."""

    process_factory: Callable[[], Sequence[Process]]
    inputs: Tuple[Value, ...]
    k: int
    t: int
    validity: ValidityCondition
    crash_adversary: Optional[CrashAdversary]
    max_states: int
    dedup: bool
    verify: bool
    por: bool
    visited: str
    symmetry: bool
    snapshot: Any
    path: Tuple[int, ...]
    sleep: Tuple[int, ...]
    stop_on_violation: bool = False


def _mp_symmetry_for(
    kernel: MPKernel,
    inputs: Sequence[Value],
    t: int,
    crash_adversary,
    requested: bool,
    engine: str,
    dedup: bool,
    stats: ExplorationStats,
):
    """Resolve the symmetry canonicalizer and record why when disabled."""
    if not requested:
        return None
    if engine != "snapshot":
        stats.symmetry_reason = "deepcopy engine is the full-DFS baseline"
        return None
    if not dedup:
        stats.symmetry_reason = "dedup disabled (no visited store to key)"
        return None
    from repro.harness.symmetry import mp_symmetry_context

    sym, reason = mp_symmetry_context(
        kernel._processes, inputs, t, crash_adversary
    )
    if sym is None:
        stats.symmetry_reason = reason
        return None
    stats.symmetry = True
    stats.group_size = sym.group_size
    return sym


def _mp_frontier_worker(task: _MPFrontierTask) -> ExplorationResult:
    """Explore one frontier subtree in a fresh process (or inline)."""
    problem = SCProblem(
        n=len(task.inputs), k=task.k, t=task.t, validity=task.validity
    )
    adversary = task.crash_adversary
    kernel = _fresh_mp_kernel(
        task.process_factory, task.inputs, task.t, adversary
    )
    result = _empty_result()
    store = _make_store(task.visited)
    result.stats.visited_store = store.kind
    sym = _mp_symmetry_for(
        kernel, task.inputs, task.t, adversary,
        task.symmetry, "snapshot", task.dedup, result.stats,
    )
    cfg = _MPConfig(
        judge=_make_judge(problem, task.verify),
        max_states=task.max_states,
        dedup=task.dedup,
        por=task.por,
        include_counters=_mp_counters_matter(adversary),
        may_crash=_may_crash_set(adversary),
        sym=sym,
        stop_on_violation=task.stop_on_violation,
    )
    kernel.restore(task.snapshot)
    _run_mp_dfs(kernel, task.path, set(task.sleep), cfg, result, store)
    result.cache_hits = store.hits
    result.cache_misses = store.misses
    return result


def _mp_counters_matter(adversary: Optional[CrashAdversary]) -> bool:
    return bool(_may_crash_set(adversary)) or _is_dynamic(adversary)


def _may_crash_set(adversary: Optional[CrashAdversary]) -> FrozenSet[int]:
    return adversary.potentially_faulty() if adversary is not None else frozenset()


def _explore_mp_frontier(
    process_factory, inputs, k, t, validity, crash_adversary,
    cfg: _MPConfig,
    verify: bool,
    jobs: int,
    result: ExplorationResult,
    store: _VisitedStore,
    visited: str,
    symmetry: bool,
) -> None:
    """Breadth-first root expansion, then parallel per-subtree DFS.

    The frontier width is a constant (not a function of ``jobs``) and
    subtree results are merged in frontier order, so the merged result
    is identical for every worker count.  Worker subtrees use private
    stores; cross-subtree duplicates are re-explored rather than shared,
    which costs work but keeps the decomposition deterministic.
    """
    kernel = _fresh_mp_kernel(process_factory, inputs, t, crash_adversary)
    queue: deque = deque([(kernel.snapshot(), (), ())])
    while queue and len(queue) < _FRONTIER_WIDTH:
        if result.states >= cfg.max_states:
            result.exhausted = False
            return
        snapshot, path, sleep = queue.popleft()
        kernel.restore(snapshot)
        frame = _process_mp_node(
            kernel, path, set(sleep), cfg, result, store
        )
        if cfg.stop_on_violation and result.violations:
            result.exhausted = False
            break
        if frame is None:
            continue
        for _ in range(len(frame.choices)):
            seq = frame.choices[frame.idx]
            frame.idx += 1
            if not frame.fresh:
                kernel.restore(frame.snapshot)
            frame.fresh = False
            kernel.step(seq)
            child_sleep = tuple(sorted(_child_sleep(frame, seq, cfg.por)))
            queue.append((kernel.snapshot(), path + (seq,), child_sleep))
    result.cache_hits = store.hits
    result.cache_misses = store.misses
    if not queue or (cfg.stop_on_violation and result.violations):
        return
    tasks = [
        _MPFrontierTask(
            process_factory=process_factory,
            inputs=tuple(inputs),
            k=k, t=t, validity=validity,
            crash_adversary=crash_adversary,
            max_states=cfg.max_states,
            dedup=cfg.dedup,
            verify=verify,
            por=cfg.por,
            visited=visited,
            symmetry=symmetry,
            snapshot=snapshot,
            path=path,
            sleep=tuple(sleep),
            stop_on_violation=cfg.stop_on_violation,
        )
        for snapshot, path, sleep in queue
    ]
    for part in parallel_map(_mp_frontier_worker, tasks, jobs=jobs):
        _merge_into(result, part)


def explore_mp(
    process_factory: Callable[[], Sequence[Process]],
    inputs: Sequence[Value],
    k: int,
    t: int,
    validity: ValidityCondition,
    crash_adversary=None,
    max_states: int = 200_000,
    dedup: bool = True,
    verify: bool = False,
    por: bool = True,
    engine: str = "snapshot",
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
        dedup: collapse states via the visited-state store.
        verify: judge each leaf with the :mod:`repro.verify.oracles`
            stack instead of the bare outcome checks; violation records
            then map oracle names to findings.  Exploration runs with
            ``TraceMode.OFF``, so trace-dependent oracles stay vacuous.
        por: prune commuting interleavings with sleep sets.  Sound for
            static crash adversaries; automatically disabled for dynamic
            ones.  ``por=False`` is the full-DFS correctness reference.
        engine: ``"snapshot"`` (default) or ``"deepcopy"`` (the legacy
            forking strategy, kept as baseline; implies full DFS).
        jobs: when set, split the root fan-out across this many worker
            processes (frontier search).  Results are bit-identical for
            every value of ``jobs``, including 1.
        visited: visited-store kind, ``"exact"`` or ``"compact"``; see
            :mod:`repro.harness.visited`.  The compact store may under-
            explore on a 64-bit digest collision.
        symmetry: canonicalize states modulo process renaming (see
            :mod:`repro.harness.symmetry`).  Automatically disabled --
            with the reason recorded in ``result.stats`` -- for
            undeclared protocols, symmetry-breaking adversaries, and
            the deepcopy engine.
        stop_on_violation: abandon the search at the first recorded
            violation (``exhausted`` is then ``False``).  Searches that
            find no violation are unaffected.
    """
    if engine not in ("snapshot", "deepcopy"):
        raise ValueError(f"unknown engine {engine!r}")
    if jobs is not None and engine != "snapshot":
        raise ValueError("parallel exploration requires engine='snapshot'")

    problem = SCProblem(n=len(inputs), k=k, t=t, validity=validity)
    result = _empty_result()
    store = _make_store(visited)
    result.stats.visited_store = store.kind
    kernel = _fresh_mp_kernel(process_factory, inputs, t, crash_adversary)
    sym = _mp_symmetry_for(
        kernel, inputs, t, crash_adversary,
        symmetry, engine, dedup, result.stats,
    )
    cfg = _MPConfig(
        judge=_make_judge(problem, verify),
        max_states=max_states,
        dedup=dedup,
        por=(
            por and engine == "snapshot"
            and not _is_dynamic(crash_adversary)
        ),
        include_counters=_mp_counters_matter(crash_adversary),
        may_crash=_may_crash_set(crash_adversary),
        sym=sym,
        stop_on_violation=stop_on_violation,
    )

    if jobs is not None:
        _explore_mp_frontier(
            process_factory, inputs, k, t, validity, crash_adversary,
            cfg, verify, jobs, result, store, visited, symmetry,
        )
        return result

    if engine == "deepcopy":
        _explore_mp_deepcopy(
            process_factory, inputs, t, crash_adversary, cfg, result,
            store,
        )
    else:
        _run_mp_dfs(kernel, (), set(), cfg, result, store)
    result.cache_hits = store.hits
    result.cache_misses = store.misses
    return result


# ---------------------------------------------------------------------------
# shared-memory exploration


def _fresh_sm_kernel(
    programs_factory, inputs, t, crash_adversary, max_ticks
):
    from repro.shm.kernel import SMKernel

    kernel = SMKernel(
        list(programs_factory()),
        list(inputs),
        t=t,
        scheduler=None,
        crash_adversary=copy.deepcopy(crash_adversary),
        stop_when_decided=True,
        max_ticks=max_ticks,
        trace_mode=TraceMode.OFF,
    )
    kernel._apply_dynamic_crashes()
    return kernel


def _run_sm_dfs(
    kernel,
    judge,
    max_states: int,
    dedup: bool,
    result: ExplorationResult,
    store: _VisitedStore,
    sym=None,
    stop_on_violation: bool = False,
) -> None:
    """Prefix-sharing DFS over scheduling choices of one live SM kernel.

    The stack holds choice prefixes.  Thanks to LIFO order, the next
    prefix usually extends the live kernel's current one by a single
    step (cost 1); only backtracks replay a prefix from the root
    (:meth:`SMKernel.restore`), and the replay totals are reported in
    ``replays``/``replayed_steps``.
    """
    from repro.shm.kernel import SMSnapshot

    stack: List[Tuple[int, ...]] = [tuple(kernel.choices)]
    live = None  # the prefix the kernel currently sits at
    while stack:
        if result.states >= max_states:
            result.exhausted = False
            return
        prefix = stack.pop()
        if prefix == live:
            pass
        elif live is not None and prefix[:-1] == live:
            kernel.step_pid(prefix[-1])
        else:
            kernel.restore(SMSnapshot(choices=prefix))
            result.replays += 1
            result.replayed_steps += len(prefix)
        live = prefix
        if dedup:
            if sym is not None:
                fingerprint, identity = sym.canonical(kernel)
                result.stats.canonicalizations += 1
            else:
                fingerprint, identity = _fingerprint_sm(kernel), True
            if store.probe(fingerprint, _NO_SLEEP) is None:
                if not identity:
                    result.stats.orbit_hits += 1
                continue
        result.states += 1
        if kernel.all_correct_decided() or not kernel.runnable_pids():
            _judge_leaf(kernel, prefix, judge, result)
            if stop_on_violation and result.violations:
                result.exhausted = False
                return
            continue
        for pid in sorted(kernel.runnable_pids()):
            stack.append(prefix + (pid,))


@dataclasses.dataclass(frozen=True)
class _SMFrontierTask:
    programs_factory: Callable[[], Sequence]
    inputs: Tuple[Value, ...]
    k: int
    t: int
    validity: ValidityCondition
    crash_adversary: Optional[CrashAdversary]
    max_states: int
    max_ticks: int
    dedup: bool
    verify: bool
    prefix: Tuple[int, ...]
    visited: str = "exact"
    symmetry: bool = False
    stop_on_violation: bool = False


def _sm_symmetry_for(
    kernel, inputs, t, crash_adversary, requested: bool, dedup: bool, stats
):
    """Resolve the SM symmetry context (or record why it is off)."""
    from repro.harness.symmetry import sm_symmetry_context

    if not requested:
        return None
    if not dedup:
        stats.symmetry_reason = "dedup disabled (no visited store to key)"
        return None
    sym, reason = sm_symmetry_context(
        kernel._programs, inputs, t, crash_adversary
    )
    if sym is None:
        stats.symmetry_reason = reason
        return None
    stats.symmetry = True
    stats.group_size = sym.group_size
    return sym


def _sm_frontier_worker(task: _SMFrontierTask) -> ExplorationResult:
    from repro.shm.kernel import SMSnapshot

    problem = SCProblem(
        n=len(task.inputs), k=task.k, t=task.t, validity=task.validity
    )
    judge = _make_judge(problem, task.verify)
    kernel = _fresh_sm_kernel(
        task.programs_factory, task.inputs, task.t,
        task.crash_adversary, task.max_ticks,
    )
    kernel.restore(SMSnapshot(choices=task.prefix))
    result = _empty_result()
    store = _make_store(task.visited)
    result.stats.visited_store = store.kind
    sym = _sm_symmetry_for(
        kernel, task.inputs, task.t, task.crash_adversary,
        task.symmetry, task.dedup, result.stats,
    )
    _run_sm_dfs(
        kernel, judge, task.max_states, task.dedup, result, store, sym,
        stop_on_violation=task.stop_on_violation,
    )
    result.cache_hits = store.hits
    result.cache_misses = store.misses
    return result


def explore_sm(
    programs_factory: Callable[[], Sequence],
    inputs: Sequence[Value],
    k: int,
    t: int,
    validity: ValidityCondition,
    crash_adversary=None,
    max_states: int = 100_000,
    max_ticks_per_run: int = 5_000,
    verify: bool = False,
    dedup: bool = True,
    jobs: Optional[int] = None,
    visited: str = "exact",
    symmetry: bool = False,
    stop_on_violation: bool = False,
) -> ExplorationResult:
    """Explore every process interleaving of a shared-memory instance.

    Generator-based SM programs cannot be forked, so exploration shares
    prefixes: one live kernel is extended step-by-step along depth-first
    descents and replayed (:meth:`SMKernel.restore`) only on backtracks,
    replacing the old from-scratch re-execution of every prefix.  States
    are deduplicated via :func:`_fingerprint_sm` (a generator's hidden
    state is a pure function of its logged operation results).  No POR
    applies: distinct processes' register operations do not commute.

    ``jobs`` distributes the frontier of choice prefixes across worker
    processes, merged deterministically (``programs_factory`` must then
    be picklable, e.g. a :class:`SpecFactory`).  ``visited`` and
    ``stop_on_violation`` match :func:`explore_mp`.
    """
    problem = SCProblem(n=len(inputs), k=k, t=t, validity=validity)
    judge = _make_judge(problem, verify)
    result = _empty_result()
    store = _make_store(visited)
    result.stats.visited_store = store.kind

    kernel = _fresh_sm_kernel(
        programs_factory, inputs, t, crash_adversary, max_ticks_per_run
    )
    sym = _sm_symmetry_for(
        kernel, inputs, t, crash_adversary, symmetry, dedup, result.stats
    )

    if jobs is not None:
        _explore_sm_frontier(
            programs_factory, inputs, k, t, validity, crash_adversary,
            max_states, max_ticks_per_run, dedup, verify, judge,
            jobs, result, store, sym, visited, symmetry,
            stop_on_violation,
        )
        return result

    _run_sm_dfs(
        kernel, judge, max_states, dedup, result, store, sym,
        stop_on_violation=stop_on_violation,
    )
    result.cache_hits = store.hits
    result.cache_misses = store.misses
    return result


def _explore_sm_frontier(
    programs_factory, inputs, k, t, validity, crash_adversary,
    max_states, max_ticks, dedup, verify, judge,
    jobs: int,
    result: ExplorationResult,
    store: _VisitedStore,
    sym,
    visited: str,
    symmetry: bool,
    stop_on_violation: bool = False,
) -> None:
    from repro.shm.kernel import SMSnapshot

    kernel = _fresh_sm_kernel(
        programs_factory, inputs, t, crash_adversary, max_ticks
    )
    queue: deque = deque([()])
    while queue and len(queue) < _FRONTIER_WIDTH:
        if result.states >= max_states:
            result.exhausted = False
            return
        prefix = queue.popleft()
        kernel.restore(SMSnapshot(choices=prefix))
        result.replays += 1
        result.replayed_steps += len(prefix)
        if dedup:
            if sym is not None:
                fingerprint, identity = sym.canonical(kernel)
                result.stats.canonicalizations += 1
            else:
                fingerprint, identity = _fingerprint_sm(kernel), True
            if store.probe(fingerprint, _NO_SLEEP) is None:
                if not identity:
                    result.stats.orbit_hits += 1
                continue
        result.states += 1
        if kernel.all_correct_decided() or not kernel.runnable_pids():
            _judge_leaf(kernel, prefix, judge, result)
            if stop_on_violation and result.violations:
                result.exhausted = False
                break
            continue
        for pid in sorted(kernel.runnable_pids()):
            queue.append(prefix + (pid,))
    result.cache_hits = store.hits
    result.cache_misses = store.misses
    if not queue or (stop_on_violation and result.violations):
        return
    tasks = [
        _SMFrontierTask(
            programs_factory=programs_factory,
            inputs=tuple(inputs),
            k=k, t=t, validity=validity,
            crash_adversary=crash_adversary,
            max_states=max_states,
            max_ticks=max_ticks,
            dedup=dedup,
            verify=verify,
            prefix=prefix,
            visited=visited,
            symmetry=symmetry,
            stop_on_violation=stop_on_violation,
        )
        for prefix in queue
    ]
    for part in parallel_map(_sm_frontier_worker, tasks, jobs=jobs):
        _merge_into(result, part)


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
