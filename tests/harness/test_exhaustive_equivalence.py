"""Equivalence of the exploration modes.

The fast-fork explorer ships three mechanisms that must never change
*what* is found, only how fast: snapshot/restore forking with
incremental state ids (vs a DFS in this file that replays every path on
a fresh kernel), sleep-set partial-order reduction (vs the full DFS),
and the parallel frontier search (vs serial).  These tests pin the
equivalences on instances small enough to exhaust, including a known-
violating ablation -- the reductions must find the same counterexamples,
not just the same clean bills of health.  Early exit
(``stop_on_violation``) is pinned here too: it must stay bit-identical
per worker count and may only ever report violations the full search
finds.
"""

import pytest

from repro.core.problem import SCProblem
from repro.core.validity import RV2, SV2
from repro.failures.crash import (
    CrashPlan, CrashPoint, CrashWhenOthersDecide, combine,
)
from repro.harness.exhaustive import (
    ExplorationResult,
    SpecFactory,
    _fingerprint_mp,
    _state_ids,
    _StateTable,
    crash_patterns,
    explore_mp,
    explore_sm,
)
from repro.protocols.ablations import ProtocolBStrictQuorum
from repro.protocols.protocol_a import ProtocolA
from repro.runtime.kernel import MPKernel
from repro.runtime.traces import TraceMode


def _explore_a(n=3, inputs=("v", "v", "w"), **kwargs):
    kwargs.setdefault("validity", RV2)
    return explore_mp(
        lambda: [ProtocolA() for _ in range(n)],
        list(inputs), k=2, t=1, **kwargs,
    )


def _same_findings(a, b):
    assert a.decision_sets == b.decision_sets
    assert a.max_distinct_decisions == b.max_distinct_decisions
    assert a.violation_kinds() == b.violation_kinds()
    assert a.all_ok == b.all_ok


class TestPorVsFullDfs:
    def test_failure_free_instance(self):
        full = _explore_a(por=False)
        por = _explore_a(por=True)
        assert full.exhausted and por.exhausted
        _same_findings(full, por)
        assert por.states <= full.states
        assert por.runs <= full.runs
        assert por.sleep_pruned > 0

    def test_every_crash_pattern(self):
        for plan in crash_patterns(3, 1, max_sends=2):
            full = _explore_a(crash_adversary=plan, por=False)
            por = _explore_a(crash_adversary=plan, por=True)
            assert full.exhausted and por.exhausted, plan
            _same_findings(full, por)
            assert por.states <= full.states, plan

    def test_violating_ablation_found_identically(self):
        """POR must preserve counterexamples, not just clean results.

        The strict-quorum ablation violates SV2 under an early crash
        (the design rationale of PROTOCOL B made executable); both
        modes must report the same violation kinds and decision sets.
        """
        def run(por):
            return explore_mp(
                lambda: [ProtocolBStrictQuorum() for _ in range(3)],
                ["w", "v", "v"], k=2, t=1, validity=SV2,
                crash_adversary=CrashPlan({0: CrashPoint(after_steps=1)}),
                por=por,
            )

        full = run(por=False)
        por = run(por=True)
        assert full.exhausted and por.exhausted
        assert not full.all_ok and not por.all_ok
        _same_findings(full, por)
        assert por.states <= full.states

    def test_dynamic_adversary_disables_por(self):
        """Reactive crash rules depend on global state, so independence
        does not hold; POR must silently fall back to full DFS.  A
        step's effect then depends on more than its target's state, so
        the transition memo is bypassed too: every step (one per probe
        after the root's) runs a handler on the kernel."""
        adversary = CrashWhenOthersDecide([0], [1, 2])
        por = _explore_a(crash_adversary=adversary, por=True)
        full = _explore_a(crash_adversary=adversary, por=False)
        assert por.sleep_pruned == 0
        assert por.states == full.states
        assert por.runs == full.runs
        _same_findings(full, por)
        for result in (por, full):
            probes = result.cache_hits + result.cache_misses
            assert result.handler_runs == probes - 1


def test_dynamic_adversary_bypasses_sm_operation_memo():
    """On shared memory a reactive crash rule may crash a process that
    did not step, so the operation memo is bypassed as well: every step
    (one per probe after the root's) runs on the kernel."""
    adversary = CrashWhenOthersDecide([0], [1, 2])
    result = explore_sm(
        SpecFactory("protocol-e@sm-cr", n=3, k=2, t=1),
        ["v", "v", "w"], k=2, t=1, validity=RV2,
        crash_adversary=adversary,
    )
    assert result.exhausted and result.runs
    probes = result.cache_hits + result.cache_misses
    assert result.handler_runs == probes - 1


@pytest.mark.parametrize("kernel", ["mp", "sm"])
def test_union_of_static_plans_explores_like_their_merge(kernel):
    """A union of static crash plans is static: the search keeps POR
    and its memo, and gives exactly the result of the one plan the
    union amounts to, kernel-work counters included."""
    plan = CrashPlan({2: CrashPoint(after_sends=1)})
    if kernel == "mp":
        explore, name = explore_mp, "protocol-a@mp-cr"
    else:
        explore, name = explore_sm, "protocol-e@sm-cr"

    def run(adversary):
        return explore(
            SpecFactory(name, n=3, k=2, t=1), ["v", "v", "w"], k=2, t=1,
            validity=RV2, crash_adversary=adversary,
        )

    merged = run(plan)
    assert merged.exhausted and merged.handler_runs
    assert run(combine(plan, CrashPlan({}))) == merged


def _fresh_replay_dfs(factory, inputs, k, t, validity, plan=None):
    """Full DFS that reaches every node by replaying its path.

    No snapshot, no restore, no copy: each node is a fresh kernel driven
    through the node's event path, and its fingerprint comes from state
    ids built from scratch.  Distinct fingerprints are expanded once, so
    the state and run counts must equal ``explore_mp(por=False)``'s.
    """
    problem = SCProblem(n=len(inputs), k=k, t=t, validity=validity)
    table = _StateTable()
    # The explorer's rule: counters matter exactly under a crash plan.
    include_counters = plan is not None
    seen = set()
    reference = ExplorationResult(
        runs=0, states=0, exhausted=True, violations=[],
        max_distinct_decisions=0, decision_sets=set(),
    )
    stack = [()]
    while stack:
        path = stack.pop()
        kernel = MPKernel(
            factory(), list(inputs), t=t, scheduler=None,
            crash_adversary=plan, stop_when_decided=True,
            trace_mode=TraceMode.OFF,
        )
        for seq in path:
            kernel.step(seq)
        fingerprint = _fingerprint_mp(
            _state_ids(kernel, table), include_counters
        )
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        reference.states += 1
        if kernel.all_correct_decided() or not kernel._pending:
            outcome = kernel._result().outcome
            reference.runs += 1
            decided = frozenset(outcome.correct_decision_values())
            reference.decision_sets.add(decided)
            reference.max_distinct_decisions = max(
                reference.max_distinct_decisions, len(decided)
            )
            failures = {
                name: str(verdict)
                for name, verdict in problem.check(outcome).items()
                if not verdict
            }
            if failures:
                reference.violations.append((path, failures))
            continue
        stack.extend(path + (seq,) for seq in sorted(kernel._pending))
    return reference


class TestFreshReplayReference:
    """The snapshot engine against the fresh-kernel replay reference:
    same fingerprints, so exact state and run counts, not just the
    same verdicts."""

    def _agree(self, factory, inputs, k, t, validity, plan=None):
        explored = explore_mp(
            factory, inputs, k=k, t=t, validity=validity,
            crash_adversary=plan, por=False,
        )
        reference = _fresh_replay_dfs(factory, inputs, k, t, validity, plan)
        assert explored.exhausted
        assert explored.states == reference.states
        assert explored.runs == reference.runs
        _same_findings(explored, reference)
        return explored

    def test_failure_free(self):
        self._agree(
            lambda: [ProtocolA() for _ in range(3)],
            ["v", "v", "w"], 2, 1, RV2,
        )

    def test_crash_plan(self):
        self._agree(
            lambda: [ProtocolA() for _ in range(3)],
            ["v", "v", "w"], 2, 1, RV2,
            CrashPlan({0: CrashPoint(after_sends=1)}),
        )

    def test_violating_ablation(self):
        explored = self._agree(
            lambda: [ProtocolBStrictQuorum() for _ in range(3)],
            ["w", "v", "v"], 2, 1, SV2,
            CrashPlan({0: CrashPoint(after_steps=1)}),
        )
        assert not explored.all_ok


class TestSerialVsParallelFrontier:
    """``--jobs N`` output must be bit-identical for every worker count:
    the frontier is built breadth-first to a jobs-independent width and
    merged in frontier order, so ``jobs=1`` (the serial execution of
    the same decomposition) is the reference.  Against the plain serial
    DFS (``jobs=None``, one shared visited store) the frontier explores
    more states -- worker-private stores re-cover subtree overlaps --
    so there the guarantee is identical *findings*, not counters."""

    def test_mp_bit_identical_across_worker_counts(self):
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)
        one = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2, jobs=1,
        )
        fanned = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2, jobs=3,
        )
        assert one == fanned  # every field, including violation paths

    def test_mp_bit_identical_under_crash_plan(self):
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)
        plan = CrashPlan({0: CrashPoint(after_sends=1)})
        one = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2,
            crash_adversary=plan, jobs=1,
        )
        fanned = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2,
            crash_adversary=plan, jobs=2,
        )
        assert one == fanned

    def test_mp_frontier_agrees_with_serial_dfs(self):
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)
        serial = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2, jobs=None,
        )
        fanned = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2, jobs=3,
        )
        assert serial.exhausted and fanned.exhausted
        _same_findings(serial, fanned)

    def test_sm_bit_identical_across_worker_counts(self):
        factory = SpecFactory("protocol-e@sm-cr", n=2, k=2, t=2)
        one = explore_sm(
            factory, ["a", "b"], k=2, t=2, validity=RV2, jobs=1,
        )
        fanned = explore_sm(
            factory, ["a", "b"], k=2, t=2, validity=RV2, jobs=3,
        )
        assert one == fanned

    def test_sm_frontier_agrees_with_serial_dfs(self):
        factory = SpecFactory("protocol-e@sm-cr", n=2, k=2, t=2)
        serial = explore_sm(
            factory, ["a", "b"], k=2, t=2, validity=RV2, jobs=None,
        )
        fanned = explore_sm(
            factory, ["a", "b"], k=2, t=2, validity=RV2, jobs=2,
        )
        assert serial.exhausted and fanned.exhausted
        _same_findings(serial, fanned)

    def test_mp_frontier_jobs4_agrees_with_serial_dfs(self):
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)
        serial = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2,
        )
        fanned = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2, jobs=4,
        )
        assert serial.exhausted and serial.all_ok
        assert fanned.exhausted
        _same_findings(serial, fanned)


class TestEarlyExit:
    """``stop_on_violation`` on violating instances, serial and fanned."""

    def test_private_frontier_early_exit_stays_bit_identical(self):
        """Early exit in the private frontier stops each subtree at its
        own first violation, so bit-identity per worker count holds."""
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)

        def run(jobs):
            return explore_mp(
                factory, ["v", "v", "w"], k=1, t=1, validity=RV2,
                jobs=jobs, stop_on_violation=True,
            )

        one = run(jobs=1)
        fanned = run(jobs=3)
        assert one == fanned
        assert one.violations and not one.exhausted

    def test_sm_early_exit_serial_and_fanned(self):
        """PROTOCOL E built for k=2 violates 1-agreement at n=2, t=0."""
        factory = SpecFactory("protocol-e@sm-cr", n=2, k=2, t=2)

        def run(jobs=None, stop=False):
            return explore_sm(
                factory, ["a", "b"], k=1, t=0, validity=RV2,
                jobs=jobs, stop_on_violation=stop,
            )

        full = run()
        assert full.exhausted and not full.all_ok
        for jobs in (None, 2):
            early = run(jobs=jobs, stop=True)
            assert early.violations and not early.exhausted, jobs
            assert early.violation_kinds() <= full.violation_kinds(), jobs


class TestSymmetryVisitedMatrix:
    """Symmetry reduction x visited store x worker count.

    Every combination must find exactly what the full DFS finds; the
    reductions may change *how much* is explored (worker-private stores
    re-cover overlaps) but never the findings, and ``--jobs`` stays
    bit-identical for every store/symmetry selection.
    """

    STORES = ("exact", "compact")

    def test_clean_instance_matrix(self):
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)
        full = explore_mp(
            factory, ["v", "v", "w"], k=2, t=1, validity=RV2, por=False,
        )
        for visited in self.STORES:
            for symmetry in (False, True):
                run = explore_mp(
                    factory, ["v", "v", "w"], k=2, t=1, validity=RV2,
                    visited=visited, symmetry=symmetry,
                )
                assert run.exhausted, (visited, symmetry)
                _same_findings(full, run)
                assert run.stats.visited_store == visited
                if symmetry:
                    assert run.stats.symmetry, visited
                    assert run.states < full.states

    def test_violating_ablation_matrix(self):
        """The counterexample must survive every store and the symmetry
        quotient -- same violation kinds and decision sets."""
        def run(**kwargs):
            return explore_mp(
                lambda: [ProtocolBStrictQuorum() for _ in range(3)],
                ["w", "v", "v"], k=2, t=1, validity=SV2,
                crash_adversary=CrashPlan({0: CrashPoint(after_steps=1)}),
                **kwargs,
            )

        full = run(por=False)
        assert not full.all_ok
        for visited in self.STORES:
            for symmetry in (False, True):
                got = run(visited=visited, symmetry=symmetry)
                assert got.exhausted, (visited, symmetry)
                _same_findings(full, got)

    def test_jobs_bit_identical_for_every_store_and_symmetry(self):
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)
        for visited in self.STORES:
            for symmetry in (False, True):
                one = explore_mp(
                    factory, ["v", "v", "w"], k=2, t=1, validity=RV2,
                    visited=visited, symmetry=symmetry, jobs=1,
                )
                fanned = explore_mp(
                    factory, ["v", "v", "w"], k=2, t=1, validity=RV2,
                    visited=visited, symmetry=symmetry, jobs=3,
                )
                assert one == fanned, (visited, symmetry)

    def test_sm_jobs_bit_identical_under_symmetry(self):
        factory = SpecFactory("protocol-e@sm-cr", n=3, k=2, t=0)
        one = explore_sm(
            factory, ["a", "a", "b"], k=2, t=0, validity=RV2,
            symmetry=True, jobs=1,
        )
        fanned = explore_sm(
            factory, ["a", "a", "b"], k=2, t=0, validity=RV2,
            symmetry=True, jobs=3,
        )
        assert one == fanned
        assert one.stats.symmetry

    def test_mp_jobs_bit_identical_when_a_class_is_sorted(self):
        """Three interchangeable processes: the canonicalizer sorts their
        class by key, and each frontier worker learns its own keys."""
        factory = SpecFactory("protocol-a@mp-cr", n=3, k=2, t=1)
        one = explore_mp(
            factory, ["v", "v", "v"], k=2, t=1, validity=RV2,
            symmetry=True, jobs=1,
        )
        fanned = explore_mp(
            factory, ["v", "v", "v"], k=2, t=1, validity=RV2,
            symmetry=True, jobs=3,
        )
        assert one == fanned
        stats = one.stats
        assert stats.group_size == 6
        assert stats.renamings < stats.canonicalizations * 5

    def test_n4_symmetry_agrees_and_reduces(self):
        factory = SpecFactory("protocol-a@mp-cr", n=4, k=2, t=1)
        inputs = ["v", "v", "v", "w"]
        por = explore_mp(factory, inputs, k=2, t=1, validity=RV2)
        sym = explore_mp(
            factory, inputs, k=2, t=1, validity=RV2, symmetry=True,
        )
        assert por.exhausted and sym.exhausted
        _same_findings(por, sym)
        assert sym.stats.symmetry and sym.stats.group_size == 6
        assert sym.states < por.states
