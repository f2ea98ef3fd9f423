"""Equivalence of the exploration modes.

The fast-fork explorer ships three mechanisms that must never change
*what* is found, only how fast: snapshot/restore forking (vs the legacy
deepcopy engine), sleep-set partial-order reduction (vs the full DFS),
and the parallel frontier search (vs serial).  These tests pin the
equivalences on instances small enough to exhaust, including a known-
violating ablation -- the reductions must find the same counterexamples,
not just the same clean bills of health.  Early exit
(``stop_on_violation``) is pinned here too: it must stay bit-identical
per worker count and may only ever report violations the full search
finds.
"""

import pytest

from repro.core.validity import RV2, SV2
from repro.failures.crash import CrashPlan, CrashPoint, CrashWhenOthersDecide
from repro.harness.exhaustive import (
    SpecFactory,
    crash_patterns,
    explore_mp,
    explore_sm,
)
from repro.protocols.ablations import ProtocolBStrictQuorum
from repro.protocols.protocol_a import ProtocolA


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
        does not hold; POR must silently fall back to full DFS."""
        adversary = CrashWhenOthersDecide([0], [1, 2])
        por = _explore_a(crash_adversary=adversary, por=True)
        full = _explore_a(crash_adversary=adversary, por=False)
        assert por.sleep_pruned == 0
        assert por.states == full.states
        assert por.runs == full.runs
        _same_findings(full, por)


class TestSnapshotVsDeepcopyEngine:
    def test_engines_agree_exactly(self):
        """Same fingerprints, same DFS: state and run counts match
        exactly, not just the verdicts."""
        snap = _explore_a(por=False, engine="snapshot")
        deep = _explore_a(por=False, engine="deepcopy")
        assert snap.exhausted and deep.exhausted
        assert snap.states == deep.states
        assert snap.runs == deep.runs
        _same_findings(snap, deep)

    def test_engines_agree_under_crash_plan(self):
        plan = CrashPlan({0: CrashPoint(after_sends=1)})
        snap = _explore_a(crash_adversary=plan, por=False, engine="snapshot")
        deep = _explore_a(crash_adversary=plan, por=False, engine="deepcopy")
        assert snap.states == deep.states
        assert snap.runs == deep.runs
        _same_findings(snap, deep)

    def test_deepcopy_engine_rejects_jobs(self):
        with pytest.raises(ValueError):
            _explore_a(engine="deepcopy", jobs=2)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            _explore_a(engine="telepathy")


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
        """The counterexample must survive every store, the symmetry
        quotient, and both engines -- same violation kinds, and the same
        first violating schedule wherever a schedule is reported."""
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
        deep = run(engine="deepcopy", symmetry=True)
        _same_findings(full, deep)
        assert not deep.stats.symmetry  # the full-DFS baseline opts out

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
