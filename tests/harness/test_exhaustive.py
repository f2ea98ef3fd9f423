"""Tests for the exhaustive schedule explorer.

These verify protocols over *all* delivery orders of small instances --
the real universal quantifier of the paper's possibility lemmas.
"""

import pytest

from repro.core.validity import RV1, RV2, SV2
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.exhaustive import (
    SpecFactory,
    crash_patterns,
    explore_mp,
    explore_sm,
)
from repro.protocols.chaudhuri import ChaudhuriKSet
from repro.protocols.protocol_a import ProtocolA
from repro.protocols.protocol_b import ProtocolB


class TestProtocolAExhaustive:
    def test_all_schedules_n3_mixed_inputs(self):
        result = explore_mp(
            lambda: [ProtocolA() for _ in range(3)],
            ["v", "v", "w"], k=2, t=1, validity=RV2,
        )
        assert result.exhausted
        assert result.all_ok, result.violations[:3]
        assert result.runs > 50
        assert result.max_distinct_decisions <= 2

    def test_all_schedules_n3_full_dfs_reference(self):
        # por=False is the unreduced reference: every representative
        # interleaving (modulo state dedup) is judged individually.
        result = explore_mp(
            lambda: [ProtocolA() for _ in range(3)],
            ["v", "v", "w"], k=2, t=1, validity=RV2, por=False,
        )
        assert result.exhausted
        assert result.all_ok, result.violations[:3]
        assert result.runs > 100
        assert result.max_distinct_decisions <= 2

    def test_all_schedules_unanimous(self):
        result = explore_mp(
            lambda: [ProtocolA() for _ in range(3)],
            ["v", "v", "v"], k=2, t=1, validity=RV2,
        )
        assert result.exhausted and result.all_ok
        # unanimity: the only decision set over all runs is {v}
        assert result.decision_sets == {frozenset({"v"})}

    def test_every_crash_pattern(self):
        for plan in crash_patterns(3, 1, max_sends=3):
            result = explore_mp(
                lambda: [ProtocolA() for _ in range(3)],
                ["v", "v", "w"], k=2, t=1, validity=RV2,
                crash_adversary=plan,
            )
            assert result.exhausted
            assert result.all_ok, (plan, result.violations[:2])

    def test_frontier_is_tight_outside_region(self):
        """At t = (k-1)n/k (outside Lemma 3.7's region) some schedule
        must break PROTOCOL A -- and the explorer finds it."""
        # n=3, k=2: region is t < 1.5, so t=2 is out; n-t=1: each process
        # decides on its own value alone.
        result = explore_mp(
            lambda: [ProtocolA() for _ in range(3)],
            ["a", "b", "c"], k=2, t=2, validity=RV2,
        )
        assert result.exhausted
        assert not result.all_ok
        assert result.max_distinct_decisions == 3


class TestChaudhuriExhaustive:
    def test_all_schedules_clean(self):
        result = explore_mp(
            lambda: [ChaudhuriKSet() for _ in range(3)],
            ["a", "b", "c"], k=2, t=1, validity=RV1,
        )
        assert result.exhausted and result.all_ok
        assert result.max_distinct_decisions <= 2  # t + 1

    def test_decision_sets_are_among_smallest_inputs(self):
        result = explore_mp(
            lambda: [ChaudhuriKSet() for _ in range(3)],
            ["a", "b", "c"], k=2, t=1, validity=RV1,
        )
        for decided in result.decision_sets:
            assert decided <= {"a", "b"}  # the t+1 smallest inputs


class TestProtocolBExhaustive:
    def test_all_schedules_clean(self):
        result = explore_mp(
            lambda: [ProtocolB() for _ in range(3)],
            ["v", "v", "w"], k=2, t=1, validity=SV2,
        )
        assert result.exhausted and result.all_ok


class TestExplorerMechanics:
    def test_budget_cap_reported(self):
        result = explore_mp(
            lambda: [ProtocolA() for _ in range(4)],
            ["a", "b", "c", "d"], k=3, t=1, validity=RV2,
            max_states=500,
        )
        assert not result.exhausted
        assert result.states == 500

    def test_fixed_crash_plan(self):
        result = explore_mp(
            lambda: [ProtocolA() for _ in range(3)],
            ["v", "v", "v"], k=2, t=1, validity=RV2,
            crash_adversary=CrashPlan({0: CrashPoint(after_sends=1)}),
        )
        assert result.exhausted and result.all_ok

    @pytest.mark.parametrize(
        "max_states", [1, 5, None], ids=["cap1", "cap5", "uncapped"]
    )
    @pytest.mark.parametrize(
        "jobs", [None, 1, 2], ids=["serial", "jobs1", "jobs2"]
    )
    @pytest.mark.parametrize("kernel", ["mp", "sm"])
    def test_every_expansion_is_a_store_miss(self, kernel, jobs, max_states):
        """Each expanded state or partial re-expansion is one store miss.

        Holds for every search, capped or not, and for the frontier
        search also when the cap is hit while the breadth-first root
        expansion is still running (its counters must be reported).
        """
        budget = {} if max_states is None else {"max_states": max_states}
        if kernel == "mp":
            result = explore_mp(
                SpecFactory("protocol-a@mp-cr", 3, 2, 1), ["v", "v", "w"],
                k=2, t=1, validity=RV2, jobs=jobs, **budget,
            )
        else:
            result = explore_sm(
                SpecFactory("protocol-e@sm-cr", 3, 2, 0), ["a", "a", "b"],
                k=2, t=0, validity=RV2, jobs=jobs, **budget,
            )
        assert result.exhausted == (max_states is None)
        assert result.cache_misses == result.states + result.reexpansions

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
    @pytest.mark.parametrize("kernel", ["mp", "sm"])
    def test_zero_budget_expands_nothing(self, kernel, jobs):
        """The budget is checked before the root, on both kernels and
        whether the search runs serially or on the frontier."""
        if kernel == "mp":
            result = explore_mp(
                SpecFactory("protocol-a@mp-cr", 3, 2, 1), ["v", "v", "w"],
                k=2, t=1, validity=RV2, jobs=jobs, max_states=0,
            )
        else:
            result = explore_sm(
                SpecFactory("protocol-e@sm-cr", 3, 2, 0), ["a", "a", "b"],
                k=2, t=0, validity=RV2, jobs=jobs, max_states=0,
            )
        assert (result.states, result.exhausted) == (0, False)
        assert (result.runs, result.cache_misses) == (0, 0)


class TestCrashPatterns:
    def test_includes_failure_free(self):
        plans = crash_patterns(3, 1, max_sends=2)
        assert plans[0] is None

    def test_budget_zero_only_failure_free(self):
        assert crash_patterns(3, 0, max_sends=2) == [None]

    def test_two_victim_plans_with_budget_two(self):
        plans = crash_patterns(3, 2, max_sends=2)
        two_victim = [
            p for p in plans
            if p is not None and len(p.potentially_faulty()) == 2
        ]
        assert two_victim

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_negative_send_depth_rejected(self, t):
        # Unchecked, -1 drops every partial-broadcast plan at t = 1 and
        # fails inside CrashPoint at t = 2.
        with pytest.raises(ValueError, match="max_sends must be >= 0, got -1"):
            crash_patterns(3, t, max_sends=-1)


class TestSharedMemoryExhaustive:
    def test_protocol_e_n2_all_interleavings(self):
        from repro.core.validity import RV2
        from repro.harness.exhaustive import explore_sm
        from repro.protocols.protocol_e import protocol_e

        result = explore_sm(
            lambda: [protocol_e] * 2, ["a", "b"], k=2, t=2, validity=RV2,
        )
        assert result.exhausted
        assert result.all_ok, result.violations[:2]
        # with two different inputs, both all-default and split outcomes
        # occur across interleavings
        assert len(result.decision_sets) >= 2

    def test_protocol_e_n2_unanimous(self):
        from repro.core.validity import RV2
        from repro.harness.exhaustive import explore_sm
        from repro.protocols.protocol_e import protocol_e

        result = explore_sm(
            lambda: [protocol_e] * 2, ["v", "v"], k=2, t=2, validity=RV2,
        )
        assert result.exhausted and result.all_ok
        assert result.decision_sets == {frozenset({"v"})}

    def test_trivial_sm_program(self):
        from repro.core.validity import SV1
        from repro.harness.exhaustive import explore_sm
        from repro.protocols.trivial import trivial_own_value_sm

        result = explore_sm(
            lambda: [trivial_own_value_sm] * 3, ["a", "b", "c"],
            k=3, t=1, validity=SV1,
        )
        assert result.exhausted and result.all_ok
        assert result.decision_sets == {frozenset({"a", "b", "c"})}

    def test_budget_cap(self):
        from repro.core.validity import RV2
        from repro.harness.exhaustive import explore_sm
        from repro.protocols.protocol_e import protocol_e

        result = explore_sm(
            lambda: [protocol_e] * 3, ["a", "a", "b"], k=2, t=3,
            validity=RV2, max_states=300,
        )
        assert not result.exhausted
        assert result.all_ok

    def test_protocol_f_n2(self):
        from repro.core.validity import SV2
        from repro.harness.exhaustive import explore_sm
        from repro.protocols.protocol_f import protocol_f

        # n=2, t=0 is degenerate for F's loop (n-t=2 registers needed);
        # use k=2=n trivial agreement to exercise the machinery
        result = explore_sm(
            lambda: [protocol_f] * 2, ["a", "b"], k=2, t=1, validity=SV2,
        )
        assert result.exhausted
        assert result.all_ok, result.violations[:2]
