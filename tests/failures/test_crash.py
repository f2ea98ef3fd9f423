"""Tests for crash adversaries."""

import pytest

from repro.failures.adversary import CrashAdversary
from repro.failures.crash import (
    CrashAfterDecide,
    CrashPlan,
    CrashPoint,
    CrashWhenOthersDecide,
    RandomCrashes,
    combine,
)


class FakeView:
    def __init__(self, decided=()):
        self._decided = set(decided)

    def has_decided(self, pid):
        return pid in self._decided


class TestCrashPoint:
    def test_requires_some_bound(self):
        with pytest.raises(ValueError):
            CrashPoint()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CrashPoint(after_steps=-1)
        with pytest.raises(ValueError):
            CrashPoint(after_sends=-2)


class TestCrashPlan:
    def test_step_budget(self):
        plan = CrashPlan({1: CrashPoint(after_steps=2)})
        assert not plan.crashes_before_step(1, 0)
        assert not plan.crashes_before_step(1, 1)
        assert plan.crashes_before_step(1, 2)
        assert plan.crashes_before_step(1, 5)

    def test_send_budget(self):
        plan = CrashPlan({1: CrashPoint(after_sends=3)})
        assert not plan.crashes_at_send(1, 2)
        assert plan.crashes_at_send(1, 3)

    def test_non_victims_untouched(self):
        plan = CrashPlan({1: CrashPoint(after_steps=0)})
        assert not plan.crashes_before_step(0, 100)
        assert not plan.crashes_at_send(0, 100)

    def test_potentially_faulty(self):
        plan = CrashPlan({1: CrashPoint(after_steps=0), 3: CrashPoint(after_sends=1)})
        assert plan.potentially_faulty() == {1, 3}


class TestDynamicAdversaries:
    def test_crash_when_others_decide(self):
        adversary = CrashWhenOthersDecide(victims=[2], watch=[0, 1])
        assert set(adversary.dynamic_crashes(FakeView({0}))) == set()
        assert set(adversary.dynamic_crashes(FakeView({0, 1}))) == {2}

    def test_watch_must_be_nonempty(self):
        with pytest.raises(ValueError):
            CrashWhenOthersDecide(victims=[1], watch=[])

    def test_crash_after_own_decide(self):
        adversary = CrashAfterDecide(victims=[0, 1])
        assert set(adversary.dynamic_crashes(FakeView({0}))) == {0}
        assert set(adversary.dynamic_crashes(FakeView({0, 1, 2}))) == {0, 1}


class TestRandomCrashes:
    def test_within_budget(self):
        for seed in range(30):
            adversary = RandomCrashes(10, 3, seed=seed)
            assert len(adversary.potentially_faulty()) <= 3

    def test_deterministic(self):
        a = RandomCrashes(10, 3, seed=7)
        b = RandomCrashes(10, 3, seed=7)
        assert a.potentially_faulty() == b.potentially_faulty()

    def test_sometimes_failure_free(self):
        sizes = {
            len(RandomCrashes(10, 3, seed=seed).potentially_faulty())
            for seed in range(40)
        }
        assert 0 in sizes
        assert max(sizes) > 0


class TestCombine:
    def test_union_of_behaviours(self):
        combined = combine(
            CrashPlan({0: CrashPoint(after_steps=1)}),
            CrashWhenOthersDecide(victims=[1], watch=[2]),
        )
        assert combined.potentially_faulty() == {0, 1}
        assert combined.crashes_before_step(0, 1)
        assert not combined.crashes_before_step(1, 1)
        assert set(combined.dynamic_crashes(FakeView({2}))) == {1}

    def test_union_is_dynamic_only_with_a_dynamic_part(self):
        """Explorers treat an adversary that overrides ``dynamic_crashes``
        as reacting to global state, so a union of static plans must
        not override it."""
        static = combine(CrashPlan({0: CrashPoint(after_steps=1)}), CrashPlan({}))
        dynamic = combine(static, CrashWhenOthersDecide(victims=[1], watch=[2]))
        base = CrashAdversary.dynamic_crashes
        assert type(static).dynamic_crashes is base
        assert type(dynamic).dynamic_crashes is not base
        assert dynamic.potentially_faulty() == {0, 1}
        assert set(dynamic.dynamic_crashes(FakeView({2}))) == {1}
