"""Concrete crash adversaries.

In the crash model a faulty process "executes only finitely many
instructions" (Section 2): it may halt before starting, between handler
steps, or in the middle of a broadcast (some destinations receive the
message, others never will).  The adversaries here express the crash
patterns used throughout the paper's proofs plus a seeded random
adversary for fuzzing.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.failures.adversary import CrashAdversary

__all__ = [
    "CrashAfterDecide",
    "CrashPlan",
    "CrashPoint",
    "CrashWhenOthersDecide",
    "RandomCrashes",
    "combine",
]


@dataclasses.dataclass(frozen=True)
class CrashPoint:
    """Where one process crashes.

    Attributes:
        after_steps: halt before taking handler step number
            ``after_steps`` (0 means the process never starts).
        after_sends: suppress the send with index ``after_sends`` and all
            later activity (crash mid-broadcast; 0 sends nothing).
    """

    after_steps: Optional[int] = None
    after_sends: Optional[int] = None

    def __post_init__(self) -> None:
        if self.after_steps is None and self.after_sends is None:
            raise ValueError("a crash point must bound steps or sends")
        for field in (self.after_steps, self.after_sends):
            if field is not None and field < 0:
                raise ValueError("crash point bounds must be non-negative")


class CrashPlan(CrashAdversary):
    """Static crash schedule: an explicit :class:`CrashPoint` per victim."""

    def __init__(self, points: Mapping[int, CrashPoint]) -> None:
        self._points: Dict[int, CrashPoint] = dict(points)

    def potentially_faulty(self) -> FrozenSet[int]:
        return frozenset(self._points)

    def crashes_before_step(self, pid: int, steps_taken: int) -> bool:
        point = self._points.get(pid)
        return (
            point is not None
            and point.after_steps is not None
            and steps_taken >= point.after_steps
        )

    def crashes_at_send(self, pid: int, sends_made: int) -> bool:
        point = self._points.get(pid)
        return (
            point is not None
            and point.after_sends is not None
            and sends_made >= point.after_sends
        )


class CrashWhenOthersDecide(CrashAdversary):
    """Crash ``victims`` once every process in ``watch`` has decided.

    This is the dynamic pattern of several proofs, e.g. Lemma 4.3's run
    ``alpha_i`` where "processes in g, except process p_i, fail after p_i
    decides".
    """

    def __init__(self, victims: Iterable[int], watch: Iterable[int]) -> None:
        self._victims = frozenset(victims)
        self._watch = frozenset(watch)
        if not self._watch:
            raise ValueError("watch set must be non-empty")

    def potentially_faulty(self) -> FrozenSet[int]:
        return self._victims

    def dynamic_crashes(self, view) -> Iterable[int]:
        if all(view.has_decided(p) for p in self._watch):
            return self._victims
        return ()


class CrashAfterDecide(CrashAdversary):
    """Each victim crashes immediately after its own decision.

    Used to stress the distinction between SV1-style conditions (which
    refer to *correct* processes' inputs) and their regular variants: a
    process whose input was decided upon may turn out faulty (proof of
    Lemma 3.5).
    """

    def __init__(self, victims: Iterable[int]) -> None:
        self._victims = frozenset(victims)

    def potentially_faulty(self) -> FrozenSet[int]:
        return self._victims

    def dynamic_crashes(self, view) -> Iterable[int]:
        return tuple(p for p in self._victims if view.has_decided(p))


class RandomCrashes(CrashAdversary):
    """Seeded random crash schedule staying within the budget ``t``.

    Picks up to ``t`` victims and a random step/send bound for each.
    ``none_probability`` leaves room for failure-free and low-failure
    runs in fuzz sweeps.
    """

    def __init__(
        self,
        n: int,
        t: int,
        seed: int = 0,
        max_point: int = 50,
        none_probability: float = 0.2,
    ) -> None:
        rng = random.Random(seed)
        points: Dict[int, CrashPoint] = {}
        count = rng.randint(0, t) if rng.random() >= none_probability else 0
        for pid in rng.sample(range(n), count):
            if rng.random() < 0.5:
                points[pid] = CrashPoint(after_steps=rng.randint(0, max_point))
            else:
                points[pid] = CrashPoint(after_sends=rng.randint(0, max_point))
        self._plan = CrashPlan(points)

    def potentially_faulty(self) -> FrozenSet[int]:
        return self._plan.potentially_faulty()

    def crashes_before_step(self, pid: int, steps_taken: int) -> bool:
        return self._plan.crashes_before_step(pid, steps_taken)

    def crashes_at_send(self, pid: int, sends_made: int) -> bool:
        return self._plan.crashes_at_send(pid, sends_made)


class _Combined(CrashAdversary):
    """A union of static adversaries: it reacts to no global state."""

    def __init__(self, parts) -> None:
        self._parts = tuple(parts)

    def potentially_faulty(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for part in self._parts:
            out |= part.potentially_faulty()
        return frozenset(out)

    def crashes_before_step(self, pid: int, steps_taken: int) -> bool:
        return any(p.crashes_before_step(pid, steps_taken) for p in self._parts)

    def crashes_at_send(self, pid: int, sends_made: int) -> bool:
        return any(p.crashes_at_send(pid, sends_made) for p in self._parts)


class _DynamicCombined(_Combined):
    """A union with at least one dynamic part."""

    def dynamic_crashes(self, view) -> Iterable[int]:
        out: Set[int] = set()
        for part in self._parts:
            out |= set(part.dynamic_crashes(view))
        return out


def combine(*adversaries: CrashAdversary) -> CrashAdversary:
    """Union of several crash adversaries (a process crashes when any says so).

    The union overrides :meth:`CrashAdversary.dynamic_crashes` only when
    some part does, so a union of static plans stays static: the
    exhaustive explorers keep partial-order reduction and their memos
    for it, as they do for each part alone.
    """
    static = CrashAdversary.dynamic_crashes
    if any(type(part).dynamic_crashes is not static for part in adversaries):
        return _DynamicCombined(adversaries)
    return _Combined(adversaries)
