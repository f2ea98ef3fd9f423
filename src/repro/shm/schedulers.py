"""Process schedulers for the shared-memory kernel.

In the shared-memory model the asynchrony adversary chooses which
process takes its next atomic operation.  The impossibility proofs of
Section 4 construct runs like "processes in g' do not take any step
until after all processes in g decide" (Lemma 4.3); the schedulers here
express those patterns plus fair baselines.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence, Set

__all__ = [
    "FairProcessWrapper",
    "PredicateProcessScheduler",
    "ProcessScheduler",
    "RandomProcessScheduler",
    "RoundRobinScheduler",
    "StagedScheduler",
]


class ProcessScheduler:
    """Interface: pick the next process to take an operation."""

    def pick(self, kernel) -> Optional[int]:
        """Return a runnable pid, or ``None`` to refuse all.

        ``kernel.runnable_pids()`` lists the runnable pids in ascending
        order, as a fresh list the scheduler may keep or change.
        """
        raise NotImplementedError


class RoundRobinScheduler(ProcessScheduler):
    """Cycle through runnable processes in id order (the fair baseline)."""

    def __init__(self) -> None:
        self._last = -1

    def pick(self, kernel) -> Optional[int]:
        runnable = kernel.runnable_pids()
        if not runnable:
            return None
        for pid in runnable:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = min(runnable)
        return self._last


class RandomProcessScheduler(ProcessScheduler):
    """Pick a runnable process uniformly at random (seeded)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pick(self, kernel) -> Optional[int]:
        runnable = kernel.runnable_pids()
        if not runnable:
            return None
        return self._rng.choice(runnable)


class PredicateProcessScheduler(ProcessScheduler):
    """Run only processes for which ``eligible(kernel, pid)`` holds.

    Among eligible runnable processes, round-robin order is used.  When
    nobody is eligible the scheduler refuses (strict, for proof
    constructions) or falls back to any runnable process
    (``release_on_stall=True``).
    """

    def __init__(
        self,
        eligible: Callable[[object, int], bool],
        release_on_stall: bool = False,
    ) -> None:
        self._eligible = eligible
        self._release_on_stall = release_on_stall
        self._last = -1

    def _rotate(self, candidates: List[int]) -> int:
        for pid in candidates:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = min(candidates)
        return self._last

    def pick(self, kernel) -> Optional[int]:
        runnable = kernel.runnable_pids()
        if not runnable:
            return None
        eligible = [p for p in runnable if self._eligible(kernel, p)]
        if eligible:
            return self._rotate(eligible)
        if self._release_on_stall:
            return self._rotate(runnable)
        return None


class FairProcessWrapper(ProcessScheduler):
    """Guarantee fairness on top of an arbitrary (biased) scheduler.

    The asynchronous model requires every correct process to take
    infinitely many steps; a staged or predicate scheduler driving a
    protocol that busy-waits (e.g. PROTOCOL F's scan loop) can otherwise
    starve the rest of the system forever, which is not a legal run.
    Every ``patience`` picks, the wrapper overrides the inner scheduler
    and runs the least-recently-scheduled runnable process.
    """

    def __init__(self, inner: ProcessScheduler, patience: int = 64) -> None:
        if patience < 1:
            raise ValueError("patience must be positive")
        self._inner = inner
        self._patience = patience
        self._since_override = 0
        self._last_ran: dict = {}

    def pick(self, kernel) -> Optional[int]:
        runnable = kernel.runnable_pids()
        if not runnable:
            return None
        self._since_override += 1
        if self._since_override >= self._patience:
            self._since_override = 0
            pid = min(runnable, key=lambda p: (self._last_ran.get(p, -1), p))
        else:
            pid = self._inner.pick(kernel)
            if pid is None:
                pid = min(runnable, key=lambda p: (self._last_ran.get(p, -1), p))
        self._last_ran[pid] = kernel.tick
        return pid


class StagedScheduler(PredicateProcessScheduler):
    """Run stage after stage: each group runs once the previous decided.

    ``stages`` is an ordered partition of (a subset of) the processes.
    Processes of stage ``i`` become eligible only when every non-crashed
    member of stages ``0..i-1`` has decided; unlisted processes are
    eligible last, after all listed stages decided.  This is the
    "g' takes no steps until after all processes in g decide" pattern.
    """

    def __init__(
        self,
        stages: Sequence[Iterable[int]],
        release_on_stall: bool = False,
    ) -> None:
        self._stages: List[Set[int]] = [set(s) for s in stages]
        seen: Set[int] = set()
        for stage in self._stages:
            overlap = stage & seen
            if overlap:
                raise ValueError(f"stages must be disjoint; repeated: {sorted(overlap)}")
            seen |= stage
        self._listed = seen
        super().__init__(self._stage_eligible, release_on_stall=release_on_stall)

    def _done(self, kernel, members: Set[int]) -> bool:
        return all(
            kernel.has_decided(p) or p in kernel.crashed or not kernel.is_runnable(p)
            for p in members
        )

    def _stage_eligible(self, kernel, pid: int) -> bool:
        preceding: Set[int] = set()
        for stage in self._stages:
            if pid in stage:
                return self._done(kernel, preceding)
            preceding |= stage
        return self._done(kernel, self._listed)
