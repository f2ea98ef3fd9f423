"""Deterministic fault injection aimed at the harness itself.

The repo spends most of its code adversarially scheduling *protocols*;
this module points the same mindset at the execution layer.  A
:class:`ChaosPolicy` decides -- as a pure function of ``(policy.seed,
shard_id, attempt)``, via the same SHA-256 mix every other seed in the
repo uses -- whether a given shard attempt should be SIGKILLed, hung
past its timeout, or failed with a transient exception.  Determinism
matters twice over:

* the chaos-smoke CI job and the test suite reproduce the exact same
  fault schedule on every run and platform;
* because injection is keyed by *attempt*, a shard killed on its first
  attempt runs clean on the retry, which is precisely the
  crash-recover-converge scenario the supervisor exists to handle.

Injection happens inside the worker child (:func:`apply_chaos` is
called before the real payload runs), so a SIGKILL exercises the
supervisor's genuine dead-worker path -- no mocking.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from typing import Optional

from repro.harness.parallel import derive_seed

__all__ = ["ChaosError", "ChaosPolicy", "apply_chaos"]

#: Actions a policy can inject, in evaluation order.
KILL, HANG, ERROR = "kill", "hang", "error"


class ChaosError(RuntimeError):
    """The injected transient failure (retryable by design)."""


@dataclasses.dataclass(frozen=True)
class ChaosPolicy:
    """Deterministic per-attempt fault schedule.

    Rates are probabilities over the shard/attempt space; they are
    evaluated against one uniform draw, so ``kill_rate + hang_rate +
    error_rate`` must stay <= 1.  ``max_chaos_attempts`` bounds how many
    attempts of one shard can be sabotaged (default 1: first attempt
    may fail, retries run clean), keeping every chaos run convergent.
    """

    seed: int = 0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    max_chaos_attempts: int = 1
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        total = self.kill_rate + self.hang_rate + self.error_rate
        if not 0.0 <= total <= 1.0:
            raise ValueError(
                f"chaos rates must sum to [0, 1], got {total}"
            )

    @property
    def active(self) -> bool:
        return (self.kill_rate or self.hang_rate or self.error_rate) > 0

    def action(self, shard_id: str, attempt: int) -> Optional[str]:
        """The fault for this attempt: ``kill``/``hang``/``error``/None.

        Pure and stable: the same policy, shard, and attempt always
        yield the same fault on every machine.
        """
        if attempt > self.max_chaos_attempts:
            return None
        draw = derive_seed("chaos", self.seed, shard_id, attempt)
        uniform = draw / float(1 << 62)
        if uniform < self.kill_rate:
            return KILL
        if uniform < self.kill_rate + self.hang_rate:
            return HANG
        if uniform < self.kill_rate + self.hang_rate + self.error_rate:
            return ERROR
        return None


def apply_chaos(
    policy: Optional[ChaosPolicy],
    shard_id: str,
    attempt: int,
) -> None:
    """Execute the policy's fault for this attempt, if any.

    Called in the worker child at the top of every shard attempt.
    """
    if policy is None:
        return
    action = policy.action(shard_id, attempt)
    if action is None:
        return
    if action == ERROR:
        raise ChaosError(
            f"injected transient failure (shard {shard_id}, "
            f"attempt {attempt})"
        )
    if action == KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    if action == HANG:
        time.sleep(policy.hang_seconds)
