"""PROTOCOL C(ℓ) (Section 3.2.2).

    "Each process broadcasts its input using the ℓ-echo protocol and
    waits for n - t messages to be accepted, where one of these n - t
    messages is the process' own message.  If n - 2t messages contain
    the same value v, then the process decides v, else it decides a
    default value v0."

Lemma 3.15: solves ``SC(k, t, SV2)`` in MP/Byz for
``t < (k-1)n/(2k+ℓ-1)`` and ``t < ℓn/(2ℓ+1)``.
Lemma 4.11: its SIMULATION solves the same in SM/Byz.

Interpretation note: the validity proof of Lemma 3.15 observes that a
process "either decides v or v0" where v is *its own* input, so -- as in
PROTOCOL B, of which this is the Byzantine-hardened version -- the
non-default decision test is "at least ``n - 2t`` accepted values equal
the process's own input".  Per sender, the first accepted value counts
(a Byzantine sender can get up to ℓ values accepted).

Since ``SC(RV2)`` is weaker than ``SC(SV2)``, the same protocol also
carries the RV2 claims used by Figs. 4 and 6.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Dict, Optional

from repro.core.values import DEFAULT, Value
from repro.models import Model
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.echo import LEchoEngine, lemma_3_14_region
from repro.runtime.process import Context, Process

__all__ = [
    "MP_BYZ_RV2_SPEC",
    "MP_BYZ_SV2_SPEC",
    "ProtocolC",
    "best_ell",
    "lemma_3_15_region",
]


class ProtocolC(Process):
    """ℓ-echo broadcast inputs; decide own input on an ``n - 2t`` quorum."""

    def __init__(self, ell: int) -> None:
        self.ell = ell
        self._engine = LEchoEngine(ell, self._accepted)
        self._first_value: Dict[int, Value] = {}

    def on_start(self, ctx: Context) -> None:
        self._engine.broadcast(ctx, ctx.input)

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        self._engine.handle(ctx, sender, payload)

    def restore_state(self, state: Dict[str, Any]) -> None:
        super().restore_state(state)
        # The engine's callback is bound to the process the state was
        # copied from.  A state taken in another kernel (a frontier
        # root, or one unpickled in a worker) must call back into this
        # process, not into that one.
        self._engine._on_accept = self._accepted

    def _accepted(self, ctx: Context, origin: int, message: Any) -> None:
        if origin not in self._first_value:
            self._first_value[origin] = message
        if ctx.decided:
            return  # keep participating in echoes for others' termination
        if len(self._first_value) >= ctx.n - ctx.t and ctx.pid in self._first_value:
            matching = sum(
                1 for v in self._first_value.values() if v == ctx.input
            )
            if matching >= ctx.n - 2 * ctx.t:
                ctx.decide(ctx.input)
            else:
                ctx.decide(DEFAULT)


def lemma_3_15_region(n: int, k: int, t: int, ell: int) -> bool:
    """``t < (k-1)n/(2k+ℓ-1)`` and ``t < ℓn/(2ℓ+1)``."""
    return (
        Fraction(t) < Fraction((k - 1) * n, 2 * k + ell - 1)
        and lemma_3_14_region(n, t, ell)
    )


@functools.lru_cache(maxsize=None)
def best_ell(n: int, k: int, t: int) -> Optional[int]:
    """Smallest ℓ making ``(n, k, t)`` solvable by PROTOCOL C(ℓ).

    The echo-quality bound ``t < ℓn/(2ℓ+1)`` improves with larger ℓ
    while the agreement bound ``t < (k-1)n/(2k+ℓ-1)`` degrades, so the
    feasible ℓ form an interval; the smallest feasible ℓ also minimizes
    message processing (fewer distinct messages can be accepted per
    Byzantine sender).  Returns ``None`` when no ℓ works.
    """
    for ell in range(1, 2 * n + 2):
        if lemma_3_15_region(n, k, t, ell):
            return ell
        if Fraction(t) >= Fraction((k - 1) * n, 2 * k + ell - 1):
            # The agreement bound only gets worse with larger ell.
            return None
    return None


def _solvable(n: int, k: int, t: int) -> bool:
    return best_ell(n, k, t) is not None


def _make(n: int, k: int, t: int) -> ProtocolC:
    ell = best_ell(n, k, t)
    if ell is None:
        raise ValueError(
            f"(n={n}, k={k}, t={t}) is outside PROTOCOL C's solvable region"
        )
    return ProtocolC(ell)


MP_BYZ_SV2_SPEC = register(
    ProtocolSpec(
        name="protocol-c@mp-byz",
        title="PROTOCOL C(l)",
        model=Model.MP_BYZ,
        validity="SV2",
        lemma="Lemma 3.15",
        solvable=_solvable,
        make=_make,
        notes="l chosen per (n, k, t) by best_ell().",
    )
)

MP_BYZ_RV2_SPEC = register(
    ProtocolSpec(
        name="protocol-c-rv2@mp-byz",
        title="PROTOCOL C(l)",
        model=Model.MP_BYZ,
        validity="RV2",
        lemma="Lemma 3.15 (RV2 weaker than SV2)",
        solvable=_solvable,
        make=_make,
        notes="SC(RV2) is weaker than SC(SV2); the SV2 region carries over.",
    )
)
