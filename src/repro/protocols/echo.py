"""The ℓ-echo broadcast protocol (Section 3.2.2, Lemma 3.14).

A generalization of Bracha and Toueg's echo protocol [11]; the 1-echo
instance is exactly theirs.  To ℓ-echo broadcast a message ``m``:

* the sender sends ``<init, s, m>`` to all other processes;
* on the *first* ``<init, s, m>`` from ``s``, a process sends
  ``<echo, s, m>`` to all (subsequent inits from ``s`` are ignored);
* a process *accepts* ``m`` from ``s`` once it received ``<echo, s, m>``
  from more than ``(n + ℓt)/(ℓ + 1)`` distinct processes.

Lemma 3.14: if ``t < ℓn/(2ℓ+1)`` then (1) correct processes accept at
most ``ℓ`` different messages per sender, and (2) if the sender is
correct every correct process accepts its message.

The engine is transport-agnostic: protocols embed an
:class:`LEchoEngine` and feed it every incoming payload; accepted
``(sender, message)`` pairs are surfaced through a callback.  Because
the paper's network is authenticated (no forgery), the transport-level
sender identifies who an init is from, and who each echo vote is from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.protocols.base import tagged
from repro.runtime.process import Context

__all__ = ["LEchoEngine", "accept_threshold", "lemma_3_14_region"]

INIT = "EC-INIT"
ECHO = "EC-ECHO"


def accept_threshold(n: int, t: int, ell: int) -> int:
    """Minimum echo count that exceeds ``(n + ℓt)/(ℓ + 1)``.

    Acceptance requires *more than* ``(n + ℓt)/(ℓ+1)`` echoes; this
    returns the smallest integer count satisfying that strict bound.
    """
    bound = Fraction(n + ell * t, ell + 1)
    count = int(bound) + 1
    return count


def lemma_3_14_region(n: int, t: int, ell: int) -> bool:
    """The premise of Lemma 3.14: ``t < ℓn/(2ℓ + 1)``."""
    return Fraction(t) < Fraction(ell * n, 2 * ell + 1)


class LEchoEngine:
    """Per-process state of the ℓ-echo broadcast protocol.

    Args:
        ell: the ℓ parameter (``ell >= 1``).
        on_accept: invoked as ``on_accept(ctx, sender, message)`` each
            time a new ``(sender, message)`` pair is accepted.
    """

    def __init__(
        self,
        ell: int,
        on_accept: Callable[[Context, int, Any], None],
    ) -> None:
        if ell < 1:
            raise ValueError("ell must be at least 1")
        self.ell = ell
        self._on_accept = on_accept
        self._echoed_for: Set[int] = set()
        self._echoers: Dict[Tuple[int, Any], Set[int]] = {}
        self._accepted: Dict[int, List[Any]] = {}

    # -- sending ------------------------------------------------------------

    def broadcast(self, ctx: Context, message: Any) -> None:
        """ℓ-echo broadcast ``message`` as the sender."""
        ctx.broadcast((INIT, message))

    # -- receiving ------------------------------------------------------------

    def handle(self, ctx: Context, sender: int, payload: Any) -> bool:
        """Feed one incoming payload; returns ``True`` if it was consumed."""
        if tagged(payload, INIT, 1):
            self._handle_init(ctx, sender, payload[1])
            return True
        if tagged(payload, ECHO, 2):
            origin = payload[1]
            if isinstance(origin, int) and 0 <= origin < ctx.n:
                self._handle_echo(ctx, sender, origin, payload[2])
            return True
        return False

    def _handle_init(self, ctx: Context, sender: int, message: Any) -> None:
        if sender in self._echoed_for:
            return  # never echo twice for the same sender
        self._echoed_for.add(sender)
        ctx.broadcast((ECHO, sender, message))

    def _handle_echo(
        self, ctx: Context, voter: int, origin: int, message: Any
    ) -> None:
        key = (origin, message)
        votes = self._echoers.setdefault(key, set())
        if voter in votes:
            return  # one echo per voter per (sender, message)
        votes.add(voter)
        already = self._accepted.setdefault(origin, [])
        if message in already:
            return
        if len(votes) >= accept_threshold(ctx.n, ctx.t, self.ell):
            already.append(message)
            self._on_accept(ctx, origin, message)

    # -- snapshot protocol ---------------------------------------------------

    def __copy_plain__(self) -> "LEchoEngine":
        """Fork hook for the exhaustive explorer's snapshot protocol.

        Returns an engine with independent bookkeeping; the
        ``on_accept`` callback is shared, which is correct because the
        kernel restores state *in place* -- the process a bound callback
        points at is the same object before and after a restore.  A
        state restored into another kernel's process is rebound by its
        owner (:meth:`ProtocolC.restore_state
        <repro.protocols.protocol_c.ProtocolC.restore_state>`).
        """
        fork = LEchoEngine(self.ell, self._on_accept)
        fork._echoed_for = set(self._echoed_for)
        fork._echoers = {
            key: set(votes) for key, votes in self._echoers.items()
        }
        fork._accepted = {
            origin: list(msgs) for origin, msgs in self._accepted.items()
        }
        return fork

    def __fingerprint__(self) -> Any:
        """Structural identity (plain data) for explorer deduplication.

        Excludes the ``on_accept`` callback: it is code, not state, and
        its binding differs between independently built kernels that
        are otherwise in identical configurations.
        """
        return (self.ell, self._echoed_for, self._echoers, self._accepted)

    # -- introspection ------------------------------------------------------

    def accepted_from(self, origin: int) -> Tuple[Any, ...]:
        """Messages accepted from ``origin`` so far, in acceptance order."""
        return tuple(self._accepted.get(origin, ()))

    def first_accepted_from(self, origin: int) -> Optional[Any]:
        accepted = self._accepted.get(origin)
        return accepted[0] if accepted else None

    def accepted_count(self) -> int:
        """Number of senders from which at least one message was accepted."""
        return sum(1 for msgs in self._accepted.values() if msgs)
