"""Message-passing process abstraction.

Protocols for the message-passing models are written as subclasses of
:class:`Process` with two handlers:

* :meth:`Process.on_start` -- the process's first step, where it
  typically broadcasts its input;
* :meth:`Process.on_message` -- invoked once per delivered message.

Handlers interact with the system only through the :class:`Context`
object the kernel passes in: ``ctx.send``/``ctx.broadcast`` to
communicate and ``ctx.decide`` to decide irrevocably.  This keeps
protocol code independent of the kernel that runs it, which is what lets
the :mod:`repro.protocols.simulation` transform re-run the same protocol
objects over shared memory.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.values import Value

__all__ = ["Context", "Process", "ProtocolError", "copy_plain"]


def copy_plain(value: Any) -> Any:
    """Copy a plain-data value (dicts/lists/sets/tuples of immutables).

    This is the fork primitive of the snapshot protocol: it recursively
    copies the built-in mutable containers and shares everything else
    (numbers, strings, frozen dataclasses, ``None``...).  It is an order
    of magnitude cheaper than :func:`copy.deepcopy` because it never
    consults ``__deepcopy__``/``__reduce__`` machinery or maintains a
    memo table -- which is safe precisely because protocol state is
    plain data (no aliasing cycles, no open files, no generators; the
    ``SNAP001`` staticcheck rule enforces this for
    :class:`Process` subclasses).

    Composite helper objects that a process legitimately keeps on
    ``self`` (e.g. the ℓ-echo engine) opt into forking by defining
    ``__copy_plain__(self)``, returning an independent copy of their
    mutable state; anything else is shared by reference.
    """
    cls = value.__class__
    if cls is dict:
        return {key: copy_plain(item) for key, item in value.items()}
    if cls is list:
        return [copy_plain(item) for item in value]
    if cls is set:
        return set(value)
    if cls is tuple:
        return tuple(copy_plain(item) for item in value)
    copier = getattr(cls, "__copy_plain__", None)
    if copier is not None:
        return copier(value)
    return value


class ProtocolError(RuntimeError):
    """A protocol implementation broke a kernel rule (e.g. double decide)."""


class Context:
    """The interface a process uses to act on the world.

    Concrete kernels subclass this and implement :meth:`_emit_send`.
    A context belongs to exactly one process for one execution.
    """

    def __init__(self, pid: int, n: int, t: int, input_value: Value) -> None:
        self.pid = pid
        self.n = n
        self.t = t
        self.input = input_value
        self._decision: Optional[Value] = None
        self._decided = False

    # -- communication ----------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to process ``dst`` over the reliable network."""
        if not 0 <= dst < self.n:
            raise ProtocolError(f"send to unknown process {dst}")
        self._emit_send(dst, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every process, including the sender itself.

        The paper's protocols count the sender's own message among those
        it waits for ("one of these n-t messages is the process' own
        message"), so broadcast includes self-delivery.
        """
        for dst in range(self.n):
            self.send(dst, payload)

    # -- deciding ----------------------------------------------------------

    def decide(self, value: Value) -> None:
        """Irrevocably decide ``value``.

        A process decides at most once; deciding again is a protocol bug
        and raises :class:`ProtocolError`.
        """
        if self._decided:
            raise ProtocolError(f"p{self.pid} attempted to decide twice")
        self._decided = True
        self._decision = value
        self._emit_decide(value)

    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def decision(self) -> Optional[Value]:
        return self._decision

    # -- kernel hooks ------------------------------------------------------

    def _emit_send(self, dst: int, payload: Any) -> None:
        raise NotImplementedError

    def _emit_decide(self, value: Value) -> None:
        """Kernels may override to trace decisions; default is a no-op."""


class Process:
    """Base class for message-passing protocol processes.

    Subclasses implement the two handlers.  A process must not keep
    references to the context across executions; the kernel passes the
    context into every handler call.
    """

    def on_start(self, ctx: Context) -> None:
        """The process's initial step."""

    def on_message(self, ctx: Context, sender: int, payload: Any) -> None:
        """Handle one delivered message from ``sender``."""

    # -- snapshot protocol -------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Plain-data copy of this process's mutable state.

        Part of the kernel fork protocol used by the exhaustive
        explorer: a snapshot must share no mutable structure with the
        live process, and :meth:`restore_state` applied to it must
        reproduce the process bit-for-bit.  The default implementation
        copies ``__dict__`` with :func:`copy_plain`, which is correct
        for any process holding only plain data (all protocols in this
        library); subclasses with exotic state may override both hooks.

        :class:`~repro.runtime.kernel.MPKernel` snapshots copy-on-write:
        it calls this only for a process that ran a handler since its
        state was last copied or installed, and shares the earlier copy
        otherwise.  A process's state must therefore change only while
        the kernel runs one of its handlers, and nothing may mutate the
        returned copy.
        """
        return {
            key: copy_plain(item) for key, item in self.__dict__.items()
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Reset this process to a state captured by :meth:`snapshot_state`.

        The snapshot may be restored many times (once per explored
        branch), so the installed state is copied again rather than
        aliased.  :class:`~repro.runtime.kernel.MPKernel` calls this only
        for a process whose live state is not already ``state``: one
        that ran a handler since ``state`` was taken or installed, or
        any process of a kernel that never saw ``state``.
        """
        self.__dict__.clear()
        self.__dict__.update(
            (key, copy_plain(item)) for key, item in state.items()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
