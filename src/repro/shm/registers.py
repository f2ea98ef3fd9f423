"""Single-writer multi-reader atomic registers.

The paper's shared-memory model (Section 4) provides single-writer
multi-reader atomic registers: exactly one designated process may write
each register -- "any other process, even if Byzantine faulty, is
prohibited from writing to it" -- and reads/writes appear to occur
sequentially.  The register file below enforces single-writer access and
keeps a full version history so tests can independently verify
atomicity (reads return the latest preceding write).
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Sequence, Tuple

from repro.core.values import EMPTY

__all__ = ["RegisterFile", "RegisterHistoryEntry", "SingleWriterViolation"]


class SingleWriterViolation(RuntimeError):
    """A process attempted to write a register it does not own."""


@dataclasses.dataclass(frozen=True)
class RegisterHistoryEntry:
    """One committed write: (global operation index, value written)."""

    op_index: int
    value: Any


class RegisterFile:
    """``n`` single-writer multi-reader atomic registers.

    Register ``i`` is owned (writable) by process ``i`` only.  All
    operations are stamped with a global, monotonically increasing
    operation index, defining the sequential history that atomicity
    promises.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("need at least one register")
        self.n = n
        self._values: List[Any] = [EMPTY] * n
        self._histories: List[List[RegisterHistoryEntry]] = [[] for _ in range(n)]
        self._reads: List[List[Tuple[int, int, Any]]] = [[] for _ in range(n)]
        self._op_index = 0

    def _stamp(self) -> int:
        index = self._op_index
        self._op_index += 1
        return index

    def write(self, writer: int, owner: int, value: Any) -> int:
        """Commit a write; returns the operation index.

        Raises:
            SingleWriterViolation: when ``writer != owner``.
        """
        if writer != owner:
            raise SingleWriterViolation(
                f"p{writer} attempted to write register of p{owner}"
            )
        if not 0 <= owner < self.n:
            raise ValueError(f"no such register: {owner}")
        index = self._stamp()
        self._values[owner] = value
        self._histories[owner].append(RegisterHistoryEntry(index, value))
        return index

    def read(self, reader: int, owner: int) -> Tuple[int, Any]:
        """Atomically read register ``owner``; returns (op index, value)."""
        if not 0 <= owner < self.n:
            raise ValueError(f"no such register: {owner}")
        index = self._stamp()
        value = self._values[owner]
        self._reads[owner].append((index, reader, value))
        return index, value

    def current(self, owner: int) -> Any:
        """Peek at a register without a stamped operation.

        For tests and the exhaustive explorer's fingerprints.
        """
        return self._values[owner]

    def current_values(self) -> Tuple[Any, ...]:
        """Snapshot of every register's current content (index = owner).

        Unstamped, like :meth:`current`; used by the exhaustive
        explorer's structural fingerprint.
        """
        return tuple(self._values)

    def load(self, values: Sequence[Any]) -> None:
        """Install every register's content without a stamped operation.

        Used by :meth:`~repro.shm.kernel.SMKernel.restore`; the write and
        read histories are left alone.
        """
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} register values")
        self._values = list(values)

    def history(self, owner: int) -> Tuple[RegisterHistoryEntry, ...]:
        return tuple(self._histories[owner])

    def read_log(self, owner: int) -> Tuple[Tuple[int, int, Any], ...]:
        return tuple(self._reads[owner])

    def verify_atomicity(self) -> bool:
        """Re-check that every logged read returned the latest prior write.

        This is redundant with the implementation (operations are
        executed sequentially) but gives tests an independent oracle over
        the recorded history.
        """
        for owner in range(self.n):
            writes = self._histories[owner]
            for read_index, _reader, value in self._reads[owner]:
                latest: Any = EMPTY
                for entry in writes:
                    if entry.op_index < read_index:
                        latest = entry.value
                    else:
                        break
                if value is not latest and value != latest:
                    return False
        return True
