"""Network axioms and trace-level checks.

Section 3 of the paper assumes a completely connected, reliable network:
messages are not lost, duplicated, forged, or generated by the network.
The kernel enforces these by construction, and this module provides
*independent* checkers over finished traces, used by the test suite to
validate the kernel itself (the substrate must be trusted before the
protocols running on it can be).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import List, Tuple

from repro.runtime.traces import Trace

__all__ = ["NetworkAxiomReport", "verify_network_axioms"]


@dataclasses.dataclass(frozen=True)
class NetworkAxiomReport:
    """Result of checking a trace against the network axioms.

    ``lost`` lists sends that were never delivered *to a live process*;
    such entries are only violations if the receiver never crashed and
    the run was driven to quiescence, so the caller interprets them.
    """

    duplicated: Tuple[Tuple[int, int, object], ...]
    forged: Tuple[Tuple[int, int, object], ...]
    lost: Tuple[Tuple[int, int, object], ...]

    @property
    def reliable(self) -> bool:
        """No duplication and no forgery (loss is judged by the caller)."""
        return not self.duplicated and not self.forged


def verify_network_axioms(trace: Trace) -> NetworkAxiomReport:
    """Cross-check sends against deliveries/drops in a finished trace.

    * every delivery (or drop at a crashed receiver) must be backed by a
      distinct send of the same payload on the same channel (no forgery,
      no duplication);
    * sends without a matching delivery or drop are reported as ``lost``.

    ``send`` records carry ``pid=sender, peer=dst``; ``deliver`` and
    ``drop`` records carry ``pid=receiver, peer=sender``, so channels are
    normalized to ``(sender, receiver)`` before matching.
    """
    sends = Counter()
    for r in trace.of_kind("send"):
        sends[(r.pid, r.peer, repr(r.payload))] += 1

    arrivals = Counter()
    for kind in ("deliver", "drop"):
        for r in trace.of_kind(kind):
            arrivals[(r.peer, r.pid, repr(r.payload))] += 1

    duplicated: List[Tuple[int, int, object]] = []
    forged: List[Tuple[int, int, object]] = []
    lost: List[Tuple[int, int, object]] = []

    for key, arrived in arrivals.items():
        sent = sends.get(key, 0)
        if sent == 0:
            forged.append(key)
        elif arrived > sent:
            duplicated.append(key)
    for key, sent in sends.items():
        arrived = arrivals.get(key, 0)
        if arrived < sent:
            lost.append(key)

    return NetworkAxiomReport(
        duplicated=tuple(duplicated),
        forged=tuple(forged),
        lost=tuple(lost),
    )
