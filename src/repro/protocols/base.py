"""Protocol registry and shared helpers.

Every protocol module registers a :class:`ProtocolSpec` describing

* how to build it (a process factory for message passing, a program for
  shared memory),
* which models it is claimed correct in,
* which validity condition it guarantees there, and
* its solvable region -- the ``(n, k, t)`` predicate from the paper's
  possibility lemma.

The harness and the figure benchmarks drive everything through this
registry, so adding a protocol automatically enrolls it in the sweeps.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.models import Model

__all__ = [
    "ProtocolSpec",
    "all_specs",
    "get_spec",
    "is_registered",
    "register",
    "tagged",
]


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """Metadata for one (protocol, model, validity) possibility claim.

    Attributes:
        name: registry key, e.g. ``"protocol-a@mp-cr"``.
        title: human-readable name as in the paper, e.g. ``"PROTOCOL A"``.
        model: the model the claim is about.
        validity: code of the guaranteed validity condition.
        lemma: the paper lemma making the claim, e.g. ``"Lemma 3.7"``.
        solvable: predicate ``(n, k, t) -> bool`` -- the claimed region.
        make: factory.  For message-passing models it returns a fresh
            :class:`~repro.runtime.process.Process` given ``(n, k, t)``;
            for shared-memory models it returns an
            :data:`~repro.shm.kernel.SMProgram`.
        notes: interpretation notes (deviations, parameter choices).
    """

    name: str
    title: str
    model: Model
    validity: str
    lemma: str
    solvable: Callable[[int, int, int], bool]
    make: Callable[[int, int, int], Any]
    notes: str = ""

    @property
    def is_shared_memory(self) -> bool:
        return self.model.is_shared_memory


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a spec to the registry (idempotent for identical names)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValueError(f"duplicate protocol spec name: {spec.name}")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ProtocolSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def is_registered(spec: ProtocolSpec) -> bool:
    """Does ``spec`` resolve by its name, so a worker process can get it?"""
    return _REGISTRY.get(spec.name) is spec


def all_specs(
    model: Optional[Model] = None,
    validity: Optional[str] = None,
) -> Tuple[ProtocolSpec, ...]:
    """All registered specs, optionally filtered by model and validity."""
    specs = sorted(_REGISTRY.values(), key=lambda s: s.name)
    if model is not None:
        specs = [s for s in specs if s.model is model]
    if validity is not None:
        specs = [s for s in specs if s.validity == validity.upper()]
    return tuple(specs)


def tagged(payload: Any, tag: str, arity: int) -> bool:
    """Validate an incoming payload as ``(tag, field_1 ... field_arity)``.

    Byzantine processes may send arbitrary garbage; correct processes
    accept only well-formed messages.  The check also requires the value
    fields to be hashable, since protocols aggregate them in sets and
    dictionaries.
    """
    if not isinstance(payload, tuple) or len(payload) != arity + 1:
        return False
    if payload[0] != tag:
        return False
    for field in payload[1:]:
        try:
            hash(field)
        except TypeError:
            return False
    return True
