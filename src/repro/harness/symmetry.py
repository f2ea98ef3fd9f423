"""Process-permutation symmetry reduction for exhaustive exploration.

All protocols in this reproduction treat process identities
symmetrically up to three observable distinctions: the *input value* a
process starts with, the *crash point* a static adversary assigns to
it, and -- for PROTOCOL D -- its *role* (broadcaster ``pid <= t`` or
not).  Renaming processes by any permutation that preserves those three
classifications maps every reachable global state onto another
reachable global state with an isomorphic future: the renaming is an
automorphism of the exploration's transition system.

The explorer exploits that by canonicalizing every structural
fingerprint *modulo the symmetry group* before it touches the visited
store: a state is recognized as already-explored when any renaming of
it was.  Representative counterexample paths are unaffected -- pruning
only cuts branches whose orbit was covered -- so witnesses still replay
on fresh kernels.

Soundness is gated explicitly, never assumed:

* Renaming a state requires knowing where process ids live inside
  protocol state and message payloads.  Every participating protocol
  *declares* that shape (:class:`MPSymmetry` / :class:`SMSymmetry`);
  undeclared protocols, heterogeneous process lists, and unknown state
  fields disable symmetry with a recorded reason.
* Only adversaries that assign crash behaviour *per process, statically*
  compose: ``None`` / :class:`~repro.failures.adversary.NoCrashes` (no
  constraint) and exact :class:`~repro.failures.crash.CrashPlan`
  (permutations must preserve each process's crash point).  Anything
  else -- dynamic adversaries especially -- breaks symmetry and
  disables the reduction.
* Shared-memory programs observe register *owners* in program order, so
  an arbitrary renaming of a partial scan is not a reachable log shape.
  Declared SM programs state their scan discipline
  (``write_then_scan`` / ``decide_only``) and each candidate
  permutation is checked per state: it must stabilize every in-progress
  scan prefix (which is always ``{0 .. m-1}`` for ascending scans).

Message-passing canonical fingerprints are the minimum of the renamed
*id* fingerprint over the renamings that sort the state (the scalarset
normalization of Ip & Dill, 1996): each process gets a key that
renaming cannot change -- the orbit shape of its local state, how many
of its messages are in flight, whether it crashed, and its counters
when the fingerprint holds them -- and only the renamings that leave
every interchangeability class ordered by key are tried, so only
processes with equal keys are permuted.  The explorer hash-conses every
per-process local state and pending-event signature into a
per-exploration table of first-seen ids, and :class:`MPSymmetryContext`
renames those ids through per-group-element memo tables, interning each
renamed value into the same table.  Equal values share an id and the
key commutes with renaming, so every member of an orbit has the same
set of sorted images and the minimum is an orbit invariant; ids are
assigned in the order of a deterministic search, which keeps parallel
frontier merges bit-identical.  Shared-memory canonical fingerprints
work on the shared-memory ids (each process's results log
chain-interned, each local state and register value numbered):
:class:`SMSymmetryContext` renames local-state ids through
per-group-element memo tables, moves register ids and crashed pids by
the permutation, and takes the minimum int tuple over *every*
permutation that passes its per-state scan filter.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (
    Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple,
)

from repro.failures.adversary import CrashAdversary, NoCrashes
from repro.failures.crash import CrashPlan
from repro.runtime.events import Delivery

__all__ = [
    "MPSymmetry",
    "MPSymmetryContext",
    "SMSymmetry",
    "SMSymmetryContext",
    "mp_symmetry_context",
    "register_mp_symmetry",
    "register_sm_symmetry",
    "sm_symmetry_context",
    "symmetry_group",
]

#: A process renaming: ``perm[old_pid] == new_pid``.
Perm = Tuple[int, ...]


# ---------------------------------------------------------------------------
# declarations


#: How one state field of a message-passing process mentions pids.
#:
#: * ``"plain"``        -- pid-free plain data, renamed as-is.
#: * ``"pid_keyed"``    -- ``Dict[pid, pid-free value]``.
#: * ``"pid_set"``      -- ``Set[pid]``.
#: * ``"origin_votes"`` -- ``Dict[(origin_pid, pid-free msg), Set[pid]]``.
#: * ``"echo_engine"``  -- an :class:`~repro.protocols.echo.LEchoEngine`.
_FIELD_KINDS = frozenset(
    {"plain", "pid_keyed", "pid_set", "origin_votes", "echo_engine"}
)


@dataclasses.dataclass(frozen=True)
class MPSymmetry:
    """Renaming declaration for one message-passing protocol class.

    Attributes:
        fields: state-field name -> field kind (see :data:`_FIELD_KINDS`).
            Every attribute the protocol ever stores on ``self`` must be
            declared; an unknown field disables symmetry (fail-safe).
        origin_tags: payload tags whose element ``[1]`` is a process id
            (e.g. ``("EC-ECHO", origin, msg)``); every other payload
            must be pid-free.
        roles: optional ``(pid, n, t) -> role key``; permutations must
            preserve roles (PROTOCOL D's broadcasters ``pid <= t``).
    """

    fields: Mapping[str, str]
    origin_tags: FrozenSet[str] = frozenset()
    roles: Optional[Callable[[int, int, int], Any]] = None

    def __post_init__(self) -> None:
        unknown = sorted(set(self.fields.values()) - _FIELD_KINDS)
        if unknown:
            raise ValueError(f"unknown symmetry field kinds: {unknown}")


#: Scan disciplines a shared-memory program may declare.
#:
#: * ``"write_then_scan"`` -- one initial ``Write``, then ``Read`` ops
#:   over owners ``0 .. n-1`` in ascending cycles, then one ``Decide``
#:   (PROTOCOLs E and F).
#: * ``"decide_only"``     -- no register operations that mention owners
#:   (the trivial protocol).
_SM_SHAPES = frozenset({"write_then_scan", "decide_only"})


@dataclasses.dataclass(frozen=True)
class SMSymmetry:
    """Renaming declaration for one shared-memory program."""

    shape: str

    def __post_init__(self) -> None:
        if self.shape not in _SM_SHAPES:
            raise ValueError(f"unknown SM symmetry shape: {self.shape!r}")


_MP_REGISTRY: Dict[type, MPSymmetry] = {}
_SM_REGISTRY: Dict[Any, SMSymmetry] = {}


def register_mp_symmetry(cls: type, decl: MPSymmetry) -> None:
    _MP_REGISTRY[cls] = decl


def register_sm_symmetry(program: Any, decl: SMSymmetry) -> None:
    _SM_REGISTRY[program] = decl


# ---------------------------------------------------------------------------
# group construction


def symmetry_group(keys: Sequence[Any]) -> List[Perm]:
    """All permutations of ``range(len(keys))`` preserving ``keys``.

    Processes with equal keys are interchangeable; the group is the
    direct product of the symmetric groups on each equality class.  The
    identity permutation is always first.
    """
    classes: Dict[str, List[int]] = {}
    for pid, key in enumerate(keys):
        classes.setdefault(repr(key), []).append(pid)
    perms: List[List[int]] = [list(range(len(keys)))]
    for name in sorted(classes):
        members = classes[name]
        if len(members) == 1:
            continue
        extended: List[List[int]] = []
        for perm in perms:
            for arrangement in itertools.permutations(members):
                renamed = perm.copy()
                for old, new in zip(members, arrangement):
                    renamed[old] = new
                extended.append(renamed)
        perms = extended
    return [tuple(perm) for perm in perms]


def _adversary_crash_keys(
    crash_adversary: Optional[CrashAdversary], n: int
) -> Tuple[Optional[List[Any]], str]:
    """Per-pid crash classification, or a reason symmetry must disable.

    Only statically-assigned crash behaviour composes with renaming:
    permutations are restricted to preserve each process's crash point
    exactly, so the renamed execution runs under the *same* adversary.
    """
    if crash_adversary is None or isinstance(crash_adversary, NoCrashes):
        return [None] * n, ""
    if type(crash_adversary) is CrashPlan:
        points = crash_adversary._points
        return [points.get(pid) for pid in range(n)], ""
    return None, (
        f"adversary {type(crash_adversary).__name__} is not a static "
        "per-process crash plan"
    )


# ---------------------------------------------------------------------------
# message-passing canonicalization


def _inverse(perm: Perm) -> Perm:
    inverse = [0] * len(perm)
    for old, new in enumerate(perm):
        inverse[new] = old
    return tuple(inverse)


def _rename_ids(
    renamed: Dict[int, int],
    inverse: Perm,
    pending: List[int],
    procs: Tuple[int, ...],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Renamed ``(pending signature ids, process state ids)``.

    Raises ``KeyError`` when the memo lacks an image; process ``pid``
    moves to position ``perm[pid]``, i.e. position ``j`` takes the state
    of ``inverse[j]``.
    """
    return (
        tuple(sorted([renamed[sig] for sig in pending])),
        tuple([renamed[procs[pid]] for pid in inverse]),
    )


def _shape_value(kind: str, value: Any, pid: int) -> Any:
    """The orbit shape of one declared field at ``pid``.

    Each pid the field mentions is reduced to whether it is ``pid``,
    and each pid set to its size and whether it holds ``pid``; dict
    entries become a multiset, sorted by ``repr`` as in ``_freeze``.
    """
    from repro.harness.exhaustive import _freeze

    if kind == "plain":
        return _freeze(value)
    if kind == "pid_keyed":
        return tuple(sorted(
            ((key == pid, _freeze(entry)) for key, entry in value.items()),
            key=repr,
        ))
    if kind == "pid_set":
        return (len(value), pid in value)
    if kind == "origin_votes":
        return tuple(sorted(
            (
                (origin == pid, _freeze(rest), len(votes), pid in votes)
                for (origin, *rest), votes in value.items()
            ),
            key=repr,
        ))
    # "echo_engine": the same reductions on the engine's three tables.
    return (
        value.ell,
        _shape_value("pid_set", value._echoed_for, pid),
        _shape_value("origin_votes", value._echoers, pid),
        _shape_value("pid_keyed", value._accepted, pid),
    )


class MPSymmetryContext:
    """Per-exploration canonicalizer for one MP instance.

    Built once per exploration (the group depends only on inputs,
    adversary, and roles); :meth:`canonical` is called per node on the
    node's hash-consed state ids.  Renamings are memoized per group
    element: ``_renamed[index]`` maps the id of a local state or event
    signature to the id of its image under ``perms[index]``, so each
    distinct value is renamed and frozen once per group element per
    exploration.  The keys that pick the sorting renamings are memoized
    too: ``_shapes[pid]`` maps a local-state id to the id of its orbit
    shape at ``pid`` (a shape asks "is this pid me", so one state has
    different shapes at different pids), ``_senders`` maps a signature
    id to its sender, and ``_sorting`` maps a class order and tie
    pattern to the group indices that respect it.  The memos hold ids
    of one exploration's state table, so a context serves exactly one
    exploration.
    """

    __slots__ = (
        "_decl", "_perms", "_inverses", "_n", "_renamed", "_classes",
        "_whole_group", "_shapes", "_shape_ids", "_senders", "_sorting",
        "renamings",
    )

    def __init__(self, decl: MPSymmetry, perms: List[Perm], n: int) -> None:
        self._decl = decl
        self._perms = perms
        self._inverses = [_inverse(perm) for perm in perms]
        self._n = n
        self._renamed: List[Dict[int, int]] = [{} for _ in perms]
        #: The interchangeability classes of two or more pids, each
        #: ascending (the orbits of the pids under the group), when one
        #: of them has three or more members.  Otherwise there is no
        #: class to sort: a pair's sorted renamings are half its group
        #: on average, and its keys cost more than the renaming saved.
        classes = sorted({
            tuple(sorted({perm[pid] for perm in perms})) for pid in range(n)
        } - {(pid,) for pid in range(n)})
        self._classes: List[Tuple[int, ...]] = (
            classes if max(map(len, classes), default=0) > 2 else []
        )
        self._whole_group = tuple(range(len(perms)))
        self._shapes: List[Dict[int, int]] = [{} for _ in range(n)]
        self._shape_ids: Dict[Tuple, int] = {}
        #: Signature id -> sender pid; ``n`` for an event that is not a
        #: message.
        self._senders: Dict[int, int] = {}
        self._sorting: Dict[Tuple, Tuple[int, ...]] = {}
        #: Non-identity renamed fingerprints computed so far.
        self.renamings = 0

    @property
    def group_size(self) -> int:
        return len(self._perms)

    def canonical(
        self, node, include_counters: bool, kernel_at: Callable
    ) -> Tuple[Tuple, Optional[Mapping[int, int]]]:
        """Canonical fingerprint of one explored state.

        ``node`` is the state as hash-consed ids (see
        :class:`repro.harness.exhaustive._Node`), and ``kernel_at(node)``
        returns a kernel sitting at that state, which is asked for only
        to learn what the memos lack.  The representative is the
        minimum of the renamed id fingerprint over the renamings that
        sort the state (see :meth:`_sorting_renamings`); those renamings
        map every member of an orbit onto the same set of sorted images,
        and the state table gives equal values equal ids, so that
        minimum is the same for every member of an orbit.

        Returns ``(fingerprint, renamed)``.  ``renamed`` maps every
        signature id of the node to its image under the canonicalizing
        permutation -- sleep-set bookkeeping must live in the same
        coordinates as the store key -- and is ``None`` when the
        canonical representative is the unrenamed state itself.
        """
        procs = node.procs
        pending = sorted(node.sigs.values())
        crashed = sorted(node.crashed)
        steps = node.steps
        sends = node.sends
        candidates = self._sorting_renamings(
            node, pending, include_counters, kernel_at
        ) if self._classes else self._whole_group
        best = None
        best_index = 0
        for index in candidates:
            if index == 0:
                best = (
                    tuple(pending),
                    procs,
                    tuple(crashed),
                    (steps, sends) if include_counters else (),
                )
                continue
            renamed = self._renamed[index]
            inverse = self._inverses[index]
            try:
                head = _rename_ids(renamed, inverse, pending, procs)
            except KeyError:
                self._learn(kernel_at(node), node, index)
                head = _rename_ids(renamed, inverse, pending, procs)
            if best is not None and head[0] > best[0]:
                continue
            perm = self._perms[index]
            fingerprint = head + (
                tuple(sorted([perm[pid] for pid in crashed])),
                (
                    tuple([steps[pid] for pid in inverse]),
                    tuple([sends[pid] for pid in inverse]),
                ) if include_counters else (),
            )
            if best is None or fingerprint < best:
                best = fingerprint
                best_index = index
        self.renamings += len(candidates) - (candidates[0] == 0)
        if best_index == 0:
            return best, None
        return best, self._renamed[best_index]

    # -- sorting -------------------------------------------------------------

    def _sorting_renamings(
        self, node, pending: List[int], include_counters: bool,
        kernel_at: Callable,
    ) -> Tuple[int, ...]:
        """Ascending group indices of the renamings that sort the state.

        A renaming sorts the state when, in its image, the keys of every
        class's members (see :meth:`_process_keys`) do not decrease in
        pid order: each process must move to a position whose rank in
        its class is the rank of its key, so only processes with equal
        keys may trade places.
        """
        keys = self._process_keys(node, pending, include_counters, kernel_at)
        order: List[int] = []
        ties: List[bool] = []
        for members in self._classes:
            ranked = sorted(members, key=keys.__getitem__)
            previous = keys[ranked[0]]
            for pid in ranked[1:]:
                key = keys[pid]
                ties.append(key == previous)
                previous = key
            order += ranked
        pattern = (tuple(order), tuple(ties))
        candidates = self._sorting.get(pattern)
        if candidates is None:
            candidates = self._sorting[pattern] = self._respecting(
                order, ties
            )
        return candidates

    def _process_keys(
        self, node, pending: List[int], include_counters: bool,
        kernel_at: Callable,
    ) -> List[Tuple]:
        """Per-pid keys that commute with renaming.

        The key of ``pid`` is its local state's orbit shape at ``pid``,
        the number of its messages in flight, whether it crashed, and,
        when the fingerprint holds them, its step and send counters.
        Each part is read off the fingerprint's own coordinates, so
        states with one fingerprint get one set of keys, and the image
        of ``pid`` under a renaming has the key ``pid`` has.
        """
        try:
            senders = list(map(self._senders.__getitem__, pending))
        except KeyError:
            self._learn_senders(kernel_at(node), node)
            senders = list(map(self._senders.__getitem__, pending))
        shapes = list(map(dict.get, self._shapes, node.procs))
        if None in shapes:
            self._learn_shapes(kernel_at(node), node)
            shapes = list(map(dict.__getitem__, self._shapes, node.procs))
        crashed = node.crashed
        if include_counters:
            steps = node.steps
            sends = node.sends
            return [
                (shape, senders.count(pid), pid in crashed, steps[pid],
                 sends[pid])
                for pid, shape in enumerate(shapes)
            ]
        return [
            (shape, senders.count(pid), pid in crashed)
            for pid, shape in enumerate(shapes)
        ]

    def _respecting(
        self, order: List[int], ties: List[bool]
    ) -> Tuple[int, ...]:
        """Group indices that move each pid of ``order`` into its tie block.

        ``order`` lists every class's members ranked by key and ``ties``
        says, per adjacent pair of one class, whether their keys are
        equal; the members of a tie block may go to any of the block's
        positions.
        """
        ranked = iter(order)
        tied = iter(ties)
        allowed: Dict[int, FrozenSet[int]] = {}
        for members in self._classes:
            block: List[int] = []
            positions: List[int] = []
            for position in members:
                block.append(next(ranked))
                positions.append(position)
                if position == members[-1] or not next(tied):
                    for pid in block:
                        allowed[pid] = frozenset(positions)
                    block, positions = [], []
        return tuple([
            index for index, perm in enumerate(self._perms)
            if all(perm[pid] in allowed[pid] for pid in order)
        ])

    def _learn_senders(self, kernel, node) -> None:
        """Memoize the sender of every pending signature id."""
        senders = self._senders
        for seq, sig in sorted(node.sigs.items()):
            if sig not in senders:
                event = kernel._pending[seq]
                senders[sig] = (
                    event.sender if isinstance(event, Delivery) else self._n
                )

    def _learn_shapes(self, kernel, node) -> None:
        """Memoize the shape id of every process's local state."""
        shape_ids = self._shape_ids
        for pid, state in enumerate(node.procs):
            shapes = self._shapes[pid]
            if state not in shapes:
                shape = self._shape(
                    kernel._processes[pid], kernel._contexts[pid], pid
                )
                shapes[state] = shape_ids.setdefault(shape, len(shape_ids))

    def _shape(self, process, ctx, pid: int) -> Tuple:
        """The orbit shape of ``_local_state(process, ctx)`` at ``pid``.

        Every pid mention becomes "is it ``pid``", so the shape of a
        renamed state at the renamed pid is the shape of the original.
        """
        from repro.harness.exhaustive import _freeze

        fields = self._decl.fields
        return (
            tuple([
                (key, _shape_value(fields[key], value, pid))
                for key, value in sorted(process.__dict__.items())
            ]),
            ctx._decided,
            _freeze(ctx._decision),
        )

    # -- renaming ------------------------------------------------------------

    def _learn(self, kernel, node, index: int) -> None:
        """Memoize the images of every id of ``node`` under ``perms[index]``.

        ``kernel`` sits at the node's state.  A miss is renamed from the
        kernel object the id stands for -- the process at that position,
        or the pending event with that signature -- and interned into
        the exploration's state table.
        """
        renamed = self._renamed[index]
        perm = self._perms[index]
        intern = node.table.intern
        for pid, state in enumerate(node.procs):
            if state not in renamed:
                renamed[state] = intern(self._rename_local(
                    kernel._processes[pid], kernel._contexts[pid], perm
                ))
        for seq, sig in sorted(node.sigs.items()):
            if sig not in renamed:
                renamed[sig] = intern(
                    self._rename_sig(kernel._pending[seq], perm)
                )

    def _rename_sig(self, event, perm: Perm) -> Tuple:
        """The image of ``_event_sig(event)`` under ``perm``."""
        from repro.harness.exhaustive import _freeze

        if isinstance(event, Delivery):
            return (
                1,
                perm[event.sender],
                perm[event.receiver],
                _freeze(self._rename_payload(event.payload, perm)),
            )
        return (0, perm[event.pid])

    def _rename_local(self, process, ctx, perm: Perm) -> Tuple:
        """The image of ``_local_state(process, ctx)`` under ``perm``.

        Decisions are pid-free values, so only ``__dict__`` is renamed;
        the identity permutation reproduces the unrenamed local state
        exactly, which is what lets renamed and raw ids share a table.
        """
        from repro.harness.exhaustive import _freeze

        fields = self._decl.fields
        return (
            tuple([
                (key, _freeze(self._rename_value(fields[key], value, perm)))
                for key, value in sorted(process.__dict__.items())
            ]),
            ctx._decided,
            _freeze(ctx._decision),
        )

    def _rename_payload(self, payload: Any, perm: Perm) -> Any:
        if (
            isinstance(payload, tuple)
            and len(payload) >= 2
            and payload[0] in self._decl.origin_tags
            and isinstance(payload[1], int)
            and 0 <= payload[1] < self._n
        ):
            return (payload[0], perm[payload[1]]) + tuple(payload[2:])
        return payload

    def _rename_value(self, kind: str, value: Any, perm: Perm) -> Any:
        if kind == "plain":
            return value
        if kind == "pid_keyed":
            return {
                perm[pid]: entry for pid, entry in sorted(value.items())
            }
        if kind == "pid_set":
            return {perm[pid] for pid in value}
        if kind == "origin_votes":
            return {
                (perm[origin],) + tuple(rest): {perm[pid] for pid in votes}
                for (origin, *rest), votes in sorted(
                    value.items(), key=repr
                )
            }
        # "echo_engine": mirror _freeze's __fingerprint__ shape so the
        # identity renaming reproduces the plain fingerprint exactly.
        from repro.harness.exhaustive import _freeze

        renamed = (
            value.ell,
            {perm[pid] for pid in value._echoed_for},
            {
                (perm[origin], message): {perm[pid] for pid in votes}
                for (origin, message), votes in sorted(
                    value._echoers.items(), key=repr
                )
            },
            {
                perm[origin]: list(messages)
                for origin, messages in sorted(value._accepted.items())
            },
        )
        return (type(value).__qualname__, _freeze(renamed))


def mp_symmetry_context(
    processes: Sequence[Any],
    inputs: Sequence[Any],
    t: int,
    crash_adversary: Optional[CrashAdversary],
) -> Tuple[Optional[MPSymmetryContext], str]:
    """Build the canonicalizer for an MP instance, or explain why not.

    Returns ``(context, "")`` when symmetry applies with a non-trivial
    group, else ``(None, reason)``.
    """
    n = len(inputs)
    classes = {type(process) for process in processes}
    if len(classes) != 1:
        return None, "heterogeneous process classes"
    cls = classes.pop()
    decl = _MP_REGISTRY.get(cls)
    if decl is None:
        return None, f"no symmetry declaration for {cls.__name__}"
    declared = set(decl.fields)
    for process in processes:
        undeclared = sorted(set(process.__dict__) - declared)
        if undeclared:
            return None, (
                f"undeclared state field {undeclared[0]!r} on {cls.__name__}"
            )
    crash_keys, reason = _adversary_crash_keys(crash_adversary, n)
    if crash_keys is None:
        return None, reason
    keys = [
        (
            inputs[pid],
            crash_keys[pid],
            decl.roles(pid, n, t) if decl.roles is not None else None,
        )
        for pid in range(n)
    ]
    perms = symmetry_group(keys)
    if len(perms) == 1:
        return None, "trivial symmetry group (no interchangeable processes)"
    return MPSymmetryContext(decl, perms, n), ""


# ---------------------------------------------------------------------------
# shared-memory canonicalization


class SMSymmetryContext:
    """Per-exploration canonicalizer for one SM instance.

    Candidate permutations are filtered *per state*: ascending-scan
    programs read owners ``0, 1, ...`` in order, so a renaming yields a
    reachable log shape only when it stabilizes every in-progress scan
    prefix ``{0 .. m-1}``.  The identity permutation always qualifies.
    :meth:`canonical` works on the node's hash-consed state ids (see
    :class:`repro.harness.exhaustive._SMNode`) and reads the open scans
    off its log lengths and decided flags: ``_renamed[index]`` maps the
    id of a process local state to the id of its image under
    ``perms[index]``, so each distinct local state is renamed once per
    group element per exploration.  The memo holds ids of one
    exploration's state table, so a context serves exactly one
    exploration.
    """

    __slots__ = (
        "_shape", "_perms", "_inverses", "_n", "_renamed", "_feasible",
        "renamings",
    )

    def __init__(self, shape: str, perms: List[Perm], n: int) -> None:
        self._shape = shape
        self._perms = perms
        self._inverses = [_inverse(perm) for perm in perms]
        self._n = n
        self._renamed: List[Dict[int, int]] = [{} for _ in perms]
        #: Open scan prefixes -> the non-identity group indices that
        #: stabilize every one of them.
        self._feasible: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: Non-identity renamed fingerprints computed so far.
        self.renamings = 0

    @property
    def group_size(self) -> int:
        return len(self._perms)

    def canonical(self, node, kernel_at: Callable) -> Tuple[Tuple, bool]:
        """Canonical fingerprint; returns ``(fingerprint, is_identity)``.

        ``node`` is the state as hash-consed ids, and ``kernel_at(node)``
        returns a kernel sitting at that state, which is asked for only
        to learn a renaming the memo lacks.  The representative is the
        minimum, over the permutations that pass the per-state scan
        filter, of the renamed id fingerprint ``(process ids, register
        ids, sorted crashed)``: position ``perm[pid]`` takes process
        ``pid``'s renamed local state and register.  ``is_identity``
        says whether the representative is the unrenamed state itself.
        """
        procs = node.procs
        regs = node.regs
        crashed = sorted(node.crashed)
        best = (procs, regs, tuple(crashed))
        best_index = 0
        scans = self._open_scans(node)
        feasible = self._feasible.get(scans)
        if feasible is None:
            feasible = self._feasible[scans] = tuple([
                index for index, perm in enumerate(self._perms)
                if index and all(
                    all(perm[pid] < m for pid in range(m)) for m in scans
                )
            ])
        self.renamings += len(feasible)
        for index in feasible:
            perm = self._perms[index]
            renamed = self._renamed[index]
            inverse = self._inverses[index]
            try:
                head = tuple([renamed[procs[pid]] for pid in inverse])
            except KeyError:
                self._learn(kernel_at(node), node, index)
                head = tuple([renamed[procs[pid]] for pid in inverse])
            if head > best[0]:
                continue
            fingerprint = (
                head,
                tuple([regs[pid] for pid in inverse]),
                tuple(sorted([perm[pid] for pid in crashed])),
            )
            if fingerprint < best:
                best = fingerprint
                best_index = index
        return best, best_index == 0

    # -- scans and renaming ---------------------------------------------------

    def _open_scan(self, length: int, decided: bool) -> int:
        """Reads done so far in a process's in-progress scan, from the
        length of its results log and its decided flag.

        ``write_then_scan`` logs are ``[write ack] + reads + [decide
        ack]?`` and reads cycle through owners ``0 .. n-1``;
        ``decide_only`` logs have no scans.
        """
        if self._shape == "decide_only" or not length:
            return 0
        return (length - 1 - decided) % self._n

    def _open_scans(self, node) -> Tuple[int, ...]:
        """Lengths ``m > 0`` of the in-progress scan prefixes, ascending."""
        return tuple(sorted({
            self._open_scan(length, decided)
            for length, decided in zip(node.lens, node.decided)
        } - {0}))

    def _rename_log(self, state, inverse: Perm) -> List[Any]:
        """The image of ``state.results_log`` under a renaming.

        Scan position alone identifies each read's owner, so a renaming
        permutes the reads within every scan block: position ``j`` of a
        block takes the read of owner ``inverse[j]``.  The write ack and
        the decide ack stay in place, so the identity renaming gives the
        log back unchanged.  Only defined for renamings that stabilize
        the open scan prefix (see :meth:`canonical`).
        """
        log = state.results_log
        if self._shape == "decide_only" or not log:
            return list(log)
        n = self._n
        end = len(log) - 1 if state.decided else len(log)
        renamed = [log[0]]
        for start in range(1, end, n):
            block = log[start:min(start + n, end)]
            renamed.extend([block[inverse[j]] for j in range(len(block))])
        renamed.extend(log[end:])
        return renamed

    def _learn(self, kernel, node, index: int) -> None:
        """Memoize the images of every local-state id under ``perms[index]``.

        ``kernel`` sits at the node's state.  A miss renames the live
        log of the process at that position block-wise, chain-interns
        the result into the exploration's state table and interns the
        renamed local state there too.
        """
        from repro.harness.exhaustive import _EMPTY_LOG, _chain, _sm_local

        renamed = self._renamed[index]
        inverse = self._inverses[index]
        table = node.table
        for pid, local in enumerate(node.procs):
            if local not in renamed:
                state = kernel._states[pid]
                log_id = _chain(
                    table, _EMPTY_LOG, self._rename_log(state, inverse)
                )
                renamed[local] = table.intern(_sm_local(state, log_id))


def sm_symmetry_context(
    programs: Sequence[Any],
    inputs: Sequence[Any],
    t: int,
    crash_adversary: Optional[CrashAdversary],
) -> Tuple[Optional[SMSymmetryContext], str]:
    """Build the canonicalizer for an SM instance, or explain why not."""
    n = len(inputs)
    distinct = {id(program) for program in programs}
    if len(distinct) != 1:
        # Distinct program objects usually mean genuinely heterogeneous
        # code, but the sim-* simulation wrappers build one fresh
        # closure per process from the *same* factory -- distinguish
        # that case so certification reports say what is actually
        # missing (a symmetry declaration for the wrapper), not just
        # "heterogeneous".
        codes = {getattr(program, "__code__", None) for program in programs}
        if None not in codes and len(codes) == 1:
            qualname = getattr(programs[0], "__qualname__", "")
            if "simulate_mp_over_sm" in qualname:
                return None, (
                    "simulation wrapper: per-process closures carry the "
                    "simulated protocol's state (no symmetry declaration "
                    "for sim-* yet)"
                )
            return None, (
                f"per-process closures of {qualname or repr(programs[0])} "
                "(no shared program object to declare symmetry on)"
            )
        return None, "heterogeneous programs"
    program = programs[0]
    decl = _SM_REGISTRY.get(program)
    if decl is None:
        name = getattr(program, "__qualname__", repr(program))
        return None, f"no symmetry declaration for program {name}"
    crash_keys, reason = _adversary_crash_keys(crash_adversary, n)
    if crash_keys is None:
        return None, reason
    keys = [(inputs[pid], crash_keys[pid]) for pid in range(n)]
    perms = symmetry_group(keys)
    if len(perms) == 1:
        return None, "trivial symmetry group (no interchangeable processes)"
    return SMSymmetryContext(decl.shape, perms, n), ""


# ---------------------------------------------------------------------------
# declarations for the registered protocols
#
# Every declaration is a soundness claim reviewed against the protocol
# source: state fields must be listed with the exact way they mention
# process ids, and payload tags carrying pids must be named.  The
# permutation-fuzz property tests (tests/harness/test_symmetry.py)
# exercise each declaration on both kernels.


def _broadcaster_role(pid: int, n: int, t: int) -> bool:
    # PROTOCOL D: p_0 .. p_t broadcast and decide their own values.
    return pid <= t


def _register_declarations() -> None:
    from repro.protocols.ablations import (
        CredulousProcess, ProtocolBStrictQuorum, ProtocolCPlainBroadcast,
    )
    from repro.protocols.chaudhuri import ChaudhuriKSet
    from repro.protocols.protocol_a import ProtocolA
    from repro.protocols.protocol_b import ProtocolB
    from repro.protocols.protocol_c import ProtocolC
    from repro.protocols.protocol_d import ProtocolD
    from repro.protocols.protocol_e import protocol_e
    from repro.protocols.protocol_f import protocol_f
    from repro.protocols.trivial import TrivialOwnValue, trivial_own_value_sm

    values_only = MPSymmetry(fields={"_values": "pid_keyed"})
    register_mp_symmetry(ProtocolA, values_only)
    register_mp_symmetry(ProtocolB, values_only)
    register_mp_symmetry(ChaudhuriKSet, values_only)
    register_mp_symmetry(ProtocolBStrictQuorum, values_only)
    register_mp_symmetry(ProtocolCPlainBroadcast, values_only)
    register_mp_symmetry(CredulousProcess, values_only)
    register_mp_symmetry(TrivialOwnValue, MPSymmetry(fields={}))
    register_mp_symmetry(
        ProtocolC,
        MPSymmetry(
            fields={
                "ell": "plain",
                "_engine": "echo_engine",
                "_first_value": "pid_keyed",
            },
            origin_tags=frozenset({"EC-ECHO"}),
        ),
    )
    register_mp_symmetry(
        ProtocolD,
        MPSymmetry(
            fields={"_echoed_for": "pid_set", "_echoers": "origin_votes"},
            origin_tags=frozenset({"D-ECHO"}),
            roles=_broadcaster_role,
        ),
    )
    register_sm_symmetry(protocol_e, SMSymmetry(shape="write_then_scan"))
    register_sm_symmetry(protocol_f, SMSymmetry(shape="write_then_scan"))
    register_sm_symmetry(
        trivial_own_value_sm, SMSymmetry(shape="decide_only")
    )


_register_declarations()
