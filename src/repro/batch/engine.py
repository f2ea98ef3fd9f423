"""Closed-form vectorized decision kernels and condition checking.

Under the plan's scheduler (starts first, then first-phase messages per
receiver in arrival-key order, then echo messages grouped by
acceptance-key order -- see :class:`repro.batch.replay.PlannedScheduler`)
every modelled protocol's decision is a *closed-form* function of the
plan arrays.  This module evaluates those functions for the whole batch
at once:

* **A**  -- decide the common value of the first ``n - t`` arrivals if
  unanimous, else DEFAULT.
* **B**  -- at the first moment ``>= n - t`` values including one's own
  arrived, decide own value if ``>= n - 2t`` of them match it, else
  DEFAULT.
* **MIN** (Chaudhuri) -- decide the minimum of the first ``n - t``
  arrivals.
* **C** (ℓ-echo) -- every process INIT-broadcasts; correct processes
  echo; an origin is *accepted* once its echo tally reaches
  :func:`repro.protocols.echo.accept_threshold`.  At the first
  acceptance where ``>= n - t`` origins (own included) are accepted,
  decide own value if ``>= n - 2t`` accepted values match it, else
  DEFAULT.
* **D**  -- broadcasters (``pid <= t``) decide their own value at start;
  everyone echoes each received broadcast value; non-broadcasters decide
  the value of the first origin whose echo tally reaches ``n - t``.
* **TRIVIAL** -- decide own input at start.

Crash semantics follow the scalar kernel exactly: a ``pre_crash``
victim never runs; a ``send_victim`` delivers its first
``send_point`` sends of its first broadcast and halts at the end of
that handler (so a Protocol D broadcaster still decides first, and a
Protocol D non-broadcaster victim partially echoes the first value it
received).  The verdicts (termination / agreement / validity) replicate
:mod:`repro.core.validity` over the code arrays.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.harness.sweep import SweepConfig, SweepStats, Violation
from repro.protocols.base import ProtocolSpec
from repro.protocols.echo import accept_threshold
from repro.protocols.protocol_c import best_ell
from repro.batch.plan import (
    DEFAULT_CODE,
    NO_DECISION,
    BatchPlan,
    build_plan,
    concat_plans,
)

__all__ = [
    "BATCH_FAMILIES",
    "FALLBACK_REASON_CODES",
    "BatchResult",
    "UnsupportedReason",
    "batch_run",
    "batch_sweep",
    "batch_vs_replay",
    "supports_point",
    "supports_spec",
    "sweep_unsupported_reason",
]

#: Registered spec name -> decision-kernel family.  The Byzantine-model
#: entries are modelled under the crash-restricted sub-adversary
#: (crashes are a special case of Byzantine behaviour); sweeps over
#: Byzantine specs fall back to the scalar engine, but the differential
#: check exercises these kernels against scalar replays.
BATCH_FAMILIES: Dict[str, str] = {
    "protocol-a@mp-cr": "A",
    "protocol-a-wv2@mp-cr": "A",
    "protocol-a@mp-byz": "A",
    "protocol-b@mp-cr": "B",
    "chaudhuri@mp-cr": "MIN",
    "trivial@mp-cr": "TRIVIAL",
    "trivial@mp-byz": "TRIVIAL",
    "protocol-c@mp-byz": "C",
    "protocol-c-rv2@mp-byz": "C",
    "protocol-d@mp-byz": "D",
}

_MAXKEY = np.uint64(0xFFFFFFFFFFFFFFFF)
_UNDECIDED_SORT = np.int64(1) << np.int64(40)

#: Element budget per chunk for the [B, n, n] arrays (8 MB per uint64
#: array at the default).  A sweep holds one chunk at a time, so this
#: bounds its memory whatever the run count.
_CHUNK_ELEMENTS = 1_000_000


def supports_spec(spec: ProtocolSpec) -> bool:
    """Whether the batch engine has a decision kernel for ``spec``."""
    return spec.name in BATCH_FAMILIES


def supports_point(spec: ProtocolSpec, n: int, k: int, t: int) -> bool:
    """Whether ``spec`` is batch-modelable at this exact point."""
    if not supports_spec(spec) or not 0 <= t < n or n >= 1000:
        return False
    if BATCH_FAMILIES[spec.name] == "C" and best_ell(n, k, t) is None:
        return False  # scalar make() raises outside PROTOCOL C's region
    return True


class UnsupportedReason(str):
    """A human-readable fallback reason carrying a machine-readable code.

    Behaves exactly like the message string it always was (callers
    embed it in ``SweepStats.execution`` and tests match substrings),
    while ``.code`` gives automation -- the CLI echo, the fallback
    test-matrix, result-file consumers -- a stable identifier that does
    not drift with wording.
    """

    code: str

    def __new__(cls, code: str, message: str) -> "UnsupportedReason":
        obj = super().__new__(cls, message)
        obj.code = code
        return obj


#: Every scalar-fallback reason code :func:`sweep_unsupported_reason`
#: can emit (the closed vocabulary the fallback tests assert against).
FALLBACK_REASON_CODES = (
    "sm-spec",
    "no-kernel",
    "byzantine-model",
    "unsupported-point",
    "verify-oracles",
    "unknown-patterns",
)


def sweep_unsupported_reason(
    spec: ProtocolSpec, n: int, k: int, t: int, config: SweepConfig
) -> Optional[UnsupportedReason]:
    """Why ``sweep_spec`` cannot use the batch engine here (None = it can).

    Sweeps additionally require the crash fault model (Byzantine sweeps
    draw from a behaviour pool the engine does not model) and no oracle
    verification (oracles consume real scalar executions).  The return
    value reads as the human-facing message; its ``.code`` attribute is
    the stable machine-readable identifier (one of
    :data:`FALLBACK_REASON_CODES`).
    """
    if spec.is_shared_memory:
        return UnsupportedReason("sm-spec", "shared-memory spec")
    if not supports_spec(spec):
        return UnsupportedReason(
            "no-kernel", f"no batch kernel for {spec.name!r}"
        )
    if not spec.model.is_crash:
        return UnsupportedReason(
            "byzantine-model",
            "Byzantine-model sweep (batch models crash faults only)",
        )
    if not supports_point(spec, n, k, t):
        return UnsupportedReason(
            "unsupported-point",
            f"point (n={n}, k={k}, t={t}) outside batch support",
        )
    if config.verify:
        return UnsupportedReason(
            "verify-oracles",
            "--verify runs the oracle stack over scalar executions",
        )
    unknown = [p for p in config.input_patterns if p not in
               ("distinct", "unanimous", "unanimous-correct", "two-valued",
                "random")]
    if unknown:
        return UnsupportedReason(
            "unknown-patterns", f"unknown input patterns {unknown}"
        )
    return None


def _batch_stats(
    spec: ProtocolSpec, n: int, k: int, t: int, runs: int
) -> SweepStats:
    """Empty batch-engine stats for a sweep of ``runs`` runs."""
    return SweepStats(
        spec_name=spec.name, n=n, k=k, t=t, engine="batch",
        execution=f"vectorized batch of {runs} runs",
    )


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Per-run outcomes and verdicts of one batch execution."""

    spec: ProtocolSpec
    plan: BatchPlan
    decisions: np.ndarray  # [B, n] int64 code, NO_DECISION if undecided
    faulty: np.ndarray  # [B, n] bool: actually crashed
    distinct: np.ndarray  # [B] int64: distinct correct decisions
    term_ok: np.ndarray  # [B] bool
    agree_ok: np.ndarray  # [B] bool
    valid_ok: np.ndarray  # [B] bool

    @property
    def batch_size(self) -> int:
        return self.plan.batch_size

    def run_ok(self) -> np.ndarray:
        return self.term_ok & self.agree_ok & self.valid_ok

    def stats(self) -> SweepStats:
        """Aggregate into the same :class:`SweepStats` shape sweeps emit."""
        plan = self.plan
        stats = _batch_stats(self.spec, plan.n, plan.k, plan.t, self.batch_size)
        stats.runs = self.batch_size
        counts = np.bincount(self.distinct)
        stats.decisions_histogram = {
            int(value): int(count)
            for value, count in enumerate(counts)
            if count
        }
        bad = ~self.run_ok()
        for i in np.nonzero(bad)[0]:  # repro: noqa[BATCH001] -- cold reporting path over violating runs only
            conditions: List[str] = []
            details: List[str] = []
            if not self.term_ok[i]:
                undecided = sorted(
                    int(p) for p in np.nonzero(
                        ~self.faulty[i] & (self.decisions[i] == NO_DECISION)
                    )[0]
                )
                conditions.append("termination")
                details.append(
                    f"termination VIOLATED: undecided correct processes: "
                    f"{undecided}"
                )
            if not self.agree_ok[i]:
                conditions.append("agreement")
                details.append(
                    f"agreement VIOLATED: {int(self.distinct[i])} distinct "
                    f"correct decisions > k={plan.k}"
                )
            if not self.valid_ok[i]:
                conditions.append("validity")
                details.append(f"validity ({self.spec.validity}) VIOLATED")
            stats.violations.append(
                Violation(
                    run_index=int(plan.indices[i]),
                    pattern=plan.patterns[int(plan.pattern_index[i])],
                    conditions=tuple(conditions),
                    detail="; ".join(details),
                )
            )
        return stats


def _reach(plan: BatchPlan) -> np.ndarray:
    """``reach[b, o, q]``: origin ``o``'s first broadcast reaches ``q``.

    Broadcasts send to destinations ``0..n-1`` in order, so a
    ``send_victim`` with send point ``s`` reaches exactly ``q < s``.
    """
    n = plan.n
    dst = np.arange(n, dtype=np.int64)[None, None, :]
    partial = dst < plan.send_point[:, :, None]
    full = np.broadcast_to(True, partial.shape)
    reach = np.where(plan.send_victim[:, :, None], partial, full)
    return reach & ~plan.pre_crash[:, :, None]


def _arrival_order(
    plan: BatchPlan, reach_t: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Masked arrival keys and per-receiver sender order (reached first)."""
    keys = np.where(reach_t, plan.arrival_keys, _MAXKEY)
    order = np.argsort(keys, axis=2, kind="stable")
    return keys, order


def _prefix_codes(plan: BatchPlan, order: np.ndarray) -> np.ndarray:
    """Input codes of the first ``n - t`` arrivals per receiver."""
    batch, n = plan.input_codes.shape
    codes = np.broadcast_to(plan.input_codes[:, None, :], (batch, n, n))
    return np.take_along_axis(codes, order, axis=2)[:, :, : n - plan.t]


def _decide_a(plan: BatchPlan) -> Tuple[np.ndarray, np.ndarray]:
    reach_t = _reach(plan).transpose(0, 2, 1)
    _, order = _arrival_order(plan, reach_t)
    prefix = _prefix_codes(plan, order)
    unanimous = prefix.min(axis=2) == prefix.max(axis=2)
    decided = np.where(unanimous, prefix[:, :, 0], DEFAULT_CODE)
    decisions = np.where(plan.victim, NO_DECISION, decided)
    return decisions, plan.victim.copy()


def _decide_min(plan: BatchPlan) -> Tuple[np.ndarray, np.ndarray]:
    reach_t = _reach(plan).transpose(0, 2, 1)
    _, order = _arrival_order(plan, reach_t)
    decided = _prefix_codes(plan, order).min(axis=2)
    decisions = np.where(plan.victim, NO_DECISION, decided)
    return decisions, plan.victim.copy()


def _matching_prefix(
    match: np.ndarray, order: np.ndarray, upto: np.ndarray
) -> np.ndarray:
    """How many of the first ``upto`` senders (in ``order``) match."""
    sorted_match = np.take_along_axis(match, order, axis=2)
    cumulative = np.cumsum(sorted_match, axis=2, dtype=np.int64)
    return np.take_along_axis(
        cumulative, (upto - 1)[:, :, None], axis=2
    )[:, :, 0]


def _decide_b(plan: BatchPlan) -> Tuple[np.ndarray, np.ndarray]:
    n, t = plan.n, plan.t
    reach_t = _reach(plan).transpose(0, 2, 1)
    keys, order = _arrival_order(plan, reach_t)
    diag = np.arange(n)
    own_key = plan.arrival_keys[:, diag, diag]
    rank_own = (keys < own_key[:, :, None]).sum(axis=2)
    upto = np.maximum(n - t, rank_own + 1)
    match = (
        plan.input_codes[:, None, :] == plan.input_codes[:, :, None]
    ) & reach_t
    matching = _matching_prefix(match, order, upto)
    decided = np.where(matching >= n - 2 * t, plan.input_codes, DEFAULT_CODE)
    decisions = np.where(plan.victim, NO_DECISION, decided)
    return decisions, plan.victim.copy()


def _decide_trivial(plan: BatchPlan) -> Tuple[np.ndarray, np.ndarray]:
    # Send-crash points never fire (the trivial protocol sends nothing),
    # so only the pre-start victims actually crash.
    decisions = np.where(plan.pre_crash, NO_DECISION, plan.input_codes)
    return decisions, plan.pre_crash.copy()


def _decide_c(plan: BatchPlan) -> Tuple[np.ndarray, np.ndarray]:
    n, t = plan.n, plan.t
    ell = best_ell(n, plan.k, t)
    if ell is None:
        raise ValueError(
            f"(n={n}, k={plan.k}, t={t}) is outside PROTOCOL C's solvable "
            f"region"
        )
    threshold = accept_threshold(n, t, ell)
    reach = _reach(plan)
    # Every victim crashes during its own start broadcast, so only
    # correct processes echo; the echo tally of origin o is therefore
    # receiver-independent: the correct processes that received o's INIT.
    votes = (reach & ~plan.victim[:, None, :]).sum(axis=2)
    accepted = votes >= threshold  # [B, origin]
    acc_keys = np.where(accepted[:, None, :], plan.accept_keys, _MAXKEY)
    acc_order = np.argsort(acc_keys, axis=2, kind="stable")
    total = accepted.sum(axis=1)
    diag = np.arange(n)
    own_key = plan.accept_keys[:, diag, diag]
    pos_own = (acc_keys < own_key[:, :, None]).sum(axis=2)
    can_decide = accepted & (total[:, None] >= n - t)
    upto = np.maximum(n - t, pos_own + 1)
    match = (
        plan.input_codes[:, None, :] == plan.input_codes[:, :, None]
    ) & accepted[:, None, :]
    matching = _matching_prefix(match, acc_order, np.maximum(upto, 1))
    decided = np.where(matching >= n - 2 * t, plan.input_codes, DEFAULT_CODE)
    decisions = np.where(
        ~plan.victim & can_decide, decided, NO_DECISION
    )
    return decisions, plan.victim.copy()


def _decide_d(plan: BatchPlan) -> Tuple[np.ndarray, np.ndarray]:
    n, t = plan.n, plan.t
    batch = plan.batch_size
    broadcasters = t + 1  # pids 0..t broadcast and decide at start
    reach = _reach(plan)[:, :broadcasters, :]  # [b, o, q]
    correct = ~plan.victim
    # Correct processes echo every broadcast value they receive; the
    # echoes reach everyone, so this tally is receiver-independent.
    base = (reach & correct[:, None, :]).sum(axis=2)  # [b, o]
    # A send-crash non-broadcaster victim q crashes while echoing the
    # *first* broadcast value it received (first in arrival-key order);
    # destinations p < send_point[q] still get that echo.
    val_keys = np.where(
        reach.transpose(0, 2, 1),
        plan.arrival_keys[:, :, :broadcasters],
        _MAXKEY,
    )  # [b, q, o]
    first_origin = np.argmin(val_keys, axis=2)  # [b, q]
    got_val = val_keys.min(axis=2) != _MAXKEY
    echoing_victim = (
        plan.send_victim
        & (np.arange(n)[None, :] >= broadcasters)
        & got_val
    )  # [b, q]
    origin_hit = (
        np.arange(broadcasters)[None, None, :] == first_origin[:, :, None]
    ) & echoing_victim[:, :, None]  # [b, q, o]
    delivered = (
        np.arange(n)[None, :, None] < plan.send_point[:, None, :]
    ) & echoing_victim[:, None, :]  # [b, p, q]
    victim_votes = np.einsum(
        "bpq,bqo->bpo",
        delivered.astype(np.int64),
        origin_hit.astype(np.int64),
    )
    tally = base[:, None, :] + victim_votes  # [b, p, o]
    reached = tally >= n - t
    acc_keys = np.where(
        reached, plan.accept_keys[:, :, :broadcasters], _MAXKEY
    )
    first_accepted = np.argmin(acc_keys, axis=2)  # [b, p]
    has_accepted = acc_keys.min(axis=2) != _MAXKEY
    echo_decision = np.take_along_axis(
        plan.input_codes, first_accepted, axis=1
    )
    is_broadcaster = np.arange(n)[None, :] < broadcasters
    decisions = np.full((batch, n), NO_DECISION, dtype=np.int64)
    # Broadcasters decide their own value at start unless they never
    # start; a send-crash broadcaster still decides (the decide runs at
    # the end of its start handler, after the suppressed sends).
    bcast_decides = is_broadcaster & ~plan.pre_crash
    decisions = np.where(bcast_decides, plan.input_codes, decisions)
    nb_decides = ~is_broadcaster & ~plan.victim & has_accepted
    decisions = np.where(nb_decides, echo_decision, decisions)
    return decisions, plan.victim.copy()


_KERNELS = {
    "A": _decide_a,
    "B": _decide_b,
    "MIN": _decide_min,
    "C": _decide_c,
    "D": _decide_d,
    "TRIVIAL": _decide_trivial,
}


def _distinct_correct(decisions: np.ndarray, faulty: np.ndarray) -> np.ndarray:
    """Distinct decision values over correct processes, per run."""
    masked = np.where(
        ~faulty & (decisions != NO_DECISION), decisions, _UNDECIDED_SORT
    )
    ordered = np.sort(masked, axis=1)
    real = ordered < _UNDECIDED_SORT
    fresh = np.ones_like(real)
    fresh[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    return (real & fresh).sum(axis=1)


def _validity_ok(
    validity: str,
    plan: BatchPlan,
    decisions: np.ndarray,
    faulty: np.ndarray,
) -> np.ndarray:
    """Vectorized replica of the checkers in :mod:`repro.core.validity`."""
    codes = plan.input_codes
    correct = ~faulty
    decided = decisions != NO_DECISION
    equals_input = decisions[:, :, None] == codes[:, None, :]  # [b, p, q]

    def member(mask_q: np.ndarray, who: np.ndarray) -> np.ndarray:
        allowed = (equals_input & mask_q[:, None, :]).any(axis=2)
        return (~who | allowed).all(axis=1)

    def unanimity(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        lo = np.where(mask, codes, np.int64(np.iinfo(np.int64).max)).min(axis=1)
        hi = np.where(mask, codes, np.int64(-1)).max(axis=1)
        return lo == hi, lo

    everyone = np.ones_like(correct)
    if validity == "SV1":
        return member(correct, correct & decided)
    if validity == "RV1":
        return member(everyone, correct & decided)
    if validity == "SV2":
        unanimous, value = unanimity(correct)
        agrees = (~(correct & decided) | (decisions == value[:, None])).all(
            axis=1
        )
        return ~unanimous | agrees
    if validity == "RV2":
        unanimous, value = unanimity(everyone)
        agrees = (~(correct & decided) | (decisions == value[:, None])).all(
            axis=1
        )
        return ~unanimous | agrees
    failure_free = ~faulty.any(axis=1)
    if validity == "WV1":
        allowed = (equals_input.any(axis=2) | ~decided).all(axis=1)
        return ~failure_free | allowed
    if validity == "WV2":
        unanimous, value = unanimity(everyone)
        agrees = (~decided | (decisions == value[:, None])).all(axis=1)
        return ~(failure_free & unanimous) | agrees
    raise ValueError(f"batch engine has no validity checker for {validity!r}")


def _solve_chunk(spec: ProtocolSpec, plan: BatchPlan) -> BatchResult:
    decisions, faulty = _KERNELS[BATCH_FAMILIES[spec.name]](plan)
    correct = ~faulty
    decided = decisions != NO_DECISION
    distinct = _distinct_correct(decisions, faulty)
    return BatchResult(
        spec=spec,
        plan=plan,
        decisions=decisions,
        faulty=faulty,
        distinct=distinct,
        term_ok=(~correct | decided).all(axis=1),
        agree_ok=distinct <= plan.k,
        valid_ok=_validity_ok(spec.validity, plan, decisions, faulty),
    )


def _chunks(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    config: SweepConfig,
    indices: Sequence[int],
) -> Iterator[BatchResult]:
    """Plan and solve runs ``indices`` one chunk at a time.

    A chunk holds at most ``_CHUNK_ELEMENTS // n**2`` runs, so its
    ``[B, n, n]`` working set stays bounded; an empty ``indices`` makes
    one empty chunk.  Chunking never changes results because every draw
    is a pure function of the run seed.
    """
    if not supports_point(spec, n, k, t):
        raise ValueError(
            f"batch engine does not support {spec.name} at "
            f"(n={n}, k={k}, t={t})"
        )
    size = max(1, _CHUNK_ELEMENTS // (n * n))
    for lo in range(0, max(1, len(indices)), size):
        yield _solve_chunk(spec, build_plan(
            spec.name, n, k, t, config.seed, indices[lo:lo + size],
            patterns=tuple(config.input_patterns),
        ))


def _fold(total: SweepStats, part: SweepStats) -> None:
    """Add one chunk's stats to ``total``.

    Runs add up, violations stay in run-index order and the histogram
    stays key-sorted, so the folded stats equal one whole-batch pass.
    """
    total.runs += part.runs
    total.violations.extend(part.violations)
    histogram = Counter(total.decisions_histogram)
    histogram.update(part.decisions_histogram)
    total.decisions_histogram = dict(sorted(histogram.items()))


def batch_run(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    config: Optional[SweepConfig] = None,
    indices: Optional[Sequence[int]] = None,
) -> BatchResult:
    """Execute a batch of planned runs entirely as array operations.

    ``indices`` selects which global run indices to execute (default:
    ``range(config.runs)``).  The result holds every run's arrays at
    once; :func:`batch_sweep` and :func:`batch_vs_replay` fold chunk by
    chunk instead.
    """
    config = config or SweepConfig()
    run_indices = tuple(indices) if indices is not None else range(
        config.runs
    )
    parts = list(_chunks(spec, n, k, t, config, run_indices))
    if len(parts) == 1:
        return parts[0]
    return BatchResult(
        spec=spec,
        plan=concat_plans([part.plan for part in parts]),
        decisions=np.concatenate([part.decisions for part in parts]),
        faulty=np.concatenate([part.faulty for part in parts]),
        distinct=np.concatenate([part.distinct for part in parts]),
        term_ok=np.concatenate([part.term_ok for part in parts]),
        agree_ok=np.concatenate([part.agree_ok for part in parts]),
        valid_ok=np.concatenate([part.valid_ok for part in parts]),
    )


def batch_sweep(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    config: Optional[SweepConfig] = None,
) -> SweepStats:
    """Sweep entry point: fold each chunk's stats, holding one chunk."""
    config = config or SweepConfig()
    runs = range(config.runs)
    stats = _batch_stats(spec, n, k, t, len(runs))
    for part in _chunks(spec, n, k, t, config, runs):
        _fold(stats, part.stats())
        del part  # drop the chunk before the next one is planned
    return stats


def batch_vs_replay(
    spec: ProtocolSpec,
    n: int,
    k: int,
    t: int,
    config: Optional[SweepConfig] = None,
) -> Tuple[SweepStats, SweepStats, int, List[str]]:
    """Differential bridge: the batch result vs scalar replays of its plan.

    Replays every planned run through the scalar kernel under the plan's
    scheduler and compares decisions, crash sets, and verdicts run by
    run, one chunk at a time.  Returns ``(batch_stats, replay_stats,
    mismatched_runs, mismatch_details)``; a correct engine yields 0
    mismatches and identical histogram/violation aggregates.
    """
    from repro.batch.replay import replay_stats

    config = config or SweepConfig()
    runs = range(config.runs)
    batch = _batch_stats(spec, n, k, t, len(runs))
    scalar = SweepStats(
        spec_name=spec.name, n=n, k=k, t=t, engine="scalar",
        execution=f"scalar replay of a {len(runs)}-run batch plan",
    )
    mismatches: List[str] = []
    for part in _chunks(spec, n, k, t, config, runs):
        _fold(batch, part.stats())
        _fold(scalar, replay_stats(
            part, max_ticks=config.max_ticks, mismatches=mismatches
        ))
    return batch, scalar, len(mismatches), mismatches
