"""Batch adversary sampling: the struct-of-arrays run plan.

A :class:`BatchPlan` fixes *everything* nondeterministic about a batch
of runs before any protocol logic executes:

* **inputs** -- integer-coded per the run's input pattern (see
  :data:`repro.harness.inputs.INPUT_PATTERNS`); :func:`decode_code`
  maps codes back to the concrete values the scalar replay uses.  Codes
  are zero-padded on decode (``17 -> "v017"``) so numeric code order
  equals the lexicographic :func:`repro.core.values.order_key` order --
  Chaudhuri's minimum can then be taken directly on the code arrays.
* **crash masks** -- mirroring :class:`repro.failures.crash.RandomCrashes`'
  shape: with probability 0.2 the run is failure-free, otherwise up to
  ``t`` victims crash either *before starting* (``pre_crash``) or
  *mid-broadcast* after ``send_point`` sends (``send_victim``).  Send
  points land inside the first ``n``-send broadcast, so every planned
  crash actually fires in the modelled protocols.
* **arrival keys** -- ``arrival_keys[b, p, o]`` orders first-phase
  messages from origin ``o`` at receiver ``p``; ``accept_keys[b, p, o]``
  orders second-phase (echo) message *groups* by origin.  The decision
  kernels and the scalar replay scheduler consume the same keys, which
  is what makes batch-vs-scalar comparison exact run-by-run.  Only the
  echo families (C, D) and the replay read ``accept_keys``, so it is
  drawn from ``run_seeds`` when first read.

Every array is a pure function of ``(config.seed, run_index)`` via
:mod:`repro.batch.prng`, so plans are bit-identical across batch sizes
and chunk boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence, Tuple

import numpy as np

from repro.core.values import DEFAULT, Value
from repro.harness.inputs import INPUT_PATTERNS
from repro.batch import prng

__all__ = [
    "DEFAULT_CODE",
    "NO_DECISION",
    "BatchPlan",
    "build_plan",
    "decode_code",
]

#: Integer code of the DEFAULT decision sentinel.  Larger than every
#: input code, mirroring ``order_key``'s "sentinels sort last" rule.
DEFAULT_CODE = 1 << 20

#: Decision-array slot for "has not decided".
NO_DECISION = -1

#: Offset of the distinguished fake inputs faulty processes get under
#: the ``unanimous-correct`` pattern ("w" values sort after "v" values,
#: matching the code order).
_FAKE_BASE = 1000

_NONE_PROBABILITY = 0.2  # same failure-free mass as RandomCrashes


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """The fully sampled adversary for one batch of runs."""

    spec_name: str
    n: int
    k: int
    t: int
    seed: int
    patterns: Tuple[str, ...]
    indices: np.ndarray  # [B] int64: global run indices
    run_seeds: np.ndarray  # [B] uint64: derive_seed(seed, index)
    pattern_index: np.ndarray  # [B] int64: index into ``patterns``
    input_codes: np.ndarray  # [B, n] int64
    victim: np.ndarray  # [B, n] bool: planned crash victims
    pre_crash: np.ndarray  # [B, n] bool: crash before starting
    send_victim: np.ndarray  # [B, n] bool: crash mid-broadcast
    send_point: np.ndarray  # [B, n] int64: sends before the crash
    arrival_keys: np.ndarray  # [B, n, n] uint64: [receiver, origin]

    @property
    def batch_size(self) -> int:
        return int(self.indices.shape[0])

    @functools.cached_property
    def accept_keys(self) -> np.ndarray:
        """``[B, n, n]`` uint64 echo-group keys: ``[receiver, origin]``.

        A pure function of ``run_seeds``, drawn when first read, so the
        families that never read it do not hold a second key tensor.
        """
        return prng.stream_u64(
            self.run_seeds, prng.STREAM_ACCEPT, (self.n, self.n)
        )


def decode_code(pattern: str, code: int) -> Value:
    """The concrete value a plan's integer code stands for."""
    code = int(code)
    if code == DEFAULT_CODE:
        return DEFAULT
    if pattern == "two-valued":
        return "alpha" if code == 0 else "beta"
    if code >= _FAKE_BASE:
        return f"w{code - _FAKE_BASE:03d}"
    return f"v{code:03d}"


def _input_codes(
    patterns: Tuple[str, ...],
    pattern_index: np.ndarray,
    seeds: np.ndarray,
    n: int,
    victim: np.ndarray,
) -> np.ndarray:
    """Integer-coded inputs per run, shaped by the run's pattern."""
    batch = len(seeds)
    draws = prng.stream_u64(seeds, prng.STREAM_INPUT, (n,))
    codes = np.zeros((batch, n), dtype=np.int64)
    pids = np.arange(n, dtype=np.int64)
    for slot, name in enumerate(patterns):
        rows = pattern_index == slot
        if not bool(rows.any()):
            continue
        if name == "distinct":
            codes[rows] = pids[None, :]
        elif name == "unanimous":
            codes[rows] = (draws[rows, 0] % np.uint64(100)).astype(np.int64)[
                :, None
            ]
        elif name == "unanimous-correct":
            base = (draws[rows, 0] % np.uint64(100)).astype(np.int64)[:, None]
            fake = _FAKE_BASE + pids[None, :]
            codes[rows] = np.where(victim[rows], fake, base)
        elif name == "two-valued":
            bits = prng.stream_u64(seeds, prng.STREAM_TWOVAL, (n,))
            codes[rows] = (bits[rows] & np.uint64(1)).astype(np.int64)
        elif name == "random":
            pool = max(2, n // 2)
            codes[rows] = (draws[rows] % np.uint64(pool)).astype(np.int64)
        else:  # pragma: no cover - guarded by sweep_unsupported_reason
            raise ValueError(f"batch engine has no input pattern {name!r}")
    return codes


def build_plan(
    spec_name: str,
    n: int,
    k: int,
    t: int,
    seed: int,
    indices: Sequence[int],
    patterns: Sequence[str] = INPUT_PATTERNS,
) -> BatchPlan:
    """Sample the full adversary for runs ``indices`` of a sweep."""
    if not 0 <= t < n:
        raise ValueError(f"batch engine requires 0 <= t < n, got t={t} n={n}")
    if n >= _FAKE_BASE:
        raise ValueError(f"batch engine supports n < {_FAKE_BASE}, got {n}")
    patterns = tuple(patterns)
    index_arr = np.asarray(list(indices), dtype=np.int64)
    seeds = prng.run_seeds(seed, index_arr)
    batch = len(index_arr)
    pattern_index = index_arr % len(patterns)

    # Crash shape mirrors RandomCrashes: P(failure-free) = 0.2, else
    # uniform count in [0, t], victims uniform, kind 50/50 pre/send.
    frac = prng.u01(prng.stream_u64(seeds, prng.STREAM_CRASH_FRAC))
    count_draw = prng.stream_u64(seeds, prng.STREAM_CRASH_COUNT)
    count = np.where(
        frac >= _NONE_PROBABILITY,
        (count_draw % np.uint64(t + 1)).astype(np.int64),
        0,
    )
    victim_keys = prng.stream_u64(seeds, prng.STREAM_VICTIM_KEY, (n,))
    order = np.argsort(victim_keys, axis=1, kind="stable")
    rank = np.empty((batch, n), dtype=np.int64)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(n, dtype=np.int64), (batch, n)),
        axis=1,
    )
    victim = rank < count[:, None]
    kind = prng.stream_u64(seeds, prng.STREAM_KIND, (n,)) & np.uint64(1)
    pre_crash = victim & (kind == 0)
    send_victim = victim & (kind == 1)
    send_point = (
        prng.stream_u64(seeds, prng.STREAM_SEND_POINT, (n,)) % np.uint64(n)
    ).astype(np.int64)

    return BatchPlan(
        spec_name=spec_name,
        n=n,
        k=k,
        t=t,
        seed=seed,
        patterns=patterns,
        indices=index_arr,
        run_seeds=seeds,
        pattern_index=pattern_index,
        input_codes=_input_codes(patterns, pattern_index, seeds, n, victim),
        victim=victim,
        pre_crash=pre_crash,
        send_victim=send_victim,
        send_point=send_point,
        arrival_keys=prng.stream_u64(seeds, prng.STREAM_ARRIVAL, (n, n)),
    )


def concat_plans(plans: Sequence[BatchPlan]) -> BatchPlan:
    """Concatenate chunked plans back into one batch-axis plan.

    The result draws its own ``accept_keys`` from the concatenated run
    seeds, which equals concatenating the parts' keys.
    """
    if len(plans) == 1:
        return plans[0]
    first = plans[0]
    merged = {
        field.name: getattr(first, field.name)
        for field in dataclasses.fields(BatchPlan)
    }
    for name in (
        "indices", "run_seeds", "pattern_index", "input_codes", "victim",
        "pre_crash", "send_victim", "send_point", "arrival_keys",
    ):
        merged[name] = np.concatenate([getattr(p, name) for p in plans])
    return BatchPlan(**merged)
