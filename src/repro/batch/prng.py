"""Counter-based vectorized PRNG for the batch engine.

Requirements differ from :class:`random.Random`: the generator must be
(1) stateless -- the value at ``(run, stream, counter)`` is a pure
function of those coordinates, so any chunking of a batch produces
bit-identical draws; (2) vectorizable -- whole arrays of draws in one
numpy expression; (3) attributable -- the per-run seed must come from
the same SHA-256 mix (:func:`repro.harness.parallel.derive_seed`) the
parallel sweep engine uses, so a batch run can be named and reproduced
by ``(config.seed, run_index)`` alone.

The mixer is the splitmix64 finalizer (Steele, Lea & Flood 2014), a
full-period bijection on 64-bit integers whose output passes BigCrush;
we use it purely as a counter-mode hash: ``mix64(seed ^ mix64(ctr))``.
All constants are wrapped in ``np.uint64`` up front -- NumPy 2 raises
``OverflowError`` on mixed Python-int/uint64 arithmetic otherwise.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.harness.parallel import seed_deriver

__all__ = [
    "STREAM_ACCEPT",
    "STREAM_ARRIVAL",
    "STREAM_CRASH_COUNT",
    "STREAM_CRASH_FRAC",
    "STREAM_INPUT",
    "STREAM_KIND",
    "STREAM_SEND_POINT",
    "STREAM_TWOVAL",
    "STREAM_VICTIM_KEY",
    "mix64",
    "run_seeds",
    "stream_u64",
    "u01",
]

_U64 = np.uint64
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_STREAM_SALT = _U64(0xD1342543DE82EF95)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)

#: Independent draw streams of one run.  Each (run, stream) pair is an
#: independent counter-mode sequence; adding a stream never perturbs
#: the draws of existing ones.
STREAM_INPUT = 1
STREAM_TWOVAL = 2
STREAM_CRASH_FRAC = 3
STREAM_CRASH_COUNT = 4
STREAM_VICTIM_KEY = 5
STREAM_KIND = 6
STREAM_SEND_POINT = 7
STREAM_ARRIVAL = 8
STREAM_ACCEPT = 9


def mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, element-wise over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> _S30
    x *= _MUL1
    x ^= x >> _S27
    x *= _MUL2
    x ^= x >> _S31
    return x


def run_seeds(seed: int, indices: Sequence[int]) -> np.ndarray:
    """Per-run 62-bit seeds for global run indices, as a uint64 array.

    Exactly ``derive_seed(seed, index)`` per run -- the same SHA-256 mix
    the parallel sweep engine derives per-task seeds with -- so every
    batch run is attributable by its ``(config.seed, run_index)`` pair
    regardless of batch size or chunk boundaries.  The shared
    ``seed`` prefix is hashed once (:func:`seed_deriver`), and each run
    then hashes only its index.
    """
    derive = seed_deriver(seed)
    return np.array(
        [derive(int(index)) for index in indices], dtype=np.uint64
    )


def stream_u64(
    seeds: np.ndarray, stream: int, shape: Tuple[int, ...] = ()
) -> np.ndarray:
    """Draw ``shape`` uint64s per run: result shape ``(len(seeds), *shape)``.

    ``out[i, j...] = mix64(mix64(seeds[i] ^ stream_salt) ^ ctr(j...))``
    -- a pure function of (seed, stream, flat counter), hence invariant
    under batching and chunking.
    """
    count = 1
    for dim in shape:
        count *= int(dim)
    ctr = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    # Salt computed in Python ints: scalar uint64 overflow warns in
    # NumPy 2, while the array ops below wrap silently as intended.
    salt = _U64((stream * int(_STREAM_SALT)) & 0xFFFFFFFFFFFFFFFF)
    salted = mix64(seeds.astype(np.uint64) ^ salt)
    out = mix64(salted[:, None] ^ ctr[None, :])
    return out.reshape((len(seeds),) + tuple(int(dim) for dim in shape))


def u01(x: np.ndarray) -> np.ndarray:
    """Map uint64 draws to floats in ``[0, 1)`` (53-bit mantissa)."""
    return (x >> _U64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
