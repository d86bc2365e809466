"""Deterministic number sources emitting one n-bit word per clock cycle.

Kinds:
  lfsr                   maximal-length Fibonacci LFSR; never emits 0,
                         period 2^n - 1
  counter                plain modulo-2^n up counter
  sobol_reversed_counter first low-discrepancy (van der Corput) sequence,
                         the bit-reversed state of a counter
  permutation            a seed-determined uniform random permutation of
                         [0, 2^n - 1], repeated each period
  bernoulli              i.i.d. uniform words from a seeded 64-bit generator

All full-period kinds emit every word in [0, 2^n - 1] exactly once per
period. The seed selects the starting phase for the cyclic kinds and the
permutation/bit-generator state for the random kinds.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# One primitive polynomial per width; taps are polynomial exponents.
# Maximal period for each entry is asserted by the test suite.
LFSR_TAPS = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
}

KINDS = ("lfsr", "counter", "sobol_reversed_counter", "permutation", "bernoulli")
FULL_PERIOD_KINDS = ("counter", "sobol_reversed_counter", "permutation")


@dataclass(frozen=True)
class RnsSpec:
    kind: str
    width: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown RNS kind {self.kind!r}; expected one of {KINDS}")
        if not 3 <= self.width <= 16:
            raise ValueError("RNS width must be in [3, 16]")


@lru_cache(maxsize=None)
def _lfsr_cycle(width: int) -> np.ndarray:
    """Full state cycle of the width-n LFSR starting from state 1."""
    taps = LFSR_TAPS[width]
    mask = 0
    for t in taps:
        mask |= 1 << (t - 1)
    full = (1 << width) - 1
    out = np.empty(full, dtype=np.int64)
    s = 1
    for i in range(full):
        out[i] = s
        fb = bin(s & mask).count("1") & 1
        s = ((s << 1) | fb) & full
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _lfsr_position(width: int) -> np.ndarray:
    cycle = _lfsr_cycle(width)
    pos = np.zeros(1 << width, dtype=np.int64)
    pos[cycle] = np.arange(cycle.size)
    pos.setflags(write=False)
    return pos


@lru_cache(maxsize=None)
def _bit_reverse_table(width: int) -> np.ndarray:
    vals = np.arange(1 << width, dtype=np.int64)
    rev = np.zeros_like(vals)
    for _ in range(width):
        rev = (rev << 1) | (vals & 1)
        vals >>= 1
    rev.setflags(write=False)
    return rev


def _one_period(spec: RnsSpec) -> np.ndarray:
    n = spec.width
    size = 1 << n
    if spec.kind == "counter":
        start = spec.seed % size
        return (start + np.arange(size, dtype=np.int64)) % size
    if spec.kind == "sobol_reversed_counter":
        start = spec.seed % size
        idx = (start + np.arange(size, dtype=np.int64)) % size
        return _bit_reverse_table(n)[idx]
    if spec.kind == "permutation":
        return np.random.default_rng(spec.seed).permutation(size).astype(np.int64)
    raise ValueError(f"{spec.kind} has no period")


def rns_sequence(spec: RnsSpec, count: int) -> np.ndarray:
    """First `count` output words of the source, as an int64 array."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if spec.kind == "bernoulli":
        rng = np.random.default_rng(spec.seed)
        return rng.integers(0, 1 << spec.width, size=count, dtype=np.int64)
    if spec.kind == "lfsr":
        return lfsr_words(spec.width, [spec.seed % (1 << spec.width)], count)[0]
    period = _one_period(spec)
    if count <= period.size:
        return period[:count].copy()
    reps = -(-count // period.size)
    return np.tile(period, reps)[:count]


def lfsr_words(width: int, seeds, count: int) -> np.ndarray:
    """First `count` words of one width-n LFSR per seed, shape (len(seeds), count).

    The seed picks the start state (seed mod 2^n, 0 read as 1). Row r is read
    off the LFSR's state cycle from that state's index onwards, wrapping
    round the cycle, so no period is rebuilt per seed. Seeds lie in [0, 2^64).
    """
    cycle = _lfsr_cycle(width)
    state0 = np.asarray(seeds, dtype=np.uint64) % np.uint64(1 << width)
    start = _lfsr_position(width)[np.maximum(state0, 1).astype(np.intp)]
    return cycle.take(start[:, None] + np.arange(count), mode="wrap")


def complement_output(word, n: int):
    """Bitwise complement within n bits: 2^n - 1 - word. Accepts arrays."""
    return (1 << n) - 1 - word
