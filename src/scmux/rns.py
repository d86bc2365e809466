"""Deterministic number sources emitting one n-bit word per clock cycle.

Kinds:
  lfsr                   maximal-length Fibonacci LFSR; never emits 0,
                         period 2^n - 1
  counter                plain modulo-2^n up counter
  sobol_reversed_counter first low-discrepancy (van der Corput) sequence,
                         the bit-reversed state of a counter

Both counters emit every word in [0, 2^n - 1] exactly once per period. A
source runs from reset: a counter from word 0, the LFSR from state 1.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

KINDS = ("lfsr", "counter", "sobol_reversed_counter")


@dataclass(frozen=True)
class RnsSpec:
    kind: str
    width: int

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
    # one period of the source from reset
    if spec.kind == "lfsr":
        return _lfsr_cycle(spec.width)
    if spec.kind == "sobol_reversed_counter":
        return _bit_reverse_table(spec.width)
    return np.arange(1 << spec.width, dtype=np.int64)


def rns_sequence(spec: RnsSpec, count: int) -> np.ndarray:
    """First `count` output words of the source run from reset, as an int64 array."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return np.resize(_one_period(spec), count)


# room for a table of each kind at every width
@lru_cache(maxsize=3 * len(LFSR_TAPS))
def _lfsr_windows(width: int, count: int, kind: str) -> np.ndarray:
    """Read-only table of what the width-n LFSR yields over `count` words from each start.

    Row p holds the words from the p-th state of the cycle from state 1 on; a
    seeded source's p comes from adders._source_starts. Kinds:
      words        (2^n - 1, count) int64: the words;
      wbg_classes  (2^n - 1, count) int64: each word's WBG class
                   (sngen.wbg_bit_index);
      level_msbs   (n, 2^n - 1, count) uint16: entry [l - 1, p] is each
                   word's MSB weighted by 2^(n - l), the bit that level l's
                   select adds to a hardwired tree's owner-map index.
    Each is a sliding window over one table laid out along the cycle repeated
    end to end, so reading a start's row copies nothing.
    """
    # a start lies at most 2^n - 2 words in
    laid = np.resize(_lfsr_cycle(width), (1 << width) - 2 + count)
    if kind == "wbg_classes":
        from .sngen import wbg_bit_index  # sngen imports this module

        laid = wbg_bit_index(laid, width)
    elif kind == "level_msbs":
        weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint16)
        laid = (laid >> (width - 1)).astype(np.uint16) * weights[:, None]
    elif kind != "words":
        raise ValueError(f"unknown LFSR table kind {kind!r}")
    laid.setflags(write=False)
    return sliding_window_view(laid, count, axis=-1)


def complement_output(word, n: int):
    """Bitwise complement within n bits: 2^n - 1 - word. Accepts arrays."""
    return (1 << n) - 1 - word
