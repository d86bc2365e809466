"""Deterministic number sources emitting one n-bit word per clock cycle.

Kinds:
  lfsr                   maximal-length Fibonacci LFSR; never emits 0,
                         period 2^n - 1
  counter                plain modulo-2^n up counter
  sobol_reversed_counter first low-discrepancy (van der Corput) sequence,
                         the bit-reversed state of a counter

Both counters emit every word in [0, 2^n - 1] exactly once per period. A
source runs from reset: a counter from word 0, the LFSR from state 1.

A run reads every source, data, select or APC, as a row of one cached table
per kind, width and form (_source_table), and _source_starts picks the row
from the run's seed; only the LFSR's table has more than one. A word's WBG
class (wbg_bit_index) is one of those forms.
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


@lru_cache(maxsize=None)
def _wbg_shift_table(n: int) -> np.ndarray:
    # shift[r] = index of r's leading one counted from the LSB;
    # shift[0] = n so that (b >> n) & 1 == 0 for any b < 2^n
    tbl = np.full(1 << n, n, dtype=np.int64)
    for r in range(1, 1 << n):
        tbl[r] = r.bit_length() - 1
    tbl.setflags(write=False)
    return tbl


def wbg_bit_index(words, n: int) -> np.ndarray:
    """Threshold bit a WBG of width n outputs for each source word.

    It is the index of the word's leading one, counted from the LSB, or n for
    the word 0, whose output is always 0; the word 1 << k (k < n) or 0 stands
    for each of the n + 1 classes.
    """
    return _wbg_shift_table(n)[words]


# bounded by its keys: three kinds and three forms at each width
@lru_cache(maxsize=None)
def _source_table(kind: str, width: int, form: str) -> np.ndarray:
    """Read-only table of the 2^n words a width-n source yields from each start.

    A table has one row per start: 2^n - 1 for the LFSR, where row p holds the
    words from the p-th state of the cycle from state 1 on, and one for a
    counter, which runs from reset. _source_starts gives a run's row. Forms:
      words        (rows, 2^n) int64: the words;
      wbg_classes  (rows, 2^n) int64: each word's WBG class (wbg_bit_index);
      level_msbs   (n, rows, 2^n) uint16: entry [l - 1, p] is each word's MSB
                   weighted by 2^(n - l), the bit that level l's select adds
                   to a hardwired tree's owner-map index.
    Each is a sliding window over the source's run from reset, long enough
    for the last start, so reading a row copies nothing.
    """
    count = 1 << width
    rows = count - 1 if kind == "lfsr" else 1
    laid = rns_sequence(RnsSpec(kind, width), rows - 1 + count)
    if form == "wbg_classes":
        laid = wbg_bit_index(laid, width)
    elif form == "level_msbs":
        weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint16)
        laid = (laid >> (width - 1)).astype(np.uint16) * weights[:, None]
    elif form != "words":
        raise ValueError(f"unknown source table form {form!r}")
    laid.setflags(write=False)
    return sliding_window_view(laid, count, axis=-1)


_MASK32 = 0xFFFFFFFF


def _hash_pair(const: int, mult: int, i: int) -> tuple[int, int]:
    # a SeedSequence hash xors its value with the running constant, advances
    # the constant by one multiply and multiplies by the new one, so hash i of
    # the fixed sequence uses the pair (const mult^i, const mult^(i + 1))
    first = const * pow(mult, i, 1 << 32) & _MASK32
    return first, first * mult & _MASK32


# The 32-bit arithmetic below reads the same on a Python int and on a uint64
# array: every product is of two values below 2^32, so no uint64 wraps, and a
# difference that wraps (or goes negative) is masked back to 32 bits.


def _hash(v, pair: tuple[int, int]):
    v = (v ^ pair[0]) * pair[1] & _MASK32
    return v ^ (v >> 16)


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ (r >> 16)


# the entropy hashes, in SeedSequence's order: 4 for the pool words, 12 to mix
# them and then one per pool word for each spawn key word
_ENTROPY_HASHES = tuple(_hash_pair(0x43B0D7E5, 0x931E8875, i) for i in range(17))
# generate_state's hash of pool word 0, the low word of the first uint64
_OUTPUT_HASH = _hash_pair(0x8B51F9DD, 0x58F38DED, 0)
# pool words 2 and 3 before mixing: a seed below 2^64 has at most two words
_PAD_WORDS = tuple(_hash(0, _ENTROPY_HASHES[i]) for i in (2, 3))


def _pool_word0(seed):
    """Word 0 of SeedSequence(seed).pool, for a seed in [0, 2^64).

    `seed` is a Python int or a uint64 array; the word has its type. The seed's
    two 32-bit words, then two zeros, are hashed into a pool of four words,
    and each word in turn has its hash mixed into every other word.
    """
    h = _ENTROPY_HASHES
    w0 = _hash(seed & _MASK32, h[0])
    w1 = _mix(_hash(seed >> 32, h[1]), _hash(w0, h[4]))
    w2 = _mix(_mix(_PAD_WORDS[0], _hash(w0, h[5])), _hash(w1, h[8]))
    w3 = _mix(_mix(_mix(_PAD_WORDS[1], _hash(w0, h[6])), _hash(w1, h[9])), _hash(w2, h[12]))
    return _mix(_mix(_mix(w0, _hash(w1, h[7])), _hash(w2, h[10])), _hash(w3, h[13]))


# spawn key i's hash, as it is mixed into pool word 0 (entropy hash 16), for
# every source a run can have: the data source and at most 16 levels
_KEY_HASHES = np.array([_hash(key, _ENTROPY_HASHES[16]) for key in range(17)], dtype=np.uint64)
_KEY_HASHES.setflags(write=False)

def _lfsr_start_rows(seeds, keys: np.ndarray, n: int) -> np.ndarray:
    """LFSR starts of the sources whose spawn-key hashes are `keys`: see _source_starts."""
    pool = _pool_word0(seeds)
    if isinstance(seeds, np.ndarray):
        words = _hash(_mix(pool.reshape(pool.shape + (1,) * keys.ndim), keys), _OUTPUT_HASH)
    else:
        # one seed's few words cost less as Python integers than as arrays
        words = [_hash(_mix(pool, key), _OUTPUT_HASH) for key in keys.ravel().tolist()]
        words = np.array(words, dtype=np.int64).reshape(keys.shape)
    return _lfsr_position(n)[np.maximum(words & ((1 << n) - 1), 1)]


def _source_starts(kind: str, seeds, indices, n: int) -> np.ndarray:
    """Rows of _source_table(kind, n, form) that sources `indices` read.

    `seeds` is one master seed or a uint64 array of them, each in [0, 2^64);
    the result has the seeds' shape followed by the indices'. Index 0 is the
    data source and l the level-l select source. A counter has one row, row
    0. An LFSR's row is its start position in the state cycle: source i's
    seed is SeedSequence(master_seed, spawn_key=(i,)).generate_state(1,
    np.uint64)[0], child i of SeedSequence(master_seed).spawn(k) for any
    k > i, so the assignment is stable across designs, and its LFSR starts at
    state max(seed mod 2^n, 1), read through _lfsr_position. As n <= 16, only
    the seed's low 32-bit word is computed, in 32-bit integer arithmetic:
    pool word 0 of the master seed (_pool_word0), the key mixed into it, and
    generate_state's hash.
    """
    keys = _KEY_HASHES[..., indices]
    if kind != "lfsr":
        return np.zeros(np.shape(seeds) + keys.shape, dtype=np.int64)
    return _lfsr_start_rows(seeds, keys, n)


def complement_output(word, n: int):
    """Bitwise complement within n bits: 2^n - 1 - word. Accepts arrays."""
    return (1 << n) - 1 - word
