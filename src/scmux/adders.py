"""Assembled weighted-adder designs and their cycle-accurate simulation.

Six named designs are provided. The feature matrix (tree style, data PCC,
full correlation, precise sampling):

    cemux            hardwired  comparators  yes  yes
    cemux_wbg        hardwired  WBGs         no   yes
    cemux_biased     biased     comparators  yes  no
    basic_hardwired  hardwired  WBGs         no   no
    basic_biased     biased     WBGs         no   no
    apc              XNOR array + accumulative parallel counter

The select wiring follows from the sampling mode: under precise sampling the
mux select lines are the bits of one counter, otherwise each tree level has
its own LFSR. A biased tree converts each select word through a WBG.

All designs share one low-discrepancy source for the data inputs. Ablation
variants of cemux (suffixes _nofc, _nops, _nofc_nops, _lfsr) remove full
correlation, precise sampling, or swap the data source for an LFSR.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bitstream import bipolar_thresholds
from .muxtree import (
    _biased_rows,
    _hardwired_rows,
    _quantize_rows,
    quantize_weights,
    tree_size,
)
from .rns import RnsSpec, _lfsr_position, _lfsr_windows, complement_output, rns_sequence

# make_channels is not on the run path; it stays reachable as
# scmux.adders.make_channels, where callers and perfbench's tracer look it up
from .sngen import PccKind, make_channels, pcc_bits, pcc_thresholds, wbg_bit_index  # noqa: F401

@dataclass(frozen=True)
class AdderDesign:
    name: str
    n: int
    weights: tuple[float, ...]
    tree_type: str  # hardwired | biased | apc
    data_pcc: PccKind
    data_rns_kind: str
    full_correlation: bool
    precise_sampling: bool


_PRESETS = {
    "cemux": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=True,
        precise_sampling=True,
    ),
    "cemux_wbg": dict(
        tree_type="hardwired",
        data_pcc=PccKind.WBG,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=True,
    ),
    "cemux_biased": dict(
        tree_type="biased",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=True,
        precise_sampling=False,
    ),
    "basic_hardwired": dict(
        tree_type="hardwired",
        data_pcc=PccKind.WBG,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    "basic_biased": dict(
        tree_type="biased",
        data_pcc=PccKind.WBG,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    "apc": dict(
        tree_type="apc",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    # cemux ablations
    "cemux_nofc": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=True,
    ),
    "cemux_nops": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=True,
        precise_sampling=False,
    ),
    "cemux_nofc_nops": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="sobol_reversed_counter",
        full_correlation=False,
        precise_sampling=False,
    ),
    "cemux_lfsr": dict(
        tree_type="hardwired",
        data_pcc=PccKind.COMPARATOR,
        data_rns_kind="lfsr",
        full_correlation=True,
        precise_sampling=True,
    ),
}


def normalize_design_name(name: str) -> str:
    key = name.lower().replace("-", "_")
    if key not in _PRESETS:
        raise ValueError(
            f"unknown design {name!r}; known: {', '.join(sorted(_PRESETS))}"
        )
    return key


def make_design(name: str, weights, n: int) -> AdderDesign:
    """Instantiate a named design at precision n with the given weights."""
    key = normalize_design_name(name)
    if not 3 <= n <= 16:
        raise ValueError("precision n must be in [3, 16]")
    w = tuple(float(x) for x in weights)
    bad = [x for x in w if not math.isfinite(x)]
    if bad:
        raise ValueError(f"weights must be finite, got {bad[0]}")
    if not w or all(x == 0.0 for x in w):
        raise ValueError("zero weight mass")
    return AdderDesign(name=key, n=n, weights=w, **_PRESETS[key])


@dataclass(frozen=True)
class SimulationReport:
    """One simulation run: output stream, estimate, target and error."""

    estimate: float
    target: float
    error: float
    # one uint8 per cycle; None for the APC, whose output is multi-bit
    output_bits: np.ndarray | None = field(repr=False)
    sampling_counts: np.ndarray | None


# seeds only drive pseudo-random source kinds; these run from reset, as in hardware
_RESET_KINDS = ("sobol_reversed_counter", "counter")


@lru_cache(maxsize=None)
def _reset_words(kind: str, n: int) -> np.ndarray:
    # the 2^n words of a source run from reset are the same in every run
    words = rns_sequence(RnsSpec(kind, n), 1 << n)
    words.setflags(write=False)
    return words


@lru_cache(maxsize=None)
def _reset_classes(kind: str, n: int) -> np.ndarray:
    # their WBG classes are the same in every run too
    classes = wbg_bit_index(_reset_words(kind, n), n)
    classes.setflags(write=False)
    return classes


_MASK32 = 0xFFFFFFFF


def _hash_pair(const: int, mult: int, i: int) -> tuple[int, int]:
    # a SeedSequence hash xors its value with the running constant, advances
    # the constant by one multiply and multiplies by the new one, so hash i of
    # the fixed sequence uses the pair (const mult^i, const mult^(i + 1))
    first = const * pow(mult, i, 1 << 32) & _MASK32
    return first, first * mult & _MASK32


# generate_state's hash of pool word 0, the low word of the first uint64
_OUTPUT_HASH = _hash_pair(0x8B51F9DD, 0x58F38DED, 0)


def _hash(v: int, pair: tuple[int, int]) -> int:
    v = (v ^ pair[0]) * pair[1] & _MASK32
    return v ^ (v >> 16)


# each spawn key's hash times the mixing's second multiplier, as it is mixed
# into pool word 0; the key's is entropy hash 16, after 4 for the pool words
# and 12 to mix them (a source index is at most the tree height, 16)
_KEY_TERMS = tuple(
    0x4973F715 * _hash(key, _hash_pair(0x43B0D7E5, 0x931E8875, 16)) & _MASK32
    for key in range(17)
)


def _source_starts(master_seed: int, indices, n: int) -> np.ndarray:
    """Start positions of sources `indices` in the width-n LFSR's state cycle.

    Index 0 is the data source and l the level-l select source. Source i's
    seed is SeedSequence(master_seed, spawn_key=(i,)).generate_state(1,
    np.uint64)[0], child i of SeedSequence(master_seed).spawn(k) for any
    k > i, so the assignment is stable across designs. Its LFSR starts at
    state max(seed mod 2^n, 1), read through rns._lfsr_position. As n <= 16,
    only the seed's low 32-bit word is computed: word 0 of the master seed's
    entropy pool, from numpy, then in 32-bit integer arithmetic each spawn
    key mixed into it and generate_state's hash. Master seeds lie in
    [0, 2^64).
    """
    x = 0xCA01F9DD * int(np.random.SeedSequence(master_seed).pool[0])
    mask = (1 << n) - 1
    c, m = _OUTPUT_HASH
    states = []
    for i in indices:
        # word 0 mixed with the key, then generate_state's hash of it
        r = (x - _KEY_TERMS[i]) & _MASK32
        r = (r ^ (r >> 16) ^ c) * m & _MASK32
        states.append(max((r ^ (r >> 16)) & mask, 1))
    return _lfsr_position(n)[states]


def _values_array(values, m: int) -> np.ndarray:
    # the range is checked once, where the values are quantized
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (m,):
        raise ValueError("values and weights must have equal length")
    return v


# The run's weight tables, keyed by (|w| bytes, n, tree type): the entries of
# the last fill alone. The tree depends on the magnitudes alone; the signs act
# after it, so weights that differ only in sign share one entry. An entry is
# (numerators, tree), read-only views of the fill's blocks: a "hardwired" tree
# is its owner map, and a "biased" tree is (step, leaf_owner). Entry
# step[s (n + 1) + k] is where the walk goes from heap slot s when the select
# word has WBG class k (see wbg_bit_index): the next slot times n + 1 if that
# slot is a mux, or else the next slot's position among the leaves.
_tables: dict[tuple[bytes, int, str], tuple] = {}


def _fill_tables(design: AdderDesign, weights) -> None:
    """Make _tables hold the tables of each weight vector of `weights`.

    If every vector's tables are present, nothing is built. Otherwise the
    distinct magnitude vectors are quantized as one block and their trees built
    as one block, per active count for a biased tree, each slot's step-table
    row built through pcc_bits against one word of each WBG class and
    pre-scaled (see _tables), and their entries replace the cache's contents.
    A block the quantizer rejects (NaN, infinite or zero weights) raises its
    message and leaves the cache as it was.
    """
    n, tree_type = design.n, design.tree_type
    if tree_type == "apc":
        return
    rows = {}
    for row in np.abs(np.asarray(weights, dtype=np.float64)):
        rows.setdefault((row.tobytes(), n, tree_type), row)
    if all(key in _tables for key in rows):
        return
    nums = _quantize_rows(list(rows.values()), n)
    nums.setflags(write=False)
    keys = list(rows)
    if tree_type == "hardwired":
        owners = _hardwired_rows(nums, n)
        owners.setflags(write=False)
        entries = dict(zip(keys, zip(nums, owners)))
    else:
        entries = {}
        class_words = np.array([*(1 << k for k in range(n)), 0], dtype=np.int64)
        active = np.count_nonzero(nums, axis=1)
        for k in set(active.tolist()):
            group = np.flatnonzero(active == k)
            heap, leaf_owner = _biased_rows(nums[group], n)
            bits = pcc_bits(PccKind.WBG, class_words, heap[:, :, None], n)
            slots = heap.shape[1]
            nxt = 2 * np.arange(slots)[:, None] + 2 - bits
            step = np.where(nxt < slots, nxt * (n + 1), nxt - slots).reshape(len(group), -1)
            step.setflags(write=False)
            leaf_owner.setflags(write=False)
            for r, row_step, row_owner in zip(group.tolist(), step, leaf_owner):
                entries[keys[r]] = (nums[r], (row_step, row_owner))
    _tables.clear()
    _tables.update(entries)


def _biased_walk(step: np.ndarray, leaf_owner: np.ndarray, classes: np.ndarray, starts):
    """Input a biased tree samples at each cycle; level l reads row starts[l - 1] of classes.

    classes holds rows of select-word WBG classes (sngen.wbg_bit_index).
    Every cycle walks the heap from the root, one level per select source,
    each mux converting its source's word through a WBG (see
    build_biased_selector_tree). The step table is pre-scaled (see _tables),
    so a level is one add and one gather, and the last level's entries are
    leaf positions.
    """
    idx = np.zeros(classes.shape[-1], dtype=np.int64)
    for start in starts:
        idx = step[idx + classes[start]]
    return leaf_owner[idx]


def _owner_sequence(design: AdderDesign, tree, big_n, seed) -> np.ndarray:
    """Input index sampled at each clock cycle, per the design's select wiring."""
    n = design.n
    if design.tree_type == "hardwired":
        if design.precise_sampling:
            # the counter runs from its reset state over its 2^n words, so its
            # dyadic blocks stay aligned with the low-discrepancy data source:
            # cycle t samples owner[t]
            return tree
        # one independent LFSR per level; its word's MSB is the select bit,
        # bit n - l of the owner-map index for level l
        msbs = _lfsr_windows(n, big_n, "level_msbs")
        starts = _source_starts(seed, range(1, n + 1), n)
        return tree.take(msbs[np.arange(n), starts].sum(axis=0, dtype=np.uint16))

    step, leaf_owner = tree
    depth = leaf_owner.size.bit_length() - 1
    classes = _lfsr_windows(n, big_n, "wbg_classes")
    return _biased_walk(step, leaf_owner, classes, _source_starts(seed, range(1, depth + 1), n))


def _data_row(design: AdderDesign, big_n: int, seed: int, row: str) -> np.ndarray:
    """The run's data-source words (row "words") or their WBG classes ("wbg_classes")."""
    n = design.n
    if design.data_rns_kind not in _RESET_KINDS:
        return _lfsr_windows(n, big_n, row)[_source_starts(seed, [0], n)[0]]
    if row == "words":
        return _reset_words(design.data_rns_kind, n)
    return _reset_classes(design.data_rns_kind, n)


def run_adder(design: AdderDesign, values, big_n: int, seed: int) -> SimulationReport:
    """Cycle-accurate simulation of one adder run.

    Each clock cycle the tree passes one input's bit to the output, so only
    that bit is generated: the sampled input's PCC reads the cycle's shared
    source word x (complemented for a negative input under full correlation),
    and its sign inverter follows. The inverter is folded into the PCC:
      comparator, full correlation: the complement and the inverter cancel,
          1 - [2^n - 1 - x < B] = [x < 2^n - B], so a negative input compares
          x with its post-sign code B' = 2^n - B;
      comparator otherwise: [x < B], inverted for a negative input;
      WBG: bit k of the code for a word of class k (bit n, which is 0, for
          the word 0), so a negative input's code has all n + 1 bits inverted.
    The up-down counter accumulates the output. The APC runs its own datapath.
    """
    n = design.n
    if big_n != (1 << n):
        raise ValueError(f"stream length must be 2^n = {1 << n} for design {design.name}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if design.tree_type == "apc":
        return run_apc(design.weights, values, big_n)
    w = np.asarray(design.weights, dtype=np.float64)
    thresholds = pcc_thresholds(_values_array(values, w.size), n, design.data_pcc)

    key = (np.abs(w).tobytes(), n, design.tree_type)
    tables = _tables.get(key)
    if tables is None:
        _fill_tables(design, [w])
        tables = _tables[key]
    nums, tree = tables

    owners = _owner_sequence(design, tree, big_n, seed)
    neg = w < 0
    post_sign = np.where(neg, big_n - thresholds, thresholds)
    if design.data_pcc is PccKind.COMPARATOR:
        words = _data_row(design, big_n, seed, "words")
        if design.full_correlation:
            z = words < post_sign[owners]
        else:
            z = (words < thresholds[owners]) ^ neg[owners]
        z = z.view(np.uint8)
    else:
        # a WBG outputs bit k of its code for a word of class k, and bit n,
        # which is 0, for the word 0; so inverting all n + 1 bits of a
        # negative input's code inverts each of its outputs
        codes = np.where(neg, thresholds ^ ((2 << n) - 1), thresholds)
        classes = _data_row(design, big_n, seed, "wbg_classes")
        if design.full_correlation:
            words = _data_row(design, big_n, seed, "words")
            classes = np.where(neg[owners], wbg_bit_index(complement_output(words, n), n), classes)
        z = ((codes[owners] >> classes) & 1).astype(np.uint8)

    ones = int(np.count_nonzero(z))
    estimate = min(1.0, max(-1.0, 2.0 * ones / big_n - 1.0))
    # sum_i s_i (q_i / 2^n)(2 B_i / 2^n - 1) = sum_i (q_i / 2^n)(2 B'_i / 2^n - 1)
    # is the integer below over 2^2n, so one correctly rounded division gives
    # the double nearest it
    target = int(nums @ (2 * post_sign - big_n)) / (big_n * big_n)
    return SimulationReport(
        estimate=estimate,
        target=target,
        error=estimate - target,
        output_bits=z,
        sampling_counts=np.bincount(owners, minlength=len(design.weights)),
    )


# the stream lengths an APC runs at, with their bit-widths
_APC_WIDTHS = {1 << n: n for n in range(3, 17)}


# the last weights' entry alone: every scripts/ run uses the APC on fixed taps, and
# an entry holds an (M, N) bit matrix, 16.8 MB at M = 256 and n = 16
@lru_cache(maxsize=1)
def _apc_coefficients(weights: bytes, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The coefficient side of an APC run, the same for every run of the weights.

    Returns two read-only arrays, the coefficient bit of each input and cycle
    with the input's sign inverter folded in and the signed codes
    s_i (2 B_i - 2^n) of the |w_i|, then the codes' unsigned sum: 2^n times
    the sum of the quantized coefficients.
    """
    w = np.frombuffer(weights, dtype=np.float64)
    bw = bipolar_thresholds(np.abs(w), n)
    negs = w < 0
    w_bits = _reset_words("counter", n)[None, :] < bw[:, None]
    codes = 2 * bw - (1 << n)
    out = (w_bits ^ negs[:, None], np.where(negs, -codes, codes))
    for arr in out:
        arr.setflags(write=False)
    return *out, int(codes.sum())


def run_apc(weights, values, big_n: int) -> SimulationReport:
    """Accumulative-parallel-counter adder with two shared sources.

    Data SNs share one low-discrepancy source and coefficient SNs (values
    |w_i|, signs folded into the XNOR array) share a second one; the two
    sources are the bit-reversed counter and the plain counter, whose paired
    outputs are jointly equidistributed. The parallel counter adds all M
    product bits each cycle; the accumulator's mean is rescaled so the report
    targets the same normalized weighted mean as the mux designs.
    """
    n = _APC_WIDTHS.get(big_n)
    if n is None:
        raise ValueError("stream length must be a power of two with 3 <= log2(N) <= 16")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    m = w.size
    bx = bipolar_thresholds(_values_array(values, m), n)
    if not np.all(np.abs(w) <= 1.0):  # NaN fails too
        raise ValueError("APC coefficient values |w_i| must lie in [0, 1]")
    coeff_bits, signed, denom_num = _apc_coefficients(w.tobytes(), n)
    if denom_num <= 0:
        raise ValueError("zero weight mass after quantization")

    # the data source runs from reset like the coefficient one; the design is
    # fully deterministic
    x_bits = _reset_words("sobol_reversed_counter", n)[None, :] < bx[:, None]
    # product bit = XNOR(x, w), inverted for a negative coefficient; the
    # accumulator adds every product bit of every cycle
    acc = m * big_n - int(np.count_nonzero(x_bits ^ coeff_bits))
    raw = 2.0 * acc / (big_n * m) - 1.0

    # the quantized coefficients and values are their codes over 2^n, so the
    # sum of the coefficients and the signed sum of their products with the
    # values are integers over 2^n and 2^2n; one correctly rounded division
    # gives the double nearest each
    denom = denom_num / big_n
    estimate = min(1.0, max(-1.0, raw * m / denom))
    target = int(signed @ (2 * bx - big_n)) / (big_n * big_n) / denom
    return SimulationReport(
        estimate=estimate,
        target=target,
        error=estimate - target,
        output_bits=None,
        sampling_counts=None,
    )


def structural_report(design: AdderDesign) -> dict[str, int]:
    """Exact component counts for a constructed design.

    inverters = the n source-complement inverters (present when full
    correlation is wired and some weight is negative) plus one sign inverter
    per negative-weight input. Inputs whose quantized weight is zero are
    dropped from the datapath. counter bits cover the select counter
    (precise-sampling designs) and the output up-down counter.
    """
    n = design.n
    nums = quantize_weights(design.weights, n)
    active = int(np.count_nonzero(nums))
    negatives = int(np.count_nonzero((nums > 0) & (np.asarray(design.weights) < 0)))
    counts = {
        "muxes": 0,
        "comparators": 0,
        "wbgs": 0,
        "inverters": 0,
        "xnors": 0,
        "rns_instances": 0,
        "select_counter_bits": 0,
        "output_counter_bits": n,
        "parallel_counter_bits": 0,
    }
    if design.tree_type == "apc":
        m = len(design.weights)
        counts["comparators"] = 2 * m
        counts["xnors"] = m
        counts["rns_instances"] = 2
        counts["parallel_counter_bits"] = math.ceil(math.log2(m + 1))
        return counts

    data_key = "comparators" if design.data_pcc is PccKind.COMPARATOR else "wbgs"
    counts[data_key] = active
    counts["inverters"] = negatives + (
        n if design.full_correlation and negatives else 0
    )
    counts["rns_instances"] = 1  # shared data source
    counts["muxes"], levels = tree_size(nums, design.tree_type)
    if design.precise_sampling:
        counts["select_counter_bits"] = levels
    else:
        counts["rns_instances"] += levels  # one LFSR per level
    if design.tree_type == "biased":
        counts["wbgs"] += counts["muxes"]  # one select WBG per mux
    return counts
