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
from functools import cached_property, lru_cache

import numpy as np

from .bitstream import Bitstream, bipolar_thresholds
from .muxtree import (
    BiasedSelectorTreeSpec,
    HardwiredTreeSpec,
    QuantizedWeights,
    build_biased_selector_tree,
    build_hardwired_tree,
    quantize_weights,
)
from .rns import RnsSpec, complement_output, lfsr_words, rns_sequence

# make_channels is not on the run path; it stays reachable as
# scmux.adders.make_channels, where callers and perfbench's tracer look it up
from .sngen import PccKind, make_channels, pcc_bits, pcc_thresholds  # noqa: F401

DESIGN_NAMES = (
    "cemux",
    "cemux_wbg",
    "cemux_biased",
    "basic_hardwired",
    "basic_biased",
    "apc",
)
ABLATION_NAMES = ("cemux_nofc", "cemux_nops", "cemux_nofc_nops", "cemux_lfsr")

# select wiring of the designs without precise sampling: one LFSR per tree
# level, whose words a biased tree's muxes convert through this PCC
BIASED_SELECT_PCC = PccKind.WBG


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
    if not w or all(x == 0.0 for x in w):
        raise ValueError("zero weight mass")
    return AdderDesign(name=key, n=n, weights=w, **_PRESETS[key])


@dataclass(frozen=True)
class SimulationReport:
    """One simulation run: output stream, estimate, target and error."""

    design: str
    estimate: float
    target: float
    error: float
    output_bits: np.ndarray | None = field(repr=False)  # one uint8 per cycle
    sampling_counts: np.ndarray | None

    @cached_property
    def output(self) -> Bitstream | None:
        """The output stream, packed on first read; None for the APC, whose
        output is multi-bit."""
        return None if self.output_bits is None else Bitstream(self.output_bits)


# seeds only drive pseudo-random source kinds; these run from reset, as in hardware
_RESET_KINDS = ("sobol_reversed_counter", "counter")


@lru_cache(maxsize=None)
def _reset_words(kind: str, n: int) -> np.ndarray:
    # the 2^n words of a source run from reset are the same in every run
    words = rns_sequence(RnsSpec(kind, n, 0), 1 << n)
    words.setflags(write=False)
    return words


_MASK32 = 0xFFFFFFFF


def _source_seeds(master_seed: int, indices) -> list[int]:
    """Seeds of sources `indices` (0 the data source, l the level-l select source).

    Entry i is SeedSequence(master_seed, spawn_key=(indices[i],))
    .generate_state(1, np.uint64)[0], child indices[i] of
    SeedSequence(master_seed).spawn(k) for any k > indices[i], so the
    assignment is stable across designs. numpy's entropy mixing is recomputed
    in 32-bit integer arithmetic: the master seed's pool once, then each
    spawn key. Master seeds lie in [0, 2^64).
    """
    hash_const = 0x43B0D7E5  # advances with every hashmix

    def hashmix(v):
        nonlocal hash_const
        v ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        v = v * hash_const & _MASK32
        return v ^ (v >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    # the seed's 32-bit words padded to the pool size of 4
    pool = [hashmix(e) for e in (master_seed & _MASK32, master_seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # the spawn key is hashed afresh for each pool word; generate_state reads
    # only words 0 and 1, so the hashes for words 2 and 3 are not needed
    key_const = hash_const
    seeds = []
    for key in indices:
        hash_const = key_const
        words = mix(pool[0], hashmix(key)), mix(pool[1], hashmix(key))
        # generate_state: the two words, hashed, are the uint64's halves
        out_const, halves = 0x8B51F9DD, []
        for v in words:
            v ^= out_const
            out_const = out_const * 0x58F38DED & _MASK32
            v = v * out_const & _MASK32
            halves.append(v ^ (v >> 16))
        seeds.append(halves[0] | halves[1] << 32)
    return seeds


def target_value(weights, values, n: int, height: int | None = None) -> float:
    """Weighted mean of the inputs with weights and values quantized to the
    circuit precision: sum_i sign_i * (q_i / 2^m) * quantized(value_i)."""
    w = tuple(float(x) for x in weights)
    if len(w) != len(values):
        raise ValueError("weights and values must have equal length")
    q = quantize_weights(w, height if height is not None else n)
    return _target_from_thresholds(q, bipolar_thresholds(values, n), n)


def _target_from_thresholds(q: QuantizedWeights, thresholds: np.ndarray, n: int) -> float:
    # sum_i s_i (q_i / 2^h)(2 B_i / 2^n - 1) is the integer below over
    # 2^(h+n); one correctly rounded division gives the same double as the
    # fsum of the exact terms
    signed = np.array(q.signs, dtype=np.int64) * np.array(q.numerators, dtype=np.int64)
    total = int(signed @ (2 * thresholds - (1 << n)))
    return total / (1 << (q.height + n))


def _validate_values(values, weights) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (len(weights),):
        raise ValueError("values and weights must have equal length")
    bad = ~((v >= -1.0) & (v <= 1.0))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"input value {v[bad][0]} outside [-1, 1]")
    return v


@lru_cache(maxsize=128)
def _hardwired_tree_cached(numerators: tuple[int, ...], h: int) -> HardwiredTreeSpec:
    return build_hardwired_tree(QuantizedWeights(numerators, h, (1,) * len(numerators)))


@lru_cache(maxsize=128)
def _biased_tree_cached(numerators: tuple[int, ...], n: int) -> BiasedSelectorTreeSpec:
    q = QuantizedWeights(numerators, n, (1,) * len(numerators))
    return build_biased_selector_tree(q, BIASED_SELECT_PCC)


def _owner_sequence(design: AdderDesign, q, n, big_n, seed) -> np.ndarray:
    """Input index sampled at each clock cycle, per the design's select wiring."""
    if design.tree_type == "hardwired":
        tree = _hardwired_tree_cached(q.numerators, q.height)
        h = tree.height
        if design.precise_sampling:
            # the counter starts from its reset state so its dyadic blocks stay
            # aligned with the low-discrepancy data source
            words = np.arange(big_n, dtype=np.int64) % (1 << h)
        else:
            # one independent LFSR per level; its word's MSB is the select bit
            msb = lfsr_words(n, _source_seeds(seed, range(1, h + 1)), big_n) >> (n - 1)
            words = (1 << np.arange(h - 1, -1, -1)) @ msb
        return tree.owner[words]

    tree = _biased_tree_cached(q.numerators, n)
    select = lfsr_words(n, _source_seeds(seed, range(1, tree.num_levels + 1)), big_n)
    cur = np.full(big_n, tree.root, dtype=np.int64)
    # the tree is walked level by level: every cycle still at a mux sits on
    # the current level, and only those cycles' select bits are generated
    live = np.flatnonzero(cur >= 0)
    level = 1
    while live.size:
        refs = cur[live]
        words = select[level - 1, live]
        b = pcc_bits(tree.select_pcc, words, tree.thresholds[refs], n)
        # select bit 1 routes toward child0, whose mass fraction is p_node
        nxt = np.where(b == 1, tree.child0[refs], tree.child1[refs])
        cur[live] = nxt
        live = live[nxt >= 0]
        level += 1
    return ~cur


def run_adder(design: AdderDesign, values, big_n: int, seed: int) -> SimulationReport:
    """Cycle-accurate simulation of one adder run.

    Each clock cycle the tree passes one input's bit to the output, so only
    that bit is generated: the sampled input's PCC compares the cycle's
    shared source word (complemented for negative inputs under full
    correlation) with its threshold, and its sign inverter follows. The
    up-down counter accumulates the output. The APC runs its own datapath.
    """
    if design.tree_type == "apc":
        return run_apc(design.weights, values, big_n)
    n = design.n
    if big_n != (1 << n):
        raise ValueError(f"stream length must be 2^n = {1 << n} for design {design.name}")
    v = _validate_values(values, design.weights)

    q = quantize_weights(design.weights, n)
    thresholds = pcc_thresholds(v, n, design.data_pcc)
    negative = np.array(q.signs) < 0

    if design.data_rns_kind in _RESET_KINDS:
        words = _reset_words(design.data_rns_kind, n)
    else:
        words = rns_sequence(RnsSpec(design.data_rns_kind, n, _source_seeds(seed, [0])[0]), big_n)
    owners = _owner_sequence(design, q, n, big_n, seed)
    inverted = negative[owners]
    if design.full_correlation:
        words = np.where(inverted, complement_output(words, n), words)
    z = pcc_bits(design.data_pcc, words, thresholds[owners], n) ^ inverted

    ones = int(np.count_nonzero(z))
    estimate = min(1.0, max(-1.0, 2.0 * ones / big_n - 1.0))
    target = _target_from_thresholds(q, thresholds, n)
    return SimulationReport(
        design=design.name,
        estimate=estimate,
        target=target,
        error=estimate - target,
        output_bits=z,
        sampling_counts=np.bincount(owners, minlength=len(design.weights)),
    )


def run_apc(weights, values, big_n: int) -> SimulationReport:
    """Accumulative-parallel-counter adder with two shared sources.

    Data SNs share one low-discrepancy source and coefficient SNs (values
    |w_i|, signs folded into the XNOR array) share a second one; the two
    sources are the bit-reversed counter and the plain counter, whose paired
    outputs are jointly equidistributed. The parallel counter adds all M
    product bits each cycle; the accumulator's mean is rescaled so the report
    targets the same normalized weighted mean as the mux designs.
    """
    n = int(round(math.log2(big_n)))
    if (1 << n) != big_n or not 3 <= n <= 16:
        raise ValueError("stream length must be a power of two with 3 <= log2(N) <= 16")
    w = np.asarray(weights, dtype=np.float64)
    x = _validate_values(values, w)
    m = len(w)
    if not np.all(np.abs(w) <= 1.0):  # NaN fails too
        raise ValueError("APC coefficient values |w_i| must lie in [0, 1]")

    # both sources run from canonical phase; the design is fully deterministic
    data_words = rns_sequence(RnsSpec("sobol_reversed_counter", n, 0), big_n)
    coeff_words = rns_sequence(RnsSpec("counter", n, 0), big_n)

    bx = bipolar_thresholds(x, n)
    bw = bipolar_thresholds(np.abs(w), n)
    negs = w < 0

    x_bits = data_words[None, :] < bx[:, None]
    w_bits = coeff_words[None, :] < bw[:, None]
    # product bit = XNOR(x, w), inverted for a negative coefficient; the
    # accumulator adds every product bit of every cycle
    acc = m * big_n - int(np.count_nonzero(x_bits ^ w_bits ^ negs[:, None]))
    raw = 2.0 * acc / (big_n * m) - 1.0

    w_hat = 2.0 * bw / big_n - 1.0
    denom = math.fsum(w_hat)
    if denom <= 0.0:
        raise ValueError("zero weight mass after quantization")
    estimate = min(1.0, max(-1.0, raw * m / denom))

    mu_hat = 2.0 * bx / big_n - 1.0
    signs = np.where(negs, -1.0, 1.0)
    target = math.fsum(signs * w_hat * mu_hat) / denom
    return SimulationReport(
        design="apc",
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
    q = quantize_weights(design.weights, n)
    active = sum(1 for num in q.numerators if num > 0)
    negatives = sum(
        1 for num, w in zip(q.numerators, design.weights) if num > 0 and w < 0
    )
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
    if design.tree_type == "hardwired":
        tree = _hardwired_tree_cached(q.numerators, q.height)
        counts["muxes"] = tree.mux_count
        if design.precise_sampling:
            counts["select_counter_bits"] = tree.height
        else:
            counts["rns_instances"] += tree.height  # one LFSR per level
    else:
        tree = _biased_tree_cached(q.numerators, n)
        counts["muxes"] = tree.mux_count
        counts["rns_instances"] += tree.num_levels
        counts["wbgs"] += tree.mux_count  # one select WBG per mux
    return counts
