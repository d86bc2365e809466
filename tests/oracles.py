"""Independent oracles used by the test suite.

Everything here is written as directly as possible: plain loops, per-cycle
stepping, exact rational arithmetic and integer arrays whose range is
checked. Two helpers live only here: the stochastic cross correlation (scc),
the metric that measures full correlation, and the plain-text tree dump
(dump_tree) that the golden file pins. The oracles take types and data from
the package (PccKind, Bitstream, the LFSR tap table) but none of its
algorithms, with one exception: the full-matrix adder run (full_matrix_run
and its helpers) builds its M x N matrices from the production stream
primitives (quantizers, channels, input_bit_matrix, pcc_bits), which the
per-cycle oracles below check on their own, so that it can check the O(N)
run kernel. Its source words come from RnsState's stepped periods
(source_words), not from the production sources. Its hardwired owners come
from level_ordered_blocks, not from the production owner map, and its
biased trees from biased_tree_reference, not from the production heap
build. The per-level biased walk (biased_walk_per_level) takes the
production heap and pcc_bits, to check the step table the run kernel walks
instead. The model-path
loop (model_run_once and its neighbours) likewise takes the quantizer, the
owner map and the thresholds from the package, to check the batched
decomposition's statistics run by run. The accuracy loop
(accuracy_errors_per_run) calls the package's run_adder once per run, to check
that accuracy_stats's chunked draws and chunk fills leave every run
unchanged.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from scmux.adders import run_adder
from scmux.analysis import _ModelRuntime
from scmux.bitstream import Bitstream
from scmux.rns import LFSR_TAPS
from scmux.sngen import PccKind

DESIGN_NAMES = (
    "cemux",
    "cemux_wbg",
    "cemux_biased",
    "basic_hardwired",
    "basic_biased",
    "apc",
)
ABLATION_NAMES = ("cemux_nofc", "cemux_nops", "cemux_nofc_nops", "cemux_lfsr")
# the designs whose runs read the LFSR tables: the select sources of the
# noisy trees, and the data source of cemux_lfsr
LFSR_DESIGNS = ("basic_hardwired", "cemux_nops", "cemux_nofc_nops", "basic_biased", "cemux_biased",
                "cemux_lfsr")


def quantize_weights_transcription(weights, m):
    """Line-by-line transcription of the weight-quantization pseudocode.

    Round half away from zero; adjustment loops pick the entry with the
    largest current rounding error, lowest index on ties.
    """
    a = [abs(float(w)) for w in weights]
    total = sum(a)
    assert total > 0
    t = [(2**m) * x / total for x in a]
    q = [math.floor(x + 0.5) for x in t]
    while sum(q) > 2**m:
        errs = [q[i] - t[i] for i in range(len(q))]
        i = errs.index(max(errs))
        q[i] -= 1
    while sum(q) < 2**m:
        errs = [t[i] - q[i] for i in range(len(q))]
        i = errs.index(max(errs))
        q[i] += 1
    return q


def level_ordered_blocks(numerators, h):
    """Select-word blocks hardwired to each input, as (input, level, start).

    The full height-h tree has 2^h leaf slots; input i owns one dyadic range
    of length 2^(h-l) per set bit 2^(h-l) of its numerator, allocated in level
    order (level 1 first) and input order within a level, exactly the
    hardwiring the redundancy-free construction encodes. A numerator of 2^h
    is a single level-0 block covering every slot. Allocating the longest
    ranges first keeps every block aligned to its own length.
    """
    blocks = []
    cursor = 0
    for lvl in range(h + 1):
        span = 1 << (h - lvl)
        for i, q in enumerate(numerators):
            if (q >> (h - lvl)) & 1:
                blocks.append((i, lvl, cursor))
                cursor += span
    assert cursor == 1 << h
    return blocks


def level_ordered_owners(numerators, h):
    """Input owning each select word, filled in from level_ordered_blocks."""
    slots = np.empty(1 << h, dtype=np.int64)
    for i, lvl, start in level_ordered_blocks(numerators, h):
        slots[start : start + (1 << (h - lvl))] = i
    return slots


def row_height(numerators):
    """Height h of a quantized numerator row, which sums to 2^h."""
    total = sum(int(num) for num in numerators)
    assert total > 0 and total & (total - 1) == 0, total
    return total.bit_length() - 1


def dump_tree(numerators):
    """Plain-text dump of the hardwired tree over a quantized numerator row.

    One `level l: inputs` line per level lists the inputs with a leaf there
    (bit 2^(h-l) of the numerator set); each leaf but one costs a mux.
    """
    h = row_height(numerators)
    nums = [int(num) for num in numerators]
    lines = [f"height {h}", f"inputs {len(nums)}"]
    for lvl in range(1, h + 1):
        inputs = [str(i) for i, num in enumerate(nums) if num >> (h - lvl) & 1]
        lines.append(f"level {lvl}: {' '.join(inputs)}".rstrip())
    lines.append(f"muxes {sum(num.bit_count() for num in nums) - 1}")
    return "\n".join(lines) + "\n"


def full_tree_select(numerators, h, word, slots=None):
    """Route a select word through the full height-h tree, no mux elimination.

    Slots are hardwired per level_ordered_blocks (pass level_ordered_owners
    to route many words). Every level consumes one select bit (MSB first), so
    the walk always descends h levels.
    """
    if slots is None:
        slots = level_ordered_owners(numerators, h)
    lo, hi = 0, 1 << h
    for lvl in range(1, h + 1):
        bit = (word >> (h - lvl)) & 1
        mid = (lo + hi) // 2
        if bit:
            lo = mid
        else:
            hi = mid
    assert hi - lo == 1
    return int(slots[lo])


class PairingTree(NamedTuple):
    """Hardwired tree as muxes. A child ref k >= 0 is mux k, ~i data input i;
    node_level[k] is mux k's level (the root's is 1)."""

    height: int
    child0: list
    child1: list
    node_level: list
    root: int

    @property
    def mux_count(self):
        return len(self.child0)


def pairing_tree(numerators, h):
    """Build the redundancy-free hardwired tree by pairing slots bottom-up.

    From level h up to level 1, the level's entries are its leaf inputs (in
    input order) followed by the muxes built on the level below; they are
    paired in order and each pair becomes one mux of that level. A numerator
    of 2^h makes that input the root, with no muxes.
    """
    size = 1 << h
    assert sum(numerators) == size
    whole = [i for i, q in enumerate(numerators) if q == size]
    if whole:
        return PairingTree(h, [], [], [], ~whole[0])
    child0, child1, node_level = [], [], []
    current = []
    for depth in range(h, 0, -1):
        leaves = [~i for i, q in enumerate(numerators) if (q >> (h - depth)) & 1]
        current = leaves + current
        assert len(current) % 2 == 0, "pairing parity violated"
        nxt = []
        for k in range(0, len(current), 2):
            child0.append(current[k])
            child1.append(current[k + 1])
            node_level.append(depth)
            nxt.append(len(child0) - 1)
        current = nxt
    assert len(current) == 1
    return PairingTree(h, child0, child1, node_level, current[0])


def select_leaf_precise(tree, counter_word):
    """Route one select word through a PairingTree; returns the selected input.

    The level-l mux reads the word's l-th MSB; bit 0 takes the first child of
    the pair, bit 1 the second.
    """
    if not 0 <= counter_word < (1 << tree.height):
        raise ValueError("select word out of range")
    ref = tree.root
    while ref >= 0:
        bit = (counter_word >> (tree.height - tree.node_level[ref])) & 1
        ref = tree.child1[ref] if bit else tree.child0[ref]
    return ~ref


def select_leaf_noisy(tree, level_bits):
    """Route independent per-level select bits (level_bits[l-1] drives level l)."""
    bits = list(level_bits)
    if len(bits) != tree.height:
        raise ValueError("need one select bit per tree level")
    word = 0
    for lvl, b in enumerate(bits, start=1):
        if b not in (0, 1):
            raise ValueError("select bits must be 0 or 1")
        word |= int(b) << (tree.height - lvl)
    return select_leaf_precise(tree, word)


def quantize_to_probability(p, n):
    """Comparator threshold B in [0, 2^n] whose stream probability is closest to p.

    floor(p * 2^n + 1/2) in exact rational arithmetic, so ties round up (half
    away from zero in the probability domain). B needs n+1 bits so that
    probability exactly 1 is representable.
    """
    return math.floor(Fraction(p) * (1 << n) + Fraction(1, 2))


def bipolar_threshold(value, n):
    """Comparator threshold of a bipolar value: floor((v + 1) / 2 * 2^n + 1/2).

    Exact in integers: for v = p/q it is floor(((p + q) 2^n + q) / 2q).
    """
    p, q = value.as_integer_ratio()
    return ((p + q) * (1 << n) + q) // (2 * q)


def pcc_threshold(p, n, pcc):
    """Threshold code a width-n PCC realizes for probability p.

    The WBG has no all-ones code, so 2^n becomes 2^n - 1.
    """
    b = quantize_to_probability(p, n)
    return min(b, (1 << n) - 1) if pcc is PccKind.WBG else b


class BiasedTreeReference(NamedTuple):
    root: int  # a mux index, or ~input for a one-input tree
    child0: list  # per mux, in post-order: a mux index, or ~input for a leaf
    child1: list
    node_level: list  # root is level 1
    probabilities: list  # Fraction per mux: mass(child0) / mass(both)
    thresholds: list
    select_pcc: PccKind

    @property
    def mux_count(self):
        return len(self.child0)


def biased_tree_reference(numerators, select_pcc):
    """Balanced biased-selector tree by recursive halving of the active inputs.

    Each mux's probability is the exact Fraction mass(left) / mass(both), and
    its threshold the select PCC's code for it at the quantization height,
    log2 of the numerators' sum.
    """
    nums = [int(num) for num in numerators]
    active = [i for i, num in enumerate(nums) if num > 0]
    if not active:
        raise ValueError("no inputs with nonzero quantized weight")
    h = row_height(nums)
    child0, child1, levels, probs = [], [], [], []

    def mass(indices):
        return sum(nums[i] for i in indices)

    def build(indices, level):
        if len(indices) == 1:
            return ~indices[0]
        mid = len(indices) // 2
        left, right = indices[:mid], indices[mid:]
        c0 = build(left, level + 1)
        c1 = build(right, level + 1)
        child0.append(c0)
        child1.append(c1)
        levels.append(level)
        probs.append(Fraction(mass(left), mass(left) + mass(right)))
        return len(child0) - 1

    root = build(active, 1)
    thresholds = [pcc_threshold(p, h, select_pcc) for p in probs]
    return BiasedTreeReference(root, child0, child1, levels, probs, thresholds, select_pcc)


def biased_leaf_path_products(tree):
    """Exact (pre-quantization) sampling probability of each input of a
    reference tree: the product of the node probabilities along its path."""
    out = {}
    stack = [(tree.root, Fraction(1))]
    while stack:
        ref, p = stack.pop()
        if ref < 0:
            out[~ref] = p
        else:
            pnode = tree.probabilities[ref]
            stack.append((tree.child0[ref], p * pnode))
            stack.append((tree.child1[ref], p * (1 - pnode)))
    return out


def biased_heap_layout(tree):
    """A reference tree laid out as a complete heap of depth D, its deepest level.

    The root sits at slot 0 and the children of slot s at 2s + 1 (child0) and
    2s + 2 (child1). A leaf d < D levels deep sits over padding slots of
    threshold 0, whose bit 0 routes to child1, so it owns all 2^(D-d) heap
    leaves below its slot. Returns (heap thresholds, heap-leaf owners).
    """
    depth = max(tree.node_level, default=0)
    heap = [0] * ((1 << depth) - 1)
    owners = [None] * (1 << depth)

    def place(ref, slot, level):
        if ref >= 0:
            heap[slot] = tree.thresholds[ref]
            place(tree.child0[ref], 2 * slot + 1, level + 1)
            place(tree.child1[ref], 2 * slot + 2, level + 1)
        else:
            span = 1 << (depth - level)
            first = (slot + 1) * span - (1 << depth)  # leftmost heap leaf below
            owners[first:first + span] = [~ref] * span

    place(tree.root, 0, 0)
    return heap, owners


def comparator_bit(r, b):
    """1 iff r < b. Over a full-period source this yields exactly b ones."""
    return 1 if r < b else 0


def wbg_bit(r, b, n):
    """Weighted binary generator output bit.

    The WBG decodes the position of r's leading one (a set of mutually
    exclusive events with dyadic probabilities) and outputs the threshold bit
    of matching significance, so a full period carries exactly b ones for
    b in [0, 2^n - 1].
    """
    if not 0 <= b < (1 << n):
        raise ValueError(f"WBG threshold {b} outside [0, 2^{n} - 1]")
    if r == 0:
        return 0
    return (b >> (r.bit_length() - 1)) & 1


class SourceSpec(NamedTuple):
    """A number source as RnsState steps it: kind, width and seed."""

    kind: str
    width: int
    seed: int = 0


class RnsState:
    """A number source stepped one clock cycle at a time, as its register is.

    Counters count up from the seed (the bit-reversed counter emits the
    reversed register), the LFSR shifts in the parity of its tapped bits from
    the seed state (0 maps to 1). spec is a SourceSpec.
    """

    def __init__(self, spec):
        self.spec = spec
        self.t = 0
        size = 1 << spec.width
        self._start = spec.seed % size
        if spec.kind == "lfsr" and self._start == 0:
            self._start = 1
        self._reg = self._start

    @property
    def register(self):
        """The word that the next clock cycle will emit."""
        if self.spec.kind == "sobol_reversed_counter":
            return _bit_reverse(self._reg, self.spec.width)
        return self._reg

    def _step(self, reg):
        size = 1 << self.spec.width
        if self.spec.kind in ("counter", "sobol_reversed_counter"):
            return (reg + 1) % size
        feedback = sum((reg >> (t - 1)) & 1 for t in LFSR_TAPS[self.spec.width]) & 1
        return ((reg << 1) | feedback) % size

    def next_word(self):
        """Emit the current word and advance one clock cycle."""
        word = self.register
        self._reg = self._step(self._reg)
        self.t += 1
        return word

    def take(self, count):
        """Emit the next `count` words as an array (same stream as next_word)."""
        return np.array([self.next_word() for _ in range(count)], dtype=np.int64)


@lru_cache(maxsize=None)
def _stepped_period(kind, width):
    return RnsState(SourceSpec(kind, width)).take((1 << width) - (kind == "lfsr"))


def source_words(spec, count):
    """RnsState(spec)'s first `count` words, read from one cached period.

    The period is stepped once per kind and width from reset; every word
    occurs once in it, so the seed's stream is the period rotated to start
    at the seed's first word.
    """
    period = _stepped_period(spec.kind, spec.width)
    start = int(np.flatnonzero(period == RnsState(spec).register)[0])
    return np.resize(np.roll(period, -start), count)


def generate_inputs(channels, rns, pcc, count):
    """Draw `count` shared source words and produce (X_i, Y_i) per channel.

    Each cycle every channel sees the same word, or 2^n - 1 - word when it is
    wired to the complemented source; its PCC emits one bit (X_i) and a
    negative-weight channel's sign inverter flips it (Y_i).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = rns.spec.width
    if any(not 0 <= ch.threshold <= 1 << n for ch in channels):
        raise ValueError("channel threshold exceeds source range")
    words = [rns.next_word() for _ in range(count)]
    out = []
    for ch in channels:
        seen = [(1 << n) - 1 - w if ch.uses_complemented_rns else w for w in words]
        if pcc is PccKind.COMPARATOR:
            x = [comparator_bit(r, ch.threshold) for r in seen]
        else:
            x = [wbg_bit(r, ch.threshold, n) for r in seen]
        y = [b ^ int(ch.weight < 0) for b in x]
        out.append((Bitstream(x), Bitstream(y)))
    return out


def scc(x, y):
    """Stochastic cross correlation between two equal-length Bitstreams.

    Measures how far the observed 1-overlap sits between the maximum and the
    minimum overlap attainable at the streams' fixed 1-densities:

        delta = p_xy - p_x p_y
        scc   = delta / (min(p_x, p_y) - p_x p_y)            if delta > 0
              = delta / (p_x p_y - max(p_x + p_y - 1, 0))    if delta < 0
              = 0                                            otherwise

    Degenerate denominators (constant streams) yield 0. Computed in exact
    rational arithmetic, so maximal/minimal overlap returns exactly +/-1.0.
    """
    if len(x) != len(y):
        raise ValueError("scc requires equal-length streams")
    n = len(x)
    px = Fraction(x.count_ones(), n)
    py = Fraction(y.count_ones(), n)
    pxy = Fraction(x.overlap_ones(y), n)
    delta = pxy - px * py
    if delta == 0:
        return 0.0
    if delta > 0:
        denom = min(px, py) - px * py
    else:
        denom = px * py - max(px + py - 1, Fraction(0))
    if denom == 0:
        return 0.0
    return float(delta / denom)


def threshold_law(n):
    """Law of bipolar_threshold(v, n) for v ~ U[-1, 1], as integer weights.

    Code B has probability weight[B] / 2^(n+1): 1/2^n inside, half that at
    B = 0 and B = 2^n, whose rounding cells are cut by the ends of [-1, 1].
    """
    weight = np.full((1 << n) + 1, 2, dtype=np.int64)
    weight[0] = weight[-1] = 1
    return weight


def _bit_reverse(x, width):
    out = 0
    for _ in range(width):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def _cemux_blocks(numerators, signs, n, full_correlation):
    """Each owned block's data words, as (input, level, offset, sign).

    cemux's select counter and its bit-reversed-counter data source both run
    from reset, and its tree height equals n, so counter index t drives
    select word t and data word bitrev_n(t). On the aligned level-l block
    with index j the data words are exactly {r + s * 2^l : 0 <= s < 2^(n-l)}
    with r = bitrev_l(j): the (0,1)-sequence property of van der Corput
    (Niederreiter 1992). Complemented wiring feeds a negative input
    2^n - 1 - word, which is the same set with offset 2^l - 1 - r.
    """
    out = []
    for i, lvl, start in level_ordered_blocks(numerators, n):
        r = _bit_reverse(start >> (n - lvl), lvl)
        if full_correlation and signs[i] < 0:
            r = (1 << lvl) - 1 - r
        out.append((i, lvl, r, signs[i]))
    return out


def cemux_block_error(numerators, signs, thresholds, n, full_correlation=True):
    """Exact error of one cemux run (cemux_nofc without full correlation).

    numerators are the quantized weight numerators over 2^n, signs the weight
    signs and thresholds the comparator codes B_i of the inputs. On a level-l
    block with offset r the comparator emits ceil((B - r) / 2^l) ones; the
    sign inverter turns a negative input's count c into 2^(n-l) - c. The
    error is the decoded estimate minus sum_i s_i q_i/2^n (2 B_i/2^n - 1).
    """
    big_n = 1 << n
    ones = 0
    for i, lvl, r, sign in _cemux_blocks(numerators, signs, n, full_correlation):
        c = -((r - thresholds[i]) >> lvl)
        ones += c if sign > 0 else (1 << (n - lvl)) - c
    target = sum(
        Fraction(s * q * (2 * b - big_n), big_n * big_n)
        for q, s, b in zip(numerators, signs, thresholds)
    )
    return Fraction(2 * ones - big_n, big_n) - target


def cemux_error_moments(numerators, signs, n, full_correlation=True):
    """E[err^2] and E[err^4] of cemux over independent U[-1, 1] input values.

    The error is 2/N^2 * sum_i X_i with X_i = N * ones_i - q_i * B'_i
    (N = 2^n, B' the post-sign threshold), the same rule as
    cemux_block_error evaluated at every code at once. X_i depends on B_i
    alone, so the inputs are independent. E[err^2] is exact (a Fraction, from
    integer moments over threshold_law). E[err^4] adds up the inputs'
    cumulants in float64; it only feeds standard errors.
    """
    big_n = 1 << n
    law = threshold_law(n)
    codes = np.arange(big_n + 1, dtype=np.int64)
    # one row per block, rows of one input adjacent; summed per input below
    blocks = sorted(_cemux_blocks(numerators, signs, n, full_correlation))
    inp, lvl, r, sign = (np.array(col, dtype=np.int64)[:, None] for col in zip(*blocks))
    c = -((r - codes) >> lvl)
    ones = np.where(sign > 0, c, (1 << (n - lvl)) - c).cumsum(axis=0)
    last = np.flatnonzero(np.diff(inp[:, 0], append=-1))
    ones = np.diff(ones[last], axis=0, prepend=0)
    q = np.array(numerators, dtype=np.int64)[inp[last]]
    x = big_n * ones - q * np.where(sign[last] > 0, codes, big_n - codes)
    # each block's count is within one of its share, so |X_i| < N (n + 1);
    # the check keeps the int64 sums over the law exact
    assert int(np.abs(x).max()) ** 2 * 2 * big_n < 2**63
    denom = 2 * big_n
    t1 = x @ law
    t2 = (x * x) @ law
    mean = Fraction(sum(t1.tolist()), denom)
    var = Fraction(
        sum(t2.tolist()) * denom - sum(a * a for a in t1.tolist()), denom * denom
    )
    e2 = 4 * (var + mean * mean) / big_n**4

    p = law / denom
    y = x - (t1 / denom)[:, None]
    y2 = y * y
    c2, c3, c4 = (z @ p for z in (y2, y2 * y, y2 * y2))
    k2, k3 = c2.sum(), c3.sum()
    central4 = (c4 - 3 * c2 * c2).sum() + 3 * k2 * k2
    mu = float(mean)
    s4 = central4 + 4 * mu * k3 + 6 * mu * mu * k2 + mu**4
    return e2, 16 * s4 / float(big_n) ** 8


def cemux_expected_mse(numerators, signs, n, full_correlation=True):
    """Exact expected squared error of cemux over U[-1, 1] input values."""
    return cemux_error_moments(numerators, signs, n, full_correlation)[0]


def enumerate_model_variance(cfg, owner, thresholds_post_sign):
    """Exact output variance of a model configuration by full enumeration.

    Enumerates every stream outcome and every select outcome. Outcome
    probabilities are integer weights over a common denominator, so the
    whole computation stays in integer arithmetic until the final division.
    Only feasible for tiny M and N. owner is the tree's owner map: select
    word w (one of N) picks input owner[w].
    """
    n_len = cfg.N
    m_inputs = len(cfg.weights)
    bp = list(thresholds_post_sign)

    # (weight, bits) outcomes with a common probability denominator
    streams = []
    if cfg.sn_model == "hypergeometric":
        perms = list(itertools.permutations(range(n_len)))
        if cfg.input_scc == 1:
            stream_denom = len(perms)
            for perm in perms:
                bits = [
                    [1 if perm[t] < bp[i] else 0 for t in range(n_len)]
                    for i in range(m_inputs)
                ]
                streams.append((1, bits))
        else:
            stream_denom = len(perms) ** m_inputs
            for combo in itertools.product(perms, repeat=m_inputs):
                bits = [
                    [1 if combo[i][t] < bp[i] else 0 for t in range(n_len)]
                    for i in range(m_inputs)
                ]
                streams.append((1, bits))
    else:
        if cfg.input_scc == 1:
            stream_denom = n_len**n_len
            for words in itertools.product(range(n_len), repeat=n_len):
                bits = [
                    [1 if words[t] < bp[i] else 0 for t in range(n_len)]
                    for i in range(m_inputs)
                ]
                streams.append((1, bits))
        else:
            # independent bits: P(bit)=b/N, so each outcome has an integer
            # weight over N^(M*n_len)
            stream_denom = n_len ** (m_inputs * n_len)
            for flat in itertools.product((0, 1), repeat=m_inputs * n_len):
                weight = 1
                for i in range(m_inputs):
                    for t in range(n_len):
                        weight *= bp[i] if flat[i * n_len + t] else (n_len - bp[i])
                        if weight == 0:
                            break
                    if weight == 0:
                        break
                if weight == 0:
                    continue
                bits = [
                    [flat[i * n_len + t] for t in range(n_len)] for i in range(m_inputs)
                ]
                streams.append((weight, bits))

    selects = []
    if cfg.sampling == "precise":
        select_denom = 1
        selects.append(list(owner))
    else:
        select_denom = n_len**n_len
        for words in itertools.product(range(n_len), repeat=n_len):
            selects.append([owner[w] for w in words])

    sum_w = 0
    sum_w_ones = 0
    sum_w_ones2 = 0
    for weight, bits in streams:
        for owners in selects:
            ones = 0
            for t in range(n_len):
                ones += bits[owners[t]][t]
            sum_w += weight
            sum_w_ones += weight * ones
            sum_w_ones2 += weight * ones * ones
    denom = stream_denom * select_denom
    assert sum_w == denom
    # mu = (2*ones - N)/N; E[mu] and E[mu^2] from the integer moments
    e1 = Fraction(2 * sum_w_ones, denom * n_len) - 1
    e_ones2 = Fraction(sum_w_ones2, denom)
    e_ones = Fraction(sum_w_ones, denom)
    e2 = (4 * e_ones2 - 4 * n_len * e_ones + n_len * n_len) / Fraction(n_len * n_len)
    return e2 - e1 * e1


# The model path as a per-run loop: draw_streams and model_run_once are the
# decomposition's run before runs were batched, closed_form_once the closed
# forms of one run's values. They take the quantized weights, the owner map
# and the post-sign thresholds from scmux.analysis._ModelRuntime.


def draw_streams(rt: _ModelRuntime, rng: np.random.Generator, bp: np.ndarray) -> np.ndarray:
    """One run's post-sign stream bit matrix (M, N), entries 0/1."""
    cfg = rt.cfg
    if cfg.sn_model == "hypergeometric":
        if cfg.input_scc == 1:
            perm = rng.permutation(rt.N)
            return (perm[None, :] < bp[:, None]).astype(np.int8)
        perms = rng.permuted(np.tile(np.arange(rt.N), (rt.M, 1)), axis=1)
        return (perms < bp[:, None]).astype(np.int8)
    # bernoulli: with-replacement uniform words
    if cfg.input_scc == 1:
        words = rng.integers(0, rt.N, size=rt.N)
        return (words[None, :] < bp[:, None]).astype(np.int8)
    words = rng.integers(0, rt.N, size=(rt.M, rt.N))
    return (words < bp[:, None]).astype(np.int8)


def model_run_once(rt: _ModelRuntime, rng: np.random.Generator):
    """Simulate one run; return (total, noise, samp, corr, dc).

    Every returned statistic is an unbiased single-run estimate, so means
    and standard errors across runs follow directly.
    """
    cfg = rt.cfg
    N, M = rt.N, rt.M
    if rt.fixed_thresholds is not None:
        bp = rt.fixed_thresholds
    else:
        values = rng.uniform(-1.0, 1.0, size=M)
        bp = rt._thresholds(values)
    mup = 2.0 * bp / N - 1.0

    u = draw_streams(rt, rng, bp)

    if cfg.sampling == "precise":
        owners = rt.owner
    else:
        sel = rng.integers(0, N, size=N)
        owners = rt.owner[sel]

    zu = u[owners, np.arange(N)]
    mu_hat = 2.0 * int(zu.sum()) / N - 1.0
    m_exact = float(rt.wt @ mup)
    total = (mu_hat - m_exact) ** 2

    # noise: deviation of the first-E[C_i] prefix sums from their exact means
    cs = np.cumsum(u, axis=1)
    prefix_ones = np.where(rt.c > 0, cs[np.arange(M), np.maximum(rt.c, 1) - 1], 0)
    t_sum = 2.0 * prefix_ones - rt.c
    noise = float(((t_sum - rt.c * mup) ** 2).sum()) / N**2

    s_pm = 2.0 * u.sum(axis=1) - N  # per-stream +/-1 bit sums
    ud = u.astype(np.float64)

    if cfg.sampling == "precise":
        samp = 0.0
        dc = np.zeros(M, dtype=np.float64)
    else:
        dc = np.bincount(owners, minlength=M) - rt.c.astype(np.float64)
        g = 2.0 * (dc @ ud) - dc.sum()  # +/-1 column sums weighted by dC
        samp = (float(dc @ s_pm) ** 2 - float(g @ g)) / (N * (N - 1)) / N**2

    cw = rt.c.astype(np.float64)
    gc = 2.0 * (cw @ ud) - cw.sum()
    e_ii = (s_pm**2 - N) / (N * (N - 1.0))
    pair_sum = (float(cw @ s_pm) ** 2 - float(gc @ gc)) / (N * (N - 1)) - float(
        (cw**2) @ e_ii
    )
    mu_pair = float(cw @ mup) ** 2 - float((cw * mup) @ (cw * mup))
    corr = (pair_sum - mu_pair) / N**2

    return total, noise, samp, corr, dc


def model_run_exact(rt: _ModelRuntime, rng: np.random.Generator):
    """One run drawn as model_run_once draws it; (total, noise, samp, corr) as Fractions.

    A transcription of model_run_once's formulas in rational arithmetic:
    linear sums of bits stay int64 (bounded by 2 N^2), squares are Python
    ints.
    """
    N, M, n = rt.N, rt.M, rt.n
    if rt.fixed_thresholds is not None:
        bp = rt.fixed_thresholds
    else:
        bp = rt._thresholds(rng.uniform(-1.0, 1.0, size=M))
    u = draw_streams(rt, rng, bp).astype(np.int64)
    if rt.cfg.sampling == "precise":
        owners = rt.owner
    else:
        owners = rt.owner[rng.integers(0, N, size=N)]
    c = [int(x) for x in rt.c]
    mup = [Fraction(2 * int(b) - N, N) for b in bp]
    wt = [Fraction(int(x), 1 << n) for x in rt.c]
    pm = 2 * u - 1
    s = pm.sum(axis=1)

    def pair_sum(k):
        """sum_{i, j} k_i k_j sum_{t != t'} pm_i[t] pm_j[t'] / (N (N - 1))."""
        k = np.asarray(k, dtype=np.int64)
        col = k @ pm
        return Fraction(int(k @ s) ** 2 - sum(int(x) ** 2 for x in col), N * (N - 1))

    ones = int(u[owners, np.arange(N)].sum())
    total = (Fraction(2 * ones - N, N) - sum(w * m for w, m in zip(wt, mup))) ** 2
    noise = sum(
        (2 * int(u[i, : c[i]].sum()) - c[i] - c[i] * mup[i]) ** 2 for i in range(M)
    ) / N**2
    counts = np.bincount(owners, minlength=M)
    samp = pair_sum([int(counts[i]) - c[i] for i in range(M)]) / N**2
    diag = sum(Fraction(c[i] ** 2 * (int(s[i]) ** 2 - N), N * (N - 1)) for i in range(M))
    cm = [c[i] * mup[i] for i in range(M)]
    mu_pair = sum(cm) ** 2 - sum(x * x for x in cm)
    corr = (pair_sum(c) - diag - mu_pair) / N**2
    return total, noise, samp, corr


def block_chunk_stats(rt: _ModelRuntime, bp: np.ndarray, words: np.ndarray, owners: np.ndarray):
    """A chunk's (4, R) statistics and dc (R, M) from its whole (R, M, N) bit block.

    The plain form of scmux.analysis._chunk_stats on the same draws: every
    stream bit is formed, the owner gather, prefix counts, per-stream sums
    and column sums read the block, whether or not the inputs share a source.
    """
    N, M, n = rt.N, rt.M, rt.n
    R = bp.shape[0]
    u = words < bp[:, :, None]  # (R, M, N) stream bits
    uf = u.astype(np.float64)
    a = 2 * bp - N
    scale = float(N << n) ** 2

    ones = np.take_along_axis(u, owners[:, None, :], axis=1).sum(axis=(1, 2))
    d = ((2 * ones - N) << n) - a @ rt.c
    total = d.astype(np.float64) ** 2 / scale

    first = np.arange(N) < rt.c[:, None]
    prefix = np.count_nonzero(u & first, axis=2)
    e = ((2 * prefix - rt.c) << n) - rt.c * a
    noise = (e.astype(np.float64) ** 2).sum(axis=1) / scale

    s = 2 * np.count_nonzero(u, axis=2) - N
    if rt.cfg.sampling == "precise":
        samp = np.zeros(R)
        dc = np.zeros((R, M))
    else:
        counts = np.bincount((owners + M * np.arange(R)[:, None]).ravel(), minlength=R * M)
        dc_int = counts.reshape(R, M) - rt.c
        dc = dc_int.astype(np.float64)
        g = 2.0 * (dc[:, None, :] @ uf)[:, 0] - dc.sum(axis=1)[:, None]
        x = (dc_int * s).sum(axis=1).astype(np.float64)
        samp = (x**2 - (g**2).sum(axis=1)) / (N * (N - 1)) / N**2

    cw = rt.c.astype(np.float64)
    gc = 2.0 * (cw @ uf) - N
    xc = (s @ rt.c).astype(np.float64)
    sf = s.astype(np.float64)
    p = xc**2 - (gc**2).sum(axis=1) - (sf**2 - N) @ cw**2
    ca = rt.c * a
    q = ca.sum(axis=1).astype(np.float64) ** 2 - (ca.astype(np.float64) ** 2).sum(axis=1)
    corr = (N * p - (N - 1) * q) / (N - 1) / float(N) ** 4
    return np.stack([total, noise, samp, corr]), dc


def closed_form_once(model, sampling, scc, wt: np.ndarray, mup: np.ndarray, N: int) -> float:
    if model == "bernoulli":
        # the bernoulli rows hold at any input correlation level
        s = float(wt @ mup)
        if sampling == "noisy":
            return (1.0 - s * s) / N
        return (1.0 - float(wt @ (mup * mup))) / N
    if scc == 0:
        if sampling == "noisy":
            s = float(wt @ mup)
            return (1.0 - s * s - float((wt * wt) @ (1.0 - mup * mup))) / N
        return float((wt * (1.0 - wt)) @ (1.0 - mup * mup)) / (N - 1)
    gaps = np.abs(np.subtract.outer(mup, mup))
    ww = np.outer(wt, wt)
    if sampling == "noisy":
        return float((ww * gaps).sum()) / N  # == sum_{i<j} 2 w_i w_j d_ij / N
    return float((ww * gaps * (2.0 - gaps)).sum()) / (2.0 * (N - 1))


def expected_closed_form_per_run(cfg, runs, master_seed):
    """expected_closed_form as a per-run loop over value draws (values=None)."""
    rt = _ModelRuntime(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    acc = 0.0
    for _ in range(runs):
        values = rng.uniform(-1.0, 1.0, size=rt.M)
        bp = rt._thresholds(values)
        mup = 2.0 * bp / rt.N - 1.0
        acc += closed_form_once(cfg.sn_model, cfg.sampling, cfg.input_scc, rt.wt, mup, cfg.N)
    return acc / runs


@lru_cache(maxsize=64)
def spawned_seeds(master_seed, count=25):
    """Per-source seeds as a fixed-size spawn: entry 0 data, entry l level l."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    return tuple(int(c.generate_state(2, np.uint64)[0]) for c in children)


def biased_walk_per_level(heap, leaf_owner, select, n):
    """Input a biased tree samples at each cycle, one WBG conversion per level.

    select row l holds the level-l select words. Each level converts its words
    through pcc_bits against the codes of the heap slots the cycles have
    reached, and bit 1 at slot s moves to slot 2s + 1, bit 0 to 2s + 2.
    """
    from scmux.sngen import pcc_bits

    idx = np.zeros(select.shape[1], dtype=np.int64)
    for words in select:
        idx = 2 * idx + 2 - pcc_bits(PccKind.WBG, words, heap[idx], n)
    return leaf_owner[idx - (leaf_owner.size - 1)]


# The owners depend on the tree type, the sampling mode, the numerators, n, N
# and the seed alone, so the designs of one run that share a tree type and a
# sampling mode share one sequence: it is computed once and kept read-only. A
# run's designs need at most four entries.
@lru_cache(maxsize=16)
def full_matrix_owners(tree_type, precise_sampling, nums, n, big_n, seed):
    """Input sampled at each cycle, every mux's select bit generated first.

    nums is the tuple of quantized numerators. Precise sampling drives a
    hardwired tree's selects from one counter from reset; otherwise each level
    has its own LFSR, seeded as source l of the run's spawned seeds, and a
    biased tree's select PCCs are WBGs.
    """
    owners = _select_owners(tree_type, precise_sampling, list(nums), n, big_n, spawned_seeds(seed))
    owners.setflags(write=False)
    return owners


def _select_owners(tree_type, precise_sampling, nums, n, big_n, seeds):
    from scmux.sngen import pcc_bits

    def level_words(lvl):
        return source_words(SourceSpec("lfsr", n, seeds[lvl]), big_n)

    if tree_type == "hardwired":
        owner = level_ordered_owners(nums, n)
        if precise_sampling:
            return owner[np.arange(big_n) % (1 << n)]
        words = np.zeros(big_n, dtype=np.int64)
        for lvl in range(1, n + 1):
            words |= (level_words(lvl) >> (n - 1)) << (n - lvl)
        return owner[words]

    tree = biased_tree_reference(nums, PccKind.WBG)
    if tree.root < 0:
        return np.full(big_n, ~tree.root, dtype=np.int64)
    node_bits = np.empty((tree.mux_count, big_n), dtype=np.uint8)
    for k in range(tree.mux_count):
        node_bits[k] = pcc_bits(
            tree.select_pcc, level_words(tree.node_level[k]), tree.thresholds[k], n
        )
    owners = []
    for t in range(big_n):
        ref = tree.root
        while ref >= 0:
            ref = tree.child0[ref] if node_bits[ref, t] else tree.child1[ref]
        owners.append(~ref)
    return np.array(owners, dtype=np.int64)


def full_matrix_run(design, values, big_n, seed, weights):
    """One mux-adder run of the weight row `weights` with every input's whole
    stream generated.

    Returns (output bits, sampling counts, estimate, target, error). The
    M x N matrix holds each input's stream after its sign inverter; the tree
    passes one of its entries per cycle.
    """
    from scmux.muxtree import quantize_weights
    from scmux.sngen import input_bit_matrix, make_channels

    n = design.n
    data_seed = spawned_seeds(seed)[0]
    if design.data_rns_kind in ("sobol_reversed_counter", "counter"):
        data_seed = 0
    nums = quantize_weights(weights, n).tolist()
    words = source_words(SourceSpec(design.data_rns_kind, n, data_seed), big_n)
    channels = make_channels(
        values, weights, n, design.data_pcc, correlated_wiring=design.full_correlation
    )
    _, y = input_bit_matrix(channels, words, design.data_pcc, n)
    owners = full_matrix_owners(
        design.tree_type, design.precise_sampling, tuple(nums), n, big_n, seed
    )
    z = y[owners, np.arange(big_n)]
    counts = np.bincount(owners, minlength=len(channels))
    estimate = min(1.0, max(-1.0, 2.0 * int(z.sum()) / big_n - 1.0))
    target = float(sum(
        Fraction((-num if w < 0 else num) * (2 * ch.threshold - big_n), (1 << n) * big_n)
        for num, w, ch in zip(nums, weights, channels)
    ))
    return z, counts, estimate, target, estimate - target


def full_matrix_apc(weights, values, big_n):
    """APC run with both M x N bit matrices: (estimate, target, error)."""
    n = big_n.bit_length() - 1
    data_words = source_words(SourceSpec("sobol_reversed_counter", n), big_n)
    coeff_words = source_words(SourceSpec("counter", n), big_n)
    bx = [bipolar_threshold(float(v), n) for v in values]
    bw = [bipolar_threshold(abs(float(x)), n) for x in weights]
    negs = np.array([float(x) < 0 for x in weights], dtype=np.uint8)
    x_bits = (data_words[None, :] < np.array(bx)[:, None]).astype(np.uint8)
    w_bits = (coeff_words[None, :] < np.array(bw)[:, None]).astype(np.uint8)
    prod = (1 - (x_bits ^ w_bits)) ^ negs[:, None]
    m = len(bx)
    raw = 2.0 * int(prod.sum()) / (big_n * m) - 1.0
    w_hat = [2.0 * b / big_n - 1.0 for b in bw]
    mu_hat = [2.0 * b / big_n - 1.0 for b in bx]
    denom = math.fsum(w_hat)
    estimate = min(1.0, max(-1.0, raw * m / denom))
    target = math.fsum(
        (-1.0 if ng else 1.0) * wh * mh for ng, wh, mh in zip(negs, w_hat, mu_hat)
    ) / denom
    return estimate, target, estimate - target


def run_draws_per_run(rng, weights, runs, weight_mode=None):
    """Each run's (weights, values, seed), from accuracy_stats's per-run
    Generator calls: the weights (or `weights` itself, under weight_mode
    None), the values, then the seed."""
    m = len(weights)
    draws = []
    for _ in range(runs):
        w = weights
        if weight_mode == "uniform":
            w = rng.uniform(-1.0, 1.0, size=m)
            while not np.any(w):
                w = rng.uniform(-1.0, 1.0, size=m)
        elif weight_mode == "pm":
            w = np.where(rng.random(m) < 0.5, -1.0, 1.0) / m
        draws.append((w, rng.uniform(-1.0, 1.0, size=m), int(rng.integers(0, 2**63))))
    return draws


def fir_estimates_per_sample(design, coefficients, samples, master_seed):
    """stochastic_fir's normalized estimates from one loop: output sample i
    draws its seed, then makes one run_adder call on x_i, ..., x_{i-M+1}."""
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    h = np.asarray(coefficients, dtype=np.float64)
    padded = np.concatenate([np.zeros(h.size - 1), samples])
    estimates = []
    for i in range(len(samples)):
        seed = int(rng.integers(0, 2**63))
        window = padded[i : i + h.size][::-1]
        estimates.append(run_adder(design, window, 1 << design.n, seed, h).estimate)
    return estimates


def accuracy_errors_per_run(design, weights, runs, master_seed, weight_mode=None):
    """accuracy_stats's run errors from one loop: each run draws its weights
    (or keeps `weights`, under weight_mode None), values and seed, then calls
    run_adder, which builds its weight tables on a cache miss. The first r
    errors are those of r runs at the same seed."""
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    m = len(weights)
    errors = []
    for _ in range(runs):
        w = weights
        if weight_mode == "uniform":
            w = rng.uniform(-1.0, 1.0, size=m)
            while not np.any(w):
                w = rng.uniform(-1.0, 1.0, size=m)
        elif weight_mode == "pm":
            signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            w = signs / m
        v = rng.uniform(-1.0, 1.0, size=m)
        seed = int(rng.integers(0, 2**63))
        errors.append(run_adder(design, v, 1 << design.n, seed, w).error)
    return errors
