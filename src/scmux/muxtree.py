"""Weight quantization and mux-tree construction.

Two tree styles are built here. The hardwired tree encodes weight magnitudes
structurally: an input whose normalized magnitude has a 1 in the 2^-l place
of its h-bit binary expansion owns one aligned block of 2^(h-l) select words,
a level-l mux input. This is the discrete-distribution-generating tree of
Knuth and Yao (1976), so it is kept as its owner map (select word -> input)
and its redundancy-free mux count is one less than the total number of 1s
across the expansions. The biased-selector tree is a balanced binary tree
whose per-node select probabilities encode the weights instead.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .sngen import PccKind, _clamp_for_pcc


@dataclass(frozen=True)
class QuantizedWeights:
    """Signed weights reduced to integer numerators over denominator 2^height."""

    numerators: tuple[int, ...]
    height: int
    signs: tuple[int, ...]

    def __post_init__(self):
        if sum(self.numerators) != 1 << self.height:
            raise ValueError("quantized numerators must sum to exactly 2^height")

    @property
    def denominator(self) -> int:
        return 1 << self.height


def quantize_weights(weights, m: int) -> QuantizedWeights:
    """Reduce signed weights to numerators q_i with sum(q) = 2^m exactly.

    Round-to-nearest on the scaled magnitudes, then walk the sum back to 2^m
    one unit at a time, always adjusting the entry whose rounding error is
    currently largest (ties broken by lowest index). Rounding is half away
    from zero. Magnitudes are summed sequentially, in input order, as the
    quantization pseudocode does; a pairwise sum can differ in the last bit
    and flip a near-tie adjustment.
    """
    if m < 1:
        raise ValueError("height must be >= 1")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    a = np.abs(w)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"weights must be finite, got {w[~np.isfinite(a)][0]}")
    with np.errstate(over="ignore"):
        total = np.cumsum(a)[-1]
    if not np.isfinite(total):
        raise ValueError("weights must be finite: the sum of their magnitudes overflows")
    if total == 0.0:
        raise ValueError("zero weight mass")
    # an exact power-of-two rescale keeps 2^m * a finite for huge weights
    shift = int(np.frexp(total)[1]) + m - 1000
    if shift > 0:
        a = np.ldexp(a, -shift)
        total = np.cumsum(a)[-1]
    t = (1 << m) * a / total
    q = np.floor(t + 0.5)
    # every rounding error lies within one half, so once an entry is adjusted
    # its error is the smallest: the one-unit steps hit distinct entries in
    # order of error, ties by lowest index, which a stable sort reproduces
    excess = int(q.sum()) - (1 << m)
    if excess > 0:
        q[np.argsort(t - q, kind="stable")[:excess]] -= 1
    elif excess < 0:
        q[np.argsort(q - t, kind="stable")[:-excess]] += 1
    return QuantizedWeights(
        numerators=tuple(q.astype(np.int64).tolist()),
        height=m,
        signs=tuple(np.where(w < 0, -1, 1).tolist()),
    )


@dataclass(frozen=True, eq=False)
class HardwiredTreeSpec:
    """A redundancy-free hardwired mux tree, held as its owner map.

    A level-l mux is driven by the l-th MSB of the h-bit select word, so the
    whole tree is the map from select word to the input it routes. Each set
    bit of a numerator is one leaf of the redundancy-free tree, so its mux
    count is one less than the total number of set bits.
    """

    height: int
    num_inputs: int
    level_inputs: tuple[tuple[int, ...], ...]  # entry l-1 lists inputs on level l
    owner: np.ndarray = field(repr=False)  # select word -> input index, 2^h entries
    mux_count: int


def build_hardwired_tree(q: QuantizedWeights) -> HardwiredTreeSpec:
    """Construct the redundancy-free hardwired tree for quantized weights.

    The owner map gives each set bit 2^(h-l) of a numerator one aligned block
    of 2^(h-l) select words, level 0 (a numerator of 2^h) first, then level by
    level and in input order within a level. Longest blocks first keeps every
    block aligned to its length, so it is one subtree of the full tree.
    """
    h = q.height
    nums = np.array(q.numerators, dtype=np.int64)
    # row l holds the inputs' level-l bits, the 2^(h-l) place
    bits = (nums[None, :] >> np.arange(h, -1, -1)[:, None]) & 1
    levels, inputs = np.nonzero(bits)  # level order, input order within a level
    owner = np.repeat(inputs.astype(np.int64), 1 << (h - levels))
    owner.setflags(write=False)
    return HardwiredTreeSpec(
        height=h,
        num_inputs=len(q.numerators),
        level_inputs=tuple(tuple(np.flatnonzero(row).tolist()) for row in bits[1:]),
        owner=owner,
        mux_count=len(levels) - 1,
    )


def dump_tree(tree: HardwiredTreeSpec) -> str:
    """Plain-text dump (one `level l: inputs` line per level) for golden tests."""
    lines = [f"height {tree.height}", f"inputs {tree.num_inputs}"]
    for lvl, inputs in enumerate(tree.level_inputs, start=1):
        lines.append(f"level {lvl}: {' '.join(map(str, inputs))}".rstrip())
    lines.append(f"muxes {tree.mux_count}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class BiasedSelectorTreeSpec:
    """Balanced mux tree whose node select probabilities encode the weights.

    Select bit 1 routes to child0 (the left/lower-index subtree), whose mass
    fraction is the node probability. Each node's threshold is the
    select-SNG code for its probability; nodes on the same level share one
    select source.
    """

    num_inputs: int
    child0: np.ndarray = field(repr=False)
    child1: np.ndarray = field(repr=False)
    node_level: np.ndarray = field(repr=False)  # root is level 1
    probabilities: tuple[Fraction, ...]
    thresholds: np.ndarray = field(repr=False)
    root: int
    select_pcc: PccKind

    @property
    def mux_count(self) -> int:
        return int(self.child0.size)

    @property
    def num_levels(self) -> int:
        return int(self.node_level.max()) if self.node_level.size else 0


def build_biased_selector_tree(
    q: QuantizedWeights,
    select_pcc: PccKind,
    select_width: int | None = None,
) -> BiasedSelectorTreeSpec:
    """Balanced tree over the inputs with nonzero quantized weight.

    Node probability = mass(left subtree) / mass(both subtrees), quantized to
    the threshold code of a select PCC select_width bits wide (default: the
    quantization height). Zero-weight inputs are dropped here and reported
    with zero sampling counts downstream.
    """
    n = q.height if select_width is None else select_width
    active = [i for i, num in enumerate(q.numerators) if num > 0]
    if not active:
        raise ValueError("no inputs with nonzero quantized weight")

    child0_l: list[int] = []
    child1_l: list[int] = []
    prob_l: list[Fraction] = []

    def mass(indices):
        return sum(q.numerators[i] for i in indices)

    def build(indices):
        if len(indices) == 1:
            return ~indices[0]
        mid = len(indices) // 2
        left, right = indices[:mid], indices[mid:]
        c0 = build(left)
        c1 = build(right)
        child0_l.append(c0)
        child1_l.append(c1)
        prob_l.append(Fraction(mass(left), mass(left) + mass(right)))
        return len(child0_l) - 1

    root = build(active)
    child0 = np.array(child0_l, dtype=np.int64)
    child1 = np.array(child1_l, dtype=np.int64)

    # depth-first levels: root level 1, children one deeper
    node_level = np.zeros(child0.size, dtype=np.int64)
    if root >= 0:
        stack = [(root, 1)]
        while stack:
            ref, lvl = stack.pop()
            node_level[ref] = lvl
            for c in (int(child0[ref]), int(child1[ref])):
                if c >= 0:
                    stack.append((c, lvl + 1))

    # code floor(p 2^n + 1/2), exact in integers; ties round up, as in
    # bipolar_thresholds
    thresholds = _clamp_for_pcc(
        np.array(
            [((2 * p.numerator << n) + p.denominator) // (2 * p.denominator) for p in prob_l],
            dtype=np.int64,
        ),
        n,
        select_pcc,
    )
    for arr in (child0, child1, node_level, thresholds):
        arr.setflags(write=False)
    return BiasedSelectorTreeSpec(
        num_inputs=len(q.numerators),
        child0=child0,
        child1=child1,
        node_level=node_level,
        probabilities=tuple(prob_l),
        thresholds=thresholds,
        root=root,
        select_pcc=select_pcc,
    )


def biased_leaf_path_products(tree: BiasedSelectorTreeSpec) -> dict[int, Fraction]:
    """Exact (pre-quantization) sampling probability of each input."""
    out: dict[int, Fraction] = {}
    stack = [(tree.root, Fraction(1))]
    while stack:
        ref, p = stack.pop()
        if ref < 0:
            out[~ref] = p
        else:
            pnode = tree.probabilities[ref]
            stack.append((int(tree.child0[ref]), p * pnode))
            stack.append((int(tree.child1[ref]), p * (1 - pnode)))
    return out


def precise_sampling_counts(q: QuantizedWeights, length: int) -> np.ndarray:
    """Expected (and, under precise sampling, exact) per-input sampling counts."""
    if length % (1 << q.height):
        raise ValueError("stream length must be a multiple of 2^height")
    return np.array(q.numerators, dtype=np.int64) * (length >> q.height)
