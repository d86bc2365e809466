"""Weight quantization and mux-tree construction.

Two tree styles are built here. The hardwired tree encodes weight magnitudes
structurally: an input whose normalized magnitude has a 1 in the 2^-l place
of its h-bit binary expansion owns one mux input slot on level l. Pairing
slots bottom-up and eliminating redundant muxes yields the same structure as
a discrete-distribution generating tree, so the mux count is one less than
the total number of 1s across the expansions. The biased-selector tree is a
balanced binary tree whose per-node select probabilities encode the weights
instead.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bitstream import SnValue, SnFormat
from .sngen import PccKind, pcc_threshold


@dataclass(frozen=True)
class QuantizedWeights:
    """Signed weights reduced to integer numerators over denominator 2^height."""

    numerators: tuple[int, ...]
    height: int
    signs: tuple[int, ...]
    original: tuple[float, ...]

    def __post_init__(self):
        if sum(self.numerators) != 1 << self.height:
            raise ValueError("quantized numerators must sum to exactly 2^height")

    @property
    def denominator(self) -> int:
        return 1 << self.height

    def magnitudes(self) -> list[Fraction]:
        return [Fraction(q, self.denominator) for q in self.numerators]

    def signed_fractions(self) -> list[Fraction]:
        return [s * Fraction(q, self.denominator) for q, s in zip(self.numerators, self.signs)]


def quantize_weights(weights, m: int) -> QuantizedWeights:
    """Reduce signed weights to numerators q_i with sum(q) = 2^m exactly.

    Round-to-nearest on the scaled magnitudes, then walk the sum back to 2^m
    one unit at a time, always adjusting the entry whose rounding error is
    currently largest (ties broken by lowest index). Rounding is half away
    from zero.
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
        total = a.sum()
    if not np.isfinite(total):
        raise ValueError("weights must be finite: the sum of their magnitudes overflows")
    if total == 0.0:
        raise ValueError("zero weight mass")
    # an exact power-of-two rescale keeps 2^m * a finite for huge weights
    shift = int(np.frexp(total)[1]) + m - 1000
    if shift > 0:
        a = np.ldexp(a, -shift)
        total = a.sum()
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
        original=tuple(w.tolist()),
    )


@dataclass(frozen=True, eq=False)
class HardwiredTreeSpec:
    """A redundancy-free hardwired mux tree.

    Internal nodes are stored as parallel arrays. Child references encode a
    leaf (data input) i as ~i (negative) and an internal node as its index.
    node_level[k] is the mux level of node k; the root is level 1 and a
    level-l mux is driven by the l-th MSB of the h-bit select word.
    """

    height: int
    num_inputs: int
    level_inputs: tuple[tuple[int, ...], ...]  # entry l-1 lists inputs on level l
    child0: np.ndarray = field(repr=False)
    child1: np.ndarray = field(repr=False)
    node_level: np.ndarray = field(repr=False)
    root: int
    owner: np.ndarray = field(repr=False)  # select word -> input index, 2^h entries

    @property
    def mux_count(self) -> int:
        return int(self.child0.size)


@lru_cache(maxsize=512)
def _build_structure(numerators: tuple[int, ...], h: int):
    size = 1 << h
    if sum(numerators) != size:
        raise ValueError("numerators must sum to 2^height")
    level_inputs = tuple(
        tuple(i for i, q in enumerate(numerators) if (q >> (h - lvl)) & 1)
        for lvl in range(1, h + 1)
    )
    whole = [i for i, q in enumerate(numerators) if q == size]
    child0_l, child1_l, level_l = [], [], []
    if whole:
        root = ~whole[0]  # single input carries all the weight: no muxes
    else:
        current: list[int] = []  # entries at the working depth, encoded refs
        for depth in range(h, 0, -1):
            current = [~i for i in level_inputs[depth - 1]] + current
            assert len(current) % 2 == 0, "pairing parity violated"
            nxt = []
            for k in range(0, len(current), 2):
                child0_l.append(current[k])
                child1_l.append(current[k + 1])
                level_l.append(depth)
                nxt.append(len(child0_l) - 1)
            current = nxt
        assert len(current) == 1
        root = current[0]

    child0 = np.array(child0_l, dtype=np.int64)
    child1 = np.array(child1_l, dtype=np.int64)
    node_level = np.array(level_l, dtype=np.int64)

    owner = np.empty(size, dtype=np.int64)
    stack = [(root, 0, size)]
    while stack:
        ref, start, span = stack.pop()
        if ref < 0:
            owner[start : start + span] = ~ref
        else:
            half = span // 2
            stack.append((child0[ref], start, half))
            stack.append((child1[ref], start + half, half))

    for arr in (child0, child1, node_level, owner):
        arr.setflags(write=False)
    return level_inputs, child0, child1, node_level, int(root), owner


def build_hardwired_tree(q: QuantizedWeights, h: int | None = None) -> HardwiredTreeSpec:
    """Construct the redundancy-free hardwired tree for quantized weights."""
    if h is None:
        h = q.height
    if h != q.height:
        raise ValueError("tree height must equal the quantization height")
    level_inputs, child0, child1, node_level, root, owner = _build_structure(
        q.numerators, h
    )
    return HardwiredTreeSpec(
        height=h,
        num_inputs=len(q.numerators),
        level_inputs=level_inputs,
        child0=child0,
        child1=child1,
        node_level=node_level,
        root=root,
        owner=owner,
    )


def select_leaf_precise(tree: HardwiredTreeSpec, counter_word: int) -> int:
    """Route one select word through the tree; returns the selected input.

    The level-l mux reads the word's l-th MSB; bit 0 takes the first child of
    the pair, bit 1 the second. Equivalently each input owns a union of
    dyadic intervals of [0, 2^h) and the owner of counter_word is returned.
    """
    if not 0 <= counter_word < (1 << tree.height):
        raise ValueError("select word out of range")
    ref = tree.root
    while ref >= 0:
        bit = (counter_word >> (tree.height - int(tree.node_level[ref]))) & 1
        ref = int(tree.child1[ref]) if bit else int(tree.child0[ref])
    return ~ref


def select_leaf_noisy(tree: HardwiredTreeSpec, level_bits) -> int:
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
    select_rns_kind: str
    select_width: int

    @property
    def mux_count(self) -> int:
        return int(self.child0.size)

    @property
    def num_levels(self) -> int:
        return int(self.node_level.max()) if self.node_level.size else 0


def build_biased_selector_tree(
    q: QuantizedWeights,
    select_pcc: PccKind,
    select_rns_kind: str = "lfsr",
    select_width: int | None = None,
) -> BiasedSelectorTreeSpec:
    """Balanced tree over the inputs with nonzero quantized weight.

    Node probability = mass(left subtree) / mass(both subtrees), quantized to
    the select PCC's threshold code. Zero-weight inputs are dropped here and
    reported with zero sampling counts downstream.
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

    thresholds = np.array(
        [
            pcc_threshold(SnValue(float(p), SnFormat.UNIPOLAR), n, select_pcc)
            for p in prob_l
        ],
        dtype=np.int64,
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
        select_rns_kind=select_rns_kind,
        select_width=n,
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
