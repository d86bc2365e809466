"""Weight quantization and mux-tree construction.

Two tree styles are built here. The hardwired tree encodes weight magnitudes
structurally: an input whose normalized magnitude has a 1 in the 2^-l place
of its h-bit binary expansion owns one aligned block of 2^(h-l) select words,
a level-l mux input. This is the discrete-distribution-generating tree of
Knuth and Yao (1976), so it is kept as its owner map (select word -> input)
and its redundancy-free mux count is one less than the total number of 1s
across the expansions. The biased-selector tree is a balanced binary tree
whose per-node select probabilities encode the weights instead. Its shape
depends only on the number k of active inputs and is built once per k; a
build from numerators then reads each mux's two subtree masses off the prefix
sums of the active numerators, and lays the thresholds out as a complete heap
of depth num_levels, so a cycle's path is a fixed-depth index walk.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

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
    return QuantizedWeights(
        numerators=_quantized_magnitudes(a.tobytes(), m),
        height=m,
        signs=tuple(np.where(w < 0, -1, 1).tolist()),
    )


@lru_cache(maxsize=256)
def _quantized_magnitudes(magnitudes: bytes, m: int) -> tuple[int, ...]:
    # the numerators depend on the magnitudes alone, so weights that differ
    # only in sign (pm weights, fixed filter taps) are quantized once
    a = np.frombuffer(magnitudes, dtype=np.float64)
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
    return tuple(q.astype(np.int64).tolist())


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
    bit_planes: np.ndarray = field(repr=False)  # row l: the inputs' 2^(h-l) bits
    owner: np.ndarray = field(repr=False)  # select word -> input index, 2^h entries
    mux_count: int

    @cached_property
    def level_inputs(self) -> tuple[tuple[int, ...], ...]:
        """Entry l-1 lists the inputs with a leaf on level l."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.bit_planes[1:])


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
    for arr in (bits, owner):
        arr.setflags(write=False)
    return HardwiredTreeSpec(
        height=h,
        num_inputs=len(q.numerators),
        bit_planes=bits,
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
class _BalancedShape:
    """The balanced split of k active inputs, independent of their masses.

    Muxes are numbered in post-order. Mux j covers active positions
    [lo_j, hi_j) and splits them at mid_j; a child ref >= 0 is a mux, ~p is
    active position p. In the heap layout of depth D = num_levels, mux j sits
    at slot heap_slot[j], and heap leaf s (slot 2^D - 1 + s) reaches active
    position heap_leaf[s]. A leaf d < D deep owns the 2^(D-d) heap leaves
    below its slot: padding muxes of threshold 0 route every cycle to the
    last of them.
    """

    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray
    child0: np.ndarray
    child1: np.ndarray
    node_level: np.ndarray  # root is level 1
    root: int
    heap_slot: np.ndarray
    heap_leaf: np.ndarray


@lru_cache(maxsize=256)
def _balanced_shape(k: int) -> _BalancedShape:
    rows: list[tuple[int, ...]] = []  # (lo, mid, hi, child0, child1, level, slot)
    leaves: list[tuple[int, int, int]] = []  # (slot, depth, position)

    def build(lo, hi, depth, slot):
        if hi - lo == 1:
            leaves.append((slot, depth, lo))
            return ~lo
        mid = lo + (hi - lo) // 2
        c0 = build(lo, mid, depth + 1, 2 * slot + 1)
        c1 = build(mid, hi, depth + 1, 2 * slot + 2)
        rows.append((lo, mid, hi, c0, c1, depth + 1, slot))
        return len(rows) - 1

    root = build(0, k, 0, 0)
    cols = np.array(rows, dtype=np.int64).reshape(-1, 7).T.copy()
    depth = int(cols[5].max()) if rows else 0
    heap_leaf = np.empty(1 << depth, dtype=np.int64)
    for slot, d, pos in leaves:
        span = 1 << (depth - d)
        first = (slot + 1) * span - (1 << depth)
        heap_leaf[first:first + span] = pos
    shape = _BalancedShape(*cols[:6], root, cols[6], heap_leaf)
    for arr in (*cols, heap_leaf):
        arr.setflags(write=False)
    return shape


@dataclass(frozen=True, eq=False)
class BiasedSelectorTreeSpec:
    """Balanced mux tree whose node select probabilities encode the weights.

    Select bit 1 routes to child0 (the left/lower-index subtree), whose mass
    fraction is the node probability. Each node's threshold is the
    select-SNG code for its probability; nodes on the same level share one
    select source. The heap table holds the same thresholds at their heap
    slots (padding slots 0), and leaf_owner maps each heap leaf to the input
    it routes, so a cycle walks idx -> 2 idx + 2 - bit once per level.
    """

    num_inputs: int
    active: np.ndarray = field(repr=False)  # inputs with nonzero numerators
    shape: _BalancedShape = field(repr=False)
    left_mass: np.ndarray = field(repr=False)  # per mux: mass of child0's inputs
    mass: np.ndarray = field(repr=False)  # per mux: mass of both subtrees
    thresholds: np.ndarray = field(repr=False)
    heap_thresholds: np.ndarray = field(repr=False)
    leaf_owner: np.ndarray = field(repr=False)
    select_pcc: PccKind

    @cached_property
    def child0(self) -> np.ndarray:
        return self._input_refs(self.shape.child0)

    @cached_property
    def child1(self) -> np.ndarray:
        return self._input_refs(self.shape.child1)

    def _input_refs(self, refs):
        # leaf refs ~p name active position p; report them as ~input
        return np.where(refs >= 0, refs, ~self.active[~refs])

    @property
    def node_level(self) -> np.ndarray:
        return self.shape.node_level

    @property
    def root(self) -> int:
        r = self.shape.root
        return r if r >= 0 else ~int(self.active[~r])

    @cached_property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.left_mass.tolist(), self.mass.tolist()))

    @property
    def mux_count(self) -> int:
        return int(self.shape.lo.size)

    @property
    def num_levels(self) -> int:
        return self.leaf_owner.size.bit_length() - 1


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
    nums = np.array(q.numerators, dtype=np.int64)
    active = np.flatnonzero(nums)
    if not active.size:
        raise ValueError("no inputs with nonzero quantized weight")
    shape = _balanced_shape(int(active.size))
    prefix = np.concatenate(([0], np.cumsum(nums[active])))
    left = prefix[shape.mid] - prefix[shape.lo]
    mass = prefix[shape.hi] - prefix[shape.lo]
    # code floor(p 2^n + 1/2) for p = left / mass, exact in integers; ties
    # round up, as in bipolar_thresholds
    thresholds = _clamp_for_pcc(((2 * left << n) + mass) // (2 * mass), n, select_pcc)
    heap = np.zeros(shape.heap_leaf.size - 1, dtype=np.int64)
    heap[shape.heap_slot] = thresholds
    leaf_owner = active[shape.heap_leaf]
    for arr in (active, left, mass, thresholds, heap, leaf_owner):
        arr.setflags(write=False)
    return BiasedSelectorTreeSpec(
        num_inputs=len(q.numerators),
        active=active,
        shape=shape,
        left_mass=left,
        mass=mass,
        thresholds=thresholds,
        heap_thresholds=heap,
        leaf_owner=leaf_owner,
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
