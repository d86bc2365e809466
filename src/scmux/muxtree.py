"""Weight quantization and mux-tree construction.

Two tree styles are built here. The hardwired tree encodes weight magnitudes
structurally: an input whose normalized magnitude has a 1 in the 2^-l place
of its h-bit binary expansion owns one aligned block of 2^(h-l) select words,
a level-l mux input. This is the discrete-distribution-generating tree of
Knuth and Yao (1976), so it is kept as its owner map (select word -> input)
and its redundancy-free mux count is one less than the total number of 1s
across the expansions. The biased-selector tree is a balanced binary tree
whose per-node select probabilities encode the weights instead, held as its
heap table. The slot ranges depend only on the number k of active inputs and
the heap depth, and are built once per pair; a build from numerators then
reads every slot's two subtree masses off the prefix sums of the active
numerators, so a cycle's path is a fixed-depth index walk. A block's trees
all share the depth of its deepest tree, a shallower tree padded below its
leaves with muxes of code 0, which always route to the same leaf.

A quantized weight vector is one int64 row of numerators over 2^h; the
signs stay with the weights. The quantizer and both tree builds work on
blocks of rows, one weight or numerator vector per row (_quantize_rows,
_hardwired_rows, _biased_rows); the per-vector functions are their one-row
calls, and each reads the height h off its row's sum, 2^h.
"""

from functools import lru_cache

import numpy as np


def _quantize_rows(weights, m: int) -> np.ndarray:
    """Numerators (R, M) int64 of each row of an (R, M) weight block, see quantize_weights.

    A block with a bad row (non-finite, overflowing or zero magnitudes)
    raises the first such row's message.
    """
    if not 1 <= m <= 52:
        raise ValueError(
            f"height m must be in [1, 52] (float64 holds 2^m * |w| / sum|w| "
            f"to the unit only below 2^53), got {m}"
        )
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or not w.shape[1]:
        raise ValueError("weights must be a non-empty 1-d sequence")
    a = np.abs(w)
    finite = np.isfinite(a)
    with np.errstate(over="ignore"):
        total = np.cumsum(a, axis=1)[:, -1]
    bad = ~finite.all(axis=1) | ~np.isfinite(total) | (total == 0.0)
    if bad.any():
        r = int(np.argmax(bad))
        if not finite[r].all():
            raise ValueError(f"weights must be finite, got {w[r][~finite[r]][0]}")
        if not np.isfinite(total[r]):
            raise ValueError("weights must be finite: the sum of their magnitudes overflows")
        raise ValueError("zero weight mass")
    # an exact power-of-two rescale keeps 2^m * a finite for huge weights
    shift = np.frexp(total)[1] + m - 1000
    if shift.max() > 0:
        a = np.ldexp(a, -np.maximum(shift, 0)[:, None])
        total = np.cumsum(a, axis=1)[:, -1]
    t = (1 << m) * a / total[:, None]
    q = np.floor(t + 0.5)
    # every rounding error lies within one half, so once an entry is adjusted
    # its error is the smallest: the one-unit steps hit distinct entries in
    # order of error, ties by lowest index, which a stable sort reproduces
    excess = q.sum(axis=1).astype(np.int64) - (1 << m)
    if excess.any():
        order = np.argsort(np.where(excess[:, None] > 0, t - q, q - t), axis=1, kind="stable")
        adjust = np.sign(excess)[:, None] * (np.arange(w.shape[1]) < np.abs(excess)[:, None])
        q[np.arange(len(q))[:, None], order] -= adjust
    return q.astype(np.int64)


def quantize_weights(weights, m: int) -> np.ndarray:
    """Reduce signed weights to int64 numerators q_i with sum(q) = 2^m exactly.

    Round-to-nearest on the scaled magnitudes, then walk the sum back to 2^m
    one unit at a time, always adjusting the entry whose rounding error is
    currently largest (ties broken by lowest index). Rounding is half away
    from zero. Magnitudes are summed sequentially, in input order, as the
    quantization pseudocode does; a pairwise sum can differ in the last bit
    and flip a near-tie adjustment.
    """
    return _quantize_rows([weights], m)[0]


def _one_row(nums) -> tuple[np.ndarray, int]:
    """A numerator row as a one-row block, and its height h = log2 of the row's sum.

    A row whose sum is not a power of two has no height and raises.
    """
    block = np.array([nums], dtype=np.int64)
    total = int(block.sum())
    if total < 1 or total & (total - 1):
        raise ValueError("quantized numerators must sum to exactly 2^height")
    return block, total.bit_length() - 1


def _hardwired_rows(nums: np.ndarray, h: int) -> np.ndarray:
    """Owner maps (R, 2^h) of the rows of an (R, M) numerator block, see build_hardwired_tree."""
    # [r, l] holds row r's level-l bits, the 2^(h-l) place
    bits = (nums[:, None, :] >> np.arange(h, -1, -1)[:, None]) & 1
    _, levels, inputs = np.nonzero(bits)  # row, level and input order
    # every row's blocks sum to 2^h
    return np.repeat(inputs.astype(np.int64), 1 << (h - levels)).reshape(len(nums), 1 << h)


def build_hardwired_tree(nums) -> np.ndarray:
    """Owner map of the redundancy-free hardwired tree: select word -> input.

    A level-l mux is driven by the l-th MSB of the h-bit select word, so the
    map (read-only, 2^h int64 entries) is the whole tree. Each set bit 2^(h-l)
    of a numerator owns one aligned block of 2^(h-l) select words, level 0 (a
    numerator of 2^h) first, then level by level and in input order within a
    level. Longest blocks first keeps every block aligned to its length, so it
    is one subtree of the full tree.
    """
    owner = _hardwired_rows(*_one_row(nums))[0]
    owner.setflags(write=False)
    return owner


def tree_size(nums, tree_type: str) -> tuple[int, int]:
    """Mux count and select levels of the "hardwired" or "biased" tree over nums.

    Each set numerator bit is one leaf of the redundancy-free hardwired tree,
    so it has one mux fewer than set bits, on h levels. The balanced biased
    tree over the k inputs of nonzero weight has k - 1 muxes on
    ceil(log2 k) levels.
    """
    block, h = _one_row(nums)
    if tree_type == "hardwired":
        return sum(num.bit_count() for num in block[0].tolist()) - 1, h
    k = int(np.count_nonzero(block))
    return k - 1, (k - 1).bit_length()


@lru_cache(maxsize=256)
def _heap_ranges(k: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The balanced split of k active inputs over depth levels, independent of their masses.

    Returns each heap slot's active-position range as rows lo, mid, hi, level
    by level, and each heap leaf's active position. Slot s splits [lo, hi) at
    mid = lo + (hi - lo) // 2 into slots 2s + 1 and 2s + 2, so a one-input
    range above the last level splits at mid = lo: a padding mux whose left
    half is empty. With depth at least (k - 1).bit_length(), every range on
    the last level holds at most one input, and a heap leaf's position is
    that of the one-input range above it.
    """
    lo, hi = np.zeros(1, dtype=np.int64), np.full(1, k, dtype=np.int64)
    levels = [np.empty((3, 0), dtype=np.int64)]
    for _ in range(depth):
        mid = lo + (hi - lo) // 2
        levels.append(np.stack((lo, mid, hi)))
        lo, hi = np.stack((lo, mid), axis=1).ravel(), np.stack((mid, hi), axis=1).ravel()
    ranges = np.hstack(levels)
    for arr in (ranges, lo):
        arr.setflags(write=False)
    return ranges, lo


def _biased_rows(nums: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Heaps (R, 2^D - 1) and leaf owners (R, 2^D) of an (R, M) numerator block.

    D is the depth of the block's deepest tree, (k - 1).bit_length() for
    the largest number k of nonzero numerators in a row; a row with fewer
    levels of its own is padded below its leaves (see _heap_ranges and
    build_biased_selector_tree). Every row sums to 2^h, so has some k >= 1.
    """
    active = np.count_nonzero(nums, axis=1)
    most = int(active.max())
    depth = (most - 1).bit_length()
    # each row's slot ranges and leaf positions, over its active inputs
    ranges, leaf = (np.array(arrs) for arrs in zip(*(_heap_ranges(k, depth) for k in active.tolist())))
    # each row's active inputs in input order, then zero numerators up to
    # the block's largest k, over which the prefix sums stay at the row's sum
    rows = np.arange(len(nums))[:, None]
    order = np.argsort(nums == 0, axis=1, kind="stable")[:, :most]
    prefix = np.zeros((len(nums), most + 1), dtype=np.int64)
    np.cumsum(nums[rows, order], axis=1, out=prefix[:, 1:])
    at_lo, at_mid, at_hi = prefix[rows[:, None], ranges].transpose(1, 0, 2)
    left, mass = at_mid - at_lo, at_hi - at_lo
    # code floor(p 2^h + 1/2) for p = left / mass, exact in integers. With
    # mass <= 2^h no p is a rounding tie, and a mux's right half has positive
    # mass, so no code reaches 2^h. A padding mux's left mass is 0, so its code
    # is 0; the empty ranges below it get divisor 1
    heap = ((2 * left << h) + mass) // np.maximum(2 * mass, 1)
    return heap, order[rows, leaf]


def build_biased_selector_tree(nums) -> tuple[np.ndarray, np.ndarray]:
    """Balanced tree over the inputs with nonzero quantized weight.

    Returns (heap_thresholds, leaf_owner), both read-only: the tree as a
    complete heap of its own depth D = log2(leaf_owner.size), which is
    (k - 1).bit_length() for its k active inputs. heap_thresholds holds
    each slot's h-bit select code, h the quantization height, for the node
    probability mass(left half) / mass(both halves). Select bit 1 at slot s
    routes to slot 2s + 1 (the left, lower-index half) and bit 0 to slot
    2s + 2; a cycle walks idx -> 2 idx + 2 - bit once per level, the muxes of
    one level sharing one select source, and ends on input
    leaf_owner[idx - (2^D - 1)]. A leaf above the last level sits over
    padding muxes of code 0, whose bit is always 0. Zero-weight inputs are
    dropped here and reported with zero sampling counts downstream.
    """
    heaps, leaf_owners = _biased_rows(*_one_row(nums))
    heap, leaf_owner = heaps[0], leaf_owners[0]
    for arr in (heap, leaf_owner):
        arr.setflags(write=False)
    return heap, leaf_owner
