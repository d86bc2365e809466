import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    biased_heap_layout,
    biased_leaf_path_products,
    biased_tree_reference,
    biased_walk_per_level,
    dump_tree,
    full_tree_select,
    level_ordered_owners,
    pairing_tree,
    quantize_to_probability,
    quantize_weights_transcription,
    select_leaf_noisy,
    select_leaf_precise,
)
from scmux.muxtree import (
    _biased_rows,
    _hardwired_rows,
    _quantize_rows,
    build_biased_selector_tree,
    build_hardwired_tree,
    quantize_weights,
    tree_size,
)
from scmux.sngen import PccKind

weight_lists = st.lists(
    st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-12), min_size=1, max_size=24
)


def test_quantize_examples():
    assert quantize_weights([1 / 2, 3 / 8, 1 / 8], 3).tolist() == [4, 3, 1]
    assert quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4).tolist() == [7, 4, 4, 1]
    # the row is the numerators alone; the signs stay with the weights
    q = quantize_weights([-1 / 2, 3 / 8, 1 / 8], 3)
    assert isinstance(q, np.ndarray) and q.dtype == np.int64
    assert q.tolist() == [4, 3, 1]


def test_quantize_decrement_loop_case():
    w = [0.375, 0.375, 0.25]
    q = quantize_weights(w, 1)
    assert q.tolist() == quantize_weights_transcription(w, 1)
    assert q.sum() == 2


def test_quantize_errors():
    with pytest.raises(ValueError):
        quantize_weights([0.0, 0.0], 3)
    with pytest.raises(ValueError):
        quantize_weights([], 3)


def test_quantize_rejects_non_finite_weights():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        for w in ([0.5, float("nan")], [float("inf"), 1.0], [-float("inf")], [1e308, 1e308]):
            with pytest.raises(ValueError, match="weights must be finite"):
                quantize_weights(w, 4)
        # finite weights whose 2^m multiples overflow are rescaled exactly
        assert quantize_weights([1e308], 4).tolist() == [16]
        assert quantize_weights([1e308, -5e307], 3).tolist() == [5, 3]


def test_quantize_repeats_sign_and_error_checks_per_call():
    # weights that differ only in sign give one numerator row, and the checks
    # on bad weights run on every call
    a = quantize_weights([0.5, -0.25, 0.25], 3)
    b = quantize_weights([-0.5, 0.25, -0.25], 3)
    assert a.tolist() == b.tolist() == [4, 2, 2]
    for _ in range(2):
        with pytest.raises(ValueError, match="zero weight mass"):
            quantize_weights([0.0, -0.0], 3)
        with pytest.raises(ValueError, match="overflows"):
            quantize_weights([1e308, -1e308], 3)


# rows of zeros, ties, tiny and huge magnitudes; 1e308 needs the exact rescale
_block_values = st.sampled_from([0.0, -0.0, 1e-300, 0.01, -0.25, 0.5, 1.0, -3.0, 1e300, -1e308])


@st.composite
def weight_blocks(draw):
    m = draw(st.integers(1, 10))
    row = st.lists(_block_values, min_size=m, max_size=m).filter(
        lambda r: 0 < sum(abs(x) for x in r) < math.inf
    )
    return draw(st.lists(row, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(weight_blocks(), st.integers(1, 12))
@example([[0.0, 1.0, 0.0], [0.5, 0.5, 0.25], [1e308, 1.0, 0.0], [0.0, 0.0, -3.0]], 4)
@example([[1.0], [1e-300], [-1e308]], 1)
# k = 1, 2, 3, 4 and 5 active inputs, zero numerators in between
@example(
    [
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 1.0, 0.0, 0.0, -3.0, 0.0, 0.0],
        [0.25, 0.0, 0.5, 0.0, 1.0, 0.0, -0.25, 0.0, 0.0],
        [1.0, 0.0, 0.5, 0.0, -0.25, 0.0, 1.0, 0.0, -3.0],
    ],
    6,
)
def test_row_wise_cores_match_per_vector_builds_and_oracles(rows, h):
    # one block of rows gives each row what it gives alone, and what the
    # transcription, the level-ordered blocks and the recursive biased tree
    # give; the whole block's biased trees have its deepest tree's depth D
    nums = _quantize_rows(rows, h)
    assert nums.shape == (len(rows), len(rows[0])) and nums.dtype == np.int64
    for row, row_nums in zip(rows, nums):
        assert np.array_equal(row_nums, quantize_weights(row, h))
        if sum(abs(x) for x in row) < 1e200:  # the transcription overflows beyond
            assert row_nums.tolist() == quantize_weights_transcription(row, h)
    for row_nums, owner in zip(nums, _hardwired_rows(nums, h)):
        assert owner.tolist() == level_ordered_owners(row_nums.tolist(), h).tolist()
        assert np.array_equal(owner, build_hardwired_tree(row_nums))
    active = np.count_nonzero(nums, axis=1)
    for k in set(active.tolist()):
        group = nums[active == k]
        for row_nums, heap, leaf_owner in zip(group, *_biased_rows(group, h)):
            expected = biased_heap_layout(biased_tree_reference(row_nums, PccKind.WBG))
            assert (heap.tolist(), leaf_owner.tolist()) == expected
            built = build_biased_selector_tree(row_nums)
            assert all(map(np.array_equal, (heap, leaf_owner), built))
    rng = np.random.default_rng(h)
    depth = (int(active.max()) - 1).bit_length()
    select = rng.integers(0, 1 << h, (depth, 256))
    for row_nums, heap, leaf_owner in zip(nums, *_biased_rows(nums, h)):
        assert (heap.size, leaf_owner.size) == ((1 << depth) - 1, 1 << depth)
        # the row's own tree in the first 2^d - 1 slots, code-0 padding below
        own_heap, own_owner = biased_heap_layout(biased_tree_reference(row_nums, PccKind.WBG))
        d = len(own_owner).bit_length() - 1
        assert heap[: (1 << d) - 1].tolist() == own_heap
        assert not heap[(1 << d) - 1:].any()
        assert np.array_equal(
            biased_walk_per_level(heap, leaf_owner, select, h),
            biased_walk_per_level(np.array(own_heap), np.array(own_owner), select[:d], h),
        )


def test_biased_rows_of_wide_sparse_blocks_match_each_rows_own_tree():
    # blocks of 109 rows as wide as the filter study's 150 taps, whose active
    # inputs lie scattered over the row: at n = 4 at most 16 of them are
    # active. Each row's heap holds its own tree in its first 2^d - 1 slots
    # and code-0 padding below, and its leaves name its own active inputs
    rng = np.random.default_rng(4150)
    for h, m in ((4, 150), (6, 150), (3, 40)):
        weights = rng.uniform(-1, 1, (109, m))
        weights[rng.random((109, m)) < 0.5] = 0.0
        weights[:, rng.integers(m)] = 1.0  # no row is all zero
        nums = _quantize_rows(weights, h)
        heaps, leaf_owners = _biased_rows(nums, h)
        depth = (int(np.count_nonzero(nums, axis=1).max()) - 1).bit_length()
        assert heaps.shape == (109, (1 << depth) - 1) and leaf_owners.shape == (109, 1 << depth)
        select = rng.integers(0, 1 << h, (depth, 64))
        for row_nums, heap, leaf_owner in zip(nums, heaps, leaf_owners):
            own_heap, own_owner = biased_heap_layout(biased_tree_reference(row_nums, PccKind.WBG))
            d = len(own_owner).bit_length() - 1
            assert heap[: (1 << d) - 1].tolist() == own_heap
            assert not heap[(1 << d) - 1:].any()
            assert set(leaf_owner.tolist()) == set(np.flatnonzero(row_nums).tolist())
            assert np.array_equal(
                biased_walk_per_level(heap, leaf_owner, select, h),
                biased_walk_per_level(np.array(own_heap), np.array(own_owner), select[:d], h),
            )


def test_quantize_rows_raises_the_first_bad_rows_message():
    nan, inf = float("nan"), float("inf")
    cases = [
        ([[0.5, 0.5], [0.25, nan]], "weights must be finite, got nan"),
        ([[0.5, 0.5], [-inf, 1.0], [nan, 1.0]], "weights must be finite, got -inf"),
        ([[1.0, 0.0], [1e308, -1e308]],
         "weights must be finite: the sum of their magnitudes overflows"),
        ([[1.0, 0.0], [0.0, -0.0], [nan, 1.0]], "zero weight mass"),
        ([[]], "weights must be a non-empty 1-d sequence"),
        ([0.5, 0.5], "weights must be a non-empty 1-d sequence"),
    ]
    for rows, message in cases:
        with pytest.raises(ValueError) as exc:
            _quantize_rows(rows, 4)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="height m must be in"):
        _quantize_rows([[1.0]], 53)


@settings(max_examples=400, deadline=None)
@given(weight_lists, st.integers(1, 12))
# a pairwise sum of the magnitudes is 6.56, the sequential one
# 6.5600000000000005, and the near-tie adjustment then picks another input
@example(w=[1.0, 0.5, 0.9999999999999999, 0.06, 1.0, 1.0, 1.0, 1.0], m=1)
def test_quantize_matches_transcription_and_sums(w, m):
    q = quantize_weights(w, m)
    assert q.dtype == np.int64 and q.shape == (len(w),)
    assert q.sum() == 1 << m
    assert q.tolist() == quantize_weights_transcription(w, m)
    assert (q >= 0).all()


def test_quantize_matches_transcription_on_ties_and_near_ties():
    rng = np.random.default_rng(5150)
    for _ in range(1000):
        m_inputs, m = int(rng.integers(1, 40)), int(rng.integers(1, 13))
        w = rng.uniform(-1, 1, m_inputs)
        kind = rng.integers(0, 3)
        if kind == 1:  # equal magnitudes: every adjustment is a rounding tie
            w = np.where(w < 0, -1.0, 1.0) * rng.integers(1, 4)
        elif kind == 2:  # near ties: equal magnitudes one ulp apart
            w = np.nextafter(np.ones_like(w), rng.choice([0.0, 2.0], w.shape))
        w[rng.random(w.shape) < 0.1] = 0.0
        w[0] = w[0] or 0.5
        assert quantize_weights(w, m).tolist() == quantize_weights_transcription(w, m)


def test_tree_level_assignment_matches_binary_expansions():
    q = quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4)
    # level 1 is empty, level 2 holds inputs 0, 1, 2, level 3 input 0 and
    # level 4 inputs 0 and 3: blocks of 4, 4, 4, 2, 1, 1 select words
    assert build_hardwired_tree(q).tolist() == [0] * 4 + [1] * 4 + [2] * 4 + [0] * 2 + [0, 3]
    assert tree_size(q, "hardwired") == (5, 4)  # six 1-bits total, minus one


def test_single_input_tree_has_no_muxes():
    q = quantize_weights([0.7], 3)
    assert tree_size(q, "hardwired") == (0, 3)
    assert tree_size(q, "biased") == (0, 0)
    assert build_hardwired_tree(q).tolist() == [0] * 8
    assert pairing_tree(q.tolist(), 3).mux_count == 0
    assert all(select_leaf_precise(pairing_tree(q.tolist(), 3), w) == 0 for w in range(8))


def test_equal_four_way_tree_counts():
    q = quantize_weights([1, 1, 1, 1], 2)
    owner = build_hardwired_tree(q)
    assert sorted(owner.tolist()) == [0, 1, 2, 3]
    owners = [select_leaf_precise(pairing_tree(q.tolist(), 2), w) for w in range(4)]
    assert owners == owner.tolist()


def test_precise_counts_eq15():
    q = quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4)
    counts = np.bincount(build_hardwired_tree(q), minlength=4)
    assert counts.tolist() == [7, 4, 4, 1] == q.tolist()


@settings(max_examples=200, deadline=None)
@given(weight_lists, st.integers(1, 8), st.integers(0, 2**16))
def test_precise_sampling_exact_any_phase(w, h, phase):
    q = quantize_weights(w, h)
    n_cycles = 4 << h
    words = (phase + np.arange(n_cycles)) % (1 << h)
    counts = np.bincount(build_hardwired_tree(q)[words], minlength=len(w))
    assert counts.tolist() == (q * (n_cycles >> h)).tolist()


@settings(max_examples=200, deadline=None)
@given(weight_lists, st.integers(1, 8))
def test_ddg_routing_fractions_exact(w, h):
    q = quantize_weights(w, h)
    counts = np.bincount(build_hardwired_tree(q), minlength=len(w))
    assert counts.tolist() == q.tolist()


@st.composite
def numerator_sets(draw):
    # cut [0, 2^h] at random points: coinciding cuts give zero numerators and
    # cuts only at the ends give one whole-weight numerator of 2^h
    h = draw(st.integers(1, 12))
    m_inputs = draw(st.integers(1, 24))
    cuts = sorted(draw(st.lists(st.integers(0, 1 << h), min_size=m_inputs - 1,
                                max_size=m_inputs - 1)))
    return h, [b - a for a, b in zip([0, *cuts], [*cuts, 1 << h])]


@settings(max_examples=150, deadline=None)
@given(numerator_sets())
@example((1, [0, 2, 0]))
@example((12, [1 << 12]))
@example((12, [0, (1 << 12) - 1, 0, 1]))
@example((5, [0, 32, 0]))
def test_select_matches_full_tree_oracle(case):
    h, numerators = case
    slots = level_ordered_owners(numerators, h)
    want = [full_tree_select(numerators, h, word, slots) for word in range(1 << h)]
    assert build_hardwired_tree(numerators).tolist() == want
    pairing = pairing_tree(numerators, h)
    assert [select_leaf_precise(pairing, word) for word in range(1 << h)] == want
    assert tree_size(numerators, "hardwired") == (pairing.mux_count, h)


@pytest.mark.parametrize(
    "build",
    [build_hardwired_tree, build_biased_selector_tree, lambda nums: tree_size(nums, "hardwired")],
    ids=["build_hardwired_tree", "build_biased_selector_tree", "tree_size"],
)
def test_builders_reject_a_row_whose_sum_is_not_a_power_of_two(build):
    # the height is read off the row's sum, so a row with no height is refused
    # where it enters, with the message of the numerators' sum check
    for nums in ([3, 2], [4, 2, 1], [0, 0], [5], np.array([6, 0, 6]), []):
        with pytest.raises(ValueError) as exc:
            build(nums)
        assert str(exc.value) == "quantized numerators must sum to exactly 2^height"
    assert build([3, 0, 1]) is not None  # 2^2


def test_select_noisy_matches_word_traversal():
    q = quantize_weights([5 / 8, 1 / 4, 1 / 8], 3)
    tree = pairing_tree(q.tolist(), 3)
    owner = build_hardwired_tree(q)
    for word in range(8):
        bits = [(word >> (3 - lvl)) & 1 for lvl in (1, 2, 3)]
        assert select_leaf_noisy(tree, bits) == select_leaf_precise(tree, word) == owner[word]


def test_select_noisy_binomial_mean():
    q = quantize_weights([0.5, 0.5], 1)
    tree = pairing_tree(q.tolist(), 1)
    rng = np.random.default_rng(3)
    n_cycles, reps = 64, 400
    counts = np.array(
        [
            sum(select_leaf_noisy(tree, [int(b)]) == 0 for b in rng.integers(0, 2, n_cycles))
            for _ in range(reps)
        ],
        dtype=float,
    )
    se = np.sqrt(n_cycles * 0.25 / reps)
    assert abs(counts.mean() - n_cycles / 2) < 3 * se


def test_mux_count_bound():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m_inputs = int(rng.integers(1, 20))
        h = int(rng.integers(1, 9))
        w = rng.uniform(-1, 1, m_inputs)
        if not np.any(w):
            continue
        q = quantize_weights(w, h)
        muxes, _ = tree_size(q, "hardwired")
        popcount = sum(bin(x).count("1") for x in q.tolist())
        assert muxes == popcount - 1
        assert muxes <= min(m_inputs * h - 1, (1 << h) - 1)


def test_biased_tree_example_grouping():
    q = quantize_weights([1 / 2, 3 / 8, 1 / 8], 3)
    ref = biased_tree_reference(q, PccKind.WBG)
    prods = biased_leaf_path_products(ref)
    assert prods == {0: Fraction(1, 2), 1: Fraction(3, 8), 2: Fraction(1, 8)}
    assert ref.probabilities[ref.root] == Fraction(4, 8)  # toward input 0
    assert ref.probabilities[ref.child1[ref.root]] == Fraction(3, 4)  # toward input 1
    # input 0's leaf sits one level up, over a padding mux of code 0
    heap, leaf_owner = build_biased_selector_tree(q)
    assert heap.tolist() == [4, 0, 6]
    assert leaf_owner.tolist() == [0, 0, 1, 2]
    assert tree_size(q, "biased") == (2, 2)


def test_biased_tree_equal_weights_all_half():
    q = quantize_weights([1, 1, 1, 1], 4)
    ref = biased_tree_reference(q, PccKind.WBG)
    assert all(p == Fraction(1, 2) for p in ref.probabilities)
    heap, leaf_owner = build_biased_selector_tree(q)
    assert heap.tolist() == [8, 8, 8]
    assert leaf_owner.tolist() == [0, 1, 2, 3]


@settings(max_examples=200, deadline=None)
@given(weight_lists, st.integers(2, 8))
def test_biased_path_products_recover_quantized_weights(w, h):
    q = quantize_weights(w, h)
    try:
        ref = biased_tree_reference(q, PccKind.WBG)
    except ValueError:
        return
    prods = biased_leaf_path_products(ref)
    assert sum(prods.values()) == 1
    for i, num in enumerate(q.tolist()):
        if num > 0:
            assert prods[i] == Fraction(num, 1 << h)
    heap, leaf_owner = build_biased_selector_tree(q)
    assert heap.tolist() == biased_heap_layout(ref)[0]
    assert set(leaf_owner.tolist()) == set(prods)


def test_biased_zero_weight_inputs_dropped():
    q = quantize_weights([0.5, 1e-9, 0.5], 2)
    assert q.tolist() == [2, 0, 2]
    assert 1 not in biased_leaf_path_products(biased_tree_reference(q, PccKind.WBG))
    heap, leaf_owner = build_biased_selector_tree(q)
    assert heap.tolist() == [2]
    assert leaf_owner.tolist() == [0, 2]


def test_dump_tree_format():
    q = quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4)
    text = dump_tree(q)
    assert text.splitlines() == [
        "height 4",
        "inputs 4",
        "level 1:",
        "level 2: 0 1 2",
        "level 3: 0",
        "level 4: 0 3",
        "muxes 5",
    ]


def test_biased_thresholds_match_scalar_quantizer():
    # each mux's select code is its exact probability rounded to h bits, ties
    # up; at width = height the WBG's all-ones clamp never applies, so both
    # PCCs give the same codes
    rng = np.random.default_rng(6060)
    checked = 0
    for _ in range(400):
        m_inputs = int(rng.integers(2, 40))
        w = rng.uniform(-1, 1, m_inputs) ** int(rng.integers(1, 6))
        h = int(rng.integers(1, 13))
        q = quantize_weights(w, h)
        heap, _ = build_biased_selector_tree(q)
        for pcc in PccKind:
            ref = biased_tree_reference(q, pcc)
            codes = [quantize_to_probability(p, h) for p in ref.probabilities]
            assert ref.thresholds == codes
            assert heap.tolist() == biased_heap_layout(ref)[0]
            checked += ref.mux_count
    assert checked > 5000


def _cut_configs():
    # 2,400 random cuts of [0, 2^h]: coinciding cuts give zero numerators, and
    # cuts only at the ends one whole-weight input; every eighth case has up
    # to 150 inputs
    rng = np.random.default_rng(8128)
    for case in range(2400):
        h = int(rng.integers(1, 13))
        m_inputs = int(rng.integers(1, 151 if case % 8 == 0 else 41))
        cuts = np.sort(rng.integers(0, (1 << h) + 1, m_inputs - 1))
        nums = np.diff(np.concatenate(([0], cuts, [1 << h])))
        yield h, nums


def test_biased_tree_matches_recursive_reference_node_for_node():
    # the heap build reads every slot's masses off prefix sums over ranges
    # cached per active count and depth; the reference halves the active inputs
    # recursively with one Fraction per mux, laid out as a heap
    seen = set()
    for _, nums in _cut_configs():
        heap, leaf_owner = build_biased_selector_tree(nums)
        ref = biased_tree_reference(nums, PccKind.WBG)
        assert (heap.tolist(), leaf_owner.tolist()) == biased_heap_layout(ref)
        assert tree_size(nums, "biased") == (ref.mux_count, max(ref.node_level, default=0))
        seen.add("zero weight" if 0 in nums else "all active")
        seen.add("one active" if ref.root < 0 else "muxes")
    assert seen == {"zero weight", "all active", "one active", "muxes"}


def test_biased_node_probabilities_never_tie_or_round_to_one():
    # at select width = quantization height a mass T <= 2^h makes no node
    # probability L/T a rounding tie (that needs 2^(h+1) | T), and none
    # rounds to 2^h (that needs T - L < 1, an empty right half)
    nodes = 0
    for h, nums in _cut_configs():
        if np.count_nonzero(nums) < 2:
            continue
        one = 1 << h
        for p in biased_tree_reference(nums, PccKind.COMPARATOR).probabilities:
            assert (p * one).denominator != 2
            assert quantize_to_probability(p, h) < one
            nodes += 1
    assert nodes > 20000


def test_biased_heap_walk_reaches_each_input_by_its_tree_path():
    # walking the heap with one select bit per level lands every cycle on the
    # input the reference's mux-by-mux walk reaches, padding levels included
    rng = np.random.default_rng(31)
    for _ in range(200):
        m_inputs = int(rng.integers(1, 40))
        w = rng.uniform(-1, 1, m_inputs)
        w[rng.random(m_inputs) < 0.2] = 0.0
        w[0] = w[0] or 0.5
        q = quantize_weights(w, int(rng.integers(4, 11)))
        heap, leaf_owner = build_biased_selector_tree(q)
        ref = biased_tree_reference(q, PccKind.WBG)
        depth = leaf_owner.size.bit_length() - 1
        for path in range(1 << depth):
            bits = [(path >> (depth - lvl)) & 1 for lvl in range(1, depth + 1)]
            node, idx = ref.root, 0
            for b in bits:
                if node >= 0:
                    assert heap[idx] == ref.thresholds[node]
                    node = ref.child0[node] if b else ref.child1[node]
                else:
                    assert heap[idx] == 0  # padding
                    b = 0
                idx = 2 * idx + 2 - b
            assert leaf_owner[idx - ((1 << depth) - 1)] == ~node
