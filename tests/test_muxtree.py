import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    full_tree_select,
    level_ordered_owners,
    pairing_tree,
    pcc_threshold,
    quantize_to_probability,
    quantize_weights_transcription,
    select_leaf_noisy,
    select_leaf_precise,
)
from scmux.muxtree import (
    BiasedSelectorTreeSpec,
    QuantizedWeights,
    biased_leaf_path_products,
    build_biased_selector_tree,
    build_hardwired_tree,
    dump_tree,
    precise_sampling_counts,
    quantize_weights,
)
from scmux.sngen import PccKind, QuantizationWarning

weight_lists = st.lists(
    st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-12), min_size=1, max_size=24
)


def test_quantize_examples():
    assert quantize_weights([1 / 2, 3 / 8, 1 / 8], 3).numerators == (4, 3, 1)
    assert quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4).numerators == (7, 4, 4, 1)
    q = quantize_weights([-1 / 2, 3 / 8, 1 / 8], 3)
    assert q.numerators == (4, 3, 1)
    assert q.signs == (-1, 1, 1)


def test_quantize_decrement_loop_case():
    w = [0.375, 0.375, 0.25]
    q = quantize_weights(w, 1)
    assert q.numerators == tuple(quantize_weights_transcription(w, 1))
    assert sum(q.numerators) == 2


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
        assert quantize_weights([1e308], 4).numerators == (16,)
        assert quantize_weights([1e308, -5e307], 3).numerators == (5, 3)


@settings(max_examples=400, deadline=None)
@given(weight_lists, st.integers(1, 12))
# a pairwise sum of the magnitudes is 6.56, the sequential one
# 6.5600000000000005, and the near-tie adjustment then picks another input
@example(w=[1.0, 0.5, 0.9999999999999999, 0.06, 1.0, 1.0, 1.0, 1.0], m=1)
def test_quantize_matches_transcription_and_sums(w, m):
    q = quantize_weights(w, m)
    assert sum(q.numerators) == 1 << m
    assert q.numerators == tuple(quantize_weights_transcription(w, m))
    assert all(n >= 0 for n in q.numerators)


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
        assert list(quantize_weights(w, m).numerators) == quantize_weights_transcription(w, m)


def test_tree_level_assignment_matches_binary_expansions():
    q = quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4)
    tree = build_hardwired_tree(q)
    assert tree.level_inputs == ((), (0, 1, 2), (0,), (0, 3))
    assert tree.mux_count == 5  # six 1-bits total, minus one


def test_single_input_tree_has_no_muxes():
    q = quantize_weights([0.7], 3)
    tree = build_hardwired_tree(q)
    assert tree.mux_count == 0
    assert tree.owner.tolist() == [0] * 8
    assert pairing_tree(q.numerators, 3).mux_count == 0
    assert all(select_leaf_precise(pairing_tree(q.numerators, 3), w) == 0 for w in range(8))


def test_equal_four_way_tree_counts():
    q = quantize_weights([1, 1, 1, 1], 2)
    tree = build_hardwired_tree(q)
    assert sorted(tree.owner.tolist()) == [0, 1, 2, 3]
    owners = [select_leaf_precise(pairing_tree(q.numerators, 2), w) for w in range(4)]
    assert owners == tree.owner.tolist()


def test_precise_counts_eq15():
    q = quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4)
    tree = build_hardwired_tree(q)
    counts = np.bincount(tree.owner, minlength=4)
    assert counts.tolist() == [7, 4, 4, 1]
    assert precise_sampling_counts(q, 16).tolist() == [7, 4, 4, 1]


@settings(max_examples=200, deadline=None)
@given(weight_lists, st.integers(1, 8), st.integers(0, 2**16))
def test_precise_sampling_exact_any_phase(w, h, phase):
    q = quantize_weights(w, h)
    tree = build_hardwired_tree(q)
    n_cycles = 4 << h
    words = (phase + np.arange(n_cycles)) % (1 << h)
    counts = np.bincount(tree.owner[words], minlength=len(w))
    assert counts.tolist() == list(precise_sampling_counts(q, n_cycles))


@settings(max_examples=200, deadline=None)
@given(weight_lists, st.integers(1, 8))
def test_ddg_routing_fractions_exact(w, h):
    q = quantize_weights(w, h)
    tree = build_hardwired_tree(q)
    counts = np.bincount(tree.owner, minlength=len(w))
    assert counts.tolist() == list(q.numerators)


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
    m_inputs = len(numerators)
    q = QuantizedWeights(tuple(numerators), h, (1,) * m_inputs)
    tree = build_hardwired_tree(q)
    slots = level_ordered_owners(numerators, h)
    want = [full_tree_select(numerators, h, word, slots) for word in range(1 << h)]
    assert tree.owner.tolist() == want
    pairing = pairing_tree(numerators, h)
    assert [select_leaf_precise(pairing, word) for word in range(1 << h)] == want
    assert tree.mux_count == pairing.mux_count


def test_select_noisy_matches_word_traversal():
    q = quantize_weights([5 / 8, 1 / 4, 1 / 8], 3)
    tree = pairing_tree(q.numerators, 3)
    owner = build_hardwired_tree(q).owner
    for word in range(8):
        bits = [(word >> (3 - lvl)) & 1 for lvl in (1, 2, 3)]
        assert select_leaf_noisy(tree, bits) == select_leaf_precise(tree, word) == owner[word]


def test_select_noisy_binomial_mean():
    q = quantize_weights([0.5, 0.5], 1)
    tree = pairing_tree(q.numerators, 1)
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
        tree = build_hardwired_tree(q)
        popcount = sum(bin(x).count("1") for x in q.numerators)
        assert tree.mux_count == popcount - 1
        assert tree.mux_count <= min(m_inputs * h - 1, (1 << h) - 1)


def test_biased_tree_example_grouping():
    q = quantize_weights([1 / 2, 3 / 8, 1 / 8], 3)
    tree = build_biased_selector_tree(q, PccKind.COMPARATOR, 8)
    prods = biased_leaf_path_products(tree)
    assert prods == {0: Fraction(1, 2), 1: Fraction(3, 8), 2: Fraction(1, 8)}
    root = tree.root
    assert tree.probabilities[root] == Fraction(4, 8)  # toward input 0
    inner = int(tree.child1[root])
    assert tree.probabilities[inner] == Fraction(3, 4)  # toward input 1


def test_biased_tree_equal_weights_all_half():
    q = quantize_weights([1, 1, 1, 1], 4)
    tree = build_biased_selector_tree(q, PccKind.COMPARATOR, 8)
    assert all(p == Fraction(1, 2) for p in tree.probabilities)


@settings(max_examples=200, deadline=None)
@given(weight_lists, st.integers(2, 8))
def test_biased_path_products_recover_quantized_weights(w, h):
    q = quantize_weights(w, h)
    try:
        tree = build_biased_selector_tree(q, PccKind.COMPARATOR, 8)
    except ValueError:
        return
    prods = biased_leaf_path_products(tree)
    assert sum(prods.values()) == 1
    for i, num in enumerate(q.numerators):
        if num > 0:
            assert prods[i] == Fraction(num, q.denominator)


def test_biased_zero_weight_inputs_dropped():
    q = quantize_weights([0.5, 1e-9, 0.5], 2)
    assert q.numerators == (2, 0, 2)
    tree = build_biased_selector_tree(q, PccKind.COMPARATOR, 8)
    assert 1 not in biased_leaf_path_products(tree)


def test_dump_tree_format():
    q = quantize_weights([7 / 16, 1 / 4, 1 / 4, 1 / 16], 4)
    text = dump_tree(build_hardwired_tree(q))
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
    # each node's select code is the exact probability rounded to n bits,
    # ties up, with the WBG's all-ones clamp
    rng = np.random.default_rng(6060)
    checked = clamped = 0
    for _ in range(400):
        m_inputs = int(rng.integers(2, 40))
        w = rng.uniform(-1, 1, m_inputs) ** int(rng.integers(1, 6))
        q = quantize_weights(w, int(rng.integers(1, 13)))
        n = int(rng.integers(3, 17))
        for pcc in PccKind:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuantizationWarning)
                tree = build_biased_selector_tree(q, pcc, n)
            want = [pcc_threshold(p, n, pcc) for p in tree.probabilities]
            assert tree.thresholds.tolist() == want
            checked += len(want)
            clamped += pcc is PccKind.WBG and any(
                quantize_to_probability(p, n) == 1 << n for p in tree.probabilities
            )
    assert checked > 5000 and clamped > 0


def test_biased_thresholds_tie_and_wbg_clamp():
    # p = 5/32 at n = 4 sits on a half step: 2.5 rounds up to 3
    q = QuantizedWeights((5, 27), 5, (1, 1))
    tree = build_biased_selector_tree(q, PccKind.COMPARATOR, 4)
    assert tree.probabilities == (Fraction(5, 32),)
    assert tree.thresholds.tolist() == [3]
    # p = 31/32 rounds to probability 1 at n = 3; the WBG clamps it to 7/8
    q = QuantizedWeights((31, 1), 5, (1, 1))
    assert build_biased_selector_tree(q, PccKind.COMPARATOR, 3).thresholds.tolist() == [8]
    with pytest.warns(QuantizationWarning):
        tree = build_biased_selector_tree(q, PccKind.WBG, 3)
    assert tree.thresholds.tolist() == [7]
