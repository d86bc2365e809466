import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RnsState, SourceSpec, comparator_bit, generate_inputs, pcc_threshold, scc, wbg_bit
from scmux.bitstream import Bitstream
from scmux.rns import RnsSpec, rns_sequence
from scmux.sngen import (
    PccKind,
    QuantizationWarning,
    input_bit_matrix,
    make_channels,
    pcc_bits,
    pcc_thresholds,
)


def test_comparator_example_sobol():
    words = rns_sequence(RnsSpec("sobol_reversed_counter", 3), 8)
    bits = [comparator_bit(int(r), 3) for r in words]
    assert bits == [1, 0, 1, 0, 1, 0, 0, 0]
    assert pcc_bits(PccKind.COMPARATOR, words, 3, 3).tolist() == bits


def test_comparator_saturation():
    words = np.arange(16)
    assert pcc_bits(PccKind.COMPARATOR, words, 0, 4).sum() == 0
    assert pcc_bits(PccKind.COMPARATOR, words, 16, 4).sum() == 16


def test_wbg_trivial_thresholds():
    words = np.arange(16)
    assert pcc_bits(PccKind.WBG, words, 0, 4).sum() == 0
    # threshold with only the MSB set outputs exactly the word's MSB
    out = pcc_bits(PccKind.WBG, words, 8, 4)
    assert out.tolist() == [(int(r) >> 3) & 1 for r in words]


def test_wbg_rejects_thresholds_outside_its_code_range():
    words = np.array([8, 1, 2])
    for bad in (-1, 16, np.array([3, 16, 0]), np.array([0, -2, 5])):
        with pytest.raises(ValueError, match="WBG threshold outside"):
            pcc_bits(PccKind.WBG, words, bad, 4)
    assert pcc_bits(PccKind.WBG, words, np.array([15, 0, 7]), 4).tolist() == [1, 0, 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10), st.data())
def test_wbg_full_period_ones_count(n, data):
    b = data.draw(st.integers(0, (1 << n) - 1))
    words = np.arange(1 << n)
    assert int(pcc_bits(PccKind.WBG, words, b, n).sum()) == b
    assert wbg_bit(0, b, n) == 0


def test_wbg_threshold_clamp_warns():
    with pytest.warns(QuantizationWarning):
        b = pcc_thresholds([1.0, 0.0], 4, PccKind.WBG)
    assert b.tolist() == [15, 8] == [pcc_threshold(p, 4, PccKind.WBG) for p in (1, 0.5)]
    with pytest.warns(QuantizationWarning):
        (ch,) = make_channels([1.0], [1.0], 4, PccKind.WBG)
    assert ch.threshold == 15


def test_make_channels_takes_bipolar_values_only():
    (ch,) = make_channels([-0.5], [1.0], 4)
    assert (ch.value, ch.threshold) == (-0.5, 4)
    for bad in (1.5, -1.0000000000000002, float("nan")):
        with pytest.raises(ValueError, match=r"bipolar values must lie in \[-1, 1\]"):
            make_channels([0.0, bad], [1.0, 1.0], 4)


def test_full_correlation_wiring_mixed_signs():
    # two positive and two negative weights, one shared full-period source
    values = [0.5, -0.25, 0.125, 0.75]
    weights = [0.5, -0.25, -0.125, 0.0625]
    chans = make_channels(values, weights, 6, PccKind.COMPARATOR, correlated_wiring=True)
    assert [c.uses_complemented_rns for c in chans] == [False, True, True, False]
    pairs = generate_inputs(chans, RnsState(SourceSpec("sobol_reversed_counter", 6)), PccKind.COMPARATOR, 64)
    ys = [y for _, y in pairs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert scc(ys[i], ys[j]) == 1.0


def test_no_complement_wiring_gives_anticorrelated_pairs():
    values = [0.5, -0.25, 0.125, 0.75]
    weights = [0.5, -0.25, -0.125, 0.0625]
    chans = make_channels(values, weights, 6, PccKind.COMPARATOR, correlated_wiring=False)
    assert not any(c.uses_complemented_rns for c in chans)
    pairs = generate_inputs(chans, RnsState(SourceSpec("sobol_reversed_counter", 6)), PccKind.COMPARATOR, 64)
    ys = [y for _, y in pairs]
    assert scc(ys[0], ys[3]) == 1.0  # same-sign pair
    assert scc(ys[0], ys[1]) == -1.0  # opposite-sign pair


def test_identical_positive_channels_identical_streams():
    chans = make_channels([0.25, 0.25, 0.25], [1.0, 2.0, 0.5], 5, PccKind.COMPARATOR)
    pairs = generate_inputs(chans, RnsState(SourceSpec("sobol_reversed_counter", 5)), PccKind.COMPARATOR, 32)
    assert pairs[0][1] == pairs[1][1] == pairs[2][1]


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 10), st.floats(-1.0, 1.0), st.integers(0, 2**31))
def test_comparator_generation_is_exact(n, v, seed):
    # ones-count equals the threshold exactly over any full-period source
    (ch,) = make_channels([v], [1.0], n, PccKind.COMPARATOR)
    words = np.random.default_rng(seed).permutation(1 << n)
    assert sum(comparator_bit(int(r), ch.threshold) for r in words) == ch.threshold


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 9), st.floats(-1.0, 1.0))
def test_sign_inversion_negates_bipolar_value(n, v):
    chans = make_channels([v, v], [1.0, -1.0], n, PccKind.COMPARATOR)
    state = RnsState(SourceSpec("sobol_reversed_counter", n))
    pairs = generate_inputs(chans, state, PccKind.COMPARATOR, 1 << n)
    pos, neg = (2 * y.count_ones() / len(y) - 1 for _, y in pairs)
    assert neg == -pos


def test_wbg_pairs_cannot_be_reliably_correlated():
    # randomized search: some threshold pair on a shared source loses SCC=+1
    n = 8
    words = rns_sequence(RnsSpec("sobol_reversed_counter", n), 1 << n)
    rng = np.random.default_rng(7)
    worst = 1.0
    for _ in range(60):
        b1, b2 = int(rng.integers(1, 255)), int(rng.integers(1, 255))
        s1 = Bitstream(pcc_bits(PccKind.WBG, words, b1, n))
        s2 = Bitstream(pcc_bits(PccKind.WBG, words, b2, n))
        worst = min(worst, scc(s1, s2))
    assert worst < 1.0


def test_generate_inputs_width_mismatch():
    chans = make_channels([0.5], [1.0], 8, PccKind.COMPARATOR)
    state = RnsState(SourceSpec("sobol_reversed_counter", 4))
    with pytest.raises(ValueError):
        generate_inputs(chans, state, PccKind.COMPARATOR, 16)
    with pytest.raises(ValueError, match="exceeds source range"):
        input_bit_matrix(chans, state.take(16), PccKind.COMPARATOR, 4)


def test_input_bit_matrix_matches_generate_inputs():
    values = [0.3, -0.7, 0.9]
    weights = [0.25, -0.75, -0.5]
    words = rns_sequence(RnsSpec("sobol_reversed_counter", 5), 32)
    for pcc in PccKind:
        for wiring in (True, False):
            chans = make_channels(values, weights, 5, pcc, correlated_wiring=wiring)
            x, y = input_bit_matrix(chans, words, pcc, 5)
            state = RnsState(SourceSpec("sobol_reversed_counter", 5))
            for i, (xs, ys) in enumerate(generate_inputs(chans, state, pcc, 32)):
                assert np.array_equal(x[i], xs.unpacked)
                assert np.array_equal(y[i], ys.unpacked)
