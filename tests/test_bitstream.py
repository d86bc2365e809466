from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bipolar_threshold, quantize_to_probability, scc
from scmux.bitstream import Bitstream, bipolar_thresholds


def test_bitstream_validation():
    with pytest.raises(ValueError):
        Bitstream([0, 1, 2])
    with pytest.raises(ValueError):
        Bitstream([])


def test_packed_storage_and_ops():
    s = Bitstream.from_string("10110001101")
    assert len(s) == 11
    assert s.count_ones() == 6
    assert list(s.unpacked) == [1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1]
    assert s.complement().count_ones() == 5
    assert s == Bitstream(s.unpacked)


def test_scc_paper_anchors():
    a = Bitstream.from_string("010110")
    b = Bitstream.from_string("010010")
    c = Bitstream.from_string("101011")
    assert scc(a, b) == 1.0
    assert scc(a, c) == -1.0


def test_scc_errors_and_degenerate():
    with pytest.raises(ValueError):
        scc(Bitstream.from_string("0101"), Bitstream.from_string("01"))
    # constant streams have no overlap freedom at all
    assert scc(Bitstream.from_string("1111"), Bitstream.from_string("0110")) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: 0 < sum(b) < len(b)))
def test_scc_self_and_complement(bits):
    x = Bitstream(bits)
    assert scc(x, x) == 1.0
    assert scc(x, x.complement()) == -1.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=4, max_size=64),
    st.randoms(use_true_random=False),
)
def test_scc_symmetric_and_bounded(bits, rnd):
    x = Bitstream(bits)
    y = Bitstream([rnd.randint(0, 1) for _ in bits])
    v = scc(x, y)
    assert v == scc(y, x)
    assert -1.0 <= v <= 1.0


def test_quantize_examples():
    assert bipolar_threshold(0.0, 10) == 512
    assert quantize_to_probability(Fraction(3, 8), 3) == 3
    assert bipolar_threshold(-1.0, 8) == 0
    assert quantize_to_probability(1, 4) == 16
    assert bipolar_thresholds([0.0], 10).tolist() == [512]
    assert bipolar_thresholds([-1.0], 8).tolist() == [0]
    assert bipolar_thresholds([1.0], 4).tolist() == [16]


def test_quantize_ties_round_half_up_in_probability():
    # p = 5/32 at n=4 sits exactly on a half step: 2.5 -> 3
    assert quantize_to_probability(Fraction(5, 32), 4) == 3
    # bipolar 2 * 5/32 - 1 = -11/16 is the same tie
    assert bipolar_thresholds([-11 / 16], 4).tolist() == [3]


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.0, 1.0), st.integers(3, 12))
def test_quantize_round_trip_error_bound(v, n):
    b = int(bipolar_thresholds([v], n)[0])
    assert 0 <= b <= (1 << n)
    assert abs(2 * b / (1 << n) - 1 - v) <= 2 ** -n


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.0, 1.0), st.integers(3, 12))
def test_bulk_thresholds_match_scalar(v, n):
    got = bipolar_thresholds(np.array([v]), n)[0]
    assert got == bipolar_threshold(v, n)


@pytest.mark.parametrize("n", [3, 4, 10, 16])
def test_bulk_thresholds_exact_at_every_tie_and_its_neighbours(n):
    size = 1 << n
    ties = (2 * np.arange(size) + 1 - size) / size  # exact: (2k + 1)/2^n - 1
    values = np.concatenate(
        (np.nextafter(ties, -2.0), ties, np.nextafter(ties, 2.0), [-1.0, -0.0, 0.0, 1.0])
    )
    got = bipolar_thresholds(values, n)
    want = [bipolar_threshold(float(v), n) for v in values]
    assert got.tolist() == want
    # a tie rounds up; one ulp below it does not
    assert bipolar_thresholds([-0.49902343750000006, -0.4990234375], 10).tolist() == [256, 257]


def test_bulk_thresholds_reject_nan_and_out_of_range():
    for bad in (float("nan"), 1.0000000000000002, -np.inf):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            bipolar_thresholds([0.0, bad], 8)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 10), st.integers(0, 2**16), st.integers(0, 2**32))
def test_comparator_round_trip_over_permutation(n, b_raw, seed):
    # generating value B/2^n with a comparator over a full-period permutation
    # source and re-estimating returns exactly B/2^n
    b = b_raw % ((1 << n) + 1)
    words = np.random.default_rng(seed).permutation(1 << n)
    stream = Bitstream((words < b).astype(np.uint8))
    assert stream.count_ones() == b

