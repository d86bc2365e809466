import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RnsState
from scmux.rns import (
    FULL_PERIOD_KINDS,
    LFSR_TAPS,
    RnsSpec,
    complement_output,
    lfsr_words,
    rns_sequence,
)


def test_sobol_is_bit_reversed_counter():
    seq = rns_sequence(RnsSpec("sobol_reversed_counter", 3, 0), 8)
    assert list(seq) == [0, 4, 2, 6, 1, 5, 3, 7]


def test_counter_identity():
    assert list(rns_sequence(RnsSpec("counter", 3, 0), 8)) == list(range(8))
    assert list(rns_sequence(RnsSpec("counter", 3, 6), 4)) == [6, 7, 0, 1]


def test_lfsr_visits_all_nonzero_once():
    seq = rns_sequence(RnsSpec("lfsr", 3, 1), 7)
    assert sorted(seq) == list(range(1, 8))
    # wraps around to the same cycle
    again = rns_sequence(RnsSpec("lfsr", 3, 1), 14)
    assert list(again[:7]) == list(again[7:])


@pytest.mark.parametrize("width", sorted(LFSR_TAPS))
def test_lfsr_maximal_period_all_widths(width):
    seq = rns_sequence(RnsSpec("lfsr", width, 1), (1 << width) - 1)
    assert np.unique(seq).size == (1 << width) - 1
    assert 0 not in seq


def test_lfsr_seed_zero_remaps_to_one():
    assert rns_sequence(RnsSpec("lfsr", 5, 0), 1)[0] == 1


@pytest.mark.parametrize("kind", FULL_PERIOD_KINDS)
def test_full_period_histogram_flat(kind):
    spec = RnsSpec(kind, 6, seed=123)
    seq = rns_sequence(spec, 64)
    assert np.bincount(seq, minlength=64).tolist() == [1] * 64


def test_van_der_corput_prefix_stratification():
    # every prefix of length 2^k has exactly one value per dyadic bucket
    n = 8
    seq = rns_sequence(RnsSpec("sobol_reversed_counter", n, 0), 1 << n)
    for k in range(n + 1):
        prefix = seq[: 1 << k]
        buckets = prefix >> (n - k)
        assert sorted(buckets) == list(range(1 << k))


@pytest.mark.parametrize("kind", ["lfsr", "counter", "sobol_reversed_counter", "permutation", "bernoulli"])
def test_determinism_and_statefulness(kind):
    # the oracle steps the source's register one cycle at a time; seed 0
    # checks the LFSR's remap of the all-0 state
    for seed in (99, 0):
        spec = RnsSpec(kind, 5, seed=seed)
        seq = rns_sequence(spec, 50)
        assert list(seq) == list(rns_sequence(spec, 50))
        state = RnsState(spec)
        stepped = [state.next_word() for _ in range(50)]
        assert stepped == list(seq)
        # take() continues the same stream
        state2 = RnsState(spec)
        mixed = list(state2.take(7)) + [state2.next_word()] + list(state2.take(42))
        assert mixed == list(seq)


@pytest.mark.parametrize("width", sorted(LFSR_TAPS))
def test_lfsr_words_read_each_seeded_sequence_by_index(width):
    # seed 0 and multiples of 2^n remap to state 1; seeds may exceed int64
    rng = np.random.default_rng(width)
    seeds = [0, 1 << width, 2**64 - 1, *rng.integers(0, 2**63, 5).tolist()]
    for count in (1, 3 << width if width <= 10 else 5):
        words = lfsr_words(width, np.array(seeds, dtype=np.uint64), count)
        assert words.shape == (len(seeds), count)
        for row, seed in zip(words, seeds):
            state = RnsState(RnsSpec("lfsr", width, seed))
            assert row.tolist() == [state.next_word() for _ in range(count)]


def test_register_peeks_next_word():
    state = RnsState(RnsSpec("counter", 4, 9))
    assert state.register == 9
    state.next_word()
    assert state.register == 10
    with pytest.raises(ValueError):
        RnsState(RnsSpec("bernoulli", 4, 1)).register


def test_complement_output_examples():
    assert complement_output(5, 3) == 2
    assert complement_output(0, 8) == 255
    sob = rns_sequence(RnsSpec("sobol_reversed_counter", 3, 0), 8)
    assert list(complement_output(sob, 3)) == [7, 3, 5, 1, 6, 2, 4, 0]


def test_spec_validation():
    with pytest.raises(ValueError):
        RnsSpec("xorshift", 8, 0)
    with pytest.raises(ValueError):
        RnsSpec("lfsr", 2, 0)
    with pytest.raises(ValueError):
        RnsSpec("counter", 17, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 10), st.integers(0, 2**63 - 1), st.integers(1, 200))
def test_sequence_extension_consistency(width, seed, count):
    spec = RnsSpec("permutation", width, seed)
    long = rns_sequence(spec, count + 10)
    assert list(long[:count]) == list(rns_sequence(spec, count))
