import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RnsState, SourceSpec, source_words
from scmux.rns import (
    KINDS,
    LFSR_TAPS,
    RnsSpec,
    _lfsr_position,
    _pool_word0,
    _source_starts,
    _source_table,
    complement_output,
    rns_sequence,
)


def test_sobol_is_bit_reversed_counter():
    seq = rns_sequence(RnsSpec("sobol_reversed_counter", 3), 8)
    assert list(seq) == [0, 4, 2, 6, 1, 5, 3, 7]


def test_counter_identity():
    assert list(rns_sequence(RnsSpec("counter", 3), 8)) == list(range(8))
    assert list(rns_sequence(RnsSpec("counter", 3), 12)[6:]) == [6, 7, 0, 1, 2, 3]


def test_lfsr_visits_all_nonzero_once():
    seq = rns_sequence(RnsSpec("lfsr", 3), 7)
    assert sorted(seq) == list(range(1, 8))
    # wraps around to the same cycle
    again = rns_sequence(RnsSpec("lfsr", 3), 14)
    assert list(again[:7]) == list(again[7:])


@pytest.mark.parametrize("width", sorted(LFSR_TAPS))
def test_lfsr_maximal_period_all_widths(width):
    seq = rns_sequence(RnsSpec("lfsr", width), (1 << width) - 1)
    assert np.unique(seq).size == (1 << width) - 1
    assert 0 not in seq


def test_lfsr_seed_zero_remaps_to_one():
    # from reset the LFSR emits state 1, where a seed congruent to 0 starts
    assert rns_sequence(RnsSpec("lfsr", 5), 1)[0] == 1
    for seed in (0, 32, 1):
        assert RnsState(SourceSpec("lfsr", 5, seed)).register == 1


@pytest.mark.parametrize("kind", ["counter", "sobol_reversed_counter"])
def test_full_period_histogram_flat(kind):
    seq = rns_sequence(RnsSpec(kind, 6), 64)
    assert np.bincount(seq, minlength=64).tolist() == [1] * 64


def test_van_der_corput_prefix_stratification():
    # every prefix of length 2^k has exactly one value per dyadic bucket
    n = 8
    seq = rns_sequence(RnsSpec("sobol_reversed_counter", n), 1 << n)
    for k in range(n + 1):
        prefix = seq[: 1 << k]
        buckets = prefix >> (n - k)
        assert sorted(buckets) == list(range(1 << k))


@pytest.mark.parametrize("kind", KINDS)
def test_determinism_and_statefulness(kind):
    # the oracle steps the source's register one cycle at a time; seed 0
    # checks the LFSR's remap of the all-0 state, and source_words reads the
    # same stream from its cached period
    assert list(rns_sequence(RnsSpec(kind, 5), 50)) == list(rns_sequence(RnsSpec(kind, 5), 50))
    for seed in (99, 0):
        spec = SourceSpec(kind, 5, seed)
        state = RnsState(spec)
        stepped = [state.next_word() for _ in range(50)]
        assert stepped == list(source_words(spec, 50))
        if seed == 0:
            assert stepped == list(rns_sequence(RnsSpec(kind, 5), 50))
        # take() continues the same stream
        state2 = RnsState(spec)
        mixed = list(state2.take(7)) + [state2.next_word()] + list(state2.take(42))
        assert mixed == stepped


@pytest.mark.parametrize("kind", KINDS)
def test_sequence_from_reset_matches_stepped_register(kind):
    for width in sorted(LFSR_TAPS):
        period = (1 << width) - (kind == "lfsr")
        for count in (0, 1, period, 2 * period + 3):
            seq = rns_sequence(RnsSpec(kind, width), count)
            assert seq.dtype == np.int64
            assert np.array_equal(seq, source_words(SourceSpec(kind, width), count)), (width, count)


def _seeds(width, rng):
    # seeds congruent to 0 and 1 (mod 2^n) both start at state 1; seeds may
    # exceed int64
    return [0, 1, 1 << width, (5 << width) + 1, 2**64 - 1, *rng.integers(0, 2**63, 5).tolist()]


def _start_row(kind, width, seed):
    # an LFSR seed's row is _lfsr_position[max(seed mod 2^n, 1)]; a counter
    # has one row, its run from reset, whatever the seed
    return _lfsr_position(width)[max(seed % (1 << width), 1)] if kind == "lfsr" else 0


def _seeded_words(kind, width, seed, count):
    # the oracle's words from the start a seed picks; a counter ignores it
    return source_words(SourceSpec(kind, width, seed if kind == "lfsr" else 0), count)


@pytest.mark.parametrize("width", sorted(LFSR_TAPS))
def test_lfsr_words_read_each_seeded_sequence_by_index(width):
    # every kind's words table holds each seed's sequence at its start's row
    rng = np.random.default_rng(width)
    seeds = _seeds(width, rng)
    for kind in KINDS:
        table = _source_table(kind, width, "words")
        assert table.shape == ((1 << width) - 1 if kind == "lfsr" else 1, 1 << width)
        if kind != "lfsr":
            assert np.array_equal(table[0], rns_sequence(RnsSpec(kind, width), 1 << width))
        for seed in seeds:
            row = table[_start_row(kind, width, seed)]
            assert np.array_equal(row, _seeded_words(kind, width, seed, 1 << width)), (kind, seed)


@pytest.mark.parametrize("width", [3, 9, 10, 16])
def test_lfsr_windows_hold_each_start_states_words(width):
    # for every kind, each form's row at a seed's start holds the oracle's
    # words, their WBG classes (the leading one's index, n for the word 0)
    # and their MSBs weighted by 2^(n - l) for level l; a counter's one row
    # is checked once
    count = 1 << width
    rng = np.random.default_rng(width)
    seeds = _seeds(width, rng)
    for kind in KINDS:
        rows = count - 1 if kind == "lfsr" else 1
        words = _source_table(kind, width, "words")
        classes = _source_table(kind, width, "wbg_classes")
        msbs = _source_table(kind, width, "level_msbs")
        assert words.shape == classes.shape == (rows, count)
        assert msbs.dtype == np.uint16 and msbs.shape == (width, rows, count)
        for seed in seeds if kind == "lfsr" else seeds[:1]:
            start = _start_row(kind, width, seed)
            expected = _seeded_words(kind, width, seed, count)
            assert np.array_equal(words[start], expected), (kind, seed)
            assert classes[start].tolist() == [
                int(w).bit_length() - 1 if w else width for w in expected
            ]
            for level in range(1, width + 1):
                weighted = (expected >> (width - 1)) << (width - level)
                assert np.array_equal(msbs[level - 1, start], weighted), (kind, seed, level)


@pytest.mark.parametrize("form", ["words", "wbg_classes", "level_msbs"])
def test_lfsr_windows_are_read_only(form):
    # every kind's table, in each form
    for kind in KINDS:
        table = _source_table(kind, 5, form)
        with pytest.raises(ValueError):
            table[..., 0] = 0
        # nor can a view of it be made writeable: the table under it is read-only
        with pytest.raises(ValueError):
            table.setflags(write=True)
    with pytest.raises(ValueError, match="unknown source table form"):
        _source_table("lfsr", 5, "bits")


@pytest.mark.parametrize("kind", ["counter", "sobol_reversed_counter"])
def test_counter_sources_read_row_zero_at_every_seed(kind):
    rng = np.random.default_rng(11)
    for n in (3, 9, 16):
        for seed in _seeds(n, rng):
            assert _source_starts(kind, seed, range(17), n).tolist() == [0] * 17
            assert _source_starts(kind, seed, [0], n).tolist() == [0]
        rows = _source_starts(kind, np.array(_seeds(n, rng), dtype=np.uint64), range(17), n)
        assert rows.shape == (10, 17) and not rows.any()
    # an LFSR's row does depend on the seed
    assert len({int(_source_starts("lfsr", s, [0], 9)[0]) for s in range(20)}) > 1


def test_register_peeks_next_word():
    state = RnsState(SourceSpec("counter", 4, 9))
    assert state.register == 9
    state.next_word()
    assert state.register == 10


def test_complement_output_examples():
    assert complement_output(5, 3) == 2
    assert complement_output(0, 8) == 255
    sob = rns_sequence(RnsSpec("sobol_reversed_counter", 3), 8)
    assert list(complement_output(sob, 3)) == [7, 3, 5, 1, 6, 2, 4, 0]


def test_spec_validation():
    for kind in ("xorshift", "permutation", "bernoulli"):
        with pytest.raises(ValueError, match="unknown RNS kind"):
            RnsSpec(kind, 8)
    with pytest.raises(ValueError):
        RnsSpec("lfsr", 2)
    with pytest.raises(ValueError):
        RnsSpec("counter", 17)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(KINDS), st.integers(3, 10), st.integers(1, 2100))
def test_sequence_extension_consistency(kind, width, count):
    # a longer request extends the same stream, across period wraps too
    spec = RnsSpec(kind, width)
    long = rns_sequence(spec, count + 10)
    assert list(long[:count]) == list(rns_sequence(spec, count))


def test_pool_word_matches_seed_sequence():
    # the master seed's pool word 0, in 32-bit arithmetic on a Python int and
    # on a uint64 array alike, across the one- and two-word seeds and their edges
    rng = np.random.default_rng(1618)
    seeds = [*range(50), 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**64 - 1,
             *rng.integers(0, 2**32, 300).tolist(), *rng.integers(0, 2**63, 300).tolist(),
             *rng.integers(0, 2**64 - 1, 300, dtype=np.uint64, endpoint=True).tolist()]
    expected = [int(np.random.SeedSequence(seed).pool[0]) for seed in seeds]
    words = [_pool_word0(seed) for seed in seeds]
    assert all(type(word) is int for word in words)
    assert words == expected
    array_words = _pool_word0(np.array(seeds, dtype=np.uint64))
    assert array_words.dtype == np.uint64
    assert array_words.tolist() == expected
