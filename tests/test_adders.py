import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ABLATION_NAMES,
    DESIGN_NAMES,
    LFSR_DESIGNS,
    SourceSpec,
    biased_tree_reference,
    biased_walk_per_level,
    bipolar_threshold,
    cemux_block_error,
    cemux_expected_mse,
    full_matrix_apc,
    full_matrix_run,
    pairing_tree,
    quantize_weights_transcription,
    source_words,
    spawned_seeds,
)
from scmux.adders import (
    AdderDesign,
    make_design,
    normalize_design_name,
    run_adder,
    run_apc,
    structural_report,
)
from scmux.analysis import accuracy_stats
from scmux.filterapp import make_lowpass
from scmux.muxtree import build_biased_selector_tree, quantize_weights
from scmux.rns import _lfsr_cycle, _lfsr_position, _source_starts, _source_table, wbg_bit_index
from scmux.sngen import PccKind, QuantizationWarning

# feature matrix rows: tree type, data pcc, select source, select pcc,
# full correlation, precise sampling
TABLE_FLAGS = {
    "cemux": ("hardwired", PccKind.COMPARATOR, "counter", None, True, True),
    "cemux_wbg": ("hardwired", PccKind.WBG, "counter", None, False, True),
    "cemux_biased": ("biased", PccKind.COMPARATOR, "lfsr", PccKind.WBG, True, False),
    "basic_hardwired": ("hardwired", PccKind.WBG, "lfsr", None, False, False),
    "basic_biased": ("biased", PccKind.WBG, "lfsr", PccKind.WBG, False, False),
    "apc": ("apc", PccKind.COMPARATOR, None, None, False, False),
}


def _select_wiring(d, w):
    """Select source and select PCC kind of a design on a two-input weight
    row, read off its structural report: a select counter or one LFSR per
    level beside the data source, and one select PCC per mux beyond the two
    data PCCs, if any."""
    if d.tree_type == "apc":
        return None, None
    r = structural_report(d, w)
    if r["select_counter_bits"]:
        assert r["rns_instances"] == 1
        source = "counter"
    else:
        assert r["rns_instances"] > 1
        source = "lfsr"
    pccs = {PccKind.COMPARATOR: r["comparators"], PccKind.WBG: r["wbgs"]}
    pccs[d.data_pcc] -= 2
    select_pccs = [k for k, count in pccs.items() if count]
    assert len(select_pccs) <= 1
    if select_pccs:
        assert pccs[select_pccs[0]] == r["muxes"]  # one select PCC per mux
    return source, select_pccs[0] if select_pccs else None


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_design_flags_match_feature_table(name):
    d = make_design(name, 8)
    assert (
        d.tree_type,
        d.data_pcc,
        *_select_wiring(d, [0.5, -0.25]),
        d.full_correlation,
        d.precise_sampling,
    ) == TABLE_FLAGS[name]


def test_design_name_normalization():
    assert normalize_design_name("CeMux-WBG") == "cemux_wbg"
    with pytest.raises(ValueError):
        normalize_design_name("mystery_adder")


@st.composite
def _weights_values_n(draw):
    w = draw(st.lists(st.floats(-1, 1).filter(lambda x: abs(x) > 1e-9), min_size=1, max_size=6))
    values = draw(st.lists(st.floats(-1, 1), min_size=len(w), max_size=len(w)))
    return w, values, draw(st.integers(3, 10))


def test_target_value_examples():
    for name in ("cemux", "cemux_biased"):

        def target(w, values, n):
            return run_adder(make_design(name, n), values, 1 << n, 0, w).target

        assert target([1.0, 1.0], [1.0, -1.0], 8) == 0.0
        # weights 4/8, 3/8, 1/8 and bipolar values 0.5, -0.25, 0.75 are exact
        # at n = 3, so the target is the exact weighted sum
        exact = 0.5 * 0.5 + 0.375 * -0.25 + 0.125 * 0.75
        assert target([1 / 2, 3 / 8, 1 / 8], [0.5, -0.25, 0.75], 3) == exact


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cemux", "cemux_biased"]), _weights_values_n(), st.integers(0, 2**64 - 1))
@example("cemux", ([1.0, 1.0], [1.0, -1.0], 8), 0)
def test_target_value_matches_exact_rational_oracle(name, case, seed):
    # the target is one correctly rounded division of an exact integer sum,
    # so it equals the rounded rational exactly
    w, values, n = case
    exact = Fraction(0)
    for wi, vi, num in zip(w, values, quantize_weights_transcription(w, n)):
        b = bipolar_threshold(vi, n)
        exact += (-1 if wi < 0 else 1) * Fraction(num, 1 << n) * (Fraction(2 * b, 1 << n) - 1)
    assert run_adder(make_design(name, n), values, 1 << n, seed, w).target == float(exact)


def test_fig8b_equal_correlated_inputs_exact():
    # four inputs of unipolar value 1/2 (bipolar 0), equal weights: the output
    # is a copy of the common stream, so the estimate is exact for every seed
    d = make_design("cemux", 6)
    for seed in (0, 1, 17, 999):
        rep = run_adder(d, [0.0] * 4, 64, seed, [0.25] * 4)
        assert rep.estimate == 0.0
        assert rep.error == 0.0


def test_cemux_block_rule_oracle_matches_simulation_exactly():
    # the oracle starts from transcribed numerators and exact thresholds and
    # never runs a stream, so exact equality ties the simulation to the
    # documented construction: counter blocks, bit-reversed data, and the
    # complemented source for negative inputs only when fully correlated
    rng = np.random.default_rng(1212)
    for _ in range(320):
        m_inputs = int(rng.integers(1, 49))
        n = int(rng.integers(3, 11))
        w = rng.uniform(-1, 1, m_inputs)
        w[rng.random(m_inputs) < 0.05] = 0.0
        if not np.any(w):
            w[0] = 1.0
        v = rng.uniform(-1, 1, m_inputs)
        # exact ends (codes 0 and 2^n) and values half-way between two codes
        pick = rng.random(m_inputs)
        ends = rng.choice([-1.0, 0.0, 1.0], m_inputs)
        ties = (2 * rng.integers(0, 1 << n, m_inputs) + 1) / (1 << n) - 1
        v = np.where(pick < 0.1, ends, np.where(pick < 0.2, ties, v))
        numerators = quantize_weights_transcription(w, n)
        signs = [-1 if x < 0 else 1 for x in w]
        thresholds = [bipolar_threshold(x, n) for x in v]
        seed = int(rng.integers(0, 2**63))
        for name, full_correlation in (("cemux", True), ("cemux_nofc", False)):
            rep = run_adder(make_design(name, n), v, 1 << n, seed, w)
            exact = cemux_block_error(numerators, signs, thresholds, n, full_correlation)
            assert Fraction(rep.error) == exact


def _kernel_config(rng):
    m_inputs = int(rng.integers(1, 65))
    n = int(rng.integers(3, 11))
    w = rng.uniform(-1, 1, m_inputs)
    w[rng.random(m_inputs) < 0.1] = 0.0
    # one weight of magnitude >= 1/2 keeps the APC's quantized mass positive
    w[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
    v = rng.uniform(-1, 1, m_inputs)
    pick = rng.random(m_inputs)
    ends = rng.choice([-1.0, 0.0, 1.0], m_inputs)
    ties = (2 * rng.integers(0, 1 << n, m_inputs) + 1) / (1 << n) - 1
    near = np.nextafter(ties, rng.choice([-np.inf, np.inf], m_inputs))
    v = np.select([pick < 0.15, pick < 0.25, pick < 0.35], [ends, ties, near], v)
    return w, v, n


# every mux design AdderDesign accepts: tree, data PCC, full correlation,
# precise sampling and a reset-counter or LFSR data source; the presets are
# nine of them
MUX_FEATURES = tuple(itertools.product(
    ("hardwired", "biased"),
    (PccKind.COMPARATOR, PccKind.WBG),
    (True, False),
    (True, False),
    ("sobol_reversed_counter", "lfsr"),
))


def test_run_kernel_matches_full_matrix_oracle_exactly():
    # the oracle generates every input's whole stream, takes hardwired owners
    # from the level-ordered blocks and, for biased trees, generates every
    # mux's select bits; the kernel generates one data bit and one select
    # path per cycle, with each input's sign inverter folded into its PCC
    rng = np.random.default_rng(4242)
    assert len(MUX_FEATURES) == 32
    assert {
        (d.tree_type, d.data_pcc, d.full_correlation, d.precise_sampling, d.data_rns_kind)
        for d in (make_design(name, 3) for name in DESIGN_NAMES + ABLATION_NAMES)
    } - {("apc", PccKind.COMPARATOR, False, False, "sobol_reversed_counter")} <= set(MUX_FEATURES)
    checked = set()
    for _ in range(300):
        w, v, n = _kernel_config(rng)
        seed = int(rng.integers(0, 2**63))
        rep = run_adder(make_design("apc", n), v, 1 << n, seed, w)
        assert (rep.estimate, rep.target, rep.error) == full_matrix_apc(w, v, 1 << n)
        assert rep.output_bits is None and rep.sampling_counts is None
        codes = np.array([bipolar_threshold(x, n) for x in v])
        if not np.all(quantize_weights(w, n)):
            checked.add("zero numerator")
        for tree_type, pcc, fc, ps, kind in MUX_FEATURES:
            d = AdderDesign(
                name=f"{tree_type}/{pcc.value}/fc={fc}/ps={ps}/{kind}", n=n,
                tree_type=tree_type, data_pcc=pcc, data_rns_kind=kind, full_correlation=fc,
                precise_sampling=ps,
            )
            with warnings.catch_warnings():
                # value 1 clamps on WBG data paths
                warnings.simplefilter("ignore", QuantizationWarning)
                rep = run_adder(d, v, 1 << n, seed, w)
                z, counts, estimate, target, error = full_matrix_run(d, v, 1 << n, seed, w)
            assert rep.output_bits.dtype == np.uint8, d.name
            assert np.array_equal(rep.output_bits, z), d.name
            assert np.array_equal(rep.sampling_counts, counts), d.name
            assert (rep.estimate, rep.target, rep.error) == (estimate, target, error), d.name
            sampled_neg = (w < 0) & (counts > 0)
            if pcc is PccKind.WBG and np.any(v == 1.0):
                checked.add("wbg clamp")
            if fc and np.any(sampled_neg):
                checked.add("complemented wiring")
                if pcc is PccKind.WBG:
                    checked.add("wbg full correlation")
            if np.any(sampled_neg & (codes == 0)):
                checked.add("negative input at code 0")
            if pcc is PccKind.COMPARATOR and np.any(sampled_neg & (codes == 1 << n)):
                checked.add("negative input at code N")
            # the reset source's first word is 0, the WBG class that outputs
            # 0 for any code, so only a negative input's inverter makes it 1
            if pcc is PccKind.WBG and not fc and kind != "lfsr" and z[0] == 1:
                checked.add("negative input on word 0")
    assert checked == {
        "wbg clamp", "complemented wiring", "wbg full correlation", "negative input at code 0",
        "negative input at code N", "negative input on word 0", "zero numerator",
    }


def test_run_kernel_matches_full_matrix_oracle_on_filter_size_biased_trees():
    # 100-150 taps, as in the filter study: depth-7 and depth-8 heaps whose
    # shallower leaves sit over padding muxes
    rng = np.random.default_rng(1618)
    depths, checked = set(), 0
    for _ in range(20):
        m_inputs = int(rng.integers(100, 151))
        n = int(rng.integers(8, 11))
        w = rng.uniform(-1, 1, m_inputs)
        w[rng.random(m_inputs) < 0.05] = 0.0
        v = rng.uniform(-1, 1, m_inputs)
        seed = int(rng.integers(0, 2**63))
        for name in ("cemux_biased", "basic_biased"):
            d = make_design(name, n)
            q = quantize_weights(w, n)
            active = np.count_nonzero(q)
            if active & (active - 1) == 0:
                continue  # no padding below a power-of-two count
            depths.add(int(active - 1).bit_length())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuantizationWarning)
                rep = run_adder(d, v, 1 << n, seed, w)
                z, counts, estimate, target, error = full_matrix_run(d, v, 1 << n, seed, w)
            assert np.array_equal(rep.output_bits, z), name
            assert np.array_equal(rep.sampling_counts, counts), name
            assert (rep.estimate, rep.target, rep.error) == (estimate, target, error), name
            checked += 1
    assert depths == {7, 8} and checked > 30


def _wiring(tree_type, pcc, fc, ps, kind, n):
    return AdderDesign(
        name=f"{tree_type}/{pcc.value}/fc={fc}/ps={ps}/{kind}", n=n, tree_type=tree_type,
        data_pcc=pcc, data_rns_kind=kind, full_correlation=fc, precise_sampling=ps,
    )


def _assert_same_report(rep, expected, name):
    assert rep.output_bits.dtype == expected.output_bits.dtype == np.uint8, name
    assert np.array_equal(rep.output_bits, expected.output_bits), name
    assert np.array_equal(rep.sampling_counts, expected.sampling_counts), name
    assert (rep.estimate, rep.target, rep.error) == (expected.estimate, expected.target, expected.error), name


def _assert_matches_oracle(rep, d, v, seed, w):
    z, counts, estimate, target, error = full_matrix_run(d, v, 1 << d.n, seed, w)
    assert np.array_equal(rep.output_bits, z), d.name
    assert np.array_equal(rep.sampling_counts, counts), d.name
    assert (rep.estimate, rep.target, rep.error) == (estimate, target, error), d.name


def test_chunk_kernel_matches_per_run_kernel_and_full_matrix_oracle():
    # one _fill_runs pass over a chunk, each run with its own weight row,
    # stores for every run the report the kernel gives the run alone and the
    # full-matrix oracle generates
    from scmux.adders import _fill_runs, _reports, _simulate

    rng = np.random.default_rng(9091)
    checked = set()
    for runs, n in ((1, 3), (2, 5), (7, 4), (6, 6), (5, 3)):
        m_inputs = int(rng.integers(4, 9))
        weights = rng.uniform(-1, 1, (runs, m_inputs))
        # row r keeps its first k_r inputs: biased heaps of unequal depth
        weights[np.arange(m_inputs) >= rng.integers(1, m_inputs + 1, (runs, 1))] = 0.0
        weights[rng.random((runs, m_inputs)) < 0.1] *= 1e-6  # zero numerators
        weights[:, 0] = rng.choice([-1.0, 1.0], runs) * rng.uniform(0.5, 1.0, runs)
        values = rng.uniform(-1, 1, (runs, m_inputs))
        values[rng.random((runs, m_inputs)) < 0.25] = -1.0  # code 0
        values[rng.random((runs, m_inputs)) < 0.25] = 1.0  # code N, clamped by a WBG
        seeds = rng.integers(0, 2**63, runs).tolist()
        nums = [quantize_weights(w, n) for w in weights]
        codes = np.array([[bipolar_threshold(x, n) for x in v] for v in values])
        checked.add("R = 1" if runs == 1 else "R > 1")
        if len({int(np.count_nonzero(q) - 1).bit_length() for q in nums}) > 1:
            checked.add("unequal heap depths")
        if any(np.any((q == 0) & (w != 0)) for q, w in zip(nums, weights)):
            checked.add("zero numerator")
        for features in MUX_FEATURES:
            d = _wiring(*features, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuantizationWarning)
                _fill_runs(d, weights, values, seeds)
                for w, v, seed, q, b in zip(weights, values, seeds, nums, codes):
                    rep = run_adder(d, v, 1 << n, seed, w)
                    assert rep is _reports[(d, seed, v.tobytes(), w.tobytes())]
                    _assert_same_report(rep, _simulate(d, w[None], v[None], [seed])[0], d.name)
                    _assert_matches_oracle(rep, d, v, seed, w)
                    sampled_neg = (w < 0) & (q > 0)
                    if np.any(sampled_neg & (b == 0)):
                        checked.add("negative input at code 0")
                    if d.data_pcc is PccKind.COMPARATOR and np.any(sampled_neg & (b == 1 << n)):
                        checked.add("negative input at code N")
                    if d.data_pcc is PccKind.WBG and np.any((q > 0) & (b == 1 << n)):
                        checked.add("wbg clamp")
    assert checked == {
        "R = 1", "R > 1", "unequal heap depths", "zero numerator", "negative input at code 0",
        "negative input at code N", "wbg clamp",
    }


def _slice_runs(reports):
    """Run counts of the slices a block's reports come from, in order, and each slice's bit-array size.

    A report's output_bits is a row of its slice's (R, 2^n) bit array.
    """
    slices = []
    for rep in reports:
        base = rep.output_bits.base
        if not slices or slices[-1][0] is not base:
            slices.append([base, 0])
        slices[-1][1] += 1
    return [(runs, base.size) for base, runs in slices]


def test_blocks_of_several_slices_match_the_run_alone_and_the_oracle(monkeypatch):
    # slices of 3 runs at n = 4, so a block of 8 runs spans slices of 3, 3
    # and a partial last one of 2; a fill builds its rows' owner maps only if
    # it has at most 3 distinct rows, and otherwise each slice builds its own
    import scmux.adders
    from scmux.adders import _fill_runs, _reports, _simulate, _tables

    monkeypatch.setattr(scmux.adders, "_CHUNK_ELEMENTS", 3 << 4)
    rng = np.random.default_rng(3131)
    n, runs, m_inputs = 4, 8, 6
    checked = set()
    for pattern in ([0, 1, 0, 0, 1, 1, 0, 1], list(range(runs))):
        rows = rng.uniform(-1, 1, (runs, m_inputs))
        # row r keeps its first k_r inputs: biased heaps of unequal depth
        rows[np.arange(m_inputs) >= rng.integers(1, m_inputs + 1, (runs, 1))] = 0.0
        rows[:, 0] = rng.choice([-1.0, 1.0], runs) * rng.uniform(0.5, 1.0, runs)
        weights = rows[pattern]
        values = rng.uniform(-1, 1, (runs, m_inputs))
        values[rng.random((runs, m_inputs)) < 0.2] = -1.0  # code 0
        seeds = rng.integers(0, 2**63, runs).tolist()
        for features in MUX_FEATURES:
            d = _wiring(*features, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuantizationWarning)
                _fill_runs(d, weights, values, seeds)
                reports = [run_adder(d, v, 1 << n, seed, w) for w, v, seed in zip(weights, values, seeds)]
                assert all(rep is _reports[(d, seed, v.tobytes(), w.tobytes())]
                           for rep, w, v, seed in zip(reports, weights, values, seeds))
                assert _slice_runs(reports) == [(3, 3 << n), (3, 3 << n), (2, 2 << n)], d.name
                for rep, w, v, seed in zip(reports, weights, values, seeds):
                    _assert_same_report(rep, _simulate(d, w[None], v[None], [seed])[0], d.name)
                    _assert_matches_oracle(rep, d, v, seed, w)
            if d.tree_type == "hardwired":
                built = {tree is not None for _, tree in _tables.values()}
                checked.add("fill's owner maps" if built == {True} else "slices' owner maps")
            depths = {int(np.count_nonzero(row) - 1).bit_length() for row in weights}
            if d.tree_type == "biased" and len(depths) > 1:
                checked.add("unequal heap depths")
            if d.data_rns_kind == "lfsr":
                checked.add("lfsr data source")
    assert checked == {"fill's owner maps", "slices' owner maps", "unequal heap depths", "lfsr data source"}

    # a block with a failing row, a value out of range or a NaN weight in its
    # last slice, raises and leaves the stored reports as they were
    stored = dict(_reports)
    for bad in ("value", "weight"):
        bad_weights, bad_values = weights.copy(), values.copy()
        if bad == "value":
            bad_values[7, 2] = 1.5
        else:
            bad_weights[7, 1] = math.nan
        with pytest.raises(ValueError):
            _fill_runs(d, bad_weights, bad_values, seeds)
        assert _reports.keys() == stored.keys()
        assert all(_reports[key] is rep for key, rep in stored.items())


@pytest.mark.parametrize("n", [10, 13])
def test_a_blocks_cycle_arrays_do_not_grow_with_the_block(n):
    # every array with a 2^n axis is a slice's, of at most 2^14 elements or
    # one run: a 128-run block's kernel needs at most 2^17 int64 elements
    # (1 MiB) of transient memory more than a block of one slice. One
    # unsliced (128, 2^n) int64 array takes 1 MiB at n = 10 and 8 MiB at
    # n = 13, and an unsliced kernel holds several at once
    import tracemalloc

    from scmux.adders import _chunk_runs, _simulate

    rng = np.random.default_rng(n)

    def transient(d, runs):
        weights, values = rng.uniform(-1, 1, (runs, 16)), rng.uniform(-1, 1, (runs, 16))
        seeds = rng.integers(0, 2**63, runs).tolist()
        tracemalloc.start()
        try:
            reports = _simulate(d, weights, values, seeds)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(cycles <= 1 << 14 or size == 1 for size, cycles in _slice_runs(reports))
        return peak - kept

    for features in MUX_FEATURES:
        d = _wiring(*features, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuantizationWarning)
            transient(d, 1)  # the source tables are built once
            one_slice = transient(d, _chunk_runs(1 << n))
            assert transient(d, 128) - one_slice <= 8 << 17, d.name


@pytest.mark.parametrize("name", ["cemux_nops", "basic_hardwired"])
def test_a_lone_run_gathers_its_level_selects_a_level_at_a_time(name):
    # at n = 16 a run's 16 level words per cycle are 2 MiB as one uint16
    # gather; gathered a level at a time, a lone run's transient memory stays
    # within three int64 arrays of 2^16 cycles (the owners, the sampled codes
    # and the select with its level)
    import tracemalloc

    from scmux.adders import _simulate

    rng = np.random.default_rng(16)
    d = make_design(name, 16)
    weights, values = rng.uniform(-1, 1, (1, 16)), rng.uniform(-1, 1, (1, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuantizationWarning)
        _simulate(d, weights, values, [5])  # the tables are built once
        tracemalloc.start()
        try:
            _simulate(d, weights, values, [6])
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - kept <= 3 * (8 << 16)


def test_block_runs_bound_each_blocks_rows_and_tables():
    # a block holds at most 128 runs, its (R, M) rows at most 2^14 elements
    # and its largest per-run table at most 2^17, or it holds one run
    from scmux.adders import _block_runs

    for name in DESIGN_NAMES + ABLATION_NAMES:
        for n in (3, 4, 9, 10, 16):
            d = make_design(name, n)
            for m in (1, 2, 16, 150, 1000, 1 << 16):
                runs = _block_runs(d, m)
                if d.tree_type == "apc":
                    table = m * (n + 2)  # the terms
                elif d.tree_type == "biased":
                    table = ((1 << (m - 1).bit_length()) - 1) * (n + 1)  # the step tables
                else:
                    table = (n + 1) * m  # the numerator bits an owner-map build reads
                assert 1 <= runs <= 128
                assert runs == 1 or (runs * m <= 1 << 14 and runs * table <= 1 << 17), (name, n, m)
                # and no smaller bound holds one run more
                assert runs == 128 or (runs + 1) * m > 1 << 14 or (runs + 1) * table > 1 << 17
    # the filter study's APC at n = 4 and 150 taps keeps its 109-run blocks
    assert _block_runs(make_design("apc", 4), 150) == 109
    assert _block_runs(make_design("apc", 9), 150) == 79


def test_accuracy_stats_chunks_match_the_per_run_kernel_and_oracle(monkeypatch):
    # blocks of 9 runs at M = 5 and slices of 3 runs at n = 4, so 20 runs fill
    # blocks of 9, 9 and 2, in slices of 3 and a partial last slice; every
    # run's report is the one it gets alone, and the oracle's
    import scmux.adders
    from scmux.adders import _simulate

    monkeypatch.setattr(scmux.adders, "_CHUNK_ELEMENTS", 3 << 4)
    calls = []
    run = scmux.adders.run_adder

    def recorded(d, v, big_n, seed, w):
        calls.append((v, seed, w, run(d, v, big_n, seed, w)))
        return calls[-1][-1]

    monkeypatch.setattr(scmux.adders, "run_adder", recorded)
    for features in MUX_FEATURES:
        d = _wiring(*features, 4)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuantizationWarning)
            stats = accuracy_stats(d, [0.4, -0.3, 0.2, 0.1, 0.05], 20, 31, "uniform")
            assert stats.runs == len(calls) == 20
            for v, seed, w, rep in calls:
                _assert_same_report(rep, _simulate(d, w[None], v[None], [seed])[0], d.name)
                _assert_matches_oracle(rep, d, v, seed, w)


def test_stored_reports_are_read_only_and_keyed_by_the_whole_run():
    from scmux.adders import _fill_runs, _reports

    rng = np.random.default_rng(404)
    d = make_design("basic_biased", 6)
    weights, values = rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, (3, 5))
    seeds = rng.integers(0, 2**63, 3).tolist()
    _fill_runs(d, weights, values, seeds)
    stored = run_adder(d, values[0], 64, seeds[0], weights[0])
    assert stored is _reports[(d, seeds[0], values[0].tobytes(), weights[0].tobytes())]
    for arr in (stored.output_bits, stored.sampling_counts):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    # the checks come first: rows holding a stored run's bytes in the wrong
    # shape still raise
    with pytest.raises(ValueError) as exc:
        run_adder(d, values[0], 64, seeds[0], weights[0][None])
    assert str(exc.value) == "weights must be a non-empty 1-d sequence"
    with pytest.raises(ValueError) as exc:
        run_adder(d, values[0][None], 64, seeds[0], weights[0])
    assert str(exc.value) == "values and weights must have equal length"
    # a call that differs from every stored run, in its values, its weights
    # (the doubled row quantizes alike), its seed or its design, runs alone
    flipped = values[0].copy()
    flipped[1] = -flipped[1]
    for call_d, v, seed, w in (
        (d, flipped, seeds[0], weights[0]),
        (d, values[0], seeds[0], 2 * weights[0]),
        (d, values[0], seeds[0], weights[1]),
        (d, values[0], seeds[1], weights[0]),
        (make_design("cemux_biased", 6), values[0], seeds[0], weights[0]),
    ):
        rep = run_adder(call_d, v, 64, seed, w)
        assert all(rep is not report for report in _reports.values())
        _assert_matches_oracle(rep, call_d, v, seed, w)


# master seeds among whose sources 0-3, those of a run at n = 3, one has a
# seed congruent to 0 and another to 1 (mod 8), found by searching
# SeedSequence spawns: (master seed, index of the source at 0, index of the
# source at 1)
FOLDED_SEEDS = ((2**63 + 25, 0, 3), (2**63 + 32, 1, 3), (2**63 + 71, 3, 0))


@pytest.mark.parametrize("n", [3, 10, 16])
def test_lfsr_table_runs_match_full_matrix_oracle(n):
    # at the narrowest width, a filter-study width and the widest; at n = 16
    # only the hardwired trees, whose oracle generates its owners per level
    # rather than per cycle. At n = 3 the folded seeds start a source from a
    # seed congruent to 0 (mod 8), at state 1.
    names = [name for name in LFSR_DESIGNS if n < 16 or "biased" not in name]
    rng = np.random.default_rng(n)
    seeds = rng.integers(0, 2**63, 2).tolist()
    if n == 3:
        seeds += [seed for seed, _, _ in FOLDED_SEEDS]
    for seed in seeds:
        m_inputs = int(rng.integers(2, 12))
        w = rng.uniform(-1, 1, m_inputs)
        v = rng.uniform(-1, 1, m_inputs)
        for name in names:
            d = make_design(name, n)
            rep = run_adder(d, v, 1 << n, seed, w)
            z, counts, estimate, target, error = full_matrix_run(d, v, 1 << n, seed, w)
            assert np.array_equal(rep.output_bits, z), (name, seed)
            assert np.array_equal(rep.sampling_counts, counts), (name, seed)
            assert (rep.estimate, rep.target, rep.error) == (estimate, target, error), name


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 16),
    st.lists(st.sampled_from([0.0, 1e-6, 0.01, 0.3, 1.0, 7.0]), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
@example(3, [0.0, 1.0, 0.0], 0)  # depth 0: one active input
@example(16, [0.0, 1.0, 7.0, 0.3], 1)  # padded heap: a code-0 mux above a leaf
def test_step_table_walk_matches_per_level_walk(n, weights, words_seed):
    from scmux.adders import _biased_walk, _fill_tables, _tables

    if not any(weights):
        return
    q = quantize_weights(weights, n)
    heap, leaf_owner = build_biased_selector_tree(q)
    # a fresh fill: an entry an earlier fill left has that fill's depth
    _tables.clear()
    _fill_tables(make_design("cemux_biased", n), [weights])
    nums, (step, cached_owner) = _tables[(np.array(weights).tobytes(), n, "biased")]
    assert np.array_equal(nums, q)
    assert np.array_equal(cached_owner, leaf_owner)
    depth = leaf_owner.size.bit_length() - 1
    # uniform words plus a word of every WBG class (the word 0 among them) at
    # every level
    rng = np.random.default_rng(words_seed)
    classes = np.array([*(1 << k for k in range(n)), 0])
    select = np.hstack((
        rng.integers(0, 1 << n, (depth, 64)),
        np.tile(classes, (depth, 1)),
        rng.permuted(np.tile(classes, (depth, 4)), axis=1),
    ))
    expected = biased_walk_per_level(heap, leaf_owner, select, n)
    walked = _biased_walk(step[None], leaf_owner[None], wbg_bit_index(select, n), np.arange(depth)[None])[0]
    assert np.array_equal(walked, expected)
    # and on the WBG class table a run reads, from random start positions
    starts = rng.integers(0, (1 << n) - 1, depth)
    select = np.array([source_words(SourceSpec("lfsr", n, state), 1 << n)
                       for state in _lfsr_cycle(n)[starts]]).reshape(depth, 1 << n)
    assert np.array_equal(
        _biased_walk(step[None], leaf_owner[None], _source_table("lfsr", n, "wbg_classes"), starts[None])[0],
        biased_walk_per_level(heap, leaf_owner, select, n),
    )


def test_seed_expansion_matches_fixed_spawn():
    # a fixed-size spawn assigns child i the seed SeedSequence(seed,
    # spawn_key=(i,)) gives, for every source index a tree can have
    for seed in (0, 1, 7, 2**32 + 5, 2**63 - 1):
        seeds = spawned_seeds(seed, 17)
        for n in (3, 9, 16):
            states = [max(s % (1 << n), 1) for s in seeds]
            expected = _lfsr_position(n)[states].tolist()
            assert _source_starts("lfsr", seed, range(17), n).tolist() == expected
    # over 10,000 more master seeds, against numpy's SeedSequence
    rng = np.random.default_rng(6174)
    seeds = [*range(50), 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1,
             *rng.integers(0, 2**63, 9_000).tolist(), *rng.integers(0, 2**32, 1_000).tolist(),
             *(seed for seed, _, _ in FOLDED_SEEDS)]
    indices = (0, 1, 5, 12)
    # and as one uint64 array, a row per seed
    rows = {n: _source_starts("lfsr", np.array(seeds, dtype=np.uint64), indices, n)
            for n in (3, 9, 16)}
    assert all(r.shape == (len(seeds), len(indices)) for r in rows.values())
    for k, seed in enumerate(seeds):
        spawned = [
            int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1, np.uint64)[0])
            for i in indices
        ]
        for n in (3, 9, 16):
            states = [max(s % (1 << n), 1) for s in spawned]
            expected = _lfsr_position(n)[states].tolist()
            assert _source_starts("lfsr", seed, indices, n).tolist() == expected, (seed, n)
            assert rows[n][k].tolist() == expected, (seed, n)
    # a seed congruent to 0 (mod 2^n) starts where one congruent to 1 does,
    # at state 1
    for seed, at_zero, at_one in FOLDED_SEEDS:
        residues = [
            int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1, np.uint64)[0]) % 8
            for i in (at_zero, at_one)
        ]
        assert residues == [0, 1]
        assert _source_starts("lfsr", seed, [at_zero, at_one], 3).tolist() == [0, 0]


def test_lfsr_runs_read_the_same_starts_with_or_without_a_fill():
    # a run's report comes from the last fill when it holds the run at the
    # run's width, and from the kernel run alone otherwise; both read the same
    # LFSR starts
    import scmux.adders
    from scmux.adders import _fill_runs

    rng = np.random.default_rng(2718)
    seeds = [*rng.integers(0, 2**63, 3).tolist(), 2**64 - 1, FOLDED_SEEDS[0][0]]
    others = rng.integers(0, 2**63, 5).tolist()
    w, v = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
    try:
        for name in LFSR_DESIGNS:
            for n in (3, 10):
                d = make_design(name, n)
                for seed in seeds:
                    reports = []
                    # the fill holds the run's seed; another chunk's seeds; the
                    # run's seed at another width; nothing
                    for fill, width in (([*others, seed], n), (others, n), ([seed], n + 1), ([], n)):
                        scmux.adders._reports.clear()
                        if fill:
                            _fill_runs(make_design(name, width), [w] * len(fill), [v] * len(fill), fill)
                        stored = (d, seed, v.tobytes(), w.tobytes()) in scmux.adders._reports
                        assert stored == (seed in fill and width == n)
                        reports.append(run_adder(d, v, 1 << n, seed, w))
                    for rep in reports[1:]:
                        assert np.array_equal(rep.output_bits, reports[0].output_bits), name
                        assert np.array_equal(rep.sampling_counts, reports[0].sampling_counts)
                        assert (rep.estimate, rep.target, rep.error) == (
                            reports[0].estimate, reports[0].target, reports[0].error)
    finally:
        scmux.adders._reports.clear()


def test_run_adder_rejects_seeds_outside_64_bits():
    w = [0.5, -0.25, 0.125]
    for name in ("cemux", "basic_biased", "apc"):
        d = make_design(name, 5)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError) as exc:
                run_adder(d, [0.1, 0.2, -0.3], 32, seed, w)
            assert str(exc.value) == f"seed must lie in [0, 2^64), got {seed}"
        run_adder(d, [0.1, 0.2, -0.3], 32, 2**64 - 1, w)
    # the largest seed still expands as SeedSequence does
    d = make_design("basic_biased", 5)
    rep = run_adder(d, [0.1, 0.2, -0.3], 32, 2**64 - 1, w)
    z, counts, *_ = full_matrix_run(d, [0.1, 0.2, -0.3], 32, 2**64 - 1, w)
    assert np.array_equal(rep.output_bits, z)
    assert np.array_equal(rep.sampling_counts, counts)


def test_cemux_expected_error_ignores_sign_pattern():
    # complemented wiring maps a negative input's error at code B to a
    # positive input's at 2^n - B, and the threshold law is symmetric
    numerators = [64] * 8
    alternating = [1, -1] * 4
    plus = cemux_expected_mse(numerators, [1] * 8, 9)
    assert cemux_expected_mse(numerators, alternating, 9) == plus
    assert plus == Fraction(8 * 63, 3 * 64 * 512**2)  # M(1 - 1/M^2)/(3 N^2)
    # without it the odd-index inputs, whose blocks hold the upper strata,
    # turn their negative count bias into a positive one
    assert cemux_expected_mse(numerators, alternating, 9, False) > plus


def test_all_ones_saturation():
    d = make_design("cemux", 5)
    rep = run_adder(d, [1.0, 1.0, 1.0], 32, 3, [0.3, 0.6, 0.1])
    assert rep.estimate == 1.0


def test_eq6_full_period_error_bound():
    # exhaustive oracle over the 4-bit value grid puts the worst full-period
    # error at 1.25 output counts (0.15625); the loose structural bound is
    # 2 * popcount(q) / N with q = (8, 6, 2)
    import itertools

    w = [1 / 2, 3 / 8, 1 / 8]
    d = make_design("cemux", 4)
    grid = [k / 8 - 1 for k in range(17)]
    worst = max(
        abs(run_adder(d, list(v), 16, 0, w).error) for v in itertools.product(grid, repeat=3)
    )
    assert worst == pytest.approx(0.15625, abs=1e-12)
    assert worst <= 2 * 4 / 16


def test_reports_are_deterministic():
    d, w = make_design("basic_biased", 7), [0.4, -0.2, 0.4]
    a = run_adder(d, [0.1, 0.9, -0.5], 128, 42, w)
    b = run_adder(d, [0.1, 0.9, -0.5], 128, 42, w)
    assert a.estimate == b.estimate
    assert np.array_equal(a.output_bits, b.output_bits)
    assert np.array_equal(a.sampling_counts, b.sampling_counts)
    c = run_adder(d, [0.1, 0.9, -0.5], 128, 43, w)
    # a different seed moves the noisy selects
    assert not np.array_equal(c.output_bits, a.output_bits)


@pytest.mark.parametrize("name", ["cemux", "cemux_wbg"])
def test_precise_designs_sample_counts_exact(name):
    rng = np.random.default_rng(11)
    for _ in range(20):
        m_inputs = int(rng.integers(1, 12))
        w = rng.uniform(-1, 1, m_inputs)
        if not np.any(w):
            continue
        n = int(rng.integers(3, 9))
        d = make_design(name, n)
        rep = run_adder(d, rng.uniform(-1, 1, m_inputs), 1 << n, int(rng.integers(0, 2**63)), w)
        q = quantize_weights(w, n)
        assert rep.sampling_counts.tolist() == q.tolist()


def test_estimates_always_in_range():
    rng = np.random.default_rng(13)
    for name in DESIGN_NAMES:
        for _ in range(10):
            m_inputs = int(rng.integers(1, 9))
            w = rng.uniform(-1, 1, m_inputs)
            if not np.any(w):
                continue
            d = make_design(name, 6)
            rep = run_adder(d, rng.uniform(-1, 1, m_inputs), 64, int(rng.integers(0, 2**63)), w)
            assert -1.0 <= rep.estimate <= 1.0


def test_run_adder_validation():
    # every preset runs exactly 2^n cycles, the APC included
    for name in DESIGN_NAMES + ABLATION_NAMES:
        d = make_design(name, 5)
        for big_n in (16, 64):
            with pytest.raises(ValueError, match=r"stream length must be 2\^n = 32"):
                run_adder(d, [0.5, 0.5], big_n, 0, [0.5, -0.5])
    d = make_design("cemux", 5)
    with pytest.raises(ValueError):
        run_adder(d, [1.5, 0.0], 32, 0, [1.0, 1.0])
    # a 2-d row has the bytes of its 1-d form, so it must not reach the
    # cached tables of that form
    for name in ("cemux", "apc"):
        d = make_design(name, 5)
        run_adder(d, [0.25, 0.25], 32, 0, [0.5, 0.5])
        with pytest.raises(ValueError) as exc:
            run_adder(d, [0.25, 0.25], 32, 0, [[0.5, 0.5]])
        assert str(exc.value) == "weights must be a non-empty 1-d sequence"
    for n in (2, 17):
        with pytest.raises(ValueError) as exc:
            make_design("cemux", n)
        assert str(exc.value) == "precision n must be in [3, 16]"


def test_nan_inputs_rejected_before_quantization():
    nan = float("nan")
    for name in ("cemux", "basic_biased", "apc"):
        d = make_design(name, 5)
        with pytest.raises(ValueError, match="outside"):
            run_adder(d, [0.25, nan], 32, 0, [0.5, -0.5])
    with pytest.raises(ValueError, match="must lie in"):
        run_apc([0.5, nan], [0.25, 0.25], 32)
    with pytest.raises(ValueError, match="must be finite"):
        run_adder(make_design("cemux", 5), [0.25, 0.25], 32, 0, [0.5, nan])


@pytest.mark.parametrize("name", ["cemux", "cemux_biased"])
def test_weights_differing_in_sign_share_one_tree_entry(name, monkeypatch):
    import scmux.adders

    w = [0.4, -0.25, 0.2, -0.1, 0.05]
    d = make_design(name, 6)
    values = [0.5, -0.25, 0.75, 0.0, -1.0]
    first = run_adder(d, values, 64, 3, w)
    entry = scmux.adders._tables[(np.abs(w).tobytes(), 6, d.tree_type)]

    def miss(*args):
        raise AssertionError("the flipped weights missed the cache")

    # a miss rebuilds the tables, quantizing the weights first
    monkeypatch.setattr(scmux.adders, "_quantize_rows", miss)
    rep = run_adder(d, values, 64, 3, [-x for x in w])
    assert scmux.adders._tables[(np.abs(w).tobytes(), 6, d.tree_type)] is entry
    # the same tree, with every sign inverter flipped
    assert rep.target == -first.target
    assert np.array_equal(rep.sampling_counts, first.sampling_counts)


OVERFLOW = "weights must be finite: the sum of their magnitudes overflows"
APC_RANGE = "APC coefficient values |w_i| must lie in [0, 1]"


# each bad row with its message on the run path, where a mux design's fill
# keys and quantizes magnitudes, so -inf is reported as inf, and the APC
# checks its coefficient range and quantized mass; then its message from
# structural_report, whose quantizer reads the signed row
@pytest.mark.parametrize("row, run_message, apc_message, report_message", [
    ([0.5, math.nan], "weights must be finite, got nan", APC_RANGE,
     "weights must be finite, got nan"),
    ([0.5, math.inf], "weights must be finite, got inf", APC_RANGE,
     "weights must be finite, got inf"),
    ([-math.inf, 0.5], "weights must be finite, got inf", APC_RANGE,
     "weights must be finite, got -inf"),
    ([1e308, -1e308], OVERFLOW, APC_RANGE, OVERFLOW),
    ([0.0, -0.0], "zero weight mass", "zero weight mass after quantization", "zero weight mass"),
], ids=["nan", "inf", "-inf", "overflow", "zero mass"])
@pytest.mark.parametrize("name", DESIGN_NAMES + ABLATION_NAMES)
def test_bad_weight_rows_are_rejected_where_they_are_used(
    name, row, run_message, apc_message, report_message
):
    from scmux.adders import _tables

    d = make_design(name, 5)
    keys = set(_tables)
    # a cached entry would let the second run through as a hit
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            run_adder(d, [0.25, 0.25], 32, 0, row)
        assert str(exc.value) == (apc_message if name == "apc" else run_message)
        assert set(_tables) == keys
    with pytest.raises(ValueError) as exc:
        structural_report(d, row)
    assert str(exc.value) == report_message
    assert set(_tables) == keys


@pytest.mark.parametrize("name", ["cemux", "cemux_biased"])
def test_a_bad_row_fails_its_whole_fill_and_leaves_no_entry(name, monkeypatch):
    import scmux.adders
    from scmux.adders import _fill_tables, _tables

    d = make_design(name, 7)
    good = [[0.0625, 0.9375 + 2**-40], [0.3 + 2**-40, -0.7], [-0.0625, 0.9375 + 2**-40]]
    _fill_tables(d, good)
    # the cache holds exactly the fill's distinct magnitude rows
    assert _tables.keys() == {(row.tobytes(), 7, d.tree_type) for row in np.abs(good)}
    entries = dict(_tables)
    # an entry views the fill's blocks, so no run may write through it
    for nums, tree in entries.values():
        arrays = (nums, *tree) if isinstance(tree, tuple) else (nums, tree)
        assert not any(arr.flags.writeable for arr in arrays)
    # the fill keys and quantizes magnitudes, so -inf is reported as inf
    for bad, message in (
        ([0.5, math.nan], "weights must be finite, got nan"),
        ([-math.inf, 0.5], "weights must be finite, got inf"),
        ([1e308, -1e308], "weights must be finite: the sum of their magnitudes overflows"),
        ([0.0, -0.0], "zero weight mass"),
    ):
        block = np.array([good[0], bad, [0.25, 0.75]])
        with pytest.raises(ValueError) as exc:
            _fill_tables(d, block)
        assert str(exc.value) == message
        # the last good fill's entries stay, the same objects
        assert _tables.keys() == entries.keys()
        assert all(_tables[key] is entry for key, entry in entries.items())

    # a fill whose rows are all present builds nothing
    def build(*args):
        raise AssertionError("a fill of cached rows quantized again")

    monkeypatch.setattr(scmux.adders, "_quantize_rows", build)
    _fill_tables(d, [good[1], good[2]])
    assert _tables.keys() == entries.keys()
    assert all(_tables[key] is entry for key, entry in entries.items())


@pytest.mark.parametrize("name", ["cemux_biased", "basic_biased"])
def test_a_one_row_fill_reads_the_deeper_entry_an_earlier_mixed_fill_left(name):
    from scmux.adders import _fill_tables, _tables

    n = 5
    d = make_design(name, n)
    # two active inputs, one level of its own; five active inputs, three levels
    shallow, deep = [0.5, 0.0, -0.5, 0.0, 0.0], [0.3, -0.2, 0.25, 0.1, -0.15]
    _fill_tables(d, [shallow, deep])
    entry = _tables[(np.abs(shallow).tobytes(), n, "biased")]
    assert entry[1][1].size == 8
    assert build_biased_selector_tree(quantize_weights(shallow, n))[1].size == 2
    values = [0.75, -0.5, -1.0, 0.25, 1.0]
    rep = run_adder(d, values, 1 << n, 77, shallow)
    # the run's one-row fill hits the mixed fill's entry
    assert _tables[(np.abs(shallow).tobytes(), n, "biased")] is entry
    _assert_matches_oracle(rep, d, np.array(values), 77, np.array(shallow))
    # and equals a run on a fresh fill, whose tree has its own depth
    _tables.clear()
    fresh = run_adder(d, values, 1 << n, 77, shallow)
    assert _tables[(np.abs(shallow).tobytes(), n, "biased")][1][1].size == 2
    _assert_same_report(rep, fresh, name)


def test_apc_trivials():
    rep = run_apc([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 64)
    assert rep.estimate == 1.0
    rep1 = run_apc([0.5], [0.5], 1024)
    assert rep1.error == pytest.approx(0.0, abs=0.02)  # single XNOR multiplier


@pytest.mark.parametrize("weights, values, big_n, message", [
    ([0.5, 0.25], [0.1, 0.2], 0,
     "stream length must be a power of two with 3 <= log2(N) <= 16"),
    ([0.5, 0.25], [0.1, 0.2], 48,
     "stream length must be a power of two with 3 <= log2(N) <= 16"),
    ([0.5, 0.25], [0.1, 0.2], 1 << 17,
     "stream length must be a power of two with 3 <= log2(N) <= 16"),
    ([], [], 16, "weights must be a non-empty 1-d sequence"),
    ([[0.5], [0.25]], [0.1, 0.2], 16, "weights must be a non-empty 1-d sequence"),
    (([0.5, 0.25], [0.1, 0.2]), [0.1, 0.2], 16, "weights must be a non-empty 1-d sequence"),
    ([0.5, 0.25], [0.1], 16, "values and weights must have equal length"),
    ([1e-3, -1e-3], [0.1, 0.2], 16, "zero weight mass after quantization"),
    # a row failing more than one check raises the first: values, then
    # coefficients, then mass
    ([0.5, 0.25], [0.1, 1.5], 16, "bipolar values must lie in [-1, 1]; input value 1.5 is outside"),
    ([1.5, 0.25], [math.nan, 0.2], 16,
     "bipolar values must lie in [-1, 1]; input value nan is outside"),
    ([0.5, -1.5], [0.1, 0.2], 16, APC_RANGE),
    ([math.nan, 0.0], [0.1, 0.2], 16, APC_RANGE),
    ([2.0, 1e-3], [0.1, 0.2], 16, APC_RANGE),
])
def test_apc_input_errors(weights, values, big_n, message):
    import scmux.adders
    from scmux.adders import _fill_runs

    with pytest.raises(ValueError) as exc:
        run_apc(weights, values, big_n)
    assert str(exc.value) == message
    n = big_n.bit_length() - 1
    if not 3 <= n <= 16 or big_n != 1 << n:
        return
    # run_adder makes the same checks, and a chunk whose runs before this
    # one pass them raises the same message and keeps the stored reports
    d = make_design("apc", n)
    with pytest.raises(ValueError) as exc:
        run_adder(d, values, big_n, 5, weights)
    assert str(exc.value) == message
    w, v = np.asarray(weights, dtype=np.float64), np.asarray(values, dtype=np.float64)
    if w.ndim != 1 or w.size == 0 or v.shape != w.shape:
        return
    good_w, good_v = np.full(w.size, 0.5), np.linspace(-1.0, 1.0, w.size)
    _fill_runs(d, [good_w], [good_v], [7])
    stored = dict(scmux.adders._reports)
    with pytest.raises(ValueError) as exc:
        _fill_runs(d, [good_w, w, good_w], [good_v, v, good_v], [1, 2, 3])
    assert str(exc.value) == message
    assert scmux.adders._reports.keys() == stored.keys()
    assert all(scmux.adders._reports[key] is rep for key, rep in stored.items())


def test_apc_matches_full_matrix_oracle_at_filter_size():
    rng = np.random.default_rng(31)
    for taps in (100, 150):
        h = np.array(make_lowpass(taps, 0.1 * math.pi).coefficients)
        h *= np.where(rng.random(taps) < 0.3, -1.0, 1.0)
        h[rng.random(taps) < 0.1] = 0.0
        for n in range(4, 11):
            w = h.copy()
            # taps below 2^-n quantize to code 2^(n-1), a coefficient of 0
            tiny = rng.random(taps) < 0.2
            w[tiny] = rng.uniform(-1, 1, int(tiny.sum())) / (1 << n)
            assert all(bipolar_threshold(abs(x), n) == 1 << (n - 1) for x in w[tiny])
            d = make_design("apc", n)
            for _ in range(3):
                v = rng.uniform(-1, 1, taps)
                seed = int(rng.integers(0, 2**63))
                rep = run_adder(d, v, 1 << n, seed, w)
                assert (rep.estimate, rep.target, rep.error) == full_matrix_apc(w, v, 1 << n)
                again = run_adder(d, v, 1 << n, seed, w)
                assert (again.estimate, again.target, again.error) == (
                    rep.estimate, rep.target, rep.error)


def _reversed_count_brute(a, b, n):
    """#{t < a : rev_n(t) < b}, read off the bit-reversed counter's words."""
    words = source_words(SourceSpec("sobol_reversed_counter", n), 1 << n)
    return int(np.count_nonzero(words[:a] < b))


def _reversed_count(a, b, n):
    from scmux.adders import _count_terms

    offsets, shifts, counts = _count_terms(b, n)
    return (((np.asarray(a)[..., None] + offsets) >> shifts) * counts).sum(axis=-1)


@pytest.mark.parametrize("n", range(1, 9))
def test_reversed_count_closed_form_matches_brute_force_for_every_pair(n):
    # brute[a, b] counts the words below b among the first a
    codes = np.arange((1 << n) + 1)
    below = source_words(SourceSpec("sobol_reversed_counter", n), 1 << n) < codes[:, None]
    brute = np.concatenate((np.zeros((1, codes.size), int), np.cumsum(below, axis=1).T))
    assert np.array_equal(brute, brute.T)
    assert np.array_equal(_reversed_count(codes[:, None], codes[None, :], n), brute)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 1 << n), st.integers(0, 1 << n))))
@example((16, 1 << 16, 1 << 16))
@example((16, 0, 40503))
@example((16, 32769, 32768))
def test_reversed_count_closed_form_matches_brute_force_up_to_16_bits(case):
    n, a, b = case
    assert _reversed_count(a, b, n) == _reversed_count(b, a, n) == _reversed_count_brute(a, b, n)


def _assert_apc_matches_oracle(rep, w, v, n):
    assert (rep.estimate, rep.target, rep.error) == full_matrix_apc(w, v, 1 << n)
    assert rep.output_bits is None and rep.sampling_counts is None


def test_apc_chunks_match_full_matrix_oracle_exactly():
    # one _fill_runs pass over a chunk, each run with its own weight row,
    # stores the report that run_apc gives the run alone and that the oracle
    # reads off both (M, N) bit matrices
    from scmux.adders import _fill_runs, _reports

    rng = np.random.default_rng(2025)
    checked = set()
    for runs, n, m_inputs in ((1, 3, 5), (4, 3, 1), (6, 5, 9), (3, 8, 40), (2, 16, 6), (1, 16, 3)):
        weights = rng.uniform(-1, 1, (runs, m_inputs))
        weights[:, 0] = rng.choice([-1.0, 1.0], runs) * rng.uniform(0.5, 1.0, runs)
        # taps below 2^-n quantize to code 2^(n-1), a coefficient of 0
        tiny = rng.random((runs, m_inputs)) < 0.2
        tiny[:, 0] = False
        weights[tiny] = rng.uniform(-1, 1, int(tiny.sum())) / (1 << n)
        weights[rng.random((runs, m_inputs)) < 0.1] = -1.0
        values = rng.uniform(-1, 1, (runs, m_inputs))
        values[rng.random((runs, m_inputs)) < 0.2] = -1.0  # code 0
        values[rng.random((runs, m_inputs)) < 0.2] = 1.0  # code N
        seeds = rng.integers(0, 2**63, runs).tolist()
        d = make_design("apc", n)
        _fill_runs(d, weights, values, seeds)
        for w, v, seed in zip(weights, values, seeds):
            rep = run_adder(d, v, 1 << n, seed, w)
            assert rep is _reports[(d, seed, v.tobytes(), w.tobytes())]
            _assert_apc_matches_oracle(rep, w, v, n)
            assert run_apc(w, v, 1 << n) == rep
            codes = np.array([bipolar_threshold(x, n) for x in v])
            if np.any((w < 0) & (codes == 0)):
                checked.add("negative coefficient at value code 0")
            if np.any((w < 0) & (codes == 1 << n)):
                checked.add("negative coefficient at value code N")
            if np.any([bipolar_threshold(abs(x), n) == 1 << (n - 1) for x in w]):
                checked.add("coefficient code 2^(n-1)")
        checked.add("R = 1" if runs == 1 else "R > 1")
        checked.add(f"n = {n}")
    assert checked == {
        "R = 1", "R > 1", "n = 3", "n = 5", "n = 8", "n = 16", "coefficient code 2^(n-1)",
        "negative coefficient at value code 0", "negative coefficient at value code N",
    }


@pytest.mark.parametrize("weight_mode", [None, "uniform", "pm"])
def test_apc_accuracy_stats_chunks_match_full_matrix_oracle(weight_mode, monkeypatch):
    # (R, M) blocks of 3 runs at M = 5, so 8 runs fill 3, 3 and a partial
    # last block of 2, each run returning its stored report
    import scmux.adders
    from scmux.adders import _reports

    monkeypatch.setattr(scmux.adders, "_CHUNK_ELEMENTS", 3 * 5)
    calls = []
    run = scmux.adders.run_adder

    def recorded(d, v, big_n, seed, w):
        calls.append((v, w, run(d, v, big_n, seed, w)))
        assert calls[-1][-1] is _reports[(d, seed, v.tobytes(), w.tobytes())]
        return calls[-1][-1]

    monkeypatch.setattr(scmux.adders, "run_adder", recorded)
    d = make_design("apc", 4)
    stats = accuracy_stats(d, [0.9, -0.3, 0.2, 0.1, -0.05], 8, 31, weight_mode)
    assert stats.runs == len(calls) == 8
    assert (len({w.tobytes() for _, w, _ in calls}) > 1) == (weight_mode is not None)
    for v, w, rep in calls:
        _assert_apc_matches_oracle(rep, w, v, 4)


def test_stored_apc_reports_are_read_only_and_keyed_by_the_whole_run():
    import dataclasses

    from scmux.adders import _fill_runs, _reports

    rng = np.random.default_rng(505)
    d = make_design("apc", 6)
    weights, values = rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, (3, 5))
    seeds = rng.integers(0, 2**63, 3).tolist()
    _fill_runs(d, weights, values, seeds)
    stored = run_adder(d, values[0], 64, seeds[0], weights[0])
    assert stored is _reports[(d, seeds[0], values[0].tobytes(), weights[0].tobytes())]
    with pytest.raises(dataclasses.FrozenInstanceError):
        stored.estimate = 0.0
    # the coefficient sides the runs read are read-only too
    from scmux.adders import _apc_sides

    for side in _apc_sides.values():
        assert not any(arr.flags.writeable for arr in side[:4])
    # a call that differs from every stored run, in its values (the same
    # seed), its weights or its design, runs alone
    flipped = values[0].copy()
    flipped[1] = -flipped[1]
    for call_d, v, seed, w in (
        (d, flipped, seeds[0], weights[0]),
        (d, values[1], seeds[0], weights[0]),
        (d, values[0], seeds[0], weights[1]),
        (make_design("apc", 7), values[0], seeds[0], weights[0]),
    ):
        rep = run_adder(call_d, v, 1 << call_d.n, seed, w)
        assert all(rep is not report for report in _reports.values())
        _assert_apc_matches_oracle(rep, w, v, call_d.n)


def test_apc_chunk_raises_the_message_of_its_first_failing_run():
    # each chunk mixes good rows with rows that fail one or more of run_apc's
    # checks; it raises what run_apc raises for the first run that fails, and
    # keeps the stored reports
    import scmux.adders
    from scmux.adders import _fill_runs

    rng = np.random.default_rng(606)
    d = make_design("apc", 5)
    kinds = ("good", "value", "coefficient", "mass", "value+coefficient", "coefficient+mass")
    seen = set()
    for _ in range(60):
        runs = int(rng.integers(1, 6))
        picks = rng.choice(len(kinds), runs, p=[0.6, 0.08, 0.08, 0.08, 0.08, 0.08])
        weights = rng.uniform(-1, 1, (runs, 4))
        weights[:, 0] = 0.75
        values = rng.uniform(-1, 1, (runs, 4))
        for r, k in enumerate(picks):
            kind = kinds[k]
            if "value" in kind:
                values[r, rng.integers(4)] = rng.choice([1.25, -3.0, math.nan])
            if "mass" in kind:
                weights[r] = rng.uniform(-1, 1, 4) / 64
            if "coefficient" in kind:
                weights[r, rng.integers(4)] = rng.choice([1.5, -1.0 - 2**-52, math.nan])
        expected = None
        for w, v in zip(weights, values):
            try:
                run_apc(w, v, 32)
            except ValueError as exc:
                expected = str(exc)
                break
        _fill_runs(d, [[0.5]], [[0.25]], [1])
        stored = dict(scmux.adders._reports)
        if expected is None:
            _fill_runs(d, weights, values, list(range(runs)))
            continue
        seen.add(expected.split(";")[0])
        with pytest.raises(ValueError) as exc:
            _fill_runs(d, weights, values, list(range(runs)))
        assert str(exc.value) == expected
        assert scmux.adders._reports.keys() == stored.keys()
        assert all(scmux.adders._reports[key] is rep for key, rep in stored.items())
    assert seen == {"bipolar values must lie in [-1, 1]", APC_RANGE, "zero weight mass after quantization"}


def test_apc_run_allocates_no_bit_matrix():
    # the APC counts each input's product-bit mismatches in closed form: a run
    # at n = 16 and M = 256 holds no (M, 2^n) array (one bool matrix is 16.8 MB)
    import tracemalloc

    rng = np.random.default_rng(77)
    values = rng.uniform(-1, 1, 256)
    run_apc(rng.uniform(-1, 1, 256), values, 1 << 16)
    # new weights: the call computes their coefficient side too
    w = rng.uniform(-1, 1, 256)
    tracemalloc.start()
    try:
        run_apc(w, values, 1 << 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_apc_rejects_out_of_range_coefficients():
    with pytest.raises(ValueError):
        run_apc([1.5], [0.5], 64)


def test_apc_worse_than_cemux_on_filter_weights():
    h = make_lowpass(150, 0.1 * math.pi).coefficients
    rng = np.random.default_rng(17)
    errs = {"cemux": [], "apc": []}
    d = make_design("cemux", 8)
    for _ in range(60):
        v = rng.uniform(-1, 1, 150)
        errs["cemux"].append(run_adder(d, v, 256, int(rng.integers(0, 2**63)), h).error)
        errs["apc"].append(run_apc(h, v, 256).error)
    rmse = {k: float(np.sqrt(np.mean(np.square(e)))) for k, e in errs.items()}
    assert rmse["apc"] > rmse["cemux"]


def test_basic_hardwired_strictly_worse_at_large_m():
    rmse = {}
    for name in ("cemux", "basic_hardwired"):
        d = make_design(name, 9)
        rmse[name] = accuracy_stats(d, [1.0 / 64] * 64, 300, 123, weight_mode="uniform").rmse
    assert rmse["basic_hardwired"] > rmse["cemux"]


def test_desk_scale_accuracy_ordering():
    # cemux < cemux_wbg and cemux < cemux_biased < basic_biased
    h = make_lowpass(150, 0.1 * math.pi).coefficients
    out = {}
    for name in ("cemux", "cemux_wbg", "cemux_biased", "basic_biased"):
        d = make_design(name, 10)
        out[name] = accuracy_stats(d, h, 1000, 2024).rmse
    assert out["cemux"] < out["cemux_wbg"]
    assert out["cemux"] < out["cemux_biased"] < out["basic_biased"]


def test_structural_report_eq15_cemux():
    d = make_design("cemux", 4)
    counts = structural_report(d, [7 / 16, 1 / 4, 1 / 4, 1 / 16])
    assert counts["muxes"] == 5
    assert counts["comparators"] == 4
    assert counts["wbgs"] == 0
    assert counts["inverters"] == 0
    assert counts["rns_instances"] == 1
    assert counts["select_counter_bits"] == 4


def test_structural_report_inverters_and_bound():
    d = make_design("cemux", 6)
    counts = structural_report(d, [0.5, -0.25, -0.25])
    # n source-complement inverters plus one sign inverter per negative input
    assert counts["inverters"] == 6 + 2
    rng = np.random.default_rng(23)
    for name in DESIGN_NAMES:
        if name == "apc":
            continue
        for _ in range(10):
            m_inputs = int(rng.integers(1, 16))
            w = rng.uniform(-1, 1, m_inputs)
            if not np.any(w):
                continue
            n = int(rng.integers(3, 9))
            counts = structural_report(make_design(name, n), w)
            assert counts["muxes"] <= min(m_inputs * n - 1, (1 << n) - 1)


def test_structural_counts_match_oracle_trees():
    # structural_report derives its counts from the numerators; the oracles
    # build each tree mux by mux: pairing slots bottom-up for the hardwired
    # tree, recursive halving of the active inputs for the biased one
    names = [name for name in (*DESIGN_NAMES, *ABLATION_NAMES) if name != "apc"]
    rng = np.random.default_rng(1111)
    seen = set()
    for case in range(400):
        m_inputs = int(rng.integers(1, 40))
        w = rng.uniform(-1, 1, m_inputs)
        w[rng.random(m_inputs) < 0.2] = 0.0
        if case % 10 == 0:  # one active input
            w[:] = 0.0
        w[int(rng.integers(0, m_inputs))] = rng.choice([-0.5, 0.5])
        n = int(rng.integers(3, 11))
        design = make_design(names[case % len(names)], n)
        q = quantize_weights(w, n).tolist()
        active = sum(1 for num in q if num)
        wbgs = active if design.data_pcc is PccKind.WBG else 0
        if design.tree_type == "hardwired":
            pairing = pairing_tree(q, n)
            muxes, levels = pairing.mux_count, pairing.height
        else:
            ref = biased_tree_reference(q, PccKind.WBG)
            muxes, levels = ref.mux_count, max(ref.node_level, default=0)
            wbgs += muxes  # one select WBG per mux
        counts = structural_report(design, w)
        assert counts["muxes"] == muxes
        assert counts["wbgs"] == wbgs
        if design.precise_sampling:
            assert (counts["rns_instances"], counts["select_counter_bits"]) == (1, levels)
        else:
            assert (counts["rns_instances"], counts["select_counter_bits"]) == (1 + levels, 0)
        seen.add((design.tree_type, "zero weight" if 0 in q else "all active"))
        seen.add((design.tree_type, "one active" if active == 1 else
                  "power of two" if active & (active - 1) == 0 else "other count"))
    assert seen == {
        (tree, kind) for tree in ("hardwired", "biased")
        for kind in ("zero weight", "all active", "one active", "power of two", "other count")
    }


def test_structural_report_single_input_and_apc():
    assert structural_report(make_design("cemux", 5), [1.0])["muxes"] == 0
    counts = structural_report(make_design("apc", 6), [0.5, -0.5])
    assert counts == {
        "muxes": 0,
        "comparators": 4,
        "wbgs": 0,
        "inverters": 0,
        "xnors": 2,
        "rns_instances": 2,
        "select_counter_bits": 0,
        "output_counter_bits": 6,
        "parallel_counter_bits": 2,
    }
