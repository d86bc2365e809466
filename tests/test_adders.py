import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bipolar_threshold,
    cemux_block_error,
    cemux_expected_mse,
    full_matrix_apc,
    full_matrix_run,
    quantize_weights_transcription,
    spawned_seeds,
)
from scmux.adders import (
    ABLATION_NAMES,
    DESIGN_NAMES,
    AdderDesign,
    make_design,
    normalize_design_name,
    run_adder,
    run_apc,
    structural_report,
    target_value,
)
from scmux.analysis import accuracy_stats
from scmux.filterapp import make_lowpass
from scmux.muxtree import quantize_weights
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


def _select_wiring(d):
    """Select source and select PCC kind of a two-input design, read off its
    structural report: a select counter or one LFSR per level beside the data
    source, and one select PCC per mux beyond the two data PCCs, if any."""
    if d.tree_type == "apc":
        return None, None
    r = structural_report(d)
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
    d = make_design(name, [0.5, -0.25], 8)
    assert (
        d.tree_type,
        d.data_pcc,
        *_select_wiring(d),
        d.full_correlation,
        d.precise_sampling,
    ) == TABLE_FLAGS[name]


def test_design_name_normalization():
    assert normalize_design_name("CeMux-WBG") == "cemux_wbg"
    with pytest.raises(ValueError):
        normalize_design_name("mystery_adder")


def test_target_value_examples():
    assert target_value([1.0, 1.0], [1.0, -1.0], 8) == 0.0
    mus = [0.5, -0.25, 0.75]
    got = target_value([1 / 2, 3 / 8, 1 / 8], mus, 4, height=3)
    assert got == pytest.approx(0.5 * 0.5 + 0.375 * -0.25 + 0.125 * 0.75, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1, 1).filter(lambda x: abs(x) > 1e-9), min_size=1, max_size=6),
    st.data(),
)
def test_target_value_matches_exact_rational_oracle(w, data):
    values = [data.draw(st.floats(-1, 1)) for _ in w]
    n = data.draw(st.integers(3, 10))
    q = quantize_weights(w, n)
    exact = Fraction(0)
    for wi, vi, num, s in zip(w, values, q.numerators, q.signs):
        b = bipolar_threshold(vi, n)
        exact += s * Fraction(num, q.denominator) * (Fraction(2 * b, 1 << n) - 1)
    assert target_value(w, values, n) == pytest.approx(float(exact), abs=1e-14)


def test_fig8b_equal_correlated_inputs_exact():
    # four inputs of unipolar value 1/2 (bipolar 0), equal weights: the output
    # is a copy of the common stream, so the estimate is exact for every seed
    d = make_design("cemux", [0.25] * 4, 6)
    for seed in (0, 1, 17, 999):
        rep = run_adder(d, [0.0] * 4, 64, seed)
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
            rep = run_adder(make_design(name, w, n), v, 1 << n, seed)
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


def test_run_kernel_matches_full_matrix_oracle_exactly():
    # the oracle generates every input's whole stream, takes hardwired owners
    # from the level-ordered blocks and, for biased trees, generates every
    # mux's select bits; the kernel generates one data bit and one select
    # path per cycle
    rng = np.random.default_rng(4242)
    presets = DESIGN_NAMES + ABLATION_NAMES
    assert len(presets) == 10
    checked = set()
    for _ in range(300):
        w, v, n = _kernel_config(rng)
        seed = int(rng.integers(0, 2**63))
        for name in presets:
            d = make_design(name, w, n)
            with warnings.catch_warnings():
                # value 1 clamps on WBG data paths
                warnings.simplefilter("ignore", QuantizationWarning)
                rep = run_adder(d, v, 1 << n, seed)
                if name == "apc":
                    assert (rep.estimate, rep.target, rep.error) == full_matrix_apc(w, v, 1 << n)
                    assert rep.output is None and rep.sampling_counts is None
                    continue
                z, counts, estimate, target, error = full_matrix_run(d, v, 1 << n, seed)
            assert np.array_equal(rep.output.unpacked, z), name
            assert np.array_equal(rep.sampling_counts, counts), name
            assert (rep.estimate, rep.target, rep.error) == (estimate, target, error), name
            if d.data_pcc is PccKind.WBG and np.any(v == 1.0):
                checked.add("wbg clamp")
            if d.full_correlation and np.any(w < 0):
                checked.add("complemented wiring")
    assert checked == {"wbg clamp", "complemented wiring"}


def test_seed_expansion_matches_fixed_spawn():
    from scmux.adders import _source_seeds

    for seed in (0, 1, 7, 2**32 + 5, 2**63 - 1):
        assert _source_seeds(seed, range(25)) == spawned_seeds(seed)
    # over 10,000 more master seeds, against numpy's SeedSequence
    rng = np.random.default_rng(6174)
    seeds = [*range(50), 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1,
             *rng.integers(0, 2**63, 9_000).tolist(), *rng.integers(0, 2**32, 1_000).tolist()]
    for seed in seeds:
        expected = [
            int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1, np.uint64)[0])
            for i in (0, 1, 5, 12)
        ]
        assert _source_seeds(seed, [0, 1, 5, 12]) == expected, seed


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
    d = make_design("cemux", [0.3, 0.6, 0.1], 5)
    rep = run_adder(d, [1.0, 1.0, 1.0], 32, 3)
    assert rep.estimate == 1.0


def test_eq6_full_period_error_bound():
    # exhaustive oracle over the 4-bit value grid puts the worst full-period
    # error at 1.25 output counts (0.15625); the loose structural bound is
    # 2 * popcount(q) / N with q = (8, 6, 2)
    import itertools

    w = [1 / 2, 3 / 8, 1 / 8]
    d = make_design("cemux", w, 4)
    grid = [k / 8 - 1 for k in range(17)]
    worst = max(
        abs(run_adder(d, list(v), 16, 0).error) for v in itertools.product(grid, repeat=3)
    )
    assert worst == pytest.approx(0.15625, abs=1e-12)
    assert worst <= 2 * 4 / 16


def test_reports_are_deterministic():
    d = make_design("basic_biased", [0.4, -0.2, 0.4], 7)
    a = run_adder(d, [0.1, 0.9, -0.5], 128, 42)
    b = run_adder(d, [0.1, 0.9, -0.5], 128, 42)
    assert a.estimate == b.estimate
    assert a.output == b.output
    assert np.array_equal(a.sampling_counts, b.sampling_counts)
    c = run_adder(d, [0.1, 0.9, -0.5], 128, 43)
    assert c.output != a.output  # different seed moves the noisy selects


@pytest.mark.parametrize("name", ["cemux", "cemux_wbg"])
def test_precise_designs_sample_counts_exact(name):
    rng = np.random.default_rng(11)
    for _ in range(20):
        m_inputs = int(rng.integers(1, 12))
        w = rng.uniform(-1, 1, m_inputs)
        if not np.any(w):
            continue
        n = int(rng.integers(3, 9))
        d = make_design(name, w, n)
        rep = run_adder(d, rng.uniform(-1, 1, m_inputs), 1 << n, int(rng.integers(0, 2**63)))
        q = quantize_weights(w, n)
        assert rep.sampling_counts.tolist() == list(q.numerators)


def test_estimates_always_in_range():
    rng = np.random.default_rng(13)
    for name in DESIGN_NAMES:
        for _ in range(10):
            m_inputs = int(rng.integers(1, 9))
            w = rng.uniform(-1, 1, m_inputs)
            if not np.any(w):
                continue
            d = make_design(name, w, 6)
            rep = run_adder(d, rng.uniform(-1, 1, m_inputs), 64, int(rng.integers(0, 2**63)))
            assert -1.0 <= rep.estimate <= 1.0


def test_run_adder_validation():
    d = make_design("cemux", [1.0, 1.0], 5)
    with pytest.raises(ValueError):
        run_adder(d, [0.5, 0.5], 16, 0)  # wrong stream length
    with pytest.raises(ValueError):
        run_adder(d, [1.5, 0.0], 32, 0)
    with pytest.raises(ValueError):
        make_design("cemux", [0.0, 0.0], 5)


def test_nan_inputs_rejected_before_quantization():
    nan = float("nan")
    for name in ("cemux", "basic_biased", "apc"):
        d = make_design(name, [0.5, -0.5], 5)
        with pytest.raises(ValueError, match="outside"):
            run_adder(d, [0.25, nan], 32, 0)
    with pytest.raises(ValueError, match="must lie in"):
        run_apc([0.5, nan], [0.25, 0.25], 32)
    with pytest.raises(ValueError, match="must be finite"):
        run_adder(make_design("cemux", [0.5, nan], 5), [0.25, 0.25], 32, 0)


def test_apc_trivials():
    rep = run_apc([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 64)
    assert rep.estimate == 1.0
    rep1 = run_apc([0.5], [0.5], 1024)
    assert rep1.error == pytest.approx(0.0, abs=0.02)  # single XNOR multiplier


def test_apc_rejects_out_of_range_coefficients():
    with pytest.raises(ValueError):
        run_apc([1.5], [0.5], 64)


def test_apc_worse_than_cemux_on_filter_weights():
    h = make_lowpass(150, 0.1 * math.pi).coefficients
    rng = np.random.default_rng(17)
    errs = {"cemux": [], "apc": []}
    d = make_design("cemux", h, 8)
    for _ in range(60):
        v = rng.uniform(-1, 1, 150)
        errs["cemux"].append(run_adder(d, v, 256, int(rng.integers(0, 2**63))).error)
        errs["apc"].append(run_apc(h, v, 256).error)
    rmse = {k: float(np.sqrt(np.mean(np.square(e)))) for k, e in errs.items()}
    assert rmse["apc"] > rmse["cemux"]


def test_basic_hardwired_strictly_worse_at_large_m():
    rmse = {}
    for name in ("cemux", "basic_hardwired"):
        d = make_design(name, [1.0 / 64] * 64, 9)
        rmse[name] = accuracy_stats(
            d, 512, 300, 123, values="uniform", weight_mode="uniform"
        ).rmse
    assert rmse["basic_hardwired"] > rmse["cemux"]


def test_desk_scale_accuracy_ordering():
    # cemux < cemux_wbg and cemux < cemux_biased < basic_biased
    h = make_lowpass(150, 0.1 * math.pi).coefficients
    out = {}
    for name in ("cemux", "cemux_wbg", "cemux_biased", "basic_biased"):
        d = make_design(name, h, 10)
        out[name] = accuracy_stats(d, 1024, 1000, 2024, values="uniform").rmse
    assert out["cemux"] < out["cemux_wbg"]
    assert out["cemux"] < out["cemux_biased"] < out["basic_biased"]


def test_structural_report_eq15_cemux():
    d = make_design("cemux", [7 / 16, 1 / 4, 1 / 4, 1 / 16], 4)
    counts = structural_report(d)
    assert counts["muxes"] == 5
    assert counts["comparators"] == 4
    assert counts["wbgs"] == 0
    assert counts["inverters"] == 0
    assert counts["rns_instances"] == 1
    assert counts["select_counter_bits"] == 4


def test_structural_report_inverters_and_bound():
    d = make_design("cemux", [0.5, -0.25, -0.25], 6)
    counts = structural_report(d)
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
            counts = structural_report(make_design(name, w, n))
            assert counts["muxes"] <= min(m_inputs * n - 1, (1 << n) - 1)


def test_structural_report_single_input_and_apc():
    assert structural_report(make_design("cemux", [1.0], 5))["muxes"] == 0
    counts = structural_report(make_design("apc", [0.5, -0.5], 6))
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
