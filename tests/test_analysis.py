import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ABLATION_NAMES,
    DESIGN_NAMES,
    LFSR_DESIGNS,
    accuracy_errors_per_run,
    block_chunk_stats,
    enumerate_model_variance,
    expected_closed_form_per_run,
    fir_estimates_per_sample,
    model_run_exact,
    model_run_once,
    run_draws_per_run,
)
from scmux.adders import make_design
from scmux.analysis import (
    _CHUNK_ELEMENTS,
    _CHUNK_RUNS,
    AccuracyStats,
    ModelConfig,
    _chunk_runs,
    _chunk_stats,
    _draw_chunk,
    _draw_runs,
    _model_runs,
    _ModelRuntime,
    accuracy_stats,
    closed_form_variance,
    decompose_variance,
    expected_closed_form,
)
from scmux.bitstream import bipolar_thresholds
from scmux.filterapp import filter_rmse_vs_length, make_lowpass, pulse_train_signal, stochastic_fir
from scmux.muxtree import build_hardwired_tree, quantize_weights


def _enum_setup(cfg):
    n = int(math.log2(cfg.N))
    b = bipolar_thresholds(np.asarray(cfg.values), n)
    bp = [cfg.N - int(x) if w < 0 else int(x) for x, w in zip(b, cfg.weights)]
    return build_hardwired_tree(quantize_weights(cfg.weights, n)).tolist(), bp


MICRO_W = (0.7, -0.3)
MICRO_V = (0.4, 0.6)


@pytest.mark.parametrize(
    "model,sampling,scc",
    [
        ("bernoulli", "noisy", 0),
        ("bernoulli", "noisy", 1),
        ("bernoulli", "precise", 0),
        ("hypergeometric", "noisy", 1),
        ("hypergeometric", "precise", 1),
    ],
)
def test_closed_forms_match_exact_enumeration(model, sampling, scc):
    cfg = ModelConfig(model, sampling, scc, MICRO_W, MICRO_V, 4)
    owner, bp = _enum_setup(cfg)
    exact = float(enumerate_model_variance(cfg, owner, bp))
    assert closed_form_variance(cfg) == pytest.approx(exact, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "model,sampling,scc",
    [
        ("bernoulli", "noisy", None),
        ("bernoulli", "precise", None),
        ("hypergeometric", "noisy", 0),
        ("hypergeometric", "noisy", 1),
        ("hypergeometric", "precise", 0),
        ("hypergeometric", "precise", 1),
    ],
)
def test_closed_forms_match_monte_carlo(model, sampling, scc):
    cfg = ModelConfig(model, sampling, scc, (0.5, -0.3, 0.2), (0.25, -0.6, 0.8), 64)
    rep = decompose_variance(cfg, 6000, 31)
    assert closed_form_variance(cfg) == pytest.approx(rep.total_variance, abs=3 * rep.se_total)


def test_precise_sampling_kills_eps_samp_exactly():
    cfg = ModelConfig("hypergeometric", "precise", 1, (0.4, -0.35, 0.25), None, 64)
    rep = decompose_variance(cfg, 1500, 5)
    assert rep.eps_samp == 0.0
    assert rep.se_samp == 0.0
    assert np.all(rep.c_covariance == 0.0)


@pytest.mark.parametrize(
    "model,sampling,scc",
    [
        ("bernoulli", "noisy", 0),
        ("hypergeometric", "noisy", 0),
        ("hypergeometric", "noisy", 1),
        ("hypergeometric", "precise", 1),
    ],
)
def test_decomposition_identity(model, sampling, scc):
    cfg = ModelConfig(model, sampling, scc, (0.5, -0.25, 0.125, 0.125), None, 64)
    rep = decompose_variance(cfg, 4000, 77)
    assert abs(rep.identity_gap) <= 3 * rep.se_identity


def test_component_isolation_on_toggles():
    w, v = (0.45, -0.3, 0.25), (0.2, 0.7, -0.4)
    reps = {
        (sampling, scc): decompose_variance(
            ModelConfig("hypergeometric", sampling, scc, w, v, 128), 4000, 400
        )
        for sampling in ("noisy", "precise")
        for scc in (0, 1)
    }
    # noise depends only on the input model
    noises = [r.eps_noise for r in reps.values()]
    ses = [r.se_noise for r in reps.values()]
    for a, b, sa, sb in zip(noises, noises[1:], ses, ses[1:]):
        assert abs(a - b) <= 4 * (sa + sb)
    # toggling the sampling method moves eps_samp, not eps_corr
    for scc in (0, 1):
        noisy, precise = reps[("noisy", scc)], reps[("precise", scc)]
        assert precise.eps_samp == 0.0 and noisy.eps_samp > 3 * noisy.se_samp
        assert abs(noisy.eps_corr - precise.eps_corr) <= 4 * (noisy.se_corr + precise.se_corr)
    # toggling the correlation level moves eps_corr only
    for sampling in ("noisy", "precise"):
        s0, s1 = reps[(sampling, 0)], reps[(sampling, 1)]
        assert s1.eps_corr < s0.eps_corr - 3 * (s0.se_corr + s1.se_corr)
        assert abs(s0.eps_samp - s1.eps_samp) <= 4 * (s0.se_samp + s1.se_samp) + 2 / 128**2


def test_eq12_equivalence_bernoulli_noisy():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m_inputs = int(rng.integers(1, 8))
        w = rng.uniform(-1, 1, m_inputs)
        if not np.any(w):
            continue
        v = rng.uniform(-1, 1, m_inputs)
        n = int(rng.integers(2, 9))
        cfg = ModelConfig("bernoulli", "noisy", None, tuple(w), tuple(v), 1 << n)
        q = quantize_weights(w, n)
        b = bipolar_thresholds(v, n)
        mu_q = 2.0 * b / (1 << n) - 1.0
        signed_wt = q / (1 << n) * np.where(w < 0, -1, 1)
        expected = (1.0 - float(signed_wt @ mu_q) ** 2) / (1 << n)
        assert closed_form_variance(cfg) == pytest.approx(expected, abs=1e-14)


def test_dominance_orderings_hold():
    # model, sampling and correlation switches never increase the variance
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 1000:
        m_inputs = int(rng.integers(1, 10))
        w = rng.uniform(-1, 1, m_inputs)
        if not np.any(w):
            continue
        v = rng.uniform(-1, 1, m_inputs)
        n = int(rng.integers(2, 10))
        cf = {}
        for model, sampling, scc in (
            ("bernoulli", "noisy", None),
            ("bernoulli", "precise", None),
            ("hypergeometric", "noisy", 0),
            ("hypergeometric", "noisy", 1),
            ("hypergeometric", "precise", 0),
            ("hypergeometric", "precise", 1),
        ):
            cf[(model, sampling, scc)] = closed_form_variance(
                ModelConfig(model, sampling, scc, tuple(w), tuple(v), 1 << n)
            )
        tol = 1e-12
        assert cf[("bernoulli", "precise", None)] <= cf[("bernoulli", "noisy", None)] + tol
        assert (
            cf[("hypergeometric", "precise", 1)]
            <= cf[("hypergeometric", "noisy", 1)] + tol
        )
        # at SCC 0 the without-replacement correction can make precise
        # sampling slightly worse (see test_precise_vs_noisy_counterexample);
        # the ordering holds up to the finite-population factor N/(N-1)
        assert (
            cf[("hypergeometric", "precise", 0)]
            <= cf[("hypergeometric", "noisy", 0)] * (1 << n) / ((1 << n) - 1) + tol
        )
        for sampling in ("noisy", "precise"):
            assert (
                cf[("hypergeometric", sampling, 1)]
                <= cf[("hypergeometric", sampling, 0)] + tol
            )
            assert (
                cf[("hypergeometric", sampling, 0)]
                <= cf[("bernoulli", sampling, None)] + tol
            )
            assert (
                cf[("hypergeometric", sampling, 1)]
                <= cf[("bernoulli", sampling, None)] + tol
            )
        checked += 1


def test_precise_vs_noisy_counterexample_at_scc0():
    # with zero-mean values the uncorrelated hypergeometric rows differ by
    # exactly N/(N-1), so precise sampling is (slightly) the worse of the
    # two; confirmed against seeded Monte Carlo
    w, v = (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 0.0)
    noisy = ModelConfig("hypergeometric", "noisy", 0, w, v, 16)
    precise = ModelConfig("hypergeometric", "precise", 0, w, v, 16)
    cf_noisy, cf_precise = closed_form_variance(noisy), closed_form_variance(precise)
    assert cf_precise == pytest.approx(cf_noisy * 16 / 15, rel=1e-12)
    rep = decompose_variance(precise, 8000, 2)
    assert rep.total_variance == pytest.approx(cf_precise, abs=3 * rep.se_total)


def test_eq14_weighted_count_covariance_instantiation():
    # height-3 tree over weights (4, 3, 1)/8 at N=8: the sampling component
    # equals the mu-weighted covariance of the sampling counts
    w, v = (0.5, 0.375, 0.125), (0.5, -0.25, 0.75)
    cfg = ModelConfig("bernoulli", "noisy", 0, w, v, 8)
    rep = decompose_variance(cfg, 30000, 12)
    b = bipolar_thresholds(np.asarray(v), 3)
    mu_q = 2.0 * b / 8 - 1.0
    eq14 = float(mu_q @ rep.c_covariance @ mu_q) / 8**2
    assert rep.eps_samp == pytest.approx(eq14, abs=4 * rep.se_samp + 1e-4)


def test_closed_form_trivial_rows():
    # single zero-valued input: the formula collapses to 1/N
    cfg = ModelConfig("bernoulli", "noisy", None, (1.0,), (0.0,), 64)
    assert closed_form_variance(cfg) == pytest.approx(1 / 64, abs=1e-15)
    # fully correlated equal inputs: every pairwise gap vanishes
    cfg = ModelConfig(
        "hypergeometric", "precise", 1, (0.25, 0.5, 0.25), (0.375, 0.375, 0.375), 32
    )
    assert closed_form_variance(cfg) == 0.0


def test_single_run_rmse_is_absolute_error():
    d = make_design("basic_hardwired", 6)
    stats = accuracy_stats(d, [0.5, -0.5], 1, 17)
    assert stats.rmse == abs(stats.bias)
    assert stats.mse == pytest.approx(stats.bias**2, abs=1e-15)


def test_model_config_validation():
    with pytest.raises(ValueError, match="rows"):
        ModelConfig("beta", "noisy", 0, (1.0,), None, 16)
    with pytest.raises(ValueError, match="rows"):
        ModelConfig("bernoulli", "sometimes", 0, (1.0,), None, 16)
    with pytest.raises(ValueError, match="rows"):
        ModelConfig("hypergeometric", "noisy", None, (1.0,), None, 16)
    with pytest.raises(ValueError):
        ModelConfig("bernoulli", "noisy", 0, (1.0,), None, 24)
    for big_n in (2, 1 << 17, 1 << 40):  # outside [4, 2^16], as make_design's n in [3, 16]
        with pytest.raises(ValueError, match="power of two in"):
            ModelConfig("bernoulli", "noisy", None, (1.0,), None, big_n)
    with pytest.raises(ValueError):
        closed_form_variance(ModelConfig("bernoulli", "noisy", 0, (1.0,), None, 16))


def test_expected_closed_form_averages_value_draws():
    cfg = ModelConfig("hypergeometric", "precise", 1, (0.5, -0.5), None, 64)
    avg = expected_closed_form(cfg, 4000, 21)
    # pairwise-gap form: E[d(2-d)] / 4 / (N-1) for uniform bipolar values
    gaps = np.abs(np.diff(np.random.default_rng(0).uniform(-1, 1, (20000, 2)), axis=1))
    expected = float(np.mean(gaps * (2 - gaps))) / 4 / 63
    assert avg == pytest.approx(expected, rel=0.05)


def test_expected_closed_form_rejects_no_runs():
    cfg = ModelConfig("hypergeometric", "noisy", 0, (0.5, -0.5), None, 64)
    for runs in (0, -3):
        with pytest.raises(ValueError, match="need at least 1 run"):
            expected_closed_form(cfg, runs, 21)


# every model x sampling x SCC row, and bernoulli without an SCC level
_MODEL_ROWS = [
    (model, sampling, scc)
    for model in ("bernoulli", "hypergeometric")
    for sampling in ("noisy", "precise")
    for scc in (0, 1)
] + [("bernoulli", "noisy", None), ("bernoulli", "precise", None)]


def _model_case(rng, row, kind, fixed):
    """A random ModelConfig of a row, and a run count of the given kind.

    kind 0: fewer runs than one chunk; 1: several chunks and a partial
    last one; 2: M * N above the chunk budget, so chunks of one run, or
    with one shared source (SCC +1), whose chunks hold R * N words, a full
    chunk and a last one of one to three runs.
    """
    if kind == 0:
        n, m_inputs = int(rng.integers(2, 9)), int(rng.integers(1, 7))
    elif kind == 1:
        n, m_inputs = int(rng.integers(8, 10)), int(rng.integers(3, 9))
    else:
        n, m_inputs = 9, int(rng.integers(33, 41))
    w = rng.uniform(-1, 1, m_inputs)
    w[rng.random(m_inputs) < 0.3] = 0.0  # zero weights quantize to c_i = 0
    w[int(rng.integers(m_inputs))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    values = tuple(rng.uniform(-1, 1, m_inputs)) if fixed else None
    cfg = ModelConfig(*row, tuple(w), values, 1 << n)
    shared = row[2] == 1
    step = _chunk_runs((1 if shared else m_inputs) << n)
    if kind == 0:
        runs = int(rng.integers(1, min(step - 1, 40) + 1))
    elif kind == 1:
        runs = 2 * step + int(rng.integers(1, step))
    elif shared:
        assert step > 1 and (m_inputs << n) > _CHUNK_ELEMENTS
        runs = step + int(rng.integers(1, 4))
    else:
        assert step == 1 and (m_inputs << n) > _CHUNK_ELEMENTS
        runs = int(rng.integers(2, 5))
    return cfg, runs


def test_batched_model_runs_match_per_run_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for row in _MODEL_ROWS:
        # j % 3 picks the chunk shape and j % 2 fixed values, so that every
        # row meets each combination twice
        for j in range(12):
            cfg, runs = _model_case(rng, row, j % 3, j % 2 == 1)
            seed = int(rng.integers(2**32))
            rt = _ModelRuntime(cfg)
            rng_batched = np.random.default_rng(seed)
            chunks = list(_model_runs(rt, rng_batched, runs))
            stats = np.concatenate([st for st, _ in chunks], axis=1)
            dcs = np.concatenate([dc for _, dc in chunks])
            assert stats.shape == (4, runs) and dcs.shape == (runs, rt.M)
            rng_once, rng_exact = np.random.default_rng(seed), np.random.default_rng(seed)
            c_cov = np.zeros((rt.M, rt.M))
            for r in range(runs):
                *ref, ref_dc = model_run_once(rt, rng_once)
                exact = model_run_exact(rt, rng_exact)
                # total, noise and samp are exact dyadic values or one rounding
                # of an exact integer ratio, in the oracle and here alike
                assert stats[:3, r].tolist() == ref[:3] == [float(x) for x in exact[:3]]
                assert np.array_equal(dcs[r], ref_dc)
                # the oracle rounds corr term by term; here it is one division
                corr = Fraction(float(stats[3, r]))
                assert abs(corr - exact[3]) <= abs(exact[3]) * Fraction(1, 2**52)
                c_cov += np.outer(ref_dc, ref_dc)
            # the chunks read exactly the per-run calls' draws, no more
            assert rng_batched.bit_generator.state == rng_once.bit_generator.state
            if runs >= 2:
                rep = decompose_variance(cfg, runs, seed)
                assert np.array_equal(rep.c_covariance, c_cov / runs)
                assert rep.total_variance == float(stats[0].mean())
            checked += 1
    assert checked >= 120


def test_model_runs_do_not_wrap_at_n16():
    # At N = 2^16 the squares pass 2^53, so neither path is exact. total,
    # noise and samp still agree with the oracle to 1e-12. corr is N^-4
    # (N - 1)^-1 times a difference of float64 terms up to about 2 N^5, so
    # both paths err from its exact value by some multiples of 2^-53 in
    # absolute terms (the oracle by 3e-15, a relative 6e-8, at seed 16).
    for row in (("hypergeometric", "noisy", 0), ("bernoulli", "noisy", 1),
                ("hypergeometric", "precise", 1)):
        cfg = ModelConfig(*row, (0.6, -0.4), None, 1 << 16)
        rt = _ModelRuntime(cfg)
        rng_batched = np.random.default_rng(16)
        chunks = list(_model_runs(rt, rng_batched, 3))
        assert [dc.shape[0] for _, dc in chunks] == [1, 1, 1]
        stats = np.concatenate([st for st, _ in chunks], axis=1)
        assert np.all(np.isfinite(stats)) and np.all(stats[:2] >= 0.0)
        rng_once, rng_exact = np.random.default_rng(16), np.random.default_rng(16)
        for r in range(3):
            ref = model_run_once(rt, rng_once)[:4]
            exact = model_run_exact(rt, rng_exact)
            for got, want in zip(stats[:3, r], ref[:3]):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
            assert abs(Fraction(float(stats[3, r])) - exact[3]) <= 1e-13
            assert abs(stats[3, r] - ref[3]) <= 1e-13
        assert rng_batched.bit_generator.state == rng_once.bit_generator.state


@pytest.mark.parametrize("n", [2, 4, 8, 10, 16])
def test_chunk_stats_equal_the_bit_block_oracle(n):
    # _chunk_stats reads one word per cycle, and under a shared source the
    # gaps between sorted thresholds; block_chunk_stats forms every bit.
    # Both run on the same draws, including values at -1 and +1 (thresholds
    # 0 and N), tied thresholds, zero weights and a single input.
    rng = np.random.default_rng(n)
    rows = [row for row in _MODEL_ROWS if row[2] is not None]
    for i in range(48 if n <= 10 else 16):
        row = rows[i % len(rows)]
        m_inputs = 1 if i % 8 == 7 else int(rng.integers(2, 12))
        w = rng.uniform(-1, 1, m_inputs)
        w[rng.random(m_inputs) < 0.3] = 0.0
        w[int(rng.integers(m_inputs))] = rng.choice([-0.5, 0.5])
        values = None
        if i % 3 == 1:
            values = tuple(rng.uniform(-1, 1, m_inputs))
        elif i % 3 == 2:
            values = tuple(rng.choice([-1.0, 0.0, 0.5, 1.0], m_inputs))
        rt = _ModelRuntime(ModelConfig(*row, tuple(w), values, 1 << n))
        runs = int(rng.integers(1, 9 if n <= 10 else 3))
        draws = _draw_chunk(rt, np.random.default_rng(i), runs)
        got, got_dc = _chunk_stats(rt, *draws)
        want, want_dc = block_chunk_stats(rt, *draws)
        assert np.array_equal(got[:3], want[:3]) and np.array_equal(got_dc, want_dc)
        if n <= 10:
            assert np.array_equal(got[3], want[3])
        else:  # the bound of test_model_runs_do_not_wrap_at_n16
            assert np.all(np.abs(got[3] - want[3]) <= 1e-13)


@pytest.mark.parametrize("n", range(2, 17))
def test_chunk_draws_read_the_per_run_calls_words(n):
    # _draw_chunk's calls against the per-run calls they stand for, after an
    # odd-length shuffle leaves half of a raw word buffered: float32 selects
    # against integers(0, 2^n), a shuffled arange row against permutation,
    # an in-place permuted block against a permuted copy, and -1 + 2 random()
    # against uniform(-1, 1); each pair leaves the generators in one state
    fast, plain = np.random.default_rng(n), np.random.default_rng(n)
    for rng in (fast, plain):
        rng.shuffle(np.arange(7))
    for size in ((5,), (3, 37), (1 << n,)):
        f = np.empty(size, dtype=np.float32)
        fast.random(out=f, dtype=np.float32)
        assert np.array_equal((f * (1 << n)).astype(np.int64), plain.integers(0, 1 << n, size))
        assert fast.bit_generator.state == plain.bit_generator.state
    big_n = 1 << min(n, 10)
    row = np.arange(big_n)
    fast.shuffle(row)
    assert np.array_equal(row, plain.permutation(big_n))
    block = np.tile(np.arange(big_n), (3, 1))
    fast.permuted(block, axis=1, out=block)
    assert np.array_equal(block, plain.permuted(np.tile(np.arange(big_n), (3, 1)), axis=1))
    unit = np.empty(5)
    fast.random(out=unit)
    assert np.array_equal(-1.0 + 2.0 * unit, plain.uniform(-1.0, 1.0, 5))
    assert fast.bit_generator.state == plain.bit_generator.state


def test_expected_closed_form_matches_per_run_oracle():
    rng = np.random.default_rng(77)
    for i in range(240):
        row = _MODEL_ROWS[i % len(_MODEL_ROWS)]
        n = int(rng.integers(2, 11))
        # M up to 40 makes the SCC +1 gap tensor span several chunks
        m_inputs = int(rng.integers(1, 10)) if i % 3 else int(rng.integers(20, 41))
        w = rng.uniform(-1, 1, m_inputs)
        w[rng.random(m_inputs) < 0.2] = 0.0
        w[0] = 0.5
        cfg = ModelConfig(*row, tuple(w), None, 1 << n)
        runs = int(rng.integers(1, 300))
        seed = int(rng.integers(2**32))
        assert expected_closed_form(cfg, runs, seed) == expected_closed_form_per_run(
            cfg, runs, seed
        )


def test_accuracy_stats_zero_error_design():
    # one input's output stream is its own full-period input stream, so
    # every uniform draw is estimated exactly
    d = make_design("cemux", 6)
    stats = accuracy_stats(d, [1.0], 50, 4)
    assert stats == AccuracyStats(rmse=0.0, bias=0.0, mse=0.0, runs=50)
    # a filter shorter than its warm-up leaves no errors to average, so its
    # moments are undefined, not a perfect 0
    empty = AccuracyStats.from_errors([])
    assert empty.runs == 0 and all(map(math.isnan, (empty.rmse, empty.bias, empty.mse)))


@pytest.mark.parametrize("weight_mode", [None, "uniform", "pm"])
def test_accuracy_stats_matches_per_run_loop(weight_mode, monkeypatch):
    import scmux.analysis

    # chunks of 3 runs at n = 4, so that 1, 2, 3, 4 and 1,000 runs cross every
    # chunk edge cheaply
    monkeypatch.setattr(scmux.analysis, "_CHUNK_ELEMENTS", 3 << 4)
    assert _chunk_runs(1 << 4) == 3
    for name in (*DESIGN_NAMES, *ABLATION_NAMES):
        d, w = make_design(name, 4), [0.4, -0.3, 0.2, 0.1]
        errors = accuracy_errors_per_run(d, w, 1000, 23, weight_mode)
        for runs in (1, 2, 3, 4, 1000):
            expected = AccuracyStats.from_errors(errors[:runs])
            assert accuracy_stats(d, w, runs, 23, weight_mode) == expected, (name, runs)


def test_accuracy_stats_fills_each_chunks_tables_before_its_runs(monkeypatch):
    import scmux.adders
    import scmux.analysis

    fills, kernel, rows = [], [], []
    fill, simulate, tables = scmux.analysis._fill_runs, scmux.adders._simulate, scmux.adders._fill_tables

    def counted_fill(d, w, v, seeds):
        fills.append(len(seeds))
        fill(d, w, v, seeds)

    def counted_kernel(d, w, v, seeds):
        # once per fill, and for a run alone only when the run missed the
        # reports of its chunk's fill
        kernel.append(len(seeds))
        return simulate(d, w, v, seeds)

    def counted_tables(d, w):
        # the distinct weight rows whose tables each kernel call reads
        out = tables(d, w)
        rows.append(len(out[0]))
        return out

    monkeypatch.setattr(scmux.analysis, "_fill_runs", counted_fill)
    monkeypatch.setattr(scmux.adders, "_simulate", counted_kernel)
    monkeypatch.setattr(scmux.adders, "_fill_tables", counted_tables)
    for name in ("cemux_wbg", "cemux_biased"):
        # chunks of 2^14 owner-map elements, and of at most 128 runs
        for n, runs, chunk in ((10, 40, 16), (16, 3, 1), (4, 130, 128)):
            fills.clear()
            kernel.clear()
            d = make_design(name, n)
            stats = accuracy_stats(d, [0.25] * 16, runs, 8, "uniform")
            assert fills == [min(chunk, runs - i) for i in range(0, runs, chunk)]
            assert kernel == fills, "a run missed the reports its chunk's fill entered"
            if n == 10:
                scmux.adders._reports.clear()
                expected = accuracy_errors_per_run(d, [0.25] * 16, runs, 8, "uniform")
                assert stats == AccuracyStats.from_errors(expected)
    # fixed weights fill one row per chunk
    rows.clear()
    accuracy_stats(make_design("cemux", 10), [0.5, 0.25], 20, 1)
    assert rows == [1, 1]


def test_each_chunk_fills_its_lfsr_starts_before_its_runs(monkeypatch):
    import scmux.rns

    fills, computed = [], []
    rows = scmux.rns._lfsr_start_rows

    def counted(seeds, keys, n):
        # a chunk computes its rows from an array of seeds, and a run alone
        # its own from its seed
        computed.append(np.ndim(seeds))
        if np.ndim(seeds):
            fills.append(len(seeds))
        return rows(seeds, keys, n)

    monkeypatch.setattr(scmux.rns, "_lfsr_start_rows", counted)
    spec = make_lowpass(6, 0.5)
    signal = pulse_train_signal(130)
    for name in (*DESIGN_NAMES, *ABLATION_NAMES):
        reads_lfsr = name in LFSR_DESIGNS
        d = make_design(name, 4)
        # chunks of at most 128 runs; at n = 10 and M = 16, of 16
        for n, runs, chunk in ((4, 130, 128), (10, 20, 16)):
            fills.clear()
            computed.clear()
            accuracy_stats(make_design(name, n), [0.25] * 16, runs, 5, "uniform")
            assert fills == ([min(chunk, runs - i) for i in range(0, runs, chunk)] if reads_lfsr else [])
            assert 0 not in computed, (name, "a run computed the starts its chunk's fill entered")
        fills.clear()
        computed.clear()
        out, _ = stochastic_fir(d, spec, signal, 9)
        filter_rmse_vs_length([name], spec, [4], 130, 9)
        assert fills == ([128, 2, 128, 2] if reads_lfsr else [])
        assert 0 not in computed, name
        if not reads_lfsr:
            assert not computed, name
        # and the chunked seeds are the per-sample ones
        expected = np.array(fir_estimates_per_sample(d, spec.coefficients, signal.samples, 9))
        assert np.array_equal(out.samples, np.clip(expected * spec.weight_mass, -1.0, 1.0)), name


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([1, 2, 3, 16, 255]),
    st.sampled_from([None, "uniform", "pm"]),
    st.sampled_from([1, 127, 128, 129]),
)
def test_chunk_draws_equal_per_run_generator_calls(master_seed, m, weight_mode, runs):
    # chunks of at most _CHUNK_RUNS runs from one generator, as accuracy_stats
    # draws them, against each run's Generator calls from another
    fixed = np.linspace(-1.0, 0.5, m)
    chunked, per_run = np.random.default_rng(master_seed), np.random.default_rng(master_seed)
    draws = []
    for start in range(0, runs, _CHUNK_RUNS):
        ws, vs, seeds = _draw_runs(chunked.bit_generator, fixed, min(_CHUNK_RUNS, runs - start),
                                   weight_mode)
        assert len(ws) == len(vs) == len(seeds)
        draws += zip(ws, vs, seeds)
    expected = run_draws_per_run(per_run, fixed, runs, weight_mode)
    assert len(draws) == runs
    for (w, v, seed), (ew, ev, eseed) in zip(draws, expected):
        assert np.array_equal(w, ew) and np.array_equal(v, ev)
        assert type(seed) is int and seed == eseed
    assert chunked.bit_generator.state == per_run.bit_generator.state


class _RawWords:
    """A bit generator stand-in that hands out the given raw words in order."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.taken = 0

    def random_raw(self, size):
        out = self.words[self.taken : self.taken + size]
        self.taken += size
        assert out.size == size, "the stand-in ran out of words"
        return out


@pytest.mark.parametrize("slot,repeats", [(0, 1), (3, 1), (5, 2)])
def test_all_zero_uniform_weights_are_redrawn(slot, repeats):
    # the word 2^63 draws random() = 0.5, so uniform(-1, 1) = 0.0; m of them in
    # run `slot`'s weight words (twice over for repeats = 2) make an all-zero
    # weight row, which the run redraws from the words that follow
    m, runs = 3, 6
    k = 2 * m + 1
    words = np.random.default_rng(slot).integers(0, 2**64 - 1, runs * k + 4 * m,
                                                 dtype=np.uint64, endpoint=True)
    zeros = np.full(m * repeats, 2**63, dtype=np.uint64)
    at = slot * k
    with_zeros = _RawWords(np.concatenate((words[:at], zeros, words[at:])))
    without = _RawWords(words)
    fixed = np.zeros(m)
    got = _draw_runs(with_zeros, fixed, runs, "uniform")
    want = _draw_runs(without, fixed, runs, "uniform")
    assert with_zeros.taken == without.taken + m * repeats
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[0].any(axis=1).all()


def test_accuracy_stats_identity_and_runs():
    d = make_design("basic_hardwired", 6)
    stats = accuracy_stats(d, [0.5, -0.5], 200, 10)
    assert stats.rmse == math.sqrt(stats.mse)
    assert stats.mse >= stats.bias**2
    assert stats.runs == 200


def test_bernoulli_xnor_multiplier_matches_combinational_variance():
    # bipolar multiplier fed by two independent bernoulli sources: the sample
    # variance of the estimate matches (1 - E[est]^2) / N
    n, big_n, runs = 8, 256, 4000
    bx, bw = 192, 96  # values 0.5 and -0.25
    rng = np.random.default_rng(14)
    ests = np.empty(runs)
    for r in range(runs):
        xw = np.random.default_rng(int(rng.integers(2**63))).integers(0, 1 << n, big_n)
        ww = np.random.default_rng(int(rng.integers(2**63))).integers(0, 1 << n, big_n)
        prod = 1 - ((xw < bx).astype(int) ^ (ww < bw).astype(int))
        ests[r] = 2.0 * prod.sum() / big_n - 1.0
    var = ests.var(ddof=1)
    expected = (1.0 - ests.mean() ** 2) / big_n
    se = var * math.sqrt(2.0 / (runs - 1))
    assert abs(var - expected) <= 3 * se
