import math

import numpy as np
import pytest

from scmux.adders import make_design
from scmux.filterapp import (
    FilterSpec,
    Signal,
    filter_rmse_vs_length,
    make_lowpass,
    make_noisy_signal,
    pulse_train_signal,
    reference_fir,
    stochastic_fir,
)
from scmux.muxtree import quantize_weights


def test_signal_validation_and_normalization():
    # a Signal holds samples already normalized into [-1, 1]
    with pytest.raises(ValueError):
        Signal(np.array([0.0, 1.5]))
    for bad in ([0.1, math.nan, 0.2], [math.nan]):
        with pytest.raises(ValueError, match="must lie in"):
            Signal(np.array(bad))


def test_reference_identity_filter():
    sig = Signal(np.array([0.1, -0.4, 0.9, 0.0]))
    out = reference_fir(FilterSpec((1.0,)), sig)
    assert np.array_equal(out.samples, sig.samples)


def test_reference_dc_gain_after_warmup():
    sig = Signal(np.full(10, 0.5))
    out = reference_fir(FilterSpec((0.5, 0.5)), sig)
    assert np.allclose(out.samples[1:], 0.5)
    assert out.samples[0] == 0.25  # zero-padded history


def test_reference_impulse_response_is_coefficients():
    h = (0.2, 0.2, 0.2, 0.2, 0.2)
    impulse = Signal(np.eye(1, 12, 0).ravel())
    out = reference_fir(FilterSpec(h), impulse)
    assert np.allclose(out.samples[:5], h)
    assert np.allclose(out.samples[5:], 0.0)


def test_lowpass_trivials():
    assert make_lowpass(1, 0.1 * math.pi).coefficients == (1.0,)
    for taps in (7, 31, 101):
        spec = make_lowpass(taps, 0.1 * math.pi)
        assert math.fsum(spec.coefficients) == pytest.approx(1.0, abs=1e-12)


def test_lowpass_stopband_attenuation():
    spec = make_lowpass(101, 0.1 * math.pi)
    h = np.asarray(spec.coefficients)
    w = 0.5 * math.pi
    response = abs(np.sum(h * np.exp(-1j * w * np.arange(101))))
    assert 20 * math.log10(response) < -40.0


def test_lowpass_validation():
    with pytest.raises(ValueError):
        make_lowpass(0, 0.1 * math.pi)
    with pytest.raises(ValueError):
        make_lowpass(10, 3.5)


def test_noisy_signal_determinism_and_moments():
    a = make_noisy_signal("sine_mix", 0.1, 7, 2000)
    b = make_noisy_signal("sine_mix", 0.1, 7, 2000)
    assert np.array_equal(a.samples, b.samples)
    clean = make_noisy_signal("sine_mix", 0.0, 7, 2000)
    resid = a.samples - clean.samples
    assert np.std(resid) == pytest.approx(0.1, rel=0.1)
    chirp = make_noisy_signal("chirp", 0.0, 1, 512)
    assert np.abs(chirp.samples).max() <= 1.0


def test_noisy_signal_csv_kind_and_validation():
    # caller-provided samples are a Signal, not a noisy-signal kind
    for kind in ("csv", "square"):
        with pytest.raises(ValueError, match="kind must be sine_mix or chirp"):
            make_noisy_signal(kind, 0.1, 3, 64)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError) as exc:
            make_noisy_signal("sine_mix", sigma, 3, 64)
        assert str(exc.value) == "noise_sigma must be finite and >= 0"


def test_stochastic_identity_filter_passthrough():
    sig = make_noisy_signal("sine_mix", 0.05, 11, 40)
    d = make_design("cemux", 10)
    out, stats = stochastic_fir(d, FilterSpec((1.0,)), sig, 5)
    assert np.max(np.abs(out.samples - sig.samples)) <= 2 ** -9
    assert stats.rmse <= 2 ** -9


def test_out_of_range_samples_error_instructs_normalization():
    with pytest.raises(ValueError, match="normalize"):
        Signal(np.array([0.5, -1.5]))


def test_scaling_consistency_on_constant_input():
    # constant inputs and exhaustive-period generation leave only the
    # weight/value quantization residual
    h = (0.25, 0.5, 0.25)
    d = make_design("cemux", 8)
    sig = Signal(np.full(8, 0.3125))  # exactly representable at n=8
    out, stats = stochastic_fir(d, FilterSpec(h), sig, 1)
    assert stats.rmse <= 2 ** -7


def test_quantization_preserves_symmetric_coefficients():
    # exactly representable symmetric weights stay symmetric
    q = quantize_weights([0.1, 0.2, 0.4, 0.2, 0.1], 4)
    assert q.tolist() == [2, 3, 6, 3, 2]
    # otherwise mirrored taps may differ only by the one-unit adjustment that
    # breaks argmax ties toward the lower index
    spec = make_lowpass(51, 0.1 * math.pi)
    nums = quantize_weights(spec.coefficients, 10).tolist()
    diffs = [abs(a - b) for a, b in zip(nums, nums[::-1])]
    assert max(diffs) <= 1


def test_pulse_train_probe_properties():
    sig = pulse_train_signal(2048)
    assert len(sig) == 2048
    assert np.abs(sig.samples).max() <= 1.0
    again = pulse_train_signal(2048)
    assert np.array_equal(sig.samples, again.samples)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError) as exc:
            pulse_train_signal(64, noise_sigma=sigma)
        assert str(exc.value) == "noise_sigma must be finite and >= 0"


def test_filter_rmse_vs_length_shape_and_monotonicity():
    spec = make_lowpass(25, 0.1 * math.pi)
    res = filter_rmse_vs_length(["cemux"], spec, [4, 6, 8], 120, 3)
    per = res["cemux"]
    assert set(per) == {4, 6, 8}
    assert per[8] < per[4]


@pytest.mark.parametrize("name", ["cemux", "basic_biased", "cemux_lfsr", "apc"])
def test_filter_chunks_fill_their_runs_before_the_runs(name, monkeypatch):
    import scmux.adders
    import scmux.filterapp
    from scmux.analysis import _adder_chunk_runs

    events, kernel = [], []
    fill, run, simulate = scmux.filterapp._fill_runs, scmux.filterapp.run_adder, scmux.adders._simulate

    def counted_fill(d, w, v, seeds):
        events.append(len(seeds))
        fill(d, w, v, seeds)

    def counted_run(*args):
        events.append("run")
        return run(*args)

    def counted_kernel(d, w, v, seeds):
        kernel.append((len(seeds), len(seeds) << d.n))
        return simulate(d, w, v, seeds)

    monkeypatch.setattr(scmux.filterapp, "_fill_runs", counted_fill)
    monkeypatch.setattr(scmux.filterapp, "run_adder", counted_run)
    monkeypatch.setattr(scmux.adders, "_simulate", counted_kernel)
    spec = make_lowpass(6, 0.5)
    # chunks of at most 128 runs and of 2^14 cycles: 128 at n = 4, 16 at n = 10
    for n, length, chunk in ((4, 130, 128), (10, 40, 16)):
        assert _adder_chunk_runs(n, spec.taps) == chunk
        sizes = [min(chunk, length - i) for i in range(0, length, chunk)]
        for call in (
            lambda: stochastic_fir(make_design(name, n), spec, pulse_train_signal(length), 3),
            lambda: filter_rmse_vs_length([name], spec, [n], length, 3),
        ):
            events.clear()
            kernel.clear()
            call()
            # each chunk is filled, then its runs made, one run_adder call each
            assert events == [e for k in sizes for e in (k, *["run"] * k)]
            # and the kernel runs once per mux fill: no run is simulated alone
            assert [runs for runs, _ in kernel] == ([] if name == "apc" else sizes)
            assert all(cycles <= 1 << 14 for _, cycles in kernel)


@pytest.mark.parametrize("k", [1, 2, 3, 4095 - 150, 2**31 + 1])
@pytest.mark.parametrize("runs", [1, 2, 7, 8])
@pytest.mark.parametrize("carried", [False, True])
def test_window_draws_equal_each_runs_generator_calls(k, runs, carried):
    # filter_rmse_vs_length's chunk of window starts integers(0, k) and seeds
    # integers(0, 2^63), drawn from one block of raw words, against each
    # run's two Generator calls. k = 2^31 + 1 redraws about half of its
    # 32-bit halves, so its chunks take the calls themselves; k = 1 draws
    # nothing for a start.
    from scmux.filterapp import _draw_windows

    block, calls = (np.random.default_rng((77, k, runs)) for _ in range(2))
    if carried:
        # one bounded 32-bit draw leaves the high half of its word buffered
        for rng in (block, calls):
            rng.integers(0, 5)
    assert block.bit_generator.state["has_uint32"] == int(carried)
    # chunks in a row carry each other's buffered halves
    for _ in range(3):
        starts, seeds = _draw_windows(block, k, runs)
        expected = [(int(calls.integers(0, k)), int(calls.integers(0, 2**63))) for _ in range(runs)]
        assert list(zip(starts, seeds)) == expected
        assert all(type(x) is int for x in starts + seeds)
        assert block.bit_generator.state == calls.bit_generator.state
