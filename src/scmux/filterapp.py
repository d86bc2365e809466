"""FIR filtering through stochastic weighted adders.

A length-M FIR filter is one weighted addition per output sample, with the
coefficient vector as the weights and the last M input samples as the
values, so any adder design can serve as the filter datapath. The
floating-point convolution is the accuracy oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .adders import AdderDesign, _fill_runs, make_design, run_adder
from .analysis import AccuracyStats, _adder_chunk_runs
from .rns import _MASK32


# every signal is sampled at the MIT-BIH ECG rate
SAMPLE_RATE_HZ = 360.0


@dataclass(frozen=True)
class Signal:
    """A sampled signal with all samples normalized into [-1, 1]."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("signal must be a non-empty 1-d sample array")
        if np.any(~(np.abs(arr) <= 1.0)):  # NaN fails the comparison
            raise ValueError("samples must lie in [-1, 1]; normalize the signal first")
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return int(self.samples.size)


@dataclass(frozen=True)
class FilterSpec:
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")
        try:
            mass = self.weight_mass
        except OverflowError:
            raise ValueError(
                "coefficients must be finite: the sum of their magnitudes overflows"
            ) from None
        if not mass > 0:
            raise ValueError("coefficients must have nonzero total magnitude")

    @property
    def taps(self) -> int:
        return len(self.coefficients)

    @property
    def weight_mass(self) -> float:
        return math.fsum(abs(c) for c in self.coefficients)


def reference_fir(spec: FilterSpec, signal: Signal) -> Signal:
    """Floating-point convolution with zero-padded history (the oracle).

    The returned signal saturates at full scale like any fixed-range output
    stage; all internal accuracy statistics use the unsaturated values.
    """
    out = _reference_raw(spec, signal)
    return Signal(np.clip(out, -1.0, 1.0))


def _reference_raw(spec: FilterSpec, signal: Signal) -> np.ndarray:
    return np.convolve(signal.samples, np.asarray(spec.coefficients))[: len(signal)]


def stochastic_fir(
    design: AdderDesign,
    spec: FilterSpec,
    signal: Signal,
    master_seed: int,
) -> tuple[Signal, AccuracyStats]:
    """Filter a signal sample-by-sample through a stochastic adder of 2^n cycles.

    The filter's coefficients are the adder's weights. For output sample i
    the adder's value channels hold the samples
    x_i, x_{i-1}, ..., x_{i-M+1} (zero-padded history) and the normalized
    estimate is rescaled by sum|h_j|. The returned statistics compare the
    stochastic output to the floating-point reference, excluding the M-1
    zero-padded warm-up samples; over a signal no longer than those they are
    NaN.
    """
    h = np.asarray(spec.coefficients, dtype=np.float64)
    m = spec.taps
    scale = spec.weight_mass
    x = signal.samples
    ref = _reference_raw(spec, signal)
    # one seed per sample, the words of one integers(0, 2^63) call per sample
    seeds = np.random.default_rng(master_seed).integers(0, 2**63, size=len(x)).tolist()

    out = np.empty(len(x))
    # row i: x_i, x_{i-1}, ..., x_{i-M+1}, zeros before the signal starts
    windows = sliding_window_view(np.concatenate([np.zeros(m - 1), x]), m)[:, ::-1]
    step = _adder_chunk_runs(design.n, m)
    for start in range(0, len(x), step):
        chunk = range(start, min(start + step, len(x)))
        _fill_runs(design, np.broadcast_to(h, (len(chunk), m)), windows[start : chunk.stop],
                   seeds[start : chunk.stop])
        for i in chunk:
            out[i] = run_adder(design, windows[i], 1 << design.n, seeds[i], h).estimate * scale
    warmup = min(m - 1, len(x))
    stats = AccuracyStats.from_errors((out[warmup:] - ref[warmup:]).tolist())
    return Signal(np.clip(out, -1.0, 1.0)), stats


def make_noisy_signal(
    kind: str,
    noise_sigma: float,
    seed: int,
    length: int,
) -> Signal:
    """Deterministic base waveform plus seeded white Gaussian noise.

    Kinds: sine_mix (two in-band tones), chirp (linear frequency sweep). The
    noisy result is clamped into [-1, 1]; base amplitudes leave headroom so
    clamping is rare.
    """
    if not 0 <= noise_sigma < math.inf:  # NaN fails too
        raise ValueError("noise_sigma must be finite and >= 0")
    if length < 1:
        raise ValueError("length must be >= 1")
    t = np.arange(length) / SAMPLE_RATE_HZ
    if kind == "sine_mix":
        base = 0.55 * np.sin(2 * np.pi * 4.0 * t) + 0.25 * np.sin(2 * np.pi * 9.0 * t)
    elif kind == "chirp":
        f0, f1 = 1.0, 0.45 * SAMPLE_RATE_HZ / 2
        phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * t[-1] if length > 1 else 1))
        base = 0.7 * np.sin(phase)
    else:
        raise ValueError("kind must be sine_mix or chirp")
    noise = np.random.default_rng(seed).normal(0.0, noise_sigma, size=base.size)
    return Signal(np.clip(base + noise, -1.0, 1.0))


def pulse_train_signal(
    length: int,
    seed: int = 20210,
    noise_sigma: float = 0.05,
) -> Signal:
    """Quasi-periodic pulse train over a quiet, slowly wandering baseline.

    Narrow biphasic pulses plus a broad after-bump repeat at 72 per minute,
    with additive white noise: the kind of mostly-quiet biosignal a narrow
    lowpass is typically asked to denoise, and the default probe for the
    filter latency sweeps.
    """
    if not 0 <= noise_sigma < math.inf:  # NaN fails too
        raise ValueError("noise_sigma must be finite and >= 0")
    t = np.arange(length) / SAMPLE_RATE_HZ
    x = 0.06 * np.sin(2 * np.pi * 0.33 * t)  # baseline wander
    period = max(1, int(SAMPLE_RATE_HZ / 1.2))
    idx = np.arange(length, dtype=np.float64)
    for k in range(0, length, period):
        tt = idx - (k + 90)
        x += 0.65 * np.exp(-0.5 * (tt / 4.0) ** 2)
        x += -0.12 * np.exp(-0.5 * ((tt - 12) / 6.0) ** 2)
        x += 0.16 * np.exp(-0.5 * ((tt - 60) / 18.0) ** 2)
    x += np.random.default_rng(seed).normal(0.0, noise_sigma, length)
    return Signal(np.clip(x, -1.0, 1.0))


def _draw_windows(rng: np.random.Generator, k: int, runs: int) -> tuple[list[int], list[int]]:
    """Window starts and seeds of `runs` runs, each drawn as a run's two Generator calls draw it.

    A run draws its start integers(0, k), then its seed integers(0, 2^63),
    for 1 <= k < 2^32. The start reads the bit generator's next 32-bit half
    u: the high half of a raw word that an earlier start left buffered, or
    else the low half of a fresh raw word, whose high half it buffers. It is
    (u k) >> 32 unless (u k) mod 2^32 < (2^32 - k) mod k, when Lemire's
    method draws again; k = 1 draws nothing. The seed is the next raw word
    >> 1, and leaves the buffered half alone. So a chunk is one block of raw
    words, and the generator's buffer is set to where the run's calls leave
    it. A chunk in which some start would draw again is drawn by the calls
    themselves.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    # runs whose start takes the low half of a fresh word: every other run,
    # from the first one that finds no buffered half
    unbuffered = np.arange(runs) - state["has_uint32"]
    fresh = (unbuffered >= 0) & (unbuffered % 2 == 0) & (k > 1)
    ends = np.cumsum(1 + fresh)
    words = bit_generator.random_raw(int(ends[-1]))
    start_words = words[np.maximum(ends - 2, 0)]
    buffered = np.concatenate((np.array([state["uinteger"]], dtype=np.uint64), start_words[:-1] >> 32))
    u = np.where(fresh, start_words & _MASK32, buffered)
    scaled = u * np.uint64(k)
    if np.any((scaled & _MASK32) < (2**32 - k) % k):
        bit_generator.state = state
        draws = [(int(rng.integers(0, k)), int(rng.integers(0, 2**63))) for _ in range(runs)]
        return [start for start, _ in draws], [seed for _, seed in draws]
    if k > 1:
        after = bit_generator.state
        after["has_uint32"] = int(fresh[-1])
        after["uinteger"] = int(start_words[-1] >> 32 if fresh[-1] else u[-1])
        bit_generator.state = after
    return (scaled >> 32).tolist(), (words[ends - 1] >> 1).tolist()


def filter_rmse_vs_length(
    design_names,
    spec: FilterSpec,
    n_values,
    runs: int,
    master_seed: int,
) -> dict[str, dict[int, float]]:
    """Filter-output RMSE of each design at several stream lengths N = 2^n.

    Each run draws one random window of the probe signal, computes a single
    filter output sample with the design, rescales by sum|h|, and compares
    against the floating-point dot product. Used for latency studies.
    """
    if runs < 1:
        raise ValueError("need at least 1 run")
    m = spec.taps
    x = pulse_train_signal(4096).samples
    if len(x) < m + 1:
        raise ValueError("probe signal shorter than the filter")
    h = np.asarray(spec.coefficients)
    scale = spec.weight_mass
    out: dict[str, dict[int, float]] = {}
    for name in design_names:
        per_n: dict[int, float] = {}
        for n in n_values:
            design = make_design(name, n)
            rng = np.random.default_rng((master_seed, n))
            step = _adder_chunk_runs(n, m)
            errs = []
            for done in range(0, runs, step):
                starts, seeds = _draw_windows(rng, len(x) - m, min(step, runs - done))
                windows = [x[start : start + m][::-1] for start in starts]
                _fill_runs(design, np.broadcast_to(h, (len(windows), m)), windows, seeds)
                for window, seed in zip(windows, seeds):
                    rep = run_adder(design, window, 1 << design.n, seed, h)
                    errs.append(rep.estimate * scale - float(h @ window))
            per_n[n] = AccuracyStats.from_errors(errs).rmse
        out[name] = per_n
    return out


def make_lowpass(taps: int, cutoff: float) -> FilterSpec:
    """Hamming-windowed sinc lowpass, DC gain normalized to 1.

    cutoff is in rad/sample, 0 < cutoff < pi.
    """
    if taps < 1:
        raise ValueError("taps must be >= 1")
    if not 0.0 < cutoff < math.pi:
        raise ValueError("cutoff must lie in (0, pi) rad/sample")
    k = np.arange(taps) - (taps - 1) / 2.0
    ideal = (cutoff / math.pi) * np.sinc(cutoff * k / math.pi)
    h = ideal * np.hamming(taps)
    h = h / h.sum()
    return FilterSpec(tuple(float(c) for c in h))
