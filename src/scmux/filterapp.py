"""FIR filtering through stochastic weighted adders.

A length-M FIR filter is one weighted addition per output sample, with the
coefficient vector as the weights and the last M input samples as the
values, so any adder design can serve as the filter datapath. The
floating-point convolution is the accuracy oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .adders import AdderDesign, make_design, run_adder
from .analysis import AccuracyStats


@dataclass(frozen=True)
class Signal:
    """A sampled signal with all samples normalized into [-1, 1].

    source_range records the affine full-scale mapping applied during
    normalization, if any; sample_rate is informational.
    """

    samples: np.ndarray = field(repr=False)
    sample_rate: float = 360.0
    source_range: tuple[float, float] | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("signal must be a non-empty 1-d sample array")
        if np.any(~(np.abs(arr) <= 1.0)):  # NaN fails the comparison
            raise ValueError(
                "samples must lie in [-1, 1]; normalize the signal first "
                "(see normalize_signal)"
            )
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return int(self.samples.size)


def normalize_signal(samples, sample_rate: float = 360.0, full_scale: float | None = None) -> Signal:
    """Affinely map raw samples into [-1, 1] using a declared full-scale range.

    full_scale defaults to the peak magnitude of the data.
    """
    arr = np.asarray(samples, dtype=np.float64)
    peak = float(np.max(np.abs(arr))) if arr.size else 1.0
    scale = full_scale if full_scale is not None else (peak or 1.0)
    if scale <= 0:
        raise ValueError("full_scale must be positive")
    return Signal(arr / scale, sample_rate, source_range=(-scale, scale))


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
    return Signal(np.clip(out, -1.0, 1.0), signal.sample_rate)


def _reference_raw(spec: FilterSpec, signal: Signal) -> np.ndarray:
    return np.convolve(signal.samples, np.asarray(spec.coefficients))[: len(signal)]


def stochastic_fir(
    design: AdderDesign,
    signal: Signal,
    stream_length: int,
    master_seed: int,
) -> tuple[Signal, AccuracyStats]:
    """Filter a signal sample-by-sample through a stochastic adder.

    For output sample i the adder's value channels hold the samples
    x_i, x_{i-1}, ..., x_{i-M+1} (zero-padded history) and the normalized
    estimate is rescaled by sum|h_j|. The returned statistics compare the
    stochastic output to the floating-point reference, excluding the M-1
    zero-padded warm-up samples.
    """
    h = design.weights
    m = len(h)
    spec = FilterSpec(h)
    scale = spec.weight_mass
    x = signal.samples
    ref = _reference_raw(spec, signal)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))

    out = np.empty(len(x))
    errors = []
    warmup = min(m - 1, len(x))
    for i in range(len(x)):
        window = np.zeros(m)
        lo = max(0, i - m + 1)
        taken = x[lo : i + 1][::-1]
        window[: taken.size] = taken
        seed = int(rng.integers(0, 2**63))
        out[i] = run_adder(design, window, stream_length, seed).estimate * scale
        if i >= warmup:
            errors.append(out[i] - ref[i])
    stats = AccuracyStats.from_errors(errors)
    return Signal(np.clip(out, -1.0, 1.0), signal.sample_rate), stats


def make_noisy_signal(
    kind: str,
    noise_sigma: float,
    seed: int,
    length: int,
    sample_rate: float = 360.0,
) -> Signal:
    """Deterministic base waveform plus seeded white Gaussian noise.

    Kinds: sine_mix (two in-band tones), chirp (linear frequency sweep). The
    noisy result is clamped into [-1, 1]; base amplitudes leave headroom so
    clamping is rare.
    """
    if not noise_sigma >= 0:  # NaN fails too
        raise ValueError("noise_sigma must be >= 0")
    if length < 1:
        raise ValueError("length must be >= 1")
    t = np.arange(length) / sample_rate
    if kind == "sine_mix":
        base = 0.55 * np.sin(2 * np.pi * 4.0 * t) + 0.25 * np.sin(2 * np.pi * 9.0 * t)
    elif kind == "chirp":
        f0, f1 = 1.0, 0.45 * sample_rate / 2
        phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * t[-1] if length > 1 else 1))
        base = 0.7 * np.sin(phase)
    else:
        raise ValueError("kind must be sine_mix or chirp")
    noise = np.random.default_rng(seed).normal(0.0, noise_sigma, size=base.size)
    return Signal(np.clip(base + noise, -1.0, 1.0), sample_rate)


def pulse_train_signal(
    length: int,
    sample_rate: float = 360.0,
    seed: int = 20210,
    noise_sigma: float = 0.05,
) -> Signal:
    """Quasi-periodic pulse train over a quiet, slowly wandering baseline.

    Narrow biphasic pulses plus a broad after-bump repeat at 72 per minute,
    with additive white noise: the kind of mostly-quiet biosignal a narrow
    lowpass is typically asked to denoise, and the default probe for the
    filter latency sweeps.
    """
    t = np.arange(length) / sample_rate
    x = 0.06 * np.sin(2 * np.pi * 0.33 * t)  # baseline wander
    period = max(1, int(sample_rate / 1.2))
    idx = np.arange(length, dtype=np.float64)
    for k in range(0, length, period):
        tt = idx - (k + 90)
        x += 0.65 * np.exp(-0.5 * (tt / 4.0) ** 2)
        x += -0.12 * np.exp(-0.5 * ((tt - 12) / 6.0) ** 2)
        x += 0.16 * np.exp(-0.5 * ((tt - 60) / 18.0) ** 2)
    x += np.random.default_rng(seed).normal(0.0, noise_sigma, length)
    return Signal(np.clip(x, -1.0, 1.0), sample_rate)


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
            rng = np.random.default_rng(np.random.SeedSequence((master_seed, n)))
            design = make_design(name, spec.coefficients, n)
            errs = np.empty(runs)
            for r in range(runs):
                start = int(rng.integers(0, len(x) - m))
                window = x[start : start + m][::-1]
                seed = int(rng.integers(0, 2**63))
                rep = run_adder(design, window, 1 << n, seed)
                errs[r] = rep.estimate * scale - float(h @ window)
            per_n[n] = float(np.sqrt(np.mean(errs**2)))
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
