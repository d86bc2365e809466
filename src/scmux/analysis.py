"""Monte Carlo accuracy statistics, the three-part variance decomposition,
and closed-form output variances for mux adders.

The output estimator's variance splits into three components:

  noise  variance of the input streams themselves, given how often each
         input is expected to be sampled
  samp   variance injected by fluctuation in how often each input actually
         is sampled (zero under precise sampling)
  corr   cross-input term driven by the covariance between sampled bits of
         different inputs; negative under full correlation

Each component is estimated per run from recorded sampling counts and
stream bits, using the appendix convention that bipolar bits take values
{-1, +1}; streams themselves stay stored as {0, 1}.

Closed forms are provided for six model rows (input model x sampling x
input correlation). For the fully-correlated rows the variance depends only
on the pairwise gaps between the sign-adjusted input values; the forms here
use bipolar-domain gaps d_ij = |s_i mu_i - s_j mu_j|:

  bernoulli       noisy    (1 - (sum w~ mu')^2) / N
  bernoulli       precise  (1 - sum w~ mu'^2) / N
  hypergeometric  noisy/0  (1 - (sum w~ mu')^2 - sum w~^2 (1 - mu'^2)) / N
  hypergeometric  noisy/1  sum_{i<j} 2 w~_i w~_j d_ij / N
  hypergeometric  precise/0  sum w~ (1 - w~)(1 - mu'^2) / (N - 1)
  hypergeometric  precise/1  sum_{i<j} w~_i w~_j d_ij (2 - d_ij) / (N - 1)

All six are validated against exhaustive enumeration and Monte Carlo in the
test suite.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .adders import AdderDesign, run_adder
from .bitstream import bipolar_thresholds
from .muxtree import build_hardwired_tree, quantize_weights

_MODELS = ("bernoulli", "hypergeometric")
_SAMPLINGS = ("noisy", "precise")
_ROWS = (
    "bernoulli/noisy/any",
    "bernoulli/precise/any",
    "hypergeometric/noisy/0",
    "hypergeometric/noisy/1",
    "hypergeometric/precise/0",
    "hypergeometric/precise/1",
)


@dataclass(frozen=True)
class AccuracyStats:
    rmse: float
    bias: float
    variance: float
    mse: float
    runs: int

    @classmethod
    def from_errors(cls, errors) -> "AccuracyStats":
        """Moments of a list of errors; an empty list gives all zeros."""
        runs = len(errors)
        mse = math.fsum(e * e for e in errors) / runs if runs else 0.0
        bias = math.fsum(errors) / runs if runs else 0.0
        return cls(
            rmse=math.sqrt(mse), bias=bias, variance=mse - bias * bias, mse=mse, runs=runs
        )


@dataclass(frozen=True)
class ModelConfig:
    """One Monte Carlo model setting for decomposition and closed forms.

    values None draws fresh uniform bipolar inputs each run. height is the
    mux tree height (defaults to log2 N).
    """

    sn_model: str
    sampling: str
    input_scc: int | None
    weights: tuple[float, ...]
    values: tuple[float, ...] | None
    N: int
    height: int | None = None

    def __post_init__(self):
        if self.sn_model not in _MODELS:
            raise ValueError(
                f"unknown SN model {self.sn_model!r}; supported rows: {', '.join(_ROWS)}"
            )
        if self.sampling not in _SAMPLINGS:
            raise ValueError(
                f"unknown sampling {self.sampling!r}; supported rows: {', '.join(_ROWS)}"
            )
        if self.input_scc not in (None, 0, 1):
            raise ValueError(
                f"input_scc must be 0, 1 or None; supported rows: {', '.join(_ROWS)}"
            )
        if self.sn_model == "hypergeometric" and self.input_scc is None:
            raise ValueError(
                "hypergeometric model needs an explicit input SCC level (0 or 1); "
                f"supported rows: {', '.join(_ROWS)}"
            )
        n = int(round(math.log2(self.N)))
        if (1 << n) != self.N or n < 2:
            raise ValueError("N must be a power of two >= 4")
        h = self.effective_height
        if not 1 <= h <= n:
            raise ValueError("tree height must be in [1, log2 N]")
        if self.sampling == "precise" and self.N % (1 << h):
            raise ValueError("precise sampling needs N to be a multiple of 2^height")
        if self.values is not None and len(self.values) != len(self.weights):
            raise ValueError("values and weights must have equal length")

    @property
    def effective_height(self) -> int:
        return self.height if self.height is not None else int(round(math.log2(self.N)))


class _ModelRuntime:
    """Precomputed, run-independent pieces of a ModelConfig simulation."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.N = cfg.N
        self.n = int(round(math.log2(cfg.N)))
        self.h = cfg.effective_height
        self.M = len(cfg.weights)
        q = quantize_weights(cfg.weights, self.h)
        self.q = q
        self.signs = np.array(q.signs, dtype=np.int64)
        self.wt = np.array(q.numerators, dtype=np.float64) / q.denominator
        self.c = np.array(q.numerators, dtype=np.int64) * (self.N >> self.h)
        tree = build_hardwired_tree(q)
        period_owners = tree.owner
        self.owner = period_owners
        reps = self.N >> self.h
        self.owners_precise = np.tile(period_owners, reps)
        if cfg.values is not None:
            self.fixed_thresholds = self._thresholds(np.asarray(cfg.values, float))
        else:
            self.fixed_thresholds = None

    def _thresholds(self, values: np.ndarray) -> np.ndarray:
        """Post-sign thresholds B' with mu'_i = 2 B'_i / N - 1 = s_i * quantized(v_i)."""
        b = bipolar_thresholds(values, self.n)
        return np.where(self.signs > 0, b, self.N - b)


def _draw_streams(rt: _ModelRuntime, rng: np.random.Generator, bp: np.ndarray) -> np.ndarray:
    """One run's post-sign stream bit matrix (M, N), entries 0/1."""
    cfg = rt.cfg
    if cfg.sn_model == "hypergeometric":
        if cfg.input_scc == 1:
            perm = rng.permutation(rt.N)
            return (perm[None, :] < bp[:, None]).astype(np.int8)
        perms = rng.permuted(np.tile(np.arange(rt.N), (rt.M, 1)), axis=1)
        return (perms < bp[:, None]).astype(np.int8)
    # bernoulli: with-replacement uniform words
    if cfg.input_scc == 1:
        words = rng.integers(0, rt.N, size=rt.N)
        return (words[None, :] < bp[:, None]).astype(np.int8)
    words = rng.integers(0, rt.N, size=(rt.M, rt.N))
    return (words < bp[:, None]).astype(np.int8)


def _run_once(rt: _ModelRuntime, rng: np.random.Generator):
    """Simulate one run; return (total, noise, samp, corr, dc).

    Every returned statistic is an unbiased single-run estimate, so means
    and standard errors across runs follow directly.
    """
    cfg = rt.cfg
    N, M = rt.N, rt.M
    if rt.fixed_thresholds is not None:
        bp = rt.fixed_thresholds
    else:
        values = rng.uniform(-1.0, 1.0, size=M)
        bp = rt._thresholds(values)
    mup = 2.0 * bp / N - 1.0

    u = _draw_streams(rt, rng, bp)

    if cfg.sampling == "precise":
        owners = rt.owners_precise
    else:
        sel = rng.integers(0, 1 << rt.h, size=N)
        owners = rt.owner[sel]

    zu = u[owners, np.arange(N)]
    mu_hat = 2.0 * int(zu.sum()) / N - 1.0
    m_exact = float(rt.wt @ mup)
    total = (mu_hat - m_exact) ** 2

    # noise: deviation of the first-E[C_i] prefix sums from their exact means
    cs = np.cumsum(u, axis=1)
    prefix_ones = np.where(rt.c > 0, cs[np.arange(M), np.maximum(rt.c, 1) - 1], 0)
    t_sum = 2.0 * prefix_ones - rt.c
    noise = float(((t_sum - rt.c * mup) ** 2).sum()) / N**2

    s_pm = 2.0 * u.sum(axis=1) - N  # per-stream +/-1 bit sums
    ud = u.astype(np.float64)

    if cfg.sampling == "precise":
        samp = 0.0
        dc = np.zeros(M, dtype=np.float64)
    else:
        dc = np.bincount(owners, minlength=M) - rt.c.astype(np.float64)
        g = 2.0 * (dc @ ud) - dc.sum()  # +/-1 column sums weighted by dC
        samp = (float(dc @ s_pm) ** 2 - float(g @ g)) / (N * (N - 1)) / N**2

    cw = rt.c.astype(np.float64)
    gc = 2.0 * (cw @ ud) - cw.sum()
    e_ii = (s_pm**2 - N) / (N * (N - 1.0))
    pair_sum = (float(cw @ s_pm) ** 2 - float(gc @ gc)) / (N * (N - 1)) - float(
        (cw**2) @ e_ii
    )
    mu_pair = float(cw @ mup) ** 2 - float((cw * mup) @ (cw * mup))
    corr = (pair_sum - mu_pair) / N**2

    return total, noise, samp, corr, dc


@dataclass
class VarianceReport:
    """Monte Carlo decomposition of the output variance."""

    eps_noise: float
    eps_samp: float
    eps_corr: float
    total_variance: float
    runs: int
    se_noise: float
    se_samp: float
    se_corr: float
    se_total: float
    se_identity: float
    c_covariance: np.ndarray

    @property
    def components_sum(self) -> float:
        return self.eps_noise + self.eps_samp + self.eps_corr

    @property
    def identity_gap(self) -> float:
        return self.components_sum - self.total_variance


def _mean_se(xs: np.ndarray) -> tuple[float, float]:
    mean = float(xs.mean())
    if xs.size < 2:
        return mean, float("inf")
    return mean, float(xs.std(ddof=1) / math.sqrt(xs.size))


def decompose_variance(cfg: ModelConfig, runs: int, master_seed: int) -> VarianceReport:
    """Estimate the three variance components over seeded Monte Carlo runs."""
    if runs < 2:
        raise ValueError("need at least 2 runs")
    rt = _ModelRuntime(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))

    totals = np.empty(runs)
    noises = np.empty(runs)
    samps = np.empty(runs)
    corrs = np.empty(runs)
    c_cov = np.zeros((rt.M, rt.M))
    for r in range(runs):
        totals[r], noises[r], samps[r], corrs[r], dc = _run_once(rt, rng)
        c_cov += np.outer(dc, dc)
    c_cov /= runs

    eps_noise, se_noise = _mean_se(noises)
    eps_samp, se_samp = _mean_se(samps)
    eps_corr, se_corr = _mean_se(corrs)
    total_variance, se_total = _mean_se(totals)
    _, se_identity = _mean_se(noises + samps + corrs - totals)
    return VarianceReport(
        eps_noise=eps_noise,
        eps_samp=eps_samp,
        eps_corr=eps_corr,
        total_variance=total_variance,
        runs=runs,
        se_noise=se_noise,
        se_samp=se_samp,
        se_corr=se_corr,
        se_total=se_total,
        se_identity=se_identity,
        c_covariance=c_cov,
    )


def _closed_form(model: str, sampling: str, scc, wt: np.ndarray, mup: np.ndarray, N: int) -> float:
    if model == "bernoulli":
        # the bernoulli rows hold at any input correlation level
        s = float(wt @ mup)
        if sampling == "noisy":
            return (1.0 - s * s) / N
        return (1.0 - float(wt @ (mup * mup))) / N
    if scc not in (0, 1):
        raise ValueError(
            f"no closed-form row for hypergeometric with SCC {scc!r}; "
            f"supported rows: {', '.join(_ROWS)}"
        )
    if scc == 0:
        if sampling == "noisy":
            s = float(wt @ mup)
            return (1.0 - s * s - float((wt * wt) @ (1.0 - mup * mup))) / N
        return float((wt * (1.0 - wt)) @ (1.0 - mup * mup)) / (N - 1)
    gaps = np.abs(np.subtract.outer(mup, mup))
    ww = np.outer(wt, wt)
    if sampling == "noisy":
        return float((ww * gaps).sum()) / N  # == sum_{i<j} 2 w_i w_j d_ij / N
    return float((ww * gaps * (2.0 - gaps)).sum()) / (2.0 * (N - 1))


def closed_form_variance(cfg: ModelConfig) -> float:
    """Evaluate the matching closed-form output variance for fixed inputs.

    Weights and values are quantized exactly as the simulation quantizes
    them, so the result is comparable to decompose_variance's total.
    """
    if cfg.values is None:
        raise ValueError("closed_form_variance needs fixed input values")
    rt = _ModelRuntime(cfg)
    mup = 2.0 * rt.fixed_thresholds / rt.N - 1.0
    return _closed_form(cfg.sn_model, cfg.sampling, cfg.input_scc, rt.wt, mup, cfg.N)


def expected_closed_form(cfg: ModelConfig, runs: int, master_seed: int) -> float:
    """Average closed form over the per-run value draws (for values=None)."""
    rt = _ModelRuntime(cfg)
    if rt.fixed_thresholds is not None:
        return closed_form_variance(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    acc = 0.0
    for _ in range(runs):
        values = rng.uniform(-1.0, 1.0, size=rt.M)
        bp = rt._thresholds(values)
        mup = 2.0 * bp / rt.N - 1.0
        acc += _closed_form(cfg.sn_model, cfg.sampling, cfg.input_scc, rt.wt, mup, cfg.N)
    return acc / runs


def accuracy_stats(
    design: AdderDesign,
    stream_length: int,
    runs: int,
    master_seed: int,
    values="uniform",
    weight_mode: str | None = None,
) -> AccuracyStats:
    """RMSE/bias/variance/MSE of a design over seeded simulation runs.

    values is either "uniform" (fresh bipolar U[-1, 1] inputs each run) or a
    fixed tuple. weight_mode redraws weights each run: "uniform" for
    U[-1, 1], "pm" for random signs at magnitude 1/M. Errors are measured
    against each run's own quantized target, so bias^2 + variance = MSE holds
    exactly in the sample moments.
    """
    if runs < 1:
        raise ValueError("need at least 1 run")
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    m = len(design.weights)
    errors = []
    for _ in range(runs):
        d = design
        if weight_mode == "uniform":
            w = rng.uniform(-1.0, 1.0, size=m)
            while not np.any(w):
                w = rng.uniform(-1.0, 1.0, size=m)
            d = replace(design, weights=tuple(w))
        elif weight_mode == "pm":
            signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            d = replace(design, weights=tuple(signs / m))
        elif weight_mode is not None:
            raise ValueError("weight_mode must be None, 'uniform' or 'pm'")
        v = rng.uniform(-1.0, 1.0, size=m) if values == "uniform" else values
        seed = int(rng.integers(0, 2**63))
        errors.append(run_adder(d, v, stream_length, seed).error)
    return AccuracyStats.from_errors(errors)
