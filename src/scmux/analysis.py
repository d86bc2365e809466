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
from dataclasses import dataclass

import numpy as np

from .adders import AdderDesign, _chunk_runs, _run_reports
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
    mse: float
    runs: int

    @classmethod
    def from_errors(cls, errors) -> "AccuracyStats":
        """Moments of a list of errors; an empty list has none, so they are NaN."""
        runs = len(errors)
        if not runs:
            return cls(rmse=math.nan, bias=math.nan, mse=math.nan, runs=0)
        mse = math.fsum(e * e for e in errors) / runs
        return cls(rmse=math.sqrt(mse), bias=math.fsum(errors) / runs, mse=mse, runs=runs)


@dataclass(frozen=True)
class ModelConfig:
    """One Monte Carlo model setting for decomposition and closed forms.

    values None draws fresh uniform bipolar inputs each run. The mux tree
    has height log2 N, as in every adder design.
    """

    sn_model: str
    sampling: str
    input_scc: int | None
    weights: tuple[float, ...]
    values: tuple[float, ...] | None
    N: int

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
        if (1 << n) != self.N or not 2 <= n <= 16:
            raise ValueError("N must be a power of two in [4, 2^16]")
        if self.values is not None and len(self.values) != len(self.weights):
            raise ValueError("values and weights must have equal length")


class _ModelRuntime:
    """Precomputed, run-independent pieces of a ModelConfig simulation."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.N = cfg.N
        self.n = int(round(math.log2(cfg.N)))
        self.M = len(cfg.weights)
        # over N = 2^n cycles input i is expected to be sampled c_i times, its
        # numerator over 2^n
        self.c = quantize_weights(cfg.weights, self.n)
        self.negative = np.asarray(cfg.weights) < 0
        self.wt = self.c / self.N
        # stream words per run: one shared source under SCC +1, else one per input
        self.K = 1 if cfg.input_scc == 1 else self.M
        # the noise component counts input i's bits over its first c_i cycles
        if self.K == 1:
            # the shared words of those cycles, input by input (sum c = N
            # entries); input i's entries start at its first_start, if c_i > 0
            starts = np.cumsum(self.c) - self.c
            self.first_at = np.arange(self.N) - np.repeat(starts, self.c)
            self.first_start = starts[self.c > 0]
        else:
            self.first = np.arange(self.N) < self.c[:, None]
        self.owner = build_hardwired_tree(self.c)
        if cfg.values is not None:
            self.fixed_thresholds = self._thresholds(np.asarray(cfg.values, float))
        else:
            self.fixed_thresholds = None

    def _thresholds(self, values: np.ndarray) -> np.ndarray:
        """Post-sign thresholds B' with mu'_i = 2 B'_i / N - 1 = s_i * quantized(v_i)."""
        b = bipolar_thresholds(values, self.n)
        return np.where(self.negative, self.N - b, b)


def _draw_chunk(rt: _ModelRuntime, rng: np.random.Generator, runs: int):
    """Draw `runs` runs in the per-run order: values, stream words, select words.

    Each run reads the generator words that its per-run calls read, but into
    rows of blocks allocated once per chunk:
    - values: random() into a row, as uniform(-1, 1) is -1 + 2 random();
    - hypergeometric words: permutation(N) is arange(N) shuffled, so a run
      shuffles its row of an arange block in place (SCC +1), or permutes
      its (M, N) rows in place (SCC 0);
    - Bernoulli words and select words: integers(0, 2^n) reads one uint32 u
      per word as u >> (32 - n), since Lemire's method never rejects a
      power-of-two range, and random(dtype=float32) reads the same u as
      (u >> 8) 2^-24, so a word is floor(2^n f). A run's uint32 draws are
      consecutive, so they are one float32 call.

    Returns the post-sign thresholds (runs, M), the int32 stream words
    (runs, K, N), where K = 1 when all inputs share one source (SCC +1) and
    M otherwise, and the input owning each cycle (runs, N). Input i's bit at
    cycle t is words[r, i or 0, t] < B'_i.
    """
    N, M, K = rt.N, rt.M, rt.K
    hyper, noisy = rt.cfg.sn_model == "hypergeometric", rt.cfg.sampling == "noisy"
    drawn = rt.fixed_thresholds is None
    unit = np.empty((runs, M))
    words = np.tile(np.arange(N), (runs, K, 1)) if hyper else None
    f32 = np.empty((runs, (0 if hyper else K * N) + (N if noisy else 0)), dtype=np.float32)
    for r in range(runs):
        if drawn:
            rng.random(out=unit[r])
        if hyper and K == 1:
            rng.shuffle(words[r, 0])
        elif hyper:
            rng.permuted(words[r], axis=1, out=words[r])
        if f32.shape[1]:
            rng.random(out=f32[r], dtype=np.float32)
    # int32 words (N <= 2^16) halve the chunk's per-cycle arrays; the arange
    # block is int64 while it is shuffled, as numpy shuffles 8-byte items fastest
    codes = (f32 * N).astype(np.int32)
    words = words.astype(np.int32) if hyper else codes[:, : K * N].reshape(runs, K, N)
    if drawn:
        bp = rt._thresholds(-1.0 + 2.0 * unit)
    else:
        bp = np.broadcast_to(rt.fixed_thresholds, (runs, M))
    if noisy:
        owners = rt.owner[codes[:, -N:]]
    else:
        owners = np.broadcast_to(rt.owner, (runs, N))
    return bp, words, owners


def _chunk_stats(rt: _ModelRuntime, bp: np.ndarray, words: np.ndarray, owners: np.ndarray):
    """Per-run (total, noise, samp, corr) as rows of a (4, R) array, and dc (R, M).

    dc is each run's sampling count minus its expectation, C_i - c_i.

    Every input is an integer over N: the bits, the counts c_i and
    C_i, and the post-sign thresholds. So each statistic is an exact
    integer numerator over one divisor. Linear sums stay integers (int64,
    or float64 BLAS products whose partial sums are integers of magnitude
    at most 2N, hence exact); squares are taken in float64, where no
    product can wrap. The numerators stay exact in float64 for n <= 10.

    samp and corr read the bits through the column sums
    g_t = sum_i k_i (2 u_it - 1), for k = C - c and k = c, and only as
    sum_t g_t^2. When all inputs share one word sequence w (K = 1), input
    i's bit at cycle t is w_t < B'_i, so the inputs whose bits are set form
    a suffix in threshold order, the same one for every word between two
    consecutive sorted thresholds. sum_t g_t^2 is then a sum over the M + 1
    gaps between them of (words in the gap) g^2, in int64, and no
    (R, M, N) bit block is formed. A permutation has B'_i words below B'_i,
    so under the hypergeometric model input i's +/-1 bit sum is 2 B'_i - N.
    """
    N, M, n = rt.N, rt.M, rt.n
    R = bp.shape[0]
    hyper, precise = rt.cfg.sn_model == "hypergeometric", rt.cfg.sampling == "precise"
    a = 2 * bp - N  # mu'_i = a_i / N
    scale = float(N << n) ** 2
    b = bp.astype(np.int32)  # compared with the int32 words without a cast

    if rt.K == 1:
        w = words[:, 0]
        if precise:
            ones = np.count_nonzero(w < b[:, rt.owner], axis=1)
        else:
            ones = np.count_nonzero(w < np.take(b, owners + M * np.arange(R)[:, None]), axis=1)
        first = w[:, rt.first_at] < np.repeat(b, rt.c, axis=1)
        prefix = np.zeros((R, M), dtype=np.int64)
        prefix[:, rt.c > 0] = np.add.reduceat(first, rt.first_start, axis=1, dtype=np.int64)
        # at[r, i]: the run's words below B'_i
        if hyper:
            at = bp
        else:
            hist = np.bincount((w + N * np.arange(R)[:, None]).ravel(), minlength=R * N)
            below = np.zeros((R, N + 1), dtype=np.int64)
            np.cumsum(hist.reshape(R, N), axis=1, out=below[:, 1:])
            at = np.take(below, bp + (N + 1) * np.arange(R)[:, None])
        # flat indices of each run's inputs in threshold order
        order = np.argsort(bp, axis=1, kind="stable") + M * np.arange(R)[:, None]
        cut = np.take(at, order)

        def square_sum(k):
            # in threshold order the words of gap j, cut_(j-1) <= w < cut_j, set
            # the bits of inputs j, j + 1, ..., so there g = S - 2 (k_0 + ... +
            # k_(j-1)) with S = sum k; summed by parts over the gaps,
            # sum_t g_t^2 = N S^2 + 4 sum_j cut_j k_j (S + k_j - 2 (k_0 + ... + k_j))
            k = np.take(k, order)
            k_sum = k.sum(axis=1)
            rest = cut * k * (k_sum[:, None] + k - 2 * np.cumsum(k, axis=1))
            return (N * k_sum**2 + 4 * rest.sum(axis=1)).astype(np.float64)

    else:
        u = words < b[:, :, None]  # (R, M, N) stream bits
        own = owners[:, None, :] == np.arange(M)[:, None]
        ones = np.count_nonzero(u & own, axis=(1, 2))
        prefix = np.count_nonzero(u & rt.first, axis=2)
        at = bp if hyper else np.count_nonzero(u, axis=2)
        uf = u.astype(np.float64)

        def square_sum(k):
            g = 2.0 * (k[:, None, :] @ uf)[:, 0] - k.sum(axis=1, keepdims=True)
            return (g**2).sum(axis=1)

    # total: (mu_hat - sum w~ mu')^2 = D^2 / (2^n N)^2
    d = ((2 * ones - N) << n) - a @ rt.c
    total = d.astype(np.float64) ** 2 / scale

    # noise: deviation of the first-c_i prefix sums from their exact means
    e = ((2 * prefix - rt.c) << n) - rt.c * a
    noise = (e.astype(np.float64) ** 2).sum(axis=1) / scale

    s = 2 * at - N  # per-stream +/-1 bit sums
    if precise:
        samp = np.zeros(R)
        dc = np.zeros((R, M))
    else:
        counts = np.bincount((owners + M * np.arange(R)[:, None]).ravel(), minlength=R * M)
        dc_int = counts.reshape(R, M) - rt.c
        dc = dc_int.astype(np.float64)
        x = (dc_int * s).sum(axis=1).astype(np.float64)
        samp = (x**2 - square_sum(dc_int)) / (N * (N - 1)) / N**2

    # corr = (N P - (N - 1) Q) / ((N - 1) N^4) with P the +/-1 pair sum of
    # the bits and Q its mean, both integers
    cw = rt.c.astype(np.float64)
    xc = (s @ rt.c).astype(np.float64)
    sf = s.astype(np.float64)
    p = xc**2 - square_sum(np.broadcast_to(rt.c, (R, M))) - (sf**2 - N) @ cw**2
    ca = rt.c * a
    q = ca.sum(axis=1).astype(np.float64) ** 2 - (ca.astype(np.float64) ** 2).sum(axis=1)
    corr = (N * p - (N - 1) * q) / (N - 1) / float(N) ** 4

    return np.array([total, noise, samp, corr]), dc


def _model_runs(rt: _ModelRuntime, rng: np.random.Generator, runs: int):
    """Simulate `runs` runs a chunk at a time; yield _chunk_stats per chunk.

    Every statistic is an unbiased single-run estimate, so means and
    standard errors across runs follow directly. A chunk fills its (R, K, N)
    stream words, K = 1 under one shared source (SCC +1) and M otherwise,
    and then without a shared source its (R, M, N) bit block; each holds at
    most adders._CHUNK_ELEMENTS elements (or one run, if that has more),
    which keeps batching's rise in decompose's peak RSS under a megabyte.
    """
    step = _chunk_runs(rt.K * rt.N)
    for start in range(0, runs, step):
        yield _chunk_stats(rt, *_draw_chunk(rt, rng, min(step, runs - start)))


@dataclass
class VarianceReport:
    """Monte Carlo decomposition of the output variance."""

    eps_noise: float
    eps_samp: float
    eps_corr: float
    total_variance: float
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
    rng = np.random.default_rng(master_seed)

    chunks = []
    c_cov = np.zeros((rt.M, rt.M))
    for chunk, dc in _model_runs(rt, rng, runs):
        chunks.append(chunk)
        c_cov += np.einsum("ri,rj->ij", dc, dc)
    c_cov /= runs
    totals, noises, samps, corrs = np.concatenate(chunks, axis=1)

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
        se_noise=se_noise,
        se_samp=se_samp,
        se_corr=se_corr,
        se_total=se_total,
        se_identity=se_identity,
        c_covariance=c_cov,
    )


def _closed_form(rt: _ModelRuntime, mup: np.ndarray) -> np.ndarray:
    """Closed-form output variance for each row of post-sign means mup (R, M)."""
    model, sampling, scc = rt.cfg.sn_model, rt.cfg.sampling, rt.cfg.input_scc
    wt, N = rt.wt, rt.N
    if model == "bernoulli":
        # the bernoulli rows hold at any input correlation level
        if sampling == "noisy":
            s = mup @ wt
            return (1.0 - s * s) / N
        return (1.0 - (mup * mup) @ wt) / N
    if scc == 0:
        if sampling == "noisy":
            s = mup @ wt
            return (1.0 - s * s - (1.0 - mup * mup) @ (wt * wt)) / N
        return ((1.0 - mup * mup) @ (wt * (1.0 - wt))) / (N - 1)
    gaps = np.abs(mup[:, :, None] - mup[:, None, :])
    ww = np.outer(wt, wt)
    if sampling == "noisy":
        return (ww * gaps).sum(axis=(1, 2)) / N  # == sum_{i<j} 2 w_i w_j d_ij / N
    return (ww * gaps * (2.0 - gaps)).sum(axis=(1, 2)) / (2.0 * (N - 1))


def closed_form_variance(cfg: ModelConfig) -> float:
    """Evaluate the matching closed-form output variance for fixed inputs.

    Weights and values are quantized exactly as the simulation quantizes
    them, so the result is comparable to decompose_variance's total.
    """
    if cfg.values is None:
        raise ValueError("closed_form_variance needs fixed input values")
    rt = _ModelRuntime(cfg)
    mup = 2.0 * rt.fixed_thresholds / rt.N - 1.0
    return float(_closed_form(rt, mup[None])[0])


def expected_closed_form(cfg: ModelConfig, runs: int, master_seed: int) -> float:
    """Average closed form over the per-run value draws (for values=None).

    The runs' values come from one draw, and their closed forms are
    evaluated row-wise with the operations of one run's. The terms of each
    sum are dyadic rationals (denominators up to 2^(4n)) that float64
    holds exactly for n <= 12, so their order does not matter and each row
    equals its run's closed form; rows are summed in run order.
    """
    if runs < 1:
        raise ValueError("need at least 1 run")
    if cfg.values is not None:
        return closed_form_variance(cfg)
    rt = _ModelRuntime(cfg)
    rng = np.random.default_rng(master_seed)
    mup = 2.0 * rt._thresholds(rng.uniform(-1.0, 1.0, size=(runs, rt.M))) / rt.N - 1.0
    step = _chunk_runs(rt.M * rt.M)  # bounds the (R, M, M) gap tensor of the SCC +1 rows
    per_run = np.concatenate([_closed_form(rt, mup[i : i + step]) for i in range(0, runs, step)])
    return float(np.cumsum(per_run)[-1]) / runs


def _draw_runs(bit_generator, fixed: np.ndarray, runs: int, weight_mode: str | None):
    """Weights, values and seeds of `runs` runs, each drawn as a run's Generator calls draw it.

    A run draws its weights (weight_mode "uniform": uniform(-1, 1, m), redrawn
    while all are zero; "pm": signs from random(m) < 0.5; None: none), then
    its values uniform(-1, 1, m), then its seed integers(0, 2^63), each value
    from one raw word x of the bit generator: random() is (x >> 11) 2^-53,
    uniform(-1, 1) is -1 + 2 random(), and integers(0, 2^63) is x >> 1, as
    Lemire's method never rejects a draw with a 2^63 range. So the chunk is
    one block of raw words, and a run whose weights are all zero drops its m
    weight words, the chunk reading m more. Returns the (runs, m) weights
    (`fixed` in every row under None), the (runs, m) values and the seeds.
    """
    m = fixed.size
    k = (m if weight_mode else 0) + m + 1
    words = bit_generator.random_raw(runs * k)
    while True:
        block = words.reshape(runs, k)
        unit = (block[:, :-1] >> 11) * 2.0**-53
        uniform = -1.0 + 2.0 * unit
        if weight_mode != "uniform" or uniform[:, :m].any(axis=1).all():
            break
        at = np.argmin(uniform[:, :m].any(axis=1)) * k
        words = np.concatenate((words[:at], words[at + m :], bit_generator.random_raw(m)))
    if weight_mode == "uniform":
        weights = uniform[:, :m]
    elif weight_mode == "pm":
        weights = np.where(unit[:, :m] < 0.5, -1.0, 1.0) / m
    else:
        weights = np.broadcast_to(fixed, (runs, m))
    return weights, uniform[:, -m:], (block[:, -1] >> 1).tolist()


def accuracy_stats(
    design: AdderDesign,
    weights,
    runs: int,
    master_seed: int,
    weight_mode: str | None = None,
) -> AccuracyStats:
    """RMSE/bias/MSE of a design over seeded runs of 2^n cycles each.

    The weight row gives the input count M. Every run draws fresh bipolar
    U[-1, 1] input values. Under weight_mode None every run uses the row
    itself; otherwise each run redraws its weights: "uniform" for U[-1, 1],
    "pm" for random signs at magnitude 1/M. Errors are measured against each
    run's own quantized target. The runs come from adders._run_reports, a
    block at a time, each block's draws from one _draw_runs call.
    """
    if runs < 1:
        raise ValueError("need at least 1 run")
    if weight_mode not in (None, "uniform", "pm"):
        raise ValueError("weight_mode must be None, 'uniform' or 'pm'")
    bit_generator = np.random.default_rng(master_seed).bit_generator
    fixed = np.asarray(weights, dtype=np.float64)
    reports = _run_reports(
        design, fixed.size, runs, lambda lo, hi: _draw_runs(bit_generator, fixed, hi - lo, weight_mode)
    )
    return AccuracyStats.from_errors([report.error for _, report in reports])
