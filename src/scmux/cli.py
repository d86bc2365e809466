"""Command-line front end: quantization, sweeps, decomposition, filtering,
and structural reports, all emitting flat CSV with a reproducibility stamp.

Exit codes: 0 success, 1 usage error, 2 runtime/precondition error.
"""

import argparse
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .adders import make_design, normalize_design_name, structural_report
from .analysis import (
    ModelConfig,
    accuracy_stats,
    decompose_variance,
    expected_closed_form,
)
from .filterapp import (
    FilterSpec,
    Signal,
    filter_rmse_vs_length,
    make_lowpass,
    make_noisy_signal,
    pulse_train_signal,
    reference_fir,
    stochastic_fir,
)
from .muxtree import quantize_weights


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _emit(args, rows):
    lines = [f"# invocation: {args._invocation}"]
    if hasattr(args, "seed"):
        lines.append(f"# seed: {args.seed}")
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_coefficients(path: str) -> list[float]:
    """One coefficient per line; blank lines and # comments are skipped."""
    vals = []
    for k, line in enumerate(Path(path).read_text().splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        try:
            vals.append(float(s))
        except ValueError:
            raise ValueError(f"{path} line {k}: expected a number, got {s!r}") from None
    if not vals:
        raise ValueError(f"no coefficients found in {path}")
    return vals


def read_signal_csv(path: str) -> list[float]:
    """Signal CSV samples: one `index,value` header line, one sample per row."""
    lines = [
        (k, l)
        for k, l in enumerate(Path(path).read_text().splitlines(), start=1)
        if l.strip() and not l.startswith("#")
    ]
    if not lines or lines[0][1].strip().lower() != "index,value":
        raise ValueError("signal CSV must start with an 'index,value' header line")
    samples = []
    for k, l in lines[1:]:
        try:
            _, value = l.split(",")
            samples.append(float(value))
        except ValueError:
            raise ValueError(f"{path} line {k}: expected 'index,value', got {l!r}") from None
    if not samples:
        raise ValueError(f"no samples found in {path}")
    return samples


def _design_list(raw: str) -> list[str]:
    designs = [normalize_design_name(s.strip()) for s in raw.split(",") if s.strip()]
    if not designs:
        raise ValueError("--designs must name at least one design")
    twice = sorted({d for d in designs if designs.count(d) > 1})
    if twice:
        raise ValueError(f"--designs names {', '.join(twice)} more than once")
    return designs


def _filter_spec(args) -> FilterSpec:
    """The --coeff-file coefficients, else the --taps/--cutoff lowpass."""
    if args.coeff_file:
        return FilterSpec(tuple(args.coeff_file))
    return make_lowpass(args.taps, args.cutoff * math.pi)


# ----- subcommands -----


def cmd_quantize(args):
    nums = quantize_weights(args.weights, args.m)
    rows = ["index,numerator,denominator,sign"]
    rows += [
        f"{i},{num},{1 << args.m},{-1 if w < 0 else 1:+d}"
        for i, (num, w) in enumerate(zip(nums.tolist(), args.weights))
    ]
    _emit(args, rows)


def cmd_sweep_m(args):
    designs = _design_list(args.designs)
    rows = ["design,M,rmse"]
    for name in sorted(designs):
        for m in range(args.m_min, args.m_max + 1):
            M = 1 << m
            design = make_design(name, args.n)
            stats = accuracy_stats(design, [1.0 / M] * M, args.runs, args.seed + m, args.weight_dist)
            norm = math.sqrt(1 << design.n) if args.normalize else 1.0
            rows.append(f"{name},{M},{_fmt(stats.rmse * norm)}")
    _emit(args, rows)


def cmd_sweep_n(args):
    designs = _design_list(args.designs)
    spec = _filter_spec(args)
    result = filter_rmse_vs_length(
        designs, spec, range(args.n_min, args.n_max + 1), args.runs, args.seed
    )
    rows = ["design,N,rmse"]
    for name in sorted(result):
        for n in sorted(result[name]):
            rows.append(f"{name},{1 << n},{_fmt(result[name][n])}")
    _emit(args, rows)


def cmd_decompose(args):
    if not 2 <= args.n <= 16:
        raise ValueError(f"--n must be in [2, 16], got {args.n}")
    if args.weights_file:
        weights = args.weights_file
        weight_sets = {len(weights): weights}
        m_list = [len(weights)]
    else:
        m_list = args.m_list
        rng = np.random.default_rng(args.seed)
        weight_sets = {
            M: list(np.where(rng.random(M) < 0.5, -1.0, 1.0) / M) for M in m_list
        }
    values = tuple(args.values_file) if args.values_file else None
    scc = None if args.scc == "none" else int(args.scc)
    rows = ["M,eps_noise,eps_samp,eps_corr,total,closed_form"]
    for M in m_list:
        cfg = ModelConfig(
            sn_model=args.model,
            sampling=args.sampling,
            input_scc=scc,
            weights=tuple(weight_sets[M]),
            values=values,
            N=1 << args.n,
        )
        rep = decompose_variance(cfg, args.runs, args.seed + M)
        closed = _fmt(expected_closed_form(cfg, min(args.runs, 2000), args.seed + M))
        rows.append(
            f"{M},{_fmt(rep.eps_noise)},{_fmt(rep.eps_samp)},{_fmt(rep.eps_corr)},"
            f"{_fmt(rep.total_variance)},{closed}"
        )
    _emit(args, rows)


def cmd_filter(args):
    if args.signal:
        sig = Signal(np.asarray(args.signal))
    elif args.synthetic == "pulse_train":
        sig = pulse_train_signal(args.length, seed=args.seed, noise_sigma=args.noise_sigma)
    else:
        sig = make_noisy_signal(args.synthetic, args.noise_sigma, args.seed, args.length)
    spec = _filter_spec(args)
    designs = _design_list(args.designs)
    ref = reference_fir(spec, sig)

    outputs = {}
    footer = []
    for name in designs:
        filtered, stats = stochastic_fir(make_design(name, args.n), spec, sig, args.seed)
        outputs[name] = filtered.samples
        footer.append(
            f"# stats design={name} rmse={_fmt(stats.rmse)} bias={_fmt(stats.bias)} "
            f"runs={stats.runs} warmup={spec.taps - 1}"
        )
    header = "index,noisy,reference," + ",".join(designs)
    rows = [header]
    for i in range(len(sig)):
        cells = [str(i), _fmt(sig.samples[i]), _fmt(ref.samples[i])]
        cells += [_fmt(outputs[name][i]) for name in designs]
        rows.append(",".join(cells))
    rows.extend(footer)
    _emit(args, rows)


def cmd_report(args):
    if args.coeff_file:
        weights = args.coeff_file
    elif args.lowpass_taps is not None:
        weights = list(make_lowpass(args.lowpass_taps, args.cutoff * math.pi).coefficients)
    else:
        if args.pm < 1:
            raise ValueError(f"--pm must be >= 1, got {args.pm}")
        rng = np.random.default_rng(args.seed)
        weights = list(np.where(rng.random(args.pm) < 0.5, -1.0, 1.0) / args.pm)
    counts = structural_report(make_design(args.design, args.n), weights)
    rows = ["component,count"]
    rows += [f"{key},{counts[key]}" for key in sorted(counts)]
    _emit(args, rows)


def _int_at_least(text: str, low: int, expected: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    return _int_at_least(text, 0, "a non-negative integer")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    return _int_at_least(text, 1, "a positive integer")


def _positive_ints(text: str) -> list[int]:
    """argparse type: comma-separated positive integers."""
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return values


# parsing reads the parser and never changes it, so one parser serves every
# main call of a process
@cache
def build_parser() -> _Parser:
    p = _Parser(prog="scmux", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser(
        "quantize",
        help="quantize weights to numerators over 2^m",
        description="CSV schema: index,numerator,denominator,sign",
    )
    q.add_argument("--weights", required=True, help="coefficient file, one per line")
    q.add_argument("--m", type=int, required=True, help="tree height (denominator 2^m)")

    sm = sub.add_parser(
        "sweep-m",
        help="RMSE vs input count for named designs",
        description="CSV schema: design,M,rmse (rmse scaled by sqrt(N) with --normalize)",
    )
    sm.add_argument("--designs", required=True, help="comma-separated design names")
    sm.add_argument("--n", type=int, default=10, help="precision; stream length 2^n")
    sm.add_argument(
        "--m-min", type=_nonnegative_int, default=3, help="smallest input-count exponent"
    )
    sm.add_argument(
        "--m-max", type=_nonnegative_int, default=8, help="largest input-count exponent"
    )
    sm.add_argument("--runs", type=int, default=1000)
    sm.add_argument(
        "--weight-dist",
        choices=("uniform", "pm"),
        default="uniform",
        help="per-run weights: uniform [-1,1] or random-sign 1/M",
    )
    sm.add_argument("--normalize", action="store_true", help="report rmse * sqrt(N)")

    sn = sub.add_parser(
        "sweep-n",
        help="filter RMSE vs stream length at fixed taps",
        description="CSV schema: design,N,rmse, sorted by (design, N)",
    )
    sn.add_argument("--designs", required=True)
    sn.add_argument("--taps", type=int, default=150)
    sn.add_argument("--cutoff", type=float, default=0.1, help="lowpass cutoff, in pi rad/sample")
    sn.add_argument("--coeff-file", help="use these coefficients instead of the lowpass")
    sn.add_argument("--n-min", type=int, default=4)
    sn.add_argument("--n-max", type=int, default=8)
    sn.add_argument("--runs", type=int, default=1000)

    dc = sub.add_parser(
        "decompose",
        help="Monte Carlo variance decomposition",
        description="CSV schema: M,eps_noise,eps_samp,eps_corr,total,closed_form",
    )
    dc.add_argument("--model", choices=("bernoulli", "hypergeometric"), required=True)
    dc.add_argument("--sampling", choices=("noisy", "precise"), required=True)
    dc.add_argument("--scc", choices=("0", "1", "none"), default="none")
    dc.add_argument(
        "--m-list",
        type=_positive_ints,
        default="2,4,8,16",
        help="input counts, random-sign 1/M weights",
    )
    dc.add_argument("--weights-file", help="fixed weights instead of --m-list")
    dc.add_argument("--values-file", help="fixed values (default: uniform per run)")
    dc.add_argument("--n", type=int, default=8, help="precision; stream length 2^n")
    dc.add_argument("--runs", type=int, default=2000)

    fl = sub.add_parser(
        "filter",
        help="filter a signal with stochastic designs",
        description=(
            "CSV schema: index,noisy,reference,<one column per design>, then "
            "'# stats design=<name> rmse=... bias=... runs=... warmup=...' "
            "footer lines (statistics exclude the warm-up samples)"
        ),
    )
    fl.add_argument("--signal", help="input signal CSV (index,value)")
    fl.add_argument(
        "--synthetic",
        choices=("sine_mix", "chirp", "pulse_train"),
        default="pulse_train",
        help="synthetic input when no --signal file is given",
    )
    fl.add_argument("--noise-sigma", type=float, default=0.05)
    fl.add_argument("--length", type=_positive_int, default=720, help="synthetic signal samples")
    fl.add_argument("--coeff-file")
    fl.add_argument("--taps", type=int, default=100)
    fl.add_argument("--cutoff", type=float, default=0.1, help="in pi rad/sample")
    fl.add_argument("--designs", default="cemux")
    fl.add_argument("--n", type=int, default=10)

    rp = sub.add_parser(
        "report",
        help="structural component counts for a design",
        description="CSV schema: component,count",
    )
    rp.add_argument("--design", required=True)
    rp.add_argument("--n", type=int, default=10)
    rp.add_argument("--coeff-file")
    rp.add_argument("--lowpass-taps", type=int)
    rp.add_argument("--cutoff", type=float, default=0.1)
    rp.add_argument("--pm", type=int, default=16, help="random-sign 1/M weights with M inputs")

    for cmd in (q, sm, sn, dc, fl, rp):
        cmd.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed")
        cmd.add_argument("--out", help="output CSV path (default: stdout)")
    q.set_defaults(func=cmd_quantize)
    sm.set_defaults(func=cmd_sweep_m)
    sn.set_defaults(func=cmd_sweep_n)
    dc.set_defaults(func=cmd_decompose)
    fl.set_defaults(func=cmd_filter)
    rp.set_defaults(func=cmd_report)
    return p


# inclusive (low, high) option pairs that must not describe an empty sweep
_RANGES = {"sweep-m": (("m_min", "m_max"),), "sweep-n": (("n_min", "n_max"),)}

# The largest value of each option that sizes a run's arrays, checked before
# anything is allocated: at most 2^16 inputs (M = 2^m_max for sweep-m), the
# quantizer's 2^16 units at n = 16, and at most 2^20 signal samples.
_MAX_INPUTS = 1 << 16
_MAX_SAMPLES = 1 << 20
_LIMITS = {
    "sweep-m": (("m_max", 16),),
    "sweep-n": (("taps", _MAX_INPUTS),),
    "decompose": (("m_list", _MAX_INPUTS),),
    "filter": (("taps", _MAX_INPUTS), ("length", _MAX_SAMPLES)),
    "report": (("pm", _MAX_INPUTS), ("lowpass_taps", _MAX_INPUTS)),
}
# The options that name an input file, with each one's reader and the most
# values it may hold; from the size check on, each holds its file's values.
_FILES = {
    "weights": (_read_coefficients, _MAX_INPUTS),
    "coeff_file": (_read_coefficients, _MAX_INPUTS),
    "weights_file": (_read_coefficients, _MAX_INPUTS),
    "values_file": (_read_coefficients, _MAX_INPUTS),
    "signal": (read_signal_csv, _MAX_SAMPLES),
}


def _check_limits(args) -> None:
    """Check each sizing option, then read each input file and check its length."""
    for name, limit in _LIMITS.get(args.command, ()):
        value = getattr(args, name)
        largest = max(value) if isinstance(value, list) else value
        if largest is not None and largest > limit:
            raise ValueError(f"--{name.replace('_', '-')} must be at most {limit}, got {largest}")
    for name, (read, limit) in _FILES.items():
        if getattr(args, name, None):
            values = read(getattr(args, name))
            if len(values) > limit:
                raise ValueError(
                    f"--{name.replace('_', '-')} must hold at most {limit} values, got {len(values)}"
                )
            setattr(args, name, values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    for lo, hi in _RANGES.get(args.command, ()):
        if getattr(args, lo) > getattr(args, hi):
            parser.error(
                f"empty range: --{lo.replace('_', '-')} {getattr(args, lo)} exceeds "
                f"--{hi.replace('_', '-')} {getattr(args, hi)}"
            )
    args._invocation = "scmux " + " ".join(argv)
    try:
        _check_limits(args)
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"scmux: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
