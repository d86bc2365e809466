#!/usr/bin/env python3
"""scmux benchmark: time the paper's result drivers end to end and per layer.

Usage:
  python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds src/ and results/. A workload (see
workloads.py) first runs once at its driver's own seed, where its data rows
must equal the committed results/*.csv rows bit for bit. It then runs at
--seed, each time in a fresh interpreter, while another repetition still
fits in --seconds (the reference check included), and at least MIN_REPS
times; every repetition must print the same rows (and at the
driver's seed, the committed ones). End-to-end metrics are medians over these
repetitions. Their times are CPU seconds rescaled to a reference host speed
by the calibration loop of child.py (see normalized()), because a shared
host's speed drifts far more than the bounds allow. With --trace 1 the repetitions alternate between untraced and
traced runs, the traced ones must print the same rows, and the per-layer
metrics come from the traced runs. Without --workload every workload runs in
turn and the metric names get the workload as a prefix.

The last line of standard output is one JSON object:
  {"correct": bool, "attempted": points, "failed": points, "metrics": {...}}
A point is one data row of a sweep. It fails if its call raised or exited
non-zero, or if its row is malformed or differs from the rows it must equal.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import PER_LAYER, TIMED_UNITS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
REP_TIMEOUT_S = 150
# one BLAS/OpenMP thread: steadier timings on a shared host; no output row
# depends on it
BLAS_THREADS = 1
# a fixed string-hash seed, so that no repetition differs from the next in
# dict and set layout
HASH_SEED = "0"

# CPU seconds of child.calibrate()'s two calls on the reference host (an
# Intel Xeon with 2 vCPUs, numpy 2.4, Python 3.11); a repetition's times are
# rescaled by REF_CALIBRATION_S / its own calibration seconds
REF_CALIBRATION_S = 0.4

END_TO_END = (
    ("norm_s", "s"),
    ("cycles_per_norm_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_rep(wl: workloads.Workload, seed: int, trace: bool) -> dict:
    """One repetition of a workload in a fresh interpreter (see child.py)."""
    spec = {
        "argv": [inv.command(seed) for inv in wl.invocations],
        "trace": trace,
        "tag": f"{wl.name}-{'traced' if trace else 'plain'}",
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT), str(OUT), json.dumps(spec)],
        capture_output=True, text=True, env=child_env(), timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{wl.name} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def normalized(rep: dict, key: str) -> float:
    """A repetition's CPU seconds `key` at the reference host speed."""
    return rep[key] * REF_CALIBRATION_S / rep["calibration_s"]


def texts(rep: dict) -> list:
    return [o["text"] for o in rep["outputs"]]


def count_failed(wl: workloads.Workload, rep: dict, expected) -> int:
    """Failed points of one repetition; expected holds one row list per call."""
    return sum(
        workloads.failed_points(inv, text, exp)
        for inv, text, exp in zip(wl.invocations, texts(rep), expected)
    )


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return git.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(),
    }


def traced_layers(traced: list[dict], problems: list[str]) -> dict[str, float]:
    """Per-layer metrics over the traced repetitions: the median of each time,
    and each count, which every repetition must repeat exactly."""
    out = {}
    for name, unit in PER_LAYER:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if not values:
            continue
        if unit in TIMED_UNITS:
            out[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced runs: {values}")
            out[name] = values[0]
    return out


def measure(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload: the reference check, then the timed repetitions."""
    problems: list[str] = []
    committed = [workloads.reference_rows(ROOT, inv) for inv in wl.invocations]
    start = time.perf_counter()
    reference = run_rep(wl, wl.reference_seed, False)
    attempted, failed = wl.points, count_failed(wl, reference, committed)
    setups = [normalized(reference, "setup_cpu_s")]

    plain, traced = [], []
    expected = committed if seed == wl.reference_seed else None
    # the reference check counts against --seconds, and a round of
    # repetitions starts only if one as long as the last still fits
    last_round = 0.0
    while len(plain) < MIN_REPS or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        for is_traced in (False, True)[: 1 + trace]:
            rep = run_rep(wl, seed, is_traced)
            attempted += wl.points
            failed += count_failed(wl, rep, expected or [None] * len(wl.invocations))
            if expected is None:
                # every later repetition must repeat the first one row for row
                expected = [workloads.data_rows(t) if t else None for t in texts(rep)]
            if is_traced and rep["traced_cycles"] != wl.cycles:
                problems.append(
                    f"traced runs simulated {rep['traced_cycles']} cycles, expected {wl.cycles}"
                )
            setups.append(normalized(rep, "setup_cpu_s"))
            (traced if is_traced else plain).append(rep)
        last_round = time.perf_counter() - round_start

    walls = [r["wall_s"] for r in plain]
    norms = [normalized(r, "cpu_s") for r in plain]
    norm = statistics.median(norms)
    if trace:
        units = dict(PER_LAYER)
        metrics = traced_layers(traced, problems)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(normalized(r, "cpu_s") for r in traced) / norm - 1.0
        )
    else:
        units = dict(END_TO_END)
        metrics = {
            "norm_s": norm,
            "cycles_per_norm_s": wl.cycles / norm,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setups),
        }
    record = {
        "workload": wl.name,
        "seed": seed,
        "reference_seed": wl.reference_seed,
        "subgrid": [" ".join(inv.argv) for inv in wl.invocations],
        "cycles": wl.cycles,
        "trace": int(trace),
        "repetitions": len(plain) + len(traced),
        "wall_s": statistics.median(walls),
        "cycles_per_s": statistics.median(wl.cycles / w for w in walls),
        "wall_s_each": walls,
        "cpu_s_each": [r["cpu_s"] for r in plain],
        "calibration_s_each": [r["calibration_s"] for r in plain],
        "digest": workloads.digest(texts(plain[0])),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: (metrics[name], units[name]) for name in units},
        "record": record,
    }


def print_result(result: dict) -> None:
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<45} {value:>16.6g} {unit}")
    for name, unit in (("wall_s", "s"), ("cycles_per_s", "1/s")):
        value = result["record"][name]
        print(f"{name:<45} {value:>16.6g} {unit} (host clock, not rescaled; in the record only)")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':<45} {rate:>16.6g} ({result['failed']}/{result['attempted']} points)")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("record " + json.dumps(result["record"]))


def preflight() -> None:
    """Refuse to run without the program and the references it is checked against."""
    missing = [
        p for p in ["src/scmux/__init__.py"] + sorted(
            {inv.reference for wl in workloads.WORKLOADS.values() for inv in wl.invocations}
        )
        if not (ROOT / p).is_file()
    ]
    if missing:
        raise BenchError(f"checkout at {ROOT} lacks {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: each workload's driver seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and waits
    # for the repetition it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        preflight()
        OUT.mkdir(exist_ok=True)
        print("environment " + json.dumps(environment()))
        results = {}
        for name in names:
            wl = workloads.WORKLOADS[name]
            seed = wl.reference_seed if args.seed is None else args.seed
            print(f"== {name} seed={seed} trace={args.trace}")
            results[name] = measure(wl, seed, args.seconds, bool(args.trace))
            print_result(results[name])
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2

    metrics = {
        (name if len(names) == 1 else f"{wl}.{name}"): {"value": value, "unit": unit}
        for wl, res in results.items()
        for name, (value, unit) in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["problems"] for r in results.values())
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
