"""The benchmark's workloads: sub-grids of the committed result drivers.

Each workload is a list of `scmux` CLI invocations. Every invocation is a
sub-grid of one `scripts/` driver call at that call's per-point run count, so
each of its data rows has a bit-exact reference row in `results/*.csv` when
run at the driver's own seed. Sweep points seed their own generators
(`seed + m` for sweep-m, `(seed, n)` for sweep-n), which is what makes a
sub-grid reproduce the committed rows.
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    """One `scmux` CLI call, without its `--seed` and `--out` options."""

    argv: tuple[str, ...]
    reference: str  # committed CSV, relative to the checkout root
    key_cols: int  # leading columns that identify a row
    keys: tuple[tuple[str, ...], ...]  # one key per expected data row
    cycles: int  # simulated clock cycles: sum of N over adder and model runs

    def command(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    reference_seed: int  # the driver's own seed, at which rows match results/
    invocations: tuple[Invocation, ...]

    @property
    def cycles(self) -> int:
        return sum(inv.cycles for inv in self.invocations)

    @property
    def points(self) -> int:
        return sum(len(inv.keys) for inv in self.invocations)


def sweep_m(designs, n, m_min, m_max, reference, extra=(), runs=1000) -> Invocation:
    argv = (
        "sweep-m", "--designs", ",".join(designs), "--n", str(n),
        "--m-min", str(m_min), "--m-max", str(m_max), "--runs", str(runs), *extra,
    )
    keys = tuple((d, str(1 << m)) for d in sorted(designs) for m in range(m_min, m_max + 1))
    return Invocation(argv, reference, 2, keys, len(keys) * runs << n)


def sweep_n(designs, n_min, n_max, taps=150, runs=1000) -> Invocation:
    argv = (
        "sweep-n", "--designs", ",".join(designs), "--taps", str(taps),
        "--n-min", str(n_min), "--n-max", str(n_max), "--runs", str(runs),
    )
    ns = range(n_min, n_max + 1)
    keys = tuple((d, str(1 << n)) for d in sorted(designs) for n in ns)
    cycles = len(designs) * runs * sum(1 << n for n in ns)
    return Invocation(argv, "results/filter_rmse_vs_latency.csv", 2, keys, cycles)


# the committed filter CSV has one column per design, so all five are kept
FILTER_DESIGNS = ("cemux", "cemux_wbg", "cemux_biased", "basic_hardwired", "basic_biased")


def filter_signal(length, n=10, taps=100) -> Invocation:
    argv = (
        "filter", "--synthetic", "pulse_train", "--length", str(length),
        "--taps", str(taps), "--designs", ",".join(FILTER_DESIGNS), "--n", str(n),
    )
    keys = tuple((str(i),) for i in range(length))
    cycles = len(FILTER_DESIGNS) * length << n
    return Invocation(argv, "results/filtered_pulse_train.csv", 1, keys, cycles)


def decompose(sampling, scc, m_list, reference, n=8, runs=3000) -> Invocation:
    # the CLI draws every weight set from one generator in list order, so a
    # sub-grid must be a prefix of the driver's --m-list
    argv = (
        "decompose", "--sampling", sampling, "--scc", scc, "--model", "hypergeometric",
        "--m-list", ",".join(str(m) for m in m_list), "--n", str(n), "--runs", str(runs),
    )
    keys = tuple((str(m),) for m in m_list)
    return Invocation(argv, reference, 1, keys, len(m_list) * runs << n)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("sweep-pm", 7, (
            sweep_m(("cemux", "basic_hardwired"), 9, 5, 5, "results/rmse_vs_inputs_pm.csv",
                    extra=("--weight-dist", "pm")),
        )),
        Workload("sweep-ablation", 7, (
            sweep_m(("cemux_wbg", "cemux_biased"), 10, 4, 4,
                    "results/rmse_vs_inputs_ablation.csv", extra=("--normalize",)),
        )),
        Workload("filter", 3, (
            filter_signal(80),
            sweep_n(("apc",), 4, 4),
        )),
        Workload("decompose", 11, (
            decompose("noisy", "0", (2, 4), "results/decomposition_unoptimized.csv"),
            decompose("precise", "1", (2, 4), "results/decomposition_optimized.csv"),
        )),
    )
}


def data_rows(text: str) -> list[str]:
    """Header and data rows of a CLI CSV: every line but `#` stamps and footers."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def digest(texts) -> str:
    """SHA-256 of the data rows of a repetition's outputs, in order (None: no output)."""
    h = hashlib.sha256()
    for text in texts:
        h.update("\n".join(data_rows(text or "")).encode())
        h.update(b"\0")
    return h.hexdigest()


def _finite(cells) -> bool:
    try:
        return all(c == "" or math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def failed_points(inv: Invocation, text: str | None, expected: list[str] | None) -> int:
    """Count the invocation's points whose row is missing, malformed, or differs
    from `expected` (a header plus data rows; None checks the form only).

    A wrong header, a missing or unexpected key, or output that is None (the
    call raised or exited non-zero) fails every point of the invocation.
    """
    if text is None:
        return len(inv.keys)
    rows = data_rows(text)
    by_key = {tuple(r.split(",")[: inv.key_cols]): r for r in rows[1:]}
    if (
        not rows
        or len(rows) - 1 != len(inv.keys)
        or set(by_key) != set(inv.keys)
        or (expected is not None and rows[0] != expected[0])
    ):
        return len(inv.keys)
    want = {} if expected is None else {
        tuple(r.split(",")[: inv.key_cols]): r for r in expected[1:]
    }
    failed = 0
    for key, row in by_key.items():
        if not _finite(row.split(",")[inv.key_cols:]):
            failed += 1
        elif expected is not None and want.get(key) != row:
            failed += 1
    return failed


def reference_rows(root: Path, inv: Invocation) -> list[str]:
    return data_rows((root / inv.reference).read_text())
