"""The committed result rows, reproduced inside the test suite.

Each case is one CLI call over a sub-grid of a call that a `scripts/` program
makes, at that call's seed and per-point run count, so each of its data rows
must equal the row of the same key in the committed `results/*.csv` file.
Sweep points seed their own generators, and a `decompose` sub-grid is a
prefix of the script's `--m-list` (perfbench/workloads.py explains both
rules). Every design of every committed file is covered. The `# stats`
footers are not compared: they depend on the signal length.

The invocations, their keys and the row reader come from
perfbench/workloads.py, loaded by path, so this test and the benchmark's
correctness check read the committed files the same way.
"""

import importlib.util
from pathlib import Path

import pytest

from scmux.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = _workloads()

ALL_DESIGNS = ("cemux", "cemux_wbg", "cemux_biased", "basic_hardwired", "basic_biased", "apc")
ABLATION = ("cemux", "cemux_nofc", "cemux_nops", "cemux_lfsr", "cemux_wbg", "cemux_biased")

# (invocation, the seed its scripts/ call uses)
CASES = {
    "sweep-m pm": (
        wl.sweep_m(("cemux", "basic_hardwired"), 9, 3, 3, "results/rmse_vs_inputs_pm.csv",
                   extra=("--weight-dist", "pm")),
        7,
    ),
    "sweep-m ablation": (
        wl.sweep_m(ABLATION, 10, 3, 3, "results/rmse_vs_inputs_ablation.csv",
                   extra=("--normalize",)),
        7,
    ),
    "sweep-n": (wl.sweep_n(ALL_DESIGNS, 4, 4), 3),
    "filter": (wl.filter_signal(120), 3),
    "decompose noisy scc 0": (
        wl.decompose("noisy", "0", (2,), "results/decomposition_unoptimized.csv"), 11,
    ),
    "decompose precise scc 1": (
        wl.decompose("precise", "1", (2,), "results/decomposition_optimized.csv"), 11,
    ),
}


def _by_key(rows, key_cols):
    return {tuple(row.split(",")[:key_cols]): row for row in rows}


@pytest.mark.parametrize("case", CASES)
def test_cli_reproduces_the_committed_rows(case, tmp_path):
    inv, seed = CASES[case]
    out = tmp_path / "out.csv"
    assert main([*inv.command(seed), "--out", str(out)]) == 0
    got = wl.data_rows(out.read_text())
    committed = wl.reference_rows(ROOT, inv)
    assert got[0] == committed[0]
    want = _by_key(committed[1:], inv.key_cols)
    rows = _by_key(got[1:], inv.key_cols)
    assert len(rows) == len(got) - 1
    assert set(rows) == set(inv.keys)
    assert rows == {key: want.get(key) for key in inv.keys}
