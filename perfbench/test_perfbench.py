"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from workloads import Workload, decompose, filter_signal, sweep_m, sweep_n

PM = "results/rmse_vs_inputs_pm.csv"
ABLATION = "results/rmse_vs_inputs_ablation.csv"

# smoke-size sub-grids of each workload, at the committed run counts
SMOKE = {
    "sweep-pm": Workload("sweep-pm", 7, (
        sweep_m(("cemux", "basic_hardwired"), 9, 3, 3, PM, extra=("--weight-dist", "pm")),
    )),
    "sweep-ablation": Workload("sweep-ablation", 7, (
        sweep_m(("cemux_biased",), 10, 3, 3, ABLATION, extra=("--normalize",)),
    )),
    "filter": Workload("filter", 3, (filter_signal(12), sweep_n(("apc",), 4, 4))),
    "decompose": Workload("decompose", 11, (
        decompose("noisy", "0", (2,), "results/decomposition_unoptimized.csv"),
        decompose("precise", "1", (2,), "results/decomposition_optimized.csv"),
    )),
}


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_matches_committed_rows(name):
    wl = SMOKE[name]
    rep = run.run_rep(wl, wl.reference_seed, False)
    committed = [workloads.reference_rows(run.ROOT, inv) for inv in wl.invocations]
    assert run.count_failed(wl, rep, committed) == 0
    assert rep["wall_s"] > 0 and rep["setup_s"] > 0 and rep["peak_rss_mb"] > 0
    assert rep["cpu_s"] > 0 and rep["setup_cpu_s"] > 0 and rep["calibration_s"] > 0


def test_benchmark_subgrids_are_committed_rows():
    for wl in workloads.WORKLOADS.values():
        for inv in wl.invocations:
            committed = workloads.reference_rows(run.ROOT, inv)
            keys = {tuple(r.split(",")[: inv.key_cols]) for r in committed[1:]}
            assert set(inv.keys) <= keys, (wl.name, inv.argv)


def test_failed_points_counts_each_bad_row():
    inv = SMOKE["sweep-pm"].invocations[0]
    ref = workloads.reference_rows(run.ROOT, inv)
    rows = [ref[0]] + [r for r in ref[1:] if tuple(r.split(",")[:2]) in inv.keys]
    text = "# invocation: x\n" + "\n".join(rows) + "\n"
    assert workloads.failed_points(inv, text, ref) == 0
    assert workloads.failed_points(inv, text, None) == 0
    changed = text.replace(rows[1], rows[1][:-1] + str((int(rows[1][-1]) + 1) % 10))
    assert workloads.failed_points(inv, changed, ref) == 1
    assert workloads.failed_points(inv, changed.replace(rows[2], rows[2] + "x"), None) == 1
    assert workloads.failed_points(inv, "\n".join(rows[:2]), ref) == len(inv.keys)
    assert workloads.failed_points(inv, None, ref) == len(inv.keys)


def test_self_time_arithmetic_on_synthetic_spans():
    #   0 run_adder [0, 100)
    #   +- 1 build_hardwired_tree [10, 40)
    #   |  +- 3 rns_sequence [15, 25)
    #   +- 2 rns_sequence [50, 70)
    #   4 decompose_variance [200, 260)
    #   +- 5 build_hardwired_tree [210, 230)
    names = ["adders.run_adder", "muxtree.build_hardwired_tree", "rns.rns_sequence",
             "analysis.decompose_variance"]
    tree = [[0, 0, 100, -1], [1, 10, 40, 0], [2, 50, 70, 0], [2, 15, 25, 1],
            [3, 200, 260, -1], [1, 210, 230, 4]]
    assert spans.self_times(tree) == [50, 20, 20, 10, 40, 20]

    counts = spans.Counts()
    counts["adders.hardwired_runs"] = 2
    m = spans.layer_metrics(names, tree, counts)
    assert m["rns.rns_sequence.calls"] == 2
    assert m["rns.rns_sequence.self_ms"] == 30 / 1e6
    assert m["muxtree.build_hardwired_tree.calls"] == 2
    assert m["muxtree.build_hardwired_tree.self_ms"] == 40 / 1e6
    assert m["analysis.decompose_variance.self_ms"] == 40 / 1e6
    # only the build under run_adder is a miss of the adder's tree cache
    assert m["muxtree.tree_cache_hit_ratio"] == 0.5
    assert m["adders.run_adder.p50_us"] == 0.1


def test_exact_counts_on_tiny_sweeps():
    pm = Workload("pm", 1, (
        sweep_m(("cemux", "basic_hardwired"), 9, 3, 3, PM, extra=("--weight-dist", "pm"), runs=10),
    ))
    rep = run.run_rep(pm, 1, True)
    layers = rep["layers"]
    assert rep["traced_cycles"] == pm.cycles == 20 * 512
    assert layers["adders.run_adder.calls"] == 20
    # both designs quantize the same ten weight draws to the same numerators
    assert layers["muxtree.build_hardwired_tree.calls"] == 1
    assert layers["muxtree.tree_cache_hit_ratio"] == 1 - 1 / 20
    assert layers["muxtree.quantize_weights.distinct_ratio"] == 10 / 20
    assert layers["sngen.bits_generated"] == 20 * 8 * 512
    assert layers["sngen.bits_used_ratio"] == 1 / 8
    # a data source per run, plus basic_hardwired's nine level LFSRs
    assert layers["rns.rns_sequence.calls"] == 20 + 10 * 9
    assert layers["rns.words"] == (20 + 10 * 9) * 512

    uniform = Workload("uniform", 1, (
        sweep_m(("cemux",), 10, 3, 3, ABLATION, extra=("--normalize",), runs=10),
    ))
    layers = run.run_rep(uniform, 1, True)["layers"]
    assert layers["muxtree.build_hardwired_tree.calls"] == 10
    assert layers["muxtree.tree_cache_hit_ratio"] == 0.0
    assert layers["muxtree.quantize_weights.distinct_ratio"] == 1.0


@pytest.mark.parametrize("argv", [
    "sweep-m --designs cemux,basic_hardwired,cemux_biased --n 6 --m-min 2 --m-max 3 --runs 20 "
    "--weight-dist pm --seed 4",
    "sweep-n --designs apc,cemux_wbg --taps 20 --n-min 4 --n-max 5 --runs 20 --seed 2",
    "filter --length 30 --taps 8 --designs cemux,basic_biased --n 6 --seed 1",
    "decompose --sampling noisy --scc 0 --model hypergeometric --m-list 2,4 --n 5 --runs 30",
])
def test_wrapping_leaves_cli_output_byte_identical(argv, tmp_path):
    import scmux
    import scmux.adders
    import scmux.analysis
    import scmux.cli
    import scmux.sngen

    out = str(tmp_path / "out.csv")
    assert scmux.cli.main([*argv.split(), "--out", out]) == 0
    plain = (tmp_path / "out.csv").read_bytes()

    original = scmux.sngen.make_channels
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        # every module that looks the name up holds the wrapper
        for module, name in [(scmux.adders, "make_channels"), (scmux.analysis, "run_adder"),
                             (scmux.cli, "accuracy_stats"), (scmux, "make_channels"),
                             (scmux.sngen, "make_channels")]:
            assert hasattr(getattr(module, name), "__wrapped__"), (module.__name__, name)
        assert scmux.cli.main([*argv.split(), "--out", out]) == 0
    finally:
        uninstall()
    assert scmux.adders.make_channels is original is scmux.sngen.make_channels
    assert (tmp_path / "out.csv").read_bytes() == plain
    assert tracer.metrics()["cli.main.self_ms"] > 0
    assert tracer.counts["cycles"] > 0


def test_normalized_rescales_cpu_time_by_the_calibration():
    rep = {"cpu_s": 3.0, "setup_cpu_s": 0.2, "calibration_s": 2 * run.REF_CALIBRATION_S}
    assert run.normalized(rep, "cpu_s") == pytest.approx(1.5)
    assert run.normalized(rep, "setup_cpu_s") == pytest.approx(0.1)


def test_benchmark_json_names_the_metrics_the_code_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-pm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
