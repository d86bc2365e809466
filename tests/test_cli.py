import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scmux.cli import main, read_signal_csv
from scmux.filterapp import Signal


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def data_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_quantize_example(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("0.5\n0.375\n0.125\n")
    code, out, _ = run_cli(capsys, "quantize", "--weights", str(wf), "--m", "3")
    assert code == 0
    assert data_rows(out) == [
        "index,numerator,denominator,sign",
        "0,4,8,+1",
        "1,3,8,+1",
        "2,1,8,+1",
    ]
    assert out.startswith("# invocation: scmux quantize")
    assert "# seed: 0" in out


def test_quantize_single_weight(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("-0.7\n")
    code, out, _ = run_cli(capsys, "quantize", "--weights", str(wf), "--m", "5")
    assert code == 0
    assert data_rows(out)[1] == "0,32,32,-1"


def test_quantize_signs_follow_the_weights(tmp_path, capsys):
    # each row's sign is its weight's: -1 below zero, +1 for zero and -0.0
    wf = tmp_path / "w.txt"
    wf.write_text("-0.5\n0\n-0.0\n0.25\n-0.25\n")
    code, out, _ = run_cli(capsys, "quantize", "--weights", str(wf), "--m", "3")
    assert code == 0
    assert data_rows(out)[1:] == ["0,4,8,-1", "1,0,8,+1", "2,0,8,+1", "3,2,8,+1", "4,2,8,-1"]


def test_quantize_zero_mass_exit_code(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("0\n0\n")
    code, _, err = run_cli(capsys, "quantize", "--weights", str(wf), "--m", "3")
    assert code == 2
    assert "zero weight mass" in err


def test_quantize_height_limit(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("0.1\n0.2\n0.7\n")
    code, out, _ = run_cli(capsys, "quantize", "--weights", str(wf), "--m", "52")
    assert code == 0
    assert sum(int(r.split(",")[1]) for r in data_rows(out)[1:]) == 1 << 52
    for m in ("53", "64"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "quantize", "--weights", str(wf), "--m", m)
        assert code == 2
        assert "height m must be in [1, 52]" in err and f"got {m}" in err
        assert out == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["quantize", "--m", "3", "--weights"],
    ["report", "--design", "cemux", "--n", "4", "--coeff-file"],
    ["filter", "--length", "4", "--n", "4", "--coeff-file"],
], ids=["quantize", "report", "filter"])
def test_bad_coefficient_line_names_file_and_line(tmp_path, capsys, argv):
    wf = tmp_path / "w.txt"
    wf.write_text("0.5\n# comment\n\n abc \n0.25\n")
    code, out, err = run_cli(capsys, *argv, str(wf))
    assert code == 2
    assert err == f"scmux: error: {wf} line 4: expected a number, got 'abc'\n"
    assert out == ""


@pytest.mark.parametrize("text", ["0.5\nnan\n", "inf\n0.25\n", "1e308\n1e308\n"])
def test_non_finite_weights_exit_code(tmp_path, capsys, text):
    wf = tmp_path / "w.txt"
    wf.write_text(text)
    for argv in (["quantize", "--weights", str(wf), "--m", "3"],
                 ["report", "--design", "cemux", "--coeff-file", str(wf), "--n", "4"],
                 ["filter", "--coeff-file", str(wf), "--length", "4", "--n", "4"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "must be finite" in err
        assert out == ""


@pytest.mark.parametrize("argv", [
    ["sweep-m", "--designs", "cemux", "--m-min", "9", "--m-max", "3"],
    ["sweep-n", "--designs", "cemux", "--n-min", "8", "--n-max", "4"],
])
def test_empty_sweep_range_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--runs", "2", "--out", str(out)])
    assert exc.value.code == 1
    assert "empty range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-m", "--designs", "cemux", "--m-min", "2", "--m-max", "2"],
    ["sweep-n", "--designs", "cemux", "--n-min", "4", "--n-max", "4"],
])
def test_zero_runs_is_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, *argv, "--runs", "0", "--out", str(out))
    assert code == 2
    assert "need at least 1 run" in err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-m"])  # missing required --designs
    assert exc.value.code == 1


def test_negative_m_exponent_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-m", "--designs", "cemux", "--m-min", "-1", "--m-max", "1",
              "--runs", "2", "--out", str(out)])
    assert exc.value.code == 1
    assert "argument --m-min: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-m", "--designs", "cemux", "--m-max", "3", "--runs", "2"],
    ["decompose", "--model", "bernoulli", "--sampling", "noisy", "--m-list", "2", "--runs", "2"],
    ["filter", "--length", "8", "--taps", "2", "--n", "4"],
    ["report", "--design", "cemux", "--n", "4"],
])
def test_negative_seed_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 1
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["-1", "0"])
def test_signal_length_below_one_is_usage_error(tmp_path, capsys, length):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--length", length, "--taps", "2", "--n", "4", "--out", str(out)])
    assert exc.value.code == 1
    assert f"argument --length: expected a positive integer, got '{length}'" in capsys.readouterr().err
    assert not out.exists()
    # the shortest signal still runs
    assert main(["filter", "--length", "1", "--taps", "1", "--n", "4", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv, message", [
    (["sweep-m", "--designs", "cemux", "--m-min", "27", "--m-max", "27", "--runs", "1"],
     "--m-max must be at most 16, got 27"),
    (["sweep-n", "--designs", "cemux", "--taps", "65537"], "--taps must be at most 65536, got 65537"),
    (["decompose", "--model", "bernoulli", "--sampling", "precise", "--m-list", "2,200000000",
      "--runs", "2"], "--m-list must be at most 65536, got 200000000"),
    (["filter", "--taps", "65537"], "--taps must be at most 65536, got 65537"),
    (["filter", "--length", "1048577"], "--length must be at most 1048576, got 1048577"),
    (["report", "--design", "cemux", "--pm", "300000000"],
     "--pm must be at most 65536, got 300000000"),
    (["report", "--design", "cemux", "--lowpass-taps", "65537"],
     "--lowpass-taps must be at most 65536, got 65537"),
    (["report", "--design", "cemux", "--pm", "0"], "--pm must be >= 1, got 0"),
    (["report", "--design", "cemux", "--pm", "-1"], "--pm must be >= 1, got -1"),
])
def test_out_of_bounds_size_options_are_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"scmux: error: {message}\n"
    assert out == ""


# a coefficient file and a signal CSV of `count` entries
def coefficient_text(count):
    return "0.5\n" * count


def signal_text(count):
    return "index,value\n" + "0,0.1\n" * count


DECOMPOSE = ["decompose", "--model", "bernoulli", "--sampling", "precise"]


@pytest.mark.parametrize("argv, limit", [
    (["sweep-n", "--designs", "cemux", "--coeff-file"], 65536),
    (["filter", "--coeff-file"], 65536),
    (["report", "--design", "cemux", "--coeff-file"], 65536),
    ([*DECOMPOSE, "--weights-file"], 65536),
    ([*DECOMPOSE, "--values-file"], 65536),
    (["filter", "--signal"], 1 << 20),
    (["quantize", "--m", "16", "--weights"], 65536),
])
def test_oversized_input_files_are_rejected(tmp_path, capsys, argv, limit):
    path = tmp_path / "big"
    make = signal_text if argv[-1] == "--signal" else coefficient_text
    path.write_text(make(limit + 1))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err == f"scmux: error: {argv[-1]} must hold at most {limit} values, got {limit + 1}\n"
    assert out == ""


def test_input_files_at_their_limits_pass_the_size_check(tmp_path, capsys):
    coeffs = tmp_path / "coeffs"
    coeffs.write_text(coefficient_text(65536))
    code, out, err = run_cli(capsys, "report", "--design", "cemux", "--n", "16",
                             "--coeff-file", str(coeffs))
    assert (code, err) == (0, "")
    assert "muxes,65535" in out
    # these go on to their next check
    code, out, err = run_cli(capsys, *DECOMPOSE, "--weights-file", str(coeffs),
                             "--values-file", str(coeffs), "--n", "40")
    assert (code, out, err) == (2, "", "scmux: error: --n must be in [2, 16], got 40\n")
    signal = tmp_path / "signal"
    signal.write_text(signal_text(1 << 20))
    code, out, err = run_cli(capsys, "filter", "--signal", str(signal), "--coeff-file", str(coeffs),
                             "--designs", "nonsense")
    assert code == 2 and out == "" and "unknown design 'nonsense'" in err


@pytest.mark.parametrize("n", ["40", "-1", "1"])
def test_decompose_out_of_range_n_is_rejected(capsys, n):
    code, out, err = run_cli(capsys, "decompose", "--model", "bernoulli", "--sampling", "noisy",
                             "--n", n, "--runs", "2", "--m-list", "2")
    assert code == 2
    assert f"--n must be in [2, 16], got {n}" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["sweep-m", "--designs", "cemux", "--n", "-1"],
    ["sweep-n", "--designs", "cemux", "--n-min", "-1"],
])
def test_negative_precision_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--runs", "1")
    assert code == 2
    assert "precision n must be in [3, 16]" in err
    assert out == ""


def test_report_lowpass_taps_zero_is_rejected(capsys):
    code, out, err = run_cli(capsys, "report", "--design", "cemux", "--n", "4",
                             "--lowpass-taps", "0")
    assert code == 2
    assert "taps must be >= 1" in err
    assert out == ""


def test_malformed_signal_row_is_runtime_error(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    sig.write_text("index,value\n0,0.1\n1\n")
    code, out, err = run_cli(capsys, "filter", "--signal", str(sig), "--taps", "2", "--n", "4")
    assert code == 2
    assert err == f"scmux: error: {sig} line 3: expected 'index,value', got '1'\n"
    assert out == ""


@pytest.mark.parametrize("m_list", ["2,x", "0"])
def test_bad_m_list_is_usage_error(tmp_path, capsys, m_list):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--model", "bernoulli", "--sampling", "noisy",
              "--m-list", m_list, "--runs", "2", "--out", str(out)])
    assert exc.value.code == 1
    assert "argument --m-list: expected comma-separated positive integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("designs, message", [
    pytest.param(",", "--designs must name at least one design", id="comma"),
    pytest.param("", "--designs must name at least one design", id="empty"),
    pytest.param("cemux,CeMux", "--designs names cemux more than once", id="twice"),
    pytest.param("cemux, cemux ", "--designs names cemux more than once", id="spaced-twice"),
    pytest.param("apc,cemux-wbg,cemux_wbg,apc", "--designs names apc, cemux_wbg more than once",
                 id="two-twice"),
])
@pytest.mark.parametrize("command", [
    pytest.param(["sweep-m", "--m-max", "3", "--runs", "1"], id="sweep-m"),
    pytest.param(["sweep-n", "--taps", "4", "--n-min", "4", "--n-max", "4", "--runs", "1"],
                 id="sweep-n"),
    pytest.param(["filter", "--length", "8", "--taps", "2", "--n", "4"], id="filter"),
])
def test_empty_or_duplicate_design_lists_are_rejected(capsys, command, designs, message):
    code, out, err = run_cli(capsys, *command, "--designs", designs)
    assert code == 2
    assert err == f"scmux: error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_pulse_train_noise_sigma_is_checked(capsys, sigma):
    for synthetic in ("pulse_train", "sine_mix"):
        code, out, err = run_cli(capsys, "filter", "--length", "8", "--taps", "2", "--n", "4",
                                 "--noise-sigma", sigma, "--synthetic", synthetic)
        assert code == 2
        assert err == "scmux: error: noise_sigma must be finite and >= 0\n"
        assert out == ""


def test_filter_no_longer_than_its_warm_up_reports_undefined_stats(capsys):
    # every output sample is a warm-up sample, so no error is averaged: the
    # stats are NaN over 0 runs, not a perfect score
    code, out, err = run_cli(capsys, "filter", "--length", "3", "--taps", "4", "--n", "4")
    assert code == 0 and err == ""
    assert len(data_rows(out)) == 1 + 3
    assert out.splitlines()[-1] == "# stats design=cemux rmse=nan bias=nan runs=0 warmup=3"


def test_unknown_design_is_runtime_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep-m", "--designs", "nonsense", "--runs", "2", "--m-max", "3"
    )
    assert code == 2
    assert "unknown design" in err


def test_sweep_m_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep-m",
        "--designs", "cemux,basic_hardwired",
        "--n", "6",
        "--m-min", "3",
        "--m-max", "4",
        "--runs", "20",
        "--seed", "5",
    )
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "design,M,rmse"
    names = [r.split(",")[0] for r in rows[1:]]
    ms = [int(r.split(",")[1]) for r in rows[1:]]
    assert names == sorted(names)
    assert ms == [8, 16, 8, 16]
    # blanks around a design name are dropped
    _, spaced, _ = run_cli(capsys, "sweep-m", "--designs", " cemux, basic_hardwired ", "--n", "6",
                           "--m-min", "3", "--m-max", "4", "--runs", "20", "--seed", "5")
    assert data_rows(spaced) == rows


def test_sweep_m_normalize_scales_by_sqrt_n(capsys):
    args = [
        "sweep-m", "--designs", "cemux", "--n", "6",
        "--m-min", "3", "--m-max", "3", "--runs", "25", "--seed", "8",
    ]
    _, plain, _ = run_cli(capsys, *args)
    _, scaled, _ = run_cli(capsys, *args, "--normalize")
    v_plain = float(data_rows(plain)[1].split(",")[2])
    v_scaled = float(data_rows(scaled)[1].split(",")[2])
    assert v_scaled == pytest.approx(v_plain * 8.0, rel=1e-9)


def test_sweep_n_sorted_and_deterministic(tmp_path, capsys):
    args = (
        "sweep-n",
        "--designs", "cemux,basic_biased",
        "--taps", "15",
        "--n-min", "4",
        "--n-max", "5",
        "--runs", "30",
        "--seed", "3",
    )
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    rows = data_rows(out1)
    assert rows[0] == "design,N,rmse"
    keys = [(r.split(",")[0], int(r.split(",")[1])) for r in rows[1:]]
    assert keys == sorted(keys)


def test_decompose_precise_eps_samp_column_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--model", "hypergeometric",
        "--sampling", "precise",
        "--scc", "1",
        "--m-list", "2,4",
        "--n", "6",
        "--runs", "200",
    )
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "M,eps_noise,eps_samp,eps_corr,total,closed_form"
    for r in rows[1:]:
        assert r.split(",")[2] == "0"
        assert r.split(",")[5] != ""


def test_decompose_closed_form_tracks_total(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--model", "hypergeometric",
        "--sampling", "noisy",
        "--scc", "0",
        "--m-list", "4",
        "--n", "7",
        "--runs", "3000",
        "--seed", "9",
    )
    assert code == 0
    row = data_rows(out)[1].split(",")
    total, closed = float(row[4]), float(row[5])
    assert closed == pytest.approx(total, rel=0.15)


def test_filter_csv_and_stats_footer(tmp_path, capsys):
    out_path = tmp_path / "f.csv"
    code, _, _ = run_cli(
        capsys,
        "filter",
        "--synthetic", "sine_mix",
        "--noise-sigma", "0.05",
        "--length", "48",
        "--taps", "9",
        "--designs", "cemux,basic_hardwired",
        "--n", "8",
        "--seed", "2",
        "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    rows = data_rows(text)
    assert rows[0] == "index,noisy,reference,cemux,basic_hardwired"
    assert len(rows) == 1 + 48
    stats = [l for l in text.splitlines() if l.startswith("# stats")]
    assert len(stats) == 2
    assert "warmup=8" in stats[0]
    # the same command run again produces a byte-identical file
    first = out_path.read_bytes()
    run_cli(
        capsys,
        "filter",
        "--synthetic", "sine_mix",
        "--noise-sigma", "0.05",
        "--length", "48",
        "--taps", "9",
        "--designs", "cemux,basic_hardwired",
        "--n", "8",
        "--seed", "2",
        "--out", str(out_path),
    )
    assert out_path.read_bytes() == first


def test_identity_filter_tracks_noisy_input(tmp_path, capsys):
    coeff = tmp_path / "h.txt"
    coeff.write_text("1.0\n")
    out_path = tmp_path / "id.csv"
    code, _, _ = run_cli(
        capsys,
        "filter",
        "--synthetic", "sine_mix",
        "--length", "32",
        "--coeff-file", str(coeff),
        "--designs", "cemux",
        "--n", "10",
        "--out", str(out_path),
    )
    assert code == 0
    for row in data_rows(out_path.read_text())[1:]:
        _, noisy, _, stoch = row.split(",")
        assert abs(float(noisy) - float(stoch)) <= 2 ** -9


def test_report_counts_csv(capsys):
    code, out, _ = run_cli(capsys, "report", "--design", "cemux", "--n", "6", "--pm", "8")
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "component,count"
    counts = dict(r.split(",") for r in rows[1:])
    assert counts["select_counter_bits"] == "6"
    assert int(counts["muxes"]) <= min(8 * 6 - 1, 63)


def write_signal_csv(path, signal):
    rows = ["index,value"] + [f"{i},{v:.10g}" for i, v in enumerate(signal.samples)]
    Path(path).write_text("\n".join(rows) + "\n")


def test_signal_csv_round_trip(tmp_path):
    path = tmp_path / "sig.csv"
    sig = Signal(np.array([0.25, -0.5, 1.0]))
    write_signal_csv(str(path), sig)
    back = read_signal_csv(str(path))
    assert np.array_equal(back, sig.samples)
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n0.1\n")
    with pytest.raises(ValueError, match="header"):
        read_signal_csv(str(bad))


# Exit-code fuzzing: every invocation must exit 0 (success), return 2
# (runtime error) or raise SystemExit(1) (usage error). Values are small,
# boundary or malformed; "@name" stands for a file of FUZZ_FILES (or a
# missing one), and the options that set a run's size are always passed with
# small values so that each example takes milliseconds.
FUZZ_FILES = {
    "coeffs": "0.5\n-0.25\n0.125\n",
    "coeffs_big": "2\n-3\n",
    "coeffs_bad_row": "0.5\nx\n",
    "coeffs_empty": "# none\n",
    "coeffs_nan": "0.5\nnan\n",
    "signal": "index,value\n0,0.1\n1,-0.2\n2,0.3\n",
    "signal_bad_row": "index,value\n0,0.1\n1\n",
    "signal_extra_column": "index,value\n0,0.1,2\n",
    "signal_nan": "index,value\n0,nan\n",
    "signal_no_header": "0,0.1\n",
    # one entry over each size limit
    "coeffs_over": coefficient_text(65537),
    "signal_over": signal_text((1 << 20) + 1),
}
COEFF_FILES = ["@coeffs", "@coeffs_big", "@coeffs_bad_row", "@coeffs_empty", "@coeffs_nan", "@missing"]
SIGNAL_FILES = ["@signal", "@signal_bad_row", "@signal_extra_column", "@signal_nan",
                "@signal_no_header", "@missing"]
DESIGNS = ["cemux", "cemux_biased,basic_hardwired", "basic_biased", "apc", "nonsense", ""]
NS = ["0", "3", "5", "-1", "x"]
MS = ["0", "1", "3", "-1", "x"]
RUNS = ["0", "1", "3", "-1", "x"]
SIZES = ["0", "1", "16", "-1", "x"]  # signal length, taps
CUTOFFS = ["0.1", "0", "1", "-0.5", "nan", "x"]
# per subcommand: (options always passed, options passed or not)
FUZZ_OPTIONS = {
    "quantize": ({"--weights": COEFF_FILES, "--m": MS}, {}),
    "sweep-m": (
        {"--designs": DESIGNS, "--n": NS, "--m-max": MS, "--runs": RUNS},
        {"--m-min": MS, "--weight-dist": ["uniform", "pm", "x"], "--normalize": [None]},
    ),
    "sweep-n": (
        {"--designs": DESIGNS, "--taps": SIZES, "--n-min": NS, "--n-max": NS, "--runs": RUNS},
        {"--cutoff": CUTOFFS, "--coeff-file": COEFF_FILES},
    ),
    "decompose": (
        {"--model": ["bernoulli", "hypergeometric", "x"], "--sampling": ["noisy", "precise"],
         "--m-list": ["1", "2,3", "0", "2,x", ""], "--n": NS, "--runs": RUNS},
        {"--scc": ["0", "1", "none", "2"], "--weights-file": COEFF_FILES,
         "--values-file": COEFF_FILES},
    ),
    "filter": (
        {"--length": SIZES, "--taps": SIZES, "--n": NS},
        {"--signal": SIGNAL_FILES, "--synthetic": ["sine_mix", "chirp", "pulse_train", "x"],
         "--noise-sigma": ["0", "0.05", "-1", "nan"], "--coeff-file": COEFF_FILES,
         "--cutoff": CUTOFFS, "--designs": DESIGNS},
    ),
    "report": (
        {"--design": ["cemux", "cemux_biased", "basic_biased", "apc", "nonsense"], "--n": NS},
        {"--coeff-file": COEFF_FILES, "--lowpass-taps": SIZES, "--cutoff": CUTOFFS,
         "--pm": ["0", "1", "3", "-1", "x"]},
    ),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    always, optional = FUZZ_OPTIONS[command]
    argv = [command]
    for opt, values in always.items():
        argv += [opt, draw(st.sampled_from(values))]
    for opt, values in {**optional, "--seed": ["0", "5", "-1", "x"]}.items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(values))
            argv += [opt] if value is None else [opt, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
@example(["filter", "--length", "4", "--taps", "2", "--n", "4", "--signal", "@signal_bad_row"])
@example(["report", "--design", "cemux", "--n", "4", "--lowpass-taps", "0"])
@example(["sweep-m", "--designs", "cemux", "--n", "4", "--m-max", "1", "--runs", "1",
          "--m-min", "-1"])
@example(["decompose", "--model", "bernoulli", "--sampling", "noisy", "--n", "40", "--runs", "2",
          "--m-list", "2"])
@example(["quantize", "--weights", "@coeffs", "--m", "53"])
@example(["sweep-m", "--designs", "cemux", "--n", "-1"])
@example(["sweep-n", "--designs", "cemux", "--n-min", "-1"])
@example(["sweep-m", "--designs", ",", "--n", "4", "--m-max", "3", "--runs", "1"])
@example(["sweep-n", "--designs", ",", "--taps", "4", "--n-min", "4", "--n-max", "4",
          "--runs", "1"])
@example(["filter", "--length", "8", "--taps", "2", "--n", "4", "--designs", ","])
@example(["sweep-m", "--designs", "cemux,cemux", "--n", "4", "--m-max", "3", "--runs", "1"])
@example(["filter", "--length", "8", "--taps", "2", "--n", "4", "--designs", "cemux,cemux"])
@example(["filter", "--length", "8", "--taps", "2", "--n", "4", "--noise-sigma", "-1"])
@example(["filter", "--length", "8", "--taps", "2", "--n", "4", "--noise-sigma", "inf"])
@example(["filter", "--length", "1", "--taps", "4", "--n", "4"])
@example(["sweep-m", "--designs", "cemux", "--n", "4", "--m-min", "27", "--m-max", "27",
          "--runs", "1"])
@example(["sweep-n", "--designs", "cemux", "--taps", "65537", "--n-min", "4", "--n-max", "4",
          "--runs", "1"])
@example(["decompose", "--model", "bernoulli", "--sampling", "precise", "--m-list", "200000000",
          "--n", "4", "--runs", "2"])
@example(["filter", "--length", "8", "--taps", "65537", "--n", "4"])
@example(["filter", "--length", "1048577", "--taps", "2", "--n", "4"])
@example(["report", "--design", "cemux", "--n", "4", "--pm", "300000000"])
@example(["report", "--design", "cemux", "--n", "4", "--lowpass-taps", "65537"])
@example(["report", "--design", "cemux", "--n", "4", "--pm", "0"])
@example(["report", "--design", "cemux", "--n", "4", "--pm", "-1"])
@example(["filter", "--length", "8", "--taps", "2", "--n", "4", "--seed", "-1"])
@example(["sweep-n", "--designs", "cemux", "--taps", "4", "--n-min", "4", "--n-max", "4",
          "--runs", "1", "--coeff-file", "@coeffs_over"])
@example(["filter", "--length", "8", "--taps", "2", "--n", "4", "--coeff-file", "@coeffs_over"])
@example(["report", "--design", "cemux", "--n", "4", "--coeff-file", "@coeffs_over"])
@example(["decompose", "--model", "bernoulli", "--sampling", "noisy", "--m-list", "2", "--n", "4",
          "--runs", "2", "--weights-file", "@coeffs_over"])
@example(["decompose", "--model", "bernoulli", "--sampling", "noisy", "--m-list", "2", "--n", "4",
          "--runs", "2", "--values-file", "@coeffs_over"])
@example(["filter", "--length", "8", "--taps", "2", "--n", "4", "--signal", "@signal_over"])
@example(["quantize", "--weights", "@coeffs_over", "--m", "16"])
def test_cli_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FUZZ_FILES.items():
            if f"@{name}" in argv:
                (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a[1:]) if a.startswith("@") else a for a in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 1, argv
            else:
                assert code in (0, 2), argv


def test_main_calls_share_one_parser_that_prints_what_a_fresh_one_prints(tmp_path, capsys):
    from scmux import cli

    wf = tmp_path / "w.txt"
    wf.write_text("0.5\n-0.25\n")
    calls = [
        ["quantize", "--weights", str(wf), "--m", "3"],
        ["--help"],
        ["sweep-m", "--help"],
        ["sweep-m", "--designs", "cemux", "--m-min", "4", "--m-max", "3"],
        ["report", "--design", "cemux", "--n", "x"],
        ["nonsense"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 1, 1, 1]
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert [run(argv) for argv in calls] == fresh
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(calls) - 1)
