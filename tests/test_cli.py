"""Command-line surface: run, verify, plot, exit codes, and determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from adamxlab.cli import main

GOLDEN_X2 = "0.9968377223398316"
GOLDEN_X3 = "0.9970569034941291"


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    code = info.value.code
    return (0 if code is None else code), out, err


# ------------------------------------------------------------------- run

def test_run_emits_reference_trace(capsys):
    code, out, err = run_cli(["run", "--steps", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,f_xt,f_xstar,regret,avg_regret,x_0"
    assert lines[1] == f"1,1010.0,-1010.0,2020.0,2020.0,{GOLDEN_X2}"
    assert lines[2].endswith(GOLDEN_X3)
    assert err.strip() == "T=3 R(T)=1980.0610537416603 R(T)/T=660.0203512472201"


def test_run_writes_file_and_prints_summary(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code, out, err = run_cli(["run", "--steps", "2", "--output", str(target)], capsys)
    assert code == 0
    assert err == ""
    assert out.startswith("T=2 R(T)=")
    text = target.read_text()
    assert GOLDEN_X2 in text and GOLDEN_X3 in text
    # rows end with plain newlines, no carriage returns
    assert "\r" not in text


def test_run_rejects_zero_steps(capsys):
    code, out, err = run_cli(["run", "--steps", "0"], capsys)
    assert code == 2
    assert "steps must be ≥ 1" in err


def test_run_propagates_numeric_fault(capsys):
    with np.errstate(over="ignore"):
        code, out, err = run_cli(["run", "--alpha", "1e308", "--steps", "5"], capsys)
    assert code == 3
    assert "numeric fault at step 1" in err


def test_run_rejects_infinite_alpha(capsys):
    # used to pass validation and fail only at step 1 as a numeric fault
    code, out, err = run_cli(["run", "--alpha", "inf", "--steps", "2"], capsys)
    assert code == 2
    assert "alpha must be finite" in err


def test_run_rejects_unknown_optimizer(capsys):
    code, out, err = run_cli(["run", "--optimizer", "sgd"], capsys)
    assert code == 2


def test_run_quadratic_multidim_header(capsys):
    code, out, err = run_cli(
        ["run", "--problem", "quadratic", "--dim", "3", "--steps", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "t,f_xt,f_xstar,regret,avg_regret,x_0,x_1,x_2"


# ---------------------------------------------------------------- config

def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2, "lambda": 0.001}))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    assert GOLDEN_X2 in out and GOLDEN_X3 in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 50, "optimizer": "adamx"}))
    code, out, err = run_cli(["run", "--config", str(cfg), "--steps", "2"], capsys)
    assert code == 0
    # 2 data rows + header
    assert len(out.strip().splitlines()) == 3


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 5}))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config key 'stepz'" in err


def test_config_must_be_object_or_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("42")
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "object or a list" in err


def test_config_missing_file(tmp_path, capsys):
    code, out, err = run_cli(["run", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "cannot read config" in err


def test_batch_runs_every_entry(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([
        {"steps": 3, "output_path": str(out_a)},
        {"steps": 3, "optimizer": "adamx", "output_path": str(out_b)},
    ]))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    assert out_a.exists() and out_b.exists()
    assert out_a.read_text().splitlines()[1].endswith(GOLDEN_X2)


def test_batch_requires_output_paths(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([{"steps": 3}]))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "output_path" in err


# ---------------------------------------------------------------- verify

def test_verify_counterexample_json(capsys):
    code, out, err = run_cli(["verify", "counterexample"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "counterexample"
    assert payload["status"] == "pass"
    assert len(payload["checks"]) == 3
    assert {c["status"] for c in payload["checks"]} == {"pass"}


def test_verify_writes_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", "counterexample", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["status"] == "pass"


def test_verify_gamma_one_fails_with_note(capsys):
    # beta2 = 0.81 with beta1 = 0.9 sits exactly at gamma = 1
    code, out, err = run_cli(["verify", "bounds", "--beta2", "0.81"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    notes = {c.get("note") for c in payload["checks"]}
    assert notes == {"bound undefined at γ=1"}


def test_verify_rejects_invalid_hyperparameters(capsys):
    code, out, err = run_cli(["verify", "bounds", "--beta2", "1.5"], capsys)
    assert code == 2
    assert "invalid hyperparameters" in err


def test_verify_rejects_nan_epsilon(capsys):
    # a NaN epsilon fails the denom > 0 guard on every coordinate, which
    # froze the iterate and let the bounds suite report "pass"
    code, out, err = run_cli(["verify", "bounds", "--epsilon", "nan"], capsys)
    assert code == 2
    assert "epsilon must be finite" in err


def test_verify_rejects_unknown_suite(capsys):
    code, out, err = run_cli(["verify", "everything"], capsys)
    assert code == 2


# ------------------------------------------------------------------ plot

def make_trace(tmp_path, capsys, name, extra=()):
    target = tmp_path / name
    args = ["run", "--steps", "40", "--output", str(target)] + list(extra)
    code, out, err = run_cli(args, capsys)
    assert code == 0
    return target


def test_plot_renders_svg(tmp_path, capsys):
    a = make_trace(tmp_path, capsys, "amsgrad.csv")
    b = make_trace(tmp_path, capsys, "adamx.csv", ["--optimizer", "adamx"])
    target = tmp_path / "chart.svg"
    code, out, err = run_cli(
        ["plot", str(a), str(b), "--output", str(target)], capsys)
    assert code == 0
    assert f"wrote {target}" in out
    svg = target.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    assert 'width="800" height="500"' in svg
    assert svg.count("<polyline") == 2
    # legend carries the file names, the y axis the column label
    assert "amsgrad.csv" in svg and "adamx.csv" in svg
    assert "R(t)/t" in svg


def test_plot_column_selection(tmp_path, capsys):
    a = make_trace(tmp_path, capsys, "run.csv")
    target = tmp_path / "regret.svg"
    code, out, err = run_cli(
        ["plot", str(a), "--column", "regret", "--output", str(target)], capsys)
    assert code == 0
    assert "R(t)" in target.read_text()


def test_plot_rejects_missing_column(tmp_path, capsys):
    a = make_trace(tmp_path, capsys, "run.csv")
    code, out, err = run_cli(
        ["plot", str(a), "--column", "nope", "--output", str(tmp_path / "x.svg")],
        capsys)
    assert code == 2
    assert "header must contain" in err


def test_plot_rejects_header_only_file(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("t,f_xt,f_xstar,regret,avg_regret,x_0\n")
    code, out, err = run_cli(
        ["plot", str(bad), "--output", str(tmp_path / "x.svg")], capsys)
    assert code == 2
    assert "no data rows" in err


def test_plot_rejects_empty_file(tmp_path, capsys):
    bad = tmp_path / "void.csv"
    bad.write_text("")
    code, out, err = run_cli(
        ["plot", str(bad), "--output", str(tmp_path / "x.svg")], capsys)
    assert code == 2
    assert "empty file" in err


def test_plot_names_malformed_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,f_xt,f_xstar,regret,avg_regret,x_0\n"
                   "1,bad,0,0,0,0\n")
    code, out, err = run_cli(
        ["plot", str(bad), "--output", str(tmp_path / "x.svg")], capsys)
    assert code == 2
    assert "line 2: malformed row" in err


def test_plot_rejects_short_rows(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text("t,f_xt,f_xstar,regret,avg_regret,x_0\n"
                   "1,0,0\n")
    code, out, err = run_cli(
        ["plot", str(bad), "--output", str(tmp_path / "x.svg")], capsys)
    assert code == 2
    assert "line 2: malformed row" in err


# ------------------------------------------------------------ round trips

def test_csv_floats_round_trip(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    run_cli(["run", "--steps", "3", "--output", str(target)], capsys)
    rows = target.read_text().strip().splitlines()[1:]
    xs = [float(r.split(",")[-1]) for r in rows]
    assert xs == [0.9968377223398316, 0.9970569034941291, 0.9972376700131326]


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--problem", "logistic", "--optimizer", "adamx",
            "--steps", "100", "--seed", "3"]
    run_cli(args + ["--output", str(a)], capsys)
    run_cli(args + ["--output", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "adamxlab", "run", "--steps", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert GOLDEN_X2 in proc.stdout


@pytest.mark.parametrize("argv, read_lines, code", [
    (["run", "--steps", "50000"], 1, 0),
    (["verify", "counterexample"], 0, 0),
    (["verify", "bounds", "--beta2", "0.81"], 0, 1),
])
def test_closed_stdout_keeps_exit_code(argv, read_lines, code):
    # the reader closes the pipe after read_lines lines, as `| head` does
    proc = subprocess.Popen([sys.executable, "-m", "adamxlab"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for _ in range(read_lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == code
    assert "Traceback" not in err and "BrokenPipeError" not in err
