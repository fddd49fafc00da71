"""Command-line surface: run, verify, plot, exit codes, and determinism."""

import csv
import io
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from adamxlab import (HyperParams, average_regret, quadratic_problem, run_oco,
                      synthetic_problem)
from adamxlab.cli import (_CSV_CHUNK_ROWS, ExperimentConfig, _read_series,
                          _write_trace_csv, main)

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


@pytest.mark.parametrize("problem", [["synthetic"], ["quadratic", "--dim", "20"]])
def test_numeric_fault_prints_one_stderr_line(problem):
    # d = 1 takes the run kernel, d = 20 the step loop; numpy's overflow and
    # reduce warnings from the faulting step stay off stderr
    proc = subprocess.run([sys.executable, "-m", "adamxlab", "run", "--problem", *problem,
                           "--alpha", "1e308", "--steps", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["numeric fault at step 1: non-finite x at step 1"]


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
    # what the file holds, and the index of the entry that is not an object
    for loaded, entry in ((42, None), ([1, 2], 0), (["a"], 0), ([None], 0),
                          ([{"steps": 5, "output_path": "a.csv"}, 3], 1)):
        cfg.write_text(json.dumps(loaded))
        code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 2
        where = "" if entry is None else f" (entry {entry} is not an object)"
        assert err == f"config file must hold an object or a list of objects{where}\n"


def test_config_missing_file(tmp_path, capsys):
    code, out, err = run_cli(["run", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.parametrize("entry, message", [
    ({"steps": 2.5}, "steps must be an integer, got 2.5"),
    ({"steps": "10"}, "steps must be an integer, got '10'"),
    ({"steps": True}, "steps must be an integer, got True"),
    ({"record_full": True}, "unknown config key 'record_full'"),
    ({"lam": 0.2, "lambda": 0.1}, "'lam' and 'lambda' both set lambda"),
    ({"alpha": "0.1"}, "alpha must be a number, got '0.1'"),
    ({"alpha": False}, "alpha must be a number, got False"),
    ({"alpha": 10 ** 400}, "alpha must be a number"),
    ({"optimizer": 3}, "optimizer must be a string, got 3"),
    ({"seed": -1, "problem": "logistic"}, "seed must be ≥ 0"),
    # histories numpy cannot size, rejected before anything is allocated
    ({"steps": 10 ** 23}, f"steps={10 ** 23} and dim=1 are too large"),
    ({"problem": "quadratic", "dim": 10 ** 23}, f"steps=1000 and dim={10 ** 23} are too large"),
])
def test_config_rejects_ill_typed_values(tmp_path, capsys, entry, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--bias-correction", "--alpha-constant", "--record-full"])
def test_run_rejects_removed_flags(capsys, flag):
    code, out, err = run_cli(["run", flag], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


def test_config_takes_integer_for_float_field(tmp_path, capsys):
    # a float field takes a JSON integer and reads it as a double
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2, "epsilon": 0}))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    assert GOLDEN_X2 in out and GOLDEN_X3 in out


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


@pytest.mark.parametrize("entry, expected", [
    ({"steps": 3}, 0),
    ({"steps": 5, "alpha": 1e308}, 3),
    ({"steps": 3, "output_path": "missing/x.csv"}, 2),
])
def test_single_run_is_a_batch_of_one(tmp_path, capsys, entry, expected):
    # a one-entry list, the same object and the same flags take one run loop
    target = tmp_path / entry.get("output_path", "x.csv")
    entry = {**entry, "output_path": str(target)}
    flags = []
    for key, value in entry.items():
        flags += ["--output" if key == "output_path" else f"--{key}", str(value)]
    cfg = tmp_path / "cfg.json"
    results = []
    for loaded in ([entry], entry, None):
        argv = ["run"] + flags
        if loaded is not None:
            cfg.write_text(json.dumps(loaded))
            argv = ["run", "--config", str(cfg)]
        with np.errstate(over="ignore"):
            code, out, err = run_cli(argv, capsys)
        results.append((code, out, err, target.read_bytes() if target.exists() else None))
        target.unlink(missing_ok=True)
    assert results[0] == results[1] == results[2]
    code, out, err, written = results[0]
    assert code == expected
    assert (written is not None) == (expected == 0)
    if expected == 0:
        assert out.startswith("T=3 R(T)=") and err == ""
        assert written.decode().splitlines()[1].endswith(GOLDEN_X2)
    else:
        assert out == "" and err


def test_batch_requires_output_paths(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([{"steps": 3}]))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "output_path" in err


def test_batch_rejects_empty_list(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text("[]")
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == "" and err == "config file holds an empty list: no run to make\n"


def test_batch_rejects_shared_output_path(tmp_path, capsys):
    target = tmp_path / "same.csv"
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([
        {"steps": 3, "output_path": str(tmp_path / "other.csv")},
        {"steps": 3, "output_path": str(target)},
        {"steps": 4, "optimizer": "adamx", "output_path": str(tmp_path / "." / "same.csv")},
    ]))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "batch entries 1 and 2 share output_path" in err
    # rejected before any run starts
    assert out == ""
    assert not any(tmp_path.glob("*.csv"))


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


@pytest.mark.parametrize("flag", ["--alpha", "--beta1", "--beta2", "--lambda", "--epsilon"])
def test_verify_counterexample_rejects_hyperparameter_flags(flag, capsys):
    # the replay runs the paper's constants, so a pass would not be for the
    # run the flag asked for
    code, out, err = run_cli(["verify", "counterexample", flag, "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert err == "verify counterexample takes no hyperparameter flags\n"


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


def test_plot_escapes_legend_names(tmp_path, capsys):
    a = make_trace(tmp_path, capsys, "a&b<c>.csv")
    target = tmp_path / "chart.svg"
    code, _, _ = run_cli(["plot", str(a), "--output", str(target)], capsys)
    assert code == 0
    assert ">a&amp;b&lt;c&gt;.csv</text>" in target.read_text()


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


@pytest.mark.parametrize("row", ["2,0,0,0,inf,0", "2,0,0,0,nan,0", "nan,0,0,0,1,0",
                                 "-inf,0,0,0,1,0"])
def test_plot_rejects_non_finite_values(tmp_path, capsys, row):
    bad = tmp_path / "nonfinite.csv"
    bad.write_text("t,f_xt,f_xstar,regret,avg_regret,x_0\n"
                   "1,0,0,0,0.5,0\n\n" + row + "\n")
    target = tmp_path / "x.svg"
    code, out, err = run_cli(["plot", str(bad), "--output", str(target)], capsys)
    assert code == 2
    assert "line 4: non-finite value" in err
    assert not target.exists()


def test_plot_ignores_non_finite_unplotted_column(tmp_path, capsys):
    trace = tmp_path / "ok.csv"
    trace.write_text("t,f_xt,f_xstar,regret,avg_regret,x_0\n"
                     "1,inf,0,0,0.5,0\n2,0,0,0,0.25,nan\n")
    code, out, err = run_cli(["plot", str(trace), "--output", str(tmp_path / "x.svg")],
                             capsys)
    assert code == 0


def test_plot_reads_quoted_cells_like_bare_ones(tmp_path, capsys):
    # csv quoting is not something np.loadtxt parses; the row scan does
    bare, quoted = tmp_path / "bare.csv", tmp_path / "quoted.csv"
    bare.write_text("t,f_xt,f_xstar,regret,avg_regret,x_0\n1,0,0,0,0.5,0\n2,0,0,0,0.25,0\n")
    quoted.write_text('t,f_xt,f_xstar,regret,avg_regret,x_0\n1,0,0,0,"0.5",0\n'
                      '2,0,0,0,0.25,0\n')
    for path in (bare, quoted):
        code, _, _ = run_cli(["plot", str(path), "--output", str(path) + ".svg"], capsys)
        assert code == 0
    svg = (tmp_path / "bare.csv.svg").read_text()
    assert svg.replace("bare.csv", "quoted.csv") == (tmp_path / "quoted.csv.svg").read_text()


@pytest.mark.parametrize("column", ["avg_regret", "x_0"])
def test_series_reader_matches_float_per_cell(tmp_path, capsys, column):
    trace = make_trace(tmp_path, capsys, "run.csv", ["--problem", "quadratic",
                                                     "--steps", "300", "--seed", "3"])
    with open(trace, newline="") as f:
        rows = list(csv.DictReader(f))
    ts, ys = _read_series(str(trace), column)
    assert ts == [float(r["t"]) for r in rows]
    assert ys == [float(r[column]) for r in rows]


def test_plot_names_malformed_line_in_a_later_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,f_xt,f_xstar,regret,avg_regret,x_0\n"
                   "1,0,0,0,0,0\n2,0,0,0,0,x\n")
    code, out, err = run_cli(["plot", str(bad), "--output", str(tmp_path / "x.svg")], capsys)
    assert code == 2
    assert "line 3: malformed row" in err


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


# ------------------------------------------------------ trace CSV writer

def reference_write_trace_csv(stream, trace):
    """The cell-by-cell csv.writer serializer, kept as the byte reference
    for the column-wise writer."""
    writer = csv.writer(stream, lineterminator="\n")
    d = trace.iterates.shape[1]
    writer.writerow(["t", "f_xt", "f_xstar", "regret", "avg_regret"]
                    + [f"x_{i}" for i in range(d)])
    avg = average_regret(trace)
    for t in range(1, trace.T + 1):
        row = [str(t), repr(float(trace.losses[t - 1])),
               repr(float(trace.comparator_losses[t - 1])),
               repr(float(trace.cumulative_regret[t - 1])), repr(float(avg[t - 1]))]
        row.extend(repr(float(v)) for v in trace.iterates[t])
        writer.writerow(row)


def synthetic_trace(T):
    return run_oco(synthetic_problem(), "adamx", HyperParams(alpha=4.0, beta1=0.5), T,
                   record_iterates=True)


def signed_zero_trace():
    # -0.0, a subnormal, exponents repr writes as 1e+16, and an exact integer
    trace = run_oco(quadratic_problem(3, 2), "amsgrad", HyperParams(), 4,
                    record_iterates=True)
    iterates = trace.iterates.copy()
    iterates[1:, 0] = [-0.0, 5e-324, 1e16, -1.5e-7]
    return replace(trace, losses=np.array([-0.0, 0.0, 1e22, 3.0]),
                   comparator_losses=np.array([0.0, -0.0, 2.5, -1e-300]),
                   iterates=iterates)


@pytest.mark.parametrize("make_trace", [
    lambda: synthetic_trace(2 * _CSV_CHUNK_ROWS + 123),
    lambda: synthetic_trace(_CSV_CHUNK_ROWS),
    lambda: synthetic_trace(1),
    lambda: run_oco(quadratic_problem(11, 5), "adamx", HyperParams(), 700,
                    record_iterates=True),
    signed_zero_trace,
], ids=["several-chunks", "one-full-chunk", "T1", "quadratic-d5", "signed-zero"])
def test_csv_writer_matches_reference_bytes(tmp_path, make_trace):
    trace = make_trace()
    expected = io.StringIO()
    reference_write_trace_csv(expected, trace)
    target = tmp_path / "trace.csv"
    with open(target, "w", newline="") as f:
        _write_trace_csv(f, trace)
    assert target.read_bytes() == expected.getvalue().encode()
    if make_trace is signed_zero_trace:
        assert "\n1,-0.0,0.0," in expected.getvalue()


@pytest.mark.parametrize("output", [False, True])
def test_run_trace_matches_reference_bytes(tmp_path, capsys, output):
    # through the command, on stdout and into a file
    argv = ["run", "--problem", "quadratic", "--dim", "3", "--seed", "4", "--steps", "60"]
    target = tmp_path / "trace.csv"
    code, out, err = run_cli(argv + (["--output", str(target)] if output else []), capsys)
    assert code == 0
    config = ExperimentConfig(problem="quadratic", dim=3, seed=4, steps=60)
    trace = run_oco(config.problem_instance(), config.optimizer, config.hyperparams(), 60,
                    record_iterates=True)
    expected = io.StringIO()
    reference_write_trace_csv(expected, trace)
    written = target.read_text() if output else out
    assert written == expected.getvalue()


# ------------------------------------------------------ unwritable output

def counting_run_oco(monkeypatch):
    from adamxlab import cli
    calls = []

    def counting(problem, *args, **kwargs):
        calls.append(problem.name)
        return run_oco(problem, *args, **kwargs)

    monkeypatch.setattr(cli, "run_oco", counting)
    return calls


def test_run_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    calls = counting_run_oco(monkeypatch)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["run", "--steps", "50500", "--output", str(target)], capsys)
    assert code == 2
    # the path is probed before the run, so the run never starts
    assert calls == []
    assert out == ""
    assert err.strip() == f"cannot write {target}: No such file or directory"


def test_batch_unwritable_entry_fails_alone(tmp_path, capsys, monkeypatch):
    calls = counting_run_oco(monkeypatch)
    good_a, good_b = tmp_path / "a.csv", tmp_path / "b.csv"
    bad = tmp_path / "missing" / "x.csv"
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([
        {"steps": 3, "output_path": str(good_a)},
        {"steps": 3, "output_path": str(bad)},
        {"steps": 3, "optimizer": "adamx", "output_path": str(good_b)},
    ]))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    # the bad entry never ran; the entries on either side ran and wrote their traces
    assert calls == ["synthetic", "synthetic"]
    assert len(out.strip().splitlines()) == 2
    assert good_a.exists() and good_b.exists()
    assert err.strip() == f"cannot write {bad}: No such file or directory"


def test_config_defaults_are_the_library_defaults():
    assert ExperimentConfig().hyperparams() == HyperParams()


def test_history_size_limit_counts_the_problem_dimension():
    limit = sys.maxsize // 8
    ExperimentConfig(steps=limit - 1).validate()
    with pytest.raises(ValueError, match="too large"):
        ExperimentConfig(steps=limit).validate()
    # the logistic problem has three coordinates whatever dim says
    ExperimentConfig(problem="logistic", steps=limit // 3 - 1, dim=10 ** 23).validate()
    with pytest.raises(ValueError, match="dim=3 are too large"):
        ExperimentConfig(problem="logistic", steps=limit // 3).validate()


def oversized_run_oco(monkeypatch, limit):
    """Make a run of more than ``limit`` steps raise MemoryError, as numpy
    does when it cannot allocate the histories, without allocating them."""
    from adamxlab import cli

    def guarded(problem, stepper, h, T, **kwargs):
        if T > limit:
            raise MemoryError
        return run_oco(problem, stepper, h, T, **kwargs)

    monkeypatch.setattr(cli, "run_oco", guarded)


def test_run_too_large_to_allocate_exits_2(capsys, monkeypatch):
    oversized_run_oco(monkeypatch, 1000)
    code, out, err = run_cli(["run", "--steps", "1000000000000"], capsys)
    assert code == 2
    assert out == ""
    assert err == "run too large to allocate: steps=1000000000000, dim=1\n"


def test_batch_entry_too_large_to_allocate_fails_alone(tmp_path, capsys, monkeypatch):
    oversized_run_oco(monkeypatch, 1000)
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([
        {"problem": "quadratic", "dim": 4, "steps": 10 ** 12, "output_path": str(big)},
        {"steps": 3, "output_path": str(small)},
    ]))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert err == f"run too large to allocate: steps={10 ** 12}, dim=4\n"
    assert len(out.strip().splitlines()) == 1
    assert not big.exists() and small.exists()


def test_problem_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    from adamxlab import cli

    def oversized(seed, d):
        raise MemoryError

    monkeypatch.setattr(cli, "quadratic_problem", oversized)
    code, out, err = run_cli(["run", "--problem", "quadratic", "--dim", "100000000000",
                              "--steps", "5"], capsys)
    assert code == 2
    assert out == ""
    assert err == "run too large to allocate: steps=5, dim=100000000000\n"
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([
        {"problem": "quadratic", "dim": 10 ** 11, "steps": 5, "output_path": str(big)},
        {"steps": 3, "output_path": str(small)},
    ]))
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert err == f"run too large to allocate: steps=5, dim={10 ** 11}\n"
    assert len(out.strip().splitlines()) == 1
    assert not big.exists() and small.exists()


def test_output_probe_keeps_files_when_the_run_faults(tmp_path, capsys):
    existing, fresh = tmp_path / "old.csv", tmp_path / "new.csv"
    existing.write_text("kept\n")
    for target in (existing, fresh):
        with np.errstate(over="ignore"):
            code, out, err = run_cli(["run", "--alpha", "1e308", "--steps", "5",
                                      "--output", str(target)], capsys)
        assert code == 3
    # the existing file is not truncated and no empty file is left behind
    assert existing.read_text() == "kept\n"
    assert not fresh.exists()


def test_verify_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(["verify", "counterexample", "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.strip() == f"cannot write {target}: No such file or directory"


def test_verify_probes_output_before_running_suites(tmp_path, capsys, monkeypatch):
    from adamxlab import cli

    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: calls.append(args))
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(["verify", "all", "--output", str(target)], capsys)
    assert code == 2
    assert calls == []
    assert err.strip() == f"cannot write {target}: No such file or directory"


def test_plot_unwritable_output_exits_2(tmp_path, capsys):
    trace = make_trace(tmp_path, capsys, "run.csv")
    target = tmp_path / "missing" / "p.svg"
    code, out, err = run_cli(["plot", str(trace), "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.strip() == f"cannot write {target}: No such file or directory"


# ------------------------------------------------------------- start-up

SCIPY_PROBE = """
import json, sys
import adamxlab, adamxlab.cli
from adamxlab import (HyperParams, quadratic_problem, run_oco, synthetic_problem,
                      toy_training_problem)

def solvers():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "special"]))

def cli(*argv):
    try:
        adamxlab.cli.main(list(argv))
    except SystemExit as exc:
        assert exc.code in (0, None), (argv, exc.code)

csv_path, svg_path, report_path = sys.argv[1:]
h = HyperParams()
toy = toy_training_problem(0)
run_oco(synthetic_problem(), "amsgrad", h, 20)
run_oco(quadratic_problem(0, 3), "adamx", h, 20)
cli("verify", "counterexample", "--output", report_path)
cli("run", "--steps", "20", "--output", csv_path)
cli("plot", csv_path, "--output", svg_path)
before = solvers()
trace = run_oco(toy, "adamx", h, 20)
print(json.dumps({"before": before, "after": solvers(), "R": float(trace.cumulative_regret[-1])}))
"""


NETWORK_PROBE = """
import json, sys
import adamxlab.cli
print(json.dumps(sorted(m for m in ("urllib.request", "http.client", "email")
                        if m in sys.modules)))
"""


def test_cli_import_loads_no_network_modules():
    # the SVG labels are escaped in place, not through xml.sax.saxutils,
    # whose import pulls in urllib.request, http.client and email
    proc = subprocess.run([sys.executable, "-c", NETWORK_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_scipy_loads_only_for_the_logistic_problem(tmp_path):
    paths = [str(tmp_path / name) for name in ("t.csv", "p.svg", "r.json")]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE] + paths,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["before"] == []
    # the logistic gradient and comparator still find their solvers
    assert "scipy.optimize" in result["after"] and "scipy.special" in result["after"]
    assert np.isfinite(result["R"])
