"""Command-line front end: run experiments, verify guarantees, plot traces.

Exit codes: 0 success, 1 a verification check failed, 2 usage or
configuration error, a run too large to allocate or an output file that
cannot be written, 3 numeric fault during a run.

``run`` writes one CSV row per step with the post-update iterate, so
row t carries x_{t+1}; floats are serialized with repr, the shortest
string that round-trips the exact double, so re-parsing a trace
reproduces the in-memory values bit for bit.
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import NumericFault
from .harness import (average_regret, quadratic_problem, run_oco,
                      synthetic_problem, toy_training_problem)
from .optimizers import HyperParams, Schedule
from .verify import SUITES, run_suite

PROBLEMS = ("synthetic", "quadratic", "logistic")
OPTIMIZERS = ("adam", "amsgrad", "adamx")
SCHEDULES = tuple(s.value for s in Schedule)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


_TYPE_NAMES = {int: "an integer", float: "a number"}

# The largest array a run allocates is its (steps + 1) x d float64 iterate
# history, and numpy sizes no array of more than sys.maxsize bytes.
_MAX_CELLS = sys.maxsize // 8
# the quadratic problem takes its dimension from the config; the others fix it
_FIXED_DIMS = {"synthetic": 1, "logistic": 3}


def _type_ok(kind, value):
    """Whether a config value has its field's type. A bool is a Python int,
    so it is kept out of the numeric fields by hand; a float field also
    takes an int that a double can hold, which the hyperparameter checks
    can then read."""
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, int)
    if kind is float:
        return isinstance(value, float) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max)
    return value is None or isinstance(value, str)


@dataclass
class ExperimentConfig:
    problem: str = "synthetic"
    optimizer: str = "amsgrad"
    schedule: str = HyperParams.schedule.value
    alpha: float = HyperParams.alpha
    beta1: float = HyperParams.beta1
    beta2: float = HyperParams.beta2
    lam: float = HyperParams.lam
    epsilon: float = HyperParams.epsilon
    steps: int = 1000
    seed: int = 0
    dim: int = 2
    output_path: Optional[str] = None

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _type_ok(f.type, value):
                raise ValueError(f"{f.name} must be {_TYPE_NAMES.get(f.type, 'a string')}, "
                                 f"got {value!r}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.steps < 1:
            raise ValueError("steps must be ≥ 1")
        if self.dim < 1:
            raise ValueError("dim must be ≥ 1")
        if self.seed < 0:
            raise ValueError("seed must be ≥ 0")
        if (self.steps + 1) * self.problem_dim() > _MAX_CELLS:
            raise ValueError(f"steps={self.steps} and dim={self.problem_dim()} are too large: "
                             f"(steps + 1) * dim must not exceed {_MAX_CELLS}")
        self.hyperparams()

    def problem_dim(self):
        return _FIXED_DIMS.get(self.problem, self.dim)

    def hyperparams(self):
        return HyperParams(alpha=self.alpha, beta1=self.beta1, beta2=self.beta2,
                           lam=self.lam, schedule=Schedule(self.schedule),
                           epsilon=self.epsilon)

    def problem_instance(self):
        if self.problem == "synthetic":
            return synthetic_problem()
        if self.problem == "quadratic":
            return quadratic_problem(self.seed, self.dim)
        return toy_training_problem(self.seed)


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} | {"lambda"}


def _config_from(entry, overrides):
    """Build a config from a JSON dict layered under explicit flag values."""
    if "lam" in entry and "lambda" in entry:
        raise ValueError("config keys 'lam' and 'lambda' both set lambda; keep one")
    merged = {}
    for key, value in entry.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        merged["lam" if key == "lambda" else key] = value
    merged.update(overrides)
    try:
        config = ExperimentConfig(**merged)
    except TypeError as err:
        raise ValueError(str(err)) from err
    config.validate()
    return config


def _fmt(value):
    return repr(float(value))


_CSV_CHUNK_ROWS = 4096


def _write_trace_csv(stream, trace):
    d = trace.iterates.shape[1]
    stream.write(",".join(["t", "f_xt", "f_xstar", "regret", "avg_regret"]
                          + [f"x_{i}" for i in range(d)]) + "\n")
    columns = np.column_stack([trace.losses, trace.comparator_losses,
                               trace.cumulative_regret, average_regret(trace),
                               trace.iterates[1:]])
    # tolist() yields Python floats, whose repr is _fmt; the chunks bound
    # the memory the row strings take on long runs
    for start in range(0, trace.T, _CSV_CHUNK_ROWS):
        rows = columns[start:start + _CSV_CHUNK_ROWS].tolist()
        stream.write("".join(f"{t},{','.join(map(repr, row))}\n"
                             for t, row in enumerate(rows, start + 1)))


def _cannot_write(path, err):
    print(f"cannot write {path}: {err.strerror or err}", file=sys.stderr)


def _write_file(path, write):
    """Open ``path`` for writing and call ``write(f)``. A path that cannot be
    written is reported on stderr in one line; returns whether it was written."""
    try:
        with open(path, "w", newline="") as f:
            write(f)
    except OSError as err:
        _cannot_write(path, err)
        return False
    return True


def _writable(path):
    """Whether ``path`` can be opened for writing, probed before a run so that
    an unwritable path fails at once, reported as ``_write_file`` does. Append
    mode leaves an existing file as it is, and a file the probe creates is
    removed again, so a run that then faults leaves nothing behind."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as err:
        _cannot_write(path, err)
        return False
    if not existed:
        os.remove(path)
    return True


def _stdout(write, *args):
    """Call ``write(*args)`` and flush stdout. A reader that closed the pipe
    early (``| head``) sends the rest to the null device; the command goes
    on and keeps its own exit code."""
    try:
        write(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _summary_line(trace):
    total = float(trace.cumulative_regret[-1])
    return f"T={trace.T} R(T)={_fmt(total)} R(T)/T={_fmt(total / trace.T)}"


def _execute_run(config):
    """Run one config; returns (exit_code, summary_or_error, trace)."""
    try:
        trace = run_oco(config.problem_instance(), config.optimizer, config.hyperparams(),
                        config.steps, record_iterates=True)
    except NumericFault as err:
        return EXIT_NUMERIC, f"numeric fault at step {err.step}: {err}", None
    except MemoryError:
        return (EXIT_USAGE, f"run too large to allocate: steps={config.steps}, "
                            f"dim={config.problem_dim()}", None)
    return EXIT_OK, _summary_line(trace), trace


def cmd_run(args):
    overrides = _flag_overrides(args)
    entries = [{}]
    batch = False
    if args.config:
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"cannot read config {args.config}: {err}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(loaded, list):
            if not loaded:
                print("config file holds an empty list: no run to make", file=sys.stderr)
                return EXIT_USAGE
            entries, batch = loaded, True
        else:
            entries = [loaded]
        bad = [i for i, entry in enumerate(entries) if not isinstance(entry, dict)]
        if bad:
            where = f" (entry {bad[0]} is not an object)" if batch else ""
            print(f"config file must hold an object or a list of objects{where}",
                  file=sys.stderr)
            return EXIT_USAGE

    try:
        configs = [_config_from(entry, overrides) for entry in entries]
    except ValueError as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return EXIT_USAGE

    if batch:
        missing = [i for i, c in enumerate(configs) if not c.output_path]
        if missing:
            print(f"batch entries must set output_path (missing in entry {missing[0]})",
                  file=sys.stderr)
            return EXIT_USAGE
        owners = {}
        for i, config in enumerate(configs):
            first = owners.setdefault(os.path.realpath(config.output_path), i)
            if first != i:
                print(f"batch entries {first} and {i} share output_path "
                      f"{config.output_path!r}", file=sys.stderr)
                return EXIT_USAGE

    # a single run is a batch of one that may stream its CSV to stdout
    status = EXIT_OK
    for config in configs:
        path = config.output_path
        if path and not _writable(path):
            status = EXIT_USAGE
            continue
        code, message, trace = _execute_run(config)
        if code != EXIT_OK:
            print(message, file=sys.stderr)
            status = code
        elif not path:
            _stdout(_write_trace_csv, sys.stdout, trace)
            print(message, file=sys.stderr)
        elif _write_file(path, lambda f: _write_trace_csv(f, trace)):
            _stdout(print, message)
        else:
            status = EXIT_USAGE
    return status


def _flag_overrides(args):
    """Flag values the user actually supplied (None means untouched)."""
    return {key: value for key, value in vars(args).items()
            if key in _CONFIG_KEYS and value is not None}


def cmd_verify(args):
    overrides = _flag_overrides(args)
    h = None
    if overrides:
        if args.suite == "counterexample":
            # the replay runs the paper's own constants, whatever the flags say
            print("verify counterexample takes no hyperparameter flags", file=sys.stderr)
            return EXIT_USAGE
        try:
            h = HyperParams(**overrides)
        except ValueError as err:
            print(f"invalid hyperparameters: {err}", file=sys.stderr)
            return EXIT_USAGE
    if args.output and not _writable(args.output):
        return EXIT_USAGE
    reports = run_suite(args.suite, h=h)
    all_pass = all(r.passed for r in reports)
    payload = {
        "suite": args.suite,
        "status": "pass" if all_pass else "fail",
        "checks": [r.to_dict() for r in reports],
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        if not _write_file(args.output, lambda f: f.write(text + "\n")):
            return EXIT_USAGE
    else:
        _stdout(print, text)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


_AXIS_LABELS = {"avg_regret": "R(t)/t", "regret": "R(t)", "f_xt": "f_t(x_t)"}
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#bcbd22")


def _read_series(path, column):
    """Parse (t, column) pairs from a trace CSV; errors name the line.

    ``np.loadtxt`` parses a well-formed trace in one pass, bitwise equal
    to ``float`` per cell. Only a file it rejects, or one with a non-finite
    t or plotted value, is scanned row by row to find the line to name.
    """
    with open(path, newline="") as f:
        header = next(csv.reader(f), None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if "t" not in header or column not in header:
        raise ValueError(f"{path}: line 1: header must contain 't' and {column!r}")
    cols = [header.index("t"), header.index(column)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError:
        table = None
    if (table is None or table.shape[1] != len(header)
            or not np.isfinite(table[:, cols]).all()):
        table = _scan_rows(path, len(header), cols)
    if not len(table):
        raise ValueError(f"{path}: no data rows")
    return table[:, cols[0]].tolist(), table[:, cols[1]].tolist()


def _scan_rows(path, width, cols):
    """The trace as a float table, read row by row; raises naming the
    first malformed row or non-finite t or plotted value."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = [float(cell) for cell in row]
                if len(row) != width:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed row") from None
            if not all(math.isfinite(values[i]) for i in cols):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def _escape(text):
    """``text`` with &, < and > written as XML entities, & first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_chart(series, column):
    width, height = 800, 500
    left, right, top, bottom = 70, 210, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [t for ts, _, _ in series for t in ts]
    ys = [y for _, vals, _ in series for y in vals]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def px(t):
        return left + (t - xmin) / (xmax - xmin) * plot_w

    def py(y):
        return top + (ymax - y) / (ymax - ymin) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for k in range(5):
        tx = xmin + k * (xmax - xmin) / 4
        ty = ymin + pad + k * (ymax - ymin - 2 * pad) / 4
        parts.append(f'<line x1="{px(tx):.2f}" y1="{top + plot_h}" x2="{px(tx):.2f}" '
                     f'y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{top + plot_h + 20}" font-size="12" '
                     f'text-anchor="middle">{tx:.4g}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{py(ty):.2f}" x2="{left}" '
                     f'y2="{py(ty):.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{py(ty) + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{ty:.4g}</text>')
    label = _AXIS_LABELS.get(column, column)
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 10}" font-size="14" '
                 f'text-anchor="middle">t</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 {top + plot_h / 2:.2f})">'
                 f'{_escape(label)}</text>')
    for idx, (ts, vals, name) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(t):.2f},{py(y):.2f}" for t, y in zip(ts, vals))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = top + 16 + idx * 18
        lx = left + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{_escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args):
    series = []
    for path in args.traces:
        try:
            ts, ys = _read_series(path, args.column)
        except (OSError, ValueError) as err:
            print(str(err), file=sys.stderr)
            return EXIT_USAGE
        series.append((ts, ys, os.path.basename(path)))
    svg = _svg_chart(series, args.column)
    if not _write_file(args.output, lambda f: f.write(svg)):
        return EXIT_USAGE
    _stdout(print, f"wrote {args.output}")
    return EXIT_OK


# the hyperparameter flags that `run` and `verify` share, with their dests
_HYPER_FLAGS = (("--alpha", "alpha"), ("--beta1", "beta1"), ("--beta2", "beta2"),
                ("--lambda", "lam"), ("--epsilon", "epsilon"))


def _add_hyper_flags(parser):
    for flag, dest in _HYPER_FLAGS:
        parser.add_argument(flag, dest=dest, type=float)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adamxlab",
        description="Projected adaptive-moment optimizers with regret accounting "
                    "and numeric verification of their guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or a batch) and emit a CSV trace")
    run.add_argument("--config", help="JSON config file: one object, or a list for batch mode")
    run.add_argument("--problem", choices=PROBLEMS)
    run.add_argument("--optimizer", choices=OPTIMIZERS)
    run.add_argument("--schedule", choices=SCHEDULES)
    _add_hyper_flags(run)
    run.add_argument("--steps", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--dim", type=int, help="dimension for the quadratic problem")
    run.add_argument("--output", dest="output_path", help="CSV path (stdout when omitted)")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run a verification suite, print a JSON report")
    verify.add_argument("suite", choices=SUITES)
    _add_hyper_flags(verify)
    verify.add_argument("--output", help="write the JSON report here instead of stdout")
    verify.set_defaults(func=cmd_verify)

    plot = sub.add_parser("plot", help="render trace CSVs as a static SVG line chart")
    plot.add_argument("traces", nargs="+", help="trace CSV files")
    plot.add_argument("--column", default="avg_regret",
                      help="which column to plot against t (default avg_regret)")
    plot.add_argument("--output", default="plot.svg")
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a numeric fault is reported by its own line; numpy's warnings from
        # the step that raised it would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.func(args)
    except NumericFault as err:
        print(f"numeric fault at step {err.step}: {err}", file=sys.stderr)
        code = EXIT_NUMERIC
    sys.exit(code)


if __name__ == "__main__":
    main()
