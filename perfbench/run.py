"""adamxlab benchmark: one workload per invocation, timed end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {corpus,logistic,cli} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}] [--refs FILE] [--report FILE]

An invocation measures the start-up of fresh interpreters, then runs
untraced passes of the workload for at least S seconds (and at least
the workload's minimum pass count) and reports the end-to-end metrics. With ``--trace 1`` it
then runs pass 0 again with the layer wrappers of ``tracing.py`` on and
reports the per-layer metrics instead, next to the untraced table. Every
pass checks the program's outputs against refs.json; the last line of
standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

The program is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with code 2.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "adamxlab"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# setup_s: a fresh interpreter through `import adamxlab` and problem
# construction. The child reports its own import time (cli.import_s).
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
import adamxlab, adamxlab.cli
imported = time.perf_counter()
if not adamxlab.__file__.startswith(sys.argv[1]):
    sys.exit(f"adamxlab imported from {adamxlab.__file__}, not {sys.argv[1]}")
seed = int(sys.argv[2])
adamxlab.synthetic_problem()
adamxlab.quadratic_problem(seed, 5)
adamxlab.toy_training_problem(seed)
print(imported - start)
"""

# (name, unit) of every end-to-end metric; the cmd.* ones exist on cli only.
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s"), ("runs_per_s", "1/s"),
    ("run_p50_s", "s"), ("run_tail_s", "s"), ("peak_rss_mb", "MB"), ("failed_ratio", "ratio"),
    ("cmd.run_s", "s"), ("cmd.batch_s", "s"), ("cmd.plot_s", "s"), ("cmd.verify_s", "s"),
]

# (name, unit, trace key whose absence means the workload does not reach the layer)
PER_LAYER = [
    ("oracle.grad.calls", "count", "oracle.grad"), ("oracle.grad.busy_s", "s", "oracle.grad"),
    ("oracle.grad.us_per_call", "us", "oracle.grad"),
    ("oracle.cost.calls", "count", "oracle.cost"), ("oracle.cost.busy_s", "s", "oracle.cost"),
    ("oracle.cost.us_per_call", "us", "oracle.cost"),
    ("stepper.calls", "count", "stepper"), ("stepper.busy_s", "s", "stepper"),
    ("stepper.us_per_step", "us", "stepper"),
    ("run_loop.calls", "count", "run_loop"), ("run_loop.self_s", "s", "run_loop"),
    ("run_loop.history_mb", "MB", "run_loop"),
    ("comparator.calls", "count", "comparator"), ("comparator.busy_s", "s", "comparator"),
    ("bound.from_run_s", "s", "bound.from_run"), ("bound.find_t0_s", "s", "bound.find_t0"),
    ("bound.eval_s", "s", "bound.eval"),
    ("lemma.sum_s", "s", "lemma.sum"), ("lemma.vhat_bound_s", "s", "lemma.vhat_bound"),
    ("lemma.monotonicity_s", "s", "lemma.monotonicity"),
    ("lemma.telescoping_s", "s", "lemma.telescoping"),
    ("lemma.decomposition_s", "s", "lemma.decomposition"),
    ("lemma.closed_form_s", "s", "lemma.closed_form"),
    ("lemma.checks", "count", "lemma.checks"), ("lemma.failed", "count", "lemma.checks"),
    ("suite.counterexample_s", "s", "suite.counterexample"),
    ("suite.bounds_s", "s", "suite.bounds"), ("suite.lemmas_s", "s", "suite.lemmas"),
    ("serialize.csv_s", "s", "serialize.csv"), ("serialize.csv_bytes", "bytes", "serialize.csv"),
    ("serialize.svg_s", "s", "serialize.svg"), ("serialize.svg_bytes", "bytes", "serialize.svg"),
    ("serialize.json_s", "s", "serialize.json"),
    ("cli.import_s", "s", None), ("cli.batch_overlap", "ratio", "cli.batch_main"),
    ("trace_overhead_s", "s", None),
]

METRIC_NOTES = {
    "run_loop.history_mb": "computed from array shapes",
    "run_loop.self_s": "run_oco time minus oracle, stepper and comparator time",
    "cli.batch_overlap": "sum of run_oco spans over batch wall time",
    "trace_overhead_s": "traced pass wall minus untraced wall_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="adamxlab benchmark")
    parser.add_argument("--workload", required=True, choices=("corpus", "logistic", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--refs", default=str(HERE / "refs.json"),
                        help="reference digests (default: refs.json beside this file)")
    parser.add_argument("--report", help="also write every metric and failure here as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args):
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def measure_setup(seed, work, derive):
    """One warm-up interpreter (fills __pycache__), then SETUP_SAMPLES timed ones."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports, errors = [], [], []
    for k in range(SETUP_SAMPLES + 1):
        cmd = [sys.executable, "-c", SETUP_CHILD, str(PACKAGE), str(derive(seed, "setup", k))]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            errors.append(f"setup interpreter timed out after {SETUP_TIMEOUT_S} s")
            continue
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            errors.append(f"setup interpreter exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif k > 0:
            walls.append(wall)
            imports.append(float(proc.stdout.strip().splitlines()[-1]))
    return walls, imports, errors


def tail(samples, pct):
    """The ``pct`` percentile of ``samples`` (their maximum at 100)."""
    if pct >= 100:
        return max(samples)
    return statistics.quantiles(samples, n=100)[pct - 1]


def end_to_end(workload, tail_pct, setup_walls, walls, tally, rss_mb):
    busy = sum(walls)
    durations = [seconds for seconds, _ in tally.runs]
    values = {
        "setup_s": statistics.median(setup_walls) if setup_walls else None,
        "wall_s": statistics.median(walls),
        "steps_per_s": tally.steps / busy,
        "runs_per_s": sum(ok for _, ok in tally.runs) / busy,
        "run_p50_s": statistics.median(durations),
        "run_tail_s": tail(durations, tail_pct),
        "peak_rss_mb": rss_mb,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
    }
    if workload == "cli":
        for name in ("run", "batch", "plot", "verify"):
            values[f"cmd.{name}_s"] = statistics.median(tally.commands[name])
    beyond = sum(d > values["run_tail_s"] for d in durations)
    notes = {"run_tail_s": f"p{tail_pct} of {len(durations)} runs, {beyond} beyond it",
             "run_p50_s": f"{len(durations)} runs",
             "wall_s": f"median of {len(walls)} passes",
             "setup_s": f"median of {len(setup_walls)} fresh interpreters",
             "failed_ratio": f"{tally.failed}/{tally.attempted} checks"}
    return values, notes


def per_layer(trace, import_samples, overhead_s):
    calls, busy, counts = trace.calls, trace.busy, trace.counts

    def per_call(key):
        return 1e6 * busy[key] / calls[key]

    derived = {
        "oracle.grad.us_per_call": lambda: per_call("oracle.grad"),
        "oracle.cost.us_per_call": lambda: per_call("oracle.cost"),
        "stepper.us_per_step": lambda: per_call("stepper"),
        "run_loop.self_s": lambda: busy["run_loop"] - sum(
            busy[k] for k in ("oracle.grad", "oracle.cost", "stepper", "comparator")),
        "run_loop.history_mb": lambda: counts["run_loop.history_bytes"] / 2**20,
        "lemma.checks": lambda: counts["lemma.checks"],
        "lemma.failed": lambda: counts["lemma.failed"],
        "serialize.csv_bytes": lambda: counts["serialize.csv_bytes"],
        "serialize.svg_bytes": lambda: counts["serialize.svg_bytes"],
        "cli.import_s": lambda: statistics.median(import_samples) if import_samples else None,
        "cli.batch_overlap": lambda: busy["cli.batch_run_loop"] / busy["cli.batch_main"],
        "trace_overhead_s": lambda: overhead_s,
    }
    values = {}
    for name, _, key in PER_LAYER:
        present = key is None or calls.get(key) or counts.get(key)
        if not present:
            values[name] = None
        elif name in derived:
            values[name] = derived[name]()
        elif name.endswith(".calls"):
            values[name] = calls[key]
        else:
            values[name] = busy[key]
    return values


def _print_table(title, rows, values, notes):
    print(f"# {title}")
    for name, unit, *_ in rows:
        if name not in values:
            continue
        value = values[name]
        shown = "n/a (not exercised by this workload)" if value is None else f"{value!r} {unit}"
        note = notes.get(name) or METRIC_NOTES.get(name)
        print(f"  {name:<26} {shown}" + (f"  [{note}]" if note else ""))


def load_benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the program is missing: no package at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import adamxlab
    if not Path(adamxlab.__file__).resolve().is_relative_to(PACKAGE):
        print(f"error: adamxlab imported from {adamxlab.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Trace
    from workloads import WORKLOADS

    try:
        refs = json.loads(Path(args.refs).read_text())["digests"]
        e2e_names, layer_names = load_benchmark_names()
    except (OSError, ValueError, KeyError) as err:
        print(f"error: cannot read benchmark files: {err}", file=sys.stderr)
        return 2

    env = environment(args)
    print("# env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    sys.stdout.flush()

    size = workloads.SIZES[args.size]
    tally = workloads.Tally(refs=refs)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_walls, import_samples, setup_errors = measure_setup(args.seed, work, workloads.derive)
        for message in setup_errors:
            tally.check(False, message)

        if args.workload != "cli":
            # first calls into numpy/scipy pay lazy set-up that users pay once
            tiny = workloads.SIZES["tiny"]
            workloads.run_pass(args.workload, workloads.pass_seeds(args.workload, 0, 0, tiny),
                               tiny, workloads.Tally(refs=None), work)
        walls = []
        start = time.perf_counter()
        min_passes = WORKLOADS[args.workload].min_passes
        while len(walls) < min_passes or time.perf_counter() - start < args.seconds:
            seeds = workloads.pass_seeds(args.workload, args.seed, len(walls), size)
            t0 = time.perf_counter()
            workloads.run_pass(args.workload, seeds, size, tally, work)
            walls.append(time.perf_counter() - t0)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        e2e, notes = end_to_end(args.workload, WORKLOADS[args.workload].tail_pct,
                                setup_walls, walls, tally, rss_mb)
        durations = [seconds for seconds, _ in tally.runs]

        layers = None
        if args.trace:
            trace = Trace()
            seeds = workloads.pass_seeds(args.workload, args.seed, 0, size)
            t0 = time.perf_counter()
            workloads.run_pass(args.workload, seeds, size, tally, work, trace)
            traced_wall = time.perf_counter() - t0
            layers = per_layer(trace, import_samples, traced_wall - e2e["wall_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _print_table("end-to-end, untraced", END_TO_END, e2e, notes)
    if layers is not None:
        _print_table("per-layer, traced pass 0", PER_LAYER, layers, {})
    for message in tally.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)

    if args.report:
        Path(args.report).write_text(json.dumps({
            "env": env, "end_to_end": e2e, "notes": notes, "per_layer": layers,
            "pass_walls_s": walls, "run_durations_s": durations,
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures}, indent=2) + "\n")

    units = dict((name, unit) for name, unit, *_ in END_TO_END + PER_LAYER)
    chosen, source = (layer_names, layers) if args.trace else (e2e_names, e2e)
    metrics = {name: {"value": source[name], "unit": units[name]} for name in chosen}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    for name in missing:
        tally.check(False, f"metric {name} was not measured")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
