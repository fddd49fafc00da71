"""The three benchmark workloads and their correctness gates.

Each workload is a sequence of passes; a pass is one fixed unit of work
whose program seeds come from the workload seed and the pass index. The
same pass code runs untraced and traced: it reaches every layer through
module attributes (``harness.run_oco``, ``verify.check_*``), which
``tracing.traced`` swaps for timing wrappers.

* ``corpus``: the acceptance-corpus mix in process, one run after another.
* ``logistic``: paired amsgrad/adamx logistic-regression runs in process.
* ``cli``: four ``adamxlab`` commands, one subprocess at a time.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from adamxlab import harness, verify
from adamxlab.optimizers import HyperParams, Schedule
from tracing import traced

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Program seeds are drawn from this pool, for which refs.json holds the
# digests recorded at the commit that defined the benchmark.
POOL = 64
# The paired-loss gate (amsgrad and adamx within 5 % after 2000 steps)
# fails at the defining commit on these logistic seeds, all low-loss
# datasets (both final losses below 0.13, against 0.226 on seed 0, the
# seed the acceptance test uses). They are left out of the logistic pool
# so that every pass can pass; the gaps are kept here so the finding
# stays visible.
LOGISTIC_EXCLUDED = {1: 0.1496, 10: 0.0860, 43: 0.0746, 57: 0.0556}
LOGISTIC_POOL = [s for s in range(POOL) if s not in LOGISTIC_EXCLUDED]
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Size:
    corpus_T: int
    logistic_T: int
    logistic_seeds: int
    decay_steps: int
    batch_T: int


# The tiny size is for the self-tests. Its logistic runs keep 2000
# steps, because the paired-loss gate does not hold on shorter runs.
SIZES = {
    "full": Size(corpus_T=5000, logistic_T=2000, logistic_seeds=4,
                 decay_steps=50500, batch_T=5000),
    "tiny": Size(corpus_T=200, logistic_T=2000, logistic_seeds=1,
                 decay_steps=1010, batch_T=200),
}


def derive(seed, *labels, pool=range(POOL)):
    """A program seed from ``pool``, drawn from the workload seed."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return pool[int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") % len(pool)]


def run_digest(final_x, cumulative_regret):
    """SHA-256 of a run's final iterate and cumulative-regret bytes."""
    data = (np.ascontiguousarray(final_x, dtype="<f8").tobytes()
            + np.ascontiguousarray(cumulative_regret, dtype="<f8").tobytes())
    return hashlib.sha256(data).hexdigest()


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Tally:
    """What a set of passes did and which of its gates failed.

    ``refs`` maps run keys to reference digests; with ``refs`` None the
    digests are only collected (that is how refs.json is made).
    """

    refs: dict | None
    runs: list = field(default_factory=list)
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    commands: dict = field(default_factory=dict)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def digest(self, key, digest):
        self.digests[key] = digest
        if self.refs is None:
            return True
        expected = self.refs.get(key)
        if expected is None:
            return self.check(False, f"{key}: no reference digest")
        return self.check(digest == expected, f"{key}: digest differs from reference")

    def run(self, seconds, ok, steps):
        self.runs.append((seconds, ok))
        self.steps += steps


CORPUS_H = dict(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001)
LOGISTIC_H = HyperParams(alpha=0.1, beta1=0.9, beta2=0.999, lam=0.001,
                         schedule=Schedule.EXP_DECAY)


def _maybe_traced(trace):
    return contextlib.nullcontext() if trace is None else traced(trace)


def corpus_seeds(seed, index, size):
    return derive(seed, "corpus", index, "d1"), derive(seed, "corpus", index, "d5")


def corpus_pass(seeds, size, tally, work, trace=None):
    """Synthetic plus quadratics at d=1 and d=5, both decaying schedules,
    amsgrad and adamx, full histories; every run is followed by its
    bound and the O(T) lemma checks, and the d=1 and d=5 adamx runs also
    by the O(T^2) closed-form check. Every run builds its own problem, so
    each pays the quadratic centre generator, as a lone run would."""
    with _maybe_traced(trace):
        _corpus(seeds, size, tally)


def _corpus(seeds, size, tally):
    T = size.corpus_T
    specs = [("synthetic", None, 1), ("quadratic", seeds[0], 1), ("quadratic", seeds[1], 5)]
    for schedule in (Schedule.EXP_DECAY, Schedule.INVERSE_T):
        h = HyperParams(schedule=schedule, **CORPUS_H)
        seq = verify.beta1_sequence(h, T)
        for kind, seed, d in specs:
            for optimizer in ("amsgrad", "adamx"):
                start = time.perf_counter()
                problem = (harness.synthetic_problem() if kind == "synthetic"
                           else harness.quadratic_problem(seed, d))
                trace = harness.run_oco(problem, optimizer, h, T, record_full=True)
                ctx = verify.BoundContext.from_run(trace, problem, h)
                if optimizer == "amsgrad":
                    bound = verify.bound_amsgrad(ctx, schedule)
                    reports = [verify.check_vhat_bound(trace, problem.g_inf)]
                else:
                    bound = verify.bound_adamx(ctx, seq)
                    reports = [verify.check_vhat_bound(trace, problem.g_inf, beta1=h.beta1),
                               verify.check_adamx_scaled_monotonicity(trace, seq),
                               verify.check_telescoping_positivity(trace, seq)]
                    if kind == "quadratic":
                        reports.append(verify.check_adamx_vhat_closed_form(trace, seq))
                reports += [verify.check_regret_bound(trace, bound),
                            verify.check_sum_lemma(trace, ctx),
                            verify.check_decomposition(trace, h)]
                elapsed = time.perf_counter() - start
                key = f"{kind}:{seed}:{d}:{schedule.value}:{optimizer}:{T}"
                oks = [tally.check(r.passed, f"{key}: {r.check} failed") for r in reports]
                oks.append(tally.digest(key, run_digest(trace.final_x, trace.cumulative_regret)))
                tally.run(elapsed, all(oks), T)


def logistic_seeds(seed, index, size):
    return [derive(seed, "logistic", index, k, pool=LOGISTIC_POOL)
            for k in range(size.logistic_seeds)]


def logistic_pass(seeds, size, tally, work, trace=None):
    """Paired amsgrad/adamx runs per seed, each on a freshly built problem
    (so each pays its own L-BFGS-B comparator), scored by full_objective."""
    with _maybe_traced(trace):
        _logistic(seeds, size, tally)


def _logistic(seeds, size, tally):
    T = size.logistic_T
    for seed in seeds:
        finals = {}
        for optimizer in ("amsgrad", "adamx"):
            start = time.perf_counter()
            problem = harness.toy_training_problem(seed)
            trace = harness.run_oco(problem, optimizer, LOGISTIC_H, T, record_iterates=True)
            finals[optimizer] = problem.full_objective(trace.final_x)
            elapsed = time.perf_counter() - start
            key = f"logistic:{seed}:{optimizer}:{T}"
            ok = tally.digest(key, run_digest(trace.final_x, trace.cumulative_regret))
            tally.run(elapsed, ok, T)
        gap = abs(finals["amsgrad"] - finals["adamx"]) / max(finals.values())
        tally.check(gap < 0.05, f"logistic:{seed}: paired final losses differ by {gap:.2%}")


def cli_seeds(seed, index, size):
    return derive(seed, "cli", index, "a"), derive(seed, "cli", index, "b")


# The two batch entries reuse corpus run specs, so their CSVs are checked
# against the corpus reference digests.
BATCH_ENTRIES = (("amsgrad", "exp"), ("adamx", "inv"))


def _batch_digest(path):
    """Digest of a trace CSV's last iterate and regret column.

    The CSV floats are shortest round-trip decimals, so this equals the
    digest of the in-memory run."""
    text = Path(path).read_text().splitlines()
    header = text[0].split(",")
    rows = [line.split(",") for line in text[1:]]
    column = header.index("regret")
    regret = np.array([float(r[column]) for r in rows])
    x_cols = [i for i, name in enumerate(header) if name.startswith("x_")]
    final_x = np.array([float(rows[-1][i]) for i in x_cols])
    return run_digest(final_x, regret)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # the batch runs with the program's default pool size
    env.pop("ADAMXLAB_THREADS", None)
    return env


def cli_pass(seeds, size, tally, work, trace=None):
    """run, run --config (batch), plot and verify all, one process each.

    Traced, each command runs under ``cli_child.py``, which installs the
    layer wrappers and calls ``adamxlab.cli.main`` in its own fresh
    interpreter, so traced and untraced commands pay the same start-up.
    """
    work = Path(work)
    decay, svg, report = work / "decay.csv", work / "decay.svg", work / "verify.json"
    config = work / "batch.json"
    outputs = [work / f"batch_{i}.csv" for i in range(len(BATCH_ENTRIES))]
    entries = [{"problem": "quadratic", "dim": 5, "seed": seed, "steps": size.batch_T,
                "optimizer": optimizer, "schedule": schedule, "output_path": str(out)}
               for seed, (optimizer, schedule), out in zip(seeds, BATCH_ENTRIES, outputs)]
    config.write_text(json.dumps(entries))
    for path in [decay, svg, report] + outputs:
        path.unlink(missing_ok=True)

    commands = [
        ("run", ["run", "--problem", "synthetic", "--optimizer", "adamx", "--schedule", "exp",
                 "--alpha", "4", "--beta1", "0.5", "--steps", str(size.decay_steps),
                 "--output", str(decay)], size.decay_steps),
        ("batch", ["run", "--config", str(config)], size.batch_T * len(entries)),
        ("plot", ["plot", str(decay), "--output", str(svg)], 0),
        ("verify", ["verify", "all", "--output", str(report)], 0),
    ]
    env = _cli_env()
    for name, argv, steps in commands:
        child_out = work / f"trace_{name}.json"
        if trace is None:
            cmd = [sys.executable, "-m", "adamxlab"] + argv
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(child_out)] + argv
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr.strip()
        except subprocess.TimeoutExpired:
            code, stderr = None, f"timed out after {COMMAND_TIMEOUT_S} s"
        elapsed = time.perf_counter() - start
        tally.commands.setdefault(name, []).append(elapsed)
        oks = [tally.check(code == 0, f"cli {name}: exit code {code}: {stderr[-300:]}")]
        if code == 0:
            oks += _check_command(name, tally, size, decay, svg, report, outputs, entries)
        if trace is not None and child_out.exists():
            child = json.loads(child_out.read_text())
            trace.merge(child["trace"])
            if name == "batch":
                trace.add("cli.batch_main", child["main_s"])
                trace.add("cli.batch_run_loop", child["trace"]["busy"].get("run_loop", 0.0))
        tally.run(elapsed, all(oks), steps)
    if trace is not None:
        written = [p.stat().st_size for p in [decay] + outputs if p.exists()]
        trace.count("serialize.csv_bytes", sum(written))
        trace.count("serialize.svg_bytes", svg.stat().st_size if svg.exists() else 0)


def _check_command(name, tally, size, decay, svg, report, outputs, entries):
    if name == "run":
        if not tally.check(decay.exists(), "cli run: no CSV written"):
            return [False]
        return [tally.digest(f"csv:decay:{size.decay_steps}", file_digest(decay))]
    if name == "batch":
        oks = []
        for entry, out in zip(entries, outputs):
            if not tally.check(out.exists(), f"cli batch: {out.name} missing"):
                oks.append(False)
                continue
            key = (f"quadratic:{entry['seed']}:5:{entry['schedule']}:"
                   f"{entry['optimizer']}:{entry['steps']}")
            oks.append(tally.digest(key, _batch_digest(out)))
        return oks
    if name == "plot":
        ok = svg.exists() and svg.read_text().rstrip().endswith("</svg>")
        return [tally.check(ok, "cli plot: SVG missing or truncated")]
    try:
        status = json.loads(report.read_text()).get("status")
    except (OSError, ValueError) as err:
        status = f"unreadable report: {err}"
    return [tally.check(status == "pass", f"cli verify: status {status!r}")]


@dataclass(frozen=True)
class Workload:
    """``min_passes`` makes every run hold enough runs for a p``tail_pct``
    with at least ten runs beyond it; the percentile is fixed so that a
    faster commit, which fits more passes in the time, is scored at the
    same percentile. The cli workload has too few commands for that and
    reports the slowest one."""

    seeds: Callable
    body: Callable
    min_passes: int
    tail_pct: int


WORKLOADS = {
    "corpus": Workload(corpus_seeds, corpus_pass, min_passes=4, tail_pct=75),   # 12 runs a pass
    "logistic": Workload(logistic_seeds, logistic_pass, min_passes=5, tail_pct=75),  # 8 a pass
    "cli": Workload(cli_seeds, cli_pass, min_passes=2, tail_pct=100),   # 4 commands a pass
}


def pass_seeds(workload, seed, index, size):
    return WORKLOADS[workload].seeds(seed, index, size)


def run_pass(workload, seeds, size, tally, work, trace=None):
    WORKLOADS[workload].body(seeds, size, tally, work, trace)
