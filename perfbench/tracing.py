"""Per-layer timing of adamxlab from outside the program.

Nothing under ``src/`` is edited. A traced pass swaps module attributes
for timing wrappers around the layers' entry points and restores them
afterwards:

* oracle and comparator: ``run_oco`` receives a ``dataclasses.replace``
  copy of the problem whose ``cost``, ``grad`` and ``comparator_for``
  are wrapped;
* stepper: ``run_oco`` receives a wrapped step callable;
* run loop: the ``run_oco`` names that ``harness``, ``verify`` and ``cli``
  hold are replaced, so the CLI and the verification suites are traced
  too;
* bound and lemma layers: ``BoundContext.from_run``, ``find_t0``,
  ``bound_*`` and ``check_*`` as ``verify`` names them;
* verification suites: ``cli.run_suite("all")`` becomes the three public
  ``run_suite`` calls it is made of, each timed;
* serialization: the CSV writer, the SVG renderer and ``json.dumps`` as
  ``cli`` names them.

Counters are guarded by a lock because the CLI batch mode calls
``run_oco`` from a thread pool. A ``run_oco`` call outside the main
thread, and every wrapper inside it, is timed with ``time.thread_time``,
the CPU time of its own thread, so that waiting for the interpreter lock
is not counted as work; the main thread keeps ``time.perf_counter``.
"""

import contextlib
import dataclasses
import functools
import json
import threading
import time
from collections import defaultdict

LEMMA_CHECKS = {
    "check_sum_lemma": "lemma.sum",
    "check_vhat_bound": "lemma.vhat_bound",
    "check_adamx_scaled_monotonicity": "lemma.monotonicity",
    "check_telescoping_positivity": "lemma.telescoping",
    "check_decomposition": "lemma.decomposition",
    "check_adamx_vhat_closed_form": "lemma.closed_form",
}
BOUND_EVALS = ("bound_amsgrad", "bound_adamx", "check_regret_bound")
SUITE_PARTS = ("counterexample", "bounds", "lemmas")


def history_bytes(trace):
    """Bytes held by the arrays a RegretTrace records."""
    arrays = (trace.losses, trace.comparator_losses, trace.cumulative_regret,
              trace.gradient_history, trace.iterates, trace.m_history,
              trace.v_history, trace.vhat_history)
    return sum(a.nbytes for a in arrays if a is not None)


class Trace:
    """Call counts, busy seconds and plain counters, keyed by layer."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)

    def add(self, key, seconds, calls=1):
        with self._lock:
            self.calls[key] += calls
            self.busy[key] += seconds

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def merge(self, data):
        """Fold in a ``to_dict`` snapshot taken in another process."""
        for key, n in data["calls"].items():
            self.add(key, data["busy"][key], n)
        for key, n in data["counts"].items():
            self.count(key, n)

    def to_dict(self):
        with self._lock:
            return {"calls": dict(self.calls), "busy": dict(self.busy),
                    "counts": dict(self.counts)}

    def timed(self, key, fn, clock=time.perf_counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, clock() - start)
        return wrapper

    def checked(self, key, fn):
        """Time a lemma check and count the reports it returns."""
        timed = self.timed(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = timed(*args, **kwargs)
            self.count("lemma.checks")
            if not report.passed:
                self.count("lemma.failed")
            return report
        return wrapper

    def problem(self, problem, clock):
        comparator_for = problem.comparator_for
        return dataclasses.replace(
            problem,
            cost=self.timed("oracle.cost", problem.cost, clock),
            grad=self.timed("oracle.grad", problem.grad, clock),
            comparator_for=(None if comparator_for is None
                            else self.timed("comparator", comparator_for, clock)))

    def run_oco(self, run_oco, resolve_stepper):
        def traced_run_oco(problem, stepper, h, T, *args, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            clock = time.perf_counter if main else time.thread_time
            step = self.timed("stepper", resolve_stepper(stepper), clock)
            start = clock()
            trace = run_oco(self.problem(problem, clock), step, h, T, *args, **kwargs)
            self.add("run_loop", clock() - start)
            self.count("run_loop.history_bytes", history_bytes(trace))
            return trace
        return traced_run_oco

    def run_suite(self, run_suite):
        def traced_run_suite(selector, h=None):
            parts = SUITE_PARTS if selector == "all" else (selector,)
            reports = []
            for part in parts:
                reports += self.timed(f"suite.{part}", run_suite)(part, h=h)
            return reports
        return traced_run_suite


class _TimedJson:
    """Stands in for the ``json`` module with a timed ``dumps``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


@contextlib.contextmanager
def traced(trace):
    """Swap the layer entry points for timing wrappers while the block runs."""
    from adamxlab import cli, harness, optimizers, verify

    swaps = []

    def swap(owner, name, wrap):
        # a name a later version no longer has leaves its metrics unmeasured
        if name in vars(owner):
            swaps.append((owner, name, wrap(getattr(owner, name))))

    run = trace.run_oco(harness.run_oco, optimizers.resolve_stepper)
    for module in (harness, verify, cli):
        swap(module, "run_oco", lambda _: run)
    swap(verify, "find_t0", lambda f: trace.timed("bound.find_t0", f))
    swap(verify.BoundContext, "from_run",
         lambda f: classmethod(trace.timed("bound.from_run", f.__func__)))
    for name in BOUND_EVALS:
        swap(verify, name, lambda f: trace.timed("bound.eval", f))
    for name, key in LEMMA_CHECKS.items():
        swap(verify, name, lambda f, key=key: trace.checked(key, f))
    swap(cli, "run_suite", lambda _: trace.run_suite(verify.run_suite))
    swap(cli, "_write_trace_csv", lambda f: trace.timed("serialize.csv", f))
    swap(cli, "_svg_chart", lambda f: trace.timed("serialize.svg", f))
    swap(cli, "json", lambda module: _TimedJson(trace.timed("serialize.json", module.dumps)))

    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in swaps]
    try:
        for owner, name, new in swaps:
            setattr(owner, name, new)
        yield trace
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)
