"""Shared fixtures: the run corpus, long-horizon runs, and the acceptance tally.

The corpus (synthetic plus 20 seeded quadratics, both decaying schedules,
both max-rule optimizers, T = 5000, full histories) comes from
``verify.corpus_runs`` and is built once per session because four
acceptance criteria consume it. Wall time is tracked per optimizer, one
yielded run at a time, so the runtime budgets can be asserted against the
share each criterion actually used.
"""

import os
import time
from pathlib import Path

import pytest

from adamxlab import (BoundContext, HyperParams, Schedule, keyed, run_oco, synthetic_problem,
                      toy_training_problem)
from adamxlab.verify import corpus_runs

# synthetic, and quadratics seeds 0-9 at d = 1 and 10-19 at d = 5, all at T = 5000
CORPUS = (("synthetic", None, None, 5000),
          *(("quadratic", seed, 1 if seed < 10 else 5, 5000) for seed in range(20)))
DECAY_T = 50500
DECAY_CHECKPOINTS = (1010, 10100, 50500)
TOY_STEPS = 2000

_ACCEPTANCE = {}


def _record(criterion, ok, detail):
    _ACCEPTANCE[criterion] = (bool(ok), detail)


@pytest.fixture
def record():
    return _record


@pytest.fixture
def keyed_fills(monkeypatch):
    """The (first key, row count) of every keyed draw made from here on."""
    keyed.matches_numpy()  # the self-check's own keys, drawn once per process
    fills = []
    for name in ("uniform", "integers"):
        def fill(seed, ts, *args, draw=getattr(keyed, name)):
            fills.append((int(ts[0]), len(ts)))
            return draw(seed, ts, *args)
        monkeypatch.setattr(keyed, name, fill)
    return fills


def pytest_configure(config):
    # the interpreters some tests start import the package from this
    # checkout too, as the suite does through pyproject's pythonpath
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[key]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {key:>2}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def corpus():
    """(optimizer, problem, h, trace, ctx) for every corpus run, in
    ``corpus_runs`` order, and the seconds each optimizer's runs took."""
    runs = []
    timings = {"amsgrad": 0.0, "adamx": 0.0}
    start = time.perf_counter()
    for optimizer, problem, h, trace in corpus_runs(
            CORPUS, (Schedule.EXP_DECAY, Schedule.INVERSE_T)):
        runs.append((optimizer, problem, h, trace, BoundContext.from_run(trace, problem, h)))
        timings[optimizer] += time.perf_counter() - start
        start = time.perf_counter()
    return {"runs": runs, "timings": timings}


@pytest.fixture(scope="session")
def decay_runs():
    """Long-horizon synthetic runs for the average-regret decay criterion.

    alpha = 4 with beta1 = 0.5 makes the two max rules behave on the same
    scale: the AdamX rescale factor (1-beta1_t)^2/(1-beta1_{t-1})^2 stays
    near 1 once the schedule has decayed, so one step size pins both runs
    to the comparator well inside the horizon.
    """
    problem = synthetic_problem()
    h = HyperParams(alpha=4.0, beta1=0.5, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    out = {}
    for name in ("amsgrad", "adamx"):
        start = time.perf_counter()
        trace = run_oco(problem, name, h, DECAY_T, record_iterates=True)
        out[name] = (trace, time.perf_counter() - start)
    return {"problem": problem, "hyperparams": h, "runs": out}


@pytest.fixture(scope="session")
def toy_runs():
    """Paired logistic-regression runs, same seed, both max rules."""
    problem = toy_training_problem(seed=0)
    h = HyperParams(alpha=0.1, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    traces = {name: run_oco(problem, name, h, TOY_STEPS, record_iterates=True)
              for name in ("amsgrad", "adamx")}
    return {"problem": problem, "hyperparams": h, "traces": traces}
