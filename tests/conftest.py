"""Shared fixtures: the run corpus, long-horizon runs, and the acceptance tally.

The corpus (synthetic plus 20 seeded quadratics, both decaying schedules,
both max-rule optimizers, T = 5000, full histories) is built once per
session because four different acceptance criteria consume it. Wall time
is tracked per optimizer so the runtime budgets can be asserted against
the share each criterion actually used.
"""

import os
import time
from pathlib import Path

import pytest

from adamxlab import (BoundContext, HyperParams, Schedule, quadratic_problem,
                      run_oco, synthetic_problem, toy_training_problem)

CORPUS_T = 5000
DECAY_T = 50500
DECAY_CHECKPOINTS = (1010, 10100, 50500)
TOY_STEPS = 2000

_ACCEPTANCE = {}


def _record(criterion, ok, detail):
    _ACCEPTANCE[criterion] = (bool(ok), detail)


@pytest.fixture
def record():
    return _record


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
    """Every (problem, schedule, optimizer) combination with full histories.

    Seeds 0-9 are 1-dimensional quadratics, 10-19 are 5-dimensional; the
    synthetic sign-flip problem rides along at the same horizon.
    """
    problems = [synthetic_problem()]
    problems += [quadratic_problem(seed, 1 if seed < 10 else 5) for seed in range(20)]
    runs = {}
    timings = {"amsgrad": 0.0, "adamx": 0.0}
    for schedule in (Schedule.EXP_DECAY, Schedule.INVERSE_T):
        h = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001,
                        schedule=schedule)
        for problem in problems:
            for optimizer in ("amsgrad", "adamx"):
                start = time.perf_counter()
                trace = run_oco(problem, optimizer, h, CORPUS_T, record_full=True)
                ctx = BoundContext.from_run(trace, problem, h)
                timings[optimizer] += time.perf_counter() - start
                runs[(problem.name, schedule, optimizer)] = (problem, h, trace, ctx)
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
