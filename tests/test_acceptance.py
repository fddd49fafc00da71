"""The ten acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line that pytest prints in its terminal
summary, so a full run ends with a ten-line scoreboard. Shared corpora
come from conftest fixtures; the bounds and tolerances asserted here are
the contract the package promises to keep.
"""

import time

import numpy as np
import pytest

from adamxlab import (FeasibleBox, Schedule, project_box, reproduce_counterexample,
                      run_oco, synthetic_problem)
from adamxlab.cli import main as cli_main
from adamxlab.verify import bound_report, corpus_runs, example_hyperparams, lemma_reports
from conftest import DECAY_CHECKPOINTS, TOY_STEPS

X2 = 0.9968377223398316
X3 = 0.9970569034941291
DELTA2 = -0.0008753864342319062
# delta1 follows from x2 by its defining identity 4 - (1 + x2)^2
DELTA1 = 0.012639110640673135


def timed_replay():
    start = time.perf_counter()
    reproduce_counterexample()
    return time.perf_counter() - start


def test_criterion_1_counterexample_goldens(record):
    trace = run_oco(synthetic_problem(), "amsgrad", example_hyperparams(), 2,
                    record_iterates=True)
    rows = reproduce_counterexample()
    best = min(timed_replay() for _ in range(5))
    ok = (abs(trace.iterates[1, 0] - X2) <= 1e-15
          and abs(trace.iterates[2, 0] - X3) <= 1e-15
          and abs(rows[0][1] - DELTA1) <= 1e-15
          and abs(rows[1][1] - DELTA2) <= 1e-15
          and best < 1e-3)
    record(1, ok,
           f"x2, x3, delta2 reproduce their recorded decimals exactly and "
           f"delta1 = 4-(1+x2)^2 = {DELTA1}; replay {best * 1e3:.3f} ms; "
           f"a tenth-step-size delta1 variant stays a strict expected failure")
    assert abs(trace.iterates[1, 0] - X2) <= 1e-15
    assert abs(trace.iterates[2, 0] - X3) <= 1e-15
    assert abs(rows[0][1] - DELTA1) <= 1e-15
    assert abs(rows[1][1] - DELTA2) <= 1e-15
    assert best < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="0.001264811064067839 equals 4 - (1 + y)^2 for "
           "y = 1 - (0.001*101/sqrt(1020.1))/10, i.e. a first step taken "
           "with a tenth of the step size. It cannot hold at 1e-15 together "
           "with x2 = 0.9968377223398316, whose step-1 update gives "
           "4 - (1 + x2)^2 = 0.012639110640673135.")
def test_criterion_1_alternate_delta1_decimal():
    rows = reproduce_counterexample()
    assert abs(rows[0][1] - 0.001264811064067839) <= 1e-15


def test_criterion_2_sign_flip(record):
    rows = reproduce_counterexample()
    d1, d2 = rows[0][1], rows[1][1]
    record(2, d1 > 0 > d2, f"delta1 = {d1} > 0, delta2 = {d2} < 0")
    assert d1 > 0
    assert d2 < 0


def assert_bound_domination(record, corpus, criterion, optimizer):
    """Every corpus run of ``optimizer`` stays under its regret bound, and
    its runs took under 60 s."""
    reports = [bound_report(o, p, h, trace, ctx) for o, p, h, trace, ctx in corpus["runs"]
               if o == optimizer]
    dominated = sum(r.passed for r in reports)
    wall = corpus["timings"][optimizer]
    ok = dominated == len(reports) == 42 and wall < 60.0
    record(criterion, ok, f"{dominated}/{len(reports)} runs dominated (min bound/regret "
                          f"{min(r.slack for r in reports):.3g}), {wall:.1f} s")
    assert dominated == len(reports) == 42
    assert wall < 60.0


def test_criterion_3_amsgrad_bound_domination(record, corpus):
    assert_bound_domination(record, corpus, 3, "amsgrad")


def test_criterion_4_adamx_bound_domination(record, corpus):
    assert_bound_domination(record, corpus, 4, "adamx")


def test_criterion_5_average_regret_decays(record, decay_runs):
    details = []
    ok = True
    wall = 0.0
    for name in ("amsgrad", "adamx"):
        trace, seconds = decay_runs["runs"][name]
        wall += seconds
        steps = np.arange(1, trace.T + 1)
        avg = trace.cumulative_regret / steps
        values = [float(avg[T - 1]) for T in DECAY_CHECKPOINTS]
        decreasing = values[0] > values[1] > values[2]
        final_gap = abs(float(trace.final_x[0]) - (-1.0))
        ok = ok and decreasing and final_gap < 0.5
        details.append(f"{name}: R/T {values[0]:.3f} > {values[1]:.3f} > "
                       f"{values[2]:.3f}, dist to -1 = {final_gap:.3f}")
        assert decreasing
        assert final_gap < 0.5
    ok = ok and wall < 30.0
    record(5, ok, "; ".join(details) + f"; {wall:.1f} s")
    assert wall < 30.0


def test_decay_reference_values(decay_runs):
    # frozen reference numbers guard the long runs against silent drift
    expected = {
        "amsgrad": (6.583640699294626, 3.571992335479549, 1.7018793748446648),
        "adamx": (6.8449248891362835, 3.5981207544637135, 1.7071050586414986),
    }
    for name, values in expected.items():
        trace, _ = decay_runs["runs"][name]
        avg = trace.cumulative_regret / np.arange(1, trace.T + 1)
        for T, want in zip(DECAY_CHECKPOINTS, values):
            got = float(avg[T - 1])
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(float(trace.final_x[0]) - (-0.827939599592978)) <= 1e-12


def test_criterion_6_constant_schedule_equivalence(record):
    runs = corpus_runs([("quadratic", seed, (1, 2, 5)[seed % 3], 1000) for seed in range(10)],
                       (Schedule.CONSTANT,))
    identical = 0
    # runs come in (amsgrad, adamx) pairs, one pair per seed
    for (_, _, _, a), (_, _, _, b) in zip(runs, runs):
        same = all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in ("iterates", "m_history", "v_history", "vhat_history"))
        identical += same
        assert same
    record(6, identical == 10,
           f"{identical}/10 seeded problems bitwise identical over 1000 steps")


def test_criterion_7_lemma_suite(record, corpus):
    reports = [report for o, p, h, trace, ctx in corpus["runs"]
               for report in lemma_reports(o, p, h, trace, ctx)]
    failed = [r for r in reports if not r.passed]
    record(7, not failed and len(reports) == 378,
           f"{len(reports) - len(failed)}/{len(reports)} lemma checks passed (every "
           f"lemma_reports check on all {len(corpus['runs'])} corpus runs)")
    assert not failed, failed
    assert len(reports) == 378


def test_criterion_8_projection_properties(record, corpus, decay_runs, toy_runs):
    rng = np.random.default_rng(123)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        lower = rng.uniform(-3.0, -0.1, size=d)
        upper = rng.uniform(0.1, 3.0, size=d)
        box = FeasibleBox(lower, upper)
        x = rng.normal(scale=4.0, size=d)
        y = rng.normal(scale=4.0, size=d)
        w = rng.uniform(0.1, 10.0, size=d)
        px, py = project_box(x, box), project_box(y, box)
        # the projection is nonexpansive in every weighted norm because it
        # is a per-coordinate clip
        lhs = float(np.sum(w * (px - py) ** 2))
        rhs = float(np.sum(w * (x - y) ** 2))
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)
        assert np.array_equal(project_box(px, box), px)

    rows = 0
    traces = [(p.box, tr) for (o, p, h, tr, ctx) in corpus["runs"]]
    traces.append((decay_runs["problem"].box, decay_runs["runs"]["amsgrad"][0]))
    traces.append((decay_runs["problem"].box, decay_runs["runs"]["adamx"][0]))
    for name in ("amsgrad", "adamx"):
        traces.append((toy_runs["problem"].box, toy_runs["traces"][name]))
    for box, trace in traces:
        assert np.all(trace.iterates >= box.lower)
        assert np.all(trace.iterates <= box.upper)
        rows += trace.iterates.shape[0]
    record(8, True, f"1000 weighted nonexpansiveness and idempotence draws; "
                    f"{rows} recorded iterates all feasible")


def test_criterion_9_toy_training_similarity(record, toy_runs):
    problem = toy_runs["problem"]
    final = {name: problem.full_objective(trace.final_x)
             for name, trace in toy_runs["traces"].items()}
    gap = abs(final["amsgrad"] - final["adamx"]) / max(final.values())

    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        t = k + 1
        g = problem.grad(t, x)
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd[i] = (problem.cost(t, x + e) - problem.cost(t, x - e)) / 2e-6
        worst = max(worst, float(np.max(np.abs(g - fd))))

    ok = gap < 0.05 and worst <= 1e-5
    record(9, ok, f"final losses {final['amsgrad']:.6f} vs {final['adamx']:.6f} "
                  f"({TOY_STEPS} steps, relative gap {gap:.2%}); worst "
                  f"finite-difference error {worst:.2e}")
    assert gap < 0.05
    assert worst <= 1e-5


def test_criterion_10_deterministic_csv(record, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"problem": "logistic", "optimizer": "adamx", '
                   '"steps": 300, "seed": 1, "alpha": 0.1}')
    paths = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        with pytest.raises(SystemExit) as info:
            cli_main(["run", "--config", str(cfg), "--output", str(target)])
        assert info.value.code in (0, None)
        paths.append(target)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    record(10, identical,
           f"repeated run produced byte-identical CSV "
           f"({paths[0].stat().st_size} bytes)")
    assert identical
