"""Problem construction, comparator oracles, and the regret loop."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from adamxlab import (FeasibleBox, HyperParams, NumericFault, ProblemInstance,
                      Schedule, average_regret, quadratic_problem, run_oco,
                      synthetic_problem, keyed, toy_training_problem)
from adamxlab.harness import RegretTrace, comparator_oracle
from adamxlab.optimizers import SCALAR_MAX_DIM, STEPPERS
from adamxlab.numerics import project_box

H_REF = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)


def _grid_refine(problem, T, tol=1e-9, points=33):
    """Coordinatewise iterated grid search on the summed objective: an
    independent cross-check of the closed-form comparators, valid for
    one-dimensional or separable problems."""
    box = problem.box
    result = box.center()

    def total(x):
        return sum(problem.cost(t, x) for t in range(1, T + 1))

    for i in range(problem.d):
        lo, hi = float(box.lower[i]), float(box.upper[i])
        probe = result.copy()
        while hi - lo > tol:
            xs = np.linspace(lo, hi, points)
            best_k, best_val = 0, math.inf
            for k, val in enumerate(xs):
                probe[i] = val
                f = total(probe)
                if f < best_val:
                    best_k, best_val = k, f
            lo = xs[max(best_k - 1, 0)]
            hi = xs[min(best_k + 1, points - 1)]
        result[i] = 0.5 * (lo + hi)
    return project_box(result, box)


# ------------------------------------------------------- synthetic problem

def test_synthetic_gradient_pattern():
    p = synthetic_problem()
    x = np.array([0.3])
    # +1010 at t = 1, 102, 203, ...; -10 everywhere else
    assert p.grad(1, x)[0] == 1010.0
    assert p.grad(2, x)[0] == -10.0
    assert p.grad(101, x)[0] == -10.0
    assert p.grad(102, x)[0] == 1010.0
    assert p.cost(1, x) == 1010.0 * 0.3
    assert p.cost(5, x) == -10.0 * 0.3


def test_synthetic_comparator_is_minus_one():
    p = synthetic_problem()
    np.testing.assert_array_equal(comparator_oracle(p, 101), np.array([-1.0]))


@pytest.mark.parametrize("T", [3, 101, 102])
def test_synthetic_comparator_matches_grid_search(T):
    # the grid search agrees without being told the answer, on both sides
    # of the horizons where the large slope comes round again
    p = synthetic_problem()
    np.testing.assert_allclose(_grid_refine(p, T), comparator_oracle(p, T),
                               rtol=0, atol=1e-6)


def test_synthetic_reference_regret():
    # losses: 1010*1, -10*x2, -10*x3; comparator losses: -1010, 10, 10
    # R(3) = 2020 - (9.9683... + 10) - (9.9705... + 10) = 1980.0610...
    trace = run_oco(synthetic_problem(), "amsgrad", H_REF, 3)
    assert trace.losses[0] == 1010.0
    assert trace.losses[1] == -9.968377223398315
    assert trace.losses[2] == -9.970569034941292
    np.testing.assert_array_equal(trace.comparator_losses,
                                  np.array([-1010.0, 10.0, 10.0]))
    assert trace.cumulative_regret[-1] == 1980.0610537416603


def test_average_regret_divides_by_step_index():
    trace = run_oco(synthetic_problem(), "amsgrad", H_REF, 3)
    avg = average_regret(trace)
    assert avg[0] == 2020.0
    assert avg[1] == 1000.0158113883008
    assert avg[2] == 660.0203512472201


# ------------------------------------------------------ quadratic problems

def test_quadratic_comparator_is_clamped_prefix_mean():
    p = quadratic_problem(4, 2)
    centers = np.array([p.grad(t, np.zeros(2)) * -1.0 for t in range(1, 11)])
    # grad at 0 is 0 - c_t, so -grad recovers the centers; the best fixed
    # point of sum of 0.5||x-c_t||^2 is their mean (inside the box)
    mean = centers.mean(axis=0)
    np.testing.assert_allclose(comparator_oracle(p, 10), mean, rtol=0, atol=1e-12)


def test_quadratic_comparator_matches_grid_search():
    p = quadratic_problem(4, 2)
    xs = comparator_oracle(p, 10)
    grid = _grid_refine(p, 10, tol=1e-6)
    np.testing.assert_allclose(xs, grid, rtol=0, atol=1e-3)


def test_comparator_perturbation_optimality():
    # nudging the comparator by 1e-3 in any coordinate direction must not
    # lower the total loss by more than numerical noise
    p = quadratic_problem(7, 3)
    T = 25
    xs = comparator_oracle(p, T)

    def total(x):
        return sum(p.cost(t, x) for t in range(1, T + 1))

    base = total(xs)
    for i in range(3):
        for sign in (-1.0, 1.0):
            probe = xs.copy()
            probe[i] = min(max(probe[i] + sign * 1e-3, p.box.lower[i]),
                           p.box.upper[i])
            assert total(probe) >= base - 1e-6


def test_quadratic_fixed_center():
    center = np.array([0.25, -0.5])
    p = quadratic_problem(0, 2, fixed_center=center)
    for t in (1, 2, 17):
        np.testing.assert_array_equal(p.grad(t, np.zeros(2)), -center)
    np.testing.assert_allclose(comparator_oracle(p, 5), center, atol=1e-12)


def test_quadratic_zero_gradient_run():
    # starting exactly at a fixed center leaves every gradient at zero
    center = np.zeros(2)
    p = quadratic_problem(0, 2, fixed_center=center)
    trace = run_oco(p, "amsgrad", H_REF, 20, x1=center, record_full=True)
    assert np.all(trace.gradient_history == 0.0)
    assert np.all(trace.cumulative_regret == 0.0)
    np.testing.assert_array_equal(trace.final_x, center)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        quadratic_problem(0, 0)
    with pytest.raises(ValueError):
        quadratic_problem(0, 2, box=FeasibleBox.cube(-1.0, 1.0, 3))
    with pytest.raises(ValueError):
        quadratic_problem(0, 1, fixed_center=np.array([99.0]))


def test_quadratic_deterministic_in_seed():
    a = quadratic_problem(12, 3)
    b = quadratic_problem(12, 3)
    x = np.array([0.1, -0.2, 0.3])
    for t in (1, 5, 400):
        np.testing.assert_array_equal(a.grad(t, x), b.grad(t, x))
    c = quadratic_problem(13, 3)
    assert not np.array_equal(a.grad(1, x), c.grad(1, x))


class ReferenceQuadratic:
    """The quadratic problem with one (seed, t) generator per centre and the
    prefix sums added one centre at a time."""

    def __init__(self, seed, d):
        self.seed, self.d = seed, d
        self.box = FeasibleBox.cube(-1.0, 1.0, d)
        self.prefix = [np.zeros(d)]

    def center(self, t):
        r = np.random.default_rng((self.seed, t)).random(self.d)
        return self.box.lower + r * (self.box.upper - self.box.lower)

    def cost(self, t, x):
        diff = x - self.center(t)
        return float(0.5 * np.dot(diff, diff))

    def grad(self, t, x):
        return x - self.center(t)

    def comparator_for(self, T):
        while len(self.prefix) <= T:
            s = len(self.prefix)
            self.prefix.append(self.prefix[s - 1] + self.center(s))
        return project_box(self.prefix[T] / T, self.box)


BLOCK_EDGES = (1, 2, keyed.BLOCK - 1, keyed.BLOCK, keyed.BLOCK + 1, 5000)


@pytest.mark.parametrize("d", [1, 5])
def test_quadratic_matches_one_generator_per_centre(d):
    ref = ReferenceQuadratic(7, d)
    p = quadratic_problem(7, d)
    # cumsum prefix sums against the loop, across the block edge
    for T in (4095, 4096, 4097, 5000):
        np.testing.assert_array_equal(p.comparator_for(T), ref.comparator_for(T))
    # the longest horizon first on a fresh problem, then shorter ones
    p = quadratic_problem(7, d)
    for T in (5000, 4097, 4096, 1):
        np.testing.assert_array_equal(p.comparator_for(T), ref.comparator_for(T))
    x = np.linspace(-0.9, 0.7, d)
    for t in BLOCK_EDGES:
        assert p.cost(t, x) == ref.cost(t, x)
        np.testing.assert_array_equal(p.grad(t, x), ref.grad(t, x))


@pytest.mark.parametrize("make", [lambda: quadratic_problem(11, 3),
                                  lambda: toy_training_problem(11)],
                         ids=["quadratic", "logistic"])
def test_draws_do_not_depend_on_access_order(make):
    ts = range(1, 2 * keyed.BLOCK + 10)
    fresh = make()
    x = np.full(fresh.d, 0.3)
    expected = [None] + [fresh.grad(t, x) for t in ts]
    p = make()
    for t in [*reversed(ts), *ts]:
        assert np.array_equal(p.grad(t, x), expected[t]), t


def test_failed_self_check_keeps_every_value(monkeypatch):
    # a numpy whose stream the array path does not reproduce: every draw
    # comes from the scalar generator and every value stays the same
    monkeypatch.setattr(keyed, "matches_numpy", lambda: False)
    p, ref = quadratic_problem(7, 5), ReferenceQuadratic(7, 5)
    x = np.linspace(-0.9, 0.7, 5)
    for t in BLOCK_EDGES:
        assert p.cost(t, x) == ref.cost(t, x)
        np.testing.assert_array_equal(p.grad(t, x), ref.grad(t, x))
    np.testing.assert_array_equal(p.comparator_for(4097), ref.comparator_for(4097))
    p, ref = toy_training_problem(2), ReferenceLogistic(2)
    x = np.array([0.4, -1.2, 0.3])
    for t in (1, 2, 30, keyed.BLOCK - 1):
        assert p.cost(t, x) == ref.cost(t, x)
        np.testing.assert_array_equal(p.grad(t, x), ref.grad(t, x))
    np.testing.assert_array_equal(p.comparator_for(30), ref.comparator_for(30))


def test_gradient_bound_is_honest():
    for p in (synthetic_problem(), quadratic_problem(3, 5)):
        trace = run_oco(p, "amsgrad", H_REF, 500, record_full=True)
        assert np.max(np.abs(trace.gradient_history)) <= p.g_inf + 1e-12


def test_cost_convexity_on_seeded_triples():
    rng = np.random.default_rng(42)
    problems = [synthetic_problem(), quadratic_problem(1, 2),
                toy_training_problem(seed=1)]
    for p in problems:
        for _ in range(100):
            x = rng.uniform(p.box.lower, p.box.upper)
            y = rng.uniform(p.box.lower, p.box.upper)
            lam = rng.uniform()
            t = int(rng.integers(1, 50))
            mix = p.cost(t, lam * x + (1.0 - lam) * y)
            chord = lam * p.cost(t, x) + (1.0 - lam) * p.cost(t, y)
            assert mix <= chord + 1e-10


# ---------------------------------------------------------- toy training

def test_toy_loss_at_zero_weights():
    # sigmoid(0) = 1/2 for every sample, so the mean log-loss is ln 2
    p = toy_training_problem(seed=0)
    assert p.cost(1, np.zeros(3)) == 0.6931471805599453


def test_toy_gradient_matches_loss_direction():
    # moving one step against the gradient must not increase the batch loss
    p = toy_training_problem(seed=0)
    x = np.array([0.2, -0.1, 0.05])
    g = p.grad(3, x)
    assert p.cost(3, x - 1e-4 * g) < p.cost(3, x)


def test_toy_full_objective_scores_whole_dataset():
    p = toy_training_problem(seed=0)
    # sigmoid(0) = 1/2 for all 200 samples, so the dataset loss is ln 2
    assert p.full_objective(np.zeros(3)) == 0.6931471805599452
    # a short run must improve on the untrained weights
    h = HyperParams(alpha=0.1, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    trace = run_oco(p, "amsgrad", h, 200)
    assert p.full_objective(trace.final_x) < p.full_objective(np.zeros(3))


class ReferenceLogistic:
    """The logistic oracle drawn afresh on every call: a new (seed, t)
    generator per minibatch and one fused loss-and-gradient function."""

    def __init__(self, seed, n_points=200, batch_size=16):
        rng = np.random.default_rng(seed)
        half = n_points // 2
        self.xs = np.vstack([rng.normal(-1.0, 1.0, size=(half, 2)),
                             rng.normal(1.0, 1.0, size=(n_points - half, 2))])
        self.ys = np.concatenate([-np.ones(half), np.ones(n_points - half)])
        self.seed, self.n_points, self.batch_size = seed, n_points, batch_size

    def rows(self, t):
        return np.random.default_rng((self.seed, t)).integers(
            0, self.n_points, size=self.batch_size)

    @staticmethod
    def loss_grad(theta, xb, yb):
        margins = yb * (xb @ theta[:2] + theta[2])
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        coeff = -yb * expit(-margins)
        gw = coeff @ xb / len(yb)
        gb = float(np.mean(coeff))
        return loss, np.array([gw[0], gw[1], gb])

    def cost(self, t, x):
        idx = self.rows(t)
        return self.loss_grad(x, self.xs[idx], self.ys[idx])[0]

    def grad(self, t, x):
        idx = self.rows(t)
        return self.loss_grad(x, self.xs[idx], self.ys[idx])[1]

    def full_objective(self, theta):
        return self.loss_grad(theta, self.xs, self.ys)[0]

    def comparator_for(self, T):
        rows = np.concatenate([self.rows(t) for t in range(1, T + 1)])
        xb, yb = self.xs[rows], self.ys[rows]
        res = minimize(lambda theta: self.loss_grad(theta, xb, yb), np.zeros(3),
                       jac=True, method="L-BFGS-B", bounds=[(-10.0, 10.0)] * 3)
        return project_box(res.x, FeasibleBox.cube(-10.0, 10.0, 3))


@pytest.mark.parametrize("seed", range(4))
def test_memoized_logistic_oracle_matches_fresh_draws(seed):
    ref = ReferenceLogistic(seed)
    rng = np.random.default_rng(100 + seed)
    points = [rng.uniform(-3.0, 3.0, size=3) for _ in range(3)] + [np.zeros(3)]
    # the comparator first, before any minibatch has been drawn
    p = toy_training_problem(seed)
    np.testing.assert_array_equal(p.comparator_for(30), ref.comparator_for(30))
    # then steps in descending and ascending order, past the comparator's
    # horizon, a cost first at odd t and a gradient first at even t
    p = toy_training_problem(seed)
    for t in [*range(40, 0, -1), *range(1, 41)]:
        for x in points:
            if t % 2:
                assert p.cost(t, x) == ref.cost(t, x)
            np.testing.assert_array_equal(p.grad(t, x), ref.grad(t, x))
            assert p.cost(t, x) == ref.cost(t, x)
    for T in (25, 40, 1):
        np.testing.assert_array_equal(p.comparator_for(T), ref.comparator_for(T))
    for x in points:
        assert p.full_objective(x) == ref.full_objective(x)


def test_logistic_run_draws_each_minibatch_once(monkeypatch):
    keyed.matches_numpy()  # the self-check's own keys, drawn once per process
    made, fills = [], []
    default_rng, integers = np.random.default_rng, keyed.integers

    def counting_rng(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    def counting_fill(seed, ts, n, k):
        fills.append((int(ts[0]), len(ts)))
        return integers(seed, ts, n, k)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(keyed, "integers", counting_fill)
    T = 60
    p = toy_training_problem(seed=5)
    run_oco(p, "adamx", H_REF, T)
    # the dataset's generator and no per-step one: the steps, the comparator
    # and the comparator losses all read one block of minibatches, filled once
    assert made == [(5,)]
    assert fills == [(0, keyed.BLOCK)]


@pytest.mark.parametrize("seed", range(4))
def test_logistic_comparator_across_the_block_edge(seed):
    np.testing.assert_array_equal(toy_training_problem(seed).comparator_for(keyed.BLOCK + 1),
                                  ReferenceLogistic(seed).comparator_for(keyed.BLOCK + 1))


def test_toy_comparator_beats_grid_probes():
    p = toy_training_problem(seed=0)
    T = 40
    xs = comparator_oracle(p, T)

    def total(x):
        return sum(p.cost(t, x) for t in range(1, T + 1))

    base = total(xs)
    rng = np.random.default_rng(5)
    for _ in range(20):
        probe = rng.uniform(-2.0, 2.0, size=3)
        assert base <= total(probe) + 1e-9


# ------------------------------------------------------------- run_oco api

def test_problem_requires_costs_and_comparator():
    # a problem without its comparator losses or its comparator cannot be built
    parts = dict(d=2, cost=lambda t, x: float(np.sum(x**2)),
                 grad=lambda t, x: 2.0 * x, box=FeasibleBox.cube(-1.0, 1.0, 2),
                 g_inf=4.0, costs=lambda T, x: np.full(T, float(np.sum(x**2))),
                 comparator_for=lambda T: np.zeros(2))
    ProblemInstance(**parts)
    for missing in ("costs", "comparator_for"):
        with pytest.raises(TypeError, match=missing):
            ProblemInstance(**{k: v for k, v in parts.items() if k != missing})


def test_histories_gated_by_flags():
    p = synthetic_problem()
    lean = run_oco(p, "amsgrad", H_REF, 5)
    assert lean.iterates is None and lean.m_history is None
    only_x = run_oco(p, "amsgrad", H_REF, 5, record_iterates=True)
    assert only_x.iterates is not None and only_x.m_history is None
    assert only_x.iterates.shape == (6, 1)
    full = run_oco(p, "amsgrad", H_REF, 5, record_full=True)
    assert full.iterates.shape == (6, 1)
    assert full.m_history.shape == (5, 1)
    assert full.v_history.shape == (5, 1)
    assert full.vhat_history.shape == (5, 1)
    assert full.gradient_history.shape == (5, 1)


def test_run_rejects_bad_horizon_and_start():
    p = synthetic_problem()
    with pytest.raises(ValueError):
        run_oco(p, "amsgrad", H_REF, 0)
    with pytest.raises(ValueError):
        run_oco(p, "amsgrad", H_REF, 5, x1=np.array([2.0]))


def test_default_start_prefers_problem_start_point():
    p = synthetic_problem()
    trace = run_oco(p, "amsgrad", H_REF, 1, record_iterates=True)
    assert trace.iterates[0, 0] == 1.0
    # quadratics carry no start point, so the box center is used
    q = quadratic_problem(0, 2, box=FeasibleBox(lower=np.array([0.0, 0.0]),
                                                upper=np.array([2.0, 4.0])))
    qt = run_oco(q, "amsgrad", H_REF, 1, record_iterates=True)
    np.testing.assert_array_equal(qt.iterates[0], np.array([1.0, 2.0]))


def test_numeric_fault_carries_step():
    p = synthetic_problem()
    h = HyperParams(alpha=1e308, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    with np.errstate(over="ignore"), pytest.raises(NumericFault) as info:
        run_oco(p, "amsgrad", h, 5)
    assert info.value.step == 1


def constant_problem(g):
    box = FeasibleBox.cube(-1.0, 1.0, len(g))
    return ProblemInstance(d=len(g), cost=lambda t, x: 0.0,
                           grad=lambda t, x: np.array(g), box=box, g_inf=1.0,
                           costs=lambda T, x: np.zeros(T),
                           comparator_for=lambda T: np.zeros(len(g)), name="constant")


def hold(state, g, h, box):
    return state


def test_run_rejects_infinite_gradient():
    with pytest.raises(NumericFault, match="non-finite cost or gradient at step 1") as info:
        run_oco(constant_problem([0.5, np.inf]), hold, H_REF, 3)
    assert info.value.step == 1


def test_run_accepts_finite_gradient_whose_sum_overflows():
    # every coordinate is finite; only the fused sum overflows
    with np.errstate(over="ignore"):
        trace = run_oco(constant_problem([1e308, 1e308]), hold, H_REF, 3)
    np.testing.assert_array_equal(trace.gradient_history, np.full((3, 2), 1e308))


# ------------------------------------- the run kernel against the step loop

TRACE_FIELDS = [f.name for f in dataclasses.fields(RegretTrace)]


def run_outcome(problem, stepper, h, T, **kwargs):
    """Every field of the trace as bytes, or the type, message and step
    of what the run raised."""
    with np.errstate(all="ignore"):
        try:
            trace = run_oco(problem, stepper, h, T, **kwargs)
        except (ValueError, NumericFault) as exc:
            return type(exc), str(exc), getattr(exc, "step", None)
    return [(name, value.dtype, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else (name, value)
            for name, value in ((f, getattr(trace, f)) for f in TRACE_FIELDS)]


def run_both(problem, name, h, T, **kwargs):
    """The outcome of a named run, checked to be that of the step loop."""
    got = run_outcome(problem, name, h, T, **kwargs)
    assert got == run_outcome(problem, STEPPERS[name], h, T, **kwargs)
    return got


@st.composite
def run_cases(draw):
    """A problem on a box that clamps, a named stepper, hyperparameters and
    recording flags, at d = 1 to 17 (17 runs the step loop on both sides)."""
    d = draw(st.integers(1, SCALAR_MAX_DIM + 1))

    def vector(elements):
        return np.array(draw(st.lists(elements, min_size=d, max_size=d)), dtype=float)

    beta2 = draw(st.floats(0.5, 0.9999))
    h = HyperParams(
        alpha=draw(st.sampled_from([1e-3, 0.1, 3.0])),
        beta1=draw(st.floats(0.0, min(0.99, math.sqrt(beta2)))),
        beta2=beta2,
        lam=draw(st.floats(1e-3, 0.999)),
        schedule=draw(st.sampled_from(list(Schedule))),
        epsilon=draw(st.sampled_from([0.0, 1e-8, 1.0])))
    if d == 1 and draw(st.booleans()):
        problem = synthetic_problem()
    else:
        lower = vector(st.sampled_from([-1.0, -0.5, 0.0]))
        box = FeasibleBox(lower, lower + vector(st.sampled_from([0.0, 0.25, 1.0, 2.0])))
        problem = quadratic_problem(draw(st.integers(0, 50)), d, box=box)
    x1 = None
    if draw(st.booleans()):
        box = problem.box
        x1 = box.lower + vector(st.sampled_from([0.0, 0.3, 1.0])) * (box.upper - box.lower)
    kwargs = dict(x1=x1, record_full=draw(st.booleans()),
                  record_iterates=draw(st.sampled_from([None, False, True])))
    return problem, draw(st.sampled_from(sorted(STEPPERS))), h, draw(st.integers(1, 40)), kwargs


@settings(max_examples=150, deadline=None)
@given(run_cases())
def test_named_run_is_bitwise_the_step_loop(case):
    problem, name, h, T, kwargs = case
    got = run_both(problem, name, h, T, **kwargs)
    assert isinstance(got, list)


def oracle_problem(d, grad, cost=lambda t, x: 0.0):
    box = FeasibleBox.cube(-1.0, 1.0, d)
    return ProblemInstance(d=d, cost=cost, grad=grad, box=box, g_inf=1.0,
                           costs=lambda T, x: np.zeros(T),
                           comparator_for=lambda T: np.zeros(d), name="oracle")


def at_step(k, bad):
    """A gradient oracle, from d, that returns ``bad(d)`` at step k and
    0.5 in every coordinate at every other step."""
    return lambda d: lambda t, x: bad(d) if t == k else np.full(d, 0.5)


# each entry: (gradient oracle from d, cost oracle, the fault at d = 1, 5 and 17
# as (message, step), or None for a run that completes)
FAULTS = {
    "inf-gradient": (at_step(3, lambda d: np.r_[np.zeros(d - 1), np.inf]), None,
                     ("non-finite cost or gradient at step 3", 3)),
    "nan-gradient": (at_step(3, lambda d: np.r_[np.zeros(d - 1), np.nan]), None,
                     ("non-finite cost or gradient at step 3", 3)),
    "inf-cost": (at_step(0, None), lambda t, x: math.inf if t == 3 else 0.0,
                 ("non-finite cost or gradient at step 3", 3)),
    # g * g overflows inside the v recursion
    "overflowing-moment": (at_step(3, lambda d: np.r_[np.zeros(d - 1), 1e200]), None,
                           ("non-finite v at step 3", 3)),
    # v = 0.001 * (3e155)^2 = 9e307 is finite; only the fused sum overflows
    "overflowing-sum": (at_step(3, lambda d: np.full(d, 3e155)), None, None),
}


@pytest.mark.parametrize("name", sorted(STEPPERS))
@pytest.mark.parametrize("case", FAULTS.values(), ids=FAULTS.keys())
def test_named_run_faults_like_the_step_loop(case, name):
    grad, cost, fault = case
    for d in (1, 5, SCALAR_MAX_DIM + 1):
        problem = oracle_problem(d, grad(d), cost or (lambda t, x: 0.0))
        got = run_both(problem, name, H_REF, 6, record_full=True)
        if fault is None:
            assert isinstance(got, list)
        else:
            assert got == (NumericFault, *fault)


# each entry maps d to what a gradient oracle returns: off-shape, or not float64
ODD_GRADIENTS = {
    "python-float": lambda d: 0.5,
    "too-long": lambda d: np.ones(d + 1),
    "row-matrix": lambda d: np.ones((1, d)),
    "integers": lambda d: [1] * d,
    # the run's own check comes first: a fault, not a broadcast error
    "too-long-and-non-finite": lambda d: np.r_[np.ones(d), np.inf],
}


@pytest.mark.parametrize("g", ODD_GRADIENTS.values(), ids=ODD_GRADIENTS.keys())
def test_named_run_takes_odd_gradients_like_the_step_loop(g):
    for d in (1, 5):
        got = run_both(oracle_problem(d, lambda t, x: g(d)), "adamx", H_REF, 4,
                       record_full=True)
        assert isinstance(got, list) or got[0] in (ValueError, NumericFault)


# The corpus workload of perfbench runs these twelve specs per program seed
# and keys their digests in the same way.
BENCHMARK_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def test_corpus_runs_match_benchmark_digests():
    digests = json.loads(BENCHMARK_REFS.read_text())["digests"]
    T, seed = 5000, 0
    for schedule in (Schedule.EXP_DECAY, Schedule.INVERSE_T):
        h = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001, schedule=schedule)
        for kind, d in (("synthetic", 1), ("quadratic", 1), ("quadratic", 5)):
            for optimizer in ("amsgrad", "adamx"):
                problem = synthetic_problem() if kind == "synthetic" else quadratic_problem(seed, d)
                trace = run_oco(problem, optimizer, h, T, record_full=True)
                data = (np.ascontiguousarray(trace.final_x, dtype="<f8").tobytes()
                        + np.ascontiguousarray(trace.cumulative_regret, dtype="<f8").tobytes())
                key = (f"{kind}:{None if kind == 'synthetic' else seed}:{d}:"
                       f"{schedule.value}:{optimizer}:{T}")
                assert hashlib.sha256(data).hexdigest() == digests[key], key


def test_regret_is_cumsum_of_loss_gaps():
    p = quadratic_problem(9, 2)
    trace = run_oco(p, "adamx", H_REF, 200)
    gaps = trace.losses - trace.comparator_losses
    np.testing.assert_allclose(trace.cumulative_regret, np.cumsum(gaps),
                               rtol=1e-9, atol=0)


# ------------------------------------------------ comparator losses at once

def per_t_costs(p, T, x):
    return np.array([p.cost(t, x) for t in range(1, T + 1)])


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_synthetic_costs_match_per_t_loop():
    p = synthetic_problem()
    for x in (-1.0, -0.0, 0.3, 1.0):
        assert_bitwise(p.costs(5000, np.array([x])), per_t_costs(p, 5000, np.array([x])))


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_quadratic_costs_match_per_t_loop(d):
    p = quadratic_problem(17, d)
    x = np.random.default_rng(d).uniform(-1.0, 1.0, size=d)
    # horizons on both sides of the keyed table's block edge
    for T in (4095, keyed.BLOCK, 4097, 5000):
        assert_bitwise(p.costs(T, x), per_t_costs(p, T, x))


@pytest.mark.parametrize("seed", range(4))
def test_logistic_costs_match_per_t_loop(seed):
    p = toy_training_problem(seed)
    x = np.random.default_rng(seed).uniform(-3.0, 3.0, size=3)
    assert_bitwise(p.costs(2000, x), per_t_costs(p, 2000, x))


def test_run_is_deterministic():
    p = toy_training_problem(seed=2)
    a = run_oco(p, "adamx", H_REF, 100, record_full=True)
    b = run_oco(p, "adamx", H_REF, 100, record_full=True)
    np.testing.assert_array_equal(a.iterates, b.iterates)
    np.testing.assert_array_equal(a.cumulative_regret, b.cumulative_regret)
