"""Problem construction, comparator oracles, and the regret loop."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from adamxlab import (FeasibleBox, HyperParams, NumericFault, ProblemInstance,
                      Schedule, UnsupportedProblem, average_regret,
                      quadratic_problem, run_oco, synthetic_problem,
                      toy_training_problem)
from adamxlab.harness import _grid_refine, comparator_oracle
from adamxlab.numerics import project_box

H_REF = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)


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
    # the grid oracle agrees without being told the answer
    assert abs(_grid_refine(p, 3)[0] - (-1.0)) <= 1e-6


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
    # then steps in descending and ascending order, past the comparator's horizon
    p = toy_training_problem(seed)
    for t in [*range(40, 0, -1), *range(1, 41)]:
        for x in points:
            assert p.cost(t, x) == ref.cost(t, x)
            np.testing.assert_array_equal(p.grad(t, x), ref.grad(t, x))
    for T in (25, 40, 1):
        np.testing.assert_array_equal(p.comparator_for(T), ref.comparator_for(T))
    for x in points:
        assert p.full_objective(x) == ref.full_objective(x)


def test_logistic_run_draws_each_minibatch_once(monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    T = 60
    p = toy_training_problem(seed=5)
    run_oco(p, "adamx", H_REF, T)
    # the dataset's generator, then one per step; the comparator and the
    # comparator losses reuse the steps' draws
    assert made == [(5,)] + [((5, t),) for t in range(1, T + 1)]


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

def test_unsupported_comparator_raises():
    # multi-dimensional, not separable, no closed form: nothing can solve it
    box = FeasibleBox.cube(-1.0, 1.0, 2)
    p = ProblemInstance(d=2, cost=lambda t, x: float(np.sum(x**2)),
                        grad=lambda t, x: 2.0 * x, box=box, g_inf=4.0,
                        name="opaque")
    with pytest.raises(UnsupportedProblem):
        run_oco(p, "amsgrad", H_REF, 5)


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
                           comparator=np.zeros(len(g)), name="constant")


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


def test_regret_is_cumsum_of_loss_gaps():
    p = quadratic_problem(9, 2)
    trace = run_oco(p, "adamx", H_REF, 200)
    gaps = trace.losses - trace.comparator_losses
    np.testing.assert_allclose(trace.cumulative_regret, np.cumsum(gaps),
                               rtol=1e-9, atol=0)


def test_run_is_deterministic():
    p = toy_training_problem(seed=2)
    a = run_oco(p, "adamx", H_REF, 100, record_full=True)
    b = run_oco(p, "adamx", H_REF, 100, record_full=True)
    np.testing.assert_array_equal(a.iterates, b.iterates)
    np.testing.assert_array_equal(a.cumulative_regret, b.cumulative_regret)
