"""Problem construction, comparator oracles, and the regret loop."""

import contextlib
import dataclasses
import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from adamxlab import (FeasibleBox, HyperParams, NumericFault, ProblemInstance,
                      Schedule, average_regret, quadratic_problem, run_oco,
                      synthetic_problem, keyed, toy_training_problem)
from adamxlab import cli, harness
from adamxlab.harness import RegretTrace, comparator_oracle
from adamxlab.optimizers import _BLOCK, RULES, SCALAR_MAX_DIM, STEPPERS, History, run_scalar
from adamxlab.numerics import project_box
from adamxlab.verify import corpus_runs

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


def test_quadratic_zero_gradient_run():
    # a run whose every gradient is zero never leaves its starting point
    center = np.zeros(2)
    p = dataclasses.replace(constant_problem([0.0, 0.0]), x1=center)
    trace = run_oco(p, "amsgrad", H_REF, 20, record_full=True)
    assert np.all(trace.gradient_history == 0.0)
    assert np.all(trace.cumulative_regret == 0.0)
    np.testing.assert_array_equal(trace.final_x, center)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        quadratic_problem(0, 0)
    with pytest.raises(ValueError):
        quadratic_problem(0, 2, box=FeasibleBox.cube(-1.0, 1.0, 3))


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


# steps on both sides of the logistic gradient's 256-row chunk edges and of
# the keyed table's 4096-row block edges
CHUNK_EDGES = sorted({t + k for t in (256, 512, keyed.BLOCK, 2 * keyed.BLOCK)
                      for k in (-1, 0, 1)} | {1, 2})


def float_bits(values):
    """The bits of a list of floats, so that -0.0 and 0.0 differ."""
    return [float.hex(v) for v in values]


def column_gradient(s, xs, c):
    """The gradient the run kernel computes from a column row c: x - c for
    s = 1, -c for s = 0, on Python floats."""
    return [x - ci for x, ci in zip(xs, c)] if s == 1.0 else [-ci for ci in c]


def assert_column_gradient_is_grad(p, xs, ts, column_first=False):
    """The kernel's gradient at each t in ``ts`` on a problem with a gradient
    column, bit for bit ``grad``'s: the column form on its row, read alone
    and from the whole run's column ``rows(1, max(ts) + 1)``, fetched before
    the single rows or after them."""
    s, rows = p.affine_grad
    column = rows(1, max(ts) + 1) if column_first else None
    got = [(t, column_gradient(s, xs, rows(t, t + 1)[0].tolist())) for t in ts]
    if column is None:
        column = rows(1, max(ts) + 1)
    got += [(t, column_gradient(s, xs, column[t - 1].tolist())) for t in ts]
    for t, g in got:
        expected = np.asarray(p.grad(t, np.array(xs)), np.float64).tolist()
        assert all(type(v) is float for v in g), t
        assert float_bits(g) == float_bits(expected), t


@st.composite
def column_gradient_cases(draw):
    """A synthetic or quadratic problem at d = 1 to 16, on a box with signed
    zero bounds, at a point with signed zero coordinates; and the chunk
    edges, which hold the keyed tables' 4096-row block edge, visited
    forwards, backwards or in random order, or every step from a t > 1
    through the first chunk edge, as a run that enters it mid-chunk. The
    whole column is fetched before or after the rows."""
    ts = draw(st.one_of(st.just(CHUNK_EDGES), st.just(CHUNK_EDGES[::-1]),
                        st.permutations(CHUNK_EDGES),
                        st.integers(2, 255).map(lambda s: list(range(s, 258)))))
    d = draw(st.integers(1, SCALAR_MAX_DIM))

    def vector(elements):
        return draw(st.lists(elements, min_size=d, max_size=d))

    if d == 1 and draw(st.booleans()):
        problem = synthetic_problem()
    else:
        lower = np.array(vector(st.sampled_from([-1.0, -0.5, 0.0, -0.0])))
        width = np.array(vector(st.sampled_from([0.0, 0.25, 1.0, 2.0])))
        box = FeasibleBox(lower, np.where(width == 0.0, lower, lower + width))
        problem = quadratic_problem(draw(st.integers(0, 50)), d, box=box)
    xs = vector(st.one_of(st.sampled_from([0.0, -0.0, 0.3, -0.7, 1.0]),
                          st.floats(-2.0, 2.0)))
    return problem, xs, ts, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(column_gradient_cases())
@example((synthetic_problem(), [-0.0], [*CHUNK_EDGES[::-1], 102, 101]))
def test_column_gradient_is_bitwise_grad(case):
    assert_column_gradient_is_grad(*case)


@pytest.mark.parametrize("d", range(1, SCALAR_MAX_DIM + 1))
def test_quadratic_column_gradient_in_any_order(d):
    # the column form x - c_t: a fresh problem per order, so its centres are
    # first drawn at either end, a row or the whole column at a time
    xs = [(-0.0, 0.0, 0.3, -0.7)[i % 4] for i in range(d)]
    order = np.random.default_rng(d).permutation(CHUNK_EDGES).tolist()
    for ts in (CHUNK_EDGES, CHUNK_EDGES[::-1], order):
        for column_first in (False, True):
            assert_column_gradient_is_grad(quadratic_problem(d, d), xs, ts,
                                                  column_first)


@pytest.mark.parametrize("seed", range(4))
def test_logistic_gradient_in_any_order(seed):
    # grad gathers the minibatch rows of a chunk of steps at a time; each
    # gradient is the reference's, bit for bit, whichever step fills its
    # chunk first, and also once costs and the comparator have drawn the
    # rows' blocks
    ref = ReferenceLogistic(seed)
    points = [np.array(x) for x in ([-0.0, 0.0, -0.0], [10.0, -10.0, 10.0], [0.4, -1.2, 0.3])]
    expected = {t: [ref.grad(t, x).tobytes() for x in points] for t in CHUNK_EDGES}
    order = np.random.default_rng(seed).permutation(CHUNK_EDGES).tolist()
    for ts in (CHUNK_EDGES, CHUNK_EDGES[::-1], order):
        for drawn in (False, True):
            p = toy_training_problem(seed)
            if drawn:
                p.comparator_for(keyed.BLOCK + 1)
                p.costs(max(CHUNK_EDGES), points[2])
            for t in ts:
                for x, want in zip(points, expected[t]):
                    g = p.grad(t, x)
                    assert g.dtype == np.float64 and g.tobytes() == want, (t, drawn)


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
    for T in (25, 40, 2000, 1):
        np.testing.assert_array_equal(p.comparator_for(T), ref.comparator_for(T))
    for x in points:
        assert p.full_objective(x) == ref.full_objective(x)


def test_logistic_run_draws_each_minibatch_once(monkeypatch, keyed_fills):
    made, default_rng = [], np.random.default_rng

    def counting_rng(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    for T in (60, 2000):
        made.clear(), keyed_fills.clear()
        p = toy_training_problem(seed=5)
        run_oco(p, "adamx", H_REF, T)
        # the dataset's generator and no per-step one: the steps, the
        # comparator and the comparator losses all read one block of
        # minibatches, filled once
        assert made == [(5,)]
        assert keyed_fills == [(0, keyed.BLOCK)]


@pytest.mark.parametrize("T, drawn", [(5000, [(1, 5000)]), (2000, [(0, keyed.BLOCK)])])
def test_quadratic_run_draws_its_centres_once(keyed_fills, T, drawn):
    # the kernel's column, the losses and the comparator read the same
    # rows: a run's T rows at once when they cross a block edge, the whole
    # first block otherwise
    for d in (1, 5):
        keyed_fills.clear()
        run_oco(quadratic_problem(0, d), "adamx", H_REF, T, record_full=True)
        assert keyed_fills == drawn


def test_quadratic_runs_at_growing_horizons_hold_one_row_per_key(keyed_fills):
    # the first run fills block 0, each longer one draws only its new
    # centres, and the table ends with one run of keys 0 .. 50000
    p = quadratic_problem(0, 1)
    for T in (1000, 5000, 20000, 50000):
        run_oco(p, "adamx", H_REF, T)
    assert keyed_fills == [(0, keyed.BLOCK), (keyed.BLOCK, 5001 - keyed.BLOCK),
                           (5001, 15000), (20001, 30000)]
    table = p.affine_grad[1].__self__
    assert [(lo, hi, len(rows)) for lo, hi, rows in table.runs] == [(0, 50001, 50001)]


@pytest.mark.parametrize("seed", range(4))
def test_logistic_comparator_across_the_block_edge(seed):
    np.testing.assert_array_equal(toy_training_problem(seed).comparator_for(keyed.BLOCK + 1),
                                  ReferenceLogistic(seed).comparator_for(keyed.BLOCK + 1))


PER_POINT_HORIZONS = (1, 30, 2000, keyed.BLOCK + 1)


def logistic_objective(problem, T):
    """The objective ``comparator_for(T)`` hands L-BFGS-B, caught on its way in."""
    caught = []

    def catch(fun, x0, **kwargs):
        caught.append(fun)
        return minimize(fun, x0, **kwargs)

    with mock.patch("scipy.optimize.minimize", catch):
        problem.comparator_for(T)
    return caught[0]


def per_point_thetas(seed):
    corners = [np.array(c) for c in np.ndindex(2, 2, 2)]
    zeros = [np.copysign(0.0, c - 0.5) for c in corners]
    rng = np.random.default_rng(seed)
    return ([20.0 * c - 10.0 for c in corners] + zeros
            + [rng.uniform(-10.0, 10.0, size=3) for _ in range(4)]
            + [rng.normal(0.0, 1e-3, size=3) for _ in range(2)])


@pytest.mark.parametrize("seed", range(8))
def test_per_point_comparator_path_is_bitwise_the_draws(seed):
    # the objective's loss and gradient and single-point costs take each of
    # the 200 points' terms once and gather them; every value equals the
    # reference formula on the T * 16 gathered rows, bit for bit
    ref = ReferenceLogistic(seed)
    rows = [ref.rows(t) for t in range(1, max(PER_POINT_HORIZONS) + 1)]
    thetas = per_point_thetas(seed)
    # corners, a signed zero and a random point for costs; f_t does not
    # depend on T, so each horizon reads a prefix of one reference column
    scored = [(theta, [ref.loss_grad(theta, ref.xs[r], ref.ys[r])[0] for r in rows])
              for theta in thetas[::7]]
    p = toy_training_problem(seed)
    for T in PER_POINT_HORIZONS:
        idx = np.concatenate(rows[:T])
        objective = logistic_objective(p, T)
        for theta in thetas:
            loss, grad = objective(theta)
            want_loss, want_grad = ref.loss_grad(theta, ref.xs[idx], ref.ys[idx])
            assert loss == want_loss
            np.testing.assert_array_equal(grad, want_grad)
        for theta, want in scored:
            np.testing.assert_array_equal(p.costs(T, theta), want[:T])


def test_comparator_evaluates_each_point_once_per_call(monkeypatch):
    # logaddexp and expit see the 200 points, never the T * 16 draws; the
    # problem binds expit at its first use, after the spy is in place
    import scipy.special
    sizes = {"expit": [], "logaddexp": []}
    real = {"expit": scipy.special.expit, "logaddexp": np.logaddexp}

    def spy(name):
        def call(*args):
            sizes[name].append(np.size(args[-1]))
            return real[name](*args)
        return call

    monkeypatch.setattr(scipy.special, "expit", spy("expit"))
    monkeypatch.setattr(np, "logaddexp", spy("logaddexp"))
    p = toy_training_problem(seed=3)
    x = p.comparator_for(2000)
    assert len(sizes["expit"]) > 1 and set(sizes["expit"]) == {200}
    assert sizes["logaddexp"] == sizes["expit"]
    sizes["logaddexp"].clear()
    p.costs(2000, x)
    assert sizes["logaddexp"] == [200]


@pytest.mark.parametrize("seed", range(8))
def test_logistic_comparator_is_optimal(seed):
    # the projected gradient of the mean loss over the first T minibatches,
    # from one per-point evaluation, vanishes at the solver's comparator
    T = 2000
    ref = ReferenceLogistic(seed)
    idx = np.concatenate([ref.rows(t) for t in range(1, T + 1)])
    x = toy_training_problem(seed).comparator_for(T)
    nm = -ref.ys * (ref.xs @ x[:2] + x[2])
    coeff = (-ref.ys * expit(nm))[idx]
    g = np.append(coeff @ ref.xs[idx], coeff.sum()) / len(idx)
    assert np.max(np.abs(x - np.clip(x - g, -10.0, 10.0))) <= 1e-5


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
    # a problem without its comparator losses or its comparator cannot be
    # built; the gradient column is optional and checked when present
    parts = dict(d=2, cost=lambda t, x: float(np.sum(x**2)),
                 grad=lambda t, x: 2.0 * x, box=FeasibleBox.cube(-1.0, 1.0, 2),
                 g_inf=4.0, costs=lambda T, x: np.full(T, float(np.sum(x**2))),
                 comparator_for=lambda T: np.zeros(2))
    ProblemInstance(**parts)
    for missing in ("costs", "comparator_for"):
        with pytest.raises(TypeError, match=missing):
            ProblemInstance(**{k: v for k, v in parts.items() if k != missing})
    column = (1.0, lambda start, stop: np.zeros((stop - start, 2)))
    ProblemInstance(**parts, affine_grad=column)
    dataclasses.replace(synthetic_problem(), affine_grad=None)
    # the run kernel has a form for unit and for zero curvature only
    for bad in ((0.5, column[1]), (-1.0, column[1]), (1.0, None)):
        with pytest.raises(ValueError, match="affine_grad must be"):
            ProblemInstance(**parts, affine_grad=bad)


def test_a_problem_that_brings_only_grad_takes_the_run_kernel():
    # no gradient column: a named run at d <= 16 calls the problem's grad,
    # here one that depends on x, in the run kernel, bitwise the step loop
    for d in (1, 5, SCALAR_MAX_DIM):
        centre = np.linspace(-0.5, 0.5, d)
        problem = oracle_problem(d, lambda t, x: 2.0 * (x - centre / t),
                                 lambda t, x: float(np.sum((x - centre / t) ** 2)))
        assert problem.affine_grad is None
        for name in sorted(STEPPERS):
            assert isinstance(run_both(problem, name, H_REF, _BLOCK + 3, record_full=True),
                              list)


def test_histories_gated_by_flags():
    # a run always keeps its iterates, but its trace shows them only on
    # request: the kernel, the step loop, and a named run too wide for the
    # kernel
    def moments(trace):
        return [trace.m_history, trace.v_history, trace.vhat_history]

    for p, stepper in ((synthetic_problem(), "amsgrad"),
                       (synthetic_problem(), STEPPERS["amsgrad"]),
                       (quadratic_problem(3, SCALAR_MAX_DIM + 1), "amsgrad")):
        d = p.d
        lean = run_oco(p, stepper, H_REF, 5)
        assert lean.iterates is None and moments(lean) == [None] * 3
        only_x = run_oco(p, stepper, H_REF, 5, record_iterates=True)
        assert only_x.iterates.shape == (6, d) and moments(only_x) == [None] * 3
        no_x = run_oco(p, stepper, H_REF, 5, record_full=True, record_iterates=False)
        assert no_x.iterates is None and [m.shape for m in moments(no_x)] == [(5, d)] * 3
        full = run_oco(p, stepper, H_REF, 5, record_full=True)
        assert full.iterates.shape == (6, d)
        assert [m.shape for m in moments(full)] == [(5, d)] * 3
        assert full.gradient_history.shape == (5, d) and full.losses.shape == (5,)


def test_run_rejects_bad_horizon_and_start():
    p = synthetic_problem()
    with pytest.raises(ValueError):
        run_oco(p, "amsgrad", H_REF, 0)
    with pytest.raises(ValueError):
        run_oco(dataclasses.replace(p, x1=np.array([2.0])), "amsgrad", H_REF, 5)


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

    def grad(t, x):
        return np.array(g)

    return ProblemInstance(d=len(g), cost=lambda t, x: 0.0,
                           grad=grad, box=box, g_inf=1.0,
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


@contextlib.contextmanager
def kernel_runs():
    """The dimensions of the runs that ``run_oco`` hands to the run kernel."""
    calls = []

    def counting(rule, problem, *rest):
        calls.append(problem.d)
        return run_scalar(rule, problem, *rest)

    with mock.patch.object(harness, "run_scalar", counting):
        yield calls


def run_both(problem, name, h, T, **kwargs):
    """The outcome of a named run, checked to be that of the step loop and
    to have entered the run kernel exactly when the problem has at most
    SCALAR_MAX_DIM coordinates, so that a run at d <= 16 cannot compare the
    step loop with itself."""
    with kernel_runs() as calls:
        got = run_outcome(problem, name, h, T, **kwargs)
    assert calls == ([problem.d] if problem.d <= SCALAR_MAX_DIM else [])
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
    if draw(st.booleans()):
        box = problem.box
        x1 = box.lower + vector(st.sampled_from([0.0, 0.3, 1.0])) * (box.upper - box.lower)
        problem = dataclasses.replace(problem, x1=x1)
    kwargs = dict(record_full=draw(st.booleans()),
                  record_iterates=draw(st.sampled_from([None, False, True])))
    # short runs, or runs whose histories are stored across one or two block edges
    T = draw(st.one_of(st.integers(1, 40), st.integers(_BLOCK - 1, 2 * _BLOCK + 1)))
    return problem, draw(st.sampled_from(sorted(STEPPERS))), h, T, kwargs


@settings(max_examples=150, deadline=None)
@given(run_cases())
def test_named_run_is_bitwise_the_step_loop(case):
    problem, name, h, T, kwargs = case
    got = run_both(problem, name, h, T, **kwargs)
    assert isinstance(got, list)


def column_twin(problem):
    """``problem``, whose gradient must not depend on x, with the run kernel
    reading it as -c_t from the column c_t = -grad(t, x) in place of
    calling ``grad``."""
    d = problem.d

    def rows(start, stop):
        grads = [problem.grad(t, None) for t in range(start, stop)]
        return -np.array(grads, dtype=float).reshape(stop - start, d)

    return dataclasses.replace(problem, affine_grad=(0.0, rows))


@pytest.mark.parametrize("d", range(1, SCALAR_MAX_DIM + 1))
def test_every_generated_kernel_is_bitwise_the_step_loop(d):
    # the property draws d, so it may miss one of the generated kernels; on
    # a box that clamps, every gradient form, every rule and both settings
    # of full, over a block edge: the quadratic's x - c_t, -c_t on its centres
    # and a call of grad
    box = FeasibleBox(np.full(d, -0.25), np.linspace(-0.2, 0.5, d))
    quadratic = quadratic_problem(d, d, box=box)
    linear = dataclasses.replace(
        oracle_problem(d, lambda t, x: quadratic.grad(t, np.zeros(d))), box=box)
    oracle = dataclasses.replace(quadratic, affine_grad=None)
    for problem in (quadratic, column_twin(linear), oracle):
        for name in sorted(STEPPERS):
            for full in (False, True):
                assert isinstance(
                    run_both(problem, name, H_REF, _BLOCK + 3, record_full=full), list)


def oracle_problem(d, grad, cost=lambda t, x: 0.0):
    box = FeasibleBox.cube(-1.0, 1.0, d)

    # bitwise cost per t, as every problem's costs must be
    def costs(T, x):
        xs = np.broadcast_to(x, (T, d))
        return np.array([cost(t, xs[t - 1]) for t in range(1, T + 1)], dtype=float)

    return ProblemInstance(d=d, cost=cost, grad=grad, box=box, g_inf=1.0, costs=costs,
                           comparator_for=lambda T: np.zeros(d), name="oracle")


def at_step(k, bad):
    """A gradient oracle, from d, that returns ``bad(d)`` at step k and
    0.5 in every coordinate at every other step."""
    return lambda d: lambda t, x: bad(d) if t == k else np.full(d, 0.5)


def cost_inf_at(k):
    """A cost oracle that is infinite at step k and 0.0 at every other step."""
    return lambda t, x: math.inf if t == k else 0.0


LATE = _BLOCK + 3

# each entry: (gradient oracle from d, cost oracle, horizon, the fault at d = 1,
# 5 and 17 as (message, step), or None for a run that completes)
FAULTS = {
    "inf-gradient": (at_step(3, lambda d: np.r_[np.zeros(d - 1), np.inf]), None, 6,
                     ("non-finite cost or gradient at step 3", 3)),
    "nan-gradient": (at_step(3, lambda d: np.r_[np.zeros(d - 1), np.nan]), None, 6,
                     ("non-finite cost or gradient at step 3", 3)),
    "inf-cost": (at_step(0, None), cost_inf_at(3), 6,
                 ("non-finite cost or gradient at step 3", 3)),
    # g * g overflows inside the v recursion
    "overflowing-moment": (at_step(3, lambda d: np.r_[np.zeros(d - 1), 1e200]), None, 6,
                           ("non-finite v at step 3", 3)),
    # v = 0.001 * (3e155)^2 = 9e307 is finite; only the fused sum overflows
    "overflowing-sum": (at_step(3, lambda d: np.full(d, 3e155)), None, 6, None),
    # the step loop meets the loss of step 2, at the first iterate that left
    # x_1 = 0, before the gradient of step 4
    "inf-cost-before-inf-gradient": (at_step(4, lambda d: np.r_[np.zeros(d - 1), np.inf]),
                                     lambda t, x: 0.0 if x[0] == 0.0 else math.inf, 6,
                                     ("non-finite cost or gradient at step 2", 2)),
    # and the loss of a step before its moments
    "inf-cost-and-overflowing-moment": (at_step(3, lambda d: np.r_[np.zeros(d - 1), 1e200]),
                                        cost_inf_at(3), 6,
                                        ("non-finite cost or gradient at step 3", 3)),
    # past a block edge: the losses are scored after the run, over the rows
    # of a full and a partial block
    "late-inf-cost": (at_step(0, None), cost_inf_at(LATE), _BLOCK + 10,
                      (f"non-finite cost or gradient at step {LATE}", LATE)),
    "late-overflowing-moment": (at_step(LATE, lambda d: np.r_[np.zeros(d - 1), 1e200]),
                                None, _BLOCK + 10, (f"non-finite v at step {LATE}", LATE)),
    "inf-cost-a-block-before-overflowing-moment": (
        at_step(LATE, lambda d: np.r_[np.zeros(d - 1), 1e200]), cost_inf_at(3), _BLOCK + 10,
        ("non-finite cost or gradient at step 3", 3)),
    # every loss is finite; only their sum overflows
    "overflowing-loss-sum": (at_step(0, None), lambda t, x: 1e308, 6, None),
}


@pytest.mark.parametrize("name", sorted(STEPPERS))
@pytest.mark.parametrize("case", FAULTS.values(), ids=FAULTS.keys())
def test_named_run_faults_like_the_step_loop(case, name):
    # through grad and through the column form -c_t
    grad, cost, T, fault = case
    for d in (1, 5, SCALAR_MAX_DIM + 1):
        problem = oracle_problem(d, grad(d), cost or (lambda t, x: 0.0))
        for p in (problem, column_twin(problem)):
            got = run_both(p, name, H_REF, T, record_full=True)
            if fault is None:
                assert isinstance(got, list)
            else:
                assert got == (NumericFault, *fault)


@pytest.mark.parametrize("k", [3, LATE])
def test_named_run_scores_no_loss_where_the_gradient_raised(k):
    # the step loop calls cost after grad, so a gradient that cannot be read
    # at step k hides the infinite loss of step k
    for d in (1, 5):
        problem = oracle_problem(d, at_step(k, lambda d: "not a number")(d), cost_inf_at(k))
        got = run_both(problem, "adamx", H_REF, _BLOCK + 10)
        assert got[:2] == (ValueError, "could not convert string to float: 'not a number'")


@pytest.mark.parametrize("shape", [(_BLOCK + 9, 2), (_BLOCK + 10, 3), (_BLOCK + 10,)],
                         ids=["short", "wide", "flat"])
def test_run_kernel_rejects_a_column_of_the_wrong_shape(shape):
    # checked once, before the first step
    T, d = _BLOCK + 10, 2
    problem = dataclasses.replace(oracle_problem(d, lambda t, x: np.full(d, 0.5)),
                                  affine_grad=(1.0, lambda start, stop: np.zeros(shape)))
    got = run_outcome(problem, "adamx", H_REF, T)
    assert got == (ValueError, f"affine_grad rows(1, {T + 1}) returned shape {shape}, "
                               f"expected ({T}, {d})", None)


@pytest.mark.parametrize("k", [4, LATE])
def test_run_kernel_hands_back_a_run_it_cannot_finish(k):
    # an infinite gradient at step k: the kernel stops there and returns
    # False for the step loop to run the run again, and scores no loss
    d, T = 2, _BLOCK + 10
    p = oracle_problem(d, at_step(k, lambda d: np.r_[np.zeros(d - 1), np.inf])(d))
    scored = []
    p = dataclasses.replace(p, costs=lambda T, x: scored.append(T))
    hist = History(T, np.zeros(d), False)
    hist.losses[:] = np.nan
    assert run_scalar(RULES["adamx"], p, H_REF, hist) is False
    assert scored == [] and np.isnan(hist.losses).all()


def test_a_handed_back_run_calls_grad_again_in_the_step_loop():
    # a NaN gradient at step 3: the kernel calls grad up to it and hands the
    # run back, and the step loop calls grad again from step 1 up to its
    # fault; the column form calls grad only in the step loop
    grad, _, T, fault = FAULTS["nan-gradient"]
    problem = oracle_problem(2, grad(2))
    for p, expected in ((problem, [1, 2, 3, False, 1, 2, 3]),
                        (column_twin(problem), [False, 1, 2, 3])):
        # the steps grad is called at, and what the kernel returned
        log = []

        def counted(t, x, grad=p.grad):
            log.append(t)
            return grad(t, x)

        def kernel(*args):
            log.append(run_scalar(*args))
            return log[-1]

        with mock.patch.object(harness, "run_scalar", kernel):
            got = run_outcome(dataclasses.replace(p, grad=counted), "adamx", H_REF, T)
        assert got == (NumericFault, *fault)
        assert log == expected


# each entry maps d to what a problem's grad returns: off-shape, or not
# float64. Both routes read it as float64 and take a result not shaped (d,)
# by the step loop's rules, in its order.
ODD_GRADIENTS = {
    "python-float": lambda d: 0.5,
    "too-short": lambda d: np.ones(d - 1),
    "too-long": lambda d: np.ones(d + 1),
    "row-matrix": lambda d: np.ones((1, d)),
    "integers": lambda d: [1] * d,
    "float32": lambda d: np.full(d, 0.1, dtype=np.float32),
    # the run's own check comes first: a fault, not a dimension mismatch
    "too-long-and-non-finite": lambda d: np.r_[np.ones(d), np.inf],
}


@pytest.mark.parametrize("odd", sorted(ODD_GRADIENTS))
def test_named_run_takes_odd_gradients_like_the_step_loop(odd):
    # at every step, and at one step at the start and past a block edge
    g = ODD_GRADIENTS[odd]
    for d in (1, 5):
        for grad, T in ((lambda t, x: g(d), 4), (at_step(1, g)(d), _BLOCK + 10),
                        (at_step(LATE, g)(d), _BLOCK + 10)):
            got = run_both(oracle_problem(d, grad), "adamx", H_REF, T, record_full=True)
            assert isinstance(got, list) or got[0] in (ValueError, NumericFault)
            if odd in ("too-short", "too-long"):
                assert got[0] is ValueError


@pytest.mark.parametrize("k", [1, LATE])
@pytest.mark.parametrize("extra", [-1, 1], ids=["too-short", "too-long"])
def test_run_kernel_rejects_a_grad_of_the_wrong_length(extra, k):
    # a grad that returns a list of floats, one too few or too many at step k
    for d in (1, 3):
        n = d + extra

        def grad(t, x):
            return [0.5] * (n if t == k else d)

        got = run_both(oracle_problem(d, grad), "adamx", H_REF, _BLOCK + 10)
        assert got[0] is ValueError and got[2] is None
        # a non-finite loss at that step comes first, as in the step loop
        got = run_both(oracle_problem(d, grad, cost_inf_at(k)), "adamx", H_REF, _BLOCK + 10)
        assert got == (NumericFault, f"non-finite cost or gradient at step {k}", k)


@pytest.mark.parametrize("k", [1, 3, LATE])
@pytest.mark.parametrize("odd", sorted(ODD_GRADIENTS))
def test_named_run_checks_the_loss_before_an_odd_gradient(odd, k):
    # the step loop checks the loss of step k before its step coerces the
    # gradient of step k, so an off-shape gradient there hides behind the fault
    for d in (1, 5):
        problem = oracle_problem(d, at_step(k, ODD_GRADIENTS[odd])(d), cost_inf_at(k))
        got = run_both(problem, "adamx", H_REF, _BLOCK + 10)
        assert got == (NumericFault, f"non-finite cost or gradient at step {k}", k)


# Gradient entries at the edges of float arithmetic: signed zeros, the
# smallest subnormals, squares that underflow (1e-170) or overflow (1e200), a
# finite v whose fused finiteness sum overflows (3e155), and non-finite ones.
EDGE_G = [0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170, 1e200, 3e155, math.inf, math.nan]


def edge_case(lower, upper, x1, grads, h=H_REF, **kwargs):
    """A run of len(grads) steps from ``x1`` on the box [lower, upper] whose
    step-t gradient is ``grads[t - 1]``, as (problem, h, T, run_oco kwargs)."""
    lower = np.array(lower, dtype=float)
    grads = [np.array(g, dtype=float) for g in grads]

    def grad(t, x):
        return grads[t - 1]

    problem = ProblemInstance(d=len(lower), cost=lambda t, x: 0.0, grad=grad,
                              box=FeasibleBox(lower, np.array(upper, dtype=float)),
                              g_inf=1.0, costs=lambda T, x: np.zeros(T),
                              comparator_for=lambda T: lower.copy(), name="edge",
                              x1=np.array(x1, dtype=float))
    return problem, h, len(grads), kwargs


@st.composite
def edge_runs(draw):
    """Edge gradients on boxes with signed-zero bounds and degenerate
    coordinates, from starts with signed zeros, at d = 1 to 17, with alpha up
    to 1e308 and every schedule and epsilon."""
    d = draw(st.integers(1, SCALAR_MAX_DIM + 1))

    def vector(elements):
        return np.array(draw(st.lists(elements, min_size=d, max_size=d)), dtype=float)

    beta2 = draw(st.floats(0.5, 0.9999))
    h = HyperParams(
        alpha=draw(st.one_of(st.sampled_from([1e-3, 3.0, 1e308]), st.floats(1e-3, 1e308))),
        beta1=draw(st.floats(0.0, math.sqrt(beta2))),
        beta2=beta2,
        lam=draw(st.floats(1e-3, 0.999)),
        schedule=draw(st.sampled_from(list(Schedule))),
        epsilon=draw(st.sampled_from([0.0, 1e-8, 1.0])))
    lower = vector(st.sampled_from([0.0, -0.0, -1.0, -0.5, 2.0]))
    width = vector(st.sampled_from([0.0, 0.25, 1.0, 2.0]))
    # a degenerate coordinate keeps the sign of its lower bound's zero
    upper = np.where(width == 0.0, lower, lower + width)
    # a start equal to its projection keeps its sign, so -0.0 can sit on a
    # bound of 0.0, where the clamp's tie rule decides the sign of the result
    raw = vector(st.sampled_from([-0.0, 0.0, 0.3, -0.7, 2.1]))
    x1 = project_box(raw, FeasibleBox(lower, upper))
    entries = st.one_of(st.sampled_from(EDGE_G), st.floats(-1e3, 1e3))
    grads = [vector(entries) for _ in range(draw(st.integers(1, 8)))]
    return edge_case(lower, upper, np.where(x1 == raw, raw, x1), grads, h,
                     record_full=draw(st.booleans()),
                     record_iterates=draw(st.sampled_from([None, False, True])))


@settings(max_examples=300, deadline=None)
@given(edge_runs())
# clamp ties at signed-zero bounds: -0.0 on a lower or upper bound of 0.0,
# and 0.0 on a lower bound of -0.0
@example(edge_case([0.0], [1.0], [-0.0], [[0.0]] * 3))
@example(edge_case([-1.0], [0.0], [-0.0], [[0.0]] * 3))
@example(edge_case([-0.0], [1.0], [0.0], [[0.0]] * 3))
# (1e-170)^2 underflows, so the denominator is zero while m is not
@example(edge_case([-1.0, 0.0], [1.0, 1.0], [0.5, -0.0], [[1e-170, 0.0]] * 3,
                   record_full=True))
def test_named_run_is_bitwise_the_step_loop_on_edge_gradients(case):
    # through grad and through the column form -c_t, whose
    # column holds the negated edge gradients
    problem, h, T, kwargs = case
    for p in (problem, column_twin(problem)):
        for name in sorted(STEPPERS):
            run_both(p, name, h, T, **kwargs)


# The digests every perfbench pass is checked against. The corpus workload
# runs the twelve specs below per program seed and keys their digests the
# same way.
BENCHMARK_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def benchmark_digests():
    return json.loads(BENCHMARK_REFS.read_text())["digests"]


def run_digest(trace):
    """SHA-256 of a run's final iterate and cumulative-regret bytes, as the
    benchmark computes it."""
    data = (np.ascontiguousarray(trace.final_x, dtype="<f8").tobytes()
            + np.ascontiguousarray(trace.cumulative_regret, dtype="<f8").tobytes())
    return hashlib.sha256(data).hexdigest()


def test_corpus_runs_match_benchmark_digests():
    digests = benchmark_digests()
    T = 5000
    for kind, seed, d in (("synthetic", None, 1), ("quadratic", 0, 1), ("quadratic", 0, 5)):
        for optimizer, _, h, trace in corpus_runs([(kind, seed, d, T)],
                                                  (Schedule.EXP_DECAY, Schedule.INVERSE_T)):
            key = f"{kind}:{seed}:{d}:{h.schedule.value}:{optimizer}:{T}"
            assert run_digest(trace) == digests[key], key


@pytest.mark.parametrize("optimizer", ["amsgrad", "adamx"])
def test_logistic_runs_match_benchmark_digests(optimizer):
    # the logistic workload's paired runs: d = 3, alpha = 0.1, 2000 steps
    h = HyperParams(alpha=0.1, beta1=0.9, beta2=0.999, lam=0.001, schedule=Schedule.EXP_DECAY)
    trace = run_oco(toy_training_problem(0), optimizer, h, 2000, record_iterates=True)
    assert run_digest(trace) == benchmark_digests()[f"logistic:0:{optimizer}:2000"]


def test_cli_decay_trace_matches_benchmark_digest(tmp_path):
    # the cli workload's run command at its short size, in process
    out = tmp_path / "decay.csv"
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--problem", "synthetic", "--optimizer", "adamx", "--schedule", "exp",
                  "--alpha", "4", "--beta1", "0.5", "--steps", "1010", "--output", str(out)])
    assert info.value.code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == benchmark_digests()["csv:decay:1010"]


def test_named_runs_take_the_run_kernel_up_to_scalar_max_dim():
    with kernel_runs() as calls:
        for d in (SCALAR_MAX_DIM, SCALAR_MAX_DIM + 1):
            run_oco(quadratic_problem(1, d), "adamx", H_REF, 5)
    assert calls == [SCALAR_MAX_DIM]


def test_named_run_scores_its_losses_in_one_costs_call():
    # a named run calls grad alone once a step, or reads a column problem's
    # rows once a run and calls no grad; the step loop calls grad and cost
    # once a step and reads no column
    T = 50
    # the kernel's costs calls: the losses and the comparator's
    kernel = {"cost": 0, "grad": T, "costs": 2}
    column = {"cost": 0, "grad": 0, "rows": 1, "costs": 2}
    # pinned: perfbench's traced passes time this cost call as oracle.cost (ROADMAP item 14)
    loop = {"cost": T, "grad": T, "costs": 1}
    column_loop = {"cost": T, "grad": T, "rows": 0, "costs": 1}
    for stepper, p, expected in (
            ("adamx", synthetic_problem(), column),
            ("adamx", quadratic_problem(1, 1), column),
            ("adamx", quadratic_problem(1, SCALAR_MAX_DIM), column),
            ("adamx", quadratic_problem(1, SCALAR_MAX_DIM + 1), column_loop),
            (STEPPERS["adamx"], quadratic_problem(1, 1), column_loop),
            ("adamx", toy_training_problem(1), kernel),
            (STEPPERS["adamx"], toy_training_problem(1), loop)):
        calls = dict.fromkeys(expected, 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        fields = {name: counted(name, getattr(p, name)) for name in calls if name != "rows"}
        if "rows" in calls:
            s, rows = p.affine_grad
            fields["affine_grad"] = (s, counted("rows", rows))
        run_oco(dataclasses.replace(p, **fields), stepper, H_REF, T, record_full=True)
        assert calls == expected


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


STACKED_H = HyperParams(alpha=0.1, beta1=0.9, beta2=0.999, lam=0.001,
                        schedule=Schedule.EXP_DECAY)


@pytest.mark.parametrize("make", [
    synthetic_problem, *(lambda d=d: quadratic_problem(17, d) for d in (1, 5, 16)),
    *(lambda seed=seed: toy_training_problem(seed) for seed in range(4))],
    ids=["synthetic", "quadratic-1", "quadratic-5", "quadratic-16", *(
        f"logistic-{seed}" for seed in range(4))])
def test_stacked_costs_match_per_t_loop(make):
    # the run kernel scores f_t(x_t) for a whole run with one costs(T, X)
    p, T = make(), 2000
    box = p.box
    rows = box.lower + np.random.default_rng(p.d).random((T, p.d)) * (box.upper - box.lower)
    run = run_oco(p, "adamx", STACKED_H, T, record_iterates=True).iterates[:T]
    for X in (rows, run):
        assert_bitwise(p.costs(T, X), np.array([p.cost(t, x) for t, x in enumerate(X, 1)]))


def test_run_is_deterministic():
    p = toy_training_problem(seed=2)
    a = run_oco(p, "adamx", H_REF, 100, record_full=True)
    b = run_oco(p, "adamx", H_REF, 100, record_full=True)
    np.testing.assert_array_equal(a.iterates, b.iterates)
    np.testing.assert_array_equal(a.cumulative_regret, b.cumulative_regret)
