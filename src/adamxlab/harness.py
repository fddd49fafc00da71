"""Online convex optimization harness: problems, runs, regret traces.

A problem is a sequence of convex costs f_t over a feasible box. The
run loop plays the textbook game: reveal x_t, pay f_t(x_t), observe
g_t = grad f_t(x_t), advance the optimizer, repeat. Regret is accounted
against the best fixed point of the summed objective, obtained from
``comparator_oracle``.

Everything is deterministic. Random quantities (quadratic centers,
minibatch draws) come from generators keyed by (seed, t). Each draw is
made once per problem and memoized, and it yields the same values in any
access order, so any f_t can be evaluated at random access and identical
configurations produce bit-identical traces.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .errors import NumericFault, UnsupportedProblem
from .numerics import FeasibleBox, as_vector, project_box
from .optimizers import fresh_state, resolve_stepper


@dataclass
class ProblemInstance:
    """A cost sequence plus the constants the regret bounds consume.

    ``comparator`` is the fixed best point when it does not depend on
    the horizon; ``comparator_for`` maps a horizon T to the argmin of
    the first-T sum when it does. ``separable`` marks objectives that
    split per coordinate, which the grid-refinement comparator needs
    for d > 1. ``x1`` overrides the default starting iterate (the box
    center). ``full_objective``, when present, scores a point against
    the whole dataset behind the cost sequence.
    """

    d: int
    cost: Callable[[int, np.ndarray], float]
    grad: Callable[[int, np.ndarray], np.ndarray]
    box: FeasibleBox
    g_inf: float
    comparator: Optional[np.ndarray] = None
    comparator_for: Optional[Callable[[int], np.ndarray]] = None
    separable: bool = False
    x1: Optional[np.ndarray] = None
    name: str = ""
    full_objective: Optional[Callable[[np.ndarray], float]] = None


def synthetic_problem():
    """Periodic linear costs on [-1, 1] with a rare large positive slope.

    f_t(x) = 1010 x when t mod 101 == 1 and -10 x otherwise. Over any
    prefix the slopes sum to a positive number, so the best fixed point
    is -1 for every horizon, while the frequent -10 steps push an
    optimizer toward +1. The run starts at +1.
    """
    box = FeasibleBox([-1.0], [1.0])

    def slope(t):
        return 1010.0 if t % 101 == 1 else -10.0

    def cost(t, x):
        return float(slope(t) * x[0])

    def grad(t, x):
        return np.array([slope(t)])

    return ProblemInstance(
        d=1, cost=cost, grad=grad, box=box, g_inf=1010.0,
        comparator=np.array([-1.0]), separable=True,
        x1=np.array([1.0]), name="synthetic",
    )


def quadratic_problem(seed, d, box=None, fixed_center=None):
    """f_t(x) = 0.5 ||x - c_t||^2 with seeded centers drawn in the box.

    The gradient is x - c_t, so with both points in the box its largest
    coordinate never exceeds the box diameter, which therefore serves as
    g_inf. The best fixed point for a horizon T is the mean of the first
    T centers clamped into the box. ``fixed_center`` freezes every c_t
    to one given point.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if box is None:
        box = FeasibleBox.cube(-1.0, 1.0, d)
    if box.dim != d:
        raise ValueError(f"dimension mismatch: expected {d}, got {box.dim}")
    if fixed_center is not None:
        fixed_center = as_vector(fixed_center, dim=d)
        if not box.contains(fixed_center):
            raise ValueError("fixed center must lie in the box")

    width = box.upper - box.lower
    centers = {}
    prefix_sums = [np.zeros(d)]

    def center(t):
        c = centers.get(t)
        if c is None:
            if fixed_center is not None:
                c = fixed_center.copy()
            else:
                r = np.random.default_rng((seed, t)).random(d)
                c = box.lower + r * width
            centers[t] = c
        return c

    def cost(t, x):
        diff = x - center(t)
        return float(0.5 * np.dot(diff, diff))

    def grad(t, x):
        return x - center(t)

    def comparator_for(T):
        while len(prefix_sums) <= T:
            s = len(prefix_sums)
            prefix_sums.append(prefix_sums[s - 1] + center(s))
        return project_box(prefix_sums[T] / T, box)

    return ProblemInstance(
        d=d, cost=cost, grad=grad, box=box, g_inf=box.diameter,
        comparator_for=comparator_for, separable=True,
        name=f"quadratic(seed={seed},d={d})",
    )


def toy_training_problem(seed=0, n_points=200, batch_size=16):
    """Logistic regression on a seeded 2-d two-Gaussian mixture.

    Parameters are (w1, w2, b) in the box [-10, 10]^3. f_t is the mean
    logistic loss of a minibatch drawn by a generator keyed on (seed, t),
    so paired optimizer runs face the identical cost sequence. Each
    minibatch is drawn once per problem and memoized, so cost, grad and
    the comparator share the draw and see the same rows in any access
    order. Gradients are analytic. The per-sample gradient magnitude
    never exceeds the largest feature magnitude (the sigmoid factor is
    below 1), which gives g_inf from the data alone.
    """
    rng = np.random.default_rng(seed)
    half = n_points // 2
    xs = np.vstack([
        rng.normal(-1.0, 1.0, size=(half, 2)),
        rng.normal(1.0, 1.0, size=(n_points - half, 2)),
    ])
    ys = np.concatenate([-np.ones(half), np.ones(n_points - half)])
    box = FeasibleBox.cube(-10.0, 10.0, 3)
    g_inf = max(1.0, float(np.max(np.abs(xs))))
    indices = {}

    def rows(t):
        idx = indices.get(t)
        if idx is None:
            idx = np.random.default_rng((seed, t)).integers(0, n_points, size=batch_size)
            indices[t] = idx
        return idx

    def margins(theta, xb, yb):
        return yb * (xb @ theta[:2] + theta[2])

    def loss(m):
        return float(np.mean(np.logaddexp(0.0, -m)))

    def gradient(m, xb, yb):
        coeff = -yb * expit(-m)
        gw = coeff @ xb / len(yb)
        gb = float(np.mean(coeff))
        return np.array([gw[0], gw[1], gb])

    def cost(t, x):
        idx = rows(t)
        return loss(margins(x, xs[idx], ys[idx]))

    def grad(t, x):
        idx = rows(t)
        xb, yb = xs[idx], ys[idx]
        return gradient(margins(x, xb, yb), xb, yb)

    def full_objective(theta):
        return loss(margins(theta, xs, ys))

    comparators = {}

    def comparator_for(T):
        got = comparators.get(T)
        if got is not None:
            return got.copy()
        idx = np.concatenate([rows(t) for t in range(1, T + 1)])
        xb, yb = xs[idx], ys[idx]

        def objective(theta):
            m = margins(theta, xb, yb)
            return loss(m), gradient(m, xb, yb)

        res = minimize(objective, np.zeros(3), jac=True, method="L-BFGS-B",
                       bounds=[(-10.0, 10.0)] * 3)
        best = project_box(res.x, box)
        comparators[T] = best
        return best.copy()

    return ProblemInstance(
        d=3, cost=cost, grad=grad, box=box, g_inf=g_inf,
        comparator_for=comparator_for, separable=False,
        name=f"logistic(seed={seed})", full_objective=full_objective,
    )


def comparator_oracle(problem, T):
    """Best fixed point in the box for the first T costs.

    Analytic routes are preferred; otherwise the summed objective is
    minimized by coordinatewise grid refinement, which is valid for one
    dimensional or separable problems only.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if problem.comparator_for is not None:
        return as_vector(problem.comparator_for(T), dim=problem.d)
    if problem.comparator is not None:
        return problem.comparator.copy()
    if problem.d > 1 and not problem.separable:
        raise UnsupportedProblem(
            f"no analytic comparator for non-separable problem {problem.name or '?'}")
    return _grid_refine(problem, T)


def _grid_refine(problem, T, tol=1e-9, points=33):
    """Coordinatewise iterated grid search on the summed objective."""
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


@dataclass
class RegretTrace:
    """Everything a finished run exposes to the verifier and the CLI.

    ``iterates`` has T+1 rows (the starting point plus one per step).
    Moment histories are populated only on record_full runs; row t-1
    holds the step-t values.
    """

    losses: np.ndarray
    comparator_losses: np.ndarray
    cumulative_regret: np.ndarray
    gradient_history: np.ndarray
    comparator: np.ndarray
    final_x: np.ndarray
    T: int
    iterates: Optional[np.ndarray] = None
    m_history: Optional[np.ndarray] = None
    v_history: Optional[np.ndarray] = None
    vhat_history: Optional[np.ndarray] = None


def run_oco(problem, stepper, h, T, x1=None, record_full=False, record_iterates=None):
    """Play T rounds and account regret against the horizon-T comparator.

    ``stepper`` is a step function or one of the names "adam",
    "amsgrad", "adamx". ``record_full`` keeps iterate and moment
    histories (memory grows with T*d); ``record_iterates`` can request
    just the iterates. A numeric fault inside a step propagates with the
    1-based step index attached.
    """
    step = resolve_stepper(stepper)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if x1 is None:
        x1 = problem.x1 if problem.x1 is not None else problem.box.center()
    x1 = as_vector(x1, dim=problem.d)
    if not problem.box.contains(x1):
        raise ValueError("starting iterate must lie in the box")
    if record_iterates is None:
        record_iterates = record_full

    d = problem.d
    losses = np.empty(T)
    grads = np.empty((T, d))
    iterates = np.empty((T + 1, d)) if record_iterates else None
    m_hist = np.empty((T, d)) if record_full else None
    v_hist = np.empty((T, d)) if record_full else None
    vhat_hist = np.empty((T, d)) if record_full else None

    state = fresh_state(x1)
    if iterates is not None:
        iterates[0] = state.x
    for t in range(1, T + 1):
        x = state.x
        g = np.asarray(problem.grad(t, x), dtype=np.float64)
        loss = problem.cost(t, x)
        # one fused test; a sum that merely overflowed is re-checked elementwise
        if not math.isfinite(loss + g.sum()) and not (
                np.all(np.isfinite(g)) and math.isfinite(loss)):
            raise NumericFault(f"non-finite cost or gradient at step {t}", step=t)
        losses[t - 1] = loss
        grads[t - 1] = g
        state = step(state, g, h, problem.box)
        if iterates is not None:
            iterates[t] = state.x
        if record_full:
            m_hist[t - 1] = state.m
            v_hist[t - 1] = state.v
            vhat_hist[t - 1] = state.v_hat

    comparator = comparator_oracle(problem, T)
    comp_losses = np.array([problem.cost(t, comparator) for t in range(1, T + 1)])
    return RegretTrace(
        losses=losses,
        comparator_losses=comp_losses,
        cumulative_regret=np.cumsum(losses - comp_losses),
        gradient_history=grads,
        comparator=comparator,
        final_x=state.x.copy(),
        T=T,
        iterates=iterates,
        m_history=m_hist,
        v_history=v_hist,
        vhat_history=vhat_hist,
    )


def average_regret(trace):
    """R(t)/t for t = 1..T."""
    return trace.cumulative_regret / np.arange(1, trace.T + 1)
