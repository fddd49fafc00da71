"""Online convex optimization harness: problems, runs, regret traces.

A problem is a sequence of convex costs f_t over a feasible box. The
run loop plays the textbook game: reveal x_t, pay f_t(x_t), observe
g_t = grad f_t(x_t), advance the optimizer, repeat. Regret is accounted
against the best fixed point of the summed objective, obtained from
``comparator_oracle``.

Everything is deterministic. Random quantities (quadratic centers,
minibatch draws) are the values of generators keyed by (seed, t),
``np.random.default_rng((seed, t))``. They are computed by
``keyed.KeyedTable`` for a block of 4096 consecutive t at a time, bitwise
equal to one generator per t, when a t in the block is first asked for,
and kept for the life of the problem. A value depends on its key alone,
not on the access order, so any f_t can be evaluated at random access and
identical configurations produce bit-identical traces.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import keyed
from .numerics import FeasibleBox, as_vector, project_box
from .optimizers import (RULES, SCALAR_MAX_DIM, check_oracle, fresh_state, resolve_stepper,
                         run_scalar)


@dataclass
class ProblemInstance:
    """A cost sequence plus the constants the regret bounds consume.

    Every problem supplies ``costs`` and ``comparator_for``. ``costs``
    maps (T, x) to the array f_1(x), ..., f_T(x) in one vectorized pass,
    bitwise equal to calling ``cost`` once per t; ``run_oco`` scores the
    comparator with it. ``comparator_for`` maps a horizon T to the argmin
    of the first-T sum over the box. ``x1`` overrides the default starting
    iterate (the box center). ``full_objective``, when present, scores a
    point against the whole dataset behind the cost sequence.
    """

    d: int
    cost: Callable[[int, np.ndarray], float]
    grad: Callable[[int, np.ndarray], np.ndarray]
    box: FeasibleBox
    g_inf: float
    costs: Callable[[int, np.ndarray], np.ndarray]
    comparator_for: Callable[[int], np.ndarray]
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

    def costs(T, x):
        ts = np.arange(1, T + 1)
        return np.where(ts % 101 == 1, 1010.0, -10.0) * x[0]

    return ProblemInstance(
        d=1, cost=cost, grad=grad, box=box, g_inf=1010.0, costs=costs,
        comparator_for=lambda T: np.array([-1.0]),
        x1=np.array([1.0]), name="synthetic",
    )


def quadratic_problem(seed, d, box=None, fixed_center=None):
    """f_t(x) = 0.5 ||x - c_t||^2 with seeded centers drawn in the box.

    The gradient is x - c_t, so with both points in the box its largest
    coordinate never exceeds the box diameter, which therefore serves as
    g_inf. The best fixed point for a horizon T is the mean of the first
    T centers clamped into the box. ``fixed_center`` freezes every c_t
    to one given point. Otherwise c_t is lower + r * (upper - lower) with
    r = default_rng((seed, t)).random(d), filled 4096 t at a time on first
    demand (see ``keyed``), so it is the same in any access order.
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
        centers = keyed.KeyedTable(lambda ts: np.tile(fixed_center, (len(ts), 1)))
    else:
        width = box.upper - box.lower
        centers = keyed.KeyedTable(
            lambda ts: box.lower + keyed.uniform(seed, ts, d) * width)
    center = centers.row

    def cost(t, x):
        diff = x - center(t)
        return float(0.5 * np.dot(diff, diff))

    def grad(t, x):
        return x - center(t)

    # vecdot reproduces np.dot row by row; (D * D).sum(1) and einsum do not
    def costs(T, x):
        diff = x - centers.rows(1, T + 1)
        return 0.5 * np.vecdot(diff, diff)

    def comparator_for(T):
        # 0 + c_1 + ... + c_T added left to right: cumsum accumulates in order
        total = np.cumsum(np.vstack((np.zeros(d), centers.rows(1, T + 1))), axis=0)[T]
        return project_box(total / T, box)

    return ProblemInstance(
        d=d, cost=cost, grad=grad, box=box, g_inf=box.diameter, costs=costs,
        comparator_for=comparator_for, name=f"quadratic(seed={seed},d={d})",
    )


def toy_training_problem(seed=0, n_points=200, batch_size=16):
    """Logistic regression on a seeded 2-d two-Gaussian mixture.

    Parameters are (w1, w2, b) in the box [-10, 10]^3. f_t is the mean
    logistic loss of a minibatch drawn by a generator keyed on (seed, t),
    so paired optimizer runs face the identical cost sequence. The
    minibatch indices are filled 4096 t at a time on first demand (see
    ``keyed``) and kept per problem, so cost, grad and the comparator
    share each draw and see the same rows in any access order; the rows
    of the latest t are kept too, so the cost after a gradient at the
    same t gathers nothing.
    Gradients are analytic. The per-sample gradient magnitude
    never exceeds the largest feature magnitude (the sigmoid factor is
    below 1), which gives g_inf from the data alone. scipy is imported
    only when a gradient or a comparator is first computed, so building
    the problem, or any other problem, does not load it.
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
    indices = keyed.KeyedTable(lambda ts: keyed.integers(seed, ts, n_points, batch_size))

    def margins(theta, xb, yb):
        return yb * (xb @ theta[:2] + theta[2])

    # sum / len is the arithmetic np.mean does, bitwise, without its overhead
    def loss(m):
        terms = np.logaddexp(0.0, -m)
        return float(terms.sum() / len(terms))

    def gradient(m, xb, yb):
        from scipy.special import expit
        coeff = -yb * expit(-m)
        gw = coeff @ xb / len(yb)
        gb = float(coeff.sum() / len(coeff))
        return np.array([gw[0], gw[1], gb])

    # (t, xb, yb) of the latest gather, swapped as one tuple so that a
    # thread never reads the rows of another t: a run calls grad, then
    # cost at the same t
    last = (None, None, None)

    def batch(t):
        nonlocal last
        key, xb, yb = last
        if key != t:
            idx = indices.row(t)
            xb, yb = xs[idx], ys[idx]
            last = (t, xb, yb)
        return xb, yb

    def cost(t, x):
        xb, yb = batch(t)
        return loss(margins(x, xb, yb))

    def grad(t, x):
        xb, yb = batch(t)
        return gradient(margins(x, xb, yb), xb, yb)

    # the stacked matmul runs the same (batch, 2) @ (2,) product per t as cost
    def costs(T, x):
        idx = indices.rows(1, T + 1)
        terms = np.logaddexp(0.0, -margins(x, xs[idx], ys[idx]))
        return terms.sum(axis=1) / batch_size

    def full_objective(theta):
        return loss(margins(theta, xs, ys))

    comparators = {}

    def comparator_for(T):
        got = comparators.get(T)
        if got is not None:
            return got.copy()
        from scipy.optimize import minimize
        idx = indices.rows(1, T + 1).reshape(-1)
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
        d=3, cost=cost, grad=grad, box=box, g_inf=g_inf, costs=costs,
        comparator_for=comparator_for, name=f"logistic(seed={seed})",
        full_objective=full_objective,
    )


def comparator_oracle(problem, T):
    """Best fixed point in the box for the first T costs: the problem's
    own ``comparator_for``, a closed form or a solver."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    return as_vector(problem.comparator_for(T), dim=problem.d)


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

    A named stepper on at most SCALAR_MAX_DIM coordinates runs the whole
    run in ``optimizers.run_scalar``; a step function, or more
    coordinates, runs one ``step`` call per round. Both give the same
    bytes and the same faults.
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

    if isinstance(stepper, str) and d <= SCALAR_MAX_DIM:
        state = run_scalar(RULES[stepper], problem.grad, problem.cost, h, problem.box, x1,
                           losses, grads, iterates, m_hist, v_hist, vhat_hist)
    else:
        state = fresh_state(x1)
        if iterates is not None:
            iterates[0] = state.x
        for t in range(1, T + 1):
            x = state.x
            g = np.asarray(problem.grad(t, x), dtype=np.float64)
            loss = problem.cost(t, x)
            check_oracle(t, loss, g)
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
    comp_losses = problem.costs(T, comparator)
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
