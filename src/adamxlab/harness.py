"""Online convex optimization harness: problems, runs, regret traces.

A problem is a sequence of convex costs f_t over a feasible box. The
run loop plays the textbook game: reveal x_t, pay f_t(x_t), observe
g_t = grad f_t(x_t), advance the optimizer, repeat. Regret is accounted
against the best fixed point of the summed objective, obtained from
``comparator_oracle``.

Everything is deterministic. Random quantities (quadratic centers,
minibatch draws) are the values of generators keyed by (seed, t),
``np.random.default_rng((seed, t))``. They are computed by
``keyed.KeyedTable``, bitwise equal to one generator per t, when a t is
first asked for: a block of 4096 consecutive t at a time, or a whole run's
rows at once when a request spans block edges. They are kept for the life
of the problem in one list of disjoint runs of consecutive t, each t held
once. A value depends on its key alone, not on the access order, so any
f_t can be evaluated at random access and identical configurations produce
bit-identical traces.

A named run on at most SCALAR_MAX_DIM coordinates runs in the run kernel,
which reads a gradient that is x - c_t or -c_t from a column of c_t rows
the problem brings (the quadratic and the synthetic problem), once per
run, and calls any other problem's ``grad`` once a step (the logistic
problem).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import keyed
from .numerics import FeasibleBox, as_vector, project_box
from .optimizers import (RULES, SCALAR_MAX_DIM, History, check_oracle, fresh_state,
                         resolve_stepper, run_scalar)

# Steps the logistic gradient gathers minibatch rows for at a time. It
# divides keyed.BLOCK, so a chunk never straddles two blocks of a table.
_CHUNK = 256


@dataclass
class ProblemInstance:
    """A cost sequence plus the constants the regret bounds consume.

    Every problem supplies ``cost``, ``grad``, ``costs`` and
    ``comparator_for``. ``costs`` maps (T, x) to the array f_1(x), ...,
    f_T(x) for one point x of shape (d,), or to f_1(x_1), ..., f_T(x_T)
    for a stack x of shape (T, d), in one vectorized pass, bitwise equal
    to calling ``cost`` once per t;
    ``run_oco`` scores the comparator with it, and the run kernel the
    iterates of a whole run. ``comparator_for`` maps a horizon T to the argmin
    of the first-T sum over the box. ``x1`` is the starting iterate, the box
    center when None. ``full_objective``, when present, scores a point
    against the whole dataset behind the cost sequence.

    A named run on at most SCALAR_MAX_DIM coordinates goes to the run
    kernel, which calls ``grad`` once a step unless the problem brings the
    optional column ``affine_grad`` = (s, rows) (ValueError unless s is 0.0
    or 1.0 and rows callable). It says that the step-t gradient is x - c_t
    when s = 1.0 and -c_t when s = 0.0, bit for bit equal to ``grad(t, x)``;
    ``rows(start, stop)`` returns c_start .. c_{stop-1} as a (stop - start, d)
    float64 array, and the kernel reads a run's rows ``rows(1, T + 1)`` once
    in place of calling ``grad``.
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
    affine_grad: Optional[tuple[float, Callable[[int, int], np.ndarray]]] = None

    def __post_init__(self):
        if self.affine_grad is not None:
            s, rows = self.affine_grad
            if s not in (0.0, 1.0) or not callable(rows):
                raise ValueError("affine_grad must be (s, rows) with s 0.0 or 1.0 "
                                 "and rows callable")


def synthetic_problem():
    """Periodic linear costs on [-1, 1] with a rare large positive slope.

    f_t(x) = 1010 x when t mod 101 == 1 and -10 x otherwise. Over any
    prefix the slopes sum to a positive number, so the best fixed point
    is -1 for every horizon, while the frequent -10 steps push an
    optimizer toward +1. The run starts at +1. The gradient is the slope,
    which the run kernel reads as -c_t from the column c_t = -slope_t.
    """
    box = FeasibleBox([-1.0], [1.0])

    def slope(t):
        return 1010.0 if t % 101 == 1 else -10.0

    def cost(t, x):
        return float(slope(t) * x[0])

    def grad(t, x):
        return np.array([slope(t)])

    def negated_slopes(start, stop):
        ts = np.arange(start, stop)
        return np.where(ts % 101 == 1, -1010.0, 10.0)[:, None]

    def costs(T, x):
        ts = np.arange(1, T + 1)
        return np.where(ts % 101 == 1, 1010.0, -10.0) * x[..., 0]

    return ProblemInstance(
        d=1, cost=cost, grad=grad, box=box, g_inf=1010.0, costs=costs,
        comparator_for=lambda T: np.array([-1.0]),
        x1=np.array([1.0]), name="synthetic", affine_grad=(0.0, negated_slopes),
    )


def quadratic_problem(seed, d, box=None):
    """f_t(x) = 0.5 ||x - c_t||^2 with seeded centers drawn in the box.

    The gradient is x - c_t, so with both points in the box its largest
    coordinate never exceeds the box diameter, which therefore serves as
    g_inf. The run kernel computes the same x - c_t from the column of
    centers. The best fixed point for a horizon T is the mean of the first T
    centers clamped into the box. c_t is lower + r * (upper - lower) with
    r = default_rng((seed, t)).random(d), drawn on first demand (see
    ``keyed``), so it is the same in any access order.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if box is None:
        box = FeasibleBox.cube(-1.0, 1.0, d)
    if box.dim != d:
        raise ValueError(f"dimension mismatch: expected {d}, got {box.dim}")
    width = box.upper - box.lower
    centers = keyed.KeyedTable(lambda ts: box.lower + keyed.uniform(seed, ts, d) * width)
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
        affine_grad=(1.0, centers.rows),
    )


def toy_training_problem(seed=0):
    """Logistic regression on a seeded 2-d two-Gaussian mixture of 200 points.

    Parameters are (w1, w2, b) in the box [-10, 10]^3. f_t is the mean
    logistic loss of a minibatch of 16 points drawn by a generator keyed
    on (seed, t), so paired optimizer runs face the identical cost
    sequence. The minibatch indices are filled 4096 t at a time on first
    demand (see ``keyed``) and kept per problem, so cost, grad and the
    comparator share each draw and see the same rows in any access order.
    Gradients are analytic; ``grad`` gathers the minibatch rows of
    ``_CHUNK`` consecutive steps at once and reads step t's from them.

    The comparator's objective and ``costs`` at one point evaluate every
    data point's loss and sigmoid term once, on the 200 points, and gather
    them in draw order, so a solver evaluation computes 200 of each instead
    of T * 16. This is bitwise the per-draw formula: y = +-1 makes the
    negation and every product by y exact, a gemv row ``x_i @ w`` rounds
    the same in whatever matrix holds it, ``logaddexp`` and ``expit`` act
    elementwise, and every sum still runs over the T * 16 gathered draws in
    order (a sum weighted by draw counts would not be bitwise). ``cost``,
    ``grad`` and ``costs`` on a stack of T points evaluate the drawn rows
    themselves. Each problem solves its own comparators.

    The per-sample gradient magnitude never
    exceeds the largest feature magnitude (the sigmoid factor is below
    1), which gives g_inf from the data alone. scipy is imported
    only when a gradient or a comparator is first computed, so building
    the problem, or any other problem, does not load it.
    """
    rng = np.random.default_rng(seed)
    features = np.vstack([rng.normal(-1.0, 1.0, size=(100, 2)),
                          rng.normal(1.0, 1.0, size=(100, 2))])
    ys = np.concatenate([-np.ones(100), np.ones(100)])
    box = FeasibleBox.cube(-10.0, 10.0, 3)
    g_inf = max(1.0, float(np.max(np.abs(features))))
    indices = keyed.KeyedTable(lambda ts: keyed.integers(seed, ts, 200, 16))

    def margins(theta, xb, yb):
        return yb * (xb @ theta[:2] + theta[2])

    nys = -ys

    # -m for all 200 points: equal bit for bit to -margins(theta, xb, yb)
    # on any gathered rows xb, yb (see the docstring)
    def negated_margins(theta):
        return nys * (features @ theta[:2] + theta[2])

    # sum / len is the arithmetic np.mean does, bitwise, without its overhead
    def loss(m):
        terms = np.logaddexp(0.0, -m)
        return float(terms.sum() / len(terms))

    # scipy's sigmoid, imported at its first use: this stub rebinds the
    # name, so every later call reaches scipy's expit directly
    def expit(z):
        nonlocal expit
        from scipy.special import expit
        return expit(z)

    def gradient(m, xb, yb):
        coeff = -yb * expit(-m)
        gw = coeff @ xb / len(yb)
        gb = float(coeff.sum() / len(coeff))
        return np.array([gw[0], gw[1], gb])

    def cost(t, x):
        idx = indices.row(t)
        return loss(margins(x, features[idx], ys[idx]))

    # the minibatch rows of steps lo_t .. hi_t - 1: one aligned chunk,
    # gathered at once and dropped when a step leaves it
    lo_t, hi_t, xbs, ybs = 0, 0, None, None

    def grad(t, x):
        nonlocal lo_t, hi_t, xbs, ybs
        if not lo_t <= t < hi_t:
            lo_t = t - t % _CHUNK
            hi_t = lo_t + _CHUNK
            idx = indices.rows(lo_t, hi_t)
            xbs, ybs = features[idx], ys[idx]
        xb, yb = xbs[t - lo_t], ybs[t - lo_t]
        return gradient(margins(x, xb, yb), xb, yb)

    # one point: its 200 losses gathered in draw order; a stack of T: the
    # stacked (batch, 2) @ (2, 1) products round as cost's (batch, 2) @ (2,)
    # does, where np.vecdot does not
    def costs(T, x):
        idx = indices.rows(1, T + 1)
        if np.ndim(x) == 1:
            return np.logaddexp(0.0, negated_margins(x))[idx].sum(axis=1) / 16
        m = ys[idx] * ((features[idx] @ x[:, :2, None])[..., 0] + x[:, 2:3])
        return np.logaddexp(0.0, -m).sum(axis=1) / 16

    def full_objective(theta):
        return loss(margins(theta, features, ys))

    def comparator_for(T):
        from scipy.optimize import minimize
        idx = indices.rows(1, T + 1).reshape(-1)
        xb = features[idx]

        # loss and gradient of the first T minibatches, each point's term
        # computed once and gathered in draw order; the sums run over the
        # T * 16 draws as ``loss`` and ``gradient`` run them
        def objective(theta):
            nm = negated_margins(theta)
            terms = np.logaddexp(0.0, nm)[idx]
            coeff = (nys * expit(nm))[idx]
            gw = coeff @ xb / len(coeff)
            gb = float(coeff.sum() / len(coeff))
            return float(terms.sum() / len(terms)), np.array([gw[0], gw[1], gb])

        res = minimize(objective, np.zeros(3), jac=True, method="L-BFGS-B",
                       bounds=[(-10.0, 10.0)] * 3)
        return project_box(res.x, box)

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


def run_oco(problem, stepper, h, T, record_full=False, record_iterates=None):
    """Play T rounds from ``problem.x1`` (the box center when None) and
    account regret against the horizon-T comparator.

    ``stepper`` is a step function or one of the names "adam",
    "amsgrad", "adamx". Its rows are kept in an ``optimizers.History``; the
    trace shows the iterates when ``record_iterates`` (by default
    ``record_full``) asks, and the moment histories when ``record_full``
    does (memory grows with T*d). A numeric fault inside a step propagates
    with the 1-based step index attached.

    A named stepper on a problem of at most SCALAR_MAX_DIM coordinates runs
    the whole run in ``optimizers.run_scalar``, which reads the problem's
    ``affine_grad`` column or calls its ``grad`` once a step, and calls no
    ``cost``; a step function or a wider problem runs one ``grad``, ``cost``
    and ``step`` call per round. Both give the same bytes and the same
    faults: a run the kernel cannot finish (a ``grad`` that raises, cannot
    be read as float64 or is not shaped (d,), or a step whose fused
    finiteness sum is not finite, as on a NaN or an infinity) is run again
    from x_1 by the step loop, so on such a run ``grad`` may be called up
    to twice a step.
    """
    step = resolve_stepper(stepper)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    x1 = problem.x1 if problem.x1 is not None else problem.box.center()
    x1 = as_vector(x1, dim=problem.d)
    if not problem.box.contains(x1):
        raise ValueError("starting iterate must lie in the box")
    if record_iterates is None:
        record_iterates = record_full

    hist = History(T, x1, record_full)
    if not (isinstance(stepper, str) and problem.d <= SCALAR_MAX_DIM
            and run_scalar(RULES[stepper], problem, h, hist)):
        state = fresh_state(x1)
        for t in range(1, T + 1):
            g = np.asarray(problem.grad(t, state.x), dtype=np.float64)
            loss = problem.cost(t, state.x)
            check_oracle(t, loss, g)
            state = step(state, g, h, problem.box)
            hist.stepped(t, loss, g, state)

    comparator = comparator_oracle(problem, T)
    comp_losses = problem.costs(T, comparator)
    return RegretTrace(
        losses=hist.losses,
        comparator_losses=comp_losses,
        cumulative_regret=np.cumsum(hist.losses - comp_losses),
        gradient_history=hist.grads,
        comparator=comparator,
        final_x=hist.iterates[T].copy(),
        T=T,
        iterates=hist.iterates if record_iterates else None,
        m_history=hist.m,
        v_history=hist.v,
        vhat_history=hist.v_hat,
    )


def average_regret(trace):
    """R(t)/t for t = 1..T."""
    return trace.cumulative_regret / np.arange(1, trace.T + 1)
