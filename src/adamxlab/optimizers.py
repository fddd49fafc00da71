"""Projected adaptive-moment steps and their momentum schedules.

All three optimizers take the same step:

    m_t = beta1_t * m_{t-1} + (1 - beta1_t) * g_t
    v_t = beta2   * v_{t-1} + (1 - beta2)   * g_t^2
    x_{t+1} = clamp(x_t - alpha_t * m_t / (sqrt(v_hat_t) + eps), box)

with alpha_t = alpha / sqrt(t). They differ only in the rule that turns
v_t into the denominator surrogate v_hat_t:

* adam, ``_raw``: v_hat_t = v_t.
* amsgrad, ``_running_max``: v_hat_t = max(v_hat_{t-1}, v_t).
* adamx, ``_rescaled_max``: v_hat_1 = v_1, then
  v_hat_t = max(((1-beta1_t)^2/(1-beta1_{t-1})^2) * v_hat_{t-1}, v_t),
  which keeps sqrt(t * v_hat_t)/(1-beta1_t) nondecreasing for any
  decaying schedule.

A rule maps (t, beta1_t, beta1_{t-1}) to the weight w of v_hat_{t-1} in
max(w * v_hat_{t-1}, v_t), or to None when v_hat_t is v_t; amsgrad's
w = 1.0 leaves v_hat_{t-1} bitwise unchanged. beta1_t comes from
``beta1_rule``, the only place the schedules are written out.

The step is written twice. ``_array_step`` runs it on numpy arrays:
``step_adam``, ``step_amsgrad`` and ``step_adamx`` bind it to one rule
each, and it is the reference. The gradient passed in must have been
taken at the state's current iterate; the returned state carries the
post-update iterate together with the moments of step t. A non-finite m,
v, v_hat or iterate raises NumericFault naming the quantity and the step.

``run_scalar`` runs a whole run on Python floats: ``harness.run_oco``
hands it the run when it is given a stepper name and the problem has at
most ``SCALAR_MAX_DIM`` = 16 coordinates. It carries x, m, v and v_hat as
lists of floats from step to step and runs the step coordinate by
coordinate inside its loop, so the per-step checks, ``tolist`` calls and
``OptimizerState`` of a step function are paid once a run. A step makes
one call outside the kernel, to a float gradient oracle. That is the
problem's ``grad_floats`` where it has one (the synthetic and quadratic
problems do), which takes and returns lists of floats, so the step
builds no array. Other problems go through an adapter that calls
``grad`` on the point as an array and checks and converts its result as
the step functions do. History rows collect in Python lists and are
stored into the caller's arrays 256 rows at a time, and the losses
f_t(x_t) are scored after the run by one ``costs(T, X)`` call on the
iterates. A step function (perfbench's traced passes hand ``run_oco`` a
wrapped one) or a wider problem runs one ``_array_step`` call, and one
``cost`` call, per round. On 2000-step amsgrad quadratic runs with full
histories (2-vCPU Xeon, Python 3.11, numpy 2.4, a busy machine; medians
of 7 runs, repeated four times) the run kernel took 10-11 us a step
at d = 8, 17-19 at d = 16, 31-34 at d = 32, 48-49 at d = 48 and 62-68 at
d = 64, against 33-44 for the step loop at every d. The kernel's cost
grows with d and the loop's barely does, so they cross between d = 32
and d = 48; ``SCALAR_MAX_DIM`` stays 16 because no workload runs a
problem with 16 < d <= 48 that could show the gain of a higher cut.

The two are bitwise equal: Python's float + - * / are IEEE-754 binary64
operations rounded to nearest, as numpy's ufuncs are, ``math.sqrt`` is
correctly rounded, as ``np.sqrt`` is, and every expression is evaluated
in the same order (for instance ((1 - beta2) * g) * g). The kernel keeps
numpy's tie rule for the maximum and the clamp, which return their
second argument (deciding the sign of a zero, as for x_1 = -0.0 on a
lower bound of 0.0), and needs no other of numpy's rules: in a run from a
fresh start v and v_hat are finite and at least +0.0, and a NaN or
infinity makes the step's fused finiteness sum non-finite. Such a step is
re-run by ``check_oracle`` and ``_array_step``, which raise the step
functions' fault or, if the sum merely overflowed, return the same step.
``tests/test_harness.py`` holds named runs byte-equal to the step loop,
faults included.

A zero denominator gives its coordinate a zero update: where every
gradient so far vanished (m = 0 too; with the default eps = 0 this is the
limit of the true update and keeps the 16-digit reference trajectories),
or where g_t^2 underflows, as for g_t = 1e-170.
"""

import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericFault
from .numerics import as_vector

# Up to this many coordinates a named run runs on Python floats: there a
# dozen numpy calls a step on tiny arrays cost more than the arithmetic.
SCALAR_MAX_DIM = 16


class Schedule(str, Enum):
    """How the first-moment weight beta1_t evolves over steps."""

    CONSTANT = "const"
    EXP_DECAY = "exp"
    INVERSE_T = "inv"


@dataclass(frozen=True)
class HyperParams:
    """Hyperparameters shared by all three step rules.

    ``lam`` is the decay rate of the exponential schedule
    beta1_t = beta1 * lam^(t-1); it is ignored by the other schedules
    but always validated. ``gamma`` = beta1/sqrt(beta2) may not exceed 1;
    the regret bounds additionally need gamma < 1, which the bound code
    enforces at evaluation time.
    """

    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    lam: float = 0.001
    schedule: Schedule = Schedule.EXP_DECAY
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "schedule", Schedule(self.schedule))
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 0")
        if not 0 <= self.beta1 < 1:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0 < self.beta2 < 1:
            raise ValueError("beta2 must lie in (0, 1)")
        if not 0 < self.lam < 1:
            raise ValueError("lambda must lie in (0, 1)")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if self.gamma > 1:
            raise ValueError("beta1/sqrt(beta2) must not exceed 1")

    @property
    def gamma(self):
        return self.beta1 / math.sqrt(self.beta2)


@dataclass
class OptimizerState:
    """Value-type snapshot after ``t`` completed steps.

    ``beta1_prev`` records the beta1_t used by the most recent step; the
    AdamX rescaling needs it from step 2 on. A fresh state carries None.
    """

    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray
    t: int = 0
    beta1_prev: float | None = None


def fresh_state(x1):
    """State before the first step: zero moments at the given iterate."""
    x1 = as_vector(x1)
    zeros = np.zeros_like(x1)
    return OptimizerState(x=x1.copy(), m=zeros.copy(), v=zeros.copy(),
                          v_hat=zeros.copy(), t=0, beta1_prev=None)


def beta1_rule(h):
    """The function t -> beta1_t of h's schedule, for t >= 1. This is the
    one place the schedules are written out: ``beta1_at``, the run kernel
    and ``verify.beta1_sequence`` all evaluate it."""
    b, lam = h.beta1, h.lam
    if h.schedule is Schedule.CONSTANT:
        return lambda t: b
    if h.schedule is Schedule.EXP_DECAY:
        return lambda t: b * lam ** (t - 1)
    return lambda t: b / t


def beta1_at(t, h):
    """The momentum weight beta1_t at step t >= 1 under h's schedule."""
    if t < 1:
        raise ValueError("step index starts at 1")
    return beta1_rule(h)(t)


def alpha_at(t, h):
    """The step size alpha_t = alpha / sqrt(t) at step t >= 1."""
    return h.alpha / math.sqrt(t)


# v_hat rules: from the step index t, beta1_t and beta1_{t-1} (None at a
# fresh state), the weight of v_hat_{t-1} inside the maximum, or None for v_t

def _raw(t, b1, b1_prev):
    return None


def _running_max(t, b1, b1_prev):
    return 1.0


def _rescaled_max(t, b1, b1_prev):
    if t == 1:
        return None
    if b1_prev is None:
        raise ValueError("state lacks beta1_prev; advance it from a fresh state")
    if b1_prev >= 1:
        raise ValueError("beta1 of the previous step must be below 1")
    return (1.0 - b1) ** 2 / (1.0 - b1_prev) ** 2


def _oracle_fault(t):
    return NumericFault(f"non-finite cost or gradient at step {t}", step=t)


def check_oracle(t, loss, g):
    """Raise NumericFault unless the step-t loss and every entry of the
    float64 gradient ``g`` are finite."""
    # one fused test; a sum that merely overflowed is re-checked elementwise
    if not math.isfinite(loss + g.sum()) and not (
            np.all(np.isfinite(g)) and math.isfinite(loss)):
        raise _oracle_fault(t)


def _array_step(state, g, h, box, rule):
    """The step on numpy arrays: what the step functions run, and the
    reference ``run_scalar`` is tested against.

    One sum over m + v + v_hat + z (z the pre-clamp iterate) is non-finite
    whenever any entry is; only then are ``g`` (ValueError) and each
    quantity (NumericFault) checked one by one, so a sum that merely
    overflowed over finite entries raises nothing.
    """
    x = state.x
    g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape:
        g = as_vector(g, dim=x.shape[0])
    if box.lower.shape != x.shape:
        raise ValueError(f"dimension mismatch: expected {box.dim}, got {x.shape[0]}")
    t = state.t + 1
    b1 = beta1_at(t, h)
    w = rule(t, b1, state.beta1_prev)
    m = b1 * state.m + (1.0 - b1) * g
    v = h.beta2 * state.v + (1.0 - h.beta2) * g * g
    v_hat = v.copy() if w is None else np.maximum(w * state.v_hat, v)
    denom = np.sqrt(v_hat) + h.epsilon
    update = np.zeros_like(m)
    np.divide(m, denom, out=update, where=denom > 0.0)
    z = x - alpha_at(t, h) * update
    if not math.isfinite((m + v + v_hat + z).sum()):
        as_vector(g)
        for name, arr in (("m", m), ("v", v), ("v_hat", v_hat), ("x", z)):
            if not np.all(np.isfinite(arr)):
                raise NumericFault(f"non-finite {name} at step {t}", step=t)
    x = np.minimum(np.maximum(z, box.lower), box.upper)
    return OptimizerState(x=x, m=m, v=v, v_hat=v_hat, t=t, beta1_prev=b1)


# Rows a run kernel keeps in Python lists before one store per history.
# Blocks of 4096 rows raised the corpus benchmark's peak memory from 42.3
# to 46.8 MB (+11 %); blocks of 256 rows raise it by under 1 %.
_BLOCK = 256


def _rows(hist):
    """A flat float64 view of a C-contiguous history array."""
    return memoryview(hist).cast("B").cast("d")


def _scored(costs, X):
    """f_t(x_t) for the iterate rows X = x_1..x_n, as ``costs`` gives them.
    Raises the oracle's NumericFault at the first step whose loss is not
    finite."""
    ls = costs(len(X), X)
    bad = ~np.isfinite(ls)
    if bad.any():
        raise _oracle_fault(int(bad.argmax()) + 1)
    return ls


def run_scalar(rule, grad, costs, h, box, x1, losses, grads,
               iterates=None, m_hist=None, v_hist=None, vhat_hist=None, grad_floats=None):
    """A whole run of ``len(losses)`` steps from a fresh state at ``x1``, on
    at most SCALAR_MAX_DIM coordinates, carried on lists of Python floats.

    Step t takes the gradient at x_t from ``grad_floats(t, xs)``, the
    problem's float oracle, which maps the point as a list of floats to the
    gradient as one. Without one, ``grad`` is called on the point as an
    array, and its result is checked and coerced as the step functions do.
    The step then runs coordinate by coordinate, bitwise equal to
    ``_array_step`` on the states a run reaches: the same operations in the
    same order, and numpy's tie rule for the maximum and the clamp (a tie
    gives the second argument, which decides the sign of a zero). Its
    gradient, and its row of each history that is not None, go to flat
    lists that are stored into the preallocated C-contiguous float64
    arrays ``_BLOCK`` rows at a time; ``iterates`` has one more row, x_1,
    and the three moment histories come together or not at all. A step
    whose fused finiteness sum of m + v + v_hat + z (z the pre-clamp
    iterate) is not finite is checked as ``check_oracle`` and
    ``_array_step`` check it, on a rebuilt state, so it raises the same
    fault as the step functions or, if the sum merely overflowed, goes on
    with their result, so a run keeps only coordinate steps whose entries
    are all finite.

    The losses f_t(x_t) are scored after the steps, by one ``costs(T, X)``
    call on the iterate rows (kept in a buffer of the kernel's own when
    ``iterates`` is None). The step loop checks each loss before its
    step, so when a step raises, the losses up to it (up to the step
    before, if the gradient oracle raised) are scored first, and a
    non-finite one raises the oracle's fault at its own step instead.
    Returns the final state.
    """
    d, T = x1.shape[0], losses.shape[0]
    if iterates is None:
        iterates = np.empty((T + 1, d))
    iterates[0] = x1
    xs, lows, ups = x1.tolist(), box.lower.tolist(), box.upper.tolist()
    ms, vs, vhs = [0.0] * d, [0.0] * d, [0.0] * d
    alpha, beta2, eps = h.alpha, h.beta2, h.epsilon
    c2 = 1.0 - beta2
    sqrt, isfinite = math.sqrt, math.isfinite
    # each history's rows of the current block, flat, with the array they
    # go to; the iterate rows are x_2..x_{T+1}
    gbuf, xbuf, mbuf, vbuf, vhbuf = [], [], [], [], []
    full = m_hist is not None
    out = [(grads, gbuf), (iterates[1:], xbuf)]
    if full:
        out += [(m_hist, mbuf), (v_hist, vbuf), (vhat_hist, vhbuf)]
    out = [(_rows(hist), buf) for hist, buf in out]

    def flush(start):
        for view, buf in out:
            view[start * d:start * d + len(buf)] = array("d", buf)
            buf.clear()

    # oracled: the last step whose gradient oracle returned, where the step
    # loop would have gone on to the loss
    beta1, b1_prev, oracled = beta1_rule(h), None, 0

    if grad_floats is None:
        def grad_floats(t, xs):
            nonlocal oracled
            x = np.array(xs)
            g = np.asarray(grad(t, x), np.float64)
            # marked before the shape is checked: the step loop reads the
            # loss before it stores or coerces the gradient
            oracled = t
            if g.shape != x.shape:
                # what the step functions make of an off-shape gradient
                check_oracle(t, 0.0, g)
                grads[t - 1] = g
                g = as_vector(g, dim=d)
            return g.tolist()

    try:
        for start in range(0, T, _BLOCK):
            for t in range(start + 1, min(start + _BLOCK, T) + 1):
                gs = grad_floats(t, xs)
                oracled = t
                b1 = beta1(t)
                w = rule(t, b1, b1_prev)
                c1, a = 1.0 - b1, alpha / sqrt(t)
                # the step coordinate by coordinate, and the fused finiteness
                # sum of m + v + v_hat + z
                nxs, nms, nvs, nvhs = [], [], [], []
                total = 0.0
                for xp, mp, vp, vhp, gi, lo, up in zip(xs, ms, vs, vhs, gs, lows, ups):
                    m = b1 * mp + c1 * gi
                    v = beta2 * vp + c2 * gi * gi
                    vh = v if w is None or not w * vhp > v else w * vhp
                    den = sqrt(vh) + eps
                    z = xp - a * (m / den if den > 0.0 else 0.0)
                    total += m + v + vh + z
                    y = z if z > lo else lo
                    nxs.append(y if y < up else up)
                    nms.append(m)
                    nvs.append(v)
                    nvhs.append(vh)
                if not isfinite(total):
                    g = np.array(gs)
                    check_oracle(t, 0.0, g)
                    state = _array_step(
                        OptimizerState(x=np.array(xs), m=np.array(ms), v=np.array(vs),
                                       v_hat=np.array(vhs), t=t - 1, beta1_prev=b1_prev),
                        g, h, box, rule)
                    nxs, nms, nvs, nvhs = (state.x.tolist(), state.m.tolist(),
                                           state.v.tolist(), state.v_hat.tolist())
                xs, ms, vs, vhs = nxs, nms, nvs, nvhs
                b1_prev = b1
                gbuf += gs
                xbuf += xs
                if full:
                    mbuf += ms
                    vbuf += vs
                    vhbuf += vhs
            flush(start)
    except Exception:
        # the step loop meets a non-finite loss at step s before anything a
        # later step raises, whatever its type
        flush(start)
        if oracled:
            _scored(costs, iterates[:oracled])
        raise
    losses[:] = _scored(costs, iterates[:T])
    return OptimizerState(x=np.array(xs), m=np.array(ms), v=np.array(vs),
                          v_hat=np.array(vhs), t=T, beta1_prev=b1_prev)


def step_adam(state, g, h, box):
    """One step with the raw second moment as denominator."""
    return _array_step(state, g, h, box, _raw)


def step_amsgrad(state, g, h, box):
    """One step with the running-maximum denominator."""
    return _array_step(state, g, h, box, _running_max)


def step_adamx(state, g, h, box):
    """One step with the rescaled-maximum denominator."""
    return _array_step(state, g, h, box, _rescaled_max)


STEPPERS = {
    "adam": step_adam,
    "amsgrad": step_amsgrad,
    "adamx": step_adamx,
}

# the v_hat rule of each named stepper, for ``run_scalar``
RULES = {"adam": _raw, "amsgrad": _running_max, "adamx": _rescaled_max}


def resolve_stepper(stepper):
    """Accept a stepper function or one of the names in STEPPERS."""
    if callable(stepper):
        return stepper
    try:
        return STEPPERS[stepper]
    except KeyError:
        raise ValueError(f"unknown optimizer {stepper!r}; choose from {sorted(STEPPERS)}") from None
