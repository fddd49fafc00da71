"""Projected adaptive-moment steps and their momentum schedules.

All three optimizers take the same step, ``_step``:

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
w = 1.0 leaves v_hat_{t-1} bitwise unchanged. ``step_adam``,
``step_amsgrad`` and ``step_adamx`` bind ``_step`` to one rule each. The
gradient passed in must have been taken at the state's current iterate;
the returned state carries the post-update iterate together with the
moments of step t. A non-finite m, v, v_hat or iterate raises
NumericFault naming the quantity and the step. beta1_t comes from
``beta1_rule``, the only place the schedules are written out.

``_step`` has two kernels. Up to ``SCALAR_MAX_DIM`` = 16 coordinates,
``_scalar_step`` runs the step coordinate by coordinate on Python floats,
in ``_coordinates``, and builds the four result vectors with one
``np.array`` call; above that, ``_array_step`` runs it on numpy arrays.
On small vectors a dozen numpy calls cost far more than the arithmetic:
timed on a 2-vCPU Xeon with Python 3.11 and numpy 2.4, an amsgrad step
took 3.8 us scalar against 12.4 us numpy at d = 1, 6.3 against 12.6 at
d = 5 and 12.1 against 12.9 at d = 16, while numpy won from d = 20 on
(14.3 against 13.2).
The scalar kernel is bitwise equal to the numpy one: Python's float
+ - * / are IEEE-754 binary64 operations rounded to nearest, as numpy's
elementwise ufuncs are, and ``math.sqrt`` is correctly rounded, as
``np.sqrt`` is, so evaluating every expression in the same order (for
instance ((1 - beta2) * g) * g) gives the same bits. Where numpy and
Python differ, the kernel follows numpy: np.maximum and np.minimum
return their second argument on a tie (which decides the sign of a zero)
and NaN if either argument is NaN; the square root of a negative is NaN,
not an error; a zero denominator is tested before dividing. A step whose
finiteness sum is not finite is handed to ``_array_step``, so both kernels
raise the same fault. ``tests/test_optimizers.py`` checks the two against
each other byte for byte.

``run_scalar`` is the run kernel: ``harness.run_oco`` hands it the whole
run when it is given a stepper name and the problem has at most
SCALAR_MAX_DIM coordinates. It carries x, m, v and v_hat as lists of
floats from step to step and calls ``_coordinates`` once a step, so the
per-step checks, ``tolist`` calls and ``OptimizerState`` of a step
function are paid once a run; histories are written row by row into the
caller's arrays. A step function (perfbench's traced passes hand
``run_oco`` a wrapped one) or a wider problem runs one step call per
round. Both give the same bytes and the same faults, which
``tests/test_harness.py`` checks. On the same machine, over ten
alternating untraced pairs of the perfbench corpus workload (seed 5501,
25 s runs), the kernel took the median ``wall_s`` from 1.19 to 0.66 s
(-44 %, faster in 10 of 10 pairs).

Coordinates whose denominator is exactly zero (possible only when every
gradient seen so far vanished there, which forces m = 0 too) take a zero
update; with the default eps = 0 this resolves 0/0 to the limit of the
true update and preserves the 16-digit reference trajectories.
"""

import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericFault
from .numerics import as_vector

# Up to this many coordinates a step runs on Python floats: there a
# dozen numpy calls on tiny arrays cost more than the arithmetic itself.
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


def check_oracle(t, loss, g):
    """Raise NumericFault unless the step-t loss and every entry of the
    float64 gradient ``g`` are finite."""
    # one fused test; a sum that merely overflowed is re-checked elementwise
    if not math.isfinite(loss + g.sum()) and not (
            np.all(np.isfinite(g)) and math.isfinite(loss)):
        raise NumericFault(f"non-finite cost or gradient at step {t}", step=t)


def _begin(state, g, h, box, rule):
    """Checks and scalars shared by both kernels: the float64 gradient,
    the step index t, beta1_t and the rule's weight on v_hat_{t-1}
    (None when v_hat_t is v_t)."""
    x = state.x
    g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape:
        g = as_vector(g, dim=x.shape[0])
    if box.lower.shape != x.shape:
        raise ValueError(f"dimension mismatch: expected {box.dim}, got {x.shape[0]}")
    t = state.t + 1
    b1 = beta1_at(t, h)
    return g, t, b1, rule(t, b1, state.beta1_prev)


def _array_step(state, g, h, box, rule):
    """The step on numpy arrays: used above SCALAR_MAX_DIM coordinates,
    and the reference the scalar kernel is tested against.

    One sum over m + v + v_hat + z (z the pre-clamp iterate) is non-finite
    whenever any entry is; only then are ``g`` (ValueError) and each
    quantity (NumericFault) checked one by one, so a sum that merely
    overflowed over finite entries raises nothing.
    """
    g, t, b1, w = _begin(state, g, h, box, rule)
    m = b1 * state.m + (1.0 - b1) * g
    v = h.beta2 * state.v + (1.0 - h.beta2) * g * g
    v_hat = v.copy() if w is None else np.maximum(w * state.v_hat, v)
    denom = np.sqrt(v_hat) + h.epsilon
    update = np.zeros_like(m)
    np.divide(m, denom, out=update, where=denom > 0.0)
    z = state.x - alpha_at(t, h) * update
    if not math.isfinite((m + v + v_hat + z).sum()):
        as_vector(g)
        for name, arr in (("m", m), ("v", v), ("v_hat", v_hat), ("x", z)):
            if not np.all(np.isfinite(arr)):
                raise NumericFault(f"non-finite {name} at step {t}", step=t)
    x = np.minimum(np.maximum(z, box.lower), box.upper)
    return OptimizerState(x=x, m=m, v=v, v_hat=v_hat, t=t, beta1_prev=b1)


def _coordinates(xs, ms, vs, vhs, gs, lows, ups, b1, w, beta2, a, eps):
    """The step coordinate by coordinate on lists of Python floats, bitwise
    equal to ``_array_step``: the same operations in the same order,
    numpy's maximum/minimum rules (NaN wins, a tie gives the second
    argument) and NaN for the root of a negative. ``w`` is the rule's
    weight and ``a`` = alpha_t. Returns the new x, m, v and v_hat lists and
    the fused finiteness sum of m + v + v_hat + z (z the pre-clamp iterate)."""
    c1, c2 = 1.0 - b1, 1.0 - beta2
    nxs, nms, nvs, nvhs = [], [], [], []
    total = 0.0
    for xp, mp, vp, vhp, gi, lo, up in zip(xs, ms, vs, vhs, gs, lows, ups):
        m = b1 * mp + c1 * gi
        v = beta2 * vp + c2 * gi * gi
        if w is None:
            vh = v
        else:
            vh = w * vhp
            if not (vh > v or vh != vh):
                vh = v
        den = (math.sqrt(vh) if vh >= 0.0 else math.nan) + eps
        z = xp - a * (m / den if den > 0.0 else 0.0)
        total += m + v + vh + z
        y = z if z > lo else lo
        nxs.append(y if y < up else up)
        nms.append(m)
        nvs.append(v)
        nvhs.append(vh)
    return nxs, nms, nvs, nvhs, total


def _scalar_step(state, g, h, box, rule):
    """``_coordinates`` on one state. When the fused finiteness sum is not
    finite, the step is re-run by ``_array_step``, which raises the fault
    or, if the sum merely overflowed, returns this same result."""
    g, t, b1, w = _begin(state, g, h, box, rule)
    xs, ms, vs, vhs, total = _coordinates(
        state.x.tolist(), state.m.tolist(), state.v.tolist(), state.v_hat.tolist(),
        g.tolist(), box.lower.tolist(), box.upper.tolist(),
        b1, w, h.beta2, alpha_at(t, h), h.epsilon)
    if not math.isfinite(total):
        return _array_step(state, g, h, box, rule)
    d = len(xs)
    block = np.array(xs + ms + vs + vhs)
    return OptimizerState(x=block[:d], m=block[d:2 * d], v=block[2 * d:3 * d],
                          v_hat=block[3 * d:], t=t, beta1_prev=b1)


def _step(state, g, h, box, rule):
    """One projected step with the v_hat rule ``rule``, by the scalar
    kernel up to SCALAR_MAX_DIM coordinates and by numpy above."""
    if state.x.shape[0] <= SCALAR_MAX_DIM:
        return _scalar_step(state, g, h, box, rule)
    return _array_step(state, g, h, box, rule)


def _rows(hist):
    """A flat float64 view of a C-contiguous history array, or None."""
    return None if hist is None else memoryview(hist).cast("B").cast("d")


def run_scalar(rule, grad, cost, h, box, x1, losses, grads,
               iterates=None, m_hist=None, v_hist=None, vhat_hist=None):
    """A whole run of ``len(losses)`` steps on at most SCALAR_MAX_DIM
    coordinates, carried on lists of Python floats from step to step.

    Step t evaluates ``grad`` and ``cost`` at x_t, then runs
    ``_coordinates``. It writes the loss and the gradient, and into each
    history that is not None the step's row, into the preallocated
    C-contiguous float64 arrays; ``iterates`` has one more row, x_1, and
    the three moment histories come together or not at all. A step whose
    fused finiteness sum (with the loss) is not finite is checked as
    ``check_oracle`` and ``_array_step`` check it, on a rebuilt state, so
    it raises the same fault as the step functions or, if the sum merely
    overflowed, goes on with their result. Returns the final state.
    """
    d, T = x1.shape[0], losses.shape[0]
    xs, lows, ups = x1.tolist(), box.lower.tolist(), box.upper.tolist()
    ms, vs, vhs = [0.0] * d, [0.0] * d, [0.0] * d
    alpha, beta2, eps = h.alpha, h.beta2, h.epsilon
    sqrt, isfinite, asarray, f64 = math.sqrt, math.isfinite, np.asarray, np.float64
    loss_out, grad_out = _rows(losses), _rows(grads)
    x_out, m_out, v_out, vh_out = _rows(iterates), _rows(m_hist), _rows(v_hist), _rows(vhat_hist)
    if x_out is not None:
        x_out[:d] = array("d", xs)
    beta1, b1_prev = beta1_rule(h), None
    for t in range(1, T + 1):
        b1 = beta1(t)
        x = np.array(xs)
        g = asarray(grad(t, x), f64)
        loss = cost(t, x)
        if g.shape != x.shape:
            # what the step functions make of an off-shape gradient
            check_oracle(t, loss, g)
            grads[t - 1] = g
            g = as_vector(g, dim=d)
        gs = g.tolist()
        new = _coordinates(xs, ms, vs, vhs, gs, lows, ups, b1, rule(t, b1, b1_prev),
                           beta2, alpha / sqrt(t), eps)
        if not isfinite(new[4] + loss):
            check_oracle(t, loss, g)
            state = _array_step(
                OptimizerState(x=x, m=np.array(ms), v=np.array(vs), v_hat=np.array(vhs),
                               t=t - 1, beta1_prev=b1_prev), g, h, box, rule)
            new = (state.x.tolist(), state.m.tolist(), state.v.tolist(), state.v_hat.tolist())
        xs, ms, vs, vhs = new[:4]
        b1_prev = b1
        k = (t - 1) * d
        loss_out[t - 1] = loss
        grad_out[k:k + d] = array("d", gs)
        if x_out is not None:
            x_out[k + d:k + 2 * d] = array("d", xs)
        if m_out is not None:
            m_out[k:k + d] = array("d", ms)
            v_out[k:k + d] = array("d", vs)
            vh_out[k:k + d] = array("d", vhs)
    return OptimizerState(x=np.array(xs), m=np.array(ms), v=np.array(vs),
                          v_hat=np.array(vhs), t=T, beta1_prev=b1_prev)


def step_adam(state, g, h, box):
    """One step with the raw second moment as denominator."""
    return _step(state, g, h, box, _raw)


def step_amsgrad(state, g, h, box):
    """One step with the running-maximum denominator."""
    return _step(state, g, h, box, _running_max)


def step_adamx(state, g, h, box):
    """One step with the rescaled-maximum denominator."""
    return _step(state, g, h, box, _rescaled_max)


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
