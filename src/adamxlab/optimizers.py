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

A rule maps (t, h) to the weight w_t of v_hat_{t-1} in
max(w_t * v_hat_{t-1}, v_t): 1.0 for amsgrad, which leaves v_hat_{t-1}
bitwise unchanged, and 0.0 where v_hat_t is v_t (adam, and adamx at
t = 1). beta1_t comes from ``beta1_rule``, the only place the schedules
are written out. Neither depends on x, so a run reads both from
read-only columns, ``beta1_sequence(h, T)`` and
``weight_sequence(rule, h, T)``.

The step is written twice. ``_array_step`` runs it on numpy arrays:
``step_adam``, ``step_amsgrad`` and ``step_adamx`` bind it to one rule
each, and it is the reference. The gradient passed in must have been
taken at the state's current iterate; the returned state carries the
post-update iterate together with the moments of step t. A non-finite m,
v, v_hat or iterate raises NumericFault naming the quantity and the step.

``run_scalar`` runs a whole run on Python floats: ``harness.run_oco``
hands it the run when it is given a stepper name and the problem has at
most ``SCALAR_MAX_DIM`` = 16 coordinates. It runs the run kernel for the
problem's d and gradient form: straight-line code generated from one
template, ``_KERNEL``, on the first run that needs that (d, full, form),
and cached. There x, m, v and v_hat are local floats x0 .. x{d-1}, m0 ..,
and a step is the coordinate steps written out one after another; it
builds no list per coordinate and no ``OptimizerState``. Everything a step
needs that does not depend on x comes from columns: beta1_t from
``beta1_sequence(h, T)``, built once per (h, T) and shared with the bound
and lemma checks, w_t from ``weight_sequence``, and 1 - beta1_t and
alpha_t from arrays built per block of rows. So does the gradient of a
problem whose gradient is x - c_t or -c_t (``affine_grad``): the kernel
reads the run's c_t rows once and computes the gradient inline, with no
call and no list a step; x - c and -c on Python floats round as numpy's
do. Any other problem's gradient comes from one call a step to its
``grad``, on the point as an array and read back as float64. The rows a
run keeps are stored by ``History``, the kernel's a block at a time, and
the losses f_t(x_t) are scored after the run by one ``costs(T, X)`` call
on the iterates. A step function (perfbench's traced passes hand
``run_oco`` a wrapped one) or a wider problem runs the step loop: one
``grad``, ``cost`` and step call per round. ``SCALAR_MAX_DIM`` says why
the cut sits where it does.

The two are bitwise equal: Python's float + - * / are IEEE-754 binary64
operations rounded to nearest, as numpy's ufuncs are, ``math.sqrt`` is
correctly rounded, as ``np.sqrt`` is, and every expression is evaluated
in the same order (for instance ((1 - beta2) * g) * g). The kernel keeps
numpy's tie rule for the maximum and the clamp, which return their
second argument (deciding the sign of a zero, as for x_1 = -0.0 on a
lower bound of 0.0), and needs no other of numpy's rules: in a run from a
fresh start v and v_hat are finite and at least +0.0, so a weight of 0.0
gives max(0.0 * v_hat, v) = v bitwise, and a NaN or infinity makes the
step's fused finiteness sum non-finite.

The kernel runs only that clean path, and what a faulty run raises is
defined once, by the step loop. It hands a run back (``run_scalar``
returns False) on three events: a fused sum that is not finite, a
``grad`` call that raises or cannot be read as float64, and a gradient
not shaped (d,). ``run_oco`` then runs the whole run again from x_1 in the
step loop, which raises ``check_oracle``'s and ``_array_step``'s fault in
its order or, if the sum merely overflowed, gives the same bytes. Only the
``grad`` call is wrapped in ``try``: any other error in the kernel
propagates with its traceback. ``tests/test_harness.py`` holds named runs
byte-equal to the step loop, faults included.

A zero denominator gives its coordinate a zero update: where every
gradient so far vanished (m = 0 too; with the default eps = 0 this is the
limit of the true update and keeps the 16-digit reference trajectories),
or where g_t^2 underflows, as for g_t = 1e-170.
"""

import functools
import itertools
import linecache
import math
import textwrap
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericFault
from .numerics import as_vector

# Up to this many coordinates a named run runs on Python floats: there a
# dozen numpy calls a step on tiny arrays cost more than the arithmetic.
# The kernel's cost grows with d and the step loop's barely does. On
# 2000-step amsgrad quadratic runs with full histories (medians of 7, nine
# rounds on a busy 2-vCPU Xeon, Python 3.11, numpy 2.4) the generated
# kernel took 7-11 us a step at d = 8 and 12-19 at d = 16, against 26-43
# and 29-45 for the loop; at d = 32 (26-37 against 30-48) the two overlap,
# and at d = 48 (43-60 against 32-51) the loop is ahead. The cut stays at
# 16: no workload runs d > 5.
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
    """Value-type snapshot after ``t`` completed steps."""

    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray
    t: int = 0


def fresh_state(x1):
    """State before the first step: zero moments at the given iterate."""
    x1 = as_vector(x1)
    zeros = np.zeros_like(x1)
    return OptimizerState(x=x1.copy(), m=zeros.copy(), v=zeros.copy(),
                          v_hat=zeros.copy(), t=0)


def beta1_rule(h):
    """The function t -> beta1_t of h's schedule, for t >= 1. This is the
    one place the schedules are written out: ``beta1_at`` and
    ``beta1_sequence``, which the run kernel reads, evaluate it."""
    b, lam = h.beta1, h.lam
    if h.schedule is Schedule.CONSTANT:
        return lambda t: b
    if h.schedule is Schedule.EXP_DECAY:
        return lambda t: b * lam ** (t - 1)
    return lambda t: b / t


def beta1_sequence(h, T):
    """beta_{1,t} for t = 1..T as a read-only array (entry t-1 holds step t).

    Built once per (h, T) and shared: the run kernel, ``find_t0``, the
    decomposition check and their callers read the same column."""
    # HyperParams(beta1=-0.0) == HyperParams(beta1=0.0), but their columns
    # differ in the sign of every zero, so the sign is part of the key
    return _beta1_column(h, math.copysign(1.0, h.beta1), T)


@functools.lru_cache(maxsize=8)
def _beta1_column(h, sign, T):
    # built from the stepper's own scalar expressions: numpy's power is not
    # bitwise equal to Python's ** (h.beta1 * h.lam ** (ts - 1) differs in
    # 2406 of 50500 entries at beta1 = 0.9, lam = 0.999)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    seq = np.fromiter(map(beta1_rule(h), range(1, T + 1)), dtype=np.float64, count=T)
    seq.setflags(write=False)
    return seq


def beta1_at(t, h):
    """The momentum weight beta1_t at step t >= 1 under h's schedule."""
    if t < 1:
        raise ValueError("step index starts at 1")
    return beta1_rule(h)(t)


def alpha_at(t, h):
    """The step size alpha_t = alpha / sqrt(t) at step t >= 1."""
    return h.alpha / math.sqrt(t)


# v_hat rules: from the step index t and h, the weight w_t of v_hat_{t-1}
# inside the maximum, 0.0 where v_hat_t is v_t

def _raw(t, h):
    return 0.0


def _running_max(t, h):
    return 1.0


def _rescaled_max(t, h):
    if t == 1:
        return 0.0
    b1 = beta1_rule(h)
    return _rescaled_weight(b1(t), b1(t - 1))


def _rescaled_weight(b1, b1_prev):
    return (1.0 - b1) ** 2 / (1.0 - b1_prev) ** 2


def weight_sequence(rule, h, T):
    """w_t of ``rule`` for t = 1..T as a read-only array (entry t-1 holds
    step t). adam's and amsgrad's weight is one value broadcast over the
    horizon, which takes no memory; adamx's column is built once per (h, T)."""
    if rule is _rescaled_max:
        return _rescaled_column(h, T)
    return np.broadcast_to(rule(1, h), (T,))


@functools.lru_cache(maxsize=8)
def _rescaled_column(h, T):
    # built from the rule's own scalar expression on Python floats, not from
    # numpy squares: Python's x ** 2 (libm pow) is not always x * x (they
    # differ on 1701 of 2e6 uniform x in [0, 1)), and a column squared by
    # numpy differs from _rescaled_max in 66 entries over the schedules,
    # beta1 in {0, 0.5, 0.9, 0.99} and lam in {0.001, 0.5, 0.999} at
    # T = 50500. The sign of a zero beta1 does not reach w, so (h, T) is the
    # whole key.
    b1s = memoryview(beta1_sequence(h, T))
    w = np.fromiter(itertools.chain((0.0,), map(_rescaled_weight, b1s[1:], b1s[:-1])),
                    dtype=np.float64, count=T)
    w.setflags(write=False)
    return w


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
    w = rule(t, h)
    m = b1 * state.m + (1.0 - b1) * g
    v = h.beta2 * state.v + (1.0 - h.beta2) * g * g
    # a state passed in may hold any v_hat, so w = 0.0 is not taken as a maximum
    v_hat = v.copy() if w == 0.0 else np.maximum(w * state.v_hat, v)
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
    return OptimizerState(x=x, m=m, v=v, v_hat=v_hat, t=t)


# Rows a run kernel keeps in one Python list before one store.
# Blocks of 4096 rows raised the corpus benchmark's peak memory from 42.3
# to 46.8 MB (+11 %); blocks of 256 rows raise it by under 1 %.
_BLOCK = 256


class History:
    """Every row a run keeps, and the run's only output. Row t-1 of
    ``losses``, ``grads``, ``m``, ``v`` and ``v_hat`` holds step t; the
    moments are kept only when ``full`` is set (None otherwise), while
    ``iterates`` always holds x_1..x_{T+1}: the run kernel scores the losses
    from them, and x_{T+1} is the run's final iterate. The kernel hands over
    a block's rows through ``store``, the step loop one step's through
    ``stepped``."""

    def __init__(self, T, x1, full):
        d = x1.shape[0]
        self.full = full
        self.losses = np.empty(T)
        self.grads = np.empty((T, d))
        self.iterates = np.empty((T + 1, d))
        self.iterates[0] = x1
        self.m, self.v, self.v_hat = (np.empty((T, d)) if full else None for _ in range(3))
        # the arrays a row of ``store`` fills, in its order; the iterate rows
        # a step adds are x_2..x_{T+1}
        arrays = (self.grads, self.iterates[1:], self.m, self.v, self.v_hat)
        self._fields = [a for a in arrays if a is not None]

    def store(self, start, buf):
        """Store steps start + 1, ... from the flat list of floats ``buf``,
        which holds one row per step: its gradient, its iterate x_{t+1} and,
        when ``full``, its m, v and v_hat, d floats each. Empties ``buf``."""
        rows = np.fromiter(buf, dtype=np.float64, count=len(buf))
        rows = rows.reshape(-1, len(self._fields), self.grads.shape[1])
        for i, field in enumerate(self._fields):
            field[start:start + len(rows)] = rows[:, i]
        buf.clear()

    def stepped(self, t, loss, g, state):
        """The step loop's step-t loss and gradient, the iterate x_{t+1} and,
        when ``full``, the moments of the state step t returned."""
        self.losses[t - 1] = loss
        self.grads[t - 1] = g
        self.iterates[t] = state.x
        if self.full:
            self.m[t - 1] = state.m
            self.v[t - 1] = state.v
            self.v_hat[t - 1] = state.v_hat


def _step_columns(alpha, beta1s, weights, start, stop):
    """beta1_t, 1 - beta1_t, alpha_t and w_t for t = start + 1 .. stop as
    lists of floats: the part of a block of steps that does not depend on x.
    numpy's - and / on float64 and its sqrt round as Python's do."""
    b1s = beta1s[start:stop]
    return (b1s.tolist(), (1.0 - b1s).tolist(),
            (alpha / np.sqrt(np.arange(start + 1, stop + 1))).tolist(),
            weights[start:stop].tolist())


# The run kernel, from which ``_kernel`` generates one function per (d, full,
# form). Its fields: {d} the number of coordinates, {x} "x0, x1, ...," and
# likewise {lo}, {up}, {m}, {v} and {vh} for the box and the moments, which a
# step updates in place; {cs} and {cols} add the gradient's column c0, c1, ...
# to the loop, {grad} is the lines that give the gradient, {step} the
# coordinate steps, {total} the fused finiteness sum and {row} the history
# row a step appends. It returns True when the run is done, and False,
# handing the run back, at a gradient it cannot read or a step whose fused
# sum is not finite.
_KERNEL = """\
def kernel(problem, h, hist, beta1s, weights, column):
    grad, box = problem.grad, problem.box
    T = len(hist.losses)
    beta2, eps, cb2 = h.beta2, h.epsilon, 1.0 - h.beta2
    sqrt, isfinite = math.sqrt, math.isfinite
    array, asarray, float64 = np.array, np.asarray, np.float64
    {x} = hist.iterates[0].tolist()
    {lo} = box.lower.tolist()
    {up} = box.upper.tolist()
    {m} = {v} = {vh} = (0.0,) * {d}
    # the current block's rows, flat, as hist.store takes them
    buf = []
    for start in range(0, T, _BLOCK):
        stop = min(start + _BLOCK, T)
        for t, b1, cb1, a, w{cs} in zip(
                range(start + 1, stop + 1),
                *_step_columns(h.alpha, beta1s, weights, start, stop){cols}):
{grad}
{step}
            if not isfinite({total}):
                return False
            buf += ({row})
        hist.store(start, buf)
    return True
"""

# the gradient lines of each form: the call of the problem's grad, read as
# the step loop reads it, or the affine gradient x - c_t or -c_t read from
# the problem's column
_GRADIENTS = {
    "oracle": """\
try:
    gs = asarray(grad(t, array([{x}])), float64)
except Exception:
    return False
if gs.shape != ({d},):
    return False
{g} = gs.tolist()
""",
    "x-c": "g{i} = x{i} - c{i}\n",
    "-c": "g{i} = -c{i}\n",
}

# the form of an affine gradient s * x - c_t, by s
_AFFINE_FORMS = {1.0: "x-c", 0.0: "-c"}

# coordinate i of a step (z is the pre-clamp iterate)
_COORDINATE = """\
m{i} = b1 * m{i} + cb1 * g{i}
v{i} = beta2 * v{i} + cb2 * g{i} * g{i}
wvh = w * vh{i}
vh{i} = wvh if wvh > v{i} else v{i}
den = sqrt(vh{i}) + eps
z{i} = x{i} - a * (m{i} / den if den > 0.0 else 0.0)
y = z{i} if z{i} > lo{i} else lo{i}
x{i} = y if y < up{i} else up{i}
"""


@functools.lru_cache(maxsize=2 * len(_GRADIENTS) * SCALAR_MAX_DIM)
def _kernel(d, full, form):
    """The run kernel for d coordinates, keeping the moments when ``full``
    and taking the gradient in ``form``, a key of ``_GRADIENTS``: ``_KERNEL``
    with its coordinate lines written out, compiled on first use and
    registered with ``linecache`` so that tracebacks show its lines."""
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(d)) + ","

    def block(lines):
        return textwrap.indent(lines, " " * 12).rstrip("\n")

    def each(template):
        return block("".join(template.format(i=i) for i in range(d)))

    if form == "oracle":
        grad = block(_GRADIENTS[form].format(d=d, x=names("x"), g=names("g")))
        cs, cols = "", ""
    else:
        grad = each(_GRADIENTS[form])
        cs = ", " + names("c")
        cols = ",\n" + " " * 16 + "*column[start:stop].T.tolist()"
    src = _KERNEL.format(
        d=d, x=names("x"), lo=names("lo"), up=names("up"), m=names("m"), v=names("v"),
        vh=names("vh"), cs=cs, cols=cols, grad=grad, step=each(_COORDINATE),
        total=" + ".join(f"(m{i} + v{i} + vh{i} + z{i})" for i in range(d)),
        row=" ".join(names(q) for q in ("g", "x", "m", "v", "vh")[:5 if full else 2]))
    filename = f"<adamxlab run_scalar d={d}{' full' if full else ''} g={form}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace = {}
    exec(compile(src, filename, "exec"), globals(), namespace)
    return namespace["kernel"]


def run_scalar(rule, problem, h, hist):
    """A whole run of ``len(hist.losses)`` steps on ``problem``, on at most
    SCALAR_MAX_DIM coordinates, from a fresh state at ``hist.iterates[0]``,
    carried on Python floats by the generated kernel for (d, ``hist.full``)
    and the problem's gradient form.

    Step t takes beta1_t from ``beta1_sequence(h, T)``, w_t from
    ``weight_sequence(rule, h, T)`` and the gradient at x_t from the
    problem. A problem with ``affine_grad`` = (s, rows) gives it as x_t - c_t
    (s = 1) or -c_t (s = 0), with c_t read from the column ``rows(1, T + 1)``,
    fetched once per run and of shape (T, d) (ValueError otherwise, before
    the first step); any other problem's ``grad`` is called once a step on
    x_t as an array and read as float64. A step runs coordinate by
    coordinate, bitwise equal to ``_array_step`` on the states a run
    reaches, and appends its row to one flat list that ``hist.store`` takes
    ``_BLOCK`` rows at a time. After the steps the losses f_t(x_t) are scored
    by one ``problem.costs(T, X)`` call on the iterate rows; a non-finite one
    raises the oracle's fault at its own step, as the step loop would.

    Returns True when the run is done, its only output ``hist``. Returns
    False, having scored no loss, when the kernel cannot finish the run: a
    ``grad`` call raises or cannot be read as float64, a gradient is not
    shaped (d,), or a step's fused finiteness sum is not finite. The caller
    then runs the whole run again in the step loop, which gives its bytes
    or its fault.
    """
    T, d = hist.grads.shape
    if problem.affine_grad is None:
        form, column = "oracle", None
    else:
        s, rows = problem.affine_grad
        form = _AFFINE_FORMS[s]
        column = np.asarray(rows(1, T + 1), dtype=np.float64)
        if column.shape != (T, d):
            raise ValueError(f"affine_grad rows(1, {T + 1}) returned shape {column.shape}, "
                             f"expected ({T}, {d})")
    if not _kernel(d, hist.full, form)(problem, h, hist, beta1_sequence(h, T),
                                       weight_sequence(rule, h, T), column):
        return False
    losses = problem.costs(T, hist.iterates[:T])
    bad = ~np.isfinite(losses)
    if bad.any():
        raise _oracle_fault(int(bad.argmax()) + 1)
    hist.losses[:] = losses
    return True


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
