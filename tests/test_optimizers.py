"""Step-rule unit tests pinned to hand-computed reference values.

The reference sequence is the periodic linear cost on [-1, 1] whose
gradient is 1010 when t % 101 == 1 and -10 otherwise, started at x = 1
with alpha = 0.001, beta1 = 0.9, beta2 = 0.999, lambda = 0.001 and the
exponential schedule. All decimals in comments were computed by hand
from the recursions and frozen before being compared to the code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamxlab import (FeasibleBox, HyperParams, NumericFault, Schedule,
                      beta1_at, fresh_state, resolve_stepper, run_oco,
                      step_adam, step_adamx, step_amsgrad, synthetic_problem)
from adamxlab.numerics import project_box
from adamxlab.optimizers import (SCALAR_MAX_DIM, STEPPERS, OptimizerState, _array_step,
                                 _raw, _rescaled_max, _running_max, _scalar_step,
                                 _step, alpha_at)

H_REF = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
BOX_REF = FeasibleBox.cube(-1.0, 1.0, 1)


def advance(stepper, grads, h=H_REF, box=BOX_REF, x1=1.0):
    state = fresh_state(np.array([float(x1)]))
    for g in grads:
        state = stepper(state, np.array([float(g)]), h, box)
    return state


# ---------------------------------------------------------------- schedules

def test_beta1_constant():
    h = HyperParams(schedule=Schedule.CONSTANT, beta1=0.7)
    assert beta1_at(1, h) == 0.7
    assert beta1_at(1000, h) == 0.7


def test_beta1_exp_decay():
    # beta1 * lam^(t-1): 0.9, 0.9*0.001, 0.9*0.001^2
    assert beta1_at(1, H_REF) == 0.9
    assert beta1_at(2, H_REF) == 0.0009000000000000001
    assert beta1_at(3, H_REF) == 9e-07


def test_beta1_inverse_t():
    h = HyperParams(schedule=Schedule.INVERSE_T)
    assert beta1_at(1, h) == 0.9
    assert beta1_at(2, h) == 0.45
    # 0.9/9 is exact in binary floating point
    assert beta1_at(9, h) == 0.1


def test_beta1_rejects_step_zero():
    with pytest.raises(ValueError):
        beta1_at(0, H_REF)


def test_alpha_decays_with_sqrt_t():
    assert alpha_at(1, H_REF) == 0.001
    assert alpha_at(4, H_REF) == 0.0005


# ------------------------------------------------------------- hyperparams

def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(alpha=0.0)
    with pytest.raises(ValueError):
        HyperParams(beta1=1.0)
    with pytest.raises(ValueError):
        HyperParams(beta1=-0.1)
    with pytest.raises(ValueError):
        HyperParams(beta2=1.0)
    with pytest.raises(ValueError):
        HyperParams(beta2=0.0)
    with pytest.raises(ValueError):
        HyperParams(lam=1.0)
    with pytest.raises(ValueError):
        HyperParams(epsilon=-1e-9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            HyperParams(alpha=bad)
        with pytest.raises(ValueError):
            HyperParams(epsilon=bad)


def test_gamma_above_one_rejected():
    # 0.95/sqrt(0.81) = 0.95/0.9 > 1
    with pytest.raises(ValueError):
        HyperParams(beta1=0.95, beta2=0.81)


def test_gamma_exactly_one_allowed():
    # sqrt(0.81) is exactly 0.9, so beta1=0.9 sits exactly on the edge;
    # construction is legal, only the bound evaluation refuses it
    h = HyperParams(beta1=0.9, beta2=0.81)
    assert h.gamma == 1.0


def test_schedule_accepts_string_value():
    h = HyperParams(schedule="inv")
    assert h.schedule is Schedule.INVERSE_T


# ------------------------------------------------------- amsgrad reference

def test_amsgrad_first_step():
    # m1 = 0.1 * 1010 = 101, v1 = 0.001 * 1010^2 = 1020.1,
    # x2 = 1 - 0.001 * 101/sqrt(1020.1) = 0.99683772233983...
    # (the stored floats carry the rounding of 1-0.9 and 1-0.999)
    s = advance(step_amsgrad, [1010.0])
    assert s.t == 1
    assert s.beta1_prev == 0.9
    assert s.m[0] == 100.99999999999997
    assert s.v[0] == 1020.1000000000009
    assert s.v_hat[0] == s.v[0]
    assert s.x[0] == 0.9968377223398316


def test_amsgrad_second_step():
    # beta1_2 = 0.9*0.001 = 0.0009
    # m2 = 0.0009*101 + 0.9991*(-10) = 0.0909 - 9.991 = -9.9001
    # v2 = 0.999*1020.1 + 0.001*100 = 1019.0799 + 0.1 = 1019.1799
    # vhat2 = max(1020.1, 1019.1799) = 1020.1  (the maximum holds)
    # x3 = x2 - (0.001/sqrt(2)) * (-9.9001)/sqrt(1020.1) = 0.99705690349...
    s = advance(step_amsgrad, [1010.0, -10.0])
    assert s.m[0] == -9.9001
    assert s.v[0] == 1019.179900000001
    assert s.v_hat[0] == 1020.1000000000009
    assert s.x[0] == 0.9970569034941291


def test_amsgrad_vhat_never_decreases():
    rng = np.random.default_rng(3)
    h = HyperParams(schedule=Schedule.CONSTANT)
    box = FeasibleBox.cube(-5.0, 5.0, 4)
    state = fresh_state(np.zeros(4))
    prev = state.v_hat.copy()
    for _ in range(300):
        state = step_amsgrad(state, rng.normal(size=4), h, box)
        assert np.all(state.v_hat >= prev)
        prev = state.v_hat.copy()


# --------------------------------------------------------- adamx reference

def test_adamx_first_step_matches_amsgrad():
    a = advance(step_amsgrad, [1010.0])
    b = advance(step_adamx, [1010.0])
    assert a.x[0] == b.x[0]
    assert a.v_hat[0] == b.v_hat[0]


def test_adamx_second_step():
    # rescale factor ((1-0.0009)/(1-0.9))^2 = 9.991^2 = 99.820081
    # vhat2 = max(99.820081 * 1020.1, 1019.1799) = 101826.4646...
    # x3 = x2 - (0.001/sqrt(2)) * (-9.9001)/sqrt(101826.46...) = 0.99685966...
    s = advance(step_adamx, [1010.0, -10.0])
    assert s.m[0] == -9.9001
    assert s.v_hat[0] == 101826.46462810013
    assert s.x[0] == 0.9968596601993349


def test_adamx_constant_schedule_equals_amsgrad():
    # with constant beta1 the rescale factor is exactly 1, so the two
    # rules produce bitwise identical trajectories
    h = HyperParams(schedule=Schedule.CONSTANT)
    rng = np.random.default_rng(11)
    box = FeasibleBox.cube(-2.0, 2.0, 3)
    sa = fresh_state(np.zeros(3))
    sx = fresh_state(np.zeros(3))
    for _ in range(200):
        g = rng.normal(size=3)
        sa = step_amsgrad(sa, g, h, box)
        sx = step_adamx(sx, g, h, box)
        assert np.array_equal(sa.x, sx.x)
        assert np.array_equal(sa.v_hat, sx.v_hat)


def test_adamx_requires_beta1_prev_from_step_two():
    state = fresh_state(np.zeros(1))
    state = step_adamx(state, np.array([1.0]), H_REF, BOX_REF)
    state.beta1_prev = None
    with pytest.raises(ValueError):
        step_adamx(state, np.array([1.0]), H_REF, BOX_REF)


# ---------------------------------------------------------- adam reference

def test_adam_tracks_raw_second_moment():
    # identical to AMSGrad through step 1; at step 2 the denominator is
    # v2 = 1019.1799 instead of the held maximum 1020.1, so the step is
    # slightly larger: x3 = x2 + (0.001/sqrt(2)) * 9.9001/sqrt(1019.1799)
    s = advance(step_adam, [1010.0, -10.0])
    assert s.v_hat[0] == s.v[0] == 1019.179900000001
    assert s.x[0] == 0.9970570024085037


def test_adam_ten_steps_against_straight_line_recursion():
    # replay the recursions with plain floats and compare every iterate
    h = HyperParams(alpha=0.01, beta1=0.8, beta2=0.99, lam=0.5,
                    schedule=Schedule.EXP_DECAY)
    rng = np.random.default_rng(21)
    grads = rng.normal(scale=3.0, size=10)
    x, m, v = 0.0, 0.0, 0.0
    state = fresh_state(np.zeros(1))
    box = FeasibleBox.cube(-10.0, 10.0, 1)
    for t, g in enumerate(grads, start=1):
        b1 = 0.8 * 0.5 ** (t - 1)
        m = b1 * m + (1.0 - b1) * g
        v = 0.99 * v + 0.01 * g * g
        x = x - (0.01 / math.sqrt(t)) * m / math.sqrt(v)
        x = min(10.0, max(-10.0, x))
        state = step_adam(state, np.array([g]), h, box)
        assert abs(state.x[0] - x) <= 1e-12 * max(1.0, abs(x))


# ------------------------------------------------------------ shared rules

def test_projection_applied_after_update():
    # with alpha = 1000 the raw update is about +31.6, far above the box,
    # so the iterate must come back to the boundary
    h = HyperParams(alpha=1000.0, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    s = advance(step_amsgrad, [-1000.0], h=h, x1=0.5)
    assert s.x[0] == 1.0


def test_zero_gradient_keeps_iterate_with_zero_eps():
    # all-zero history makes m = v = 0; the 0/0 update resolves to 0
    for stepper in (step_amsgrad, step_adamx, step_adam):
        s = advance(stepper, [0.0, 0.0, 0.0], x1=0.25)
        assert s.x[0] == 0.25


def test_epsilon_enters_denominator():
    h = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY, epsilon=1.0)
    # denominator becomes sqrt(1020.1) + 1, shrinking the first step
    s = advance(step_amsgrad, [1010.0], h=h)
    expected = 1.0 - 0.001 * 100.99999999999997 / (math.sqrt(1020.1000000000009) + 1.0)
    assert s.x[0] == expected


# Fault tests run at d = 1 and 5 (the scalar kernel) and at d = 17 (the
# numpy kernel); both kernels must raise the same exception, message and step.
DIMS = (1, 5, SCALAR_MAX_DIM + 1)
RULES = {step_adam: _raw, step_amsgrad: _running_max, step_adamx: _rescaled_max}


def outcome(step):
    """The state ``step()`` returns as bytes, or the type, message and step
    of what it raised."""
    with np.errstate(all="ignore"):
        try:
            s = step()
        except (ValueError, NumericFault) as exc:
            return type(exc), str(exc), getattr(exc, "step", None)
    return (s.x.tobytes(), s.m.tobytes(), s.v.tobytes(), s.v_hat.tobytes(),
            s.t, s.beta1_prev)


def step_both(stepper, state, g, h=H_REF):
    """The outcome of one step, checked to be that of both kernels."""
    box, rule = FeasibleBox.cube(-1.0, 1.0, state.x.shape[0]), RULES[stepper]
    got = outcome(lambda: stepper(state, g, h, box))
    assert got == outcome(lambda: _scalar_step(state, g, h, box, rule))
    assert got == outcome(lambda: _array_step(state, g, h, box, rule))
    return got


def last_coordinate(d, value):
    return np.r_[np.zeros(d - 1), value]


def test_non_finite_moment_raises_numeric_fault():
    # g = 1e200 overflows g*g to inf inside the v recursion
    for d in DIMS:
        got = step_both(step_amsgrad, fresh_state(np.zeros(d)), last_coordinate(d, 1e200))
        assert got == (NumericFault, "non-finite v at step 1", 1)


@pytest.mark.parametrize("stepper", [step_adam, step_amsgrad, step_adamx])
def test_non_finite_iterate_raises_numeric_fault(stepper):
    # m, v and v_hat stay finite; alpha * update = 1e308 * 3.16 overflows
    h = HyperParams(alpha=1e308, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    for d in DIMS:
        got = step_both(stepper, fresh_state(np.zeros(d)), last_coordinate(d, 1.0), h)
        assert got == (NumericFault, "non-finite x at step 1", 1)


def test_overflowing_finiteness_sum_is_not_a_fault():
    # v = v_hat = 0.001 * (3e155)^2 = 9e307 is finite, but the fused
    # finiteness sum m + v + v_hat + x overflows, even at d = 1
    with np.errstate(over="ignore"):
        one = step_amsgrad(fresh_state(np.zeros(1)), np.array([3e155]), H_REF, BOX_REF)
    for d in DIMS:
        g = np.full(d, 3e155)
        step_both(step_amsgrad, fresh_state(np.zeros(d)), g)
        with np.errstate(over="ignore"):
            s = step_amsgrad(fresh_state(np.zeros(d)), g, H_REF, FeasibleBox.cube(-1.0, 1.0, d))
        assert np.all(np.isfinite(s.v)) and np.all(s.v == s.v[0]) and s.v[0] > 8e307
        assert np.array_equal(s.x, np.repeat(one.x, d))


# each entry maps d to a bad gradient for a d-coordinate state
@pytest.mark.parametrize("stepper", [step_adam, step_amsgrad, step_adamx])
@pytest.mark.parametrize("g", [lambda d: last_coordinate(d, np.nan),
                               lambda d: last_coordinate(d, np.inf),
                               lambda d: last_coordinate(d, -np.inf),
                               lambda d: np.ones(d + 1),
                               lambda d: np.ones((1, d)),
                               lambda d: np.array([])],
                         ids=[f"g{i}" for i in range(6)])
def test_direct_call_rejects_bad_gradient(stepper, g):
    for d in DIMS:
        got = step_both(stepper, fresh_state(np.zeros(d)), g(d))
        assert got[0] is ValueError


SPECIAL_G = [0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170, 1e200]
# moments a run can reach, and ones only a hand-built state holds: -0.0
# and a negative second moment (whose root numpy makes NaN), or a NaN or
# inf previous v_hat (a NaN must win the maximum, as in np.maximum)
REACHABLE_MOMENTS = [0.0, 1e-300, 2.5, 1e4]
MOMENTS = [None, REACHABLE_MOMENTS, REACHABLE_MOMENTS + [-0.0, -1.0],
           REACHABLE_MOMENTS + [math.nan, math.inf]]


@st.composite
def kernel_cases(draw):
    """A rule, hyperparameters, a box, a start state in it and a few gradients,
    at d = 1 to 20, across the threshold between the kernels."""
    d = draw(st.integers(1, 20))

    def vector(elements):
        return np.array(draw(st.lists(elements, min_size=d, max_size=d)), dtype=float)

    rule = draw(st.sampled_from([_raw, _running_max, _rescaled_max]))
    beta2 = draw(st.floats(0.5, 0.9999))
    h = HyperParams(
        alpha=draw(st.sampled_from([1e-3, 0.1, 3.0])),
        beta1=draw(st.floats(0.0, math.sqrt(beta2))),
        beta2=beta2,
        lam=draw(st.floats(1e-3, 0.999)),
        schedule=draw(st.sampled_from(list(Schedule))),
        epsilon=draw(st.sampled_from([0.0, 0.0, 1e-8, 1.0])))
    # degenerate coordinates, and signed zeros on both kinds of bound
    lower = vector(st.sampled_from([0.0, -0.0, -1.0, -0.5, 2.0]))
    box = FeasibleBox(lower, lower + vector(st.sampled_from([0.0, 0.25, 1.0, 2.0])))
    # a start equal to its projection keeps its sign, so -0.0 can sit on a
    # bound of 0.0, where the clamp's tie rule decides the sign of the result
    raw = vector(st.sampled_from([-0.0, 0.0, 0.3, -0.7, 2.1]))
    x1 = project_box(raw, box)
    state = fresh_state(np.where(x1 == raw, raw, x1))
    moments = draw(st.sampled_from(MOMENTS))
    if moments is not None:
        t = draw(st.integers(1, 5))
        finite = [e for e in moments if math.isfinite(e)]
        state.m = vector(st.sampled_from(finite + [-3.0]))
        state.v = vector(st.sampled_from(finite))
        state.v_hat = vector(st.sampled_from(moments))
        state.t, state.beta1_prev = t, beta1_at(t, h)
    entries = st.one_of(st.sampled_from(SPECIAL_G), st.floats(-1e3, 1e3))
    grads = [vector(entries) for _ in range(draw(st.integers(1, 6)))]
    return rule, h, box, state, grads


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_scalar_kernel_is_bitwise_the_numpy_step(case):
    rule, h, box, state, grads = case
    for g in grads:
        got = outcome(lambda: _step(state, g, h, box, rule))
        assert got == outcome(lambda: _scalar_step(state, g, h, box, rule))
        assert got == outcome(lambda: _array_step(state, g, h, box, rule))
        if not isinstance(got[0], bytes):
            break
        with np.errstate(all="ignore"):
            state = _array_step(state, g, h, box, rule)


# hand-built states at the edges of numpy's rules, each as
# (lower, upper, x, m, v, v_hat, g), one coordinate each
EDGE_STATES = {
    "max-tie-signed-zero": (-1.0, 1.0, 0.5, 0.0, 0.0, -0.0, 0.0),
    "nan-previous-vhat": (-1.0, 1.0, 0.5, 0.0, 1.0, math.nan, 1.0),
    "negative-v-root-is-nan": (-1.0, 1.0, 0.5, 1.0, -5.0, 0.0, 1e-3),
    "clamp-tie-at-lower-zero": (0.0, 1.0, -0.0, 0.0, 0.0, 0.0, 0.0),
    "clamp-tie-at-upper-zero": (-1.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0),
    "clamp-tie-at-lower-minus-zero": (-0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "zero-denominator-with-momentum": (-1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 1e-170),
}


@pytest.mark.parametrize("rule", [_raw, _running_max, _rescaled_max],
                         ids=["raw", "running_max", "rescaled_max"])
@pytest.mark.parametrize("edge", EDGE_STATES.values(), ids=EDGE_STATES.keys())
def test_kernels_agree_on_edge_states(edge, rule):
    lower, upper, x, m, v, v_hat, g = edge
    for d in (1, 3):
        state = OptimizerState(x=np.full(d, x), m=np.full(d, m), v=np.full(d, v),
                               v_hat=np.full(d, v_hat), t=1, beta1_prev=0.9)
        box = FeasibleBox(np.full(d, lower), np.full(d, upper))
        grad = np.full(d, g)
        got = outcome(lambda: _scalar_step(state, grad, H_REF, box, rule))
        assert got == outcome(lambda: _array_step(state, grad, H_REF, box, rule))


def test_scalar_gradient_is_a_length_one_vector():
    a = step_amsgrad(fresh_state(np.ones(1)), 1010.0, H_REF, BOX_REF)
    b = advance(step_amsgrad, [1010.0])
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v_hat, b.v_hat)


def test_box_dimension_must_match_state():
    with pytest.raises(ValueError):
        step_amsgrad(fresh_state(np.zeros(3)), np.ones(3), H_REF, BOX_REF)


def test_resolve_stepper():
    assert resolve_stepper("amsgrad") is step_amsgrad
    assert resolve_stepper("adamx") is step_adamx
    assert resolve_stepper("adam") is step_adam
    assert resolve_stepper(step_adam) is step_adam
    with pytest.raises(ValueError):
        resolve_stepper("sgd")
    assert sorted(STEPPERS) == ["adam", "adamx", "amsgrad"]


def test_state_time_index_advances():
    s = advance(step_adamx, [1.0, 2.0, 3.0], x1=0.0)
    assert s.t == 3
    # beta1_prev holds the weight of the latest step: 0.9 * 0.001^2
    assert s.beta1_prev == 9e-07


def test_run_oco_agrees_with_manual_stepping():
    p = synthetic_problem()
    trace = run_oco(p, "amsgrad", H_REF, 3, record_iterates=True)
    state = fresh_state(np.array([1.0]))
    for t in range(1, 4):
        g = p.grad(t, state.x)
        state = step_amsgrad(state, g, H_REF, p.box)
        assert np.array_equal(trace.iterates[t], state.x)
