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

from adamxlab import (FeasibleBox, HyperParams, NumericFault, Schedule,
                      beta1_at, beta1_sequence, fresh_state, quadratic_problem,
                      resolve_stepper, run_oco, step_adam, step_adamx, step_amsgrad,
                      synthetic_problem)
from adamxlab import optimizers
from adamxlab.optimizers import (SCALAR_MAX_DIM, STEPPERS, OptimizerState, _raw, alpha_at,
                                 run_scalar)

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


# Fault tests run on one coordinate and on several, where the bad entry is
# the last one.
DIMS = (1, 5)


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


def step_outcome(stepper, state, g, h=H_REF):
    """The outcome of one step on the box [-1, 1]^d."""
    box = FeasibleBox.cube(-1.0, 1.0, state.x.shape[0])
    return outcome(lambda: stepper(state, g, h, box))


def last_coordinate(d, value):
    return np.r_[np.zeros(d - 1), value]


def test_non_finite_moment_raises_numeric_fault():
    # g = 1e200 overflows g*g to inf inside the v recursion
    for d in DIMS:
        got = step_outcome(step_amsgrad, fresh_state(np.zeros(d)), last_coordinate(d, 1e200))
        assert got == (NumericFault, "non-finite v at step 1", 1)


@pytest.mark.parametrize("stepper", [step_adam, step_amsgrad, step_adamx])
def test_non_finite_iterate_raises_numeric_fault(stepper):
    # m, v and v_hat stay finite; alpha * update = 1e308 * 3.16 overflows
    h = HyperParams(alpha=1e308, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    for d in DIMS:
        got = step_outcome(stepper, fresh_state(np.zeros(d)), last_coordinate(d, 1.0), h)
        assert got == (NumericFault, "non-finite x at step 1", 1)


def test_overflowing_finiteness_sum_is_not_a_fault():
    # v = v_hat = 0.001 * (3e155)^2 = 9e307 is finite, but the fused
    # finiteness sum m + v + v_hat + x overflows, even at d = 1
    with np.errstate(over="ignore"):
        one = step_amsgrad(fresh_state(np.zeros(1)), np.array([3e155]), H_REF, BOX_REF)
    for d in DIMS:
        g = np.full(d, 3e155)
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
        got = step_outcome(stepper, fresh_state(np.zeros(d)), g(d))
        assert got[0] is ValueError


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


# ------------------------------------------------------------ run kernel

@pytest.mark.parametrize("schedule", list(Schedule))
def test_run_kernel_beta1_is_beta1_sequence(schedule):
    # lam = 0.999 keeps beta1_t away from zero over the whole horizon, where
    # numpy's power would differ from Python's ** in the last bit
    h = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.999, schedule=schedule)
    p, T = synthetic_problem(), 50500
    losses, grads, m_hist = np.empty(T), np.empty((T, 1)), np.empty((T, 1))
    state = run_scalar(_raw, p.grad, p.costs, h, p.box, p.x1, losses, grads,
                       m_hist=m_hist, v_hist=np.empty((T, 1)), vhat_hist=np.empty((T, 1)))
    seq = beta1_sequence(h, T)
    # the schedules written out once more, as the reference
    written = {Schedule.CONSTANT: lambda t: 0.9,
               Schedule.EXP_DECAY: lambda t: 0.9 * 0.999 ** (t - 1),
               Schedule.INVERSE_T: lambda t: 0.9 / t}[schedule]
    assert seq.tobytes() == np.array([written(t) for t in range(1, T + 1)]).tobytes()
    assert state.t == T and state.beta1_prev == seq[-1]
    m_prev = np.r_[0.0, m_hist[:-1, 0]]
    assert np.array_equal(m_hist[:, 0], seq * m_prev + (1.0 - seq) * grads[:, 0])


def test_named_run_builds_no_state_per_step(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("t"))
        return OptimizerState(*args, **kwargs)

    monkeypatch.setattr(optimizers, "OptimizerState", counting)
    T = 50
    for d in (1, SCALAR_MAX_DIM):
        built.clear()
        run_oco(quadratic_problem(1, d), "adamx", H_REF, T, record_full=True)
        assert built == [T]
    # the counter sees the step loop's states: the fresh one and one per step
    built.clear()
    run_oco(quadratic_problem(1, SCALAR_MAX_DIM), step_adamx, H_REF, T)
    assert len(built) == T + 1
