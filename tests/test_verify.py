"""Bound formulas, lemma checks, and the counter-example reproduction.

The closed-form bound values below were evaluated by hand before being
asserted. Worked example (T=1, d=1, box diameter 2, gradient bound 1010,
alpha=0.001, beta1=0.9, beta2=0.999, lambda=0.001, t0=1, column norm 1010):

  past-cost term   = 4*1010/(2*0.001*0.1) * (sqrt(1) + sqrt(1)) = 40.4e6
  momentum term    = 4*1010/(2*0.001*0.1*0.999^2)               = 20.24e6   (exp)
                   = 4*1010*sqrt(1)/(0.001*0.1)                 = 40.4e6    (inv)
  gradient term    = 0.001*sqrt(ln 1+1)/(0.01*sqrt(0.001)*(1-gamma)) * 1010
                   = 32083.488...   with gamma = 0.9/sqrt(0.999)
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from adamxlab import (BoundContext, BoundUndefined, FeasibleBox, HyperParams,
                      ProblemInstance, Schedule, VerificationFailure, adamx_bound_terms,
                      amsgrad_bound_terms, beta1_at, beta1_sequence, bound_adamx,
                      bound_amsgrad, check_adamx_scaled_monotonicity,
                      check_adamx_vhat_closed_form, check_counterexample,
                      check_decomposition, check_regret_bound, check_sum_lemma,
                      check_telescoping_positivity, check_vhat_bound,
                      alpha_at, decomposition_terms, find_t0,
                      quadratic_problem, reproduce_counterexample, run_oco,
                      run_suite, synthetic_problem)
from adamxlab import harness, verify
from adamxlab.optimizers import beta1_rule, run_scalar
from adamxlab.verify import SUITES, example_hyperparams

H_EXP = example_hyperparams()
H_INV = HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001,
                    schedule=Schedule.INVERSE_T)


def reference_context(T=1, t0=1):
    return BoundContext(T=T, d=1, d_inf=2.0, g_inf=1010.0,
                        h=HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001),
                        t0=t0, grad_col_norms=np.array([1010.0] * 1))


# ------------------------------------------------------------ counterexample

def test_counterexample_rows():
    rows = reproduce_counterexample()
    assert rows == [(1, 0.012639110640673135, "+"),
                    (2, -0.0008753864342319062, "-")]


def test_counterexample_sign_structure():
    rows = reproduce_counterexample()
    assert rows[0][1] > 0 and rows[0][2] == "+"
    assert rows[1][1] < 0 and rows[1][2] == "-"


def test_counterexample_inverts_against_plus_one():
    # against the comparator +1 the first squared-distance gap flips sign,
    # which is exactly what makes the -1 case a counter-example
    xs = run_oco(synthetic_problem(), "amsgrad", H_EXP, 2, record_iterates=True).iterates[:, 0]
    assert (xs[0] - 1.0) ** 2 - (xs[1] - 1.0) ** 2 < 0


def test_counterexample_golden_guard_names_first_divergence(monkeypatch):
    # at zero tolerance the first quantity to differ from its recorded
    # decimal is m1 (stored as 100.99999999999997, recorded as 101)
    monkeypatch.setattr(verify, "_GOLDEN_TOL", 0.0)
    with pytest.raises(VerificationFailure) as info:
        reproduce_counterexample()
    assert info.value.quantity == "m1"


def test_counterexample_replays_through_the_run_kernel(monkeypatch):
    # the golden constants pin the kernel that every named run takes
    calls = []

    def counting(rule, problem, *rest):
        calls.append(problem.d)
        return run_scalar(rule, problem, *rest)

    monkeypatch.setattr(harness, "run_scalar", counting)
    reproduce_counterexample()
    assert calls == [1]


def test_check_counterexample_reports():
    reports = check_counterexample()
    assert [r.check for r in reports] == ["counterexample[delta1]",
                                          "counterexample[delta2]",
                                          "counterexample[sign_flip]"]
    assert all(r.status == "pass" for r in reports)


# ------------------------------------------------------------- bound values

def test_amsgrad_bound_terms_exp():
    terms = amsgrad_bound_terms(reference_context(), Schedule.EXP_DECAY)
    assert terms[0] == 40400000.00000001
    assert terms[1] == 20240460.680901125
    assert terms[2] == 32083.48843775786
    assert bound_amsgrad(reference_context(), Schedule.EXP_DECAY) == 60672544.16933889


def test_amsgrad_bound_terms_inv():
    terms = amsgrad_bound_terms(reference_context(), Schedule.INVERSE_T)
    assert terms[0] == 40400000.00000001
    assert terms[1] == 40400000.00000001
    assert bound_amsgrad(reference_context(), Schedule.INVERSE_T) == 80832083.48843777


def test_adamx_bound_terms():
    # with T=1 the momentum sum over t >= 2 is empty
    terms = adamx_bound_terms(reference_context(), np.array([0.9]))
    assert terms[0] == 202000000.0000001
    assert terms[1] == 0.0
    assert terms[2] == 32083.48843775786
    assert bound_adamx(reference_context(), np.array([0.9])) == 202032083.48843786


def test_adamx_statement_coefficient_flag():
    # the statement variant divides the past-cost term by (1-beta1) once
    # instead of twice: 202e6 * 0.1 = 20.2e6
    proof = adamx_bound_terms(reference_context(), np.array([0.9]))
    stmt = adamx_bound_terms(reference_context(), np.array([0.9]),
                             statement_coefficients=True)
    assert stmt[0] == 20200000.000000004
    assert stmt[1] == proof[1]
    assert stmt[2] == proof[2]


def test_bound_scales_exactly_with_alpha():
    ctx1 = reference_context()
    ctx2 = replace(ctx1, h=replace(ctx1.h, alpha=0.002))
    a = amsgrad_bound_terms(ctx1, Schedule.EXP_DECAY)
    b = amsgrad_bound_terms(ctx2, Schedule.EXP_DECAY)
    # the first two terms carry alpha in the denominator, the third in the
    # numerator; doubling alpha is exact in floating point
    assert b[0] == a[0] / 2.0
    assert b[1] == a[1] / 2.0
    assert b[2] == a[2] * 2.0


def test_zero_gradients_zero_out_gradient_term():
    ctx = BoundContext(T=5, d=2, d_inf=2.0, g_inf=1.0, h=H_EXP, t0=1,
                       grad_col_norms=np.zeros(2))
    assert amsgrad_bound_terms(ctx, Schedule.EXP_DECAY)[2] == 0.0
    assert adamx_bound_terms(ctx, beta1_sequence(H_EXP, 5))[2] == 0.0


def test_bound_monotone_in_horizon():
    prev_ams = {Schedule.EXP_DECAY: 0.0, Schedule.INVERSE_T: 0.0}
    prev_adx = 0.0
    for T in (10, 100, 1000):
        ctx = reference_context(T=T)
        for sched in prev_ams:
            value = bound_amsgrad(ctx, sched)
            assert value >= prev_ams[sched]
            prev_ams[sched] = value
        value = bound_adamx(ctx, beta1_sequence(H_EXP, T))
        assert value >= prev_adx
        prev_adx = value


def test_gamma_one_is_undefined():
    # beta2 = 0.81 makes sqrt(beta2) exactly 0.9, so gamma == 1
    ctx = BoundContext(T=1, d=1, d_inf=2.0, g_inf=1.0, h=replace(H_EXP, beta2=0.81), t0=1,
                       grad_col_norms=np.array([1.0]))
    assert ctx.h.gamma == 1.0
    with pytest.raises(BoundUndefined, match="bound undefined at γ=1"):
        bound_amsgrad(ctx, Schedule.EXP_DECAY)
    with pytest.raises(BoundUndefined):
        bound_adamx(ctx, np.array([0.9]))


def test_adamx_momentum_term_is_direct_sum():
    # constant schedule: sum over t=2..T of beta1*sqrt(t-1), scaled by
    # d*D^2*G/(2*alpha*(1-beta1)^2); replay with plain floats
    T = 50
    ctx = reference_context(T=T)
    seq = np.full(T, 0.9)
    coeff = 1 * 4.0 * 1010.0 / (2 * 0.001 * (1 - 0.9) ** 2)
    direct = coeff * sum(0.9 * math.sqrt(t - 1) for t in range(2, T + 1))
    term = adamx_bound_terms(ctx, seq)[1]
    assert abs(term - direct) <= 1e-9 * direct


def test_adamx_momentum_term_growth_rate():
    # a constant schedule keeps every beta1_t at beta1, so the momentum sum
    # behaves like T^(3/2): quadrupling T multiplies it by about 8
    small = adamx_bound_terms(reference_context(T=250), np.full(250, 0.9))[1]
    large = adamx_bound_terms(reference_context(T=1000), np.full(1000, 0.9))[1]
    assert 7.0 <= large / small <= 9.0


def test_exp_decay_momentum_sum_stays_below_closed_form():
    # sum of t*lam^(t-1) converges to 1/(1-lam)^2; the closed form used by
    # the decaying-schedule bound must dominate every partial sum
    for lam in (0.5, 0.9, 0.999):
        closed = 1.0 / (1.0 - lam) ** 2
        partial = 0.0
        for t in range(1, 2001):
            partial += t * lam ** (t - 1)
            assert partial <= closed + 1e-9 * closed


def test_beta1_sequence_matches_schedule():
    seq = beta1_sequence(H_EXP, 4)
    np.testing.assert_array_equal(
        seq, np.array([0.9, 0.9 * 0.001, 0.9 * 0.001 ** 2, 0.9 * 0.001 ** 3]))
    seq_inv = beta1_sequence(H_INV, 3)
    np.testing.assert_array_equal(seq_inv, np.array([0.9, 0.45, 0.3]))


@pytest.mark.parametrize("schedule", list(Schedule))
def test_beta1_sequence_is_one_read_only_column_per_h_and_T(schedule):
    h = HyperParams(beta1=0.9, lam=0.999, schedule=schedule)
    seq = beta1_sequence(h, 600)
    assert beta1_sequence(replace(h), 600) is seq
    assert beta1_sequence(h, 601) is not seq
    with pytest.raises(ValueError, match="read-only"):
        seq[0] = 0.5
    fresh = np.fromiter(map(beta1_rule(h), range(1, 601)), dtype=np.float64)
    assert [float(b).hex() for b in seq] == [float(b).hex() for b in fresh]


def test_beta1_sequence_keeps_the_sign_of_a_zero_beta1():
    # the two HyperParams compare equal, so the column memo must tell them apart
    for schedule in Schedule:
        h = HyperParams(beta1=0.0, schedule=schedule)
        assert beta1_sequence(h, 3).tolist() == [0.0] * 3
        signs = np.signbit(beta1_sequence(replace(h, beta1=-0.0), 3))
        assert signs.all() and not np.signbit(beta1_sequence(h, 3)).any()


# ------------------------------------------------------------------- t0

def find_t0_schedule(schedule, h, T):
    """Trajectory-free variant of find_t0: scans the schedule-only sufficient
    condition (1 - beta_{1,t-1})/(1 - beta_{1,t}) >= sqrt(1 - 1/t), which
    forces the trajectory condition whenever vhat is nondecreasing."""
    if schedule is not None and Schedule(schedule) != h.schedule:
        h = replace(h, schedule=Schedule(schedule))
    last_fail = 1
    for t in range(2, T + 1):
        ratio = (1.0 - beta1_at(t - 1, h)) / (1.0 - beta1_at(t, h))
        if ratio < math.sqrt(1.0 - 1.0 / t):
            last_fail = t
    return last_fail


def test_t0_schedule_goldens():
    # exp decay repairs the schedule condition from t=3 on, inverse-t from
    # t=4 on, constant never violates it
    assert find_t0_schedule(Schedule.EXP_DECAY, H_EXP, 1000) == 2
    assert find_t0_schedule(Schedule.INVERSE_T, H_INV, 1000) == 3
    assert find_t0_schedule(Schedule.CONSTANT, HyperParams(schedule="const"), 1000) == 1


def test_t0_trajectory_agrees_with_schedule_on_synthetic():
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 1000, record_full=True)
    assert find_t0(H_EXP, tr.vhat_history) == 2
    tr_inv = run_oco(p, "amsgrad", H_INV, 1000, record_full=True)
    assert find_t0(H_INV, tr_inv.vhat_history) == 3


def test_t0_hand_example():
    # constant schedule reduces the condition to t*vhat_t >= (t-1)*vhat_{t-1};
    # vhat = [4, 1] violates it at t=2 (2*1 < 1*4), so t0 = T = 2
    h = HyperParams(schedule=Schedule.CONSTANT)
    vhat = np.array([[4.0], [1.0]])
    assert find_t0(h, vhat) == 2
    # vhat = [1, 4] satisfies it everywhere, so t0 = 1
    assert find_t0(h, np.array([[1.0], [4.0]])) == 1


def test_t0_requires_history():
    with pytest.raises(ValueError):
        find_t0(H_EXP, None)


def test_context_from_run():
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 100, record_full=True)
    ctx = BoundContext.from_run(tr, p, H_EXP)
    assert ctx.T == 100
    assert ctx.d == 1
    assert ctx.d_inf == 2.0
    assert ctx.g_inf == 1010.0
    assert ctx.t0 == 2
    expected_norm = math.sqrt(float(np.sum(tr.gradient_history ** 2)))
    assert abs(ctx.grad_col_norms[0] - expected_norm) <= 1e-12 * expected_norm
    assert ctx.h is H_EXP


def test_context_column_norms():
    # column 0: sqrt(9 + 16) = 5, column 1: sqrt(0 + 4) = 2
    g = np.array([[3.0, 0.0], [4.0, 2.0]])
    p = ProblemInstance(d=2, cost=lambda t, x: 0.0, grad=lambda t, x: g[t - 1],
                        box=FeasibleBox.cube(-1.0, 1.0, 2), g_inf=4.0,
                        costs=lambda T, x: np.zeros(T),
                        comparator_for=lambda T: np.zeros(2))
    tr = run_oco(p, "amsgrad", H_EXP, 2, record_full=True)
    np.testing.assert_array_equal(tr.gradient_history, g)
    assert BoundContext.from_run(tr, p, H_EXP).grad_col_norms == [5.0, 2.0]


# ------------------------------------------------------------ lemma checks

def test_sum_lemma_two_step_golden():
    # lhs = 101^2/sqrt(1020.1) + 9.9001^2/sqrt(2*1020.1) = 321.5599...
    # rhs = sqrt(ln 2+1)/(0.1*sqrt(0.001)*(1-gamma)) * sqrt(1010^2+10^2)
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 2, record_full=True)
    ctx = BoundContext.from_run(tr, p, H_EXP)
    report = check_sum_lemma(tr, ctx)
    assert report.status == "pass"
    assert report.lhs == 321.5599590226665
    assert report.rhs == 4174939.868261048


def test_sum_lemma_needs_histories():
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 2)
    ctx = reference_context(T=2)
    with pytest.raises(ValueError):
        check_sum_lemma(tr, ctx)


def test_vhat_bound_rules():
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 300, record_full=True)
    assert check_vhat_bound(tr, p.g_inf).status == "pass"
    tx = run_oco(p, "adamx", H_EXP, 300, record_full=True)
    assert check_vhat_bound(tx, p.g_inf, beta1=0.9).status == "pass"


def test_vhat_bound_scaled_rule_is_necessary():
    # beta2 = 0.81 makes (1-beta2) large enough that the rescaled maximum
    # overshoots G_inf itself: sqrt(99.82 * 0.19) = 4.36 > 1, so only the
    # G_inf/(1-beta1) form can hold for the rescaling rule
    h = HyperParams(alpha=0.001, beta1=0.9, beta2=0.81, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    p = synthetic_problem()
    tx = run_oco(p, "adamx", h, 10, record_full=True)
    assert check_vhat_bound(tx, p.g_inf).status == "fail"
    assert check_vhat_bound(tx, p.g_inf, beta1=0.9).status == "pass"


def test_adamx_closed_form_short_run():
    p = synthetic_problem()
    tr = run_oco(p, "adamx", H_EXP, 50, record_full=True)
    report = check_adamx_vhat_closed_form(tr, beta1_sequence(H_EXP, 50))
    assert report.status == "pass"


def test_adamx_closed_form_detects_tampering():
    p = synthetic_problem()
    tr = run_oco(p, "adamx", H_EXP, 50, record_full=True)
    tr.vhat_history[30, 0] *= 1.0 + 1e-6
    report = check_adamx_vhat_closed_form(tr, beta1_sequence(H_EXP, 50))
    assert report.status == "fail"
    assert report.t_failed == 31


def test_adamx_closed_form_interval_one():
    p = synthetic_problem()
    tr = run_oco(p, "adamx", H_EXP, 1, record_full=True)
    report = check_adamx_vhat_closed_form(tr, beta1_sequence(H_EXP, 1))
    assert report.status == "pass"


# ---------------------------------------- rewritten checks vs loop references

def loop_find_t0(h, vhat, T):
    """The per-step scan that the vectorized find_t0 replaced."""
    last_fail = 1
    prev = np.sqrt(vhat[0]) / (1.0 - beta1_at(1, h))
    for t in range(2, T + 1):
        cur = np.sqrt(t * vhat[t - 1]) / (1.0 - beta1_at(t, h))
        if np.any(cur < prev):
            last_fail = t
        prev = cur
    return last_fail


def loop_monotonicity(trace, seq):
    """check_adamx_scaled_monotonicity as a per-step scan; returns
    (status, t_failed, worst)."""
    worst, t_failed = 0.0 if trace.T == 1 else math.inf, None
    prev = np.sqrt(trace.vhat_history[0]) / (1.0 - seq[0])
    for t in range(2, trace.T + 1):
        cur = np.sqrt(trace.vhat_history[t - 1]) / (1.0 - seq[t - 1])
        if t_failed is None and np.any(cur < prev - 1e-9 * np.maximum(1.0, prev)):
            t_failed = t
        worst = min(worst, float(np.min(cur - prev)))
        prev = cur
    return ("pass" if t_failed is None else "fail"), t_failed, worst


def loop_telescoping(trace, seq):
    """check_telescoping_positivity as a per-step scan, the t = 1 term
    compared against 0; returns (status, t_failed, worst)."""
    worst, t_failed = math.inf, None
    prev = np.zeros(trace.vhat_history.shape[1])
    for t in range(1, trace.T + 1):
        cur = np.sqrt(t * trace.vhat_history[t - 1]) / (1.0 - seq[t - 1])
        if t_failed is None and np.any(cur < prev - 1e-9 * np.maximum(1.0, prev)):
            t_failed = t
        worst = min(worst, float(np.min(cur - prev)))
        prev = cur
    return ("pass" if t_failed is None else "fail"), t_failed, worst


def quadratic_closed_form(trace, seq):
    """The O(T^2) closed-form check that the running maximum replaced;
    returns (status, worst, t_failed)."""
    one_minus = 1.0 - seq
    worst, t_failed = 0.0, None
    for t in range(1, trace.T + 1):
        weights = (one_minus[t - 1] / one_minus[:t]) ** 2
        closed = np.max(weights[:, None] * trace.v_history[:t], axis=0)
        recursive = trace.vhat_history[t - 1]
        scale = np.maximum(np.abs(closed), np.abs(recursive))
        rel = np.abs(closed - recursive) / np.where(scale > 0.0, scale, 1.0)
        peak = float(np.max(rel))
        if peak > worst:
            worst = peak
            if peak > 1e-12 and t_failed is None:
                t_failed = t
    return ("pass" if worst <= 1e-12 else "fail"), worst, t_failed


EQUIV_T = 500


@pytest.fixture(scope="module")
def equivalence_runs():
    """amsgrad and adamx on the synthetic problem and a d=5 quadratic,
    under both decaying schedules; amsgrad histories fail the closed form."""
    runs = []
    for problem in (synthetic_problem(), quadratic_problem(7, 5)):
        for h in (H_EXP, H_INV):
            for optimizer in ("amsgrad", "adamx"):
                runs.append((h, run_oco(problem, optimizer, h, EQUIV_T, record_full=True)))
    return runs


# (row, factor): scale the step-(row+1) vhat; 1 - 1e-13 stays inside the
# 1e-12 tolerance, the others break it and the t0 ordering; 1 - 1e-8 moves
# a scaled term by about 5e-9 of itself, past the ordering checks' 1e-9
@pytest.mark.parametrize("tamper", [None, (0, 0.5), (1, 1.0 + 1e-9), (137, 1.0 - 1e-13),
                                    (250, 2.0), (251, 0.25), (300, 1.0 - 1e-8),
                                    (EQUIV_T - 1, 0.5)])
def test_rewritten_checks_match_loop_references(equivalence_runs, tamper):
    for h, run in equivalence_runs:
        trace = replace(run, vhat_history=run.vhat_history.copy())
        if tamper is not None:
            row, factor = tamper
            trace.vhat_history[row] *= factor
        assert (find_t0(h, trace.vhat_history)
                == loop_find_t0(h, trace.vhat_history, EQUIV_T))
        seq = beta1_sequence(h, EQUIV_T)
        report = check_adamx_vhat_closed_form(trace, seq)
        status, worst, t_failed = quadratic_closed_form(trace, seq)
        assert (report.status, report.t_failed) == (status, t_failed)
        assert abs(report.lhs - worst) <= 1e-15
        for check, loop in ((check_adamx_scaled_monotonicity, loop_monotonicity),
                            (check_telescoping_positivity, loop_telescoping)):
            report = check(trace, seq)
            status, t_failed, worst = loop(trace, seq)
            assert (report.status, report.t_failed) == (status, t_failed)
            assert report.lhs == report.slack == worst


def test_ordering_checks_on_a_one_step_run():
    tr = run_oco(synthetic_problem(), "adamx", H_EXP, 1, record_full=True)
    seq = beta1_sequence(H_EXP, 1)
    for check, loop in ((check_adamx_scaled_monotonicity, loop_monotonicity),
                        (check_telescoping_positivity, loop_telescoping)):
        report = check(tr, seq)
        assert (report.status, report.t_failed, report.lhs) == loop(tr, seq)
    assert check_adamx_scaled_monotonicity(tr, seq).lhs == 0.0


def test_monotonicity_and_telescoping_on_adamx():
    p = quadratic_problem(2, 3)
    tr = run_oco(p, "adamx", H_EXP, 400, record_full=True)
    seq = beta1_sequence(H_EXP, 400)
    assert check_adamx_scaled_monotonicity(tr, seq).status == "pass"
    assert check_telescoping_positivity(tr, seq).status == "pass"


def test_monotonicity_flags_first_violation():
    p = quadratic_problem(2, 1)
    tr = run_oco(p, "adamx", H_EXP, 50, record_full=True)
    tr.vhat_history[20, 0] = 0.0
    seq = beta1_sequence(H_EXP, 50)
    report = check_adamx_scaled_monotonicity(tr, seq)
    assert report.status == "fail"
    assert report.t_failed == 21


SEQ_T = 20


def seq_checks():
    p = synthetic_problem()
    tr = run_oco(p, "adamx", H_EXP, SEQ_T, record_full=True)
    ctx = BoundContext.from_run(tr, p, H_EXP)
    return {
        "adamx_bound_terms": lambda seq: adamx_bound_terms(ctx, seq),
        "closed_form": lambda seq: check_adamx_vhat_closed_form(tr, seq),
        "monotonicity": lambda seq: check_adamx_scaled_monotonicity(tr, seq),
        "telescoping": lambda seq: check_telescoping_positivity(tr, seq),
    }


@pytest.mark.parametrize("length", [1, SEQ_T - 1])
@pytest.mark.parametrize("name", ["adamx_bound_terms", "closed_form", "monotonicity",
                                  "telescoping"])
def test_beta1_seq_of_wrong_length_is_rejected(name, length):
    # a one-entry sequence would otherwise broadcast and judge a run that did not happen
    check = seq_checks()[name]
    check(beta1_sequence(H_EXP, SEQ_T))
    with pytest.raises(ValueError, match=f"length T={SEQ_T}"):
        check(beta1_sequence(H_EXP, length))


def test_amsgrad_trajectory_can_fail_adamx_monotonicity_check():
    # the plain maximum does not rescale, so on the exp schedule the scaled
    # sequence sqrt(t*vhat)/(1-beta1_t) of AMSGrad jumps DOWN from t=1 to
    # t=2 (the 1/(1-beta1_t) factor collapses from 10 to about 1.001)
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 10, record_full=True)
    seq = beta1_sequence(H_EXP, 10)
    assert check_adamx_scaled_monotonicity(tr, seq).status == "fail"


# ------------------------------------------------------ composite checks

def test_regret_bound_check_and_slack():
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 500, record_full=True)
    ctx = BoundContext.from_run(tr, p, H_EXP)
    report = check_regret_bound(tr, bound_amsgrad(ctx, Schedule.EXP_DECAY))
    assert report.status == "pass"
    assert report.slack == report.rhs / report.lhs
    assert check_regret_bound(tr, 0.0).status == "fail"


def test_decomposition_bounds_regret():
    for h, name in ((H_EXP, "amsgrad"), (H_INV, "amsgrad"), (H_EXP, "adamx")):
        p = synthetic_problem()
        tr = run_oco(p, name, h, 300, record_full=True)
        a, b, c = decomposition_terms(tr, h)
        assert a >= 0.0 and b >= 0.0 and c >= 0.0
        report = check_decomposition(tr, h)
        assert report.status == "pass"
        assert report.lhs == tr.cumulative_regret[-1]
        assert report.rhs == a + b + c


def reference_decomposition_terms(trace, h):
    """decomposition_terms with the step sizes built by alpha_at per t."""
    T = trace.T
    sq = (trace.iterates - trace.comparator) ** 2
    alphas = np.array([alpha_at(t, h) for t in range(1, T + 1)])
    b1s = beta1_sequence(h, T)
    sv = np.sqrt(trace.vhat_history)
    coeff_a = sv / (2.0 * alphas[:, None] * (1.0 - b1s)[:, None])
    term_a = float(np.sum(coeff_a * (sq[:-1] - sq[1:])))
    ratio = np.zeros_like(sv)
    np.divide(trace.m_history ** 2, sv, out=ratio, where=sv > 0.0)
    term_b = float(np.sum(alphas[:, None] / (1.0 - h.beta1) * ratio))
    coeff_c = (b1s[1:, None] * sv[:-1]
               / (2.0 * alphas[:-1, None] * (1.0 - h.beta1)))
    term_c = float(np.sum(coeff_c * sq[1:-1]))
    return term_a, term_b, term_c


def test_vectorized_step_sizes_equal_alpha_at():
    # alpha / sqrt(t) over an array is bitwise the scalar alpha_at at the
    # decay horizon, so decomposition_terms may build its step sizes at once
    ts = np.arange(1, 50_501, dtype=np.float64)
    for alpha in (0.001, 0.1, 1.0 / 3.0, 7.0):
        h = replace(H_EXP, alpha=alpha)
        np.testing.assert_array_equal(
            h.alpha / np.sqrt(ts), np.array([alpha_at(int(t), h) for t in ts]))
    for h in (H_EXP, H_INV):
        tr = run_oco(quadratic_problem(3, 2), "adamx", h, 300, record_full=True)
        assert decomposition_terms(tr, h) == reference_decomposition_terms(tr, h)


def test_report_serialization():
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 10, record_full=True)
    ctx = BoundContext.from_run(tr, p, H_EXP)
    report = check_sum_lemma(tr, ctx, label="demo")
    payload = report.to_dict()
    assert set(payload) == {"check", "status", "lhs", "rhs", "slack"}
    assert payload["check"] == "sum_lemma[demo]"
    json.dumps(payload)
    report.t_failed = 3
    assert report.to_dict()["t_failed"] == 3


def test_report_serialization_maps_non_finite_to_null():
    p = synthetic_problem()
    tr = run_oco(p, "amsgrad", H_EXP, 10, record_full=True)
    report = check_regret_bound(tr, float("inf"))
    payload = report.to_dict()
    assert payload["rhs"] is None
    assert json.dumps(payload)


# -------------------------------------------------------------- the suites

def test_run_suite_counterexample():
    reports = run_suite("counterexample")
    assert len(reports) == 3
    assert all(r.status == "pass" for r in reports)


def test_run_suite_all_passes():
    reports = run_suite("all")
    assert len(reports) > 20
    assert all(r.status == "pass" for r in reports)


# SHA-256 of the JSON list of every report's to_dict() from run_suite("all"):
# a label, the report order, a value or a note that moves changes it
@pytest.mark.parametrize("beta2, digest", [
    (None, "0292130520416f810f024ea48ef4695000a03a4e00b8715eaaf6c6b6ea802cb6"),
    (0.81, "8d9546623c108998dde89b6fbd33936169d445fd81e237674c0ebe64f3fa8f2c"),
])
def test_run_suite_all_reports_are_pinned(beta2, digest):
    h = None if beta2 is None else HyperParams(beta2=beta2)
    payload = json.dumps([r.to_dict() for r in run_suite("all", h=h)])
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_run_suite_rejects_unknown_selector():
    with pytest.raises(ValueError):
        run_suite("everything")
    assert SUITES == ("counterexample", "bounds", "lemmas", "all")


def test_bounds_suite_reports_gamma_edge():
    h = HyperParams(alpha=0.001, beta1=0.9, beta2=0.81, lam=0.001,
                    schedule=Schedule.EXP_DECAY)
    reports = run_suite("bounds", h=h)
    assert reports
    assert all(r.status == "fail" for r in reports)
    assert all(r.note == "bound undefined at γ=1" for r in reports)
