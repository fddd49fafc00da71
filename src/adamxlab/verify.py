"""Numeric verification of the optimizer guarantees.

Every guarantee the library claims is checked against recorded
trajectories rather than trusted: the sign-flip counterexample is
replayed against frozen constants, regret bounds are evaluated and
compared with measured regret, and each supporting inequality (max
second-moment bounds, scaled monotonicity, telescoping positivity, the
gradient-sum lemma, the closed-form running maximum) is re-derived from
the histories a run records.

All checks return structured ``CheckReport`` values instead of booleans
so failures carry both sides of the inequality and the step where it
broke.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import BoundUndefined, VerificationFailure
from .harness import quadratic_problem, run_oco, synthetic_problem
from .optimizers import HyperParams, Schedule, beta1_sequence

# Frozen values for the three-step sign-flip run (x1 = 1, comparator -1,
# alpha = 0.001, beta1 = 0.9 with exp decay lambda = 0.001, beta2 = 0.999).
# delta_t = (x_t - x*)^2 - (x_{t+1} - x*)^2 measures progress toward the
# comparator; the run makes delta_1 > 0 and delta_2 < 0, so the sequence
# of squared distances is not monotone.
GOLDEN_M1 = 101.0
GOLDEN_V1 = 1020.1
GOLDEN_X2 = 0.9968377223398316
GOLDEN_M2 = -9.9001
GOLDEN_V2 = 1019.1799000000001
GOLDEN_VHAT2 = 1020.1
GOLDEN_X3 = 0.9970569034941291
GOLDEN_DELTA1 = 0.012639110640673135
GOLDEN_DELTA2 = -0.0008753864342319062

_GOLDEN_TOL = 1e-12


def example_hyperparams():
    """The hyperparameters of the sign-flip run."""
    return HyperParams(alpha=0.001, beta1=0.9, beta2=0.999, lam=0.001,
                       schedule=Schedule.EXP_DECAY, epsilon=0.0)


@dataclass
class CheckReport:
    """One verified inequality: both sides, slack, and failure point.

    ``slack`` is rhs/lhs for bound checks (how loose the bound is) and
    the worst absolute difference for equality checks; ``t_failed`` is
    the first violating step when one exists.
    """

    check: str
    status: str
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    slack: Optional[float] = None
    t_failed: Optional[int] = None
    note: Optional[str] = None

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        def clean(v):
            if v is None or not math.isfinite(v):
                return None
            return float(v)

        out = {
            "check": self.check,
            "status": self.status,
            "lhs": clean(self.lhs),
            "rhs": clean(self.rhs),
            "slack": clean(self.slack),
        }
        if self.t_failed is not None:
            out["t_failed"] = int(self.t_failed)
        if self.note is not None:
            out["note"] = self.note
        return out


def _report(name, label, ok, lhs, rhs, slack, t_failed=None, note=None):
    """A pass/fail report for check ``name``, qualified as ``name[label]``
    when a label is given."""
    return CheckReport(check=f"{name}[{label}]" if label else name,
                       status="pass" if ok else "fail", lhs=lhs, rhs=rhs,
                       slack=slack, t_failed=t_failed, note=note)


def _ratio(lhs, rhs):
    return rhs / lhs if lhs > 0.0 else math.inf


def reproduce_counterexample():
    """Replay the two-step sign-flip run and return [(t, delta_t, sign)].

    The run goes through ``run_oco`` like every named run, so the frozen
    constants pin the run kernel that produces the library's results.
    Every intermediate quantity, the deltas against the comparator -1
    included, is compared against the frozen constants above; the first
    one that drifts beyond ``_GOLDEN_TOL`` raises VerificationFailure
    naming it, as does a wrong sign pattern.
    """
    trace = run_oco(synthetic_problem(), "amsgrad", example_hyperparams(), 2,
                    record_full=True)
    xs = trace.iterates[:, 0].tolist()
    ms = trace.m_history[:, 0].tolist()
    vs = trace.v_history[:, 0].tolist()
    vhats = trace.vhat_history[:, 0].tolist()

    # the gaps against the comparator -1: x - (-1) rounds exactly as x + 1.0
    deltas = [(xs[t] + 1.0) ** 2 - (xs[t + 1] + 1.0) ** 2 for t in (0, 1)]

    observed = [
        ("m1", ms[0], GOLDEN_M1),
        ("v1", vs[0], GOLDEN_V1),
        ("x2", xs[1], GOLDEN_X2),
        ("m2", ms[1], GOLDEN_M2),
        ("v2", vs[1], GOLDEN_V2),
        ("vhat2", vhats[1], GOLDEN_VHAT2),
        ("x3", xs[2], GOLDEN_X3),
        ("delta1", deltas[0], GOLDEN_DELTA1),
        ("delta2", deltas[1], GOLDEN_DELTA2),
    ]
    for name, got, want in observed:
        if abs(got - want) > _GOLDEN_TOL:
            raise VerificationFailure(f"{name} diverged: got {got!r}, expected {want!r}",
                                      quantity=name)
    if not (deltas[0] > 0.0 and deltas[1] < 0.0):
        raise VerificationFailure(f"expected delta1 > 0 > delta2, got {deltas}",
                                  quantity="delta_signs")

    return [(t + 1, d, "+" if d > 0 else "-") for t, d in enumerate(deltas)]


def check_counterexample():
    """Reports for the sign-flip replay: per-quantity match plus the flip."""
    try:
        rows = reproduce_counterexample()
    except VerificationFailure as err:
        return [_report("counterexample", err.quantity, False, None, None, None,
                        note=str(err))]
    d1, d2 = rows[0][1], rows[1][1]
    return [
        _report("counterexample", "delta1", abs(d1 - GOLDEN_DELTA1) <= _GOLDEN_TOL,
                d1, GOLDEN_DELTA1, abs(d1 - GOLDEN_DELTA1)),
        _report("counterexample", "delta2", abs(d2 - GOLDEN_DELTA2) <= _GOLDEN_TOL,
                d2, GOLDEN_DELTA2, abs(d2 - GOLDEN_DELTA2)),
        _report("counterexample", "sign_flip", d1 > 0.0 > d2, d1, d2, None,
                note="squared distance to the comparator moves down, then up"),
    ]


def _beta1_seq(beta1_seq, T):
    """``beta1_seq`` as a float64 array, which must hold one entry per step."""
    seq = np.asarray(beta1_seq, dtype=np.float64)
    if seq.shape != (T,):
        raise ValueError(f"beta1_seq must have length T={T}")
    return seq


def _scaled_vhat(vhat, seq):
    """sqrt(t * vhat_t)/(1 - beta_{1,t}) for t = 1..len(seq), one column per
    coordinate: the terms whose step-to-step differences Gamma_t the
    telescoping step of the regret proofs needs to be nonnegative."""
    ts = np.arange(1, len(seq) + 1, dtype=np.float64)[:, None]
    return np.sqrt(ts * vhat) / (1.0 - seq)[:, None]


def find_t0(h, vhat_history):
    """Smallest t0 past which sqrt(t*vhat_t)/(1-beta_{1,t}) is nondecreasing.

    beta_{1,t} follows h's schedule and the horizon T is the history's
    row count. The scan is over the recorded trajectory, every coordinate
    at once; the answer is the last step where the ordering fails (1 when
    it never fails, T when it still fails at the horizon, in which case
    the bound that consumes t0 degenerates to its worst case).
    """
    if vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    vh = np.asarray(vhat_history, dtype=np.float64)
    if vh.ndim == 1:
        vh = vh.reshape(-1, 1)

    scaled = _scaled_vhat(vh, beta1_sequence(h, len(vh)))
    fails = np.flatnonzero((scaled[1:] < scaled[:-1]).any(axis=1))
    return int(fails[-1]) + 2 if fails.size else 1


@dataclass
class BoundContext:
    """Constants a regret bound consumes, extracted from one finished run.

    ``h`` is the run's ``HyperParams``: the bounds and lemmas read alpha,
    beta1, beta2, lambda and gamma from it and keep no copy of their own.
    ``grad_col_norms`` holds the Euclidean norm of each coordinate's
    gradient history, sqrt(sum over t of g_{t,i}^2).
    """

    T: int
    d: int
    d_inf: float
    g_inf: float
    h: HyperParams
    t0: int
    grad_col_norms: Sequence[float]

    def __post_init__(self):
        if not 1 <= self.t0 <= self.T:
            raise ValueError(f"t0 must lie in [1, {self.T}], got {self.t0}")

    @classmethod
    def from_run(cls, trace, problem, h):
        G = trace.gradient_history
        return cls(T=trace.T, d=problem.d, d_inf=problem.box.diameter, g_inf=problem.g_inf,
                   h=h, t0=find_t0(h, trace.vhat_history),
                   grad_col_norms=[float(np.sqrt(np.sum(G[:, i] ** 2)))
                                   for i in range(problem.d)])


def _require_gamma(ctx):
    # HyperParams already rejects gamma > 1
    if ctx.h.gamma == 1.0:
        raise BoundUndefined("bound undefined at γ=1")


def _gradient_sum_term(ctx):
    h = ctx.h
    return (h.alpha * math.sqrt(math.log(ctx.T) + 1.0)
            / ((1.0 - h.beta1) ** 2 * math.sqrt(1.0 - h.beta2) * (1.0 - h.gamma))
            * float(np.sum(ctx.grad_col_norms)))


def amsgrad_bound_terms(ctx, schedule):
    """The three summands of the AMSGrad regret bound, separately."""
    schedule = Schedule(schedule)
    if schedule == Schedule.CONSTANT:
        raise ValueError("the bound requires a decaying beta1 schedule")
    _require_gamma(ctx)
    h = ctx.h
    base = ctx.d * ctx.d_inf ** 2 * ctx.g_inf
    lead = base / (2.0 * h.alpha * (1.0 - h.beta1))
    head = sum(math.sqrt(t) for t in range(1, ctx.t0 + 1))
    term1 = lead * (head + math.sqrt(ctx.T))
    if schedule == Schedule.EXP_DECAY:
        term2 = lead / (1.0 - h.lam) ** 2
    else:
        term2 = base * math.sqrt(ctx.T) / (h.alpha * (1.0 - h.beta1))
    return term1, term2, _gradient_sum_term(ctx)


def bound_amsgrad(ctx, schedule):
    """Regret upper bound for AMSGrad under a decaying beta1 schedule."""
    return sum(amsgrad_bound_terms(ctx, schedule))


def adamx_bound_terms(ctx, beta1_seq, statement_coefficients=False):
    """The three summands of the AdamX regret bound.

    The default uses (1-beta1)^2 in the first two denominators, the
    version the shipped derivation supports; ``statement_coefficients``
    switches to the (1-beta1) variant for comparison. The two differ by
    the factor 1/(1-beta1) on those terms and are otherwise identical.
    """
    _require_gamma(ctx)
    seq = _beta1_seq(beta1_seq, ctx.T)
    power = 1 if statement_coefficients else 2
    lead = (ctx.d * ctx.d_inf ** 2 * ctx.g_inf
            / (2.0 * ctx.h.alpha * (1.0 - ctx.h.beta1) ** power))
    term1 = lead * math.sqrt(ctx.T)
    if ctx.T > 1:
        ts = np.arange(2, ctx.T + 1, dtype=np.float64)
        term2 = lead * float(np.sum(seq[1:] * np.sqrt(ts - 1.0)))
    else:
        term2 = 0.0
    return term1, term2, _gradient_sum_term(ctx)


def bound_adamx(ctx, beta1_seq, statement_coefficients=False):
    """Regret upper bound for AdamX under any beta1 schedule."""
    return sum(adamx_bound_terms(ctx, beta1_seq, statement_coefficients))


def check_regret_bound(trace, bound, label=""):
    """Measured R(T) against a computed bound; slack is the looseness ratio."""
    lhs = float(trace.cumulative_regret[-1])
    rhs = float(bound)
    return _report("regret_bound", label, lhs <= rhs, lhs, rhs, _ratio(lhs, rhs))


def check_sum_lemma(trace, ctx, label=""):
    """Per coordinate: sum_t m_t^2/sqrt(t*vhat_t) against its closed bound.

    Terms with vhat = 0 contribute 0 (the moment is 0 there too). The
    report carries the worst coordinate.
    """
    if trace.m_history is None or trace.vhat_history is None:
        raise ValueError("m and vhat histories required; run with record_full")
    _require_gamma(ctx)
    ts = np.arange(1, trace.T + 1, dtype=np.float64)[:, None]
    denom = np.sqrt(ts * trace.vhat_history)
    contrib = np.zeros_like(denom)
    np.divide(trace.m_history ** 2, denom, out=contrib, where=denom > 0.0)
    lhs = contrib.sum(axis=0)
    coeff = (math.sqrt(math.log(trace.T) + 1.0)
             / ((1.0 - ctx.h.beta1) * math.sqrt(1.0 - ctx.h.beta2) * (1.0 - ctx.h.gamma)))
    rhs = coeff * np.asarray(ctx.grad_col_norms, dtype=np.float64)
    ok = bool(np.all(lhs <= rhs + 1e-9))
    worst = int(np.argmax(lhs - rhs))
    lhs, rhs = float(lhs[worst]), float(rhs[worst])
    return _report("sum_lemma", label, ok, lhs, rhs, _ratio(lhs, rhs))


def check_adamx_vhat_closed_form(trace, beta1_seq, label=""):
    """Recursive vhat against max_s ((1-b_t)^2/(1-b_s)^2) v_s, s <= t."""
    if trace.v_history is None or trace.vhat_history is None:
        raise ValueError("v and vhat histories required; run with record_full")
    seq = _beta1_seq(beta1_seq, trace.T)
    # max_s ((1-b_t)/(1-b_s))^2 v_s = (1-b_t)^2 * max_s v_s/(1-b_s)^2,
    # so one running maximum gives every t at once
    one_minus_sq = ((1.0 - seq) ** 2)[:, None]
    closed = one_minus_sq * np.maximum.accumulate(trace.v_history / one_minus_sq, axis=0)
    recursive = trace.vhat_history
    scale = np.maximum(np.abs(closed), np.abs(recursive))
    rel = np.abs(closed - recursive) / np.where(scale > 0.0, scale, 1.0)
    peaks = rel.max(axis=1)
    worst = float(np.fmax.reduce(peaks, initial=0.0))
    over = np.flatnonzero(peaks > 1e-12)
    t_failed = int(over[0]) + 1 if over.size else None
    return _report("adamx_vhat_closed_form", label, worst <= 1e-12, worst, 1e-12, worst,
                   t_failed)


def check_vhat_bound(trace, g_inf, beta1=None, label=""):
    """max sqrt(vhat) stays below g_inf, or g_inf/(1-beta1) for AdamX."""
    if trace.vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    lhs = float(np.sqrt(np.max(trace.vhat_history)))
    rhs = float(g_inf if beta1 is None else g_inf / (1.0 - beta1))
    name = "sqrt_vhat_le_gmax" if beta1 is None else "sqrt_vhat_le_gmax_scaled"
    return _report(name, label, lhs <= rhs + 1e-9, lhs, rhs, _ratio(lhs, rhs))


def _nondecreasing(name, rows, t_first, label):
    """Report whether no row of ``rows`` falls below the row above it.

    A coordinate may sit below its predecessor by 1e-9 * max(1,
    predecessor). Row i + 1 is step ``t_first + i``, which ``t_failed``
    names for the first row that falls; lhs and slack carry the smallest
    step-to-step difference (0.0 when there is only one row).
    """
    prev, cur = rows[:-1], rows[1:]
    falls = np.flatnonzero((cur < prev - 1e-9 * np.maximum(1.0, prev)).any(axis=1))
    t_failed = int(falls[0]) + t_first if falls.size else None
    worst = float(np.min(cur - prev)) if len(rows) > 1 else 0.0
    return _report(name, label, not falls.size, worst, 0.0, worst, t_failed)


def check_adamx_scaled_monotonicity(trace, beta1_seq, label=""):
    """sqrt(vhat_t)/(1-beta_{1,t}) never decreases along an AdamX run."""
    if trace.vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    seq = _beta1_seq(beta1_seq, trace.T)
    scaled = np.sqrt(trace.vhat_history) / (1.0 - seq)[:, None]
    return _nondecreasing("adamx_scaled_monotonicity", scaled, 2, label)


def check_telescoping_positivity(trace, beta1_seq, label=""):
    """sqrt(t*vhat_t)/(1-beta_{1,t}) minus its predecessor stays >= 0.

    The t = 1 term is compared against 0, so the whole telescoping
    sequence of an AdamX run is nonnegative step by step.
    """
    if trace.vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    terms = _scaled_vhat(trace.vhat_history, _beta1_seq(beta1_seq, trace.T))
    rows = np.vstack([np.zeros((1, terms.shape[1])), terms])
    return _nondecreasing("telescoping_positivity", rows, 1, label)


def decomposition_terms(trace, h):
    """The three summands that upper-bound regret for any feasible comparator.

    A: sum_t sqrt(vhat_t)/(2 alpha_t (1-beta_{1,t})) * ((x_t-x*)^2 - (x_{t+1}-x*)^2)
    B: sum_t alpha_t/(1-beta1) * m_t^2/sqrt(vhat_t)
    C: sum_{t>=2} beta_{1,t} sqrt(vhat_{t-1})/(2 alpha_{t-1} (1-beta1)) * (x_t-x*)^2
    """
    if trace.iterates is None or trace.m_history is None or trace.vhat_history is None:
        raise ValueError("iterate and moment histories required; run with record_full")
    T = trace.T
    sq = (trace.iterates - trace.comparator) ** 2
    alphas = h.alpha / np.sqrt(np.arange(1, T + 1, dtype=np.float64))
    b1s = beta1_sequence(h, T)
    sv = np.sqrt(trace.vhat_history)

    coeff_a = sv / (2.0 * alphas[:, None] * (1.0 - b1s)[:, None])
    term_a = float(np.sum(coeff_a * (sq[:-1] - sq[1:])))

    ratio = np.zeros_like(sv)
    np.divide(trace.m_history ** 2, sv, out=ratio, where=sv > 0.0)
    term_b = float(np.sum(alphas[:, None] / (1.0 - h.beta1) * ratio))

    if T > 1:
        coeff_c = (b1s[1:, None] * sv[:-1]
                   / (2.0 * alphas[:-1, None] * (1.0 - h.beta1)))
        term_c = float(np.sum(coeff_c * sq[1:-1]))
    else:
        term_c = 0.0
    return term_a, term_b, term_c


def check_decomposition(trace, h, label=""):
    """Measured R(T) against the sum of the three decomposition terms."""
    a, b, c = decomposition_terms(trace, h)
    lhs = float(trace.cumulative_regret[-1])
    rhs = a + b + c
    ok = lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
    return _report("regret_decomposition", label, ok, lhs, rhs, _ratio(lhs, rhs))


# Default corpus for the command-line verification suites: small enough
# to finish in seconds, varied enough to exercise both optimizers, both
# decaying schedules, and d > 1.
_BOUNDS_RUNS = (("synthetic", None, None, 2020),
                ("quadratic", 0, 1, 1000),
                ("quadratic", 1, 5, 1000))
_LEMMA_RUNS = (("synthetic", None, None, 1010),
               ("quadratic", 0, 2, 500))


def _suite_runs(runs, schedules, h):
    """Yield (optimizer, problem, hh, trace) for each corpus entry in
    ``runs`` under each schedule, amsgrad then adamx, with full histories."""
    base = h if h is not None else HyperParams()
    for kind, seed, d, T in runs:
        problem = synthetic_problem() if kind == "synthetic" else quadratic_problem(seed, d)
        for schedule in schedules:
            hh = replace(base, schedule=schedule)
            for optimizer in ("amsgrad", "adamx"):
                yield optimizer, problem, hh, run_oco(problem, optimizer, hh, T,
                                                      record_full=True)


def _unless_undefined(name, label, check):
    """``check()``'s report, or a failed ``name`` report whose note says why
    the bound it needs is undefined."""
    try:
        return check()
    except BoundUndefined as err:
        return _report(name, label, False, None, None, None, note=str(err))


def _bounds_suite(h=None):
    reports = []
    for optimizer, problem, hh, trace in _suite_runs(
            _BOUNDS_RUNS, (Schedule.EXP_DECAY, Schedule.INVERSE_T), h):
        label = f"{optimizer},{hh.schedule.value},{problem.name}"
        ctx = BoundContext.from_run(trace, problem, hh)

        def check():
            bound = (bound_amsgrad(ctx, hh.schedule) if optimizer == "amsgrad"
                     else bound_adamx(ctx, beta1_sequence(hh, trace.T)))
            return check_regret_bound(trace, bound, label=label)

        reports.append(_unless_undefined("regret_bound", label, check))
    return reports


def _lemmas_suite(h=None):
    reports = []
    for optimizer, problem, hh, trace in _suite_runs(_LEMMA_RUNS, (Schedule.EXP_DECAY,), h):
        label = f"{optimizer},{problem.name}"
        if optimizer == "amsgrad":
            reports.append(check_vhat_bound(trace, problem.g_inf, label=label))
        else:
            seq = beta1_sequence(hh, trace.T)
            reports += [
                check_vhat_bound(trace, problem.g_inf, beta1=hh.beta1, label=label),
                check_adamx_vhat_closed_form(trace, seq, label=label),
                check_adamx_scaled_monotonicity(trace, seq, label=label),
                check_telescoping_positivity(trace, seq, label=label),
            ]
        ctx = BoundContext.from_run(trace, problem, hh)
        reports.append(_unless_undefined(
            "sum_lemma", label, lambda: check_sum_lemma(trace, ctx, label=label)))
        reports.append(check_decomposition(trace, hh, label=label))
    return reports


SUITES = ("counterexample", "bounds", "lemmas", "all")


def run_suite(selector, h=None):
    """Run one named verification suite (or all) and collect the reports."""
    if selector == "counterexample":
        return check_counterexample()
    if selector == "bounds":
        return _bounds_suite(h)
    if selector == "lemmas":
        return _lemmas_suite(h)
    if selector == "all":
        return (check_counterexample() + _bounds_suite(h) + _lemmas_suite(h))
    raise ValueError(f"unknown suite {selector!r}; choose from {SUITES}")
