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
from .numerics import l2_norm_columns
from .optimizers import HyperParams, Schedule, beta1_rule, fresh_state, step_amsgrad

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


def _status(ok):
    return "pass" if ok else "fail"


def _ratio(lhs, rhs):
    return rhs / lhs if lhs > 0.0 else math.inf


def reproduce_counterexample(comparator=-1.0, tol=_GOLDEN_TOL):
    """Replay the two-step sign-flip run and return [(t, delta_t, sign)].

    With the default comparator -1 every intermediate quantity is
    compared against the frozen constants above; the first one that
    drifts beyond ``tol`` raises VerificationFailure naming it, as does
    a wrong sign pattern. Passing a different comparator re-evaluates
    the deltas against that point (the trajectory itself does not
    depend on the comparator).
    """
    problem = synthetic_problem()
    h = example_hyperparams()
    state = fresh_state(problem.x1)
    xs = [float(state.x[0])]
    ms, vs, vhats = [], [], []
    for t in (1, 2):
        g = problem.grad(t, state.x)
        state = step_amsgrad(state, g, h, problem.box)
        xs.append(float(state.x[0]))
        ms.append(float(state.m[0]))
        vs.append(float(state.v[0]))
        vhats.append(float(state.v_hat[0]))

    deltas = [(xs[t] - comparator) ** 2 - (xs[t + 1] - comparator) ** 2
              for t in (0, 1)]

    if comparator == -1.0:
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
            if abs(got - want) > tol:
                raise VerificationFailure(
                    f"{name} diverged: got {got!r}, expected {want!r}",
                    quantity=name)
        if not (deltas[0] > 0.0 and deltas[1] < 0.0):
            raise VerificationFailure(
                f"expected delta1 > 0 > delta2, got {deltas}",
                quantity="delta_signs")

    return [(t + 1, d, "+" if d > 0 else "-") for t, d in enumerate(deltas)]


def check_counterexample():
    """Reports for the sign-flip replay: per-quantity match plus the flip."""
    try:
        rows = reproduce_counterexample()
    except VerificationFailure as err:
        return [CheckReport(check=f"counterexample[{err.quantity}]",
                            status="fail", note=str(err))]
    d1, d2 = rows[0][1], rows[1][1]
    return [
        CheckReport(check="counterexample[delta1]", status=_status(abs(d1 - GOLDEN_DELTA1) <= _GOLDEN_TOL),
                    lhs=d1, rhs=GOLDEN_DELTA1, slack=abs(d1 - GOLDEN_DELTA1)),
        CheckReport(check="counterexample[delta2]", status=_status(abs(d2 - GOLDEN_DELTA2) <= _GOLDEN_TOL),
                    lhs=d2, rhs=GOLDEN_DELTA2, slack=abs(d2 - GOLDEN_DELTA2)),
        CheckReport(check="counterexample[sign_flip]", status=_status(d1 > 0.0 > d2),
                    lhs=d1, rhs=d2,
                    note="squared distance to the comparator moves down, then up"),
    ]


def beta1_sequence(h, T):
    """beta_{1,t} for t = 1..T as an array (entry t-1 holds step t)."""
    # built from the stepper's own scalar expressions: numpy's power is not
    # bitwise equal to Python's ** (h.beta1 * h.lam ** (ts - 1) differs in
    # 2406 of 50500 entries at beta1 = 0.9, lam = 0.999)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    return np.fromiter(map(beta1_rule(h), range(1, T + 1)), dtype=np.float64, count=T)


def _beta1_seq(beta1_seq, T):
    """``beta1_seq`` as a float64 array, which must hold one entry per step."""
    seq = np.asarray(beta1_seq, dtype=np.float64)
    if seq.shape != (T,):
        raise ValueError(f"beta1_seq must have length T={T}")
    return seq


def find_t0(h, vhat_history, T):
    """Smallest t0 past which sqrt(t*vhat_t)/(1-beta_{1,t}) is nondecreasing.

    beta_{1,t} follows h's schedule. The scan is over the recorded
    trajectory, every coordinate at once; the answer is the last step
    where the ordering fails (1 when it never fails, T when it still
    fails at the horizon, in which case the bound that consumes t0
    degenerates to its worst case).
    """
    if vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    vh = np.asarray(vhat_history, dtype=np.float64)
    if vh.ndim == 1:
        vh = vh.reshape(-1, 1)
    if vh.shape[0] < T:
        raise ValueError(f"history has {vh.shape[0]} rows, need {T}")

    ts = np.arange(1, T + 1, dtype=np.float64)[:, None]
    scaled = np.sqrt(ts * vh[:T]) / (1.0 - beta1_sequence(h, T))[:, None]
    fails = np.flatnonzero((scaled[1:] < scaled[:-1]).any(axis=1))
    return int(fails[-1]) + 2 if fails.size else 1


@dataclass
class BoundContext:
    """Constants a regret bound consumes, extracted from one finished run."""

    T: int
    d: int
    d_inf: float
    g_inf: float
    alpha: float
    beta1: float
    beta2: float
    lam: float
    gamma: float
    t0: int
    grad_col_norms: Sequence[float]

    def __post_init__(self):
        if self.gamma != self.beta1 / math.sqrt(self.beta2):
            raise ValueError("gamma must equal beta1/sqrt(beta2) as computed")
        if not 1 <= self.t0 <= self.T:
            raise ValueError(f"t0 must lie in [1, {self.T}], got {self.t0}")

    @classmethod
    def from_run(cls, trace, problem, h):
        return cls(
            T=trace.T,
            d=problem.d,
            d_inf=problem.box.diameter,
            g_inf=problem.g_inf,
            alpha=h.alpha,
            beta1=h.beta1,
            beta2=h.beta2,
            lam=h.lam,
            gamma=h.gamma,
            t0=find_t0(h, trace.vhat_history, trace.T),
            grad_col_norms=[l2_norm_columns(trace.gradient_history, i)
                            for i in range(problem.d)],
        )


def _require_gamma(ctx):
    if ctx.gamma >= 1.0:
        if ctx.gamma == 1.0:
            raise BoundUndefined("bound undefined at γ=1")
        raise BoundUndefined(f"bound undefined for γ ≥ 1 (γ={ctx.gamma})")


def _gradient_sum_term(ctx):
    return (ctx.alpha * math.sqrt(math.log(ctx.T) + 1.0)
            / ((1.0 - ctx.beta1) ** 2 * math.sqrt(1.0 - ctx.beta2) * (1.0 - ctx.gamma))
            * float(np.sum(ctx.grad_col_norms)))


def amsgrad_bound_terms(ctx, schedule):
    """The three summands of the AMSGrad regret bound, separately."""
    schedule = Schedule(schedule)
    if schedule == Schedule.CONSTANT:
        raise ValueError("the bound requires a decaying beta1 schedule")
    _require_gamma(ctx)
    base = ctx.d * ctx.d_inf ** 2 * ctx.g_inf
    lead = base / (2.0 * ctx.alpha * (1.0 - ctx.beta1))
    head = sum(math.sqrt(t) for t in range(1, ctx.t0 + 1))
    term1 = lead * (head + math.sqrt(ctx.T))
    if schedule == Schedule.EXP_DECAY:
        term2 = lead / (1.0 - ctx.lam) ** 2
    else:
        term2 = base * math.sqrt(ctx.T) / (ctx.alpha * (1.0 - ctx.beta1))
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
            / (2.0 * ctx.alpha * (1.0 - ctx.beta1) ** power))
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
    name = f"regret_bound[{label}]" if label else "regret_bound"
    return CheckReport(check=name, status=_status(lhs <= rhs),
                       lhs=lhs, rhs=rhs, slack=_ratio(lhs, rhs))


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
             / ((1.0 - ctx.beta1) * math.sqrt(1.0 - ctx.beta2) * (1.0 - ctx.gamma)))
    rhs = coeff * np.asarray(ctx.grad_col_norms, dtype=np.float64)
    worst = int(np.argmax(lhs - rhs))
    ok = bool(np.all(lhs <= rhs + 1e-9))
    name = f"sum_lemma[{label}]" if label else "sum_lemma"
    return CheckReport(check=name, status=_status(ok),
                       lhs=float(lhs[worst]), rhs=float(rhs[worst]),
                       slack=_ratio(float(lhs[worst]), float(rhs[worst])))


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
    name = f"adamx_vhat_closed_form[{label}]" if label else "adamx_vhat_closed_form"
    return CheckReport(check=name, status=_status(worst <= 1e-12),
                       lhs=worst, rhs=1e-12, slack=worst, t_failed=t_failed)


def check_vhat_bound(trace, g_inf, beta1=None, label=""):
    """max sqrt(vhat) stays below g_inf, or g_inf/(1-beta1) for AdamX."""
    if trace.vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    lhs = float(np.sqrt(np.max(trace.vhat_history)))
    rhs = g_inf if beta1 is None else g_inf / (1.0 - beta1)
    suffix = "sqrt_vhat_le_gmax" if beta1 is None else "sqrt_vhat_le_gmax_scaled"
    name = f"{suffix}[{label}]" if label else suffix
    return CheckReport(check=name, status=_status(lhs <= rhs + 1e-9),
                       lhs=lhs, rhs=float(rhs), slack=_ratio(lhs, float(rhs)))


def check_adamx_scaled_monotonicity(trace, beta1_seq, label=""):
    """sqrt(vhat_t)/(1-beta_{1,t}) never decreases along an AdamX run."""
    if trace.vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    seq = _beta1_seq(beta1_seq, trace.T)
    scaled = np.sqrt(trace.vhat_history) / (1.0 - seq)[:, None]
    tol = 1e-9 * np.maximum(1.0, scaled[:-1])
    bad = scaled[1:] < scaled[:-1] - tol
    t_failed = int(np.argwhere(bad.any(axis=1))[0][0]) + 2 if bad.any() else None
    worst = float(np.min(scaled[1:] - scaled[:-1])) if trace.T > 1 else 0.0
    name = f"adamx_scaled_monotonicity[{label}]" if label else "adamx_scaled_monotonicity"
    return CheckReport(check=name, status=_status(not bad.any()),
                       lhs=worst, rhs=0.0, slack=worst, t_failed=t_failed)


def check_telescoping_positivity(trace, beta1_seq, label=""):
    """sqrt(t*vhat_t)/(1-beta_{1,t}) minus its predecessor stays >= 0.

    The t = 1 term is compared against 0, so the whole telescoping
    sequence of an AdamX run is nonnegative step by step.
    """
    if trace.vhat_history is None:
        raise ValueError("vhat history required; run with record_full")
    seq = _beta1_seq(beta1_seq, trace.T)
    ts = np.arange(1, trace.T + 1, dtype=np.float64)[:, None]
    terms = np.sqrt(ts * trace.vhat_history) / (1.0 - seq)[:, None]
    prev = np.vstack([np.zeros((1, terms.shape[1])), terms[:-1]])
    tol = 1e-9 * np.maximum(1.0, prev)
    bad = terms < prev - tol
    t_failed = int(np.argwhere(bad.any(axis=1))[0][0]) + 1 if bad.any() else None
    worst = float(np.min(terms - prev))
    name = f"telescoping_positivity[{label}]" if label else "telescoping_positivity"
    return CheckReport(check=name, status=_status(not bad.any()),
                       lhs=worst, rhs=0.0, slack=worst, t_failed=t_failed)


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
    name = f"regret_decomposition[{label}]" if label else "regret_decomposition"
    return CheckReport(check=name, status=_status(ok),
                       lhs=lhs, rhs=rhs, slack=_ratio(lhs, rhs))


# Default corpus for the command-line verification suites: small enough
# to finish in seconds, varied enough to exercise both optimizers, both
# decaying schedules, and d > 1.
_BOUNDS_RUNS = (("synthetic", None, None, 2020),
                ("quadratic", 0, 1, 1000),
                ("quadratic", 1, 5, 1000))
_LEMMA_RUNS = (("synthetic", None, None, 1010),
               ("quadratic", 0, 2, 500))


def _corpus_problem(kind, seed, d):
    if kind == "synthetic":
        return synthetic_problem()
    return quadratic_problem(seed, d)


def _bounds_suite(h=None):
    base = h if h is not None else HyperParams()
    reports = []
    for kind, seed, d, T in _BOUNDS_RUNS:
        problem = _corpus_problem(kind, seed, d)
        for schedule in (Schedule.EXP_DECAY, Schedule.INVERSE_T):
            hh = replace(base, schedule=schedule)
            for optimizer in ("amsgrad", "adamx"):
                label = f"{optimizer},{schedule.value},{problem.name}"
                trace = run_oco(problem, optimizer, hh, T, record_full=True)
                ctx = BoundContext.from_run(trace, problem, hh)
                try:
                    if optimizer == "amsgrad":
                        bound = bound_amsgrad(ctx, schedule)
                    else:
                        bound = bound_adamx(ctx, beta1_sequence(hh, T))
                except BoundUndefined as err:
                    reports.append(CheckReport(check=f"regret_bound[{label}]",
                                               status="fail", note=str(err)))
                    continue
                reports.append(check_regret_bound(trace, bound, label=label))
    return reports


def _lemmas_suite(h=None):
    base = h if h is not None else HyperParams()
    hh = replace(base, schedule=Schedule.EXP_DECAY)
    reports = []
    for kind, seed, d, T in _LEMMA_RUNS:
        problem = _corpus_problem(kind, seed, d)
        for optimizer in ("amsgrad", "adamx"):
            label = f"{optimizer},{problem.name}"
            trace = run_oco(problem, optimizer, hh, T, record_full=True)
            seq = beta1_sequence(hh, T)
            if optimizer == "amsgrad":
                reports.append(check_vhat_bound(trace, problem.g_inf, label=label))
            else:
                reports.append(check_vhat_bound(trace, problem.g_inf,
                                                beta1=hh.beta1, label=label))
                reports.append(check_adamx_vhat_closed_form(trace, seq, label=label))
                reports.append(check_adamx_scaled_monotonicity(trace, seq, label=label))
                reports.append(check_telescoping_positivity(trace, seq, label=label))
            try:
                ctx = BoundContext.from_run(trace, problem, hh)
                reports.append(check_sum_lemma(trace, ctx, label=label))
            except BoundUndefined as err:
                reports.append(CheckReport(check=f"sum_lemma[{label}]",
                                           status="fail", note=str(err)))
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
