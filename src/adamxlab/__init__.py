"""Projected adaptive-moment optimizers with regret accounting.

Three steppers (adam, amsgrad, adamx) over box-constrained online
convex problems, a run loop that records everything the theory needs,
regret-bound evaluation, and numeric checks for every inequality the
bounds rest on.
"""

from .errors import BoundUndefined, NumericFault, VerificationFailure
from .harness import (ProblemInstance, RegretTrace, average_regret,
                      comparator_oracle, quadratic_problem, run_oco,
                      synthetic_problem, toy_training_problem)
from .numerics import FeasibleBox, as_vector, project_box
from .optimizers import (HyperParams, OptimizerState, Schedule, alpha_at,
                         beta1_at, fresh_state, resolve_stepper, step_adam,
                         step_adamx, step_amsgrad)
from .verify import (BoundContext, CheckReport, adamx_bound_terms,
                     amsgrad_bound_terms, bound_adamx, bound_amsgrad,
                     beta1_sequence, check_adamx_scaled_monotonicity,
                     check_adamx_vhat_closed_form, check_counterexample,
                     check_decomposition, check_regret_bound, check_sum_lemma,
                     check_telescoping_positivity, check_vhat_bound,
                     decomposition_terms, example_hyperparams, find_t0,
                     reproduce_counterexample, run_suite)

__version__ = "0.1.0"

__all__ = [
    "BoundContext", "BoundUndefined", "CheckReport", "FeasibleBox",
    "HyperParams", "NumericFault", "OptimizerState", "ProblemInstance",
    "RegretTrace", "Schedule", "VerificationFailure",
    "adamx_bound_terms", "alpha_at", "amsgrad_bound_terms", "as_vector",
    "average_regret", "beta1_at", "beta1_sequence",
    "bound_adamx", "bound_amsgrad", "check_adamx_scaled_monotonicity",
    "check_adamx_vhat_closed_form", "check_counterexample",
    "check_decomposition", "check_regret_bound", "check_sum_lemma",
    "check_telescoping_positivity", "check_vhat_bound", "comparator_oracle",
    "decomposition_terms", "example_hyperparams", "find_t0", "fresh_state",
    "project_box", "quadratic_problem",
    "reproduce_counterexample", "resolve_stepper", "run_oco", "run_suite",
    "step_adam", "step_adamx", "step_amsgrad", "synthetic_problem",
    "toy_training_problem", "__version__",
]
