"""Exception types shared across the library.

The CLI maps these onto its exit codes, so the distinctions matter:
plain ValueError covers contract and configuration mistakes, while the
classes below mark verification failures and numeric breakdowns.
"""


class NumericFault(ArithmeticError):
    """An update produced a non-finite value.

    Carries the 1-based step index when the failing step is known.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class BoundUndefined(ValueError):
    """A regret bound was evaluated outside its hypotheses (gamma >= 1)."""


class VerificationFailure(AssertionError):
    """A golden-value reproduction diverged.

    Carries the name of the first diverging quantity.
    """

    def __init__(self, message, quantity=None):
        super().__init__(message)
        self.quantity = quantity
