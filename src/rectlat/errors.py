"""Exception types shared across the package, and the one input-domain check."""

import math


class RectlatError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(RectlatError, ValueError):
    """A potential or lattice parameter violates its admissible domain."""


class QuadratureError(RectlatError, ArithmeticError):
    """Adaptive quadrature failed to meet the requested tolerance.

    The unresolved residual estimate is stored in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BracketError(RectlatError, ValueError):
    """A root bracket does not enclose a sign change."""


class NonconvergenceError(RectlatError, ArithmeticError):
    """An iterative solver exhausted its iteration budget.

    ``trace`` holds the iterate history (one tuple per step) for diagnosis.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class SearchFailureError(RectlatError, ArithmeticError):
    """A 1D minimization found neither an interior nor a boundary minimum."""


class ClassificationError(RectlatError, ArithmeticError):
    """A transition could not be classified (e.g. coexistence barrier absent)."""


class UnsupportedOracleError(RectlatError, ValueError):
    """The direct lattice sum was requested for a potential it cannot handle."""


def check_domain(ok: bool, message: str, **values) -> None:
    """Refuse out-of-domain input with ``ParameterDomainError``.

    Every keyword value must be a finite number (a NaN or an infinity is
    named in the error), and ``ok`` must hold; ``message`` says why it
    does not.  Write ``ok`` so that a NaN makes it false.
    """
    for name, x in values.items():
        if not math.isfinite(x):
            raise ParameterDomainError(f"{name} must be finite, got {x}")
    if not ok:
        raise ParameterDomainError(message)
