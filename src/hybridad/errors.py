"""Exception taxonomy shared across the package."""

from __future__ import annotations


class HybridAdError(Exception):
    """Base class for all package errors."""


# -- jet arithmetic ----------------------------------------------------------

class DivisionByZeroConstantTerm(HybridAdError):
    """Series division where the divisor's constant term is zero."""


class DomainError(HybridAdError):
    """Argument outside an elementary function's domain (sqrt of a
    negative constant term, log of a non-positive one, ...)."""


class OrderExceeded(HybridAdError):
    """Derivative order beyond what the jet carries, or above the cap."""


# -- tape evaluation ---------------------------------------------------------

class EvalDomainError(HybridAdError):
    """Numerical domain failure during tape evaluation.

    Carries the id of the offending node so the failure can be traced
    back to the program location.
    """

    def __init__(self, node_id: int, message: str):
        super().__init__(f"node {node_id}: {message}")
        self.node_id = node_id


class NonDifferentiablePoint(HybridAdError):
    """A derivative was requested exactly at a kink (abs at zero)."""

    def __init__(self, node_id: int, message: str = "abs is not differentiable at 0"):
        super().__init__(f"node {node_id}: {message}")
        self.node_id = node_id


# -- diagrams ----------------------------------------------------------------

class SchemaError(HybridAdError):
    """Document does not conform to the diagram JSON schema.

    ``path`` locates the offending field, e.g. ``blocks[3].kind``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ValidationError(HybridAdError):
    """Structural violations found by diagram validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class UnknownParameter(HybridAdError):
    def __init__(self, name: str, available):
        self.name = name
        self.available = sorted(available)
        super().__init__(
            f"unknown parameter {name!r}; available: {', '.join(self.available) or '(none)'}"
        )


class DelayOrderExceeded(HybridAdError):
    """Graphic differentiation of a ``DelaySensitivity`` block: a second
    derivative through a parameter-dependent delay needs second-order
    delayed slopes, which no block carries."""

    def __init__(self, block: str, theta: str):
        self.block = block
        super().__init__(
            f"{block}: differentiating a delay sensitivity in {theta!r} (a second derivative "
            f"through a parameter-dependent delay) needs second-order delayed slopes; "
            f"not supported")


# -- simulation --------------------------------------------------------------

class FlattenError(HybridAdError):
    """Diagram cannot be lowered to a state-space model."""


class EventStorm(HybridAdError):
    """More events fired inside one step than the configured maximum."""


class SingularMetric(HybridAdError):
    """Kinetic-energy metric not invertible at an impact point."""


class NonTransversal(HybridAdError):
    """Impact guard is not transversal to the trajectory."""


class DelayUnderflow(HybridAdError):
    """Delayed lookup before recorded history with no prehistory."""


class SensitivityAcrossEvent(HybridAdError):
    """Sensitivity co-integration through a general guard/reset event is
    not implemented; only impact events are allowed to pass through."""


class ImpactSensitivityWarning(UserWarning):
    """Sensitivities passed through an impact without the saltation jump,
    so they are wrong after it."""


# -- solvers -----------------------------------------------------------------

class SingularJacobian(HybridAdError):
    pass


class MaxIterExceeded(HybridAdError):
    """Newton failed to converge.  Carries the best iterate found."""

    def __init__(self, best, residual_norm: float, iterations: int):
        self.best = best
        self.residual_norm = residual_norm
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(best residual norm {residual_norm:.3e})"
        )


class ShapeMismatch(HybridAdError):
    pass
