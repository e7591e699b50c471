"""Exception hierarchy for dualgeo.

Every failure mode of the numerical machinery maps to one exception class so
callers can distinguish "bad input" (InvalidModelSpec, PointOutOfDomain,
BaseMismatch) from "the computation left its basin" (DomainExit,
ShootingNoConvergence, StencilOutOfDomain) and from hard numerical failure
(IntegrationFailure, QuadratureFailure).
"""


class DualGeoError(Exception):
    """Base class for all dualgeo errors."""


class InvalidModelSpec(DualGeoError):
    """Unknown builtin name or parameters outside the family's valid range."""


class PointOutOfDomain(DualGeoError):
    """A chart point violates the model's domain predicate."""


class BaseMismatch(DualGeoError):
    """Two tangents that must share a base point do not."""


class DomainExit(DualGeoError):
    """An integrated trajectory left the model domain."""


class IntegrationFailure(DualGeoError):
    """The ODE integrator failed (step-size collapse or non-finite state)."""


class ShootingNoConvergence(DualGeoError):
    """Newton shooting for the two-point geodesic problem did not converge.

    This is a legitimate outcome outside the shooting basin (the chart-straight
    segment between the endpoints must stay inside the domain for convergence
    to be guaranteed), not necessarily a bug. The message names the failed
    members' batch indices and the sweeps run; `residuals` holds each failed
    member's best endpoint error, in chart coordinates.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class QuadratureFailure(DualGeoError):
    """A divergence, or a quadrature node of one, came out non-finite."""


class OracleUnavailable(DualGeoError):
    """The model carries no closed-form reference divergence."""


class StencilOutOfDomain(DualGeoError):
    """A finite-difference stencil around the evaluation point exits the domain."""
