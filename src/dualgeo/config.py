"""Numerical configuration shared by all dualgeo operations."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

# The most Gauss-Legendre nodes a command line sets (leggauss(n) solves an n x n
# eigenproblem); a config takes twice this, which verify's node-doubling check asks for.
MAX_QUAD_NODES = 1024


def is_integer(value) -> bool:
    """Whether a count is an integer: a numbers.Integral that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ToleranceConfig:
    """All numerical knobs in one immutable record.

    ode_rel_tol                 Runge-Kutta relative tolerance (absolute: 1/100 of it)
    shoot_tol                   chart-coordinate convergence threshold for
                                the two-point (log map) Newton iteration
    quad_nodes                  Gauss-Legendre node count on [0, 1], an integer <= 2 * MAX_QUAD_NODES
    fd_step                     base finite-difference step

    The real knobs must be finite and positive; the sweep cap is `geodesic._MAX_SWEEPS`.
    """

    ode_rel_tol: float = 1e-10
    shoot_tol: float = 1e-9
    quad_nodes: int = 32
    fd_step: float = 1e-4

    def __post_init__(self):
        for name in ("ode_rel_tol", "shoot_tol", "fd_step"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and positive")
        if not is_integer(self.quad_nodes):
            raise ValueError(f"quad_nodes must be an integer, not {self.quad_nodes!r}")
        if not 1 <= self.quad_nodes <= 2 * MAX_QUAD_NODES:
            raise ValueError(f"quad_nodes must be between 1 and {2 * MAX_QUAD_NODES}")

    def with_(self, **kwargs) -> "ToleranceConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = ToleranceConfig()
