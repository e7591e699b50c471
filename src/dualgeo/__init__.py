"""dualgeo: numerical dual geometry on statistical manifolds.

Chart-based models carrying a metric and a pair of dual torsion-free
connections; geodesics, exponential/log maps and parallel transport for either
connection; the geodesic-integral divergence family with its gradients; and
numerical recovery/classification of the structure from any divergence.
"""

from .config import DEFAULT_CONFIG, ToleranceConfig
from .divergence import (
    DivergenceKind,
    PathFunctionalResult,
    ay_divergence,
    canonical_divergence,
    divergence_gradient,
    divergence_value,
    dual_canonical_divergence,
    oracle_divergence,
    path_functional,
    pi_field,
    pseudo_norm,
)
from .eguchi import (
    ClassificationReport,
    RecoveredStructure,
    SymmetryProbeResult,
    classify_manifold,
    curvature_tensor,
    recover_structure,
    symmetry_probe,
)
from .errors import (
    BaseMismatch,
    DomainExit,
    DualGeoError,
    IntegrationFailure,
    InvalidModelSpec,
    OracleUnavailable,
    PointOutOfDomain,
    QuadratureFailure,
    ShootingNoConvergence,
    StencilOutOfDomain,
)
from .geodesic import Curve, exp_map, integrate_geodesic, log_map, parallel_transport
from .manifold import (
    ConnectionKind,
    ManifoldModel,
    Point,
    Tangent,
    builtin_names,
    builtin_schemas,
    make_builtin,
    mixture_to_natural,
    natural_to_mixture,
    parse_model_spec,
)
from .sampling import great_circle_angle, sample_pairs, sample_points
from .verify import CheckRecord, VerificationReport, default_models, run_suites

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "ToleranceConfig",
    "ConnectionKind",
    "ManifoldModel",
    "Point",
    "Tangent",
    "Curve",
    "DivergenceKind",
    "PathFunctionalResult",
    "RecoveredStructure",
    "ClassificationReport",
    "SymmetryProbeResult",
    "CheckRecord",
    "VerificationReport",
    "make_builtin",
    "parse_model_spec",
    "builtin_names",
    "builtin_schemas",
    "mixture_to_natural",
    "natural_to_mixture",
    "integrate_geodesic",
    "exp_map",
    "log_map",
    "parallel_transport",
    "ay_divergence",
    "canonical_divergence",
    "dual_canonical_divergence",
    "pseudo_norm",
    "pi_field",
    "path_functional",
    "divergence_gradient",
    "oracle_divergence",
    "divergence_value",
    "recover_structure",
    "curvature_tensor",
    "classify_manifold",
    "symmetry_probe",
    "sample_points",
    "sample_pairs",
    "great_circle_angle",
    "run_suites",
    "default_models",
    "DualGeoError",
    "InvalidModelSpec",
    "PointOutOfDomain",
    "BaseMismatch",
    "DomainExit",
    "IntegrationFailure",
    "ShootingNoConvergence",
    "QuadratureFailure",
    "OracleUnavailable",
    "StencilOutOfDomain",
]
