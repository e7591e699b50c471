"""Verification suites aggregating the structural identities into seeded checks.

Each suite samples points/pairs from the model's safe box with a seed-derived
generator and records the worst observed error against the declared tolerance.
Reports serialize to a stable JSON schema; identical (model, suite, samples,
seed, tolerances) runs produce byte-identical documents, so wall-clock timing
is returned separately rather than embedded.

Which checks a model gets follows from its structure, never from its name:

    self-dual                   canonical equals the Amari-Ay divergence
    doubly flat                 both equal the quadratic form 1/2 d.g.d
    a flat connection           dually flat: reversal equals the dual divergence
    a closed-form oracle        canonical equals the oracle
    a round-sphere embedding    canonical equals 1/2 (radius * angle)^2
    a constant curvature K      both curvature tensors equal K (g(Y, Z) X - g(X, Z) Y)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, MAX_QUAD_NODES, ToleranceConfig, is_integer
from .divergence import (
    DivergenceKind,
    _divergence_many,
    _gradient_many,
    _main_nodes,
    _metric_pairing,
    _path_functional_many,
    _pi_many,
)
from .eguchi import MAX_SKIPPED_FRACTION, classify_manifold, recover_structure, symmetry_probe
from .errors import InvalidModelSpec
from .geodesic import Curve, _central_stencil
from .manifold import ConnectionKind, ManifoldModel, Point, make_builtin
from .sampling import sample_pairs, sample_points

__all__ = ["CheckRecord", "VerificationReport", "run_suites", "default_models", "SUITES"]

# the eguchi and classification suites' memory grows as n^4 and n^5: at n = 16
# and 10 samples their peaks are 210 MB and 430 MB, at n = 32 several GB; of
# the eguchi suite's, a cached recovery map (two at most) keeps 20 MB at n = 16
MAX_RECOVERY_DIM = 16
MAX_SAMPLES = 1000  # the symmetry probe (and probe-f) pairs its m targets: m(m - 1)/2 pairs


@dataclass(frozen=True)
class CheckRecord:
    """The worst error of a check over its samples: passed when at most its tolerance."""

    check_id: str
    max_error: float
    tolerance: float
    samples: int

    @property
    def passed(self) -> bool:
        return bool(self.max_error <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "max_error": float(self.max_error),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "samples": int(self.samples),
        }


@dataclass
class VerificationReport:
    suite: str
    models: List[str]
    seed: int
    samples: int
    checks: List[CheckRecord] = field(default_factory=list)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """Stable document schema; duration is deliberately not included."""
        return {
            "suite": self.suite,
            "models": list(self.models),
            "seed": int(self.seed),
            "samples": int(self.samples),
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": bool(self.passed),
        }


def _rec(check_id: str, max_error: float, tol: float, samples: int) -> CheckRecord:
    return CheckRecord(check_id, float(max_error), float(tol), int(samples))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_eguchi(model, samples, rng, cfg) -> List[CheckRecord]:
    """Structure recovery from the canonical divergence plus the duality relation."""
    out = []
    X = sample_points(model, samples, rng, shrink=0.8)
    # d_k g_ij = Gamma_kij + Gamma*_kji, with d_k by central differences
    n = model.dim
    stencil, difference = _central_stencil(X, 1e-5)
    dg = difference(model.metric_batch(stencil.reshape(-1, n)).reshape(stencil.shape[:-1] + (n, n)))
    Gp = model.christoffel_batch(X, ConnectionKind.PRIMAL)
    Gd = model.christoffel_batch(X, ConnectionKind.DUAL)
    worst = float(np.abs(dg - (Gp + np.swapaxes(Gd, 2, 3))).max())
    out.append(_rec("duality_relation", worst, 1e-6, samples))

    pts = sample_points(model, min(samples, 10), rng, shrink=0.7)
    recs = [recover_structure(model, DivergenceKind.CANONICAL, Point(x), cfg) for x in pts]
    g = model.metric_batch(pts)
    metric = np.array([r.metric for r in recs])
    m_err = (np.abs(metric - g).max(axis=(1, 2)) / np.abs(g).max(axis=(1, 2))).max()
    gamma = np.array([r.gamma for r in recs])
    g_err = np.abs(gamma - model.christoffel_batch(pts, ConnectionKind.PRIMAL)).max()
    gamma_star = np.array([r.gamma_star for r in recs])
    gs_err = np.abs(gamma_star - model.christoffel_batch(pts, ConnectionKind.DUAL)).max()
    f_err = max(r.first_derivative_residual for r in recs)
    x_err = max(r.mixed_identity_residual for r in recs)
    out.append(_rec("recovered_metric_rel", m_err, 1e-4, len(pts)))
    out.append(_rec("recovered_gamma_abs", g_err, 1e-3, len(pts)))
    out.append(_rec("recovered_gamma_star_abs", gs_err, 1e-3, len(pts)))
    out.append(_rec("diagonal_first_derivatives", f_err, 1e-6, len(pts)))
    out.append(_rec("second_derivative_identities", x_err, 1e-4, len(pts)))
    return out


def _random_paths(model, P, Q, rng, n_paths) -> Curve:
    """C1 waypoint paths from each P to its Q jittered inside the safe box:
    one batch of shape (m, n_paths, 4, n) on the four knots, drawn pair by
    pair, path by path."""
    box = model.safe_box
    span = box[:, 1] - box[:, 0]
    jitter = rng.uniform(-0.06, 0.06, (P.shape[0], n_paths, 2, P.shape[1])) * span
    P, Q = P[:, None, :], Q[:, None, :]
    w1 = np.clip(P + (Q - P) * 0.33 + jitter[:, :, 0], box[:, 0], box[:, 1])
    w2 = np.clip(P + (Q - P) * 0.66 + jitter[:, :, 1], box[:, 0], box[:, 1])
    W = np.stack(np.broadcast_arrays(P, w1, w2, Q), axis=2)
    return Curve.from_waypoints(W)


def suite_pathindep(model, samples, rng, cfg) -> List[CheckRecord]:
    """Path independence of the summed line integrals, against the pseudo-norm."""
    P, Q = sample_pairs(model, samples, rng, shrink=0.85)
    n_paths = 5
    r = _divergence_many(model, DivergenceKind.PSEUDO_NORM, P, Q, cfg)[:, None]
    paths = _random_paths(model, P, Q, rng, n_paths)
    primal, dual = _path_functional_many(model, P[:, None, :], paths, cfg)
    sums = primal + dual
    spread = np.ptp(sums, axis=1) / (1.0 + np.abs(sums).max(axis=1))
    agree = np.abs(sums - r).max(axis=1) / (1.0 + np.abs(r[:, 0]))
    return [
        _rec("path_spread_rel", spread.max(), 1e-5, samples * n_paths),
        _rec("sum_equals_pseudo_norm_rel", agree.max(), 1e-5, samples * n_paths),
    ]


def _norms(model, X, U):
    return np.sqrt(np.maximum(_metric_pairing(model, X, U, U), 0.0))


def suite_gradient(model, samples, rng, cfg) -> List[CheckRecord]:
    """Gradient identity for the pseudo-norm and the orthogonal decompositions."""
    P, Q = sample_pairs(model, samples, rng, shrink=0.8)
    Pi, PiStar = _pi_many(model, P, Q, cfg)
    grad_r = _gradient_many(model, DivergenceKind.PSEUDO_NORM, P, Q, cfg)
    ident_err = float(_norms(model, Q, Pi + PiStar - grad_r).max())

    # the end velocities of the main geodesics, read off the integrator
    end = np.array([1.0])
    sig_dot = _main_nodes(model, ConnectionKind.PRIMAL, P, Q, end, cfg)[2][:, 0]
    grad_D = _gradient_many(model, DivergenceKind.CANONICAL, P, Q, cfg)
    num = np.abs(_metric_pairing(model, Q, Pi - grad_D, sig_dot))
    den = np.maximum(_norms(model, Q, Pi) * _norms(model, Q, sig_dot), 1e-30)
    orth_p_err = float((num / den).max())

    if model.is_self_dual:  # the dual half is the primal half: dualized() is the model
        sig_star_dot, grad_Dstar = sig_dot, grad_D
    else:
        sig_star_dot = _main_nodes(model, ConnectionKind.DUAL, P, Q, end, cfg)[2][:, 0]
        grad_Dstar = _gradient_many(model, DivergenceKind.CANONICAL_DUAL, P, Q, cfg)
    num = np.abs(_metric_pairing(model, Q, PiStar - grad_Dstar, sig_star_dot))
    den = np.maximum(_norms(model, Q, PiStar) * _norms(model, Q, sig_star_dot), 1e-30)
    orth_d_err = float((num / den).max())

    # the angle as atan2 of the components across and along the unit tangent:
    # an arccos of the cosine cannot read below arccos(1 - 2^-53) ~ 1.5e-8
    unit = sig_dot / np.maximum(_norms(model, Q, sig_dot), 1e-30)[:, None]
    along = _metric_pairing(model, Q, grad_D, unit)
    across = _norms(model, Q, grad_D - along[:, None] * unit)
    align_err = float(np.arctan2(across, along).max())
    return [
        _rec("pseudo_norm_gradient_identity", ident_err, 1e-4, samples),
        _rec("orthogonal_decomposition_primal", orth_p_err, 1e-4, samples),
        _rec("orthogonal_decomposition_dual", orth_d_err, 1e-4, samples),
        _rec("gradient_geodesic_alignment_rad", align_err, 1e-3, samples),
    ]


def suite_collapse(model, samples, rng, cfg) -> List[CheckRecord]:
    """Agreement of the canonical construction with its reductions."""
    P, Q = sample_pairs(model, samples, rng)
    canon = _divergence_many(model, DivergenceKind.CANONICAL, P, Q, cfg)
    ay = _divergence_many(model, DivergenceKind.AY, P, Q, cfg)
    out = [_rec("positivity_off_diagonal", float((canon <= 0.0).sum()), 0.0, samples)]
    diag = _divergence_many(model, DivergenceKind.CANONICAL, P, P, cfg)
    out.append(_rec("zero_on_diagonal", float(np.abs(diag).max()), 1e-10, samples))
    if model.is_self_dual:
        rel = float(np.abs(canon - ay).max() / (1.0 + np.abs(ay).max()))
        out.append(_rec("self_dual_collapse_rel", rel, 1e-6, samples))
    if all(map(model.is_flat, ConnectionKind)):
        # the metric is constant; at q it is not the form _divergence_many takes at p
        closed = 0.5 * _metric_pairing(model, Q, Q - P, Q - P)
        out.append(_rec("flat_quadratic_oracle", float(np.abs(canon - closed).max()), 1e-8, samples))
        out.append(_rec("flat_quadratic_oracle_ay", float(np.abs(ay - closed).max()), 1e-8, samples))
    sphere = model.round_sphere
    if sphere is not None:
        closed = 0.5 * (sphere.radius * sphere.angle(P, Q)) ** 2
        out.append(_rec("great_circle_oracle", float(np.abs(canon - closed).max()), 1e-6, samples))
    if model.oracle_fn is not None:
        oracle = _divergence_many(model, DivergenceKind.ORACLE_KL, P, Q, cfg)
        rel = float(np.abs(canon - oracle).max() / (1.0 + np.abs(oracle).max()))
        out.append(_rec("closed_form_oracle_rel", rel, 1e-6, samples))
    doubled = _divergence_many(
        model, DivergenceKind.CANONICAL, P, Q, cfg.with_(quad_nodes=2 * cfg.quad_nodes)
    )
    out.append(
        _rec("quadrature_node_doubling", float(np.abs(doubled - canon).max()), 1e-8, samples)
    )
    return out


def suite_symmetry(model, samples, rng, cfg) -> List[CheckRecord]:
    """Reversal symmetry against the dual divergence; rank agreement probe."""
    out = []
    if model.flat_kinds:
        # reversal equality is asserted only where the structure is dually flat
        P, Q = sample_pairs(model, samples, rng, shrink=0.85)
        rev = _divergence_many(model, DivergenceKind.CANONICAL, Q, P, cfg)
        dual = _divergence_many(model, DivergenceKind.CANONICAL_DUAL, P, Q, cfg)
        rel = float(np.abs(rev - dual).max() / (1.0 + np.abs(dual).max()))
        out.append(_rec("dual_reversal_equality_rel", rel, 1e-6, samples))
    p = Point(sample_points(model, 1, rng, shrink=0.6)[0])
    qs = [Point(x) for x in sample_points(model, max(samples, 10), rng, shrink=0.85)]
    probe = symmetry_probe(model, p, qs, cfg)
    out.append(_rec("rank_agreement_deficit", 1.0 - probe.rank_agreement, 0.0, len(qs)))
    skipped = len(probe.skipped) / len(qs)
    out.append(_rec("probe_skipped_fraction", skipped, MAX_SKIPPED_FRACTION, len(qs)))
    if model.flat_kinds:
        out.append(
            _rec("probe_pointwise_equality_rel", probe.max_equality_error, 1e-6, len(qs))
        )
    return out


def suite_classification(model, samples, rng, cfg) -> List[CheckRecord]:
    """Verdicts expected from the model's structure plus a curvature check.

    A self-dual model must classify as SelfDual; otherwise a model with a flat
    connection is dually flat (the dual of a flat connection is flat too). Both
    curvature tensors must equal K (g(Y, Z) X - g(X, Z) Y) if the model has K.
    """
    X = sample_points(model, min(samples, 5), rng, shrink=0.7)
    pts = [Point(x) for x in X]
    report = classify_manifold(model, pts, cfg)
    out = []
    expected = "SelfDual" if model.is_self_dual else "DuallyFlat" if model.flat_kinds else None
    if expected is not None:
        out.append(_rec(f"verdict_is_{expected}", float(report.verdict != expected), 0.0, len(pts)))
    if report.curvature_residual is not None:
        out.append(_rec("constant_curvature_residual", report.curvature_residual, 5e-6, len(pts)))
    out.append(_rec(f"verdict_recorded_{report.verdict}", 0.0, 0.0, len(pts)))
    return out


SUITES = {
    "eguchi": suite_eguchi,
    "pathindep": suite_pathindep,
    "gradient": suite_gradient,
    "collapse": suite_collapse,
    "symmetry": suite_symmetry,
    "classification": suite_classification,
}


def default_models() -> List[ManifoldModel]:
    return [
        make_builtin("euclidean", [3]),
        make_builtin("sphere", [2, 1.0]),
        make_builtin("categorical", [2]),
        make_builtin("gaussian1d", [2]),
        make_builtin("alpha_categorical", [2, 0.5]),
    ]


def run_suites(
    models: Sequence[ManifoldModel],
    suite: str,
    samples: int = 3,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Run one named suite (or 'all') over the given models. A sample count
    that is not an integer in 1..MAX_SAMPLES, a seed that is not a
    non-negative integer, an unknown suite, a collapse suite without room to
    double its nodes, and an eguchi or classification suite above
    MAX_RECOVERY_DIM are InvalidModelSpec, before any work; a symmetry probe
    past MAX_SKIPPED_FRACTION fails its check."""
    if not is_integer(samples):
        raise InvalidModelSpec(f"verify's sample count must be an integer, not {samples!r}")
    if not is_integer(seed) or seed < 0:
        raise InvalidModelSpec(f"verify's seed must be a non-negative integer, not {seed!r}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise InvalidModelSpec(f"verify needs between 1 and {MAX_SAMPLES} samples")
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise InvalidModelSpec(
            f"unknown suite {suite!r}; choose from {', '.join(list(SUITES) + ['all'])}"
        )
    if "collapse" in names and cfg.quad_nodes > MAX_QUAD_NODES:  # a config takes twice this
        raise InvalidModelSpec(f"the collapse suite doubles quad_nodes: at most {MAX_QUAD_NODES}")
    big = [m.spec_string for m in models if m.dim > MAX_RECOVERY_DIM]
    if big and {"eguchi", "classification"} & set(names):
        limit = f"dimension at most {MAX_RECOVERY_DIM}, not {big[0]}"
        raise InvalidModelSpec(f"the eguchi and classification suites take {limit}")
    report = VerificationReport(
        suite=suite, models=[m.spec_string for m in models], seed=seed, samples=samples
    )
    t0 = time.perf_counter()
    multi = len(models) > 1
    for mi, model in enumerate(models):
        for si, name in enumerate(names):
            rng = np.random.default_rng(np.random.SeedSequence([seed, mi, si]))
            for check in SUITES[name](model, samples, rng, cfg):
                cid = check.check_id if not multi else f"{model.spec_string}:{check.check_id}"
                if len(names) > 1:
                    cid = f"{name}:{cid}"
                report.checks.append(replace(check, check_id=cid))
    report.duration = time.perf_counter() - t0
    return report
