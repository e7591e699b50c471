"""Recovering (g, Gamma, Gamma*) from a divergence, curvature, classification.

A divergence determines the metric through its second derivatives at the
diagonal and the two connections through mixed third derivatives:

    g_ij       =  d_i d_j   Div |_diag     (first-slot derivatives)
    Gamma_ijk  = -d_i d_j d'_k Div |_diag
    Gamma*_ijk = -d'_i d'_j d_k Div |_diag

`recover_structure` estimates all three numerically and reports how well the
diagonal identities hold (vanishing first derivatives; agreement of the three
equivalent second-derivative expressions). Every stencil evaluation of the
divergence is collected first and computed in one batch, so the integrator's
error is highly correlated across the stencil and largely cancels in the
differences.

Derivative steps grow with the derivative order to balance truncation against
cancellation noise; second and third derivatives use Richardson extrapolation
over the step pair (h, h/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .divergence import DivergenceKind, _divergence_many
from .errors import QuadratureFailure, ShootingNoConvergence, StencilOutOfDomain
from .manifold import ConnectionKind, ManifoldModel, Point

__all__ = [
    "RecoveredStructure",
    "ClassificationReport",
    "SymmetryProbeResult",
    "recover_structure",
    "curvature_tensor",
    "classify_manifold",
    "symmetry_probe",
]

CLASSIFY_THRESHOLD = 1e-5


@dataclass(frozen=True)
class RecoveredStructure:
    """Numerical structure extracted from a divergence at one point."""

    metric: np.ndarray
    gamma: np.ndarray
    gamma_star: np.ndarray
    first_derivative_residual: float
    mixed_identity_residual: float


@dataclass(frozen=True)
class ClassificationReport:
    """Residuals of the structural conditions and the resulting verdict.

    The verdict is decided by thresholding in the order SelfDual, DuallyFlat,
    Symmetric, General; raw residuals are always included so the verdict is
    auditable.
    """

    self_dual_residual: float
    flatness_residual: float
    symmetry_residuals: tuple
    verdict: str
    threshold: float = CLASSIFY_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "self_dual_residual": self.self_dual_residual,
            "flatness_residual": self.flatness_residual,
            "covariant_curvature_derivative_residual": self.symmetry_residuals[0],
            "sectional_probe_residual": self.symmetry_residuals[1],
            "verdict": self.verdict,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class SymmetryProbeResult:
    """Scatter of (dual divergence, reversed divergence) over sampled targets."""

    pairs: np.ndarray  # (m, 2) rows: [dual(p, q_i), canonical(q_i, p)]
    skipped: list
    rank_agreement: float
    max_equality_error: float

    @property
    def orderings_match(self) -> bool:
        return self.rank_agreement == 1.0


# ---------------------------------------------------------------------------
# batched stencil evaluation
# ---------------------------------------------------------------------------


def _derivative_steps(cfg: ToleranceConfig):
    """Step ladder per derivative order (calibrated on the builtin catalog)."""
    h1 = cfg.fd_step
    h2 = np.sqrt(cfg.fd_step)
    h3 = 0.25 * cfg.fd_step ** (1.0 / 3.0)
    return h1, h2, h3


class _StencilEvaluator:
    """Collects divergence evaluations at offsets of (p, p), computes them in
    one batch, then serves them to the finite-difference assembly."""

    def __init__(self, model, which, p, cfg):
        self.model = model
        self.which = which
        self.p = np.asarray(p, dtype=float)
        self.cfg = cfg
        self._requests = {}
        self._values = None

    def _key(self, da, db):
        return (tuple(np.round(da, 14)), tuple(np.round(db, 14)))

    def request(self, da, db):
        key = self._key(da, db)
        if key not in self._requests:
            self._requests[key] = len(self._requests)

    def compute(self):
        keys = list(self._requests)
        A = np.array([self.p + np.asarray(k[0]) for k in keys])
        B = np.array([self.p + np.asarray(k[1]) for k in keys])
        inside = self.model.contains_batch(A) & self.model.contains_batch(B)
        if not inside.all():
            raise StencilOutOfDomain(
                f"finite-difference stencil around {self.p!r} leaves the domain "
                f"of {self.model.spec_string}"
            )
        vals = _divergence_many(self.model, self.which, A, B, self.cfg)
        self._values = {k: v for k, v in zip(keys, vals)}

    def value(self, da, db) -> float:
        return self._values[self._key(da, db)]


def _unit(n, h, i):
    e = np.zeros(n)
    e[i] = h
    return e


def _second_pattern(n, h, i, j):
    """Offsets and weights of the central second-derivative stencil."""
    if i == j:
        e = _unit(n, h, i)
        return [(e, 1.0), (np.zeros(n), -2.0), (-e, 1.0)], h * h
    e, f = _unit(n, h, i), _unit(n, h, j)
    return (
        [(e + f, 1.0), (e - f, -1.0), (-e + f, -1.0), (-e - f, 1.0)],
        4.0 * h * h,
    )


def recover_structure(
    model: ManifoldModel,
    which: DivergenceKind,
    p: Point,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> RecoveredStructure:
    """Metric and both connection symbol fields from diagonal derivatives of a divergence.

    Stencil evaluations clamp the quadrature order to 8 nodes: the finite
    differences are insensitive to the smooth quadrature bias, and every node
    costs a pair of two-point solves.
    """
    model.require_inside(p)
    n = model.dim
    h1, h2, h3 = _derivative_steps(cfg)
    stencil_cfg = cfg.with_(quad_nodes=min(cfg.quad_nodes, 8))
    ev = _StencilEvaluator(model, which, p.coords, stencil_cfg)
    z = np.zeros(n)

    def second_terms(h, i, j, slot):
        pattern, denom = _second_pattern(n, h, i, j)
        if slot == "first":
            return [((da, z), wgt) for da, wgt in pattern], denom
        return [((z, da), wgt) for da, wgt in pattern], denom

    def mixed_terms(h, i, j):
        e, f = _unit(n, h, i), _unit(n, h, j)
        return (
            [((e, f), 1.0), ((e, -f), -1.0), ((-e, f), -1.0), ((-e, -f), 1.0)],
            4.0 * h * h,
        )

    def third_terms(h, i, j, k, primal_slot):
        """d'_k (or d_k) of a second derivative in the other slot."""
        ek = _unit(n, h, k)
        pattern, denom = _second_pattern(n, h, i, j)
        terms = []
        for sign, db in ((1.0, ek), (-1.0, -ek)):
            for da, wgt in pattern:
                pair = (da, db) if primal_slot else (db, da)
                terms.append((pair, sign * wgt))
        return terms, denom * 2.0 * h

    def first_terms(i):
        e = _unit(n, h1, i)
        return [
            ("first", [((e, z), 1.0), ((-e, z), -1.0)], 2.0 * h1),
            ("second", [((z, e), 1.0), ((z, -e), -1.0)], 2.0 * h1),
        ]

    # ---- request phase ---------------------------------------------------
    jobs = []
    for i in range(n):
        for _, terms, denom in first_terms(i):
            jobs.append((terms, denom))
    for h in (h2, h2 / 2.0):
        for i in range(n):
            for j in range(i, n):
                jobs.append(second_terms(h, i, j, "first"))
                jobs.append(second_terms(h, i, j, "second"))
                jobs.append(mixed_terms(h, i, j))
                if i != j:
                    jobs.append(mixed_terms(h, j, i))
    for h in (h3, h3 / 2.0):
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    jobs.append(third_terms(h, i, j, k, True))
                    jobs.append(third_terms(h, i, j, k, False))
    for terms, _ in jobs:
        for (da, db), _w in terms:
            ev.request(da, db)
    ev.compute()

    def apply(terms, denom):
        return sum(w * ev.value(da, db) for (da, db), w in terms) / denom

    def richardson(pair_fn):
        coarse = apply(*pair_fn(0))
        fine = apply(*pair_fn(1))
        return (4.0 * fine - coarse) / 3.0

    # ---- assembly ----------------------------------------------------------
    first_res = 0.0
    for i in range(n):
        for _, terms, denom in first_terms(i):
            first_res = max(first_res, abs(apply(terms, denom)))

    metric = np.zeros((n, n))
    second_q = np.zeros((n, n))
    mixed = np.zeros((n, n))
    steps2 = (h2, h2 / 2.0)
    for i in range(n):
        for j in range(i, n):
            metric[i, j] = metric[j, i] = richardson(
                lambda lv, i=i, j=j: second_terms(steps2[lv], i, j, "first")
            )
            second_q[i, j] = second_q[j, i] = richardson(
                lambda lv, i=i, j=j: second_terms(steps2[lv], i, j, "second")
            )
            mixed[i, j] = richardson(lambda lv, i=i, j=j: mixed_terms(steps2[lv], i, j))
            if i != j:
                mixed[j, i] = richardson(
                    lambda lv, i=i, j=j: mixed_terms(steps2[lv], j, i)
                )
    mixed_res = max(np.abs(metric + mixed).max(), np.abs(metric - second_q).max())

    gamma = np.zeros((n, n, n))
    gamma_star = np.zeros((n, n, n))
    steps3 = (h3, h3 / 2.0)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                gamma[i, j, k] = gamma[j, i, k] = -richardson(
                    lambda lv, i=i, j=j, k=k: third_terms(steps3[lv], i, j, k, True)
                )
                gamma_star[i, j, k] = gamma_star[j, i, k] = -richardson(
                    lambda lv, i=i, j=j, k=k: third_terms(steps3[lv], i, j, k, False)
                )

    return RecoveredStructure(
        metric=metric,
        gamma=gamma,
        gamma_star=gamma_star,
        first_derivative_residual=float(first_res),
        mixed_identity_residual=float(mixed_res),
    )


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def _raised_gamma(model, X, kind):
    """Gamma^l_{jk} on a batch of points, indexed (m, l, j, k)."""
    G = model.christoffel_batch(X, kind)  # (m, j, k, lower)
    ginv = np.linalg.inv(model.metric_batch(X))
    return np.einsum("mls,mjks->mljk", ginv, G)


def curvature_tensor(
    model: ManifoldModel,
    kind: ConnectionKind,
    p: Point,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Coordinate curvature tensor R^l_{ijk} of the chosen connection at p.

    R(e_i, e_j) e_k = R^l_{ijk} e_l, with derivative terms by central finite
    differences of step cfg.fd_step on the raised symbols; antisymmetric in
    (i, j).
    """
    model.require_inside(p)
    n = model.dim
    h = cfg.fd_step
    x = p.coords
    stencil = []
    for i in range(n):
        e = _unit(n, h, i)
        stencil.extend([x + e, x - e])
    stencil.append(x)
    X = np.array(stencil)
    if not model.contains_batch(X).all():
        raise StencilOutOfDomain(
            f"curvature stencil around {x!r} leaves the domain of {model.spec_string}"
        )
    raised = _raised_gamma(model, X, kind)  # (2n+1, l, j, k)
    dG = np.empty((n, n, n, n))  # [i, l, j, k] = d_i Gamma^l_{jk}
    for i in range(n):
        dG[i] = (raised[2 * i] - raised[2 * i + 1]) / (2.0 * h)
    G0 = raised[-1]
    # R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik}
    return (
        np.einsum("iljk->lijk", dG)
        - np.einsum("jlik->lijk", dG)
        + np.einsum("lim,mjk->lijk", G0, G0)
        - np.einsum("ljm,mik->lijk", G0, G0)
    )


def _lowered_curvature(model, p, R):
    g = model.metric_at(p)
    # R_{ijkl} = g_{lm} R^m_{ijk}
    return np.einsum("lm,mijk->ijkl", g, R)


def _nabla_curvature(model, kind, p, cfg, h):
    """Covariant derivative of the curvature tensor, indexed (m, l, i, j, k)."""
    n = model.dim
    x = p.coords
    dR = np.empty((n, n, n, n, n))
    for mdir in range(n):
        e = _unit(n, h, mdir)
        Rp = curvature_tensor(model, kind, Point(x + e), cfg)
        Rm = curvature_tensor(model, kind, Point(x - e), cfg)
        dR[mdir] = (Rp - Rm) / (2.0 * h)
    R0 = curvature_tensor(model, kind, p, cfg)
    G = _raised_gamma(model, x[None, :], kind)[0]  # [l, j, k] = Gamma^l_{jk}
    return (
        dR
        + np.einsum("lma,aijk->mlijk", G, R0)
        - np.einsum("ami,lajk->mlijk", G, R0)
        - np.einsum("amj,liak->mlijk", G, R0)
        - np.einsum("amk,lija->mlijk", G, R0)
    )


def classify_manifold(
    model: ManifoldModel,
    sample_points: Sequence[Point],
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    tangent_probes: int = 20,
    seed: int = 0,
) -> ClassificationReport:
    """Threshold the structural residuals at sampled points, in catalog order.

    The sectional probe draws random unit tangent pairs (Y, X) and measures
    the pairing of R(Y, X)X with X, matching the quantifier structure of the
    symmetric-manifold condition at bounded cost.
    """
    if len(sample_points) < 1:
        raise ValueError("need at least one sample point")
    n = model.dim
    rng = np.random.default_rng(seed)
    h_outer = 2.0 * np.sqrt(cfg.fd_step)

    self_dual = 0.0
    flatness = 0.0
    nabla_res = 0.0
    probe_res = 0.0
    for p in sample_points:
        x = p.coords[None, :]
        Gp = model.christoffel_batch(x, ConnectionKind.PRIMAL)[0]
        Gd = model.christoffel_batch(x, ConnectionKind.DUAL)[0]
        self_dual = max(self_dual, float(np.abs(Gp - Gd).max()))
        R = curvature_tensor(model, ConnectionKind.PRIMAL, p, cfg)
        Rstar = curvature_tensor(model, ConnectionKind.DUAL, p, cfg)
        flatness = max(flatness, float(np.abs(R).max()), float(np.abs(Rstar).max()))
        nabla = _nabla_curvature(model, ConnectionKind.PRIMAL, p, cfg, h_outer)
        nabla_res = max(nabla_res, float(np.abs(nabla).max()))
        low = _lowered_curvature(model, p, R)
        g = model.metric_at(p)
        for _ in range(tangent_probes):
            Y = rng.standard_normal(n)
            X = rng.standard_normal(n)
            Y = Y / np.sqrt(Y @ g @ Y)
            X = X / np.sqrt(X @ g @ X)
            val = np.einsum("ijkl,i,j,k,l->", low, Y, X, X, X)
            probe_res = max(probe_res, abs(float(val)))

    thr = CLASSIFY_THRESHOLD
    if self_dual <= thr:
        verdict = "SelfDual"
    elif flatness <= thr:
        verdict = "DuallyFlat"
    elif nabla_res <= thr and probe_res <= thr:
        verdict = "Symmetric"
    else:
        verdict = "General"
    return ClassificationReport(
        self_dual_residual=self_dual,
        flatness_residual=flatness,
        symmetry_residuals=(nabla_res, probe_res),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# symmetry probe
# ---------------------------------------------------------------------------


# a target the probe skips: no converged solve, or a value that is not finite
_SKIPPED = (ShootingNoConvergence, QuadratureFailure)


def symmetry_probe(
    model: ManifoldModel,
    p: Point,
    sample_qs: Sequence[Point],
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> SymmetryProbeResult:
    """Scatter of the dual divergence from p against the reversed divergence to p.

    A strictly monotone relation between the two implies identical rankings of
    the sampled targets; rank agreement is the fraction of concordant target
    pairs. Targets whose solve does not converge or whose value is not finite
    are skipped and reported; more than 20% skipped raises.
    """
    model.require_inside(p)
    qs = np.array([q.coords for q in sample_qs])
    m = qs.shape[0]
    P = np.repeat(p.coords[None, :], m, axis=0)

    dual_vals = np.full(m, np.nan)
    rev_vals = np.full(m, np.nan)
    skipped = []
    try:
        dual_vals = _divergence_many(model, DivergenceKind.CANONICAL_DUAL, P, qs, cfg)
        rev_vals = _divergence_many(model, DivergenceKind.CANONICAL, qs, P, cfg)
    except _SKIPPED:
        for i in range(m):
            try:
                dual_vals[i] = _divergence_many(
                    model, DivergenceKind.CANONICAL_DUAL, P[i : i + 1], qs[i : i + 1], cfg
                )[0]
                rev_vals[i] = _divergence_many(
                    model, DivergenceKind.CANONICAL, qs[i : i + 1], P[i : i + 1], cfg
                )[0]
            except _SKIPPED:
                skipped.append(i)
    if len(skipped) > 0.2 * m:
        raise ShootingNoConvergence(
            f"symmetry probe skipped {len(skipped)}/{m} targets (> 20%)",
            failed_times=skipped,
        )
    keep = np.setdiff1d(np.arange(m), np.array(skipped, dtype=int))
    d = dual_vals[keep]
    r = rev_vals[keep]
    k = keep.shape[0]
    concordant = 0
    total = 0
    for i in range(k):
        di = d[i] - d[i + 1 :]
        ri = r[i] - r[i + 1 :]
        total += di.shape[0]
        concordant += int(np.sum(di * ri > 0))
    agreement = concordant / total if total else 1.0
    eq_err = float(np.max(np.abs(d - r) / (1.0 + np.abs(r)))) if k else 0.0
    return SymmetryProbeResult(
        pairs=np.column_stack([d, r]),
        skipped=skipped,
        rank_agreement=agreement,
        max_equality_error=eq_err,
    )
