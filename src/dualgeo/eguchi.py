"""Recovering (g, Gamma, Gamma*) from a divergence, curvature, classification.

A divergence determines the metric through its second derivatives at the
diagonal and the two connections through mixed third derivatives:

    g_ij       =  d_i d_j   Div |_diag     (first-slot derivatives)
    Gamma_ijk  = -d_i d_j d'_k Div |_diag
    Gamma*_ijk = -d'_i d'_j d_k Div |_diag

`recover_structure` estimates all three numerically and reports how well the
diagonal identities hold (vanishing first derivatives; agreement of the three
equivalent second-derivative expressions). It describes each estimate once,
in one table: output array, indices, sign, and central-difference stencil per
step level (`_stencil`). Every stencil evaluation is requested from the table,
order by order and level by level, and computed in one batch, so the
integrator's error is highly correlated across the stencil and largely cancels
in the differences; the outputs are then filled from the same table. On the ODE
routes batch-mates share one adaptive step, so the batch's make-up and order
are part of the result.

Derivative steps grow with the derivative order to balance truncation against
cancellation noise; second and third derivatives use Richardson extrapolation
over the step pair (h, h/2).

Curvature is batched over points (`_curvature_many`; `curvature_tensor` is a
batch of one), so `classify_manifold` makes one call per quantity for all its
sample points, the covariant derivative of the curvature included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .divergence import NEAR_DIAGONAL, DivergenceKind, _check_inside, _divergence_many
from .errors import InvalidModelSpec, QuadratureFailure, ShootingNoConvergence, StencilOutOfDomain
from .geodesic import _central_stencil
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
        # every offset coordinate is exactly +-h or 0, so the offsets key
        # themselves: rounding would merge points at a tiny step and move them
        return (tuple(da.tolist()), tuple(db.tolist()))

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
        # there the quadratic form answers, which holds the metric exactly
        if ((A != B).any(axis=1) & (np.linalg.norm(B - A, axis=1) < NEAR_DIAGONAL)).any():
            raise InvalidModelSpec(
                f"finite-difference step {self.cfg.fd_step!r} puts stencil pairs closer than "
                f"{NEAR_DIAGONAL!r}, where the divergence is replaced by its quadratic form"
            )
        vals = _divergence_many(self.model, self.which, A, B, self.cfg)
        self._values = {k: v for k, v in zip(keys, vals)}

    def value(self, da, db) -> float:
        return self._values[self._key(da, db)]


def _stencil(n, h, a, b):
    """Central-difference stencil of d_a d'_b Div(p + x, p + y) at x = y = 0.

    `a` and `b` name the first- and second-slot directions. The stencil is the
    tensor product of one-dimensional central differences of step h, with the
    slot that has fewer directions outermost (the first slot on a tie); a
    direction named twice in one slot takes the second difference. Returns the
    terms ((x, y), weight) in summation order and the denominator.
    """

    def slot(dirs):
        terms, denom = [], 1.0
        for d in dict.fromkeys(dirs):
            e = h * np.eye(n)[d]
            if dirs.count(d) == 2:
                diff, width = [(e, 1.0), (np.zeros(n), -2.0), (-e, 1.0)], h * h
            else:
                diff, width = [(e, 1.0), (-e, -1.0)], 2.0 * h
            terms = [(x + dx, w * dw) for x, w in terms for dx, dw in diff] if terms else diff
            denom *= width
        return terms or [(np.zeros(n), 1.0)], denom

    (xs, da), (ys, db) = slot(a), slot(b)
    if len(b) < len(a):
        return [((x, y), wy * wx) for y, wy in ys for x, wx in xs], da * db
    return [((x, y), wx * wy) for x, wx in xs for y, wy in ys], da * db


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
    stencil_cfg = cfg.with_(quad_nodes=min(cfg.quad_nodes, 8))
    ev = _StencilEvaluator(model, which, p.coords, stencil_cfg)

    # The step ladder per derivative order (calibrated on the builtin catalog),
    # with the Richardson pair (h, h/2) above the first order.
    h2, h3 = np.sqrt(cfg.fd_step), 0.25 * cfg.fd_step ** (1.0 / 3.0)
    steps = {1: (cfg.fd_step,), 2: (h2, h2 / 2.0), 3: (h3, h3 / 2.0)}
    # The table of estimates, one group per derivative order: (output, the
    # indices it fills, sign, its stencil at each step level).
    groups = {1: [], 2: [], 3: []}

    def estimate(order, out, idx, sign, a, b):
        groups[order].append((out, idx, sign, [_stencil(n, h, a, b) for h in steps[order]]))

    first = np.zeros((n, 2))
    metric, second_q, mixed = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    gamma, gamma_star = np.zeros((n, n, n)), np.zeros((n, n, n))
    for i in range(n):
        estimate(1, first, [(i, 0)], 1.0, (i,), ())
        estimate(1, first, [(i, 1)], 1.0, (), (i,))
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        estimate(2, metric, [(i, j), (j, i)], 1.0, (i, j), ())
        estimate(2, second_q, [(i, j), (j, i)], 1.0, (), (i, j))
        for r, c in dict.fromkeys([(i, j), (j, i)]):
            estimate(2, mixed, [(r, c)], 1.0, (r,), (c,))
    for k in range(n):
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            estimate(3, gamma, [(i, j, k), (j, i, k)], -1.0, (i, j), (k,))
            estimate(3, gamma_star, [(i, j, k), (j, i, k)], -1.0, (k,), (i, j))

    # request level by level within each order, then assemble from the same table
    for order, group in groups.items():
        for level in range(len(steps[order])):
            for *_, stencils in group:
                for (x, y), _w in stencils[level][0]:
                    ev.request(x, y)
    ev.compute()

    def apply(terms, denom):
        return sum(w * ev.value(x, y) for (x, y), w in terms) / denom

    for group in groups.values():
        for out, idx, sign, stencils in group:
            est = [apply(*s) for s in stencils]
            # Richardson extrapolation over the step pair (h, h/2)
            val = est[0] if len(est) == 1 else (4.0 * est[1] - est[0]) / 3.0
            for ix in idx:
                out[ix] = sign * val

    mixed_res = max(np.abs(metric + mixed).max(), np.abs(metric - second_q).max())
    return RecoveredStructure(
        metric=metric,
        gamma=gamma,
        gamma_star=gamma_star,
        first_derivative_residual=float(np.abs(first).max()),
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


def _curvature_many(model, kind, X, h) -> np.ndarray:
    """Coordinate curvature tensors R^l_{ijk} at points X of shape (m, n),
    indexed (m, l, i, j, k), from one batched evaluation of the raised symbols
    at the points and their central-difference stencil of step h."""
    _check_inside(model, X, "curvature point")
    m, n = X.shape
    stencil, difference = _central_stencil(X, h)
    inside = model.contains_batch(stencil.reshape(-1, n)).reshape(m, -1).all(axis=1)
    if not inside.all():
        raise StencilOutOfDomain(
            f"curvature stencil around {X[np.argmin(inside)]!r} leaves the domain of "
            f"{model.spec_string}"
        )
    raised = _raised_gamma(model, np.concatenate([stencil.reshape(-1, n), X]), kind)
    dG = difference(raised[:-m].reshape(m, n, 2, n, n, n))  # [m, i, l, j, k] = d_i Gamma^l_{jk}
    G0 = raised[-m:]
    # R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{ia} G^a_{jk} - G^l_{ja} G^a_{ik}
    return (
        np.einsum("xiljk->xlijk", dG)
        - np.einsum("xjlik->xlijk", dG)
        + np.einsum("xlia,xajk->xlijk", G0, G0)
        - np.einsum("xlja,xaik->xlijk", G0, G0)
    )


def curvature_tensor(
    model: ManifoldModel,
    kind: ConnectionKind,
    p: Point,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Coordinate curvature tensor R^l_{ijk} of the chosen connection at p.

    R(e_i, e_j) e_k = R^l_{ijk} e_l, with derivative terms by central finite
    differences of step cfg.fd_step on the raised symbols; antisymmetric in
    (i, j). A batch of one.
    """
    return _curvature_many(model, kind, p.coords[None, :], cfg.fd_step)[0]


def _scaled_curvature(g, R):
    """g/s, the lowered curvature R_{ijkl} = g_{lm} R^m_{ijk} over s, and s: a
    power of four at most max|g|, shape (..., 1, 1). Dividing by it is exact and
    keeps pairings and determinants inside the float range at any radius."""
    e = np.frexp(np.abs(g).max(axis=(-2, -1)))[1] - 1
    s = np.ldexp(1.0, e - e % 2)[..., None, None]
    return g / s, np.einsum("...lm,...mijk->...ijkl", g / s, R), s


def _nabla_curvature(model, kind, X, cfg, h, R0):
    """Covariant derivatives of the curvature tensors R0 at points X, indexed
    (x, m, l, i, j, k), with the derivative terms by central differences of
    step h on the curvature."""
    m, n = X.shape
    stencil, difference = _central_stencil(X, h)
    R = _curvature_many(model, kind, stencil.reshape(-1, n), cfg.fd_step)
    dR = difference(R.reshape((m, n, 2) + R.shape[1:]))
    G = _raised_gamma(model, X, kind)  # [x, l, j, k] = Gamma^l_{jk}
    return (
        dR
        + np.einsum("xlma,xaijk->xmlijk", G, R0)
        - np.einsum("xami,xlajk->xmlijk", G, R0)
        - np.einsum("xamj,xliak->xmlijk", G, R0)
        - np.einsum("xamk,xlija->xmlijk", G, R0)
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
    X = np.array([p.coords for p in sample_points])
    m, n = X.shape
    Gp, Gd = (model.christoffel_batch(X, kind) for kind in ConnectionKind)
    self_dual = float(np.abs(Gp - Gd).max())
    R, Rstar = (_curvature_many(model, kind, X, cfg.fd_step) for kind in ConnectionKind)
    flatness = max(float(np.abs(R).max()), float(np.abs(Rstar).max()))
    nabla = _nabla_curvature(model, ConnectionKind.PRIMAL, X, cfg, 2.0 * np.sqrt(cfg.fd_step), R)
    nabla_res = float(np.abs(nabla).max())
    gs, low, s = _scaled_curvature(model.metric_batch(X), R)
    # drawn point by point, probe by probe, Y before X; unit in g/s, they come
    # out sqrt(s) times too long, so low/s pairs them to s times the value
    Y, Xt = np.moveaxis(np.random.default_rng(seed).standard_normal((m, tangent_probes, 2, n)), 2, 0)
    Y, Xt = (V / np.sqrt(V[..., None, :] @ gs[:, None] @ V[..., None])[..., 0] for V in (Y, Xt))
    vals = np.einsum("xijkl,xpi,xpj,xpk,xpl->xp", low, Y, Xt, Xt, Xt) / s[..., 0]
    probe_res = float(np.abs(vals).max())

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
    d, r = dual_vals[keep], rev_vals[keep]
    i, j = np.triu_indices(keep.shape[0], 1)  # every pair of kept targets
    agreement = float(np.mean((d[i] - d[j]) * (r[i] - r[j]) > 0)) if i.size else 1.0
    eq_err = float(np.max(np.abs(d - r) / (1.0 + np.abs(r)))) if keep.size else 0.0
    return SymmetryProbeResult(
        pairs=np.column_stack([d, r]),
        skipped=skipped,
        rank_agreement=agreement,
        max_equality_error=eq_err,
    )
