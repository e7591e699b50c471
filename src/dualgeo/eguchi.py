"""Recovering (g, Gamma, Gamma*) from a divergence, curvature, classification.

A divergence determines the metric through its second derivatives at the
diagonal and the two connections through mixed third derivatives:

    g_ij       =  d_i d_j   Div |_diag     (first-slot derivatives)
    Gamma_ijk  = -d_i d_j d'_k Div |_diag
    Gamma*_ijk = -d'_i d'_j d_k Div |_diag

`recover_structure` estimates all three numerically, as one linear map of the
divergence at stencil pairs built once per dimension and step, and reports how
well the diagonal identities hold (vanishing first derivatives; agreement of
the three equivalent second-derivative expressions). The pairs are computed in
one batch in a fixed order, so the integrator's error is highly correlated
across the stencil and largely cancels in the differences; on the ODE routes
batch-mates share one adaptive step, so the batch's make-up and order are part
of the result.

Derivative steps grow with the derivative order to balance truncation against
cancellation noise; second and third derivatives use Richardson extrapolation
over the step pair (h, h/2).

Curvature is batched over points (`_curvature_many`; `curvature_tensor` is a
batch of one), so `classify_manifold` makes one call per quantity for all its
sample points, the covariant derivative of the curvature included.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .divergence import NEAR_DIAGONAL, DivergenceKind, _divergence_many, _near_diagonal
from .errors import DualGeoError, InvalidModelSpec, StencilOutOfDomain
from .geodesic import _moving_stencil
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
TANGENT_PROBES, PROBE_SEED = 20, 0  # the sectional probe's draws per point, and their seed
# the share of its targets a symmetry probe may skip: verify's tolerance, probe-f's exit 3
MAX_SKIPPED_FRACTION = 0.2


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
    """Residuals of the structural conditions, and the verdict they give.

    The verdict thresholds the residuals at CLASSIFY_THRESHOLD in the order
    SelfDual, DuallyFlat, Symmetric, General; a NaN residual fails its test.
    `curvature_residual` is max |R^l_ijk - K (delta^l_i g_jk - delta^l_j g_ik)|
    over both connections and the points when the model carries a constant
    curvature K, else None (at K = 0, the flatness residual); not in `to_dict`.
    """

    self_dual_residual: float
    flatness_residual: float
    symmetry_residuals: tuple
    curvature_residual: Optional[float] = None

    @property
    def verdict(self) -> str:
        thr = CLASSIFY_THRESHOLD
        if self.self_dual_residual <= thr:
            return "SelfDual"
        if self.flatness_residual <= thr:
            return "DuallyFlat"
        if all(r <= thr for r in self.symmetry_residuals):
            return "Symmetric"
        return "General"

    def to_dict(self) -> dict:
        return {
            "self_dual_residual": self.self_dual_residual,
            "flatness_residual": self.flatness_residual,
            "covariant_curvature_derivative_residual": self.symmetry_residuals[0],
            "sectional_probe_residual": self.symmetry_residuals[1],
            "verdict": self.verdict,
            "threshold": CLASSIFY_THRESHOLD,
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
    """The divergences at a recovery's offset pairs (K, 2, n) from (p, p), in one batch."""

    def __init__(self, model, which, p, cfg, offsets):
        self.model = model
        self.which = which
        self.p = np.asarray(p, dtype=float)
        self.cfg = cfg
        self._requests = offsets

    def compute(self) -> np.ndarray:
        A, B = self.p + self._requests[:, 0], self.p + self._requests[:, 1]
        self.model.require_inside(np.concatenate([A, B]), "stencil point", StencilOutOfDomain)
        # there the quadratic form answers, which holds the metric exactly; a
        # step too small to move p puts a pair on the diagonal itself
        apart = (self._requests[:, 0] != self._requests[:, 1]).any(axis=1)
        if (apart & _near_diagonal(A, B)).any():
            raise InvalidModelSpec(
                f"finite-difference step {self.cfg.fd_step!r} puts stencil pairs closer than "
                f"{NEAR_DIAGONAL!r}, where the divergence is replaced by its quadratic form"
            )
        return _divergence_many(self.model, self.which, A, B, self.cfg)


def _stencil(n, h, a, b):
    """Central-difference stencil of d_a d'_b Div(p + x, p + y) at x = y = 0.

    `a` and `b` name the first- and second-slot directions. The stencil is the
    tensor product of one-dimensional central differences of step h, with the
    slot that has fewer directions outermost (the first slot on a tie); a
    direction named twice in one slot takes the second difference. Returns the
    offset pairs (x, y) of shape (T, 2, n), weights in summation order, denominator.
    """
    offsets, weights, widths = np.zeros((1, 2, n)), np.ones(1), [1.0, 1.0]
    for s, dirs in ((1, b), (0, a)) if len(b) < len(a) else ((0, a), (1, b)):
        for d in dict.fromkeys(dirs):
            second = dirs.count(d) == 2
            multiples, w = ((1, 0, -1), (1.0, -2.0, 1.0)) if second else ((1, -1), (1.0, -1.0))
            step = np.zeros((len(w), 2, n))
            step[:, s, d] = np.multiply(multiples, h)
            offsets = (offsets[:, None] + step).reshape(-1, 2, n)
            weights = np.outer(weights, w).ravel()
            widths[s] *= h * h if second else 2.0 * h
    return offsets, weights, widths[0] * widths[1]


@functools.lru_cache(maxsize=2)  # verify's default models need two: one step, dims 3 and 2
def _recovery_map(n, fd_step):
    """Structure recovery at dimension n and step fd_step as one linear map,
    built on first use and kept (about 20 MB at n = 16), so its arrays are
    read-only: the distinct offset pairs (K, 2, n) in request order (order,
    step level, estimate, term); (row, column, weight) triples, each row's in
    summation order; row denominators; estimate signs; and per output the
    estimate of each entry.
    The E estimates open with the 2n first derivatives; estimate e has row e
    at step h and, above the first order, row E - 2n + e at h/2."""
    # the step ladder per derivative order (calibrated on the builtin catalog)
    h2, h3 = math.sqrt(fd_step), 0.25 * fd_step ** (1.0 / 3.0)
    steps = {1: (fd_step,), 2: (h2, h2 / 2.0), 3: (h3, h3 / 2.0)}
    outputs = [np.zeros((n,) * rank, dtype=np.intp) for rank in (2, 2, 2, 3, 3)]
    metric, second_q, mixed, gamma, gamma_star = outputs
    # (first-slot, second-slot directions), the first derivatives filling no output
    estimates = [dirs for i in range(n) for dirs in (((i,), ()), ((), (i,)))]

    def estimate(out, idx, a, b):
        for ix in idx:
            out[ix] = len(estimates)
        estimates.append((a, b))

    for i, j in itertools.combinations_with_replacement(range(n), 2):
        estimate(metric, [(i, j), (j, i)], (i, j), ())
        estimate(second_q, [(i, j), (j, i)], (), (i, j))
        for r, c in dict.fromkeys([(i, j), (j, i)]):
            estimate(mixed, [(r, c)], (r,), (c,))
    for k in range(n):
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            estimate(gamma, [(i, j, k), (j, i, k)], (i, j), (k,))
            estimate(gamma_star, [(i, j, k), (j, i, k)], (k,), (i, j))

    E = len(estimates)
    pairs, rows, weights, denoms = [], [], [], np.empty(2 * E - 2 * n)
    for order in (1, 2, 3):
        for level, h in enumerate(steps[order]):
            for e, (a, b) in enumerate(estimates):
                if len(a) + len(b) == order:
                    row = e + level * (E - 2 * n)
                    offsets, w, denoms[row] = _stencil(n, h, a, b)
                    pairs.append(offsets)
                    rows += [row] * len(w)
                    weights.append(w)
    pairs = np.concatenate(pairs)
    index = {}  # the distinct pairs, numbered in order of first appearance
    cols = np.array([index.setdefault(pair.tobytes(), len(index)) for pair in pairs])
    offsets = pairs[np.unique(cols, return_index=True)[1]]
    signs = np.array([-1.0 if len(a) + len(b) == 3 else 1.0 for a, b in estimates])
    out = (offsets, np.array(rows), cols, np.concatenate(weights), denoms, signs, *outputs)
    for array in out:
        array.flags.writeable = False
    return out[:6], out[6:]


def recover_structure(
    model: ManifoldModel,
    which: DivergenceKind,
    p: Point,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> RecoveredStructure:
    """Metric and both connection symbol fields from diagonal derivatives of a divergence.

    One batch of divergences at the stencil pairs, in a fixed order, goes through
    the linear map of the dimension and step (`_recovery_map`). Its quadrature
    clamps to 8 nodes: the finite differences are insensitive to the smooth
    quadrature bias, and every node costs a pair of two-point solves.
    """
    model.require_inside(p)
    n = model.dim
    (offsets, rows, cols, weights, denoms, signs), outputs = _recovery_map(n, cfg.fd_step)
    stencil_cfg = cfg.with_(quad_nodes=min(cfg.quad_nodes, 8))
    values = _StencilEvaluator(model, which, p.coords, stencil_cfg, offsets).compute()
    est = np.bincount(rows, weights * values[cols]) / denoms  # plain sums, in term order
    # Richardson extrapolation over the step pair (h, h/2) above the first order
    E = signs.shape[0]
    val = signs * np.concatenate([est[: 2 * n], (4.0 * est[E:] - est[2 * n : E]) / 3.0])
    metric, second_q, mixed, gamma, gamma_star = (val[ix] for ix in outputs)
    mixed_res = max(np.abs(metric + mixed).max(), np.abs(metric - second_q).max())
    return RecoveredStructure(
        metric=metric,
        gamma=gamma,
        gamma_star=gamma_star,
        first_derivative_residual=float(np.abs(val[: 2 * n]).max()),
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
    model.require_inside(X, "curvature point")
    m, n = X.shape
    stencil, difference = _moving_stencil(X, h, "curvature stencil")
    model.require_inside(stencil.reshape(-1, n), "curvature stencil point", StencilOutOfDomain)
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
    power of four at most max|g|, shape (..., 1, 1). Scaling by it is exact and
    keeps pairings and K g, as (K s)(g/s), inside the float range at any radius."""
    e = np.frexp(np.abs(g).max(axis=(-2, -1)))[1] - 1
    s = np.ldexp(1.0, e - e % 2)[..., None, None]
    return g / s, np.einsum("...lm,...mijk->...ijkl", g / s, R), s


def _nabla_curvature(model, kind, X, cfg, h, R0):
    """Covariant derivatives of the curvature tensors R0 at points X, indexed
    (x, m, l, i, j, k), with the derivative terms by central differences of
    step h on the curvature."""
    m, n = X.shape
    stencil, difference = _moving_stencil(X, h, "covariant-derivative stencil")
    stencil = stencil.reshape(-1, n)
    model.require_inside(stencil, "covariant-derivative stencil point", StencilOutOfDomain)
    R = _curvature_many(model, kind, stencil, cfg.fd_step)
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
) -> ClassificationReport:
    """Threshold the structural residuals at sampled points, in catalog order.

    The sectional probe draws TANGENT_PROBES unit tangent pairs (Y, X) per point,
    seeded by PROBE_SEED, and measures the pairing of R(Y, X)X with X, matching
    the quantifier structure of the symmetric-manifold condition at bounded cost.
    """
    if len(sample_points) < 1:
        raise ValueError("need at least one sample point")
    for p in sample_points:
        model.require_inside(p)
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
    rng = np.random.default_rng(PROBE_SEED)
    Y, Xt = np.moveaxis(rng.standard_normal((m, TANGENT_PROBES, 2, n)), 2, 0)
    Y, Xt = (V / np.sqrt(V[..., None, :] @ gs[:, None] @ V[..., None])[..., 0] for V in (Y, Xt))
    vals = np.einsum("xijkl,xpi,xpj,xpk,xpl->xp", low, Y, Xt, Xt, Xt) / s[..., 0]
    probe_res = float(np.abs(vals).max())
    curvature = None
    if model.constant_curvature is not None:  # K g as (K s)(g/s), the same at any radius
        A = np.einsum("li,xjk->xlijk", np.eye(n), model.constant_curvature * s * gs)
        curvature = float(np.abs(np.stack([R, Rstar]) - (A - np.swapaxes(A, 2, 3))).max())
    return ClassificationReport(
        self_dual_residual=self_dual,
        flatness_residual=flatness,
        symmetry_residuals=(nabla_res, probe_res),
        curvature_residual=curvature,
    )


# ---------------------------------------------------------------------------
# symmetry probe
# ---------------------------------------------------------------------------


def symmetry_probe(
    model: ManifoldModel,
    p: Point,
    sample_qs: Sequence[Point],
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> SymmetryProbeResult:
    """Scatter of the dual divergence from p against the reversed divergence to p.

    A strictly monotone relation between the two implies identical rankings of
    the sampled targets; rank agreement is the fraction of concordant target
    pairs. Every target must lie in the domain. A target whose own evaluation
    raises any DualGeoError is skipped and listed, never raised; how many skips
    are too many is its callers' rule (MAX_SKIPPED_FRACTION).
    """
    for x in (p, *sample_qs):
        model.require_inside(x)
    qs = np.array([q.coords for q in sample_qs])
    m = qs.shape[0]
    P = np.repeat(p.coords[None, :], m, axis=0)

    def scatter(rows):  # [dual(p, q), canonical(q, p)] on the targets in rows
        dual = _divergence_many(model, DivergenceKind.CANONICAL_DUAL, P[rows], qs[rows], cfg)
        rev = _divergence_many(model, DivergenceKind.CANONICAL, qs[rows], P[rows], cfg)
        return np.column_stack([dual, rev])

    skipped = []
    try:
        pairs = scatter(slice(None))
    except DualGeoError:  # then each target alone
        pairs = np.full((m, 2), np.nan)
        for i in range(m):
            try:
                pairs[i] = scatter(slice(i, i + 1))[0]
            except DualGeoError:
                skipped.append(i)
    keep = np.setdiff1d(np.arange(m), np.array(skipped, dtype=int))
    d, r = pairs[keep].T
    i, j = np.triu_indices(keep.shape[0], 1)  # every pair of kept targets
    agreement = float(np.mean((d[i] - d[j]) * (r[i] - r[j]) > 0)) if i.size else 1.0
    eq_err = float(np.max(np.abs(d - r) / (1.0 + np.abs(r)))) if keep.size else 0.0
    return SymmetryProbeResult(
        pairs=pairs[keep],
        skipped=skipped,
        rank_agreement=agreement,
        max_equality_error=eq_err,
    )
