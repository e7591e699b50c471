"""The divergence family: geodesic-integral divergences, their duals, and gradients.

Implemented functionals, for a pair (p, q) joined by unique geodesics of both
connections:

    ay_divergence            integral of t * |sigma_dot|^2 along the primal
                             geodesic from p to q
    canonical_divergence     integral of <Pi_t, sigma_dot> along the primal
                             geodesic, where Pi_t is the primal-transport of
                             the primal log vector along the dual geodesic
    dual_canonical_divergence   the same construction with the connections
                             swapped
    pseudo_norm              metric pairing at p of the two log vectors
    path_functional          both line integrals of (Pi, Pi*) against an
                             arbitrary path's velocity; their sum is
                             path-independent and equals the pseudo-norm
    divergence_gradient      Riemannian gradient in the second slot by central
                             finite differences
    oracle_divergence        closed-form reference value on models that carry one

All quadratures are fixed-order Gauss-Legendre on [0, 1], with the nodes
batched as stacked systems. The ay and canonical kinds read their nodes on
the geodesic from p to q off the integrator (`_main_nodes`), or off the
closed form of a plane section, so they are exact on the affine-chart route.
A path-functional node costs two two-point solves (both logs); a canonical
node costs one, the dual log that tracks transport, since its primal log is
t V on the primal geodesic from p with velocity V. On a self-dual model the
dual log is the primal one, so a canonical node costs no solve and a
path-functional node one, and Pi* is Pi. A log vector is transported in its
track's own integration. Every computation runs batched; each public
function is a batch of one, with no path of its own: each divergence kind
goes through `divergence_value` into `_divergence_many`,
`pi_field` into `_pi_many`, `path_functional` into `_path_functional_many`
and `divergence_gradient` into `_gradient_many`. The weighted sum over the
nodes and each metric pairing are taken row by row, so a pair's value never
depends on the BLAS kernel. On the closed-form routes (every kind on an
affine chart; ay and the pseudo-norm on a curved section) it depends only on
that pair, bit for bit, in any batch; on the ODE routes a stacked system
shares one adaptive step, so its last bits depend on the rest of the batch.

`_divergence_many` decides in one place which pairs of a geodesic-integral
kind are answered by the quadratic form d.g(p).d (halved for every kind but
the pseudo-norm) instead of by an evaluator:

  - pairs closer than NEAR_DIAGONAL, where shooting Jacobians degenerate and
    the second-order form is exact enough;
  - every pair of a doubly flat model (both connections flat in the chart),
    where the metric is constant, both geodesics are the chord at constant
    speed and transport is the identity, so the form is exact.

The quadrature itself is never replaced by the oracle: on the dually flat
builtins every kind still integrates, but over closed-form pieces, since each
connection has a linear plane section, an affine chart (see `geodesic`).
Geodesics and log vectors then come without ODE or Newton iteration, and a
transported difference vector is J(target)^{-1} J(base) V, which needs no
track geodesic, so `_pi_many` integrates no track, and for a canonical kind,
whose primal logs it is given, shoots no log. On alpha_categorical the
sections are curved: logs and main geodesics are closed form, and a
transported vector still rides in its integrated track. A copy of the model
with no sections, `dataclasses.replace(model, plane_sections={})`, sends every
pair off the diagonal down the integration and shooting route. The
closed-form oracle kind is never guarded.

Every value `_divergence_many` or `_path_functional_many` returns is finite
(`_finite`); a non-finite one, from any route (an overflowing quadratic form
on huge coordinates, say), raises QuadratureFailure, and the CLI flags its row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .errors import OracleUnavailable, QuadratureFailure, StencilOutOfDomain
from .geodesic import (
    Curve,
    _flat_transport,
    _gauss_legendre,
    _geodesic_states,
    _moving_stencil,
    _shoot_many,
)
from .manifold import ConnectionKind, ManifoldModel, Point, Tangent

__all__ = [
    "DivergenceKind",
    "PathFunctionalResult",
    "ay_divergence",
    "canonical_divergence",
    "dual_canonical_divergence",
    "pseudo_norm",
    "pi_field",
    "path_functional",
    "divergence_gradient",
    "oracle_divergence",
    "divergence_value",
]

NEAR_DIAGONAL = 1e-6  # chart distance below which the quadratic form is exact enough


class DivergenceKind(enum.Enum):
    AY = "ay"
    CANONICAL = "canonical"
    CANONICAL_DUAL = "dual"
    PSEUDO_NORM = "pseudonorm"
    ORACLE_KL = "oracle"


@dataclass(frozen=True)
class PathFunctionalResult:
    """Line integrals of the two transported-difference fields along one path."""

    primal_integral: float
    dual_integral: float

    @property
    def sum(self) -> float:
        return self.primal_integral + self.dual_integral


def _near_diagonal(P, Q) -> np.ndarray:
    """Pairs closer than NEAR_DIAGONAL in the chart; one that overflows is not."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(Q - P, axis=1) < NEAR_DIAGONAL


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _finite(what: str, evaluate, *args):
    """evaluate(*args), an array or a tuple of arrays, if all of it is finite;
    else QuadratureFailure. numpy's floating-point warnings are off inside,
    since the check reports what they would."""
    out = evaluate(*args)
    for values in out if isinstance(out, tuple) else (out,):
        bad = ~np.isfinite(values).ravel()
        if bad.any():
            raise QuadratureFailure(f"{what} is not finite (first offender: pair {bad.argmax()})")
    return out


def _metric_pairing(model: ManifoldModel, X, U, V) -> np.ndarray:
    # row by row: a three-operand einsum's last bits depend on the batch
    g = model.metric_batch(X)
    return (U * np.matmul(g, V[..., None])[..., 0]).sum(axis=-1)


# ---------------------------------------------------------------------------
# transported difference fields
# ---------------------------------------------------------------------------


def _pi_many(
    model: ManifoldModel,
    bases: np.ndarray,
    targets: np.ndarray,
    cfg: ToleranceConfig,
    primal_logs: Optional[np.ndarray] = None,
):
    """Batched transported difference vectors at the targets.

    Each field is its connection's log vector from base to target, carried
    there by that connection's transport. One rule builds both: a connection
    with a linear plane section (an affine chart) transports as
    J(target)^{-1} J(base) V, which needs no track; any other carries V in the
    integration of its track, the other connection's geodesic, and reads it
    at t = 1.
    Each log is shot at most once, the primal before the dual; on a self-dual
    model, whose two connections are one, the dual log is the primal log, so
    its track is the geodesic of V itself, and PiStar is Pi. Returns (Pi,
    PiStar). A caller that knows the primal logs passes them and gets (Pi,
    None): the dual log is then shot only as the track, and not at all when
    the primal connection has an affine chart or the model is self-dual.
    "Shot" includes the closed-form log of a plane section, which
    `_shoot_many` returns.
    """
    self_dual = model.is_self_dual
    logs = {ConnectionKind.PRIMAL: primal_logs, ConnectionKind.DUAL: None}

    def log(kind):
        kind = ConnectionKind.PRIMAL if self_dual else kind
        if logs[kind] is None:
            logs[kind], _ = _shoot_many(model, kind, bases, targets, cfg)
        return logs[kind]

    def field(kind):
        V, section = log(kind), model.plane_sections.get(kind)
        if section is not None and section.linear:
            return _flat_transport(section, bases, targets, V)
        states = _geodesic_states(model, kind.dual, bases, log(kind.dual), cfg, [1.0], (kind, V))
        return states[0, :, 2 * bases.shape[1] :]

    Pi = field(ConnectionKind.PRIMAL)
    if primal_logs is not None:
        return Pi, None
    return Pi, Pi if self_dual else field(ConnectionKind.DUAL)


def pi_field(
    model: ManifoldModel,
    p: Point,
    gamma: Curve,
    t: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
):
    """The pair of transported difference vectors at gamma(t) of one curve, based there."""
    model.require_inside(p)
    x = np.atleast_1d(gamma._one("pi_field").position(float(t)))
    model.require_inside(x, "curve point")
    Pi, PiStar = _pi_many(model, p.coords[None, :], x[None, :], cfg)
    at = Point(x)
    return Tangent(at, Pi[0]), Tangent(at, PiStar[0])


# ---------------------------------------------------------------------------
# batched divergence evaluators
# ---------------------------------------------------------------------------


def _main_nodes(model, kind, P, Q, t, cfg):
    """The main geodesics from P to Q of the connection: their log vectors V,
    shape (m, n), and their positions and velocities at the times t, each of
    shape (m, len(t), n), read from the integrator."""
    n = P.shape[1]
    V, _ = _shoot_many(model, kind, P, Q, cfg)
    states = np.swapaxes(_geodesic_states(model, kind, P, V, cfg, t), 0, 1)
    return V, states[..., :n], states[..., n:]


def _ay_many(model, P, Q, cfg) -> np.ndarray:
    n = P.shape[1]
    t_nodes, w = _gauss_legendre(cfg.quad_nodes)
    _, xs, vs = _main_nodes(model, ConnectionKind.PRIMAL, P, Q, t_nodes, cfg)
    flat_v = vs.reshape(-1, n)
    speed2 = _metric_pairing(model, xs.reshape(-1, n), flat_v, flat_v)
    return (speed2.reshape(-1, t_nodes.shape[0]) * (w * t_nodes)).sum(axis=1)


def _canonical_many(model, P, Q, cfg) -> np.ndarray:
    n = P.shape[1]
    t_nodes, w = _gauss_legendre(cfg.quad_nodes)
    k = t_nodes.shape[0]
    V, xs, vs = _main_nodes(model, ConnectionKind.PRIMAL, P, Q, t_nodes, cfg)
    bases = np.repeat(P, k, axis=0)
    targets = xs.reshape(-1, n)
    # the primal log from p to the geodesic's node at t is t V, exactly
    logs = (t_nodes[None, :, None] * V[:, None, :]).reshape(-1, n)
    Pi, _ = _pi_many(model, bases, targets, cfg, primal_logs=logs)
    integrand = _metric_pairing(model, targets, Pi, vs.reshape(-1, n)).reshape(-1, k)
    return (integrand * w).sum(axis=1)


def _pseudo_norm_many(model, P, Q, cfg) -> np.ndarray:
    Vp, _ = _shoot_many(model, ConnectionKind.PRIMAL, P, Q, cfg)
    Vd = Vp if model.is_self_dual else _shoot_many(model, ConnectionKind.DUAL, P, Q, cfg)[0]
    return _metric_pairing(model, P, Vp, Vd)


def _oracle_many(model, P, Q) -> np.ndarray:
    if model.oracle_fn is None:
        raise OracleUnavailable(f"{model.spec_string} has no closed-form divergence")
    return model.oracle_fn(P, Q)


def _divergence_many(
    model: ManifoldModel,
    kind: DivergenceKind,
    P: np.ndarray,
    Q: np.ndarray,
    cfg: ToleranceConfig,
) -> np.ndarray:
    """Vectorized dispatch over pairs; P and Q are (m, n) chart arrays.

    Pairs near the diagonal, and every pair of a doubly flat model, get the
    quadratic form (see the module docstring); the evaluator sees the rest.
    Every value is finite (`_finite`)."""
    if not isinstance(kind, DivergenceKind):
        raise ValueError(f"unknown divergence kind {kind!r}; use a DivergenceKind")
    model.require_inside(P, "first argument")
    model.require_inside(Q, "second argument")
    what = f"{kind.value} divergence on {model.spec_string}"
    return _finite(what, _evaluate_many, model, kind, P, Q, cfg)


def _evaluate_many(model, kind, P, Q, cfg) -> np.ndarray:
    if kind is DivergenceKind.ORACLE_KL:
        return _oracle_many(model, P, Q)
    if kind is DivergenceKind.CANONICAL_DUAL:
        model, kind = model.dualized(), DivergenceKind.CANONICAL
    evaluate = {
        DivergenceKind.AY: _ay_many,
        DivergenceKind.CANONICAL: _canonical_many,
        DivergenceKind.PSEUDO_NORM: _pseudo_norm_many,
    }[kind]
    doubly_flat = model.is_flat(ConnectionKind.PRIMAL) and model.is_flat(ConnectionKind.DUAL)
    exact = doubly_flat | _near_diagonal(P, Q)
    out = np.empty(P.shape[0])
    d = Q[exact] - P[exact]
    form = _metric_pairing(model, P[exact], d, d)
    # the second-order limit of the log pairing carries no 1/2
    out[exact] = form if kind is DivergenceKind.PSEUDO_NORM else 0.5 * form
    if not exact.all():
        out[~exact] = evaluate(model, P[~exact], Q[~exact], cfg)
    return out


# ---------------------------------------------------------------------------
# public scalar operations
# ---------------------------------------------------------------------------


def divergence_value(
    model: ManifoldModel,
    kind: DivergenceKind,
    p: Point,
    q: Point,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> float:
    """Scalar divergence of any kind for one pair: a batch of one."""
    return float(_divergence_many(model, kind, p.coords[None], q.coords[None], cfg)[0])


def ay_divergence(
    model: ManifoldModel, p: Point, q: Point, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """Time-weighted energy of the primal geodesic from p to q."""
    return divergence_value(model, DivergenceKind.AY, p, q, cfg)


def canonical_divergence(
    model: ManifoldModel, p: Point, q: Point, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """Line integral of the transported-difference field along the primal geodesic."""
    return divergence_value(model, DivergenceKind.CANONICAL, p, q, cfg)


def dual_canonical_divergence(
    model: ManifoldModel, p: Point, q: Point, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """The canonical construction applied to the manifold with connections swapped."""
    return divergence_value(model, DivergenceKind.CANONICAL_DUAL, p, q, cfg)


def pseudo_norm(
    model: ManifoldModel, p: Point, q: Point, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """Metric pairing at p of the primal and dual log vectors of q."""
    return divergence_value(model, DivergenceKind.PSEUDO_NORM, p, q, cfg)


def oracle_divergence(model: ManifoldModel, p: Point, q: Point) -> float:
    """Closed-form reference divergence; OracleUnavailable if the model has none."""
    return divergence_value(model, DivergenceKind.ORACLE_KL, p, q)


def _piecewise_nodes(cfg: ToleranceConfig, breaks) -> tuple:
    """Gauss-Legendre nodes split at a curve's smoothness breakpoints."""
    edges = [0.0]
    if breaks is not None:
        edges.extend(float(b) for b in np.sort(np.asarray(breaks)) if 0.0 < b < 1.0)
    edges.append(1.0)
    x, w = _gauss_legendre(max(8, int(np.ceil(cfg.quad_nodes / (len(edges) - 1)))))
    a, b = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    return (a + (b - a) * x).ravel(), ((b - a) * w).ravel()


def _path_functional_many(model: ManifoldModel, P: np.ndarray, paths: Curve, cfg: ToleranceConfig):
    """Both line integrals of (Pi, Pi*) along paths sampled (..., grid, n), from
    base points P that broadcast to (..., n): two finite arrays of shape (...)."""
    return _finite(f"path functional on {model.spec_string}", _path_integrals, model, P, paths, cfg)


def _path_integrals(model, P, paths, cfg):
    """`_path_functional_many` unguarded: one `_pi_many` call, a sum per row."""
    n = paths.dim
    t_nodes, w = _piecewise_nodes(cfg, paths.breaks)
    xs = paths.position(t_nodes)  # (..., k, n)
    model.require_inside(xs.reshape(-1, n), "path node")
    vs = paths.velocity(t_nodes).reshape(-1, n)
    bases = np.broadcast_to(P[..., None, :], xs.shape).reshape(-1, n)
    xs = xs.reshape(bases.shape)
    Pi, PiStar = _pi_many(model, bases, xs, cfg)
    shape = paths.xs.shape[:-2] + t_nodes.shape
    primal = (_metric_pairing(model, xs, Pi, vs).reshape(shape) * w).sum(axis=-1)
    dual = (_metric_pairing(model, xs, PiStar, vs).reshape(shape) * w).sum(axis=-1)
    return primal, dual


def path_functional(
    model: ManifoldModel,
    p: Point,
    gamma: Curve,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> PathFunctionalResult:
    """Both line integrals of the transported-difference fields along one curve gamma.

    Their sum depends only on the endpoints and equals the pseudo-norm of
    (p, gamma(1)); the integrals are taken against gamma's own velocity.
    """
    model.require_inside(p)
    primal, dual = _path_functional_many(model, p.coords, gamma._one("path_functional"), cfg)
    return PathFunctionalResult(primal_integral=float(primal), dual_integral=float(dual))


def _gradient_many(
    model: ManifoldModel,
    which: DivergenceKind,
    P: np.ndarray,
    Q: np.ndarray,
    cfg: ToleranceConfig,
) -> np.ndarray:
    """Riemannian gradients in the second slot for m pairs, one batched call."""
    m, n = Q.shape
    stencil, difference = _moving_stencil(Q, cfg.fd_step, "gradient stencil")
    stencil = stencil.reshape(-1, n)
    model.require_inside(stencil, "gradient stencil point", StencilOutOfDomain)
    vals = _divergence_many(model, which, np.repeat(P, 2 * n, axis=0), stencil, cfg)
    cov = difference(vals.reshape(m, n, 2))
    g = model.metric_batch(Q)
    return np.linalg.solve(g, cov[..., None])[..., 0]


def divergence_gradient(
    model: ManifoldModel,
    which: DivergenceKind,
    p: Point,
    q: Point,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> Tangent:
    """Riemannian gradient at q of x -> divergence(p, x).

    Central finite differences of step cfg.fd_step in the chart, with the
    inverse metric applied to the coordinate gradient; all stencil
    evaluations run as one batch.
    """
    model.require_inside(p)
    model.require_inside(q)
    grads = _gradient_many(model, which, p.coords[None, :], q.coords[None, :], cfg)
    return Tangent(q, grads[0])
