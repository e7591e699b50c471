"""Geodesics, exponential/log maps and parallel transport for either connection.

Everything funnels through a small number of batched primitives so that the
expensive pieces (Newton shooting for the two-point problem, transport of many
vectors along many curves) integrate one stacked ODE system per sweep instead
of thousands of tiny ones:

    _integrate_states   stacked geodesic initial value problems
    _shoot_many         vectorized Newton iteration for the log map
    _transport_many     stacked transport equations along batched curves

Each numerical piece has one copy. Both ODEs take their right-hand side from
`_contract`, the raised symbol contraction -g^{-1} Gamma(u, w): at (v, v) for
a geodesic, at (x', V) for a transported vector, which rides in its track's
integration as the state (x, v, w); only `parallel_transport` integrates it
alone, along a `Curve`'s interpolant (`_transport_many`). `_contract` runs the
model's closed-form kernel for the connection, `model.contraction_fns[kind]`,
when it has one, and otherwise the generic reference: the symbols contracted
by one einsum and solved against the metric. `dualized()` swaps the kernels
with the symbols, a copy with `plane_sections={}` keeps them, and a copy with
`contraction_fns={}` runs the generic reference, which is how the kernels are
cross-checked. Both ODEs are solved by `_rk45`, an in-tree Dormand-Prince
5(4) integrator whose arithmetic is that of the solve_ivp(method="RK45") call
it replaced; a test checks the two bit for bit.
The geodesic equation is integrated as it stands, with no cap on speed or
acceleration. A Newton trial shot that runs away in finite time has one
defence: `_rk45` raises IntegrationFailure when the step size collapses or the
state goes non-finite, `_endpoints_resilient` bisects the batch until the
runaway member stands alone and flags it, and `_shoot_many` rejects that
trial as it rejects any that does not cut the member's best error, halving
the step from its best shot (at first the zero shot).
One type, `Curve`, holds one path or a batch of them: samples of shape
(..., grid, n) on the uniform grid linspace(0, 1, grid), read between samples
by one cubic Hermite interpolant (`_hermite_value`, `_hermite_slope`), at one
time or a vector of times. An integrated curve has _CURVE_GRID samples; a
waypoint path is stored on its knots, where the interpolant is the path. A
state wanted at known times (a quadrature node, an end velocity) is read
off the integrator by `_geodesic_states`, never through the interpolant.
The single-item API is a view of the batched core:
`integrate_geodesic` and `parallel_transport` hand their one curve to
`_curves_from_initial` and `_transport_many`, which take leading axes, and
`log_map` solves a batch of one. One central-difference stencil,
`_central_stencil` (the points X +- h e_i laid out (..., i, +-, n), and their
difference), serves the shooting Jacobian, the divergence gradients, the
curvature tensors and the duality check; where the step is a caller's
`fd_step` (gradients, curvature), `_moving_stencil` refuses one whose
realized span (X + h) - (X - h) is off 2h by more than 1%.

A connection for which the model supplies a `PlaneSection` (a representation
R in which its geodesics are plane sections through the origin) is handled in
closed form by one code path, `_section_states`, `_section_log` and
`_flat_transport`, with W = dR v0 and d = R(q) - R(p):

    linear       the affine charts: the working chart for the model's
                 `flat_kinds`, the Legendre chart eta = grad psi for the other
                 connection of a dually flat builtin. The geodesic is the
                 straight R-line R(x0) + t W, the log map pulls d back, and
                 transport pulls back dR_x0 V0 at x1 along any curve, since
                 flat transport does not depend on the path
    curved       R is normalized by N, homogeneous of degree 1 (the
                 alpha-representation p^beta on alpha_categorical). With
                 C(s) = R(x0) + s W the geodesic is C(s) / N(C(s)) at time
                 t(s), the integral of N(C)^-2 from 0 to s (16 Gauss-Legendre
                 nodes), with velocity N W - C dN[W]; a state at t takes a
                 scalar Newton solve for s per member and time. The log map
                 pulls back c (d - dN[d] R(p)), with c = t(1) along
                 R(p) + s d. Transport is integrated

In the working chart R and its push-forward are the identity. A geodesic that
carries a vector is integrated even when its connection has a section. On a
linear section geodesic states are checked against the domain on every grid
sample, so an eta-line that leaves the domain raises DomainExit as the
integrated geodesic does; a curved section's domain meets each geodesic in one
interval of times, so its state at t = 1 decides. A copy of the model with no
sections, `dataclasses.replace(model, plane_sections={})`, takes the ODE and
shooting route everywhere: that one switch turns every closed form off, which
is how they are cross-checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .errors import (
    BaseMismatch,
    DomainExit,
    IntegrationFailure,
    InvalidModelSpec,
    ShootingNoConvergence,
)
from .manifold import ConnectionKind, ManifoldModel, PlaneSection, Point, Tangent

__all__ = [
    "Curve",
    "integrate_geodesic",
    "exp_map",
    "log_map",
    "parallel_transport",
]


# ---------------------------------------------------------------------------
# cubic Hermite interpolation on a shared uniform grid
# ---------------------------------------------------------------------------


def _hermite_cell(K: int, t):
    """The cell of the uniform grid linspace(0, 1, K) holding each time t, the
    offset s in [0, 1] within it (with a trailing axis), and the cell width.
    A time outside [0, 1], NaN included, is a ValueError: a Curve does not
    extrapolate."""
    t = np.asarray(t, dtype=float)
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError("a Curve is read only at times in [0, 1]")
    steps = K - 1
    cell = np.clip((t * steps).astype(int), 0, steps - 1)
    return cell, (t * steps - cell)[..., None], 1.0 / steps


def _hermite_value(values: np.ndarray, derivs: np.ndarray, t):
    """Cubic Hermite interpolant of `values` with slopes `derivs` at t.

    Both are sampled on linspace(0, 1, grid), shape (..., grid, n). A scalar
    t gives (..., n); a vector of k times gives (..., k, n).
    """
    cell, s, dt = _hermite_cell(values.shape[-2], t)
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * values[..., cell, :]
        + (s3 - 2.0 * s2 + s) * dt * derivs[..., cell, :]
        + (-2.0 * s3 + 3.0 * s2) * values[..., cell + 1, :]
        + (s3 - s2) * dt * derivs[..., cell + 1, :]
    )


def _hermite_slope(values: np.ndarray, derivs: np.ndarray, t):
    """Exact t-derivative of `_hermite_value`, with the same shapes."""
    cell, s, dt = _hermite_cell(values.shape[-2], t)
    s2 = s * s
    return (
        (6.0 * s2 - 6.0 * s) * values[..., cell, :] / dt
        + (3.0 * s2 - 4.0 * s + 1.0) * derivs[..., cell, :]
        + (-6.0 * s2 + 6.0 * s) * values[..., cell + 1, :] / dt
        + (3.0 * s2 - 2.0 * s) * derivs[..., cell + 1, :]
    )


@dataclass(frozen=True, eq=False)
class Curve:
    """Paths t in [0, 1] -> M sampled on the uniform grid linspace(0, 1, K).

    `xs` and `vs` have shape (..., K, n): one path, or a batch of paths in
    leading axes that share the grid: _CURVE_GRID samples when integrated,
    the K knots of a waypoint path; `ts` reads the grid back. A scalar t
    gives (..., n); a vector of k times gives (..., k, n).

    `velocity` is the exact derivative of the position interpolant when no
    acceleration samples are stored (interpolated paths), and the Hermite
    interpolant of the sampled velocities when they are (integrated curves,
    where the stored accelerations come from the geodesic equation).

    `breaks` lists interior parameters where the path loses smoothness
    (waypoint knots); quadratures over the curve split there. `start_point`,
    `end_point`, `parallel_transport`, `pi_field` and `path_functional` take
    one path, and refuse a batch with a ValueError.
    """

    xs: np.ndarray
    vs: np.ndarray
    accs: Optional[np.ndarray] = None
    breaks: Optional[np.ndarray] = None

    def __post_init__(self):
        # the interpolant finds a time's cell as t * (K - 1) and reads its
        # row of each sample array, which must have one row per sample of xs
        K = np.shape(self.xs)[-2:-1]
        if not K or K[0] < 2:
            raise ValueError("xs needs at least two samples on its axis -2")
        for name, samples in (("vs", self.vs), ("accs", self.accs)):
            if samples is not None and np.shape(samples)[-2:-1] != K:
                raise ValueError(f"{name} needs one row per sample of xs on its axis -2")

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.xs.shape[-2])

    @property
    def dim(self) -> int:
        return self.xs.shape[-1]

    def position(self, t):
        return _hermite_value(self.xs, self.vs, t)

    def velocity(self, t):
        if self.accs is None:
            return _hermite_slope(self.xs, self.vs, t)
        return _hermite_value(self.vs, self.accs, t)

    def velocity_derivative(self, t):
        if self.accs is None:
            raise ValueError("curve carries no acceleration samples")
        return _hermite_slope(self.vs, self.accs, t)

    def _one(self, what: str) -> "Curve":
        if self.xs.ndim != 2:
            raise ValueError(f"{what} takes one curve, not a batch of shape {self.xs.shape[:-2]}")
        return self

    def start_point(self) -> Point:
        return Point(self._one("start_point").xs[0].copy())

    def end_point(self) -> Point:
        return Point(self._one("end_point").xs[-1].copy())

    @staticmethod
    def from_waypoints(waypoints) -> "Curve":
        """C1 paths through waypoints of shape (..., K, n): Catmull-Rom
        tangents on uniform knots, stored on the knots, where the Hermite
        interpolant is the piecewise cubic itself; velocity is its exact
        derivative. The waypoints are copied."""
        W = np.array(waypoints, dtype=float)
        if W.ndim < 2 or W.shape[-2] < 2:
            raise ValueError("need at least two waypoints")
        K = W.shape[-2]
        du = 1.0 / (K - 1)
        M = np.empty_like(W)
        M[..., 0, :] = (W[..., 1, :] - W[..., 0, :]) / du
        M[..., -1, :] = (W[..., -1, :] - W[..., -2, :]) / du
        if K > 2:
            M[..., 1:-1, :] = (W[..., 2:, :] - W[..., :-2, :]) / (2.0 * du)
        return Curve(xs=W, vs=M, breaks=np.linspace(0.0, 1.0, K)[1:-1])


# ---------------------------------------------------------------------------
# batched geodesic integration
# ---------------------------------------------------------------------------


def _contract(model: ManifoldModel, kind: ConnectionKind, X, U, W) -> np.ndarray:
    """Batched raised contraction -g^{-1} Gamma(U, W) of the lower-index symbols.

    At (V, V) it is the geodesic acceleration; at (x', V) it is the rate of a
    vector V transported along a curve with velocity x'. The model's closed
    form runs when it has one; otherwise the symbols are contracted and solved
    against the metric, the generic reference.
    """
    kernel = model.contraction_fns.get(kind)
    if kernel is not None:
        return kernel(X, U, W)
    G = model.christoffel_batch(X, kind)
    g = model.metric_batch(X)
    return -_solve_spd(g, np.einsum("mijk,mi,mj->mk", G, U, W))


def _geodesic_accel(model: ManifoldModel, kind: ConnectionKind, X, V) -> np.ndarray:
    """Batched geodesic acceleration -Gamma^k_ij v^i v^j."""
    return _contract(model, kind, X, V, V)


def _solve_spd(g, rhs):
    """Batched metric solve; ridge fallback for numerically singular members
    (reachable only by trial shots far outside any domain)."""
    try:
        return np.linalg.solve(g, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        n = g.shape[-1]
        ridge = 1e-12 * np.maximum(np.trace(g, axis1=-2, axis2=-1), 1.0)
        return np.linalg.solve(
            g + ridge[..., None, None] * np.eye(n), rhs[..., None]
        )[..., 0]


def _flat_transport(section: PlaneSection, X0, X1, V0) -> np.ndarray:
    """Transport of V0 from X0 to X1 by the connection of a linear section: its
    components in the representation stay fixed along any curve."""
    return section.pull(X1, section.push(X0, V0)).copy()


@functools.lru_cache(maxsize=64)
def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], computed once per node
    count; the arrays are shared, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, w = (x + 1.0) / 2.0, w / 2.0
    t.flags.writeable = w.flags.writeable = False
    return t, w


_SECTION_NODES = 16  # Gauss-Legendre nodes of a curved section's time integral
_SECTION_SWEEPS = 30  # Newton steps before a section parameter is given up as NaN


def _section_time(section: PlaneSection, R0, W, s) -> np.ndarray:
    """t(s), the integral of N(R0 + u W)^-2 over u in [0, s], for m sections
    R0, W (m, k) and parameters s (m,); a sum per row, so a row's value does
    not depend on the others."""
    x, w = _gauss_legendre(_SECTION_NODES)
    C = R0[:, None, :] + (s[:, None] * x)[..., None] * W[:, None, :]
    return s * (w * section.normalizer(C) ** -2.0).sum(axis=-1)


def _section_parameter(section: PlaneSection, R0, W, T) -> np.ndarray:
    """The parameters s with t(s) = T along m curved sections, (len(T), m), by
    Newton's method from s = t. Each element stops on its own, so it does not
    depend on the batch. t(s) is concave for s > 0 (N is convex and least at
    0), so the iterates rise to the root; one that leaves the section's cone,
    where the geodesic has left the domain before t, turns NaN."""
    m = R0.shape[0]
    t = np.repeat(T, m)
    member = np.tile(np.arange(m), T.shape[0])
    s = t.copy()
    todo = np.arange(s.size)
    for _ in range(_SECTION_SWEEPS):
        i, si = member[todo], s[todo]
        speed = section.normalizer(R0[i] + si[:, None] * W[i]) ** 2
        step = (_section_time(section, R0[i], W[i], si) - t[todo]) * speed
        s[todo] = si - step
        # quadratic convergence: a step below 1e-13 leaves an error far below rounding
        todo = todo[np.abs(step) > 1e-13 * np.abs(s[todo])]
        if not todo.size:
            break
    s[todo] = np.nan
    return s.reshape(T.shape[0], m)


def _section_states(section: PlaneSection, X0, V0, T) -> np.ndarray:
    """States (x, v) at the times T of the section's geodesics with initial
    data X0, V0 (m, n): (len(T), m, 2n). On a linear section C = R(x0) + t W
    with W = dR v0 is the geodesic itself; on a curved one it is C(s) / N(C(s))
    at the s with t(s) = t, with velocity N W - C dN[W]."""
    m, n = X0.shape
    R0, W = section.to_rep(X0), section.push(X0, V0)
    k = R0.shape[1]
    if section.linear:
        C = R0[None, :, :] + T[:, None, None] * W[None, :, :]
        X = section.from_rep(C.reshape(-1, k))
        dR = np.broadcast_to(W[None, :, :], C.shape).reshape(-1, k)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s = _section_parameter(section, R0, W, T)
            C = R0[None, :, :] + s[..., None] * W[None, :, :]
            N = section.normalizer(C)[..., None]
            X = section.from_rep((C / N).reshape(-1, k))
            Ws = np.broadcast_to(W[None, :, :], C.shape).reshape(-1, k)
            dN = section.differential(X, Ws).reshape(N.shape)
            dR = (N * W[None, :, :] - C * dN).reshape(-1, k)
    V = section.pull(X, dR)
    return np.concatenate([X, V], axis=1).reshape(T.shape[0], m, 2 * n)


def _section_log(section: PlaneSection, P, Q) -> np.ndarray:
    """The log vectors from P to Q (m, n) along the section's geodesics. On a
    linear section it is the pullback of d = R(q) - R(p); on a curved one, of
    c (d - dN[d] R(p)), with c = t(1) along C(s) = R(p) + s d."""
    Rp = section.to_rep(P)
    d = section.to_rep(Q) - Rp
    if section.linear:
        return section.pull(P, d)
    c = _section_time(section, Rp, d, np.ones(P.shape[0]))
    return section.pull(P, c[:, None] * (d - section.differential(P, d)[:, None] * Rp))


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett &
# Wanner, Solving ODEs I, II.4) with Shampine's quartic dense output: nodes C,
# stages A, fifth-order weights B, error-estimate weights E over the six stages
# and the first stage of the next step, and the dense-output coefficients P.
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array(
    [
        [0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    ]
)
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array(
    [-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40]
)
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
# step-size control: safety factor and the bounds on one change of step
_DP_SAFETY, _DP_MIN_FACTOR, _DP_MAX_FACTOR = 0.9, 0.2, 10.0
_DP_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size**0.5


def _first_step(rhs, y0, f0, rtol, atol) -> float:
    """Initial step on [0, 1] (Hairer, Norsett & Wanner, II.4): the step
    whose explicit Euler error estimate is about 0.01 of the tolerance."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = rhs(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, 1.0)


@np.errstate(over="ignore", invalid="ignore")
def _rk45(rhs, y0: np.ndarray, t_eval: np.ndarray, cfg: ToleranceConfig, what: str) -> np.ndarray:
    """Solve y' = rhs(t, y) on [0, 1] by adaptive Dormand-Prince 5(4); returns
    the states at the increasing times t_eval, shape (len(t_eval), len(y0)),
    read from each step's quartic interpolant. A step size below ten times the
    float spacing at t, or a non-finite state, raises IntegrationFailure, so
    numpy's overflow and invalid-value warnings are off inside: the failure
    reports what they would.

    The whole state shares one step, whose local error estimate is held to
    atol + rtol |y|, atol a hundredth of rtol = cfg.ode_rel_tol, in the
    root-mean-square norm over all components. The arithmetic is that of
    solve_ivp(method="RK45"), so the states match it bit for bit.
    """
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    # a relative tolerance near the float resolution would never be met
    rtol = max(cfg.ode_rel_tol, 100 * np.finfo(float).eps)
    atol = cfg.ode_rel_tol * 1e-2
    t_eval = np.asarray(t_eval, dtype=float)
    t = 0.0
    f = rhs(t, y)
    if y.size == 0:
        return np.empty((t_eval.shape[0], 0))
    h_abs = _first_step(rhs, y, f, rtol, atol)
    K = np.empty((_DP_E.shape[0], y.size))
    out, done = [], 0
    while t < 1.0:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailure(f"{what} failed: {_TOO_SMALL_STEP}")
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, _DP_C.shape[0]):
                dy = np.dot(K[:s].T, _DP_A[s, :s]) * h
                K[s] = rhs(t + _DP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = rhs(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _DP_MAX_FACTOR
                else:
                    factor = min(_DP_MAX_FACTOR, _DP_SAFETY * error_norm**_DP_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_DP_MIN_FACTOR, _DP_SAFETY * error_norm**_DP_EXPONENT)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        reached = np.searchsorted(t_eval, t, side="right")
        if reached > done:
            # the quartic interpolant of this step at the times it passed
            span = t - t_old
            x = (t_eval[done:reached] - t_old) / span
            powers = np.cumprod(np.tile(x, (_DP_P.shape[1], 1)), axis=0)
            Y = span * np.dot(K.T.dot(_DP_P), powers)
            Y += y_old[:, None]
            out.append(Y)
            done = reached
    Y = np.hstack(out)
    if not np.all(np.isfinite(Y)):
        raise IntegrationFailure(f"{what} produced non-finite values")
    return Y.T


def _integrate_states(
    model: ManifoldModel,
    kind: ConnectionKind,
    X0: np.ndarray,
    V0: np.ndarray,
    cfg: ToleranceConfig,
    t_eval: np.ndarray,
    carried=None,
) -> np.ndarray:
    """Integrate m geodesic initial value problems, in closed form when the
    connection has a plane section; returns (len(t_eval), m, 2n). With carried
    = (connection, W0), the same system, then always integrated, transports W0
    (m, n) along the geodesics by that connection; the rows are (x, v, w)."""
    m, n = X0.shape
    T = np.asarray(t_eval, dtype=float)
    section = model.plane_sections.get(kind)
    if section is not None and carried is None:
        return _section_states(section, X0, V0, T)

    y0 = np.concatenate([X0, V0] if carried is None else [X0, V0, carried[1]], axis=1)
    x, v, w, width = slice(0, n), slice(n, 2 * n), slice(2 * n, None), y0.shape[1]

    def rhs(t, y):
        Y = y.reshape(m, width)
        out = np.empty_like(Y)
        out[:, x] = Y[:, v]
        out[:, v] = _geodesic_accel(model, kind, Y[:, x], Y[:, v])
        if carried is not None:
            out[:, w] = _contract(model, carried[0], Y[:, x], Y[:, v], Y[:, w])
        return out.ravel()

    return _rk45(rhs, y0.ravel(), T, cfg, "geodesic integration").reshape(T.shape[0], m, width)


# samples of an integrated curve, and the times at which every geodesic is
# checked against the domain; `_rk45` does not step by them
_CURVE_GRID = 257


def _geodesic_states(model, kind, X0, V0, cfg, t, carried=None) -> np.ndarray:
    """States of the m geodesics with initial data X0, V0 of shape (m, n) at
    the increasing times t, shape (len(t), m, 2n) or, `carried` as in
    `_integrate_states`, (len(t), m, 3n), read where the integrator gives
    them. One integration runs on the checked times and t together, so
    DomainExit is raised when a state at either lies outside the domain. The
    checked times are the grid, or t = 1 alone on a curved plane section,
    whose geodesic meets the domain in one interval of times from t = 0."""
    n = X0.shape[-1]
    section = model.plane_sections.get(kind)
    if carried is None and section is not None and not section.linear:
        checked = np.ones(1)
    else:
        checked = np.linspace(0.0, 1.0, _CURVE_GRID)
    # the sorted union of the checked times and t; np.union1d would import
    # numpy.ma (about 1 MB of resident memory) on its first call
    ts = np.sort(np.concatenate([checked, t]))
    ts = ts[np.append(True, ts[1:] > ts[:-1])]
    states = _integrate_states(model, kind, X0, V0, cfg, ts, carried)
    inside = model.contains_batch(states[:, :, :n].reshape(-1, n)).reshape(states.shape[:2])
    if not inside.all():
        bad = np.where(~inside.all(axis=0))[0]
        raise DomainExit(
            f"geodesic left the domain of {model.spec_string} "
            f"(members {bad[:8].tolist()})"
        )
    return states[np.searchsorted(ts, t)]


def _curves_from_initial(model, kind, X0, V0, cfg) -> Curve:
    """Dense integration of the geodesics with initial data X0, V0 of shape
    (..., n) into curves of shape (..., grid, n); DomainExit when a grid
    sample lies outside the domain."""
    n = X0.shape[-1]
    ts = np.linspace(0.0, 1.0, _CURVE_GRID)
    shape = X0.shape[:-1] + (ts.shape[0], n)
    states = _geodesic_states(model, kind, X0.reshape(-1, n), V0.reshape(-1, n), cfg, ts)
    xs = np.swapaxes(states[:, :, :n], 0, 1).copy()
    vs = np.swapaxes(states[:, :, n:], 0, 1).copy()
    accs = _geodesic_accel(model, kind, xs.reshape(-1, n), vs.reshape(-1, n))
    return Curve(xs=xs.reshape(shape), vs=vs.reshape(shape), accs=accs.reshape(shape))


def integrate_geodesic(
    model: ManifoldModel,
    kind: ConnectionKind,
    p: Point,
    v: Tangent,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> Curve:
    """Geodesic of the chosen connection with initial point p and velocity v."""
    model.require_inside(p)
    if not np.array_equal(v.base.coords, p.coords):
        raise BaseMismatch("initial velocity must be based at the initial point")
    return _curves_from_initial(model, kind, p.coords, v.components, cfg)


def exp_map(
    model: ManifoldModel,
    kind: ConnectionKind,
    p: Point,
    v: Tangent,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> Point:
    """Endpoint at t = 1 of the geodesic with initial data (p, v)."""
    return integrate_geodesic(model, kind, p, v, cfg).end_point()


# ---------------------------------------------------------------------------
# central differences
# ---------------------------------------------------------------------------


def _central_stencil(X: np.ndarray, h: float):
    """The central-difference stencil of step h around points X of shape (..., n).

    Returns the points X + h e_i and X - h e_i, shape (..., i, 2, n), and a
    function taking values at them, shape (..., i, 2, ...), to the central
    differences (F(X + h e_i) - F(X - h e_i)) / 2h, shape (..., i, ...).
    """
    n = X.shape[-1]
    pts = np.repeat(np.repeat(X[..., None, None, :], 2, axis=-2), n, axis=-3)
    i = np.arange(n)
    pts[..., i, 0, i] = X + h
    pts[..., i, 1, i] = X - h

    def difference(F):
        return (np.take(F, 0, axis=X.ndim) - np.take(F, 1, axis=X.ndim)) / (2.0 * h)

    return pts, difference


def _moving_stencil(X: np.ndarray, h: float, what: str):
    """`_central_stencil` for a step the caller chose, refused (InvalidModelSpec)
    when the floats do not realize it: when in some coordinate the span
    (X + h) - (X - h), 0 where h does not move X, is off 2h by more than 1%."""
    pts, difference = _central_stencil(X, h)
    if (np.abs((X + h) - (X - h) - 2.0 * h) > 0.02 * h).any():  # the stencil's spans
        raise InvalidModelSpec(
            f"finite-difference step {h!r} puts {what} points closer than a few rounding "
            "steps to their centre, where the floats span 2h off by more than 1%"
        )
    return pts, difference


# ---------------------------------------------------------------------------
# shooting (log map)
# ---------------------------------------------------------------------------


def _endpoints_resilient(model, kind, X0, V0, cfg):
    """Endpoint integration that isolates exploding members by bisection.

    Trial shots far outside the domain can blow up in finite time (step-size
    collapse); those members come back as NaN with ok=False instead of
    poisoning the whole batch.
    """
    m, n = X0.shape
    try:
        E = _integrate_states(model, kind, X0, V0, cfg, np.array([1.0]))[0]
        return E, np.ones(m, dtype=bool)
    except IntegrationFailure:
        if m == 1:
            return np.full((1, 2 * n), np.nan), np.zeros(1, dtype=bool)
        half = m // 2
        E1, ok1 = _endpoints_resilient(model, kind, X0[:half], V0[:half], cfg)
        E2, ok2 = _endpoints_resilient(model, kind, X0[half:], V0[half:], cfg)
        return np.vstack([E1, E2]), np.concatenate([ok1, ok2])


_MAX_SWEEPS = 50  # Newton sweeps before a two-point solve raises ShootingNoConvergence


def _chart_log_guess(model, P, Q) -> np.ndarray:
    """Initial shooting guess: chart difference pulled back through the metric.

    The midpoint metric is used, which reduces to the plain chart difference
    on flat charts and stays a bounded correction elsewhere.
    """
    g0 = model.metric_batch(P)
    g_mid = model.metric_batch(0.5 * (P + Q))
    return np.linalg.solve(g0, np.einsum("mij,mj->mi", g_mid, Q - P)[..., None])[..., 0]


def _shoot_many(
    model: ManifoldModel,
    kind: ConnectionKind,
    P: np.ndarray,
    Q: np.ndarray,
    cfg: ToleranceConfig,
):
    """Solve m two-point problems exp_{P_i}(v_i) = Q_i by Newton iteration,
    or in closed form when the connection has a plane section.

    The Jacobian of the endpoint map is taken by central finite differences of
    step cfg.fd_step; each sweep integrates the center shot and all stencil
    columns as one stacked system. One rule globalizes the iteration: each
    member keeps its best shot b, that shot's endpoint error e_b and Newton
    step d_b, and its next trial is b - lam d_b inside a trust region. A trial
    that integrates and cuts e_b by at least 3% becomes the new best with
    lam = 1; any other trial halves lam. The best shot starts as the zero
    shot with d_b = -(chart guess), so a first trial that blows up is pulled
    back toward zero by the same rule. A member whose lam falls below 1/64,
    after 7 rejections in a row, is hopeless and stays at b. Converged members
    keep polishing at full steps, and one extra Newton update is applied once
    every member passes the convergence test, which keeps the solved map
    smooth in Q at well below the convergence threshold (third-derivative
    recovery relies on this).

    Returns (V, converged_mask).
    """
    m, n = P.shape
    section = model.plane_sections.get(kind)
    if section is not None:
        return _section_log(section, P, Q), np.ones(m, dtype=bool)

    h = cfg.fd_step
    cols = 2 * n + 1
    eye = np.eye(n)
    # trust region far above any in-basin log magnitude; keeps hopeless trials
    # from wandering into wildly oscillatory territory
    trust = 12.0 * np.maximum(1.0, np.linalg.norm(Q - P, axis=1))

    def clamp(vcur):
        norms = np.linalg.norm(vcur, axis=1)
        scale = np.where(norms > trust, trust / np.maximum(norms, 1.0), 1.0)
        return vcur * scale[:, None]

    v = clamp(_chart_log_guess(model, P, Q))
    best, best_err, best_step = np.zeros((m, n)), np.full(m, np.inf), -v
    lam = np.ones(m)
    Xs = np.repeat(P, cols, axis=0)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        # the center shot first, then the Jacobian columns' stencil
        stencil, difference = _central_stencil(v, h)
        Vs = np.concatenate([v[:, None, :], stencil.reshape(m, 2 * n, n)], axis=1)
        E, okE = _endpoints_resilient(model, kind, Xs, Vs.reshape(m * cols, n), cfg)
        E = E[:, :n].reshape(m, cols, n)
        ok = okE.reshape(m, cols).all(axis=1) & np.isfinite(E).all(axis=(1, 2))
        F = E[:, 0, :] - Q
        err = np.where(ok, np.abs(F).max(axis=1), np.inf)
        done = err <= cfg.shoot_tol
        J = np.swapaxes(difference(E[:, 1:, :].reshape(m, n, 2, n)), 1, 2)
        J = np.where(ok[:, None, None], J, eye[None, :, :])
        F_safe = np.where(ok[:, None], F, 0.0)
        try:
            dv = np.linalg.solve(J, F_safe[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dv = np.stack([np.linalg.lstsq(J[i], F_safe[i], rcond=None)[0] for i in range(m)])
        dv = np.where(np.isfinite(dv), dv, 0.0)
        if done.all():
            return v - dv, done  # polishing update from already-converged data
        # converged members are always accepted: they polish at full steps
        accept = done | (ok & (err <= 0.97 * best_err))
        best[accept], best_err[accept], best_step[accept] = v[accept], err[accept], dv[accept]
        lam = np.where(accept, 1.0, 0.5 * lam)
        hopeless = lam < 1.0 / 64.0
        if (done | hopeless).all():
            break
        v = clamp(best - np.where(hopeless, 0.0, lam)[:, None] * best_step)

    failed = np.where(~done)[0]
    residuals = best_err[failed].tolist()
    raise ShootingNoConvergence(
        f"two-point solve on {model.spec_string} ({kind.value}) failed for "
        f"{failed.size}/{m} members {failed[:8].tolist()} after {sweeps} sweeps; best "
        f"residuals {residuals[:8]}; the pair may lie outside the shooting basin",
        residuals=residuals,
    )


def log_map(
    model: ManifoldModel,
    kind: ConnectionKind,
    p: Point,
    q: Point,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> Tangent:
    """Initial velocity of the connection geodesic running from p to q in unit time.

    Convergence is guaranteed only within the shooting basin: the chart
    segment from p to q should stay inside the model domain (all builtin
    charts have convex domains, so safe-box pairs always qualify).
    """
    model.require_inside(p)
    model.require_inside(q)
    V, _ = _shoot_many(model, kind, p.coords[None, :], q.coords[None, :], cfg)
    return Tangent(p, V[0])


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


def _transport_many(
    model: ManifoldModel,
    kind: ConnectionKind,
    curves: Curve,
    V0: np.ndarray,
    cfg: ToleranceConfig,
) -> np.ndarray:
    """Transport each vector of V0, shape (..., n), along its curve (shape
    (..., grid, n)) under the chosen connection; returns V0's shape."""
    n = V0.shape[-1]
    V = V0.reshape(-1, n)
    section = model.plane_sections.get(kind)
    if section is not None and section.linear:
        X0, X1 = curves.xs[..., 0, :].reshape(V.shape), curves.xs[..., -1, :].reshape(V.shape)
        return _flat_transport(section, X0, X1, V).reshape(V0.shape)

    def rhs(t, y):
        x = curves.position(float(t)).reshape(V.shape)
        xd = curves.velocity(float(t)).reshape(V.shape)
        return _contract(model, kind, x, xd, y.reshape(V.shape)).ravel()

    return _rk45(rhs, V.ravel(), np.array([1.0]), cfg, "parallel transport").reshape(V0.shape)


def parallel_transport(
    model: ManifoldModel,
    kind: ConnectionKind,
    curve: Curve,
    v: Tangent,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> Tangent:
    """Solution at t = 1 of the transport equation for v along one curve."""
    model.require_inside(curve._one("parallel_transport").xs, "curve sample")
    if not np.allclose(v.base.coords, curve.xs[0], rtol=0.0, atol=1e-12):
        raise BaseMismatch("transported vector must be based at the curve start")
    out = _transport_many(model, kind, curve, v.components, cfg)
    return Tangent(curve.end_point(), out)
