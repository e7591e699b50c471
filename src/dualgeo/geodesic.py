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
a geodesic, at (x', V) for a transported vector. Both are solved by `_rk45`.
One type, `Curve`, holds one path or a batch of them: dense samples of shape
(..., grid, n) on the uniform grid linspace(0, 1, grid), read between samples
by one cubic Hermite interpolant (`_hermite_value`, `_hermite_slope`), at one
time or a vector of times. The single-item API is a view of the batched core:
`integrate_geodesic` and `parallel_transport` hand their one curve to
`_curves_from_initial` and `_transport_many`, which take leading axes, and
`log_map` solves a batch of one. One central-difference stencil,
`_central_stencil` (the points X +- h e_i laid out (..., i, +-, n), and their
difference), serves the shooting Jacobian, the divergence gradients, the
curvature tensors and the duality check.

A connection for which the model supplies an affine chart (the chart where
it is flat: the working chart for the model's `flat_kinds`, the Legendre chart
eta = grad psi for the other connection of a dually flat builtin) is handled
in closed form by one code path, with J = d eta / dx the chart's Jacobian:

    geodesic     the straight eta-line eta(x0) + t J(x0) v0, mapped back, with
                 velocity J(x)^{-1} J(x0) v0
    log map      J(p)^{-1} (eta(q) - eta(p)), no Newton iteration
    transport    J(x1)^{-1} J(x0) V0 along any curve, since flat transport
                 does not depend on the path

In the working chart J is the identity and these are straight chart lines
and component-preserving transport. Dense curves are still checked against
the domain on every grid sample, so an eta-line that leaves the domain raises
DomainExit as the integrated geodesic does. A copy of the model with no
charts, `dataclasses.replace(model, affine_charts={})`, takes the ODE route
everywhere, which is how the closed forms are cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .config import DEFAULT_CONFIG, ToleranceConfig
from .errors import (
    BaseMismatch,
    DomainExit,
    IntegrationFailure,
    ShootingNoConvergence,
)
from .manifold import AffineChart, ConnectionKind, ManifoldModel, Point, Tangent

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


def _hermite_weights(s: np.ndarray):
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00, h10, h01, h11


def _hermite_dweights(s: np.ndarray):
    s2 = s * s
    d00 = 6.0 * s2 - 6.0 * s
    d10 = 3.0 * s2 - 4.0 * s + 1.0
    d01 = -6.0 * s2 + 6.0 * s
    d11 = 3.0 * s2 - 2.0 * s
    return d00, d10, d01, d11


def _hermite_value(ts: np.ndarray, values: np.ndarray, derivs: np.ndarray, t):
    """Cubic Hermite interpolant of `values` with slopes `derivs` at t.

    Both are sampled on the uniform grid `ts`, shape (..., grid, n). A scalar
    t gives (..., n); a vector of k times gives (..., k, n).
    """
    t = np.asarray(t, dtype=float)
    steps = ts.shape[0] - 1
    cell = np.clip((t * steps).astype(int), 0, steps - 1)
    h00, h10, h01, h11 = (h[..., None] for h in _hermite_weights(t * steps - cell))
    dt = ts[1] - ts[0]
    return (
        h00 * values[..., cell, :]
        + h10 * dt * derivs[..., cell, :]
        + h01 * values[..., cell + 1, :]
        + h11 * dt * derivs[..., cell + 1, :]
    )


def _hermite_slope(ts: np.ndarray, values: np.ndarray, derivs: np.ndarray, t):
    """Exact t-derivative of `_hermite_value`, with the same shapes."""
    t = np.asarray(t, dtype=float)
    steps = ts.shape[0] - 1
    cell = np.clip((t * steps).astype(int), 0, steps - 1)
    d00, d10, d01, d11 = (d[..., None] for d in _hermite_dweights(t * steps - cell))
    dt = ts[1] - ts[0]
    return (
        d00 * values[..., cell, :] / dt
        + d10 * derivs[..., cell, :]
        + d01 * values[..., cell + 1, :] / dt
        + d11 * derivs[..., cell + 1, :]
    )


@dataclass(frozen=True, eq=False)
class Curve:
    """Paths t in [0, 1] -> M sampled on the uniform grid linspace(0, 1, len(ts)).

    `xs` and `vs` have shape (..., grid, n): one path, or a batch of paths in
    leading axes that share the grid. A scalar t gives (..., n); a vector of
    k times gives (..., k, n).

    `velocity` is the exact derivative of the position interpolant when no
    acceleration samples are stored (interpolated paths), and the Hermite
    interpolant of the sampled velocities when they are (integrated curves,
    where the stored accelerations come from the geodesic equation).

    `breaks` lists interior parameters where the path loses smoothness
    (waypoint knots); quadratures over the curve split there.
    """

    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    accs: Optional[np.ndarray] = None
    breaks: Optional[np.ndarray] = None

    def __post_init__(self):
        # the interpolant finds a time's cell as t * (grid - 1). Every batched
        # integration builds a Curve, so this is a plain max-abs test:
        # np.allclose costs four times as much on the default grid
        ts = np.asarray(self.ts, dtype=float)
        if ts.ndim != 1 or ts.shape[0] < 2 or not (
            np.abs(ts - np.linspace(0.0, 1.0, ts.shape[0])).max() <= 1e-12
        ):
            raise ValueError("curve parameter samples must be linspace(0, 1, len(ts))")

    @property
    def dim(self) -> int:
        return self.xs.shape[-1]

    def position(self, t):
        return _hermite_value(self.ts, self.xs, self.vs, t)

    def velocity(self, t):
        if self.accs is None:
            return _hermite_slope(self.ts, self.xs, self.vs, t)
        return _hermite_value(self.ts, self.vs, self.accs, t)

    def velocity_derivative(self, t):
        if self.accs is None:
            raise ValueError("curve carries no acceleration samples")
        return _hermite_slope(self.ts, self.vs, self.accs, t)

    def start_point(self) -> Point:
        return Point(self.xs[..., 0, :].copy())

    def end_point(self) -> Point:
        return Point(self.xs[..., -1, :].copy())

    def start_tangent(self) -> Tangent:
        return Tangent(self.start_point(), self.vs[..., 0, :].copy())

    def end_tangent(self) -> Tangent:
        return Tangent(self.end_point(), self.vs[..., -1, :].copy())

    @staticmethod
    def from_waypoints(waypoints, grid: int = DEFAULT_CONFIG.curve_grid) -> "Curve":
        """C1 paths through waypoints of shape (..., K, n) (Catmull-Rom
        tangents, uniform knots); the paths have shape (..., grid', n).

        The fine grid is aligned with the knots so resampling reproduces the
        piecewise cubic exactly; velocity is the exact path derivative.
        """
        W = np.asarray(waypoints, dtype=float)
        if W.ndim < 2 or W.shape[-2] < 2:
            raise ValueError("need at least two waypoints")
        K = W.shape[-2]
        du = 1.0 / (K - 1)
        M = np.empty_like(W)
        M[..., 0, :] = (W[..., 1, :] - W[..., 0, :]) / du
        M[..., -1, :] = (W[..., -1, :] - W[..., -2, :]) / du
        if K > 2:
            M[..., 1:-1, :] = (W[..., 2:, :] - W[..., :-2, :]) / (2.0 * du)
        per_cell = max(1, int(np.ceil((grid - 1) / (K - 1))))
        G = (K - 1) * per_cell + 1
        ts = np.linspace(0.0, 1.0, G)
        knots = np.linspace(0.0, 1.0, K)
        xs = _hermite_value(knots, W, M, ts)
        vs = _hermite_slope(knots, W, M, ts)
        return Curve(ts=ts, xs=xs, vs=vs, accs=None, breaks=knots[1:-1].copy())


# ---------------------------------------------------------------------------
# batched geodesic integration
# ---------------------------------------------------------------------------


# Safety collars for trial shots: the quadratic geodesic equation blows up in
# finite time when a Newton trial badly overshoots the domain. Saturating the
# velocity entering the quadratic term (and the resulting acceleration) far
# beyond any legitimate magnitude keeps wild trajectories integrable; below
# the caps the dynamics are exact.
_SPEED_CAP = 1e5
_ACCEL_CAP = 1e10


def _contract(model: ManifoldModel, kind: ConnectionKind, X, U, W) -> np.ndarray:
    """Batched raised contraction -g^{-1} Gamma(U, W) of the lower-index symbols.

    At (V, V) it is the geodesic acceleration; at (x', V) it is the rate of a
    vector V transported along a curve with velocity x'.
    """
    G = model.christoffel_batch(X, kind)
    g = model.metric_batch(X)
    return -_solve_spd(g, np.einsum("mijk,mi,mj->mk", G, U, W))


def _geodesic_accel(model: ManifoldModel, kind: ConnectionKind, X, V) -> np.ndarray:
    """Batched acceleration -Gamma^k_ij v^i v^j, inside the speed and acceleration caps."""
    vn = np.linalg.norm(V, axis=1)
    scale = np.where(vn > _SPEED_CAP, _SPEED_CAP / np.maximum(vn, 1.0), 1.0)
    Veff = V * scale[:, None]
    a = _contract(model, kind, X, Veff, Veff)
    an = np.linalg.norm(a, axis=1)
    a *= np.where(an > _ACCEL_CAP, _ACCEL_CAP / np.maximum(an, 1.0), 1.0)[:, None]
    return a


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


def _to_affine_components(chart: AffineChart, X, V) -> np.ndarray:
    """Components J(X) V, in the affine chart, of tangents V at X."""
    if chart.jacobian is None:
        return V
    return np.einsum("mij,mj->mi", chart.jacobian(X), V)


def _from_affine_components(chart: AffineChart, X, W) -> np.ndarray:
    """Working-chart components J(X)^{-1} W of affine-chart tangents W at X."""
    if chart.jacobian is None:
        return W
    return np.linalg.solve(chart.jacobian(X), W[..., None])[..., 0]


def _flat_transport(chart: AffineChart, X0, X1, V0) -> np.ndarray:
    """Transport of V0 from X0 to X1 by the connection flat in `chart`: its
    affine components stay fixed along any curve."""
    return _from_affine_components(chart, X1, _to_affine_components(chart, X0, V0)).copy()


def _rk45(rhs, y0: np.ndarray, t_eval: np.ndarray, cfg: ToleranceConfig, what: str) -> np.ndarray:
    """Solve y' = rhs(t, y) on [0, 1] by RK45; returns the states at t_eval,
    shape (len(t_eval), len(y0)). A failed solve or a non-finite state raises
    IntegrationFailure."""
    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        y0,
        method="RK45",
        rtol=cfg.ode_rel_tol,
        atol=cfg.ode_abs_tol,
        t_eval=t_eval,
    )
    if not sol.success:
        raise IntegrationFailure(f"{what} failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise IntegrationFailure(f"{what} produced non-finite values")
    return sol.y.T


def _integrate_states(
    model: ManifoldModel,
    kind: ConnectionKind,
    X0: np.ndarray,
    V0: np.ndarray,
    cfg: ToleranceConfig,
    t_eval: np.ndarray,
) -> np.ndarray:
    """Integrate m geodesic initial value problems, in closed form when the
    connection has an affine chart; returns (len(t_eval), m, 2n)."""
    m, n = X0.shape
    T = np.asarray(t_eval, dtype=float)
    chart = model.affine_charts.get(kind)
    if chart is not None:
        E0 = chart.to_affine(X0)
        dE = _to_affine_components(chart, X0, V0)
        E = E0[None, :, :] + T[:, None, None] * dE[None, :, :]
        X = chart.from_affine(E.reshape(-1, n))
        dEs = np.broadcast_to(dE[None, :, :], E.shape).reshape(-1, n)
        out = np.empty((T.shape[0], m, 2 * n))
        out[:, :, :n] = X.reshape(T.shape[0], m, n)
        out[:, :, n:] = _from_affine_components(chart, X, dEs).reshape(T.shape[0], m, n)
        return out

    def rhs(t, y):
        Y = y.reshape(m, 2 * n)
        out = np.empty_like(Y)
        out[:, :n] = Y[:, n:]
        out[:, n:] = _geodesic_accel(model, kind, Y[:, :n], Y[:, n:])
        return out.ravel()

    y0 = np.concatenate([X0, V0], axis=1).ravel()
    return _rk45(rhs, y0, T, cfg, "geodesic integration").reshape(T.shape[0], m, 2 * n)


def _grid(cfg: ToleranceConfig) -> np.ndarray:
    return np.linspace(0.0, 1.0, cfg.curve_grid)


def _curves_from_initial(model, kind, X0, V0, cfg) -> Curve:
    """Dense integration of the geodesics with initial data X0, V0 of shape
    (..., n) into curves of shape (..., grid, n); DomainExit when a grid
    sample lies outside the domain."""
    n = X0.shape[-1]
    ts = _grid(cfg)
    shape = X0.shape[:-1] + (ts.shape[0], n)
    states = _integrate_states(model, kind, X0.reshape(-1, n), V0.reshape(-1, n), cfg, ts)
    xs = np.swapaxes(states[:, :, :n], 0, 1).copy()
    vs = np.swapaxes(states[:, :, n:], 0, 1).copy()
    flat_x = xs.reshape(-1, n)
    inside = model.contains_batch(flat_x)
    if not inside.all():
        bad = np.where(~inside.reshape(xs.shape[0], -1).all(axis=1))[0]
        raise DomainExit(
            f"geodesic left the domain of {model.spec_string} "
            f"(members {bad[:8].tolist()})"
        )
    accs = _geodesic_accel(model, kind, flat_x, vs.reshape(-1, n))
    return Curve(ts=ts, xs=xs.reshape(shape), vs=vs.reshape(shape), accs=accs.reshape(shape))


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
    node_times: Optional[np.ndarray] = None,
):
    """Solve m two-point problems exp_{P_i}(v_i) = Q_i by Newton iteration,
    or in closed form when the connection has an affine chart.

    The Jacobian of the endpoint map is taken by central finite differences of
    step cfg.fd_step; each sweep integrates the center shot and all stencil
    columns as one stacked system. Members whose error grows are damped by
    step halving; members whose trial shot blows up are pulled back toward the
    zero velocity. One extra Newton update is applied after the convergence
    test passes, which keeps the solved map smooth in Q at well below the
    convergence threshold (third-derivative recovery relies on this).

    Returns (V, converged_mask).
    """
    m, n = P.shape
    chart = model.affine_charts.get(kind)
    if chart is not None:
        dE = chart.to_affine(Q) - chart.to_affine(P)
        return _from_affine_components(chart, P, dE), np.ones(m, dtype=bool)

    h = cfg.fd_step
    v = _chart_log_guess(model, P, Q)
    lam = np.ones(m)
    prev_err = np.full(m, np.inf)
    converged = np.zeros(m, dtype=bool)
    cols = 2 * n + 1
    eye = np.eye(n)
    # trust region far above any in-basin log magnitude; keeps hopeless trials
    # from wandering into wildly oscillatory territory
    trust = 12.0 * np.maximum(1.0, np.linalg.norm(Q - P, axis=1))
    stall = np.zeros(m, dtype=int)
    hopeless = np.zeros(m, dtype=bool)

    def clamp(vcur):
        norms = np.linalg.norm(vcur, axis=1)
        scale = np.where(norms > trust, trust / np.maximum(norms, 1.0), 1.0)
        return vcur * scale[:, None]

    v = clamp(v)
    Xs = np.repeat(P, cols, axis=0)
    for _ in range(cfg.shoot_max_iter):
        # the center shot first, then the Jacobian columns' stencil
        stencil, difference = _central_stencil(v, h)
        Vs = np.concatenate([v[:, None, :], stencil.reshape(m, 2 * n, n)], axis=1)
        E, okE = _endpoints_resilient(model, kind, Xs, Vs.reshape(m * cols, n), cfg)
        E = E[:, :n].reshape(m, cols, n)
        ok = okE.reshape(m, cols).all(axis=1) & np.isfinite(E).all(axis=(1, 2))
        F = E[:, 0, :] - Q
        err = np.where(ok, np.abs(F).max(axis=1), np.inf)
        err = np.where(np.isfinite(err), err, np.inf)
        done = err <= cfg.shoot_tol
        improving = err <= 0.97 * prev_err
        stall = np.where(done | improving, 0, stall + 1)
        hopeless |= stall >= 6
        J = np.swapaxes(difference(E[:, 1:, :].reshape(m, n, 2, n)), 1, 2)
        J = np.where(ok[:, None, None], J, eye[None, :, :])
        F_safe = np.where(ok[:, None], F, 0.0)
        try:
            dv = np.linalg.solve(J, F_safe[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dv = np.stack([np.linalg.lstsq(J[i], F_safe[i], rcond=None)[0] for i in range(m)])
        dv = np.where(np.isfinite(dv), dv, 0.0)
        if done.all():
            v = v - dv  # polishing update from already-converged data
            return v, np.ones(m, dtype=bool)
        if (done | hopeless).all():
            converged = done
            break
        worse = ok & (err > prev_err)
        lam = np.where(worse, np.maximum(lam * 0.5, 1.0 / 64.0), np.minimum(lam * 2.0, 1.0))
        prev_err = err
        converged = done
        step = lam[:, None] * dv
        step[done] = dv[done]  # converged members keep polishing at full steps
        step[hopeless] = 0.0
        v_new = v - step
        v_new[~ok] = 0.6 * v[~ok]  # rescue: pull exploded trials toward zero
        v = clamp(v_new)

    failed = np.where(~converged)[0]
    if failed.size:
        times = None
        if node_times is not None:
            times = np.asarray(node_times, dtype=float)[failed].tolist()
        detail = f" at path parameters {times}" if times else ""
        raise ShootingNoConvergence(
            f"two-point solve on {model.spec_string} ({kind.value}) failed for "
            f"{failed.size}/{m} members after {cfg.shoot_max_iter} iterations{detail}; "
            f"the pair may lie outside the shooting basin",
            failed_times=times,
        )
    return v, converged


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
    chart = model.affine_charts.get(kind)
    if chart is not None:
        X0, X1 = curves.xs[..., 0, :].reshape(V.shape), curves.xs[..., -1, :].reshape(V.shape)
        return _flat_transport(chart, X0, X1, V).reshape(V0.shape)

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
    """Solution at t = 1 of the transport equation for v along the curve."""
    if not np.allclose(v.base.coords, curve.xs[0], rtol=0.0, atol=1e-12):
        raise BaseMismatch("transported vector must be based at the curve start")
    out = _transport_many(model, kind, curve, v.components, cfg)
    return Tangent(curve.end_point(), out)
