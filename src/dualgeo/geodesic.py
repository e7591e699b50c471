"""Geodesics, exponential/log maps and parallel transport for either connection.

Everything funnels through a small number of batched primitives so that the
expensive pieces (Newton shooting for the two-point problem, transport of many
vectors along many curves) integrate one stacked ODE system per sweep instead
of thousands of tiny ones:

    _integrate_states   stacked geodesic initial value problems
    _shoot_many         vectorized Newton iteration for the log map
    _transport_many     stacked transport equations along batched curves

Curves are stored as dense samples on a shared uniform grid taken from the
adaptive integrator's output, with cubic Hermite interpolation in between.
Connections whose symbols vanish identically in the working chart (the
model's `flat_kinds`) are handled in closed form: straight chart lines and
component-preserving transport. A copy of the model with no flat kinds,
`dataclasses.replace(model, flat_kinds=frozenset())`, takes the ODE route
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
from .manifold import ConnectionKind, ManifoldModel, Point, Tangent

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


def _locate(ts: np.ndarray, t):
    t = np.asarray(t, dtype=float)
    grid = ts.shape[0]
    cell = np.clip((t * (grid - 1)).astype(int), 0, grid - 2)
    s = t * (grid - 1) - cell
    return cell, s


class _HermiteData:
    """Value/derivative pairs on a uniform grid; works for (grid, n) and (m, grid, n)."""

    def __init__(self, ts, values, derivs):
        self.ts = ts
        self.values = values
        self.derivs = derivs
        self.dt = ts[1] - ts[0]

    def value(self, t):
        cell, s = _locate(self.ts, t)
        h00, h10, h01, h11 = _hermite_weights(s)
        v = self.values
        d = self.derivs
        if v.ndim == 2:  # (grid, n), t may be scalar or (k,)
            w = lambda a: a[..., None]  # noqa: E731
            return (
                w(h00) * v[cell]
                + w(h10) * self.dt * d[cell]
                + w(h01) * v[cell + 1]
                + w(h11) * self.dt * d[cell + 1]
            )
        # batched (m, grid, n) at a shared scalar time
        return (
            h00 * v[:, cell, :]
            + h10 * self.dt * d[:, cell, :]
            + h01 * v[:, cell + 1, :]
            + h11 * self.dt * d[:, cell + 1, :]
        )

    def derivative(self, t):
        cell, s = _locate(self.ts, t)
        d00, d10, d01, d11 = _hermite_dweights(s)
        v = self.values
        d = self.derivs
        if v.ndim == 2:
            w = lambda a: a[..., None]  # noqa: E731
            return (
                w(d00) * v[cell] / self.dt
                + w(d10) * d[cell]
                + w(d01) * v[cell + 1] / self.dt
                + w(d11) * d[cell + 1]
            )
        return (
            d00 / self.dt * v[:, cell, :]
            + d10 * d[:, cell, :]
            + d01 / self.dt * v[:, cell + 1, :]
            + d11 * d[:, cell + 1, :]
        )


@dataclass(frozen=True, eq=False)
class Curve:
    """A path t in [0, 1] -> M sampled on a uniform grid.

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
        if not (self.ts[0] == 0.0 and self.ts[-1] == 1.0):
            raise ValueError("curve parameter must span [0, 1]")
        if not np.all(np.diff(self.ts) > 0):
            raise ValueError("curve parameter samples must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def position(self, t):
        return _HermiteData(self.ts, self.xs, self.vs).value(t)

    def velocity(self, t):
        if self.accs is None:
            return _HermiteData(self.ts, self.xs, self.vs).derivative(t)
        return _HermiteData(self.ts, self.vs, self.accs).value(t)

    def velocity_derivative(self, t):
        if self.accs is None:
            raise ValueError("curve carries no acceleration samples")
        return _HermiteData(self.ts, self.vs, self.accs).derivative(t)

    def start_point(self) -> Point:
        return Point(self.xs[0].copy())

    def end_point(self) -> Point:
        return Point(self.xs[-1].copy())

    def start_tangent(self) -> Tangent:
        return Tangent(self.start_point(), self.vs[0].copy())

    def end_tangent(self) -> Tangent:
        return Tangent(self.end_point(), self.vs[-1].copy())

    @staticmethod
    def from_waypoints(waypoints, grid: int = DEFAULT_CONFIG.curve_grid) -> "Curve":
        """C1 path through waypoints (Catmull-Rom tangents, uniform knots).

        The fine grid is aligned with the knots so resampling reproduces the
        piecewise cubic exactly; velocity is the exact path derivative.
        """
        W = np.asarray(waypoints, dtype=float)
        if W.ndim != 2 or W.shape[0] < 2:
            raise ValueError("need at least two waypoints")
        K = W.shape[0]
        du = 1.0 / (K - 1)
        M = np.empty_like(W)
        M[0] = (W[1] - W[0]) / du
        M[-1] = (W[-1] - W[-2]) / du
        if K > 2:
            M[1:-1] = (W[2:] - W[:-2]) / (2.0 * du)
        per_cell = max(1, int(np.ceil((grid - 1) / (K - 1))))
        G = (K - 1) * per_cell + 1
        ts = np.linspace(0.0, 1.0, G)
        knots = np.linspace(0.0, 1.0, K)
        cell = np.clip((ts * (K - 1)).astype(int), 0, K - 2)
        s = (ts - knots[cell]) / du
        h00, h10, h01, h11 = _hermite_weights(s)
        d00, d10, d01, d11 = _hermite_dweights(s)
        w = lambda a: a[:, None]  # noqa: E731
        xs = (
            w(h00) * W[cell]
            + w(h10) * du * M[cell]
            + w(h01) * W[cell + 1]
            + w(h11) * du * M[cell + 1]
        )
        vs = (
            w(d00) * W[cell] / du
            + w(d10) * M[cell]
            + w(d01) * W[cell + 1] / du
            + w(d11) * M[cell + 1]
        )
        return Curve(ts=ts, xs=xs, vs=vs, accs=None, breaks=knots[1:-1].copy())


class BatchedCurves:
    """m curves sharing one uniform grid; vectorized evaluation at shared times."""

    def __init__(self, ts, xs, vs, accs=None):
        self.ts = ts
        self.xs = xs  # (m, grid, n)
        self.vs = vs
        self.accs = accs

    @property
    def count(self) -> int:
        return self.xs.shape[0]

    def position_all(self, t):
        return _HermiteData(self.ts, self.xs, self.vs).value(t)

    def velocity_all(self, t):
        if self.accs is None:
            return _HermiteData(self.ts, self.xs, self.vs).derivative(t)
        return _HermiteData(self.ts, self.vs, self.accs).value(t)

    def member(self, i: int) -> Curve:
        acc = None if self.accs is None else self.accs[i].copy()
        return Curve(ts=self.ts, xs=self.xs[i].copy(), vs=self.vs[i].copy(), accs=acc)

    def endpoints(self) -> np.ndarray:
        return self.xs[:, -1, :]


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


def _geodesic_accel(model: ManifoldModel, kind: ConnectionKind, X, V) -> np.ndarray:
    """Batched acceleration -Gamma^k_ij v^i v^j via the lower-index symbols."""
    G = model.christoffel_batch(X, kind)
    g = model.metric_batch(X)
    vn = np.linalg.norm(V, axis=1)
    scale = np.where(vn > _SPEED_CAP, _SPEED_CAP / np.maximum(vn, 1.0), 1.0)
    Veff = V * scale[:, None]
    lower = np.einsum("mijk,mi,mj->mk", G, Veff, Veff)
    a = -_solve_spd(g, lower)
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


def _integrate_states(
    model: ManifoldModel,
    kind: ConnectionKind,
    X0: np.ndarray,
    V0: np.ndarray,
    cfg: ToleranceConfig,
    t_eval: np.ndarray,
) -> np.ndarray:
    """Integrate m geodesic initial value problems; returns (len(t_eval), m, 2n)."""
    m, n = X0.shape
    if model.is_flat(kind):
        T = np.asarray(t_eval, dtype=float)
        out = np.empty((T.shape[0], m, 2 * n))
        out[:, :, :n] = X0[None, :, :] + T[:, None, None] * V0[None, :, :]
        out[:, :, n:] = V0[None, :, :]
        return out

    y0 = np.concatenate([X0, V0], axis=1).ravel()

    def rhs(t, y):
        Y = y.reshape(m, 2 * n)
        out = np.empty_like(Y)
        out[:, :n] = Y[:, n:]
        out[:, n:] = _geodesic_accel(model, kind, Y[:, :n], Y[:, n:])
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        y0,
        method="RK45",
        rtol=cfg.ode_rel_tol,
        atol=cfg.ode_abs_tol,
        t_eval=np.asarray(t_eval, dtype=float),
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationFailure(f"geodesic integration failed: {sol.message}")
    states = sol.y.T.reshape(len(t_eval), m, 2 * n)
    if not np.all(np.isfinite(states)):
        raise IntegrationFailure("geodesic integration produced non-finite state")
    return states


def _grid(cfg: ToleranceConfig) -> np.ndarray:
    return np.linspace(0.0, 1.0, cfg.curve_grid)


def _curves_from_initial(model, kind, X0, V0, cfg) -> BatchedCurves:
    """Dense integration of m geodesics into batched curves."""
    m, n = X0.shape
    ts = _grid(cfg)
    states = _integrate_states(model, kind, X0, V0, cfg, ts)
    xs = np.swapaxes(states[:, :, :n], 0, 1).copy()
    vs = np.swapaxes(states[:, :, n:], 0, 1).copy()
    flat_x = xs.reshape(-1, n)
    flat_v = vs.reshape(-1, n)
    accs = _geodesic_accel(model, kind, flat_x, flat_v).reshape(m, ts.shape[0], n)
    inside = model.contains_batch(flat_x)
    if not inside.all():
        bad = np.where(~inside.reshape(m, -1).all(axis=1))[0]
        raise DomainExit(
            f"geodesic left the domain of {model.spec_string} "
            f"(members {bad[:8].tolist()})"
        )
    return BatchedCurves(ts=ts, xs=xs, vs=vs, accs=accs)


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
    batch = _curves_from_initial(model, kind, p.coords[None, :], v.components[None, :], cfg)
    return batch.member(0)


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


def _chart_log_guess(model, kind, P, Q) -> np.ndarray:
    """Initial shooting guess: chart difference pulled back through the metric.

    When the opposite connection is flat in this chart, geodesics of `kind`
    run straight in the conjugate coordinates, whose difference is the chord
    integral of the metric; an 8-node quadrature of it makes the guess
    accurate to quadrature precision. Otherwise the midpoint metric is used,
    which reduces to the plain chart difference on flat charts and stays a
    bounded correction elsewhere.
    """
    m, n = P.shape
    d = Q - P
    g0 = model.metric_batch(P)
    if model.is_flat(kind.dual):
        x, w = np.polynomial.legendre.leggauss(8)
        s = (x + 1.0) / 2.0
        pts = (P[:, None, :] + s[None, :, None] * d[:, None, :]).reshape(-1, n)
        g_chord = model.metric_batch(pts).reshape(m, 8, n, n)
        g_avg = np.einsum("k,mkij->mij", w / 2.0, g_chord)
    else:
        g_avg = model.metric_batch(0.5 * (P + Q))
    return np.linalg.solve(g0, np.einsum("mij,mj->mi", g_avg, d)[..., None])[..., 0]


def _shoot_many(
    model: ManifoldModel,
    kind: ConnectionKind,
    P: np.ndarray,
    Q: np.ndarray,
    cfg: ToleranceConfig,
    v_init: Optional[np.ndarray] = None,
    node_times: Optional[np.ndarray] = None,
):
    """Solve m two-point problems exp_{P_i}(v_i) = Q_i by Newton iteration.

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
    if model.is_flat(kind):
        return Q - P, np.ones(m, dtype=bool)

    h = cfg.fd_step
    v = _chart_log_guess(model, kind, P, Q) if v_init is None else v_init.copy()
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

    def stencil_states(vcur):
        Xs = np.repeat(P, cols, axis=0)
        Vs = np.repeat(vcur, cols, axis=0).reshape(m, cols, n)
        for j in range(n):
            Vs[:, 1 + 2 * j, j] += h
            Vs[:, 2 + 2 * j, j] -= h
        return Xs, Vs.reshape(m * cols, n)

    def clamp(vcur):
        norms = np.linalg.norm(vcur, axis=1)
        scale = np.where(norms > trust, trust / np.maximum(norms, 1.0), 1.0)
        return vcur * scale[:, None]

    v = clamp(v)
    for _ in range(cfg.shoot_max_iter):
        Xs, Vs = stencil_states(v)
        E, okE = _endpoints_resilient(model, kind, Xs, Vs, cfg)
        E = E[:, :n].reshape(m, cols, n)
        ok = okE.reshape(m, cols).all(axis=1) & np.isfinite(E).all(axis=(1, 2))
        F = E[:, 0, :] - Q
        err = np.where(ok, np.abs(F).max(axis=1), np.inf)
        err = np.where(np.isfinite(err), err, np.inf)
        done = err <= cfg.shoot_tol
        improving = err <= 0.97 * prev_err
        stall = np.where(done | improving, 0, stall + 1)
        hopeless |= stall >= 6
        J = np.empty((m, n, n))
        for j in range(n):
            J[:, :, j] = (E[:, 1 + 2 * j, :] - E[:, 2 + 2 * j, :]) / (2.0 * h)
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
    v_init: Optional[Tangent] = None,
) -> Tangent:
    """Initial velocity of the connection geodesic running from p to q in unit time.

    Convergence is guaranteed only within the shooting basin: the chart
    segment from p to q should stay inside the model domain (all builtin
    charts have convex domains, so safe-box pairs always qualify).
    """
    model.require_inside(p)
    model.require_inside(q)
    init = None if v_init is None else v_init.components[None, :]
    V, _ = _shoot_many(
        model, kind, p.coords[None, :], q.coords[None, :], cfg, v_init=init
    )
    return Tangent(p, V[0])


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


def _transport_many(
    model: ManifoldModel,
    kind: ConnectionKind,
    curves: BatchedCurves,
    V0: np.ndarray,
    cfg: ToleranceConfig,
) -> np.ndarray:
    """Transport V0[i] along curves[i] under the chosen connection; returns (m, n)."""
    m, n = V0.shape
    if model.is_flat(kind):
        return V0.copy()

    def rhs(t, y):
        V = y.reshape(m, n)
        x = curves.position_all(float(t))
        xd = curves.velocity_all(float(t))
        G = model.christoffel_batch(x, kind)
        g = model.metric_batch(x)
        lower = np.einsum("mijk,mi,mj->mk", G, xd, V)
        return -_solve_spd(g, lower).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        V0.ravel(),
        method="RK45",
        rtol=cfg.ode_rel_tol,
        atol=cfg.ode_abs_tol,
        t_eval=np.array([1.0]),
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationFailure(f"parallel transport failed: {sol.message}")
    out = sol.y[:, -1].reshape(m, n)
    if not np.all(np.isfinite(out)):
        raise IntegrationFailure("parallel transport produced non-finite components")
    return out


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
    batch = BatchedCurves(
        ts=curve.ts,
        xs=curve.xs[None, :, :],
        vs=curve.vs[None, :, :],
        accs=None if curve.accs is None else curve.accs[None, :, :],
    )
    out = _transport_many(model, kind, batch, v.components[None, :], cfg)
    return Tangent(curve.end_point(), out[0])
