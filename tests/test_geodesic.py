"""Geodesic integration, exponential/log maps and parallel transport."""

import dataclasses

import numpy as np
import pytest

from dualgeo import (
    BaseMismatch,
    ConnectionKind,
    Curve,
    DomainExit,
    Point,
    ShootingNoConvergence,
    Tangent,
    exp_map,
    great_circle_angle,
    integrate_geodesic,
    log_map,
    make_builtin,
    parallel_transport,
    parse_model_spec,
    sample_pairs,
)
from dualgeo.geodesic import _curves_from_initial, _shoot_many, _transport_many

P_KIND, D_KIND = ConnectionKind.PRIMAL, ConnectionKind.DUAL
KINDS = [P_KIND, D_KIND]
ALL = ["euclidean", "sphere", "categorical", "gaussian1d", "alpha_categorical"]


def test_euclidean_straight_line(models, cfg):
    eu = models["euclidean"]
    p = eu.point([0.0, 0.0, 0.0])
    v = eu.tangent(p, [3.0, 4.0, 0.0])
    c = integrate_geodesic(eu, P_KIND, p, v, cfg)
    assert np.abs(c.position(1.0) - [3, 4, 0]).max() < 1e-12
    assert np.abs(c.position(0.5) - [1.5, 2, 0]).max() < 1e-12
    assert np.abs(c.velocity(0.7) - [3, 4, 0]).max() < 1e-12


def test_flat_route_matches_ode_route(models, cfg):
    cat = models["categorical"]
    p = cat.point([0.2, -0.3])
    v = cat.tangent(p, [0.5, 0.4])
    flat = integrate_geodesic(cat, P_KIND, p, v, cfg)
    ode = integrate_geodesic(dataclasses.replace(cat, affine_charts={}), P_KIND, p, v, cfg)
    ts = np.linspace(0, 1, 7)
    assert np.abs(flat.position(ts) - ode.position(ts)).max() < 1e-9
    q = cat.point([0.7, 0.2])
    v_flat = log_map(cat, P_KIND, p, q, cfg)
    cat_ode = dataclasses.replace(cat, affine_charts={})
    V_ode, ok = _shoot_many(cat_ode, P_KIND, p.coords[None], q.coords[None], cfg)
    assert ok.all()
    assert np.abs(v_flat.components - V_ode[0]).max() < 1e-8


def test_sphere_quarter_great_circle(models, cfg):
    sp = models["sphere"]
    p = sp.point([np.pi / 2, 0.0])
    v = sp.tangent(p, [0.0, np.pi / 2])
    c = integrate_geodesic(sp, P_KIND, p, v, cfg)
    end = c.position(1.0)
    assert np.abs(end - [np.pi / 2, np.pi / 2]).max() < 1e-9
    assert abs(great_circle_angle(p.coords, end) - np.pi / 2) < 1e-9


@pytest.mark.parametrize("name", ALL)
def test_exp_of_zero_is_identity(models, cfg, name):
    model = models[name]
    p = Point(model.safe_box.mean(axis=1))
    q = exp_map(model, P_KIND, p, model.tangent(p, np.zeros(model.dim)), cfg)
    assert np.abs(q.coords - p.coords).max() < 1e-12


def test_gaussian_primal_exp_is_affine(models, cfg):
    ga = models["gaussian1d"]
    p = ga.point([0.5, -0.8])
    v = ga.tangent(p, [0.3, 0.2])
    q = exp_map(ga, P_KIND, p, v, cfg)
    assert np.abs(q.coords - (p.coords + v.components)).max() < 1e-12


def test_log_map_euclidean(models, cfg):
    eu = make_builtin("euclidean", [2])
    v = log_map(eu, P_KIND, eu.point([0, 0]), eu.point([3, 4]), cfg)
    assert np.abs(v.components - [3, 4]).max() < 1e-12


@pytest.mark.parametrize("name", ALL)
def test_log_of_base_point_is_zero(models, cfg, name):
    model = models[name]
    p = Point(model.safe_box.mean(axis=1))
    v = log_map(model, D_KIND, p, p, cfg)
    assert np.abs(v.components).max() < 1e-12


def test_sphere_log_norm_equals_angle(models, cfg):
    sp = models["sphere"]
    p = sp.point([np.pi / 2, 0.0])
    q = sp.point([np.pi / 2 - 0.4, 0.7])
    v = log_map(sp, P_KIND, p, q, cfg)
    g = sp.metric_at(p)
    norm = np.sqrt(v.components @ g @ v.components)
    assert abs(norm - great_circle_angle(p.coords, q.coords)) < 1e-9


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("kind", KINDS)
def test_log_exp_round_trip(models, cfg, rng, name, kind):
    # v = t * log(p, q) stays inside the basin; exp then log must return v
    model = models[name]
    P, Q = sample_pairs(model, 100, rng, shrink=0.9)
    V, ok = _shoot_many(model, kind, P, Q, cfg)
    assert ok.all()
    V = V * rng.uniform(0.2, 1.0, (100, 1))
    ends = _curves_from_initial(model, kind, P, V, cfg).xs[:, -1, :]
    V_back, ok = _shoot_many(model, kind, P, ends, cfg)
    assert ok.all()
    assert np.abs(V_back - V).max() <= 10 * cfg.shoot_tol


@pytest.mark.parametrize("name", ["euclidean", "sphere"])
def test_self_dual_transport_preserves_norm(models, cfg, rng, name):
    model = models[name]
    P, Q = sample_pairs(model, 20, rng, shrink=0.9)
    V, _ = _shoot_many(model, P_KIND, P, Q, cfg)
    curves = _curves_from_initial(model, P_KIND, P, V, cfg)
    U0 = rng.standard_normal((20, model.dim))
    U1 = _transport_many(model, P_KIND, curves, U0, cfg)
    g0 = model.metric_batch(P)
    g1 = model.metric_batch(curves.xs[:, -1, :])
    n0 = np.einsum("mi,mij,mj->m", U0, g0, U0)
    n1 = np.einsum("mi,mij,mj->m", U1, g1, U1)
    assert np.abs(np.sqrt(n1) - np.sqrt(n0)).max() <= 1e-8


@pytest.mark.parametrize("name", ["categorical", "gaussian1d", "alpha_categorical"])
def test_dual_transports_preserve_pairing(models, cfg, rng, name):
    # transporting u with one connection and v with the other keeps <u, v>
    model = models[name]
    P, Q = sample_pairs(model, 20, rng, shrink=0.9)
    V, _ = _shoot_many(model, P_KIND, P, Q, cfg)
    curves = _curves_from_initial(model, P_KIND, P, V, cfg)
    U0 = rng.standard_normal((20, model.dim))
    W0 = rng.standard_normal((20, model.dim))
    U1 = _transport_many(model, P_KIND, curves, U0, cfg)
    W1 = _transport_many(model, D_KIND, curves, W0, cfg)
    g0 = model.metric_batch(P)
    g1 = model.metric_batch(curves.xs[:, -1, :])
    pair0 = np.einsum("mi,mij,mj->m", U0, g0, W0)
    pair1 = np.einsum("mi,mij,mj->m", U1, g1, W1)
    assert np.abs(pair1 - pair0).max() <= 1e-8


def test_transport_identity_on_euclidean(models, cfg):
    eu = models["euclidean"]
    p = eu.point([0.0, 0.0, 0.0])
    v = eu.tangent(p, [1.0, -2.0, 0.5])
    c = integrate_geodesic(eu, P_KIND, p, eu.tangent(p, [0.5, 0.5, 0.5]), cfg)
    out = parallel_transport(eu, P_KIND, c, v, cfg)
    assert np.array_equal(out.components, v.components)


def test_transport_zero_vector(models, cfg):
    sp = models["sphere"]
    p = sp.point([1.2, 0.1])
    c = integrate_geodesic(sp, P_KIND, p, sp.tangent(p, [0.2, 0.3]), cfg)
    out = parallel_transport(sp, P_KIND, c, sp.tangent(p, [0.0, 0.0]), cfg)
    assert np.abs(out.components).max() < 1e-14


def _latitude_segment(theta, phi0, phi1, grid=129):
    ts = np.linspace(0.0, 1.0, grid)
    xs = np.stack([np.full(grid, theta), phi0 + (phi1 - phi0) * ts], axis=1)
    vs = np.stack([np.zeros(grid), np.full(grid, phi1 - phi0)], axis=1)
    return Curve(ts=ts, xs=xs, vs=vs)


def _meridian_segment(phi, th0, th1, grid=129):
    ts = np.linspace(0.0, 1.0, grid)
    xs = np.stack([th0 + (th1 - th0) * ts, np.full(grid, phi)], axis=1)
    vs = np.stack([np.full(grid, th1 - th0), np.zeros(grid)], axis=1)
    return Curve(ts=ts, xs=xs, vs=vs)


def test_sphere_holonomy_equals_enclosed_area(models, cfg):
    # transport around a latitude-meridian rectangle rotates by the enclosed
    # area; theta in [pi/3, 2pi/3] and quarter-turn width give exactly pi/2
    sp = models["sphere"]
    th1, th2, width = np.pi / 3, 2 * np.pi / 3, np.pi / 2
    loop = [
        _latitude_segment(th1, 0.0, width),
        _meridian_segment(width, th1, th2),
        _latitude_segment(th2, width, 0.0),
        _meridian_segment(0.0, th2, th1),
    ]
    vec = np.array([1.0, 0.0])
    for seg in loop:
        out = parallel_transport(sp, P_KIND, seg, Tangent(seg.start_point(), vec), cfg)
        vec = out.components
    g = sp.metric_at(loop[0].start_point())
    u0 = np.array([1.0, 0.0])
    cosang = (u0 @ g @ vec) / np.sqrt((u0 @ g @ u0) * (vec @ g @ vec))
    angle = np.arccos(np.clip(cosang, -1, 1))
    area = width * (np.cos(th1) - np.cos(th2))
    assert abs(angle - area) < 1e-8
    assert abs(np.sqrt(vec @ g @ vec) - 1.0) < 1e-8


@pytest.mark.parametrize(
    "name,kind",
    [("sphere", P_KIND), ("alpha_categorical", P_KIND), ("alpha_categorical", D_KIND)],
)
def test_geodesic_equation_residual(models, cfg, name, kind):
    model = models[name]
    p = Point(model.safe_box.mean(axis=1))
    span = model.safe_box[:, 1] - model.safe_box[:, 0]
    v = model.tangent(p, 0.6 * span)
    c = integrate_geodesic(model, kind, p, v, cfg)
    ts = np.linspace(0.05, 0.95, 10)
    x, xd = c.position(ts), c.velocity(ts)
    vd = c.velocity_derivative(ts)
    G = model.christoffel_batch(x, kind)
    g = model.metric_batch(x)
    lower = np.einsum("mijk,mi,mj->mk", G, xd, xd)
    accel = -np.linalg.solve(g, lower[..., None])[..., 0]
    assert np.abs(vd - accel).max() <= 1e-6


@pytest.mark.parametrize("name,kind", [("sphere", P_KIND), ("alpha_categorical", D_KIND)])
def test_affine_reparametrization(models, cfg, name, kind):
    # doubling the velocity over unit time equals two unit-time legs
    model = models[name]
    p = Point(model.safe_box.mean(axis=1))
    span = model.safe_box[:, 1] - model.safe_box[:, 0]
    v = model.tangent(p, 0.35 * span)
    double = exp_map(model, kind, p, model.tangent(p, 2.0 * v.components), cfg)
    leg1 = integrate_geodesic(model, kind, p, v, cfg)
    mid = leg1.end_point()
    leg2 = exp_map(model, kind, mid, Tangent(mid, leg1.velocity(1.0)), cfg)
    assert np.abs(double.coords - leg2.coords).max() <= 1e-8


def test_domain_exit_raises(models, cfg):
    sp = models["sphere"]
    p = sp.point([0.3, 0.0])
    v = sp.tangent(p, [-0.5, 0.0])  # straight toward the polar cap
    with pytest.raises(DomainExit):
        integrate_geodesic(sp, P_KIND, p, v, cfg)


def test_shooting_no_convergence_reports_failure(models, cfg):
    sp = models["sphere"]
    tight = cfg.with_(shoot_max_iter=2)
    with pytest.raises(ShootingNoConvergence):
        log_map(sp, P_KIND, sp.point([1.3, -0.5]), sp.point([1.9, 2.6]), tight)


def test_integrate_requires_matching_base(models, cfg):
    eu = models["euclidean"]
    p = eu.point([0.0, 0.0, 0.0])
    other = eu.point([1.0, 0.0, 0.0])
    with pytest.raises(BaseMismatch):
        integrate_geodesic(eu, P_KIND, p, eu.tangent(other, [1, 0, 0]), cfg)


def test_curve_from_waypoints_interpolates(rng):
    W = np.array([[0.0, 0.0], [0.4, 0.6], [1.0, 0.2], [1.5, 1.0]])
    c = Curve.from_waypoints(W)
    for k, u in enumerate(np.linspace(0, 1, 4)):
        assert np.abs(c.position(u) - W[k]).max() < 1e-12
    # velocity is the exact derivative of the position interpolant
    t = 0.37
    h = 1e-6
    fd = (c.position(t + h) - c.position(t - h)) / (2 * h)
    assert np.abs(c.velocity(t) - fd).max() < 1e-7
    assert c.breaks is not None and len(c.breaks) == 2


@pytest.mark.parametrize("batch,K", [((3,), 2), ((2, 3), 4), ((5,), 3)])
def test_curve_from_waypoints_batch_equals_its_single_paths(rng, batch, K):
    W = rng.uniform(-1.0, 1.0, batch + (K, 2))
    batched = Curve.from_waypoints(W, grid=33)
    for idx in np.ndindex(*batch):
        single = Curve.from_waypoints(W[idx], grid=33)
        assert np.array_equal(batched.ts, single.ts)
        assert np.array_equal(batched.xs[idx], single.xs)
        assert np.array_equal(batched.vs[idx], single.vs)
        assert np.array_equal(batched.breaks, single.breaks)


def test_curve_invariants():
    ts = np.linspace(0, 1, 9)
    xs = np.stack([ts, ts**2], axis=1)
    vs = np.stack([np.ones(9), 2 * ts], axis=1)
    c = Curve(ts=ts, xs=xs, vs=vs)
    assert c.dim == 2
    assert np.abs(c.position(0.0) - xs[0]).max() == 0.0
    assert np.abs(c.position(1.0) - xs[-1]).max() == 0.0
    with pytest.raises(ValueError):
        Curve(ts=ts + 0.1, xs=xs, vs=vs)


def test_batched_curves_member_round_trip(models, cfg, rng):
    model = models["sphere"]
    P, Q = sample_pairs(model, 4, rng)
    V, _ = _shoot_many(model, P_KIND, P, Q, cfg)
    batch = _curves_from_initial(model, P_KIND, P, V, cfg)
    assert batch.xs.shape == (4, cfg.curve_grid, 2) and batch.dim == 2
    single = Curve(ts=batch.ts, xs=batch.xs[2], vs=batch.vs[2], accs=batch.accs[2])
    ts = np.linspace(0, 1, 5)
    assert np.abs(single.position(ts) - np.stack([batch.position(t)[2] for t in ts])).max() < 1e-14
    assert np.array_equal(single.velocity(ts), batch.velocity(ts)[2])


def test_curve_rejects_a_non_uniform_grid():
    # the interpolant reads the grid as uniform; on x = t this grid gave
    # position(0.5) = [0.1, 0.1]
    ts = np.array([0.0, 0.1, 1.0])
    with pytest.raises(ValueError):
        Curve(ts=ts, xs=np.stack([ts, ts], axis=1), vs=np.ones((3, 2)))


def test_batched_curves_at_a_vector_of_times_stack_the_single_times(models, cfg, rng):
    model = models["sphere"]
    P, Q = sample_pairs(model, 3, rng)
    V, _ = _shoot_many(model, P_KIND, P, Q, cfg)
    integrated = _curves_from_initial(model, P_KIND, P, V, cfg)
    interpolated = Curve(ts=integrated.ts, xs=integrated.xs, vs=integrated.vs)
    ts = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    for batch in (integrated, interpolated):
        for at in (batch.position, batch.velocity):
            assert np.array_equal(at(ts), np.stack([at(t) for t in ts], axis=1))


LEGENDRE_SPECS = ["categorical:2", "categorical:3", "gaussian1d"]


@pytest.mark.parametrize("dual", [False, True], ids=["model", "dualized"])
@pytest.mark.parametrize("spec", LEGENDRE_SPECS)
def test_legendre_chart_route_matches_ode_route(cfg, spec, dual):
    # the connection that is not flat in the working chart runs straight in
    # the expectation chart; the ODE route of a chart-free copy must agree
    model = parse_model_spec(spec)
    model = model.dualized() if dual else model
    ode = dataclasses.replace(model, affine_charts={})
    kind = D_KIND if not dual else P_KIND
    assert not model.is_flat(kind) and model.affine_charts.get(kind) is not None
    P, Q = sample_pairs(model, 3, np.random.default_rng(11), shrink=0.8)
    p, q = Point(P[0]), Point(Q[0])

    v_chart = log_map(model, kind, p, q, cfg)
    v_ode = log_map(ode, kind, p, q, cfg)
    assert np.abs(v_chart.components - v_ode.components).max() <= 1e-9
    V_chart, ok = _shoot_many(model, kind, P, Q, cfg)
    assert ok.all()
    assert np.abs(V_chart - _shoot_many(ode, kind, P, Q, cfg)[0]).max() <= 1e-9

    ts = np.linspace(0.0, 1.0, 9)
    chart_curve = integrate_geodesic(model, kind, p, v_ode, cfg)
    ode_curve = integrate_geodesic(ode, kind, p, v_ode, cfg)
    assert np.abs(chart_curve.position(ts) - ode_curve.position(ts)).max() <= 1e-9
    assert np.abs(chart_curve.velocity(ts) - ode_curve.velocity(ts)).max() <= 1e-9
    assert np.abs(chart_curve.end_point().coords - q.coords).max() <= 1e-9

    # flat transport does not depend on the path: a waypoint path, not a
    # geodesic. The chart gives the exact value; at the default tolerances the
    # transport ODE is 1.6e-9 off on categorical:3, so it is solved tighter here
    mid = 0.5 * (P[0] + Q[0]) + 0.05 * (P[1] - P[2])
    path = Curve.from_waypoints([P[0], mid, Q[0]], grid=cfg.curve_grid)
    u = model.tangent(p, [1.0, -0.5, 0.25][: model.dim])
    moved_chart = parallel_transport(model, kind, path, u, cfg)
    tight = cfg.with_(ode_rel_tol=1e-12, ode_abs_tol=1e-14)
    moved_ode = parallel_transport(ode, kind, path, u, tight)
    assert np.abs(moved_chart.components - moved_ode.components).max() <= 1e-9

