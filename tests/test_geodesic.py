"""Geodesic integration, exponential/log maps and parallel transport."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from dualgeo import (
    BaseMismatch,
    ConnectionKind,
    Curve,
    DomainExit,
    Point,
    PointOutOfDomain,
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
from dualgeo import geodesic
from dualgeo.errors import IntegrationFailure
from dualgeo.geodesic import (
    _CURVE_GRID,
    _contract,
    _curves_from_initial,
    _endpoints_resilient,
    _geodesic_accel,
    _geodesic_states,
    _rk45,
    _shoot_many,
    _transport_many,
)

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


CARRIED_MODELS = {
    "sphere:2": parse_model_spec("sphere:2"),
    "alpha_categorical:2:0.5": parse_model_spec("alpha_categorical:2:0.5"),
    "categorical:2-no-charts": dataclasses.replace(parse_model_spec("categorical:2"), affine_charts={}),
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", list(CARRIED_MODELS))
def test_carried_transport_equals_transport_along_the_dense_track(cfg, rng, name, kind):
    # a vector carried in its track's own integration agrees with the
    # transport ODE solved along the track's dense Hermite curve
    model = CARRIED_MODELS[name]
    P, Q = sample_pairs(model, 6, rng, shrink=0.9)
    V, ok = _shoot_many(model, kind.dual, P, Q, cfg)
    assert ok.all()
    W0 = rng.standard_normal(P.shape)
    n = model.dim
    carried = _geodesic_states(model, kind.dual, P, V, cfg, [1.0], (kind, W0))[0, :, 2 * n :]
    track = _curves_from_initial(model, kind.dual, P, V, cfg)
    assert np.abs(carried - _transport_many(model, kind, track, W0, cfg)).max() <= 1e-9


def test_transport_identity_on_euclidean(models, cfg):
    eu = models["euclidean"]
    p = eu.point([0.0, 0.0, 0.0])
    v = eu.tangent(p, [1.0, -2.0, 0.5])
    c = integrate_geodesic(eu, P_KIND, p, eu.tangent(p, [0.5, 0.5, 0.5]), cfg)
    out = parallel_transport(eu, P_KIND, c, v, cfg)
    assert np.array_equal(out.components, v.components)


def test_transport_along_a_curve_that_leaves_the_domain_is_refused(models, cfg):
    cat = models["categorical"]
    p = cat.point([0.1, 0.2])
    path = Curve.from_waypoints([p.coords, [9.0, 0.1]])  # its end has a probability below 1e-3
    with pytest.raises(PointOutOfDomain, match=r"first offender: array\(\[9. , 0.1\]\)"):
        parallel_transport(cat, D_KIND, path, cat.tangent(p, [1.0, 0.0]), cfg)


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
    return Curve(xs=xs, vs=vs)


def _meridian_segment(phi, th0, th1, grid=129):
    ts = np.linspace(0.0, 1.0, grid)
    xs = np.stack([th0 + (th1 - th0) * ts, np.full(grid, phi)], axis=1)
    vs = np.stack([np.full(grid, th1 - th0), np.zeros(grid)], axis=1)
    return Curve(xs=xs, vs=vs)


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


def test_shooting_no_convergence_reports_failure(monkeypatch, models, cfg):
    sp = models["sphere"]
    monkeypatch.setattr(geodesic, "_MAX_SWEEPS", 2)
    with pytest.raises(ShootingNoConvergence):
        log_map(sp, P_KIND, sp.point([1.3, -0.5]), sp.point([1.9, 2.6]), cfg)


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
    # the path is stored on its knots, as a copy of the caller's waypoints
    assert np.array_equal(c.ts, np.linspace(0, 1, 4)) and np.array_equal(c.xs, W)
    W[1] = 9.0
    assert np.abs(c.position(1 / 3) - [0.4, 0.6]).max() < 1e-12


def test_a_waypoint_curve_needs_two_waypoints_and_has_no_acceleration():
    with pytest.raises(ValueError, match="^need at least two waypoints$"):
        Curve.from_waypoints([[0.0, 0.0]])
    with pytest.raises(ValueError, match="^curve carries no acceleration samples$"):
        Curve.from_waypoints([[0.0, 0.0], [1.0, 1.0]]).velocity_derivative(0.5)


def test_transport_requires_a_vector_based_at_the_curve_start(models, cfg):
    eu = models["euclidean"]
    path = Curve.from_waypoints([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(BaseMismatch, match="^transported vector must be based at the curve start$"):
        parallel_transport(eu, P_KIND, path, eu.tangent([1.0, 1.0, 1.0], [1, 0, 0]), cfg)


@pytest.mark.parametrize("batch,K", [((3,), 2), ((2, 3), 4), ((5,), 3)])
def test_curve_from_waypoints_batch_equals_its_single_paths(rng, batch, K):
    W = rng.uniform(-1.0, 1.0, batch + (K, 2))
    batched = Curve.from_waypoints(W)
    for idx in np.ndindex(*batch):
        single = Curve.from_waypoints(W[idx])
        assert np.array_equal(batched.ts, single.ts)
        assert np.array_equal(batched.xs[idx], single.xs)
        assert np.array_equal(batched.vs[idx], single.vs)
        assert np.array_equal(batched.breaks, single.breaks)


def test_curve_invariants():
    ts = np.linspace(0, 1, 9)
    xs = np.stack([ts, ts**2], axis=1)
    vs = np.stack([np.ones(9), 2 * ts], axis=1)
    c = Curve(xs=xs, vs=vs)
    assert c.dim == 2
    assert np.array_equal(c.ts, ts)
    assert np.abs(c.position(0.0) - xs[0]).max() == 0.0
    assert np.abs(c.position(1.0) - xs[-1]).max() == 0.0
    # the grid is the sample count: one sample has no cell
    with pytest.raises(ValueError, match="at least two samples"):
        Curve(xs=xs[:1], vs=vs[:1])


@pytest.mark.parametrize("t", [np.nan, -0.1, 1.2, -np.inf, np.array([0.5, 1.0 + 1e-12])])
def test_a_curve_is_read_only_at_times_in_the_unit_interval(t):
    # nan ended in numpy's "invalid value encountered in cast"; other times extrapolated
    c = Curve.from_waypoints([[1.2, 0.1], [1.3, 0.2]])
    integrated = Curve(xs=c.xs, vs=c.vs, accs=np.zeros_like(c.xs))
    for read in (c.position, c.velocity, integrated.velocity, integrated.velocity_derivative):
        with pytest.raises(ValueError, match=r"^a Curve is read only at times in \[0, 1\]$"):
            read(t)
    assert np.array_equal(c.position(np.array([0.0, 1.0])), c.xs)


@pytest.mark.parametrize("K", [2, 5, 257])
def test_curve_grid_is_its_sample_count(K):
    # the Hermite interpolant on linspace(0, 1, K) reproduces a cubic from
    # its values and slopes at the K samples
    ts = np.linspace(0.0, 1.0, K)
    c = Curve(xs=np.stack([ts**3, ts], axis=1), vs=np.stack([3 * ts**2, np.ones(K)], axis=1))
    assert np.array_equal(c.ts, ts)
    t = np.array([0.0, 0.1, 0.37, 0.5, 0.99, 1.0])
    assert np.abs(c.position(t) - np.stack([t**3, t], axis=1)).max() < 1e-14
    assert np.abs(c.velocity(t) - np.stack([3 * t**2, np.ones_like(t)], axis=1)).max() < 1e-13


def test_batched_curves_member_round_trip(models, cfg, rng):
    model = models["sphere"]
    P, Q = sample_pairs(model, 4, rng)
    V, _ = _shoot_many(model, P_KIND, P, Q, cfg)
    batch = _curves_from_initial(model, P_KIND, P, V, cfg)
    assert batch.xs.shape == (4, _CURVE_GRID, 2) and batch.dim == 2
    single = Curve(xs=batch.xs[2], vs=batch.vs[2], accs=batch.accs[2])
    ts = np.linspace(0, 1, 5)
    assert np.abs(single.position(ts) - np.stack([batch.position(t)[2] for t in ts])).max() < 1e-14
    assert np.array_equal(single.velocity(ts), batch.velocity(ts)[2])


@pytest.mark.parametrize("grid", [3, 9])
def test_curve_rejects_samples_off_its_grid(grid):
    # the interpolant reads the same row of each sample array, so five
    # samples against xs of 3 would mix times, and against xs of 9 index
    # past their end
    off = np.linspace(0.0, 1.0, 5)[:, None]
    good = np.zeros((grid, 1))
    for name in ("vs", "accs"):
        samples = {"xs": good, "vs": good, "accs": good, name: off}
        with pytest.raises(ValueError, match=f"{name} needs one row per sample of xs"):
            Curve(**samples)


def test_batched_curves_at_a_vector_of_times_stack_the_single_times(models, cfg, rng):
    model = models["sphere"]
    P, Q = sample_pairs(model, 3, rng)
    V, _ = _shoot_many(model, P_KIND, P, Q, cfg)
    integrated = _curves_from_initial(model, P_KIND, P, V, cfg)
    interpolated = Curve(xs=integrated.xs, vs=integrated.vs)
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
    path = Curve.from_waypoints([P[0], mid, Q[0]])
    u = model.tangent(p, [1.0, -0.5, 0.25][: model.dim])
    moved_chart = parallel_transport(model, kind, path, u, cfg)
    tight = cfg.with_(ode_rel_tol=1e-12)
    moved_ode = parallel_transport(ode, kind, path, u, tight)
    assert np.abs(moved_chart.components - moved_ode.components).max() <= 1e-9



# -- contraction kernels and the integrator --------------------------------


def _kernel_points(model, rng, m, collar):
    """m points of the safe box or, with collar, m points just outside the
    domain where the field formulas clip their coordinates."""
    lo, hi = model.safe_box[:, 0], model.safe_box[:, 1]
    X = lo + rng.uniform(size=(m, model.dim)) * (hi - lo)
    if not collar:
        return X
    if model.name.startswith("sphere"):
        pole = np.where(rng.uniform(size=m) < 0.5, 0.02, np.pi - 0.02)
        X[:, 0] = pole + rng.uniform(-0.3, 0.3, m)
        return X
    # one of the n + 1 probabilities moved to [-0.01, 0.001], its neighbour
    # taking up the difference
    n = model.dim
    probs = np.concatenate([X, 1.0 - X.sum(axis=1, keepdims=True)], axis=1)
    rows, j = np.arange(m), rng.integers(0, n + 1, m)
    shift = probs[rows, j] - rng.uniform(-0.01, 0.001, m)
    probs[rows, j] -= shift
    probs[rows, (j + 1) % (n + 1)] += shift
    return probs[:, :n]


KERNEL_SPECS = ["sphere:2:0.01", "sphere:2:1", "sphere:2:1000"] + [
    f"alpha_categorical:{n}:{a}" for n in (1, 2, 5, 20) for a in (0, 0.5)
]


@pytest.mark.parametrize("collar", [False, True], ids=["domain", "collar"])
@pytest.mark.parametrize("dual", [False, True], ids=["model", "dualized"])
@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_contraction_kernel_matches_the_generic_reference(spec, dual, collar):
    model = parse_model_spec(spec)
    model = model.dualized() if dual else model
    generic = dataclasses.replace(model, contraction_fns={})
    assert dataclasses.replace(model, affine_charts={}).contraction_fns == model.contraction_fns
    rng = np.random.default_rng(5)
    X = _kernel_points(model, rng, 400, collar)
    assert model.contains_batch(X).all() != collar
    U, W = rng.normal(size=X.shape), rng.normal(size=X.shape)
    for kind in KINDS:
        assert kind in model.contraction_fns
        got = _contract(model, kind, X, U, W)
        want = _contract(generic, kind, X, U, W)
        if not collar:
            rel = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
            assert rel.max() <= 1e-12, (kind, rel.max())
        else:
            # past the collar the clipped metric is ill-conditioned (condition
            # number up to about 7e3), and the generic solve itself carries
            # errors up to 1e-11 of its result there; so the difference is
            # measured against the componentwise scale |g^{-1}| |Gamma(U, W)|
            # of the raised contraction
            lowered = np.einsum("mijk,mi,mj->mk", model.christoffel_batch(X, kind), U, W)
            inverse = np.abs(np.linalg.inv(model.metric_batch(X)))
            scale = np.einsum("mij,mj->mi", inverse, np.abs(lowered))
            assert (np.abs(got - want) / scale).max() <= 1e-12, kind


def test_dualized_swaps_the_contraction_kernels():
    model = parse_model_spec("alpha_categorical:3:0.5")
    star = model.dualized()
    assert star.contraction_fns[P_KIND] is model.contraction_fns[D_KIND]
    assert star.contraction_fns[D_KIND] is model.contraction_fns[P_KIND]
    # the Levi-Civita connection at alpha = 0 is one function for both kinds
    fisher = parse_model_spec("alpha_categorical:3:0")
    assert fisher.contraction_fns[P_KIND] is fisher.contraction_fns[D_KIND]


def _geodesic_system(model, kind, m, seed):
    rng = np.random.default_rng(seed)
    X0 = _kernel_points(model, rng, m, collar=False)
    V0 = 0.3 * rng.normal(size=X0.shape)
    n = model.dim
    calls = []

    def rhs(t, y):
        calls.append(t)
        Y = y.reshape(m, 2 * n)
        out = np.empty_like(Y)
        out[:, :n] = Y[:, n:]
        out[:, n:] = _geodesic_accel(model, kind, Y[:, :n], Y[:, n:])
        return out.ravel()

    return rhs, np.concatenate([X0, V0], axis=1).ravel(), calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", ["sphere:2", "alpha_categorical:2:0.5", "alpha_categorical:5:0.3"])
def test_rk45_equals_scipy_solve_ivp_bit_for_bit(cfg, spec, kind):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    model = parse_model_spec(spec)
    for m in (1, 8, 40):
        rhs, y0, calls = _geodesic_system(model, kind, m, seed=m)
        for t_eval in (np.array([1.0]), np.linspace(0.0, 1.0, _CURVE_GRID)):
            calls.clear()
            got = _rk45(rhs, y0, t_eval, cfg, "geodesic integration")
            ours = len(calls)
            sol = solve_ivp(
                rhs, (0.0, 1.0), y0, method="RK45",
                rtol=cfg.ode_rel_tol, atol=cfg.ode_rel_tol * 1e-2, t_eval=t_eval,
            )
            assert sol.success
            assert np.array_equal(got, sol.y.T), (m, t_eval.shape)
            assert ours == sol.nfev


def test_rk45_fails_on_a_finite_time_blow_up(cfg):
    # y' = y^2 from y(0) = 2 blows up at t = 1/2: the step size collapses
    def rhs(t, y):
        return y * y

    with pytest.raises(IntegrationFailure, match="less than spacing between numbers"):
        _rk45(rhs, np.array([2.0, 1.0]), np.array([1.0]), cfg, "blow-up")
    scipy_integrate = pytest.importorskip("scipy.integrate")
    with np.errstate(over="ignore", invalid="ignore"):
        sol = scipy_integrate.solve_ivp(
            rhs, (0.0, 1.0), np.array([2.0, 1.0]), method="RK45",
            rtol=cfg.ode_rel_tol, atol=cfg.ode_rel_tol * 1e-2, t_eval=[1.0],
        )
    assert not sol.success


def test_geodesic_acceleration_is_the_contraction_at_any_speed(models):
    # no row is rescaled: fast rows, and fast rows near a pole where the
    # cot(theta) term is large, come out as the contraction itself
    model = models["sphere"]
    rng = np.random.default_rng(2)
    X = _kernel_points(model, rng, 6, collar=False)
    V = rng.normal(size=X.shape)
    fast = np.array([False, True, False, True, False, False])
    V[fast] *= 1e7
    near_pole = X.copy()
    near_pole[fast, 0] = 0.05
    for pts in (X, near_pole):
        a = _geodesic_accel(model, P_KIND, pts, V)
        assert np.array_equal(a, _contract(model, P_KIND, pts, V, V))
    assert np.linalg.norm(a[fast], axis=1).min() > 1e14


@pytest.mark.parametrize(
    "kernel, speed",
    [(lambda X, U, W: U * W, 4.0), (lambda X, U, W: U * W * np.abs(U), 1e100)],
    ids=["square-blows-up", "cube-overflows"],
)
def test_a_runaway_member_is_flagged_and_its_batch_mates_kept(models, cfg, kernel, speed):
    # v' = v^2 componentwise: from v0 = (4, 4) the velocity blows up at t = 1/4;
    # v' = v^2 |v| from 1e100 overflows within the first steps. The other members'
    # speeds stay below 1 on [0, 1]. The integrator fails on the whole batch,
    # bisection isolates the runaway member, and no numpy warning escapes
    # (Tier-1 makes a RuntimeWarning an error)
    toy = dataclasses.replace(models["sphere"], contraction_fns={k: kernel for k in KINDS})
    X0 = np.tile([1.2, 0.3], (4, 1))
    V0 = np.array([[0.1, 0.2], [speed, speed], [-0.2, 0.1], [0.3, -0.1]])
    E, ok = _endpoints_resilient(toy, P_KIND, X0, V0, cfg)
    assert ok.tolist() == [True, False, True, True]
    assert np.isfinite(E[ok]).all()
    # the kept members agree with the same members integrated without it
    alone, ok_alone = _endpoints_resilient(toy, P_KIND, X0[ok], V0[ok], cfg)
    assert ok_alone.all()
    assert np.allclose(E[ok], alone, rtol=1e-6, atol=1e-9)


def _count_sweeps(monkeypatch, rows):
    """Record the ok flags of each `_endpoints_resilient` call made on `rows`
    rows: one per Newton sweep, since its bisection halves make fewer."""
    sweeps = []
    inner = geodesic._endpoints_resilient

    def counted(model, kind, X0, V0, cfg):
        E, ok = inner(model, kind, X0, V0, cfg)
        if X0.shape[0] == rows:
            sweeps.append(ok)
        return E, ok

    monkeypatch.setattr(geodesic, "_endpoints_resilient", counted)
    return sweeps


def test_an_out_of_basin_pair_is_given_up_early_with_its_residual(cfg, monkeypatch):
    # the chart segment between these corners of the simplex hugs the boundary;
    # once seven trials in a row fail to cut the best error the member is hopeless
    model = parse_model_spec("alpha_categorical:2:0.9")
    sweeps = _count_sweeps(monkeypatch, 5)  # one member, center shot and 4 columns
    with pytest.raises(ShootingNoConvergence, match=r"failed for 1/1 members \[0\]") as info:
        log_map(model, P_KIND, model.point([0.0015, 0.9]), model.point([0.9, 0.0015]), cfg)
    assert 0 < len(sweeps) <= 12
    assert f"after {len(sweeps)} sweeps" in str(info.value)
    assert len(info.value.residuals) == 1
    assert all(np.isfinite(r) and r > cfg.shoot_tol for r in info.value.residuals)


def test_a_first_trial_that_blows_up_is_pulled_back_and_converges(models, cfg, monkeypatch):
    # v' = v^2 componentwise, so exp_x(v) = x - log(1 - v) and the log map is
    # 1 - exp(-(q - p)). The first member's chart guess (0, 2) blows up at
    # t = 1/2; halving back from the zero shot brings it into range
    square = {k: lambda X, U, W: U * W for k in KINDS}
    toy = dataclasses.replace(models["sphere"], contraction_fns=square)
    P = np.array([[1.2, 0.3], [1.3, -0.2]])
    Q = P + np.array([[0.0, 2.0], [0.05, 0.1]])
    sweeps = _count_sweeps(monkeypatch, 10)
    V, ok = _shoot_many(toy, P_KIND, P, Q, cfg)
    assert ok.all()
    assert np.allclose(V, 1.0 - np.exp(-(Q - P)), rtol=0.0, atol=1e-8)
    assert not sweeps[0][:5].any() and sweeps[0][5:].all()


def test_importing_dualgeo_loads_no_scipy():
    code = "import sys, dualgeo; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
