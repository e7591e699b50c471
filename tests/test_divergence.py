"""The divergence family against closed-form oracles and structural identities."""

import dataclasses
import re

import numpy as np
import pytest

from dualgeo import (
    ConnectionKind,
    Curve,
    DivergenceKind,
    DomainExit,
    InvalidModelSpec,
    OracleUnavailable,
    Point,
    PointOutOfDomain,
    QuadratureFailure,
    StencilOutOfDomain,
    Tangent,
    ay_divergence,
    builtin_names,
    canonical_divergence,
    classify_manifold,
    curvature_tensor,
    divergence_gradient,
    divergence_value,
    dual_canonical_divergence,
    integrate_geodesic,
    log_map,
    make_builtin,
    mixture_to_natural,
    oracle_divergence,
    parallel_transport,
    parse_model_spec,
    path_functional,
    pi_field,
    pseudo_norm,
    recover_structure,
    sample_pairs,
    symmetry_probe,
)
import dualgeo.divergence as divergence_module
from dualgeo.divergence import _divergence_many, _gauss_legendre, _path_functional_many, _pi_many
from dualgeo.geodesic import _curves_from_initial, _geodesic_states, _shoot_many

# frozen closed-form values for the Bernoulli pair p=(0.5,0.5), q=(0.9,0.1):
# sum_i p_i log(p_i/q_i) and sum_i q_i log(q_i/p_i)
KL_FORWARD = 0.5108256237659907
KL_REVERSE = 0.3680642071684971
QUARTER_CIRCLE_ENERGY = np.pi**2 / 8  # 1.2337005501361697


def bernoulli_points():
    model = make_builtin("categorical", [1])
    p = model.point(mixture_to_natural([0.5]))
    q = model.point(mixture_to_natural([0.9]))
    return model, p, q


@pytest.mark.parametrize("kind", ["ay", None, 0])
def test_a_kind_that_is_not_a_divergence_kind_is_refused_by_name(kind):
    # "ay" ended in AttributeError: 'str' object has no attribute 'value'
    eu = make_builtin("euclidean", [2])
    with pytest.raises(ValueError, match=f"^unknown divergence kind {re.escape(repr(kind))}; "):
        divergence_value(eu, kind, eu.point([0.0, 0.0]), eu.point([1.0, 1.0]))


def test_ay_euclidean(models, cfg):
    eu = make_builtin("euclidean", [2])
    assert abs(ay_divergence(eu, eu.point([0, 0]), eu.point([3, 4]), cfg) - 12.5) < 1e-12


@pytest.mark.parametrize("name", ["euclidean", "sphere", "alpha_categorical"])
def test_divergences_vanish_on_diagonal(models, cfg, name):
    model = models[name]
    p = Point(model.safe_box.mean(axis=1))
    assert ay_divergence(model, p, p, cfg) == 0.0
    assert canonical_divergence(model, p, p, cfg) == 0.0
    assert pseudo_norm(model, p, p, cfg) == 0.0


def test_ay_sphere_quarter_circle(models, cfg):
    sp = models["sphere"]
    p = sp.point([np.pi / 2, 0.0])
    q = sp.point([np.pi / 2, np.pi / 2])
    assert abs(ay_divergence(sp, p, q, cfg) - QUARTER_CIRCLE_ENERGY) < 1e-9


def test_canonical_euclidean(models, cfg):
    eu = make_builtin("euclidean", [2])
    val = canonical_divergence(eu, eu.point([0, 0]), eu.point([3, 4]), cfg)
    assert abs(val - 12.5) < 1e-12


def test_orientation_resolved_on_bernoulli(cfg):
    """Brute-force orientation of the closed-form reference on the 1-simplex.

    The primal geodesic runs straight in the natural chart, and the resulting
    canonical value equals the KL sum with the probability vectors in the
    second-slot-first order; the opposite orientation differs by a wide
    margin, so the oracle pairing is unambiguous.
    """
    model, p, q = bernoulli_points()
    d_pq = canonical_divergence(model, p, q, cfg)
    assert abs(d_pq - KL_REVERSE) < 1e-9
    assert abs(d_pq - KL_FORWARD) > 0.1
    assert abs(canonical_divergence(model, q, p, cfg) - KL_FORWARD) < 1e-9
    assert abs(dual_canonical_divergence(model, p, q, cfg) - KL_FORWARD) < 1e-6
    assert abs(oracle_divergence(model, p, q) - KL_REVERSE) < 1e-12


def test_canonical_matches_oracle_gaussian(models, cfg):
    ga = models["gaussian1d"]
    # standard normal vs unit-variance normal at mean 1: theta = (mu/var, -1/(2 var))
    p = ga.point([0.0, -0.5])
    q = ga.point([1.0, -0.5])
    assert abs(oracle_divergence(ga, p, q) - 0.5) < 1e-12
    assert abs(canonical_divergence(ga, p, q, cfg) - 0.5) < 1e-9


def test_flat_route_matches_forced_ode(cfg):
    model, p, q = bernoulli_points()
    fast = canonical_divergence(model, p, q, cfg)
    slow = canonical_divergence(dataclasses.replace(model, plane_sections={}), p, q, cfg)
    assert abs(fast - slow) < 1e-9


def test_dual_equals_canonical_of_swapped_model(models, cfg):
    al = models["alpha_categorical"]
    p, q = al.point([0.2, 0.3]), al.point([0.4, 0.25])
    a = dual_canonical_divergence(al, p, q, cfg)
    b = canonical_divergence(al.dualized(), p, q, cfg)
    assert a == b


def test_pseudo_norm_euclidean(models, cfg):
    eu = make_builtin("euclidean", [2])
    assert abs(pseudo_norm(eu, eu.point([0, 0]), eu.point([3, 4]), cfg) - 25.0) < 1e-12


def test_pseudo_norm_symmetry_probed(models, cfg, rng):
    # symmetry of the log-pairing is measured, not assumed
    al = models["alpha_categorical"]
    P, Q = sample_pairs(al, 10, rng, shrink=0.85)
    fwd = _divergence_many(al, DivergenceKind.PSEUDO_NORM, P, Q, cfg)
    rev = _divergence_many(al, DivergenceKind.PSEUDO_NORM, Q, P, cfg)
    assert (np.abs(fwd - rev) / (1.0 + np.abs(fwd))).max() <= 1e-6


def test_near_diagonal_guard_values(models, cfg):
    al = models["alpha_categorical"]
    p = al.point([0.3, 0.3])
    q = al.point([0.3 + 4e-7, 0.3 - 3e-7])
    d = q.coords - p.coords
    g = al.metric_at(p)
    quad = float(d @ g @ d)
    assert canonical_divergence(al, p, q, cfg) == pytest.approx(0.5 * quad, abs=1e-18)
    assert ay_divergence(al, p, q, cfg) == pytest.approx(0.5 * quad, abs=1e-18)
    assert pseudo_norm(al, p, q, cfg) == pytest.approx(quad, abs=1e-18)


def test_pi_field_euclidean_is_difference(models, cfg):
    eu = make_builtin("euclidean", [2])
    p = eu.point([0.0, 0.0])
    gamma = Curve.from_waypoints([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]])
    a, b = pi_field(eu, p, gamma, 0.6, cfg)
    x = gamma.position(0.6)
    assert np.abs(a.components - x).max() < 1e-10
    assert np.abs(b.components - x).max() < 1e-10


@pytest.mark.parametrize("t", [2.0, -0.5, float("nan")])
def test_pi_field_refuses_a_time_off_the_curve(cfg, t):
    # t = 2 returned tangents based at (2, 2), past the path's end
    eu = make_builtin("euclidean", [2])
    gamma = Curve.from_waypoints([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=r"times in \[0, 1\]"):
        pi_field(eu, eu.point([0.0, 0.0]), gamma, t, cfg)


def test_pi_field_self_dual_equals_scaled_velocity(models, cfg):
    # on a self-dual model both transported fields along a geodesic from p
    # reduce to t times the geodesic velocity
    sp = models["sphere"]
    p = sp.point([1.2, -0.2])
    v = sp.tangent(p, [0.35, 0.55])
    sigma = integrate_geodesic(sp, ConnectionKind.PRIMAL, p, v, cfg)
    for t in (0.3, 0.7, 1.0):
        a, b = pi_field(sp, p, sigma, t, cfg)
        expect = t * sigma.velocity(t)
        assert np.abs(a.components - expect).max() < 1e-8
        assert np.abs(b.components - expect).max() < 1e-8


def test_pi_field_zero_at_base(models, cfg):
    sp = models["sphere"]
    p = sp.point([1.2, -0.2])
    gamma = integrate_geodesic(sp, ConnectionKind.PRIMAL, p, sp.tangent(p, [0.3, 0.4]), cfg)
    a, b = pi_field(sp, p, gamma, 0.0, cfg)
    assert np.abs(a.components).max() < 1e-9
    assert np.abs(b.components).max() < 1e-9


def test_path_functional_constant_path(models, cfg):
    al = models["alpha_categorical"]
    p = al.point([0.3, 0.3])
    const = Curve(xs=np.repeat(p.coords[None, :], 65, axis=0), vs=np.zeros((65, 2)))
    res = path_functional(al, p, const, cfg)
    assert res.primal_integral == 0.0
    assert res.dual_integral == 0.0
    assert res.sum == 0.0


def test_path_functional_on_geodesic_matches_canonical(models, cfg):
    al = models["alpha_categorical"]
    p, q = al.point([0.2, 0.3]), al.point([0.4, 0.25])
    v = log_map(al, ConnectionKind.PRIMAL, p, q, cfg)
    sigma = integrate_geodesic(al, ConnectionKind.PRIMAL, p, v, cfg)
    res = path_functional(al, p, sigma, cfg)
    assert abs(res.primal_integral - canonical_divergence(al, p, q, cfg)) < 1e-10
    assert res.sum == res.primal_integral + res.dual_integral


def test_path_independence_random_paths(models, cfg, rng):
    al = models["alpha_categorical"]
    p, q = al.point([0.22, 0.32]), al.point([0.38, 0.24])
    r = pseudo_norm(al, Point(p.coords), Point(q.coords), cfg)
    sums = []
    for _ in range(3):
        w1 = p.coords + (q.coords - p.coords) * 0.3 + rng.uniform(-0.03, 0.03, 2)
        w2 = p.coords + (q.coords - p.coords) * 0.7 + rng.uniform(-0.03, 0.03, 2)
        gamma = Curve.from_waypoints([p.coords, w1, w2, q.coords])
        sums.append(path_functional(al, p, gamma, cfg).sum)
    sums = np.array(sums)
    assert np.ptp(sums) <= 1e-5 * (1 + np.abs(sums).max())
    assert np.abs(sums - r).max() <= 1e-5 * (1 + abs(r))


@pytest.mark.parametrize("name,tol", [("categorical", 0.0), ("alpha_categorical", 1e-11)])
def test_path_functional_many_equals_per_path(models, cfg, rng, name, tol):
    # closed-form fields give every path the same bits; a stacked ODE system
    # shares one adaptive step, so there the last bits move with the batch
    # (1.3e-12 to 2.7e-12 on alpha_categorical pairs of this size)
    model = models[name]
    P, Q = sample_pairs(model, 2, rng, shrink=0.8)
    mid = 0.5 * (P + Q)[:, None, :] + rng.uniform(-0.02, 0.02, (2, 3, 2))
    W = np.stack([np.repeat(P[:, None], 3, 1), mid, np.repeat(Q[:, None], 3, 1)], axis=2)
    primal, dual = _path_functional_many(model, P[:, None, :], Curve.from_waypoints(W), cfg)
    assert primal.shape == dual.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        res = path_functional(model, Point(P[i]), Curve.from_waypoints(W[i, j]), cfg)
        assert abs(primal[i, j] - res.primal_integral) <= tol
        assert abs(dual[i, j] - res.dual_integral) <= tol


def test_a_self_dual_path_functional_has_equal_integrals_bit_for_bit(models, cfg):
    # one connection, one transported field: the dual integral is the primal one
    sp = models["sphere"]
    p = sp.point([1.2, -0.2])
    gamma = Curve.from_waypoints([p.coords, (1.35, 0.1), (1.5, 0.3)])
    res = path_functional(sp, p, gamma, cfg)
    assert res.primal_integral != 0.0
    assert res.dual_integral == res.primal_integral


@pytest.mark.parametrize(
    "spec, kinds",
    [
        ("sphere:2", [ConnectionKind.PRIMAL]),
        ("alpha_categorical:2:0", [ConnectionKind.PRIMAL]),
        ("alpha_categorical:2:0.5", [ConnectionKind.PRIMAL, ConnectionKind.DUAL]),
    ],
)
def test_the_pseudo_norm_shoots_once_on_a_self_dual_model(cfg, monkeypatch, spec, kinds):
    model = parse_model_spec(spec)
    P, Q = sample_pairs(model, 2, np.random.default_rng(1))
    asked = []
    shoot = divergence_module._shoot_many

    def counting(model, kind, P, Q, *args, **kwargs):
        asked.append(kind)
        return shoot(model, kind, P, Q, *args, **kwargs)

    monkeypatch.setattr(divergence_module, "_shoot_many", counting)
    _divergence_many(model, DivergenceKind.PSEUDO_NORM, P, Q, cfg)
    assert asked == kinds


def test_path_functional_overflow_is_a_quadrature_failure(cfg):
    # the pseudo-norm of the same endpoints raises; so does its line integral
    eu = make_builtin("euclidean", [2])
    p = eu.point([1e200, 1e200])
    path = Curve.from_waypoints([(1e200, 1e200), (0.0, 0.0), (-1e200, -1e200)])
    with pytest.raises(QuadratureFailure, match="path functional on euclidean:2 is not finite"):
        path_functional(eu, p, path, cfg)


def test_gradient_euclidean(models, cfg):
    eu = make_builtin("euclidean", [2])
    g = divergence_gradient(eu, DivergenceKind.AY, eu.point([0, 0]), eu.point([3, 4]), cfg)
    assert np.abs(g.components - [3, 4]).max() < 1e-8


def test_a_gradient_stencil_out_of_domain_is_a_stencil_error(models, cfg):
    # q lies inside (theta > 0.1), its stencil point q - fd_step e_1 does not
    sphere = models["sphere"]
    p, q = sphere.point([1.0, 0.3]), sphere.point([0.10001, 0.3])
    with pytest.raises(StencilOutOfDomain, match=r"gradient stencil point .*0\.09991"):
        divergence_gradient(sphere, DivergenceKind.CANONICAL, p, q, cfg)


@pytest.mark.parametrize("fd_step", [1e-40, 4e-17, 2e-16])
def test_a_gradient_step_that_does_not_move_the_point_is_refused(cfg, fd_step):
    # 0.3 + 1e-40 == 0.3: both stencil points are q, and the gradient would read 0;
    # at 4e-17 and 2e-16 the floats span 1.39x and 1.11x of 2h in the first
    # coordinate, and the gradient would read [0.284, 0.092] and [0.233, 0.067]
    cat = make_builtin("categorical", [2])
    p, q = cat.point([0.1, 0.2]), cat.point([0.3, 0.25])
    with pytest.raises(InvalidModelSpec, match=f"step {fd_step!r} puts gradient stencil points closer than"):
        divergence_gradient(cat, DivergenceKind.CANONICAL, p, q, cfg.with_(fd_step=fd_step))


def test_gradient_vanishes_at_diagonal(models, cfg):
    sp = models["sphere"]
    p = sp.point([1.3, 0.2])
    g = divergence_gradient(sp, DivergenceKind.CANONICAL, p, p, cfg)
    assert np.abs(g.components).max() < 1e-6


def test_gradient_aligned_with_geodesic_tangent(models, cfg):
    sp = models["sphere"]
    p, q = sp.point([1.2, -0.3]), sp.point([1.6, 0.4])
    grad = divergence_gradient(sp, DivergenceKind.CANONICAL, p, q, cfg).components
    v = log_map(sp, ConnectionKind.PRIMAL, p, q, cfg)
    sigma = integrate_geodesic(sp, ConnectionKind.PRIMAL, p, v, cfg)
    tang = sigma.velocity(1.0)
    g = sp.metric_at(q)
    cosang = (grad @ g @ tang) / np.sqrt((grad @ g @ grad) * (tang @ g @ tang))
    assert np.arccos(np.clip(cosang, -1, 1)) <= 1e-3


def test_oracle_values(models):
    eu = make_builtin("euclidean", [2])
    assert oracle_divergence(eu, eu.point([0, 0]), eu.point([3, 4])) == 12.5
    model, p, q = bernoulli_points()
    assert abs(oracle_divergence(model, p, q) - KL_REVERSE) < 1e-12
    assert abs(oracle_divergence(model, q, p) - KL_FORWARD) < 1e-12


@pytest.mark.parametrize("dual", [False, True], ids=["model", "dualized"])
@pytest.mark.parametrize("spec", ["euclidean:3", "categorical:2", "gaussian1d"])
def test_batched_oracle_equals_its_single_pairs(cfg, spec, dual):
    # oracle_fn maps pairs over the trailing axis; a 1-D pair gives, bit for
    # bit, what its row of a batch gives
    model = parse_model_spec(spec)
    model = model.dualized() if dual else model
    P, Q = sample_pairs(model, 64, np.random.default_rng(2))
    batched = model.oracle_fn(P, Q)
    assert batched.shape == (64,)
    assert np.array_equal(batched, [model.oracle_fn(p, q) for p, q in zip(P, Q)])
    assert np.array_equal(_divergence_many(model, DivergenceKind.ORACLE_KL, P, Q, cfg), batched)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_batched_euclidean_oracle_is_half_the_dot_product_bit_for_bit(n):
    model = parse_model_spec(f"euclidean:{n}")
    P, Q = sample_pairs(model, 256, np.random.default_rng(4))
    assert np.array_equal(model.oracle_fn(P, Q), [0.5 * float((q - p) @ (q - p)) for p, q in zip(P, Q)])


def test_oracle_unavailable(models):
    sp = models["sphere"]
    with pytest.raises(OracleUnavailable):
        oracle_divergence(sp, Point(np.array([1.2, 0.0])), Point(np.array([1.3, 0.1])))
    al = models["alpha_categorical"]
    with pytest.raises(OracleUnavailable):
        oracle_divergence(al, al.point([0.3, 0.3]), al.point([0.35, 0.3]))


def test_quadrature_node_doubling_stable(models, cfg):
    sp = models["sphere"]
    p, q = sp.point([1.2, -0.3]), sp.point([1.7, 0.4])
    a = canonical_divergence(sp, p, q, cfg)
    b = canonical_divergence(sp, p, q, cfg.with_(quad_nodes=2 * cfg.quad_nodes))
    assert abs(a - b) <= 1e-8


@pytest.mark.parametrize("name", ["sphere", "categorical", "alpha_categorical"])
def test_positivity_off_diagonal(models, cfg, rng, name):
    model = models[name]
    P, Q = sample_pairs(model, 20, rng)
    vals = _divergence_many(model, DivergenceKind.CANONICAL, P, Q, cfg)
    assert (vals > 0).all()


@pytest.mark.parametrize("name", ["categorical", "gaussian1d"])
def test_ay_value_does_not_depend_on_batch_size(models, cfg, rng, name):
    # the node sum is taken per pair, so no BLAS kernel choice can move a row's last bit
    model = models[name]
    P, Q = sample_pairs(model, 5, rng)
    for p, q in zip(P, Q):
        alone = _divergence_many(model, DivergenceKind.AY, p[None], q[None], cfg)[0]
        for rows in range(2, 10):
            Pb, Qb = np.repeat(p[None], rows, axis=0), np.repeat(q[None], rows, axis=0)
            batch = _divergence_many(model, DivergenceKind.AY, Pb, Qb, cfg)
            assert np.array_equal(batch, np.full(rows, alone)), (rows, batch - alone)


def test_doubly_flat_kinds_are_the_exact_quadratic_form(models, cfg, rng):
    eu = models["euclidean"]
    P, Q = sample_pairs(eu, 12, rng)
    d = Q - P
    half = 0.5 * np.sum(d * d, axis=1)
    for kind, exact in (
        (DivergenceKind.AY, half),
        (DivergenceKind.CANONICAL, half),
        (DivergenceKind.CANONICAL_DUAL, half),
        (DivergenceKind.PSEUDO_NORM, np.sum(d * d, axis=1)),
    ):
        fast = _divergence_many(eu, kind, P, Q, cfg)
        assert np.array_equal(fast, exact), kind
        # the quadrature and shooting route stays reachable and agrees
        slow = _divergence_many(dataclasses.replace(eu, plane_sections={}), kind, P, Q, cfg)
        assert np.abs(slow - exact).max() < 1e-12, kind


def test_non_finite_point_is_out_of_domain(models, cfg):
    eu = models["euclidean"]
    P = np.array([[np.nan, 0.0, 0.0]])
    with pytest.raises(PointOutOfDomain):
        _divergence_many(eu, DivergenceKind.AY, P, np.ones((1, 3)), cfg)
    # the domain test itself rejects non-finite coordinates, so every entry
    # point that checks the domain does too
    sp = models["sphere"]
    for bad in (np.nan, np.inf):
        assert not sp.contains([1.5, bad])
    assert not eu.contains(P[0])
    with pytest.raises(PointOutOfDomain):
        log_map(eu, ConnectionKind.PRIMAL, Point(P[0]), Point(np.ones(3)), cfg)
    with pytest.raises(PointOutOfDomain):
        log_map(sp, ConnectionKind.PRIMAL, Point([1.5, np.nan]), Point([1.5, 0.2]), cfg)


# every public entry, given a point x of the wrong width; the other arguments
# are points well inside, and the curve entries take a path through x and x + 0.1
def _good(m):
    return m.point(m.safe_box.mean(axis=1))


def _other(m):
    return m.point(m.safe_box.mean(axis=1) + 0.25 * np.ptp(m.safe_box, axis=1))


_WRONG_WIDTH_ENTRIES = {
    "canonical_divergence": lambda m, x: canonical_divergence(m, x, _other(m)),
    "dual_canonical_divergence": lambda m, x: dual_canonical_divergence(m, _good(m), x),
    "pseudo_norm": lambda m, x: pseudo_norm(m, x, _other(m)),
    "oracle_divergence": lambda m, x: oracle_divergence(m, x, x),
    "symmetry_probe_target": lambda m, x: symmetry_probe(m, _good(m), [_other(m)] * 9 + [x]),
    "curvature_tensor": lambda m, x: curvature_tensor(m, ConnectionKind.DUAL, x),
    "classify_manifold": lambda m, x: classify_manifold(m, [x]),
    "pi_field": lambda m, x: pi_field(
        m, _good(m), Curve.from_waypoints([x.coords, x.coords + 0.1]), 0.5
    ),
    "path_functional": lambda m, x: path_functional(
        m, _good(m), Curve.from_waypoints([x.coords, x.coords + 0.1])
    ),
    "log_map": lambda m, x: log_map(m, ConnectionKind.PRIMAL, _good(m), x),
    "integrate_geodesic": lambda m, x: integrate_geodesic(
        m, ConnectionKind.PRIMAL, x, Tangent(x, np.full(x.dim, 0.1))
    ),
    "divergence_gradient": lambda m, x: divergence_gradient(
        m, DivergenceKind.CANONICAL, _good(m), x
    ),
    "recover_structure": lambda m, x: recover_structure(m, DivergenceKind.CANONICAL, x),
    "parallel_transport": lambda m, x: parallel_transport(
        m, ConnectionKind.DUAL, Curve.from_waypoints([x.coords, x.coords]), Tangent(x, x.coords)
    ),
    "metric_at": lambda m, x: m.metric_at(x),
}
_WRONG_WIDTHS = {
    "short": lambda c: c[:-1],
    "long": lambda c: np.append(c, 0.1),
    "row": lambda c: c[None],  # a Point is one vector: a one-row batch never gets in
}


@pytest.mark.parametrize("entry,width", [(e, w) for e in _WRONG_WIDTH_ENTRIES for w in _WRONG_WIDTHS])
@pytest.mark.parametrize("name", builtin_names())
def test_point_of_the_wrong_width_is_out_of_domain(models, name, entry, width):
    # a point whose dimension is not the model's lies outside every domain,
    # whether the entry checks it alone or in a batch; a one-row batch is
    # refused by Point itself, before any entry sees it
    model = models[name]
    if width == "row":
        error, match = ValueError, "a point is one vector"
    else:
        error, match = PointOutOfDomain, f"outside the domain of {re.escape(model.spec_string)}"
    with pytest.raises(error, match=match):
        _WRONG_WIDTH_ENTRIES[entry](model, Point(_WRONG_WIDTHS[width](_good(model).coords)))


_ONE_CURVE_ENTRIES = {
    "start_point": lambda m, c: c.start_point(),
    "end_point": lambda m, c: c.end_point(),
    "path_functional": lambda m, c: path_functional(m, m.point([0.1, 0.2]), c),
    "pi_field": lambda m, c: pi_field(m, m.point([0.1, 0.2]), c, 0.5),
    "parallel_transport": lambda m, c: parallel_transport(
        m, ConnectionKind.PRIMAL, c, m.tangent([0.1, 0.2], [1.0, 0.0])
    ),
}


@pytest.mark.parametrize("entry", _ONE_CURVE_ENTRIES)
def test_a_batch_of_curves_is_refused_where_one_curve_is_taken(entry):
    # two copies of one path: each entry would take it alone, but not the batch
    cat = make_builtin("categorical", [2])
    batch = Curve.from_waypoints(np.tile([[0.1, 0.2], [0.2, 0.1]], (2, 1, 1)))
    with pytest.raises(ValueError, match=rf"^{entry} takes one curve, not a batch of shape \(2,\)$"):
        _ONE_CURVE_ENTRIES[entry](cat, batch)
    _ONE_CURVE_ENTRIES[entry](cat, Curve.from_waypoints(batch.xs[0]))


@pytest.mark.parametrize("dual", [False, True], ids=["model", "dualized"])
@pytest.mark.parametrize("spec", ["categorical:2", "categorical:3", "gaussian1d"])
def test_legendre_chart_values_match_ode_route(cfg, spec, dual):
    model = parse_model_spec(spec)
    model = model.dualized() if dual else model
    ode = dataclasses.replace(model, plane_sections={})
    P, Q = sample_pairs(model, 2, np.random.default_rng(5), shrink=0.8)
    for kind in (DivergenceKind.CANONICAL_DUAL, DivergenceKind.PSEUDO_NORM):
        chart = _divergence_many(model, kind, P, Q, cfg)
        assert np.abs(chart - _divergence_many(ode, kind, P, Q, cfg)).max() <= 1e-9, kind


def test_dual_pair_whose_legendre_line_leaves_the_domain(models, cfg):
    # theta at mu = -2 and 2, sigma^2 = 19: the dual geodesic's midpoint has
    # sigma^2 = 23 (theta2 = -1/46 > -0.025), on either route
    ga = models["gaussian1d"]
    P = np.array([[-2.0 / 19.0, -1.0 / 38.0]])
    Q = np.array([[2.0 / 19.0, -1.0 / 38.0]])
    for model in (ga, dataclasses.replace(ga, plane_sections={})):
        with pytest.raises(DomainExit):
            _divergence_many(model, DivergenceKind.CANONICAL_DUAL, P, Q, cfg)


def test_a_track_that_leaves_the_domain_raises_through_the_joint_integration(models, cfg):
    # theta at mu = -2 and 2, sigma^2 = 19: the dual geodesic's midpoint has
    # sigma^2 = 23 (theta2 = -1/46 > -0.025). Carrying a vector along it
    # integrates the track even where the dual connection has a chart
    ga = models["gaussian1d"]
    P = np.array([[-2.0 / 19.0, -1.0 / 38.0]])
    Q = np.array([[2.0 / 19.0, -1.0 / 38.0]])
    for model in (ga, dataclasses.replace(ga, plane_sections={})):
        V, ok = _shoot_many(model, ConnectionKind.DUAL, P, Q, cfg)
        assert ok.all()
        with pytest.raises(DomainExit):
            _geodesic_states(model, ConnectionKind.DUAL, P, V, cfg, [1.0], (ConnectionKind.PRIMAL, V))
    with pytest.raises(DomainExit):
        _pi_many(dataclasses.replace(ga, plane_sections={}), P, Q, cfg)


def _tighter(cfg, factor):
    return cfg.with_(
        ode_rel_tol=cfg.ode_rel_tol / factor,
        shoot_tol=cfg.shoot_tol / factor,
    )


@pytest.mark.parametrize("tighter", [1.0, 100.0], ids=["default-tolerances", "100x-tighter"])
def test_reversal_asymmetry_off_a_dually_flat_structure(cfg, tighter):
    # off a dually flat structure D*(p, q) = D(q, p) need not hold; on this
    # pair of alpha_categorical:2:0.5 the pipeline resolves a residual of
    # 2.76e-8 (relative size 2e-7) that stays put when the ODE and shooting
    # tolerances tighten, so an integrator or kernel that moves accuracy by
    # more than about 1e-9 fails here
    residual = _reversal_residual(parse_model_spec("alpha_categorical:2:0.5"), _tighter(cfg, tighter))
    assert 2.7e-8 <= residual <= 2.8e-8, residual


def _reversal_residual(model, cfg):
    """D*(p, q) - D(q, p) on the canary's pair of alpha_categorical:2:0.5."""
    P, Q = sample_pairs(model, 6, np.random.default_rng(3), shrink=0.85)
    p, q = Point(P[4]), Point(Q[4])
    return dual_canonical_divergence(model, p, q, cfg) - canonical_divergence(model, q, p, cfg)


@pytest.mark.parametrize("tighter", [1.0, 100.0], ids=["default-tolerances", "100x-tighter"])
def test_reversal_asymmetry_off_a_dually_flat_structure_on_the_ode_route(cfg, tighter):
    # the canary's twin on the generic route: shooting and `_rk45` everywhere
    model = dataclasses.replace(parse_model_spec("alpha_categorical:2:0.5"), plane_sections={})
    residual = _reversal_residual(model, _tighter(cfg, tighter))
    assert 2.7e-8 <= residual <= 2.8e-8, residual


@pytest.mark.parametrize(
    "kind",
    [DivergenceKind.AY, DivergenceKind.CANONICAL, DivergenceKind.CANONICAL_DUAL, DivergenceKind.PSEUDO_NORM],
    ids=lambda kind: kind.value,
)
@pytest.mark.parametrize("spec", ["sphere:2", "alpha_categorical:2:0.5"])
def test_accuracy_ledger_against_100x_tighter_tolerances(cfg, spec, kind):
    # the accuracy ledger: on the two curved 2-D builtins, each kind
    # stays within 1e-9 relative of its value at 100x tighter ODE and shooting
    # tolerances (worst entry about 3e-11), so a change that loses a digit
    # anywhere in the pipeline fails here long before verify's 1e-6 does
    gap = _ledger_gap(parse_model_spec(spec), kind, cfg)
    assert gap.max() <= 1e-9, gap


def _ledger_gap(model, kind, cfg):
    """Relative gaps of a kind's values at cfg from those at 100x tighter tolerances."""
    P, Q = sample_pairs(model, 4, np.random.default_rng(1))
    default = _divergence_many(model, kind, P, Q, cfg)
    reference = _divergence_many(model, kind, P, Q, _tighter(cfg, 100.0))
    return np.abs(default - reference) / np.abs(reference)


@pytest.mark.parametrize(
    "kind",
    [DivergenceKind.AY, DivergenceKind.CANONICAL, DivergenceKind.CANONICAL_DUAL, DivergenceKind.PSEUDO_NORM],
    ids=lambda kind: kind.value,
)
def test_accuracy_ledger_against_100x_tighter_tolerances_on_the_ode_route(cfg, kind):
    # the ledger's twin on the generic route of alpha_categorical:2:0.5
    model = dataclasses.replace(parse_model_spec("alpha_categorical:2:0.5"), plane_sections={})
    gap = _ledger_gap(model, kind, cfg)
    assert gap.max() <= 1e-9, gap


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec, dual_track",
    [
        ("alpha_categorical:2:0.5", True),
        ("categorical:2", False),
        ("sphere:2", False),
        ("alpha_categorical:2:0", False),
    ],
)
def test_canonical_quadrature_shoots_no_primal_log_at_its_nodes(cfg, monkeypatch, spec, dual_track):
    # one primal shot per pair for the main curve; at the nodes only the dual
    # log that tracks the transport, and none when the primal connection has
    # an affine chart (categorical:2), since flat transport needs no track, or
    # when the model is self-dual (sphere:2, alpha 0), whose dual log at a
    # node is the primal one, t V
    model = parse_model_spec(spec)
    P, Q = sample_pairs(model, 2, np.random.default_rng(1))
    asked = []
    shoot = divergence_module._shoot_many

    def counting(model, kind, P, Q, *args, **kwargs):
        asked.append(P.shape[0])
        return shoot(model, kind, P, Q, *args, **kwargs)

    monkeypatch.setattr(divergence_module, "_shoot_many", counting)
    _divergence_many(model, DivergenceKind.CANONICAL, P, Q, cfg)
    assert sum(asked) == 2 + (2 * cfg.quad_nodes if dual_track else 0), asked


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec, dual",
    [("sphere:2", False), ("alpha_categorical:2:0.5", False), ("alpha_categorical:2:0.5", True)],
    ids=["sphere:2", "alpha_categorical:2:0.5", "alpha_categorical:2:0.5-dualized"],
)
def test_node_logs_of_the_primal_geodesic_are_t_times_its_velocity(cfg, spec, dual):
    # the identity the canonical quadrature rests on: the primal log from p
    # to the node at t of the primal geodesic with velocity V is t V
    model = parse_model_spec(spec)
    model = model.dualized() if dual else model
    P, Q = sample_pairs(model, 4, np.random.default_rng(1))
    n = P.shape[1]
    t, _ = _gauss_legendre(cfg.quad_nodes)
    V, _ = _shoot_many(model, ConnectionKind.PRIMAL, P, Q, cfg)
    nodes = _curves_from_initial(model, ConnectionKind.PRIMAL, P, V, cfg).position(t)
    bases = np.repeat(P, t.shape[0], axis=0)
    shot, ok = _shoot_many(model, ConnectionKind.PRIMAL, bases, nodes.reshape(-1, n), cfg)
    assert ok.all()
    exact = (t[None, :, None] * V[:, None, :]).reshape(-1, n)
    assert np.abs(shot - exact).max() <= 1e-9


@pytest.mark.parametrize("spec", ["categorical:2", "gaussian1d", "categorical:3"])
def test_dual_kind_is_exact_on_the_affine_chart_route(cfg, spec):
    # every piece of the dual kind is closed-form here: the main geodesic's
    # nodes come from the integrator at the node times, not from an
    # interpolant of its grid samples, so the value is the oracle D(q, p)
    # to rounding
    model = parse_model_spec(spec)
    P, Q = sample_pairs(model, 64, np.random.default_rng(1))
    dual = _divergence_many(model, DivergenceKind.CANONICAL_DUAL, P, Q, cfg)
    oracle = _divergence_many(model, DivergenceKind.ORACLE_KL, Q, P, cfg)
    assert np.abs(dual / oracle - 1.0).max() <= 1e-12


def test_dual_geodesic_that_leaves_the_domain_between_nodes_still_raises(models, cfg):
    # mu = -2 and 2, sigma^2 = 16.005: the dual geodesic is the Legendre line
    # eta2 = 20.005, whose sigma^2 = 20.005 - (4t - 2)^2 reaches the domain's
    # bound 20 only for t in 0.5 +- 0.018. No Gauss-Legendre node lies there,
    # but the grid sample t = 0.5 does
    ga = models["gaussian1d"]
    var = 16.005
    P = np.array([[-2.0 / var, -0.5 / var]])
    Q = np.array([[2.0 / var, -0.5 / var]])
    t, _ = _gauss_legendre(cfg.quad_nodes)
    assert np.abs(t - 0.5).min() > 0.018
    for model in (ga, dataclasses.replace(ga, plane_sections={})):
        with pytest.raises(DomainExit):
            _divergence_many(model, DivergenceKind.CANONICAL_DUAL, P, Q, cfg)
