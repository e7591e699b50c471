"""Model catalog: metric/connection fields, domains, chart conversions."""

import numpy as np
import pytest

from dualgeo import (
    BaseMismatch,
    ConnectionKind,
    InvalidModelSpec,
    Point,
    PointOutOfDomain,
    builtin_names,
    builtin_schemas,
    make_builtin,
    mixture_to_natural,
    natural_to_mixture,
    great_circle_angle,
    parse_model_spec,
    sample_pairs,
    sample_points,
)
from dualgeo.sampling import SPHERE_MAX_ANGLE

ALL = ["euclidean", "sphere", "categorical", "gaussian1d", "alpha_categorical"]


def test_catalog_has_five_builtins():
    assert sorted(builtin_names()) == sorted(ALL)


@pytest.mark.parametrize("name", ALL)
def test_metric_symmetric_positive_definite(models, rng, name):
    model = models[name]
    X = sample_points(model, 100, rng)
    g = model.metric_batch(X)
    assert np.abs(g - np.swapaxes(g, 1, 2)).max() < 1e-15
    assert np.linalg.eigvalsh(g).min() > 0.0


@pytest.mark.parametrize("name", ALL)
def test_connection_duality_relation(models, rng, name):
    # d_k g_ij must equal Gamma_{ki,j} + Gamma*_{kj,i} (finite differences)
    model = models[name]
    X = sample_points(model, 100, rng)
    h = 1e-5
    Gp = model.christoffel_batch(X, ConnectionKind.PRIMAL)
    Gd = model.christoffel_batch(X, ConnectionKind.DUAL)
    worst = 0.0
    for k in range(model.dim):
        e = np.zeros(model.dim)
        e[k] = h
        dg = (model.metric_batch(X + e) - model.metric_batch(X - e)) / (2 * h)
        resid = dg - (Gp[:, k, :, :] + np.swapaxes(Gd[:, k, :, :], 1, 2))
        worst = max(worst, np.abs(resid).max())
    assert worst <= 1e-6


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("kind", [ConnectionKind.PRIMAL, ConnectionKind.DUAL])
def test_torsion_free_symbols(models, rng, name, kind):
    model = models[name]
    X = sample_points(model, 50, rng)
    G = model.christoffel_batch(X, kind)
    assert np.array_equal(G, np.swapaxes(G, 1, 2))


@pytest.mark.parametrize("name", ["euclidean", "sphere"])
def test_self_dual_builtins_have_equal_symbols(models, rng, name):
    model = models[name]
    X = sample_points(model, 100, rng)
    Gp = model.christoffel_batch(X, ConnectionKind.PRIMAL)
    Gd = model.christoffel_batch(X, ConnectionKind.DUAL)
    assert np.array_equal(Gp, Gd)


def test_bernoulli_metric_value():
    model = make_builtin("categorical", [1])
    g = model.metric_at(model.point([0.0]))
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - 0.25) < 1e-14


def test_sphere_metric_at_equator(models):
    sp = models["sphere"]
    g = sp.metric_at(sp.point([np.pi / 2, 0.0]))
    assert np.abs(g - np.eye(2)).max() < 1e-14


def test_inner_product_euclidean(models):
    eu = make_builtin("euclidean", [2])
    p = eu.point([0.0, 0.0])
    assert eu.inner_product(p, eu.tangent(p, [1, 0]), eu.tangent(p, [0, 1])) == 0.0
    v = eu.tangent(p, [3, 4])
    assert eu.inner_product(p, v, v) == 25.0


def test_inner_product_bernoulli():
    model = make_builtin("categorical", [1])
    p = model.point([0.0])
    v = model.tangent(p, [2.0])
    assert abs(model.inner_product(p, v, v) - 1.0) < 1e-14


def test_inner_product_base_mismatch(models):
    eu = models["euclidean"]
    p = eu.point([0.0, 0.0, 0.0])
    other = eu.point([1.0, 0.0, 0.0])
    u = eu.tangent(p, [1, 0, 0])
    w = eu.tangent(other, [1, 0, 0])
    with pytest.raises(BaseMismatch):
        eu.inner_product(p, u, w)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("name", builtin_names())
def test_batch_of_the_wrong_width_is_outside(models, name, extra):
    model = models[name]
    X = np.tile(model.safe_box.mean(axis=1), (4, 1))
    wrong = X[:, :-1] if extra < 0 else np.hstack([X, X[:, :1]])
    assert model.contains_batch(X).all() and model.contains(X[0])
    assert not model.contains_batch(wrong).any()
    assert not model.contains(wrong[0]) and not model.contains(Point(wrong[0]))
    with pytest.raises(PointOutOfDomain, match=r"first offender: array\(\[ *-?\d"):
        model.require_inside(wrong)
    # a Point is one vector: a one-row batch is refused as a Point and out as an array
    assert not model.contains(X[:1])
    with pytest.raises(ValueError, match="a point is one vector"):
        Point(X[:1])


@pytest.mark.parametrize("spec", ["euclidean:2", "sphere:2"])
def test_a_batch_of_points_is_not_a_point(spec):
    model = parse_model_spec(spec)
    with pytest.raises(ValueError, match=r"a point is one vector of coordinates, not shape \(2, 2\)"):
        model.point([[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="not shape"):
        model.tangent([[1.5, 0.0]], [0.1, 0.2])
    assert Point(0.5).coords.tolist() == [0.5]


def test_require_inside_names_the_first_offender_and_raises_the_asked_error(models):
    sp = models["sphere"]
    X = np.array([[1.5, 0.0], [0.05, 0.1], [0.02, 0.2]])
    with pytest.raises(PointOutOfDomain, match=r"^point outside the domain of sphere:2:1 "
                       r"\(first offender: array\(\[0.05, 0.1 \]\)\)$"):
        sp.require_inside(X)
    with pytest.raises(RuntimeError, match="^sample outside"):
        sp.require_inside(Point(X[2]), "sample", RuntimeError)
    sp.require_inside(X[:1])
    sp.require_inside(Point(X[0]))


def test_point_out_of_domain(models):
    sp = models["sphere"]
    with pytest.raises(PointOutOfDomain):
        sp.metric_at(Point(np.array([0.05, 0.0])))
    ga = models["gaussian1d"]
    with pytest.raises(PointOutOfDomain):
        ga.metric_at(Point(np.array([0.0, 0.5])))


@pytest.mark.parametrize(
    "name,params",
    [
        ("nosuch", [2]),
        ("euclidean", [0]),
        ("euclidean", [2.5]),
        ("sphere", [3]),
        ("sphere", [2, -1.0]),
        ("alpha_categorical", [2]),
        ("alpha_categorical", [2, 1.0]),
        ("alpha_categorical", [2, -1.5]),
        ("gaussian1d", [3]),
    ],
)
def test_make_builtin_rejects_bad_specs(name, params):
    with pytest.raises(InvalidModelSpec):
        make_builtin(name, params)


def test_parse_model_spec_strings():
    m = parse_model_spec("alpha_categorical:2:0.5")
    assert m.name == "alpha_categorical" and m.dim == 2 and m.params[1] == 0.5
    m = parse_model_spec("sphere:2:2.0")
    assert m.params[1] == 2.0
    m = parse_model_spec({"name": "categorical", "params": [3]})
    assert m.dim == 3
    with pytest.raises(InvalidModelSpec):
        parse_model_spec("categorical:two")
    with pytest.raises(InvalidModelSpec):
        parse_model_spec("")
    with pytest.raises(InvalidModelSpec):
        parse_model_spec({"params": [1]})
    # float(True) is 1.0; the CLI tests give JSON true and false
    with pytest.raises(InvalidModelSpec, match="^non-numeric parameter in model spec "):
        parse_model_spec({"name": "euclidean", "params": [np.True_]})


def test_mixture_natural_round_trip(rng):
    for _ in range(20):
        probs = rng.dirichlet(np.ones(4))
        head = probs[:3]
        theta = mixture_to_natural(head)
        back = natural_to_mixture(theta)
        assert np.abs(back - head).max() < 1e-12


@pytest.mark.parametrize("head", [[np.nan, 0.2], [0.2, np.nan], [0.0, 0.2], [0.5, 0.5]])
def test_mixture_coordinates_outside_the_open_simplex_are_refused(head):
    # NaN passed the old test (tail <= 0 or p <= 0) and became a nan chart point
    with pytest.raises(InvalidModelSpec, match="^mixture coordinates must be strictly positive with sum < 1$"):
        mixture_to_natural(head)


def test_known_conversion():
    theta = mixture_to_natural([0.9])
    assert abs(theta[0] - np.log(9.0)) < 1e-12


def test_dualized_swaps_connections(models, rng):
    model = models["alpha_categorical"]
    dual = model.dualized()
    X = sample_points(model, 10, rng)
    assert np.array_equal(
        model.christoffel_batch(X, ConnectionKind.PRIMAL),
        dual.christoffel_batch(X, ConnectionKind.DUAL),
    )
    assert np.array_equal(
        model.christoffel_batch(X, ConnectionKind.DUAL),
        dual.christoffel_batch(X, ConnectionKind.PRIMAL),
    )
    cat = models["categorical"]
    assert cat.is_flat(ConnectionKind.PRIMAL)
    assert cat.dualized().is_flat(ConnectionKind.DUAL)
    assert not cat.dualized().is_flat(ConnectionKind.PRIMAL)


def test_connection_kind_dual_is_involution():
    assert ConnectionKind.PRIMAL.dual is ConnectionKind.DUAL
    assert ConnectionKind.DUAL.dual is ConnectionKind.PRIMAL


def test_dually_flat_builtins_carry_oracles(models):
    for name in ("euclidean", "categorical", "gaussian1d"):
        assert models[name].oracle_fn is not None
    for name in ("sphere", "alpha_categorical"):
        assert models[name].oracle_fn is None


@pytest.mark.parametrize(
    "spec", [*ALL, "alpha_categorical:2:0"], ids=[*ALL, "alpha_categorical-0"]
)
@pytest.mark.parametrize("dual", [False, True], ids=["model", "dualized"])
def test_self_duality_matches_equal_symbols(models, rng, spec, dual):
    model = models.get(spec) or parse_model_spec(spec)
    model = model.dualized() if dual else model
    X = sample_points(model, 10, rng)
    equal = np.array_equal(
        model.christoffel_batch(X, ConnectionKind.PRIMAL),
        model.christoffel_batch(X, ConnectionKind.DUAL),
    )
    assert model.is_self_dual == equal
    if model.is_self_dual:
        # swapping two identical connections changes nothing
        assert model.dualized() is model


def test_dualized_sphere_pairs_keep_the_angle_filter(models):
    sp = models["sphere"].dualized()
    P, Q = sample_pairs(sp, 200, np.random.default_rng(0))
    assert great_circle_angle(P, Q).max() <= SPHERE_MAX_ANGLE


@pytest.mark.parametrize("spec", [*ALL, "categorical:3"])
def test_dualized_twice_keeps_the_plane_sections(models, spec):
    model = models.get(spec) or parse_model_spec(spec)
    dual = model.dualized()
    for kind in ConnectionKind:
        assert dual.plane_sections.get(kind.dual) is model.plane_sections.get(kind)
    assert model.dualized().dualized().plane_sections == model.plane_sections


@pytest.mark.parametrize("spec", ["categorical:2", "categorical:3", "gaussian1d"])
def test_legendre_chart_inverts_and_its_jacobian_is_the_metric(rng, spec):
    model = parse_model_spec(spec)
    chart = model.plane_sections[ConnectionKind.DUAL]
    assert chart.linear and not model.is_flat(ConnectionKind.DUAL)
    X = sample_points(model, 6, rng)
    assert np.abs(chart.from_rep(chart.to_rep(X)) - X).max() < 1e-12
    g = model.metric_batch(X)
    h = 1e-6
    for j in range(model.dim):
        e = np.zeros(model.dim)
        e[j] = 1.0
        assert np.array_equal(chart.push(X, np.tile(e, (len(X), 1))), g[:, :, j])
        column = (chart.to_rep(X + h * e) - chart.to_rep(X - h * e)) / (2.0 * h)
        assert np.abs(column - g[:, :, j]).max() < 1e-8


def test_legendre_chart_maps_eta_off_the_image_outside_the_domain():
    for spec, eta in (
        ("categorical:2", [[0.7, 0.5], [-0.1, 0.5], [0.5, 0.5]]),
        ("gaussian1d", [[2.0, 3.0], [2.0, 4.0], [0.0, 0.0]]),
    ):
        model = parse_model_spec(spec)
        with np.errstate(all="raise"):
            theta = model.plane_sections[ConnectionKind.DUAL].from_rep(np.array(eta))
        assert not model.contains_batch(theta).any(), spec


@pytest.mark.parametrize(
    "spec", ["sphere:2", "sphere:2:2.5", "alpha_categorical:2:0", "alpha_categorical:3:0"]
)
def test_round_sphere_embedding_is_an_isometry(rng, spec):
    model = parse_model_spec(spec)
    sphere = model.round_sphere
    X = sample_points(model, 6, rng)
    U = sphere.to_unit(X)
    assert np.abs(np.linalg.norm(U, axis=1) - 1.0).max() < 1e-12
    # the radius times the Jacobian of the unit map pulls back the model metric
    h = 1e-6
    steps = h * np.eye(model.dim)
    J = np.stack([(sphere.to_unit(X + e) - sphere.to_unit(X - e)) / (2 * h) for e in steps], axis=2)
    pulled = sphere.radius**2 * np.einsum("mki,mkj->mij", J, J)
    g = model.metric_batch(X)
    assert np.abs(pulled - g).max() < 1e-6 * np.abs(g).max()


def test_a_point_or_tangent_of_the_wrong_dimension_is_refused():
    eu = make_builtin("euclidean", [2])
    with pytest.raises(ValueError, match="^expected 2 coordinates, got 3$"):
        eu.point([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^tangent components must match the base point dimension$"):
        eu.tangent([0.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "spec", [*ALL, "categorical:3", "alpha_categorical:2:0"], ids=[*ALL, "categorical-3", "alpha-0"]
)
def test_schema_dually_flat_matches_the_model_structure(models, spec):
    model = models.get(spec) or parse_model_spec(spec)
    for m in (model, model.dualized()):
        assert builtin_schemas()[model.name]["dually_flat"] == bool(m.flat_kinds), m
