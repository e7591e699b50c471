"""Structure recovery, curvature tensors, classification, symmetry probing."""

import numpy as np
import pytest

from dualgeo import (
    ConnectionKind,
    DivergenceKind,
    InvalidModelSpec,
    Point,
    StencilOutOfDomain,
    classify_manifold,
    curvature_tensor,
    make_builtin,
    recover_structure,
    sample_points,
    symmetry_probe,
)
from dualgeo import eguchi
from dualgeo.verify import run_suites

P_KIND, D_KIND = ConnectionKind.PRIMAL, ConnectionKind.DUAL


def test_recover_euclidean_identity(models, cfg):
    eu = models["euclidean"]
    rec = recover_structure(eu, DivergenceKind.AY, eu.point([0.1, -0.2, 0.4]), cfg)
    assert np.abs(rec.metric - np.eye(3)).max() < 1e-6
    assert np.abs(rec.gamma).max() < 1e-4
    assert np.abs(rec.gamma_star).max() < 1e-4
    assert rec.first_derivative_residual < 1e-6
    assert rec.mixed_identity_residual < 1e-4


def test_recover_bernoulli_metric(cfg):
    c1 = make_builtin("categorical", [1])
    rec = recover_structure(c1, DivergenceKind.CANONICAL, c1.point([0.0]), cfg)
    assert abs(rec.metric[0, 0] - 0.25) < 1e-4


@pytest.mark.parametrize(
    "name", ["sphere", "categorical", "gaussian1d", "alpha_categorical"]
)
def test_recover_matches_model_fields(models, cfg, rng, name):
    model = models[name]
    for x in sample_points(model, 2, rng, shrink=0.7):
        p = Point(x)
        rec = recover_structure(model, DivergenceKind.CANONICAL, p, cfg)
        g = model.metric_at(p)
        assert np.abs(rec.metric - g).max() <= 1e-4 * np.abs(g).max()
        assert np.abs(rec.gamma - model.christoffel_at(p, P_KIND)).max() <= 1e-3
        assert np.abs(rec.gamma_star - model.christoffel_at(p, D_KIND)).max() <= 1e-3
        assert rec.first_derivative_residual <= 1e-6
        assert rec.mixed_identity_residual <= 1e-4


@pytest.mark.parametrize("name", ["categorical", "gaussian1d"])
def test_recover_from_closed_form_oracle(models, cfg, name):
    # the closed-form reference divergence regenerates the same geometry
    model = models[name]
    p = Point(model.safe_box.mean(axis=1))
    rec = recover_structure(model, DivergenceKind.ORACLE_KL, p, cfg)
    assert np.abs(rec.gamma - model.christoffel_at(p, P_KIND)).max() <= 1e-3
    assert np.abs(rec.gamma_star - model.christoffel_at(p, D_KIND)).max() <= 1e-3


def test_curvature_flat_cases(models, cfg):
    eu = models["euclidean"]
    assert np.abs(curvature_tensor(eu, P_KIND, eu.point([0.0, 0.1, 0.2]), cfg)).max() == 0.0
    cat = models["categorical"]
    p = cat.point([0.3, -0.2])
    assert np.abs(curvature_tensor(cat, P_KIND, p, cfg)).max() == 0.0
    assert np.abs(curvature_tensor(cat, D_KIND, p, cfg)).max() <= 1e-6


@pytest.mark.parametrize("name", ["sphere", "categorical", "gaussian1d", "alpha_categorical"])
@pytest.mark.parametrize("kind", [P_KIND, D_KIND])
def test_curvature_many_equals_per_point_curvature(models, cfg, rng, name, kind):
    model = models[name]
    X = sample_points(model, 4, rng, shrink=0.7)
    batched = eguchi._curvature_many(model, kind, X, cfg.fd_step)
    assert batched.shape == (4,) + (model.dim,) * 4
    for x, R in zip(X, batched):
        assert np.array_equal(R, curvature_tensor(model, kind, Point(x), cfg))


def test_curvature_antisymmetry(models, cfg):
    al = models["alpha_categorical"]
    R = curvature_tensor(al, P_KIND, al.point([0.3, 0.35]), cfg)
    assert np.abs(R + np.swapaxes(R, 1, 2)).max() < 1e-12


@pytest.mark.parametrize("radius,expected", [(1.0, 1.0), (2.0, 0.25)])
def test_sphere_sectional_curvature(cfg, radius, expected):
    sp = make_builtin("sphere", [2, radius])
    p = sp.point([1.15, 0.4])
    R = curvature_tensor(sp, P_KIND, p, cfg)
    g = sp.metric_at(p)
    low = np.einsum("lm,mijk->ijkl", g, R)
    K = low[0, 1, 1, 0] / np.linalg.det(g)
    assert abs(K - expected) < 1e-5


def test_classification_verdicts(models, cfg, rng):
    expected = {
        "euclidean": "SelfDual",
        "sphere": "SelfDual",
        "categorical": "DuallyFlat",
        "gaussian1d": "DuallyFlat",
    }
    for name, verdict in expected.items():
        model = models[name]
        pts = [Point(x) for x in sample_points(model, 3, rng, shrink=0.7)]
        rep = classify_manifold(model, pts, cfg)
        assert rep.verdict == verdict, f"{name}: {rep.to_dict()}"
    al = models["alpha_categorical"]
    pts = [Point(x) for x in sample_points(al, 3, rng, shrink=0.7)]
    rep = classify_manifold(al, pts, cfg)
    assert rep.verdict in ("General", "Symmetric")
    d = rep.to_dict()
    assert set(d) >= {
        "self_dual_residual",
        "flatness_residual",
        "covariant_curvature_derivative_residual",
        "sectional_probe_residual",
        "verdict",
    }


@pytest.mark.parametrize("name", ["euclidean", "sphere", "categorical", "gaussian1d"])
def test_dualized_model_keeps_its_classification_checks(models, name):
    # the expected verdict and the flatness check follow the structure, which
    # swapping the connections preserves; they must not hang on the model name
    model = models[name]
    plain = run_suites([model], "classification", seed=5)
    dual = run_suites([model.dualized()], "classification", seed=5)
    assert [c.check_id for c in dual.checks] == [c.check_id for c in plain.checks]
    assert dual.passed, dual.to_dict()


@pytest.mark.parametrize("name", ["sphere", "categorical", "alpha_categorical"])
def test_classification_of_many_points_is_the_worst_single_point(models, cfg, rng, name):
    model = models[name]
    pts = [Point(x) for x in sample_points(model, 3, rng, shrink=0.7)]
    batch = classify_manifold(model, pts, cfg).to_dict()
    singles = [classify_manifold(model, [p], cfg).to_dict() for p in pts]
    for key in ("self_dual_residual", "flatness_residual", "covariant_curvature_derivative_residual"):
        assert batch[key] == max(single[key] for single in singles)
    # alone, the first point draws the probes it draws first in the batch
    assert batch["sectional_probe_residual"] >= singles[0]["sectional_probe_residual"]


def test_classification_requires_points(models, cfg):
    with pytest.raises(ValueError):
        classify_manifold(models["euclidean"], [], cfg)


def test_symmetry_probe_dually_flat_equality(models, cfg, rng):
    cat = make_builtin("categorical", [1])
    p = cat.point([0.0])
    qs = [cat.point([x]) for x in rng.uniform(-1.5, 1.5, 20)]
    res = symmetry_probe(cat, p, qs, cfg)
    assert res.rank_agreement == 1.0
    assert res.orderings_match
    assert res.max_equality_error <= 1e-6
    assert len(res.skipped) == 0
    assert res.pairs.shape == (20, 2)


def test_symmetry_probe_alpha_rank_agreement(models, cfg, rng):
    al = models["alpha_categorical"]
    p = al.point([0.3, 0.34])
    qs = [Point(x) for x in sample_points(al, 30, rng, shrink=0.85)]
    res = symmetry_probe(al, p, qs, cfg)
    assert res.rank_agreement == 1.0
    assert len(res.skipped) <= 6


def test_symmetry_probe_rank_agreement_counts_pairs_as_a_loop(monkeypatch, models, cfg, rng):
    dual, rev = rng.standard_normal(12), rng.standard_normal(12)
    rev[4] = rev[3]  # a tie is not concordant
    values = {DivergenceKind.CANONICAL_DUAL: dual, DivergenceKind.CANONICAL: rev}
    monkeypatch.setattr(eguchi, "_divergence_many", lambda model, kind, P, Q, cfg: values[kind])
    eu = models["euclidean"]
    qs = [eu.point(x) for x in rng.uniform(-1.0, 1.0, (12, 3))]
    res = symmetry_probe(eu, eu.point([0.0, 0.0, 0.0]), qs, cfg)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    concordant = sum((dual[i] - dual[j]) * (rev[i] - rev[j]) > 0 for i, j in pairs)
    assert 0.0 < res.rank_agreement == concordant / len(pairs) < 1.0


def test_stencil_out_of_domain(models, cfg):
    al = models["alpha_categorical"]
    edge = al.point([0.003, 0.3])  # valid point, but the stencil pokes outside
    with pytest.raises(StencilOutOfDomain):
        recover_structure(al, DivergenceKind.CANONICAL, edge, cfg)


@pytest.mark.parametrize("fd_step", [1e-12, 1e-8])
def test_recovery_refuses_a_stencil_inside_the_near_diagonal_form(models, cfg, fd_step):
    # first-order pairs fd_step apart would be answered by the quadratic form,
    # which holds the metric exactly whatever the divergence
    cat = models["categorical"]
    with pytest.raises(InvalidModelSpec, match="closer than"):
        recover_structure(cat, DivergenceKind.CANONICAL, cat.point([0.1, 0.2]), cfg.with_(fd_step=fd_step))


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "name,dim,kind,pairs,fd_step",
    [
        ("categorical", 1, DivergenceKind.CANONICAL, 37, None),
        ("categorical", 2, DivergenceKind.CANONICAL, 185, None),
        ("euclidean", 3, DivergenceKind.AY, 541, None),
        ("categorical", 1, DivergenceKind.CANONICAL, 37, 1e-15),
    ],
    ids=[
        "categorical-1-DivergenceKind.CANONICAL-37",
        "categorical-2-DivergenceKind.CANONICAL-185",
        "euclidean-3-DivergenceKind.AY-541",
        "categorical-1-DivergenceKind.CANONICAL-37-fd_step-1e-15",
    ],
)
def test_stencil_batch_make_up(monkeypatch, cfg, name, dim, kind, pairs, fd_step):
    # On the ODE routes batch-mates share one adaptive step, so the batch's
    # distinct pairs and their order are part of every recovered value. Keys
    # are the exact offsets: a step of 1e-15 keeps all its points apart.
    if fd_step is not None:
        cfg = cfg.with_(fd_step=fd_step)
    batches = []

    def capture(self):
        batches.append(list(self._requests))
        raise _Captured

    monkeypatch.setattr(eguchi._StencilEvaluator, "compute", capture)
    model = make_builtin(name, [dim])
    with pytest.raises(_Captured):
        recover_structure(model, kind, Point(np.full(dim, 0.1)), cfg)
    (keys,) = batches
    assert len(keys) == pairs
    # it opens with the first derivatives at fd_step: +e_i, -e_i in the first
    # slot, then +e_i, -e_i in the second, direction by direction
    z = np.zeros(dim)
    expected = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = cfg.fd_step
        expected += [(e, z), (-e, z), (z, e), (z, -e)]
    assert keys[: 4 * dim] == [(tuple(x), tuple(y)) for x, y in expected]
