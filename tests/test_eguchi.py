"""Structure recovery, curvature tensors, classification, symmetry probing."""

import numpy as np
import pytest

from dualgeo import (
    ConnectionKind,
    DivergenceKind,
    InvalidModelSpec,
    Point,
    PointOutOfDomain,
    StencilOutOfDomain,
    canonical_divergence,
    classify_manifold,
    curvature_tensor,
    dual_canonical_divergence,
    make_builtin,
    parse_model_spec,
    recover_structure,
    sample_points,
    symmetry_probe,
)
from dualgeo import eguchi
from dualgeo.divergence import _divergence_many
from dualgeo.eguchi import CLASSIFY_THRESHOLD, ClassificationReport
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


def _term_by_term_recovery(model, which, x, cfg):
    # the assembly the linear map replaced, kept as its reference: each
    # estimate a Python sum over its stencil's terms, each stencil its own
    # batch (on the closed-form routes a pair's value does not depend on its batch)
    n = model.dim
    h2, h3 = np.sqrt(cfg.fd_step), 0.25 * cfg.fd_step ** (1.0 / 3.0)
    steps = {1: (cfg.fd_step,), 2: (h2, h2 / 2.0), 3: (h3, h3 / 2.0)}
    stencil_cfg = cfg.with_(quad_nodes=min(cfg.quad_nodes, 8))

    def estimate(a, b):
        order, est = len(a) + len(b), []
        for h in steps[order]:
            offsets, weights, denom = eguchi._stencil(n, h, a, b)
            vals = _divergence_many(model, which, x + offsets[:, 0], x + offsets[:, 1], stencil_cfg)
            acc = 0.0  # a plain in-order sum: Python's sum() compensates from 3.12
            for w, v in zip(weights, vals):
                acc += w * v
            est.append(acc / denom)
        val = est[0] if order == 1 else (4.0 * est[1] - est[0]) / 3.0
        return -val if order == 3 else val

    def grid(f, rank):  # an estimate per entry; a symmetric pair (i, j) is taken sorted
        return np.array([f(*ix) for ix in np.ndindex((n,) * rank)]).reshape((n,) * rank)

    metric = grid(lambda i, j: estimate(tuple(sorted((i, j))), ()), 2)
    second_q = grid(lambda i, j: estimate((), tuple(sorted((i, j)))), 2)
    mixed = grid(lambda i, j: estimate((i,), (j,)), 2)
    gamma = grid(lambda i, j, k: estimate(tuple(sorted((i, j))), (k,)), 3)
    gamma_star = grid(lambda i, j, k: estimate((k,), tuple(sorted((i, j)))), 3)
    first = [estimate(*dirs) for i in range(n) for dirs in (((i,), ()), ((), (i,)))]
    mixed_res = max(np.abs(metric + mixed).max(), np.abs(metric - second_q).max())
    return metric, gamma, gamma_star, float(np.abs(first).max()), float(mixed_res)


@pytest.mark.parametrize(
    "spec,kind",
    [("categorical:2", "canonical"), ("euclidean:3", "ay"), ("gaussian1d", "dual")],
)
def test_recovery_equals_the_term_by_term_assembly_bit_for_bit(cfg, spec, kind):
    model = parse_model_spec(spec)
    for x in sample_points(model, 2, np.random.default_rng(3), shrink=0.7):
        rec = recover_structure(model, DivergenceKind(kind), Point(x), cfg)
        ref = _term_by_term_recovery(model, DivergenceKind(kind), x, cfg)
        got = (rec.metric, rec.gamma, rec.gamma_star)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref[:3]]
        assert (rec.first_derivative_residual, rec.mixed_identity_residual) == ref[3:]


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


@pytest.mark.parametrize(
    "name", ["euclidean", "sphere", "categorical", "gaussian1d", "alpha_categorical"]
)
def test_dualized_model_keeps_its_classification_checks(models, name):
    # the expected verdict and the curvature check follow the structure, which
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


def _ten_targets(eu2, bad):
    qs = [eu2.point(x) for x in np.random.default_rng(1).uniform(-1.0, 1.0, (10, 2))]
    qs[3] = bad
    return qs


def test_symmetry_probe_skips_only_the_target_that_fails(cfg):
    eu2 = make_builtin("euclidean", [2])
    p = eu2.point([0.0, 0.0])
    qs = _ten_targets(eu2, eu2.point([1e200, 0.0]))  # its divergence overflows
    res = symmetry_probe(eu2, p, qs, cfg)
    assert res.skipped == [3]
    alone = [
        [dual_canonical_divergence(eu2, p, q, cfg), canonical_divergence(eu2, q, p, cfg)]
        for i, q in enumerate(qs)
        if i != 3
    ]
    assert res.pairs.tolist() == alone  # bit for bit, in target order


def test_symmetry_probe_skips_a_target_whose_dual_geodesic_leaves_the_domain(cfg):
    # the dual geodesic from p to the first target reaches sigma^2 = 23 at its
    # midpoint, outside the domain; the div command flags that row the same way
    g = make_builtin("gaussian1d", [])
    p = g.point([-2 / 19, -1 / 38])
    qs = [g.point([2 / 19, -1 / 38])] + [Point(x) for x in sample_points(g, 9, np.random.default_rng(1))]
    res = symmetry_probe(g, p, qs, cfg)
    assert res.skipped == [0]
    alone = [[dual_canonical_divergence(g, p, q, cfg), canonical_divergence(g, q, p, cfg)] for q in qs[1:]]
    assert res.pairs.tolist() == alone  # bit for bit, in target order


def test_symmetry_probe_reports_skips_past_the_quota_and_does_not_raise(cfg):
    eu2 = make_builtin("euclidean", [2])
    qs = _ten_targets(eu2, eu2.point([1e200, 0.0]))
    qs[1] = qs[7] = qs[3]
    res = symmetry_probe(eu2, eu2.point([0.0, 0.0]), qs, cfg)
    assert res.skipped == [1, 3, 7]
    assert len(res.skipped) / len(qs) > eguchi.MAX_SKIPPED_FRACTION
    assert res.pairs.shape == (7, 2)


def test_symmetry_probe_target_of_the_wrong_width_raises_and_is_not_skipped(cfg):
    eu2 = make_builtin("euclidean", [2])
    with pytest.raises(PointOutOfDomain, match="first offender: array\\(\\[0.5, 0. , 0. \\]\\)"):
        symmetry_probe(eu2, eu2.point([0.0, 0.0]), _ten_targets(eu2, Point([0.5, 0.0, 0.0])), cfg)


def test_stencil_out_of_domain(models, cfg):
    al = models["alpha_categorical"]
    edge = al.point([0.003, 0.3])  # valid point, but the stencil pokes outside
    with pytest.raises(StencilOutOfDomain):
        recover_structure(al, DivergenceKind.CANONICAL, edge, cfg)


def test_a_covariant_derivative_stencil_out_of_domain_is_a_stencil_error(models, cfg):
    # the curvature stencil at 0.11 stays inside (theta > 0.1), the wider
    # covariant-derivative stencil of step 2 sqrt(fd_step) reaches 0.09
    sphere = models["sphere"]
    with pytest.raises(StencilOutOfDomain, match=r"covariant-derivative stencil point .*0\.09"):
        classify_manifold(sphere, [Point([0.11, 0.3])], cfg)


def test_a_classification_verdict_follows_from_its_residuals():
    def verdict(self_dual, flat, nabla, probe):
        return ClassificationReport(self_dual, flat, (nabla, probe)).verdict

    thr, nan = CLASSIFY_THRESHOLD, float("nan")
    assert verdict(thr, 0.0, 0.0, 0.0) == "SelfDual"
    assert verdict(2 * thr, thr, 0.0, 0.0) == "DuallyFlat"
    assert verdict(nan, nan, thr, thr) == "Symmetric"
    assert verdict(1.0, 1.0, thr, 2 * thr) == "General"
    assert verdict(1.0, 1.0, nan, 0.0) == "General"
    report = ClassificationReport(0.0, 1.0, (1.0, 1.0))
    assert report.to_dict()["threshold"] == thr and report.to_dict()["verdict"] == "SelfDual"


@pytest.mark.parametrize("fd_step", [1e-12, 1e-8, 1e-300])
def test_recovery_refuses_a_stencil_inside_the_near_diagonal_form(models, cfg, fd_step):
    # first-order pairs fd_step apart would be answered by the quadratic form,
    # which holds the metric exactly whatever the divergence; at 1e-300,
    # p + fd_step == p puts them on the diagonal itself
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
        ("euclidean", 8, DivergenceKind.CANONICAL, 8801, None),
    ],
    ids=[
        "categorical-1-DivergenceKind.CANONICAL-37",
        "categorical-2-DivergenceKind.CANONICAL-185",
        "euclidean-3-DivergenceKind.AY-541",
        "categorical-1-DivergenceKind.CANONICAL-37-fd_step-1e-15",
        "euclidean-8-DivergenceKind.CANONICAL-8801",
    ],
)
def test_stencil_batch_make_up(monkeypatch, cfg, name, dim, kind, pairs, fd_step):
    # On the ODE routes batch-mates share one adaptive step, so the batch's
    # distinct pairs and their order are part of every recovered value. Pairs
    # are told apart by their exact offsets: a step of 1e-15 keeps them all.
    if fd_step is not None:
        cfg = cfg.with_(fd_step=fd_step)
    batches = []

    def capture(self):
        batches.append(self._requests)
        raise _Captured

    monkeypatch.setattr(eguchi._StencilEvaluator, "compute", capture)
    model = make_builtin(name, [dim])
    with pytest.raises(_Captured):
        recover_structure(model, kind, Point(np.full(dim, 0.1)), cfg)
    (offsets,) = batches
    assert offsets.shape == (pairs, 2, dim)
    assert len(np.unique(offsets.reshape(pairs, -1), axis=0)) == pairs
    # it opens with the first derivatives at fd_step: +e_i, -e_i in the first
    # slot, then +e_i, -e_i in the second, direction by direction
    z = np.zeros(dim)
    expected = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = cfg.fd_step
        expected += [(e, z), (-e, z), (z, e), (z, -e)]
    assert np.array_equal(offsets[: 4 * dim], expected)


def test_a_recovery_does_not_depend_on_the_recoveries_before_it(cfg):
    # the map of each dimension and step is built once and shared: points of
    # two dimensions and two steps, interleaved, recover bit for bit what a
    # cold call recovers after the cache is cleared
    calls = [
        (make_builtin("categorical", [dim]), x, cfg.with_(fd_step=step))
        for x in (0.1, 0.2)
        for dim in (1, 2)
        for step in (1e-4, 2e-4)
    ]

    def recover(m, x, c):
        return recover_structure(m, DivergenceKind.CANONICAL, m.point([x] * m.dim), c)

    warm = [recover(*call) for call in calls]
    for call, before in zip(calls, warm):
        eguchi._recovery_map.cache_clear()
        cold = recover(*call)
        for field in ("metric", "gamma", "gamma_star"):
            assert getattr(cold, field).tobytes() == getattr(before, field).tobytes()
        assert cold.first_derivative_residual == before.first_derivative_residual
        assert cold.mixed_identity_residual == before.mixed_identity_residual
