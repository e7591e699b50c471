"""Verification suites: which checks a model gets follows from its structure."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from dualgeo import ConnectionKind, DivergenceKind, InvalidModelSpec, ToleranceConfig, eguchi
from dualgeo import parse_model_spec, run_suites, sample_pairs, verify
from dualgeo.cli import main
from dualgeo.config import MAX_QUAD_NODES
from dualgeo.errors import DomainExit
from dualgeo.verify import MAX_RECOVERY_DIM, MAX_SAMPLES, CheckRecord


def checks(model, suite, samples=1, seed=3):
    return {c.check_id: c for c in run_suites([model], suite, samples=samples, seed=seed).checks}


def test_a_renamed_sphere_keeps_its_checks_and_its_samples():
    sphere = parse_model_spec("sphere:2")
    globe = dataclasses.replace(sphere, name="globe", params=())
    for suite in ("collapse", "classification"):
        want = run_suites([sphere], suite, samples=1, seed=3).to_dict()
        assert run_suites([globe], suite, samples=1, seed=3).to_dict() == want
    assert checks(globe, "collapse")["great_circle_oracle"].passed
    assert checks(globe, "classification")["constant_curvature_residual"].passed
    # 200 pairs of the safe box include some wider than the angle filter allows
    for got, want in zip(
        sample_pairs(globe, 200, np.random.default_rng(0)),
        sample_pairs(sphere, 200, np.random.default_rng(0)),
    ):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("factor", [1.0, 4.0], ids=["plane", "scaled-plane"])
def test_a_doubly_flat_model_keeps_the_quadratic_form_checks(factor):
    plane = dataclasses.replace(parse_model_spec("euclidean:3"), name="plane")
    # a constant metric keeps both connections flat: still doubly flat
    plane = dataclasses.replace(plane, metric_fn=lambda X, g=plane.metric_fn: factor * g(X))
    found = checks(plane, "collapse", samples=3)
    for check_id in ("flat_quadratic_oracle", "flat_quadratic_oracle_ay"):
        assert found[check_id].passed, found[check_id]


@pytest.mark.parametrize("spec", ["alpha_categorical:2:0", "alpha_categorical:3:0"])
def test_the_fisher_simplex_gets_the_round_sphere_checks(spec):
    model = parse_model_spec(spec)
    assert model.round_sphere.radius == 2.0
    great_circle = checks(model, "collapse")["great_circle_oracle"]
    curvature = checks(model, "classification", samples=3)["constant_curvature_residual"]
    assert great_circle.passed and curvature.passed, (great_circle, curvature)


def test_other_alphas_have_no_round_sphere():
    model = parse_model_spec("alpha_categorical:2:0.5")
    assert model.round_sphere is None
    assert "great_circle_oracle" not in checks(model, "collapse")
    assert checks(model, "classification")["constant_curvature_residual"].passed


@pytest.mark.parametrize(
    "spec",
    [m.spec_string for m in verify.default_models()]
    + ["sphere:2:3", "alpha_categorical:3:-0.6", "alpha_categorical:4:0.8",
       "alpha_categorical:2:-0.9", "alpha_categorical:2:0"],
)
def test_every_builtin_has_the_constant_curvature_it_carries(spec):
    # both alpha-connections on the simplex have K = (1 - a^2)/4, the sphere 1/r^2
    found = checks(parse_model_spec(spec), "classification", samples=3)
    assert found["constant_curvature_residual"].passed, found["constant_curvature_residual"]


@pytest.mark.parametrize("spec", ["euclidean:3", "categorical:2", "gaussian1d:2"])
def test_the_curvature_check_of_a_flat_model_is_its_flatness_residual(monkeypatch, spec):
    reports, inner = [], verify.classify_manifold

    def recorded(*args):
        reports.append(inner(*args))
        return reports[-1]

    monkeypatch.setattr(verify, "classify_manifold", recorded)
    model = parse_model_spec(spec)
    assert model.constant_curvature == 0.0
    found = checks(model, "classification", samples=3)["constant_curvature_residual"]
    assert found.max_error == reports[0].flatness_residual


def _with_scaled_dual_symbols(model):
    fns = dict(model.christoffel_fns)
    dual = fns[ConnectionKind.DUAL]
    fns[ConnectionKind.DUAL] = lambda X: (1.0 + 1e-5) * dual(X)
    return dataclasses.replace(model, christoffel_fns=fns)


@pytest.mark.parametrize(
    "defect",
    [
        _with_scaled_dual_symbols,
        lambda m: dataclasses.replace(m, constant_curvature=m.constant_curvature * (1.0 + 1e-5)),
    ],
    ids=["dual-symbols-1e-5-off", "curvature-1e-5-off"],
)
def test_the_curvature_check_catches_a_slightly_wrong_structure(defect):
    model = parse_model_spec("alpha_categorical:2:0.5")
    assert checks(model, "classification", samples=3)["constant_curvature_residual"].passed
    found = checks(defect(model), "classification", samples=3)["constant_curvature_residual"]
    assert not found.passed and found.max_error < 1e-4, found


@pytest.mark.parametrize(
    "spec", ["sphere:2", "sphere:2:3", "sphere:2:1e-150", "sphere:2:1e154", "alpha_categorical:3:0"]
)
def test_a_round_sphere_carries_the_curvature_of_its_radius(spec):
    model = parse_model_spec(spec)
    assert model.constant_curvature == 1.0 / model.round_sphere.radius**2


@pytest.mark.parametrize(
    "radius,passes", [("1e-150", True), ("0.01", True), ("1e100", True), ("1e154", True)]
)
def test_classification_of_an_extreme_sphere_stays_in_the_float_range(radius, passes):
    # r^4 sin^2 theta, the metric's determinant, leaves the float range here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = checks(parse_model_spec(f"sphere:2:{radius}"), "classification")
    assert np.isfinite(found["constant_curvature_residual"].max_error)
    assert found["verdict_is_SelfDual"].passed
    if passes:
        assert found["constant_curvature_residual"].passed, found["constant_curvature_residual"]


@pytest.mark.parametrize("suite", ["collapse", "all"])
def test_a_config_without_room_to_double_its_nodes_is_refused_before_any_work(suite):
    # a config takes up to 2 * MAX_QUAD_NODES nodes; the collapse suite doubles them
    model = parse_model_spec("euclidean:2")
    cfg = ToleranceConfig(quad_nodes=2 * MAX_QUAD_NODES)
    with pytest.raises(InvalidModelSpec, match=f"at most {MAX_QUAD_NODES}$"):
        run_suites([model], suite, samples=1, cfg=cfg)
    found = run_suites([model], "collapse", samples=1, cfg=cfg.with_(quad_nodes=MAX_QUAD_NODES))
    assert "quadrature_node_doubling" in [c.check_id for c in found.checks]


def test_a_probe_past_its_skip_quota_fails_the_check_not_the_run(monkeypatch, capsys):
    # the probe only reports its skips; the quota is verify's check, so the
    # report is written and verify exits 1
    inner, targets = eguchi._divergence_many, iter(range(10))

    def failing(model, kind, P, Q, cfg):
        # the batch fails, then targets 2, 5 and 9 alone (each evaluates dual first)
        if P.shape[0] > 1 or (kind is DivergenceKind.CANONICAL_DUAL and next(targets) in (2, 5, 9)):
            raise DomainExit("geodesic left the domain")
        return inner(model, kind, P, Q, cfg)

    monkeypatch.setattr(eguchi, "_divergence_many", failing)
    assert main(["verify", "--model", "euclidean:2", "--suite", "symmetry", "--samples", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    found = {c["check_id"]: c for c in doc["checks"]}
    assert found["probe_skipped_fraction"]["max_error"] == 0.3
    assert not found["probe_skipped_fraction"]["passed"]
    assert doc["overall_pass"] is False


@pytest.mark.parametrize("dim", [MAX_RECOVERY_DIM + 1, 100])
@pytest.mark.parametrize("suite", ["eguchi", "classification", "all"])
def test_a_dimension_too_large_to_recover_is_refused_before_any_work(monkeypatch, capsys, suite, dim):
    def never(*args, **kwargs):
        raise AssertionError("structure recovery or curvature ran")

    monkeypatch.setattr(verify, "recover_structure", never)
    monkeypatch.setattr(eguchi, "_curvature_many", never)
    assert main(["verify", "--model", f"euclidean:{dim}", "--suite", suite]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: the eguchi and classification suites take dimension at most "
                   f"{MAX_RECOVERY_DIM}, not euclidean:{dim}"]


@pytest.mark.parametrize(
    "spec, gradient_kinds, main_kinds",
    [
        ("sphere:2", ["pseudonorm", "canonical"], ["PRIMAL"]),
        ("alpha_categorical:2:0.5", ["pseudonorm", "canonical", "dual"], ["PRIMAL", "DUAL"]),
    ],
)
def test_the_gradient_suite_takes_a_self_dual_models_dual_half_from_its_primal_half(
    monkeypatch, spec, gradient_kinds, main_kinds
):
    # dualized() returns a self-dual model itself: its dual canonical gradient
    # and dual end velocities are the primal ones, and are not computed again
    gradients, mains = [], []
    gradient_many, main_nodes = verify._gradient_many, verify._main_nodes

    def counting_gradient(model, which, *args):
        gradients.append(which.value)
        return gradient_many(model, which, *args)

    def counting_main(model, kind, *args):
        mains.append(kind.name)
        return main_nodes(model, kind, *args)

    monkeypatch.setattr(verify, "_gradient_many", counting_gradient)
    monkeypatch.setattr(verify, "_main_nodes", counting_main)
    assert all(c.passed for c in checks(parse_model_spec(spec), "gradient").values())
    assert gradients == gradient_kinds
    assert mains == main_kinds


def test_a_check_passes_when_its_error_is_within_its_tolerance():
    record = CheckRecord("x", 2.0, 1.0, 1)
    assert record.passed is False
    assert record.to_dict() == {
        "check_id": "x", "max_error": 2.0, "tolerance": 1.0, "passed": False, "samples": 1
    }
    assert CheckRecord("x", 1.0, 1.0, 1).passed is True
    assert CheckRecord("x", float("nan"), 1.0, 1).passed is False


@pytest.mark.parametrize("samples", [0, -1, MAX_SAMPLES + 1])
@pytest.mark.parametrize("suite", ["collapse", "all"])
def test_a_sample_count_out_of_bounds_is_refused_before_any_suite_runs(monkeypatch, suite, samples):
    # 0 and -1 ended in numpy's errors on an empty and a negative shape
    def never(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "SUITES", dict.fromkeys(verify.SUITES, never))
    with pytest.raises(InvalidModelSpec, match=f"^verify needs between 1 and {MAX_SAMPLES} samples$"):
        run_suites([parse_model_spec("euclidean:2")], suite, samples=samples)


@pytest.mark.parametrize(
    "count, message",
    [
        ({"samples": 2.5}, "verify's sample count must be an integer, not 2.5"),
        ({"samples": True}, "verify's sample count must be an integer, not True"),
        ({"seed": -1}, "verify's seed must be a non-negative integer, not -1"),
        ({"seed": 1.5}, "verify's seed must be a non-negative integer, not 1.5"),
        ({"seed": False}, "verify's seed must be a non-negative integer, not False"),
    ],
)
def test_a_count_that_is_not_an_integer_is_refused_before_any_suite_runs(monkeypatch, count, message):
    # 2.5 samples and the seeds -1 and 1.5 ended in raw numpy errors inside a suite
    def never(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "SUITES", dict.fromkeys(verify.SUITES, never))
    with pytest.raises(InvalidModelSpec, match=f"^{re.escape(message)}$"):
        run_suites([parse_model_spec("euclidean:2")], "collapse", **{"samples": 2, **count})


def test_an_unknown_suite_is_refused():
    with pytest.raises(InvalidModelSpec, match="^unknown suite 'nosuch'; choose from eguchi, "):
        run_suites([parse_model_spec("euclidean:2")], "nosuch")


def test_numpy_integers_are_counts(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "SUITES", {"collapse": lambda *args: ran.append(args[1:3]) or []})
    run_suites([parse_model_spec("euclidean:2")], "collapse", samples=np.int64(2), seed=np.uint8(3))
    assert len(ran) == 1 and ran[0][0] == 2


@pytest.mark.parametrize("quad_nodes", [3.5, 32.0, True, "32", None])
def test_a_config_refuses_quad_nodes_that_are_not_an_integer(quad_nodes):
    # 3.5 was accepted, then every divergence failed in numpy's leggauss; True meant 1 node
    with pytest.raises(ValueError, match="^quad_nodes must be an integer, not "):
        ToleranceConfig().with_(quad_nodes=quad_nodes)
    assert ToleranceConfig(quad_nodes=np.int64(8)).quad_nodes == 8


def test_verify_refuses_zero_samples_with_run_suites_line(capsys):
    assert main(["verify", "--model", "euclidean:2", "--suite", "collapse", "--samples", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: verify needs between 1 and {MAX_SAMPLES} samples"
    ]
