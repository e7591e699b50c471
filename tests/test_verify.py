"""Verification suites: which checks a model gets follows from its structure."""

import dataclasses
import warnings

import numpy as np
import pytest

from dualgeo import parse_model_spec, run_suites, sample_pairs


def checks(model, suite, samples=1, seed=3):
    return {c.check_id: c for c in run_suites([model], suite, samples=samples, seed=seed).checks}


def test_a_renamed_sphere_keeps_its_checks_and_its_samples():
    sphere = parse_model_spec("sphere:2")
    globe = dataclasses.replace(sphere, name="globe", params=())
    for suite in ("collapse", "classification"):
        want = run_suites([sphere], suite, samples=1, seed=3).to_dict()
        assert run_suites([globe], suite, samples=1, seed=3).to_dict() == want
    assert checks(globe, "collapse")["great_circle_oracle"].passed
    assert checks(globe, "classification")["sectional_curvature_error"].passed
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
    curvature = checks(model, "classification", samples=3)["sectional_curvature_error"]
    assert great_circle.passed and curvature.passed, (great_circle, curvature)


def test_other_alphas_have_no_round_sphere():
    model = parse_model_spec("alpha_categorical:2:0.5")
    assert model.round_sphere is None
    assert "sectional_curvature_error" not in checks(model, "classification")


@pytest.mark.parametrize("radius,passes", [("1e-150", False), ("1e100", True), ("1e154", True)])
def test_classification_of_an_extreme_sphere_stays_in_the_float_range(radius, passes):
    # r^4 sin^2 theta, the metric's determinant, leaves the float range here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = checks(parse_model_spec(f"sphere:2:{radius}"), "classification")
    assert np.isfinite(found["sectional_curvature_error"].max_error)
    assert found["verdict_is_SelfDual"].passed
    if passes:
        assert found["sectional_curvature_error"].passed, found["sectional_curvature_error"]
