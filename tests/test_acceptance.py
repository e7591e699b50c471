"""Acceptance gate: every structural claim at its declared tolerance.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
for the full report. Sampling is seeded, so the suite is deterministic.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from dualgeo import (
    ConnectionKind,
    DivergenceKind,
    Point,
    classify_manifold,
    curvature_tensor,
    great_circle_angle,
    make_builtin,
    recover_structure,
    sample_pairs,
    sample_points,
    symmetry_probe,
)
from dualgeo.config import DEFAULT_CONFIG as CFG
from dualgeo.divergence import _divergence_many, _gradient_many, _main_curves, _pi_many
from dualgeo.verify import suite_pathindep

ALL = ["euclidean", "sphere", "categorical", "gaussian1d", "alpha_categorical"]
SEED = 7


def rng_for(tag: int):
    return np.random.default_rng(np.random.SeedSequence([SEED, tag]))


def report(name: str, worst: float, tol: float) -> None:
    status = "PASS" if worst <= tol else "FAIL"
    print(f"[{status}] {name}: max error {worst:.3e} (tolerance {tol:.0e})")
    assert worst <= tol, f"{name}: {worst:.3e} > {tol:.0e}"


def pairing(g, U, V):
    return np.einsum("mi,mij,mj->m", U, g, V)


def norms(g, U):
    return np.sqrt(np.maximum(pairing(g, U, U), 0.0))


def test_criterion_1_flat_self_dual_oracle(models):
    eu = models["euclidean"]
    P, Q = sample_pairs(eu, 100, rng_for(1))
    closed = 0.5 * np.sum((Q - P) ** 2, axis=1)
    canon = _divergence_many(eu, DivergenceKind.CANONICAL, P, Q, CFG)
    ay = _divergence_many(eu, DivergenceKind.AY, P, Q, CFG)
    worst = max(np.abs(canon - closed).max(), np.abs(ay - closed).max())
    report("1 flat self-dual closed form (100 pairs)", worst, 1e-8)


def test_criterion_2_curved_self_dual_collapse(models):
    sp = models["sphere"]
    P, Q = sample_pairs(sp, 50, rng_for(2))
    angles = great_circle_angle(P, Q)
    assert angles.max() <= 1.0
    canon = _divergence_many(sp, DivergenceKind.CANONICAL, P, Q, CFG)
    ay = _divergence_many(sp, DivergenceKind.AY, P, Q, CFG)
    err_closed = np.abs(canon - 0.5 * angles**2).max()
    report("2a sphere great-circle closed form (50 pairs)", float(err_closed), 1e-6)
    err_collapse = (np.abs(canon - ay) / (1.0 + np.abs(ay))).max()
    report("2b sphere collapse onto path-energy form", float(err_collapse), 1e-6)


def test_criterion_3_dually_flat_oracles():
    worst = 0.0
    for name, params, count in (
        ("categorical", [1], 50),
        ("categorical", [2], 50),
        ("gaussian1d", [2], 50),
    ):
        model = make_builtin(name, params)
        P, Q = sample_pairs(model, count, rng_for(3))
        canon = _divergence_many(model, DivergenceKind.CANONICAL, P, Q, CFG)
        oracle = np.array([model.oracle_fn(p, q) for p, q in zip(P, Q)])
        worst = max(worst, float((np.abs(canon - oracle) / (1.0 + oracle)).max()))
    ga = make_builtin("gaussian1d", [2])
    spot = _divergence_many(
        ga, DivergenceKind.CANONICAL, np.array([[0.0, -0.5]]), np.array([[1.0, -0.5]]), CFG
    )[0]
    worst = max(worst, abs(spot - 0.5))
    report("3 dually flat closed-form divergence (150 pairs + spot value)", worst, 1e-6)


def test_criterion_4_path_independence(models):
    # verify's batched suite on 20 pairs x 5 paths: pairs, then paths, from one rng
    records = {r.check_id: r for r in suite_pathindep(models["alpha_categorical"], 20, rng_for(4), CFG)}
    spread, agree = records["path_spread_rel"], records["sum_equals_pseudo_norm_rel"]
    assert spread.samples == agree.samples == 100
    report("4a path independence spread (20 pairs x 5 paths)", spread.max_error, 1e-5)
    report("4b summed functional equals log-pairing", agree.max_error, 1e-5)


def test_criterion_5_gradient_identity(models):
    worst = 0.0
    for name in ALL:
        model = models[name]
        P, Q = sample_pairs(model, 20, rng_for(5), shrink=0.8)
        Pi, PiStar = _pi_many(model, P, Q, CFG)
        grad_r = _gradient_many(model, DivergenceKind.PSEUDO_NORM, P, Q, CFG)
        g = model.metric_batch(Q)
        worst = max(worst, float(norms(g, Pi + PiStar - grad_r).max()))
    report("5 gradient identity for the log-pairing (5 models x 20 pairs)", worst, 1e-4)


def test_criterion_6_orthogonal_decomposition(models):
    orth_worst = 0.0
    align_worst = 0.0
    for name in ALL:
        model = models[name]
        P, Q = sample_pairs(model, 20, rng_for(6), shrink=0.8)
        g = model.metric_batch(Q)
        Pi, PiStar = _pi_many(model, P, Q, CFG)
        sig_dot = _main_curves(model, ConnectionKind.PRIMAL, P, Q, CFG).velocity(1.0)
        grad_D = _gradient_many(model, DivergenceKind.CANONICAL, P, Q, CFG)
        num = np.abs(pairing(g, Pi - grad_D, sig_dot))
        den = np.maximum(norms(g, Pi) * norms(g, sig_dot), 1e-30)
        orth_worst = max(orth_worst, float((num / den).max()))
        sig_star_dot = _main_curves(model, ConnectionKind.DUAL, P, Q, CFG).velocity(1.0)
        grad_Ds = _gradient_many(model, DivergenceKind.CANONICAL_DUAL, P, Q, CFG)
        num = np.abs(pairing(g, PiStar - grad_Ds, sig_star_dot))
        den = np.maximum(norms(g, PiStar) * norms(g, sig_star_dot), 1e-30)
        orth_worst = max(orth_worst, float((num / den).max()))
        cosang = pairing(g, grad_D, sig_dot) / np.maximum(
            norms(g, grad_D) * norms(g, sig_dot), 1e-30
        )
        align_worst = max(align_worst, float(np.arccos(np.clip(cosang, -1, 1)).max()))
    report("6a orthogonal decompositions (both sides)", orth_worst, 1e-4)
    report("6b gradient alignment with geodesic tangent (rad)", align_worst, 1e-3)


def test_criterion_7_structure_recovery(models):
    m_w = g_w = gs_w = f_w = x_w = 0.0
    for name in ALL:
        model = models[name]
        for x in sample_points(model, 10, rng_for(7), shrink=0.7):
            p = Point(x)
            rec = recover_structure(model, DivergenceKind.CANONICAL, p, CFG)
            g_true = model.metric_at(p)
            m_w = max(m_w, float(np.abs(rec.metric - g_true).max() / np.abs(g_true).max()))
            g_w = max(
                g_w,
                float(np.abs(rec.gamma - model.christoffel_at(p, ConnectionKind.PRIMAL)).max()),
            )
            gs_w = max(
                gs_w,
                float(
                    np.abs(rec.gamma_star - model.christoffel_at(p, ConnectionKind.DUAL)).max()
                ),
            )
            f_w = max(f_w, rec.first_derivative_residual)
            x_w = max(x_w, rec.mixed_identity_residual)
    report("7a recovered metric, relative (5 models x 10 points)", m_w, 1e-4)
    report("7b recovered primal symbols, absolute", g_w, 1e-3)
    report("7c recovered dual symbols, absolute", gs_w, 1e-3)
    report("7d first derivatives vanish at the diagonal", f_w, 1e-6)
    report("7e second-derivative identities at the diagonal", x_w, 1e-4)


def test_criterion_8_duality_relation(models):
    worst = 0.0
    h = 1e-5
    for name in ALL:
        model = models[name]
        X = sample_points(model, 100, rng_for(8), shrink=0.8)
        Gp = model.christoffel_batch(X, ConnectionKind.PRIMAL)
        Gd = model.christoffel_batch(X, ConnectionKind.DUAL)
        for k in range(model.dim):
            e = np.zeros(model.dim)
            e[k] = h
            dg = (model.metric_batch(X + e) - model.metric_batch(X - e)) / (2 * h)
            resid = dg - (Gp[:, k, :, :] + np.swapaxes(Gd[:, k, :, :], 1, 2))
            worst = max(worst, float(np.abs(resid).max()))
    report("8 metric-connection duality (5 models x 100 points)", worst, 1e-6)


def test_criterion_9_reversal_symmetry(models):
    worst = 0.0
    for name in ("categorical", "gaussian1d"):
        model = models[name]
        P, Q = sample_pairs(model, 50, rng_for(9), shrink=0.9)
        rev = _divergence_many(model, DivergenceKind.CANONICAL, Q, P, CFG)
        dual = _divergence_many(model, DivergenceKind.CANONICAL_DUAL, P, Q, CFG)
        worst = max(worst, float((np.abs(rev - dual) / (1.0 + np.abs(dual))).max()))
    report("9a dually flat reversal equality (2 models x 50 pairs)", worst, 1e-6)
    al = models["alpha_categorical"]
    rng = rng_for(90)
    p = Point(sample_points(al, 1, rng, shrink=0.5)[0])
    qs = [Point(x) for x in sample_points(al, 100, rng, shrink=0.9)]
    probe = symmetry_probe(al, p, qs, CFG)
    assert len(probe.skipped) <= 20
    report("9b monotone-relation rank agreement deficit (100 samples)",
           1.0 - probe.rank_agreement, 0.0)


def test_criterion_10_classification(models):
    expected = {
        "euclidean": "SelfDual",
        "sphere": "SelfDual",
        "categorical": "DuallyFlat",
        "gaussian1d": "DuallyFlat",
    }
    verdicts_ok = True
    flat_worst = 0.0
    for name, want in expected.items():
        model = models[name]
        pts = [Point(x) for x in sample_points(model, 5, rng_for(10), shrink=0.7)]
        rep = classify_manifold(model, pts, CFG)
        verdicts_ok = verdicts_ok and rep.verdict == want
        if name != "sphere":
            flat_worst = max(flat_worst, rep.flatness_residual)
    report("10a fixed verdicts (euclidean/sphere/categorical/gaussian1d)",
           0.0 if verdicts_ok else 1.0, 0.0)
    report("10b flatness residual on flat models", flat_worst, 1e-5)
    sp = models["sphere"]
    worst = 0.0
    for x in sample_points(sp, 5, rng_for(10), shrink=0.7):
        p = Point(x)
        R = curvature_tensor(sp, ConnectionKind.PRIMAL, p, CFG)
        g = sp.metric_at(p)
        low = np.einsum("lm,mijk->ijkl", g, R)
        worst = max(worst, abs(float(low[0, 1, 1, 0] / np.linalg.det(g)) - 1.0))
    report("10c sphere sectional curvature equals one", worst, 1e-5)


def test_criterion_11_deterministic_verification_reports(tmp_path):
    cmd = [sys.executable, "-m", "dualgeo.cli", "verify", "--suite", "all", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr[-2000:]
    assert second.returncode == 0
    identical = first.stdout == second.stdout
    report("11 byte-identical seeded verification reports", 0.0 if identical else 1.0, 0.0)
    doc = json.loads(first.stdout)
    assert doc["overall_pass"] is True
