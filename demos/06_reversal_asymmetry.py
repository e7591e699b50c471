#!/usr/bin/env python3
"""Reversal asymmetry of the canonical divergence off a dually flat structure.

On a dually flat manifold the dual canonical divergence is the reversed
canonical divergence, D*(p, q) = D(q, p). The paper leaves open what happens
off dually flat structures. On the alpha-connection simplex with alpha = 0.5
the pipeline resolves a residual D*(p, q) - D(q, p) of about 2.8e-8 on one
sampled pair, a relative size of 2e-7. This script shows that the residual is
a property of the geometry, not of the numerics:

    refinement   the residual stays put when the ODE and shooting tolerances
                 tighten 100x or the quadrature doubles
    contrast     on the dually flat categorical simplex the same pair gives a
                 residual at rounding level
    scaling      moving q toward p along the chart line shrinks the residual
                 about as the sixth to seventh power of the pair distance
"""

import numpy as np

from dualgeo import (
    DEFAULT_CONFIG,
    Point,
    canonical_divergence,
    dual_canonical_divergence,
    parse_model_spec,
    sample_pairs,
)

al = parse_model_spec("alpha_categorical:2:0.5")
P, Q = sample_pairs(al, 6, np.random.default_rng(3), shrink=0.85)
p, q = P[4], Q[4]


def residual(model, p, q, cfg=DEFAULT_CONFIG):
    """D*(p, q) - D(q, p), and D(q, p) for scale."""
    reversed_d = canonical_divergence(model, Point(q), Point(p), cfg)
    return dual_canonical_divergence(model, Point(p), Point(q), cfg) - reversed_d, reversed_d


cfg = DEFAULT_CONFIG
print(f"model {al.spec_string}, p = {p.tolist()}, q = {q.tolist()}\n")
print(f"{'refinement':<28s} {'D*(p,q) - D(q,p)':>18s}")
for label, c in (
    ("default tolerances", cfg),
    ("ODE tolerances 100x tighter", cfg.with_(ode_rel_tol=cfg.ode_rel_tol / 100)),
    ("shoot_tol 100x tighter", cfg.with_(shoot_tol=cfg.shoot_tol / 100)),
    ("twice the quadrature nodes", cfg.with_(quad_nodes=2 * cfg.quad_nodes)),
):
    print(f"{label:<28s} {residual(al, p, q, c)[0]:18.6e}")

res, d = residual(al, p, q)
print(f"\nrelative size on alpha = 0.5 : {res / d:.2e} of D(q, p) = {d:.6f}")
flat = parse_model_spec("categorical:2")
print(f"dually flat categorical:2    : {residual(flat, p, q)[0]:.2e}")

# the residual shrinks toward the rounding floor of the default tolerances,
# so the scaling study runs at 100x tighter ones
tight = cfg.with_(ode_rel_tol=cfg.ode_rel_tol / 100, shoot_tol=cfg.shoot_tol / 100)
print(f"\n{'s':>6s} {'|q_s - p|':>10s} {'D*(p,q_s) - D(q_s,p)':>22s} {'order':>6s}")
prev = None
for s in (1.0, 0.5, 0.25, 0.125):
    qs = p + s * (q - p)
    r = residual(al, p, qs, tight)[0]
    order = "" if prev is None else f"{np.log2(abs(prev / r)):6.1f}"
    print(f"{s:6.3f} {np.linalg.norm(qs - p):10.4f} {r:22.6e} {order:>6s}")
    prev = r
print("\nThe residual does not move with the numerics and falls off steeply with")
print("the pair distance: a small, real asymmetry of the canonical divergence.")
