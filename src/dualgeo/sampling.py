"""Seeded sampling of points and pairs inside each model's safe box.

The safe box is a per-model sub-box of the chart domain inside which metric
conditioning stays bounded and safe-box pairs sit in the shooting basin; pairs
on a model with a round-sphere embedding are additionally filtered to a
bounded great-circle angle.
"""

from __future__ import annotations

import numpy as np

from .manifold import ManifoldModel, RoundSphere, spherical_to_unit

__all__ = ["sample_points", "sample_pairs", "great_circle_angle"]

SPHERE_MAX_ANGLE = 1.0
MIN_SEPARATION = 1e-3  # chart distance below which a pair is redrawn


def great_circle_angle(x, y) -> float:
    """Central angle between two spherical-chart points (radius-independent)."""
    unit = RoundSphere(1.0, spherical_to_unit)
    return unit.angle(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def sample_points(
    model: ManifoldModel, count: int, rng: np.random.Generator, shrink: float = 1.0
) -> np.ndarray:
    """Uniform draws from the model's safe box, optionally shrunk toward its center."""
    box = model.safe_box
    center = 0.5 * (box[:, 0] + box[:, 1])
    half = 0.5 * (box[:, 1] - box[:, 0]) * shrink
    X = rng.uniform(center - half, center + half, size=(count, model.dim))
    model.require_inside(X, "safe-box sample", RuntimeError)
    return X


def sample_pairs(model: ManifoldModel, count: int, rng: np.random.Generator, shrink: float = 1.0):
    """Seeded in-basin pairs; redraws pairs closer than MIN_SEPARATION in the chart
    and, on a round sphere, pairs whose great-circle angle exceeds SPHERE_MAX_ANGLE."""
    sphere = model.round_sphere
    P = sample_points(model, count, rng, shrink)
    Q = sample_points(model, count, rng, shrink)
    for i in range(count):
        for _ in range(200):
            sep_ok = np.linalg.norm(Q[i] - P[i]) >= MIN_SEPARATION
            angle_ok = sphere is None or sphere.angle(P[i], Q[i]) <= SPHERE_MAX_ANGLE
            if sep_ok and angle_ok:
                break
            P[i] = sample_points(model, 1, rng, shrink)[0]
            Q[i] = sample_points(model, 1, rng, shrink)[0]
        else:
            raise RuntimeError("pair sampling failed to satisfy the filters")
    return P, Q
