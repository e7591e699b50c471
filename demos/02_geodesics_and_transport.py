#!/usr/bin/env python3
"""Geodesics, the two-point problem, and parallel transport on the sphere.

Three classic checks with closed-form answers:

  1. a unit-speed great circle started at the equator stays a great circle,
  2. the norm of the log map equals the central angle between chart points,
  3. transporting a vector around a latitude-meridian rectangle rotates it by
     exactly the enclosed area (unit sphere).
"""

import numpy as np

from dualgeo import (
    ConnectionKind,
    Curve,
    Tangent,
    great_circle_angle,
    integrate_geodesic,
    log_map,
    make_builtin,
    parallel_transport,
)

sp = make_builtin("sphere", [2, 1.0])
PR = ConnectionKind.PRIMAL

# 1. quarter of a great circle along the equator
p = sp.point([np.pi / 2, 0.0])
v = sp.tangent(p, [0.0, np.pi / 2])
curve = integrate_geodesic(sp, PR, p, v)
end = curve.position(1.0)
print("quarter great circle endpoint:", end, " (expected [pi/2, pi/2])")
print("central angle travelled:      ", great_circle_angle(p.coords, end))

# 2. log map length equals the central angle
q = sp.point([1.1, 0.8])
w = log_map(sp, PR, p, q)
g = sp.metric_at(p)
print("\n|log_p(q)|_g =", float(np.sqrt(w.components @ g @ w.components)))
print("angle(p, q)  =", float(great_circle_angle(p.coords, q.coords)))

# 3. holonomy of a latitude-meridian rectangle
th1, th2, width = np.pi / 3, 2 * np.pi / 3, np.pi / 2
grid = np.linspace(0.0, 1.0, 129)


def latitude(theta, a, b):
    xs = np.stack([np.full(129, theta), a + (b - a) * grid], axis=1)
    vs = np.stack([np.zeros(129), np.full(129, b - a)], axis=1)
    return Curve(xs=xs, vs=vs)


def meridian(phi, a, b):
    xs = np.stack([a + (b - a) * grid, np.full(129, phi)], axis=1)
    vs = np.stack([np.full(129, b - a), np.zeros(129)], axis=1)
    return Curve(xs=xs, vs=vs)


loop = [
    latitude(th1, 0.0, width),
    meridian(width, th1, th2),
    latitude(th2, width, 0.0),
    meridian(0.0, th2, th1),
]
vec = np.array([1.0, 0.0])
for seg in loop:
    vec = parallel_transport(sp, PR, seg, Tangent(seg.start_point(), vec)).components
g = sp.metric_at(loop[0].start_point())
u0 = np.array([1.0, 0.0])
cos = (u0 @ g @ vec) / np.sqrt((u0 @ g @ u0) * (vec @ g @ vec))
print("\nholonomy rotation:", float(np.arccos(np.clip(cos, -1, 1))))
print("enclosed area:    ", width * (np.cos(th1) - np.cos(th2)))
print("(on the unit sphere these agree: transport makes curvature visible)")
