#!/usr/bin/env python3
"""Path independence of the summed line integrals.

The two transported-difference fields based at p can be integrated against the
velocity of any path from p to q. Each integral alone depends on the path; the
sum does not, and it always equals the metric pairing of the two log vectors
at p. The alpha-connection simplex is the most general builtin (curved and not
self-dual), so agreement here exercises everything at once. Its two log
vectors per quadrature node are closed form (each connection's geodesics are
plane sections of a cone), and each field is transported in the integration
of the other connection's geodesic.
"""

import numpy as np

from dualgeo import Curve, make_builtin, path_functional, pseudo_norm

al = make_builtin("alpha_categorical", [2, 0.5])
p = al.point([0.20, 0.32])
q = al.point([0.42, 0.24])
rng = np.random.default_rng(42)

r = pseudo_norm(al, p, q)
print(f"log-pairing r(p, q) = {r:.12f}\n")
print(f"{'path':>6s} {'primal integral':>18s} {'dual integral':>18s} {'sum':>18s}")

sums = []
for trial in range(5):
    w1 = p.coords + (q.coords - p.coords) * 0.33 + rng.uniform(-0.05, 0.05, 2)
    w2 = p.coords + (q.coords - p.coords) * 0.66 + rng.uniform(-0.05, 0.05, 2)
    gamma = Curve.from_waypoints([p.coords, w1, w2, q.coords])
    res = path_functional(al, p, gamma)
    sums.append(res.sum)
    print(f"{trial:6d} {res.primal_integral:18.12f} {res.dual_integral:18.12f} {res.sum:18.12f}")

sums = np.array(sums)
print(f"\nspread of the sums : {np.ptp(sums):.3e}")
print(f"worst |sum - r|    : {np.abs(sums - r).max():.3e}")
print("\nThe individual integrals move with the path; their sum is pinned to r.")
