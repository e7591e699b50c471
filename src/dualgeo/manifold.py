"""Chart-based data model for statistical manifolds and the builtin catalog.

A model lives in one global working chart and carries the metric field and the
lower-index connection symbols of a pair of torsion-free connections that are
dual with respect to the metric:

    d_k g_ij = Gamma_{ki,j} + Gamma*_{kj,i}

Builtins:

    euclidean(n)               flat self-dual, identity metric
    sphere(2, r)               round sphere in spherical chart, self-dual,
                               polar caps excluded (theta in (0.1, pi - 0.1))
    categorical(n)             exponential family over n+1 outcomes in the
                               natural chart; primal symbols vanish there and
                               the dual symbols are the third derivatives of
                               the log-partition ln(1 + sum exp(theta_i))
    gaussian1d                 univariate Gaussian in natural parameters
                               (theta1, theta2), -50 < theta2 < -0.025,
                               |theta1| < 50
    alpha_categorical(n, a)    simplex in mixture coordinates with the Fisher
                               metric and the a-connection pair, a in (-1, 1)

All field evaluators are vectorized: they take an (m, dim) array of chart
points and return stacked tensors. The scalar accessors `metric_at` and
`christoffel_at` wrap the batch forms.

The model owns the domain rule, `contains_batch`: a row is outside when it is
not finite, not of width `dim` or fails `domain_fn`. Every entry point checks
its points with it, through `require_inside`, which names the first row outside.

A model may carry, per connection, a `PlaneSection`: a representation R in
which that connection's geodesics are plane sections through the origin, so
that they, the log map and, on a linear section, transport are closed form
(see `geodesic`). A linear section is an affine chart, where the connection is
flat. `WORKING_CHART` says it is flat in the working chart itself (its symbols
vanish); those connections are the model's `flat_kinds`. The dually flat
builtins also carry the Legendre chart of the other connection, the
expectation parameters eta = grad psi(theta) (Amari & Nagaoka 2000, ch. 3):

    categorical(n)   eta = head probabilities; inverse theta_i =
                     log eta_i - log(1 - sum eta)
    gaussian1d       eta = (mu, mu^2 + sigma^2); inverse theta =
                     (mu / sigma^2, -1 / (2 sigma^2)), sigma^2 = eta2 - eta1^2

Their Jacobian d eta / d theta is the metric. alpha_categorical(n, a) carries
a curved section for each connection, the alpha-representation over the full
probability vector (Amari & Nagaoka 2000, ch. 2-3):

    R = p^beta, N(R) = (sum R^(1/beta))^beta, dN at R: D -> sum p^(1-beta) D,
    beta = (1 - a)/2 for the primal connection and (1 + a)/2 for the dual

The two betas sum to 1, so the two sections are a dual pair: p^(1 - beta) is
the conormal of p^beta (Kurose 1990), since sum p = 1.

A copy with no sections, `dataclasses.replace(model, plane_sections={})`, takes
the ODE and shooting route for every connection.

A model may also carry, per connection, a contraction kernel in
`contraction_fns`: the raised symbol contraction -g^{-1} Gamma(U, W) in closed
form, which is the right-hand side of both the geodesic and the transport
equations on the ODE route. The curved builtins carry one for each connection
(the Fisher metric and its a-connections, Amari & Nagaoka 2000, ch. 2-3):

    sphere(2, r)               a^theta = sin(theta) cos(theta) U^phi W^phi,
                               a^phi = -cot(theta) (U^theta W^phi + U^phi W^theta)
    alpha_categorical(n, a)    Gamma(U, W) = c (U W / eta^2 - (sum U)(sum W) / t^2),
                               c = -(1 +- a)/2, t the tail probability, raised
                               by g^{-1} = diag(eta) - eta eta^T / (t + sum eta)
                               (Sherman-Morrison)

Both read the clipped coordinates of the field collars, so they agree with
`metric_fn` and `christoffel_fns` everywhere. `dualized` swaps the kernels
with the symbols, a `plane_sections={}` copy keeps them, and a
`contraction_fns={}` copy runs the generic reference (the symbols contracted
and solved against the metric).

A model may carry the constant curvature K of both connections,
R(X, Y)Z = K (g(Y, Z) X - g(X, Z) Y), as `constant_curvature`. Each builtin
does (Amari & Nagaoka 2000, ch. 2-3): K = 0 on the dually flat euclidean,
categorical and gaussian1d, 1 / r^2 on sphere(2, r) and (1 - a^2) / 4 on
alpha_categorical(n, a). A self-dual model may carry a `RoundSphere`: an
isometry onto a piece of the round sphere of radius K^(-1/2), through which
its geodesics are great circles, its distance is radius * central angle and
its canonical divergence is half the squared distance. The sphere carries its
spherical embedding; alpha_categorical(n, 0), the simplex with the Fisher
metric, carries p -> sqrt(p) over the full probability vector with radius 2.

For the dually flat builtins (euclidean, categorical, gaussian1d) the model
carries a closed-form reference divergence. Its orientation is fixed so that
`oracle_fn(p, q)` equals the primal canonical divergence from p to q under this
chart convention; for the categorical family that is

    oracle_fn(p, q) = sum_i q_i * log(q_i / p_i)

over the full probability vectors (see README for the numerical resolution of
this orientation on the Bernoulli family).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BaseMismatch, InvalidModelSpec, PointOutOfDomain

__all__ = [
    "ConnectionKind",
    "PlaneSection",
    "RoundSphere",
    "Point",
    "Tangent",
    "ManifoldModel",
    "make_builtin",
    "parse_model_spec",
    "builtin_names",
    "builtin_schemas",
    "mixture_to_natural",
    "natural_to_mixture",
    "WORKING_CHART",
]


class ConnectionKind(enum.Enum):
    """Tag selecting one of the two dual connections."""

    PRIMAL = "primal"
    DUAL = "dual"

    @property
    def dual(self) -> "ConnectionKind":
        return ConnectionKind.DUAL if self is ConnectionKind.PRIMAL else ConnectionKind.PRIMAL


@dataclass(frozen=True, eq=False)
class Point:
    """A chart point: a plain coordinate vector (a scalar is a vector of one)."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if coords.ndim != 1:
            raise ValueError(f"a point is one vector of coordinates, not shape {coords.shape}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __repr__(self):
        return f"Point({np.array2string(self.coords, separator=', ')})"


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector: chart-basis components attached to a base point."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "components", np.atleast_1d(np.asarray(self.components, dtype=float))
        )
        if self.components.shape[0] != self.base.dim:
            raise ValueError("tangent components must match the base point dimension")

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def __repr__(self):
        return (
            f"Tangent(base={np.array2string(self.base.coords, separator=', ')}, "
            f"components={np.array2string(self.components, separator=', ')})"
        )


@dataclass(frozen=True)
class PlaneSection:
    """A connection whose geodesics are plane sections through the origin in a
    representation R of the points: each lies in the plane spanned by R at its
    two ends (Kurose 1990; Nomizu & Sasaki 1994).

    to_rep(X)            (m, n) working-chart points -> (m, k) representations R
    from_rep(R)          the inverse on the image; off it, coordinates that no
                         domain contains (non-finite or outside)
    push(X, V)           (m, n) tangents at X -> (m, k) components dR_X V
    pull(X, W)           the inverse of push at X, for W tangent to the image
    normalizer(C)        positive, homogeneous of degree 1 over the last axis
                         (..., k) -> (...), equal to 1 on the image; None for a
                         linear section, whose geodesics are straight R-lines
                         at constant speed (an affine chart)
    differential(X, D)   dN[D] at R(X), (m, k) -> (m,); by homogeneity it is
                         also dN at any positive multiple of R(X)

    The model's domain must meet each geodesic of a curved section in one
    interval of times, as the simplex does (p_i >= c is concave along a
    section), so a state at t = 1 decides whether it stayed inside.

    The curved sections R, R* of a model's two connections form a dual pair
    when R* is the conormal of R: <R*(x), R(x)> = 1 and <R*(x), dR_x V> = 0,
    so that dN* at R*(x) is <R(x), .> and dN at R(x) is <R*(x), .>. The
    alpha-representations p^beta and p^(1 - beta) do, as does p^(1/2) with
    itself. Each connection's transport along the other's geodesic is then
    one quadrature (`geodesic._section_transport`); the pair is recognized
    by <R*, R> = 1 at the centre of the model's safe box, and any other
    pair of curved sections carries transport in an integrated track.
    """

    to_rep: Callable[[np.ndarray], np.ndarray]
    from_rep: Callable[[np.ndarray], np.ndarray]
    push: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pull: Callable[[np.ndarray, np.ndarray], np.ndarray]
    normalizer: Optional[Callable[[np.ndarray], np.ndarray]] = None
    differential: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def linear(self) -> bool:
        return self.normalizer is None


def affine_chart(to_affine, from_affine, jacobian) -> PlaneSection:
    """The linear section of coordinates in which a connection is flat, with
    jacobian(X) (m, n) -> (m, n, n) = d(affine)/d(working)."""

    def push(X, V):
        return np.einsum("mij,mj->mi", jacobian(X), V)

    def pull(X, W):
        return np.linalg.solve(jacobian(X), W[..., None])[..., 0]

    return PlaneSection(to_affine, from_affine, push, pull)


WORKING_CHART = PlaneSection(
    to_rep=lambda X: X, from_rep=lambda R: R, push=lambda X, V: V, pull=lambda X, W: W
)


@dataclass(frozen=True)
class RoundSphere:
    """An isometry onto a piece of the round sphere of this radius: chart points
    X (..., n) map to radius * to_unit(X), with to_unit(X) unit vectors (..., k)."""

    radius: float
    to_unit: Callable[[np.ndarray], np.ndarray]

    def angle(self, X, Y) -> np.ndarray:
        """Central angle between the images of chart points X and Y."""
        dot = np.sum(self.to_unit(X) * self.to_unit(Y), axis=-1)
        return np.arccos(np.clip(dot, -1.0, 1.0))


def spherical_to_unit(X) -> np.ndarray:
    """Spherical-chart points (..., 2) = (theta, phi) -> unit vectors (..., 3)."""
    th, ph = X[..., 0], X[..., 1]
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)


def _as_batch(points) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    return x


@dataclass(frozen=True)
class ManifoldModel:
    """Immutable description of (M, g, primal connection, dual connection).

    metric_fn(X)            (m, n)    -> (m, n, n) symmetric positive definite
    christoffel_fns[kind]   (m, n)    -> (m, n, n, n) lower-index symbols,
                                         symmetric in the first two slots
    domain_fn(X)            (m, n)    -> (m,) bool
    oracle_fn(P, Q)         (..., n) pairs -> (...) closed-form reference, or None
    plane_sections[kind]    the PlaneSection of that connection, if the model
                            knows one; WORKING_CHART when its symbols vanish
                            in the working chart
    contraction_fns[kind]   (X, U, W) (m, n) each -> (m, n), the raised
                            contraction -g^{-1} Gamma(U, W) in closed form,
                            if the model has one
    round_sphere            RoundSphere of a self-dual model of constant
                            positive curvature, or None
    constant_curvature      K of both connections, R(X, Y)Z = K (g(Y, Z) X
                            - g(X, Z) Y), when it is constant, or None
    safe_box                (n, 2) per-coordinate sampling box comfortably
                            inside the domain, used for seeded sampling
    """

    name: str
    dim: int
    params: tuple
    spec_string: str
    chart: str
    metric_fn: Callable[[np.ndarray], np.ndarray]
    christoffel_fns: dict
    domain_fn: Callable[[np.ndarray], np.ndarray]
    safe_box: np.ndarray
    oracle_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    plane_sections: dict = field(default_factory=dict)
    contraction_fns: dict = field(default_factory=dict)
    coord_converters: dict = field(default_factory=dict)
    round_sphere: Optional[RoundSphere] = None
    constant_curvature: Optional[float] = None

    # -- domain ---------------------------------------------------------

    def contains(self, point) -> bool:
        x = np.asarray(point.coords if isinstance(point, Point) else point, dtype=float)
        return x.ndim == 1 and bool(self.contains_batch(x)[0])

    def contains_batch(self, X: np.ndarray) -> np.ndarray:
        """(m,) bool for the rows of X, (m, width) or one point: inside means `dim` finite
        coordinates that satisfy `domain_fn`; rows of another width are out, unasked."""
        X = _as_batch(X)
        if X.ndim != 2 or X.shape[1] != self.dim:
            return np.zeros(len(X), dtype=bool)
        inside = np.isfinite(X).all(axis=1)
        inside[inside] = self.domain_fn(X[inside])
        return inside

    def require_inside(self, X, what: str = "point", error=PointOutOfDomain):
        """Raise `error` naming the first row of X outside the domain; X is a Point
        (one row), one point or a batch."""
        X = _as_batch(X.coords[None] if isinstance(X, Point) else X)
        inside = self.contains_batch(X)
        if not inside.all():
            bad = X[np.argmin(inside)]
            raise error(f"{what} outside the domain of {self.spec_string} (first offender: {bad!r})")

    # -- fields ---------------------------------------------------------

    def metric_batch(self, X: np.ndarray) -> np.ndarray:
        return self.metric_fn(_as_batch(X))

    def christoffel_batch(self, X: np.ndarray, kind: ConnectionKind) -> np.ndarray:
        return self.christoffel_fns[kind](_as_batch(X))

    def metric_at(self, p: Point) -> np.ndarray:
        """Metric components g_ij(p)."""
        self.require_inside(p)
        return self.metric_batch(p.coords)[0]

    def christoffel_at(self, p: Point, kind: ConnectionKind) -> np.ndarray:
        """Lower-index connection symbols Gamma_{ij,k}(p) for the chosen kind."""
        self.require_inside(p)
        return self.christoffel_batch(p.coords, kind)[0]

    def inner_product(self, p: Point, u: Tangent, v: Tangent) -> float:
        """Metric pairing of two tangents based at p."""
        if not np.array_equal(u.base.coords, p.coords) or not np.array_equal(
            v.base.coords, p.coords
        ):
            raise BaseMismatch("inner_product requires both tangents to be based at p")
        g = self.metric_at(p)
        return float(u.components @ g @ v.components)

    @property
    def flat_kinds(self) -> frozenset:
        """Connections whose symbols vanish identically in the working chart."""
        return frozenset(k for k, c in self.plane_sections.items() if c is WORKING_CHART)

    def is_flat(self, kind: ConnectionKind) -> bool:
        return self.plane_sections.get(kind) is WORKING_CHART

    @property
    def is_self_dual(self) -> bool:
        """True when one symbol function serves both connections."""
        fns = self.christoffel_fns
        return fns[ConnectionKind.PRIMAL] is fns[ConnectionKind.DUAL]

    # -- helpers --------------------------------------------------------

    def point(self, coords) -> Point:
        p = Point(np.asarray(coords, dtype=float))
        if p.dim != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {p.dim}")
        return p

    def tangent(self, base, components) -> Tangent:
        b = base if isinstance(base, Point) else self.point(base)
        return Tangent(b, np.asarray(components, dtype=float))

    def dualized(self) -> "ManifoldModel":
        """The same manifold with the two connections swapped.

        Each connection keeps its plane section and its contraction kernel.
        The reference divergence, when present, is reversed accordingly: on a
        dually flat model the canonical divergence of the swapped structure is
        the original one with its arguments exchanged. A self-dual model is returned as it is,
        since swapping two identical connections changes nothing.
        """
        if self.is_self_dual:
            return self
        oracle = self.oracle_fn
        return replace(
            self,
            name=self.name + "*",
            spec_string=self.spec_string + "*",
            christoffel_fns={k.dual: f for k, f in self.christoffel_fns.items()},
            contraction_fns={k.dual: f for k, f in self.contraction_fns.items()},
            oracle_fn=None if oracle is None else lambda p, q: oracle(q, p),
            plane_sections={k.dual: c for k, c in self.plane_sections.items()},
        )

    def convert_coords(self, coords, system: str) -> np.ndarray:
        """Convert externally supplied coordinates into the working chart."""
        coords = np.asarray(coords, dtype=float)
        if system == "chart":
            return coords
        try:
            return self.coord_converters[system](coords)
        except KeyError:
            raise InvalidModelSpec(
                f"{self.spec_string} does not accept '{system}' coordinates"
            ) from None

    def __repr__(self):
        return f"ManifoldModel({self.spec_string})"


# ---------------------------------------------------------------------------
# categorical helpers (natural chart <-> mixture probabilities)
# ---------------------------------------------------------------------------


def natural_to_mixture(theta: np.ndarray) -> np.ndarray:
    """Head probabilities (p_1..p_n) of categorical natural-chart points (..., n)."""
    return _full_probs_batch(np.atleast_1d(np.asarray(theta, dtype=float)))[..., :-1]


def mixture_to_natural(probs_head: np.ndarray) -> np.ndarray:
    """Exact log-ratio chart map; probs_head are the first n probabilities."""
    p = np.atleast_1d(np.asarray(probs_head, dtype=float))
    tail = 1.0 - p.sum()
    if not (tail > 0 and np.all(p > 0)):  # also refuses NaN
        raise InvalidModelSpec("mixture coordinates must be strictly positive with sum < 1")
    return np.log(p) - math.log(tail)


def _full_probs_batch(theta: np.ndarray) -> np.ndarray:
    """(..., n) natural coordinates -> (..., n+1) probability vectors, stably."""
    z = np.concatenate([theta, np.zeros(theta.shape[:-1] + (1,))], axis=-1)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _mixture_full_probs(eta: np.ndarray) -> np.ndarray:
    """(..., n) head probabilities -> (..., n+1) probability vectors."""
    tail = 1.0 - eta.sum(axis=-1, keepdims=True)
    return np.concatenate([eta, tail], axis=-1)


# ---------------------------------------------------------------------------
# builtin factories
# ---------------------------------------------------------------------------

_MIN_PROB = 1e-3  # simplex margin keeping the Fisher metric well conditioned


def _zero_gamma(X):
    """Symbols of a connection flat in the working chart."""
    return np.zeros((X.shape[0],) + X.shape[1:] * 3)


def _make_euclidean(n: int) -> ManifoldModel:
    eye = np.eye(n)

    def metric(X):
        return np.broadcast_to(eye, (X.shape[0], n, n)).copy()

    def domain(X):
        return np.ones(X.shape[0], dtype=bool)

    def oracle(p, q):
        d = q - p
        return 0.5 * (d[..., None, :] @ d[..., :, None])[..., 0, 0]  # d @ d's BLAS dot, stacked

    return ManifoldModel(
        name="euclidean",
        dim=n,
        params=(n,),
        spec_string=f"euclidean:{n}",
        chart="Cartesian coordinates on R^n",
        metric_fn=metric,
        christoffel_fns={ConnectionKind.PRIMAL: _zero_gamma, ConnectionKind.DUAL: _zero_gamma},
        domain_fn=domain,
        safe_box=np.array([[-1.0, 1.0]] * n),
        oracle_fn=oracle,
        plane_sections={ConnectionKind.PRIMAL: WORKING_CHART, ConnectionKind.DUAL: WORKING_CHART},
        constant_curvature=0.0,
    )


_SPHERE_CAP = 0.1  # polar exclusion keeping the chart nondegenerate

# Field-evaluation collars: trial geodesic shots may evaluate the fields far
# outside the domain, where a chart would degenerate or blow up. Clipping the
# coordinates entering the field formulas at bounds strictly outside the
# domain keeps those evaluations finite and non-singular without altering any
# in-domain value.
_SPHERE_COLLAR = 0.02
_CAT_THETA_COLLAR = 30.0
_GAUSS_T2_COLLAR = -0.0125
_GAUSS_T1_COLLAR = 100.0
_ALPHA_PROB_COLLAR = 2.5e-4


def _make_sphere(radius: float) -> ManifoldModel:
    r2 = radius * radius

    def theta_of(X):
        return np.clip(X[:, 0], _SPHERE_COLLAR, math.pi - _SPHERE_COLLAR)

    def metric(X):
        m = X.shape[0]
        g = np.zeros((m, 2, 2))
        g[:, 0, 0] = r2
        g[:, 1, 1] = r2 * np.sin(theta_of(X)) ** 2
        return g

    def gamma(X):
        # Levi-Civita symbols of the round metric, lower index form
        m = X.shape[0]
        th = theta_of(X)
        sc = r2 * np.sin(th) * np.cos(th)
        G = np.zeros((m, 2, 2, 2))
        G[:, 0, 1, 1] = sc
        G[:, 1, 0, 1] = sc
        G[:, 1, 1, 0] = -sc
        return G

    def contraction(X, U, W):
        # -g^{-1} Gamma(U, W) of the symbols above; the radius cancels
        th = theta_of(X)
        s, c = np.sin(th), np.cos(th)
        a = np.empty_like(U)
        a[:, 0] = s * c * U[:, 1] * W[:, 1]
        a[:, 1] = -(c / s) * (U[:, 0] * W[:, 1] + U[:, 1] * W[:, 0])
        return a

    def domain(X):
        return (X[:, 0] > _SPHERE_CAP) & (X[:, 0] < math.pi - _SPHERE_CAP)

    return ManifoldModel(
        name="sphere",
        dim=2,
        params=(2, radius),
        spec_string=f"sphere:2:{radius:g}",
        chart="spherical chart (theta, phi), polar caps excluded",
        metric_fn=metric,
        christoffel_fns={ConnectionKind.PRIMAL: gamma, ConnectionKind.DUAL: gamma},
        contraction_fns={ConnectionKind.PRIMAL: contraction, ConnectionKind.DUAL: contraction},
        domain_fn=domain,
        safe_box=np.array([[math.pi / 2 - 0.55, math.pi / 2 + 0.55], [-0.55, 0.55]]),
        round_sphere=RoundSphere(radius, spherical_to_unit),
        constant_curvature=1.0 / r2,
    )


def _categorical_third_derivative(P: np.ndarray) -> np.ndarray:
    """Third derivatives of the log-partition; P holds head probabilities (m, n)."""
    _, n = P.shape
    T = 2.0 * np.einsum("mi,mj,mk->mijk", P, P, P)
    for i in range(n):
        pip = P * P[:, i : i + 1]
        T[:, i, i, :] -= pip
        T[:, i, :, i] -= pip
        T[:, :, i, i] -= pip
        T[:, i, i, i] += P[:, i]
    return T


def _make_categorical(n: int) -> ManifoldModel:
    def head_probs(X):
        return _full_probs_batch(np.clip(X, -_CAT_THETA_COLLAR, _CAT_THETA_COLLAR))[:, :n]

    def metric(X):
        P = head_probs(X)
        return np.einsum("mi,ij->mij", P, np.eye(n)) - np.einsum("mi,mj->mij", P, P)

    def gamma_star(X):
        return _categorical_third_derivative(head_probs(X))

    def domain(X):
        return _full_probs_batch(X).min(axis=1) >= _MIN_PROB

    def natural(E):
        # off the open simplex a logarithm is NaN or infinite: outside the domain
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(E) - np.log(1.0 - E.sum(axis=1, keepdims=True))

    def oracle(theta_p, theta_q):
        # reference divergence oriented to match the primal canonical
        # divergence from p to q in this chart (see module docstring)
        pp, pq = _full_probs_batch(theta_p), _full_probs_batch(theta_q)
        return np.sum(pq * (np.log(pq) - np.log(pp)), axis=-1)

    return ManifoldModel(
        name="categorical",
        dim=n,
        params=(n,),
        spec_string=f"categorical:{n}",
        chart="natural (log-ratio) coordinates theta",
        metric_fn=metric,
        christoffel_fns={ConnectionKind.PRIMAL: _zero_gamma, ConnectionKind.DUAL: gamma_star},
        domain_fn=domain,
        safe_box=np.array([[-1.5, 1.5]] * n),
        oracle_fn=oracle,
        plane_sections={
            ConnectionKind.PRIMAL: WORKING_CHART,
            ConnectionKind.DUAL: affine_chart(natural_to_mixture, natural, metric),
        },
        coord_converters={
            "mixture": lambda c: mixture_to_natural(c),
            "natural": lambda c: np.asarray(c, dtype=float),
        },
        constant_curvature=0.0,
    )


# conditioning guards: theta2 bounded away from zero and from -inf, where the
# metric underflows to singular; theta1 bounded
_GAUSS_T2_MAX = -0.025
_GAUSS_T2_MIN = -50.0
_GAUSS_T1_MAX = 50.0


def _make_gaussian1d() -> ManifoldModel:
    def chart_of(X):
        t1 = np.clip(X[:, 0], -_GAUSS_T1_COLLAR, _GAUSS_T1_COLLAR)
        t2 = np.clip(X[:, 1], -_GAUSS_T1_COLLAR, _GAUSS_T2_COLLAR)
        return t1, t2

    def metric(X):
        t1, t2 = chart_of(X)
        m = X.shape[0]
        g = np.zeros((m, 2, 2))
        g[:, 0, 0] = -1.0 / (2.0 * t2)
        g[:, 0, 1] = g[:, 1, 0] = t1 / (2.0 * t2 * t2)
        g[:, 1, 1] = -(t1 * t1) / (2.0 * t2**3) + 1.0 / (2.0 * t2 * t2)
        return g

    def gamma_star(X):
        # third derivatives of the Gaussian log-partition
        t1, t2 = chart_of(X)
        m = X.shape[0]
        T = np.zeros((m, 2, 2, 2))
        t112 = 1.0 / (2.0 * t2 * t2)
        t122 = -t1 / t2**3
        t222 = 1.5 * t1 * t1 / t2**4 - 1.0 / t2**3
        T[:, 0, 0, 1] = T[:, 0, 1, 0] = T[:, 1, 0, 0] = t112
        T[:, 0, 1, 1] = T[:, 1, 0, 1] = T[:, 1, 1, 0] = t122
        T[:, 1, 1, 1] = t222
        return T

    def domain(X):
        t2_ok = (_GAUSS_T2_MIN < X[:, 1]) & (X[:, 1] < _GAUSS_T2_MAX)
        return t2_ok & (np.abs(X[:, 0]) < _GAUSS_T1_MAX)

    def natural(E):
        # a variance that is not positive maps to theta2 >= 0 or to a
        # non-finite point: outside the domain
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            var = E[:, 1] - E[:, 0] * E[:, 0]
            return np.stack([E[:, 0] / var, -0.5 / var], axis=1)

    def moments(theta):
        mu = -theta[..., 0] / (2.0 * theta[..., 1])
        var = -1.0 / (2.0 * theta[..., 1])
        return mu, var

    def expectation(X):
        mu, var = moments(X)
        return np.stack([mu, mu * mu + var], axis=1)

    def oracle(theta_p, theta_q):
        mu_p, var_p = moments(theta_p)
        mu_q, var_q = moments(theta_q)
        # d * d: a numpy scalar's d ** 2 can differ from a batch row's
        d = mu_q - mu_p
        return 0.5 * np.log(var_p / var_q) + (var_q + d * d) / (2.0 * var_p) - 0.5

    return ManifoldModel(
        name="gaussian1d",
        dim=2,
        params=(2,),
        spec_string="gaussian1d:2",
        chart="natural parameters (theta1, theta2), theta2 < 0",
        metric_fn=metric,
        christoffel_fns={ConnectionKind.PRIMAL: _zero_gamma, ConnectionKind.DUAL: gamma_star},
        domain_fn=domain,
        safe_box=np.array([[-1.0, 1.0], [-1.0, -0.4]]),
        oracle_fn=oracle,
        plane_sections={
            ConnectionKind.PRIMAL: WORKING_CHART,
            ConnectionKind.DUAL: affine_chart(expectation, natural, metric),
        },
        constant_curvature=0.0,
    )


def _make_alpha_categorical(n: int, alpha: float) -> ManifoldModel:
    def clipped_probs(X):
        eta = np.clip(X, _ALPHA_PROB_COLLAR, None)
        tail = np.clip(1.0 - eta.sum(axis=1, keepdims=True), _ALPHA_PROB_COLLAR, None)
        return eta, tail

    def metric(X):
        eta, tail = clipped_probs(X)
        m = X.shape[0]
        g = np.empty((m, n, n))
        g[:] = (1.0 / tail)[:, :, None]
        idx = np.arange(n)
        g[:, idx, idx] += 1.0 / eta
        return g

    def amari_chentsov(X):
        eta, tail = clipped_probs(X)
        m = X.shape[0]
        T = np.empty((m, n, n, n))
        T[:] = (-1.0 / tail**2)[:, :, None, None]
        idx = np.arange(n)
        T[:, idx, idx, idx] += 1.0 / eta**2
        return T

    def gamma_factory(sign):
        # lower-index a-connection symbols: -(1 + sign * a)/2 times the
        # cubic tensor (the Levi-Civita part is -T/2 on the simplex)
        coeff = -(1.0 + sign * alpha) / 2.0

        def gamma(X):
            return coeff * amari_chentsov(X)

        def contraction(X, U, W):
            # -Gamma(U, W) = D + C 1 with D = -c U W / eta^2, C = c (sum U)(sum W) / t^2;
            # g^{-1} = diag(eta) - eta eta^T / s, s = t + sum eta (Sherman-Morrison),
            # takes it to eta (D + (C t - eta . D) / s): C enters only as C t, so
            # no 1/t^2 term is cancelled when the tail probability t is small
            eta, tail = clipped_probs(X)
            D = -coeff * U * W / eta**2
            Ct = coeff * U.sum(axis=1, keepdims=True) * W.sum(axis=1, keepdims=True) / tail
            s = tail + eta.sum(axis=1, keepdims=True)
            return eta * (D + (Ct - (eta * D).sum(axis=1, keepdims=True)) / s)

        return gamma, contraction

    def section(beta):
        # the a-representation R = p^beta over the full probability vector, with
        # beta = (1 -+ a)/2, on N(R) = (sum R^(1/beta))^beta = 1; dN at R is
        # D -> sum p^(1 - beta) D
        def to_rep(X):
            return _mixture_full_probs(X) ** beta

        def from_rep(R):
            return R[:, :n] ** (1.0 / beta)

        def push(X, V):
            dp = np.concatenate([V, -V.sum(axis=1, keepdims=True)], axis=1)
            return beta * _mixture_full_probs(X) ** (beta - 1.0) * dp

        def pull(X, W):
            return (W[:, :n] * X ** (1.0 - beta)) / beta

        def normalizer(C):
            # NaN off the open positive cone, so a section that leaves it is outside
            N = (C ** (1.0 / beta)).sum(axis=-1) ** beta
            return np.where((C > 0.0).all(axis=-1), N, np.nan)

        def differential(X, D):
            return (_mixture_full_probs(X) ** (1.0 - beta) * D).sum(axis=-1)

        return PlaneSection(to_rep, from_rep, push, pull, normalizer, differential)

    primal, primal_contraction = gamma_factory(+1.0)
    primal_section = section((1.0 - alpha) / 2.0)
    # a = 0 is the Levi-Civita connection, which is its own dual
    dual, dual_contraction, dual_section = (
        (primal, primal_contraction, primal_section)
        if alpha == 0.0
        else (*gamma_factory(-1.0), section((1.0 + alpha) / 2.0))
    )

    def domain(X):
        return _mixture_full_probs(X).min(axis=1) >= _MIN_PROB

    def sqrt_probs(X):
        return np.sqrt(_mixture_full_probs(X))

    return ManifoldModel(
        name="alpha_categorical",
        dim=n,
        params=(n, alpha),
        spec_string=f"alpha_categorical:{n}:{alpha:g}",
        chart="mixture coordinates (head probabilities)",
        metric_fn=metric,
        christoffel_fns={ConnectionKind.PRIMAL: primal, ConnectionKind.DUAL: dual},
        contraction_fns={
            ConnectionKind.PRIMAL: primal_contraction,
            ConnectionKind.DUAL: dual_contraction,
        },
        plane_sections={ConnectionKind.PRIMAL: primal_section, ConnectionKind.DUAL: dual_section},
        domain_fn=domain,
        safe_box=np.array([[0.3 / n, 0.9 / n]] * n),
        coord_converters={
            "mixture": lambda c: np.asarray(c, dtype=float),
            "natural": lambda c: natural_to_mixture(c),
        },
        # p -> 2 sqrt(p) carries the Fisher metric onto the sphere of radius 2
        round_sphere=RoundSphere(2.0, sqrt_probs) if alpha == 0.0 else None,
        constant_curvature=(1.0 - alpha * alpha) / 4.0,
    )


# ---------------------------------------------------------------------------
# catalog front door
# ---------------------------------------------------------------------------

MAX_DIM = 100  # keeps one point's n^3 symbol array at 8 MB

_SCHEMAS = {
    "euclidean": {
        "params": "euclidean:<dim>",
        "chart": "Cartesian coordinates on R^n",
        "domain": "all of R^n",
        "dually_flat": True,
    },
    "sphere": {
        "params": "sphere:2[:radius]   (radius > 0, default 1)",
        "chart": "spherical chart (theta, phi)",
        "domain": f"{_SPHERE_CAP} < theta < pi - {_SPHERE_CAP}",
        "dually_flat": False,
    },
    "categorical": {
        "params": "categorical:<dim>",
        "chart": "natural (log-ratio) coordinates",
        "domain": f"all n+1 outcome probabilities >= {_MIN_PROB}",
        "dually_flat": True,
    },
    "gaussian1d": {
        "params": "gaussian1d[:2]",
        "chart": "natural parameters (theta1, theta2)",
        "domain": f"{_GAUSS_T2_MIN:g} < theta2 < {_GAUSS_T2_MAX}, |theta1| < {_GAUSS_T1_MAX:g}",
        "dually_flat": True,
    },
    "alpha_categorical": {
        "params": "alpha_categorical:<dim>:<alpha>   (alpha in (-1, 1))",
        "chart": "mixture coordinates (head probabilities)",
        "domain": f"all n+1 probabilities >= {_MIN_PROB}",
        "dually_flat": False,
    },
}


def builtin_names() -> list:
    return list(_SCHEMAS)


def builtin_schemas() -> dict:
    return {k: dict(v) for k, v in _SCHEMAS.items()}


def make_builtin(name: str, params: Sequence[float]) -> ManifoldModel:
    """Construct a catalog model; raises InvalidModelSpec on bad input."""
    params = list(params)

    def dim_param(default=None):
        if not params:
            if default is None:
                raise InvalidModelSpec(f"{name} requires a dimension parameter")
            return default
        d = params[0]
        if not float(d).is_integer() or d < 1:
            raise InvalidModelSpec(f"dimension must be a positive integer, got {d!r}")
        if d > MAX_DIM:
            raise InvalidModelSpec(f"dimension must be at most {MAX_DIM}, got {d!r}")
        return int(d)

    if name in ("euclidean", "categorical"):
        n = dim_param()
        if len(params) > 1:
            raise InvalidModelSpec(f"{name} takes a single dimension parameter")
        return (_make_euclidean if name == "euclidean" else _make_categorical)(n)

    if name == "sphere":
        n = dim_param(default=2)
        if n != 2:
            raise InvalidModelSpec("only the 2-sphere is supported")
        radius = float(params[1]) if len(params) > 1 else 1.0
        # the metric scales by radius^2: zero, subnormal or infinite breaks it
        if not (radius > 0.0 and sys.float_info.min <= radius * radius < math.inf):
            raise InvalidModelSpec("sphere radius must be positive with a finite, normal square")
        if len(params) > 2:
            raise InvalidModelSpec("sphere takes (dim, radius)")
        return _make_sphere(radius)

    if name == "gaussian1d":
        n = dim_param(default=2)
        if n != 2 or len(params) > 1:
            raise InvalidModelSpec("gaussian1d is two-dimensional")
        return _make_gaussian1d()

    if name == "alpha_categorical":
        n = dim_param()
        if len(params) < 2:
            raise InvalidModelSpec("alpha_categorical requires (dim, alpha)")
        alpha = float(params[1])
        if not (-1.0 < alpha < 1.0):
            raise InvalidModelSpec(f"alpha must lie in (-1, 1), got {alpha}")
        if len(params) > 2:
            raise InvalidModelSpec("alpha_categorical takes (dim, alpha)")
        return _make_alpha_categorical(n, alpha)

    raise InvalidModelSpec(f"unknown builtin {name!r}; known: {', '.join(_SCHEMAS)}")


def parse_model_spec(spec) -> ManifoldModel:
    """Parse 'name:dim[:param...]' strings or {'name':..., 'params': [...]} dicts."""
    if isinstance(spec, dict):
        if "name" not in spec:
            raise InvalidModelSpec("model object requires a 'name' field")
        name, raw = spec["name"], spec.get("params", [])
        if not isinstance(raw, list):
            raise InvalidModelSpec(f"model object 'params' must be a list, got {raw!r}")
    elif isinstance(spec, str) and spec:
        name, *raw = spec.split(":")
    else:
        raise InvalidModelSpec(f"bad model spec: {spec!r}")
    try:
        if any(isinstance(tok, (bool, np.bool_)) for tok in raw):
            raise TypeError  # float(True) is 1.0, but a JSON true or false is no number
        params = [float(tok) for tok in raw]
    except (TypeError, ValueError):
        raise InvalidModelSpec(f"non-numeric parameter in model spec {spec!r}") from None
    return make_builtin(name, params)
