"""Lorentz (hyperboloid) model of hyperbolic space.

The n-dimensional hyperbolic space of curvature -kappa (kappa > 0) is realized
as the upper sheet of a two-sheeted hyperboloid in R^{n+1}:

    H = {x : <x, x>_L = -1/kappa, x_0 > 0}

with the Lorentzian inner product

    <x, y>_L = -x_0 y_0 + sum_i x_i y_i.

Each formula lives in one row function over [m, n+1] stacks of ambient
vectors, with one kappa per row or one for all rows: ``inner_rows``,
``lift_time``/``lift_rows``, ``distance_rows``, ``exp_map_rows``,
``log_map_rows`` and ``tangent_project_rows``. ``CurvedPoint`` and
``TangentVector`` validate single points and vectors at the API edge (NaN and
infinities fail); the per-object functions (``lift``, ``geodesic_distance``,
``exp_map``, ``log_map``, ``tangent_project``) check their arguments and call
the row functions with n = 1.

Distance and log map work from y - x with its time part taken from the
spatial parts, so neither subtracts two large times and near-coincident
points keep their distance at any radius. The only guard is
max(||x - y||^2_L, 0); exp_map uses its series limit below a Lorentz norm of
1e-8. Everything is computed in float64, is a pure function of its inputs and
is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Constraint tolerance at float64; scaled by spatial magnitude where points
# are validated.
MEMBERSHIP_TOL = 1e-9

# Below this Lorentz norm exp_map switches to its series limit p + v, whose
# coefficients cosh and sinh(x)/x already round to 1 there.
_SERIES_EPS = 1e-8


def _positive(name: str, value, message: str = "") -> None:
    """Raise ValueError(``message`` or "<name> must be finite and positive") unless 0 < value < inf; NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(message or f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class CurvedPoint:
    """A point on the hyperboloid of curvature -kappa.

    ``time`` is the 0th (temporal) coordinate, ``spatial`` the remaining n
    coordinates. Valid points have a finite, positive kappa and time and satisfy
    <x,x>_L = -1/kappa within a tolerance scaled by the spatial magnitude.
    """

    time: float
    spatial: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "spatial", np.asarray(self.spatial, dtype=np.float64))
        _positive("kappa", self.kappa)
        _positive("time component", self.time)
        sq = float(self.spatial @ self.spatial)
        residual = abs(-self.time * self.time + sq + 1.0 / self.kappa)
        _positive("membership slack", MEMBERSHIP_TOL * max(1.0, sq) - residual,
                  f"point violates hyperboloid constraint: |<x,x>_L + 1/kappa| = {residual:.3e}")

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.time], self.spatial))

    @property
    def dim(self) -> int:
        return self.spatial.shape[0]


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector Lorentz-orthogonal to its base point."""

    time: float
    spatial: np.ndarray
    base: CurvedPoint

    def __post_init__(self):
        object.__setattr__(self, "spatial", np.asarray(self.spatial, dtype=np.float64))
        if self.spatial.shape != self.base.spatial.shape:
            raise ValueError("tangent vector dimension does not match base point")
        ortho = abs(lorentz_inner(self.base.as_vector(), v := self.as_vector()))
        _positive("orthogonality slack", MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(v))) - ortho,
                  f"vector is not orthogonal to its base point: <p,v>_L = {ortho:.3e}")

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.time], self.spatial))


# ---------------------------------------------------------------------------
# Row functions: x, y, p, q, v are [m, n+1] stacks of ambient vectors and
# kappa is one value or one per row.
# ---------------------------------------------------------------------------

def inner_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise <x_i, y_i>_L."""
    return np.einsum("ij,ij->i", x[:, 1:], y[:, 1:]) - x[:, 0] * y[:, 0]


def lift_time(z: np.ndarray, kappa) -> np.ndarray:
    """Row-wise ``lift`` time coordinate, sqrt(||z_i||^2 + 1/kappa), of a [..., n, d] stack."""
    return np.sqrt(np.einsum("...ij,...ij->...i", z, z) + 1.0 / kappa)


def lift_rows(z: np.ndarray, kappa) -> np.ndarray:
    """The hyperboloid points whose spatial parts are the rows of the [n, d] stack z."""
    return np.concatenate((lift_time(z, kappa)[:, None], z), axis=1)


def tangent_project_rows(p: np.ndarray, v: np.ndarray, kappa) -> np.ndarray:
    """Row-wise v + kappa <p,v>_L p, which is Lorentz-orthogonal to p."""
    return v + (kappa * inner_rows(p, v))[:, None] * p


def _tangent_norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(inner_rows(v, v), 0.0))


def exp_map_rows(p: np.ndarray, v: np.ndarray, kappa) -> np.ndarray:
    """Row-wise exp_p(v) = cosh(sqrt(kappa)||v||) p + sinh(sqrt(kappa)||v||)/(sqrt(kappa)||v||) v.

    ||v|| is the Lorentz norm; below 1e-8 the series limit p + v is used. The
    result is re-lifted from its spatial part, which keeps it on the
    hyperboloid at large ||v||.
    """
    nv = _tangent_norm(v)
    series = nv < _SERIES_EPS
    a = np.where(series, 1.0, np.sqrt(kappa) * nv)
    coef_p = np.where(series, 1.0, np.cosh(a))
    coef_v = np.where(series, 1.0, np.sinh(a) / a)
    w = coef_p[:, None] * p + coef_v[:, None] * v
    return lift_rows(w[:, 1:], kappa)


def _unit(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows z / r, with zero rows left at zero."""
    return np.divide(z, r[:, None], out=np.zeros_like(z), where=r[:, None] > 0)


def _difference(x: np.ndarray, y: np.ndarray, kappa) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """y - x for hyperboloid rows as its time part dt [n] and spatial part dz [n, d], and
    max(||y - x||^2_L, 0).

    With s = z_x + z_y and T = t_x + t_y, dt = dz.s / T equals t_y - t_x
    without subtracting two large times. ||y - x||^2_L = ||dz||^2 - dt^2 is
    then formed from nonnegative terms. Near pairs (||dz||^2 < 2 t_x t_y)
    split dz across and along s: (||dz_across||^2 + 4q/kappa) / (1 - q) with
    q = dt^2 / ||s||^2 <= 1/2. Far pairs split it into radius and angle:
    (2/kappa) u^2 / (sqrt(1 + u^2) + 1) + r_x r_y ||z_x/r_x - z_y/r_y||^2
    with r = ||z|| and u = (r_x^2 - r_y^2) / (r_x t_y + r_y t_x), the sinh of
    the difference of the two points' scaled distances from the apex.
    Swapping x and y negates dz, dt and u exactly, so the result is exactly
    symmetric.
    """
    dz, s = y[:, 1:] - x[:, 1:], x[:, 1:] + y[:, 1:]
    along = np.einsum("ij,ij->i", dz, s)
    dt = along / (x[:, 0] + y[:, 0])
    ss = np.einsum("ij,ij->i", s, s)
    is_near = np.einsum("ij,ij->i", dz, dz) < 2.0 * x[:, 0] * y[:, 0]
    across = dz - np.divide(along, ss, out=np.zeros_like(ss), where=ss > 0)[:, None] * s
    q = np.divide(dt * dt, ss, out=np.zeros_like(ss), where=is_near & (ss > 0))
    near = (np.einsum("ij,ij->i", across, across) + 4.0 / kappa * q) / (1.0 - q)
    r_x, r_y = np.linalg.norm(x[:, 1:], axis=1), np.linalg.norm(y[:, 1:], axis=1)
    apart = r_x * y[:, 0] + r_y * x[:, 0]  # 0 only for two apex points, which are near
    u = np.divide(-along, apart, out=np.zeros_like(apart), where=apart > 0)
    turn = _unit(y[:, 1:], r_y) - _unit(x[:, 1:], r_x)
    far = 2.0 / kappa * u * u / (np.sqrt(1.0 + u * u) + 1.0) + r_x * r_y * np.einsum(
        "ij,ij->i", turn, turn)
    return dt, dz, np.maximum(np.where(is_near, near, far), 0.0)


def _distance(sq: np.ndarray, kappa) -> np.ndarray:
    """Geodesic distance from the squared chord ||x - y||^2_L."""
    sk = np.sqrt(kappa)
    return 2.0 / sk * np.arcsinh(sk * np.sqrt(sq) / 2.0)


def distance_rows(x: np.ndarray, y: np.ndarray, kappa) -> np.ndarray:
    """Row-wise geodesic distance (2/sqrt(kappa)) asinh(sqrt(kappa) ||x - y||_L / 2).

    Equal to arccosh(-kappa <x,y>_L) / sqrt(kappa), without its cancellation
    near 1 for close points.
    """
    return _distance(_difference(x, y, kappa)[2], kappa)


def log_map_rows(p: np.ndarray, q: np.ndarray, kappa) -> np.ndarray:
    """Row-wise log_p(q) = (sqrt(kappa) d / sinh(sqrt(kappa) d)) ((q - p) - (kappa/2) ||q - p||^2_L p).

    d is the geodesic distance, so the Lorentz norm of the result is d. The
    factor takes its limit 1 at d = 0.
    """
    dt, dz, sq = _difference(p, q, kappa)
    a = np.sqrt(kappa) * _distance(sq, kappa)
    coef = np.divide(a, np.sinh(a), out=np.ones_like(a), where=a > 0)
    w = np.concatenate((dt[:, None], dz), axis=1) - (kappa / 2.0 * sq)[:, None] * p
    return coef[:, None] * w


# ---------------------------------------------------------------------------
# Per-object API: validates its arguments and calls the row functions.
# ---------------------------------------------------------------------------

def lorentz_inner(x: np.ndarray, y: np.ndarray) -> float:
    """<x, y>_L = -x_0 y_0 + sum_{i>=1} x_i y_i for (n+1)-vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ValueError(f"expected equal (n+1)-vectors with n >= 1, got {x.shape} and {y.shape}")
    return float(inner_rows(x[None], y[None])[0])


def lift(z: np.ndarray, kappa: float) -> CurvedPoint:
    """Lift spatial coordinates onto the hyperboloid: x_0 = sqrt(||z||^2 + 1/kappa)."""
    z = np.asarray(z, dtype=np.float64)
    _positive("kappa", kappa)
    if not np.all(np.isfinite(z)):
        raise ValueError("spatial coordinates must be finite")
    return CurvedPoint(time=float(lift_time(z[None], kappa)[0]), spatial=z, kappa=kappa)


def apex(dim: int, kappa: float) -> CurvedPoint:
    """The point with zero spatial part, time = 1/sqrt(kappa)."""
    return lift(np.zeros(dim), kappa)


def geodesic_distance(x: CurvedPoint, y: CurvedPoint) -> float:
    """d(x,y) = (1/sqrt(kappa)) * arccosh(-kappa * <x,y>_L), see ``distance_rows``.

    Identical points are exactly 0 apart.
    """
    if x.kappa != y.kappa:
        raise ValueError(f"curvature mismatch: {x.kappa} != {y.kappa}")
    return float(distance_rows(x.as_vector()[None], y.as_vector()[None], x.kappa)[0])


def tangent_project(p: CurvedPoint, v: np.ndarray) -> TangentVector:
    """Project an ambient vector onto the tangent space at p.

    Returns v + kappa * <p,v>_L * p, which is Lorentz-orthogonal to p. Makes
    arbitrary ambient vectors valid exp_map inputs.
    """
    v = np.asarray(v, dtype=np.float64)
    pv = p.as_vector()
    if v.shape != pv.shape:
        raise ValueError(f"expected a {pv.shape[0]}-vector, got shape {v.shape}")
    w = tangent_project_rows(pv[None], v[None], p.kappa)[0]
    return TangentVector(time=float(w[0]), spatial=w[1:], base=p)


def exp_map(p: CurvedPoint, v: TangentVector) -> CurvedPoint:
    """Move p along the geodesic with initial velocity v (see ``exp_map_rows``).

    A zero tangent returns p exactly.
    """
    if v.base is not p and not (
        v.base.kappa == p.kappa
        and v.base.time == p.time
        and np.array_equal(v.base.spatial, p.spatial)
    ):
        raise ValueError("tangent vector is not based at the given point")
    w = exp_map_rows(p.as_vector()[None], v.as_vector()[None], p.kappa)[0]
    return lift(w[1:], p.kappa)


def log_map(p: CurvedPoint, q: CurvedPoint) -> TangentVector:
    """Initial velocity of the geodesic from p to q; inverse of exp_map.

    The Lorentz norm of the result equals geodesic_distance(p, q); see
    ``log_map_rows``.
    """
    if p.kappa != q.kappa:
        raise ValueError(f"curvature mismatch: {p.kappa} != {q.kappa}")
    w = log_map_rows(p.as_vector()[None], q.as_vector()[None], p.kappa)[0]
    return TangentVector(time=float(w[0]), spatial=w[1:], base=p)


# ---------------------------------------------------------------------------
# Property suite (shared by the geom-check CLI and the acceptance tests)
#
# _cases draws each case as one rng.integers call for its dimension, one
# rng.random block for its uniforms, which _uniform maps as rng.uniform would
# (the same stream and values as a per-case loop of rng.uniform calls), and for
# exp-log one rng.standard_normal block; nothing is redrawn. Each check maps and
# checks all cases of one dimension with one call per row function.
# ---------------------------------------------------------------------------

# Cases draw their dimension from 1 to this.
_MAX_DIM = 5


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


def _uniform(r: np.ndarray, low: float, high: float) -> np.ndarray:
    """The rng.uniform(low, high) draws that the rng.random draws r stand for, bit for bit."""
    return low + (high - low) * r


def _points(z: np.ndarray, length: np.ndarray, kappa) -> np.ndarray:
    """Lifts of the rows z / ||z|| * length; a zero direction gives the apex."""
    return lift_rows(_unit(z, np.linalg.norm(z, axis=1)) * length[:, None], kappa)


def _cases(seed: int, cases: int, width, normals: int = 0):
    """The draws of ``cases`` cases: per case a dimension, rng.random(width(dim)) and, if
    ``normals``, rng.standard_normal(dim + normals).

    Returns dims [n] and, for each dimension drawn, (dim, its case indices,
    the uniforms [m, width(dim)], the normals [m, dim + normals]).
    """
    rng = np.random.default_rng(seed)
    dims, uniforms, gauss = [], [[] for _ in range(_MAX_DIM + 1)], [[] for _ in range(_MAX_DIM + 1)]
    for _ in range(max(cases, 0)):
        dims.append(dim := int(rng.integers(1, _MAX_DIM + 1)))
        uniforms[dim].append(rng.random(width(dim)))
        if normals:
            gauss[dim].append(rng.standard_normal(dim + normals))
    dims = np.array(dims, dtype=int)
    return dims, [(dim, np.flatnonzero(dims == dim), np.array(uniforms[dim]), np.array(gauss[dim]))
                  for dim in range(1, _MAX_DIM + 1) if uniforms[dim]]


def _failure(name: str, bad: np.ndarray, dims: np.ndarray, kappa: np.ndarray, what) -> PropertyResult:
    """The failed result naming the first failing case; ``what(i)`` says how case i failed."""
    i = int(np.argmax(bad))
    return PropertyResult(name, False, f"case {i} (dim {dims[i]}, kappa={kappa[i]:.3f}): {what(i)}")


def check_hyperboloid_closure(seed: int = 42, cases: int = 1000) -> PropertyResult:
    """lift(z, kappa) lands on the hyperboloid for ||z|| <= 10, kappa in [0.25, 4]."""
    dims, groups = _cases(seed, cases, lambda dim: dim + 2)  # direction, length, kappa
    kappa, resid, tol = np.zeros(len(dims)), np.zeros(len(dims)), np.ones(len(dims))
    for dim, idx, u, _ in groups:
        k = kappa[idx] = _uniform(u[:, dim + 1], 0.25, 4.0)
        x = _points(_uniform(u[:, :dim], -1.0, 1.0), _uniform(u[:, dim], 0.0, 10.0), k)
        tol[idx] = 1e-8 * np.maximum(1.0, np.einsum("ij,ij->i", x[:, 1:], x[:, 1:]))
        resid[idx] = np.where(x[:, 0] > 0, np.abs(inner_rows(x, x) + 1.0 / k), np.inf)
    bad = ~(resid <= tol)
    if bad.any():
        return _failure("hyperboloid-closure", bad, dims, kappa, lambda i: f"residual {resid[i]:.3e}")
    worst = (resid / np.maximum(tol, 1e-300)).max(initial=0.0)
    return PropertyResult("hyperboloid-closure", True, f"{cases} cases, worst residual/tol {worst:.3e}")


def check_exp_log_inverse(seed: int = 43, cases: int = 1000) -> PropertyResult:
    """||log(p, exp(p, v)) - v|| <= 1e-6 * (1 + ||v||) for ||v|| <= 5."""
    # Uniforms: kappa, point direction, point length, norm; normals: the tangent direction.
    dims, groups = _cases(seed, cases, lambda dim: dim + 3, normals=1)
    kappa, norm, rel = np.zeros(len(dims)), np.zeros(len(dims)), np.zeros(len(dims))
    for dim, idx, u, direction in groups:
        k = kappa[idx] = _uniform(u[:, 0], 0.25, 4.0)
        norm[idx] = _uniform(u[:, dim + 2], 0.0, 5.0)
        p = _points(_uniform(u[:, 1:dim + 1], -1.0, 1.0), _uniform(u[:, dim + 1], 0.0, 3.0), k)
        v = tangent_project_rows(p, direction, k)
        v = v * (norm[idx] / _tangent_norm(v))[:, None]
        back = log_map_rows(p, exp_map_rows(p, v, k), k)
        rel[idx] = np.linalg.norm(back - v, axis=1) / (1.0 + norm[idx])
    bad = ~(rel <= 1e-6)
    if bad.any():
        return _failure("exp-log-inverse", bad, dims, kappa, lambda i: f"error {rel[i]:.3e} at ||v||={norm[i]:.3f}")
    return PropertyResult("exp-log-inverse", True, f"{cases} cases, worst rel error {rel.max(initial=0.0):.3e}")


_AXIOMS = ("symmetry violated", "d(p,p) != 0", "triangle inequality violated")


def _point_triples(seed: int, cases: int):
    """Per case a dimension, a kappa and three points: dims [n], kappa [n] and, for each
    dimension drawn, (its case indices, kappa, the three [m, dim+1] point stacks)."""
    dims, groups = _cases(seed, cases, lambda dim: 3 * dim + 4)  # kappa, then direction and length of each point
    kappa, triples = np.zeros(len(dims)), []
    for dim, idx, u, _ in groups:
        k = kappa[idx] = _uniform(u[:, 0], 0.25, 4.0)
        points = u[:, 1:].reshape(len(idx), 3, dim + 1)
        triples.append((idx, k, [_points(_uniform(points[:, j, :dim], -1.0, 1.0),
                                         _uniform(points[:, j, dim], 0.0, 3.0), k) for j in range(3)]))
    return dims, kappa, triples


def check_distance_axioms(seed: int = 44, cases: int = 1000) -> PropertyResult:
    """Symmetry (exact), d(p,p)=0, triangle inequality within 1e-8."""
    dims, kappa, triples = _point_triples(seed, cases)
    failed = np.zeros(len(dims), dtype=int)  # 1 + index into _AXIOMS of the first one violated
    for idx, k, (a, b, c) in triples:
        ab = distance_rows(a, b, k)
        violated = np.stack([
            ab != distance_rows(b, a, k),
            distance_rows(a, a, k) != 0.0,
            distance_rows(a, c, k) > ab + distance_rows(b, c, k) + 1e-8,
        ])
        failed[idx] = np.where(violated.any(axis=0), violated.argmax(axis=0) + 1, 0)
    if failed.any():
        return _failure("distance-axioms", failed > 0, dims, kappa, lambda i: _AXIOMS[failed[i] - 1])
    return PropertyResult("distance-axioms", True, f"{cases} random triples")


def check_inner_monotonicity(seed: int = 45, cases: int = 1000) -> PropertyResult:
    """Larger Lorentzian inner product implies smaller geodesic distance."""
    dims, kappa, triples = _point_triples(seed, cases)
    i1, i2 = np.zeros(len(dims)), np.zeros(len(dims))
    bad = np.zeros(len(dims), dtype=bool)
    for idx, k, (x, y1, y2) in triples:
        i1[idx], i2[idx] = inner_rows(x, y1), inner_rows(x, y2)
        bad[idx] = (i1[idx] > i2[idx]) & ~(distance_rows(x, y1, k) < distance_rows(x, y2, k))
    if bad.any():
        return _failure("inner-monotonicity", bad, dims, kappa,
                        lambda i: f"inner {i1[i]:.6f} > {i2[i]:.6f} but distance not smaller")
    return PropertyResult("inner-monotonicity", True, f"{cases} cases")


# Frozen oracle for the large-curvature regression: sqrt(kappa) * d for
# z1 = (0.3, -0.2), z2 = (-0.1, 0.4), kappa = 1e6, evaluated at 50-digit
# precision with mpmath.
_CURVATURE_LIMIT_Z1 = (0.3, -0.2)
_CURVATURE_LIMIT_Z2 = (-0.1, 0.4)
_CURVATURE_LIMIT_KAPPA = 1.0e6
_CURVATURE_LIMIT_EXPECTED = 13.156423476238627


def check_curvature_limit() -> PropertyResult:
    """At kappa = 1e6, sqrt(kappa)*d stays consistent with the arccosh form."""
    p = lift(np.array(_CURVATURE_LIMIT_Z1), _CURVATURE_LIMIT_KAPPA)
    q = lift(np.array(_CURVATURE_LIMIT_Z2), _CURVATURE_LIMIT_KAPPA)
    got = geodesic_distance(p, q) * math.sqrt(_CURVATURE_LIMIT_KAPPA)
    rel = abs(got - _CURVATURE_LIMIT_EXPECTED) / _CURVATURE_LIMIT_EXPECTED
    ok = rel < 1e-9
    return PropertyResult("curvature-limit", ok, f"sqrt(kappa)*d = {got:.12f}, rel error {rel:.3e}")


def run_property_suite(seed: int = 42, cases: int = 1000) -> list[PropertyResult]:
    return [
        check_hyperboloid_closure(seed, cases),
        check_exp_log_inverse(seed + 1, cases),
        check_distance_axioms(seed + 2, cases),
        check_inner_monotonicity(seed + 3, cases),
        check_curvature_limit(),
    ]
