"""Lorentz (hyperboloid) model of hyperbolic space.

The n-dimensional hyperbolic space of curvature -kappa (kappa > 0) is realized
as the upper sheet of a two-sheeted hyperboloid in R^{n+1}:

    H = {x : <x, x>_L = -1/kappa, x_0 > 0}

with the Lorentzian inner product

    <x, y>_L = -x_0 y_0 + sum_i x_i y_i.

All operations here are exact closed forms, computed in float64, with small
guards (arccosh clamp, series branches near zero) against roundoff. Everything
is a pure function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# Constraint tolerance at float64; scaled by spatial magnitude where points
# are validated.
MEMBERSHIP_TOL = 1e-9

# Below this Lorentz norm / distance, exp and log switch to their series
# limits to avoid 0/0.
_SERIES_EPS = 1e-8

# arccosh argument deficits larger than this are reported: they signal
# ill-conditioned inputs rather than ordinary roundoff.
_CLAMP_WARN = 1e-6


@dataclass(frozen=True)
class CurvedPoint:
    """A point on the hyperboloid of curvature -kappa.

    ``time`` is the 0th (temporal) coordinate, ``spatial`` the remaining n
    coordinates. Valid points satisfy time > 0 and <x,x>_L = -1/kappa within
    a tolerance scaled by the spatial magnitude.
    """

    time: float
    spatial: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "spatial", np.asarray(self.spatial, dtype=np.float64))
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.time <= 0:
            raise ValueError(f"time component must be positive, got {self.time}")
        sq = float(self.spatial @ self.spatial)
        residual = abs(-self.time * self.time + sq + 1.0 / self.kappa)
        if residual > MEMBERSHIP_TOL * max(1.0, sq):
            raise ValueError(
                f"point violates hyperboloid constraint: |<x,x>_L + 1/kappa| = {residual:.3e}"
            )

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
        ortho = abs(lorentz_inner(self.base.as_vector(), self.as_vector()))
        if ortho > MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(self.as_vector()))):
            raise ValueError(
                f"vector is not orthogonal to its base point: <p,v>_L = {ortho:.3e}"
            )

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.time], self.spatial))

    def lorentz_norm(self) -> float:
        """sqrt(<v,v>_L); tangent vectors at hyperboloid points are spacelike."""
        sq = lorentz_inner(self.as_vector(), self.as_vector())
        tol = MEMBERSHIP_TOL * (1.0 + float(self.as_vector() @ self.as_vector()))
        if sq < -tol:
            raise ValueError(f"tangent vector has timelike norm: <v,v>_L = {sq:.3e}")
        return math.sqrt(max(sq, 0.0))


def lorentz_inner(x: np.ndarray, y: np.ndarray) -> float:
    """<x, y>_L = -x_0 y_0 + sum_{i>=1} x_i y_i for (n+1)-vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ValueError(f"expected equal (n+1)-vectors with n >= 1, got {x.shape} and {y.shape}")
    return float(-x[0] * y[0] + x[1:] @ y[1:])


def lift_time(z: np.ndarray, kappa: float) -> np.ndarray:
    """Row-wise ``lift`` time coordinate, sqrt(||z_i||^2 + 1/kappa), of an [n, d] stack."""
    return np.sqrt(np.einsum("ij,ij->i", z, z) + 1.0 / kappa)


def lift(z: np.ndarray, kappa: float) -> CurvedPoint:
    """Lift spatial coordinates onto the hyperboloid: x_0 = sqrt(||z||^2 + 1/kappa)."""
    z = np.asarray(z, dtype=np.float64)
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not np.all(np.isfinite(z)):
        raise ValueError("spatial coordinates must be finite")
    time = math.sqrt(float(z @ z) + 1.0 / kappa)
    return CurvedPoint(time=time, spatial=z, kappa=kappa)


def apex(dim: int, kappa: float) -> CurvedPoint:
    """The point with zero spatial part, time = 1/sqrt(kappa)."""
    return lift(np.zeros(dim), kappa)


def is_on_hyperboloid(x: np.ndarray, kappa: float, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff x_0 > 0 and |<x,x>_L + 1/kappa| <= tol."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    x = np.asarray(x, dtype=np.float64)
    if x[0] <= 0:
        return False
    return abs(lorentz_inner(x, x) + 1.0 / kappa) <= tol


def _cosh_arg(x: CurvedPoint, y: CurvedPoint) -> float:
    """-kappa * <x,y>_L clamped to >= 1, reporting large clamps."""
    u = -x.kappa * lorentz_inner(x.as_vector(), y.as_vector())
    if u < 1.0:
        if 1.0 - u > _CLAMP_WARN:
            logger.warning("arccosh argument clamped by %.3e; inputs are ill-conditioned", 1.0 - u)
        u = 1.0
    return u


def geodesic_distance(x: CurvedPoint, y: CurvedPoint) -> float:
    """d(x,y) = (1/sqrt(kappa)) * arccosh(-kappa * <x,y>_L).

    Value-identical points return 0 exactly; arccosh near 1 would otherwise
    turn the constraint roundoff of <x,x>_L into a sqrt-scale distance.
    """
    if x.kappa != y.kappa:
        raise ValueError(f"curvature mismatch: {x.kappa} != {y.kappa}")
    if x.time == y.time and np.array_equal(x.spatial, y.spatial):
        return 0.0
    return math.acosh(_cosh_arg(x, y)) / math.sqrt(x.kappa)


def tangent_project(p: CurvedPoint, v: np.ndarray) -> TangentVector:
    """Project an ambient vector onto the tangent space at p.

    Returns v + kappa * <p,v>_L * p, which is Lorentz-orthogonal to p. Makes
    arbitrary ambient vectors valid exp_map inputs.
    """
    v = np.asarray(v, dtype=np.float64)
    pv = p.as_vector()
    if v.shape != pv.shape:
        raise ValueError(f"expected a {pv.shape[0]}-vector, got shape {v.shape}")
    w = v + p.kappa * lorentz_inner(pv, v) * pv
    return TangentVector(time=float(w[0]), spatial=w[1:], base=p)


def exp_map(p: CurvedPoint, v: TangentVector) -> CurvedPoint:
    """Move p along the geodesic with initial velocity v.

    exp_p(v) = cosh(sqrt(kappa)||v||) p + sinh(sqrt(kappa)||v||)/(sqrt(kappa)||v||) v
    with ||v|| the Lorentz norm. For ||v|| < 1e-8 the series limit p + v is
    used, so a zero tangent returns p exactly.
    """
    if v.base is not p and not (
        v.base.kappa == p.kappa
        and v.base.time == p.time
        and np.array_equal(v.base.spatial, p.spatial)
    ):
        raise ValueError("tangent vector is not based at the given point")
    nv = v.lorentz_norm()
    sk = math.sqrt(p.kappa)
    if nv < _SERIES_EPS:
        coef_p, coef_v = 1.0, 1.0
    else:
        coef_p = math.cosh(sk * nv)
        coef_v = math.sinh(sk * nv) / (sk * nv)
    w = coef_p * p.as_vector() + coef_v * v.as_vector()
    # Re-lift instead of trusting w's time coordinate: keeps the membership
    # invariant exact at large ||v||.
    return lift(w[1:], p.kappa)


def log_map(p: CurvedPoint, q: CurvedPoint) -> TangentVector:
    """Initial velocity of the geodesic from p to q; inverse of exp_map.

    log_p(q) = (sqrt(kappa) d / sinh(sqrt(kappa) d)) * (q + kappa <p,q>_L p)
    with d = geodesic_distance(p, q), so the Lorentz norm of the result equals
    d. For d < 1e-8 the zero vector is returned.
    """
    if p.kappa != q.kappa:
        raise ValueError(f"curvature mismatch: {p.kappa} != {q.kappa}")
    d = geodesic_distance(p, q)
    if d < _SERIES_EPS:
        return TangentVector(time=0.0, spatial=np.zeros(p.dim), base=p)
    sk = math.sqrt(p.kappa)
    pv, qv = p.as_vector(), q.as_vector()
    w = qv + p.kappa * lorentz_inner(pv, qv) * pv
    coef = sk * d / math.sinh(sk * d)
    w = coef * w
    return TangentVector(time=float(w[0]), spatial=w[1:], base=p)


def random_point(rng: np.random.Generator, dim: int, kappa: float, radius: float = 3.0) -> CurvedPoint:
    """Lift of a uniformly drawn spatial vector with ||z|| <= radius."""
    z = rng.uniform(-1.0, 1.0, size=dim)
    norm = np.linalg.norm(z)
    scale = rng.uniform(0.0, radius)
    if norm > 0:
        z = z / norm * scale
    return lift(z, kappa)


def random_tangent(rng: np.random.Generator, p: CurvedPoint, norm: float) -> TangentVector:
    """Tangent vector at p with the requested Lorentz norm."""
    v = tangent_project(p, rng.standard_normal(p.dim + 1))
    nv = v.lorentz_norm()
    if nv < 1e-12:
        return random_tangent(rng, p, norm)
    w = v.as_vector() * (norm / nv)
    return TangentVector(time=float(w[0]), spatial=w[1:], base=p)


# ---------------------------------------------------------------------------
# Property suite (shared by the geom-check CLI and the acceptance tests)
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""
    failures: list = field(default_factory=list)


def check_hyperboloid_closure(seed: int = 42, cases: int = 1000) -> PropertyResult:
    """lift(z, kappa) lands on the hyperboloid for ||z|| <= 10, kappa in [0.25, 4]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 6))
        z = rng.uniform(-1, 1, size=dim)
        n = np.linalg.norm(z)
        if n > 0:
            z = z / n * rng.uniform(0, 10.0)
        kappa = rng.uniform(0.25, 4.0)
        p = lift(z, kappa)
        tol = 1e-8 * max(1.0, float(z @ z))
        resid = abs(lorentz_inner(p.as_vector(), p.as_vector()) + 1.0 / kappa)
        worst = max(worst, resid / max(tol, 1e-300))
        if not is_on_hyperboloid(p.as_vector(), kappa, tol):
            return PropertyResult("hyperboloid-closure", False, f"residual {resid:.3e} at kappa={kappa}")
    return PropertyResult("hyperboloid-closure", True, f"{cases} cases, worst residual/tol {worst:.3e}")


def check_exp_log_inverse(seed: int = 43, cases: int = 1000) -> PropertyResult:
    """||log(p, exp(p, v)) - v|| <= 1e-6 * (1 + ||v||) for ||v|| <= 5."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(1, 6))
        kappa = rng.uniform(0.25, 4.0)
        p = random_point(rng, dim, kappa)
        norm = rng.uniform(0.0, 5.0)
        v = random_tangent(rng, p, norm)
        back = log_map(p, exp_map(p, v))
        err = float(np.linalg.norm(back.as_vector() - v.as_vector()))
        rel = err / (1.0 + norm)
        worst = max(worst, rel)
        if rel > 1e-6:
            return PropertyResult("exp-log-inverse", False, f"error {rel:.3e} at ||v||={norm:.3f}, kappa={kappa:.3f}")
    return PropertyResult("exp-log-inverse", True, f"{cases} cases, worst rel error {worst:.3e}")


def check_distance_axioms(seed: int = 44, cases: int = 1000) -> PropertyResult:
    """Symmetry (exact), d(p,p)=0, triangle inequality within 1e-8."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(1, 6))
        kappa = rng.uniform(0.25, 4.0)
        a, b, c = (random_point(rng, dim, kappa) for _ in range(3))
        if geodesic_distance(a, b) != geodesic_distance(b, a):
            return PropertyResult("distance-axioms", False, "symmetry violated")
        if geodesic_distance(a, a) != 0.0:
            return PropertyResult("distance-axioms", False, "d(p,p) != 0")
        if geodesic_distance(a, c) > geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-8:
            return PropertyResult("distance-axioms", False, "triangle inequality violated")
    return PropertyResult("distance-axioms", True, f"{cases} random triples")


def check_inner_monotonicity(seed: int = 45, cases: int = 1000) -> PropertyResult:
    """Larger Lorentzian inner product implies smaller geodesic distance."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(1, 6))
        kappa = rng.uniform(0.25, 4.0)
        x, y1, y2 = (random_point(rng, dim, kappa) for _ in range(3))
        i1 = lorentz_inner(x.as_vector(), y1.as_vector())
        i2 = lorentz_inner(x.as_vector(), y2.as_vector())
        if i1 > i2 and not geodesic_distance(x, y1) < geodesic_distance(x, y2):
            return PropertyResult("inner-monotonicity", False, f"inner {i1:.6f} > {i2:.6f} but distance not smaller")
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
