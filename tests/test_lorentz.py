import math

import numpy as np
import pytest

from hemix import lorentz as L


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def random_point(rng, dim, kappa, radius=3.0):
    """Lift of a uniform direction scaled to a uniform length in [0, radius)."""
    z = rng.uniform(-1.0, 1.0, size=dim)
    scale = rng.uniform(0.0, radius)
    return L.lift(z / np.linalg.norm(z) * scale, kappa)


def lorentz_norm(v):
    """sqrt(<v,v>_L) of a TangentVector, which is spacelike."""
    x = v.as_vector()[None]
    return math.sqrt(max(L.inner_rows(x, x)[0], 0.0))


def random_tangent(rng, p, norm):
    """Tangent vector at p with the requested Lorentz norm."""
    v = L.tangent_project(p, rng.standard_normal(p.dim + 1))
    w = v.as_vector() * (norm / lorentz_norm(v))
    return L.TangentVector(time=float(w[0]), spatial=w[1:], base=p)


class TestLorentzInner:
    def test_origin_self_product(self):
        assert L.lorentz_inner(vec(1, 0, 0), vec(1, 0, 0)) == -1.0

    def test_hand_value(self):
        got = L.lorentz_inner(vec(1, 0, 0), vec(math.cosh(1), math.sinh(1), 0))
        assert got == pytest.approx(-1.5430806, abs=1e-7)

    def test_lifted_point_satisfies_constraint(self):
        p = L.lift(vec(0.7, -1.2, 0.4), kappa=2.0)
        assert L.lorentz_inner(p.as_vector(), p.as_vector()) == pytest.approx(-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            L.lorentz_inner(vec(1, 0), vec(1, 0, 0))


class TestLift:
    def test_apex(self):
        p = L.lift(vec(0, 0), kappa=1.0)
        assert p.time == 1.0
        assert np.all(p.spatial == 0)

    def test_hand_value(self):
        assert L.lift(vec(3, 0), kappa=1.0).time == pytest.approx(math.sqrt(10))

    def test_kappa_scales_apex(self):
        assert L.lift(vec(0, 0), kappa=4.0).time == 0.5

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_nonpositive_kappa(self, kappa):
        with pytest.raises(ValueError):
            L.lift(vec(1, 2), kappa)

    def test_nonfinite_input(self):
        with pytest.raises(ValueError):
            L.lift(vec(np.inf, 0), 1.0)


class TestGeodesicDistance:
    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_point(rng, 3, 1.7)
            assert L.geodesic_distance(p, p) == 0.0

    def test_apex_to_sinh1(self):
        p = L.apex(2, 1.0)
        q = L.lift(vec(math.sinh(1), 0), 1.0)
        assert L.geodesic_distance(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_curvature_scaling(self):
        p = L.apex(2, 4.0)
        q = L.lift(vec(math.sinh(2) / 2, 0), 4.0)
        assert L.geodesic_distance(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_curvature_mismatch(self):
        with pytest.raises(ValueError):
            L.geodesic_distance(L.apex(2, 1.0), L.apex(2, 2.0))


class TestTangentProject:
    def test_orthogonal_vector_unchanged(self):
        p = L.apex(2, 1.0)
        v = L.tangent_project(p, vec(0, 0.3, -0.4))
        np.testing.assert_allclose(v.as_vector(), vec(0, 0.3, -0.4), atol=1e-15)

    def test_projecting_base_gives_zero(self):
        p = L.apex(2, 1.0)
        v = L.tangent_project(p, p.as_vector())
        np.testing.assert_allclose(v.as_vector(), np.zeros(3), atol=1e-15)

    def test_hand_value_at_apex(self):
        v = L.tangent_project(L.apex(2, 1.0), vec(1, 1, 0))
        np.testing.assert_allclose(v.as_vector(), vec(0, 1, 0), atol=1e-15)

    def test_result_is_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_point(rng, 4, 0.7)
            v = L.tangent_project(p, rng.standard_normal(5))
            assert abs(L.lorentz_inner(p.as_vector(), v.as_vector())) < 1e-10


class TestExpMap:
    def test_zero_velocity_returns_base(self):
        p = L.lift(vec(1.5, -0.2), 1.0)
        v = L.TangentVector(0.0, np.zeros(2), p)
        q = L.exp_map(p, v)
        assert q.time == p.time
        assert np.array_equal(q.spatial, p.spatial)

    def test_apex_geodesic_hand_value(self):
        p = L.apex(2, 1.0)
        v = L.TangentVector(0.0, vec(1.0, 0.0), p)
        q = L.exp_map(p, v)
        np.testing.assert_allclose(q.as_vector(), vec(math.cosh(1), math.sinh(1), 0), rtol=1e-14)

    def test_unit_speed(self):
        rng = np.random.default_rng(2)
        p = random_point(rng, 3, 1.3)
        v = random_tangent(rng, p, 0.7)
        assert L.geodesic_distance(p, L.exp_map(p, v)) == pytest.approx(0.7, abs=1e-10)

    def test_non_orthogonal_tangent_rejected(self):
        p = L.apex(2, 1.0)
        with pytest.raises(ValueError):
            L.TangentVector(1.0, vec(0.1, 0.0), p)


class TestLogMap:
    def test_log_of_same_point_is_zero(self):
        p = L.lift(vec(0.4, 0.9), 2.0)
        v = L.log_map(p, p)
        assert np.all(v.as_vector() == 0)

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            kappa = rng.uniform(0.25, 4.0)
            p = random_point(rng, 3, kappa)
            q = random_point(rng, 3, kappa)
            back = L.exp_map(p, L.log_map(p, q))
            np.testing.assert_allclose(back.as_vector(), q.as_vector(), atol=1e-7)

    def test_norm_equals_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            kappa = rng.uniform(0.25, 4.0)
            p = random_point(rng, 2, kappa)
            q = random_point(rng, 2, kappa)
            d = L.geodesic_distance(p, q)
            assert lorentz_norm(L.log_map(p, q)) == pytest.approx(d, abs=1e-9 * (1 + d))


class TestMembership:
    def test_lift_is_member(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kappa = rng.uniform(0.25, 4.0)
            z = rng.uniform(-10, 10, size=3)
            x = L.lift(z, kappa).as_vector()[None]
            assert x[0, 0] > 0
            assert abs(L.inner_rows(x, x)[0] + 1.0 / kappa) <= 1e-8 * max(1.0, float(z @ z))


def test_property_suite_green():
    for result in L.run_property_suite(seed=42, cases=300):
        assert result.passed, f"{result.name}: {result.detail}"


def test_curved_point_rejects_invalid():
    with pytest.raises(ValueError):
        L.CurvedPoint(time=-1.0, spatial=np.zeros(2), kappa=1.0)
    with pytest.raises(ValueError):
        L.CurvedPoint(time=5.0, spatial=np.zeros(2), kappa=1.0)


def rand_cases(rng, n):
    """n seeded (p, q, v, kappa) cases over dims 1-5: v is tangent at p, q a second point."""
    cases = []
    for _ in range(n):
        dim = int(rng.integers(1, 6))
        kappa = rng.uniform(0.25, 4.0)
        p, q = random_point(rng, dim, kappa), random_point(rng, dim, kappa)
        cases.append((p, q, random_tangent(rng, p, rng.uniform(0.0, 5.0)), kappa))
    return cases


class TestRowFunctions:
    """Each per-object function equals its row function, called with n = 1."""

    def test_per_object_equals_row_function(self):
        for p, q, v, kappa in rand_cases(np.random.default_rng(30), 100):
            pr, qr, vr = p.as_vector()[None], q.as_vector()[None], v.as_vector()[None]
            assert L.lorentz_inner(p.as_vector(), q.as_vector()) == L.inner_rows(pr, qr)[0]
            assert np.array_equal(L.lift(q.spatial, kappa).as_vector(), L.lift_rows(qr[:, 1:], kappa)[0])
            assert L.geodesic_distance(p, q) == L.distance_rows(pr, qr, kappa)[0]
            assert np.array_equal(L.exp_map(p, v).as_vector(), L.exp_map_rows(pr, vr, kappa)[0])
            assert np.array_equal(L.log_map(p, q).as_vector(), L.log_map_rows(pr, qr, kappa)[0])
            assert np.array_equal(L.tangent_project(p, qr[0]).as_vector(),
                                  L.tangent_project_rows(pr, qr, kappa)[0])

    def test_stacked_rows_with_one_kappa_each(self):
        cases = [c for c in rand_cases(np.random.default_rng(31), 60) if c[0].dim == 3]
        p, q, v = (np.stack([c[i].as_vector() for c in cases]) for i in range(3))
        kappa = np.array([c[3] for c in cases])
        rows = {
            "distance": L.distance_rows(p, q, kappa),
            "exp": L.exp_map_rows(p, v, kappa),
            "log": L.log_map_rows(p, q, kappa),
            "project": L.tangent_project_rows(p, q, kappa),
        }
        for i, (pi, qi, vi, k) in enumerate(cases):
            assert rows["distance"][i] == pytest.approx(L.geodesic_distance(pi, qi), rel=1e-14)
            np.testing.assert_allclose(rows["exp"][i], L.exp_map(pi, vi).as_vector(), rtol=1e-14)
            np.testing.assert_allclose(rows["log"][i], L.log_map(pi, qi).as_vector(), rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(rows["project"][i], L.tangent_project(pi, qi.as_vector()).as_vector(),
                                       rtol=1e-14, atol=1e-14)


def oracle(zx, zy, kappa):
    """Distance and log_x(y) of the exact lifts of zx, zy at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        k, sk = mp.mpf(kappa), mp.sqrt(mp.mpf(kappa))
        zx, zy = [mp.mpf(float(c)) for c in zx], [mp.mpf(float(c)) for c in zy]
        tx = mp.sqrt(mp.fsum(c * c for c in zx) + 1 / k)
        ty = mp.sqrt(mp.fsum(c * c for c in zy) + 1 / k)
        sq = mp.fsum((a - b) ** 2 for a, b in zip(zx, zy)) - (tx - ty) ** 2
        d = 2 / sk * mp.asinh(sk * mp.sqrt(sq) / 2)
        inner = mp.fsum(a * b for a, b in zip(zx, zy)) - tx * ty
        coef = sk * d / mp.sinh(sk * d)
        log = [coef * (ty + k * inner * tx)] + [coef * (b + k * inner * a) for a, b in zip(zx, zy)]
        return float(d), np.array([float(c) for c in log])


def unit(rng, dim):
    u = rng.standard_normal(dim)
    return u / np.linalg.norm(u)


class TestStableDistance:
    """Distance and log map against a 50-digit oracle, next to the curvature-limit oracle."""

    def check(self, zx, zy, kappa):
        p, q = L.lift(zx, kappa), L.lift(zy, kappa)
        d, log = oracle(zx, zy, kappa)
        assert L.geodesic_distance(p, q) == pytest.approx(d, rel=1e-13)
        assert L.geodesic_distance(q, p) == L.geodesic_distance(p, q)
        got = L.log_map(p, q).as_vector()
        assert np.linalg.norm(got - log) <= 1e-13 * np.linalg.norm(log)

    @pytest.mark.parametrize("radius", [3.0, 10.0, 100.0])
    def test_points_1e9_apart(self, radius):
        # arccosh(-kappa <x,y>_L) gave 5.96e-8 here at radius 3 and 0.0 at radius 10.
        rng = np.random.default_rng(int(radius))
        for i in range(30):
            dim = int(rng.integers(1, 6))
            e = unit(rng, dim)
            offset = e if i % 3 == 0 else unit(rng, dim)  # every third one is radial
            self.check(radius * e, radius * e + 1e-9 * offset, [0.25, 1.0, 4.0][i % 3])

    @pytest.mark.parametrize("radius", [1e2, 1e3, 1e4])
    def test_large_radii(self, radius):
        rng = np.random.default_rng(int(radius))
        for i in range(30):
            dim = int(rng.integers(1, 6))
            e = unit(rng, dim)
            zx = e * (rng.uniform(0.0, 1.0) if i % 4 == 0 else radius * rng.uniform(0.1, 1.0))
            towards = e if i % 2 else unit(rng, dim)  # every other pair lies on one ray
            self.check(zx, towards * radius * rng.uniform(0.1, 1.0), [0.25, 1.0, 4.0][i % 3])


class TestPropertySuiteCases:
    def test_planted_failure_names_first_failing_case(self, monkeypatch):
        real = L.distance_rows

        def planted(x, y, kappa):
            d = real(x, y, kappa)
            return np.where(np.asarray(kappa) > 3.0, d + 1.0, d)  # breaks d(p,p) = 0

        monkeypatch.setattr(L, "distance_rows", planted)
        # Replay check_distance_axioms' draws up to the first case with kappa > 3.
        rng = np.random.default_rng(44)
        for i in range(100):
            dim, kappa = int(rng.integers(1, 6)), rng.uniform(0.25, 4.0)
            for _ in range(3):
                rng.uniform(-1.0, 1.0, size=dim), rng.uniform(0.0, 3.0)
            if kappa > 3.0:
                break
        result = L.check_distance_axioms(seed=44, cases=100)
        assert not result.passed
        assert result.detail == f"case {i} (dim {dim}, kappa={kappa:.3f}): d(p,p) != 0"

    def test_short_tangent_redrawn_at_the_same_point_in_the_stream(self, monkeypatch):
        # With a large cut-off many projected directions are "short": each must
        # be redrawn right away, as a per-case loop would.
        cut = 0.6
        monkeypatch.setattr(L, "_SHORT_TANGENT", cut)
        checked = []
        real = L.exp_map_rows
        monkeypatch.setattr(L, "exp_map_rows", lambda p, v, k: checked.append(v) or real(p, v, k))
        assert L.check_exp_log_inverse(seed=5, cases=60).passed

        rng = np.random.default_rng(5)
        want, redrawn = {}, 0
        for _ in range(60):
            dim, kappa = int(rng.integers(1, 6)), rng.uniform(0.25, 4.0)
            p = random_point(rng, dim, kappa)
            norm = rng.uniform(0.0, 5.0)
            v = L.tangent_project(p, rng.standard_normal(dim + 1))
            while lorentz_norm(v) < cut:
                redrawn += 1
                v = L.tangent_project(p, rng.standard_normal(dim + 1))
            want.setdefault(dim, []).append(v.as_vector() * (norm / lorentz_norm(v)))
        assert redrawn > 0
        final_pass = checked[-len(want):]
        for dim, got in zip(sorted(want), final_pass):
            np.testing.assert_allclose(got, np.stack(want[dim]), rtol=1e-12, atol=1e-12)


# The property suite draws each case as one rng.integers call and one
# rng.random block. These per-case loops make the rng.uniform calls the
# suite's cases are defined by; the drawn arrays must match them exactly.

STREAM_SEEDS = [0, 1, 42, 43, 44, 45, 2024]


def closure_cases(rng, cases):
    """(dim, direction, length, kappa) of each check_hyperboloid_closure case."""
    out = []
    for _ in range(cases):
        dim = int(rng.integers(1, 6))
        z = rng.uniform(-1.0, 1.0, size=dim)
        length = rng.uniform(0.0, 10.0) if z.any() else 0.0
        out.append((dim, z, length, rng.uniform(0.25, 4.0)))
    return out


def exp_log_cases(rng, cases):
    """(dim, direction, length, kappa, norm, tangent direction) of each check_exp_log_inverse case."""
    out = []
    for _ in range(cases):
        dim, kappa = int(rng.integers(1, 6)), rng.uniform(0.25, 4.0)
        z, length = rng.uniform(-1.0, 1.0, size=dim), rng.uniform(0.0, 3.0)
        norm = rng.uniform(0.0, 5.0)
        out.append((dim, z, length, kappa, norm, rng.standard_normal(dim + 1)))
    return out


def by_dimension(cases):
    """Per dimension drawn, in increasing order, the fields of its cases stacked in case order."""
    return [[np.array(field) for field in zip(*(c[1:] for c in cases if c[0] == dim))]
            for dim in sorted({c[0] for c in cases})]


def assert_same(got, want):
    np.testing.assert_array_equal(got, want, strict=True)


class Rigged:
    """The Generator ``rng``, except that its ``at``-th call of ``method`` returns ``value`` in place of its draws."""

    def __init__(self, rng, method, at, value):
        self.rng, self.method, self.at, self.value, self.calls = rng, method, at, value, 0

    def __getattr__(self, name):
        real = getattr(self.rng, name)
        if name != self.method:
            return real

        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            self.calls += 1
            return np.full_like(out, self.value) if self.calls == self.at else out
        return call


def record_calls(monkeypatch, name):
    """The arguments of every call of the property suite's ``name``, recorded as it runs."""
    calls, real = [], getattr(L, name)
    monkeypatch.setattr(L, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestPropertySuiteStream:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_point_triples(self, seed):
        dims, kappa, z, length = L._point_triples(seed, 300)
        rng = np.random.default_rng(seed)
        for i in range(300):
            dim = int(rng.integers(1, 6))
            assert dims[i] == dim
            assert kappa[i] == rng.uniform(0.25, 4.0)
            for j in range(3):
                assert_same(z[j, i], np.concatenate((rng.uniform(-1.0, 1.0, size=dim), np.zeros(5 - dim))))
                assert length[j, i] == rng.uniform(0.0, 3.0)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_hyperboloid_closure(self, monkeypatch, seed):
        points = record_calls(monkeypatch, "_points")
        assert L.check_hyperboloid_closure(seed, 300).passed
        want = by_dimension(closure_cases(np.random.default_rng(seed), 300))
        assert len(points) == len(want)
        for got, fields in zip(points, want):
            for g, w in zip(got, fields):
                assert_same(g, w)

    def test_hyperboloid_closure_zero_direction_draws_no_length(self, monkeypatch):
        # Case 0's direction is all zero: it draws its kappa and no length.
        real = np.random.default_rng
        cases = closure_cases(Rigged(real(3), "uniform", 1, 0.0), 40)
        assert not cases[0][1].any() and cases[0][2] == 0.0
        want = by_dimension(cases)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Rigged(real(seed), "random", 1, 0.5))
        points = record_calls(monkeypatch, "_points")
        assert L.check_hyperboloid_closure(3, 40).passed
        assert len(points) == len(want)
        for got, fields in zip(points, want):
            for g, w in zip(got, fields):
                assert_same(g, w)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_exp_log_inverse(self, monkeypatch, seed):
        points = record_calls(monkeypatch, "_points")
        projected = record_calls(monkeypatch, "tangent_project_rows")
        moved = record_calls(monkeypatch, "exp_map_rows")
        assert L.check_exp_log_inverse(seed, 300).passed
        want = by_dimension(exp_log_cases(np.random.default_rng(seed), 300))
        assert len(points) == len(projected) == len(moved) == len(want)  # one pass: no direction redrawn
        for (z, length, kappa), (_, direction, _), (_, v, _), w in zip(points, projected, moved, want):
            for g, f in zip((z, length, kappa, direction), (w[0], w[1], w[2], w[4])):
                assert_same(g, f)
            u = L.tangent_project_rows(L._points(z, length, kappa), direction, kappa)
            assert_same(v, u * (w[3] / L._tangent_norm(u))[:, None])
