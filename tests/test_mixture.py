import math
import tracemalloc

import numpy as np
import pytest

from hemix.mixture import (
    _BLOCK,
    MixtureErrorModel,
    monte_carlo_mse,
    mse_of_mix,
    optimal_alpha,
    quadratic_coeffs,
)

SYMMETRIC = MixtureErrorModel(b_e=0.0, b_h=0.0, sigma_e=1.0, sigma_h=1.0, rho=0.0)
ASYMMETRIC = MixtureErrorModel(b_e=0.5, b_h=-0.5, sigma_e=1.0, sigma_h=2.0, rho=0.3)


def random_model(rng):
    return MixtureErrorModel(
        b_e=float(rng.uniform(-2, 2)),
        b_h=float(rng.uniform(-2, 2)),
        sigma_e=float(rng.uniform(0, 2)),
        sigma_h=float(rng.uniform(0, 2)),
        rho=float(rng.uniform(-1, 1)),
    )


class TestMseOfMix:
    def test_alpha_zero_endpoint(self):
        m = MixtureErrorModel(0.7, 1.0, 1.3, 0.2, -0.4)
        assert mse_of_mix(0.0, m) == 0.7**2 + 1.3**2

    def test_symmetric_midpoint(self):
        assert mse_of_mix(0.5, SYMMETRIC) == 0.5

    def test_frozen_hand_value(self):
        # Hand expansion: bias (0.375-0.125)^2 = 0.0625, variances 0.5625 +
        # 0.25, cross term 0.225; totals 1.1.
        assert mse_of_mix(0.25, ASYMMETRIC) == pytest.approx(1.1, abs=1e-15)


class TestQuadraticCoeffs:
    def test_degenerate_model_flattens(self):
        m = MixtureErrorModel(0.3, 0.3, 1.0, 1.0, 1.0)
        a, _, _ = quadratic_coeffs(m)
        assert a == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_hand_values(self):
        assert quadratic_coeffs(SYMMETRIC) == (2.0, -1.0, 1.0)

    def test_c_equals_mse_at_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_model(rng)
            assert quadratic_coeffs(m)[2] == mse_of_mix(0.0, m)

    def test_quadratic_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = random_model(rng)
            a, b, c = quadratic_coeffs(m)
            for alpha in rng.uniform(-1, 2, size=5):
                assert mse_of_mix(alpha, m) == pytest.approx(
                    a * alpha**2 + 2 * b * alpha + c, abs=1e-12
                )

    def test_convexity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert quadratic_coeffs(random_model(rng))[0] >= -1e-15


class TestOptimalAlpha:
    def test_symmetric_midpoint(self):
        assert optimal_alpha(SYMMETRIC) == 0.5

    def test_degenerate_returns_none(self):
        assert optimal_alpha(MixtureErrorModel(0.3, 0.3, 1.0, 1.0, 1.0)) is None

    def test_asymmetric_case_improves_strictly(self):
        alpha = optimal_alpha(ASYMMETRIC)
        assert alpha == pytest.approx(0.1875, abs=1e-15)
        assert 0.0 < alpha < 1.0
        best = mse_of_mix(alpha, ASYMMETRIC)
        assert best < min(mse_of_mix(0.0, ASYMMETRIC), mse_of_mix(1.0, ASYMMETRIC))

    def test_minimum_value_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_model(rng)
            a, b, c = quadratic_coeffs(m)
            alpha = optimal_alpha(m)
            if alpha is None:
                continue
            assert mse_of_mix(alpha, m) == pytest.approx(c - b * b / a, abs=1e-12)

    def test_strict_improvement_over_endpoints(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = random_model(rng)
            if m.rho >= 1.0 and m.b_e == m.b_h:
                continue
            alpha = optimal_alpha(m)
            if alpha is None:
                continue
            scale = max(1.0, mse_of_mix(0.0, m), mse_of_mix(1.0, m))
            assert mse_of_mix(alpha, m) < min(mse_of_mix(0.0, m), mse_of_mix(1.0, m)) + 1e-15 * scale

    def test_value_outside_unit_interval_is_reported_not_clamped(self):
        # Extreme bias asymmetry pushes the minimizer below zero; the claim
        # that it always lands inside (0, 1) has counterexamples, and the
        # implementation must surface them.
        m = MixtureErrorModel(b_e=0.1, b_h=2.0, sigma_e=0.1, sigma_h=1.0, rho=0.0)
        alpha = optimal_alpha(m)
        assert alpha is not None and alpha < 0.0
        assert mse_of_mix(alpha, m) < min(mse_of_mix(0.0, m), mse_of_mix(1.0, m))


class TestMonteCarlo:
    def test_deterministic_errors_are_exact(self):
        m = MixtureErrorModel(0.5, -0.5, 0.0, 0.0, 0.0)
        estimate, stderr = monte_carlo_mse(0.3, m, n=10_000, seed=0)
        assert estimate == pytest.approx((0.7 * 0.5 - 0.3 * 0.5) ** 2, abs=1e-15)
        assert stderr == 0.0

    def test_symmetric_case_within_3_stderr(self):
        estimate, stderr = monte_carlo_mse(0.5, SYMMETRIC, n=1_000_000, seed=42)
        assert abs(estimate - 0.5) <= 3.0 * stderr

    def test_agrees_with_closed_form_at_3_stderr(self):
        rng = np.random.default_rng(0)
        for i in range(100):
            m = random_model(rng)
            alpha = float(rng.uniform(0, 1))
            estimate, stderr = monte_carlo_mse(alpha, m, n=200_000, seed=10_000 + i)
            assert abs(estimate - mse_of_mix(alpha, m)) <= 3.0 * stderr

    def test_minimum_draw_count(self):
        with pytest.raises(ValueError):
            monte_carlo_mse(0.5, SYMMETRIC, n=100)

    @pytest.mark.parametrize("m, alpha", [
        (ASYMMETRIC, 0.1875),
        (MixtureErrorModel(0.3, -1.2, 0.7, 1.9, 1.0), 0.4),
        (MixtureErrorModel(-0.4, 0.9, 1.3, 0.6, -1.0), 0.75),
        (MixtureErrorModel(0.5, -0.5, 0.0, 0.0, 0.0), 0.3),
        (MixtureErrorModel(0.5, -0.5, 0.0, 0.0, 1.0), -0.2),
        (MixtureErrorModel(1.1, 0.2, 0.8, 0.0, -0.6), 1.5),
    ])
    @pytest.mark.parametrize("n", [10_000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])
    def test_in_place_oracle_equals_the_allocating_expression(self, m, alpha, n):
        seed = 7
        rng = np.random.default_rng(seed)
        g1 = rng.standard_normal(n)
        g2 = rng.standard_normal(n)
        eps_e = m.sigma_e * g1
        eps_h = m.sigma_h * (m.rho * g1 + math.sqrt(max(0.0, 1.0 - m.rho**2)) * g2)
        err = (1.0 - alpha) * (m.b_e + eps_e) + alpha * (m.b_h + eps_h)
        sq = err * err
        want_stderr = 0.0 if m.sigma_e == m.sigma_h == 0.0 else float(np.std(sq, ddof=1) / math.sqrt(n))
        assert monte_carlo_mse(alpha, m, n=n, seed=seed) == (float(np.mean(sq)), want_stderr)

    def test_oracle_holds_one_float_per_draw(self):
        n = 10**6
        monte_carlo_mse(0.1875, ASYMMETRIC, n=10_000)  # first-call allocations are not the oracle's
        tracemalloc.start()
        try:
            monte_carlo_mse(0.1875, ASYMMETRIC, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n


@pytest.mark.parametrize("bad, message", [
    ({"sigma_e": -0.1}, "sigma_e must be finite and nonnegative, got -0.1"),
    ({"sigma_h": -0.1}, "sigma_h must be finite and nonnegative, got -0.1"),
    ({"rho": 1.5}, "correlation must lie in [-1, 1], got 1.5"),
    ({"rho": -1.5}, "correlation must lie in [-1, 1], got -1.5"),
    ({"sigma_e": math.nan}, "sigma_e must be finite and nonnegative, got nan"),
    ({"sigma_h": math.inf}, "sigma_h must be finite and nonnegative, got inf"),
    ({"b_e": math.nan}, "b_e must be finite, got nan"),
    ({"b_h": -math.inf}, "b_h must be finite, got -inf"),
    ({"rho": math.nan}, "correlation must lie in [-1, 1], got nan"),
], ids=[f"bad{i}" for i in range(9)])
def test_model_validation(bad, message):
    kwargs = {"b_e": 0.0, "b_h": 0.0, "sigma_e": 1.0, "sigma_h": 1.0, "rho": 0.0}
    kwargs.update(bad)
    with pytest.raises(ValueError) as exc:
        MixtureErrorModel(**kwargs)
    assert str(exc.value) == message
