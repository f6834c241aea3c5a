"""Closed-form error analysis of the two-estimator convex mix.

Model: two estimators of the same unknown score, with biases (b_e, b_h),
error standard deviations (sigma_e, sigma_h), and error correlation rho. The
mix weights the second estimator by alpha. Its mean squared error

    f(alpha) = ((1-alpha) b_e + alpha b_h)^2
             + (1-alpha)^2 sigma_e^2 + alpha^2 sigma_h^2
             + 2 alpha (1-alpha) rho sigma_e sigma_h

is a convex quadratic f(alpha) = A alpha^2 + 2 B alpha + C with

    A =  (b_h - b_e)^2 + sigma_e^2 + sigma_h^2 - 2 rho sigma_e sigma_h
    B = -[(b_e - b_h) b_e + sigma_e^2 - rho sigma_e sigma_h]
    C =  b_e^2 + sigma_e^2

minimized at alpha* = -B / A with f(alpha*) = C - B^2 / A. A Monte-Carlo
oracle over correlated Gaussian errors cross-checks the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MixtureErrorModel:
    b_e: float
    b_h: float
    sigma_e: float
    sigma_h: float
    rho: float

    def __post_init__(self):
        for name in ("b_e", "b_h", "sigma_e", "sigma_h"):
            value, sigma = getattr(self, name), name.startswith("sigma")
            if not math.isfinite(value) or (sigma and value < 0):
                rule = "finite and nonnegative" if sigma else "finite"
                raise ValueError(f"{name} must be {rule}, got {value}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")


# Draws of the oracle's second error formed at a time (see monte_carlo_mse).
_BLOCK = 1 << 16

# Denominators at or below this are treated as a flat quadratic: every alpha
# is equally good and no unique minimizer exists.
DEGENERATE_EPS = 1e-14


def mse_of_mix(alpha: float, m: MixtureErrorModel) -> float:
    """Mean squared error of the mix at weight alpha (alpha unrestricted)."""
    bias = (1.0 - alpha) * m.b_e + alpha * m.b_h
    return (
        bias * bias
        + (1.0 - alpha) ** 2 * m.sigma_e**2
        + alpha**2 * m.sigma_h**2
        + 2.0 * alpha * (1.0 - alpha) * m.rho * m.sigma_e * m.sigma_h
    )


def quadratic_coeffs(m: MixtureErrorModel) -> tuple[float, float, float]:
    """(A, B, C) with mse_of_mix(alpha) = A alpha^2 + 2 B alpha + C exactly."""
    cross = m.rho * m.sigma_e * m.sigma_h
    a = (m.b_h - m.b_e) ** 2 + m.sigma_e**2 + m.sigma_h**2 - 2.0 * cross
    b = -((m.b_e - m.b_h) * m.b_e + m.sigma_e**2 - cross)
    c = m.b_e**2 + m.sigma_e**2
    return a, b, c


def optimal_alpha(m: MixtureErrorModel) -> float | None:
    """The minimizing weight -B/A, or None when the quadratic is degenerate.

    The value is reported as computed even when it falls outside (0, 1);
    callers that care should check, not clamp.
    """
    a, b, _ = quadratic_coeffs(m)
    if a <= DEGENERATE_EPS:
        return None
    return -b / a


def monte_carlo_mse(
    alpha: float, m: MixtureErrorModel, n: int = 1_000_000, seed: int = 42
) -> tuple[float, float]:
    """Empirical (mean square, standard error) of the mixed error.

    Draws n correlated Gaussian error pairs with the model's variances and
    correlation and averages the squared mixed error. It holds one float64 per
    draw plus two blocks of _BLOCK: the first draws become the squared errors,
    the second are drawn a block at a time (the generator yields the same
    stream in blocks as in one call) and formed with one temporary block, and
    the spread is taken in place with the steps of np.std. Draws and arithmetic
    are those of the allocating form, so both results are the same bit for bit.
    """
    if n < 10_000:
        raise ValueError(f"need at least 1e4 draws for a usable estimate, got {n}")
    rng = np.random.default_rng(seed)
    sq = rng.standard_normal(n)
    scratch = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        g1 = sq[start:start + _BLOCK]
        g2 = rng.standard_normal(out=scratch[:len(g1)])
        g2 *= math.sqrt(max(0.0, 1.0 - m.rho**2))
        g2 += m.rho * g1  # eps_h / sigma_h
        for g, sigma, bias, weight in ((g1, m.sigma_e, m.b_e, 1.0 - alpha), (g2, m.sigma_h, m.b_h, alpha)):
            g *= sigma
            g += bias
            g *= weight
        g1 += g2  # err
        np.multiply(g1, g1, out=g1)
    estimate = float(np.mean(sq))
    if m.sigma_e == 0.0 and m.sigma_h == 0.0:
        return estimate, 0.0
    mean = np.add.reduce(sq, axis=None, keepdims=True)
    np.true_divide(mean, n, out=mean)
    np.subtract(sq, mean, out=sq)
    np.square(sq, out=sq)
    variance = np.add.reduce(sq, axis=None) / (n - 1)
    return estimate, float(np.sqrt(variance) / math.sqrt(n))
