"""Gamma fitting and alarm-threshold calibration for reconstruction errors.

Log-gamma is math.lgamma.  log(z) - digamma(z), the regularized lower
incomplete gamma and one bisection, which solves both the MLE shape and
the quantile, live here, so the fit needs no scipy.  Rate convention:

    pdf(x) = rate**shape / Gamma(shape) * x**(shape - 1) * exp(-rate * x)

so the mean is shape/rate and the maximum-likelihood rate is shape/mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, real

__all__ = [
    "GammaParams",
    "ThresholdSpec",
    "log_gamma",
    "gamma_cdf",
    "gamma_inverse_cdf",
    "fit_gamma_mle",
    "estimate_threshold",
]


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate pair describing the distribution of nominal errors."""

    shape_alpha: float
    rate_beta: float

    def __post_init__(self):
        for name in ("shape_alpha", "rate_beta"):
            value = real(getattr(self, name), name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    @property
    def mean(self) -> float:
        return self.shape_alpha / self.rate_beta


@dataclass(frozen=True)
class ThresholdSpec:
    """Alarm threshold theta with its target nominal tail mass epsilon.

    Downstream classification flags a frame when its smoothed error is
    greater than or equal to theta.
    """

    epsilon: float
    theta: float

    def __post_init__(self):
        for name in ("epsilon", "theta"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")


def log_gamma(z: float) -> float:
    """Natural log of the gamma function, z > 0."""
    if not z > 0.0:
        raise ValueError(f"log_gamma requires z > 0, got {z}")
    return math.lgamma(z)


# The asymptotic series below is accurate once the argument exceeds this;
# smaller arguments are lifted by the recurrence first.
_PSI_SHIFT = 10.0


def _log_minus_digamma(z: float) -> float:
    """log(z) - digamma(z), z > 0, as a sum of positive terms, so it keeps its
    relative precision as z grows: 1/z - log1p(1/z) for each recurrence
    step that lifts z past _PSI_SHIFT, then 1/(2z) and the Bernoulli
    series at the lifted z.  fit_gamma_mle solves it equal to s."""
    acc = 0.0
    while z < _PSI_SHIFT:
        inv = 1.0 / z
        acc += inv - math.log1p(inv)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    # Bernoulli-number series through z**-14; truncation error ~1e-17 at z=10.
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (
                        1.0 / 132.0
                        - inv2 * (691.0 / 32760.0 - inv2 * (1.0 / 12.0))
                    )
                )
            )
        )
    )
    return acc + 0.5 * inv + series


_SERIES_EPS = 1e-15
_LENTZ_TINY = 1e-300


def _reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0."""
    if x <= 0.0:
        return 0.0
    log_prefactor = a * math.log(x) - x - log_gamma(a)
    if x < a + 1.0:
        # Power series converges quickly left of the mean region.
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(10_000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _SERIES_EPS:
                return min(1.0, math.exp(log_prefactor) * total)
        raise ConvergenceError("incomplete gamma power series did not converge")
    # Modified Lentz continued fraction for the upper tail Q(a, x).
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b if abs(b) > _LENTZ_TINY else 1.0 / _LENTZ_TINY
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _SERIES_EPS:
            return max(0.0, 1.0 - math.exp(log_prefactor) * h)
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def gamma_cdf(x: float, p: GammaParams) -> float:
    """Cumulative probability at x > 0; monotone non-decreasing in x."""
    if not x > 0.0:
        raise ValueError(f"gamma cdf is defined for x > 0, got {x}")
    return _reg_lower_gamma(p.shape_alpha, p.rate_beta * x)


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f bracketed by f(lo) < 0 <= f(hi): halves the bracket until
    its ends are adjacent floats and returns the upper end."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def gamma_inverse_cdf(prob: float, p: GammaParams) -> float:
    """Quantile function: the x with gamma_cdf(x, p) >= prob > gamma_cdf
    at the float below x, bracketed by doubling from the mean."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    lo, hi = 0.0, p.mean
    for _ in range(300):
        if gamma_cdf(hi, p) >= prob:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ConvergenceError("failed to bracket the gamma quantile")
    return _bisect(lambda x: gamma_cdf(x, p) - prob, lo, hi)


def fit_gamma_mle(errors) -> GammaParams:
    """Maximum-likelihood gamma fit to strictly positive error values.

    Accepts an ErrorSeries or any 1-d array-like.  The rate is shape/mean,
    so only the shape is solved for: log(shape) - digamma(shape) = s with
    s = log(mean) - mean(log).  The left side falls from +inf to 0, so
    halving and doubling the closed-form approximation
    (3 - s + sqrt((s - 3)**2 + 24 s)) / (12 s) brackets the root.
    """
    values = np.asarray(getattr(errors, "values", errors), dtype=float).ravel()
    if values.size < 2:
        raise DegenerateDataError(
            f"gamma fit needs at least 2 error values, got {values.size}"
        )
    if not np.all(np.isfinite(values)) or not np.all(values > 0.0):
        raise DegenerateDataError("gamma fit requires finite, strictly positive errors")
    mean = float(values.mean())
    s = math.log(mean) - float(np.mean(np.log(values)))
    # Jensen gap: s > 0 unless all values are equal. Rounding can leave a
    # stray 1e-16 on constant data, so treat that as zero spread too.
    if not s > 1e-12:
        raise DegenerateDataError("error values have (near) zero spread; gamma fit undefined")

    def excess(a: float) -> float:
        return s - _log_minus_digamma(a)

    lo = hi = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    while excess(lo) >= 0.0:
        lo *= 0.5
    while excess(hi) < 0.0:
        hi *= 2.0
    alpha = _bisect(excess, lo, hi)
    return GammaParams(shape_alpha=alpha, rate_beta=alpha / mean)


def estimate_threshold(p: GammaParams, epsilon: float) -> ThresholdSpec:
    """Threshold above which nominal errors carry probability mass epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    theta = gamma_inverse_cdf(1.0 - epsilon, p)
    return ThresholdSpec(epsilon=epsilon, theta=theta)
