"""Gamma fitting and alarm-threshold calibration for reconstruction errors.

Scalar special-function numerics live here too (log-gamma, digamma,
trigamma, regularized incomplete gamma) so the fit has no dependency on
scipy.  The distribution uses the RATE convention throughout:

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
    "digamma",
    "trigamma",
    "gamma_pdf",
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
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (math.isfinite(self.shape_alpha) and self.shape_alpha > 0.0):
            raise ValueError(f"shape must be finite and positive, got {self.shape_alpha}")
        if not (math.isfinite(self.rate_beta) and self.rate_beta > 0.0):
            raise ValueError(f"rate must be finite and positive, got {self.rate_beta}")

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
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be finite and positive, got {self.theta}")


# Lanczos approximation, g = 7 with 9 coefficients. Relative error is
# below 1e-13 over the range used here (arguments up to ~1e3).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(z: float) -> float:
    """Natural log of the gamma function, z > 0."""
    if not z > 0.0:
        raise ValueError(f"log_gamma requires z > 0, got {z}")
    if z < 0.5:
        # Reflection keeps the Lanczos series in its accurate range.
        # sin(pi*z) > 0 on (0, 1) so the log is safe.
        return math.log(math.pi / math.sin(math.pi * z)) - log_gamma(1.0 - z)
    z -= 1.0
    series = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(series)


# The asymptotic series below are accurate once the argument exceeds this;
# smaller arguments are lifted by the recurrence first.
_PSI_SHIFT = 10.0


def digamma(z: float) -> float:
    """First derivative of log_gamma, z > 0."""
    if not z > 0.0:
        raise ValueError(f"digamma requires z > 0, got {z}")
    acc = 0.0
    while z < _PSI_SHIFT:
        acc -= 1.0 / z
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
    return acc + math.log(z) - 0.5 * inv - series


def trigamma(z: float) -> float:
    """Second derivative of log_gamma, z > 0."""
    if not z > 0.0:
        raise ValueError(f"trigamma requires z > 0, got {z}")
    acc = 0.0
    while z < _PSI_SHIFT:
        acc += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    series = inv * (
        1.0
        + inv * (
            0.5
            + inv * (
                1.0 / 6.0
                - inv2 * (
                    1.0 / 30.0
                    - inv2 * (
                        1.0 / 42.0
                        - inv2 * (
                            1.0 / 30.0
                            - inv2 * (
                                5.0 / 66.0
                                - inv2 * (691.0 / 2730.0 - inv2 * (7.0 / 6.0))
                            )
                        )
                    )
                )
            )
        )
    )
    return acc + series


def gamma_pdf(x: float, p: GammaParams) -> float:
    """Density at x > 0 under the rate convention."""
    if not x > 0.0:
        raise ValueError(f"gamma pdf is defined for x > 0, got {x}")
    a = p.shape_alpha
    lam = p.rate_beta
    # Log space: Gamma(a) and lam**a overflow long before the ratio does.
    log_pdf = a * math.log(lam) + (a - 1.0) * math.log(x) - lam * x - log_gamma(a)
    return math.exp(log_pdf)


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


def _cdf_or_zero(x: float, p: GammaParams) -> float:
    return 0.0 if x <= 0.0 else gamma_cdf(x, p)


def gamma_inverse_cdf(prob: float, p: GammaParams) -> float:
    """Quantile function: the x with gamma_cdf(x, p) == prob.

    Bisection brackets the root, then Newton polishes using the pdf as the
    cdf derivative.  Newton steps that would leave the bracket fall back to
    its midpoint, so the iteration cannot escape or stagnate outside.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    lo = 0.0
    hi = p.mean
    for _ in range(300):
        if _cdf_or_zero(hi, p) >= prob:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ConvergenceError("failed to bracket the gamma quantile")
    # Coarse bisection localizes the root for Newton.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cdf_or_zero(mid, p) < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-3 * hi:
            break
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = _cdf_or_zero(x, p) - prob
        if f < 0.0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
        if abs(f) <= 1e-14:
            break
        x_new = x - f / gamma_pdf(x, p)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * max(abs(x), abs(x_new)):
            x = x_new
            break
        x = x_new
    return x


_MLE_REL_TOL = 1e-10
_MLE_MAX_ITER = 100


def fit_gamma_mle(errors) -> GammaParams:
    """Maximum-likelihood gamma fit to strictly positive error values.

    Accepts an ErrorSeries or any 1-d array-like.  The rate has a closed
    form given the shape, so only the shape needs iteration: a Newton
    solve of log(shape) - digamma(shape) = s where s = log(mean) - mean(log),
    started from the closed-form approximation
    shape0 = (3 - s + sqrt((s - 3)**2 + 24 s)) / (12 s).
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
    alpha = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_MLE_MAX_ITER):
        step = (math.log(alpha) - digamma(alpha) - s) / (1.0 / alpha - trigamma(alpha))
        while alpha - step <= 0.0:
            step *= 0.5
        alpha -= step
        if abs(step) / alpha < _MLE_REL_TOL:
            return GammaParams(shape_alpha=alpha, rate_beta=alpha / mean)
    raise ConvergenceError("gamma shape estimate did not converge in 100 iterations")


def estimate_threshold(p: GammaParams, epsilon: float) -> ThresholdSpec:
    """Threshold above which nominal errors carry probability mass epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    theta = gamma_inverse_cdf(1.0 - epsilon, p)
    return ThresholdSpec(epsilon=epsilon, theta=theta)
