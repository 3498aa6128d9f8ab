"""Gamma machinery against frozen references and algebraic identities.

Reference values were computed independently with mpmath at 50 digits;
scipy.special serves as a second, library-grade reference where available.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lanewatch.errors import DegenerateDataError
from lanewatch.gammafit import (
    GammaParams,
    ThresholdSpec,
    _log_minus_digamma,
    estimate_threshold,
    fit_gamma_mle,
    gamma_cdf,
    gamma_inverse_cdf,
    log_gamma,
)

# mpmath, mp.dps=50
CDF_AT_005 = 0.87868902864119633079
THETA_EPS_001 = 0.064913496570812615549
THETA_EPS_005 = 0.055832872226711974445

REF = GammaParams(shape_alpha=15.0, rate_beta=392.0)

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_matches_factorials():
    for n in range(1, 21):
        exact = math.lgamma(n + 1)
        assert abs(log_gamma(n + 1.0) - exact) <= 1e-12 * abs(exact)


def test_log_gamma_half_integer():
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


# ------------------------------------------------------------------ digamma
# The fit reads digamma only through _log_minus_digamma(z) = log(z) - digamma(z).

def test_digamma_at_one_is_minus_euler():
    assert _log_minus_digamma(1.0) == pytest.approx(EULER_GAMMA, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=50.0))
def test_digamma_recurrence(z):
    # digamma(z + 1) = digamma(z) + 1/z
    step = _log_minus_digamma(z) - _log_minus_digamma(z + 1.0)
    assert step == pytest.approx(1.0 / z - math.log1p(1.0 / z), rel=1e-10, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=60.0))
def test_digamma_matches_scipy(z):
    want = math.log(z) - float(sp.digamma(z))
    assert _log_minus_digamma(z) == pytest.approx(want, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------- cdf

def test_cdf_frozen_reference():
    assert gamma_cdf(0.05, REF) == pytest.approx(CDF_AT_005, rel=1e-12)


def test_cdf_edges():
    with pytest.raises(ValueError):
        gamma_cdf(0.0, REF)
    assert gamma_cdf(1e-9, REF) == pytest.approx(0.0, abs=1e-30)
    assert gamma_cdf(10.0, REF) == pytest.approx(1.0, abs=1e-12)


@given(
    st.floats(min_value=0.3, max_value=40.0),
    st.floats(min_value=0.5, max_value=500.0),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_cdf_inverse_round_trip(alpha, beta, prob):
    p = GammaParams(shape_alpha=alpha, rate_beta=beta)
    x = gamma_inverse_cdf(prob, p)
    assert gamma_cdf(x, p) == pytest.approx(prob, abs=1e-9)


@given(
    st.floats(min_value=0.3, max_value=300.0),
    st.floats(min_value=0.5, max_value=1e5),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_inverse_cdf_is_the_first_float_at_prob(alpha, beta, prob):
    # Bisection ends on adjacent floats: the quantile reaches prob and the
    # float below it does not.
    p = GammaParams(shape_alpha=alpha, rate_beta=beta)
    x = gamma_inverse_cdf(prob, p)
    assert gamma_cdf(x, p) >= prob > gamma_cdf(math.nextafter(x, 0.0), p)


@given(
    st.floats(min_value=0.3, max_value=40.0),
    st.floats(min_value=0.5, max_value=500.0),
)
def test_cdf_matches_scipy(alpha, beta):
    p = GammaParams(shape_alpha=alpha, rate_beta=beta)
    dist = scipy.stats.gamma(a=alpha, scale=1.0 / beta)
    for q in (0.25, 0.5, 0.9):
        x = float(dist.ppf(q))
        assert gamma_cdf(x, p) == pytest.approx(q, abs=1e-9)


# -------------------------------------------------------------- thresholds

def test_threshold_frozen_references():
    assert estimate_threshold(REF, 0.01).theta == pytest.approx(THETA_EPS_001, rel=1e-10)
    assert estimate_threshold(REF, 0.05).theta == pytest.approx(THETA_EPS_005, rel=1e-10)


@pytest.mark.parametrize(
    "alpha, rate, epsilon",
    [
        (15.0, 392.0, 0.05),
        (15.0, 392.0, 0.01),
        (1.78, 1663.44, 0.05),  # the README quick-start fit, rounded
        (0.5, 10.0, 0.05),
        (230.568, 58857.5, 0.05),  # criterion 9's fit, rounded
    ],
)
def test_threshold_matches_mpmath(alpha, rate, epsilon):
    theta = estimate_threshold(GammaParams(alpha, rate), epsilon).theta
    with mpmath.workdps(50):
        a, lam = mpmath.mpf(alpha), mpmath.mpf(rate)
        target = 1 - mpmath.mpf(epsilon)
        ref = mpmath.findroot(
            lambda x: mpmath.gammainc(a, 0, lam * x, regularized=True) - target,
            mpmath.mpf(theta),
        )
        rel_err = (theta - ref) / ref
    assert abs(rel_err) <= 2e-15


def test_threshold_exponential_closed_form():
    # shape 1 makes the gamma an exponential: theta = -ln(eps) / rate.
    unit = GammaParams(shape_alpha=1.0, rate_beta=1.0)
    assert estimate_threshold(unit, 0.01).theta == pytest.approx(
        4.605170185988091, abs=1e-6
    )
    assert estimate_threshold(unit, 0.05).theta == pytest.approx(
        2.995732273553991, abs=1e-6
    )
    halved = GammaParams(shape_alpha=1.0, rate_beta=2.0)
    assert estimate_threshold(halved, 0.05).theta == pytest.approx(
        2.995732273553991 / 2.0, abs=1e-6
    )


def test_threshold_is_upper_tail():
    spec = estimate_threshold(REF, 0.05)
    assert isinstance(spec, ThresholdSpec)
    assert gamma_cdf(spec.theta, REF) == pytest.approx(0.95, abs=1e-9)


def test_threshold_epsilon_validation():
    with pytest.raises(ValueError):
        estimate_threshold(REF, 0.0)
    with pytest.raises(ValueError):
        estimate_threshold(REF, 1.0)


# --------------------------------------------------------------------- MLE

def test_mle_first_order_conditions():
    rng = np.random.default_rng(7)
    x = rng.gamma(shape=4.0, scale=0.01, size=20000)
    p = fit_gamma_mle(x)
    # Stationarity: rate ties shape to the sample mean, and the shape
    # solves log(shape) - digamma(shape) = log(mean) - mean(log).
    assert p.shape_alpha / p.rate_beta == pytest.approx(float(x.mean()), rel=1e-12)
    s = math.log(float(x.mean())) - float(np.mean(np.log(x)))
    assert math.log(p.shape_alpha) - sp.digamma(p.shape_alpha) == pytest.approx(s, rel=1e-9)


@pytest.mark.parametrize("shape", [0.5, 2.0, 15.0, 230.0, 2000.0])
def test_mle_shape_is_the_mpmath_root(shape):
    # log(shape) and digamma(shape) both sit near log(shape), so taking
    # their difference by subtraction would lose digits as the shape grows.
    x = np.random.default_rng(1).gamma(shape=shape, size=2000)
    s = math.log(float(x.mean())) - float(np.mean(np.log(x)))
    alpha = fit_gamma_mle(x).shape_alpha
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda a: mpmath.log(a) - mpmath.digamma(a) - s, alpha)
        assert abs(float((alpha - root) / root)) <= 1e-15


def test_log_minus_digamma_matches_mpmath():
    with mpmath.workdps(50):
        for z in np.geomspace(0.3, 1e4, 301):
            ref = mpmath.log(z) - mpmath.digamma(z)
            assert abs(float((_log_minus_digamma(float(z)) - ref) / ref)) <= 1.2e-15, z


def test_mle_recovers_known_parameters():
    rng = np.random.default_rng(11)
    x = rng.gamma(shape=15.0, scale=1.0 / 392.0, size=200000)
    p = fit_gamma_mle(x)
    assert p.shape_alpha == pytest.approx(15.0, rel=0.03)
    assert p.rate_beta == pytest.approx(392.0, rel=0.03)


def test_mle_matches_scipy_fit():
    rng = np.random.default_rng(13)
    x = rng.gamma(shape=2.5, scale=0.004, size=5000)
    p = fit_gamma_mle(x)
    a_sp, _, scale_sp = scipy.stats.gamma.fit(x, floc=0.0)
    assert p.shape_alpha == pytest.approx(a_sp, rel=1e-4)
    assert p.rate_beta == pytest.approx(1.0 / scale_sp, rel=1e-4)


@given(st.floats(min_value=0.2, max_value=200.0))
@settings(max_examples=25)
def test_mle_scale_equivariance(c):
    rng = np.random.default_rng(17)
    x = rng.gamma(shape=3.0, scale=0.02, size=4000)
    p = fit_gamma_mle(x)
    q = fit_gamma_mle(c * x)
    assert q.shape_alpha == pytest.approx(p.shape_alpha, rel=1e-8)
    assert q.rate_beta == pytest.approx(p.rate_beta / c, rel=1e-8)


def test_mle_accepts_error_series_wrapper():
    from lanewatch.reconstruct import ErrorSeries

    rng = np.random.default_rng(19)
    x = rng.gamma(shape=3.0, scale=0.02, size=1000)
    assert fit_gamma_mle(ErrorSeries(values=x)).shape_alpha == pytest.approx(
        fit_gamma_mle(x).shape_alpha
    )


def test_mle_rejects_degenerate_input():
    with pytest.raises(DegenerateDataError):
        fit_gamma_mle(np.array([0.3]))
    with pytest.raises(DegenerateDataError):
        fit_gamma_mle(np.array([0.3, 0.3, 0.3]))
    with pytest.raises(DegenerateDataError):
        fit_gamma_mle(np.array([0.1, -0.2, 0.3]))
    with pytest.raises(DegenerateDataError):
        fit_gamma_mle(np.array([0.1, np.nan]))


# -------------------------------------------------------------- parameters

def test_params_mean():
    assert REF.mean == pytest.approx(15.0 / 392.0, rel=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        GammaParams(shape_alpha=0.0, rate_beta=1.0)
    with pytest.raises(ValueError):
        GammaParams(shape_alpha=1.0, rate_beta=-2.0)
