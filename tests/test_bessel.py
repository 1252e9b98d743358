"""Checks for the log-domain Bessel K routine.

scipy.special is the reference where it can evaluate without overflow; the
exponentially scaled variant covers the large-order regime, and mpmath the
arguments and orders where scipy cannot.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gpconv.bessel import log_bessel_k


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "nu", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 5.0, 7.25, 10.0, 20.0]
    )
    def test_moderate_orders(self, nu):
        x = np.logspace(-6, 2, 200)
        ref = np.log(special.kv(nu, x))
        ok = np.isfinite(ref)
        assert ok.sum() > 150
        np.testing.assert_allclose(log_bessel_k(nu, x)[ok], ref[ok], rtol=0, atol=1e-11)

    def test_large_order(self):
        # kv itself overflows for small x at nu=200; kve carries the scale.
        nu = 200.0
        x = np.linspace(0.05, 60.0, 120)
        ref = np.log(special.kve(nu, x)) - x
        ok = np.isfinite(ref)
        np.testing.assert_allclose(log_bessel_k(nu, x)[ok], ref[ok], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("nu", [120.5, 200.0, 400.0])
    def test_large_order_against_mpmath(self, nu):
        # where kve overflows at small x, which test_large_order filters out
        mpmath = pytest.importorskip("mpmath")
        x = np.logspace(-4, np.log10(50.0), 60)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.besselk(nu, xi))) for xi in x])
        np.testing.assert_allclose(log_bessel_k(nu, x), ref, rtol=1e-13, atol=0)

    def test_chunking_matches_single_batch(self):
        x = np.random.default_rng(0).uniform(1e-3, 40.0, 40000)
        whole = log_bessel_k(3.0, x)
        parts = np.concatenate([log_bessel_k(3.0, x[:111]), log_bessel_k(3.0, x[111:])])
        np.testing.assert_allclose(whole, parts, rtol=0, atol=1e-12)


class TestTinyArguments:
    """Tiny arguments, down to the smallest subnormal: the leading term, and
    for small orders the two-term form and the recurrence on kve."""

    @pytest.mark.parametrize("nu", [0.05, 0.8, 0.999, 1.0, 1.001, 1.5, 3.0])
    def test_matches_mpmath(self, nu):
        mpmath = pytest.importorskip("mpmath")
        x = np.array([5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.besselk(nu, xi))) for xi in x])
        np.testing.assert_allclose(log_bessel_k(nu, x), ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("nu", [0.001, 0.02])
    def test_small_order_at_subnormal_argument_is_finite(self, nu):
        # too small an order for the leading term: the two-term form serves
        mpmath = pytest.importorskip("mpmath")
        x = np.array([5e-324, 1e-310])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.besselk(nu, xi))) for xi in x])
        np.testing.assert_allclose(log_bessel_k(nu, x), ref, rtol=1e-13, atol=0)


_ORDERS = st.floats(0.0, 50.0, exclude_min=True)
_ARGUMENTS = st.floats(1e-6, 100.0)
_PROPERTY = settings(derandomize=True, database=None, deadline=None)


class TestRandomOrders:
    """Random (nu, x) with nu in (0, 50] and x in [1e-6, 100], at the
    tolerances of the parametrised checks above."""

    @settings(_PROPERTY, max_examples=200)
    @given(nu=_ORDERS, x=_ARGUMENTS)
    def test_matches_scipy_where_finite(self, nu, x):
        ref = np.log(special.kv(nu, x))
        if not np.isfinite(ref):
            return
        np.testing.assert_allclose(log_bessel_k(nu, x), ref, rtol=0, atol=1e-11)

    @settings(_PROPERTY, max_examples=40)
    @given(nu=_ORDERS, x=_ARGUMENTS)
    def test_matches_mpmath(self, nu, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.besselk(nu, x)))
        np.testing.assert_allclose(log_bessel_k(nu, x), ref, rtol=1e-13, atol=0)


def _mpmath_log_k(nu: float, x: float) -> float:
    """log K_nu(x) from mpmath, once an evaluation at twice the precision agrees.

    mpmath forms K from I_{-nu} - I_nu, which cancels at large orders and
    arguments: its 60-digit K at nu = 368.97, x = 273.23 is negative.
    """
    mpmath = pytest.importorskip("mpmath")
    dps = 40
    while True:
        with mpmath.workdps(dps):
            low = mpmath.besselk(nu, x)
        with mpmath.workdps(2 * dps):
            high = mpmath.besselk(nu, x)
            if high > 0 and abs(low - high) <= 1e-20 * high:
                return float(mpmath.log(high))
        dps *= 2


class TestSmallOrders:
    """Small orders at small arguments: below the reach of the leading term,
    and below the argument range of scipy's kve."""

    @pytest.mark.parametrize(
        "nu, x",
        [
            (0.05, 1e-50),
            (0.3, 2.2e-29),
            (0.3, 2.3e-29),
            (0.026, 5e-324),
            (0.02, 1e-300),
            (0.001, 5e-324),
            (1e-6, 5e-324),
            (1e-10, 5e-324),
        ],
    )
    def test_matches_mpmath(self, nu, x):
        np.testing.assert_allclose(log_bessel_k(nu, x), _mpmath_log_k(nu, x), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("x", [1.0, 1e-300])
    def test_subnormal_order(self, x):
        # kve gives NaN at a subnormal order; K_nu is even in nu, so K_0 serves
        nu = 5e-324
        np.testing.assert_allclose(log_bessel_k(nu, x), _mpmath_log_k(nu, x), rtol=1e-13, atol=0)


_WIDE_ORDERS = st.floats(math.log2(1e-3), math.log2(400.0)).map(lambda e: 2.0**e)
_WIDE_ARGUMENTS = st.floats(-1074.0, math.log2(2e3)).map(lambda e: 2.0**e)


class TestWideRange:
    """Orders log-uniform in [1e-3, 400] and arguments log-uniform from the
    smallest subnormal to 2e3, over every route."""

    @settings(_PROPERTY, max_examples=200)
    @given(nu=_WIDE_ORDERS, x=_WIDE_ARGUMENTS)
    def test_matches_mpmath(self, nu, x):
        np.testing.assert_allclose(log_bessel_k(nu, x), _mpmath_log_k(nu, x), rtol=1e-13, atol=0)


class TestInterface:
    def test_scalar_in_scalar_out(self):
        out = log_bessel_k(1.5, 2.0)
        assert np.ndim(out) == 0
        np.testing.assert_allclose(out, np.log(special.kv(1.5, 2.0)), atol=1e-12)

    def test_shape_preserved(self):
        x = np.array([[0.5, 1.0], [2.0, 3.0]])
        assert log_bessel_k(2.0, x).shape == (2, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_bessel_k(-1.0, 1.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, 0.0)
