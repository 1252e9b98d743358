"""Kernel evaluation tests.

Oracles: half-integer closed forms are checked against two independent
Bessel evaluations (scipy and the in-house log-domain routine); Bell
numbers against brute-force set-partition enumeration; positive
semi-definiteness against full eigendecomposition.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gpconv import kernels
from gpconv.bessel import log_bessel_k
from gpconv.errors import (
    DomainError,
    ParameterError,
    UnsupportedKernelError,
)
from gpconv.experiments import builtin_figures
from gpconv.functions import make_function
from gpconv.kernels import (
    Component,
    ConvolutionKernel,
    GaussianKernel,
    MaternKernel,
    MixtureKernel,
    WarpKernel,
    bell_number,
    check_psd,
    derivative_bound_constant,
    gram,
    kernel_diag,
    kernel_eval,
    kernel_matrix,
    matern_eval,
)

IDENTITY = make_function({"kind": "identity"})
UNIT = make_function({"kind": "constant", "value": 1.0})


def _brute_force_set_partitions(n: int) -> int:
    """Count partitions of {1..n} by direct recursive enumeration."""
    if n == 0:
        return 1
    count = 0

    def place(item, blocks):
        nonlocal count
        if item == n:
            count += 1
            return
        for block in blocks:
            block.append(item)
            place(item + 1, blocks)
            block.pop()
        blocks.append([item])
        place(item + 1, blocks)
        blocks.pop()

    place(0, [])
    return count


class TestMaternEval:
    def test_zero_distance_is_marginal_variance(self):
        assert matern_eval(math.inf, 1.0, 1.0, 0.0) == 1.0
        assert matern_eval(2.5, 1.0, 3.0, 0.0) == 3.0
        assert matern_eval(3.0, 2.0, 1.0, 0.0) == 1.0

    def test_exponential_case(self):
        # nu = 1/2 closed form is exp(-r/lambda)
        np.testing.assert_allclose(matern_eval(0.5, 1.0, 1.0, 1.0), math.exp(-1.0), rtol=1e-14)

    def test_gaussian_case(self):
        np.testing.assert_allclose(
            matern_eval(math.inf, 1.0, 1.0, 1.0), math.exp(-0.5), rtol=1e-14
        )

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
    def test_half_integer_agrees_with_bessel_forms(self, nu):
        """Closed form vs two independent Bessel evaluations, 1e-10 relative."""
        r = np.linspace(1e-6, 10.0, 100)
        closed = np.array([matern_eval(nu, 1.0, 1.0, ri) for ri in r])
        z = math.sqrt(2 * nu) * r
        scipy_form = (
            2 ** (1 - nu) / math.gamma(nu) * z**nu * special.kv(nu, z)
        )
        inhouse = np.exp(
            (1 - nu) * math.log(2) - math.lgamma(nu) + nu * np.log(z) + log_bessel_k(nu, z)
        )
        np.testing.assert_allclose(closed, scipy_form, rtol=1e-10)
        np.testing.assert_allclose(closed, inhouse, rtol=1e-10)

    @pytest.mark.parametrize("p", range(9))
    @pytest.mark.parametrize("sigma_sq", [0.7, 1.0, 3.0])
    def test_closed_form_zero_distance_exact(self, p, sigma_sq):
        """k(0) = sigma_sq to the last bit for every half-integer order."""
        assert matern_eval(p + 0.5, 1.3, sigma_sq, 0.0) == sigma_sq

    @pytest.mark.parametrize("p", range(9))
    def test_horner_matches_factorial_formula(self, p):
        """The Horner evaluation agrees with the factorial-sum closed form
        sigma^2 p!/(2p)! exp(-z) sum_i (p+i)!/(i!(p-i)!) (2z)^(p-i), 1e-14 relative."""
        nu, lam, sigma_sq = p + 0.5, 0.8, 2.0
        r = np.linspace(0.0, 40.0, 2001)
        z = math.sqrt(2.0 * nu) * r / lam
        poly = sum(
            math.factorial(p + i) / (math.factorial(i) * math.factorial(p - i)) * (2.0 * z) ** (p - i)
            for i in range(p + 1)
        )
        reference = sigma_sq * math.factorial(p) / math.factorial(2 * p) * np.exp(-z) * poly
        horner = kernel_matrix(MaternKernel(nu, lam, sigma_sq), r, [0.0])[:, 0]
        np.testing.assert_allclose(horner, reference, rtol=1e-14, atol=0)

    def test_gaussian_limit_large_nu(self):
        """Large-order kernels approach the Gaussian kernel.

        The genuine O(1/nu) gap grows with the distance: at nu = 200 it is
        0.9% relative at r = 2.5 but already 2.8% at r = 3 (checked against
        40-digit arithmetic), so the relative comparison stops at r = 2.5;
        the full range is held at the true absolute scale and the gap must
        shrink when the order grows further.
        """
        r = np.linspace(0.05, 3.0, 40)
        gauss = np.exp(-(r**2) / 2.0)
        nu200 = np.array([matern_eval(200.0, 1.0, 1.0, ri) for ri in r])
        near = r <= 2.5
        np.testing.assert_allclose(nu200[near], gauss[near], rtol=1e-2)
        np.testing.assert_allclose(nu200, gauss, rtol=0, atol=2e-3)
        nu1000 = np.array([matern_eval(1000.0, 1.0, 1.0, ri) for ri in r])
        assert np.max(np.abs(nu1000 - gauss)) < 0.3 * np.max(np.abs(nu200 - gauss))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            matern_eval(-1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            matern_eval(1.5, 0.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            matern_eval(1.5, 1.0, -2.0, 0.5)
        with pytest.raises(ParameterError):
            matern_eval(1.5, 1.0, 1.0, -0.1)


class TestKernelEval:
    def test_identity_warp_diagonal(self):
        spec = WarpKernel(w=IDENTITY, base=MaternKernel(2.5))
        assert kernel_eval(spec, 0.3, 0.3) == 1.0

    def test_single_component_mixture_reduces_to_base(self):
        spec = MixtureKernel(components=((UNIT, MaternKernel(0.5)),))
        np.testing.assert_allclose(kernel_eval(spec, 0.0, 1.0), math.exp(-1.0), rtol=1e-14)

    def test_convolution_diagonal_is_marginal_variance(self):
        lam_a = make_function({"kind": "poly2_sin", "a": 1.0, "b": -3.0, "c": 4.0})
        spec = ConvolutionKernel(lambda_a=lam_a, base_iso=MaternKernel(0.5, 1.0, 2.0))
        for u in [0.0, 1.3, 4.9]:
            np.testing.assert_allclose(kernel_eval(spec, u, u), 2.0, rtol=1e-14)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        specs = [c.kernel for c in builtin_figures()]
        for spec in specs:
            for _ in range(5):
                u, v = rng.uniform(0, 5, 2)
                assert kernel_eval(spec, u, v) == kernel_eval(spec, v, u)

    def test_diagonal_positive(self):
        rng = np.random.default_rng(6)
        for spec in (c.kernel for c in builtin_figures()):
            pts = rng.uniform(0, 5, 16)
            assert np.all(kernel_diag(spec, pts) >= 0.0)

    def test_negative_length_scale_rejected(self):
        bad = make_function({"kind": "constant", "value": -1.0})
        spec = ConvolutionKernel(lambda_a=bad, base_iso=MaternKernel(0.5))
        with pytest.raises(DomainError):
            kernel_eval(spec, 0.5, 1.0)

    def test_warp_base_must_be_stationary(self):
        with pytest.raises(ParameterError):
            WarpKernel(w=IDENTITY, base=WarpKernel(w=IDENTITY, base=MaternKernel(1.5)))

    def test_mixture_requires_component(self):
        with pytest.raises(ParameterError):
            MixtureKernel(components=())

    def test_mixture_components_are_component_pairs(self):
        pairs = ((IDENTITY, MaternKernel(1.5)), (UNIT, GaussianKernel(0.7)))
        spec = MixtureKernel(components=pairs)
        assert spec == MixtureKernel(components=tuple(Component(*p) for p in pairs))
        assert all(type(c) is Component for c in spec.components)
        assert [tuple(c) for c in spec.components] == list(pairs)
        sigma, base = spec.components[1]
        assert (sigma, base) == (UNIT, GaussianKernel(0.7))


_POLY2 = make_function({"kind": "poly2", "a": 0.2, "b": 0.1, "c": 0.0})
# every figure kernel, a mixture whose components warp, and a convolution
# over a Bessel-order base
_GRAM_KERNELS = {
    **{c.id: c.kernel for c in builtin_figures()},
    "mixture_of_warps": MixtureKernel(
        components=(
            (make_function({"kind": "sine", "freq": 1.0, "amp": 1.0}),
             WarpKernel(w=_POLY2, base=MaternKernel(2.5, lam=0.3))),
            (UNIT, WarpKernel(w=IDENTITY, base=MaternKernel(1.7))),
        )
    ),
    "convolution_bessel": ConvolutionKernel(
        lambda_a=make_function({"kind": "poly2_sin", "a": 1.0, "b": -3.0, "c": 4.0}),
        base_iso=MaternKernel(1.7),
    ),
}


class TestGram:
    @pytest.mark.parametrize("name", sorted(_GRAM_KERNELS))
    def test_symmetric_without_shared_arrays(self, name):
        """Rows and columns are evaluated each from their own points, so a
        Gram matrix from one array, from two equal arrays, and the transpose
        of either are equal bit for bit, and the diagonal is kernel_diag's."""
        spec = _GRAM_KERNELS[name]
        pts = np.random.default_rng(11).uniform(0.0, 5.0, 40)
        one = kernel_matrix(spec, pts)
        two = kernel_matrix(spec, pts, pts.copy())
        for matrix in (one.T, two, two.T):
            assert matrix.tobytes() == one.tobytes()
        assert kernel_diag(spec, pts.copy()).tobytes() == np.diag(one).tobytes()

    def test_single_point(self):
        np.testing.assert_allclose(gram(MaternKernel(0.5), [0.0]), [[1.0]])

    def test_two_point_values(self):
        expected = np.array([[1.0, math.exp(-1)], [math.exp(-1), 1.0]])
        np.testing.assert_allclose(gram(MaternKernel(0.5), [0.0, 1.0]), expected, rtol=1e-14)

    def test_mixture_with_vanishing_coefficient(self):
        spec = MixtureKernel(components=((IDENTITY, GaussianKernel()),))
        np.testing.assert_allclose(gram(spec, [0.0, 2.0]), [[0.0, 0.0], [0.0, 4.0]])

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 5, 24)
        for spec in (c.kernel for c in builtin_figures()):
            matrix = gram(spec, pts)
            assert np.array_equal(matrix, matrix.T)


class TestPointShape:
    def test_two_dimensional_points_rejected(self):
        pts = np.zeros((4, 2))
        for spec in [MaternKernel(1.5)] + [c.kernel for c in builtin_figures()]:
            with pytest.raises(ParameterError, match="ndim=2"):
                kernel_matrix(spec, pts)
            with pytest.raises(ParameterError):
                kernel_matrix(spec, [0.0, 1.0], pts)
            with pytest.raises(ParameterError):
                kernel_diag(spec, pts)


class TestCheckPsd:
    def test_matern_on_grid(self):
        pts = np.linspace(0.01, 4.99, 20)
        ok, smallest = check_psd(MaternKernel(1.5), pts, tol=1e-8)
        assert ok and smallest > -1e-8

    def test_warp_on_random_points(self):
        w = make_function({"kind": "poly2", "a": 0.2, "b": 0.1, "c": 0.0})
        pts = np.random.default_rng(1).uniform(0, 5, 20)
        ok, _ = check_psd(WarpKernel(w=w, base=MaternKernel(2.5)), pts, tol=1e-8)
        assert ok

    def test_vanishing_variance_limit(self):
        ok, smallest = check_psd(MaternKernel(1.5, 1.0, 1e-300), [0.0, 1.0, 2.0], tol=1e-8)
        assert ok and abs(smallest) < 1e-8

    def test_all_figure_kernels_psd_on_random_points(self):
        """Gram on 64 random points has smallest eigenvalue >= -1e-8."""
        pts = np.random.default_rng(11).uniform(0, 5, 64)
        for config in builtin_figures():
            ok, smallest = check_psd(config.kernel, pts, tol=1e-8)
            assert ok, f"{config.id} smallest eigenvalue {smallest}"


class TestBellNumbers:
    def test_first_values(self):
        assert bell_number(0) == 1
        assert bell_number(3) == 5
        assert bell_number(5) == 52

    def test_matches_brute_force_enumeration(self):
        for n in range(11):
            assert bell_number(n) == _brute_force_set_partitions(n)

    def test_range_guard(self):
        assert bell_number(25) > 0
        with pytest.raises(ParameterError):
            bell_number(26)
        with pytest.raises(ParameterError):
            bell_number(-1)


class TestDerivativeBoundConstant:
    def test_warp_formula(self):
        spec = WarpKernel(w=IDENTITY, base=GaussianKernel())
        value = derivative_bound_constant(spec, 1, {"w_c2p": 1.0})
        np.testing.assert_allclose(value, 1.0866 * math.sqrt(2.0) * 2.0, rtol=1e-12)

    def test_warp_linear_in_norm(self):
        spec = WarpKernel(w=IDENTITY, base=GaussianKernel())
        assert derivative_bound_constant(spec, 1, {"w_c2p": 0.0}) == 0.0
        one = derivative_bound_constant(spec, 1, {"w_c2p": 1.0})
        np.testing.assert_allclose(
            derivative_bound_constant(spec, 1, {"w_c2p": 3.0}), 3.0 * one, rtol=1e-12
        )

    def test_mixture_formula(self):
        spec = MixtureKernel(components=((UNIT, GaussianKernel()),))
        value = derivative_bound_constant(spec, 1, {"sigma_c2p_max": 1.0})
        np.testing.assert_allclose(value, 1.0866 * 2 * 16 * math.sqrt(2.0), rtol=1e-12)

    def test_convolution_informational_value_positive(self):
        spec = ConvolutionKernel(lambda_a=UNIT, base_iso=GaussianKernel())
        value = derivative_bound_constant(
            spec, 1, {"lambda_c2p": 1.0, "c_min": 0.5}
        )
        assert value > 0.0

    def test_requires_gaussian_base(self):
        spec = WarpKernel(w=IDENTITY, base=MaternKernel(2.5))
        with pytest.raises(UnsupportedKernelError):
            derivative_bound_constant(spec, 1, {"w_c2p": 1.0})

    def test_uncovered_variant_rejected(self):
        with pytest.raises(UnsupportedKernelError):
            derivative_bound_constant(GaussianKernel(), 1, {})

    def test_missing_norm_input(self):
        spec = WarpKernel(w=IDENTITY, base=GaussianKernel())
        with pytest.raises(ParameterError):
            derivative_bound_constant(spec, 1, {})


_INTEGER_ORDERS = [1, 2, 3, 4, 6, 10]


def _log_space_profile(nu: float, z: np.ndarray) -> np.ndarray:
    """2^(1-nu)/Gamma(nu) z^nu K_nu(z) through log_bessel_k alone."""
    log_k = (1 - nu) * math.log(2) - math.lgamma(nu) + nu * np.log(z) + log_bessel_k(nu, z)
    return np.exp(log_k)


class TestIntegerOrders:
    """Integer orders take the K_0/K_1 recurrence; mpmath is the oracle."""

    @pytest.mark.parametrize("n", _INTEGER_ORDERS)
    def test_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        z = np.logspace(-12, math.log10(700.0), 100)
        with mpmath.workdps(40):
            ref = np.array([
                float(mpmath.mpf(2) ** (1 - n) / mpmath.gamma(n) * mpmath.mpf(zi) ** n
                      * mpmath.besselk(n, zi))
                for zi in z
            ])
        got = kernels._matern_bessel_profile(float(n), 1.0, z)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", _INTEGER_ORDERS)
    @pytest.mark.parametrize("sigma_sq", [0.7, 1.0, 3.0])
    def test_zero_distance_exact(self, n, sigma_sq):
        assert matern_eval(float(n), 1.3, sigma_sq, 0.0) == sigma_sq

    @pytest.mark.parametrize("n", [3, 10, 200])
    def test_past_k0_underflow_takes_log_space(self, n):
        # K_0 leaves the normal range near z = 705 and is 0 past z = 746
        z = np.array([706.0, 720.0, 740.0, 750.0])
        got = kernels._matern_bessel_profile(float(n), 1.0, z)
        np.testing.assert_array_equal(got, _log_space_profile(float(n), z))
        assert np.all(got > 0) and np.all(np.isfinite(got))

    def test_order_200_agrees_with_log_space(self):
        # z^200 K_200(z) is outside the double range for z below about 600
        z = np.logspace(-3, math.log10(700.0), 80)
        got = kernels._matern_bessel_profile(200.0, 1.0, z)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        np.testing.assert_allclose(got, _log_space_profile(200.0, z), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("nu", [0.8, 3.0, 7.25])
    def test_subnormal_distance_is_zero_distance(self, nu):
        got = kernels._matern_bessel_profile(nu, 2.0, np.array([5e-324, 1e-310]))
        np.testing.assert_array_equal(got, [2.0, 2.0])

    def test_order_40_gram(self):
        spec = MaternKernel(40.0, 1.0, 2.0)
        pts = np.linspace(0.0, 5.0, 64)
        matrix = gram(spec, pts)
        assert np.all(np.isfinite(matrix))
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 2.0)
        ok, smallest = check_psd(spec, pts, tol=1e-10)
        assert ok, f"smallest eigenvalue {smallest}"


class TestMaternEvalOrders:
    @pytest.mark.parametrize("nu", [-math.inf, math.nan])
    def test_non_positive_or_nan_order_rejected(self, nu):
        with pytest.raises(ParameterError):
            matern_eval(nu, 1.0, 1.0, 0.5)


_REAL = st.floats(-2.0, 2.0)
_POSITIVE = st.floats(0.1, 2.0)
_DESCRIPTIONS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["poly2", "poly2_sin"]),
                           "a": _REAL, "b": _REAL, "c": _REAL}),
    st.fixed_dictionaries({"kind": st.just("indicator"), "lo": _REAL, "hi": _REAL,
                           "scale": _REAL, "include_lo": st.booleans(),
                           "include_hi": st.booleans()}),
    st.fixed_dictionaries({"kind": st.just("piecewise_poly2"), "split": _REAL,
                           **{k: _REAL for k in ("a1", "b1", "c1", "a2", "b2", "c2")}}),
    st.fixed_dictionaries({"kind": st.just("sine"), "freq": _REAL, "amp": _REAL}),
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _REAL}),
    st.just({"kind": "identity"}),
)
# strictly positive on the real line, as a length-scale field must be
_POSITIVE_DESCRIPTIONS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("poly2"), "a": _REAL, "b": _REAL, "c": _POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _POSITIVE}),
)
_MATERN = st.builds(
    MaternKernel, st.sampled_from([0.5, 1.5, 2.5, 3.5, 0.8, 1.0, 2.0, 3.0]), st.floats(0.2, 3.0), _POSITIVE
)
_GAUSSIAN = st.builds(GaussianKernel, st.floats(0.2, 3.0), _POSITIVE)
_STATIONARY = st.one_of(_MATERN, _GAUSSIAN)
_FUNCTIONS = st.builds(make_function, _DESCRIPTIONS)
_VARIANTS = {
    "matern": _MATERN,
    "gaussian": _GAUSSIAN,
    "warp": st.builds(WarpKernel, _FUNCTIONS, _STATIONARY),
    "mixture": st.builds(
        MixtureKernel, st.lists(st.tuples(_FUNCTIONS, _STATIONARY), min_size=1, max_size=3)
    ),
    "convolution": st.builds(
        ConvolutionKernel, st.builds(make_function, _POSITIVE_DESCRIPTIONS), _STATIONARY
    ),
}
_POINTS = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40).map(np.array)
_PROPERTY = settings(derandomize=True, database=None, max_examples=15, deadline=None)


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
class TestKernelProperties:
    """Random registry parameters and random 1-D point sets, N <= 40."""

    @_PROPERTY
    @given(data=st.data(), pts=_POINTS)
    def test_gram_exactly_symmetric(self, variant, data, pts):
        matrix = gram(data.draw(_VARIANTS[variant]), pts)
        assert np.array_equal(matrix, matrix.T)

    @_PROPERTY
    @given(data=st.data(), pts=_POINTS)
    def test_gram_psd(self, variant, data, pts):
        spec = data.draw(_VARIANTS[variant])
        tol = max(1e-10 * len(pts) * kernel_diag(spec, pts).max(), np.finfo(float).tiny)
        ok, smallest = check_psd(spec, pts, tol)
        assert ok, f"smallest eigenvalue {smallest}, tol {tol}"

    @_PROPERTY
    @given(data=st.data(), pts=_POINTS)
    def test_diag_is_gram_diagonal_bit_for_bit(self, variant, data, pts):
        spec = data.draw(_VARIANTS[variant])
        assert np.array_equal(kernel_diag(spec, pts), np.diag(kernel_matrix(spec, pts)))
