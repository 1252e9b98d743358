"""Design geometry, norms and rate fitting.

The discrete Sobolev norms are checked against adaptive quadrature of the
analytic integrands; rate fits against synthetic exact power laws.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from gpconv.analysis import (
    DesignSet,
    _difference_derivatives,
    discrete_norm,
    error_norm,
    fill_distance,
    fit_rate,
    matern_equivalence_constants,
    mesh_ratio,
    min_separation,
    uniform_design,
)
from gpconv.errors import MeshError, ParameterError


def _quad_sobolev_sin2(order: int) -> float:
    """Quadrature oracle for the order-q Sobolev norm of sin(2u) on (0, 5)."""
    total = 0.0
    for q in range(order + 1):
        def derivative_sq(u, q=q):
            if q % 4 == 0:
                d = math.sin(2 * u)
            elif q % 4 == 1:
                d = math.cos(2 * u)
            elif q % 4 == 2:
                d = -math.sin(2 * u)
            else:
                d = -math.cos(2 * u)
            return (2.0**q * d) ** 2

        value, _ = integrate.quad(derivative_sq, 0.0, 5.0, epsabs=1e-13, epsrel=1e-13, limit=300)
        total += value
    return math.sqrt(total)


class TestFillDistance:
    def test_left_endpoint_grid_matches_domain_over_n(self):
        # the left-endpoint family keeps h = |domain| / N (exactly for
        # dyadic N; to the last ulp otherwise)
        for n in [1, 2, 4, 256]:
            pts = np.arange(n) * 5.0 / n
            assert fill_distance(DesignSet(pts, (0.0, 5.0))) == 5.0 / n
        for n in [5, 37]:
            pts = np.arange(n) * 5.0 / n
            assert math.isclose(fill_distance(DesignSet(pts, (0.0, 5.0))), 5.0 / n, rel_tol=1e-15)

    def test_right_endpoint_grid_matches_domain_over_n(self):
        for n in [1, 2, 4, 256]:
            assert fill_distance(uniform_design((0.0, 5.0), n)) == 5.0 / n
        for n in [5, 37]:
            assert math.isclose(fill_distance(uniform_design((0.0, 5.0), n)), 5.0 / n, rel_tol=1e-15)

    def test_single_midpoint(self):
        assert fill_distance(DesignSet([0.5], (0.0, 1.0))) == 0.5

    def test_endpoints(self):
        assert fill_distance(DesignSet([0.0, 1.0], (0.0, 1.0))) == 0.5

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(2)
        pts = list(rng.uniform(0, 1, 4))
        design = DesignSet(pts, (0.0, 1.0))
        h_prev = fill_distance(design)
        for extra in rng.uniform(0, 1, 20):
            if extra in pts:
                continue
            pts.append(extra)
            h_next = fill_distance(DesignSet(pts, (0.0, 1.0)))
            assert h_next <= h_prev + 1e-15
            h_prev = h_next


class TestMeshRatio:
    def test_uniform_grid_is_two(self):
        pts = np.arange(5) * 1.0  # left-endpoint grid on (0, 5)
        assert mesh_ratio(DesignSet(pts, (0.0, 5.0))) == 2.0

    def test_three_point_example(self):
        assert mesh_ratio(DesignSet([0.0, 0.5, 1.0], (0.0, 1.0))) == 1.0

    def test_clustered_pair(self):
        value = mesh_ratio(DesignSet([0.0, 0.001, 1.0], (0.0, 1.0)))
        np.testing.assert_allclose(value, 2 * 0.4995 / 0.001)

    def test_needs_two_points(self):
        with pytest.raises(ParameterError):
            min_separation(DesignSet([0.5], (0.0, 1.0)))


class TestDiscreteNorm:
    def test_constant_sobolev_order_one(self):
        mesh = np.linspace(0, 5, 128)
        values = np.full(128, -2.5)
        np.testing.assert_allclose(
            discrete_norm(values, mesh, "sobolev_discrete", 1), 2.5 * math.sqrt(5.0), rtol=1e-12
        )

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_sin_matches_quadrature_oracle(self, order):
        mesh = np.linspace(0, 5, 4096)
        values = np.sin(2 * mesh)
        oracle = _quad_sobolev_sin2(order)
        approx = discrete_norm(values, mesh, "sobolev_discrete", order)
        np.testing.assert_allclose(approx, oracle, rtol=1e-4)

    def test_frozen_oracle_values(self):
        # quadrature oracle against the closed forms sqrt(5/2 - sin(20)/8)
        # and sqrt(25/2 + 3 sin(20)/8), frozen
        np.testing.assert_allclose(_quad_sobolev_sin2(0), 1.5446300021879176, rtol=1e-12)
        np.testing.assert_allclose(_quad_sobolev_sin2(1), 3.58362309248934, rtol=1e-12)

    def test_holder_norm_of_constant(self):
        # boundary difference stencils leave O(eps/h) noise on exact data
        mesh = np.linspace(0, 5, 64)
        value = discrete_norm(np.full(64, 3.0), mesh, "holder_discrete", 2)
        np.testing.assert_allclose(value, 3.0, rtol=1e-12)

    def test_rejects_non_uniform_mesh(self):
        mesh = np.array([0.0, 0.1, 0.3, 0.6])
        with pytest.raises(MeshError):
            discrete_norm(np.zeros(4), mesh, "sobolev_discrete", 0)

    def test_rejects_short_mesh(self):
        with pytest.raises(MeshError):
            discrete_norm(np.zeros(2), np.array([0.0, 1.0]), "sobolev_discrete", 1)

    @pytest.mark.parametrize("length", [3, 4, 5, 17, 1024])
    @pytest.mark.parametrize("h", [0.1, 1.0 / 3.0, 5.0 / 1023.0, 2.0])
    def test_differences_are_np_gradient_bit_for_bit(self, length, h):
        values = np.random.default_rng(length).standard_normal(length)
        expected = [values]
        for _ in range(3):
            expected.append(np.gradient(expected[-1], h, edge_order=2))
        for got, want in zip(_difference_derivatives(values, h, 3), expected, strict=True):
            np.testing.assert_array_equal(got, want)


class TestErrorNorm:
    def test_zero_difference(self):
        mesh = np.linspace(0, 5, 256)
        values = np.sin(2 * mesh)
        for kind in ["l2", "h1", "h2", "sup"]:
            assert error_norm(lambda u: np.sin(2 * u), values, mesh, kind) == 0.0

    def test_l2_of_sin_against_zero(self):
        mesh = np.linspace(0, 5, 4096)
        value = error_norm(lambda u: np.sin(2 * u), np.zeros(4096), mesh, "l2")
        assert abs(value - 1.544630) < 1e-4

    def test_l2_converges_in_mesh_size(self):
        for m in [512, 4096]:
            mesh = np.linspace(0, 5, m)
            value = error_norm(lambda u: np.sin(2 * u), np.zeros(m), mesh, "l2")
            assert abs(value - 1.544630) < 1e-4

    def test_constant_difference(self):
        mesh = np.linspace(0, 5, 512)
        value = error_norm(lambda u: np.full_like(u, 2.0), np.zeros(512), mesh, "l2")
        np.testing.assert_allclose(value, 2.0 * math.sqrt(5.0), rtol=1e-12)

    def test_sup_norm(self):
        mesh = np.linspace(0, 5, 512)
        diff = np.zeros(512)
        diff[100] = -3.0
        assert error_norm(lambda u: np.zeros_like(u), diff, mesh, "sup") == 3.0

    @staticmethod
    def _smooth_difference():
        """A random smooth truth, a random smooth approximation on a uniform
        mesh, and their difference there."""
        rng = np.random.default_rng(7)
        mesh = np.linspace(0.0, 5.0, 301)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        k = np.arange(1, 7)

        def truth(u):
            return np.sin(np.outer(u, k)) @ (a / k**2)

        approx = np.cos(np.outer(mesh, k)) @ (b / k**3)
        return truth, approx, mesh, truth(mesh) - approx

    def test_l2_is_trapezoid_of_squared_difference(self):
        truth, approx, mesh, d = self._smooth_difference()
        expected = math.sqrt(float(np.trapezoid(d * d, dx=mesh[1] - mesh[0])))
        assert error_norm(truth, approx, mesh, "l2") == expected

    def test_sup_is_max_absolute_difference(self):
        truth, approx, mesh, d = self._smooth_difference()
        assert error_norm(truth, approx, mesh, "sup") == float(np.max(np.abs(d)))

    @pytest.mark.parametrize("kind, order", [("h1", 1), ("h2", 2)])
    def test_sobolev_kinds_are_discrete_sobolev_norms(self, kind, order):
        truth, approx, mesh, d = self._smooth_difference()
        expected = discrete_norm(d, mesh, "sobolev_discrete", order)
        assert error_norm(truth, approx, mesh, kind) == expected

    def test_unknown_kind(self):
        mesh = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ParameterError, match="unknown error norm kind"):
            error_norm(np.zeros(8), np.zeros(8), mesh, "h3")


class TestFitRate:
    def test_exact_quadratic_power_law(self):
        h = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        rf = fit_rate(h, 3.0 * h**2, tail=5)
        np.testing.assert_allclose(rf.slope, 2.0, atol=1e-10)
        np.testing.assert_allclose(rf.r_squared, 1.0, atol=1e-12)
        np.testing.assert_allclose(rf.intercept, math.log(3.0), atol=1e-10)

    def test_exact_cubic_power_law(self):
        h = np.logspace(0, -3, 10)
        rf = fit_rate(h, 3.0 * h**3, tail=10)
        np.testing.assert_allclose(rf.slope, 3.0, atol=1e-10)
        np.testing.assert_allclose(rf.r_squared, 1.0, atol=1e-12)

    def test_two_point_slope(self):
        rf = fit_rate([1.0, 0.5], [1.0, 0.25], tail=2)
        np.testing.assert_allclose(rf.slope, 2.0, atol=1e-12)
        assert rf.points_used == 2

    def test_tail_restricts_to_smallest_h(self):
        h = np.array([1.0, 0.5, 0.25, 0.125])
        errors = np.array([100.0, 0.5**3, 0.25**3, 0.125**3])  # outlier at coarse level
        rf = fit_rate(h, errors, tail=3)
        np.testing.assert_allclose(rf.slope, 3.0, atol=1e-10)

    def test_rejects_non_positive_errors(self):
        with pytest.raises(ParameterError):
            fit_rate([1.0, 0.5], [1.0, 0.0], tail=2)

    def test_rejects_short_tail(self):
        with pytest.raises(ParameterError):
            fit_rate([1.0, 0.5], [1.0, 0.5], tail=1)


class TestMaternEquivalenceConstants:
    def test_half_smoothness_unit_parameters(self):
        low, up = matern_equivalence_constants(0.5, 1.0, 1.0, 1)
        np.testing.assert_allclose(low, math.pi**-0.5, atol=1e-12)
        np.testing.assert_allclose(up, math.pi**-0.5, atol=1e-12)

    def test_unit_length_scale_collapses_bounds(self):
        low, up = matern_equivalence_constants(2.5, 1.0, 4.0, 2)
        assert low == up

    def test_linear_in_sigma(self):
        low1, up1 = matern_equivalence_constants(1.5, 0.7, 1.0, 1)
        low2, up2 = matern_equivalence_constants(1.5, 0.7, 4.0, 1)
        np.testing.assert_allclose(low2, 2 * low1, rtol=1e-12)
        np.testing.assert_allclose(up2, 2 * up1, rtol=1e-12)

    def test_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nu = rng.uniform(0.2, 6.0)
            lam = rng.uniform(0.1, 4.0)
            sig = rng.uniform(0.1, 4.0)
            low, up = matern_equivalence_constants(nu, lam, sig, 1)
            assert low <= up

    def test_infinite_nu_rejected(self):
        with pytest.raises(ParameterError):
            matern_equivalence_constants(math.inf, 1.0, 1.0, 1)
