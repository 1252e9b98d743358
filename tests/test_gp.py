"""Conditioning and prior sampling tests.

The 2x2 fit is checked against a direct dense solve; the interpolation and
variance properties against the behaviour exact conditioning must exhibit
(training-value reproduction, nested-design variance monotonicity).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.stats import multivariate_normal

from gpconv.errors import ParameterError, SingularGramError
from gpconv.experiments import builtin_figures
from gpconv.gp import (
    TrainingData,
    fit,
    posterior_cov,
    posterior_mean,
    posterior_var,
    sample_prior,
)
from gpconv.kernels import GaussianKernel, MaternKernel, gram
from gpconv.analysis import uniform_design


class TestTrainingData:
    def test_shape_checks(self):
        with pytest.raises(ParameterError):
            TrainingData(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ParameterError):
            TrainingData(np.array([]), np.array([]))

    def test_points_are_one_dimensional(self):
        data = TrainingData([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert data.points.shape == (3,)
        with pytest.raises(ParameterError, match=r"\(3, 2\)"):
            TrainingData(np.zeros((3, 2)), np.zeros(3), noise_var=0.1)

    def test_duplicates_rejected_when_noise_free(self):
        with pytest.raises(ParameterError):
            TrainingData(np.array([0.0, 0.0]), np.array([1.0, 1.0]), noise_var=0.0)
        # fine with noise
        TrainingData(np.array([0.0, 0.0]), np.array([1.0, 1.0]), noise_var=0.1)


class TestFit:
    def test_single_point_weights(self):
        post = fit(MaternKernel(0.5), TrainingData(np.array([0.0]), np.array([1.0])), jitter=0.0)
        np.testing.assert_allclose(post.weights, [1.0])

    def test_two_point_weights_match_dense_solve(self):
        data = TrainingData(np.array([0.0, 3.0]), np.array([1.0, 2.0]))
        post = fit(GaussianKernel(), data, jitter=0.0)
        K = np.array([[1.0, math.exp(-4.5)], [math.exp(-4.5), 1.0]])
        np.testing.assert_allclose(post.weights, np.linalg.solve(K, [1.0, 2.0]), rtol=1e-12)

    def test_duplicated_points_raise_singular_gram(self):
        data = TrainingData(np.array([0.0, 0.0]), np.array([1.0, 1.0]), noise_var=1e-300)
        with pytest.raises(SingularGramError, match="pivot"):
            fit(MaternKernel(1.5), data, jitter=0.0)

    def test_singular_gram_reports_escalated_eigenvalue(self):
        """The message names the jitter that failed last and the smallest
        eigenvalue of that matrix, not of the unescalated one."""
        data = TrainingData(np.array([0.0, 0.0]), np.array([1.0, 1.0]), noise_var=1e-300)
        with pytest.raises(SingularGramError) as info:
            fit(MaternKernel(1.5), data, jitter=1e-300)
        message = str(info.value)
        assert "jitter 1.000e-297" in message
        assert "smallest eigenvalue" in message

    def test_factor_reproduces_regularised_gram(self):
        """L L^T matches K + (noise + jitter) I to 1e-10 relative Frobenius."""
        design = uniform_design((0.0, 5.0), 32)
        data = TrainingData(design.points, np.sin(2 * design.points), noise_var=1e-4)
        post = fit(MaternKernel(1.5), data, jitter=1e-12)
        reg = gram(MaternKernel(1.5), design.points) + (1e-4 + post.jitter) * np.eye(32)
        lower, info = lapack.dtfttr(32, post.factor, uplo="L")
        assert info == 0
        rebuilt = lower @ lower.T
        rel = np.linalg.norm(rebuilt - reg) / np.linalg.norm(reg)
        assert rel < 1e-10

    def test_escalation_recorded(self):
        # a dense Gaussian-kernel design is numerically indefinite at
        # jitter 1e-17 but factors cleanly after the single 1000x escalation
        design = uniform_design((0.0, 5.0), 32)
        data = TrainingData(design.points, np.sin(design.points), noise_var=0.0)
        post = fit(GaussianKernel(), data, jitter=1e-17)
        assert post.escalated and post.jitter == pytest.approx(1e-14)


def _five_variants():
    """One kernel of each registry variant: the two stationary kernels and
    the first built-in figure kernel of each non-stationary construction."""
    kernels = {
        "MaternKernel": MaternKernel(2.5, 0.7, 1.3),
        "GaussianKernel": GaussianKernel(0.8, 0.5),
    }
    for config in builtin_figures():
        kernels.setdefault(type(config.kernel).__name__, config.kernel)
    return kernels


@pytest.mark.parametrize("variant", sorted(_five_variants()))
def test_neg_log_like_matches_gaussian_logpdf(variant):
    """neg_log_like is the Gaussian negative log density of y under
    N(0, K + s I) without its N/2 log(2 pi) constant."""
    spec = _five_variants()[variant]
    rng = np.random.default_rng(3)
    points = np.sort(rng.uniform(0.0, 5.0, 24))
    data = TrainingData(points, np.sin(2 * points) + 0.5, noise_var=1e-3)
    post = fit(spec, data, jitter=1e-12)
    cov = gram(spec, points) + (data.noise_var + post.jitter) * np.eye(data.n)
    log_density = multivariate_normal(cov=cov).logpdf(data.values)
    oracle = -log_density - data.n / 2 * math.log(2 * math.pi)
    assert post.neg_log_like == pytest.approx(oracle, rel=1e-10)


class TestPosteriorMean:
    def test_interpolates_single_point(self):
        post = fit(MaternKernel(0.5), TrainingData(np.array([0.0]), np.array([1.0])), jitter=0.0)
        np.testing.assert_allclose(posterior_mean(post, [0.0]), [1.0])

    def test_reproduces_training_values(self):
        design = uniform_design((0.0, 5.0), 8)
        values = np.sin(2 * design.points)
        post = fit(MaternKernel(2.5), TrainingData(design.points, values), jitter=1e-15)
        resid = posterior_mean(post, design.points) - values
        assert np.max(np.abs(resid)) <= 1e-6

    def test_zero_values_give_zero_mean(self):
        design = uniform_design((0.0, 5.0), 8)
        post = fit(
            MaternKernel(2.5), TrainingData(design.points, np.zeros(8)), jitter=1e-15
        )
        np.testing.assert_allclose(posterior_mean(post, np.linspace(0, 5, 33)), 0.0)

    def test_mean_linear_in_observations(self):
        design = uniform_design((0.0, 5.0), 16)
        query = np.linspace(0.3, 4.7, 11)
        y1 = np.sin(2 * design.points)
        y2 = np.cos(design.points)
        a, b = 2.5, -1.25

        def mean_for(values):
            post = fit(MaternKernel(1.5), TrainingData(design.points, values), jitter=1e-12)
            return posterior_mean(post, query)

        combined = mean_for(a * y1 + b * y2)
        separate = a * mean_for(y1) + b * mean_for(y2)
        np.testing.assert_allclose(combined, separate, rtol=1e-10, atol=1e-12)


class TestPosteriorCov:
    def test_zero_at_training_point(self):
        design = uniform_design((0.0, 5.0), 8)
        post = fit(
            MaternKernel(1.5),
            TrainingData(design.points, np.sin(design.points)),
            jitter=0.0,
        )
        u = design.points[3]
        assert abs(posterior_cov(post, u, u)) <= 1e-8

    def test_single_point_closed_form(self):
        post = fit(MaternKernel(0.5), TrainingData(np.array([0.0]), np.array([1.0])), jitter=0.0)
        np.testing.assert_allclose(
            posterior_cov(post, 1.0, 1.0), 1.0 - math.exp(-2.0), rtol=1e-12
        )

    def test_symmetric(self):
        design = uniform_design((0.0, 5.0), 12)
        post = fit(
            MaternKernel(1.5),
            TrainingData(design.points, np.sin(design.points)),
            jitter=1e-12,
        )
        assert posterior_cov(post, 1.2, 3.4) == posterior_cov(post, 3.4, 1.2)

    def test_variance_monotone_under_nested_designs(self):
        """Doubling a nested design never increases the posterior variance."""
        spec = MaternKernel(1.5)
        query = np.linspace(0.1, 4.9, 17)
        coarse = uniform_design((0.0, 5.0), 16)
        fine = uniform_design((0.0, 5.0), 32)
        assert set(np.round(coarse.points, 12)) <= set(np.round(fine.points, 12))
        var_coarse = posterior_var(
            fit(spec, TrainingData(coarse.points, np.sin(coarse.points)), jitter=1e-15), query
        )
        var_fine = posterior_var(
            fit(spec, TrainingData(fine.points, np.sin(fine.points)), jitter=1e-15), query
        )
        assert np.all(var_fine <= var_coarse + 1e-8)

    def test_variance_clamped_at_training_points(self):
        design = uniform_design((0.0, 5.0), 8)
        post = fit(MaternKernel(1.5), TrainingData(design.points, np.sin(design.points)), jitter=0.0)
        var = posterior_var(post, design.points)
        assert np.all(var >= 0.0) and np.all(var <= 1e-8)

    def test_variance_error_names_most_negative_value(self):
        """A factor scaled by 1/2 quadruples the subtracted term: the raw
        variance is exactly -3 at a training point and above it elsewhere."""
        design = uniform_design((0.0, 5.0), 8)
        post = fit(MaternKernel(1.5), TrainingData(design.points, np.sin(design.points)), jitter=0.0)
        broken = replace(post, factor=0.5 * post.factor)
        query = [0.5 * (design.points[2] + design.points[3]), design.points[3]]
        with pytest.raises(ParameterError, match=r"posterior variance -3\.000e\+00"):
            posterior_var(broken, query)


class TestSamplePrior:
    def test_single_point_standard_normal(self):
        value = sample_prior(MaternKernel(0.5), [0.5], seed=7)
        expected = np.random.default_rng(7).standard_normal(1)
        np.testing.assert_allclose(value, expected, rtol=1e-6)

    def test_deterministic(self):
        mesh = np.linspace(0, 5, 20)
        a = sample_prior(MaternKernel(1.5), mesh, seed=3)
        b = sample_prior(MaternKernel(1.5), mesh, seed=3)
        assert np.array_equal(a, b)

    def test_empirical_variance_matches_kernel(self):
        """Monte Carlo variance at a mesh point within 5% of k(u, u)."""
        mesh = np.array([0.0, 1.0, 2.5])
        spec = MaternKernel(1.5, 1.0, 2.0)
        draws = np.array([sample_prior(spec, mesh, seed=s)[1] for s in range(10000)])
        np.testing.assert_allclose(np.var(draws), 2.0, rtol=0.05)

    def test_empty_mesh_rejected(self):
        with pytest.raises(ParameterError):
            sample_prior(MaternKernel(1.5), [], seed=0)


class TestInterpolationAllFigureKernels:
    @pytest.mark.parametrize("config", builtin_figures(), ids=lambda c: c.id)
    def test_noise_free_interpolation(self, config):
        design = uniform_design((0.0, 5.0), 64)
        values = np.asarray(config.truth(design.points), dtype=float)
        post = fit(config.kernel, TrainingData(design.points, values), jitter=1e-15)
        resid = posterior_mean(post, design.points) - values
        assert np.max(np.abs(resid)) <= 1e-6

    @pytest.mark.parametrize("config", builtin_figures(), ids=lambda c: c.id)
    def test_noise_free_interpolation_largest_level(self, config):
        """The 1e-6 residual bound holds out to N = 1024, escalation included."""
        design = uniform_design((0.0, 5.0), 1024)
        values = np.asarray(config.truth(design.points), dtype=float)
        post = fit(config.kernel, TrainingData(design.points, values), jitter=1e-15)
        resid = posterior_mean(post, design.points) - values
        assert np.max(np.abs(resid)) <= 1e-6
