"""Layered hierarchy sampling and hidden-layer MCMC tests."""

import numpy as np
import pytest
from scipy import linalg

from gpconv.analysis import discrete_norm
from gpconv.deep import (
    DgpChain,
    DgpSpec,
    LayerSpec,
    Truncation,
    _path_cholesky,
    _path_draw,
    dgp_posterior_mean,
    layer_kernel,
    sample_dgp_prior,
)
from gpconv.errors import MeshError, ParameterError, SamplingError, TruncationError
from gpconv.gp import TrainingData, fit, posterior_mean
from gpconv.kernels import MaternKernel, check_psd, gram
from gpconv.analysis import uniform_design

MESH = np.linspace(0.0, 5.0, 101)
NON_UNIFORM_MESH = MESH**2 / 5.0


def _warp_spec(truncation=None, layer0_lambda=5.0):
    return DgpSpec(
        depth=1,
        layer0_nu=3.5,
        layer0_lambda=layer0_lambda,
        layers=(LayerSpec("warp", base_nu=2.5, truncation=truncation),),
        rescale_warp=True,
        domain=(0.0, 5.0),
    )


def _mixture_spec(layer0_sigma_sq=1.0, eta=1.0):
    return DgpSpec(
        depth=1,
        layer0_nu=3.5,
        layer0_sigma_sq=layer0_sigma_sq,
        layers=(LayerSpec("mixture_f", base_nu=2.5, link_eta=eta),),
        domain=(0.0, 5.0),
    )


def _training_data(n=16, noise_var=1e-4):
    pts = uniform_design((0.0, 5.0), n).points
    return TrainingData(pts, np.sin(2 * pts), noise_var=noise_var)


class TestSpecs:
    def test_depth_layer_count_must_match(self):
        with pytest.raises(ParameterError):
            DgpSpec(depth=2, layer0_nu=2.5, layers=(LayerSpec("warp", 1.5),))

    def test_truncation_only_on_final_input_layer(self):
        trunc = Truncation("holder_discrete", 1, 10.0)
        with pytest.raises(ParameterError):
            DgpSpec(
                depth=2,
                layer0_nu=3.5,
                layers=(
                    LayerSpec("warp", 2.5, truncation=trunc),
                    LayerSpec("warp", 1.5),
                ),
            )
        # legal on the last transition
        DgpSpec(
            depth=2,
            layer0_nu=3.5,
            layers=(LayerSpec("warp", 2.5), LayerSpec("warp", 1.5, truncation=trunc)),
        )

    def test_width_requires_depth_one_mixture(self):
        with pytest.raises(ParameterError):
            DgpSpec(depth=1, layer0_nu=2.5, layers=(LayerSpec("warp", 1.5),), width=3)
        DgpSpec(depth=1, layer0_nu=2.5, layers=(LayerSpec("mixture_f", 1.5),), width=3)


class TestSampleDgpPrior:
    def test_vanishing_layer0_reduces_mixture_to_base(self):
        """With the initial layer pinned at 0 and eta = 1, the final kernel
        is exactly the base Matern of the last layer."""
        spec = _mixture_spec(layer0_sigma_sq=1e-300, eta=1.0)
        layers = sample_dgp_prior(spec, MESH, seed=3)
        induced = layer_kernel(spec.layers[0], layers[0], MESH, False, spec.domain)
        probe = MESH[::10]
        np.testing.assert_allclose(
            gram(induced, probe), gram(MaternKernel(2.5), probe), atol=1e-12
        )

    def test_vacuous_truncation_accepts_first_draw(self):
        trunc = Truncation("holder_discrete", 2, 1e9)
        free = sample_dgp_prior(_warp_spec(), MESH, seed=5)
        constrained = sample_dgp_prior(_warp_spec(truncation=trunc), MESH, seed=5)
        np.testing.assert_array_equal(free[0], constrained[0])

    def test_final_layer_zero_mean(self):
        """Monte Carlo mean of the final layer at a fixed mesh point."""
        spec = _mixture_spec()
        idx = 50
        draws = np.array(
            [sample_dgp_prior(spec, MESH, seed=s)[-1][idx] for s in range(2000)]
        )
        stderr = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean()) <= 3 * stderr

    def test_truncation_soundness(self):
        trunc = Truncation("sobolev_discrete", 1, 12.0, max_rejections=500)
        spec = _warp_spec(truncation=trunc)
        for seed in range(5):
            layers = sample_dgp_prior(spec, MESH, seed=seed)
            norm = discrete_norm(layers[0], MESH, "sobolev_discrete", 1)
            assert norm <= 12.0

    def test_truncation_budget_exhaustion(self):
        trunc = Truncation("holder_discrete", 0, 1e-9, max_rejections=5)
        with pytest.raises(TruncationError, match="acceptance rate"):
            sample_dgp_prior(_warp_spec(truncation=trunc), MESH, seed=0)

    def test_truncated_hierarchy_needs_uniform_mesh(self):
        trunc = Truncation("holder_discrete", 2, 1e9)
        with pytest.raises(MeshError, match="uniformly spaced"):
            sample_dgp_prior(_warp_spec(truncation=trunc), NON_UNIFORM_MESH, seed=0)

    def test_deterministic(self):
        a = sample_dgp_prior(_warp_spec(), MESH, seed=9)
        b = sample_dgp_prior(_warp_spec(), MESH, seed=9)
        for la, lb in zip(a, b):
            assert np.array_equal(la, lb)

    def test_depth_two_shapes(self):
        spec = DgpSpec(
            depth=2,
            layer0_nu=3.5,
            layers=(LayerSpec("mixture_f", 3.5), LayerSpec("mixture_f", 2.5)),
        )
        layers = sample_dgp_prior(spec, MESH, seed=1)
        assert len(layers) == 3 and all(l.shape == MESH.shape for l in layers)

    def test_wide_first_layer(self):
        spec = DgpSpec(
            depth=1, layer0_nu=3.5, layers=(LayerSpec("mixture_f", 2.5),), width=3
        )
        layers = sample_dgp_prior(spec, MESH, seed=1)
        assert layers[0].shape == (3, len(MESH))
        assert layers[1].shape == MESH.shape

    def test_induced_kernel_psd(self):
        """Final-layer kernels built from sampled states pass the PSD check."""
        pts = np.random.default_rng(4).uniform(0, 5, 32)
        for seed in range(3):
            for spec in [_warp_spec(), _mixture_spec()]:
                layers = sample_dgp_prior(spec, MESH, seed=seed)
                induced = layer_kernel(
                    spec.layers[0], layers[0], MESH, spec.rescale_warp, spec.domain
                )
                ok, smallest = check_psd(induced, pts, tol=1e-6)
                assert ok, f"smallest eigenvalue {smallest}"


class TestPathDraw:
    def test_vector_state_bit_identical_to_matmul(self):
        chol = _path_cholesky(MaternKernel(3.5, 5.0), MESH)
        xi = np.random.default_rng(0).standard_normal(len(MESH))
        assert np.array_equal(_path_draw(chol, xi), chol @ xi)

    def test_width_state_matches_matmul(self):
        chol = _path_cholesky(MaternKernel(3.5, 5.0), MESH)
        xi = np.random.default_rng(1).standard_normal((3, len(MESH)))
        drawn = _path_draw(chol, xi)
        expected = xi @ chol.T
        assert drawn.shape == (3, len(MESH))
        assert np.max(np.abs(drawn - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(
                depth=2,
                layer0_nu=3.5,
                layer0_lambda=5.0,
                layers=(LayerSpec("warp", base_nu=2.5), LayerSpec("mixture_f", base_nu=2.5)),
                rescale_warp=True,
            ),
            DgpSpec(
                depth=1, layer0_nu=3.5, width=3, layers=(LayerSpec("mixture_f", base_nu=2.5),)
            ),
        ],
        ids=["depth2", "width3"],
    )
    def test_chain_trace_reproducible(self, spec):
        traces = []
        for _ in range(2):
            chain = DgpChain(spec, _training_data(), MESH, 0.3, rng_seed=9)
            for _ in range(20):
                chain.step()
            traces.append(chain.trace_csv())
        assert traces[0] == traces[1]


class TestChain:
    def test_requires_positive_noise(self):
        with pytest.raises(ParameterError):
            DgpChain(_warp_spec(), _training_data(noise_var=0.0), MESH, 0.25, 1)

    def test_truncated_hierarchy_needs_uniform_mesh(self):
        trunc = Truncation("holder_discrete", 2, 1e9)
        with pytest.raises(MeshError, match="uniformly spaced"):
            DgpChain(_warp_spec(truncation=trunc), _training_data(), NON_UNIFORM_MESH, 0.25, 1)

    def test_unfactorable_path_is_sampling_error(self, monkeypatch):
        def failing_cholesky(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(linalg, "cholesky", failing_cholesky)
        with pytest.raises(SamplingError, match="path jitter"):
            sample_dgp_prior(_warp_spec(), MESH, seed=0)
        with pytest.raises(SamplingError, match="path jitter"):
            DgpChain(_warp_spec(), _training_data(), MESH, 0.25, 1)

    def test_beta_zero_chain_is_constant(self):
        chain = DgpChain(_warp_spec(), _training_data(), MESH, step_beta=0.0, rng_seed=2)
        state0 = [x.copy() for x in chain.whitened_state]
        ll0 = chain.log_likelihood
        for _ in range(5):
            accepted = chain.step()
            assert accepted
        assert chain.log_likelihood == ll0
        for a, b in zip(chain.whitened_state, state0):
            assert np.array_equal(a, b)

    def test_beta_zero_mean_matches_single_kernel_posterior(self):
        """With the hidden layer frozen, the chain average equals the exact
        conditional GP posterior mean of the induced kernel."""
        data = _training_data()
        chain = DgpChain(_warp_spec(), data, MESH, step_beta=0.0, rng_seed=11)
        mean = dgp_posterior_mean(chain, n_burn=3, n_iter=4)
        induced = layer_kernel(
            chain.spec.layers[0], chain._current["hidden"][-1], MESH, True, chain.spec.domain
        )
        post = fit(induced, data, jitter=0.0)
        reference = posterior_mean(post, MESH)
        np.testing.assert_allclose(mean, reference, rtol=1e-12, atol=1e-14)

    def test_likelihood_and_mean_are_those_of_gp_fit(self):
        """The chain conditions its final layer as ``gp.fit`` does with the
        noise alone as ridge: same likelihood and mean, bit for bit."""
        data = _training_data()
        chain = DgpChain(_warp_spec(), data, MESH, step_beta=0.3, rng_seed=11)
        for _ in range(5):
            chain.step()
        induced = layer_kernel(
            chain.spec.layers[0], chain._current["hidden"][-1], MESH, True, chain.spec.domain
        )
        post = fit(induced, data, jitter=0.0)
        assert chain.log_likelihood == -post.neg_log_like
        assert np.array_equal(chain.conditional_mean(), posterior_mean(post, MESH))

    def test_trajectory_reproducible(self):
        runs = []
        for _ in range(2):
            chain = DgpChain(_warp_spec(), _training_data(), MESH, 0.3, rng_seed=5)
            mean = dgp_posterior_mean(chain, n_burn=20, n_iter=30)
            runs.append((mean, [t["accepted"] for t in chain.trace]))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_zero_observations_give_zero_mean(self):
        pts = uniform_design((0.0, 5.0), 12).points
        data = TrainingData(pts, np.zeros(12), noise_var=1e-4)
        chain = DgpChain(_warp_spec(), data, MESH, 0.3, rng_seed=7)
        mean = dgp_posterior_mean(chain, n_burn=10, n_iter=20)
        np.testing.assert_allclose(mean, 0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "spec",
        [
            _warp_spec(truncation=Truncation("sobolev_discrete", 1, 12.0)),
            DgpSpec(
                depth=1, layer0_nu=3.5, width=3, layers=(LayerSpec("mixture_f", base_nu=2.5),)
            ),
            DgpSpec(
                depth=2,
                layer0_nu=3.5,
                layers=(
                    LayerSpec("mixture_f", base_nu=3.5),
                    LayerSpec(
                        "mixture_f", base_nu=2.5,
                        truncation=Truncation("holder_discrete", 0, 1.5),
                    ),
                ),
            ),
        ],
        ids=["depth1-truncated", "width3", "depth2-truncated"],
    )
    def test_start_state_is_prior_draw(self, spec):
        """The chain starts from the prior sampler's hidden layers: both run
        the same forward map and reject whole states outside the ball."""
        for seed in range(5):
            chain = DgpChain(spec, _training_data(), MESH, 0.3, rng_seed=seed)
            prior = sample_dgp_prior(spec, MESH, seed)
            assert len(chain._current["hidden"]) == spec.depth
            for got, want in zip(chain._current["hidden"], prior[:-1]):
                assert np.array_equal(got, want)

    def test_partial_tuning_window_ignored(self):
        """Two full windows of (near-certain) acceptance double the step
        twice; the trailing 20 burn-in steps leave it alone."""
        chain = DgpChain(_warp_spec(), _training_data(), MESH, step_beta=1e-6, rng_seed=4)
        dgp_posterior_mean(chain, n_burn=120, n_iter=1)
        assert chain.step_beta == 4e-6

    def test_trace_csv_columns(self):
        chain = DgpChain(_warp_spec(), _training_data(), MESH, 0.3, rng_seed=1)
        for _ in range(3):
            chain.step()
        lines = chain.trace_csv().strip().splitlines()
        assert lines[0] == "iteration,log_likelihood,accepted,beta"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] in ("0", "1")

    def test_tuning_moves_acceptance_into_range(self):
        """Acceptance rate lands in (0.05, 0.95) for the constrained run."""
        trunc = Truncation("holder_discrete", 2, 50.0)
        chain = DgpChain(
            _warp_spec(truncation=trunc), _training_data(n=16, noise_var=1e-3),
            MESH, step_beta=0.9, rng_seed=3,
        )
        dgp_posterior_mean(chain, n_burn=300, n_iter=700)
        rate = chain.n_accepted / chain.iteration
        assert 0.05 < rate < 0.95


class TestTruncationMeshSize:
    """A truncation of order p needs a mesh of at least p + 2 points."""

    MESH4 = np.linspace(0.0, 5.0, 4)

    def test_prior_rejects_too_small_mesh(self):
        trunc = Truncation("holder_discrete", 3, 1e9)
        with pytest.raises(MeshError, match="at least 5 points, got 4"):
            sample_dgp_prior(_warp_spec(truncation=trunc), self.MESH4, seed=0)

    def test_chain_rejects_too_small_mesh(self):
        trunc = Truncation("sobolev_discrete", 3, 1e9)
        with pytest.raises(MeshError, match="at least 5 points, got 4"):
            DgpChain(_warp_spec(truncation=trunc), _training_data(), self.MESH4, 0.25, 1)

    def test_smallest_admissible_mesh(self):
        trunc = Truncation("holder_discrete", 2, 1e9)
        layers = sample_dgp_prior(_warp_spec(truncation=trunc), self.MESH4, seed=0)
        assert [layer.shape for layer in layers] == [(4,), (4,)]
