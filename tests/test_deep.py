"""Layered hierarchy sampling and hidden-layer MCMC tests."""

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import lapack

from gpconv.analysis import discrete_norm
from gpconv.deep import (
    DgpChain,
    DgpSpec,
    LayerSpec,
    Truncation,
    dgp_posterior_mean,
    layer_kernel,
    sample_dgp_prior,
)
from gpconv.errors import MeshError, ParameterError, SamplingError, TruncationError
from gpconv.gp import PATH_JITTER_SCALE, TrainingData, _path_spectral, fit, posterior_mean
from gpconv.kernels import MaternKernel, check_psd, gram
from gpconv.analysis import uniform_design

MESH = np.linspace(0.0, 5.0, 101)
NON_UNIFORM_MESH = MESH**2 / 5.0


def _warp_spec(truncation=None, layer0_lambda=5.0):
    return DgpSpec(
        depth=1,
        layer0=MaternKernel(3.5, lam=layer0_lambda),
        layers=(LayerSpec("warp", base=MaternKernel(2.5), truncation=truncation),),
        rescale_warp=True,
    )


def _mixture_spec(layer0_sigma_sq=1.0, eta=1.0):
    return DgpSpec(
        depth=1,
        layer0=MaternKernel(3.5, sigma_sq=layer0_sigma_sq),
        layers=(LayerSpec("mixture_f", base=MaternKernel(2.5), link_eta=eta),),
    )


def _training_data(n=16, noise_var=1e-4):
    pts = uniform_design((0.0, 5.0), n).points
    return TrainingData(pts, np.sin(2 * pts), noise_var=noise_var)


class TestSpecs:
    def test_depth_layer_count_must_match(self):
        with pytest.raises(ParameterError):
            DgpSpec(
                depth=2, layer0=MaternKernel(2.5), layers=(LayerSpec("warp", MaternKernel(1.5)),)
            )

    def test_truncation_only_on_final_input_layer(self):
        trunc = Truncation("holder_discrete", 1, 10.0)
        with pytest.raises(ParameterError):
            DgpSpec(
                depth=2,
                layer0=MaternKernel(3.5),
                layers=(
                    LayerSpec("warp", MaternKernel(2.5), truncation=trunc),
                    LayerSpec("warp", MaternKernel(1.5)),
                ),
            )
        # legal on the last transition
        DgpSpec(
            depth=2,
            layer0=MaternKernel(3.5),
            layers=(
                LayerSpec("warp", MaternKernel(2.5)),
                LayerSpec("warp", MaternKernel(1.5), truncation=trunc),
            ),
        )

    def test_width_requires_depth_one_mixture(self):
        with pytest.raises(ParameterError):
            DgpSpec(
                depth=1, layer0=MaternKernel(2.5), layers=(LayerSpec("warp", MaternKernel(1.5)),),
                width=3,
            )
        DgpSpec(
            depth=1, layer0=MaternKernel(2.5), layers=(LayerSpec("mixture_f", MaternKernel(1.5)),),
            width=3,
        )


class TestSampleDgpPrior:
    def test_vanishing_layer0_reduces_mixture_to_base(self):
        """With the initial layer pinned at 0 and eta = 1, the final kernel
        is exactly the base Matern of the last layer."""
        spec = _mixture_spec(layer0_sigma_sq=1e-300, eta=1.0)
        layers = sample_dgp_prior(spec, MESH, seed=3)
        induced = layer_kernel(spec.layers[0], layers[0], MESH, False)
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
        trunc = Truncation("sobolev_discrete", 1, 12.0)
        spec = _warp_spec(truncation=trunc)
        for seed in range(5):
            layers = sample_dgp_prior(spec, MESH, seed=seed)
            norm = discrete_norm(layers[0], MESH, "sobolev_discrete", 1)
            assert norm <= 12.0

    def test_truncation_budget_exhaustion(self):
        trunc = Truncation("holder_discrete", 0, 1e-9)
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
            layer0=MaternKernel(3.5),
            layers=(
                LayerSpec("mixture_f", MaternKernel(3.5)),
                LayerSpec("mixture_f", MaternKernel(2.5)),
            ),
        )
        layers = sample_dgp_prior(spec, MESH, seed=1)
        assert len(layers) == 3 and all(l.shape == MESH.shape for l in layers)

    def test_wide_first_layer(self):
        spec = DgpSpec(
            depth=1, layer0=MaternKernel(3.5), layers=(LayerSpec("mixture_f", MaternKernel(2.5)),),
            width=3,
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
                induced = layer_kernel(spec.layers[0], layers[0], MESH, spec.rescale_warp)
                ok, smallest = check_psd(induced, pts, tol=1e-6)
                assert ok, f"smallest eigenvalue {smallest}"


class TestLayerKernel:
    def test_rescaled_warp_spans_the_mesh(self):
        """A rescaled warp layer maps onto the mesh's own interval."""
        mesh = np.linspace(0.0, 10.0, 201)
        layer = np.sin(mesh) + 0.3 * mesh
        layer_spec = LayerSpec("warp", base=MaternKernel(2.5))
        kernel = layer_kernel(layer_spec, layer, mesh, rescale_warp=True)
        warp = kernel.w(mesh)
        assert (warp.min(), warp.max()) == (0.0, 10.0)


class TestPathDraw:
    """Chains whose paths are drawn as ``xi @ factor.T`` rerun bit for bit."""

    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(
                depth=2,
                layer0=MaternKernel(3.5, lam=5.0),
                layers=(
                    LayerSpec("warp", base=MaternKernel(2.5)),
                    LayerSpec("mixture_f", base=MaternKernel(2.5)),
                ),
                rescale_warp=True,
            ),
            DgpSpec(
                depth=1, layer0=MaternKernel(3.5), width=3,
                layers=(LayerSpec("mixture_f", base=MaternKernel(2.5)),),
            ),
            _warp_spec(truncation=Truncation("holder_discrete", 2, 50.0)),
        ],
        ids=["depth2", "width3", "reference-kernel"],
    )
    def test_chain_trace_reproducible(self, spec):
        runs = []
        for _ in range(2):
            chain = DgpChain(spec, _training_data(), MESH, 0.3, rng_seed=9)
            steps = [(chain.step(), chain.log_likelihood) for _ in range(20)]
            runs.append((steps, chain.whitened_state))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)


class TestPathSpectral:
    """Layer 0 is drawn from the rank-r factor of its mesh Gram matrix."""

    REFERENCE_MESH = np.linspace(0.0, 5.0, 1024)

    def test_reference_factor_reproduces_gram_to_path_jitter(self):
        kernel = _warp_spec().layer0
        factor = _path_spectral(kernel, self.REFERENCE_MESH)
        gram_matrix = gram(kernel, self.REFERENCE_MESH)
        m, r = factor.shape
        assert m == len(self.REFERENCE_MESH) and r < m
        assert factor.flags.f_contiguous
        path_jitter = PATH_JITTER_SCALE * np.max(np.diag(gram_matrix))
        assert np.max(np.abs(factor @ factor.T - gram_matrix)) <= path_jitter

    def test_chain_state_has_rank_length(self):
        chain = DgpChain(_warp_spec(), _training_data(), MESH, 0.3, rng_seed=9)
        r = chain._factor0.shape[1]
        assert r < len(MESH)
        assert chain.whitened_state[0].shape == (r,)
        wide = DgpSpec(
            depth=1, layer0=MaternKernel(3.5, lam=5.0), width=3,
            layers=(LayerSpec("mixture_f", base=MaternKernel(2.5)),),
        )
        chain = DgpChain(wide, _training_data(), MESH, 0.3, rng_seed=9)
        assert chain.whitened_state[0].shape == (3, r)

    def test_no_kept_eigenpair_is_sampling_error(self, monkeypatch):
        def empty_eigh(matrix, *args, **kwargs):
            return np.empty(0), np.empty((len(matrix), 0), order="F")

        monkeypatch.setattr(linalg, "eigh", empty_eigh)
        with pytest.raises(SamplingError, match="no eigenvalue above the path jitter"):
            _path_spectral(MaternKernel(3.5, 5.0), MESH)


class TestChain:
    def test_requires_positive_noise(self):
        with pytest.raises(ParameterError):
            DgpChain(_warp_spec(), _training_data(noise_var=0.0), MESH, 0.25, 1)

    def test_truncated_hierarchy_needs_uniform_mesh(self):
        trunc = Truncation("holder_discrete", 2, 1e9)
        with pytest.raises(MeshError, match="uniformly spaced"):
            DgpChain(_warp_spec(truncation=trunc), _training_data(), NON_UNIFORM_MESH, 0.25, 1)

    def test_unfactorable_path_is_sampling_error(self, monkeypatch):
        """Layer 0 is factored by ``eigh`` and every other path by the packed
        Cholesky factorisation ``dpftrf``; either failing is a SamplingError
        naming the path jitter."""

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        def failing_dpftrf(n, a, **kwargs):
            return a, 1

        monkeypatch.setattr(lapack, "dpftrf", failing_dpftrf)
        monkeypatch.setattr(linalg, "eigh", failing)
        with pytest.raises(SamplingError, match="path jitter"):
            sample_dgp_prior(_warp_spec(), MESH, seed=0)
        with pytest.raises(SamplingError, match="path jitter"):
            DgpChain(_warp_spec(), _training_data(), MESH, 0.25, 1)

    def test_unfactorable_deeper_layer_is_sampling_error(self, monkeypatch):
        """Layer 0 factors, but the Cholesky factor of the next layer's Gram
        matrix does not: the sampler and the chain's start both raise the
        SamplingError they met."""

        def failing_dpftrf(n, a, **kwargs):
            return a, 1

        spec = DgpSpec(
            depth=2,
            layer0=MaternKernel(3.5, lam=5.0),
            layers=(
                LayerSpec("warp", MaternKernel(2.5)), LayerSpec("mixture_f", MaternKernel(2.5))
            ),
            rescale_warp=True,
        )
        monkeypatch.setattr(lapack, "dpftrf", failing_dpftrf)
        with pytest.raises(SamplingError, match="path jitter"):
            sample_dgp_prior(spec, MESH, seed=0)
        with pytest.raises(SamplingError, match="path jitter"):
            DgpChain(spec, _training_data(), MESH, 0.25, 1)

    def test_start_is_not_a_proposal(self):
        """The start state is a prior draw, not a proposal: a fresh chain
        counts no rejection, even on a ball at the prior's 30th percentile,
        which rejects most prior draws."""
        mesh = np.linspace(0.0, 5.0, 128)
        layer0 = [sample_dgp_prior(_warp_spec(), mesh, seed=s)[0] for s in range(200)]
        norms = [discrete_norm(f0, mesh, "holder_discrete", 2) for f0 in layer0]
        radius = float(np.percentile(norms, 30))
        spec = _warp_spec(truncation=Truncation("holder_discrete", 2, radius))
        for seed in range(10):
            chain = DgpChain(spec, _training_data(), mesh, 0.3, rng_seed=seed)
            assert (chain.n_trunc_rejections, chain.n_assembly_failures) == (0, 0)

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
            chain.spec.layers[0], chain._current["hidden"][-1], MESH, True
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
            chain.spec.layers[0], chain._current["hidden"][-1], MESH, True
        )
        post = fit(induced, data, jitter=0.0)
        assert chain.log_likelihood == -post.neg_log_like
        assert np.array_equal(chain.conditional_mean(), posterior_mean(post, MESH))

    def test_trajectory_reproducible(self):
        runs = []
        for _ in range(2):
            chain = DgpChain(_warp_spec(), _training_data(), MESH, 0.3, rng_seed=5)
            mean = dgp_posterior_mean(chain, n_burn=20, n_iter=30)
            runs.append((mean, chain.n_accepted, chain.whitened_state))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        for a, b in zip(runs[0][2], runs[1][2]):
            assert np.array_equal(a, b)

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
                depth=1, layer0=MaternKernel(3.5), width=3,
                layers=(LayerSpec("mixture_f", base=MaternKernel(2.5)),),
            ),
            DgpSpec(
                depth=2,
                layer0=MaternKernel(3.5),
                layers=(
                    LayerSpec("mixture_f", base=MaternKernel(3.5)),
                    LayerSpec(
                        "mixture_f", base=MaternKernel(2.5),
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
