"""Gram matrices assembled in row blocks into one buffer and factored in place.

Assembly walks the prediction's row blocks, so every entry is computed by
the same expressions as in the one-shot ``kernel_matrix``: the assembled
entries and the factor must equal the one-shot results bit for bit.  From
``PACKED_MIN_N`` points on, a fit assembles the lower triangle in LAPACK's
rectangular full packed storage and ``dpftrf`` factors it, so the
references there are ``dtrttf`` of the one-shot matrix and ``dpftrf`` of
that.  The in-place factor also bounds the memory of a fit, and of
prediction from it, to about one Gram-sized array: N x N numbers below the
switch, N(N+1)/2 from it on.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import lapack

from gpconv import gp
from gpconv.deep import layer_kernel, sample_dgp_prior
from gpconv.experiments import builtin_figures, config_from_dict, reference_tdgp_config
from gpconv.errors import SingularGramError
from gpconv.gp import TrainingData, fit, posterior_cov, posterior_mean, posterior_var
from gpconv.kernels import kernel_matrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _tdgp_warp_layer_kernel():
    """The reference TDGP's final warp kernel, built from one prior draw of
    its initial layer on a coarse mesh."""
    config, _ = reference_tdgp_config()
    spec = config.kernel
    mesh = np.linspace(*config.domain, 129)
    f0 = sample_dgp_prior(spec, mesh, seed=3)[0]
    return layer_kernel(spec.layers[-1], f0, mesh, spec.rescale_warp)


KERNELS = {c.id: c.kernel for c in builtin_figures()}
KERNELS["tdgp_warp_layer"] = _tdgp_warp_layer_kernel()

# 300 points: blocks of 216 and 84 rows, factored by the lower variant.
# Packed from the switch on, in N - N // 2 rows of the packed array, whose
# layout differs for even and odd N: 576 points, 288 rows in blocks of 112,
# 112 and 64; 1081 points, 541 rows in blocks of 60, and the lone last row
# joins the block before.
SIZES = (300, 576, 1081)
PACKED_SIZES = tuple(n for n in SIZES if n >= gp.PACKED_MIN_N)


def _points(n):
    return np.sort(np.random.default_rng(n).uniform(0.0, 5.0, n))


def test_sizes_cover_a_short_last_block_and_a_lone_last_row():
    assert gp._block_rows(300) == 216
    assert gp._block_rows(1081) == 60 and 1081 % 60 == 1
    # the packed rows, N - N // 2 of them, of an even and an odd N
    assert gp._block_rows(576) == 112 and 288 % 112 == 64
    assert 541 % 60 == 1


def test_sizes_straddle_the_variant_switch():
    assert 300 < gp.PACKED_MIN_N <= 576


def _ridged(spec, pts, ridge):
    return kernel_matrix(spec, pts) + ridge * np.eye(len(pts))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(KERNELS))
class TestBlockwiseAssembly:
    def test_buffer_is_the_one_shot_gram_matrix(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        buffer = gp._gram(spec, pts)
        assert buffer.flags.c_contiguous
        np.testing.assert_array_equal(buffer, kernel_matrix(spec, pts))
        np.testing.assert_array_equal(buffer, buffer.T)

    def test_assembled_lower_triangle_is_the_one_shot_gram_matrix(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        buffer = gp._cholesky_gram(spec, pts)
        one_shot = kernel_matrix(spec, pts)
        if n < gp.PACKED_MIN_N:
            assert buffer.flags.c_contiguous
            np.testing.assert_array_equal(buffer, one_shot)
        else:
            expected, info = lapack.dtrttf(one_shot, uplo="L")
            assert info == 0 and buffer.shape == (n * (n + 1) // 2,)
            np.testing.assert_array_equal(buffer, expected)

    def test_factor_is_the_one_shot_cholesky_factor(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
        post = gp._condition(spec, data, (1e-12,))
        ridged = _ridged(spec, pts, data.noise_var + post.jitter)
        if n < gp.PACKED_MIN_N:
            expected = linalg.cholesky(ridged, lower=True)
            assert post.factor.flags.f_contiguous
            assert not np.triu(post.factor, 1).any()
        else:
            packed, _ = lapack.dtrttf(ridged, uplo="L")
            expected, info = lapack.dpftrf(n, packed, uplo="L")
            assert info == 0
        np.testing.assert_array_equal(post.factor, expected)


@pytest.mark.parametrize("n", PACKED_SIZES)
@pytest.mark.parametrize("name", ["fig_conv", "fig_warp", "tdgp_warp_layer"])
def test_packed_solves_match_the_dense_factor(name, n):
    """Posterior variance and covariance solve with the packed factor as
    ``solve_triangular`` does with the dense one.  The subtracted term
    (L^-1 k(u, U)) . (L^-1 k(v, U)) is compared: the variances themselves
    are about 1e-7 here, what is left of a prior of 1 after cancellation."""
    spec, pts = KERNELS[name], _points(n)
    data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
    post = fit(spec, data)
    dense = np.linalg.cholesky(_ridged(spec, pts, data.noise_var + post.jitter))
    query = np.linspace(0.0, 5.0, 37)
    half = linalg.solve_triangular(dense, kernel_matrix(spec, query, pts).T, lower=True)
    prior = kernel_matrix(spec, query)
    np.testing.assert_allclose(
        np.diag(prior) - posterior_var(post, query), np.sum(half**2, axis=0), rtol=1e-9, atol=0
    )
    for i, j in [(3, 11), (20, 20), (36, 0)]:
        subtracted = prior[i, j] - posterior_cov(post, query[i], query[j])
        assert subtracted == pytest.approx(half[:, i] @ half[:, j], rel=1e-9, abs=0)


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_path_factor_is_expanded_lower_triangular(n):
    """A packed path factor is expanded to a dense lower triangle: its
    strict upper triangle is zero and L L^T is the jittered Gram matrix."""
    spec, mesh = KERNELS["tdgp_warp_layer"], np.linspace(0.0, 5.0, n)
    factor = gp._path_cholesky(spec, mesh)
    assert factor.shape == (n, n) and factor.flags.f_contiguous
    assert not np.triu(factor, 1).any()
    gram_matrix = kernel_matrix(spec, mesh)
    ridged = gram_matrix + gp.PATH_JITTER_SCALE * np.max(np.diag(gram_matrix)) * np.eye(n)
    rebuilt = factor @ factor.T
    assert np.linalg.norm(rebuilt - ridged) <= 1e-12 * np.linalg.norm(ridged)


def test_singular_gram_error_reads_the_assembled_triangle(monkeypatch):
    """Above the switch the packed factorisation fails; the reported
    eigenvalue is that of the whole ridged matrix on unsorted points."""
    n = gp.PACKED_MIN_N + 88
    spec = KERNELS["fig_warp"]
    pts = np.random.default_rng(7).uniform(0.0, 5.0, n)
    data = TrainingData(pts, np.sin(2.0 * pts))

    def failing(n, a, **kwargs):
        return a, 1

    monkeypatch.setattr(gp.lapack, "dpftrf", failing)
    with pytest.raises(SingularGramError) as info:
        fit(spec, data)
    ridge = gp.DEFAULT_JITTER * gp.JITTER_ESCALATION
    smallest = np.linalg.eigvalsh(kernel_matrix(spec, pts) + ridge * np.eye(n))[0]
    assert f"smallest eigenvalue {smallest:.3e}" in str(info.value)


def _fit_and_predict_peak(n):
    """tracemalloc peak of a fit on n points of the warp example and its
    posterior mean and variance on the example's mesh."""
    config = config_from_dict(json.loads((CONFIGS / "warp_example.json").read_text()))
    pts = np.linspace(*config.domain, n)
    data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
    mesh = np.linspace(*config.domain, config.eval_mesh_size)
    tracemalloc.start()
    try:
        post = fit(config.kernel, data)
        posterior_mean(post, mesh)
        posterior_var(post, mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not post.escalated
    assert post.factor.shape == (n * (n + 1) // 2,)
    return peak


def test_fit_holds_about_one_gram_sized_array():
    """The Gram matrix is built into the packed buffer that becomes the
    factor: no retry copy and no dense copy for LAPACK, and neither the
    solve nor prediction copies it."""
    n = 1024
    assert n >= gp.PACKED_MIN_N
    assert _fit_and_predict_peak(n) < 1.0 * 8 * n * n


def test_fit_of_2048_points_holds_about_half_a_dense_gram_matrix():
    n = 2048
    assert _fit_and_predict_peak(n) < 0.75 * 8 * n * n


def test_an_escalation_frees_the_failed_buffer(monkeypatch):
    """The failed first factorisation's buffer is freed before the
    escalated attempt rebuilds the Gram matrix."""
    config = config_from_dict(json.loads((CONFIGS / "warp_example.json").read_text()))
    n = 1024
    pts = np.linspace(*config.domain, n)
    data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
    real_dpftrf = gp.lapack.dpftrf
    calls = []

    def fail_first(n, a, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return a, 1
        return real_dpftrf(n, a, **kwargs)

    monkeypatch.setattr(gp.lapack, "dpftrf", fail_first)
    tracemalloc.start()
    try:
        post = fit(config.kernel, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert post.escalated
    assert peak < 1.0 * 8 * n * n
