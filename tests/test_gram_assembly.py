"""Gram matrices assembled in row blocks into one buffer and factored in place.

Assembly walks the prediction's row blocks, so every entry is computed by
the same expressions as in the one-shot ``kernel_matrix``: the assembled
entries and the factor must equal the one-shot results bit for bit.  Every
Gram matrix is assembled as its lower triangle in LAPACK's rectangular
full packed storage and a fit's is factored by ``dpftrf``, so the
references are ``dtrttf`` of the one-shot matrix and ``dpftrf`` of that;
layer 0's spectral path factor must be the ``evr`` eigenpairs of the
one-shot matrix.  The in-place factor also bounds the memory of a fit,
and of prediction from it, to about half a Gram-sized array, N(N+1)/2
numbers; a path factor and its draw hold about one.  The work is counted
too: a warp runs once per point set, and a stationary kernel's profile
once per packed entry, one row block at a time.  At small N, where
the two halves of the packed layout are a few numbers each, every result
a fit or a draw gives is checked against a dense oracle.
"""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import blas, lapack

from gpconv import gp, kernels
from gpconv.deep import layer_kernel, sample_dgp_prior
from gpconv.experiments import builtin_figures, config_from_dict, reference_tdgp_config
from gpconv.errors import SingularGramError
from gpconv.gp import (
    TrainingData,
    fit,
    posterior_cov,
    posterior_mean,
    posterior_var,
    sample_prior,
)
from gpconv.functions import FunctionHandle
from gpconv.kernels import GaussianKernel, MaternKernel, kernel_matrix

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

# Packed in N - N // 2 rows of the packed array, whose layout differs for
# even and odd N: 300 points, 150 rows in one block; 576 points, 288 rows
# in blocks of 112, 112 and 64; 1081 points, 541 rows in blocks of 60, and
# the lone last row joins the block before.  A prediction against 300
# points walks its query in blocks of 216 rows.
SIZES = (300, 576, 1081)
# every N up to 5, and both parities around powers of two up to the TDGP
# chain's largest level
SMALL_SIZES = (1, 2, 3, 4, 5, 16, 63, 64, 255, 256)


def _points(n):
    return np.sort(np.random.default_rng(n).uniform(0.0, 5.0, n))


def test_sizes_cover_a_short_last_block_and_a_lone_last_row():
    assert gp._block_rows(300) == 216 and 300 % 216 == 84
    assert gp._block_rows(1081) == 60 and 1081 % 60 == 1
    # the packed rows, N - N // 2 of them, of an even and an odd N
    assert gp._block_rows(576) == 112 and 288 % 112 == 64
    assert 541 % 60 == 1


def _ridged(spec, pts, ridge):
    return kernel_matrix(spec, pts) + ridge * np.eye(len(pts))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(KERNELS))
class TestBlockwiseAssembly:
    def test_buffer_is_the_one_shot_gram_matrix(self, name, n):
        """The m x m buffer ``eigh`` reads, ``dtfttr`` of the packed Gram
        matrix as ``_path_spectral`` and the SingularGramError report
        expand it, holds the one-shot matrix in its lower triangle."""
        spec, pts = KERNELS[name], _points(n)
        buffer, info = lapack.dtfttr(n, gp._packed_gram(spec, pts), uplo="L")
        assert info == 0 and buffer.shape == (n, n) and buffer.flags.f_contiguous
        np.testing.assert_array_equal(np.tril(buffer), np.tril(kernel_matrix(spec, pts)))

    def test_assembled_lower_triangle_is_the_one_shot_gram_matrix(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        buffer = gp._packed_gram(spec, pts)
        expected, info = lapack.dtrttf(kernel_matrix(spec, pts), uplo="L")
        assert info == 0 and buffer.shape == (n * (n + 1) // 2,)
        np.testing.assert_array_equal(buffer, expected)

    def test_factor_is_the_one_shot_cholesky_factor(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
        post = gp._condition(spec, data, (1e-12,))
        packed, _ = lapack.dtrttf(_ridged(spec, pts, data.noise_var + post.jitter), uplo="L")
        expected, info = lapack.dpftrf(n, packed, uplo="L")
        assert info == 0
        np.testing.assert_array_equal(post.factor, expected)


@pytest.mark.parametrize("n", SIZES)
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


@pytest.mark.parametrize("m", [1024, 1081])
def test_spectral_path_factor_is_the_one_shot_eigendecomposition(m):
    """Layer 0's factor, from the packed Gram matrix expanded for ``evr``,
    is bit for bit the eigenpairs above the path jitter of the one-shot
    Gram matrix, scaled by sqrt(s): on the reference layer-0 mesh (even m)
    and on an odd mesh, the two RFP layouts."""
    config, _ = reference_tdgp_config()
    spec = config.kernel.layer0
    mesh = np.linspace(*config.domain, m)
    gram_matrix = kernel_matrix(spec, mesh)
    path_jitter = gp.PATH_JITTER_SCALE * np.max(np.diag(gram_matrix))
    values, vectors = linalg.eigh(
        gram_matrix, subset_by_value=(path_jitter, np.inf), driver="evr"
    )
    np.testing.assert_array_equal(gp._path_spectral(spec, mesh), vectors * np.sqrt(values))


@pytest.mark.parametrize("n", SIZES)
def test_path_factor_is_packed_lower_triangular(n):
    """A path factor is L in standard packed storage: L L^T is the jittered
    Gram matrix, and a path is L xi."""
    spec, mesh = KERNELS["tdgp_warp_layer"], np.linspace(0.0, 5.0, n)
    factor = gp._path_cholesky(spec, mesh)
    assert factor.shape == (n * (n + 1) // 2,)
    lower, info = lapack.dtpttr(n, factor, uplo="L")
    assert info == 0 and not np.triu(lower, 1).any()
    gram_matrix = kernel_matrix(spec, mesh)
    ridged = gram_matrix + gp.PATH_JITTER_SCALE * np.max(np.diag(gram_matrix)) * np.eye(n)
    rebuilt = lower @ lower.T
    assert np.linalg.norm(rebuilt - ridged) <= 1e-12 * np.linalg.norm(ridged)
    xi = np.random.default_rng(n).standard_normal(n)
    np.testing.assert_allclose(blas.dtpmv(n, factor, xi, lower=1), lower @ xi, rtol=0, atol=1e-12)


def test_path_factor_and_draw_hold_one_gram_sized_array():
    """The packed Gram matrix is factored in place and rearranged into the
    path factor: the two packed vectors, m(m+1) numbers, are the peak."""
    m = 1024
    spec, mesh = MaternKernel(2.5, 0.5), np.linspace(0.0, 5.0, m)
    xi = np.random.default_rng(0).standard_normal(m)
    tracemalloc.start()
    try:
        blas.dtpmv(m, gp._path_cholesky(spec, mesh), xi, lower=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.01 * 8 * m * m


@pytest.mark.parametrize("n", SMALL_SIZES)
def test_rfp_diagonal_holds_the_diagonal(n):
    packed, info = lapack.dtrttf(np.diag(np.arange(1.0, n + 1)), uplo="L")
    assert info == 0
    leading, trailing = gp._rfp_diagonal(n)
    np.testing.assert_array_equal(
        np.sort(np.concatenate([packed[leading], packed[trailing]])), np.arange(1.0, n + 1)
    )


@pytest.mark.parametrize("n", SMALL_SIZES)
def test_small_fits_and_draws_match_a_dense_oracle(n):
    """Weights, likelihood, variance and a prior path from the packed
    storage agree with the dense Cholesky factor's to roundoff: the worst
    of these N, the Gram matrix's condition number is about 1e6, and the
    errors are 30 or more times smaller than the tolerances."""
    spec = MaternKernel(1.5, 0.8)
    pts = _points(n)
    data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-4)
    post = fit(spec, data)
    dense = np.linalg.cholesky(_ridged(spec, pts, data.noise_var + post.jitter))
    weights = linalg.cho_solve((dense, True), data.values)
    np.testing.assert_allclose(post.weights, weights, rtol=0, atol=1e-10 * np.max(np.abs(weights)))
    neg_log_like = np.sum(np.log(np.diag(dense))) + 0.5 * data.values @ weights
    assert post.neg_log_like == pytest.approx(neg_log_like, rel=1e-12, abs=1e-12)

    query = np.linspace(0.0, 5.0, 23)
    half = linalg.solve_triangular(dense, kernel_matrix(spec, query, pts).T, lower=True)
    np.testing.assert_allclose(
        gp.kernel_diag(spec, query) - posterior_var(post, query),
        np.sum(half**2, axis=0),
        rtol=0,
        atol=1e-13,
    )

    mesh = np.linspace(0.0, 5.0, n)
    gram_matrix = kernel_matrix(spec, mesh)
    path_jitter = gp.PATH_JITTER_SCALE * np.max(np.diag(gram_matrix))
    path_factor = np.linalg.cholesky(gram_matrix + path_jitter * np.eye(n))
    xi = np.random.default_rng(11).standard_normal(n)
    np.testing.assert_allclose(
        sample_prior(spec, mesh, seed=11), path_factor @ xi, rtol=0, atol=1e-10
    )


def test_singular_gram_error_reads_the_assembled_triangle(monkeypatch):
    """The packed factorisation fails; the reported eigenvalue is that of
    the whole ridged matrix on unsorted points."""
    n = 600
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


def _counted_warp(spec, calls):
    """``spec`` with its warp wrapped so that every call appends to ``calls``."""

    def fn(u, w=spec.w):
        calls.append(np.size(u))
        return w(u)

    return replace(spec, w=FunctionHandle(fn=fn, label=spec.w.label))


WARPS = ["fig_warp", "fig_warp_noninv", "tdgp_warp_layer"]


@pytest.mark.parametrize("n", SMALL_SIZES + SIZES)
@pytest.mark.parametrize("name", WARPS)
def test_gram_matrix_warps_the_points_once(name, n):
    calls = []
    spec, pts = _counted_warp(KERNELS[name], calls), _points(n)
    packed = gp._packed_gram(spec, pts)
    assert calls == [n]
    np.testing.assert_array_equal(packed, gp._packed_gram(KERNELS[name], pts))


@pytest.mark.parametrize("name", WARPS)
def test_prediction_warps_each_point_set_once(name):
    """A cross matrix of many row blocks warps the query once and the
    design once, for the mean of several levels and for the variance."""
    calls = []
    spec, pts = _counted_warp(KERNELS[name], calls), _points(576)
    query = np.linspace(0.0, 5.0, 1000)
    assert len(list(gp._row_blocks(len(query), len(pts)))) > 1
    blocks = list(gp._cross_blocks(spec, query, pts))
    assert calls == [1000, 576] and len(blocks) > 1
    for rows, cross in blocks:
        np.testing.assert_array_equal(cross, kernel_matrix(KERNELS[name], query[rows], pts))

    post = fit(KERNELS[name], TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6))
    levels = [(pts[::2], np.ones(288)), (pts, post.weights)]
    calls.clear()
    gp.posterior_means(spec, levels, query)
    assert calls == [1000, 576]
    calls.clear()
    posterior_var(replace(post, spec=spec), query)
    assert calls == [1000, 576]


STATIONARY = {
    "matern_half_integer": MaternKernel(2.5, 0.7),
    "matern_integer": MaternKernel(3.0, 0.4),
    "matern_bessel": MaternKernel(1.7, 1.3, 2.0),
    "gaussian": GaussianKernel(0.9),
    **{name: KERNELS[name] for name in WARPS},
}


@pytest.mark.parametrize("n", SMALL_SIZES + SIZES)
@pytest.mark.parametrize("name", sorted(STATIONARY))
def test_stationary_gram_matrix_evaluates_one_profile_value_per_entry(name, n, monkeypatch):
    """A stationary or warp Gram matrix sends exactly N(N+1)/2 distances to
    the profile, with no kernel evaluation, and the packed vector is still
    that of the one-shot matrix."""
    spec, pts = STATIONARY[name], _points(n)
    expected, _ = lapack.dtrttf(kernel_matrix(spec, pts), uplo="L")
    entries = []
    real = kernels._stationary_profile

    def counted(spec, r):
        entries.append(np.size(r))
        return real(spec, r)

    monkeypatch.setattr(kernels, "_stationary_profile", counted)
    monkeypatch.setattr(gp, "_stationary_profile", counted)
    monkeypatch.setattr(gp, "kernel_matrix", None)
    np.testing.assert_array_equal(gp._packed_gram(spec, pts), expected)
    assert sum(entries) == n * (n + 1) // 2
    # one row block at a time: at most _block_rows + 1 of the packed rows
    assert max(entries) <= min(gp._block_rows(n) + 1, n - n // 2) * (2 * (n // 2) + 1)
