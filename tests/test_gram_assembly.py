"""Gram matrices assembled in row blocks into one buffer and factored in place.

Assembly walks the prediction's row blocks, so every entry is computed by
the same expressions as in the one-shot ``kernel_matrix``: the assembled
entries and the factor must equal the one-shot results bit for bit.  From
``UPPER_CHOLESKY_MIN_N`` points on, a fit assembles only the lower
triangle and LAPACK's upper variant factors it, so the reference there is
the transpose of the one-shot upper factor.  The in-place factor also
bounds the memory of a fit, and of prediction from it, to about one N x N
array.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

from gpconv import gp
from gpconv.deep import layer_kernel, sample_dgp_prior
from gpconv.experiments import builtin_figures, config_from_dict, reference_tdgp_config
from gpconv.errors import SingularGramError
from gpconv.gp import TrainingData, fit, posterior_mean, posterior_var
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

# 300 points: blocks of 216 and 84 rows, factored by the lower variant;
# 1081 points: blocks of 60 rows, and the lone last row joins the block
# before, factored by the upper variant
SIZES = (300, 1081)


def _points(n):
    return np.sort(np.random.default_rng(n).uniform(0.0, 5.0, n))


def test_sizes_cover_a_short_last_block_and_a_lone_last_row():
    assert gp._block_rows(300) == 216
    assert gp._block_rows(1081) == 60 and 1081 % 60 == 1


def test_sizes_straddle_the_variant_switch():
    assert 300 < gp.UPPER_CHOLESKY_MIN_N <= 1081


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
        buffer = gp._gram(spec, pts, for_cholesky=True)
        assert buffer.flags.c_contiguous
        np.testing.assert_array_equal(np.tril(buffer), np.tril(kernel_matrix(spec, pts)))

    def test_factor_is_the_one_shot_cholesky_factor(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
        post = gp._condition(spec, data, (1e-12,))
        ridged = kernel_matrix(spec, pts) + (data.noise_var + post.jitter) * np.eye(n)
        if n < gp.UPPER_CHOLESKY_MIN_N:
            expected = linalg.cholesky(ridged, lower=True)
            assert post.factor.flags.f_contiguous
        else:
            expected = linalg.cholesky(ridged, lower=False).T
            assert post.factor.flags.c_contiguous
        np.testing.assert_array_equal(post.factor, expected)
        assert not np.triu(post.factor, 1).any()


def test_singular_gram_error_reads_the_assembled_triangle(monkeypatch):
    """Above the switch only the lower triangle is assembled; the reported
    eigenvalue is that of the whole ridged matrix.  Unsorted points make
    the blocks' diagonal squares, the only assembled entries above the
    diagonal, scattered subsets whose eigenvalues are far from the
    matrix's."""
    n = gp.UPPER_CHOLESKY_MIN_N + 88
    spec = KERNELS["fig_warp"]
    pts = np.random.default_rng(7).uniform(0.0, 5.0, n)
    data = TrainingData(pts, np.sin(2.0 * pts))

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(gp.linalg, "cholesky", failing)
    with pytest.raises(SingularGramError) as info:
        fit(spec, data)
    ridge = gp.DEFAULT_JITTER * gp.JITTER_ESCALATION
    smallest = np.linalg.eigvalsh(kernel_matrix(spec, pts) + ridge * np.eye(n))[0]
    assert f"smallest eigenvalue {smallest:.3e}" in str(info.value)


def test_fit_holds_about_one_gram_sized_array():
    """The Gram matrix is built into the buffer that becomes the factor:
    no retry copy and no transposing copy for LAPACK.  At this N the factor
    is C-ordered, and neither the solve nor prediction copies it."""
    config = config_from_dict(json.loads((CONFIGS / "warp_example.json").read_text()))
    n = 1024
    assert n >= gp.UPPER_CHOLESKY_MIN_N
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
    assert post.factor.flags.c_contiguous
    assert peak < 1.5 * 8 * n * n


def test_an_escalation_frees_the_failed_buffer(monkeypatch):
    """The failed first factorisation's buffer is freed before the
    escalated attempt rebuilds the Gram matrix."""
    config = config_from_dict(json.loads((CONFIGS / "warp_example.json").read_text()))
    n = 1024
    pts = np.linspace(*config.domain, n)
    data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
    real_cholesky = gp.linalg.cholesky
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced")
        return real_cholesky(*args, **kwargs)

    monkeypatch.setattr(gp.linalg, "cholesky", fail_first)
    tracemalloc.start()
    try:
        post = fit(config.kernel, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert post.escalated
    assert peak < 1.5 * 8 * n * n
