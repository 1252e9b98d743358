"""Gram matrices assembled in row blocks into one buffer and factored in place.

Assembly walks the prediction's ``_cross_blocks``, so every entry is
computed by the same expressions as in the one-shot ``kernel_matrix``: the
buffer and the factor must equal the one-shot results bit for bit.  The
in-place factor also bounds the memory of a fit to about one N x N array.
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
from gpconv.gp import TrainingData, fit
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

# 300 points: blocks of 216 and 84 rows; 1081 points: blocks of 60 rows,
# and the lone last row joins the block before
SIZES = (300, 1081)


def _points(n):
    return np.sort(np.random.default_rng(n).uniform(0.0, 5.0, n))


def test_sizes_cover_a_short_last_block_and_a_lone_last_row():
    assert gp._block_rows(300) == 216
    assert gp._block_rows(1081) == 60 and 1081 % 60 == 1


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(KERNELS))
class TestBlockwiseAssembly:
    def test_buffer_is_the_one_shot_gram_matrix(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        buffer = gp._gram(spec, pts)
        assert buffer.flags.c_contiguous
        np.testing.assert_array_equal(buffer, kernel_matrix(spec, pts))
        np.testing.assert_array_equal(buffer, buffer.T)

    def test_factor_is_the_one_shot_cholesky_factor(self, name, n):
        spec, pts = KERNELS[name], _points(n)
        data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
        post = gp._condition(spec, data, (1e-12,))
        ridge = data.noise_var + post.jitter
        expected = linalg.cholesky(kernel_matrix(spec, pts) + ridge * np.eye(n), lower=True)
        np.testing.assert_array_equal(post.factor, expected)
        assert not np.triu(post.factor, 1).any()


def test_fit_holds_about_one_gram_sized_array():
    """The Gram matrix is built into the buffer that becomes the factor:
    no retry copy and no transposing copy for LAPACK."""
    config = config_from_dict(json.loads((CONFIGS / "warp_example.json").read_text()))
    n = 1024
    pts = np.linspace(*config.domain, n)
    data = TrainingData(pts, np.sin(2.0 * pts), noise_var=1e-6)
    tracemalloc.start()
    try:
        post = fit(config.kernel, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not post.escalated
    assert peak < 1.5 * 8 * n * n
