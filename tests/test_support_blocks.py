"""Mixture components evaluated on their support, and row-blocked prediction.

Both are exact rewrites: the results must equal the plain formulas bit for
bit, not just to a tolerance.  The blocked posterior variance is the one
exception; it solves by one triangular factor instead of two, so it
matches the plain formula to roundoff.
"""

import numpy as np
import pytest
from scipy import linalg

from gpconv import gp
from gpconv.errors import DomainError
from gpconv.experiments import builtin_figures
from gpconv.functions import make_function
from gpconv.gp import TrainingData, fit, posterior_mean, posterior_var
from gpconv.kernels import ConvolutionKernel, MaternKernel, MixtureKernel, kernel_diag, kernel_matrix

FIGURES = {c.id: c for c in builtin_figures()}
# indicators of [0, 2], (1, 4) and [3, 5]; the first has nu = 3 (Bessel form)
INDICATOR = FIGURES["fig_mix3_indicator"].kernel
SMOOTH = FIGURES["fig_mix3_smooth"].kernel

RNG = np.random.default_rng(7)
ACROSS = np.sort(RNG.uniform(0.0, 5.0, 41))
# include the indicator end points, where the open and closed ends differ
EDGES = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
POINT_SETS = {
    "across": np.concatenate([ACROSS, EDGES]),
    # the [0, 2] and (1, 4) coefficients are zero on every point
    "first-two-zero": np.linspace(4.2, 5.0, 9),
    # every coefficient of [0, 2] is nonzero: its full-support path
    "inside-first": np.linspace(0.1, 0.9, 7),
}


def _reference_matrix(spec, a, b=None):
    """The mixture as the sum of every component's full product, in order."""
    out = np.zeros((len(a), len(a if b is None else b)))
    for sigma, base in spec.components:
        sb = sigma(a) if b is None else sigma(b)
        out += np.outer(sigma(a), sb) * kernel_matrix(base, a, b)
    return out


def _reference_diag(spec, points):
    out = np.zeros(len(points))
    for sigma, base in spec.components:
        s = sigma(points)
        out += (s * s) * kernel_diag(base, points)
    return out


@pytest.mark.parametrize("spec", [INDICATOR, SMOOTH], ids=["indicator", "smooth"])
@pytest.mark.parametrize("name", sorted(POINT_SETS))
class TestSupportSkip:
    def test_gram_matches_full_sum(self, spec, name):
        pts = POINT_SETS[name]
        gram = kernel_matrix(spec, pts)
        np.testing.assert_array_equal(gram, _reference_matrix(spec, pts))
        np.testing.assert_array_equal(gram, gram.T)

    def test_cross_matches_full_sum(self, spec, name):
        pts = POINT_SETS[name]
        for a, b in ((pts, ACROSS), (ACROSS, pts)):
            np.testing.assert_array_equal(
                kernel_matrix(spec, a, b.copy()), _reference_matrix(spec, a, b.copy())
            )

    def test_diag_matches_full_sum(self, spec, name):
        pts = POINT_SETS[name]
        diag = kernel_diag(spec, pts)
        np.testing.assert_array_equal(diag, _reference_diag(spec, pts))
        np.testing.assert_array_equal(diag, np.diag(kernel_matrix(spec, pts)))


def test_indicator_gram_exactly_symmetric_on_random_points():
    pts = RNG.uniform(0.0, 5.0, 300)
    gram = kernel_matrix(INDICATOR, pts)
    np.testing.assert_array_equal(gram, gram.T)


def test_base_kernel_not_evaluated_off_its_coefficient_support():
    # length scale u^2 - 9 is not positive on [0, 3]; the coefficient is the
    # indicator of [3.5, 5], so the base only ever sees points where it is
    conv = ConvolutionKernel(
        make_function({"kind": "poly2", "a": 1.0, "b": 0.0, "c": -9.0}), MaternKernel(1.5)
    )
    coeff = make_function({"kind": "indicator", "lo": 3.5, "hi": 5.0, "scale": 1.0})
    mix = MixtureKernel(components=((coeff, conv),))
    pts = np.linspace(0.0, 5.0, 21)
    inside = pts >= 3.5
    with pytest.raises(DomainError):
        kernel_matrix(conv, pts)
    gram = kernel_matrix(mix, pts)
    expected = np.zeros_like(gram)
    expected[np.ix_(inside, inside)] = kernel_matrix(conv, pts[inside])
    np.testing.assert_array_equal(gram, expected)
    np.testing.assert_array_equal(kernel_diag(mix, pts), np.diag(expected))


@pytest.mark.parametrize(
    "n_points, rows", [(1, 65536), (7, 9360), (1024, 64), (4096, 16), (16385, 4), (10**6, 4)]
)
def test_block_rows_fill_the_entry_budget_in_multiples_of_four(n_points, rows):
    assert gp._block_rows(n_points) == rows


ROWS = 256


@pytest.mark.parametrize("length", [1, ROWS - 1, ROWS, ROWS + 1, 1000])
@pytest.mark.parametrize("fig", ["fig_mix3_indicator", "fig_warp", "fig_conv"])
def test_blocked_mean_matches_one_product(fig, length, monkeypatch):
    # eight design points keep every product below the size at which
    # OpenBLAS splits a matrix-vector product over threads, so the
    # comparison holds at any BLAS thread count; the budget is cut so
    # that eight points still get blocks of ROWS rows
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", 8 * ROWS)
    spec = FIGURES[fig].kernel
    design = np.linspace(0.3, 4.7, 8)
    assert gp._block_rows(len(design)) == ROWS
    post = fit(spec, TrainingData(design, np.sin(2.0 * design), 1e-6))
    query = np.linspace(0.0, 5.0, length)
    np.testing.assert_array_equal(
        posterior_mean(post, query), kernel_matrix(spec, query, design) @ post.weights
    )


@pytest.mark.parametrize("length", [1, ROWS - 1, ROWS, ROWS + 1, 1000])
@pytest.mark.parametrize("fig", ["fig_mix3_indicator", "fig_warp", "fig_conv"])
def test_blocked_var_matches_plain_formula(fig, length, monkeypatch):
    monkeypatch.setattr(gp, "PREDICT_BLOCK_ENTRIES", 8 * ROWS)
    rows_per_call = []

    def recording_kernel_matrix(spec, u, *rest):
        rows_per_call.append(np.size(u))
        return kernel_matrix(spec, u, *rest)

    spec = FIGURES[fig].kernel
    design = np.linspace(0.3, 4.7, 8)
    post = fit(spec, TrainingData(design, np.sin(2.0 * design), 1e-6))
    query = np.linspace(0.0, 5.0, length)
    cross = kernel_matrix(spec, query, design)
    ridged = kernel_matrix(spec, design) + (1e-6 + post.jitter) * np.eye(len(design))
    solved = linalg.cho_solve((np.linalg.cholesky(ridged), True), cross.T)
    expected = kernel_diag(spec, query) - np.sum(cross * solved.T, axis=1)

    monkeypatch.setattr(gp, "kernel_matrix", recording_kernel_matrix)
    np.testing.assert_allclose(posterior_var(post, query), expected, rtol=0, atol=1e-12)
    # a lone last row joins the block before, so a block holds at most ROWS + 1
    assert sum(rows_per_call) == length and max(rows_per_call) <= ROWS + 1


def test_blocked_mean_of_empty_and_scalar_query():
    post = fit(SMOOTH, TrainingData(np.array([1.0, 2.0]), np.array([0.5, -0.5])))
    assert posterior_mean(post, np.array([])).shape == (0,)
    np.testing.assert_array_equal(
        posterior_mean(post, 1.5), kernel_matrix(SMOOTH, 1.5, post.data.points) @ post.weights
    )
