"""Exact Gaussian process conditioning and prior path sampling.

Given training data (U, y) with noise level delta^2 and a covariance kernel
k, the posterior is the Gaussian process with

    mean(u)     = k(u, U)^T (K + delta^2 I)^{-1} y,
    cov(u, u')  = k(u, u') - k(u, U)^T (K + delta^2 I)^{-1} k(u', U),

where K is the Gram matrix on U.  ``_condition``, the one conditioning path
(``fit`` and every pCN step of ``deep.DgpChain``), factorises the regularised
Gram matrix once (the only O(N^3) step); prediction is matrix-vector work.

Prior paths on a mesh, in ``sample_prior`` and every layer of ``deep``,
share one factorisation, ``_path_cholesky``, and one product, ``_path_draw``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .errors import ParameterError, SamplingError, SingularGramError
from .kernels import KernelSpec, _as_points, gram, kernel_diag, kernel_matrix

DEFAULT_JITTER = 1e-15
JITTER_ESCALATION = 1000.0
VARIANCE_CLAMP = 1e-8
PATH_JITTER_SCALE = 1e-12
# Cross-matrix entries per posterior_mean block (512 KB of float64)
PREDICT_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class TrainingData:
    """Design points (a non-empty 1-D array), observed values and the noise variance."""

    points: np.ndarray
    values: np.ndarray
    noise_var: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float).ravel()
        if pts.ndim != 1 or len(pts) == 0:
            raise ParameterError(f"points must be a non-empty 1-D array, got shape {pts.shape}")
        if len(vals) != len(pts):
            raise ParameterError(
                f"got {len(pts)} points but {len(vals)} values"
            )
        if not 0 <= self.noise_var < math.inf:
            raise ParameterError(
                f"noise_var must be non-negative and finite, got {self.noise_var}"
            )
        if self.noise_var == 0.0 and len(np.unique(pts)) != len(pts):
            raise ParameterError("points must be pairwise distinct when noise_var = 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GpPosterior:
    """Fitted regression state: kernel, data and the factored Gram matrix.

    ``factor`` is the lower-triangular Cholesky factor of K + s I with
    s = noise_var + jitter, ``weights`` the solved representer coefficients
    and ``neg_log_like`` 1/2 log det(K + s I) + 1/2 y^T (K + s I)^{-1} y.
    ``jitter`` is the value actually used; ``escalated`` records whether the
    initial factorisation failed and the jitter was multiplied by 1000 for a
    second attempt.
    """

    spec: KernelSpec
    data: TrainingData
    jitter: float
    factor: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    neg_log_like: float
    escalated: bool = False


def _ridged_cholesky(matrix: np.ndarray, ridge: float) -> np.ndarray:
    """Lower Cholesky factor of ``matrix + ridge I``, ridging ``matrix`` in place."""
    matrix.flat[:: len(matrix) + 1] += ridge
    return linalg.cholesky(matrix, lower=True, check_finite=False)


def fit(spec: KernelSpec, data: TrainingData, jitter: float = DEFAULT_JITTER) -> GpPosterior:
    """Factor the regularised Gram matrix and solve for the representer weights.

    On a factorisation failure the jitter is escalated once by a factor of
    1000 (recorded on the result); a second failure raises
    SingularGramError naming the escalated jitter and the smallest
    eigenvalue of the matrix that failed to factor.
    """
    if not 0 <= jitter < math.inf:
        raise ParameterError(f"jitter must be non-negative and finite, got {jitter}")
    return _condition(spec, data, (jitter, jitter * JITTER_ESCALATION))


def _condition(spec: KernelSpec, data: TrainingData, jitters: tuple[float, ...]) -> GpPosterior:
    """The one conditioning path: ridge the Gram matrix by noise_var + jitter
    for each jitter in turn, then factor, solve and score at the first that
    factors.  The Gram matrix is copied only while a retry can follow; if no
    jitter factors, SingularGramError names the last one."""
    gram_matrix = gram(spec, data.points)
    for attempt, jitter in enumerate(jitters):
        regularised = gram_matrix.copy() if attempt + 1 < len(jitters) else gram_matrix
        try:
            factor = _ridged_cholesky(regularised, data.noise_var + jitter)
            break
        except np.linalg.LinAlgError:
            pass
    else:
        smallest = float(np.linalg.eigvalsh(regularised)[0])
        raise SingularGramError(
            f"Gram matrix is numerically singular: Cholesky met a "
            f"non-positive pivot at jitter {jitter:.3e} (N={data.n}, "
            f"smallest eigenvalue {smallest:.3e}); duplicated points or "
            "too little regularisation"
        )

    weights = linalg.cho_solve((factor, True), data.values, check_finite=False)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor))))
    return GpPosterior(
        spec=spec,
        data=data,
        jitter=jitter,
        factor=factor,
        weights=weights,
        neg_log_like=0.5 * log_det + 0.5 * float(data.values @ weights),
        escalated=attempt > 0,
    )


def posterior_mean(post: GpPosterior, query) -> np.ndarray:
    """Posterior mean at the query points.

    The query is taken in blocks of ``_block_rows(N)`` points; each block's
    rows of the cross matrix k(query, U) are built and multiplied by the
    weights on their own, so no query-sized matrix is ever held.  A cross-matrix entry depends only on its own pair of
    points, and at one BLAS thread a row's product with the weights does
    not depend on the rows around it as long as blocks start at multiples
    of 4 and no block is a lone row (numpy sends a one-row product to dot,
    not gemv, so a lone last row joins the block before).  So at one BLAS
    thread the result is bit-identical to ``kernel_matrix(spec, query, U)
    @ weights``.  With more threads OpenBLAS splits each product by its
    height, and the last bits can differ from the unblocked product.
    """
    query = _as_points(query)
    n, rows = len(query), _block_rows(post.data.n)
    mean = np.empty(n)
    start = 0
    while start < n:
        stop = n if n - start <= rows + 1 else start + rows
        cross = kernel_matrix(post.spec, query[start:stop], post.data.points)
        np.matmul(cross, post.weights, out=mean[start:stop])
        start = stop
    return mean


def _block_rows(n_points: int) -> int:
    """Query rows per ``posterior_mean`` block against N = n_points design
    points: ``PREDICT_BLOCK_ENTRIES`` // N rounded down to a multiple of 4,
    and at least 4.

    A block of 2**16 entries is 512 KB, so the few block-sized temporaries
    of one kernel evaluation fit together in a 2 MB L2 cache.  Measured on
    a 2-core Xeon VM (2 MB L2 per core), 4096 query points, medians of 7 at
    default threads: with the ``dense_noisy_large_n`` kernel at N = 4096,
    posterior_mean took 0.46 s in one block, 0.22 s in 256-row (8 MB)
    blocks and 0.11 s in the 16-row blocks this rule gives.  For that kernel
    and the mixture and convolution figure kernels at N = 256 and 1024,
    budgets of 2**15 and 2**16 entries were the fastest of 2**14 .. 2**18,
    or within noise of it.
    """
    return max(4, PREDICT_BLOCK_ENTRIES // n_points // 4 * 4)


def posterior_cov(post: GpPosterior, u, v) -> float:
    """Posterior covariance between two points.

    When u and v coincide the result is a variance: values in
    [-1e-8, 0) are clamped to 0 and anything more negative raises,
    since that signals real cancellation trouble rather than roundoff.
    """
    ku = kernel_matrix(post.spec, u, post.data.points)[0]
    kv = kernel_matrix(post.spec, v, post.data.points)[0]
    prior = kernel_matrix(post.spec, u, v)[0, 0]
    solved = linalg.cho_solve((post.factor, True), kv, check_finite=False)
    value = float(prior - ku @ solved)
    if np.array_equal(np.asarray(u, dtype=float), np.asarray(v, dtype=float)):
        return _clamp_variance(value)
    return value


def posterior_var(post: GpPosterior, query) -> np.ndarray:
    """Posterior variance at each query point, clamped at zero."""
    cross = kernel_matrix(post.spec, query, post.data.points)
    prior_diag = kernel_diag(post.spec, query)
    solved = linalg.cho_solve((post.factor, True), cross.T, check_finite=False)
    raw = prior_diag - np.sum(cross * solved.T, axis=1)
    # the most negative value decides: the clamp raises on it, or all clamp to 0
    _clamp_variance(float(np.min(raw, initial=0.0)))
    return np.maximum(raw, 0.0)


def _clamp_variance(value: float) -> float:
    if value < -VARIANCE_CLAMP:
        raise ParameterError(
            f"posterior variance {value:.3e} is more negative than the "
            f"-{VARIANCE_CLAMP:g} clamp threshold"
        )
    return max(value, 0.0)


def _path_cholesky(spec: KernelSpec, mesh: np.ndarray) -> np.ndarray:
    """Cholesky factor of the Gram matrix on the mesh plus the path jitter."""
    gram_matrix = gram(spec, mesh)
    path_jitter = PATH_JITTER_SCALE * float(np.max(np.diag(gram_matrix)))
    try:
        return _ridged_cholesky(gram_matrix, path_jitter)
    except np.linalg.LinAlgError as exc:
        raise SamplingError(
            f"prior covariance on the mesh is not factorable even with "
            f"path jitter {path_jitter:.3e}"
        ) from exc


def _path_draw(chol: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """``chol @ xi`` for a 1-D state, ``xi @ chol.T`` for a (width, m) one.

    numpy and scipy each bundle their own OpenBLAS, and each keeps a pool of
    busy-waiting worker threads.  A pCN step that sent its products through
    numpy and its Cholesky and solve through scipy made the two pools fight
    for the cores: on a 2-core Xeon VM the median step of the reference
    chain at N=256 took 8.0 ms, against 2.0 ms with every product on
    scipy's library.  ``chol`` should be the
    F-contiguous factor ``scipy.linalg.cholesky`` returns; a C-ordered
    operand is copied on every call.  For a 1-D state the result is
    bit-identical to ``chol @ xi``.
    """
    if xi.ndim == 1:
        return blas.dgemv(1.0, chol, xi)
    # xi.T is the F-contiguous (m, width) view; the product comes back as
    # (m, width) in F order, whose transpose is a C-ordered (width, m) array.
    return blas.dgemm(1.0, chol, xi.T).T


def sample_prior(spec: KernelSpec, mesh, seed: int) -> np.ndarray:
    """One zero-mean prior path on the mesh; deterministic in (spec, mesh, seed).

    The Gram matrix gets a path jitter of 1e-12 times its largest diagonal
    entry before factorisation.
    """
    mesh = np.asarray(mesh, dtype=float)
    if mesh.size == 0:
        raise ParameterError("mesh must be non-empty")
    rng = np.random.default_rng(seed)
    return _path_draw(_path_cholesky(spec, mesh), rng.standard_normal(mesh.size))
