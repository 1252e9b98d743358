"""Exact Gaussian process conditioning and prior path sampling.

Given training data (U, y) with noise level delta^2 and a covariance kernel
k, the posterior is the Gaussian process with

    mean(u)     = k(u, U)^T (K + delta^2 I)^{-1} y,
    cov(u, u')  = k(u, u') - k(u, U)^T (K + delta^2 I)^{-1} k(u', U),

where K is the Gram matrix on U.  Fitting factorises the regularised Gram
matrix once (the only O(N^3) step); prediction is matrix-vector work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import ParameterError, SamplingError, SingularGramError
from .kernels import KernelSpec, gram, kernel_diag, kernel_matrix

DEFAULT_JITTER = 1e-15
JITTER_ESCALATION = 1000.0
VARIANCE_CLAMP = 1e-8
PATH_JITTER_SCALE = 1e-12


@dataclass(frozen=True)
class TrainingData:
    """Design points, observed values and the observation noise variance."""

    points: np.ndarray
    values: np.ndarray
    noise_var: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        vals = np.asarray(self.values, dtype=float).ravel()
        if pts.ndim != 2 or len(pts) == 0:
            raise ParameterError("points must be a non-empty (N,) or (N, d) array")
        if len(vals) != len(pts):
            raise ParameterError(
                f"got {len(pts)} points but {len(vals)} values"
            )
        if self.noise_var < 0:
            raise ParameterError(f"noise_var must be non-negative, got {self.noise_var}")
        if self.noise_var == 0.0 and len(np.unique(pts, axis=0)) != len(pts):
            raise ParameterError("points must be pairwise distinct when noise_var = 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GpPosterior:
    """Fitted regression state: kernel, data and the factored Gram matrix.

    ``factor`` is the lower-triangular Cholesky factor of
    K + (noise_var + jitter) I and ``weights`` the solved representer
    coefficients.  ``jitter`` is the value actually used; ``escalated``
    records whether the initial factorisation failed and the jitter was
    multiplied by 1000 for a second attempt.
    """

    spec: KernelSpec
    data: TrainingData
    jitter: float
    factor: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    escalated: bool = False


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    return linalg.cholesky(matrix, lower=True, check_finite=False)


def fit(spec: KernelSpec, data: TrainingData, jitter: float = DEFAULT_JITTER) -> GpPosterior:
    """Factor the regularised Gram matrix and solve for the representer weights.

    On a factorisation failure the jitter is escalated once by a factor of
    1000 (recorded on the result); a second failure raises
    SingularGramError naming the escalated jitter and the smallest
    eigenvalue of the matrix that failed to factor.
    """
    if jitter < 0:
        raise ParameterError(f"jitter must be non-negative, got {jitter}")
    gram_matrix = gram(spec, data.points)
    eye = np.eye(data.n)
    ridge = data.noise_var + jitter

    try:
        factor = _cholesky_lower(gram_matrix + ridge * eye)
        escalated = False
        jitter_used = jitter
    except np.linalg.LinAlgError:
        jitter_used = jitter * JITTER_ESCALATION
        try:
            factor = _cholesky_lower(gram_matrix + (data.noise_var + jitter_used) * eye)
            escalated = True
        except np.linalg.LinAlgError:
            failed = gram_matrix + (data.noise_var + jitter_used) * eye
            smallest = float(np.linalg.eigvalsh(failed)[0])
            raise SingularGramError(
                f"Gram matrix is numerically singular: Cholesky met a "
                f"non-positive pivot at jitter {jitter_used:.3e} (N={data.n}, "
                f"smallest eigenvalue {smallest:.3e}); duplicated points or "
                "too little regularisation"
            ) from None

    weights = linalg.cho_solve((factor, True), data.values, check_finite=False)
    return GpPosterior(
        spec=spec,
        data=data,
        jitter=jitter_used,
        factor=factor,
        weights=weights,
        escalated=escalated,
    )


def posterior_mean(post: GpPosterior, query) -> np.ndarray:
    """Posterior mean at the query points."""
    cross = kernel_matrix(post.spec, query, post.data.points)
    return cross @ post.weights


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
    return np.array([_clamp_variance(v) for v in raw])


def _clamp_variance(value: float) -> float:
    if value < -VARIANCE_CLAMP:
        raise ParameterError(
            f"posterior variance {value:.3e} is more negative than the "
            f"-{VARIANCE_CLAMP:g} clamp threshold"
        )
    return max(value, 0.0)


def sample_prior(spec: KernelSpec, mesh, seed: int) -> np.ndarray:
    """One zero-mean prior path on the mesh; deterministic in (spec, mesh, seed).

    The Gram matrix gets a path jitter of 1e-12 times its largest diagonal
    entry before factorisation.
    """
    mesh = np.asarray(mesh, dtype=float)
    if mesh.size == 0:
        raise ParameterError("mesh must be non-empty")
    gram_matrix = gram(spec, mesh)
    path_jitter = PATH_JITTER_SCALE * float(np.max(np.diag(gram_matrix)))
    try:
        factor = _cholesky_lower(gram_matrix + path_jitter * np.eye(len(gram_matrix)))
    except np.linalg.LinAlgError as exc:
        raise SamplingError(
            f"prior covariance on the mesh is not factorable even with "
            f"path jitter {path_jitter:.3e}"
        ) from exc
    draws = np.random.default_rng(seed).standard_normal(len(gram_matrix))
    return factor @ draws
