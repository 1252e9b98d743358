"""Exact Gaussian process conditioning and prior path sampling.

Given training data (U, y) with noise level delta^2 and a covariance kernel
k, the posterior is the Gaussian process with

    mean(u)     = k(u, U)^T (K + delta^2 I)^{-1} y,
    cov(u, u')  = k(u, u') - k(u, U)^T (K + delta^2 I)^{-1} k(u', U),

where K is the Gram matrix on U.  ``_condition``, the one conditioning path
(``fit`` and every pCN step of ``deep.DgpChain``), factorises the regularised
Gram matrix once (the only O(N^3) step); prediction is matrix-vector work.
Every Gram matrix this module builds is assembled one way: its lower
triangle in LAPACK's rectangular full packed (RFP) storage, N(N+1)/2
numbers (``_packed_gram``), filled in the row blocks that prediction uses
(``_row_blocks``).  A warp kernel warps the points once per Gram matrix
and assembles its base kernel on them.  A stationary kernel, and so a
warp, fills each block with the distances |x_i - x_j| and evaluates its
profile once on the block, one value per packed entry; mixtures and
convolutions, which are not functions of distance alone, fill each block
from two kernel evaluations.  A fit or a Cholesky path factor keeps it in that one
buffer from assembly to factor: ``dpftrf`` factors it in place
(``_ridged_cholesky``), and ``dpftrs`` and ``dtfsm`` solve with the
factor.  So a fit holds half a Gram-sized array and no kernel intermediate
larger than a block, at every N.  Where a whole N x N matrix is needed,
for the eigendecomposition of ``_path_spectral`` and the eigenvalue a
SingularGramError reports, ``dtfttr`` expands the packed lower triangle
into one.  ``kernels.gram`` stays the one-shot definition the assembled
entries equal bit for bit.
``posterior_means`` predicts several fitted levels in one pass over the
query points, evaluating each block of the cross matrix once against the
union of the levels' designs; ``posterior_mean`` is its one-level case, so
there is one prediction path.  At one BLAS thread every level's mean is
bit-identical to the plain product of its own cross matrix and weights.

A prior path on a mesh is a factor of the Gram matrix on the mesh times
standard normal coefficients xi.  ``_path_spectral`` keeps the eigenpairs
above the path jitter in a dense (m, r) factor B, and a path is
``xi @ B.T``; a (width, r) array of coefficients gives width paths.
``deep`` draws layer 0 from it, whose kernel is fixed for the whole
chain.  ``_path_cholesky`` factors the Gram matrix plus the path jitter
and returns L in LAPACK's standard packed storage, and a path is
``blas.dtpmv(m, L, xi, lower=1)``; ``sample_prior`` and every deeper
layer of ``deep`` draw from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack

from .errors import ParameterError, SamplingError, SingularGramError
from .functions import scalar_problem
from .kernels import (
    KernelSpec,
    _as_points,
    _stationary_profile,
    _warped,
    is_stationary,
    kernel_diag,
    kernel_matrix,
)

DEFAULT_JITTER = 1e-15
JITTER_ESCALATION = 1000.0
VARIANCE_CLAMP = 1e-8
PATH_JITTER_SCALE = 1e-12
# Cross-matrix entries per prediction block (512 KB of float64)
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
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ParameterError("points and values must be finite")
        if scalar_problem(self.noise_var, float) or not 0 <= self.noise_var:
            raise ParameterError(
                f"noise_var must be non-negative and finite, got {self.noise_var!r}"
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

    ``factor`` is the lower-triangular Cholesky factor L of K + s I with
    s = noise_var + jitter, stored in the memory of the Gram buffer it was
    factored from: the 1-D vector of N(N+1)/2 numbers that holds L in
    rectangular full packed storage (``_packed_gram``; LAPACK ``TRANSR='N'``,
    ``UPLO='L'``), at every N.
    ``weights`` are the solved representer coefficients and
    ``neg_log_like`` is 1/2 log det(K + s I) + 1/2 y^T (K + s I)^{-1} y.
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


def _packed_gram(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Lower triangle of the Gram matrix on the points in LAPACK's
    rectangular full packed storage (``TRANSR='N'``, ``UPLO='L'``;
    Gustavson, Wasniewski, Dongarra and Langou 2010, ACM TOMS 37(2)): a 1-D
    vector of N(N+1)/2 numbers.

    With q = N // 2 and p = N - q the vector is a C-ordered array of p rows
    of 2q + 1 numbers, and row j is k(x[q + j], x[p : q + j + 1]) followed
    by k(x[j], x[j:]): a row of the trailing q x q block's lower triangle,
    then a column of the whole lower triangle from the diagonal down.  The
    rows are filled in the blocks ``_row_blocks(p, N)``, each from two
    parts; in the block's square where the parts meet, the first gives the
    strict lower triangle and the second the rest.  A warp kernel is its
    base kernel on the warped points, so the points are warped once
    (``kernels._warped``).  For a stationary kernel the parts are the
    differences x_i - x_j, and the profile then runs once on the block's
    absolute values: exactly N(N+1)/2 profile entries in all, one per
    packed number, never more than a block at a time.  A mixture or a
    convolution is not a function of distance alone, so each part is a
    kernel evaluation, about N^2 / 2 entries in all with part of the
    square where the parts meet thrown away.  Either way each entry equals
    that of ``kernel_matrix(spec, points)`` bit for bit, since the profile
    and the kernels are evaluated entry by entry, and the vector is
    ``lapack.dtrttf`` of the one-shot matrix.
    """
    n = len(points)
    q = n // 2
    p = n - q
    shift = q + 1 - p  # the first part of row j has j + shift entries
    spec, points = _warped(spec, points)
    distances = is_stationary(spec)
    part = np.subtract.outer if distances else lambda a, b: kernel_matrix(spec, a, b)
    packed = np.empty((p, 2 * q + 1))
    for rows in _row_blocks(p, n):
        start, stop = rows.start, rows.stop
        size = stop - start
        packed[rows, : stop + shift - 1] = part(points[q + start : q + stop], points[p : q + stop])
        columns = part(points[rows], points[start:])
        np.copyto(
            packed[rows, start + shift : stop + shift],
            columns[:, :size],
            where=np.tri(size, dtype=bool).T,
        )
        packed[rows, stop + shift :] = columns[:, size:]
        if distances:
            block = packed[rows]
            block[...] = _stationary_profile(spec, np.abs(block, out=block))
    return packed.reshape(-1)


def _rfp_diagonal(n: int) -> tuple[slice, slice]:
    """Positions of the diagonal in the ``_packed_gram`` vector of an N x N
    matrix: the leading p x p block's, then the trailing q x q block's, each
    a strided slice of the vector."""
    q = n // 2
    p = n - q
    step = 2 * q + 2
    return slice(q + 1 - p, None, step), slice((p - q) * (step - 1), None, step)


def _ridged_cholesky(n: int, packed: np.ndarray, ridge: float) -> np.ndarray:
    """Lower Cholesky factor L of ``packed + ridge I``, factored in place.

    ``packed`` is the ``_packed_gram`` vector of an N x N matrix; ``dpftrf``
    factors it, and L is held in it the same way.  Afterwards the vector
    holds the factor, or, when the factorisation meets a non-positive pivot
    (``LinAlgError``), a partly factored matrix.

    ``dpftrf`` runs level-3 BLAS on the blocks of the packed matrix; it
    was at least as fast as LAPACK's lower variant on the whole matrix at
    every N measured, and needs half its memory.  In-place factorisations
    of a ridged Matern-1/2 Gram matrix on random points, OpenBLAS 0.3.30
    (scipy 1.17.1's bundled build) on a 2-core Xeon VM, medians of 9 runs
    (5 at N = 4096), ms:

        threads  N       256    512   1024   2048   4096
        1        lower  0.51   2.72   20.9    109    580
                 packed 0.41   2.41   16.7   85.5    522
        2        lower  0.53   2.71   14.6   74.6    436
                 packed 0.38   1.78    9.6   54.2    330
    """
    for diagonal in _rfp_diagonal(n):
        packed[diagonal] += ridge
    factor, info = lapack.dpftrf(n, packed, uplo="L", overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpftrf failed with info {info}: not positive definite")
    return factor


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
    factors.  The factorisation overwrites the Gram matrix, so an escalation
    rebuilds it; if no jitter factors, SingularGramError names the last one
    and the smallest eigenvalue of the rebuilt, ridged matrix, whose lower
    triangle ``dtfttr`` expands from the packed one."""
    for attempt, jitter in enumerate(jitters):
        try:
            # no name holds the buffer, so a failed one is freed before the rebuild
            factor = _ridged_cholesky(
                data.n, _packed_gram(spec, data.points), data.noise_var + jitter
            )
            break
        except np.linalg.LinAlgError:
            pass
    else:
        packed = _packed_gram(spec, data.points)
        for diagonal in _rfp_diagonal(data.n):
            packed[diagonal] += data.noise_var + jitter
        regularised, _ = lapack.dtfttr(data.n, packed, uplo="L")
        # eigvalsh reads the lower triangle, the one dtfttr fills
        smallest = float(np.linalg.eigvalsh(regularised)[0])
        raise SingularGramError(
            f"Gram matrix is numerically singular: Cholesky met a "
            f"non-positive pivot at jitter {jitter:.3e} (N={data.n}, "
            f"smallest eigenvalue {smallest:.3e}); duplicated points or "
            "too little regularisation"
        )

    weights, _ = lapack.dpftrs(data.n, factor, data.values, uplo="L")
    log_det = 2.0 * sum(float(np.sum(np.log(factor[d]))) for d in _rfp_diagonal(data.n))
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
    """Posterior mean at the query points: the one-level case of
    ``posterior_means``, bit-identical to ``kernel_matrix(spec, query, U)
    @ weights`` at one BLAS thread."""
    return posterior_means(post.spec, [(post.data.points, post.weights)], query)[0]


def posterior_means(spec: KernelSpec, levels, query) -> np.ndarray:
    """Posterior means of several fitted levels at the query points, one row
    per level; ``levels`` holds each level's (design points, weights).

    The query is walked in ``_cross_blocks`` row blocks, and each block of
    the cross matrix is evaluated once, against the union of the levels'
    points (``_union_columns``).  A level's mean on the block is the
    product of its columns of the block with its weights: a view when the
    columns are a contiguous run of the union, else a gathered C-ordered
    copy.  Nested designs, as in the built-in studies, pay for the finest
    level's columns only, and no query-sized matrix is ever held.

    A cross-matrix entry depends only on its own pair of points, and at one
    BLAS thread a row's product with the weights depends neither on the
    rows around it, as long as blocks start at multiples of 4 and no block
    is a lone row (numpy sends a one-row product to dot, not gemv), nor on
    the union columns around the level's own.  So at one BLAS thread each
    level's mean is bit-identical to ``kernel_matrix(spec, query, U_l) @
    w_l``; the ``figures`` and ``dgp`` commands run on one thread.  With
    more threads, as in ``run`` and direct library calls, OpenBLAS splits
    each product by its height, and the last bits can differ from the
    unblocked product.
    """
    query = _finite_points(query, "query")
    union, columns = _union_columns([_as_points(points) for points, _ in levels])
    means = np.empty((len(levels), len(query)))
    for rows, cross in _cross_blocks(spec, query, union):
        for mean, cols, (_, weights) in zip(means, columns, levels):
            block = cross[:, cols] if isinstance(cols, slice) else cross.take(cols, axis=1)
            np.matmul(block, weights, out=mean[rows])
    return means


def _union_columns(point_sets: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """The union of several point sets, and each set's columns in it.

    The union lists each point once, by its bit pattern, in order of first
    appearance over the sets taken from the largest down (equal sizes in
    their given order).  A set's columns are a slice when they form a
    contiguous run of the union, as for the largest set without repeats or
    for sets that share no point, else an index array.  One set is its own
    union, repeats and all: the pCN chain predicts one level at every
    accepted state, and a repeat only costs a column.
    """
    if len(point_sets) == 1:
        return point_sets[0], [slice(0, len(point_sets[0]))]
    order = sorted(range(len(point_sets)), key=lambda i: -len(point_sets[i]))
    stacked = np.concatenate([point_sets[i] for i in order])
    _, first, inverse = np.unique(
        stacked.view(np.int64), return_index=True, return_inverse=True
    )
    firsts = np.sort(first)
    cols = np.searchsorted(firsts, first)[inverse]
    columns = [None] * len(point_sets)
    stops = np.cumsum([len(point_sets[i]) for i in order])
    for i, stop in zip(order, stops):
        own = cols[stop - len(point_sets[i]) : stop]
        start = own[0] if own.size else 0
        run = np.array_equal(own, np.arange(start, start + own.size))
        columns[i] = slice(start, start + own.size) if run else own
    return stacked[firsts], columns


def _finite_points(points, what: str) -> np.ndarray:
    """The points as a 1-D array; a non-finite point is a ParameterError
    that calls them ``what`` points."""
    points = _as_points(points)
    if not np.all(np.isfinite(points)):
        raise ParameterError(f"{what} points must be finite")
    return points


def _cross_blocks(spec: KernelSpec, query: np.ndarray, points: np.ndarray):
    """Yield (rows, k(query[rows], points)) for the query's
    ``_row_blocks`` against the points.  A warp kernel warps the query and
    the points once each, not once per block (``kernels._warped``)."""
    base, query = _warped(spec, query)
    _, points = _warped(spec, points)
    for rows in _row_blocks(len(query), len(points)):
        yield rows, kernel_matrix(base, query[rows], points)


def _row_blocks(n_rows: int, n_points: int):
    """Yield slices of ``_block_rows(n_points)`` consecutive rows out of
    n_rows; a lone last row joins the block before."""
    size = _block_rows(n_points)
    start = 0
    while start < n_rows:
        stop = n_rows if n_rows - start <= size + 1 else start + size
        yield slice(start, stop)
        start = stop


def _block_rows(n_points: int) -> int:
    """Query rows per block against N = n_points design points, for
    prediction and for Gram assembly alike: ``PREDICT_BLOCK_ENTRIES`` // N
    rounded down to a multiple of 4, and at least 4.

    A block of 2**16 entries is 512 KB, so the few block-sized temporaries
    of one kernel evaluation fit together in a 2 MB L2 cache.  Measured on
    a 2-core Xeon VM (2 MB L2 per core), 4096 query points, medians of 7 at
    default threads: with the ``dense_noisy_large_n`` kernel at N = 4096,
    posterior_mean took 0.46 s in one block, 0.22 s in 256-row (8 MB)
    blocks and 0.11 s in the 16-row blocks this rule gives.  For that kernel
    and the mixture and convolution figure kernels at N = 256 and 1024,
    budgets of 2**15 and 2**16 entries were the fastest of 2**14 .. 2**18,
    or within noise of it.  The same rule sizes the row blocks of the one
    Gram assembly, which walks the N - N // 2 rows of the packed array
    (``_packed_gram``) in blocks of this many rows: a stationary kernel's
    profile runs on one block of distances at a time, a mixture's or a
    convolution's kernel on a block's two parts.  It was measured on the
    whole N x N matrix, walked by rows: that kernel's Gram matrix on 4096
    random points took 0.36 s in one shot and 0.19 s in these 16-row
    blocks (first call in a fresh process, medians of 9, same VM); the
    one-shot build also page-faults a fresh N x N array for every kernel
    intermediate.
    """
    return max(4, PREDICT_BLOCK_ENTRIES // n_points // 4 * 4)


def posterior_cov(post: GpPosterior, u, v) -> float:
    """Posterior covariance between two points.

    When u and v coincide the result is a variance: values in
    [-1e-8, 0) are clamped to 0 and anything more negative raises,
    since that signals real cancellation trouble rather than roundoff.
    With L the factor, the subtracted term is (L^-1 k(u, U)) . (L^-1 k(v, U)).
    """
    cross = kernel_matrix(post.spec, _finite_points(np.ravel([u, v]), "query"), post.data.points)
    half = lapack.dtfsm(1.0, post.factor, cross.T, uplo="L", overwrite_b=1)
    prior = kernel_matrix(post.spec, u, v)[0, 0]
    value = float(prior - half[:, 0] @ half[:, 1])
    if np.array_equal(np.asarray(u, dtype=float), np.asarray(v, dtype=float)):
        return _clamp_variance(value)
    return value


def posterior_var(post: GpPosterior, query) -> np.ndarray:
    """Posterior variance at each query point, clamped at zero.

    Subtracts |L^-1 k(u, U)|^2, with L the factor, block by block over the
    prediction's ``_cross_blocks``, so no query-sized cross matrix is held.
    A warp kernel warps the query and the design points once each
    (``kernels._warped``), for the prior term and the cross matrix alike.
    """
    base, query = _warped(post.spec, _finite_points(query, "query"))
    _, points = _warped(post.spec, post.data.points)
    raw = kernel_diag(base, query)
    for rows, cross in _cross_blocks(base, query, points):
        half = lapack.dtfsm(1.0, post.factor, cross.T, uplo="L", overwrite_b=1)
        raw[rows] -= np.sum(half**2, axis=0)
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


def _path_gram(spec: KernelSpec, mesh) -> tuple[int, np.ndarray, float]:
    """The size m of the mesh, the Gram matrix on it in ``_packed_gram``
    storage and the path jitter: PATH_JITTER_SCALE times the matrix's
    largest diagonal entry.  A non-finite mesh point is a ParameterError."""
    mesh = _finite_points(mesh, "mesh")
    n = len(mesh)
    packed = _packed_gram(spec, mesh)
    largest = max(float(np.max(packed[d], initial=-np.inf)) for d in _rfp_diagonal(n))
    return n, packed, PATH_JITTER_SCALE * largest


def _path_cholesky(spec: KernelSpec, mesh: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the Gram matrix on the mesh plus the path
    jitter, in LAPACK's standard packed storage (``UPLO='L'``: the columns
    of the lower triangle one after another, m(m+1)/2 numbers).  A path is
    ``blas.dtpmv(m, factor, xi, lower=1)``, the product L xi.

    The Gram matrix is assembled and factored in RFP storage, as a fit's
    is, and ``dtfttp`` rearranges the factor, so the two packed vectors
    are the most this holds: m(m+1) numbers.
    """
    n, packed, path_jitter = _path_gram(spec, mesh)
    try:
        factor = _ridged_cholesky(n, packed, path_jitter)
    except np.linalg.LinAlgError as exc:
        raise SamplingError(
            f"prior covariance on the mesh is not factorable even with "
            f"path jitter {path_jitter:.3e}"
        ) from exc
    factor, _ = lapack.dtfttp(n, factor, uplo="L")
    return factor


def _path_spectral(spec: KernelSpec, mesh: np.ndarray) -> np.ndarray:
    """Rank-r factor B = U_r diag(sqrt(s_r)) of the Gram matrix K on the mesh.

    (s_r, U_r) are the r eigenpairs of K whose eigenvalue exceeds the path
    jitter, so B B^T differs from K by at most about the path jitter, and a
    path is ``xi @ B.T`` for a standard normal r-vector xi (the truncated
    Karhunen-Loeve expansion).  Smooth kernels need few coefficients: for
    the reference TDGP layer 0 (nu = 7/2, lambda = 5, a 1024-point mesh on
    [0, 5]) r = 73.  The LAPACK driver is fixed, because drivers differ in
    the last bits and in which eigenvalues near the jitter they keep
    (``evd`` keeps 72 pairs of that matrix, ``evr`` 73).  Raises
    SamplingError when the eigensolver fails or keeps no pair.

    K is assembled in packed storage, as every Gram matrix is, and
    ``dtfttr`` expands its lower triangle into an F-ordered m x m array
    for ``eigh``; ``evr`` reads that triangle only, whose entries equal
    ``kernel_matrix(spec, mesh)`` bit for bit.  The packed vector is freed
    before the eigensolver runs.
    """
    n, packed, path_jitter = _path_gram(spec, mesh)
    gram_matrix, _ = lapack.dtfttr(n, packed, uplo="L")
    del packed
    try:
        values, vectors = linalg.eigh(
            gram_matrix,
            lower=True,
            subset_by_value=(path_jitter, np.inf),
            driver="evr",
            overwrite_a=True,
            check_finite=False,
        )
    except np.linalg.LinAlgError as exc:
        raise SamplingError(
            f"eigendecomposition of the prior covariance on the mesh failed "
            f"(path jitter {path_jitter:.3e})"
        ) from exc
    if values.size == 0:
        raise SamplingError(
            f"prior covariance on the mesh has no eigenvalue above the path "
            f"jitter {path_jitter:.3e}"
        )
    vectors *= np.sqrt(values)
    return vectors


def sample_prior(spec: KernelSpec, mesh, seed: int) -> np.ndarray:
    """One zero-mean prior path on the mesh; deterministic in (spec, mesh, seed).

    The Gram matrix gets a path jitter of 1e-12 times its largest diagonal
    entry before factorisation.  An empty mesh or a non-finite mesh point
    is a ParameterError.
    """
    mesh = np.asarray(mesh, dtype=float)
    if mesh.size == 0:
        raise ParameterError("mesh must be non-empty")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(mesh.size)
    return blas.dtpmv(mesh.size, _path_cholesky(spec, mesh), xi, lower=1)
