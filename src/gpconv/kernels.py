"""Covariance kernels: the Matern family and three non-stationary constructions.

The stationary building block is the Matern kernel

    k(r) = sigma^2 (2^(1-nu)/Gamma(nu)) (sqrt(2 nu) r / lambda)^nu
           K_nu(sqrt(2 nu) r / lambda),

with the Gaussian kernel sigma^2 exp(-r^2 / (2 lambda^2)) as the nu -> inf
limit, kept as its own variant.  A Matern order takes one of four routes:
half-integer orders nu = p + 1/2 use the exponential-times-polynomial closed
form; integer orders use the upward recurrence for K_n from K_0 and K_1
(DLMF 10.29.1); other orders use scipy's ``special.kv``; entries where
either Bessel route over- or underflows are redone in log space with
``bessel.log_bessel_k``, which builds on scipy's ``special.kve`` and the
same recurrence in the order.  Non-stationary kernels are built from these by
input warping, coefficient mixtures, or position-dependent length scales
with a normalising prefactor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np
from scipy import special

from .bessel import log_bessel_k
from .errors import (
    DomainError,
    EvaluationError,
    ParameterError,
    UnsupportedKernelError,
)
from .functions import FunctionHandle, scalar_problem

# Upper bound on the universal constant in the Gaussian-derivative estimate
# used by the kernel-derivative bounds; only the bound is known.
C0_DERIVATIVE_BOUND = 1.0866

_BELL_MAX_N = 25

# smallest normal double
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class MaternKernel:
    nu: float
    lam: float = 1.0
    sigma_sq: float = 1.0

    def __post_init__(self):
        if self.nu == math.inf:
            raise ParameterError("use GaussianKernel for the infinite-smoothness limit")
        _check_positive(nu=self.nu, lam=self.lam, sigma_sq=self.sigma_sq)


@dataclass(frozen=True)
class GaussianKernel:
    lam: float = 1.0
    sigma_sq: float = 1.0

    def __post_init__(self):
        _check_positive(lam=self.lam, sigma_sq=self.sigma_sq)


@dataclass(frozen=True)
class WarpKernel:
    w: FunctionHandle
    base: "KernelSpec"

    def __post_init__(self):
        if not is_stationary(self.base):
            raise ParameterError("warp base kernel must be stationary")


@dataclass(frozen=True)
class Component:
    """One mixture term sigma(u) sigma(u') k(u, u'); unpacks as (sigma, base)."""

    sigma: FunctionHandle
    base: "KernelSpec"

    def __iter__(self):
        return iter((self.sigma, self.base))


@dataclass(frozen=True)
class MixtureKernel:
    components: tuple[Component, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ParameterError("mixture needs at least one component")
        object.__setattr__(self, "components", tuple(Component(*c) for c in self.components))


@dataclass(frozen=True)
class ConvolutionKernel:
    lambda_a: FunctionHandle
    base_iso: "KernelSpec"

    def __post_init__(self):
        if not is_stationary(self.base_iso):
            raise ParameterError("convolution base kernel must be isotropic")


KernelSpec = Union[MaternKernel, GaussianKernel, WarpKernel, MixtureKernel, ConvolutionKernel]


def _check_positive(**params):
    for name, value in params.items():
        if scalar_problem(value, float) or not 0 < value < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")


def is_stationary(spec: KernelSpec) -> bool:
    # The 1-D stationary kernels here are all isotropic as well.
    return isinstance(spec, (MaternKernel, GaussianKernel))


def _as_points(points) -> np.ndarray:
    """Canonicalise a scalar or a vector of points to a 1-D float array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim > 1:
        raise ParameterError(f"points must be scalars or 1-D arrays, got ndim={pts.ndim}")
    return pts.reshape(-1)


def _half_integer_p(nu: float) -> int | None:
    p = nu - 0.5
    if p >= 0 and p == math.floor(p):
        return int(p)
    return None


@functools.lru_cache(maxsize=None)
def _half_integer_coefficients(p: int) -> tuple[float, ...]:
    """Coefficients c_0..c_p of the closed form k(z) / sigma^2 = exp(-z) sum_j c_j z^j
    for nu = p + 1/2, where c_j = p! (2p - j)! 2^j / ((2p)! (p - j)! j!).

    Each is a correctly rounded ratio of exact integers, so c_0 = 1 exactly.
    """
    f = math.factorial
    return tuple(
        (f(p) * f(2 * p - j) * 2**j) / (f(2 * p) * f(p - j) * f(j)) for j in range(p + 1)
    )


def _matern_profile(nu: float, lam: float, sigma_sq: float, r: np.ndarray) -> np.ndarray:
    """Matern kernel as a function of distance, vectorised over r >= 0."""
    r = np.asarray(r, dtype=float)
    # z = sqrt(2 nu) r / lambda in a fresh array, kept an array (not a numpy
    # scalar) for 0-d r so that the in-place steps below work for every shape;
    # each fresh array costs page faults, so the closed form makes only two
    z = np.multiply(math.sqrt(2.0 * nu), r, out=np.empty_like(r))
    z /= lam
    p = _half_integer_p(nu)
    if p is None:
        return _matern_bessel_profile(nu, sigma_sq, z)
    # exponential-times-polynomial closed form for nu = p + 1/2, by Horner's rule
    coeffs = _half_integer_coefficients(p)
    if p == 0:
        out = np.full_like(z, sigma_sq * coeffs[0])
    else:
        out = np.multiply(z, sigma_sq * coeffs[p], out=np.empty_like(z))
        out += sigma_sq * coeffs[p - 1]
        for c in reversed(coeffs[: p - 1]):
            out *= z
            out += sigma_sq * c
    np.negative(z, out=z)
    out *= np.exp(z, out=z)
    return out


def _matern_bessel_profile(nu: float, sigma_sq: float, z: np.ndarray) -> np.ndarray:
    """Bessel-function form of the Matern kernel; z = sqrt(2 nu) r / lambda.

    Integer orders go through ``_integer_order_profile``, the recurrence for
    K_n; other orders evaluate K_nu with ``special.kv``.  Entries where that
    over- or underflows (tiny z, z past about 705, or very large orders) are
    redone in log space with ``log_bessel_k`` (``special.kve`` and the ratio
    recurrence in the order, or its small-argument forms), so the whole
    (nu, z) range is covered.  A z below the normal range gives sigma_sq, as
    z = 0 does: the profile is 1 to double precision there for every order
    above 0.03.
    """
    out = np.full(z.shape, sigma_sq, dtype=float)
    pos = z >= _TINY
    if not np.any(pos):
        return out
    zp = z[pos]
    prefactor_log = (1.0 - nu) * math.log(2.0) - math.lgamma(nu)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if nu == math.floor(nu):
            direct = _integer_order_profile(int(nu), zp)
        else:
            direct = special.kv(nu, zp) * np.exp(prefactor_log + nu * np.log(zp))
    bad = ~np.isfinite(direct) | (direct <= 0.0)
    if np.any(bad):
        log_k = prefactor_log + nu * np.log(zp[bad]) + log_bessel_k(nu, zp[bad])
        direct[bad] = np.exp(log_k)
    out[pos] = sigma_sq * np.minimum(direct, 1.0)
    return out


def _integer_order_profile(n: int, z: np.ndarray) -> np.ndarray:
    """2^(1-n)/Gamma(n) z^n K_n(z) for an integer order n >= 1 and z > 0.

    The upward recurrence K_{k+1} = K_{k-1} + (2k/z) K_k (DLMF 10.29.1) is
    stable for K.  It runs on b_k = z^k K_k(z) / (2^(k-1) (k-1)!), so that
    b_n is the profile itself:

        b_1 = z K_1(z),   b_2 = b_1 + z^2 K_0(z) / 2,
        b_{k+1} = b_k + z^2 b_{k-1} / (4k(k-1)).

    Each b_k with k >= 1 is the order-k profile, in (0, 1], so no order and
    no normal z overflows, and b_n -> 1 as z -> 0.  For n = 3 this is
    (z^3 K_1 + 8z K_1 + 4z^2 K_0) / 8.
    Where K_0 falls below the normal range (z past about 705) its last bits
    are gone; those entries come back NaN, for the caller's log-space route.
    """
    k0 = special.k0(z)
    k0[k0 < _TINY] = np.nan
    z_sq = z * z
    prev, cur = k0, z * special.k1(z)
    for k in range(1, n):
        prev *= z_sq
        prev /= 2 if k == 1 else 4 * k * (k - 1)
        prev += cur
        prev, cur = cur, prev
    return cur


def matern_eval(nu: float, lam: float, sigma_sq: float, r: float) -> float:
    """Matern kernel value at distance r; nu = inf gives the Gaussian kernel.

    The r = 0 value is sigma_sq exactly (the Bessel form has a removable
    singularity there).  Half-integer orders use the closed form, integer
    orders the K_0/K_1 recurrence (DLMF 10.29.1), and other orders
    ``special.kv``; both Bessel routes fall back to ``log_bessel_k``, which
    works in log space from ``special.kve``, where they over- or underflow.
    """
    spec = GaussianKernel(lam, sigma_sq) if nu == math.inf else MaternKernel(nu, lam, sigma_sq)
    if not 0 <= r < math.inf:
        raise ParameterError(f"distance must be non-negative and finite, got {r}")
    return float(_stationary_profile(spec, np.asarray(r, dtype=float)))


def _stationary_profile(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    if isinstance(spec, MaternKernel):
        return _matern_profile(spec.nu, spec.lam, spec.sigma_sq, r)
    if isinstance(spec, GaussianKernel):
        r = np.asarray(r, dtype=float)
        return spec.sigma_sq * np.exp(-(r * r) / (2.0 * spec.lam * spec.lam))
    raise UnsupportedKernelError(f"{type(spec).__name__} has no radial profile")


def _eval_fn(handle: FunctionHandle, x: np.ndarray, what: str) -> np.ndarray:
    vals = np.asarray(handle(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{what} returned a non-finite value")
    return vals


def _warped(spec: KernelSpec, points: np.ndarray) -> tuple[KernelSpec, np.ndarray]:
    """A warp kernel on the points is its base kernel on the warped points:
    (base, w(points)) for a ``WarpKernel``, and (spec, points) for any other
    kernel.  Callers that pair one point set with many others warp it once."""
    if isinstance(spec, WarpKernel):
        return spec.base, _eval_fn(spec.w, points, "warping function")
    return spec, points


class _Pairing(NamedTuple):
    """How ``_evaluate`` pairs the points of ua with those of ub.

    ``shape(x, y)`` shapes two per-point vectors to broadcast together.
    ``support(sa, sb)`` takes two per-point coefficient vectors and returns
    the indices into ua and into ub, and the cells of the result, where the
    paired product sa * sb can be nonzero.
    """

    shape: Callable
    support: Callable


def _nonzero(mask: np.ndarray):
    """Indexer of the nonzero entries of ``mask``; a full slice when none is
    zero.  A slice selects and adds by view: with index arrays alone, the
    smooth coefficients of ``fig_mix3_smooth`` made its study take 1.05 s
    instead of 0.72 s (median of 10 paired runs)."""
    idx = np.flatnonzero(mask)
    return slice(None) if idx.size == mask.size else idx


def _outer_support(sa: np.ndarray, sb: np.ndarray):
    rows, cols = _nonzero(sa), _nonzero(sb)
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols, (rows, cols)
    return rows, cols, np.ix_(rows, cols)


def _elementwise_support(sa: np.ndarray, sb: np.ndarray):
    both = _nonzero((sa != 0.0) & (sb != 0.0))
    return both, both, both


# the matrix k(ua_i, ub_j): rows and columns where each coefficient is nonzero
_OUTER = _Pairing(lambda x, y: (x[:, None], y[None, :]), _outer_support)
# the vector k(ua_i, ub_i): entries where both coefficients are nonzero
_ELEMENTWISE = _Pairing(lambda x, y: (x, y), _elementwise_support)


def _evaluate(spec: KernelSpec, ua: np.ndarray, ub: np.ndarray, pairing: _Pairing) -> np.ndarray:
    """k(ua, ub) for two 1-D point vectors under ``pairing``: ``_OUTER``
    gives the matrix k(ua_i, ub_j), ``_ELEMENTWISE`` the vector
    k(ua_i, ub_i).  Per-point values (warped points, coefficients, length
    scales) are computed for ua and for ub alike, and every entry is built
    from products, sums and |x - y|, each symmetric in its two points in
    IEEE arithmetic.  So k(ua, ub) is the transpose of k(ub, ua) bit for
    bit, and a Gram matrix (ub equal to ua) is exactly symmetric.

    A mixture evaluates each component's base kernel only where its
    coefficient product can be nonzero, as ``pairing.support`` selects.  It
    adds the result into those entries of ``out`` and skips a component
    with none.  A skipped term is
    sigma_l(ua_i) sigma_l(ub_j) k_l(ua_i, ub_j) = +-0 for finite k_l;
    adding +-0 changes no value (``out`` starts at +0, and +0 + -0 = +0),
    and the components still accumulate in order, so the result is
    bit-identical to the sum of every component's full product.  The
    indicator coefficients of ``fig_mix3_indicator`` leave out about 84%
    of its nu = 3 component's Bessel entries this way.  The base kernel
    never sees a point where its coefficient is 0, so a base that would
    raise, or give a non-finite value, only at such points does neither.
    """
    if is_stationary(spec):
        x, y = pairing.shape(ua, ub)
        return _stationary_profile(spec, np.abs(x - y))

    if isinstance(spec, WarpKernel):
        return _evaluate(spec.base, _warped(spec, ua)[1], _warped(spec, ub)[1], pairing)

    if isinstance(spec, MixtureKernel):
        out = np.zeros(np.broadcast(*pairing.shape(ua, ub)).shape)
        for sigma_fn, base in spec.components:
            sa = _eval_fn(sigma_fn, ua, "mixture coefficient")
            sb = _eval_fn(sigma_fn, ub, "mixture coefficient")
            ia, ib, cells = pairing.support(sa, sb)
            va, vb = ua[ia], ub[ib]
            if va.size == 0 or vb.size == 0:
                continue
            x, y = pairing.shape(sa[ia], sb[ib])
            out[cells] += (x * y) * _evaluate(base, va, vb, pairing)
        return out

    if isinstance(spec, ConvolutionKernel):
        la = _eval_fn(spec.lambda_a, ua, "length-scale function")
        lb = _eval_fn(spec.lambda_a, ub, "length-scale function")
        if np.any(la <= 0) or np.any(lb <= 0):
            raise DomainError("length-scale function must be strictly positive")
        # sqrt(2) la^(1/4) lb^(1/4) assembled as (2 la)^(1/4) (2 lb)^(1/4)
        # so every factor is symmetric in (i, j) down to the last ulp
        sa, sb = (2.0 * la) ** 0.25, (2.0 * lb) ** 0.25
        (sa, sb), (la, lb) = pairing.shape(sa, sb), pairing.shape(la, lb)
        x, y = pairing.shape(ua, ub)
        prefactor = (sa * sb) * (la + lb) ** -0.5
        scaled = np.abs(x - y) / np.sqrt(0.5 * (la + lb))
        return prefactor * _stationary_profile(spec.base_iso, scaled)

    raise UnsupportedKernelError(f"unknown kernel spec {type(spec).__name__}")


def kernel_matrix(spec: KernelSpec, a, b=None) -> np.ndarray:
    """Cross-covariance matrix k(a_i, b_j); with b omitted, the Gram matrix.

    Points are 1-D: a scalar is one point, a vector is a point set, and an
    array with more than one dimension raises ParameterError.  The Gram case
    is exactly symmetric.
    """
    ua = _as_points(a)
    return _evaluate(spec, ua, ua if b is None else _as_points(b), _OUTER)


def kernel_diag(spec: KernelSpec, points) -> np.ndarray:
    """Vector of k(p_i, p_i), bit for bit the Gram diagonal: the same
    expressions as ``kernel_matrix`` under ``_evaluate``'s elementwise pairing."""
    pts = _as_points(points)
    return _evaluate(spec, pts, pts, _ELEMENTWISE)


def kernel_eval(spec: KernelSpec, u, v) -> float:
    """Kernel value at a single pair of points."""
    value = kernel_matrix(spec, u, v)[0, 0]
    if not np.isfinite(value):
        raise EvaluationError("kernel evaluation produced a non-finite value")
    return float(value)


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Gram matrix on a point set; exactly symmetric."""
    return kernel_matrix(spec, points)


def check_psd(spec: KernelSpec, points, tol: float) -> tuple[bool, float]:
    """Whether the Gram matrix is positive semi-definite up to -tol.

    Returns the verdict together with the smallest eigenvalue.
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol}")
    eigenvalues = np.linalg.eigvalsh(gram(spec, points))
    smallest = float(eigenvalues[0])
    return smallest >= -tol, smallest


def bell_number(n: int) -> int:
    """Number of set partitions of {1, ..., n}; B_0 = 1.

    Computed with the Bell triangle.  Guarded at n <= 25 so results stay
    inside the exact 64-bit integer range of downstream consumers.
    """
    if scalar_problem(n, int) or not n >= 0:
        raise ParameterError(f"n must be a non-negative integer, got {n!r}")
    if n > _BELL_MAX_N:
        raise ParameterError(f"n={n} exceeds the supported range n <= {_BELL_MAX_N}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def derivative_bound_constant(spec: KernelSpec, p: int, norm_inputs: dict) -> float:
    """Constant bounding the order-2p mixed kernel derivatives.

    Covers warping, mixture and convolution kernels over a Gaussian base;
    the caller supplies the required function norms in ``norm_inputs``:

    - warp:        ``{"w_c2p": ||w||_C^2p}``
    - mixture:     ``{"sigma_c2p_max": max_l ||sigma_l||_C^2p}``
    - convolution: ``{"lambda_c2p": ||lambda_a||_C^2p, "c_min": inf lambda_a,
                      "lambda_c0": ||lambda_a||_C^0 (optional)}``

    The universal factor is pinned at its known upper bound 1.0866.  The
    convolution constant is evaluated with the published grouping and is
    informational only; no convergence check consumes it.
    """
    if scalar_problem(p, int) or not p >= 1:
        raise ParameterError(f"p must be a positive integer, got {p!r}")
    b2p = bell_number(2 * p)
    sqrt_fact = math.sqrt(math.factorial(2 * p))

    if isinstance(spec, WarpKernel):
        base = _require_gaussian_base(spec.base, "warp")
        w_norm = _norm_input(norm_inputs, "w_c2p")
        return C0_DERIVATIVE_BOUND * base.sigma_sq * sqrt_fact * b2p * w_norm

    if isinstance(spec, MixtureKernel):
        for _, base in spec.components:
            _require_gaussian_base(base, "mixture")
        sig_norm = _norm_input(norm_inputs, "sigma_c2p_max")
        return C0_DERIVATIVE_BOUND * (2 * p) * 2 ** (4 * p) * sqrt_fact * sig_norm**2

    if isinstance(spec, ConvolutionKernel):
        base = _require_gaussian_base(spec.base_iso, "convolution")
        lam_norm = _norm_input(norm_inputs, "lambda_c2p")
        c_min = _norm_input(norm_inputs, "c_min")
        lam_c0 = _norm_input(norm_inputs, "lambda_c0") if "lambda_c0" in norm_inputs else lam_norm
        if not 0 < c_min < math.inf:
            raise ParameterError("c_min must be positive and finite")
        first = (
            abs(5.0 / 4.0 - 2 * p) ** (2 * p)
            * max(lam_c0, 1.0) ** (0.25 - 2 * p)
            * lam_norm
        ) ** 2
        third = (
            math.factorial(4 * p)
            * 2.0
            * C0_DERIVATIVE_BOUND
            * sqrt_fact
            * lam_norm**2
            * math.factorial(2 * p)
            * (2.0 * c_min) ** (-1 - 2 * p)
        )
        return math.sqrt(2.0) * base.sigma_sq * first * third * lam_norm * b2p**5

    raise UnsupportedKernelError(
        f"no derivative bound is available for {type(spec).__name__}"
    )


def _require_gaussian_base(base: KernelSpec, which: str) -> GaussianKernel:
    if not isinstance(base, GaussianKernel):
        raise UnsupportedKernelError(
            f"derivative bounds for the {which} kernel require a Gaussian base"
        )
    return base


def _norm_input(norm_inputs: dict, key: str) -> float:
    if key not in norm_inputs:
        raise ParameterError(f"norm_inputs is missing required entry {key!r}")
    value = float(norm_inputs[key])
    if not 0 <= value < math.inf:
        raise ParameterError(f"norm_inputs[{key!r}] must be non-negative and finite")
    return value
