"""Self-contained evaluation of the modified Bessel function of the second kind.

Everything is computed in log space through the integral representation

    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,   nu > 0, x > 0,

so that very large orders (nu in the hundreds) and very small arguments are
handled without overflow.  The integrand is unimodal on [0, inf); we locate
its peak, shift it out, and integrate the remainder with a composite
Gauss-Legendre rule over a window chosen so the discarded tails are below
1e-26 relative to the peak.  At tiny arguments, where the left tail decays
too slowly for that rule, the leading small-argument term
log(Gamma(nu) / 2 (2 / x)^nu) is exact to double precision and replaces it
(``_SMALL_ARGUMENT``).
"""

from __future__ import annotations

import math

import numpy as np

_GL_PANELS = 24
_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

# Tail cutoff in log units below the peak; exp(-60) ~ 9e-27 leaves the
# truncation error far below the 1e-10 agreement the kernel tests demand.
_LOG_CUTOFF = 60.0


def _log_cosh(z: np.ndarray) -> np.ndarray:
    z = np.abs(z)
    return z + np.log1p(np.exp(-2.0 * z)) - np.log(2.0)


def _times(x: np.ndarray, fn, t: np.ndarray) -> np.ndarray:
    """x fn(t) for fn = cosh or sinh and t >= 0.

    Where fn(t) overflows (t past about 710) a subnormal x can still leave
    the product finite, so there it is taken in log space with
    fn(t) = e^t / 2.  A product that is too large for a double is inf.
    """
    with np.errstate(over="ignore"):
        out = x * fn(t)
        big = np.isinf(out)
        if np.any(big):
            x, t = np.broadcast_arrays(x, t)
            out[big] = np.exp(np.log(x[big]) + t[big] - math.log(2.0))
    return out


def _log_integrand(t: np.ndarray, nu: float, x: np.ndarray) -> np.ndarray:
    # far out in the tail (small nu and x let the bracketing reach t ~ 800)
    # x cosh t overflows to inf, and the log integrand is -inf, its limit there
    return -_times(x, np.cosh, t) + _log_cosh(nu * t)


def _peak_location(nu: float, x: np.ndarray) -> np.ndarray:
    """Maximiser of the log-integrand, found by bisection.

    g'(t) = -x sinh t + nu tanh(nu t) has at most one zero on (0, inf); when
    g'(0+) <= 0 (i.e. x >= nu^2) the maximum sits at t = 0.
    """
    # arcsinh(nu / x) <= log(1 + 2 nu / x), taken in log space: nu / x
    # itself overflows at a subnormal x
    hi = np.logaddexp(0.0, math.log(2.0 * nu) - np.log(x)) + 1.0
    lo = np.zeros_like(x)
    interior = x < nu * nu
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        grad = -_times(x, np.sinh, mid) + nu * np.tanh(nu * mid)
        lo = np.where(grad > 0.0, mid, lo)
        hi = np.where(grad > 0.0, hi, mid)
    return np.where(interior, 0.5 * (lo + hi), 0.0)


def _cutoff_edge(nu, x, g_peak, t_peak, width, sign):
    """Point on the given side of the peak where the integrand drops below
    the cutoff (clipped at 0 on the left).  Geometric bracketing followed by
    bisection, vectorised over x."""
    step = np.maximum(width, 0.25)
    inner = t_peak.copy()
    outer = t_peak + sign * step
    if sign < 0:
        outer = np.maximum(outer, 0.0)
    for _ in range(60):
        hot = _log_integrand(outer, nu, x) - g_peak > -_LOG_CUTOFF
        if sign < 0:
            hot &= outer > 0.0
        if not np.any(hot):
            break
        inner = np.where(hot, outer, inner)
        step = np.where(hot, step * 1.5, step)
        outer = np.where(hot, outer + sign * step, outer)
        if sign < 0:
            outer = np.maximum(outer, 0.0)
    for _ in range(40):
        mid = 0.5 * (inner + outer)
        hot = _log_integrand(mid, nu, x) - g_peak > -_LOG_CUTOFF
        inner = np.where(hot, mid, inner)
        outer = np.where(hot, outer, mid)
    return outer


# Keep the (n_x, panels, order) node array below ~50 MB per batch.
_CHUNK = 16384

# Where 2 min(nu, 1) log(2 / x) exceeds this, log K_nu(x) is the leading
# small-argument term log Gamma(nu) - log 2 - nu log(x / 2): the terms left
# out are relatively (x/2)^2 and (x/2)^(2 nu) times coefficients that cancel
# near nu = 1.  Against mpmath at 40 digits the term's relative error is at
# most 2.5e-16 from 38 up, for nu in [0.035, 5] and at nu = 0.999, 1 and
# 1.001, while the quadrature there is off by up to 1.5e-13 (nu = 0.8) and
# 4.8e-9 (nu = 0.3).  Orders below about 0.027 never reach it.
_SMALL_ARGUMENT = 40.0


def log_bessel_k(nu: float, x) -> np.ndarray:
    """log K_nu(x), vectorised over x.

    Parameters
    ----------
    nu : float
        Order, strictly positive.  Arbitrary real orders are supported,
        including integers and very large values.
    x : array_like
        Strictly positive arguments.

    Returns
    -------
    np.ndarray
        log K_nu(x) elementwise, as a float array of the input shape.
    """
    if nu <= 0:
        raise ValueError(f"order must be positive, got nu={nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("argument must be strictly positive")
    flat = np.ravel(x)
    # leading small-argument term, log(Gamma(nu) / 2 (2 / x)^nu)
    log_half_x = np.log(flat) - math.log(2.0)
    out = math.lgamma(nu) - math.log(2.0) - nu * log_half_x
    rest = np.flatnonzero(-2.0 * min(nu, 1.0) * log_half_x <= _SMALL_ARGUMENT)
    for start in range(0, rest.size, _CHUNK):
        chunk = rest[start : start + _CHUNK]
        out[chunk] = _log_bessel_chunk(nu, flat[chunk])
    return out[0] if x.ndim == 0 else out.reshape(x.shape)


def _log_bessel_chunk(nu: float, x: np.ndarray) -> np.ndarray:
    t_peak = _peak_location(nu, x)
    g_peak = _log_integrand(t_peak, nu, x)

    # Curvature scale at the peak; the cutoff window is a handful of these.
    width = 1.0 / np.sqrt(np.sqrt(x * x + nu * nu))
    t_hi = _cutoff_edge(nu, x, g_peak, t_peak, width, +1)
    t_lo = np.where(t_peak > 0.0, _cutoff_edge(nu, x, g_peak, t_peak, width, -1), 0.0)

    # Composite Gauss-Legendre on [t_lo, t_hi], all x at once.
    edges = np.linspace(0.0, 1.0, _GL_PANELS + 1)
    starts = t_lo[:, None] + (t_hi - t_lo)[:, None] * edges[None, :-1]
    stops = t_lo[:, None] + (t_hi - t_lo)[:, None] * edges[None, 1:]
    half = 0.5 * (stops - starts)
    mid = 0.5 * (stops + starts)
    nodes = mid[:, :, None] + half[:, :, None] * _GL_NODES[None, None, :]
    vals = np.exp(_log_integrand(nodes, nu, x[:, None, None]) - g_peak[:, None, None])
    integral = np.sum(vals * _GL_WEIGHTS[None, None, :] * half[:, :, None], axis=(1, 2))
    return g_peak + np.log(integral)
