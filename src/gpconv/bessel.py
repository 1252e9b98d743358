"""log K_nu(x), the modified Bessel K function, for any order nu > 0 and
argument x > 0, without over- or underflow, by one of three routes:

1. Leading term (DLMF 10.30.2), where 2 min(nu, 1) ln(2/x) > 40:
   lgamma(nu) - ln 2 + nu ln(2/x); the rest is relatively below e^-40.
2. Two-term form (DLMF 10.27.4 with 10.25.2; the rest is relatively O(x^2)),
   below ``_KVE_MIN``, where kve overflows at any order (so here nu < 0.03):
   K_nu(x) = Gamma(1+nu) (2/x)^nu t exprel(-2 nu t),  t = ln(2/x) + c,
   c = (lgamma(1+nu) - lgamma(1-nu)) / (2 nu) = -gamma - zeta(3) nu^2/3 - ...
   The series serves below nu = 1e-4: lgamma's rounding of 1 +- nu spoils c.
3. Base order and recurrence elsewhere: nu = m + mu, mu in [0, 1), log K_mu =
   ln kve(mu, x) - x, and the ratios rho_j = K_{j+1}/K_j run up from
   kve(mu+1, x)/kve(mu, x) by rho_j = 1/rho_{j-1} + 2j/x (DLMF 10.29.1).  Their
   product is kept as a ``frexp`` mantissa and exponent (a sum of logs loses
   1e-12 by nu = 200).  A subnormal mu, where kve gives NaN, is taken as 0.

Against mpmath, routes 1 and 2 err in log K by at most 5e-16 max(1, |log K|).
Route 3 adds kve's relative error to log K: below 6e-16 from x = 2 up, and up
to 2e-13 below, most near x = 2, where AMOS sums its small-argument series.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_SMALL_ARGUMENT = 40.0
_KVE_MIN = 1e3 * np.finfo(float).tiny


def log_bessel_k(nu: float, x) -> np.ndarray:
    """log K_nu(x) for nu > 0, elementwise over x > 0 (a 0-d x gives a scalar)."""
    if nu <= 0:
        raise ValueError(f"order must be positive, got nu={nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("argument must be strictly positive")
    flat = np.ravel(x)
    log_2_x = math.log(2.0) - np.log(flat)
    out = math.lgamma(nu) - math.log(2.0) + nu * log_2_x
    lead = 2.0 * min(nu, 1.0) * log_2_x > _SMALL_ARGUMENT
    tiny = ~lead & (flat < _KVE_MIN)
    if np.any(tiny):
        c = (-np.euler_gamma - special.zeta(3.0) * nu * nu / 3.0 if nu < 1e-4
             else (math.lgamma(1.0 + nu) - math.lgamma(1.0 - nu)) / (2.0 * nu))
        t = log_2_x[tiny] + c
        out[tiny] = math.lgamma(1.0 + nu) + nu * log_2_x[tiny]
        out[tiny] += np.log(t * special.exprel(-2.0 * nu * t))
    rest = ~(lead | tiny)
    if np.any(rest):
        out[rest] = _recurrence(nu, flat[rest])
    return out[0] if x.ndim == 0 else out.reshape(x.shape)


def _recurrence(nu: float, x: np.ndarray) -> np.ndarray:
    m = math.floor(nu)
    mu = nu - m if nu - m >= np.finfo(float).tiny else 0.0
    k_mu = special.kve(mu, x)
    out = np.log(k_mu) - x
    if m:
        rho = special.kve(mu + 1.0, x) / k_mu
        mantissa, exponent = np.frexp(rho)
        for j in range(1, m):
            rho = 1.0 / rho + 2.0 * (mu + j) / x
            mantissa, step = np.frexp(mantissa * rho)
            exponent += step
        out += np.log(mantissa) + exponent * math.log(2.0)
    return out
