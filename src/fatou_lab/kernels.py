"""Bessel and Riesz kernels at points.

The Bessel kernel G_alpha is evaluated by its closed form in terms of
the modified Bessel function K_nu, with the analytic normalizing
constant, so that ||G_alpha||_L1 = 1; bessel_l1_norm checks that mass by
radial quadrature.  Each function loads the SciPy module it needs on its
first call: scipy.special for K_nu and the Gamma function,
scipy.integrate for bessel_l1_norm.  A process that evaluates no Bessel
or Riesz kernel imports no SciPy module.
"""

import math

import numpy as np

from .errors import ParameterError, SingularityError


def _norm_sq(x) -> float:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    return float(np.dot(arr, arr))


def _series_prefactor(n: int, alpha: float) -> float:
    # analytic constant of the K_nu closed form, c_alpha * 2 (2 pi)^{-nu}
    from scipy.special import gamma

    return 2.0 * (2.0 * math.pi) ** ((alpha - n) / 2.0) / (
        (4.0 * math.pi) ** (alpha / 2.0) * gamma(alpha / 2.0))


def bessel_kernel(n: int, alpha: float, x) -> float:
    """G_alpha at a point, by the K_nu closed form."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if n not in (1, 2):
        raise ParameterError(f"n must be 1 or 2, got {n}")
    r = math.sqrt(_norm_sq(x))
    from scipy.special import gamma, kv

    nu = (n - alpha) / 2.0
    if r == 0.0:
        if alpha <= n:
            raise SingularityError("bessel kernel is singular at the origin")
        # finite limit: r^{-nu} K_nu(r) -> Gamma(-nu) 2^{-nu-1} as r -> 0
        return _series_prefactor(n, alpha) * gamma(-nu) * 2.0 ** (-nu - 1.0)
    return float(_series_prefactor(n, alpha) * r ** (-nu) * kv(nu, r))


def riesz_constant(n: int, alpha: float) -> float:
    """gamma_{alpha,n} = Gamma((n-alpha)/2) / (2^alpha pi^{n/2} Gamma(alpha/2))."""
    from scipy.special import gamma

    return gamma((n - alpha) / 2.0) / (
        2.0 ** alpha * math.pi ** (n / 2.0) * gamma(alpha / 2.0))


def riesz_kernel(n: int, alpha: float, x) -> float:
    """I_alpha(x) = gamma_{alpha,n} |x|^{alpha-n}."""
    if not (0 < alpha < n):
        raise ParameterError(f"riesz order must lie in (0, {n}), got {alpha}")
    r = math.sqrt(_norm_sq(x))
    if r == 0.0:
        raise SingularityError("riesz kernel is singular at the origin")
    return riesz_constant(n, alpha) * r ** (alpha - n)


def bessel_l1_norm(n: int, alpha: float) -> float:
    """||G_alpha||_L1 by radial quadrature of the normalized kernel."""
    from scipy.integrate import quad

    omega = 2.0 if n == 1 else 2.0 * math.pi

    def radial_log(v: float) -> float:
        r = math.exp(v)
        return bessel_kernel(n, alpha, (r, 0.0) if n == 2 else r) * r ** n

    v_lo = min(-40.0, -30.0 / alpha)
    total, _ = quad(radial_log, v_lo, 8.0, epsabs=0.0, epsrel=1e-9, limit=400)
    return omega * total
