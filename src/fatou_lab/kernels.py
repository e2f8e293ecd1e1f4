"""Bessel and Riesz kernels with cross-checked evaluation routes.

The Bessel kernel has two independent routes: adaptive quadrature of its
subordination integral (after the substitution u = log t), and a closed
form in terms of the modified Bessel function K_nu.  The normalizing
constant c_alpha is fixed numerically, once per (n, alpha), by radial
integration, and cached.  Each route loads the SciPy module it needs on
its first call: scipy.integrate for quadrature, scipy.special for K_nu
and the Gamma function.  A process that evaluates no Bessel or Riesz
kernel imports no SciPy module.
"""

import functools
import math

import numpy as np

from .errors import NumericError, ParameterError, SingularityError


def _norm_sq(x) -> float:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    return float(np.dot(arr, arr))


def _cosh_integrand(w: float, r: float, c: float) -> float:
    expo = -r * math.cosh(w) + c * w
    return math.exp(expo) if expo > -745.0 else 0.0


def _bessel_unnormalized(n: int, alpha: float, r: float) -> float:
    """Integral over t of exp(-pi r^2/t - t/(4 pi)) t^((alpha-n)/2) dt/t.

    Evaluated after u = log t, recentered at the peak u* = log(2 pi r),
    where the exponent collapses to -r cosh(w) + c w on finite limits.
    """
    c = (alpha - n) / 2.0
    if r == 0.0:
        if alpha <= n:
            raise SingularityError("bessel kernel is singular at the origin")
        from scipy.special import gamma

        return (4.0 * math.pi) ** c * gamma(c)
    if r > 740.0:
        return 0.0  # below double-precision underflow
    from scipy.integrate import quad

    cut = max(25.0, math.log(1500.0 / r))
    lo, err_lo = quad(_cosh_integrand, -cut, 0.0, args=(r, c),
                      epsabs=0.0, epsrel=1e-10, limit=300)
    hi, err_hi = quad(_cosh_integrand, 0.0, cut, args=(r, c),
                      epsabs=0.0, epsrel=1e-10, limit=300)
    val = lo + hi
    if not np.isfinite(val) or (val > 0 and (err_lo + err_hi) > 1e-6 * val):
        raise NumericError(
            f"bessel quadrature failed at r={r} (value {val}, err {err_lo + err_hi})")
    return (2.0 * math.pi * r) ** c * val


def _series_prefactor(n: int, alpha: float) -> float:
    # analytic constant of the K_nu closed form, c_alpha * 2 (2 pi)^{-nu}
    from scipy.special import gamma

    return 2.0 * (2.0 * math.pi) ** ((alpha - n) / 2.0) / (
        (4.0 * math.pi) ** (alpha / 2.0) * gamma(alpha / 2.0))


@functools.cache
def bessel_normalization(n: int, alpha: float) -> float:
    """c_alpha with ||G_alpha||_L1 = 1, computed once per (n, alpha) and cached.

    Radially integrates the quadrature-route (unnormalized) kernel after
    the substitution r = e^v, keeping this path independent of the K_nu
    closed form used by the series route.
    """
    from scipy.integrate import quad

    omega = 2.0 if n == 1 else 2.0 * math.pi

    def radial_log(v: float) -> float:
        r = math.exp(v)
        return _bessel_unnormalized(n, alpha, r) * r ** n

    # the integrand decays like e^{alpha v} towards -inf; size the cut so
    # the truncated tail is below 1e-12 of the total
    v_lo = min(-45.0, -30.0 / alpha)
    total, err = quad(radial_log, v_lo, 8.0, epsabs=0.0, epsrel=1e-10, limit=400)
    mass = omega * total
    if not (np.isfinite(mass) and mass > 0):
        raise NumericError(f"bessel normalization failed for (n={n}, alpha={alpha})")
    return 1.0 / mass


def bessel_kernel(n: int, alpha: float, x, route: str = "quadrature") -> float:
    """G_alpha at a point, by adaptive quadrature or by the K_nu closed form."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if n not in (1, 2):
        raise ParameterError(f"n must be 1 or 2, got {n}")
    r = math.sqrt(_norm_sq(x))
    if route == "quadrature":
        return bessel_normalization(n, alpha) * _bessel_unnormalized(n, alpha, r)
    if route == "series":
        from scipy.special import gamma, kv

        nu = (n - alpha) / 2.0
        if r == 0.0:
            if alpha <= n:
                raise SingularityError("bessel kernel is singular at the origin")
            # finite limit: r^{-nu} K_nu(r) -> Gamma(-nu) 2^{-nu-1} as r -> 0
            return _series_prefactor(n, alpha) * gamma(-nu) * 2.0 ** (-nu - 1.0)
        return float(_series_prefactor(n, alpha) * r ** (-nu) * kv(nu, r))
    raise ParameterError(f"unknown route {route!r}")


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
        return bessel_kernel(n, alpha, (r, 0.0) if n == 2 else r,
                             route="series") * r ** n

    v_lo = min(-40.0, -30.0 / alpha)
    total, _ = quad(radial_log, v_lo, 8.0, epsabs=0.0, epsrel=1e-9, limit=400)
    return omega * total
