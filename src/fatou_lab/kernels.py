"""Poisson, Bessel and Riesz kernels with cross-checked evaluation routes.

The Bessel kernel has two independent routes: adaptive quadrature of its
subordination integral (after the substitution u = log t), and a closed
form in terms of the modified Bessel function K_nu.  The normalizing
constant c_alpha is fixed numerically, once per (n, alpha), by radial
integration; the cache is write-once and thread-safe.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, kv

from .errors import NumericError, ParameterError, SingularityError
from .grid import Grid, GridFunction, torus_distance, wrapped_delta

_POISSON_C = {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi)}

_norm_cache: dict = {}
_norm_lock = threading.Lock()


@dataclass(frozen=True)
class KernelSpec:
    """kind in {poisson, bessel, riesz}; order is alpha, scale is the Poisson t."""

    kind: str
    dim: int
    order: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("poisson", "bessel", "riesz"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if self.kind == "bessel" and not self.order > 0:
            raise ParameterError("bessel kernel needs order > 0")
        if self.kind == "riesz" and not (0 < self.order < self.dim):
            raise ParameterError(
                f"riesz order must lie in (0, {self.dim}), got {self.order}")
        if self.kind == "poisson" and not self.scale > 0:
            raise ParameterError("poisson kernel needs scale > 0")


def _norm_sq(x) -> float:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    return float(np.dot(arr, arr))


def poisson_kernel(n: int, t: float, x) -> float:
    """c_n * t / (t^2 + |x|^2)^((n+1)/2), normalized to unit mass."""
    if t <= 0:
        raise ParameterError(f"t must be positive, got {t}")
    if n not in _POISSON_C:
        raise ParameterError(f"n must be 1 or 2, got {n}")
    r2 = _norm_sq(x)
    return _POISSON_C[n] * t / (t * t + r2) ** ((n + 1) / 2.0)


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
        return (4.0 * math.pi) ** c * gamma(c)
    if r > 740.0:
        return 0.0  # below double-precision underflow
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
    return 2.0 * (2.0 * math.pi) ** ((alpha - n) / 2.0) / (
        (4.0 * math.pi) ** (alpha / 2.0) * gamma(alpha / 2.0))


def bessel_normalization(n: int, alpha: float) -> float:
    """c_alpha with ||G_alpha||_L1 = 1, computed once per (n, alpha) and cached.

    Radially integrates the quadrature-route (unnormalized) kernel after
    the substitution r = e^v, keeping this path independent of the K_nu
    closed form used by the series route.
    """
    key = (n, float(alpha))
    with _norm_lock:
        if key in _norm_cache:
            return _norm_cache[key]
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
    value = 1.0 / mass
    with _norm_lock:
        _norm_cache.setdefault(key, value)
        return _norm_cache[key]


def bessel_kernel(n: int, alpha: float, x, route: str = "quadrature") -> float:
    """G_alpha at a point, by adaptive quadrature or by the K_nu closed form."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if n not in (1, 2):
        raise ParameterError(f"n must be 1 or 2, got {n}")
    r = math.sqrt(_norm_sq(x))
    if route == "quadrature":
        return bessel_normalization(n, alpha) * _bessel_unnormalized(n, alpha, r)
    if route == "series":
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


def kernel_symbol(spec: KernelSpec, xi) -> float:
    """Fourier multiplier at frequency xi (cycles per unit length)."""
    mag = math.sqrt(_norm_sq(xi))
    if spec.kind == "bessel":
        return (1.0 + 4.0 * math.pi ** 2 * mag * mag) ** (-spec.order / 2.0)
    if spec.kind == "riesz":
        if mag == 0.0:
            raise SingularityError("riesz symbol is singular at xi = 0")
        return (2.0 * math.pi * mag) ** (-spec.order)
    return math.exp(-2.0 * math.pi * spec.scale * mag)


def _cell_average_at_origin(spec: KernelSpec, h: float) -> float:
    """Average of the (singular, integrable) kernel over the central cell.

    dim 1 integrates the interval directly; dim 2 integrates the square
    cell exactly in polar coordinates (r up to (h/2)/cos(theta) on each
    eighth of the square).
    """
    n = spec.dim
    if n == 1:
        if spec.kind == "riesz":
            g = riesz_constant(1, spec.order)
            a = spec.order - 1
            return g * (2.0 / h) * (h / 2.0) ** (a + 1) / (a + 1)

        def rad(r: float) -> float:
            return bessel_kernel(1, spec.order, r, route="series")

        total, _ = quad(rad, 0.0, h / 2.0, epsabs=0.0, epsrel=1e-9, limit=200)
        return 2.0 / h * total
    if spec.kind == "riesz":
        a = spec.order
        g = riesz_constant(2, spec.order)

        def outer_r(theta: float) -> float:
            return ((h / 2.0) / math.cos(theta)) ** a / a

        total, _ = quad(outer_r, 0.0, math.pi / 4.0, epsabs=0.0,
                        epsrel=1e-10, limit=100)
        return 8.0 * g * total / (h * h)

    def outer(theta: float) -> float:
        rmax = (h / 2.0) / math.cos(theta)
        val, _ = quad(lambda r: bessel_kernel(2, spec.order, (r, 0.0),
                                              route="series") * r,
                      0.0, rmax, epsabs=0.0, epsrel=1e-9, limit=200)
        return val

    total, _ = quad(outer, 0.0, math.pi / 4.0, epsabs=0.0, epsrel=1e-8,
                    limit=100)
    return 8.0 * total / (h * h)


def _poisson_values(n: int, t: float, r: np.ndarray) -> np.ndarray:
    return _POISSON_C[n] * t / (t * t + r * r) ** ((n + 1) / 2.0)


def _bessel_values(n: int, alpha: float, r: np.ndarray) -> np.ndarray:
    nu = (n - alpha) / 2.0
    out = _series_prefactor(n, alpha) * r ** (-nu) * kv(nu, r)
    return np.where(np.isfinite(out), out, 0.0)


def _refine_near_singularity(spec: KernelSpec, grid: Grid, signed: np.ndarray,
                             vals: np.ndarray) -> None:
    """Replace point samples adjacent to the singularity by cell averages.

    The kernel is strongly convex near 0, where the midpoint rule loses
    mass; averaging the nearest cells restores the discrete mass to the
    level of the low-frequency symbol contract.
    """
    h = grid.h
    near = np.nonzero((np.abs(signed) <= 4.0 * h) & (np.abs(signed) > 0))[0]
    if spec.kind == "bessel":
        def f(x):
            return _bessel_values(spec.dim, spec.order,
                                  np.asarray([abs(x)]))[0]
    else:
        def f(x):
            return riesz_constant(spec.dim, spec.order) * abs(x) ** (
                spec.order - spec.dim)
    for i in near:
        x = signed[i]
        lo, hi = abs(x) - h / 2.0, abs(x) + h / 2.0
        total, _ = quad(f, lo, hi, epsabs=0.0, epsrel=1e-10, limit=100)
        vals[i] = total / h


def _refine_near_singularity_2d(spec: KernelSpec, grid: Grid,
                                vals: np.ndarray) -> None:
    """2-D analogue: tensor Gauss-Legendre cell averages near the origin.

    Every refined cell excludes the singularity itself, so the integrand
    is smooth there and a fixed-order rule converges geometrically.
    """
    h, n = grid.h, grid.n
    nodes, weights = np.polynomial.legendre.leggauss(12)
    nodes = nodes / 2.0  # cell-normalized coordinates in (-1/2, 1/2)
    w2 = np.outer(weights, weights) / 4.0
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    if spec.kind == "bessel":
        def f(r):
            return _bessel_values(2, spec.order, r)
    else:
        def f(r):
            return riesz_constant(2, spec.order) * r ** (spec.order - 2)
    for i in range(-8, 9):
        for j in range(-8, 9):
            if i == 0 and j == 0:
                continue
            if i * i + j * j > 64:
                continue
            rr = np.hypot((i + u) * h, (j + v) * h)
            vals[(i % n) * n + (j % n)] = float(np.sum(f(rr) * w2))


def sampled_kernel(spec: KernelSpec, grid: Grid, normalize: bool = True) -> GridFunction:
    """Kernel sampled on the torus for grid convolution.

    Integrable kernels (Poisson, Bessel) are periodized: image sums make
    the sampled kernel the torus version of the kernel rather than its
    nearest-image truncation, and unit discrete mass is enforced when
    normalize is set so constants convolve exactly.  The Riesz kernel is
    not integrable at infinity, so it keeps nearest-image values (it is
    only applied to mean-compensated data).  The origin sample of a
    singular kernel is the cell average over the central cell.
    """
    if spec.dim != grid.dim:
        raise ParameterError(f"kernel dim {spec.dim} != grid dim {grid.dim}")
    # signed sample coordinates, wrapped as whole index offsets so that
    # each is exactly h times an integer
    signed = grid.h * wrapped_delta(np.arange(grid.n), 0, grid.n)
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
    r = torus_distance(np.stack(axes, axis=-1), 0.0, grid.extent).reshape(-1)
    if spec.kind == "poisson":
        if grid.dim == 1:
            # exact periodization: sum of images has the closed form
            # (1/L) (1 - rho^2) / (1 - 2 rho cos(2 pi x / L) + rho^2)
            rho = math.exp(-2.0 * math.pi * spec.scale / grid.extent)
            theta = 2.0 * math.pi * grid.axis_coords() / grid.extent
            vals = (1.0 - rho * rho) / (
                (1.0 - 2.0 * rho * np.cos(theta) + rho * rho) * grid.extent)
        else:
            x0, x1 = np.meshgrid(signed, signed, indexing="ij")
            vals = np.zeros(grid.shape)
            for q0 in range(-2, 3):
                for q1 in range(-2, 3):
                    rr = np.hypot(x0 + q0 * grid.extent, x1 + q1 * grid.extent)
                    vals += _poisson_values(2, spec.scale, rr)
        vals = vals.reshape(-1)
    elif spec.kind == "bessel":
        vals = np.empty_like(r)
        pos = r > 0
        vals[pos] = _bessel_values(spec.dim, spec.order, r[pos])
        vals[~pos] = _cell_average_at_origin(spec, grid.h)
        if spec.order <= spec.dim:
            if grid.dim == 1:
                _refine_near_singularity(spec, grid, signed, vals)
            else:
                _refine_near_singularity_2d(spec, grid, vals)
        images = max(1, int(math.ceil(40.0 / grid.extent)))
        if grid.dim == 1:
            for q in range(1, images + 1):
                vals += _bessel_values(spec.dim, spec.order,
                                       np.abs(signed + q * grid.extent))
                vals += _bessel_values(spec.dim, spec.order,
                                       np.abs(signed - q * grid.extent))
        else:
            x0, x1 = np.meshgrid(signed, signed, indexing="ij")
            for q0 in range(-images, images + 1):
                for q1 in range(-images, images + 1):
                    if q0 == 0 and q1 == 0:
                        continue
                    # skip rings whose nearest point already underflows
                    ring = grid.extent * math.hypot(max(abs(q0) - 0.5, 0.0),
                                                    max(abs(q1) - 0.5, 0.0))
                    if ring > 30.0:
                        continue
                    rr = np.hypot(x0 + q0 * grid.extent, x1 + q1 * grid.extent)
                    vals += _bessel_values(spec.dim, spec.order, rr).reshape(-1)
    else:
        vals = np.empty_like(r)
        pos = r > 0
        vals[pos] = riesz_constant(spec.dim, spec.order) * r[pos] ** (
            spec.order - spec.dim)
        vals[~pos] = _cell_average_at_origin(spec, grid.h)
        if grid.dim == 1:
            _refine_near_singularity(spec, grid, signed, vals)
        else:
            _refine_near_singularity_2d(spec, grid, vals)
    if normalize and spec.kind in ("poisson", "bessel"):
        mass = float(np.sum(vals)) * grid.h ** grid.dim
        vals = vals / mass
    return GridFunction(grid, vals)


def bessel_l1_norm(n: int, alpha: float) -> float:
    """||G_alpha||_L1 by radial quadrature of the normalized kernel."""
    omega = 2.0 if n == 1 else 2.0 * math.pi

    def radial_log(v: float) -> float:
        r = math.exp(v)
        return bessel_kernel(n, alpha, (r, 0.0) if n == 2 else r,
                             route="series") * r ** n

    v_lo = min(-40.0, -30.0 / alpha)
    total, _ = quad(radial_log, v_lo, 8.0, epsabs=0.0, epsrel=1e-9, limit=400)
    return omega * total
