"""Smoothing operators, spectral transforms, polynomial projections and
fractional seminorms on the periodic grid.

The smoothing operator J_alpha = (I - Laplace)^(-alpha/2) acts through
the Bessel multiplier; its spectral inverse realizes derivative
decompositions of smoothed functions without leaving the grid.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _kernels
from .errors import NumericError, ParameterError
from .grid import (Grid, GridFunction, _ball_indices, ball_mean_signed,
                   lp_norm)


def _half_spectrum(grid: Grid) -> tuple:
    """(per-axis frequencies, |xi|^2) on the rfftn half spectrum, broadcastable.

    The last axis keeps fftfreq(n)[:n//2+1], Nyquist sign included."""
    xi = np.fft.fftfreq(grid.n, d=grid.h)
    half = xi[: grid.n // 2 + 1]
    xis = (half,) if grid.dim == 1 else (xi[:, None], half[None, :])
    return xis, sum(x * x for x in xis)


def _nyquist_mask(xi: np.ndarray, n: int) -> np.ndarray:
    """False on the Nyquist plane of xi's axis, True everywhere else."""
    return xi != xi.flat[n // 2]


def _apply_multiplier(f: GridFunction, mults):
    """Transform f once; yield irfftn(rfftn(f) * m) for each multiplier m,
    a Hermitian multiplier given on the half spectrum."""
    axes = tuple(range(f.grid.dim))
    spec = np.fft.rfftn(f.as_array(), axes=axes)
    for m in mults:
        yield np.fft.irfftn(spec * m, s=f.grid.shape, axes=axes)


def bessel_smooth(g: GridFunction, alpha: float) -> GridFunction:
    """Multiply Fourier coefficients by (1 + 4 pi^2 |xi|^2)^(-alpha/2)."""
    if alpha < 0:
        raise ParameterError("alpha must be >= 0; use inverse_bessel to sharpen")
    if alpha == 0:
        return g
    mult = (1.0 + 4.0 * math.pi ** 2 * _half_spectrum(g.grid)[1]) ** (-alpha / 2.0)
    return GridFunction(g.grid, next(_apply_multiplier(g, [mult])))


def inverse_bessel(f: GridFunction, alpha: float) -> GridFunction:
    """Spectral inverse of bessel_smooth on band-limited data."""
    if alpha < 0:
        raise ParameterError("alpha must be >= 0")
    if alpha == 0:
        return f
    mult = (1.0 + 4.0 * math.pi ** 2 * _half_spectrum(f.grid)[1]) ** (alpha / 2.0)
    return GridFunction(f.grid, next(_apply_multiplier(f, [mult])))


def riesz_transform(f: GridFunction, j: int) -> GridFunction:
    """Multiplier -i xi_j / |xi| with the DC mode set to zero."""
    g = f.grid
    if not (1 <= j <= g.dim):
        raise ParameterError(f"axis index must lie in [1, {g.dim}], got {j}")
    xis, abs2 = _half_spectrum(g)
    comp = xis[j - 1]
    mag = np.sqrt(abs2)
    with np.errstate(invalid="ignore", divide="ignore"):
        mult = np.where(mag > 0, -1j * comp / np.where(mag > 0, mag, 1.0), 0.0)
    mult = mult * _nyquist_mask(comp, g.n)
    return GridFunction(g, next(_apply_multiplier(f, [mult])))


def spectral_derivative(f: GridFunction, gamma) -> GridFunction:
    """Multiply by (2 pi i xi)^gamma; exact on trigonometric polynomials."""
    g = f.grid
    gamma = tuple(int(v) for v in np.atleast_1d(gamma))
    if len(gamma) != g.dim:
        raise ParameterError(f"multi-index length {len(gamma)} != dim {g.dim}")
    if any(v < 0 for v in gamma) or sum(gamma) > 3:
        raise ParameterError(f"multi-index {gamma} must be nonnegative with |gamma| <= 3")
    if sum(gamma) == 0:
        return f
    xis, _ = _half_spectrum(g)
    mult = 1.0
    for xi, power in zip(xis, gamma):
        mult = mult * (2j * math.pi * xi) ** power
        if power % 2 == 1:
            mult = mult * _nyquist_mask(xi, g.n)
    return GridFunction(g, next(_apply_multiplier(f, [mult])))


def multi_indices(dim: int, degree: int) -> list:
    """Multi-indices with |gamma| <= degree in lexicographic order."""
    return sorted(g for g in product(range(degree + 1), repeat=dim)
                  if sum(g) <= degree)


@dataclass(frozen=True)
class Polynomial:
    """Element of P_k in the frame centered at a torus point.

    coefficients[i] multiplies y^gamma_i where y is the wrapped
    displacement from center and gamma_i runs over multi_indices(dim, degree).
    """

    dim: int
    degree: int
    coefficients: np.ndarray
    center: np.ndarray
    extent: float

    def __post_init__(self):
        expect = len(multi_indices(self.dim, self.degree))
        if len(self.coefficients) != expect:
            raise ParameterError(
                f"need {expect} coefficients for dim={self.dim}, k={self.degree}")

    def eval_offsets(self, dy: np.ndarray) -> np.ndarray:
        """Evaluate at displacements dy from the center, shape (m, dim)."""
        dy = np.atleast_2d(np.asarray(dy, dtype=np.float64))
        out = np.zeros(dy.shape[0])
        for coef, gam in zip(self.coefficients, multi_indices(self.dim, self.degree)):
            term = np.full(dy.shape[0], coef)
            for ax, power in enumerate(gam):
                if power:
                    term = term * dy[:, ax] ** power
            out += term
        return out

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        dy = x - self.center[None, :]
        dy = (dy + self.extent / 2.0) % self.extent - self.extent / 2.0
        return self.eval_offsets(dy)


def _window_offsets(f: GridFunction, center, radius: float) -> tuple:
    """(flat indices, signed displacement rows) of ball points around center."""
    g = f.grid
    idx = _ball_indices(g, center, radius)
    n = g.n
    if g.dim == 1:
        xs = (idx * g.h)
        c = float(np.ravel(center)[0])
        dy = (xs - c + g.extent / 2.0) % g.extent - g.extent / 2.0
        return idx, dy.reshape(-1, 1)
    i0, i1 = idx // n, idx % n
    c = np.asarray(center, dtype=np.float64).reshape(2)
    d0 = (i0 * g.h - c[0] + g.extent / 2.0) % g.extent - g.extent / 2.0
    d1 = (i1 * g.h - c[1] + g.extent / 2.0) % g.extent - g.extent / 2.0
    return idx, np.stack([d0, d1], axis=1)


def poly_project(f: GridFunction, center, radius: float, k: int) -> Polynomial:
    """L2(Delta)-orthogonal projection of f onto P_k over the ball window."""
    g = f.grid
    if not (0 <= k <= 3):
        raise ParameterError(f"degree k must lie in [0, 3], got {k}")
    if radius < 4.0 * g.h * (1.0 - 1e-12):
        raise ParameterError(f"radius {radius} below 4h = {4 * g.h}")
    idx, dy = _window_offsets(f, center, radius)
    mi = multi_indices(g.dim, k)
    basis = np.empty((idx.size, len(mi)))
    u = dy / radius
    for col, gam in enumerate(mi):
        term = np.ones(idx.size)
        for ax, power in enumerate(gam):
            if power:
                term = term * u[:, ax] ** power
        basis[:, col] = term
    gram = basis.T @ basis / idx.size
    cond = np.linalg.cond(gram)
    if cond > 1e8:
        raise NumericError(f"ill-conditioned projection window (cond={cond:.3g})")
    rhs = basis.T @ f.samples[idx] / idx.size
    scaled = np.linalg.solve(gram, rhs)
    coeffs = np.array([a / radius ** sum(gam) for a, gam in zip(scaled, mi)])
    carr = np.atleast_1d(np.asarray(center, dtype=np.float64)).reshape(g.dim)
    return Polynomial(g.dim, k, coeffs, carr, g.extent)


def _ball_measure(dim: int, radius: float) -> float:
    return 2.0 * radius if dim == 1 else math.pi * radius * radius


def dyadic_scales(grid: Grid, lo_factor: float = 4.0, hi_fraction: float = 0.25) -> list:
    """Dyadic radii r = extent/2^m inside [lo_factor*h, hi_fraction*extent]."""
    out = []
    r = grid.extent * hi_fraction
    while r >= lo_factor * grid.h * (1.0 - 1e-12):
        out.append(r)
        r /= 2.0
    return out[::-1]


def sharp_maximal(f: GridFunction, alpha: float, scales) -> GridFunction:
    """Fractional sharp maximal function over dyadic scales and strided centers.

    For each grid point the maximum over balls Delta(c, r) containing it,
    r in scales and c on the stride-r/2 lattice, of
    |Delta|^(-alpha/n) avg_Delta |f - P^k_Delta f| with k = floor(alpha).
    A lower bound for the continuum supremum, monotone under refinement.
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    scales = sorted(float(r) for r in np.atleast_1d(scales))
    if not scales:
        raise ParameterError("empty scale list")
    g = f.grid
    k = min(int(math.floor(alpha)), 3)
    out = np.zeros(g.size)
    n = g.n
    F = f.as_array()
    for r in scales:
        stride = max(1, int(round(r / (2.0 * g.h))))
        if g.dim == 1:
            centers = np.arange(0, n, stride)
            offs = np.arange(-_halfwidth(r, g.h), _halfwidth(r, g.h) + 1)
            u = (offs[:, None] * g.h / r)
        else:
            c0 = np.arange(0, n, stride)
            centers = (c0[:, None] * n + c0[None, :]).reshape(-1)
            hw = _halfwidth(r, g.h)
            o = np.arange(-hw, hw + 1)
            o0, o1 = np.meshgrid(o, o, indexing="ij")
            keep = (o0 * o0 + o1 * o1) * g.h * g.h < r * r * (1.0 - 1e-12)
            offs = np.stack([o0[keep], o1[keep]], axis=1)
            u = offs * g.h / r
        mi = multi_indices(g.dim, k)
        n_off = u.shape[0]
        w = np.empty((len(mi), n_off))
        for col, gam in enumerate(mi):
            term = np.ones(n_off)
            for ax, power in enumerate(gam):
                if power:
                    term = term * u[:, ax] ** power
            w[col] = term
        gram = (w @ w.T) / n_off
        gram_inv = np.linalg.inv(gram)
        # pass 1: moments of f against the scaled monomials at each center
        moments = np.zeros((len(mi), centers.size))
        gathered = []
        for a in range(n_off):
            if g.dim == 1:
                vals = f.samples[(centers + offs[a]) % n]
            else:
                d0, d1 = offs[a]
                vals = F[((centers // n) + d0) % n, ((centers % n) + d1) % n]
            gathered.append(vals)
            moments += w[:, a][:, None] * vals[None, :]
        moments /= n_off
        coeff = gram_inv @ moments
        # pass 2: mean absolute residual against the fitted polynomial
        resid = np.zeros(centers.size)
        for a in range(n_off):
            pred = (coeff * w[:, a][:, None]).sum(axis=0)
            resid += np.abs(gathered[a] - pred)
        resid /= n_off
        e = _ball_measure(g.dim, r) ** (-alpha / g.dim) * resid
        # scatter: every point of Delta(c, r) sees the ball's value
        for a in range(n_off):
            if g.dim == 1:
                tgt = (centers + offs[a]) % n
            else:
                d0, d1 = offs[a]
                tgt = (((centers // n) + d0) % n) * n + ((centers % n) + d1) % n
            np.maximum.at(out, tgt, e)
    return GridFunction(g, out)


def _halfwidth(radius: float, h: float) -> int:
    return max(0, int(math.ceil(radius / h * (1.0 - 1e-12))) - 1)


def slobodeckij_seminorm(f: GridFunction, sigma: float, p: float,
                         domain=None) -> float:
    """Discrete double sum [f]_{sigma,p}: pairs weighted by |x-y|^-(n+sigma p).

    domain is an optional flat-index set restricting both sum variables;
    diagonal pairs are excluded.
    """
    if not (0 < sigma < 1):
        raise ParameterError(f"sigma must lie in (0,1), got {sigma}")
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    g = f.grid
    mask = None
    if domain is not None:
        idx = np.asarray(list(domain), dtype=np.intp)
        if idx.size == 0:
            raise ParameterError("empty domain")
        mask = np.zeros(g.size)
        mask[idx] = 1.0
    if g.dim == 1:
        total = _kernels.slobodeckij_1d(f.samples, g.h, g.extent, sigma, p, mask)
    else:
        m2 = mask.reshape(g.shape) if mask is not None else None
        total = _kernels.slobodeckij_2d(f.as_array(), g.h, g.extent, sigma, p, m2)
    return float(total ** (1.0 / p))


@dataclass(frozen=True)
class BesselFunction:
    """f = J_alpha(g) together with its density g and intended exponent p."""

    alpha: float
    g: GridFunction
    f: GridFunction
    p: float


def bessel_function(g: GridFunction, alpha: float, p: float = 2.0) -> BesselFunction:
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    f = bessel_smooth(g, alpha)
    if lp_norm(f, p) > lp_norm(g, p) * (1.0 + 1e-8):
        raise NumericError("contraction violated; smoothing is inconsistent")
    return BesselFunction(alpha=alpha, g=g, f=f, p=p)


def representative_value(bf: BesselFunction, x, radii, tol: float = 1e-3):
    """Limit of ball averages of f at x along shrinking radii.

    Returns the Richardson-extrapolated value when the trailing averages
    are Cauchy (gaps below tol*(1+|a|) across the final 3 radii), or None
    when they are not, which marks the point as divergent.
    """
    g = bf.f.grid
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ParameterError("need at least 3 radii")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ParameterError("radii must be strictly decreasing")
    if radii[-1] < 4.0 * g.h * (1.0 - 1e-12):
        raise ParameterError(f"min radius {radii[-1]} below 4h = {4 * g.h}")
    avgs = [ball_mean_signed(bf.f, x, r) for r in radii]
    for a, b in zip(avgs[-3:], avgs[-2:]):
        if abs(b - a) >= tol * (1.0 + abs(a)):
            return None
    r_prev, r_last = radii[-2], radii[-1]
    a_prev, a_last = avgs[-2], avgs[-1]
    denom = r_prev ** 2 - r_last ** 2
    if denom <= 0:
        return float(a_last)
    return float(a_last - r_last ** 2 * (a_prev - a_last) / denom)
