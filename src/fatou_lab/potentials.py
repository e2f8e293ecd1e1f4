"""Smoothing operators, spectral derivatives, sharp maximal functions and
fractional seminorms on the periodic grid.

The smoothing operator J_alpha = (I - Laplace)^(-alpha/2) acts through
the Bessel multiplier; spectral derivatives are exact on trigonometric
polynomials, so boundary Sobolev norms never leave the grid.
"""

import math
from itertools import product

import numpy as np

from . import _kernels
from .errors import ParameterError
from .grid import Grid, GridFunction, disc_rows, window_halfwidth

# _mean_residuals gathers and fits a 1/_BLOCKS slice of its matrix at a time
_BLOCKS = 8


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


def _apply_multiplier(f, mults, prod: np.ndarray | None = None):
    """Transform f (a GridFunction or a GridStack) now, once; return an
    iterator over irfftn(rfftn(f) * m), in the shape of f.samples, for each
    multiplier m, a Hermitian multiplier given on the half spectrum.  The
    transforms run over the grid's axes, the last of the samples, so every
    row of a stack gets the floats it would get alone.

    The iterator holds the spectrum, not f, and forms every product in one
    reused buffer: prod if given, a complex array of the spectrum's shape,
    which is free between one yield and the next.  Each array it yields is
    fresh, and it keeps no reference to one once yielded."""
    lead = f.samples.shape[:-1]
    axes = tuple(range(-f.grid.dim, 0))
    spec = np.fft.rfftn(f.samples.reshape(lead + f.grid.shape), axes=axes)
    return _multiplied(spec, f.grid.shape, axes, f.samples.shape, mults, prod)


def _multiplied(spec: np.ndarray, shape: tuple, axes: tuple, out_shape: tuple,
                mults, prod):
    if prod is None:
        prod = np.empty_like(spec)
    for m in mults:
        yield np.fft.irfftn(np.multiply(spec, m, out=prod), s=shape,
                            axes=axes).reshape(out_shape)


def bessel_smooth(g, alpha: float):
    """Multiply Fourier coefficients by (1 + 4 pi^2 |xi|^2)^(-alpha/2); of a
    GridStack, row by row."""
    if alpha < 0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return g
    mult = (1.0 + 4.0 * math.pi ** 2 * _half_spectrum(g.grid)[1]) ** (-alpha / 2.0)
    return type(g)(g.grid, next(_apply_multiplier(g, [mult])))


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


def _monomials(u: np.ndarray, mi) -> np.ndarray:
    """(points, len(mi)) matrix of u^gamma, one column per multi-index."""
    basis = np.empty((u.shape[0], len(mi)))
    for col, gam in enumerate(mi):
        term = np.ones(u.shape[0])
        for ax, power in enumerate(gam):
            if power:
                term = term * u[:, ax] ** power
        basis[:, col] = term
    return basis


def _ball_measure(dim: int, radius: float) -> float:
    return 2.0 * radius if dim == 1 else math.pi * radius * radius


def dyadic_scales(grid: Grid, lo_factor: float = 4.0) -> list:
    """Dyadic radii r = extent/2^m inside [lo_factor*h, extent/4]."""
    out = []
    r = grid.extent / 4.0
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

    Per scale, gathers from the wrap-padded samples lay the ball of every
    center out as an (offsets x centers) matrix; the moments against the
    scaled monomials, the fitted polynomials and the mean absolute
    residuals are then matrix products and reductions over it
    (_mean_residuals).
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    scales = sorted(float(r) for r in np.atleast_1d(scales))
    if not scales:
        raise ParameterError("empty scale list")
    g = f.grid
    # the floor and cap of dyadic_scales: a smaller ball may hold too few
    # samples, and the wrap pad grows with the largest
    if not all(4.0 * g.h * (1.0 - 1e-12) <= r <= g.extent / 4.0 * (1.0 + 1e-12)
               for r in scales):
        raise ParameterError(
            f"scales must lie in [4h, extent/4] = [{4.0 * g.h:.6g}, "
            f"{g.extent / 4.0:.6g}], got {scales}")
    from .maximal import window_extreme  # maximal imports this module

    k = min(int(math.floor(alpha)), 3)
    mi = multi_indices(g.dim, k)
    out = np.zeros(g.size)
    # every ball offset of every scale stays inside the pad
    pad = window_halfwidth(scales[-1], g.h)
    padded = np.pad(f.as_array(), pad, mode="wrap")
    pitch = np.array(padded.strides) // padded.itemsize
    for r in scales:
        stride = max(1, int(round(r / (2.0 * g.h))))
        axis = np.arange(0, g.n, stride)
        # flat padded indices of the stride-lattice centers, row-major
        centers = np.ravel_multi_index(np.ix_(*[axis + pad] * g.dim), padded.shape)
        # ball offsets as (dy, dx) rows in row-major order; 1-D keeps dx
        dys, ws = disc_rows(g, r)
        offs = np.stack([np.repeat(dys, 2 * ws + 1),
                         np.concatenate([np.arange(-w, w + 1) for w in ws])],
                        axis=1)[:, 2 - g.dim:]
        # one contiguous row per monomial: w @ w.T rounds as a row-major product
        w = np.ascontiguousarray(_monomials(offs * g.h / r, mi).T)
        resid = _mean_residuals(padded, offs @ pitch, centers.reshape(-1), w)
        e = _ball_measure(g.dim, r) ** (-alpha / g.dim) * resid
        # every point of Delta(c, r) sees the ball's value: the disc is
        # symmetric, so that is a window max of the values placed on centres
        placed = np.full(g.shape, -np.inf)
        placed[np.ix_(*[axis] * g.dim)] = e.reshape(centers.shape)
        np.maximum(out, window_extreme(placed.reshape(-1), g, r), out=out)
    return GridFunction(g, out)


def _mean_residuals(padded: np.ndarray, rel: np.ndarray, centres: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """Per centre c, the mean over offsets d of |v - P v| on the values
    v_d = padded.flat[c + rel[d]], P the least-squares fit by the rows of w.

    One (offsets x centres) array is alive, with temporaries of a slice
    of it: the values are gathered a block of offsets at a time, and the
    fit is subtracted a block of centres at a time.  Centre blocks are at
    least 2 wide; on a dyadic scale the centre count is a power of two,
    so they are all of one power-of-two width.  One-column and odd-width
    blocks were seen to round the fit differently from one product over
    all centres, as BLAS takes other kernels for them."""
    n_off = rel.size
    gram_inv = np.linalg.inv((w @ w.T) / n_off)
    vals = np.empty((n_off, centres.size))
    rows = -(-n_off // _BLOCKS)
    for i in range(0, n_off, rows):
        vals[i:i + rows] = padded.take(np.add.outer(rel[i:i + rows], centres))
    coeff = gram_inv @ (w @ vals / n_off)
    step = max(2, centres.size // _BLOCKS)
    for j in range(0, centres.size, step):
        vals[:, j:j + step] -= w.T @ coeff[:, j:j + step]
    return np.abs(vals, out=vals).sum(axis=0) / n_off


def slobodeckij_seminorm(f: GridFunction, sigma: float, p: float) -> float:
    """Discrete double sum [f]_{sigma,p}: pairs weighted by |x-y|^-(n+sigma p),
    diagonal pairs excluded.  At p = 2 this is one torus convolution of the
    centred data (see _kernels), within ~1e-10 relative of the pair loop on
    very smooth data.
    """
    if not (0 < sigma < 1):
        raise ParameterError(f"sigma must lie in (0,1), got {sigma}")
    if not (math.isfinite(p) and p >= 1):
        raise ParameterError(f"p must be finite and >= 1, got {p}")
    g = f.grid
    total = _kernels.slobodeckij_sum(f.as_array(), g.h, sigma, p)
    return float(total ** (1.0 / p))
