"""Periodic sampled-function substrate.

Functions live on the torus [0, extent)^dim sampled on a uniform grid of
N = 2^levels points per axis.  Everything downstream (smoothing and
maximal operators, boundary geometry) is built on the primitives here:
the torus metric (per-axis wrapped distances) in any dimension, norms,
ball means, and scaled circular convolution, plus open_path, which
turns a file that cannot be opened, read or written into a
ParameterError.

Grids and grid functions are immutable once built and every operation is
a pure function.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import GridMismatchError, ParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, extent)^dim with 2^levels points per axis."""

    dim: int
    levels: int
    extent: float

    @property
    def n(self) -> int:
        return 1 << self.levels

    @property
    def h(self) -> float:
        return self.extent / self.n

    @property
    def size(self) -> int:
        return self.n ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def axis_coords(self) -> np.ndarray:
        return self.h * np.arange(self.n)


def _freeze(obj, grid: Grid, arr: np.ndarray) -> None:
    """Set obj's grid and samples to arr, once its samples are finite."""
    if not np.all(np.isfinite(arr)):
        raise ParameterError("samples must be finite")
    arr.flags.writeable = False
    object.__setattr__(obj, "grid", grid)
    object.__setattr__(obj, "samples", arr)


class GridFunction:
    """Immutable real samples on a Grid, stored flat (row-major for dim=2)."""

    __slots__ = ("grid", "samples")

    def __init__(self, grid: Grid, samples):
        arr = np.asarray(samples, dtype=np.float64).reshape(-1).copy()
        if arr.size != grid.size:
            raise ParameterError(
                f"expected {grid.size} samples for {grid}, got {arr.size}")
        _freeze(self, grid, arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    def as_array(self) -> np.ndarray:
        """Samples reshaped to (N,)*dim; a read-only view."""
        return self.samples.reshape(self.grid.shape)


class GridStack:
    """Immutable real samples of several functions on one Grid: samples is
    a read-only (rows, grid.size) array, row r holding the flat samples of
    function r as a GridFunction would.

    The spectral and window operators that take a GridFunction also take a
    stack and act on every row at once, each row's floats equal to those
    of the operator on that row alone; a GridFunction is the one-row case."""

    __slots__ = ("grid", "samples")

    def __init__(self, grid: Grid, rows):
        arr = np.array(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != grid.size:
            raise ParameterError(
                f"expected rows of {grid.size} samples for {grid}, got "
                f"shape {arr.shape}")
        _freeze(self, grid, arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridStack is immutable")


# finest refinement level per dimension; both caps mean 2^24 samples
MAX_LEVELS = {1: 24, 2: 12}


def make_grid(dim: int, levels: int, extent: float) -> Grid:
    """Build a grid; index i maps to coordinate x_i = i*h per axis."""
    if dim not in (1, 2):
        raise ParameterError(f"dim must be 1 or 2, got {dim}")
    max_levels = MAX_LEVELS[dim]
    if not (2 <= levels <= max_levels):
        raise ParameterError(
            f"levels must lie in [2, {max_levels}] for dim={dim}, got {levels}")
    if not (extent > 0 and math.isfinite(extent)):
        raise ParameterError(f"extent must be positive and finite, got {extent}")
    return Grid(dim=dim, levels=levels, extent=float(extent))


def from_callable(grid: Grid, fn) -> GridFunction:
    """Sample fn on the grid: fn(x0, ..., x_{dim-1}) on (N,)*dim coordinate
    arrays, vectorized."""
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
    return GridFunction(grid, fn(*axes))


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete L^p norm (h^dim * sum |f|^p)^(1/p); p = inf gives max |f|."""
    return lp_norms(f, p)[0]


def lp_norms(f, p: float) -> list:
    """lp_norm of every row of a GridStack, as a list of floats; of a
    GridFunction, a list of one.  Each equals lp_norm of that row alone,
    bit for bit: a row's sum over the last axis of the stack is np.sum of
    the row, and each root is taken on its own NumPy scalar."""
    rows = f.samples.reshape(-1, f.grid.size)
    if p == np.inf or p == math.inf:
        return [float(m) for m in np.abs(rows).max(axis=1)]
    if p < 1:
        raise ParameterError(f"p must be >= 1 or inf, got {p}")
    hpow = f.grid.h ** f.grid.dim
    powers = np.abs(rows)
    # in place: **= takes the scalar fast paths (square, sqrt) that ** does,
    # so these are the floats of np.abs(samples) ** p
    powers **= p
    # one root per row, each on its NumPy scalar: an array ** 0.5 would
    # take NumPy's sqrt, which can differ in the last bit from the scalar's
    return [float((hpow * total) ** (1.0 / p))
            for total in np.sum(powers, axis=1)]


def wrapped_abs_delta(a, b, extent: float):
    """Torus distance per axis: min(d, extent - d) with d = |a - b| mod extent."""
    d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    d = np.fmod(d, extent)
    return np.minimum(d, extent - d)


def window_halfwidth(radius: float, h: float) -> int:
    """Largest integer K with K*h strictly below radius (K >= 0)."""
    if radius <= 0:
        return -1
    return max(0, int(math.ceil(radius / h * (1.0 - 1e-12))) - 1)


def disc_rows(grid: Grid, radius: float) -> tuple:
    """Row segments (dy, w) of the grid ball of the given radius.

    In 2-D the ball is the disc of offsets (dy, dx) with |dy|, |dx| <= K =
    window_halfwidth(radius, h) and (dy^2 + dx^2) h h < radius^2 (1 - 1e-12);
    in 1-D it is the single row dy = 0, |dx| <= K.  Row dy is the run
    |dx| <= w, and rows come in ascending dy, so expanding them gives the
    offsets in row-major order.  Offsets are not reduced mod N: on a small
    torus several land on one point.
    """
    h = grid.h
    k = window_halfwidth(radius, h)
    limit = radius * radius * (1.0 - 1e-12)
    # the predicate is monotone in s = dy^2 + dx^2, and rounding moves s*h*h
    # by far less than h*h: step down from a rejected s to the largest kept
    s_max = int(limit / (h * h)) + 2
    while s_max >= 0 and not s_max * h * h < limit:
        s_max -= 1
    rows = [(dy, min(math.isqrt(s_max - dy * dy), k))
            for dy in (range(-k, k + 1) if grid.dim == 2 else [0])
            if dy * dy <= s_max]
    return np.array(rows, dtype=np.int64).reshape(-1, 2).T


def nearest_index(grid: Grid, points):
    """Flat indices of the grid points nearest to torus points, given as
    coordinate rows (..., dim); the result has the shape (...)."""
    idx = np.round(np.asarray(points, dtype=np.float64) / grid.h).astype(np.int64)
    return np.ravel_multi_index(tuple(np.moveaxis(idx % grid.n, -1, 0)), grid.shape)


def ball_mean_all_centers(f: GridFunction, radius: float, q: float) -> np.ndarray:
    """ball_means(f, (radius,), q), the one mean it yields."""
    return next(ball_means(f, (radius,), q))


def ball_means(f: GridFunction, radii, q: float):
    """Per radius in radii, the q-power mean (avg |f|^q)^(1/q) over the
    torus ball of that radius around every grid point x_i, as a flat
    array aligned with f.samples.

    The ball is the set of grid points strictly within radius of x_i
    (disc_rows), each point counted once.  On the torus every
    grid-centered ball holds the same number of points, so this is a
    windowed sum: cumulative sums in dim 1, an FFT disc correlation in
    dim 2, with |f|^q and its spectrum formed once for all radii.
    """
    if not (math.isfinite(q) and q >= 1):
        raise ParameterError(f"power q must be finite and >= 1, got {q}")
    g = f.grid
    power = np.abs(f.samples) ** q
    if g.dim == 2:
        spec = np.fft.rfft2(power.reshape(g.shape))
        del power  # the radii need only its spectrum
    for radius in radii:
        if radius <= 0:
            raise ParameterError(f"radius must be positive, got {radius}")
        if g.dim == 1:
            k = window_halfwidth(radius, g.h)
            sums = _kernels.circ_sum_1d(power, k)
            count = min(2 * k + 1, g.n)
        else:
            # the disc around index 0 on the torus; each point counts once
            mask = np.zeros(g.shape)
            for dy, w in zip(*disc_rows(g, radius)):
                w = min(w, g.n // 2)  # a run of 2(n//2)+1 already covers the row
                mask[dy % g.n, np.arange(-w, w + 1) % g.n] = 1.0
            count = int(mask.sum())
            prod = np.fft.rfft2(mask)
            del mask
            np.multiply(spec, prod, out=prod)
            sums = np.fft.irfft2(prod, s=g.shape).reshape(-1)
            np.maximum(sums, 0.0, out=sums)
        sums /= count
        sums **= 1.0 / q
        yield sums


def fft_convolve(f: GridFunction, k: GridFunction) -> GridFunction:
    """Circular convolution scaled by h^dim, approximating integral convolution."""
    if f.grid != k.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {k.grid}")
    g = f.grid
    out = np.fft.irfftn(np.fft.rfftn(f.as_array()) * np.fft.rfftn(k.as_array()),
                        s=g.shape, axes=tuple(range(g.dim)))
    return GridFunction(g, out * (g.h ** g.dim))


@contextlib.contextmanager
def open_path(path, mode: str = "r", **kwargs):
    """with open(path, mode), but an OSError while opening (missing, a
    directory, no permission), reading, writing or closing (disk full)
    raises ParameterError naming the path."""
    try:
        fh = open(path, mode, **kwargs)
    except OSError as exc:
        raise ParameterError(f"cannot open {path}: {exc.strerror or exc}") from exc
    try:
        with fh:
            yield fh
    except OSError as exc:
        raise ParameterError(
            f"cannot {'read' if mode.startswith('r') else 'write'} {path}: "
            f"{exc.strerror or exc}") from exc
