"""Upper-half-space fields over the periodic grid.

Two builders: the exact Poisson extension (spectral multiplier per
height, also available slice by slice as poisson_slices for sweeps that
need not hold the field) and the dyadic-annuli surrogate, a model field
assembled from weighted ball averages.  Surrogate outputs are model fields, not PDE
solutions; they majorize the solutions the annuli decomposition bounds.

Fields are immutable: values are read-only, and the constructor copies
the caller's array.
"""

import math
import struct
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ParameterError
from .grid import (Grid, GridFunction, ball_mean_all_centers, make_grid,
                   open_path, read_exact)
from .potentials import _apply_multiplier, _half_spectrum

_MAGIC = b"FLHF"
_VERSION = 1


@dataclass(frozen=True)
class HalfSpaceField:
    """Values u(t_k, x_i) on strictly decreasing heights over a grid."""

    grid: Grid
    heights: tuple
    values: np.ndarray  # shape (K+1, grid.size), read-only
    meta: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    @classmethod
    def _adopt(cls, grid: Grid, heights, values: np.ndarray,
               meta=MappingProxyType({})) -> "HalfSpaceField":
        """Field over values the package just built and writes no more, uncopied."""
        u = object.__new__(cls)
        vars(u).update(grid=grid, heights=heights, values=values, meta=meta)
        u.__post_init__(copy=False)
        return u

    def __post_init__(self, copy: bool = True):
        hts = checked_heights(self.heights)
        vals = np.asarray(self.values, dtype=np.float64).reshape(len(hts), -1)
        if vals.shape[1] != self.grid.size:
            raise ParameterError("values shape does not match grid")
        check_finite(vals)
        if copy:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "heights", hts)
        object.__setattr__(self, "values", vals)


def checked_heights(heights) -> tuple:
    """heights as a tuple of floats, which must be strictly decreasing,
    positive and finite."""
    hts = tuple(float(t) for t in heights)
    if len(hts) < 1 or any(b >= a for a, b in zip(hts, hts[1:])):
        raise ParameterError("heights must be strictly decreasing")
    if not all(0.0 < t < math.inf for t in hts):
        raise ParameterError("heights must be positive and finite")
    return hts


def check_finite(values: np.ndarray) -> np.ndarray:
    """values, unchanged, once every one of them is finite."""
    if not np.all(np.isfinite(values)):
        raise ParameterError("field values must be finite")
    return values


def dyadic_heights(t0: float = 1.0, count: int | None = None,
                   grid: Grid | None = None) -> tuple:
    """Ladder t_k = t0 * 2^-k; by default reaches about h/4 of the grid.

    A ladder whose last rung is not > 0 is rejected before any rung is
    built: with checked_heights' message when t0 is not positive and
    finite, as an underflow otherwise."""
    if count is None:
        if grid is None:
            raise ParameterError("need either count or grid")
        count = grid.levels + 2
    if count < 0:
        raise ParameterError(f"height count must be >= 0, got {count}")
    # ldexp(1, -k) == 2.0 ** -k, and does not overflow at a huge count
    if not t0 * math.ldexp(1.0, -count) > 0.0:
        # a t0 that is not positive and finite fails checked_heights on
        # the first two rungs as it would on the whole ladder
        checked_heights((t0, t0 / 2.0)[:count + 1])
        raise ParameterError(
            f"heights must be positive, but {t0} * 2^-{count} rounds to 0")
    return tuple(t0 * 2.0 ** (-k) for k in range(count + 1))


def slice_buffers(grid: Grid) -> tuple:
    """(prod, work): an empty complex array of the grid's rfftn half
    spectrum, for poisson_slices to form its products in, and a flat float
    view of its first grid.size entries, which is free scratch from the
    moment a slice is yielded until the next is asked for."""
    prod = np.empty(grid.shape[:-1] + (grid.n // 2 + 1,), dtype=np.complex128)
    return prod, prod.reshape(-1).view(np.float64)[:grid.size]


def poisson_slices(f: GridFunction, heights, prod: np.ndarray | None = None):
    """Iterate over the flat slice irfftn(rfftn(f) * exp(-2 pi t |xi|)) at
    each height t in turn, all from one transform of f, taken at the call.

    Every slice is a fresh array that the caller owns and may overwrite.
    The iterator refers to the spectrum, not to f, and drops each slice
    once yielded: unless the caller keeps them, one slice is alive at a
    time, so a sweep over the slices never holds the whole field.  The
    products are formed in prod if given (see slice_buffers)."""
    mag = np.sqrt(_half_spectrum(f.grid)[1])
    mult = np.empty_like(mag)

    def mults():
        for t in heights:
            np.multiply(mag, -2.0 * math.pi * float(t), out=mult)
            yield np.exp(mult, out=mult)

    return _apply_multiplier(f, mults(), prod)


def poisson_extend(f: GridFunction, heights) -> HalfSpaceField:
    """Apply the Poisson multiplier exp(-2 pi t |xi|) at every height."""
    hts = checked_heights(heights)
    vals = np.empty((len(hts), f.grid.size))
    for k, u in enumerate(poisson_slices(f, hts)):
        vals[k] = u
    return HalfSpaceField._adopt(f.grid, hts, vals)


def annuli_surrogate(f: GridFunction, heights, alpha_L: float, r: float,
                     J: int) -> HalfSpaceField:
    """Dyadic-annuli model field.

    w(t, x) = sum_{j=0..J} 2^(-alpha_L j) * A_r(x, min(2^(j+1) t, extent/4)),

    where A_r(x, rho) = (avg |f(y)|^r)^(1/r) over the grid points y at
    torus distance below rho from x (grid.ball_mean_all_centers).

    The dropped tail is bounded by 2^(-alpha_L J) / (1 - 2^(-alpha_L))
    times max |f|, reported in meta["tail_bound"].  Intended for f >= 0;
    split signed data into positive and negative parts first.

    On a dyadic ladder the (K+1)(J+1) radii repeat along j - k and stop
    at the cap, so they take only about K distinct values (10 for the 273
    pairs of the default ladder at level 10, J = 20).  Each distinct
    radius gets one ball mean, added into every (k, j) term that uses it.  The radius is nondecreasing in
    j, so walking the radii in ascending order adds each height's terms
    in ascending j, as a per-height loop over j would.
    """
    if not (0.0 < alpha_L <= 1.0):
        raise ParameterError(f"alpha_L must lie in (0, 1], got {alpha_L}")
    if r < 1.0:
        raise ParameterError(f"r must be >= 1, got {r}")
    if J < 1:
        raise ParameterError(f"J must be >= 1, got {J}")
    g = f.grid
    hts = checked_heights(heights)
    cap = g.extent / 4.0
    weights = 2.0 ** (-alpha_L * np.arange(J + 1))
    users = {}  # radius -> [(k, j), ...] in ascending (k, j)
    for k, t in enumerate(hts):
        for j in range(J + 1):
            users.setdefault(min(2.0 ** (j + 1) * t, cap), []).append((k, j))
    vals = np.zeros((len(hts), g.size))
    for rad in sorted(users):
        mean = ball_mean_all_centers(f, rad, r)
        for k, j in users[rad]:
            vals[k] += weights[j] * mean
    tail = 2.0 ** (-alpha_L * J) / (1.0 - 2.0 ** (-alpha_L)) * float(
        np.max(np.abs(f.samples)))
    return HalfSpaceField._adopt(g, hts, vals,
                                 MappingProxyType({"tail_bound": tail}))


def save_half_space_field(path, u: HalfSpaceField) -> None:
    """Binary format: FLHF, version, grid header, K, heights, row-major slices."""
    g = u.grid
    with open_path(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIdI", _VERSION, g.dim, g.levels, g.extent,
                             len(u.heights) - 1))
        np.asarray(u.heights, dtype="<f8").tofile(fh)
        np.asarray(u.values, dtype="<f8").tofile(fh)


def load_half_space_field(path) -> HalfSpaceField:
    with open_path(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ParameterError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        version, dim, levels, extent, kk = struct.unpack(
            "<IIIdI", read_exact(fh, 24, "FLHF header"))
        if version != _VERSION:
            raise ParameterError(f"unsupported version {version}")
        grid = make_grid(dim, levels, extent)
        heights = np.frombuffer(read_exact(fh, 8 * (kk + 1), "FLHF heights"),
                                dtype="<f8")
        vals = np.frombuffer(
            read_exact(fh, 8 * (kk + 1) * grid.size, "FLHF values"),
            dtype="<f8")
        # vals is a read-only view of immutable bytes: nothing can write it
        return HalfSpaceField._adopt(grid, tuple(heights),
                                     vals.reshape(kk + 1, grid.size))
