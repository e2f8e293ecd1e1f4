"""Upper-half-space fields over the periodic grid.

Two builders: the exact Poisson extension (spectral multiplier per
height) and the dyadic-annuli surrogate, a model field assembled from
weighted ball averages.  Surrogate outputs are model fields, not PDE
solutions; they majorize the solutions the annuli decomposition bounds.

Fields are immutable: values are read-only, and the constructor copies
the caller's array.  Each slice is computed independently of the
others, with no shared mutable state.
"""

import math
import struct
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ParameterError
from .grid import (Grid, GridFunction, ball_mean_all_centers, make_grid,
                   read_exact)
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
        hts = tuple(float(t) for t in self.heights)
        if len(hts) < 1 or any(b >= a for a, b in zip(hts, hts[1:])):
            raise ParameterError("heights must be strictly decreasing")
        if not all(0.0 < t < math.inf for t in hts):
            raise ParameterError("heights must be positive and finite")
        vals = np.asarray(self.values, dtype=np.float64).reshape(len(hts), -1)
        if vals.shape[1] != self.grid.size:
            raise ParameterError("values shape does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("field values must be finite")
        if copy:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "heights", hts)
        object.__setattr__(self, "values", vals)

    def slice_function(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self.values[k])


def dyadic_heights(t0: float = 1.0, count: int | None = None,
                   grid: Grid | None = None) -> tuple:
    """Ladder t_k = t0 * 2^-k; by default reaches about h/4 of the grid."""
    if count is None:
        if grid is None:
            raise ParameterError("need either count or grid")
        count = grid.levels + 2
    return tuple(t0 * 2.0 ** (-k) for k in range(count + 1))


def poisson_extend(f: GridFunction, heights) -> HalfSpaceField:
    """Apply the Poisson multiplier exp(-2 pi t |xi|) at every height."""
    g = f.grid
    hts = tuple(float(t) for t in heights)
    mag = np.sqrt(_half_spectrum(g)[1])
    vals = np.empty((len(hts), g.size))
    mults = (np.exp(-2.0 * math.pi * t * mag) for t in hts)
    for k, u in enumerate(_apply_multiplier(f, mults)):
        vals[k] = u.reshape(-1)
    return HalfSpaceField._adopt(g, hts, vals)


def annuli_surrogate(f: GridFunction, heights, alpha_L: float, r: float,
                     J: int) -> HalfSpaceField:
    """Dyadic-annuli model field.

    w(t, x) = sum_{j=0..J} 2^(-alpha_L j) *
              ball_average(f, x, min(2^(j+1) t, extent/4), r)

    The dropped tail is bounded by 2^(-alpha_L J) / (1 - 2^(-alpha_L))
    times max |f|, reported in meta["tail_bound"].  Intended for f >= 0;
    split signed data into positive and negative parts first.
    """
    if not (0.0 < alpha_L <= 1.0):
        raise ParameterError(f"alpha_L must lie in (0, 1], got {alpha_L}")
    if r < 1.0:
        raise ParameterError(f"r must be >= 1, got {r}")
    if J < 1:
        raise ParameterError(f"J must be >= 1, got {J}")
    g = f.grid
    hts = tuple(float(t) for t in heights)
    cap = g.extent / 4.0
    weights = 2.0 ** (-alpha_L * np.arange(J + 1))
    vals = np.zeros((len(hts), g.size))
    for k, t in enumerate(hts):
        acc = np.zeros(g.size)
        for j in range(J + 1):
            rad = min(2.0 ** (j + 1) * t, cap)
            acc += weights[j] * ball_mean_all_centers(f, rad, r)
        vals[k] = acc
    tail = 2.0 ** (-alpha_L * J) / (1.0 - 2.0 ** (-alpha_L)) * float(
        np.max(np.abs(f.samples)))
    return HalfSpaceField._adopt(g, hts, vals,
                                 MappingProxyType({"tail_bound": tail}))


def save_half_space_field(path, u: HalfSpaceField) -> None:
    """Binary format: FLHF, version, grid header, K, heights, row-major slices."""
    g = u.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIdI", _VERSION, g.dim, g.levels, g.extent,
                             len(u.heights) - 1))
        fh.write(np.asarray(u.heights, dtype="<f8").tobytes())
        fh.write(u.values.astype("<f8").tobytes())


def load_half_space_field(path) -> HalfSpaceField:
    with open(path, "rb") as fh:
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
