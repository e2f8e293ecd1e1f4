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
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ParameterError
from .grid import Grid, GridFunction, ball_mean_all_centers
from .potentials import _apply_multiplier, _half_spectrum


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
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size != len(hts) * self.grid.size:
            raise ParameterError("values shape does not match grid")
        vals = vals.reshape(len(hts), self.grid.size)
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


def dyadic_heights(t0: float, grid: Grid) -> tuple:
    """Ladder t_k = t0 * 2^-k, k = 0 .. grid.levels + 2, which reaches
    about h/4 of the grid."""
    return tuple(t0 * 2.0 ** (-k) for k in range(grid.levels + 3))


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
