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
from dataclasses import dataclass

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

    @classmethod
    def _adopt(cls, grid: Grid, heights, values: np.ndarray) -> "HalfSpaceField":
        """Field over values the package just built and writes no more, uncopied."""
        u = object.__new__(cls)
        vars(u).update(grid=grid, heights=heights, values=values)
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


def slice_buffers(f) -> tuple:
    """(prod, work): an empty complex array of the rfftn half spectrum of f
    (a GridFunction or a GridStack, one spectrum per row), for
    poisson_slices to form its products in, and a float view of its first
    f.samples.size entries in the shape of f.samples, which is free
    scratch from the moment a slice is yielded until the next is asked
    for."""
    grid = f.grid
    lead = f.samples.shape[:-1]
    prod = np.empty(lead + grid.shape[:-1] + (grid.n // 2 + 1,),
                    dtype=np.complex128)
    work = prod.reshape(-1).view(np.float64)[:f.samples.size]
    return prod, work.reshape(f.samples.shape)


# exp(x) rounds to exactly +0.0 for x below about -745.13 (the log of
# 2^-1075, half the least subnormal).  The arguments skipped past this cut
# lie within a few ulps of -800 or lower, far below that point whatever
# the rounding of |xi|, t and their product, so the +0.0 stored for them
# is the value exp would give.
_EXP_CUT = -800.0


def poisson_multipliers(grid: Grid, heights):
    """Iterate over the Poisson multiplier exp(-2 pi t |xi|) on the rfftn
    half spectrum at each height t in turn, each formed in one reused
    buffer, so a yielded multiplier is valid until the next is asked for.
    |xi| is formed at the call, before a caller transforms its data.

    Along the last axis |xi| ascends, and the first row (zero frequency on
    the other axis) holds each column's least |xi|.  The columns whose
    least argument lies below _EXP_CUT are therefore +0.0 throughout, the
    value exp gives there, and are filled without evaluating it."""
    mag = np.sqrt(_half_spectrum(grid)[1])
    least = mag.reshape(-1, mag.shape[-1])[0]
    mult = np.empty_like(mag)

    def each():
        for t in heights:
            c = -2.0 * math.pi * float(t)
            cut = int(np.searchsorted(least, _EXP_CUT / c))
            head = mult[..., :cut]
            np.multiply(mag[..., :cut], c, out=head)
            np.exp(head, out=head)
            mult[..., cut:] = 0.0
            yield mult

    return each()


def poisson_slices(f, heights, prod: np.ndarray | None = None):
    """Iterate over the slice irfftn(rfftn(f) * exp(-2 pi t |xi|)), in the
    shape of f.samples, at each height t in turn, all from one transform
    of f (a GridFunction or a GridStack, row by row), taken at the call.

    Every slice is a fresh array that the caller owns and may overwrite.
    The iterator refers to the spectrum, not to f, and drops each slice
    once yielded: unless the caller keeps them, one slice is alive at a
    time, so a sweep over the slices never holds the whole field.  The
    products are formed in prod if given (see slice_buffers)."""
    return _apply_multiplier(f, poisson_multipliers(f.grid, heights), prod)


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

    The dropped tail is at most 2^(-alpha_L J) / (1 - 2^(-alpha_L)) times
    max |f|.  Intended for f >= 0; split signed data into positive and
    negative parts first.

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
    return HalfSpaceField._adopt(g, hts, vals)
