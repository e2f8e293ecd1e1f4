"""Self-similar fractional measures, box dimension, divergence sets.

The Cantor measure at depth d is the uniform measure on the 2^d level-d
intervals of a two-branch self-similar set with contraction 2^(-1/s),
so its similarity dimension is exactly s.  All types here are frozen
and all routines pure.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .extension import check_finite, dyadic_heights, poisson_slices, \
    slice_buffers
from .grid import Grid, GridFunction, nearest_index
from .maximal import ApproachRegionSpec, _coverage_check, window_extreme


@dataclass(frozen=True)
class CantorMeasure:
    """Two-branch self-similar probability measure of dimension s on [0, 1]."""

    ratio: float
    depth: int
    lefts: np.ndarray  # sorted left endpoints of the level-depth intervals

    def __post_init__(self):
        arr = np.asarray(self.lefts, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "lefts", arr)

    @property
    def interval_length(self) -> float:
        return self.ratio ** self.depth

    @property
    def interval_mass(self) -> float:
        return 2.0 ** (-self.depth)


@dataclass(frozen=True)
class PointSet:
    """Coordinates on the torus together with their resolution context."""

    points: np.ndarray
    grid: Grid

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.size and not (arr.min() >= 0 and arr.max() < self.grid.extent):
            raise ParameterError("points must lie in [0, extent)")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)


# the deepest construction: 2^24 intervals
MAX_DEPTH = 24


def cantor_measure(s: float, depth: int) -> CantorMeasure:
    """Standard two-branch construction with contraction 2^(-1/s)."""
    if not (0.0 < s <= 1.0):
        raise ParameterError(f"s must lie in (0, 1], got {s}")
    if not (1 <= depth <= MAX_DEPTH):
        raise ParameterError(f"depth must lie in [1, {MAX_DEPTH}], got {depth}")
    rho = 2.0 ** (-1.0 / s)
    lefts = np.array([0.0])
    size = 1.0
    for _ in range(depth):
        lefts = np.concatenate([lefts, lefts + size * (1.0 - rho)])
        size *= rho
    return CantorMeasure(ratio=rho, depth=depth, lefts=np.sort(lefts))


def integrate_against(f: GridFunction, mu: CantorMeasure) -> float:
    """Midpoint rule: sum of interval mass times f at the nearest grid point."""
    if f.grid.extent < 1.0:
        raise ParameterError("measure support [0,1] exceeds the torus extent")
    # the support sits on the first axis, at 0 on every other one
    points = np.zeros((mu.lefts.size, f.grid.dim))
    points[:, 0] = mu.lefts + mu.interval_length / 2.0
    idx = nearest_index(f.grid, points)
    return float(np.sum(f.samples[idx]) * mu.interval_mass)


@dataclass(frozen=True)
class BoxDimension:
    slope: float
    counts: tuple  # boxes met at each scale 2^-m of the window


def box_dimension(points: PointSet, scale_window) -> BoxDimension:
    """Dyadic box-counting slope of log2 N(2^-m) against m over the window."""
    m_lo, m_hi = int(scale_window[0]), int(scale_window[1])
    if not (0 < m_lo < m_hi):
        raise ParameterError(f"need 0 < m_lo < m_hi, got ({m_lo}, {m_hi})")
    if m_hi > points.grid.levels:
        raise ParameterError(
            f"m_hi={m_hi} exceeds grid levels {points.grid.levels}")
    pts = np.atleast_2d(points.points.reshape(-1, points.grid.dim))
    if pts.shape[0] == 0:
        return BoxDimension(slope=0.0, counts=())
    ms = list(range(m_lo, m_hi + 1))
    counts = []
    for m in ms:
        side = points.grid.extent * 2.0 ** (-m)
        cells = np.floor(pts / side).astype(np.int64)
        # distinct boxes: sort the cell rows, count rows unlike the previous
        cells = cells[np.lexsort(cells.T)]
        counts.append(1 + int(np.count_nonzero(
            np.any(cells[1:] != cells[:-1], axis=1))))
    x = np.asarray(ms, dtype=float)
    y = np.log2(np.asarray(counts, dtype=float))
    xm, ym = x.mean(), y.mean()
    denom = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / denom)
    return BoxDimension(slope=slope, counts=tuple(counts))


def divergence_set(f: GridFunction, spec: ApproachRegionSpec,
                   eps: float) -> PointSet:
    """Grid points where the localized region oscillation of the Poisson
    extension of f against f exceeds eps.

    Scans the heights of the ladder dyadic_heights(1.0, grid=f.grid) at
    most spec.t_max, at least two of them, one Poisson slice at a time;
    the set shrinks as eps grows and grows as t_max grows.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    heights = dyadic_heights(1.0, grid=f.grid)
    scan = [heights[k] for k in _coverage_check(heights, spec)]
    g = f.grid
    osc = np.zeros(g.size)
    hi = np.empty(g.size)
    prod, work = slice_buffers(f)

    def widen(t, u):
        # hi - f and f - lo, formed in hi and in the slice itself
        rad = spec.radius(t)
        window_extreme(check_finite(u), g, rad, "max", out=hi, work=work)
        np.maximum(osc, np.subtract(hi, f.samples, out=hi), out=osc)
        window_extreme(u, g, rad, "min", out=u, work=work)
        np.maximum(osc, np.subtract(f.samples, u, out=u), out=osc)

    # map keeps no reference to a swept slice while the next is formed
    for _ in map(widen, scan, poisson_slices(f, scan, prod)):
        pass
    flat = np.nonzero(osc > eps)[0]
    coords = g.h * np.stack(np.unravel_index(flat, g.shape), axis=1)
    return PointSet(points=coords[:, 0] if g.dim == 1 else coords, grid=g)
