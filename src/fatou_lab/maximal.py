"""Approach-region membership and the maximal operators built on them.

All suprema are over the sampled (t_k, x_i) lattice, so every operator
here is a lower bound for its continuum counterpart, monotone under
height and grid refinement.  Scans are window sweeps per height: the
region of a boundary point at height t is a centered window whose
radius follows the region law.

window_extreme is the one place a max or min over such a window is
taken.  In 1-D it is a circular window extreme (_kernels.circ_max_1d).
In 2-D the torus disc is a union of row runs (grid.disc_rows; Urbach &
Wilkinson, IEEE TIP 17, 2008): rows of one halfwidth w share one
circular window extreme of 2w+1 along every row, or a full-row reduce
once 2w+1 >= N, which is folded into each output row from the row dy
away by two slices.  The windows of all widths of a disc come from one
set of doubling levels (_kernels._circ_folds).  That is O(N^2 K) time
and O(N^2) memory for halfwidth K, and exact, since max and min do not
round.  When only every s-th row of a slice holds values (the placed
centres of the sharp maximal function), only those rows are filtered,
and each is folded into the output rows it reaches.

Operators read fields without mutating them, and the scan order per
output point is fixed, so results are deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CoverageError, ParameterError
from .extension import HalfSpaceField, check_finite, dyadic_heights, \
    poisson_slices, slice_buffers
from .grid import Grid, GridFunction, ball_means, dilated_height_scanned, \
    disc_rows, window_halfwidth
from .potentials import dyadic_scales


@dataclass(frozen=True)
class ApproachRegionSpec:
    """Region law: lateral radius aperture*t^beta for t <= 1, aperture*t above.

    Heights above t_max are not scanned; t_max = inf means no cap."""

    beta: float
    aperture: float = 1.0
    t_max: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ParameterError(f"beta must lie in (0, 1], got {self.beta}")
        if not (0.0 < self.aperture < math.inf):
            raise ParameterError(
                f"aperture must be positive and finite, got {self.aperture}")
        if not self.t_max > 0.0:
            raise ParameterError(f"t_max must be positive, got {self.t_max}")

    def radius(self, t: float) -> float:
        return self.aperture * (t ** self.beta if t <= 1.0 else t)


def window_extreme(values: np.ndarray, grid: Grid, radius: float,
                   mode: str = "max", out: np.ndarray | None = None,
                   work: np.ndarray | None = None,
                   row_stride: int = 1) -> np.ndarray:
    """Max (mode "max") or min ("min") of flat slice values over the torus
    ball of the given radius around every grid point, as a flat array; of
    a (rows, grid.size) stack of slices, row by row.

    The result goes into out if given, which may be values itself.  work,
    if given, is scratch of values' shape.

    In 2-D, a row_stride s > 1 that divides N means that values holds only
    the rows 0, s, 2s, ... of each slice, the others being all -inf for
    "max" and all +inf for "min"; out gets whole slices (see _row_runs)."""
    if grid.dim == 1:
        k = window_halfwidth(radius, grid.h)
        if mode == "max":
            return _kernels.circ_max_1d(values, k, out, work)
        return _kernels.circ_min_1d(values, k, out, work)
    n = grid.n
    dys, ws = disc_rows(grid, radius)
    # a row past half the torus repeats a nearer, wider one, and a run of
    # 2(n//2)+1 already covers its row
    near = np.abs(dys) <= n // 2
    dys, ws = dys[near], np.minimum(ws[near], n // 2)
    if out is None:
        out = np.empty(values.shape[:-1] + (values.shape[-1] * row_stride,))
    row_filter = maximum_filter if mode == "max" else minimum_filter
    if work is not None:
        work = work.reshape(-1)[:grid.size]  # one slice at a time
    for v, o in zip(values.reshape(-1, n // row_stride, n),
                    out.reshape((-1,) + grid.shape)):
        row_filter(v, dys, ws, o, work)
    return out


def maximum_filter(arr, dys, ws, out, work):
    """out[i, j] = max over the runs (dy, w) of arr[i + dy, j - w .. j + w],
    rows and columns mod n; see _row_runs."""
    return _row_runs(arr, dys, ws, out, work, np.maximum, np.max, -np.inf)


def minimum_filter(arr, dys, ws, out, work):
    """As maximum_filter, with min."""
    return _row_runs(arr, dys, ws, out, work, np.minimum, np.min, np.inf)


def _row_runs(arr, dys, ws, out, work, fold, reduce, fill):
    """Fold the row runs (dy, w) of an (n, n) array into out, which may be
    arr itself; work, if given, holds at least arr.size floats of scratch.

    arr may instead hold only the rows 0, s, 2s, ... of the (n, n) array,
    a row stride s = n // len(arr) that divides n, when its other rows are
    all fill: those rows leave every fold as it was, so only the rows of
    arr are filtered, and run dy folds them only into the output rows i
    with i + dy a multiple of s, every s-th row.

    Runs of 2w+1 >= n take the whole row.  The circular windows of every
    narrower width come from one set of doubling levels
    (_kernels._circ_folds), widths in ascending order, and each is folded
    into the output rows it reaches by two slices."""
    n = arr.shape[1]
    stride = out.shape[0] // arr.shape[0]
    wide = 2 * ws + 1 >= n
    whole = reduce(arr, axis=1, keepdims=True) if wide.any() else None
    narrow = np.unique(ws[~wide]).tolist()
    if narrow:
        if work is None:
            work = np.empty(arr.size)
        rows = np.empty(arr.shape)
        folds = _kernels._circ_folds(
            arr, narrow, fold, work.reshape(-1)[:arr.size].reshape(arr.shape),
            rows)
    else:
        folds = ()

    def fold_in(filtered, dy):
        # output row i = first + j s reads row i + dy = (j + shift) s
        first = -dy % stride
        _fold_row_shift(out[first::stride], filtered, (first + dy) // stride,
                        fold)

    # arr is not read from here on
    out.fill(fill)
    for dy in dys[wide].tolist():
        fold_in(whole, dy)
    for k in folds:
        for dy in dys[ws == k].tolist():
            fold_in(rows, dy)
    return out


def _fold_row_shift(acc, rows, dy, fold):
    """acc[i] = fold(acc[i], rows[(i + dy) % n]) for every row i."""
    n = acc.shape[0]
    d = dy % n
    fold(acc[:n - d], rows[d:], out=acc[:n - d])
    fold(acc[n - d:], rows[:d], out=acc[n - d:])


def _coverage_check(heights, spec: ApproachRegionSpec) -> list:
    """Indices of the heights at or below spec.t_max; at least two."""
    usable = [k for k, t in enumerate(heights)
              if t <= spec.t_max * (1.0 + 1e-12)]
    if len(usable) < 2:
        raise CoverageError(
            f"fewer than 2 field heights at or below t_max={spec.t_max}; "
            f"the lowest is {min(heights)}: raise t_max or add lower heights")
    return usable


def _region_sweep(grid: Grid, scan,
                  work: np.ndarray | None = None) -> np.ndarray:
    """max over (|slice|, radius, weight) in scan of weight * window max of
    |slice|, as an array of work's shape.

    The sweep owns every |slice| array that scan yields and overwrites it
    with its window max: callers pass np.abs(row) for a field row and
    np.abs(u, out=u) for a slice of their own.  scan may be a generator,
    so each array can be dropped once swept; field-row scans stay
    generators, so that no more than one |row| is alive at a time.  work
    (one flat slice, grid.size floats, allocated here if not given; or a
    (rows, grid.size) array for a stack of slices) is the window scratch,
    reused for every slice."""
    if work is None:
        work = np.empty(grid.size)
    out = np.zeros(work.shape)
    for absvals, radius, weight in scan:
        window_extreme(absvals, grid, radius, out=absvals, work=work)
        if weight != 1.0:  # x * 1.0 == x
            np.multiply(absvals, weight, out=absvals)
        np.maximum(out, absvals, out=out)
        del absvals  # free it before scan makes the next one
    return out


def tangential_max(u: HalfSpaceField, spec: ApproachRegionSpec) -> GridFunction:
    """sup over sampled region points of |u|, per boundary point."""
    return GridFunction(u.grid, _region_sweep(
        u.grid, ((np.abs(u.values[k]), spec.radius(u.heights[k]), 1.0)
                 for k in _coverage_check(u.heights, spec))))


def poisson_tangential_max(f, spec: ApproachRegionSpec):
    """tangential_max(poisson_extend(f, heights), spec) on the grid's ladder
    heights = dyadic_heights(1.0, grid=f.grid), bit for bit, without the
    field: each usable Poisson slice is computed, swept in place and
    dropped, and no slice above spec.t_max is transformed.  Once f is
    transformed nothing here refers to it, so data passed as a temporary
    is freed before the first slice is swept.

    Of a GridStack, the same for every row at once, as a GridStack: one
    transform, one multiplier per height and one window sweep per height
    serve all rows."""
    grid = f.grid
    hts = dyadic_heights(1.0, grid=grid)
    usable = [hts[k] for k in _coverage_check(hts, spec)]
    # the product buffer idles while a slice is swept: lend it to the sweep
    prod, work = slice_buffers(f)
    slices = poisson_slices(f, usable, prod)
    kind = type(f)
    del f  # the slices hold the spectrum, not f

    def swept(t, u):
        return np.abs(check_finite(u), out=u), spec.radius(t), 1.0

    # map, unlike zip or a generator expression, keeps no reference to the
    # last slice while it asks for the next one
    return kind(grid, _region_sweep(grid, map(swept, usable, slices), work))


def dilated_mitigated_max(v: HalfSpaceField, p: float, beta: float,
                          j: int) -> GridFunction:
    """Dilated local maximal function: slice at height t_k stands for the
    dilated height t = t_k / 2^j, scanned while t < 2^{-j/(1-beta)}."""
    if p <= 0:
        raise ParameterError(f"p must be positive, got {p}")
    if j < 0:
        raise ParameterError(f"j must be >= 0, got {j}")
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    g = v.grid
    threshold = 2.0 ** (-j / (1.0 - beta))
    scan = [(k, t * 2.0 ** (-j)) for k, t in enumerate(v.heights)
            if dilated_height_scanned(t, j, beta)]
    if not scan:
        raise CoverageError(
            f"no field heights give dilated heights below {threshold:.4g} for j={j}")
    expo = g.dim * (1.0 - beta) / p
    pref = 2.0 ** (g.dim * j / p)
    return GridFunction(g, _region_sweep(
        g, ((np.abs(v.values[k]), t ** beta, pref * t ** expo)
            for k, t in scan)))


def hl_max_q(f, q: float):
    """Hardy-Littlewood q-power maximal function over dyadic radii in
    [h, extent/4]; of a GridStack, row by row (grid.ball_means), each
    row's floats those of the row alone."""
    out = np.zeros(f.samples.shape)
    for mean in ball_means(f, dyadic_scales(f.grid, 1.0), q):
        np.maximum(out, mean, out=out)
        del mean  # free it before the next mean is formed
    return type(f)(f.grid, out)
