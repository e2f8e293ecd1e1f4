"""Stacks of rows: every row of a stacked computation is, byte for byte,
the single-function computation of that row, and stacks stay small.

The oracle is the one-function path: GridFunction in, GridFunction out,
flat arrays throughout."""

import math
import tracemalloc

import numpy as np
import pytest

from fatou_lab import _kernels, experiments
from fatou_lab.config import ExperimentConfig
from fatou_lab.errors import ParameterError
from fatou_lab.experiments import spike_data, unit_l2, white_noise
from fatou_lab.extension import dyadic_heights, poisson_multipliers
from fatou_lab.grid import GridFunction, GridStack, lp_norm, lp_norms, \
    make_grid
from fatou_lab.maximal import ApproachRegionSpec, poisson_tangential_max
from fatou_lab.potentials import _half_spectrum, bessel_smooth

CFG = ExperimentConfig(experiment="nagel-stein-bound", levels=(8, 10),
                       alpha=0.25, p=2.0, seeds=(0,))
BETA = CFG.derived_beta()


def _single_row_ratio(level, seed, data):
    """The Nagel-Stein ratio of one seed through GridFunctions only."""
    grid = make_grid(1, level, CFG.extent)
    if data == "noise":
        g = unit_l2(grid, white_noise(grid, seed))
    else:
        g = spike_data(grid, [0.5 * grid.extent])
    spec = ApproachRegionSpec(beta=BETA, aperture=CFG.aperture, t_max=1.0)
    nt = poisson_tangential_max(bessel_smooth(g, CFG.alpha), spec)
    return lp_norm(nt, CFG.p) / lp_norm(g, CFG.p)


def _bytes(values):
    return [np.float64(v).tobytes() for v in values]


@pytest.mark.parametrize("level", [8, 11, 14])
@pytest.mark.parametrize("rows", [1, 2, 3, 32])
@pytest.mark.parametrize("data", ["noise", "spike"])
def test_stacked_ratios_equal_single_row_ratios(level, rows, data):
    seeds = tuple(range(5, 5 + rows))
    if data == "noise":
        got = experiments._ns_ratios(level, seeds, CFG, BETA)
    else:
        got = [experiments._ns_ratio(level, CFG, BETA)] * rows
    want = [_single_row_ratio(level, seed, data) for seed in seeds]
    assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("level", [8, 11, 14])
@pytest.mark.parametrize("rows", [1, 2, 3, 32])
@pytest.mark.parametrize("data", ["noise", "spike"])
def test_stacked_sweep_rows_equal_single_row_sweeps(level, rows, data):
    # one stack of every row, past the width seed_stacks would cut it to
    grid = make_grid(1, level, 1.0)
    if data == "noise":
        fs = [bessel_smooth(unit_l2(grid, white_noise(grid, seed)), 0.25)
              for seed in range(rows)]
    else:
        fs = [spike_data(grid, [(0.5 + 0.01 * r) * grid.extent])
              for r in range(rows)]
    spec = ApproachRegionSpec(beta=0.375, aperture=0.7)
    stacked = poisson_tangential_max(
        GridStack(grid, [f.samples for f in fs]), spec)
    assert isinstance(stacked, GridStack)
    assert stacked.samples.shape == (rows, grid.size)
    for f, row in zip(fs, stacked.samples):
        assert row.tobytes() == poisson_tangential_max(f, spec).samples.tobytes()


def test_stacked_disc_sweep_rows_equal_single_row_sweeps(rng):
    grid = make_grid(2, 5, 1.0)
    rows = rng.normal(size=(3, grid.size))
    spec = ApproachRegionSpec(beta=0.5, aperture=0.7)
    stacked = poisson_tangential_max(GridStack(grid, rows), spec)
    for r, row in zip(rows, stacked.samples):
        want = poisson_tangential_max(GridFunction(grid, r), spec)
        assert row.tobytes() == want.samples.tobytes()


def test_stacked_smoothing_rows_equal_single_row_smoothing(rng):
    grid = make_grid(1, 12, 1.0)
    rows = rng.normal(size=(5, grid.size))
    stacked = bessel_smooth(GridStack(grid, rows), 0.7)
    for r, row in zip(rows, stacked.samples):
        assert row.tobytes() == bessel_smooth(GridFunction(grid, r),
                                              0.7).samples.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_row_norms_equal_lp_norm(rng, p):
    for dim, level in ((1, 8), (1, 14), (2, 6)):
        grid = make_grid(dim, level, 3.0)
        rows = rng.normal(size=(7, grid.size)) * rng.uniform(0.1, 10.0,
                                                               size=(7, 1))
        got = lp_norms(GridStack(grid, rows), p)
        want = [lp_norm(GridFunction(grid, r), p) for r in rows]
        assert all(type(v) is float for v in got)
        assert _bytes(got) == _bytes(want)


def test_stack_with_one_non_finite_row_raises():
    grid = make_grid(1, 6, 1.0)
    rows = np.ones((3, grid.size))
    rows[1, 5] = math.nan
    with pytest.raises(ParameterError, match="finite"):
        GridStack(grid, rows)
    # finite samples whose transform overflows to inf in one row only
    rows[1] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ParameterError, match="field values must be finite"):
        poisson_tangential_max(GridStack(grid, rows),
                               ApproachRegionSpec(beta=0.5))


@pytest.mark.parametrize("shape", [(), (0, 64), (2, 63), (2, 4, 16)])
def test_stack_rejects_other_shapes(shape):
    with pytest.raises(ParameterError, match="rows of 64 samples"):
        GridStack(make_grid(1, 6, 1.0), np.zeros(shape))


def test_stacked_window_extremes_equal_row_by_row(rng):
    rows = rng.normal(size=(4, 173))
    for k in (-1, 0, 1, 5, 40, 86, 90):
        for fn in (_kernels.circ_max_1d, _kernels.circ_min_1d):
            want = np.stack([fn(r, k, None, None) for r in rows])
            np.testing.assert_array_equal(fn(rows, k, None, None), want)
            into = rows.copy()
            fn(into, k, into, np.empty_like(into))
            np.testing.assert_array_equal(into, want)


@pytest.mark.parametrize("dim,level,extent,cuts", [
    (1, 16, 1.0, True), (1, 20, 1.0, True),
    # at 128^2 on the unit torus no multiplier underflows; on a quarter
    # torus every |xi| is four times as large
    (2, 7, 1.0, False), (2, 7, 0.25, True)])
def test_poisson_multiplier_cut_equals_full_exp(dim, level, extent, cuts):
    # the columns past the underflow cut are filled, not evaluated; they
    # must hold exactly the +0.0 that exp gives there
    grid = make_grid(dim, level, extent)
    mag = np.sqrt(_half_spectrum(grid)[1])
    hts = dyadic_heights(1.0, grid=grid)
    cut_somewhere = False
    for t, m in zip(hts, poisson_multipliers(grid, hts)):
        full = np.exp(mag * (-2.0 * math.pi * t))
        assert m.tobytes() == full.tobytes()
        least = mag.reshape(-1, mag.shape[-1])[0]
        cut_somewhere |= bool(np.any(least * (-2.0 * math.pi * t) < -800.0))
    assert cut_somewhere == cuts


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacks_peak_below_a_single_row_at_2_18():
    # 32 seeds at 2^14 are cut into stacks of 2^17 samples
    stacked = _traced_peak(lambda: experiments._ns_ratios(
        14, tuple(range(32)), CFG, BETA))
    single = _traced_peak(lambda: experiments._ns_ratios(18, (0,), CFG, BETA))
    assert stacked < single
