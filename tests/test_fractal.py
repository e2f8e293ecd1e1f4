import math
import tracemalloc

import numpy as np
import pytest

import reference
from fatou_lab import fractal
from fatou_lab.errors import CoverageError, ParameterError
from fatou_lab.extension import dyadic_heights, poisson_extend
from fatou_lab.fractal import (PointSet, box_dimension, cantor_measure,
                               divergence_set, integrate_against)
from fatou_lab.grid import GridFunction, from_callable, lp_norm, make_grid
from fatou_lab.maximal import ApproachRegionSpec
from fatou_lab.potentials import bessel_smooth

THIRDS = math.log(2.0) / math.log(3.0)


def test_cantor_construction():
    mu = cantor_measure(1.0, 8)
    assert mu.ratio == pytest.approx(0.5)
    assert mu.lefts.size == 256
    mt = cantor_measure(THIRDS, 6)
    assert mt.ratio == pytest.approx(1.0 / 3.0)
    assert mt.lefts.size == 64
    assert mt.interval_length == pytest.approx(3.0 ** -6)
    # child interval masses renormalize exactly: rho^s = 1/2
    assert (mt.ratio ** THIRDS) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        cantor_measure(1.5, 4)
    with pytest.raises(ParameterError):
        cantor_measure(0.5, 30)


def test_integrate_against_examples(rng):
    g = make_grid(1, 12, 1.0)
    mu = cantor_measure(THIRDS, 12)
    const = from_callable(g, lambda x: np.full_like(x, 3.14))
    assert integrate_against(const, mu) == pytest.approx(3.14, rel=1e-12)
    # midpoint rule against a Lipschitz function: O(h + rho^depth) error
    lin = from_callable(g, lambda x: np.minimum(x, 1.0 - x))
    direct = float(np.sum([np.minimum(m, 1 - m) for m in
                           mu.lefts + mu.interval_length / 2])
                   * mu.interval_mass)
    assert integrate_against(lin, mu) == pytest.approx(direct, abs=2 * g.h)


def test_integrate_against_lemma_ratio(rng):
    # smoothed nonnegative densities integrate against fractional measures
    # with a draw-stable constant
    g = make_grid(1, 12, 1.0)
    alpha, p = 0.25, 2.0
    mu = cantor_measure(0.75, 12)
    ratios = []
    for _ in range(20):
        gd = GridFunction(g, np.abs(rng.normal(size=g.size)))
        f = bessel_smooth(gd, alpha)
        ratios.append(integrate_against(f, mu) / lp_norm(gd, p))
    assert max(ratios) / min(ratios) < 3.0


def test_box_dimension_calibration():
    g = make_grid(1, 14, 1.0)
    single = PointSet(points=np.array([0.37]), grid=g)
    bd = box_dimension(single, (4, 10))
    assert abs(bd.slope) <= 0.05
    full = PointSet(points=g.h * np.arange(g.n), grid=g)
    assert abs(box_dimension(full, (4, 10)).slope - 1.0) <= 0.05
    mt = cantor_measure(THIRDS, 14)
    mset = PointSet(points=mt.lefts, grid=g)
    assert abs(box_dimension(mset, (4, 10)).slope - THIRDS) <= 0.05


@pytest.mark.parametrize("dim", [1, 2])
def test_box_dimension_counts_match_set_of_cells(rng, dim):
    # oracle: distinct cells counted as a set of tuples, over random
    # points, duplicates of them, the origin and points just below extent
    g = make_grid(dim, 10, 2.7)
    pts = rng.uniform(0, g.extent, size=(3000, dim))
    pts = np.concatenate([pts, pts[:500], pts[:1] * 0.0,
                          np.full((2, dim), np.nextafter(g.extent, 0))])
    ps = PointSet(points=pts, grid=g)
    bd = box_dimension(ps, (2, 10))
    expect = [len({tuple(row) for row in np.floor(
        pts / (g.extent * 2.0 ** -m)).astype(np.int64)}) for m in range(2, 11)]
    assert list(bd.counts) == expect


def test_box_dimension_empty_and_errors():
    g = make_grid(1, 10, 1.0)
    empty = PointSet(points=np.array([]), grid=g)
    bd = box_dimension(empty, (3, 8))
    assert bd.counts == () and bd.slope == 0.0
    ps = PointSet(points=np.array([0.5]), grid=g)
    with pytest.raises(ParameterError):
        box_dimension(ps, (5, 12))
    with pytest.raises(ParameterError):
        box_dimension(ps, (8, 4))


def test_riesz_content_bound(rng):
    # box-count content of superlevel sets of the riesz smoothing
    g = make_grid(1, 12, 1.0)
    n, alpha, p = 1, 0.25, 2.0
    gamma = 0.75  # above n - alpha p = 0.5
    consts = []
    for _ in range(5):
        gd = GridFunction(g, np.abs(rng.normal(size=g.size)))
        spec = np.fft.rfft(gd.samples)
        xi = np.fft.rfftfreq(g.n, d=g.h)
        mult = np.zeros_like(xi)
        mult[1:] = (2 * math.pi * xi[1:]) ** (-alpha)
        pot = GridFunction(g, np.fft.irfft(spec * mult, n=g.n))
        norm = lp_norm(gd, p)
        m = 8
        side = 2.0 ** -m
        for lam in np.geomspace(0.5, 5.0, 6) * np.abs(pot.samples).mean():
            above = np.nonzero(pot.samples > lam)[0]
            if above.size == 0:
                continue
            boxes = len(set((above * g.h // side).astype(int)))
            content = boxes * side ** gamma
            bound = (norm / lam) ** (p * gamma / (n - alpha * p))
            consts.append(content / bound)
    assert max(consts) < 50.0
    assert np.median(consts) > 1e-3  # the bound is active, not vacuous


def test_divergence_set_smooth_data_empty():
    g = make_grid(1, 10, 1.0)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    spec = ApproachRegionSpec(beta=1.0, t_max=2.0 ** (-g.levels))
    div = divergence_set(f, spec, 0.01)
    assert div.points.size == 0


def test_divergence_set_monotone(rng):
    g = make_grid(1, 10, 1.0)
    spike = np.zeros(g.size)
    spike[g.n // 2] = 1.0 / math.sqrt(g.h)
    f = bessel_smooth(GridFunction(g, spike), 0.25)
    t1 = 2.0 ** (-g.levels)
    spec = ApproachRegionSpec(beta=0.75, t_max=t1)
    scale = float(np.abs(f.samples).max())
    d_small = divergence_set(f, spec, 0.05 * scale)
    d_big = divergence_set(f, spec, 0.01 * scale)
    assert set(np.round(d_small.points / g.h).astype(int)) <= \
        set(np.round(d_big.points / g.h).astype(int))
    d_deeper = divergence_set(f, ApproachRegionSpec(beta=0.75, t_max=2 * t1),
                              0.05 * scale)
    assert set(np.round(d_small.points / g.h).astype(int)) <= \
        set(np.round(d_deeper.points / g.h).astype(int))


def test_divergence_set_errors(rng):
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    with pytest.raises(ParameterError):
        divergence_set(f, ApproachRegionSpec(beta=1.0, t_max=0.25), 0.0)
    # t_max below the second-lowest rung leaves one height to scan
    lowest = dyadic_heights(1.0, grid=g)[-1]
    with pytest.raises(CoverageError, match="fewer than 2 field heights"):
        divergence_set(f, ApproachRegionSpec(beta=1.0, t_max=lowest), 0.1)


def _spiky(g, rng) -> GridFunction:
    """Smoothed noise plus a smoothed spike: a divergence set that is
    neither empty nor the whole grid at the eps of the tests below."""
    spike = np.zeros(g.size)
    spike[g.size // 2] = 1.0 / math.sqrt(g.h ** g.dim)
    return bessel_smooth(GridFunction(g, spike + rng.normal(size=g.size)),
                         0.25)


@pytest.mark.parametrize("aperture", [0.7, 1.0])
@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("dim,level", [(1, lev) for lev in range(8, 13)]
                         + [(2, 5), (2, 6)])
def test_divergence_set_matches_stored_field_sweep(rng, dim, level, beta,
                                                   aperture):
    g = make_grid(dim, level, 1.0)
    f = _spiky(g, rng)
    hts = dyadic_heights(1.0, grid=g)
    u = poisson_extend(f, hts)
    scale = float(np.abs(f.samples).max())
    sizes = []
    for t_max in (hts[-2], hts[level], hts[level - 3]):
        spec = ApproachRegionSpec(beta=beta, aperture=aperture, t_max=t_max)
        for eps in (0.01 * scale, 0.05 * scale, 0.2 * scale):
            got = divergence_set(f, spec, eps)
            want = reference.divergence_set(u, f, spec, eps)
            assert got.grid == want.grid
            np.testing.assert_array_equal(got.points, want.points)
            sizes.append(got.points.shape[0])
    assert 0 < max(sizes) and min(sizes) < g.size


@pytest.mark.parametrize("dim,level", [(1, 10), (2, 5)])
def test_divergence_set_transforms_only_heights_up_to_t_min(rng, monkeypatch,
                                                            dim, level):
    g = make_grid(dim, level, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    real = fractal.poisson_slices
    for t_max in (hts[-2], hts[level], hts[1]):
        seen = []

        def spy(f, heights, *args):
            seen.extend(heights)
            return real(f, heights, *args)

        monkeypatch.setattr(fractal, "poisson_slices", spy)
        divergence_set(f, ApproachRegionSpec(beta=0.5, t_max=t_max), 0.1)
        assert seen == [t for t in hts if t <= t_max]


def test_divergence_set_forms_its_differences_in_place(rng):
    # per height: spectrum 1, |xi| 1/2, multiplier 1/2, product 1 (also the
    # window scratch), slice 1, window max 1 and oscillation 1, in units of
    # N * 8 B; 8 while the previous slice stayed alive and hi - f, f - lo
    # were temporaries
    g = make_grid(1, 16, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    spec = ApproachRegionSpec(beta=0.75, t_max=dyadic_heights(1.0, grid=g)[8])
    tracemalloc.start()
    try:
        divergence_set(f, spec, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * g.size * 8


def test_divergence_set_does_not_hold_the_field(rng):
    g = make_grid(1, 16, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    assert len(hts) == 19
    spec = ApproachRegionSpec(beta=0.75, t_max=2.0 ** (-g.levels))
    peaks = []
    for run in (lambda: divergence_set(f, spec, 0.5),
                lambda: reference.divergence_set(poisson_extend(f, hts), f,
                                                 spec, 0.5)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    streamed, field = peaks
    assert streamed < 10 * g.size * 8
    assert field > len(hts) * g.size * 8
