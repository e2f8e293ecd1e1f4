import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatou_lab import _kernels, maximal
from fatou_lab.errors import CoverageError, ParameterError
from fatou_lab.extension import HalfSpaceField, annuli_surrogate, dyadic_heights, \
    poisson_extend
from fatou_lab.grid import GridFunction, fft_convolve, from_callable, lp_norm, \
    make_grid, window_halfwidth
from fatou_lab.maximal import (ApproachRegionSpec, dilated_mitigated_max,
                               hl_max_q, tangential_max, window_extreme)
from fatou_lab.potentials import bessel_smooth
from reference import composite_max, region_contains


def test_region_contains_examples():
    spec = ApproachRegionSpec(beta=0.5, aperture=1.0, t_max=1.0)
    assert region_contains(spec, 0.0, 0.04, 0.1, extent=8.0)
    assert not region_contains(spec, 0.0, 0.04, 0.3, extent=8.0)
    cone = ApproachRegionSpec(beta=1.0, aperture=1.0, t_max=1.0)
    assert not region_contains(cone, 0.0, 0.04, 0.1, extent=8.0)
    # t >= 1 branch uses the cone law at any beta
    assert region_contains(spec, 0.0, 2.0, 1.5, extent=8.0)
    with pytest.raises(ParameterError):
        region_contains(spec, 0.0, 0.0, 0.1)
    with pytest.raises(ParameterError):
        ApproachRegionSpec(beta=1.5)
    with pytest.raises(ParameterError):
        ApproachRegionSpec(beta=0.5, aperture=0.0)


@pytest.mark.parametrize("kwargs", [
    {"aperture": math.nan}, {"aperture": math.inf}, {"aperture": -1.0},
    {"t_max": math.nan}, {"t_max": 0.0}, {"t_max": -1.0}, {"t_max": -math.inf},
])
def test_region_spec_rejects_non_finite_and_non_positive(kwargs):
    with pytest.raises(ParameterError):
        ApproachRegionSpec(beta=0.5, **kwargs)


def test_region_spec_infinite_t_max_scans_every_height(rng):
    g = make_grid(1, 6, 1.0)
    u = poisson_extend(GridFunction(g, rng.normal(size=g.size)),
                       (8.0, 4.0, 2.0, 1.0, 0.5))
    out = tangential_max(u, ApproachRegionSpec(beta=0.5, t_max=math.inf))
    capped = tangential_max(u, ApproachRegionSpec(beta=0.5, t_max=8.0))
    np.testing.assert_array_equal(out.samples, capped.samples)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(1e-3, 0.999),
       st.floats(-0.45, 0.45))
def test_region_nesting_in_beta(b1, b2, t, dx):
    lo, hi = min(b1, b2), max(b1, b2)
    spec_lo = ApproachRegionSpec(beta=lo)
    spec_hi = ApproachRegionSpec(beta=hi)
    if region_contains(spec_hi, 0.0, t, dx, extent=4.0):
        assert region_contains(spec_lo, 0.0, t, dx, extent=4.0)


def test_tangential_max_constant_field():
    g = make_grid(1, 8, 1.0)
    const = from_callable(g, lambda x: np.full_like(x, -2.5))
    u = poisson_extend(const, dyadic_heights(1.0, grid=g))
    spec = ApproachRegionSpec(beta=0.5, aperture=1.0, t_max=1.0)
    out = tangential_max(u, spec)
    np.testing.assert_allclose(out.samples, 2.5, atol=1e-12)


def test_tangential_max_exhaustive_oracle(rng):
    g = make_grid(1, 5, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    u = poisson_extend(f, hts)
    spec = ApproachRegionSpec(beta=0.7, aperture=1.3, t_max=1.0)
    out = tangential_max(u, spec)
    xs = g.axis_coords()
    for i0 in range(g.n):
        best = 0.0
        for k, t in enumerate(hts):
            if t > spec.t_max:
                continue
            for i in range(g.n):
                if region_contains(spec, xs[i0], t, xs[i], extent=g.extent):
                    best = max(best, abs(u.values[k][i]))
        assert out.samples[i0] == pytest.approx(best, rel=1e-12)


def test_tangential_max_refinement_approaches_sup():
    errs = []
    for levels in (8, 10, 12):
        g = make_grid(1, levels, 1.0)
        cos = from_callable(g, lambda x: np.cos(2 * np.pi * x))
        u = poisson_extend(cos, dyadic_heights(1.0, grid=g))
        out = tangential_max(u, ApproachRegionSpec(beta=1.0, aperture=1.0,
                                                   t_max=1.0))
        errs.append(1.0 - out.samples[0])
    assert errs[0] > errs[1] > errs[2] > 0


def test_tangential_max_beta_monotone(rng):
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    u = poisson_extend(f, dyadic_heights(1.0, grid=g))
    n1 = tangential_max(u, ApproachRegionSpec(beta=0.4))
    n2 = tangential_max(u, ApproachRegionSpec(beta=0.9))
    assert np.all(n1.samples >= n2.samples - 1e-12)


def _max_loop_1d(u, spec):
    """Reference maxima in 1-D by a scan per boundary point over every
    usable height."""
    g = u.grid
    n = g.n
    usable = [k for k, t in enumerate(u.heights)
              if t <= spec.t_max * (1.0 + 1e-12)]
    best = np.full(g.size, -np.inf)
    for k in usable:
        absrow = np.abs(u.values[k])
        hw = window_halfwidth(spec.radius(u.heights[k]), g.h)
        for x0 in range(n):
            idxs = np.arange(x0 - hw, x0 + hw + 1) % n
            best[x0] = max(best[x0], absrow[idxs].max())
    return best


def _max_disc_scan_2d(u, spec):
    """Reference maxima in 2-D by scanning every offset (dy, dx) of the
    grid disc, |dy|, |dx| <= K and (dy^2 + dx^2) h^2 < r^2 (1 - 1e-12)."""
    g = u.grid
    n, h = g.n, g.h
    best = np.full(g.size, -np.inf)
    for k, t in enumerate(u.heights):
        if t > spec.t_max * (1.0 + 1e-12):
            continue
        r = spec.radius(t)
        kk = window_halfwidth(r, h)
        disc = [(dy, dx) for dy in range(-kk, kk + 1) for dx in range(-kk, kk + 1)
                if (dy * dy + dx * dx) * h * h < r * r * (1.0 - 1e-12)]
        absrow = np.abs(u.values[k])
        for x0 in range(g.size):
            i, j = divmod(x0, n)
            idxs = np.array([((i + dy) % n) * n + (j + dx) % n for dy, dx in disc])
            best[x0] = max(best[x0], absrow[idxs].max())
    return best


def _test_fields(rng, grid):
    heights = dyadic_heights(1.0, grid=grid)
    shape = (len(heights), grid.size)
    noise = poisson_extend(GridFunction(grid, rng.normal(size=grid.size)), heights)
    # integer ties, scaled up with depth so that lower heights win somewhere
    ties = rng.integers(-2, 3, size=shape) * np.arange(1.0, shape[0] + 1)[:, None]
    return [noise, HalfSpaceField(grid, heights, ties),
            HalfSpaceField(grid, heights, np.full(shape, 1.5)),
            HalfSpaceField(grid, heights, np.zeros(shape))]


@pytest.mark.parametrize("levels", [5, 8])
@pytest.mark.parametrize("beta,aperture", [(0.5, 1.0), (1.0, 0.7), (0.3, 2.0)])
def test_tangential_argmax_matches_scan_1d(rng, levels, beta, aperture):
    g = make_grid(1, levels, 1.0)
    spec = ApproachRegionSpec(beta=beta, aperture=aperture)
    for u in _test_fields(rng, g):
        assert np.array_equal(tangential_max(u, spec).samples,
                              _max_loop_1d(u, spec))


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("beta,aperture", [(0.5, 1.0), (1.0, 0.7)])
def test_tangential_argmax_matches_disc_scan_2d(rng, levels, beta, aperture):
    g = make_grid(2, levels, 1.0)
    spec = ApproachRegionSpec(beta=beta, aperture=aperture)
    for u in _test_fields(rng, g):
        assert np.array_equal(tangential_max(u, spec).samples,
                              _max_disc_scan_2d(u, spec))


def test_tangential_coverage_error(rng):
    g = make_grid(1, 5, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    u = poisson_extend(f, (4.0, 2.0))
    with pytest.raises(CoverageError,
                       match="fewer than 2 field heights at or below t_max"):
        tangential_max(u, ApproachRegionSpec(beta=0.5, t_max=1.0))
    # too few heights under t_max is a usage error, exit code 2 in verify
    assert issubclass(CoverageError, ParameterError)


def _v_field(grid, f, q):
    from fatou_lab.grid import ball_mean_all_centers
    from fatou_lab.extension import HalfSpaceField

    hts = dyadic_heights(1.0, grid=grid)
    vals = np.stack([ball_mean_all_centers(f, 2.0 * t, q) for t in hts])
    return HalfSpaceField(grid=grid, heights=hts, values=vals)


def test_dilated_j0_matches_mitigated_up_to_range(rng):
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    v = _v_field(g, f, 1.5)
    p, beta = 2.0, 0.5
    d0 = dilated_mitigated_max(v, p, beta, 0)
    # the undilated mitigated scan by hand: t^{n(1-beta)/p} times the max
    # of |v| over the beta-region, heights up to 1
    m = np.zeros(g.size)
    for k, t in enumerate(v.heights):
        wm = window_extreme(np.abs(v.values[k]), g, t ** beta)
        m = np.maximum(m, t ** ((1.0 - beta) / p) * wm)
    # the mitigated scan includes t = 1 while the dilated one stops below 1
    assert np.all(d0.samples <= m + 1e-12)
    ratio = d0.samples / m
    assert ratio.min() > 0.4


def test_dilated_constant_direct_scan():
    g = make_grid(1, 8, 1.0)
    c = 1.3
    const = from_callable(g, lambda x: np.full_like(x, c))
    v = _v_field(g, const, 1.0)
    p, beta, j = 2.0, 0.5, 3
    out = dilated_mitigated_max(v, p, beta, j)
    threshold = 2.0 ** (-j / (1 - beta))
    expect = 2.0 ** (j / p) * c * max(
        (t / 2.0 ** j) ** ((1 - beta) / p)
        for t in v.heights if t / 2.0 ** j < threshold)
    np.testing.assert_allclose(out.samples, expect, atol=1e-12)


def test_dilated_coverage_error(rng):
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    from fatou_lab.extension import HalfSpaceField

    v = HalfSpaceField(grid=g, heights=(1.0, 0.5),
                       values=np.abs(rng.normal(size=(2, g.size))))
    with pytest.raises(CoverageError):
        dilated_mitigated_max(v, 2.0, 0.5, 8)


def test_hl_max_q_examples(rng):
    g = make_grid(1, 9, 1.0)
    const = from_callable(g, lambda x: np.full_like(x, 2.0))
    for q in (1.0, 2.0):
        np.testing.assert_allclose(hl_max_q(const, q).samples, 2.0, atol=1e-12)
    ind = from_callable(g, lambda x: (np.minimum(x, 1 - x) < 0.1).astype(float))
    assert hl_max_q(ind, 1.0).samples[0] == pytest.approx(1.0, abs=2 * g.h / 0.1)
    f = GridFunction(g, rng.normal(size=g.size))
    a, b = hl_max_q(f, 1.0), hl_max_q(f, 2.0)
    assert np.all(a.samples <= b.samples + 1e-12)
    # one check in grid.ball_means serves every power mean; q = inf
    # once gave 1.0 everywhere for |f| < 1
    for q in (0.5, math.inf, math.nan):
        for op in (lambda: hl_max_q(f, q),
                   lambda: annuli_surrogate(f, (1.0, 4), 0.5, q, 2)):
            with pytest.raises(ParameterError):
                op()


def test_aperture_insensitivity(rng):
    g = make_grid(1, 9, 1.0)
    p = 2.0
    for _ in range(20):
        f = GridFunction(g, rng.normal(size=g.size))
        u = poisson_extend(f, dyadic_heights(1.0, grid=g))
        norms = [lp_norm(tangential_max(
            u, ApproachRegionSpec(beta=0.5, aperture=a, t_max=1.0)), p)
            for a in (0.5, 1.0, 2.0)]
        assert max(norms) / min(norms) < 4.0


def test_convolution_maximal_transfer(rng):
    g = make_grid(1, 8, 1.0)
    kern = GridFunction(g, np.abs(rng.normal(size=g.size)))
    hts = dyadic_heights(1.0, grid=g)
    base = GridFunction(g, np.abs(rng.normal(size=g.size)))
    v = poisson_extend(base, hts)
    vabs = np.abs(v.values)
    from fatou_lab.extension import HalfSpaceField

    u = HalfSpaceField(grid=g, heights=hts, values=np.stack(
        [fft_convolve(kern, GridFunction(g, row)).samples for row in vabs]))
    spec = ApproachRegionSpec(beta=0.6, aperture=1.0, t_max=1.0)
    nu = tangential_max(u, spec)
    nv = tangential_max(HalfSpaceField(grid=g, heights=hts, values=vabs), spec)
    bound = fft_convolve(kern, nv)
    assert np.all(nu.samples <= bound.samples + 1e-6)


def test_nagel_stein_band_small(rng):
    # scaled-down uniform boundedness check; the acceptance suite runs the
    # full refinement ladder
    p, alpha, beta = 2.0, 0.25, 0.5
    ratios = []
    for levels in (9, 11):
        g = make_grid(1, levels, 1.0)
        for _ in range(5):
            gd = GridFunction(g, rng.normal(size=g.size))
            gd = GridFunction(g, gd.samples / lp_norm(gd, 2.0))
            f = bessel_smooth(gd, alpha)
            u = poisson_extend(f, dyadic_heights(1.0, grid=g))
            nt = tangential_max(u, ApproachRegionSpec(beta=beta, t_max=1.0))
            ratios.append(lp_norm(nt, p))
    assert max(ratios) / min(ratios) < 3.0


def test_composite_max_zero_and_constant():
    g = make_grid(1, 8, 1.0)
    zero = from_callable(g, np.zeros_like)
    out = composite_max(zero, 2.0, 1.5, 0.5)
    np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)
    c = 2.0
    const = from_callable(g, lambda x: np.full_like(x, c))
    out = composite_max(const, 2.0, 1.5, 0.5, alpha_L=0.5, J=10)
    # direct evaluation: the sharp term vanishes, the tangential and
    # maximal terms each equal c, the geometric factor sums the weights
    geo = sum(2.0 ** (-0.5 * j) for j in range(11))
    np.testing.assert_allclose(out.samples, geo * 2 * c, atol=1e-9)


def test_composite_dominates_surrogate_maxima(rng):
    g = make_grid(1, 9, 1.0)
    p, r, beta = 2.0, 1.5, 0.5
    alpha = g.dim * (1 - beta) / p
    ratios = []
    for _ in range(8):
        gd = GridFunction(g, np.abs(rng.normal(size=g.size)))
        f = bessel_smooth(gd, alpha)
        comp = composite_max(f, p, r, beta)
        u = annuli_surrogate(f, dyadic_heights(1.0, grid=g), 0.5, r, 10)
        nt = tangential_max(u, ApproachRegionSpec(beta=beta, t_max=1.0))
        ratios.append(float(np.max(nt.samples / comp.samples)))
    assert max(ratios) < 5.0
    assert max(ratios) / min(ratios) < 3.0


def test_composite_parameter_errors(rng):
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    with pytest.raises(ParameterError):
        composite_max(f, 2.0, 2.5, 0.5)
    with pytest.raises(ParameterError):
        composite_max(f, 2.0, 1.5, 1.0)


def _torus_window_oracle(values, g, radius, mode):
    """Max/min over grid points q whose shortest torus offset from p,
    in steps of h, satisfies (d0^2 + d1^2) h h < radius^2 (1 - 1e-12)."""
    idx = np.arange(g.n)
    d = (idx[None, :] - idx[:, None]) % g.n
    d = np.minimum(d, g.n - d)
    if g.dim == 1:
        inside = d * d * g.h * g.h < radius * radius * (1.0 - 1e-12)
    else:
        d2 = (d * d)[:, None, :, None] + (d * d)[None, :, None, :]
        inside = (d2 * g.h * g.h < radius * radius * (1.0 - 1e-12)).reshape(
            g.size, g.size)
    fill = -np.inf if mode == "max" else np.inf
    picked = np.where(inside, values[None, :], fill)
    return picked.max(axis=1) if mode == "max" else picked.min(axis=1)


@pytest.mark.parametrize("dim,levels", [(1, 6), (2, 4), (2, 5)])
@pytest.mark.parametrize("extent", [1.0, 3.0])
def test_window_extreme_torus_disc_oracle(rng, dim, levels, extent):
    g = make_grid(dim, levels, extent)
    values = rng.normal(size=g.size)
    # from below one spacing to beyond half the torus, where the disc wraps
    radii = [0.6 * g.h, g.h, 1.5 * g.h, 2.7 * g.h, 5 * g.h,
             0.25 * extent, 0.45 * extent, 0.55 * extent, 0.7 * extent,
             1.3 * extent]
    for radius in radii:
        for mode in ("max", "min"):
            np.testing.assert_array_equal(
                window_extreme(values, g, radius, mode),
                _torus_window_oracle(values, g, radius, mode))


@pytest.mark.parametrize("dim,levels", [(1, 6), (2, 4)])
def test_window_extreme_into_out(rng, dim, levels):
    # out may be a separate buffer or the values themselves
    g = make_grid(dim, levels, 1.0)
    values = rng.normal(size=g.size)
    for radius in (0.6 * g.h, 2.7 * g.h, 0.25, 0.7):
        for mode in ("max", "min"):
            fresh = window_extreme(values, g, radius, mode)
            np.testing.assert_array_equal(
                fresh, _torus_window_oracle(values, g, radius, mode))
            out = np.full(g.size, np.nan)
            assert window_extreme(values, g, radius, mode, out=out) is out
            np.testing.assert_array_equal(out, fresh)
            own = values.copy()
            assert window_extreme(own, g, radius, mode, out=own) is own
            np.testing.assert_array_equal(own, fresh)


def test_window_extreme_row_filters_stay_narrower_than_the_torus(
        rng, monkeypatch):
    # rows as wide as the torus take a full-row reduce, not a wider window
    g = make_grid(2, 4, 1.0)
    widths = []
    real = _kernels._circ_folds

    def spy(values, halfwidths, *args):
        widths.extend(2 * k + 1 for k in halfwidths)
        return real(values, halfwidths, *args)

    monkeypatch.setattr(_kernels, "_circ_folds", spy)
    values = rng.normal(size=g.size)
    for radius in (0.45, 0.55, 1.3):
        for mode in ("max", "min"):
            np.testing.assert_array_equal(
                window_extreme(values, g, radius, mode),
                _torus_window_oracle(values, g, radius, mode))
    assert widths and max(widths) < g.n


def test_region_sweeps_match_slice_by_slice_scan(rng):
    # the shared sweep against its definition: per height, weight times
    # the explicit torus-disc max of |u|, folded by max
    g = make_grid(2, 4, 3.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(3.0, grid=g)
    u = poisson_extend(f, hts)
    p, beta = 2.0, 0.5
    spec = ApproachRegionSpec(beta=beta, aperture=2.0, t_max=3.0)
    expo = g.dim * (1.0 - beta) / p

    def scan(terms):
        out = np.zeros(g.size)
        for k, radius, weight in terms:
            wm = _torus_window_oracle(np.abs(u.values[k]), g, radius, "max")
            out = np.maximum(out, weight * wm)
        return out

    usable = [k for k, t in enumerate(hts) if t <= 3.0 * (1 + 1e-12)]
    np.testing.assert_array_equal(
        tangential_max(u, spec).samples,
        scan([(k, spec.radius(hts[k]), 1.0) for k in usable]))
    j = 1
    pref = 2.0 ** (g.dim * j / p)
    dilated = [(k, t / 2 ** j) for k, t in enumerate(hts)
               if t / 2 ** j < 2.0 ** (-j / (1 - beta))]
    np.testing.assert_array_equal(
        dilated_mitigated_max(u, p, beta, j).samples,
        scan([(k, t ** beta, pref * t ** expo) for k, t in dilated]))


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("dim,level", [(1, lev) for lev in range(6, 13)]
                         + [(2, 4), (2, 5)])
@pytest.mark.parametrize("t_max", [1.0, 0.3])
def test_poisson_tangential_max_matches_field_sweep(rng, dim, level, beta,
                                                    t_max):
    g = make_grid(dim, level, 1.0)
    f = bessel_smooth(GridFunction(g, rng.normal(size=g.size)), 0.3)
    hts = dyadic_heights(1.0, grid=g)
    spec = ApproachRegionSpec(beta=beta, aperture=0.7, t_max=t_max)
    np.testing.assert_array_equal(
        maximal.poisson_tangential_max(f, spec).samples,
        tangential_max(poisson_extend(f, hts), spec).samples)


def test_poisson_tangential_max_skips_heights_above_t_max(rng, monkeypatch):
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    seen = []
    real = maximal.poisson_slices

    def spy(f, heights, *args):
        seen.extend(heights)
        return real(f, heights, *args)

    monkeypatch.setattr(maximal, "poisson_slices", spy)
    maximal.poisson_tangential_max(f, ApproachRegionSpec(0.5, t_max=0.3))
    assert seen == [t for t in hts if t <= 0.3]


def _both_paths(f, spec):
    """The streamed sweep and the sweep of the stored field, on the grid's
    ladder."""
    hts = dyadic_heights(1.0, grid=f.grid)
    return [lambda: maximal.poisson_tangential_max(f, spec),
            lambda: tangential_max(poisson_extend(f, hts), spec)]


@pytest.mark.parametrize("hts,match", [
    ((0.25, 0.5, 1.0), "strictly decreasing"),
    ((1.0, math.nan, 0.25), "positive and finite"),
])
def test_poisson_tangential_max_rejects_bad_heights(rng, hts, match):
    # the streamed sweep takes no heights; the stored field validates them
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    with pytest.raises(ParameterError, match=match):
        tangential_max(poisson_extend(f, hts), ApproachRegionSpec(beta=0.5))


def test_poisson_tangential_max_rejects_non_finite_slices():
    # finite samples whose transform overflows to inf
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, np.full(g.size, 1e308))
    for path in _both_paths(f, ApproachRegionSpec(beta=0.5)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ParameterError, match="field values must be finite"):
            path()


def test_poisson_tangential_max_does_not_hold_the_field(rng):
    import tracemalloc

    g = make_grid(1, 16, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    assert len(hts) == 19
    spec = ApproachRegionSpec(beta=0.5)
    peaks = []
    for run in _both_paths(f, spec):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    streamed, field = peaks
    # per height: spectrum 1, |xi| 1/2, multiplier 1/2, product 1, slice 1
    # and running max 1, in units of N * 8 B (7 before the slices were
    # swept in place)
    assert streamed < 5.5 * g.size * 8
    assert field > len(hts) * g.size * 8


def test_poisson_tangential_max_frees_temporary_data_before_sweeping(
        rng, monkeypatch):
    # data passed as a temporary is referenced by nothing once transformed
    g = make_grid(1, 10, 1.0)
    samples = []

    def data():
        f = GridFunction(g, rng.normal(size=g.size))
        samples.append(weakref.ref(f.samples))
        return f

    alive = []
    real = _kernels.circ_max_1d

    def spy(*args, **kwargs):
        alive.append(samples[0]() is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "circ_max_1d", spy)
    maximal.poisson_tangential_max(data(), ApproachRegionSpec(beta=0.5))
    assert alive and not any(alive)


def test_ns_ratio_holds_neither_data_nor_smoothing_while_sweeping(monkeypatch):
    from fatou_lab import experiments
    from fatou_lab.config import ExperimentConfig

    cfg = ExperimentConfig(experiment="nagel-stein-bound", levels=(8, 10),
                           alpha=0.25, p=2.0, seeds=(0,))
    arrays = []
    real_smooth = experiments.bessel_smooth

    def smooth(g, alpha):
        f = real_smooth(g, alpha)
        arrays.extend([weakref.ref(g.samples), weakref.ref(f.samples)])
        return f

    alive = []
    real = _kernels.circ_max_1d

    def spy(*args, **kwargs):
        alive.append([ref() is not None for ref in arrays])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "bessel_smooth", smooth)
    monkeypatch.setattr(_kernels, "circ_max_1d", spy)
    experiments._ns_ratio(10, cfg, 0.3)
    assert len(arrays) == 2 and alive
    assert not any(any(row) for row in alive)
