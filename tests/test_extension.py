import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatou_lab import extension
from fatou_lab.errors import ParameterError
from fatou_lab.extension import (HalfSpaceField, annuli_surrogate, dyadic_heights,
                                 poisson_extend)
from fatou_lab.grid import (GridFunction, fft_convolve, from_callable, make_grid)
from reference import (KernelSpec, annuli_surrogate_per_pair, poisson_kernel,
                       sampled_kernel)


def test_heights_validation(rng):
    g = make_grid(1, 5, 1.0)
    vals = rng.normal(size=(3, g.size))
    with pytest.raises(ParameterError):
        HalfSpaceField(grid=g, heights=(0.5, 0.5, 0.25), values=vals)
    with pytest.raises(ParameterError):
        HalfSpaceField(grid=g, heights=(0.5, -0.25, -0.5), values=vals)
    hts = dyadic_heights(1.0, grid=g)
    assert len(hts) == g.levels + 3
    assert hts[-1] == pytest.approx(g.h / 4)


def test_poisson_extend_constant_and_eigenfunction():
    g = make_grid(1, 10, 1.0)
    const = from_callable(g, lambda x: np.full_like(x, 2.5))
    hts = dyadic_heights(1.0, grid=g)
    u = poisson_extend(const, hts)
    assert np.abs(u.values - 2.5).max() < 1e-12
    cos = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    uc = poisson_extend(cos, hts)
    for k, t in enumerate(hts):
        np.testing.assert_allclose(uc.values[k],
                                   math.exp(-2 * math.pi * t) * cos.samples,
                                   atol=1e-12)


def test_field_copies_the_callers_array(rng):
    g = make_grid(1, 5, 1.0)
    vals = rng.normal(size=(2, g.size))
    u = HalfSpaceField(grid=g, heights=(0.5, 0.25), values=vals)
    before = u.values.copy()
    vals[:] = 7.0
    np.testing.assert_array_equal(u.values, before)
    # a read-only view does not protect a writeable base
    view = vals.view()
    view.flags.writeable = False
    v = HalfSpaceField(grid=g, heights=(0.5, 0.25), values=view)
    vals[:] = 3.0
    assert np.all(v.values == 7.0)
    assert not np.shares_memory(u.values, vals)
    assert not np.shares_memory(v.values, vals)


def test_built_fields_are_read_only_and_checked(rng):
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    u = poisson_extend(f, hts)
    assert not np.shares_memory(u.values, f.samples)
    surrogate = annuli_surrogate(GridFunction(g, np.abs(f.samples)), hts,
                                 0.5, 1.5, 4)
    for field in (u, surrogate):
        assert not field.values.flags.writeable
        with pytest.raises(ValueError):
            field.values[0, 0] = 1.0
    with pytest.raises(ParameterError):
        poisson_extend(f, (0.25, 0.5))


def test_poisson_extend_indicator_direct_quadrature():
    # padded torus per the wrap-around convention; oracle integrates the
    # real-line kernel against the data support directly
    g = make_grid(1, 12, 4.0)
    f = from_callable(g, lambda x: ((x >= 0.25) & (x < 0.75)).astype(float))
    t = 0.01
    u = poisson_extend(f, (t,))
    xs = g.axis_coords()
    support = np.nonzero(f.samples)[0]
    direct = sum(poisson_kernel(1, t, 0.5 - xs[i]) * g.h for i in support)
    assert abs(u.values[0][int(round(0.5 / g.h))] - direct) < 1e-3


def test_poisson_extend_matches_sampled_kernel(rng):
    g = make_grid(1, 12, 4.0)
    half = np.zeros(g.n // 2 + 1, complex)
    half[1:64] = rng.normal(size=63) + 1j * rng.normal(size=63)
    f = GridFunction(g, np.fft.irfft(half, n=g.n))
    for mult in (8, 16, 64):
        t = mult * g.h
        u = poisson_extend(f, (t,))
        conv = fft_convolve(f, sampled_kernel(KernelSpec("poisson", 1, scale=t), g))
        assert np.abs(u.values[0] - conv.samples).max() <= 1e-4


def test_poisson_semigroup_property(rng):
    g = make_grid(1, 9, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    s, t = 0.0625, 0.125
    u_st = poisson_extend(f, (s + t,))
    inner = poisson_extend(f, (s,))
    outer = poisson_extend(GridFunction(g, inner.values[0]), (t,))
    np.testing.assert_allclose(u_st.values[0], outer.values[0], atol=1e-10)


def test_poisson_maximum_principle(rng):
    g = make_grid(1, 9, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    u = poisson_extend(f, dyadic_heights(1.0, grid=g))
    assert u.values.max() <= f.samples.max() + 1e-9
    assert u.values.min() >= f.samples.min() - 1e-9


def test_annuli_constant_formula():
    g = make_grid(1, 9, 1.0)
    c = 1.7
    const = from_callable(g, lambda x: np.full_like(x, c))
    alpha_L, J = 0.5, 12
    w = annuli_surrogate(const, (0.25, 0.125), alpha_L, 1.0, J)
    expect = c * (1 - 2.0 ** (-alpha_L * (J + 1))) / (1 - 2.0 ** (-alpha_L))
    assert np.abs(w.values - expect).max() < 1e-10


def test_annuli_spike_monotone_in_distance():
    g = make_grid(1, 10, 1.0)
    spike = np.zeros(g.size)
    spike[g.n // 2] = 1.0
    w = annuli_surrogate(GridFunction(g, spike), (0.01,), 0.5, 1.0, 10)
    row = w.values[0]
    # direct-summation oracle at a few points plus monotonicity by annuli
    left = row[: g.n // 2 + 1]
    assert np.all(np.diff(left) >= -1e-12)


def test_annuli_tail_bound():
    g = make_grid(1, 9, 1.0)
    f = from_callable(g, lambda x: 1.0 + np.sin(2 * np.pi * x) ** 2)
    alpha_L = 0.5
    hts = (0.125, 0.0625)
    w1 = annuli_surrogate(f, hts, alpha_L, 1.5, 10)
    w2 = annuli_surrogate(f, hts, alpha_L, 1.5, 15)
    assert np.abs(w2.values - w1.values).max() <= w1.meta["tail_bound"]
    assert w1.meta["tail_bound"] == pytest.approx(
        2.0 ** (-alpha_L * 10) / (1 - 2.0 ** (-alpha_L))
        * np.abs(f.samples).max())


def test_annuli_parameter_errors(rng):
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, np.abs(rng.normal(size=g.size)))
    with pytest.raises(ParameterError):
        annuli_surrogate(f, (0.1,), 0.0, 1.5, 5)
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(ParameterError):
            annuli_surrogate(f, (0.1,), 0.5, r, 5)
    with pytest.raises(ParameterError):
        annuli_surrogate(f, (0.1,), 0.5, 1.5, 0)


def _ladders(grid):
    """The default dyadic ladder, one from t0 = 0.3, and one of ratio 0.9."""
    return {"dyadic 1": dyadic_heights(1.0, grid=grid),
            "dyadic 0.3": dyadic_heights(0.3, grid=grid),
            "0.9^k": tuple(0.9 ** k for k in range(grid.levels + 3))}


@pytest.mark.parametrize("dim, levels", [(1, 8), (1, 9), (1, 10), (1, 11),
                                         (1, 12), (2, 5)])
def test_annuli_matches_per_pair_loop(dim, levels):
    # sharing one ball mean per distinct radius changes no bit
    g = make_grid(dim, levels, 1.0)
    f = GridFunction(g, np.abs(np.random.default_rng(levels).normal(size=g.size)))
    for hts in _ladders(g).values():
        for J in (1, 3, 20):
            for r in (1.0, 1.5, 2.0):
                got = annuli_surrogate(f, hts, 0.5, r, J)
                want = annuli_surrogate_per_pair(f, hts, 0.5, r, J)
                np.testing.assert_array_equal(got.values, want.values)
                assert got.meta["tail_bound"] == want.meta["tail_bound"]


def test_annuli_one_ball_mean_per_distinct_radius(rng, monkeypatch):
    g = make_grid(1, 10, 1.0)
    f = GridFunction(g, np.abs(rng.normal(size=g.size)))
    radii = []
    real = extension.ball_mean_all_centers

    def spy(f, radius, q=1.0):
        radii.append(radius)
        return real(f, radius, q)

    monkeypatch.setattr(extension, "ball_mean_all_centers", spy)
    J = 20
    for name, hts in _ladders(g).items():
        radii.clear()
        annuli_surrogate(f, hts, 0.5, 1.5, J)
        distinct = {min(2.0 ** (j + 1) * t, g.extent / 4.0)
                    for t in hts for j in range(J + 1)}
        assert radii == sorted(distinct), name
    # the default ladder has levels + 3 heights, and its radii 2^-m are
    # capped at extent/4: levels distinct radii for (levels + 3)(J + 1) pairs
    for levels, pairs in ((8, 231), (10, 273), (12, 315)):
        grid = make_grid(1, levels, 1.0)
        hts = dyadic_heights(1.0, grid=grid)
        radii.clear()
        annuli_surrogate(GridFunction(grid, np.ones(grid.size)), hts, 0.5,
                         1.5, J)
        assert len(hts) * (J + 1) == pairs
        assert len(radii) == levels


@pytest.mark.parametrize("heights", [(math.nan, 0.5), (0.0,),
                                     (0.5, 0.5), (math.inf, 1.0)])
def test_annuli_checks_heights_before_any_ball_mean(rng, monkeypatch, heights):
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, np.abs(rng.normal(size=g.size)))

    def no_ball_mean(*args):
        raise AssertionError("ball mean computed before the height check")

    monkeypatch.setattr(extension, "ball_mean_all_centers", no_ball_mean)
    with pytest.raises(ParameterError, match="heights must be"):
        annuli_surrogate(f, heights, 0.5, 1.5, 5)


def test_domination_transfer(rng):
    # if f = G * g slicewise then the surrogate of f is dominated by the
    # convolution of G with the surrogate of g
    g = make_grid(1, 9, 1.0)
    dens = GridFunction(g, np.abs(rng.normal(size=g.size)))
    kern = sampled_kernel(KernelSpec("bessel", 1, order=0.8), g)
    f = fft_convolve(kern, dens)
    hts = (0.25, 0.0625, 0.015625)
    wf = annuli_surrogate(f, hts, 0.5, 1.5, 8)
    wg = annuli_surrogate(dens, hts, 0.5, 1.5, 8)
    for k in range(len(hts)):
        conv = fft_convolve(kern, GridFunction(g, wg.values[k]))
        assert np.all(wf.values[k] <= conv.samples + 1e-6)


def test_field_binary_round_trip(rng):
    # a field rebuilt from another's grid, heights and values equals it
    g = make_grid(1, 6, 2.0)
    f = GridFunction(g, rng.normal(size=g.size))
    u = poisson_extend(f, dyadic_heights(0.5, grid=g))
    back = HalfSpaceField(grid=u.grid, heights=u.heights, values=u.values)
    assert back.grid == g
    assert back.heights == u.heights
    np.testing.assert_array_equal(back.values, u.values)


_FIELD_FUZZ = settings(max_examples=40, deadline=None)


@_FIELD_FUZZ
@given(frac=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_field_file_raises(frac):
    # values that do not fill every height's slice are rejected
    g = make_grid(1, 3, 1.0)
    vals = np.arange(3 * g.size, dtype=float)
    with pytest.raises(ParameterError, match="values shape"):
        HalfSpaceField(grid=g, heights=(0.5, 0.25, 0.125),
                       values=vals[:int(frac * vals.size)])


@_FIELD_FUZZ
@given(heights=st.lists(st.floats(), max_size=4),
       size=st.integers(0, 40))
def test_fuzzed_field_file_loads_or_raises_parameter_error(heights, size):
    g = make_grid(1, 3, 1.0)
    try:
        u = HalfSpaceField(grid=g, heights=tuple(heights),
                           values=np.ones(size))
    except ParameterError:
        return
    assert u.values.shape == (len(u.heights), u.grid.size)
    assert all(0.0 < t < math.inf for t in u.heights)
    assert all(b < a for a, b in zip(u.heights, u.heights[1:]))


def test_field_save_writes_without_copying_the_values(rng):
    # poisson_extend adopts the values it built: one array of the field's
    # size plus a few slices and the finiteness mask, no copy of it
    g = make_grid(1, 14, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    # a first call loads what NumPy imports lazily; tracemalloc counts that
    poisson_extend(GridFunction(make_grid(1, 3, 1.0), np.ones(8)), (1.0,))
    tracemalloc.start()
    try:
        u = poisson_extend(f, hts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.values.nbytes * 3 / 2


@pytest.mark.parametrize("dim,level", [(1, 7), (2, 4)])
def test_poisson_extend_matches_per_height_transforms(rng, dim, level):
    from fatou_lab.extension import poisson_slices

    g = make_grid(dim, level, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    axes = tuple(range(dim))
    xi = np.fft.fftfreq(g.n, d=g.h)
    half = xi[: g.n // 2 + 1]
    mag = np.sqrt(half ** 2 if dim == 1
                  else xi[:, None] ** 2 + half[None, :] ** 2)
    spec = np.fft.rfftn(f.as_array(), axes=axes)
    expect = np.stack([
        np.fft.irfftn(spec * np.exp(-2.0 * math.pi * t * mag), s=g.shape,
                      axes=axes).reshape(-1) for t in hts])
    np.testing.assert_array_equal(poisson_extend(f, hts).values, expect)
    np.testing.assert_array_equal(np.stack(list(poisson_slices(f, hts))), expect)


def test_poisson_exactness_holds_one_slice_at_a_time():
    # f 1, spectrum 1, |xi| 1/2, multiplier 1/2, product 1, slice 1 and the
    # expected slice 1, in units of N * 8 B; 8 while zip kept the previous
    # slice alive during the next transform
    from fatou_lab import experiments
    from fatou_lab.config import ExperimentConfig

    cfg = ExperimentConfig(experiment="poisson-exactness", levels=(16,),
                           seeds=(0,))
    tracemalloc.start()
    try:
        rep = experiments._run_poisson_exactness(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.stats["max_slice_error"] <= 1e-12
    assert peak < 7 * (1 << 16) * 8
