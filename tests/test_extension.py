import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fatou_lab.errors import ParameterError
from fatou_lab.extension import (HalfSpaceField, annuli_surrogate, dyadic_heights,
                                 load_half_space_field, poisson_extend,
                                 save_half_space_field)
from fatou_lab.grid import (GridFunction, fft_convolve, from_callable, make_grid)
from fatou_lab.kernels import KernelSpec, poisson_kernel, sampled_kernel


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


def test_built_fields_are_read_only_and_checked(tmp_path, rng):
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    hts = dyadic_heights(1.0, grid=g)
    u = poisson_extend(f, hts)
    assert not np.shares_memory(u.values, f.samples)
    path = tmp_path / "u.flhf"
    save_half_space_field(path, u)
    surrogate = annuli_surrogate(GridFunction(g, np.abs(f.samples)), hts,
                                 0.5, 1.5, 4)
    for field in (u, surrogate, load_half_space_field(path)):
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
    with pytest.raises(ParameterError):
        annuli_surrogate(f, (0.1,), 0.5, 0.5, 5)
    with pytest.raises(ParameterError):
        annuli_surrogate(f, (0.1,), 0.5, 1.5, 0)


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


def test_field_binary_round_trip(tmp_path, rng):
    g = make_grid(1, 6, 2.0)
    f = GridFunction(g, rng.normal(size=g.size))
    u = poisson_extend(f, dyadic_heights(0.5, count=4))
    path = tmp_path / "u.flhf"
    save_half_space_field(path, u)
    back = load_half_space_field(path)
    assert back.grid == g
    assert back.heights == u.heights
    np.testing.assert_array_equal(back.values, u.values)


_FILE_FUZZ = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def _field_bytes(path):
    g = make_grid(1, 3, 1.0)
    f = GridFunction(g, np.arange(g.size, dtype=float))
    save_half_space_field(path, poisson_extend(f, dyadic_heights(0.5, count=2)))
    return path.read_bytes()


@_FILE_FUZZ
@given(frac=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_field_file_raises(tmp_path, frac):
    path = tmp_path / "u.flhf"
    data = _field_bytes(path)
    path.write_bytes(data[:int(frac * len(data))])
    with pytest.raises(ParameterError):
        load_half_space_field(path)


@_FILE_FUZZ
@given(blob=st.binary(max_size=200))
def test_fuzzed_field_file_loads_or_raises_parameter_error(tmp_path, blob):
    path = tmp_path / "u.flhf"
    path.write_bytes(b"FLHF" + struct.pack("<I", 1) + blob)
    try:
        u = load_half_space_field(path)
    except ParameterError:
        return
    assert u.values.shape == (len(u.heights), u.grid.size)
    assert all(0.0 < t < math.inf for t in u.heights)
