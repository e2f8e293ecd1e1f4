"""Two-dimensional paths through the operator stack."""

import math

import numpy as np
import pytest

from fatou_lab.extension import annuli_surrogate, dyadic_heights, poisson_extend
from fatou_lab.fractal import PointSet, box_dimension
from fatou_lab.grid import GridFunction, from_callable, lp_norm, make_grid
from fatou_lab.maximal import ApproachRegionSpec, hl_max_q, tangential_max
from fatou_lab.potentials import (bessel_smooth, dyadic_scales, sharp_maximal,
                                  slobodeckij_seminorm, spectral_derivative)
from reference import ball_average, region_contains


def test_poisson_extend_2d_eigenfunction():
    g = make_grid(2, 6, 1.0)
    f = from_callable(g, lambda x, y: np.cos(2 * np.pi * x))
    hts = dyadic_heights(1.0, grid=g)
    u = poisson_extend(f, hts)
    for k, t in enumerate(hts):
        np.testing.assert_allclose(u.values[k],
                                   math.exp(-2 * math.pi * t) * f.samples,
                                   atol=1e-12)


def test_tangential_max_2d_constant_and_monotone(rng):
    g = make_grid(2, 5, 1.0)
    const = from_callable(g, lambda x, y: np.full_like(x, 1.5))
    u = poisson_extend(const, dyadic_heights(1.0, grid=g))
    out = tangential_max(u, ApproachRegionSpec(beta=0.5, t_max=1.0))
    np.testing.assert_allclose(out.samples, 1.5, atol=1e-12)
    f = GridFunction(g, rng.normal(size=g.size))
    uf = poisson_extend(f, dyadic_heights(1.0, grid=g))
    n1 = tangential_max(uf, ApproachRegionSpec(beta=0.4))
    n2 = tangential_max(uf, ApproachRegionSpec(beta=0.9))
    assert np.all(n1.samples >= n2.samples - 1e-12)


def test_region_contains_2d():
    spec = ApproachRegionSpec(beta=0.5, aperture=1.0)
    assert region_contains(spec, (0.0, 0.0), 0.04, (0.1, 0.1), extent=8.0)
    assert not region_contains(spec, (0.0, 0.0), 0.04, (0.2, 0.1), extent=8.0)


def test_sharp_maximal_2d_kills_affine():
    g = make_grid(2, 6, 1.0)
    aff = from_callable(g, lambda x, y: 0.2 + 0.3 * x + 0.5 * y)
    scales = [r for r in dyadic_scales(g) if r <= 1 / 8]
    sharp = sharp_maximal(aff, 0.5, scales)
    # off the torus seam the ball mean leaves affine data the same
    # residual on every ball of a scale: one value across the band
    band = sharp.samples.reshape(g.shape)[16:48, 16:48]
    assert np.ptp(band) <= 1e-12 * band.max()
    const = from_callable(g, lambda x, y: np.full_like(x, 3.0))
    assert np.abs(sharp_maximal(const, 0.5, scales).samples).max() < 1e-12


def test_ball_average_2d_direct_oracle(rng):
    g = make_grid(2, 5, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    center, radius = (0.4, 0.6), 0.17
    xs = g.axis_coords()
    x0, x1 = np.meshgrid(xs, xs, indexing="ij")
    d0 = np.minimum(np.abs(x0 - center[0]), 1 - np.abs(x0 - center[0]))
    d1 = np.minimum(np.abs(x1 - center[1]), 1 - np.abs(x1 - center[1]))
    inside = (d0 ** 2 + d1 ** 2 < radius ** 2).reshape(-1)
    expect = np.mean(np.abs(f.samples[inside]) ** 2) ** 0.5
    assert ball_average(f, center, radius, 2.0) == pytest.approx(expect,
                                                                 rel=1e-12)


def test_annuli_surrogate_2d_constant():
    g = make_grid(2, 5, 1.0)
    const = from_callable(g, lambda x, y: np.full_like(x, 2.0))
    w = annuli_surrogate(const, (0.1, 0.05), 0.5, 1.5, 8)
    geo = sum(2.0 ** (-0.5 * j) for j in range(9))
    assert np.abs(w.values - 2.0 * geo).max() < 1e-10


def test_hl_max_q_2d_monotone_in_q(rng):
    g = make_grid(2, 5, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    a, b = hl_max_q(f, 1.0), hl_max_q(f, 2.0)
    assert np.all(a.samples >= 0)
    assert np.all(a.samples <= b.samples + 1e-12)


def test_spectral_derivative_2d_mixed():
    g = make_grid(2, 5, 1.0)
    f = from_callable(g, lambda x, y: np.cos(2 * np.pi * x)
                      * np.sin(2 * np.pi * y))
    d = spectral_derivative(f, (1, 1))
    expect = from_callable(g, lambda x, y: (2 * np.pi) ** 2
                           * -np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    np.testing.assert_allclose(d.samples, expect.samples, atol=1e-9)


def test_slobodeckij_2d_translation_invariance(rng):
    g = make_grid(2, 3, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    rolled = GridFunction(g, np.roll(f.as_array(), (3, 5),
                                     axis=(0, 1)).reshape(-1))
    a = slobodeckij_seminorm(f, 0.4, 2.0)
    b = slobodeckij_seminorm(rolled, 0.4, 2.0)
    assert a == pytest.approx(b, rel=1e-10)


def test_box_dimension_2d_plane_and_point():
    g = make_grid(2, 8, 1.0)
    xs = g.h * np.arange(g.n)
    full = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    bd = box_dimension(PointSet(points=full, grid=g), (2, 6))
    assert abs(bd.slope - 2.0) <= 0.05
    one = PointSet(points=np.array([[0.3, 0.7]]), grid=g)
    assert abs(box_dimension(one, (2, 6)).slope) <= 0.05


def test_contraction_2d(rng):
    g = make_grid(2, 5, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    sm = bessel_smooth(f, 0.7)
    for p in (1.0, 2.0, math.inf):
        assert lp_norm(sm, p) <= lp_norm(f, p) * (1 + 1e-8)
