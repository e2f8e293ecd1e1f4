import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatou_lab import _kernels


def _brute_extreme(v, k, fn):
    n = v.size
    return np.array([fn(v[(i + d) % n] for d in range(-k, k + 1))
                     for i in range(n)])


@pytest.fixture(scope="module")
def backends():
    return _kernels.backends()


def test_backend_reported():
    assert _kernels.BACKEND in ("compiled", "numpy")


def test_circ_extremes_match_brute_force(backends, rng):
    v = rng.normal(size=173)
    for k in (0, 1, 5, 40, 90):
        expect_max = _brute_extreme(v, k, max) if 2 * k + 1 < 173 else \
            np.full(173, v.max())
        expect_min = _brute_extreme(v, k, min) if 2 * k + 1 < 173 else \
            np.full(173, v.min())
        for name, mod in backends.items():
            np.testing.assert_array_equal(mod.circ_max_1d(v, k), expect_max)
            np.testing.assert_array_equal(mod.circ_min_1d(v, k), expect_min)


def test_circ_sum_matches_brute_force(backends, rng):
    v = rng.normal(size=97)
    for k in (0, 3, 11, 48, 60):
        if 2 * k + 1 >= 97:
            expect = np.full(97, v.sum())
        else:
            expect = np.array([sum(v[(i + d) % 97] for d in range(-k, k + 1))
                               for i in range(97)])
        for name, mod in backends.items():
            np.testing.assert_allclose(mod.circ_sum_1d(v, k), expect,
                                       atol=1e-10)


def test_slobodeckij_agreement(backends, rng):
    v = rng.normal(size=64)
    v2 = rng.normal(size=(8, 8))
    mask = (rng.uniform(size=64) > 0.3).astype(float)
    results = {}
    for name, mod in backends.items():
        results[name] = (
            mod.slobodeckij_1d(v, 1 / 64, 1.0, 0.4, 2.0),
            mod.slobodeckij_1d(v, 1 / 64, 1.0, 0.4, 1.7, mask),
            mod.slobodeckij_2d(v2, 1 / 8, 1.0, 0.6, 2.0),
        )
    vals = list(results.values())
    for got in vals[1:]:
        for a, b in zip(vals[0], got):
            assert a == pytest.approx(b, rel=1e-12)


def test_slobodeckij_brute_force_oracle(backends, rng):
    v = rng.normal(size=24)
    h, sigma, p = 1 / 24, 0.5, 2.0
    total = 0.0
    for i in range(24):
        for j in range(24):
            if i == j:
                continue
            d = abs(i - j)
            dist = h * min(d, 24 - d)
            total += abs(v[i] - v[j]) ** p / dist ** (1 + sigma * p)
    total *= h * h
    for name, mod in backends.items():
        assert mod.slobodeckij_1d(v, h, 1.0, sigma, p) == pytest.approx(
            total, rel=1e-10)


def test_bench_runs_and_reports(capsys):
    from fatou_lab import bench

    rows = bench.run(sizes=(256,))
    assert len(rows) == 4
    out = capsys.readouterr().out
    assert "backend in use" in out


def test_min_dist_agreement(backends, rng):
    phi = rng.normal(size=128) * 0.2
    qt = rng.uniform(0.5, 1.5, size=300)
    qx = rng.uniform(0.0, 1.0, size=300)
    results = [mod.min_dist_graph_1d(qt, qx, phi, 1 / 128, 1.0)
               for mod in backends.values()]
    for got in results[1:]:
        np.testing.assert_allclose(results[0], got, atol=1e-12)
    # brute force on a few queries
    xs = np.arange(128) / 128
    for i in range(10):
        dx = np.abs(qx[i] - xs)
        dx = np.minimum(dx, 1.0 - dx)
        expect = np.sqrt(np.min(dx ** 2 + (qt[i] - phi) ** 2))
        assert results[0][i] == pytest.approx(expect, rel=1e-12)


def _brute_min_dist(qt, qx, phi, h, extent):
    """Every query against every sample, with the kernel's float expressions."""
    qt = np.asarray(qt, dtype=np.float64)
    qx = np.asarray(qx, dtype=np.float64)
    xs = h * np.arange(phi.size)
    dx = np.abs(qx[:, None] - xs[None, :])
    dx = np.minimum(dx, extent - dx)
    dt = qt[:, None] - phi[None, :]
    return np.sqrt(np.min(dx * dx + dt * dt, axis=1))


def _assert_min_dist_exact(backends, qt, qx, phi, h, extent):
    expect = _brute_min_dist(qt, qx, phi, h, extent)
    for name, mod in backends.items():
        np.testing.assert_array_equal(
            mod.min_dist_graph_1d(qt, qx, phi, h, extent), expect)


def test_min_dist_on_and_off_grid(backends, rng):
    n, extent = 128, 1.0
    h = extent / n
    phi = np.cumsum(rng.normal(size=n)) * h
    ix = rng.integers(0, n, size=200)
    on_grid = ix * h
    off_grid = rng.uniform(0.0, extent, size=200)
    gaps = np.exp(rng.uniform(np.log(h / 8), 0.0, size=200))
    for qx in (on_grid, off_grid):
        _assert_min_dist_exact(backends, phi[ix] + gaps, qx, phi, h, extent)


def test_min_dist_torus_seam(backends, rng):
    n, extent = 128, 2.0
    h = extent / n
    phi = np.sin(2 * np.pi * h * np.arange(n) / extent) * 0.3
    qx = np.concatenate([
        [0.0, 1e-300, 1e-17, h / 3, extent, extent - 1e-16, extent - h / 3],
        rng.uniform(0.0, 2 * h, size=40),
        rng.uniform(extent - 2 * h, extent, size=40)])
    qt = np.full(qx.size, 0.05)
    qt[::2] = rng.uniform(-0.5, 0.5, size=qt[::2].size)
    _assert_min_dist_exact(backends, qt, qx, phi, h, extent)


def test_min_dist_below_and_inside_band(backends, rng):
    n, extent = 128, 1.0
    h = extent / n
    phi = rng.uniform(-0.2, 0.2, size=n)
    qx = rng.uniform(0.0, extent, size=300)
    below = phi.min() - np.exp(rng.uniform(np.log(h / 8), 0.0, size=100))
    inside = rng.uniform(phi.min(), phi.max(), size=100)
    above = phi.max() + rng.uniform(0.0, 1.0, size=100)
    qt = np.concatenate([below, inside, above])
    _assert_min_dist_exact(backends, qt, qx, phi, h, extent)


def test_min_dist_flat_profile(backends, rng):
    # the vertical clearance equals the seed distance for on-grid queries,
    # so the sweep keeps a single offset; off-grid queries keep a few
    n, extent = 128, 1.0
    h = extent / n
    phi = np.full(n, 0.75)
    qx = np.concatenate([rng.integers(0, n, size=100) * h,
                         rng.uniform(0.0, extent, size=100)])
    qt = 0.75 + np.concatenate([np.exp(rng.uniform(-8.0, 1.0, size=100)),
                                -np.exp(rng.uniform(-8.0, 1.0, size=100))])
    _assert_min_dist_exact(backends, qt, qx, phi, h, extent)
    for name, mod in backends.items():
        got = mod.min_dist_graph_1d(qt[:100], qx[:100], phi, h, extent)
        np.testing.assert_array_equal(got, np.abs(qt[:100] - 0.75))


@pytest.mark.parametrize("n", [1, 2, 3, 128])
def test_min_dist_small_sample_counts(backends, rng, n):
    extent = 1.0
    h = extent / n
    phi = rng.normal(size=n) * 0.3
    qx = np.concatenate([rng.uniform(-0.5, 1.5, size=60), h * np.arange(n)])
    qt = rng.uniform(-1.0, 1.0, size=qx.size)
    _assert_min_dist_exact(backends, qt, qx, phi, h, extent)


def test_min_dist_empty_queries(backends):
    for name, mod in backends.items():
        out = mod.min_dist_graph_1d(np.empty(0), np.empty(0), np.zeros(8),
                                    1 / 8, 1.0)
        assert out.shape == (0,)


@settings(max_examples=60, deadline=None)
@given(levels=st.integers(0, 9),
       extent=st.sampled_from([1.0, 0.3, 2 * np.pi, 40.0]),
       slope=st.floats(0.0, 4.0),
       seed=st.integers(0, 2 ** 31),
       lift=st.floats(-3.0, 3.0))
def test_min_dist_property(levels, extent, slope, seed, lift):
    n = 1 << levels
    h = extent / n
    r = np.random.Generator(np.random.Philox(key=seed))
    phi = lift + slope * h * np.cumsum(r.uniform(-1.0, 1.0, size=n))
    m = 64
    on_grid = r.integers(0, n, size=m // 2)
    qx = np.concatenate([on_grid * h,
                         r.uniform(-0.25 * extent, 1.25 * extent,
                                   size=m - m // 2)])
    gap = np.exp(r.uniform(np.log(h / 16), np.log(2 * extent), size=m))
    qt = np.concatenate([phi[on_grid], r.choice(phi, size=m - m // 2)])
    qt = qt + gap * r.choice([-1.0, 1.0], size=m)
    _assert_min_dist_exact(_kernels.backends(), qt, qx, phi, h, extent)
