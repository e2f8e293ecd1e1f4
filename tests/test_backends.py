import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fatou_lab
from fatou_lab import _kernels, maximal
from fatou_lab.grid import GridFunction, make_grid
from fatou_lab.potentials import bessel_smooth


def _brute_extreme(v, k, fn):
    n = v.size
    return np.array([fn(v[(i + d) % n] for d in range(-k, k + 1))
                     for i in range(n)])


def test_backend_reported():
    assert fatou_lab.BACKEND == "numpy"


def test_circ_extremes_match_brute_force(rng):
    v = rng.normal(size=173)
    for k in (0, 1, 5, 40, 90):
        expect_max = _brute_extreme(v, k, max) if 2 * k + 1 < 173 else \
            np.full(173, v.max())
        expect_min = _brute_extreme(v, k, min) if 2 * k + 1 < 173 else \
            np.full(173, v.min())
        np.testing.assert_array_equal(_kernels.circ_max_1d(v, k, None, None), expect_max)
        np.testing.assert_array_equal(_kernels.circ_min_1d(v, k, None, None), expect_min)


def test_circ_extremes_into_out(rng):
    # halfwidth <= 0, a window covering the circle, and the window filter,
    # each into a separate buffer and into the values themselves
    v = rng.normal(size=173)
    for k in (-1, 0, 1, 5, 86, 90):
        for fn, pick in ((_kernels.circ_max_1d, max), (_kernels.circ_min_1d, min)):
            expect = _brute_extreme(v, max(k, 0), pick) if 2 * k + 1 < 173 \
                else np.full(173, pick(v))
            fresh = fn(v, k, None, None)
            np.testing.assert_array_equal(fresh, expect)
            out = np.full(173, np.nan)
            assert fn(v, k, out, None) is out
            np.testing.assert_array_equal(out, fresh)
            own = v.copy()
            assert fn(own, k, own, None) is own
            np.testing.assert_array_equal(own, fresh)


def _grown_windows(v, fold):
    """Brute-force window extremes for K = 0, 1, 2, ...: the window of K
    is the window of K - 1 with the samples at i - K and i + K folded in."""
    acc = v.copy()
    k = 0
    while True:
        yield k, acc
        k += 1
        acc = fold(fold(acc, np.roll(v, k)), np.roll(v, -k))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 96, 1000])
def test_circ_extremes_every_halfwidth(rng, n):
    # every K up to past half the circle, so 2K+1 runs through n-1, n and
    # n+1; infinite samples of both signs; out as None, a separate array
    # and the values themselves
    v = rng.normal(size=n)
    if n >= 2:
        v[rng.permutation(n)[:2]] = (np.inf, -np.inf)
    for fn, fold in ((_kernels.circ_max_1d, np.maximum),
                     (_kernels.circ_min_1d, np.minimum)):
        grown = _grown_windows(v, fold)
        for k, expect in grown:
            if k > n // 2 + 1:
                break
            np.testing.assert_array_equal(fn(v, k, None, None), expect)
            out = np.full(n, np.nan)
            assert fn(v, k, out, None) is out
            np.testing.assert_array_equal(out, expect)
            own = v.copy()
            assert fn(own, k, own, np.full(n, np.nan)) is own
            np.testing.assert_array_equal(own, expect)
        np.testing.assert_array_equal(fn(v, -1, None, None), v)


@pytest.mark.parametrize("n,ks", [(40000, (700, 2100, 4500)),
                                  (70001, (3000, 9000))])
def test_circ_extremes_across_chunks(rng, n, ks):
    # arrays long enough to build the low doubling levels chunk by chunk,
    # with windows that need levels beyond them
    v = np.cumsum(rng.normal(size=n))
    for fn, fold in ((_kernels.circ_max_1d, np.maximum),
                     (_kernels.circ_min_1d, np.minimum)):
        for k in ks:
            ext = np.concatenate([v[-k:], v, v[:k]])
            windows = np.lib.stride_tricks.sliding_window_view(ext, 2 * k + 1)
            expect = windows.max(axis=1) if fold is np.maximum \
                else windows.min(axis=1)
            np.testing.assert_array_equal(fn(v, k, None, None), expect)


def _rolled_doubling(v, k, fold):
    """Window extremes of 2K+1 by whole-array rolls: the fold of the 2^j
    samples from each index, doubled until 2^(j+1) > 2K+1, read at two
    offsets."""
    size, span, level = 2 * k + 1, 1, v
    while 2 * span <= size:
        level = fold(level, np.roll(level, -span))
        span *= 2
    return fold(np.roll(level, k), np.roll(level, k + span - size))


@pytest.mark.parametrize("n", [1 << 18, (1 << 18) + 1000])
@pytest.mark.parametrize("k", [511, 512, 4095, 4096, 5000, 8192, 70000,
                               131071])
def test_circ_extremes_on_a_large_array(rng, n, k):
    # windows from just below and above the longest level built in chunks
    # up to half the circle, on arrays that are and are not a multiple of
    # the chunk
    small = rng.normal(size=96)
    for j, expect in _grown_windows(small, np.maximum):
        if j == 48:
            break
        np.testing.assert_array_equal(_rolled_doubling(small, j, np.maximum),
                                      expect)
    v = np.cumsum(rng.normal(size=n))
    v[rng.permutation(n)[:2]] = (np.inf, -np.inf)
    for fn, fold in ((_kernels.circ_max_1d, np.maximum),
                     (_kernels.circ_min_1d, np.minimum)):
        np.testing.assert_array_equal(fn(v, k, None, None), _rolled_doubling(v, k, fold))


def test_circ_extremes_given_work_allocate_no_grid_array(rng):
    n = 1 << 16
    v = rng.normal(size=n)
    work = np.empty(n)
    for k in (1, 100, 5000, n // 2 - 1):
        for fn in (_kernels.circ_max_1d, _kernels.circ_min_1d):
            tracemalloc.start()
            try:
                fn(v, k, v, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * 8 / 2


def _row_run_oracle(arr, dys, ws, fold):
    # the definition: fold arr[(i + dy) % n, (j + dx) % n] over every run
    # offset (dy, dx), |dx| <= w
    acc = None
    for dy, w in zip(dys.tolist(), ws.tolist()):
        for dx in range(-w, w + 1):
            shifted = np.roll(arr, (-dy, -dx), axis=(0, 1))
            acc = shifted if acc is None else fold(acc, shifted)
    return acc


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_row_filters_match_their_definition(rng, n):
    # widths 0 to past the row, repeated widths, and row offsets of both
    # signs beyond the torus; out separate or the array itself
    arr = rng.normal(size=(n, n))
    arr.flat[rng.permutation(n * n)[:2]] = (np.inf, -np.inf) if n > 1 else 0.0
    dys = np.array([-n - 1, -2, -1, 0, 0, 1, 3, n])
    ws = np.array([1, 0, n // 2, n, 2, n // 2 - 1, 1, 0]).clip(0)
    for filt, fold in ((maximal.maximum_filter, np.maximum),
                       (maximal.minimum_filter, np.minimum)):
        for pick in ([0], [1, 3], [2, 4, 6], list(range(8))):
            expect = _row_run_oracle(arr, dys[pick], ws[pick], fold)
            out = np.full((n, n), np.nan)
            assert filt(arr, dys[pick], ws[pick], out, None) is out
            np.testing.assert_array_equal(out, expect)
            own = arr.copy()
            filt(own, dys[pick], ws[pick], own, np.full(n * n, np.nan))
            np.testing.assert_array_equal(own, expect)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 37, 64])
def test_circ_window_max_matches_brute_force(rng, n):
    # every (center, K) with K = 0 .. N // 2, so windows wrap both ends of
    # the torus and K = N // 2 covers the whole circle
    v = rng.normal(size=n)
    centers, ks = np.meshgrid(np.arange(n), np.arange(n // 2 + 1))
    got = _kernels.circ_window_max(v, centers.ravel(), ks.ravel())
    expect = [max(v[(i + j) % n] for j in range(-k, k + 1))
              for i, k in zip(centers.ravel(), ks.ravel())]
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(got[ks.ravel() == n // 2], v.max())


def test_circ_window_max_holds_o_n_memory(rng):
    # one level and half a level of scratch beside the queries; a sparse
    # table of every level would take (log2 N + 1) * 3N * 8 B, about 27 MB
    n = 1 << 16
    v = rng.normal(size=n)
    centers = rng.integers(0, n, size=10 ** 4)
    ks = rng.integers(0, n // 2 + 1, size=10 ** 4)
    # a first call loads what NumPy imports lazily; tracemalloc counts that
    _kernels.circ_window_max(v[:8], centers[:4] % 8, ks[:4] % 5)
    tracemalloc.start()
    try:
        _kernels.circ_window_max(v, centers, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * 8 + 512 * 1024


def test_circ_sum_matches_brute_force(rng):
    v = rng.normal(size=97)
    for k in (0, 3, 11, 48, 60):
        if 2 * k + 1 >= 97:
            expect = np.full(97, v.sum())
        else:
            expect = np.array([sum(v[(i + d) % 97] for d in range(-k, k + 1))
                               for i in range(97)])
        np.testing.assert_allclose(_kernels.circ_sum_1d(v, k), expect,
                                   atol=1e-10)


def _brute_slobodeckij_1d(v, h, sigma, p):
    """Pair loop over i != j of |v_i - v_j|^p / d_ij^{1+sigma p} h^2."""
    n = v.size
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = abs(i - j)
            dist = h * min(d, n - d)
            total += abs(v[i] - v[j]) ** p / dist ** (1 + sigma * p)
    return total * h * h


def _brute_slobodeckij(v, h, sigma, p):
    """Every pair of cells x != y, one term per pair, on the n-torus."""
    n, dim = v.shape[0], v.ndim
    cells = np.stack(np.unravel_index(np.arange(v.size), v.shape), axis=1)
    off = np.abs(cells[:, None, :] - cells[None, :, :])
    dist = h * np.sqrt(np.sum(np.minimum(off, n - off) ** 2, axis=2))
    np.fill_diagonal(dist, np.inf)
    flat = v.reshape(-1)
    terms = np.abs(flat[:, None] - flat[None, :]) ** p / dist ** (dim + sigma * p)
    return float(terms.sum()) * h ** (2 * dim)


def _smoothed_noise(rng, dim, n, order):
    g = make_grid(dim, int(math.log2(n)), 1.0)
    return bessel_smooth(GridFunction(g, rng.normal(size=g.size)),
                         order).as_array()


def test_slobodeckij_2d_brute_force_oracle(rng):
    n, h, sigma, p = 8, 1 / 8, 0.6, 1.7
    v = rng.normal(size=(n, n))
    cells = [(i0, i1) for i0 in range(n) for i1 in range(n)]
    plain = 0.0
    for a in cells:
        for b in cells:
            if a == b:
                continue
            d0, d1 = abs(a[0] - b[0]), abs(a[1] - b[1])
            dist = math.hypot(h * min(d0, n - d0), h * min(d1, n - d1))
            plain += abs(v[a] - v[b]) ** p / dist ** (2 + sigma * p)
    got = _kernels.slobodeckij_sum(v, h, sigma, p)
    assert got == pytest.approx(plain * h ** 4, rel=1e-12)


@pytest.mark.parametrize("n, sigma, p", [(24, 0.5, 2.0), (64, 0.4, 1.7)])
def test_slobodeckij_brute_force_oracle(rng, n, sigma, p):
    v = rng.normal(size=n)
    total = _brute_slobodeckij_1d(v, 1 / n, sigma, p)
    assert _kernels.slobodeckij_sum(v, 1 / n, sigma, p) == pytest.approx(
        total, rel=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 1024), (2, 8), (2, 32)])
@pytest.mark.parametrize("order", [0.0, 1.0])
def test_slobodeckij_p2_convolution_matches_pair_loop(rng, dim, n, order):
    v = _smoothed_noise(rng, dim, n, order)
    for sigma in (0.25, 0.5, 0.9):
        expect = _brute_slobodeckij(v, 1 / n, sigma, 2.0)
        got = _kernels.slobodeckij_sum(v, 1 / n, sigma, 2.0)
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_slobodeckij_p2_smooth_data_conditioning(rng):
    # very smooth data: the centred convolution keeps about ten digits
    v = _smoothed_noise(rng, 1, 1024, 4.0)
    expect = _brute_slobodeckij(v, 1 / 1024, 0.9, 2.0)
    got = _kernels.slobodeckij_sum(v, 1 / 1024, 0.9, 2.0)
    assert got == pytest.approx(expect, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p", [2.0, 1.7])
@pytest.mark.parametrize("shape", [(64,), (8, 8)])
def test_slobodeckij_constant_data_is_exactly_zero(p, shape):
    const = np.full(shape, 3.3)
    assert _kernels.slobodeckij_sum(const, 1 / 8, 0.5, p) == 0.0
    const.flat[0] = 3.4
    assert _kernels.slobodeckij_sum(const, 1 / 8, 0.5, p) > 0.0


@pytest.mark.parametrize("shape", [(64,), (8, 8)])
def test_slobodeckij_ulp_variation_stays_finite_and_nonnegative(rng, shape):
    v = 1.0 + np.finfo(float).eps * rng.integers(0, 4, size=shape)
    got = _kernels.slobodeckij_sum(v, 1 / 8, 0.9, 2.0)
    assert math.isfinite(got) and got >= 0.0


def test_min_dist_agreement(rng):
    phi = rng.normal(size=128) * 0.2
    qt = rng.uniform(0.5, 1.5, size=300)
    qx = rng.uniform(0.0, 1.0, size=300)
    got = _kernels.min_dist_graph_1d(qt, qx, phi, 1 / 128, 1.0)
    # brute force, query by query
    xs = np.arange(128) / 128
    for i in range(300):
        dx = np.abs(qx[i] - xs)
        dx = np.minimum(dx, 1.0 - dx)
        expect = np.sqrt(np.min(dx ** 2 + (qt[i] - phi) ** 2))
        assert got[i] == pytest.approx(expect, rel=1e-12)


def _brute_min_dist(qt, qx, phi, h, extent):
    """Every query against every sample, with the kernel's float expressions."""
    qt = np.asarray(qt, dtype=np.float64)
    qx = np.asarray(qx, dtype=np.float64)
    xs = h * np.arange(phi.size)
    dx = np.abs(qx[:, None] - xs[None, :])
    dx = np.minimum(dx, extent - dx)
    dt = qt[:, None] - phi[None, :]
    return np.sqrt(np.min(dx * dx + dt * dt, axis=1))


def _assert_min_dist_exact(qt, qx, phi, h, extent):
    np.testing.assert_array_equal(
        _kernels.min_dist_graph_1d(qt, qx, phi, h, extent),
        _brute_min_dist(qt, qx, phi, h, extent))


def test_min_dist_on_and_off_grid(rng):
    n, extent = 128, 1.0
    h = extent / n
    phi = np.cumsum(rng.normal(size=n)) * h
    ix = rng.integers(0, n, size=200)
    on_grid = ix * h
    off_grid = rng.uniform(0.0, extent, size=200)
    gaps = np.exp(rng.uniform(np.log(h / 8), 0.0, size=200))
    for qx in (on_grid, off_grid):
        _assert_min_dist_exact(phi[ix] + gaps, qx, phi, h, extent)


def test_min_dist_torus_seam(rng):
    n, extent = 128, 2.0
    h = extent / n
    phi = np.sin(2 * np.pi * h * np.arange(n) / extent) * 0.3
    qx = np.concatenate([
        [0.0, 1e-300, 1e-17, h / 3, extent, extent - 1e-16, extent - h / 3],
        rng.uniform(0.0, 2 * h, size=40),
        rng.uniform(extent - 2 * h, extent, size=40)])
    qt = np.full(qx.size, 0.05)
    qt[::2] = rng.uniform(-0.5, 0.5, size=qt[::2].size)
    _assert_min_dist_exact(qt, qx, phi, h, extent)


def test_min_dist_below_and_inside_band(rng):
    n, extent = 128, 1.0
    h = extent / n
    phi = rng.uniform(-0.2, 0.2, size=n)
    qx = rng.uniform(0.0, extent, size=300)
    below = phi.min() - np.exp(rng.uniform(np.log(h / 8), 0.0, size=100))
    inside = rng.uniform(phi.min(), phi.max(), size=100)
    above = phi.max() + rng.uniform(0.0, 1.0, size=100)
    qt = np.concatenate([below, inside, above])
    _assert_min_dist_exact(qt, qx, phi, h, extent)


def test_min_dist_flat_profile(rng):
    # the vertical clearance equals the seed distance for on-grid queries,
    # so the sweep keeps a single offset; off-grid queries keep a few
    n, extent = 128, 1.0
    h = extent / n
    phi = np.full(n, 0.75)
    qx = np.concatenate([rng.integers(0, n, size=100) * h,
                         rng.uniform(0.0, extent, size=100)])
    qt = 0.75 + np.concatenate([np.exp(rng.uniform(-8.0, 1.0, size=100)),
                                -np.exp(rng.uniform(-8.0, 1.0, size=100))])
    _assert_min_dist_exact(qt, qx, phi, h, extent)
    got = _kernels.min_dist_graph_1d(qt[:100], qx[:100], phi, h, extent)
    np.testing.assert_array_equal(got, np.abs(qt[:100] - 0.75))


@pytest.mark.parametrize("n", [1, 2, 3, 128])
def test_min_dist_small_sample_counts(rng, n):
    extent = 1.0
    h = extent / n
    phi = rng.normal(size=n) * 0.3
    qx = np.concatenate([rng.uniform(-0.5, 1.5, size=60), h * np.arange(n)])
    qt = rng.uniform(-1.0, 1.0, size=qx.size)
    _assert_min_dist_exact(qt, qx, phi, h, extent)


def test_min_dist_empty_queries():
    out = _kernels.min_dist_graph_1d(np.empty(0), np.empty(0), np.zeros(8),
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
    _assert_min_dist_exact(qt, qx, phi, h, extent)


def _sawtooth(n, M):
    x = np.arange(n) / n
    return M * (0.25 - np.abs(np.abs(x - 0.5) - 0.25))


def _far_queries(rng, phi, h, extent, m):
    """(phi(x0) +- t, x0) with t log-uniform in [h, extent]; half of the x0
    on the grid, half anywhere in [-extent/4, 5 extent/4)."""
    n = phi.size
    idx = rng.integers(0, n, size=m)
    qx = np.where(np.arange(m) % 2 == 0, idx * h,
                  rng.uniform(-0.25 * extent, 1.25 * extent, size=m))
    t = np.exp(rng.uniform(np.log(h), np.log(extent), size=m))
    return phi[idx] + t * rng.choice([-1.0, 1.0], size=m), qx


@pytest.mark.parametrize("kind, M", [("sawtooth", 0.5), ("sawtooth", 3.0),
                                     ("smooth", 2.0)])
def test_min_dist_far_queries_block_sweep(rng, kind, M):
    # N = 2048: B = 32, so every query that reaches past 32 samples goes
    # through the block sweep
    n, extent = 2048, 1.0
    h = extent / n
    if kind == "sawtooth":
        phi = _sawtooth(n, M)
    else:
        phi = _smoothed_noise(rng, 1, n, 2.0)
        phi = phi * (M * h / np.abs(np.diff(phi)).max())
    qt, qx = _far_queries(rng, phi, h, extent, 600)
    _assert_min_dist_exact(qt, qx, phi, h, extent)


@pytest.mark.parametrize("extent", [1.0, 3.0])
@pytest.mark.parametrize("n", [24, 25, 40, 96, 97, 999, 1000])
def test_min_dist_block_counts_off_a_power_of_two(rng, n, extent):
    # B = 4, 4, 4, 8, 8, 16, 16: the torus holds a number of blocks that is
    # no power of two, and at 25, 97, 999 and 1000 the last block is short
    h = extent / n
    phi = 2.0 * h * np.cumsum(rng.uniform(-1.0, 1.0, size=n))
    qt, qx = _far_queries(rng, phi, h, extent, 400)
    _assert_min_dist_exact(qt, qx, phi, h, extent)


@pytest.mark.parametrize("n", [25, 2048])
def test_min_dist_non_finite_queries(rng, n):
    extent = 1.0
    h = extent / n
    phi = _sawtooth(n, 3.0)
    qt, qx = _far_queries(rng, phi, h, extent, 60)
    bad = np.array([np.nan, np.inf, -np.inf])
    qt[:3], qx[3:6], qt[6:9], qx[6:9] = bad, bad, bad, bad[::-1]
    with np.errstate(invalid="ignore"):
        # assert_array_equal counts NaN equal to NaN
        _assert_min_dist_exact(qt, qx, phi, h, extent)


@pytest.mark.parametrize("M", [0.5, 3.0])
def test_min_dist_block_sweep_scans_only_blocks_within_reach(rng, monkeypatch,
                                                            M):
    # every scanned block lies within the query's first candidate distance
    # |t - phi(x0)|, both sideways and vertically, on either side of the graph
    n, extent = 2048, 1.0
    h = extent / n
    phi = _sawtooth(n, M)
    idx = rng.integers(0, n, size=2000)
    t = np.exp(rng.uniform(np.log(h), 0.0, size=idx.size))
    qt, qx = phi[idx] + t * rng.choice([-1.0, 1.0], size=idx.size), idx * h
    scans = []

    def spy(t, x, first, b, sq_dist):
        scans.append((t, x, first, b))
        return block_min(t, x, first, b, sq_dist)

    block_min = _kernels._block_min
    monkeypatch.setattr(_kernels, "_block_min", spy)
    _assert_min_dist_exact(qt, qx, phi, h, extent)
    pairs = 0
    for t, x, first, b in scans:
        j = (first[:, None] - n // 2 + np.arange(b)) % n
        seed = (t - phi[np.rint(x / h).astype(int) % n]) ** 2
        gap = np.maximum(np.maximum(t - phi[j].max(axis=1),
                                    phi[j].min(axis=1) - t), 0.0)
        lat = np.abs(x[:, None] - h * j)
        lat = np.minimum(lat, extent - lat).min(axis=1)
        assert np.all(gap * gap < seed)
        assert np.all(np.maximum(lat - 1e-12, 0.0) ** 2 + gap * gap
                      <= seed * (1 + 1e-12))
        pairs += t.size * b
    assert 0 < pairs < 0.1 * idx.size * n


def test_min_dist_block_gather_memory_stays_bounded(rng):
    # a domain-sized call: 8000 far queries at N = 2048 hold a few per-query
    # arrays and one capped gather, not a (queries x block) slab
    import tracemalloc

    n, extent = 2048, 1.0
    h = extent / n
    phi = _sawtooth(n, 3.0)
    idx = rng.integers(0, n, size=8000)
    qt = phi[idx] + np.exp(rng.uniform(np.log(h), 0.0, size=idx.size))
    qx = idx * h
    tracemalloc.start()
    try:
        _kernels.min_dist_graph_1d(qt, qx, phi, h, extent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
