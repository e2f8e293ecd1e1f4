import math
from itertools import product

import numpy as np
import pytest

from fatou_lab import _kernels, potentials
from fatou_lab.errors import ParameterError
from fatou_lab.extension import poisson_extend
from fatou_lab.grid import (GridFunction, fft_convolve, from_callable, lp_norm,
                            make_grid)
from fatou_lab.maximal import hl_max_q
from fatou_lab.potentials import (bessel_smooth, dyadic_scales, sharp_maximal,
                                  slobodeckij_seminorm, spectral_derivative)
from reference import KernelSpec, _ball_indices, sampled_kernel


def _band_limited(grid, rng, modes=40):
    half = np.zeros(grid.n // 2 + 1, complex)
    half[1:modes] = rng.normal(size=modes - 1) + 1j * rng.normal(size=modes - 1)
    return GridFunction(grid, np.fft.irfft(half, n=grid.n))


def test_bessel_smooth_identity_and_eigenfunction(rng):
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    assert bessel_smooth(f, 0.0) is f
    cos = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    out = bessel_smooth(cos, 2.0)
    np.testing.assert_allclose(out.samples,
                               cos.samples / (1 + 4 * math.pi ** 2), atol=1e-14)
    with pytest.raises(ParameterError):
        bessel_smooth(f, -1.0)


def test_bessel_smooth_spike_matches_spatial_convolution():
    # oracle: spatial convolution with the sampled kernel, compared away
    # from the singular core where both discretizations have converged
    g = make_grid(1, 12, 4.0)
    spike = np.zeros(g.size)
    spike[0] = 1.0 / g.h
    sp = GridFunction(g, spike)
    spectral = bessel_smooth(sp, 1.0)
    spatial = fft_convolve(sp, sampled_kernel(KernelSpec("bessel", 1, order=1.0), g))
    d = np.abs(spectral.samples - spatial.samples)
    idx = np.arange(g.size)
    far = np.minimum(idx, g.size - idx) >= 64
    assert d[far].max() <= 1e-4


def test_spectral_derivative_examples(rng):
    g = make_grid(1, 8, 1.0)
    cos = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    sin = from_callable(g, lambda x: np.sin(2 * np.pi * x))
    np.testing.assert_allclose(spectral_derivative(cos, (1,)).samples,
                               -2 * math.pi * sin.samples, atol=1e-11)
    const = from_callable(g, lambda x: np.full_like(x, 4.2))
    assert np.abs(spectral_derivative(const, (1,)).samples).max() < 1e-12
    with pytest.raises(ParameterError):
        spectral_derivative(cos, (4,))
    with pytest.raises(ParameterError):
        spectral_derivative(cos, (1, 1))


def test_spectral_derivative_finite_difference_oracle(rng):
    g = make_grid(1, 12, 1.0)
    f = _band_limited(g, rng, modes=30)
    d = spectral_derivative(f, (1,))
    fd = (np.roll(f.samples, -1) - np.roll(f.samples, 1)) / (2 * g.h)
    # centered differences on band-limited data: O(h^2 |xi|^3) error
    assert np.abs(d.samples - fd).max() < 1e-2 * np.abs(d.samples).max()
    # fourth-order differences tighten the gap below 1e-6 of scale
    fd4 = (-np.roll(f.samples, -2) + 8 * np.roll(f.samples, -1)
           - 8 * np.roll(f.samples, 1) + np.roll(f.samples, 2)) / (12 * g.h)
    assert np.abs(d.samples - fd4).max() < 1e-4 * np.abs(d.samples).max()


def _dft_oracle(x, mult):
    """Re(IDFT(mult * DFT(x))) by explicit O(N^2) sums, without np.fft.

    x has shape (n,)*dim; mult is given on the flattened full spectrum.
    """
    n, dim = x.shape[0], x.ndim
    jk = np.outer(np.arange(n), np.arange(n)) % n
    w = np.exp(-2j * np.pi * jk / n)
    wd = w if dim == 1 else np.kron(w, w)  # wd[k, j] = exp(-2 pi i k.j / n)
    spec = wd @ x.reshape(-1)
    return (wd.conj() @ (mult * spec)).real / n ** dim, spec


def _oracle_pairs(case, f):
    """(package outputs, full-spectrum multipliers) for one spectral operator."""
    g = f.grid
    k = np.indices(g.shape).reshape(g.dim, -1)
    xi = np.where(k < g.n // 2, k, k - g.n) / g.extent  # Nyquist is -n/2
    off_nyq = k != g.n // 2
    mag = np.sqrt((xi ** 2).sum(axis=0))
    if case == "bessel":
        return [bessel_smooth(f, 1.5)], [(1 + 4 * np.pi ** 2 * mag ** 2) ** -0.75]
    if case == "derivative":
        gammas = ([(1,), (2,), (3,)] if g.dim == 1 else
                  [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (0, 3)])
        mults = []
        for gam in gammas:
            m = np.ones(g.size, complex)
            for a, power in enumerate(gam):
                m = m * (2j * np.pi * xi[a]) ** power
                if power % 2 == 1:
                    m = m * off_nyq[a]
            mults.append(m)
        return [spectral_derivative(f, gam) for gam in gammas], mults
    hts = (1.0, 0.25, 1 / 16, 1 / 64)
    u = poisson_extend(f, hts)
    return ([GridFunction(g, u.values[i]) for i in range(len(hts))],
            [np.exp(-2 * np.pi * t * mag) for t in hts])


@pytest.mark.parametrize("case", ["bessel", "derivative", "poisson"])
@pytest.mark.parametrize("dim,levels", [(1, 4), (1, 5), (2, 3)],
                         ids=["1d-16", "1d-32", "2d-8x8"])
def test_spectral_multipliers_match_dft_oracle(rng, case, dim, levels):
    g = make_grid(dim, levels, 2.0)
    k = np.indices(g.shape)
    # alternating terms put energy on every Nyquist plane, where the odd
    # multipliers must vanish
    x = rng.normal(size=g.shape) + sum((-1.0) ** k[a] for a in range(dim))
    f = GridFunction(g, x)
    outs, mults = _oracle_pairs(case, f)
    assert len(outs) == len(mults)
    for out, mult in zip(outs, mults):
        ref, spec = _dft_oracle(x, mult)
        assert np.abs(out.samples - ref).max() <= 1e-12 * np.abs(ref).max()
    for a in range(dim):
        assert np.abs(spec[k[a].reshape(-1) == g.n // 2]).max() > 1.0


def test_sharp_maximal_kills_polynomials():
    g = make_grid(1, 10, 1.0)
    scales = [r for r in dyadic_scales(g) if r <= 1 / 16]
    # the ball mean reproduces constant data
    const = from_callable(g, lambda x: np.full_like(x, 2.0))
    assert np.abs(sharp_maximal(const, 0.7, scales).samples).max() < 1e-12
    # empty, not finite, below 4h or above extent/4, the floor and cap of
    # dyadic_scales
    for bad in ([], [math.inf], [math.nan], [0.0], [-1.0], [3.99 * g.h],
                [0.2501], [1024.0]):
        with pytest.raises(ParameterError):
            sharp_maximal(const, 0.5, bad)


@pytest.mark.parametrize("alpha", [1.0, 1.3, 2.2, 0.0, math.nan])
def test_sharp_maximal_takes_orders_in_0_1(alpha):
    # from alpha = 1 on Dorronsoro's function subtracts a fitted polynomial
    # of degree floor(alpha), not the mean
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: np.sin(2 * np.pi * x))
    with pytest.raises(ParameterError, match="alpha must lie in \\(0, 1\\)"):
        sharp_maximal(f, alpha, dyadic_scales(g))


def test_sharp_maximal_poincare_pattern(rng):
    # comparison against the smoothed-density right-hand side
    g = make_grid(1, 10, 1.0)
    alpha, q = 0.5, 1.5
    ratios = []
    for _ in range(5):
        gd = GridFunction(g, rng.normal(size=g.size))
        f = bessel_smooth(gd, alpha)
        mg = hl_max_q(gd, 1.0)
        for r in (0.02, 0.04, 0.08):
            avg_osc = []
            rhs = []
            for c in np.linspace(0.0, 1.0, 10, endpoint=False):
                idx = _ball_indices(g, c, r)
                avg_osc.append(np.mean(np.abs(f.samples[idx]
                                              - f.samples[idx].mean())))
                rhs.append(r ** alpha
                           * np.mean(mg.samples[idx] ** q) ** (1 / q))
            ratios.extend(np.asarray(avg_osc) / np.asarray(rhs))
    ratios = np.asarray(ratios)
    assert ratios.max() < 2.0  # bounded multiple across 150 balls


def test_slobodeckij_examples(rng):
    g = make_grid(1, 9, 1.0)
    const = from_callable(g, lambda x: np.full_like(x, 3.3))
    assert slobodeckij_seminorm(const, 0.5, 2.0) == 0.0
    f = GridFunction(g, rng.normal(size=g.size))
    shifted = GridFunction(g, np.roll(f.samples, 17))
    a = slobodeckij_seminorm(f, 0.5, 2.0)
    b = slobodeckij_seminorm(shifted, 0.5, 2.0)
    assert a == pytest.approx(b, rel=1e-10)
    with pytest.raises(ParameterError):
        slobodeckij_seminorm(f, 1.2, 2.0)
    with pytest.raises(ParameterError):
        slobodeckij_seminorm(f, 0.5, 0.7)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_slobodeckij_rejects_non_finite_p(rng, p):
    f = GridFunction(make_grid(1, 6, 1.0), rng.normal(size=64))
    with pytest.raises(ParameterError):
        slobodeckij_seminorm(f, 0.5, p)


def test_slobodeckij_p2_never_enters_the_pair_loop(rng, monkeypatch):
    # p = 2 is one torus convolution; only other p walk the O(N^2) offsets
    calls = []

    def spy(*args):
        calls.append(args[-1])
        return pair_loop(*args)

    pair_loop = _kernels._pair_loop
    monkeypatch.setattr(_kernels, "_pair_loop", spy)
    for dim, levels in ((1, 7), (2, 4)):
        g = make_grid(dim, levels, 1.0)
        f = GridFunction(g, rng.normal(size=g.size))
        slobodeckij_seminorm(f, 0.5, 2.0)
    assert calls == []
    slobodeckij_seminorm(f, 0.5, 1.7)
    assert calls == [1.7]


def test_slobodeckij_refinement_stability():
    vals = []
    for levels in (10, 11):
        g = make_grid(1, levels, 1.0)
        f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
        vals.append(slobodeckij_seminorm(f, 0.5, 2.0))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


def test_bessel_function_contracts(rng):
    g = make_grid(1, 9, 1.0)
    for _ in range(50):
        gg = GridFunction(g, rng.normal(size=g.size))
        sm = bessel_smooth(gg, 0.8)
        for p in (1.0, 2.0, 4.0, math.inf):
            assert lp_norm(sm, p) <= lp_norm(gg, p) * (1 + 1e-8)


def test_bessel_semigroup(rng):
    g = make_grid(1, 9, 1.0)
    gd = GridFunction(g, rng.normal(size=g.size))
    once = bessel_smooth(bessel_smooth(gd, 0.7), 0.9)
    direct = bessel_smooth(gd, 1.6)
    np.testing.assert_allclose(once.samples, direct.samples, atol=1e-10)


def test_maximal_commutation(rng):
    g = make_grid(1, 9, 1.0)
    for q in (1.0, 2.0):
        for _ in range(5):
            kern = GridFunction(g, np.abs(rng.normal(size=g.size)))
            dens = GridFunction(g, np.abs(rng.normal(size=g.size)))
            lhs = hl_max_q(fft_convolve(kern, dens), q)
            rhs = fft_convolve(kern, hl_max_q(dens, q))
            assert np.all(lhs.samples <= rhs.samples + 1e-8)


def test_poincare_constant_stability(rng):
    g = make_grid(1, 10, 1.0)
    alpha = 0.5
    consts = []
    for _ in range(20):
        gd = GridFunction(g, rng.normal(size=g.size))
        f = bessel_smooth(gd, alpha)
        mg = hl_max_q(gd, 1.0)
        i = rng.integers(0, g.n, size=10_000)
        lag = np.exp(rng.uniform(0, math.log(g.n // 2), size=10_000)).astype(int)
        j = (i + np.maximum(lag, 1)) % g.n
        d = np.abs(i - j) * g.h
        d = np.minimum(d, 1.0 - d)
        c = np.max(np.abs(f.samples[i] - f.samples[j])
                   / (d ** alpha * (mg.samples[i] + mg.samples[j])))
        consts.append(c)
    assert max(consts) / min(consts) < 1.2  # within +-20 percent
    assert max(consts) < 2.0


def test_poisson_domination(rng):
    # t^alpha P_t * g is dominated by P_t * (smoothed g), stably in t
    from fatou_lab.extension import poisson_extend

    g = make_grid(1, 10, 1.0)
    alpha = 0.5
    heights = tuple(2.0 ** (-k) for k in range(0, 11))
    per_draw = []
    for _ in range(5):
        gd = GridFunction(g, np.abs(rng.normal(size=g.size)))
        jg = bessel_smooth(gd, alpha)
        u_raw = poisson_extend(gd, heights)
        u_smooth = poisson_extend(jg, heights)
        cs = [float((t ** alpha * u_raw.values[k] / u_smooth.values[k]).max())
              for k, t in enumerate(heights)]
        per_draw.append(max(cs))
    assert max(per_draw) < 10.0
    assert max(per_draw) / min(per_draw) < 2.0


def test_cp_poincare_via_sharp(rng):
    # avg |f - P_Delta f| <= C r^alpha (avg sharp^q)^{1/q} across 50 balls
    g = make_grid(1, 10, 1.0)
    alpha, q = 0.5, 1.5
    gd = GridFunction(g, rng.normal(size=g.size))
    f = bessel_smooth(gd, alpha)
    sharp = sharp_maximal(f, alpha, dyadic_scales(g))
    ratios = []
    for _ in range(50):
        r = float(rng.choice([0.02, 0.04, 0.08]))
        c = float(rng.uniform(0, 1))
        idx = _ball_indices(g, c, r)
        lhs = np.mean(np.abs(f.samples[idx] - f.samples[idx].mean()))
        rhs = (2 * r) ** alpha * np.mean(sharp.samples[idx] ** q) ** (1 / q)
        ratios.append(lhs / rhs)
    assert max(ratios) < 2.0


def _brute_sharp_at(f, alpha, scales, point):
    """max over balls Delta(c, r) that hold the point, c on the stride
    lattice, of |Delta|^(-alpha/n) avg |f - f_Delta| with f_Delta the
    ball mean; 0 if no ball holds it."""
    g = f.grid
    n, dim = g.n, g.dim
    arr = f.as_array()
    here = np.unravel_index(point, g.shape)
    best = 0.0
    for r in scales:
        stride = max(1, int(round(r / (2.0 * g.h))))
        reach = range(-int(r / g.h) - 1, int(r / g.h) + 2)
        offs = np.array([o for o in product(reach, repeat=dim)
                         if sum(x * x for x in o) * g.h * g.h
                         < r * r * (1.0 - 1e-12)])
        held = {tuple(o % n) for o in offs}
        measure = 2.0 * r if dim == 1 else math.pi * r * r
        for c in product(range(0, n, stride), repeat=dim):
            if tuple((np.array(here) - c) % n) not in held:
                continue
            vals = arr[tuple(((np.array(c) + offs) % n).T)]
            resid = np.mean(np.abs(vals - vals.mean()))
            best = max(best, measure ** (-alpha / dim) * resid)
    return best


@pytest.mark.parametrize("dim,levels,alpha", [(1, 8, 0.5), (1, 8, 0.9),
                                              (2, 5, 0.5), (2, 5, 0.9)])
def test_sharp_maximal_brute_force_oracle(rng, dim, levels, alpha):
    g = make_grid(dim, levels, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    scales = dyadic_scales(g)
    sharp = sharp_maximal(f, alpha, scales)
    for point in [0, g.size - 1, *rng.integers(0, g.size, size=6)]:
        assert sharp.samples[point] == pytest.approx(
            _brute_sharp_at(f, alpha, scales, point), rel=1e-12)


@pytest.mark.parametrize("dim,levels", [(1, 10), (2, 6)])
def test_sharp_maximal_blocks_of_centres_match_one_product(rng, monkeypatch,
                                                           dim, levels):
    # gathers of one offset at a time, the default blocks of offsets and
    # one gather per scale give the same floats
    g = make_grid(dim, levels, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    scales = dyadic_scales(g)
    runs = []
    for blocks in (1 << 20, potentials._BLOCKS, 1):
        monkeypatch.setattr(potentials, "_BLOCKS", blocks)
        runs.append(sharp_maximal(f, 0.5, scales).samples)
    np.testing.assert_array_equal(runs[0], runs[2])
    np.testing.assert_array_equal(runs[1], runs[2])


def test_sharp_maximal_holds_one_ball_matrix(rng):
    # the (offsets x centres) ball values take about 4 pi N^2 * 8 B per
    # scale; neither the means nor the gather index makes a second one
    import tracemalloc

    g = make_grid(2, 7, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    scales = dyadic_scales(g)
    tracemalloc.start()
    try:
        sharp_maximal(f, 0.5, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 4 * math.pi * g.size * 8
