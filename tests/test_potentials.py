import math

import numpy as np
import pytest

from fatou_lab.errors import NumericError, ParameterError
from fatou_lab.extension import poisson_extend
from fatou_lab.grid import (GridFunction, ball_mean_all_centers, fft_convolve,
                            from_callable, lp_norm, make_grid)
from fatou_lab.kernels import KernelSpec, sampled_kernel
from fatou_lab.maximal import hl_max_q
from fatou_lab.potentials import (bessel_function, bessel_smooth, dyadic_scales,
                                  inverse_bessel, multi_indices, poly_project,
                                  representative_value, riesz_transform,
                                  sharp_maximal, slobodeckij_seminorm,
                                  spectral_derivative, _window_offsets)


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


def test_inverse_bessel_round_trip(rng):
    g = make_grid(1, 9, 1.0)
    f = _band_limited(g, rng)
    assert inverse_bessel(f, 0.0) is f
    back = bessel_smooth(inverse_bessel(f, 1.5), 1.5)
    np.testing.assert_allclose(back.samples, f.samples, atol=1e-10)
    cos = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    out = inverse_bessel(cos, 2.0)
    np.testing.assert_allclose(out.samples,
                               (1 + 4 * math.pi ** 2) * cos.samples, atol=1e-10)


def test_riesz_transform_identities(rng):
    g = make_grid(1, 8, 1.0)
    cos = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    sin = from_callable(g, lambda x: np.sin(2 * np.pi * x))
    np.testing.assert_allclose(riesz_transform(cos, 1).samples, sin.samples,
                               atol=1e-12)
    with pytest.raises(ParameterError):
        riesz_transform(cos, 2)
    # unimodular multiplier preserves the L2 norm of mean-zero data
    f = GridFunction(g, rng.normal(size=g.size))
    f = GridFunction(g, f.samples - f.samples.mean())
    f = GridFunction(g, np.fft.irfft(np.fft.rfft(f.samples)
                                     * (np.arange(g.n // 2 + 1) < g.n // 2),
                                     n=g.n))  # drop the Nyquist mode
    assert lp_norm(riesz_transform(f, 1), 2.0) == pytest.approx(
        lp_norm(f, 2.0), rel=1e-10)


def test_riesz_transform_sum_of_squares_2d(rng):
    g = make_grid(2, 4, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    arr = np.fft.fftn(f.as_array())
    arr[0, 0] = 0.0
    arr[g.n // 2, :] = 0.0
    arr[:, g.n // 2] = 0.0
    f = GridFunction(g, np.fft.ifftn(arr).real)
    rr = riesz_transform(riesz_transform(f, 1), 1).samples \
        + riesz_transform(riesz_transform(f, 2), 2).samples
    np.testing.assert_allclose(rr, -f.samples, atol=1e-8)


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
    if case == "inverse_bessel":
        return [inverse_bessel(f, 1.5)], [(1 + 4 * np.pi ** 2 * mag ** 2) ** 0.75]
    if case == "riesz":
        safe = np.where(mag > 0, mag, 1.0)
        return ([riesz_transform(f, j) for j in range(1, g.dim + 1)],
                [np.where((mag > 0) & off_nyq[j], -1j * xi[j] / safe, 0.0)
                 for j in range(g.dim)])
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
    return ([u.slice_function(i) for i in range(len(hts))],
            [np.exp(-2 * np.pi * t * mag) for t in hts])


@pytest.mark.parametrize("case", ["bessel", "inverse_bessel", "riesz",
                                  "derivative", "poisson"])
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


def test_poly_project_reproduces_affine():
    g = make_grid(1, 10, 1.0)
    aff = from_callable(g, lambda x: 0.3 + 0.7 * x)
    poly = poly_project(aff, 0.25, 0.1, 1)
    idx, dy = _window_offsets(aff, 0.25, 0.1)
    assert np.abs(poly.eval_offsets(dy) - aff.samples[idx]).max() < 1e-8


def test_poly_project_k0_is_mean(rng):
    g = make_grid(1, 9, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    poly = poly_project(f, 0.4, 0.07, 0)
    idx, _ = _window_offsets(f, 0.4, 0.07)
    assert poly.coefficients[0] == pytest.approx(f.samples[idx].mean(), rel=1e-12)


def test_poly_project_orthogonality_and_linfty(rng):
    g = make_grid(1, 10, 1.0)
    ratios = []
    for trial in range(100):
        f = GridFunction(g, rng.normal(size=g.size))
        poly = poly_project(f, 0.5, 0.08, 2)
        idx, dy = _window_offsets(f, 0.5, 0.08)
        resid = f.samples[idx] - poly.eval_offsets(dy)
        for m in range(3):
            mom = np.mean(resid * dy[:, 0] ** m)
            scale = np.mean(np.abs(f.samples[idx])) * 0.08 ** m
            assert abs(mom) <= 1e-6 * max(scale, 1e-12)
        ratios.append(np.abs(poly.eval_offsets(dy)).max()
                      / np.mean(np.abs(f.samples[idx])))
    # local sup bound: projection sup over the ball stays a bounded multiple
    # of the data's mean modulus, stably across draws
    assert max(ratios) < 10.0


def test_poly_project_parameter_errors():
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: x)
    with pytest.raises(ParameterError):
        poly_project(f, 0.5, g.h, 1)
    with pytest.raises(ParameterError):
        poly_project(f, 0.5, 0.1, 4)


def test_multi_index_count_2d():
    assert len(multi_indices(2, 3)) == 10
    assert len(multi_indices(1, 3)) == 4
    assert multi_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]


def test_sharp_maximal_kills_polynomials():
    g = make_grid(1, 10, 1.0)
    scales = [r for r in dyadic_scales(g) if r <= 1 / 16]
    aff = from_callable(g, lambda x: 0.3 + 0.7 * x)
    sharp = sharp_maximal(aff, 1.5, scales)
    # away from the torus seam the projection reproduces affine data
    band = sharp.samples[g.n // 4: 3 * g.n // 4]
    assert np.abs(band).max() < 1e-8
    const = from_callable(g, lambda x: np.full_like(x, 2.0))
    assert np.abs(sharp_maximal(const, 0.7, scales).samples).max() < 1e-12
    with pytest.raises(ParameterError):
        sharp_maximal(aff, 0.5, [])


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
                poly = poly_project(f, c, r, 0)
                idx, dy = _window_offsets(f, c, r)
                avg_osc.append(np.mean(np.abs(f.samples[idx]
                                              - poly.eval_offsets(dy))))
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
    with pytest.raises(ParameterError):
        slobodeckij_seminorm(f, 0.5, 2.0, domain=[])


def test_slobodeckij_refinement_stability():
    vals = []
    for levels in (10, 11):
        g = make_grid(1, levels, 1.0)
        f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
        vals.append(slobodeckij_seminorm(f, 0.5, 2.0))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


def test_slobodeckij_domain_restriction(rng):
    g = make_grid(1, 6, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    sub = list(range(0, g.n, 2))
    full = slobodeckij_seminorm(f, 0.3, 2.0)
    part = slobodeckij_seminorm(f, 0.3, 2.0, domain=sub)
    assert 0 < part < full


def test_bessel_function_contracts(rng):
    g = make_grid(1, 9, 1.0)
    gd = GridFunction(g, rng.normal(size=g.size))
    bf = bessel_function(gd, 1.0, 2.0)
    np.testing.assert_allclose(bf.f.samples, bessel_smooth(gd, 1.0).samples,
                               atol=1e-12)
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


def test_calderon_consistency(rng):
    alpha, p = 1.5, 2.0
    norms = []
    for levels in (9, 11):
        g = make_grid(1, levels, 1.0)
        gd = GridFunction(g, rng.normal(size=g.size))
        f = bessel_smooth(gd, alpha)
        deriv = spectral_derivative(f, (1,))
        g_gamma = inverse_bessel(deriv, alpha - 1.0)
        norms.append(lp_norm(g_gamma, p) / lp_norm(gd, p))
    assert all(v <= 1.0 + 1e-10 for v in norms)
    assert max(norms) / min(norms) < 1.5


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
        poly = poly_project(f, c, r, 0)
        idx, dy = _window_offsets(f, c, r)
        lhs = np.mean(np.abs(f.samples[idx] - poly.eval_offsets(dy)))
        rhs = (2 * r) ** alpha * np.mean(sharp.samples[idx] ** q) ** (1 / q)
        ratios.append(lhs / rhs)
    assert max(ratios) < 2.0


def test_representative_value_continuous(rng):
    g = make_grid(1, 12, 1.0)
    gd = _band_limited(g, rng, modes=12)
    bf = bessel_function(gd, 1.0, 2.0)
    radii = [0.1 * 2.0 ** (-k) for k in range(5)]
    val = representative_value(bf, 0.3, radii)
    exact = bf.f.samples[int(round(0.3 * g.n))]
    assert val == pytest.approx(exact, abs=radii[-1] ** 2 * 50)


def test_representative_value_diverges_on_spike():
    g = make_grid(1, 14, 1.0)
    spike = np.zeros(g.size)
    spike[g.n // 2] = 1.0 / g.h
    bf = bessel_function(GridFunction(g, spike), 0.4, 2.0)
    radii = [2.0 ** (-k) for k in range(4, 11)]
    avgs = [np.mean(np.abs(bf.f.samples)[np.abs(np.arange(g.n) - g.n // 2)
                                         * g.h < r]) for r in radii]
    assert all(b > a for a, b in zip(avgs, avgs[1:]))  # monotone growth
    assert representative_value(bf, 0.5, radii) is None


def test_representative_value_dominated_by_envelope(rng):
    g = make_grid(1, 10, 1.0)
    gd = GridFunction(g, rng.normal(size=g.size))
    bf = bessel_function(gd, 1.0, 2.0)
    absf = bessel_smooth(GridFunction(g, np.abs(gd.samples)), 1.0)
    radii = [0.05 * 2.0 ** (-k) for k in range(3)]
    for x in rng.uniform(0, 1, size=20):
        val = representative_value(bf, x, radii)
        if val is not None:
            envelope = absf.samples[int(round(x * g.n)) % g.n]
            assert abs(val) <= envelope + 0.05 * (1 + envelope)


def test_representative_value_parameter_errors(rng):
    g = make_grid(1, 8, 1.0)
    bf = bessel_function(GridFunction(g, rng.normal(size=g.size)), 1.0)
    with pytest.raises(ParameterError):
        representative_value(bf, 0.3, [0.1, 0.2, 0.05])
    with pytest.raises(ParameterError):
        representative_value(bf, 0.3, [0.1, 0.05])
    with pytest.raises(ParameterError):
        representative_value(bf, 0.3, [0.1, 0.05, g.h])
