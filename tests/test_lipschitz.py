import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatou_lab import experiments
from fatou_lab.cli import main
from fatou_lab.config import ExperimentConfig
from fatou_lab.errors import GridMismatchError, ParameterError
from fatou_lab.experiments import _sawtooth, _smooth_profile, run_experiment
from fatou_lab.grid import GridFunction, from_callable, make_grid
from fatou_lab.lipschitz import (_certified_members, boundary_seminorm,
                                 boundary_tangential_max, corkscrew_kappa,
                                 graph_distance_batch, lipschitz_graph,
                                 lp_norm_sigma, region_inclusion_check,
                                 surface_density)
from fatou_lab.maximal import ApproachRegionSpec
from fatou_lab.potentials import bessel_smooth
from fatou_lab.rng import stream
import reference
from reference import (DomainError, boundary_point, corkscrew,
                       domain_region_contains, flatten, graph_distance, phi_at,
                       surface_ball_measure)


def _flat(levels=9):
    g = make_grid(1, levels, 1.0)
    return lipschitz_graph(from_callable(g, np.zeros_like))


def _hat(levels=9):
    # tent profile |x - 1/2| clamped to slope 1
    g = make_grid(1, levels, 1.0)
    return lipschitz_graph(from_callable(g, lambda x: 0.25 - np.abs(
        np.abs(x - 0.5) - 0.25)))


def test_certified_constant():
    g = make_grid(1, 8, 1.0)
    prof = from_callable(g, lambda x: 0.25 - np.abs(np.abs(x - 0.5) - 0.25))
    graph = lipschitz_graph(prof)
    assert graph.M == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        lipschitz_graph(prof, M=0.5)
    assert lipschitz_graph(prof, M=2.0).M == 2.0


def test_graph_distance_flat_and_hat():
    flat = _flat()
    # grid-aligned base coordinate: the sampled distance is exact, and
    # off-grid base coordinates give an upper bound within O(h)
    d, d_off = graph_distance_batch(flat, (0.3, 0.3), (0.75, 0.77))
    assert d == pytest.approx(0.3, abs=1e-12)
    assert 0.3 <= d_off <= 0.3 + flat.phi.grid.h
    g = make_grid(1, 12, 1.0)
    hat = lipschitz_graph(from_callable(g, lambda x: np.abs(x - 0.5)))
    # dense-scan oracle: distance from (1, 0.5) to the graph of |x - 1/2|,
    # minimized along the V at u = 1/2
    d = graph_distance_batch(hat, (1.0,), (0.5,))[0]
    assert d == pytest.approx(1.0 / math.sqrt(2.0), abs=2 * g.h)


def test_graph_distance_is_lipschitz(rng):
    hat = _hat()
    pts = rng.uniform(0, 1, size=(40, 2))
    pts[:, 0] += 0.3
    ds = graph_distance_batch(hat, pts[:, 0], pts[:, 1])
    for i in range(20):
        a, b = pts[2 * i], pts[2 * i + 1]
        gap = math.hypot(a[0] - b[0], min(abs(a[1] - b[1]),
                                          1 - abs(a[1] - b[1])))
        assert abs(ds[2 * i] - ds[2 * i + 1]) <= gap + 1e-9


def test_corkscrew_examples():
    flat = _flat()
    assert graph_distance(flat, corkscrew(flat, 0.75, 0.3)) == pytest.approx(
        0.3, abs=1e-12)
    hat = _hat(10)
    g = hat.phi.grid
    for t in (0.125, 0.5, 1.0):
        d = graph_distance(hat, corkscrew(hat, 0.5, t))
        assert d >= corkscrew_kappa(1.0) * t - 2 * g.h
        assert d <= t + 1e-12
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="t must be finite"):
            corkscrew(hat, 0.5, t)


@pytest.mark.parametrize("dim, x", [(1, math.nan), (1, -math.inf),
                                    (1, (0.25, 0.5)), (2, 0.25),
                                    (2, (0.25, math.nan))])
def test_base_point_needs_dim_finite_coordinates(dim, x):
    graph = lipschitz_graph(from_callable(make_grid(dim, 4, 1.0),
                                          lambda *xs: 0.1 * np.cos(xs[0])))
    for call in (lambda: boundary_point(graph, x),
                 lambda: corkscrew(graph, x, 0.25)):
        with pytest.raises(ParameterError, match=f"{dim} finite coordinate"):
            call()
    ok = (0.25,) * dim
    assert boundary_point(graph, ok).lift == pytest.approx(0.1 * math.cos(0.25))


def test_corkscrew_kappa_values():
    assert corkscrew_kappa(0.5) == 0.5
    assert corkscrew_kappa(1.0) == 0.5
    assert corkscrew_kappa(3.0) == 0.25
    assert corkscrew_kappa(10.0) == pytest.approx(1.0 / 18.0)


def test_corkscrew_clearance_random(rng):
    for M in (0.5, 1.0, 3.0):
        g = make_grid(1, 10, 1.0)
        quarter = 0.25
        prof = from_callable(g, lambda x: M * (quarter - np.abs(
            np.abs(x - 0.5) - quarter)))
        graph = lipschitz_graph(prof, M=M * (1 + 1e-9))
        x0 = rng.integers(0, g.n, size=2000) * g.h
        ts = np.exp(rng.uniform(math.log(g.h), 0.0, size=2000))
        lifts = graph.phi.samples[(np.round(x0 / g.h).astype(int)) % g.n]
        dists = graph_distance_batch(graph, lifts + ts, x0)
        assert np.all(dists >= corkscrew_kappa(M) * ts - 2 * g.h)
        assert np.all(dists <= ts * (1 + 1e-12))


def test_flatten_round_trip(rng):
    hat = _hat()
    for _ in range(200):
        x = float(rng.uniform(0, 1))
        t = float(rng.uniform(0, 1)) + 0.3
        X = np.array([t, x])
        flat_pt = flatten(hat, X, "forward")
        back = flatten(hat, flat_pt, "inverse")
        assert np.array_equal(back, X)
    with pytest.raises(DomainError):
        flatten(hat, (-0.5, 0.2), "forward")
    with pytest.raises(ParameterError):
        flatten(hat, (0.5, 0.2), "sideways")


def test_flatten_of_corkscrew():
    hat = _hat()
    x0 = 0.25
    cs = (phi_at(hat, x0) + 0.4, x0)  # the corkscrew point at height 0.4
    out = flatten(hat, cs, "forward")
    assert out[0] == pytest.approx(0.4)
    assert out[1] == pytest.approx(x0)


def test_flattening_vertical_gap_bounds(rng):
    hat = _hat(10)
    g = hat.phi.grid
    M = hat.M
    for _ in range(200):
        x = float(rng.integers(0, g.n)) * g.h
        t = float(hat.phi.samples[int(round(x / g.h)) % g.n]
                  + rng.uniform(0.01, 1.0))
        gap = flatten(hat, (t, x), "forward")[0]
        d = graph_distance(hat, (t, x))
        assert d <= gap + 1e-12
        assert gap <= (1 + M) * d + 3 * g.h * (1 + M)


def test_domain_region_examples():
    flat = _flat()
    q0 = boundary_point(flat, 0.5)
    # flat case reduces to the half-space region law
    assert domain_region_contains(flat, 0.5, 1.0, q0, (0.04, 0.55))
    assert not domain_region_contains(flat, 0.5, 1.0, q0, (0.04, 0.95))
    # boundary itself is excluded
    assert not domain_region_contains(flat, 0.5, 1.0, q0, (0.0, 0.5))
    hat = _hat()
    q1 = boundary_point(hat, 0.25)
    for t in (0.1, 0.5):
        X = (phi_at(hat, 0.25) + t, 0.25)  # the corkscrew point at height t
        if t < (1 + 1.0) * (corkscrew_kappa(hat.M) * t) ** 0.5:
            assert domain_region_contains(hat, 0.5, 1.0, q1, X)
    with pytest.raises(ParameterError):
        domain_region_contains(flat, 1.5, 1.0, q0, (0.1, 0.5))


def test_region_inclusion_flat_and_sawtooth():
    flat = _flat()
    rep = region_inclusion_check(flat, 0.5, 1.0, 5000, seed=1)
    assert rep.checked == 5000 and rep.violations == 0
    hat = _hat()
    rep = region_inclusion_check(hat, 0.5, 1.0, 20000, seed=2)
    assert rep.violations == 0
    neg = region_inclusion_check(hat, 0.5, 1.0, 20000, seed=2,
                                 target_aperture=1.0)
    assert neg.violations >= 1
    assert len(neg.witnesses) > 0


def test_region_inclusion_witnesses_are_true_violations():
    # every witness of the shrunken negative control is a member of the
    # domain region, by the distance to every profile sample, and its
    # flattened point lies outside the aperture-1 half-space region
    hat = _hat()
    g = hat.phi.grid
    beta, c = 0.5, 1.0
    neg = region_inclusion_check(hat, beta, c, 20000, seed=2,
                                 target_aperture=1.0)
    assert len(neg.witnesses) > 0
    shrunk = ApproachRegionSpec(beta=beta, aperture=1.0)
    for q0x, t, x in neg.witnesses:
        assert domain_region_contains(hat, beta, c, boundary_point(hat, q0x),
                                      (t, x))
        tp, xp = flatten(hat, (t, x), "forward")
        assert not reference.region_contains(shrunk, q0x, tp, xp,
                                             extent=g.extent)


def test_surface_ball_measure_flat_and_tilted():
    flat = _flat(10)
    g = flat.phi.grid
    q = boundary_point(flat, 0.5)
    assert surface_ball_measure(flat, q, 0.1) == pytest.approx(0.2, abs=2 * g.h)
    # tilted profile: density sqrt(2) everywhere away from the fold
    tilt = _hat(10)
    qt = boundary_point(tilt, 0.125)
    r = 0.05
    expect = math.sqrt(2.0) * 2 * r / math.sqrt(2.0)
    # ambient ball of radius r meets the 45-degree graph over a base
    # window of length 2r/sqrt(2); the area formula multiplies by sqrt(2)
    assert surface_ball_measure(tilt, qt, r) == pytest.approx(
        expect, abs=4 * g.h)
    with pytest.raises(ParameterError):
        surface_ball_measure(flat, q, g.h)


def test_surface_measure_ahlfors_band(rng):
    hat = _hat(10)
    g = hat.phi.grid
    vals = []
    for _ in range(100):
        x = float(rng.integers(0, g.n)) * g.h
        r = float(rng.choice([0.04, 0.08, 0.16]))
        q = boundary_point(hat, x)
        vals.append(surface_ball_measure(hat, q, r) / r)
    assert max(vals) / min(vals) < 8.0


def test_surface_measure_additivity():
    hat = _hat(10)
    q1 = boundary_point(hat, 0.2)
    q2 = boundary_point(hat, 0.7)
    r = 0.05
    a = surface_ball_measure(hat, q1, r)
    b = surface_ball_measure(hat, q2, r)
    # disjoint balls: the union integrates the density over the union
    dens_sum = a + b
    g = hat.phi.grid
    xs = g.axis_coords()
    dens = surface_density(hat)
    inside = np.zeros(g.n, dtype=bool)
    for q in (q1, q2):
        dx = np.abs(xs - q.x[0])
        dx = np.minimum(dx, 1 - dx)
        inside |= dx * dx + (hat.phi.samples - q.lift) ** 2 < r * r
    direct = float(np.sum(dens[inside]) * g.h)
    assert dens_sum == pytest.approx(direct, abs=1e-10)


def test_boundary_seminorm_examples(rng):
    flat = _flat(9)
    g = flat.phi.grid
    const = from_callable(g, lambda x: np.full_like(x, 2.0))
    assert boundary_seminorm(const, 0.25, 2.0) == pytest.approx(2.0)
    assert boundary_seminorm(const, 0.0, 2.0) == pytest.approx(2.0)
    f = GridFunction(g, rng.normal(size=g.size))
    v1 = boundary_seminorm(f, 0.75, 2.0)
    assert v1 > boundary_seminorm(f, 0.0, 2.0)
    for s in (-0.1, 1.0, 1.25, math.nan):
        with pytest.raises(ParameterError, match="s must lie in"):
            boundary_seminorm(f, s, 2.0)
    with pytest.raises(ParameterError):
        boundary_seminorm(f, 0.5, 0.5)
    for p in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            boundary_seminorm(f, 0.5, p)


def test_boundary_seminorm_bilipschitz_reparametrization(rng):
    # chart invariance: a bi-Lipschitz change of the base coordinate moves
    # the norm by a bounded factor
    flat = _flat(9)
    g = flat.phi.grid
    xs = g.axis_coords()
    half = np.zeros(g.n // 2 + 1, complex)
    half[1:20] = rng.normal(size=19) + 1j * rng.normal(size=19)
    f = GridFunction(g, np.fft.irfft(half, n=g.n))
    f = GridFunction(g, f.samples / np.abs(f.samples).max())
    psi = xs + 0.1 * np.sin(2 * np.pi * xs)
    fx = np.interp(((psi % 1.0)), xs, f.samples, period=1.0)
    fpsi = GridFunction(g, fx)
    s, p = 0.5, 2.0
    a = boundary_seminorm(f, s, p)
    b = boundary_seminorm(fpsi, s, p)
    ratio = max(a, b) / min(a, b)
    assert ratio < 4.0


def test_boundary_seminorm_cutoff_multiplication(rng):
    flat = _flat(9)
    g = flat.phi.grid
    xs = g.axis_coords()
    cut = 0.5 * (1 + np.cos(2 * np.pi * xs))  # smooth periodic cutoff
    ratios = []
    for _ in range(10):
        half = np.zeros(g.n // 2 + 1, complex)
        half[1:20] = (stream(len(ratios)).normal(size=19)
                      + 1j * stream(100 + len(ratios)).normal(size=19))
        f = GridFunction(g, np.fft.irfft(half, n=g.n))
        ff = GridFunction(g, cut * f.samples)
        s, p = 0.5, 2.0
        ratios.append(boundary_seminorm(ff, s, p)
                      / boundary_seminorm(f, s, p))
    assert max(ratios) < 3.0
    assert max(ratios) / min(ratios) < 4.0


def test_boundary_tangential_max_flat_regression(rng):
    # on a flat profile the operator equals the assembled pipeline exactly
    from fatou_lab.extension import annuli_surrogate, dyadic_heights
    from fatou_lab.maximal import ApproachRegionSpec, tangential_max

    flat = _flat(8)
    g = flat.phi.grid
    f = GridFunction(g, rng.normal(size=g.size))
    params = dict(alpha_L=0.5, p0=1.5, J=10)
    out = boundary_tangential_max(flat, f, 0.5, 1.0, **params)
    heights = dyadic_heights(1.0, grid=g)
    w = annuli_surrogate(f, heights, 0.5, 1.5, 10)
    spec = ApproachRegionSpec(beta=0.5, aperture=2.0, t_max=1.0)
    expect = tangential_max(w, spec)
    np.testing.assert_allclose(out.samples, expect.samples, atol=1e-10)
    zero = from_callable(g, np.zeros_like)
    assert np.abs(boundary_tangential_max(flat, zero, 0.5, 1.0,
                                          **params).samples).max() == 0.0


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
def test_boundary_tangential_max_rejects_bad_c(c):
    flat = _flat(6)
    f = GridFunction(flat.phi.grid, np.ones(flat.phi.grid.size))
    with pytest.raises(ParameterError, match="c must be finite and positive"):
        boundary_tangential_max(flat, f, 0.5, c, 0.5, 1.5, 10)


def test_boundary_tangential_max_rejects_data_on_another_grid():
    f = GridFunction(make_grid(1, 6, 1.0), np.ones(64))
    with pytest.raises(GridMismatchError, match="grids differ"):
        boundary_tangential_max(_flat(8), f, 0.5, 1.0, 0.5, 1.5, 10)


def test_boundary_max_band(rng):
    # scaled-down version of the boundary maximal bound band
    s, p, beta, c = 0.25, 2.0, 0.5, 0.5
    params = dict(alpha_L=0.5, p0=1.5, J=10)
    ratios = []
    for levels in (9, 10):
        g = make_grid(1, levels, 1.0)
        graph = lipschitz_graph(from_callable(
            g, lambda x: 0.25 - np.abs(np.abs(x - 0.5) - 0.25)))
        for _ in range(4):
            f = bessel_smooth(GridFunction(g, rng.normal(size=g.size)), 2 * s)
            btm = boundary_tangential_max(graph, f, beta, c, **params)
            ratios.append(lp_norm_sigma(graph, btm, p)
                          / boundary_seminorm(f, s, p))
    assert max(ratios) / min(ratios) < 4.0


def test_lipschitz_graph_rebuilds_from_profile_and_constant():
    # a profile and its declared constant make the same graph again; a
    # declared constant above the certified slope is kept as declared
    hat = _hat(8)
    for M in (hat.M, 2.0 * hat.M):
        back = lipschitz_graph(hat.phi, M=M)
        assert back.M == M
        np.testing.assert_array_equal(back.phi.samples, hat.phi.samples)


@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.0, exclude_max=True))
def test_lipschitz_graph_profile_must_fill_its_grid(frac):
    # a profile must fill its grid
    hat = _hat(3)
    cut = hat.phi.samples[:int(frac * hat.phi.samples.size)]
    with pytest.raises(ParameterError, match="samples"):
        lipschitz_graph(GridFunction(hat.phi.grid, cut))


def test_declared_constant_may_not_fall_short_of_the_slope(tmp_path, capsys):
    # the declared constant may not fall short of the certified slope; a
    # config cannot declare one (the corkscrew slopes are pinned), so
    # m_values stops as an unknown key before the output directory
    hat = _hat(3)
    with pytest.raises(ParameterError, match="exceeding declared M"):
        lipschitz_graph(hat.phi, M=hat.M * (1.0 - 1e-6))
    assert lipschitz_graph(hat.phi, M=hat.M * (1.0 - 1e-12)).M < hat.M
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nexperiment = corkscrew-geometry\n"
                    "levels = 6\nm_values = -1\n")
    assert main(["verify", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "unknown config key(s) 'm_values'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_declared_constant_must_be_finite():
    prof = _flat().phi
    for M in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterError):
            lipschitz_graph(prof, M=M)


@pytest.mark.parametrize("levels, m_values, seed", [
    ((12,), (0.5, 1.0, 3.0), 0),
    ((11,), (0.5, 1.0, 2.0, 3.0), 2),
])
def test_corkscrew_upper_clearance_has_no_false_positives(levels, m_values,
                                                          seed, monkeypatch):
    # the distance never exceeds the computed vertical gap (phi + t) - phi;
    # a tolerance relative to t alone misses its rounding when |phi| >> t
    monkeypatch.setattr(experiments, "_CORKSCREW_SLOPES", m_values)
    rep = run_experiment(ExperimentConfig(
        experiment="corkscrew-geometry", levels=levels, seeds=(seed,)))
    assert all(c.passed for c in rep.criteria), rep.criteria
    assert all(row[-1] == 0 for row in rep.rows)


def test_region_inclusion_prefilter_keeps_members(rng):
    # the skipped queries are exactly the non-members: recount membership
    # with every distance computed
    g = make_grid(1, 8, 1.0)
    prof = bessel_smooth(GridFunction(g, rng.normal(size=g.size)), 2.0)
    graph = lipschitz_graph(GridFunction(g, prof.samples * 4.0))
    beta, c = 0.5, 1.0
    r = stream(3)
    i0 = r.integers(0, g.n, size=4000)
    gap = np.exp(r.uniform(np.log(g.h / 4.0), 0.0, size=4000))
    ix = (i0 + r.integers(-40, 41, size=4000)) % g.n
    phi = graph.phi.samples
    t = phi[ix] + gap
    d = graph_distance_batch(graph, t, ix * g.h)
    dx = np.abs(ix - i0) * g.h
    dx = np.minimum(dx, g.extent - dx)
    sep = np.hypot(dx, t - phi[i0])
    tv = np.abs(t - phi[ix])
    bound = (1.0 + c) * np.maximum(tv ** beta, tv) * (1.0 + 1e-12)
    member = (d > 0) & (sep < (1.0 + c) * np.where(d <= 1.0, d ** beta, d))
    assert not np.any(member & (sep >= bound))
    assert np.any(sep >= bound)


def _inclusion_profile(kind, g):
    if kind == "flat":
        return from_callable(g, np.zeros_like)
    if kind.startswith("sawtooth"):
        return _sawtooth(g, float(kind[len("sawtooth"):]))
    return _smooth_profile(g, 6.0, 7)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["flat", "sawtooth0.5", "sawtooth2", "smooth"]),
       beta=st.floats(0.05, 1.0), c=st.floats(0.05, 4.0),
       seed=st.integers(0, 2 ** 31))
def test_region_inclusion_certificate_is_sound(kind, beta, c, seed):
    # samples (t, ix h) placed at the membership boundary d = rho: the
    # vertex i0 is the column whose separation is closest to (1 + c) b(d),
    # d by the distance to every profile sample; a certified sample must
    # be a member by that distance
    g = make_grid(1, 7, 1.0)
    graph = lipschitz_graph(_inclusion_profile(kind, g))
    phi = graph.phi.samples
    r = np.random.Generator(np.random.Philox(key=seed))
    m = 512
    ix = r.integers(0, g.n, size=m)
    t = phi[ix] + np.exp(r.uniform(np.log(g.h / 4.0), 0.0, size=m))
    lat = np.abs(ix[:, None] * g.h - g.axis_coords())
    lat = np.minimum(lat, g.extent - lat)
    sep_all = np.hypot(lat, t[:, None] - phi)  # to every vertex (phi_i, x_i)
    d = sep_all.min(axis=1)
    bound = (1.0 + c) * np.where(d <= 1.0, d ** beta, d)
    i0 = np.argmin(np.abs(sep_all - bound[:, None]), axis=1)
    sep = sep_all[np.arange(m), i0]
    member = (d > 0) & (sep < bound)
    certified = _certified_members(graph, beta, c, sep, t, ix)
    assert not np.any(certified & ~member)
    if kind == "flat":
        assert np.any(certified)


@pytest.mark.parametrize("kind, beta, c, seed, aperture", [
    ("flat", 0.5, 1.0, 0, None),
    ("sawtooth0.5", 0.5, 1.0, 1, None),
    ("sawtooth2", 0.25, 0.5, 2, None),
    ("smooth", 1.0, 2.0, 3, None),
    ("smooth", 0.5, 1.0, 4, None),
    ("sawtooth1", 0.5, 1.0, 0, 1.0),
])
def test_region_inclusion_matches_full_scan(kind, beta, c, seed, aperture):
    # the certificate and the prefilter only skip distance queries: the
    # report equals the sampler's with every distance computed
    graph = lipschitz_graph(_inclusion_profile(kind, make_grid(1, 9, 1.0)))
    rep = region_inclusion_check(graph, beta, c, 20000, seed=seed,
                                 target_aperture=aperture)
    assert rep == reference.region_inclusion_full_scan(
        graph, beta, c, 20000, seed=seed, target_aperture=aperture)
    assert rep.checked == 20000
    assert (rep.violations > 0) == (aperture is not None)


@pytest.mark.parametrize("beta, c, aperture", [
    (math.inf, 1.0, None), (0.5, 1.0, 0.0), (0.5, 1.0, -1.0),
    (0.5, 1.0, math.nan), (0.5, 1.0, math.inf),
    (0.0, 1.0, None), (-0.5, 1.0, None), (1.5, 1.0, None),
    (math.nan, 1.0, None), (0.5, 0.0, None), (0.5, -1.0, None),
    (0.5, math.nan, None), (0.5, math.inf, None),
])
def test_region_inclusion_rejects_bad_parameters(beta, c, aperture):
    with pytest.raises(ParameterError):
        region_inclusion_check(_flat(), beta, c, 100, 0,
                               target_aperture=aperture)


def test_region_inclusion_finds_no_member_far_above_the_profile():
    # at a lift of 1e20 the sampled gaps round away (t == phi), so no
    # sample is a member and nothing is checked
    graph = lipschitz_graph(from_callable(make_grid(1, 8, 1.0),
                                          lambda x: np.full_like(x, 1e20)))
    rep = region_inclusion_check(graph, 0.5, 1.0, 50, 0)
    assert (rep.checked, rep.violations) == (0, 0)


def _wavy_2d(rng, levels=4, extent=2.7):
    g = make_grid(2, levels, extent)
    prof = from_callable(g, lambda x0, x1: 0.1 * np.sin(2 * np.pi * x0 / extent)
                         + 0.07 * np.cos(4 * np.pi * x1 / extent))
    return lipschitz_graph(GridFunction(g, prof.samples
                                        + 0.01 * rng.normal(size=g.size)))


def _base_points(g):
    xs = g.axis_coords()
    return [(i * g.n + j, np.array([xs[i], xs[j]]))
            for i in range(g.n) for j in range(g.n)]


def test_graph_distance_2d_image_oracle(rng, image_distance):
    graph = _wavy_2d(rng)
    g, phi = graph.phi.grid, graph.phi.samples
    # lateral coordinates within h of the seam and anywhere on the torus
    for x in [np.array([g.extent - 0.3 * g.h, 0.2 * g.h]),
              *rng.uniform(0, g.extent, size=(6, 2))]:
        X = np.concatenate([[rng.uniform(-0.2, 0.6)], x])
        direct = min(math.hypot(image_distance(p, x, g.extent), phi[i] - X[0])
                     for i, p in _base_points(g))
        assert graph_distance(graph, X) == pytest.approx(direct, rel=1e-12)


def test_surface_ball_measure_2d_image_oracle(rng, image_distance):
    graph = _wavy_2d(rng, levels=5)
    g, phi = graph.phi.grid, graph.phi.samples
    dens = surface_density(graph)
    for _ in range(6):
        q = boundary_point(graph, rng.uniform(0, g.extent, size=2))
        r = rng.uniform(4 * g.h, g.extent / 4)
        direct = g.h * g.h * sum(
            dens[i] for i, p in _base_points(g)
            if math.hypot(image_distance(p, q.x, g.extent), phi[i] - q.lift) < r)
        assert surface_ball_measure(graph, q, r) == pytest.approx(direct,
                                                                   rel=1e-12)


def test_certified_slope_and_density_2d_loop_oracle(rng):
    graph = _wavy_2d(rng)
    g = graph.phi.grid
    arr, n = graph.phi.as_array(), g.n
    steps, dens = [], np.empty((n, n))
    for i in range(n):
        for j in range(n):
            steps += [abs(arr[(i + 1) % n, j] - arr[i, j]),
                      abs(arr[i, (j + 1) % n] - arr[i, j])]
            d0 = (arr[(i + 1) % n, j] - arr[(i - 1) % n, j]) / (2 * g.h)
            d1 = (arr[i, (j + 1) % n] - arr[i, (j - 1) % n]) / (2 * g.h)
            dens[i, j] = math.sqrt(1.0 + d0 * d0 + d1 * d1)
    assert graph.M == pytest.approx(max(steps) / g.h, rel=1e-14)
    np.testing.assert_allclose(surface_density(graph), dens.reshape(-1),
                               rtol=1e-14)
