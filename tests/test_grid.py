import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fatou_lab.config import ExperimentConfig, load, parse, serialize, validate
from fatou_lab.errors import GridMismatchError, ParameterError
from fatou_lab.grid import (GridFunction, ball_mean_all_centers, disc_rows,
                            fft_convolve, from_callable, lp_norm, make_grid,
                            nearest_index, open_path, window_halfwidth)
from fatou_lab.report import RunReport, emit_report
from reference import _ball_indices, ball_average, torus_distance


def test_make_grid_examples():
    g = make_grid(1, 3, 1.0)
    assert g.n == 8 and g.h == 0.125
    g2 = make_grid(2, 2, 2.0)
    assert g2.n == 4 and g2.h == 0.5 and g2.size == 16
    with pytest.raises(ParameterError):
        make_grid(1, 1, 1.0)
    with pytest.raises(ParameterError):
        make_grid(3, 4, 1.0)
    with pytest.raises(ParameterError):
        make_grid(1, 4, -1.0)
    with pytest.raises(ParameterError):
        make_grid(2, 13, 1.0)


def test_grid_function_immutable(rng):
    g = make_grid(1, 4, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    with pytest.raises(ValueError):
        f.samples[0] = 1.0
    with pytest.raises(AttributeError):
        f.samples = np.zeros(g.size)
    with pytest.raises(ParameterError):
        GridFunction(g, np.full(g.size, np.nan))
    with pytest.raises(ParameterError):
        GridFunction(g, np.zeros(g.size + 1))


def test_lp_norm_examples():
    g = make_grid(1, 6, 1.0)
    one = from_callable(g, np.ones_like)
    assert lp_norm(one, 2.0) == pytest.approx(1.0)
    zero = from_callable(g, np.zeros_like)
    assert lp_norm(zero, 1.0) == 0.0
    assert lp_norm(zero, math.inf) == 0.0
    g12 = make_grid(1, 12, 1.0)
    sin = from_callable(g12, lambda x: np.sin(2 * np.pi * x))
    # analytic oracle: integral of sin^2 over one period is 1/2
    assert lp_norm(sin, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-6)
    with pytest.raises(ParameterError):
        lp_norm(one, 0.5)


def test_lp_norm_is_the_power_sum_bit_for_bit(rng):
    # the in-place power gives the floats of the plain expression, fast
    # paths (p = 1, 2) included
    for dim, level in ((1, 10), (2, 5)):
        g = make_grid(dim, level, 3.0)
        f = GridFunction(g, rng.normal(size=g.size))
        for p in (1, 1.0, 1.5, 2, 2.0, 3.0, 4.5):
            expect = float((g.h ** dim * np.sum(np.abs(f.samples) ** p)) ** (1.0 / p))
            assert lp_norm(f, p) == expect


def test_ball_average_examples():
    g = make_grid(1, 10, 1.0)
    const = from_callable(g, lambda x: np.full_like(x, 3.0))
    assert ball_average(const, 0.2, 0.05, 1.0) == pytest.approx(3.0)
    ind = from_callable(g, lambda x: (x < 0.5).astype(float))
    assert ball_average(ind, 0.25, 0.1, 1.0) == pytest.approx(1.0)
    lin = from_callable(g, lambda x: x)
    # symmetry oracle: mean over a symmetric ball around 0.5 is 0.5 up to h
    assert ball_average(lin, 0.5, 0.25, 1.0) == pytest.approx(0.5, abs=g.h)
    with pytest.raises(ParameterError):
        ball_average(const, 0.2, 0.05, 0.5)


def test_ball_average_direct_sum_oracle(rng):
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    center, radius, q = 0.3, 0.11, 2.0
    xs = g.axis_coords()
    d = np.abs(xs - center)
    d = np.minimum(d, 1.0 - d)
    inside = d < radius
    expect = (np.mean(np.abs(f.samples[inside]) ** q)) ** (1 / q)
    assert ball_average(f, center, radius, q) == pytest.approx(expect, rel=1e-12)


def test_ball_average_empty_falls_back_to_nearest():
    g = make_grid(1, 6, 1.0)
    f = from_callable(g, lambda x: x)
    # off-grid center with a radius below half the spacing: no point inside
    center = 0.5 + 0.6 * g.h
    assert ball_average(f, center, g.h / 4, 1.0) == pytest.approx(0.5 + g.h)


def test_ball_mean_all_centers_matches_scalar(rng):
    for dim, levels in ((1, 8), (2, 5)):
        g = make_grid(dim, levels, 1.0)
        f = GridFunction(g, rng.normal(size=g.size))
        radius = 5 * g.h
        batch = ball_mean_all_centers(f, radius, 2.0)
        xs = g.axis_coords()
        for flat in rng.integers(0, g.size, size=12):
            center = xs[flat] if dim == 1 else (xs[flat // g.n], xs[flat % g.n])
            assert batch[flat] == pytest.approx(
                ball_average(f, center, radius, 2.0), rel=1e-9, abs=1e-12)


def test_fft_convolve_delta_identity(rng):
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, rng.normal(size=g.size))
    delta = np.zeros(g.size)
    delta[0] = 1.0 / g.h
    out = fft_convolve(f, GridFunction(g, delta))
    np.testing.assert_allclose(out.samples, f.samples, atol=1e-12)


def test_fft_convolve_fourier_eigenfunction():
    g = make_grid(1, 8, 2.0)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x / g.extent))
    # kernel whose h-scaled transform is 0.5 at mode 1
    half = np.zeros(g.n // 2 + 1)
    half[1] = 0.5 / g.h
    kern = np.fft.irfft(half, n=g.n)
    out = fft_convolve(f, GridFunction(g, kern))
    np.testing.assert_allclose(out.samples, 0.5 * f.samples, atol=1e-12)


def test_fft_convolve_triangle_oracle():
    g = make_grid(1, 9, 1.0)
    ind = from_callable(g, lambda x: (x < 0.5).astype(float))
    out = fft_convolve(ind, ind)
    # direct O(N^2) circular convolution
    n = g.n
    direct = np.array([g.h * sum(ind.samples[j] * ind.samples[(i - j) % n]
                                 for j in range(n)) for i in range(n)])
    np.testing.assert_allclose(out.samples, direct, atol=1e-12)
    peak = out.samples[int(0.5 / g.h)]
    assert abs(peak - 0.5) <= 2 * g.h


def test_fft_convolve_grid_mismatch():
    f = from_callable(make_grid(1, 5, 1.0), np.ones_like)
    k = from_callable(make_grid(1, 6, 1.0), np.ones_like)
    with pytest.raises(GridMismatchError):
        fft_convolve(f, k)


def test_parseval(rng):
    g = make_grid(1, 9, 2.0)
    f = GridFunction(g, rng.normal(size=g.size))
    spec = np.fft.fft(f.samples)
    scaled = g.h ** 1 * np.sum(np.abs(spec) ** 2) / g.n
    assert lp_norm(f, 2.0) ** 2 == pytest.approx(scaled, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
def test_convolution_symmetry(sa, sb):
    g = make_grid(1, 6, 1.0)
    ra = np.random.Generator(np.random.Philox(key=sa))
    rb = np.random.Generator(np.random.Philox(key=sb))
    f = GridFunction(g, ra.normal(size=g.size))
    k = GridFunction(g, rb.normal(size=g.size))
    np.testing.assert_allclose(fft_convolve(f, k).samples,
                               fft_convolve(k, f).samples, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_youngs_inequality(seed):
    g = make_grid(1, 7, 1.0)
    r = np.random.Generator(np.random.Philox(key=seed))
    f = GridFunction(g, np.abs(r.normal(size=g.size)))
    k = GridFunction(g, np.abs(r.normal(size=g.size)))
    for p in (1.0, 2.0, math.inf):
        lhs = lp_norm(fft_convolve(f, k), p)
        assert lhs <= lp_norm(f, p) * lp_norm(k, 1.0) * (1 + 1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(1.0, 4.0), st.floats(0.0, 4.0))
def test_ball_average_power_mean_monotone(seed, q1, dq):
    g = make_grid(1, 6, 1.0)
    r = np.random.Generator(np.random.Philox(key=seed))
    f = GridFunction(g, r.normal(size=g.size))
    a1 = ball_average(f, 0.4, 0.13, q1)
    a2 = ball_average(f, 0.4, 0.13, q1 + dq)
    assert a1 <= a2 + 1e-12


# The files the lab still reads and writes go through open_path: the INI
# config, which carries the grid (dim, levels), and the reports.


def test_binary_round_trip(tmp_path):
    for dim, levels in ((1, 6), (2, 4)):
        cfg = validate(ExperimentConfig(experiment="poisson-exactness",
                                        dim=dim, levels=(levels,)))
        path = tmp_path / f"c{dim}.ini"
        path.write_text(serialize(cfg))
        back = load(path)
        assert back == cfg
        assert make_grid(back.dim, back.levels[0], back.extent) == \
            make_grid(dim, levels, 1.0)
    with pytest.raises(ParameterError):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"NOPE" + b"\0" * 40)
        load(bad)


def _csv_values(path) -> np.ndarray:
    """The value column of a CSV report."""
    return np.array([float(line.rsplit(",", 1)[1])
                     for line in path.read_text().splitlines()[1:]])


def test_csv_round_trip(tmp_path, rng):
    rep = RunReport(experiment="t", config_hash="0", seeds=(0,), version="0")
    values = rng.normal(size=40)
    for i, v in enumerate(values):
        rep.add_row(10, i, "ratio", v)
    emit_report(rep, "csv", str(tmp_path))
    np.testing.assert_array_equal(_csv_values(tmp_path / "t.csv"), values)


def test_csv_report_and_config_carry_every_double(tmp_path, rng):
    # .17g carries every double, subnormals and extremes included, in the
    # CSV report and in the config alike
    values = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(
        -300, 300, size=40), [5e-324, -2.2250738585072014e-308,
                              1.7976931348623157e308, 0.1, 1 / 3, -0.0]])
    rep = RunReport(experiment="t", config_hash="0", seeds=(0,), version="0")
    for v in values:
        rep.add_row(10, 0, "v", v)
    emit_report(rep, "csv", str(tmp_path))
    back = _csv_values(tmp_path / "t.csv")
    assert back.tobytes() == values.tobytes()
    for v in (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
              1 / 3):
        cfg = ExperimentConfig(experiment="inclusion-lemma", c=v)
        assert parse(serialize(cfg)).c == v


_FILE_FUZZ = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])
_FROSTMAN = serialize(ExperimentConfig(experiment="frostman-lemma"))


@_FILE_FUZZ
@given(cut=st.integers(0, _FROSTMAN.index("frostman-lemma")
                     + len("frostman-lemm")))
def test_truncated_config_file_raises(tmp_path, cut):
    # cut before the end of its one required value, the experiment name,
    # the config cannot load
    path = tmp_path / "c.ini"
    path.write_text(_FROSTMAN[:cut])
    with pytest.raises(ParameterError):
        load(path)


@_FILE_FUZZ
@given(blob=st.binary(max_size=160))
def test_fuzzed_config_file_loads_or_raises_parameter_error(tmp_path, blob):
    path = tmp_path / "c.ini"
    path.write_bytes(b"[experiment]\nexperiment = poincare\n" + blob)
    try:
        cfg = load(path)
    except ParameterError:
        return
    assert validate(cfg) == cfg
    make_grid(cfg.dim, max(cfg.levels), cfg.extent)


@pytest.mark.parametrize("dim,levels", [(1, 6), (2, 4)])
@pytest.mark.parametrize("radius", [0.6, 1.0])
def test_ball_mean_all_centers_past_half_the_torus(rng, dim, levels, radius):
    # a disc wider than half the torus wraps onto itself: each point
    # counts once, so a constant stays constant
    g = make_grid(dim, levels, 1.0)
    const = GridFunction(g, np.ones(g.size))
    np.testing.assert_allclose(ball_mean_all_centers(const, radius, 1.0), 1.0,
                               rtol=1e-12)
    f = GridFunction(g, rng.normal(size=g.size))
    batch = ball_mean_all_centers(f, radius, 1.5)
    xs = g.axis_coords()
    for flat in (0, 5, g.size - 1):
        center = xs[flat] if dim == 1 else (xs[flat // g.n], xs[flat % g.n])
        assert batch[flat] == pytest.approx(
            ball_average(f, center, radius, 1.5), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("radius_in_h", [0.5, 1.0, 1.5, 4.0, 5.0, 7.3, 12.0])
def test_disc_rows_expand_to_the_disc_in_row_major_order(radius_in_h):
    g = make_grid(2, 4, 1.0)
    radius = radius_in_h * g.h
    k = window_halfwidth(radius, g.h)
    expect = [(a, b) for a in range(-k, k + 1) for b in range(-k, k + 1)
              if (a * a + b * b) * g.h * g.h < radius * radius * (1 - 1e-12)]
    dys, ws = disc_rows(g, radius)
    got = [(dy, dx) for dy, w in zip(dys.tolist(), ws.tolist())
           for dx in range(-w, w + 1)]
    assert got == expect


def test_save_writes_without_copying_the_samples(rng):
    # a grid function holds one copy of its samples, and its array view
    # is that copy, read-only
    g = make_grid(1, 17, 1.0)
    raw = rng.normal(size=g.size)
    tracemalloc.start()
    try:
        f = GridFunction(g, raw)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        view = f.as_array()
        viewed = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the copy and the finiteness check's mask of one byte per sample
    assert built < raw.nbytes * 5 / 4
    assert viewed < raw.nbytes / 8
    assert np.shares_memory(view, f.samples) and not view.flags.writeable
    assert not np.shares_memory(f.samples, raw)


def test_open_path_turns_a_failed_write_into_a_parameter_error():
    # the write fails after the file opened: the disk is full
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with pytest.raises(ParameterError, match="cannot write /dev/full"):
        with open_path("/dev/full", "w") as fh:
            fh.write("x")


def _points_2d(g):
    xs = g.axis_coords()
    return [np.array([xs[i], xs[j]]) for i in range(g.n) for j in range(g.n)]


def test_torus_distance_image_oracle(rng, image_distance):
    for dim, extent in ((1, 2.7), (2, 2.7), (2, 3.0)):
        for _ in range(20):
            x, y = rng.uniform(0, extent, size=(2, dim))
            assert torus_distance(x, y, extent) == pytest.approx(
                image_distance(x, y, extent), rel=1e-14)
            # points given whole periods away from the base cell
            assert torus_distance(x + 3 * extent, y - 2 * extent, extent) == \
                pytest.approx(image_distance(x, y, extent), rel=1e-12, abs=1e-14)
    # rows of points give one distance per row
    xs = rng.uniform(0, 2.7, size=(5, 2))
    np.testing.assert_allclose(torus_distance(xs, xs[0], 2.7),
                               [image_distance(x, xs[0], 2.7) for x in xs],
                               rtol=1e-14)


def test_nearest_index_2d_image_oracle(rng, image_distance):
    g = make_grid(2, 4, 2.7)
    pts = _points_2d(g)
    centers = np.array([[g.extent - 0.4 * g.h, 0.3 * g.h],
                        *rng.uniform(0, g.extent, size=(20, 2))])
    brutes = []
    for c in centers:
        brute = min(range(g.size),
                    key=lambda i: image_distance(pts[i], c, g.extent))
        assert nearest_index(g, c) == brute
        brutes.append(brute)
    # point rows give one index per row
    assert nearest_index(g, centers).tolist() == brutes
    assert nearest_index(g, centers.reshape(3, 7, 2)).tolist() == \
        np.reshape(brutes, (3, 7)).tolist()


def test_ball_indices_2d_off_grid_center_at_seam(rng, image_distance):
    g = make_grid(2, 4, 2.7)
    pts = _points_2d(g)
    for c in [np.array([g.extent - 0.6 * g.h, 0.45 * g.h]),
              np.array([0.2 * g.h, g.extent - 0.9 * g.h])]:
        for r in rng.uniform(0.5 * g.h, 0.4 * g.extent, size=8):
            brute = [i for i in range(g.size)
                     if image_distance(pts[i], c, g.extent) < r]
            assert _ball_indices(g, c, r).tolist() == brute


def test_fft_convolve_2d_circular_sum_oracle(rng):
    g = make_grid(2, 3, 2.7)
    f, k = rng.normal(size=(2, g.n, g.n))
    n = g.n
    direct = np.array([[g.h * g.h * sum(f[a, b] * k[(i - a) % n, (j - b) % n]
                                        for a in range(n) for b in range(n))
                        for j in range(n)] for i in range(n)])
    out = fft_convolve(GridFunction(g, f), GridFunction(g, k))
    np.testing.assert_allclose(out.as_array(), direct, rtol=1e-12,
                               atol=1e-12 * np.abs(direct).max())
