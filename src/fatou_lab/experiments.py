"""Experiment implementations behind `fatou-lab verify` and the suite.

Each experiment turns one family of inequality or dimension claims into
a deterministic pass/fail report.  One-sided bounds with unspecified
constants are verified as constant-band stability: the empirical ratio
must stay inside a fixed multiplicative band across refinement levels
and random draws.  Negative controls drive the same statistic out of
band on data engineered to break the hypothesis.
"""

import math

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash, validate
from .extension import HalfSpaceField, dyadic_heights, poisson_slices
from .fractal import PointSet, box_dimension, cantor_measure, \
    integrate_against, divergence_set
from .grid import GridFunction, GridStack, ball_mean_all_centers, \
    from_callable, fft_convolve, lp_norm, lp_norms, make_grid, nearest_index
from .kernels import bessel_kernel, bessel_l1_norm, riesz_kernel
from .lipschitz import boundary_seminorm, boundary_tangential_max, \
    corkscrew_kappa, graph_distance_batch, lipschitz_graph, lp_norm_sigma, \
    region_inclusion_check
from .maximal import ApproachRegionSpec, dilated_mitigated_max, hl_max_q, \
    poisson_tangential_max
from .potentials import bessel_smooth, dyadic_scales, sharp_maximal
from .report import RunReport
from .rng import stream, substream


def _band(values) -> tuple:
    arr = np.asarray(list(values), dtype=float)
    return float(arr.min()), float(arr.max()), float(arr.max() / arr.min())


def white_noise(grid, seed: int, label: int = 0) -> GridFunction:
    return GridFunction(grid, substream(seed, label).normal(size=grid.size))


def nonneg_noise(grid, seed: int, label: int = 0) -> GridFunction:
    return GridFunction(grid, np.abs(substream(seed, label).normal(size=grid.size)))


def unit_l2(grid, f):
    """f (a GridFunction or a GridStack, row by row) over its L2 norm."""
    norms = np.array(lp_norms(f, 2.0)).reshape(f.samples.shape[:-1] + (1,))
    return type(f)(grid, f.samples / norms)


# samples per stacked array: the seeds of one level are run as stacks of
# rows of at most this many samples (32 rows at 2^12, 8 at 2^14, one from
# 2^17 up), so no stack outgrows a single row of the 2^20 control
_STACK_SAMPLES = 1 << 17


def seed_stacks(grid, seeds) -> list:
    """seeds in order, cut into runs of as many as fit one stack on grid."""
    width = max(1, _STACK_SAMPLES // grid.size)
    return [tuple(seeds[i:i + width]) for i in range(0, len(seeds), width)]


def noise_stack(grid, seeds) -> GridStack:
    """white_noise(grid, seed) of each seed, one per row."""
    return GridStack(grid, [substream(seed, 0).normal(size=grid.size)
                            for seed in seeds])


def spike_data(grid, positions) -> GridFunction:
    """Sum of single-sample spikes, L2-normalized."""
    g = np.zeros(grid.size)
    positions = np.atleast_1d(positions)
    # spikes at one grid point add up
    np.add.at(g, nearest_index(grid, positions[:, None]),
              1.0 / math.sqrt(grid.h))
    f = GridFunction(grid, g)
    return unit_l2(grid, f)


def _new_report(cfg: ExperimentConfig) -> RunReport:
    return RunReport(experiment=cfg.experiment, config_hash=config_hash(cfg),
                     seeds=tuple(cfg.seeds), version=__version__)


# --------------------------------------------------------------------------
# kernel identities


def _run_kernel_identities(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    pairs = [(n, a) for n in (1, 2) for a in (0.25, 0.5, 1.0, 1.5)]
    worst = 0.0
    for n, a in pairs:
        err = abs(bessel_l1_norm(n, a) - 1.0)
        rep.add_row(0, 0, f"l1_err_n{n}_a{a}", err)
        worst = max(worst, err)
    rep.stats["l1_worst_err"] = worst
    rep.add_criterion("bessel unit mass", worst <= 1e-4,
                      f"max |L1(G_alpha) - 1| = {worst:.3g} (tol 1e-4)")
    viol = 0
    checked = 0
    for n, a in pairs:
        if not a < n:
            continue
        radii = np.geomspace(1e-3, 5.0, 334)
        for r in radii:
            x = (r, 0.0) if n == 2 else r
            checked += 1
            if not bessel_kernel(n, a, x) <= riesz_kernel(n, a, x):
                viol += 1
    rep.stats["domination_checked"] = checked
    rep.add_criterion("pointwise domination by the Riesz kernel", viol == 0,
                      f"{viol} violations on {checked} sample points")
    ratios = []
    for n, a in pairs:
        if not a < n:
            continue
        x = (1e-3, 0.0) if n == 2 else 1e-3
        ratios.append(bessel_kernel(n, a, x) / riesz_kernel(n, a, x))
        rep.add_row(0, 0, f"origin_ratio_n{n}_a{a}", ratios[-1])
    ok = all(0.9 <= q <= 1.0 for q in ratios)
    rep.add_criterion("kernel ratio near the origin", ok,
                      f"ratios in [{min(ratios):.4f}, {max(ratios):.4f}], "
                      f"required [0.9, 1.0]")
    return rep


# --------------------------------------------------------------------------
# poisson exactness on the eigenfunction


def _run_poisson_exactness(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    grid = make_grid(cfg.dim, max(cfg.levels), cfg.extent)
    f = from_callable(grid, lambda x, *_: np.cos(2 * np.pi * x / grid.extent))
    heights = dyadic_heights(1.0, grid=grid)

    def slice_error(t, u):
        u -= math.exp(-2 * math.pi * t / grid.extent) * f.samples
        return float(np.abs(u, out=u).max())

    # map keeps no reference to a checked slice while the next is formed
    worst = max([0.0, *map(slice_error, heights, poisson_slices(f, heights))])
    rep.stats["max_slice_error"] = worst
    rep.add_criterion("poisson eigenfunction exactness", worst <= 1e-12,
                      f"max slice error {worst:.3g} (tol 1e-12)")
    return rep


# --------------------------------------------------------------------------
# maximal-convolution commutation


def _run_commute_lemma(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    grid = make_grid(cfg.dim, max(cfg.levels), cfg.extent)
    total_viol = 0
    worst_gap = -np.inf

    for seed in cfg.seeds:
        kern = nonneg_noise(grid, seed, label=1)
        kern = GridFunction(grid, kern.samples / (kern.samples.sum() * grid.h))
        dens = nonneg_noise(grid, seed, label=2)
        for q in (1.0, 2.0):
            lhs = hl_max_q(fft_convolve(kern, dens), q)
            rhs = fft_convolve(kern, hl_max_q(dens, q))
            gap = lhs.samples - rhs.samples
            viol = int(np.sum(gap > 1e-8))
            rep.add_row(max(cfg.levels), seed, f"violations_q{q}", viol)
            total_viol += viol
            worst_gap = max(worst_gap, float(gap.max()))
    rep.stats["worst_gap"] = worst_gap
    rep.add_criterion(
        "maximal function commutes with convolution", total_viol == 0,
        f"{total_viol} pointwise violations beyond 1e-8 "
        f"(worst signed gap {worst_gap:.3g})")
    return rep


# --------------------------------------------------------------------------
# pointwise Poincare inequality for smoothed functions

_POINCARE_ORDERS = (0.3, 0.7)   # smoothness orders of the Bessel potentials


def _run_poincare(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    ok = True
    details = []
    # (level, seed, C) per order; the noise, its maximal function and the
    # pairs do not depend on the order, so each is drawn once
    rows = {alpha: [] for alpha in _POINCARE_ORDERS}
    for level in cfg.levels:
        grid = make_grid(1, level, cfg.extent)
        for seed in cfg.seeds:
            g = white_noise(grid, seed)
            rng = substream(seed, 77)
            # log-uniform separations represent every scale equally at
            # every refinement level, keeping the extreme statistic stable
            i = rng.integers(0, grid.n, size=10_000)
            lag = np.exp(rng.uniform(0.0, math.log(grid.n // 2),
                                     size=10_000)).astype(int)
            j = (i + np.maximum(lag, 1)) % grid.n
            d = np.abs(i - j) * grid.h
            d = np.minimum(d, grid.extent - d)
            mg = hl_max_q(g, 1.0).samples
            mg_pair = mg[i] + mg[j]
            for alpha in _POINCARE_ORDERS:
                f = bessel_smooth(g, alpha)
                num = np.abs(f.samples[i] - f.samples[j])
                den = d ** alpha * mg_pair
                rows[alpha].append((level, seed, float(np.max(num / den))))
    for alpha in _POINCARE_ORDERS:
        for level, seed, c in rows[alpha]:
            rep.add_row(level, seed, f"poincare_C_a{alpha}", c)
        lo, hi, band = _band([c for _, _, c in rows[alpha]])
        rep.stats[f"band_a{alpha}"] = band
        details.append(f"alpha={alpha}: C in [{lo:.4g}, {hi:.4g}], band {band:.3f}")
        ok = ok and band < 1.5
    rep.add_criterion("smoothed-function Poincare constant stability", ok,
                      "; ".join(details) + " (required band < 1.5)")
    return rep


# --------------------------------------------------------------------------
# tangential maximal bound and its negative control


def _tangential_ratios(draws, cfg: ExperimentConfig, beta: float) -> list:
    """Per row of each data set that draws yields (unit-L2, a GridFunction
    or a GridStack), the L^p norm of the Poisson tangential max of its
    Bessel smoothing over the row's own L^p norm.  draws must keep no
    reference to what it yields: at 2^20 samples neither the data nor its
    smoothing (8 MB each) is alive while the slices are swept."""
    spec = ApproachRegionSpec(beta=beta, aperture=cfg.aperture, t_max=1.0)
    ratios = []
    for g in draws:
        norms = lp_norms(g, cfg.p)
        smoothed = [bessel_smooth(g, cfg.alpha)]
        del g
        # once popped, the smoothed data has no reference but the sweep's,
        # which drops it after the transform
        nt = poisson_tangential_max(smoothed.pop(), spec)
        ratios += [v / norm for v, norm in zip(lp_norms(nt, cfg.p), norms)]
    return ratios


def _ns_ratios(level: int, seeds, cfg: ExperimentConfig, beta: float) -> list:
    """The tangential ratio of white noise of every seed, in order, drawn a
    stack of seeds at a time (seed_stacks) that share one transform and
    one sweep per height."""
    grid = make_grid(1, level, cfg.extent)
    return _tangential_ratios(
        (unit_l2(grid, noise_stack(grid, stack))
         for stack in seed_stacks(grid, seeds)), cfg, beta)


def _ns_ratio(level: int, cfg: ExperimentConfig, beta: float) -> float:
    """The tangential ratio of one spike mid-torus."""
    grid = make_grid(1, level, cfg.extent)
    # map, unlike a list, keeps no reference to the spike it made
    spike = map(spike_data, [grid], [[0.5 * grid.extent]])
    return _tangential_ratios(spike, cfg, beta)[0]


def _run_nagel_stein(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    beta = cfg.derived_beta()
    ratios = []
    for level in cfg.levels:
        for seed, v in zip(cfg.seeds, _ns_ratios(level, cfg.seeds, cfg, beta)):
            rep.add_row(level, seed, "ratio", v)
            ratios.append(v)
    lo, hi, band = _band(ratios)
    rep.stats.update(band_min=lo, band_max=hi, band_ratio=band)
    rep.add_criterion(
        "tangential maximal bound at the critical order", band < 3.0,
        f"ratio band {band:.3f} over levels {list(cfg.levels)} x "
        f"{len(cfg.seeds)} seeds (required < 3)")
    beta_low = beta / 2.0
    ctrl = [_ns_ratio(level, cfg, beta_low) for level in cfg.levels]
    for level, v in zip(cfg.levels, ctrl):
        rep.add_row(level, cfg.seeds[0], "ratio_control", v)
    growth = ctrl[-1] / ctrl[0]
    rep.stats["control_growth"] = growth
    rep.add_criterion(
        "negative control below the critical order", growth > 2.0,
        f"spike-data ratio grew x{growth:.2f} from N=2^{cfg.levels[0]} to "
        f"N=2^{cfg.levels[-1]} at beta={beta_low} (required > x2)")
    if not growth > 2.0:
        # the subcritical ratio for unit-L^p concentrations grows like
        # h^{-(beta_c - beta)/2}, which caps this span at x2^{(dm)/4};
        # the divergence itself is demonstrated on a deeper ladder
        ext_levels = (cfg.levels[0], cfg.levels[-1] + 6)
        ext = [ctrl[0], _ns_ratio(ext_levels[1], cfg, beta_low)]
        for level, v in zip(ext_levels, ext):
            rep.add_row(level, cfg.seeds[0], "ratio_control_extended", v)
        ext_growth = ext[-1] / ext[0]
        rep.stats["control_growth_extended"] = ext_growth
        rep.notes.append(
            f"extended-span control: x{ext_growth:.2f} over levels "
            f"{ext_levels[0]}..{ext_levels[-1]}")
        rep.add_criterion(
            "negative control at extended refinement span (supplementary)",
            ext_growth > 2.0,
            f"spike-data ratio grew x{ext_growth:.2f} from "
            f"N=2^{ext_levels[0]} to N=2^{ext_levels[-1]} at beta={beta_low}")
    return rep


# --------------------------------------------------------------------------
# uniformity of the dilated local maximal bound in j


def _run_j_uniformity(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    level = max(cfg.levels)
    grid = make_grid(1, level, cfg.extent)
    beta = cfg.derived_beta()
    q = (1.0 + cfg.p) / 2.0   # the ball-mean power, between 1 and p
    heights = dyadic_heights(1.0, grid=grid)

    ok = True
    worst = 1.0
    for seed in cfg.seeds:
        f = white_noise(grid, seed)
        vals = np.stack([ball_mean_all_centers(f, 2.0 * t, q) for t in heights])
        field = HalfSpaceField(grid, heights, vals)
        base = lp_norm(f, cfg.p)
        ratios = [lp_norm(dilated_mitigated_max(field, cfg.p, beta, j), cfg.p)
                  / base for j in range(9)]
        for j, v in enumerate(ratios):
            rep.add_row(level, seed, f"ratio_j{j}", v)
        _, _, band = _band(ratios)
        worst = max(worst, band)
        ok = ok and band < 2.0
    rep.stats["worst_j_band"] = worst
    rep.add_criterion(
        "dilated maximal bound uniform in j", ok,
        f"worst per-seed band over j in 0..8 is {worst:.3f} (required < 2)")
    return rep


# --------------------------------------------------------------------------
# fractional measures against smoothed densities

_CANTOR_DEPTHS = (12, 16)   # construction depths of each Cantor measure


def _run_frostman(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    level = max(cfg.levels)
    grid = make_grid(1, level, cfg.extent)
    ok = True
    details = []
    for s in cfg.s_values:
        ratios = []
        for depth in _CANTOR_DEPTHS:
            mu = cantor_measure(s, depth)
            for seed in cfg.seeds:
                g = nonneg_noise(grid, seed)
                f = bessel_smooth(g, cfg.alpha)
                v = integrate_against(f, mu) / lp_norm(g, cfg.p)
                rep.add_row(depth, seed, f"ratio_s{s}", v)
                ratios.append(v)
        lo, hi, band = _band(ratios)
        rep.stats[f"band_s{s}"] = band
        details.append(f"s={s}: band {band:.3f}")
        ok = ok and band < 3.0
    rep.add_criterion(
        "smoothed density integrable against fractional measures", ok,
        "; ".join(details) + f" over depths {list(_CANTOR_DEPTHS)} x "
        f"{len(cfg.seeds)} seeds (required < 3)")
    return rep


# --------------------------------------------------------------------------
# divergence-set dimension bounds

_DIVERGENCE_EPS = 0.02   # divergence threshold, a fraction of max |f|


def _cantor_spike_density(grid, set_dim: float, depth: int) -> GridFunction:
    mu = cantor_measure(set_dim, depth)
    centers = mu.lefts + mu.interval_length / 2.0
    return spike_data(grid, centers * grid.extent)


def _run_divergence_dimension(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    level = max(cfg.levels)
    grid = make_grid(1, level, cfg.extent)
    beta = cfg.derived_beta()
    set_dim = max(0.25, 1.0 - cfg.alpha * cfg.p)  # strictly below every bound
    depth = 5
    g = _cantor_spike_density(grid, set_dim, depth)
    f = bessel_smooth(g, cfg.alpha)
    # localize near the sample scale so the detected set hugs the spike set
    t_max = dyadic_heights(1.0, grid=grid)[level]
    eps = _DIVERGENCE_EPS * float(np.abs(f.samples).max())
    all_ok = True
    details = []
    # beta' = beta (the limiting case), one order inside (beta, 1) and the
    # nontangential order 1, repeats dropped
    for bp in dict.fromkeys((beta, (1.0 + beta) / 2.0, 1.0)):
        if abs(bp - beta) <= 1e-12:
            rep.notes.append("limiting case covered by maximal bound")
            ratios = []
            for lev in cfg.levels:
                ratios.append(_ns_ratio(lev, cfg, beta))
                rep.add_row(lev, cfg.seeds[0], "ratio_limiting", ratios[-1])
            _, _, band = _band(ratios)
            ok = band < 3.0
            details.append(f"beta'=beta: maximal-bound band {band:.3f} (< 3)")
        else:
            spec = ApproachRegionSpec(beta=bp, aperture=cfg.aperture,
                                      t_max=t_max)
            div = divergence_set(f, spec, eps)
            bd = box_dimension(div, cfg.window)
            bound = grid.dim - grid.dim * (bp - beta)
            ok = bd.slope <= bound + 0.1
            rep.add_row(level, cfg.seeds[0], f"slope_bp{bp}", bd.slope)
            rep.stats["fit_slope"] = bd.slope
            details.append(
                f"beta'={bp}: slope {bd.slope:.3f} <= {bound:.2f}+0.1 "
                f"({div.points.size} pts)")
        all_ok = all_ok and ok
    smooth = from_callable(grid, lambda x: np.cos(2 * np.pi * x / grid.extent))
    sdiv = divergence_set(smooth, ApproachRegionSpec(beta=1.0, t_max=t_max),
                          0.01)
    empty_ok = sdiv.points.size == 0
    details.append(f"smooth-data control: {sdiv.points.size} divergence points")
    rep.add_criterion("divergence-set dimension bounds",
                      all_ok and empty_ok, "; ".join(details))
    return rep


# --------------------------------------------------------------------------
# corkscrew clearance constants

_CORKSCREW_SLOPES = (0.5, 1.0, 3.0)   # Lipschitz constants of the profiles


def _sawtooth(grid, M: float) -> GridFunction:
    quarter = grid.extent / 4.0
    return from_callable(
        grid, lambda x: M * (quarter - np.abs(np.abs(x - grid.extent / 2.0)
                                              - quarter)))


def _smooth_profile(grid, M: float, seed: int) -> GridFunction:
    base = white_noise(grid, seed, label=9)
    smooth = bessel_smooth(base, 2.0)
    slope = float(np.abs(np.diff(smooth.samples,
                                 append=smooth.samples[0])).max() / grid.h)
    return GridFunction(grid, smooth.samples * (M / slope))


def _run_corkscrew(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    level = max(cfg.levels)
    grid = make_grid(1, level, cfg.extent)
    rng = stream(cfg.seeds[0])
    total_viol = 0
    details = []
    for M in _CORKSCREW_SLOPES:
        for tag, prof in (("sawtooth", _sawtooth(grid, M)),
                          ("smooth", _smooth_profile(grid, M, cfg.seeds[0]))):
            graph = lipschitz_graph(prof, M=M * (1 + 1e-9))
            i0 = rng.integers(0, grid.n, size=10_000)
            x0 = i0 * grid.h
            ts = np.exp(rng.uniform(math.log(grid.h), 0.0, size=10_000))
            lifts = graph.phi.samples[i0]
            dists = graph_distance_batch(graph, lifts + ts, x0)
            floor = corkscrew_kappa(M) * ts - 2.0 * grid.h
            viol = int(np.sum(dists < floor))
            # the sample directly below sits at the computed vertical gap,
            # which bounds the computed minimum exactly
            upper = int(np.sum(dists > (lifts + ts) - lifts))
            total_viol += viol + upper
            rep.add_row(level, cfg.seeds[0], f"violations_M{M}_{tag}",
                        viol + upper)
            details.append(f"M={M} {tag}: {viol} low, {upper} high")
    rep.add_criterion(
        "corkscrew clearance constants", total_viol == 0,
        f"{total_viol} violations of kappa(M) t - 2h <= dist <= t "
        f"({'; '.join(details)})")
    return rep


# --------------------------------------------------------------------------
# inclusion of domain regions in flattened half-space regions


def _run_inclusion(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    level = max(cfg.levels)
    grid = make_grid(1, level, cfg.extent)
    beta = cfg.derived_beta()
    samples = 100_000
    profiles = [("flat", from_callable(grid, lambda x: np.zeros_like(x)))]
    for M in (0.5, 1.0, 2.0):
        profiles.append((f"sawtooth_M{M}", _sawtooth(grid, M)))
    for i, M in enumerate((0.3, 0.7, 1.0, 1.5, 2.0)):
        profiles.append((f"smooth_M{M}", _smooth_profile(grid, M, 100 + i)))
    profiles.append(("shifted", _sawtooth(grid, 1.0)))
    total_viol = 0
    checked = 0
    for idx, (tag, prof) in enumerate(profiles):
        graph = lipschitz_graph(prof)
        out = region_inclusion_check(graph, beta, cfg.c, samples,
                                     seed=cfg.seeds[0] + idx)
        rep.add_row(level, cfg.seeds[0] + idx, f"violations_{tag}",
                    out.violations)
        total_viol += out.violations
        checked += out.checked
    rep.stats["checked"] = checked
    rep.add_criterion(
        "domain regions flatten into widened half-space regions",
        total_viol == 0 and checked >= 10 * samples,
        f"{total_viol} violations over {checked} sampled points, 10 profiles")
    neg = region_inclusion_check(lipschitz_graph(_sawtooth(grid, 1.0)), beta,
                                 cfg.c, samples, seed=cfg.seeds[0],
                                 target_aperture=(1.0 + cfg.c) / 2.0)
    rep.stats["control_violations"] = neg.violations
    rep.notes.extend("negative-control witness (x0, t, x) = ({:.17g}, {:.17g}, "
                     "{:.17g})".format(*w) for w in neg.witnesses[:4])
    rep.add_criterion(
        "negative control with shrunken target", neg.violations >= 1,
        f"{neg.violations} violations once the target aperture halves")
    return rep


# --------------------------------------------------------------------------
# boundary tangential maximal bound on a graph domain

_ANNULI_ALPHA_L = 0.5   # decay exponent of the annuli surrogate
_ANNULI_J = 20          # annuli truncation


def _run_boundary_max(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    s = cfg.alpha
    beta = cfg.derived_beta()
    ratios = []
    for level in cfg.levels:
        grid = make_grid(1, level, cfg.extent)
        graph = lipschitz_graph(_sawtooth(grid, 1.0))
        for seed in cfg.seeds:
            f = bessel_smooth(white_noise(grid, seed), 2.0 * s)
            btm = boundary_tangential_max(graph, f, beta, cfg.c,
                                          alpha_L=_ANNULI_ALPHA_L,
                                          p0=(1.0 + cfg.p) / 2.0, J=_ANNULI_J)
            v = (lp_norm_sigma(graph, btm, cfg.p)
                 / boundary_seminorm(f, s, cfg.p))
            rep.add_row(level, seed, "ratio", v)
            ratios.append(v)
    lo, hi, band = _band(ratios)
    rep.stats.update(band_min=lo, band_max=hi, band_ratio=band)
    rep.add_criterion(
        "boundary tangential maximal bound", band < 4.0,
        f"ratio band {band:.3f} over levels {list(cfg.levels)} x "
        f"{len(cfg.seeds)} seeds (required < 4)")
    return rep


# --------------------------------------------------------------------------
# box-dimension calibration


def _run_boxdim_calibration(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    level = max(cfg.levels)
    grid = make_grid(1, level, cfg.extent)
    mt = cantor_measure(math.log(2.0) / math.log(3.0), 14)
    cases = [
        ("cantor", PointSet(points=mt.lefts * grid.extent, grid=grid),
         math.log(2.0) / math.log(3.0)),
        ("interval", PointSet(points=grid.h * np.arange(grid.n), grid=grid), 1.0),
        ("point", PointSet(points=np.array([0.37 * grid.extent]), grid=grid), 0.0),
    ]
    ok = True
    details = []
    for tag, ps, target in cases:
        bd = box_dimension(ps, cfg.window)
        rep.add_row(level, 0, f"slope_{tag}", bd.slope)
        if tag == "cantor":
            rep.stats["fit_slope"] = bd.slope
        good = abs(bd.slope - target) <= 0.05
        ok = ok and good
        details.append(f"{tag}: {bd.slope:.4f} vs {target:.4f}")
    rep.add_criterion("box-dimension calibration", ok,
                      "; ".join(details) + " (tol 0.05)")
    return rep


# --------------------------------------------------------------------------
# mean-oscillation maximal bound (Poisson extension route)


def _run_dorronsoro(cfg: ExperimentConfig) -> RunReport:
    rep = _new_report(cfg)
    beta = cfg.derived_beta()
    ratios = []
    spec = ApproachRegionSpec(beta=beta, aperture=cfg.aperture, t_max=1.0)
    for level in cfg.levels:
        grid = make_grid(1, level, cfg.extent)
        for stack in seed_stacks(grid, cfg.seeds):
            fs = bessel_smooth(unit_l2(grid, noise_stack(grid, stack)),
                               cfg.alpha)
            nums = lp_norms(poisson_tangential_max(fs, spec), cfg.p)
            for seed, num, row in zip(stack, nums, fs.samples):
                f = GridFunction(grid, row)
                sharp = sharp_maximal(f, cfg.alpha, dyadic_scales(grid))
                v = num / (lp_norm(f, cfg.p) + lp_norm(sharp, cfg.p))
                rep.add_row(level, seed, "ratio", v)
                ratios.append(v)
    lo, hi, band = _band(ratios)
    rep.stats.update(band_min=lo, band_max=hi, band_ratio=band)
    rep.add_criterion(
        "mean-oscillation tangential maximal bound", band < 3.0,
        f"ratio band {band:.3f} (required < 3)")
    return rep


_RUNNERS = {
    "kernel-identities": _run_kernel_identities,
    "poisson-exactness": _run_poisson_exactness,
    "commute-lemma": _run_commute_lemma,
    "poincare": _run_poincare,
    "nagel-stein-bound": _run_nagel_stein,
    "j-uniformity": _run_j_uniformity,
    "frostman-lemma": _run_frostman,
    "divergence-dimension": _run_divergence_dimension,
    "corkscrew-geometry": _run_corkscrew,
    "inclusion-lemma": _run_inclusion,
    "boundary-max": _run_boundary_max,
    "boxdim-calibration": _run_boxdim_calibration,
    "dorronsoro-bound": _run_dorronsoro,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Dispatch a validated config to its experiment; deterministic."""
    validate(cfg)
    return _RUNNERS[cfg.experiment](cfg)


def acceptance_configs() -> list:
    """The twelve acceptance experiments with their pinned parameters."""
    seeds20 = tuple(range(20))
    seeds10 = tuple(range(10))
    return [
        ExperimentConfig(experiment="kernel-identities"),
        ExperimentConfig(experiment="poisson-exactness", levels=(12,)),
        ExperimentConfig(experiment="commute-lemma", levels=(10,),
                         seeds=seeds20),
        ExperimentConfig(experiment="poincare", levels=(10, 12),
                         seeds=seeds20),
        ExperimentConfig(experiment="nagel-stein-bound", levels=(10, 12, 14),
                         alpha=0.25, p=2.0, seeds=seeds20),
        ExperimentConfig(experiment="j-uniformity", levels=(10,), alpha=0.25,
                         p=2.0, seeds=seeds10),
        ExperimentConfig(experiment="frostman-lemma", levels=(12,), alpha=0.25,
                         p=2.0, s_values=(0.6, 0.75, 0.9), seeds=seeds20),
        ExperimentConfig(experiment="divergence-dimension", levels=(10, 14),
                         alpha=0.25, p=2.0, window=(4, 10), seeds=(0,)),
        ExperimentConfig(experiment="corkscrew-geometry", levels=(10,),
                         seeds=(0,)),
        ExperimentConfig(experiment="inclusion-lemma", levels=(10,),
                         beta=0.5, c=1.0, seeds=(0,)),
        ExperimentConfig(experiment="boundary-max", levels=(10, 12),
                         alpha=0.25, p=2.0, c=0.5, seeds=seeds10),
        ExperimentConfig(experiment="boxdim-calibration", levels=(14,),
                         window=(4, 10)),
    ]
