"""Command-line interface.

Subcommands: kernel-table, extend, maxfn, potential, fractal, lipschitz,
verify (one experiment from a config), suite (the full acceptance
battery).  Exit codes: 0 all checks passed, 1 a criterion failed,
2 usage error.
"""

import argparse
import csv
import sys

import numpy as np

from . import __version__
from .config import EXPERIMENTS, ExperimentConfig, load, validate
from .errors import ParameterError
from .experiments import acceptance_configs, run_experiment
from .extension import annuli_surrogate, dyadic_heights, load_half_space_field, \
    poisson_extend, save_half_space_field
from .fractal import PointSet, box_dimension, cantor_measure, divergence_set, \
    frostman_constant
from .grid import GridFunction, grid_function_from_csv, grid_function_to_csv, \
    load_grid_function, make_grid, read_csv_table, save_grid_function
from .kernels import KernelSpec, bessel_kernel, poisson_kernel, riesz_kernel
from .lipschitz import SurrogateParams, boundary_point, boundary_tangential_max, \
    corkscrew, graph_distance, load_lipschitz_graph, region_inclusion_check, \
    surface_ball_measure
from .maximal import ApproachRegionSpec, composite_max, dilated_mitigated_max, \
    fractional_power_max, mitigated_max, tangential_argmax, tangential_max
from .potentials import bessel_smooth, sharp_maximal, slobodeckij_seminorm
from .report import emit_report


def _read_gf(path: str, extent: float) -> GridFunction:
    if str(path).endswith(".csv"):
        return grid_function_from_csv(path, extent)
    return load_grid_function(path)


def _write_gf(path: str, f: GridFunction) -> None:
    if str(path).endswith(".csv"):
        grid_function_to_csv(path, f)
    else:
        save_grid_function(path, f)


def _write_points(path: str, ps: PointSet) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if ps.grid.dim == 1:
            w.writerow(["x"])
            for v in np.atleast_1d(ps.points):
                w.writerow([format(float(v), ".17g")])
        else:
            w.writerow(["x0", "x1"])
            for row in np.atleast_2d(ps.points):
                w.writerow([format(float(row[0]), ".17g"),
                            format(float(row[1]), ".17g")])


def _read_points(path: str, grid) -> PointSet:
    _, table = read_csv_table(path, (grid.dim,))
    return PointSet(points=table[:, 0] if grid.dim == 1 else table, grid=grid)


def _parse_heights(text: str) -> tuple:
    try:
        t0_str, k_str = text.split(",")
        return float(t0_str), int(k_str)
    except ValueError as exc:
        raise ParameterError(f"--heights wants 't0,K', got {text!r}") from exc


def _cmd_kernel_table(args) -> int:
    with open(args.points, newline="") as fh:
        rows = [(line, r) for line, r in enumerate(csv.reader(fh), start=1) if r]
    radii = []
    for k, (line, r) in enumerate(rows):
        try:
            radii.append(float(r[0]))
        except ValueError:
            if k > 0:  # only the first row may be a header
                raise ParameterError(
                    f"{args.points}: line {line}: {r[0]!r} is not a number")
    spec = KernelSpec(kind=args.kind, dim=args.n, order=args.alpha or 0.0,
                      scale=args.t or 0.0)
    out = []
    for r in radii:
        x = (r, 0.0) if args.n == 2 else r
        if args.kind == "poisson":
            v = poisson_kernel(args.n, args.t, x)
        elif args.kind == "bessel":
            v = bessel_kernel(args.n, args.alpha, x, route=args.route)
        else:
            v = riesz_kernel(args.n, args.alpha, x)
        out.append((r, v))
    dest = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.kind == "bessel":
            # normalization provenance for cross-tool comparisons
            dest.write("# c_alpha fixed by unit L1 mass, radial quadrature "
                       "of the subordination integral\n")
        elif args.kind == "riesz":
            dest.write("# gamma_{alpha,n} = Gamma((n-alpha)/2) / "
                       "(2^alpha pi^{n/2} Gamma(alpha/2))\n")
        w = csv.writer(dest)
        w.writerow(["r", "value"])
        for r, v in out:
            w.writerow([format(r, ".17g"), format(v, ".17g")])
    finally:
        if args.out:
            dest.close()
    return 0


def _cmd_extend(args) -> int:
    f = _read_gf(args.infile, args.extent)
    t0, count = _parse_heights(args.heights)
    heights = dyadic_heights(t0, count=count)
    if args.kind == "poisson":
        u = poisson_extend(f, heights)
    else:
        u = annuli_surrogate(f, heights, args.alpha_L, args.r, args.J)
        print(f"surrogate tail bound: {u.meta['tail_bound']:.6g}")
    save_half_space_field(args.out, u)
    return 0


def _cmd_maxfn(args) -> int:
    if args.op in ("tangential", "mitigated", "dilated"):
        u = load_half_space_field(args.infile)
    else:
        u = None
    if args.op == "tangential":
        spec = ApproachRegionSpec(beta=args.beta, aperture=args.aperture,
                                  t_max=args.t_max)
        if args.argmax:
            out, wit = tangential_argmax(u, spec)
            with open(args.argmax, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["x0", "t_star", "x_star"])
                for i, (k, xi) in enumerate(wit):
                    w.writerow([format(i * u.grid.h, ".17g"),
                                format(u.heights[k], ".17g"),
                                format(xi * u.grid.h, ".17g")])
        else:
            out = tangential_max(u, spec)
    elif args.op == "mitigated":
        out = mitigated_max(u, args.p, args.beta)
    elif args.op == "dilated":
        out = dilated_mitigated_max(u, args.p, args.beta, args.j)
    elif args.op == "fractional":
        f = _read_gf(args.infile, args.extent)
        out = fractional_power_max(f, args.s, args.alpha)
    else:
        f = _read_gf(args.infile, args.extent)
        out = composite_max(f, args.p, args.r, args.beta, args.alpha_L, args.J)
    _write_gf(args.out, out)
    return 0


def _cmd_potential(args) -> int:
    f = _read_gf(args.infile, args.extent)
    if args.action == "smooth":
        _write_gf(args.out, bessel_smooth(f, args.alpha))
    elif args.action == "sharp":
        if args.scales:
            scales = [float(v) for v in args.scales.split(",")]
        else:
            from .potentials import dyadic_scales

            scales = dyadic_scales(f.grid)
        _write_gf(args.out, sharp_maximal(f, args.alpha, scales))
    else:
        value = slobodeckij_seminorm(f, args.sigma, args.p)
        print(format(value, ".17g"))
    return 0


def _cmd_fractal(args) -> int:
    if args.action == "cantor":
        mu = cantor_measure(args.s, args.depth)
        grid = make_grid(1, args.levels, args.extent)
        _write_points(args.out, PointSet(points=mu.lefts * args.extent,
                                         grid=grid))
        radii = [2.0 ** (-k / 2.0) for k in range(2 * args.depth)
                 if 2.0 ** (-k / 2.0) >= mu.interval_length]
        print(f"intervals: {mu.lefts.size}  frostman constant: "
              f"{frostman_constant(mu, radii):.6g}")
        return 0
    if args.action == "boxdim":
        grid = make_grid(args.dim, args.levels, args.extent)
        ps = _read_points(args.infile, grid)
        lo, hi = (int(v) for v in args.window.split(","))
        bd = box_dimension(ps, (lo, hi))
        dest = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            w = csv.writer(dest)
            w.writerow(["scale", "count"])
            for m, cnt in zip(bd.scales, bd.counts):
                w.writerow([m, cnt])
        finally:
            if args.out:
                dest.close()
        print(f"slope: {bd.slope:.6g}  r2: {bd.r2:.6g}")
        return 0
    u = load_half_space_field(args.infile)
    ref = _read_gf(args.ref, u.grid.extent)
    spec = ApproachRegionSpec(beta=args.beta, aperture=args.aperture, t_max=1.0)
    ps = divergence_set(u, ref, spec, args.eps, args.tmin)
    _write_points(args.out, ps)
    print(f"divergence points: {np.atleast_1d(ps.points).shape[0]}")
    return 0


def _cmd_lipschitz(args) -> int:
    graph = load_lipschitz_graph(args.profile)
    if args.action == "corkscrew":
        pt = corkscrew(graph, args.x0, args.t)
        print(f"corkscrew: {tuple(round(v, 12) for v in pt)}  "
              f"clearance: {graph_distance(graph, pt):.8g}")
        return 0
    if args.action == "inclusion":
        rep = region_inclusion_check(graph, args.beta, args.c, args.samples,
                                     seed=args.seed)
        print(f"checked {rep.checked}, violations {rep.violations}")
        return 0 if rep.violations == 0 else 1
    if args.action == "surface":
        q = boundary_point(graph, args.x0)
        print(format(surface_ball_measure(graph, q, args.radius), ".17g"))
        return 0
    f = _read_gf(args.infile, graph.phi.grid.extent)
    params = SurrogateParams(alpha_L=args.alpha_L, p0=args.p0, J=args.J)
    out = boundary_tangential_max(graph, f, args.beta, args.c, params)
    _write_gf(args.out, out)
    return 0


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    from dataclasses import replace

    updates = {}
    if args.levels:
        updates["levels"] = tuple(int(v) for v in args.levels.split(","))
    if args.seeds:
        updates["seeds"] = tuple(int(v) for v in args.seeds.split(","))
    if args.output_dir:
        updates["output_dir"] = args.output_dir
    return validate(replace(cfg, **updates)) if updates else cfg


def _emit_all(rep, output_dir: str) -> None:
    for fmt in ("csv", "svg", "text"):
        emit_report(rep, fmt, output_dir)


def _cmd_verify(args) -> int:
    if args.config:
        cfg = load(args.config)
    elif args.experiment:
        cfg = validate(ExperimentConfig(experiment=args.experiment))
    else:
        raise ParameterError("verify needs --config or --experiment")
    if args.experiment:
        from dataclasses import replace

        cfg = validate(replace(cfg, experiment=args.experiment))
    cfg = _apply_overrides(cfg, args)
    rep = run_experiment(cfg)
    _emit_all(rep, cfg.output_dir)
    for c in rep.criteria:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    return 0 if rep.passed else 1


def _cmd_suite(args) -> int:
    failed = 0
    for cfg in acceptance_configs():
        if args.output_dir:
            from dataclasses import replace

            cfg = replace(cfg, output_dir=args.output_dir)
        rep = run_experiment(cfg)
        _emit_all(rep, cfg.output_dir)
        for c in rep.criteria:
            print(f"{'PASS' if c.passed else 'FAIL'}  [{cfg.experiment}] "
                  f"{c.name}: {c.detail}")
            failed += 0 if c.passed else 1
    print(f"suite: {'PASS' if failed == 0 else f'{failed} criteria FAILED'}")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fatou-lab",
                                description="harmonic analysis lab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    kt = sub.add_parser("kernel-table", help="tabulate a kernel at radii")
    kt.add_argument("--kind", required=True,
                    choices=["poisson", "bessel", "riesz"])
    kt.add_argument("--n", type=int, default=1)
    kt.add_argument("--alpha", type=float)
    kt.add_argument("--t", type=float)
    kt.add_argument("--route", default="series",
                    choices=["series", "quadrature"])
    kt.add_argument("--points", required=True, help="CSV of radii, one per row")
    kt.add_argument("--out")
    kt.set_defaults(fn=_cmd_kernel_table)

    ex = sub.add_parser("extend", help="build a half-space field")
    ex.add_argument("--kind", required=True, choices=["poisson", "surrogate"])
    ex.add_argument("--heights", required=True, metavar="t0,K")
    ex.add_argument("--in", dest="infile", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--extent", type=float, default=1.0)
    ex.add_argument("--alpha-L", dest="alpha_L", type=float, default=0.5)
    ex.add_argument("--r", type=float, default=1.5)
    ex.add_argument("--J", type=int, default=20)
    ex.set_defaults(fn=_cmd_extend)

    mx = sub.add_parser("maxfn", help="apply a maximal operator")
    mx.add_argument("--op", required=True,
                    choices=["tangential", "mitigated", "dilated",
                             "fractional", "composite"])
    mx.add_argument("--in", dest="infile", required=True)
    mx.add_argument("--out", required=True)
    mx.add_argument("--beta", type=float, default=1.0)
    mx.add_argument("--aperture", type=float, default=1.0)
    mx.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    mx.add_argument("--p", type=float, default=2.0)
    mx.add_argument("--r", type=float, default=1.5)
    mx.add_argument("--j", type=int, default=0)
    mx.add_argument("--s", type=float, default=1.0)
    mx.add_argument("--alpha", type=float, default=0.0)
    mx.add_argument("--alpha-L", dest="alpha_L", type=float, default=0.5)
    mx.add_argument("--J", type=int, default=20)
    mx.add_argument("--extent", type=float, default=1.0)
    mx.add_argument("--argmax", help="CSV path for (x0, t*, x*) witnesses")
    mx.set_defaults(fn=_cmd_maxfn)

    po = sub.add_parser("potential", help="smoothing and seminorm operations")
    po.add_argument("action", choices=["smooth", "sharp", "seminorm"])
    po.add_argument("--in", dest="infile", required=True)
    po.add_argument("--out")
    po.add_argument("--alpha", type=float, default=1.0)
    po.add_argument("--p", type=float, default=2.0)
    po.add_argument("--sigma", type=float, default=0.5)
    po.add_argument("--scales", default="")
    po.add_argument("--extent", type=float, default=1.0)
    po.set_defaults(fn=_cmd_potential)

    fr = sub.add_parser("fractal", help="measures, box dimension, divergence")
    fr.add_argument("action", choices=["cantor", "boxdim", "divset"])
    fr.add_argument("--s", type=float, default=0.5)
    fr.add_argument("--depth", type=int, default=12)
    fr.add_argument("--dim", type=int, default=1)
    fr.add_argument("--levels", type=int, default=14)
    fr.add_argument("--extent", type=float, default=1.0)
    fr.add_argument("--in", dest="infile")
    fr.add_argument("--ref")
    fr.add_argument("--out")
    fr.add_argument("--beta", type=float, default=1.0)
    fr.add_argument("--aperture", type=float, default=1.0)
    fr.add_argument("--eps", type=float, default=0.02)
    fr.add_argument("--tmin", type=float, default=0.0625)
    fr.add_argument("--window", default="4,10")
    fr.set_defaults(fn=_cmd_fractal)

    li = sub.add_parser("lipschitz", help="graph-domain geometry")
    li.add_argument("action",
                    choices=["corkscrew", "inclusion", "surface",
                             "boundary-max"])
    li.add_argument("--profile", required=True)
    li.add_argument("--beta", type=float, default=0.5)
    li.add_argument("--c", type=float, default=1.0)
    li.add_argument("--x0", type=float, default=0.0)
    li.add_argument("--t", type=float, default=0.25)
    li.add_argument("--radius", type=float, default=0.1)
    li.add_argument("--samples", type=int, default=10000)
    li.add_argument("--seed", type=int, default=0)
    li.add_argument("--in", dest="infile")
    li.add_argument("--out")
    li.add_argument("--alpha-L", dest="alpha_L", type=float, default=0.5)
    li.add_argument("--p0", type=float, default=1.5)
    li.add_argument("--J", type=int, default=20)
    li.set_defaults(fn=_cmd_lipschitz)

    ve = sub.add_parser("verify", help="run one experiment from a config")
    ve.add_argument("--config")
    ve.add_argument("--experiment", choices=list(EXPERIMENTS))
    ve.add_argument("--levels")
    ve.add_argument("--seeds")
    ve.add_argument("--output-dir", dest="output_dir")
    ve.set_defaults(fn=_cmd_verify)

    su = sub.add_parser("suite", help="run the full acceptance battery")
    su.add_argument("--output-dir", dest="output_dir")
    su.set_defaults(fn=_cmd_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
