"""Command-line interface.

Commands kernel-table, extend, maxfn, potential, fractal and lipschitz
take an action word before their flags, as in ``fatou-lab maxfn
tangential --in u.flhf --out m.flgf``.  Each action has its own parser:
it accepts only the flags the action reads, and the ones it cannot run
without are required.  verify runs one experiment from a config, suite
the full acceptance battery.  List flags take comma-separated numbers.
CSV tables are written by grid.write_csv_table, to stdout when
kernel-table or fractal gets no --out.  Exit codes: 0 all checks
passed, 1 a criterion failed, 2 usage error: a missing, unknown or
malformed flag (argparse prints a usage line), or a parameter or a file
rejected with ParameterError.
"""

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import EXPERIMENTS, ExperimentConfig, load
from .errors import ParameterError
from .experiments import acceptance_configs, run_experiment
from .extension import annuli_surrogate, dyadic_heights, load_half_space_field, \
    poisson_extend, save_half_space_field
from .fractal import PointSet, box_dimension, cantor_measure, divergence_set
from .grid import GridFunction, grid_function_from_csv, grid_function_to_csv, \
    load_grid_function, make_grid, open_path, read_csv_table, \
    save_grid_function, write_csv_table
from .kernels import bessel_kernel, poisson_kernel, riesz_kernel
from .lipschitz import boundary_point, boundary_tangential_max, corkscrew, \
    graph_distance, load_lipschitz_graph, region_inclusion_check, \
    surface_ball_measure
from .maximal import ApproachRegionSpec, composite_max, dilated_mitigated_max, \
    tangential_max
from .potentials import bessel_smooth, dyadic_scales, sharp_maximal, \
    slobodeckij_seminorm
from .report import emit_report, make_output_dir


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
    dim = ps.grid.dim
    write_csv_table(path, ["x"] if dim == 1 else ["x0", "x1"],
                    ps.points.reshape(-1, dim))


def _read_points(path: str, grid) -> PointSet:
    _, table = read_csv_table(path, (grid.dim,))
    return PointSet(points=table[:, 0] if grid.dim == 1 else table, grid=grid)


def _numbers(*kinds):
    """argparse type for comma-separated numbers: one per kind in kinds,
    or, given a single kind, one or more of it.  argparse turns a
    malformed list into a usage error (exit 2)."""
    names = ",".join(k.__name__ for k in kinds)
    want = names if len(kinds) > 1 else f"{names}[,{names}...]"

    def convert(text: str) -> tuple:
        cells = text.split(",")
        each = kinds * len(cells) if len(kinds) == 1 else kinds
        if len(cells) == len(each):
            try:
                return tuple(kind(cell) for kind, cell in zip(each, cells))
            except ValueError:
                pass
        raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")

    return convert


def _read_radii(path) -> list:
    with open_path(path, newline="") as fh:
        rows = [(line, r) for line, r in enumerate(csv.reader(fh), start=1) if r]
    radii = []
    for k, (line, r) in enumerate(rows):
        try:
            radius = float(r[0])
        except ValueError:
            if k > 0:  # only the first row may be a header
                raise ParameterError(
                    f"{path}: line {line}: {r[0]!r} is not a number")
            continue
        if not 0.0 <= radius < np.inf:
            raise ParameterError(
                f"{path}: line {line}: radius {r[0]!r} must be finite and >= 0")
        radii.append(radius)
    if not radii:
        raise ParameterError(
            f"{path}: no radii, the file holds at most a header row")
    return radii


def _kernel_table(kernel, preamble: str = ""):
    """The fn of a kernel-table action: kernel(args, x) is the value at x;
    preamble records the normalization for cross-tool comparisons."""
    def run(args) -> None:
        out = [(r, kernel(args, (r, 0.0) if args.n == 2 else r))
               for r in _read_radii(args.points)]
        write_csv_table(args.out, ["r", "value"], out, preamble)
    return run


def _heights(args) -> tuple:
    t0, count = args.heights
    return dyadic_heights(t0, count=count)


def _surrogate(args) -> None:
    u = annuli_surrogate(_read_gf(args.infile, args.extent), _heights(args),
                         args.alpha_L, args.r, args.J)
    print(f"surrogate tail bound: {u.meta['tail_bound']:.6g}")
    save_half_space_field(args.out, u)


def _tangential(args) -> None:
    u = load_half_space_field(args.infile)
    spec = ApproachRegionSpec(beta=args.beta, aperture=args.aperture,
                              t_max=args.t_max)
    _write_gf(args.out, tangential_max(u, spec))


def _sharp(args) -> None:
    f = _read_gf(args.infile, args.extent)
    scales = args.scales or dyadic_scales(f.grid)
    _write_gf(args.out, sharp_maximal(f, args.alpha, scales))


def _cantor(args) -> None:
    mu = cantor_measure(args.s, args.depth)
    grid = make_grid(1, args.levels, args.extent)
    _write_points(args.out, PointSet(points=mu.lefts * args.extent, grid=grid))
    print(f"intervals: {mu.lefts.size}")


def _boxdim(args) -> None:
    grid = make_grid(args.dim, args.levels, args.extent)
    bd = box_dimension(_read_points(args.infile, grid), args.window)
    write_csv_table(args.out, ["scale", "count"], zip(bd.scales, bd.counts))
    print(f"slope: {bd.slope:.6g}  r2: {bd.r2:.6g}")


def _divset(args) -> None:
    f = _read_gf(args.infile, args.extent)
    spec = ApproachRegionSpec(beta=args.beta, aperture=args.aperture, t_max=1.0)
    ps = divergence_set(f, spec, args.eps, args.tmin)
    _write_points(args.out, ps)
    print(f"divergence points: {np.atleast_1d(ps.points).shape[0]}")


def _corkscrew(args) -> None:
    graph = load_lipschitz_graph(args.profile)
    pt = corkscrew(graph, args.x0, args.t)
    print(f"corkscrew: {tuple(round(float(v), 12) for v in pt)}  "
          f"clearance: {graph_distance(graph, pt):.8g}")


def _inclusion(args) -> int:
    graph = load_lipschitz_graph(args.profile)
    rep = region_inclusion_check(graph, args.beta, args.c, args.samples,
                                 seed=args.seed)
    print(f"checked {rep.checked}, violations {rep.violations}")
    if rep.checked < args.samples:
        print(f"shortfall: only {rep.checked} of {args.samples} samples "
              "were found in the domain region", file=sys.stderr)
        return 1
    return 0 if rep.violations == 0 else 1


def _surface(args) -> None:
    graph = load_lipschitz_graph(args.profile)
    q = boundary_point(graph, args.x0)
    print(format(surface_ball_measure(graph, q, args.radius), ".17g"))


def _boundary_max(args) -> None:
    graph = load_lipschitz_graph(args.profile)
    f = _read_gf(args.infile, graph.phi.grid.extent)
    _write_gf(args.out, boundary_tangential_max(
        graph, f, args.beta, args.c, alpha_L=args.alpha_L, p0=args.p0, J=args.J))


def _emit_all(rep, output_dir: str) -> None:
    for fmt in ("csv", "svg", "text"):
        emit_report(rep, fmt, output_dir)


def _cmd_verify(args) -> int:
    if args.config:
        cfg = load(args.config)
    elif args.experiment:
        cfg = ExperimentConfig(experiment=args.experiment)
    else:
        raise ParameterError("verify needs --config or --experiment")
    cfg = replace(cfg, **{k: v for k, v in vars(args).items() if v and k in
                          ("experiment", "levels", "seeds", "output_dir")})
    make_output_dir(cfg.output_dir)
    rep = run_experiment(cfg)
    _emit_all(rep, cfg.output_dir)
    for c in rep.criteria:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    return 0 if rep.passed else 1


def _cmd_suite(args) -> int:
    cfgs = acceptance_configs()
    if args.output_dir:
        cfgs = [replace(cfg, output_dir=args.output_dir) for cfg in cfgs]
    for output_dir in {cfg.output_dir for cfg in cfgs}:
        make_output_dir(output_dir)
    failed = 0
    for cfg in cfgs:
        rep = run_experiment(cfg)
        _emit_all(rep, cfg.output_dir)
        for c in rep.criteria:
            print(f"{'PASS' if c.passed else 'FAIL'}  [{cfg.experiment}] "
                  f"{c.name}: {c.detail}")
            failed += 0 if c.passed else 1
    print(f"suite: {'PASS' if failed == 0 else f'{failed} criteria FAILED'}")
    return 0 if failed == 0 else 1


# Every action flag once, as name -> (type, default).  A command whose
# default differs passes its own to _actions.
_FLAGS = {
    "alpha": (float, 1.0), "alpha-L": (float, 0.5), "aperture": (float, 1.0),
    "beta": (float, 1.0), "c": (float, 1.0),
    "depth": (int, 12), "dim": (int, 1), "eps": (float, 0.02),
    "extent": (float, 1.0), "heights": (_numbers(float, int), None),
    "in": (str, None), "J": (int, 20), "j": (int, 0), "levels": (int, 14),
    "n": (int, 1), "out": (str, None), "p": (float, 2.0), "p0": (float, 1.5),
    "points": (str, None), "profile": (str, None), "r": (float, 1.5),
    "radius": (float, 0.1), "route": (str, "series"),
    "s": (float, 0.5), "samples": (int, 10000), "scales": (_numbers(float), None),
    "seed": (int, 0), "sigma": (float, 0.5), "t": (float, 0.25),
    "t-max": (float, 1.0), "tmin": (float, 0.0625),
    "window": (_numbers(int, int), (4, 10)), "x0": (float, 0.0),
}
_EXTRA = {  # argparse settings beyond type and default
    "n": {"choices": (1, 2)},
    "route": {"choices": ("series", "quadrature")},
    "heights": {"metavar": "t0,K"},
    "window": {"metavar": "m_lo,m_hi"},
    "points": {"help": "CSV of radii, one per row"},
}


def _actions(sub, command: str, summary: str, actions: dict,
             **defaults) -> None:
    """Add command with one parser per action word.  actions maps each
    word to (flags, fn): flags names the _FLAGS that fn reads, and a
    trailing ! marks one that it cannot run without."""
    words = sub.add_parser(command, help=summary).add_subparsers(
        dest="action", required=True)
    for word, (flags, fn) in actions.items():
        ap = words.add_parser(word)
        for flag in flags.split():
            name = flag.rstrip("!")
            kind, default = _FLAGS[name]
            ap.add_argument(
                f"--{name}", type=kind, default=defaults.get(name, default),
                required=flag.endswith("!"), **_EXTRA.get(name, {}),
                dest="infile" if name == "in" else name.replace("-", "_"))
        ap.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fatou-lab",
                                description="harmonic analysis lab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    _actions(sub, "kernel-table", "tabulate a kernel at radii", {
        "poisson": ("n t! points! out", _kernel_table(
            lambda a, x: poisson_kernel(a.n, a.t, x))),
        "bessel": ("n alpha! route points! out", _kernel_table(
            lambda a, x: bessel_kernel(a.n, a.alpha, x, route=a.route),
            "# c_alpha fixed by unit L1 mass, radial quadrature "
            "of the subordination integral\n")),
        "riesz": ("n alpha! points! out", _kernel_table(
            lambda a, x: riesz_kernel(a.n, a.alpha, x),
            "# gamma_{alpha,n} = Gamma((n-alpha)/2) / "
            "(2^alpha pi^{n/2} Gamma(alpha/2))\n")),
    })
    _actions(sub, "extend", "build a half-space field", {
        "poisson": ("heights! in! out! extent", lambda a: save_half_space_field(
            a.out, poisson_extend(_read_gf(a.infile, a.extent), _heights(a)))),
        "surrogate": ("heights! in! out! extent alpha-L r J", _surrogate),
    })
    _actions(sub, "maxfn", "apply a maximal operator", {
        "tangential": ("in! out! beta aperture t-max", _tangential),
        "dilated": ("in! out! p beta! j", lambda a: _write_gf(
            a.out, dilated_mitigated_max(load_half_space_field(a.infile),
                                         a.p, a.beta, a.j))),
        "composite": ("in! out! extent p r beta! alpha-L J", lambda a: _write_gf(
            a.out, composite_max(_read_gf(a.infile, a.extent), a.p, a.r,
                                 a.beta, a.alpha_L, a.J))),
    })
    _actions(sub, "potential", "smoothing and seminorm operations", {
        "smooth": ("in! out! extent alpha", lambda a: _write_gf(
            a.out, bessel_smooth(_read_gf(a.infile, a.extent), a.alpha))),
        "sharp": ("in! out! extent alpha scales", _sharp),
        "seminorm": ("in! extent sigma p", lambda a: print(format(
            slobodeckij_seminorm(_read_gf(a.infile, a.extent), a.sigma, a.p),
            ".17g"))),
    })
    _actions(sub, "fractal", "measures, box dimension, divergence", {
        "cantor": ("s depth levels extent out", _cantor),
        "boxdim": ("in! dim levels extent window out", _boxdim),
        "divset": ("in! extent out beta aperture eps tmin", _divset),
    })
    _actions(sub, "lipschitz", "graph-domain geometry", {
        "corkscrew": ("profile! x0 t", _corkscrew),
        "inclusion": ("profile! beta c samples seed", _inclusion),
        "surface": ("profile! x0 radius", _surface),
        "boundary-max": ("profile! in! out! beta c alpha-L p0 J", _boundary_max),
    }, beta=0.5)

    ve = sub.add_parser("verify", help="run one experiment from a config")
    ve.add_argument("--config")
    ve.add_argument("--experiment", choices=list(EXPERIMENTS))
    ve.add_argument("--levels", type=_numbers(int))
    ve.add_argument("--seeds", type=_numbers(int))
    ve.add_argument("--output-dir", dest="output_dir")
    ve.set_defaults(fn=_cmd_verify)

    su = sub.add_parser("suite", help="run the full acceptance battery")
    su.add_argument("--output-dir", dest="output_dir")
    su.set_defaults(fn=_cmd_suite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # actions that check a criterion return 0 or 1, the others None
        return args.fn(args) or 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
