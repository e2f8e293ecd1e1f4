"""Command-line interface: verify and suite.

``fatou-lab verify`` runs one experiment, from an INI config
(``--config``) or from the defaults of one experiment
(``--experiment``), with ``--levels``, ``--seeds`` and ``--output-dir``
overriding the config; ``fatou-lab suite`` runs the full acceptance
battery.  Both write csv, svg and text reports and print one PASS or
FAIL line per criterion.  --levels and --seeds take comma-separated
integers.  Exit codes: 0 all checks passed, 1 a criterion failed, 2
usage error: a missing, unknown or malformed flag or command (argparse
prints a usage line), or a config or an output directory rejected with
ParameterError.
"""

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import EXPERIMENTS, ExperimentConfig, load, validate
from .errors import ParameterError
from .experiments import acceptance_configs, run_experiment
from .report import emit_report, make_output_dir


def _numbers(kind):
    """argparse type for one or more comma-separated numbers of kind;
    argparse turns a malformed list into a usage error (exit 2)."""
    def convert(text: str) -> tuple:
        try:
            return tuple(kind(cell) for cell in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__}[,{kind.__name__}...], got {text!r}")

    return convert


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
    cfg = validate(replace(cfg, **{k: v for k, v in vars(args).items()
                                   if v is not None
                                   and k in ("experiment", "levels", "seeds",
                                             "output_dir")}))
    make_output_dir(cfg.output_dir)
    rep = run_experiment(cfg)
    _emit_all(rep, cfg.output_dir)
    for c in rep.criteria:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    return 0 if rep.passed else 1


def _cmd_suite(args) -> int:
    cfgs = acceptance_configs()
    if args.output_dir is not None:
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fatou-lab",
                                description="harmonic analysis lab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
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
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
