"""CLI input and output at the byte level: malformed flags and inputs exit 2
without a traceback, every action takes exactly the flags it reads, and
every CSV writer keeps its exact bytes."""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

from fatou_lab import cli
from fatou_lab.cli import _write_points, build_parser, main
from fatou_lab.extension import dyadic_heights, poisson_extend, \
    save_half_space_field
from fatou_lab.fractal import PointSet
from fatou_lab.grid import (from_callable, grid_function_to_csv, make_grid,
                            save_grid_function)
from fatou_lab.lipschitz import lipschitz_graph, save_lipschitz_graph


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A level-6 grid function and its Poisson field, 1-D Lipschitz profiles
    at levels 6 and 8, a 2-D profile, radii files (valid, with a zero, and
    with a NaN, an infinite and a negative radius) and a points file."""
    d = tmp_path_factory.mktemp("inputs")
    g1, g2 = make_grid(1, 6, 1.0), make_grid(2, 3, 1.0)
    f = from_callable(g1, np.cos)
    save_grid_function(d / "f.flgf", f)
    save_half_space_field(d / "u.flhf",
                          poisson_extend(f, dyadic_heights(1.0, count=10)))
    save_lipschitz_graph(d / "prof.flgf",
                         lipschitz_graph(from_callable(g1, np.zeros_like)))
    save_lipschitz_graph(d / "prof8.flgf", lipschitz_graph(
        from_callable(make_grid(1, 8, 1.0), np.zeros_like)))
    save_lipschitz_graph(d / "prof2.flgf", lipschitz_graph(
        from_callable(g2, lambda x, y: 0.1 * np.cos(2 * np.pi * x))))
    (d / "r.csv").write_text("r\n0.5\n1.0\n")
    (d / "r0.csv").write_text("r\n0.5\n0\n")
    (d / "r-nan.csv").write_text("r\n0.5\nnan\n")
    (d / "r-inf.csv").write_text("inf\n")
    (d / "r-neg.csv").write_text("r\n-0.5\n1.0\n")
    (d / "pts.csv").write_text("x\n0\n0.1875\n0.75\n0.9375\n")
    return d


_MALFORMED = {
    "window-one-number": ["fractal", "boxdim", "--in", "pts.csv",
                          "--window", "4"],
    "window-not-numbers": ["fractal", "boxdim", "--in", "pts.csv",
                           "--window", "a,b"],
    "scales-not-numbers": ["potential", "sharp", "--in", "{d}/f.flgf",
                           "--out", "{d}/s.flgf", "--scales", "x"],
    "scales-empty": ["potential", "sharp", "--in", "{d}/f.flgf",
                     "--out", "{d}/s.flgf", "--scales", ""],
    "levels-not-numbers": ["verify", "--experiment", "poincare",
                           "--levels", "x"],
    "levels-empty": ["verify", "--experiment", "poincare", "--levels", ""],
    "seeds-empty-entry": ["verify", "--experiment", "poincare",
                          "--seeds", "1,,2"],
    "heights-fractional-count": ["extend", "poisson", "--heights",
                                 "1,2.5", "--in", "{d}/f.flgf",
                                 "--out", "{d}/v.flhf"],
    "corkscrew-2d-profile": ["lipschitz", "corkscrew",
                             "--profile", "{d}/prof2.flgf"],
    "surface-2d-profile": ["lipschitz", "surface",
                           "--profile", "{d}/prof2.flgf"],
    "corkscrew-nan-x0": ["lipschitz", "corkscrew", "--profile",
                         "{d}/prof.flgf", "--x0", "nan"],
    "surface-inf-x0": ["lipschitz", "surface", "--profile",
                       "{d}/prof.flgf", "--x0", "inf"],
    # a flag that the action cannot run without
    "smooth-without-out": ["potential", "smooth", "--in", "{d}/f.flgf"],
    "boxdim-without-in": ["fractal", "boxdim"],
    "divset-without-in": ["fractal", "divset", "--out", "{d}/x.csv"],
    "boundary-max-without-in": ["lipschitz", "boundary-max", "--profile",
                                "{d}/prof.flgf", "--out", "{d}/x.flgf"],
    "bessel-without-alpha": ["kernel-table", "bessel", "--points",
                             "{d}/r.csv"],
    "poisson-without-t": ["kernel-table", "poisson", "--points", "{d}/r.csv"],
    "dilated-without-beta": ["maxfn", "dilated", "--in", "{d}/u.flhf",
                             "--out", "{d}/x.flgf"],
    "composite-without-beta": ["maxfn", "composite", "--in", "{d}/f.flgf",
                               "--out", "{d}/x.flgf"],
    "riesz-n-3": ["kernel-table", "riesz", "--n", "3", "--alpha", "0.5",
                  "--points", "{d}/r.csv"],
    "poisson-nan-t": ["kernel-table", "poisson", "--t", "nan",
                      "--points", "{d}/r.csv", "--out", "{d}/x.csv"],
    "bessel-nan-alpha": ["kernel-table", "bessel", "--alpha", "nan",
                         "--points", "{d}/r.csv", "--out", "{d}/x.csv"],
    # a flag that the action does not read, or a retired spelling
    "smooth-beta": ["potential", "smooth", "--beta", "0.3", "--in",
                    "{d}/f.flgf", "--out", "{d}/x.flgf"],
    "corkscrew-samples": ["lipschitz", "corkscrew", "--profile",
                          "{d}/prof.flgf", "--samples", "5"],
    "maxfn-op-flag": ["maxfn", "--op", "tangential", "--in", "{d}/u.flhf",
                      "--out", "{d}/x.flgf"],
    "divset-ref-flag": ["fractal", "divset", "--in", "{d}/f.flgf",
                        "--ref", "{d}/f.flgf", "--out", "{d}/x.csv"],
    # a radius where the kernel is singular, or one that is no radius
    "riesz-zero-radius": ["kernel-table", "riesz", "--alpha", "0.5",
                          "--points", "{d}/r0.csv", "--out", "{d}/x.csv"],
    "bessel-2d-zero-radius": ["kernel-table", "bessel", "--n", "2",
                              "--alpha", "1.5", "--points", "{d}/r0.csv",
                              "--out", "{d}/x.csv"],
    "bessel-quadrature-zero-radius": ["kernel-table", "bessel", "--alpha",
                                      "0.5", "--route", "quadrature",
                                      "--points", "{d}/r0.csv",
                                      "--out", "{d}/x.csv"],
    "poisson-nan-radius": ["kernel-table", "poisson", "--t", "1", "--points",
                           "{d}/r-nan.csv", "--out", "{d}/x.csv"],
    "bessel-nan-radius": ["kernel-table", "bessel", "--alpha", "2",
                          "--points", "{d}/r-nan.csv", "--out", "{d}/x.csv"],
    "riesz-nan-radius": ["kernel-table", "riesz", "--alpha", "0.5",
                         "--points", "{d}/r-nan.csv", "--out", "{d}/x.csv"],
    "poisson-inf-radius": ["kernel-table", "poisson", "--t", "1", "--points",
                           "{d}/r-inf.csv", "--out", "{d}/x.csv"],
    "poisson-negative-radius": ["kernel-table", "poisson", "--t", "1",
                                "--points", "{d}/r-neg.csv",
                                "--out", "{d}/x.csv"],
    # a file that cannot be opened
    "smooth-missing-in": ["potential", "smooth", "--in", "nofile.csv",
                          "--out", "{d}/x.flgf"],
    "boxdim-missing-in": ["fractal", "boxdim", "--in", "nofile.csv"],
    "divset-missing-in": ["fractal", "divset", "--in", "nofile",
                          "--out", "{d}/x.csv"],
    "verify-missing-config": ["verify", "--config", "nofile.ini"],
    "kernel-table-missing-points": ["kernel-table", "poisson", "--t", "1",
                                    "--points", "nofile"],
    "cantor-out-in-missing-dir": ["fractal", "cantor", "--depth", "2",
                                  "--out", "{d}/no-dir/x.csv"],
    "cantor-out-under-a-file": ["fractal", "cantor", "--depth", "2",
                                "--out", "{d}/f.flgf/x.csv"],
    "verify-output-dir-under-a-file": ["verify", "--experiment",
                                       "poisson-exactness", "--output-dir",
                                       "{d}/f.flgf/out"],
    # a write that fails after its file opened (CSV, FLGF, FLHF)
    "cantor-out-disk-full": ["fractal", "cantor", "--depth", "2",
                             "--out", "/dev/full"],
    "smooth-out-disk-full": ["potential", "smooth", "--in", "{d}/f.flgf",
                             "--out", "/dev/full"],
    "extend-out-disk-full": ["extend", "poisson", "--heights", "1,4",
                             "--in", "{d}/f.flgf", "--out", "/dev/full"],
    # data on another grid than the profile
    "boundary-max-grid-mismatch": ["lipschitz", "boundary-max", "--profile",
                                   "{d}/prof8.flgf", "--in", "{d}/f.flgf",
                                   "--out", "{d}/x.flgf"],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_cli_input_exits_2_without_traceback(inputs, case):
    argv = [a.format(d=inputs) for a in _MALFORMED[case]]
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    before = sorted(os.listdir(inputs))
    proc = subprocess.run([sys.executable, "-m", "fatou_lab", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=inputs)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr
    assert sorted(os.listdir(inputs)) == before


# The flags each action reads, a trailing ! on each that it cannot run
# without; verify and suite have no action word.
_ACTION_FLAGS = {
    ("kernel-table", "poisson"): "n t! points! out",
    ("kernel-table", "bessel"): "n alpha! route points! out",
    ("kernel-table", "riesz"): "n alpha! points! out",
    ("extend", "poisson"): "heights! in! out! extent",
    ("extend", "surrogate"): "heights! in! out! extent alpha-L r J",
    ("maxfn", "tangential"): "in! out! beta aperture t-max",
    ("maxfn", "dilated"): "in! out! p beta! j",
    ("maxfn", "composite"): "in! out! extent p r beta! alpha-L J",
    ("potential", "smooth"): "in! out! extent alpha",
    ("potential", "sharp"): "in! out! extent alpha scales",
    ("potential", "seminorm"): "in! extent sigma p",
    ("fractal", "cantor"): "s depth levels extent out",
    ("fractal", "boxdim"): "in! dim levels extent window out",
    ("fractal", "divset"): "in! extent out beta aperture eps tmin",
    ("lipschitz", "corkscrew"): "profile! x0 t",
    ("lipschitz", "inclusion"): "profile! beta c samples seed",
    ("lipschitz", "surface"): "profile! x0 radius",
    ("lipschitz", "boundary-max"): "profile! in! out! beta c alpha-L p0 J",
    ("verify", None): "config experiment levels seeds output-dir",
    ("suite", None): "output-dir",
}


def _choices(parser) -> dict:
    """The parsers of parser's subcommands, or {} when it has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _walk() -> dict:
    """{(command, action word or None): the flags its parser accepts, a
    trailing ! on the required ones}."""
    out = {}
    for command, cp in _choices(build_parser()).items():
        for word, ap in (_choices(cp) or {None: cp}).items():
            out[command, word] = {opt[2:] + "!" * act.required
                                  for act in ap._actions
                                  for opt in act.option_strings
                                  if opt not in ("-h", "--help")}
    return out


def test_each_action_takes_exactly_the_flags_it_reads():
    walked = _walk()
    assert walked == {k: set(v.split()) for k, v in _ACTION_FLAGS.items()}
    assert sum(len(flags) for flags in walked.values()) == 98


class _Reads(argparse.Namespace):
    """A namespace that records the names read from it."""

    def __getattribute__(self, name):
        object.__getattribute__(self, "__dict__").setdefault(
            "_read", set()).add(name)
        return object.__getattribute__(self, name)


# one valid run of each action; {d} holds the inputs, {o} takes the outputs
_RUNS = {
    ("kernel-table", "poisson"): "--t 1 --points {d}/r.csv",
    ("kernel-table", "bessel"): "--alpha 2 --points {d}/r.csv",
    ("kernel-table", "riesz"): "--alpha 0.5 --points {d}/r.csv",
    ("extend", "poisson"): "--heights 1,4 --in {d}/f.flgf --out {o}/u.flhf",
    ("extend", "surrogate"): "--heights 1,4 --in {d}/f.flgf --out {o}/u.flhf",
    ("maxfn", "tangential"): "--in {d}/u.flhf --out {o}/m.flgf",
    ("maxfn", "dilated"): "--in {d}/u.flhf --out {o}/m.flgf --beta 0.5",
    ("maxfn", "composite"): "--in {d}/f.flgf --out {o}/m.flgf --beta 0.5 --J 4",
    ("potential", "smooth"): "--in {d}/f.flgf --out {o}/s.flgf",
    ("potential", "sharp"): "--in {d}/f.flgf --out {o}/s.flgf",
    ("potential", "seminorm"): "--in {d}/f.flgf",
    ("fractal", "cantor"): "--depth 4 --levels 6",
    ("fractal", "boxdim"): "--in {d}/pts.csv --levels 6 --window 2,5",
    ("fractal", "divset"): "--in {d}/f.flgf",
    ("lipschitz", "corkscrew"): "--profile {d}/prof.flgf",
    ("lipschitz", "inclusion"): "--profile {d}/prof.flgf --samples 200",
    ("lipschitz", "surface"): "--profile {d}/prof.flgf",
    ("lipschitz", "boundary-max"):
        "--profile {d}/prof.flgf --in {d}/f.flgf --out {o}/b.flgf --J 4",
}


@pytest.mark.parametrize("key", sorted(_RUNS), ids="-".join)
def test_each_action_reads_every_flag_it_takes(inputs, tmp_path, capsys, key):
    argv = [*key, *_RUNS[key].format(d=inputs, o=tmp_path).split()]
    args = build_parser().parse_args(argv, namespace=_Reads())
    args.__dict__["_read"] = set()
    assert args.fn(args) in (None, 0)
    dests = {"infile" if f == "in" else f.replace("-", "_")
             for f in _ACTION_FLAGS[key].replace("!", "").split()}
    assert args.__dict__["_read"] - {"fn", "__dict__"} == dests
def test_lipschitz_non_finite_inputs_exit_2(inputs, capsys):
    prof = str(inputs / "prof.flgf")
    for flag, value in (("--x0", "nan"), ("--x0", "inf"), ("--t", "nan"),
                        ("--t", "inf")):
        assert main(["lipschitz", "corkscrew", "--profile", prof,
                     flag, value]) == 2
        assert "finite" in capsys.readouterr().err
    assert main(["lipschitz", "surface", "--profile", prof,
                 "--x0", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


def test_non_finite_power_or_scale_off_the_floor_exits_2(inputs, tmp_path,
                                                         capsys):
    # an infinite power once wrote all-ones output, and a scale that is not
    # finite or lies below 4h stopped in a traceback
    f, out = str(inputs / "f.flgf"), str(tmp_path / "x.flgf")
    cases = [["extend", "surrogate", "--heights", "1,4", f"--r={r}"]
             for r in ("inf", "nan")]
    # above extent/4 the wrap pad, and the memory, grew with the scale
    cases += [["potential", "sharp", f"--scales={r}"]
              for r in ("inf", "nan", "0", "-1", "1e-9", "0.5", "1e6")]
    for argv in cases:
        assert main([*argv, "--in", f, "--out", out]) == 2, argv
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_corkscrew_prints_plain_floats(inputs, capsys):
    # NumPy 2 scalars print as np.float64(...); the point prints as floats
    assert main(["lipschitz", "corkscrew", "--profile",
                 str(inputs / "prof.flgf"), "--x0", "0.25", "--t", "0.3"]) == 0
    assert capsys.readouterr().out == "corkscrew: (0.3, 0.25)  clearance: 0.3\n"


# The bytes below pin each CSV writer's format: \r\n line ends, floats as
# .17g, ints as written, and the kernel-table preamble ahead of the header.


def test_kernel_table_stdout_bytes(tmp_path, capsys):
    pts = tmp_path / "r.csv"
    pts.write_text("r\n0.5\n1.0\n")
    assert main(["kernel-table", "bessel", "--n", "1",
                 "--alpha", "2.0", "--points", str(pts)]) == 0
    assert capsys.readouterr().out == (
        "# c_alpha fixed by unit L1 mass, radial quadrature of the "
        "subordination integral\n"
        "r,value\r\n0.5,0.30326532985631671\r\n1,0.18393972058572117\r\n")


def test_points_and_boxdim_counts_bytes(tmp_path, capsys):
    pts = tmp_path / "c.csv"
    assert main(["fractal", "cantor", "--s", "0.5", "--depth", "2",
                 "--levels", "6", "--out", str(pts)]) == 0
    assert pts.read_bytes() == b"x\r\n0\r\n0.1875\r\n0.75\r\n0.9375\r\n"
    capsys.readouterr()
    assert main(["fractal", "boxdim", "--in", str(pts), "--levels", "6",
                 "--window", "2,5"]) == 0
    assert capsys.readouterr().out == (
        "scale,count\r\n2,2\r\n3,4\r\n4,4\r\n5,4\r\nslope: 0.3  r2: 0.6\n")
    path = tmp_path / "p2.csv"
    _write_points(str(path), PointSet(
        points=np.array([[0.25, 1 / 3], [0.75, 0.125]]),
        grid=make_grid(2, 4, 1.0)))
    assert path.read_bytes() == (b"x0,x1\r\n0.25,0.33333333333333331\r\n"
                                 b"0.75,0.125\r\n")


def test_grid_function_csv_bytes(tmp_path):
    path = tmp_path / "g1.csv"
    grid_function_to_csv(path, from_callable(make_grid(1, 2, 1.0),
                                             lambda x: x / 3))
    assert path.read_bytes() == (
        b"i,value\r\n0,0\r\n1,0.083333333333333329\r\n"
        b"2,0.16666666666666666\r\n3,0.25\r\n")
    grid_function_to_csv(path, from_callable(make_grid(2, 2, 1.0),
                                             lambda x, y: x / 3 - y))
    assert path.read_bytes() == (
        b"i,j,value\r\n0,0,0\r\n0,1,-0.25\r\n0,2,-0.5\r\n0,3,-0.75\r\n"
        b"1,0,0.083333333333333329\r\n1,1,-0.16666666666666669\r\n"
        b"1,2,-0.41666666666666669\r\n1,3,-0.66666666666666663\r\n"
        b"2,0,0.16666666666666666\r\n2,1,-0.083333333333333343\r\n"
        b"2,2,-0.33333333333333337\r\n2,3,-0.58333333333333337\r\n"
        b"3,0,0.25\r\n3,1,0\r\n3,2,-0.25\r\n3,3,-0.5\r\n")


@pytest.mark.parametrize("argv", [["verify", "--experiment", "poincare"],
                                  ["suite"]], ids=["verify", "suite"])
def test_output_dir_is_checked_before_any_experiment(tmp_path, monkeypatch,
                                                     capsys, argv):
    def refuse(cfg):
        raise AssertionError("experiment run before the output check")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    (tmp_path / "file").write_text("")
    assert main([*argv, "--output-dir", str(tmp_path / "file" / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot create output directory {tmp_path / 'file' / 'out'}")
