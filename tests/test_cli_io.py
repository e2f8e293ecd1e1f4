"""The command line: malformed flags and inputs exit 2 without a
traceback (one case in a fresh interpreter, the rest through cli.main),
a retired command is a usage error, each command takes exactly the flags
it reads, and stdout and the CSV report keep their exact bytes."""

import argparse
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fatou_lab import cli
from fatou_lab.cli import build_parser, main
from fatou_lab.errors import ParameterError
from fatou_lab.grid import GridFunction, make_grid
from fatou_lab.potentials import sharp_maximal
from fatou_lab.report import RunReport, emit_report


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding one empty file."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "file").write_text("")
    return d


_MALFORMED = {
    "levels-not-numbers": ["verify", "--experiment", "poincare",
                           "--levels", "x"],
    "levels-empty": ["verify", "--experiment", "poincare", "--levels", ""],
    "seeds-empty-entry": ["verify", "--experiment", "poincare",
                          "--seeds", "1,,2"],
    # a file that cannot be opened, or a directory that cannot be made
    "verify-missing-config": ["verify", "--config", "nofile.ini"],
    "verify-output-dir-under-a-file": ["verify", "--experiment",
                                       "poisson-exactness", "--output-dir",
                                       "{d}/file/out"],
    # a command that the lab no longer has
    "retired-command": ["maxfn", "tangential"],
}

# Malformed invocations of the six retired tool commands (kernel-table,
# extend, maxfn, potential, fractal, lipschitz): a bad value, a missing
# or unread flag, a file that cannot be read or written.  Each now stops
# at the command word, before any file is opened, so cli.main runs
# them in this process.
_RETIRED = {
    "window-one-number": ["fractal", "boxdim", "--in", "pts.csv",
                          "--window", "4"],
    "window-not-numbers": ["fractal", "boxdim", "--in", "pts.csv",
                           "--window", "a,b"],
    "scales-not-numbers": ["potential", "sharp", "--in", "{d}/file",
                           "--out", "{d}/s.flgf", "--scales", "x"],
    "scales-empty": ["potential", "sharp", "--in", "{d}/file",
                     "--out", "{d}/s.flgf", "--scales", ""],
    "heights-fractional-count": ["extend", "poisson", "--heights",
                                 "1,2.5", "--in", "{d}/file",
                                 "--out", "{d}/v.flhf"],
    "corkscrew-2d-profile": ["lipschitz", "corkscrew",
                             "--profile", "{d}/file"],
    "surface-2d-profile": ["lipschitz", "surface", "--profile", "{d}/file"],
    "corkscrew-nan-x0": ["lipschitz", "corkscrew", "--profile",
                         "{d}/file", "--x0", "nan"],
    "surface-inf-x0": ["lipschitz", "surface", "--profile", "{d}/file",
                       "--x0", "inf"],
    "smooth-without-out": ["potential", "smooth", "--in", "{d}/file"],
    "boxdim-without-in": ["fractal", "boxdim"],
    "divset-without-in": ["fractal", "divset", "--out", "{d}/x.csv"],
    "boundary-max-without-in": ["lipschitz", "boundary-max", "--profile",
                                "{d}/file", "--out", "{d}/x.flgf"],
    "bessel-without-alpha": ["kernel-table", "bessel", "--points",
                             "{d}/r.csv"],
    "poisson-without-t": ["kernel-table", "poisson", "--points", "{d}/r.csv"],
    "dilated-without-beta": ["maxfn", "dilated", "--in", "{d}/file",
                             "--out", "{d}/x.flgf"],
    "composite-without-beta": ["maxfn", "composite", "--in", "{d}/file",
                               "--out", "{d}/x.flgf"],
    "riesz-n-3": ["kernel-table", "riesz", "--n", "3", "--alpha", "0.5",
                  "--points", "{d}/r.csv"],
    "poisson-nan-t": ["kernel-table", "poisson", "--t", "nan",
                      "--points", "{d}/r.csv", "--out", "{d}/x.csv"],
    "bessel-nan-alpha": ["kernel-table", "bessel", "--alpha", "nan",
                         "--points", "{d}/r.csv", "--out", "{d}/x.csv"],
    "smooth-beta": ["potential", "smooth", "--beta", "0.3", "--in",
                    "{d}/file", "--out", "{d}/x.flgf"],
    "corkscrew-samples": ["lipschitz", "corkscrew", "--profile",
                          "{d}/file", "--samples", "5"],
    "maxfn-op-flag": ["maxfn", "--op", "tangential", "--in", "{d}/file",
                      "--out", "{d}/x.flgf"],
    "divset-ref-flag": ["fractal", "divset", "--in", "{d}/file",
                        "--ref", "{d}/file", "--out", "{d}/x.csv"],
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
    "smooth-missing-in": ["potential", "smooth", "--in", "nofile.csv",
                          "--out", "{d}/x.flgf"],
    "boxdim-missing-in": ["fractal", "boxdim", "--in", "nofile.csv"],
    "divset-missing-in": ["fractal", "divset", "--in", "nofile",
                          "--out", "{d}/x.csv"],
    "kernel-table-missing-points": ["kernel-table", "poisson", "--t", "1",
                                    "--points", "nofile"],
    "cantor-out-in-missing-dir": ["fractal", "cantor", "--depth", "2",
                                  "--out", "{d}/no-dir/x.csv"],
    "cantor-out-under-a-file": ["fractal", "cantor", "--depth", "2",
                                "--out", "{d}/file/x.csv"],
    "cantor-out-disk-full": ["fractal", "cantor", "--depth", "2",
                             "--out", "/dev/full"],
    "smooth-out-disk-full": ["potential", "smooth", "--in", "{d}/file",
                             "--out", "/dev/full"],
    "extend-out-disk-full": ["extend", "poisson", "--heights", "1,4",
                             "--in", "{d}/file", "--out", "/dev/full"],
    "boundary-max-grid-mismatch": ["lipschitz", "boundary-max", "--profile",
                                   "{d}/file", "--in", "{d}/file",
                                   "--out", "{d}/x.flgf"],
}


@pytest.mark.parametrize("case", sorted({**_MALFORMED, **_RETIRED}))
def test_malformed_cli_input_exits_2_without_traceback(inputs, capsys,
                                                        monkeypatch, case):
    argv = [a.format(d=inputs) for a in {**_MALFORMED, **_RETIRED}[case]]
    before = sorted(os.listdir(inputs))
    if case == "retired-command":
        # the one run as `python -m fatou_lab`
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                         "src")
        proc = subprocess.run([sys.executable, "-m", "fatou_lab", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=inputs)
        code, err = proc.returncode, proc.stderr
        assert "Traceback" not in err
    else:
        # an exception other than the usage error's SystemExit propagates
        # and fails the test
        monkeypatch.chdir(inputs)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
    assert code == 2, err
    assert "error: " in err
    assert sorted(os.listdir(inputs)) == before
    if case in _RETIRED:
        assert f"invalid choice: '{argv[0]}'" in err


# one valid run of each retired tool action; {d} held its inputs and {o}
# took its outputs
_RETIRED_RUNS = {
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


@pytest.mark.parametrize("key", sorted(_RETIRED_RUNS),
                         ids=[f"{c}-{a}" for c, a in sorted(_RETIRED_RUNS)])
def test_retired_command_stops_at_the_command_word(inputs, tmp_path, capsys,
                                                   monkeypatch, key):
    # argparse refuses the command word before it reads any flag or file,
    # so even a valid run of a retired command is a usage error that
    # changes no file
    monkeypatch.chdir(tmp_path)
    word = key[0]
    argv = [*key, *_RETIRED_RUNS[key].format(d=inputs, o=tmp_path).split()]
    before = sorted(os.listdir(inputs))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2, err
    assert "error: " in err and f"invalid choice: '{word}'" in err
    assert sorted(os.listdir(inputs)) == before
    assert os.listdir(tmp_path) == []


# The flags each command reads, a trailing ! on each that it cannot run
# without.
_FLAGS = {
    "verify": "config experiment levels seeds output-dir",
    "suite": "output-dir",
}


def _walk() -> dict:
    """{command: the flags its parser accepts, a trailing ! on the
    required ones}."""
    commands = next(act.choices for act in build_parser()._actions
                    if isinstance(act, argparse._SubParsersAction))
    return {command: {opt[2:] + "!" * act.required
                      for act in cp._actions for opt in act.option_strings
                      if opt not in ("-h", "--help")}
            for command, cp in commands.items()}


def test_each_action_takes_exactly_the_flags_it_reads():
    walked = _walk()
    assert walked == {k: set(v.split()) for k, v in _FLAGS.items()}
    assert sum(len(flags) for flags in walked.values()) == 6


def _verify_config(tmp_path, text: str) -> list:
    """verify's argv for an INI config of text, reports under tmp_path."""
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\n" + text)
    return ["verify", "--config", str(path), "--output-dir",
            str(tmp_path / "out")]


def test_lipschitz_non_finite_inputs_exit_2(tmp_path, capsys):
    # the Lipschitz runners reach the library's finiteness checks through
    # a config: c reaches region_inclusion_check and
    # boundary_tangential_max (the corkscrew slopes are pinned)
    for text in ("experiment = inclusion-lemma\nlevels = 6\nc = inf\n",
                 "experiment = boundary-max\nlevels = 6\nc = inf\n"):
        assert main(_verify_config(tmp_path, text)) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err


def test_non_finite_power_or_scale_off_the_floor_exits_2(tmp_path, capsys):
    # an infinite power once wrote all-ones output, and a scale that is not
    # finite or lies below 4h stopped in a traceback; the ball-mean and
    # boundary powers are (1 + p) / 2, so an infinite or NaN p stops first
    for text, message in (
            ("experiment = j-uniformity\nlevels = 6\np = inf\n",
             "alpha p <= n"),
            ("experiment = j-uniformity\nlevels = 6\np = nan\n",
             "p must exceed 1"),
            ("experiment = boundary-max\nlevels = 6\np = inf\n",
             "alpha p <= n")):
        assert main(_verify_config(tmp_path, text)) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    # sharp_maximal's scales lie in [4h, extent/4]; above it the wrap pad,
    # and the memory, grew with the scale
    g = make_grid(1, 8, 1.0)
    f = GridFunction(g, np.cos(2 * np.pi * g.axis_coords()))
    for r in (math.inf, math.nan, 0.0, -1.0, 1e-9, 0.5, 1e6):
        with pytest.raises(ParameterError, match="scale"):
            sharp_maximal(f, 0.5, (r,))


def test_corkscrew_prints_plain_floats(tmp_path, capsys):
    # NumPy 2 scalars print as np.float64(...); M prints as a float
    assert main(_verify_config(
        tmp_path, "experiment = corkscrew-geometry\nlevels = 8\n")) == 0
    assert capsys.readouterr().out == (
        "PASS  corkscrew clearance constants: 0 violations of "
        "kappa(M) t - 2h <= dist <= t (M=0.5 sawtooth: 0 low, 0 high; "
        "M=0.5 smooth: 0 low, 0 high; M=1.0 sawtooth: 0 low, 0 high; "
        "M=1.0 smooth: 0 low, 0 high; M=3.0 sawtooth: 0 low, 0 high; "
        "M=3.0 smooth: 0 low, 0 high)\n")


# The bytes below pin what verify prints and the CSV report's format:
# \n line ends, floats as .17g, ints as written.


def test_verify_stdout_bytes(tmp_path, capsys):
    # kernel-identities' criteria: one PASS or FAIL line each on stdout,
    # the same lines as in the text report
    assert main(["verify", "--experiment", "kernel-identities",
                 "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    text = (tmp_path / "kernel-identities.txt").read_text()
    assert out == "".join(line + "\n" for line in text.splitlines()
                          if line.startswith(("PASS  ", "FAIL  ")))
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "PASS  bessel unit mass",
        "PASS  pointwise domination by the Riesz kernel",
        "PASS  kernel ratio near the origin"]


def test_boxdim_calibration_csv_bytes(tmp_path, capsys):
    assert main(_verify_config(
        tmp_path, "experiment = boxdim-calibration\nlevels = 10\n")) == 0
    capsys.readouterr()
    data = (tmp_path / "out" / "boxdim-calibration.csv").read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert lines[0] == "level,seed,quantity,value"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
        "10,0,slope_cantor", "10,0,slope_interval", "10,0,slope_point"]
    for line, target in zip(lines[1:], (math.log(2) / math.log(3), 1.0, 0.0)):
        value = line.rsplit(",", 1)[1]
        assert value == format(float(value), ".17g")
        assert abs(float(value) - target) <= 0.05


def test_run_report_csv_bytes(tmp_path):
    rep = RunReport(experiment="bytes", config_hash="0", seeds=(0,),
                    version="0")
    for i in range(4):
        rep.add_row(2, 0, f"x{i}", i / 12)
    rep.add_row(2, 1, "tiny", 5e-324)
    rep.add_row(2, 1, "huge", -1.7976931348623157e308)
    emit_report(rep, "csv", str(tmp_path))
    assert (tmp_path / "bytes.csv").read_bytes() == (
        b"level,seed,quantity,value\n2,0,x0,0\n2,0,x1,0.083333333333333329\n"
        b"2,0,x2,0.16666666666666666\n2,0,x3,0.25\n"
        b"2,1,tiny,4.9406564584124654e-324\n"
        b"2,1,huge,-1.7976931348623157e+308\n")


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
