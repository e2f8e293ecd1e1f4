"""CLI input and output at the byte level: malformed flags and inputs exit 2
without a traceback, and every CSV writer keeps its exact bytes."""

import os
import subprocess
import sys

import numpy as np
import pytest

from fatou_lab.cli import _write_points, main
from fatou_lab.fractal import PointSet
from fatou_lab.grid import (from_callable, grid_function_to_csv, make_grid,
                            save_grid_function)
from fatou_lab.lipschitz import lipschitz_graph, save_lipschitz_graph


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 1-D grid function and 1-D and 2-D Lipschitz profiles on disk."""
    d = tmp_path_factory.mktemp("inputs")
    g1, g2 = make_grid(1, 6, 1.0), make_grid(2, 3, 1.0)
    save_grid_function(d / "f.flgf", from_callable(g1, np.cos))
    save_lipschitz_graph(d / "prof.flgf",
                         lipschitz_graph(from_callable(g1, np.zeros_like)))
    save_lipschitz_graph(d / "prof2.flgf", lipschitz_graph(
        from_callable(g2, lambda x, y: 0.1 * np.cos(2 * np.pi * x))))
    return d


_MALFORMED = {
    "window-one-number": ["fractal", "boxdim", "--in", "pts.csv",
                          "--window", "4"],
    "window-not-numbers": ["fractal", "boxdim", "--in", "pts.csv",
                           "--window", "a,b"],
    "scales-not-numbers": ["potential", "sharp", "--in", "{d}/f.flgf",
                           "--scales", "x"],
    "scales-empty": ["potential", "sharp", "--in", "{d}/f.flgf",
                     "--scales", ""],
    "levels-not-numbers": ["verify", "--experiment", "poincare",
                           "--levels", "x"],
    "levels-empty": ["verify", "--experiment", "poincare", "--levels", ""],
    "seeds-empty-entry": ["verify", "--experiment", "poincare",
                          "--seeds", "1,,2"],
    "heights-fractional-count": ["extend", "--kind", "poisson", "--heights",
                                 "1,2.5", "--in", "{d}/f.flgf",
                                 "--out", "{d}/u.flhf"],
    "corkscrew-2d-profile": ["lipschitz", "corkscrew",
                             "--profile", "{d}/prof2.flgf"],
    "surface-2d-profile": ["lipschitz", "surface",
                           "--profile", "{d}/prof2.flgf"],
    "corkscrew-nan-x0": ["lipschitz", "corkscrew", "--profile",
                         "{d}/prof.flgf", "--x0", "nan"],
    "surface-inf-x0": ["lipschitz", "surface", "--profile",
                       "{d}/prof.flgf", "--x0", "inf"],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_cli_input_exits_2_without_traceback(inputs, case):
    argv = [a.format(d=inputs) for a in _MALFORMED[case]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-m", "fatou_lab", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=inputs)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr
    assert not (inputs / "u.flhf").exists()


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
    assert main(["kernel-table", "--kind", "bessel", "--n", "1",
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


def test_argmax_witness_bytes(tmp_path):
    src, field, wit = (tmp_path / n for n in ("f.flgf", "u.flhf", "w.csv"))
    save_grid_function(src, from_callable(make_grid(1, 3, 1.0),
                                          lambda x: np.cos(2 * np.pi * x)))
    assert main(["extend", "--kind", "poisson", "--heights", "0.5,3",
                 "--in", str(src), "--out", str(field)]) == 0
    assert main(["maxfn", "--op", "tangential", "--beta", "0.5",
                 "--in", str(field), "--out", str(tmp_path / "nt.flgf"),
                 "--argmax", str(wit)]) == 0
    assert wit.read_bytes() == (
        b"x0,t_star,x_star\r\n0,0.0625,0\r\n0.125,0.0625,0\r\n"
        b"0.25,0.0625,0.125\r\n0.375,0.0625,0.5\r\n0.5,0.0625,0.5\r\n"
        b"0.625,0.0625,0.5\r\n0.75,0.0625,0.625\r\n0.875,0.0625,0\r\n")


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
