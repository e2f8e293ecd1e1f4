import os
import subprocess
import sys

import numpy as np
import pytest

from fatou_lab.cli import main
from fatou_lab.config import (EXPERIMENTS, ExperimentConfig, config_hash, load,
                              parse, serialize, validate)
from fatou_lab.errors import ParameterError
from fatou_lab.experiments import _RUNNERS, run_experiment
from fatou_lab.grid import (GridFunction, from_callable, grid_function_from_csv,
                            make_grid, save_grid_function)
from fatou_lab.lipschitz import lipschitz_graph, save_lipschitz_graph
from fatou_lab.report import emit_report


def test_config_round_trip():
    cfg = validate(ExperimentConfig(
        experiment="frostman-lemma", levels=(10, 12), alpha=0.25, p=2.0,
        s_values=(0.6, 0.75, 0.9), depths=(12, 16), seeds=(0, 1, 2),
        output_dir="some/dir"))
    text = serialize(cfg)
    assert parse(text) == cfg
    assert config_hash(cfg) == config_hash(parse(text))


def test_config_validation_messages():
    with pytest.raises(ParameterError, match="unknown experiment"):
        validate(ExperimentConfig(experiment="warp-drive"))
    with pytest.raises(ParameterError, match="s > n-alpha\\*p required"):
        validate(ExperimentConfig(experiment="frostman-lemma", alpha=0.25,
                                  p=2.0, s_values=(0.4,), depths=(12,)))
    with pytest.raises(ParameterError, match="1 < r < p"):
        validate(ExperimentConfig(experiment="nagel-stein-bound", alpha=0.25,
                                  p=2.0, r=2.5))
    with pytest.raises(ParameterError, match="alpha p <= n"):
        validate(ExperimentConfig(experiment="nagel-stein-bound", alpha=0.75,
                                  p=2.0))
    # the extended negative control runs at levels[-1] + 6, capped at 24
    with pytest.raises(ParameterError, match="levels\\[-1\\] \\+ 6 = 25"):
        validate(ExperimentConfig(experiment="nagel-stein-bound",
                                  levels=(16, 19), alpha=0.25, p=2.0))
    validate(ExperimentConfig(experiment="nagel-stein-bound", levels=(16, 18),
                              alpha=0.25, p=2.0))
    # malformed INI text and non-numeric values name the problem
    with pytest.raises(ParameterError, match="malformed config"):
        parse("experiment = poincare\n")
    with pytest.raises(ParameterError, match="malformed config"):
        parse("[experiment]\nexperiment = poincare\nexperiment = poincare\n")
    with pytest.raises(ParameterError, match="'dim'"):
        parse("[experiment]\nexperiment = poincare\ndim = x\n")
    with pytest.raises(ParameterError, match="'levels'"):
        parse("[experiment]\nexperiment = poincare\nlevels = 10,ten\n")
    with pytest.raises(ParameterError, match="'alpha'"):
        parse("[experiment]\nexperiment = poincare\nalpha = high\n")


def test_runner_names_match_config_names():
    assert set(_RUNNERS) == set(EXPERIMENTS)


def test_dim2_accepted_only_where_the_runner_honours_it():
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=name, dim=2)
        if name in ("commute-lemma", "poisson-exactness"):
            validate(cfg)
        else:
            with pytest.raises(ParameterError, match="one dimension only"):
                validate(cfg)
    # make_grid caps dim 2 at 12 levels; validate says so up front
    with pytest.raises(ParameterError, match="\\[2, 12\\] for dim = 2"):
        validate(ExperimentConfig(experiment="commute-lemma", dim=2,
                                  levels=(13,)))


def test_cli_verify_dim2_configs(tmp_path, capsys):
    ns = tmp_path / "ns.ini"
    ns.write_text("[experiment]\nexperiment = nagel-stein-bound\ndim = 2\n"
                  "levels = 8\n")
    assert main(["verify", "--config", str(ns)]) == 2
    assert "one dimension only" in capsys.readouterr().err
    cfg = validate(ExperimentConfig(experiment="poisson-exactness", dim=2,
                                    levels=(6,),
                                    output_dir=str(tmp_path / "rep")))
    pe = tmp_path / "pe.ini"
    pe.write_text(serialize(cfg))
    assert main(["verify", "--config", str(pe)]) == 0
    assert "PASS  poisson eigenfunction exactness" in capsys.readouterr().out


def test_config_file_load(tmp_path):
    cfg = validate(ExperimentConfig(experiment="poisson-exactness",
                                    levels=(10,)))
    path = tmp_path / "exp.ini"
    path.write_text(serialize(cfg))
    assert load(path) == cfg


def test_report_determinism(tmp_path):
    cfg = ExperimentConfig(experiment="boxdim-calibration", levels=(12,),
                           window=(4, 9))
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for fmt in ("csv", "svg", "text"):
        emit_report(rep1, fmt, str(d1))
        emit_report(rep2, fmt, str(d2))
    for name in os.listdir(d1):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_empty_report_emits_header_only_csv(tmp_path):
    from fatou_lab.report import RunReport

    rep = RunReport(experiment="empty", config_hash="0" * 16, seeds=(0,),
                    version="0.1.0")
    path = emit_report(rep, "csv", str(tmp_path))[0]
    assert open(path).read() == "level,seed,quantity,value\n"


def test_boxdim_svg_annotation_matches_report_slope(tmp_path):
    cfg = ExperimentConfig(experiment="boxdim-calibration", levels=(12,),
                           window=(4, 9))
    rep = run_experiment(cfg)
    path = emit_report(rep, "svg", str(tmp_path))[0]
    body = open(path).read()
    assert f"fitted slope {rep.stats['fit_slope']:.4g}" in body


def test_divergence_limiting_case_note():
    cfg = ExperimentConfig(experiment="divergence-dimension", levels=(8, 10),
                           alpha=0.25, p=2.0, beta_prime=(0.5,),
                           window=(3, 8), seeds=(0,))
    rep = run_experiment(cfg)
    assert any("limiting case covered by maximal bound" in n
               for n in rep.notes)


def test_cli_kernel_table(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("r\n0.5\n1.0\n")
    out = tmp_path / "table.csv"
    code = main(["kernel-table", "--kind", "bessel", "--n", "1", "--alpha",
                 "2.0", "--points", str(pts), "--out", str(out)])
    assert code == 0
    lines = [ln for ln in out.read_text().strip().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "r,value"
    import math

    r, v = lines[1].split(",")
    assert float(v) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-9)


def test_cli_kernel_table_rejects_non_numeric_rows(tmp_path, capsys):
    # only the first row may be a header; a mistyped radius is an error
    pts = tmp_path / "pts.csv"
    pts.write_text("r\n0.5\n1.O\n2.0\n")
    out = tmp_path / "table.csv"
    args = ["kernel-table", "--kind", "bessel", "--n", "1", "--alpha", "2.0",
            "--points", str(pts), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "'1.O'" in err
    assert not out.exists()
    pts.write_text("0.5\n1.0\n2.0\n")
    assert main(args) == 0
    assert len(out.read_text().strip().splitlines()) == 5


def test_cli_extend_and_maxfn(tmp_path):
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    src = tmp_path / "f.flgf"
    save_grid_function(src, f)
    field = tmp_path / "u.flhf"
    assert main(["extend", "--kind", "poisson", "--heights", "1.0,10",
                 "--in", str(src), "--out", str(field)]) == 0
    out = tmp_path / "nt.csv"
    assert main(["maxfn", "--op", "tangential", "--beta", "0.5",
                 "--in", str(field), "--out", str(out)]) == 0
    nt = grid_function_from_csv(out, 1.0)
    assert nt.samples.max() <= 1.0 + 1e-9
    assert nt.samples.min() > 0.5
    wit = tmp_path / "wit.csv"
    assert main(["maxfn", "--op", "tangential", "--beta", "0.5",
                 "--in", str(field), "--out", str(out),
                 "--argmax", str(wit)]) == 0
    assert wit.read_text().startswith("x0,t_star,x_star")


def test_cli_potential_and_fractal(tmp_path, capsys):
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    src = tmp_path / "f.flgf"
    save_grid_function(src, f)
    out = tmp_path / "s.flgf"
    assert main(["potential", "smooth", "--alpha", "1.0", "--in", str(src),
                 "--out", str(out)]) == 0
    assert main(["potential", "seminorm", "--sigma", "0.5", "--p", "2",
                 "--in", str(src)]) == 0
    val = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert val > 0
    pts = tmp_path / "cantor.csv"
    assert main(["fractal", "cantor", "--s", "0.6309297535714574",
                 "--depth", "10", "--levels", "12", "--out", str(pts)]) == 0
    counts = tmp_path / "counts.csv"
    assert main(["fractal", "boxdim", "--in", str(pts), "--levels", "12",
                 "--window", "3,8", "--out", str(counts)]) == 0
    text = capsys.readouterr().out
    assert "slope:" in text
    slope = float(text.split("slope:")[1].split()[0])
    assert abs(slope - 0.6309) < 0.08


def test_cli_lipschitz(tmp_path, capsys):
    g = make_grid(1, 8, 1.0)
    prof = lipschitz_graph(from_callable(
        g, lambda x: 0.25 - np.abs(np.abs(x - 0.5) - 0.25)))
    path = tmp_path / "prof.flgf"
    save_lipschitz_graph(path, prof)
    assert main(["lipschitz", "corkscrew", "--profile", str(path),
                 "--x0", "0.25", "--t", "0.5"]) == 0
    assert "clearance" in capsys.readouterr().out
    assert main(["lipschitz", "inclusion", "--profile", str(path),
                 "--beta", "0.5", "--c", "1.0", "--samples", "2000"]) == 0
    assert main(["lipschitz", "surface", "--profile", str(path),
                 "--x0", "0.25", "--radius", "0.1"]) == 0


def test_cli_surrogate_dilated_composite(tmp_path, capsys):
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    src = tmp_path / "f.flgf"
    save_grid_function(src, f)
    field = tmp_path / "w.flhf"
    assert main(["extend", "--kind", "surrogate", "--heights", "0.25,8",
                 "--in", str(src), "--out", str(field),
                 "--alpha-L", "0.5", "--r", "1.5", "--J", "10"]) == 0
    assert "tail bound" in capsys.readouterr().out
    out = tmp_path / "d.flgf"
    assert main(["maxfn", "--op", "dilated", "--beta", "0.5", "--p", "2",
                 "--j", "1", "--in", str(field), "--out", str(out)]) == 0
    assert main(["maxfn", "--op", "composite", "--beta", "0.5", "--p", "2",
                 "--r", "1.5", "--in", str(src), "--out", str(out)]) == 0
    assert main(["maxfn", "--op", "fractional", "--s", "2", "--alpha", "0.5",
                 "--in", str(src), "--out", str(out)]) == 0


def test_cli_divset_and_boundary_max(tmp_path, capsys):
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    src = tmp_path / "f.flgf"
    save_grid_function(src, f)
    field = tmp_path / "u.flhf"
    assert main(["extend", "--kind", "poisson", "--heights", "1.0,10",
                 "--in", str(src), "--out", str(field)]) == 0
    pts = tmp_path / "div.csv"
    assert main(["fractal", "divset", "--in", str(field), "--ref", str(src),
                 "--beta", "1.0", "--eps", "0.01",
                 "--tmin", str(2.0 ** -10), "--out", str(pts)]) == 0
    assert "divergence points: 0" in capsys.readouterr().out
    prof = lipschitz_graph(from_callable(g, np.zeros_like))
    ppath = tmp_path / "prof.flgf"
    save_lipschitz_graph(ppath, prof)
    out = tmp_path / "btm.flgf"
    assert main(["lipschitz", "boundary-max", "--profile", str(ppath),
                 "--in", str(src), "--beta", "0.5", "--c", "1.0",
                 "--J", "8", "--out", str(out)]) == 0


def test_cli_verify_exit_codes(tmp_path):
    assert main(["verify", "--experiment", "poisson-exactness",
                 "--levels", "10",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert main(["verify"]) == 2


def test_cli_verify_from_config_file(tmp_path):
    cfg = validate(ExperimentConfig(experiment="boxdim-calibration",
                                    levels=(12,), window=(4, 9),
                                    output_dir=str(tmp_path / "rep")))
    path = tmp_path / "cfg.ini"
    path.write_text(serialize(cfg))
    assert main(["verify", "--config", str(path)]) == 0
    assert (tmp_path / "rep" / "boxdim-calibration.csv").exists()
    assert (tmp_path / "rep" / "boxdim-calibration.svg").exists()
    assert (tmp_path / "rep" / "boxdim-calibration.txt").exists()


_GRID_CSV_CASES = {
    "empty": "",
    "header-1-column": "value\n0\n1\n2\n3\n",
    "header-4-columns": "i,j,k,value\n0,0,0,1\n0,0,1,1\n0,1,0,1\n0,1,1,1\n",
    "short-row": "i,value\n0,1\n1\n2,1\n3,1\n",
    "non-numeric": "i,value\n0,1\n1,abc\n2,1\n3,1\n",
    "negative-index": "i,value\n-1,1\n1,1\n2,1\n3,1\n",
    "index-past-end": "i,value\n0,1\n1,1\n2,1\n4,1\n",
    "fractional-index": "i,value\n0,1\n1.5,1\n2,1\n3,1\n",
    "repeated-index": "i,value\n0,1\n0,1\n2,1\n3,1\n",
    "repeated-index-2d": "i,j,value\n" + "".join(
        f"{i},{min(j, 2)},1\n" for i in range(4) for j in range(4)),
}


@pytest.mark.parametrize("case", sorted(_GRID_CSV_CASES))
def test_cli_malformed_grid_csv_exits_2(tmp_path, capsys, case):
    src = tmp_path / "f.csv"
    src.write_text(_GRID_CSV_CASES[case])
    assert main(["potential", "smooth", "--in", str(src),
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


_POINTS_CSV_CASES = {
    "empty": ("1", ""),
    "header-2-columns-in-1d": ("1", "x0,x1\n0.1,0.2\n"),
    "short-row": ("2", "x0,x1\n0.1,0.2\n0.3\n"),
    "non-numeric": ("1", "x\n0.1\nhalf\n"),
}


@pytest.mark.parametrize("case", sorted(_POINTS_CSV_CASES))
def test_cli_malformed_points_csv_exits_2(tmp_path, capsys, case):
    dim, text = _POINTS_CSV_CASES[case]
    src = tmp_path / "pts.csv"
    src.write_text(text)
    assert main(["fractal", "boxdim", "--dim", dim, "--levels", "10",
                 "--window", "3,8", "--in", str(src)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["maxfn", "--op", "warp"])
    assert err.value.code == 2


def test_cli_entrypoint_subprocess(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "fatou_lab", "--version"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_cli_verify_determinism(tmp_path):
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for d in (d1, d2):
        assert main(["verify", "--experiment", "boxdim-calibration",
                     "--levels", "12", "--output-dir", d]) == 0
    for name in sorted(os.listdir(d1)):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()


def test_thread_env_does_not_change_results(tmp_path, monkeypatch):
    cfg = ExperimentConfig(experiment="commute-lemma", levels=(8,),
                           seeds=(0, 1, 2, 3))
    monkeypatch.setenv("FATOU_LAB_THREADS", "1")
    rows1 = run_experiment(cfg).rows
    monkeypatch.setenv("FATOU_LAB_THREADS", "4")
    rows2 = run_experiment(cfg).rows
    assert rows1 == rows2
