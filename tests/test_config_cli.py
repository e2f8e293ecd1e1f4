import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from fatou_lab import experiments, extension
from fatou_lab.cli import main
from fatou_lab.config import (EXPERIMENTS, ExperimentConfig, config_hash, load,
                              parse, reads, serialize, validate)
from fatou_lab.errors import ParameterError
from fatou_lab.experiments import _RUNNERS, acceptance_configs, run_experiment
from fatou_lab.grid import (from_callable, grid_function_from_csv, make_grid,
                            save_grid_function)
from fatou_lab.lipschitz import lipschitz_graph, save_lipschitz_graph
from fatou_lab.report import RunReport, emit_report


def test_config_round_trip():
    cfg = validate(ExperimentConfig(
        experiment="frostman-lemma", levels=(12,), alpha=0.25, p=2.0,
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
    # nagel-stein-bound does not read r
    with pytest.raises(ParameterError, match="'r'"):
        validate(ExperimentConfig(experiment="nagel-stein-bound", alpha=0.25,
                                  p=2.0, r=2.5))
    # j-uniformity is the runner that reads r, as the ball-mean power
    with pytest.raises(ParameterError, match="1 < r < p"):
        validate(ExperimentConfig(experiment="j-uniformity", alpha=0.25,
                                  p=2.0, r=2.5))
    # boundary-max reads p0, alpha_L and J through the annuli surrogate
    with pytest.raises(ParameterError, match="p0 = 0.5 must be >= 1"):
        validate(ExperimentConfig(experiment="boundary-max", p0=0.5))
    with pytest.raises(ParameterError, match="alpha_L = 2.0 must lie in"):
        validate(ExperimentConfig(experiment="boundary-max", alpha_L=2.0))
    with pytest.raises(ParameterError, match="alpha_L = 0.0 must lie in"):
        validate(ExperimentConfig(experiment="boundary-max", alpha_L=0.0))
    with pytest.raises(ParameterError, match="J = 0 must be >= 1"):
        validate(ExperimentConfig(experiment="boundary-max", J=0))
    validate(ExperimentConfig(experiment="boundary-max", p0=1.0, alpha_L=1.0, J=1))
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
    # a key under any other section would do nothing
    with pytest.raises(ParameterError, match="no other, got .*'extra'"):
        parse("[experiment]\nexperiment = poincare\n[extra]\nlevels = 12\n")


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(experiment="nagel-stein-bound", levels=(9, 6)),
    ExperimentConfig(experiment="poincare", levels=(12, 10)),
    ExperimentConfig(experiment="boundary-max", levels=(10, 10)),
], ids=["nagel-stein-9-6", "poincare-12-10", "boundary-max-repeated"])
def test_levels_must_be_strictly_ascending(cfg, capsys):
    # descending levels made nagel-stein report growth "from N=2^9 to
    # N=2^6" and cap the extended control by the last, not the largest,
    # level
    with pytest.raises(ParameterError, match="levels must be strictly "
                       "ascending, got \\[" + str(cfg.levels[0])):
        validate(cfg)
    levels = ",".join(map(str, cfg.levels))
    assert main(["verify", "--experiment", cfg.experiment,
                 "--levels", levels]) == 2
    assert "strictly ascending" in capsys.readouterr().err


def test_runner_names_match_config_names():
    assert set(_RUNNERS) == set(EXPERIMENTS)


def test_dim2_accepted_only_where_the_runner_honours_it():
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=name, dim=2)
        if name in ("commute-lemma", "poisson-exactness"):
            validate(cfg)
        else:
            with pytest.raises(ParameterError, match="does not read 'dim'"):
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
    assert "does not read 'dim'" in capsys.readouterr().err
    cfg = validate(ExperimentConfig(experiment="poisson-exactness", dim=2,
                                    levels=(6,),
                                    output_dir=str(tmp_path / "rep")))
    pe = tmp_path / "pe.ini"
    pe.write_text(serialize(cfg))
    assert main(["verify", "--config", str(pe)]) == 0
    assert "PASS  poisson eigenfunction exactness" in capsys.readouterr().out


# one valid config per runner: the acceptance battery plus dorronsoro-bound
_BASE = {cfg.experiment: cfg for cfg in acceptance_configs()}
_BASE["dorronsoro-bound"] = ExperimentConfig(experiment="dorronsoro-bound",
                                             levels=(8, 9), seeds=(0, 1))
# a valid value other than the default, per settable key
_OTHER = {"dim": 2, "levels": (8,), "extent": 2.0, "p": 3.0, "alpha": 0.2,
          "beta": 0.7, "beta_prime": (0.9,), "aperture": 2.0, "c": 2.0,
          "alpha_L": 0.25, "r": 1.2, "p0": 1.2, "J": 5, "s_values": (0.8,),
          "depths": (4,), "eps": 0.05, "window": (3, 8), "m_values": (1.0,),
          "seeds": (1,)}
_UNREAD = [(name, key) for name in EXPERIMENTS for key in _OTHER
           if key not in reads(name)]
_COUNTED = [(name, key, most) for name in EXPERIMENTS
            for key, most in reads(name).items() if most is not None]


def test_settable_keys_are_the_config_fields():
    defaults = {f.name: f.default for f in fields(ExperimentConfig)
                if f.name not in ("experiment", "output_dir")}
    assert set(_OTHER) == set(defaults)
    assert all(_OTHER[key] != defaults[key] for key in defaults)
    assert sorted(_BASE) == sorted(EXPERIMENTS)
    assert sorted(c.experiment for c in _SMALL) == sorted(EXPERIMENTS)
    for cfg in _BASE.values():
        validate(cfg)
    # 13 runners x 19 keys, less the 73 (runner, key) pairs that are read
    assert len(_UNREAD) == 13 * 19 - 73


@pytest.mark.parametrize("name, key", _UNREAD, ids="-".join)
def test_unread_key_must_keep_its_default(name, key):
    cfg = replace(_BASE[name], **{key: _OTHER[key]})
    with pytest.raises(ParameterError, match=f"{name} does not read '{key}'"):
        validate(cfg)


@pytest.mark.parametrize("name, key, most", _COUNTED,
                         ids=[f"{n}-{k}" for n, k, _ in _COUNTED])
def test_runner_rejects_entries_it_does_not_use(name, key, most):
    cfg = _BASE[name]
    more = tuple(range(10, 11 + most))  # most + 1 levels or seeds
    validate(replace(cfg, **{key: more[:most]}))
    with pytest.raises(ParameterError,
                       match=f"{name} reads at most {most} of '{key}'"):
        validate(replace(cfg, **{key: more}))


@pytest.mark.parametrize("lines, keys", [
    ("experiment = corkscrew-geometry\nm_values = 1\nseeds = 0,1,2\n",
     ["seeds"]),
    ("experiment = corkscrew-geometry\nm_values = 1\nlevels = 6,8\n",
     ["levels"]),
    ("experiment = poincare\nalpha = -1\n", ["alpha"]),
    ("experiment = nagel-stein-bound\nr = 5\n", ["r"]),
    ("experiment = kernel-identities\nm_values = 3\nlevels = 20\n",
     ["levels", "m_values"]),
], ids=["corkscrew-seeds", "corkscrew-levels", "poincare-alpha",
        "nagel-stein-r", "kernel-identities"])
def test_cli_verify_rejects_keys_the_runner_ignores(tmp_path, capsys, lines,
                                                    keys):
    path = tmp_path / "probe.ini"
    path.write_text("[experiment]\n" + lines)
    assert main(["verify", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for key in keys:
        assert f"'{key}'" in err
    assert not (tmp_path / "out").exists()


def _fields_read(cfg: ExperimentConfig, monkeypatch) -> set:
    """The config fields the runner of cfg reads, derived values included."""
    seen = set()
    names = {f.name for f in fields(cfg)}

    class Recording(ExperimentConfig):
        def __getattribute__(self, attr):
            if attr in names:
                seen.add(attr)
            return super().__getattribute__(attr)

    # the report header (hash and seeds) reads every field; leave it out
    monkeypatch.setattr(experiments, "_new_report", lambda cfg: RunReport(
        experiment="", config_hash="", seeds=(), version=""))
    _RUNNERS[cfg.experiment](Recording(**{n: getattr(cfg, n) for n in names}))
    return seen


_SMALL = [
    ExperimentConfig(experiment="kernel-identities"),
    ExperimentConfig(experiment="poisson-exactness", levels=(6,)),
    ExperimentConfig(experiment="commute-lemma", levels=(6,), seeds=(0, 1)),
    ExperimentConfig(experiment="poincare", levels=(6, 7), s_values=(0.3,)),
    ExperimentConfig(experiment="nagel-stein-bound", levels=(6, 7)),
    ExperimentConfig(experiment="dorronsoro-bound", levels=(6, 7)),
    # beta' = beta takes the limiting branch, 0.75 the box-counting one
    ExperimentConfig(experiment="divergence-dimension", levels=(7, 9),
                     beta_prime=(0.5, 0.75), window=(3, 7)),
    ExperimentConfig(experiment="frostman-lemma", levels=(8,),
                     s_values=(0.75,), depths=(6,)),
    ExperimentConfig(experiment="corkscrew-geometry", levels=(8,),
                     m_values=(1.0,)),
    ExperimentConfig(experiment="inclusion-lemma", levels=(8,)),
    ExperimentConfig(experiment="boundary-max", levels=(6, 7)),
    ExperimentConfig(experiment="j-uniformity", levels=(7,)),
    ExperimentConfig(experiment="boxdim-calibration", levels=(10,),
                     window=(3, 8)),
]


@pytest.mark.parametrize("cfg", _SMALL, ids=lambda c: c.experiment)
def test_reads_table_names_the_fields_each_runner_reads(cfg, monkeypatch):
    read = _fields_read(validate(cfg), monkeypatch)
    # dim is listed only where the runner honours dim = 2; the 1-D runners
    # read it, pinned at 1, as the n of beta = 1 - alpha p / n
    assert read - {"dim"} == set(reads(cfg.experiment)) - {"dim"}
    if "dim" in reads(cfg.experiment):
        assert "dim" in read


def test_schema_lists_every_config_key():
    schema = os.path.join(os.path.dirname(__file__), "..", "config-schema.ini")
    with open(schema) as fh:
        table = fh.read().split("# ---")[1].split("# Example")[0]
    assert re.findall(r"^# (\w+) ", table, re.M) == [
        f.name for f in fields(ExperimentConfig)]


@pytest.mark.parametrize("line", ["levles = 12", "t_min = 0.0625"])
def test_config_rejects_unknown_keys(tmp_path, capsys, line):
    key = line.split()[0]
    with pytest.raises(ParameterError, match=f"'{key}'"):
        parse(f"[experiment]\nexperiment = poincare\n{line}\n")
    path = tmp_path / "typo.ini"
    path.write_text(f"[experiment]\nexperiment = poincare\n{line}\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


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


def test_divergence_dimension_runs_at_an_extent_off_the_ladder():
    # t_min is a rung of the unit ladder the divergence set scans, so an
    # extent that is not a power of two runs to the end
    cfg = validate(ExperimentConfig(
        experiment="divergence-dimension", levels=(7, 9),
        beta_prime=(0.5, 0.75), window=(3, 7), extent=3.0))
    rep = run_experiment(cfg)
    assert rep.criteria
    assert any(q.startswith("slope_bp") for _, _, q, _ in rep.rows)


def test_cli_kernel_table(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("r\n0.5\n1.0\n")
    out = tmp_path / "table.csv"
    code = main(["kernel-table", "bessel", "--n", "1", "--alpha",
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
    args = ["kernel-table", "bessel", "--n", "1", "--alpha", "2.0",
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
    assert main(["extend", "poisson", "--heights", "1.0,10",
                 "--in", str(src), "--out", str(field)]) == 0
    out = tmp_path / "nt.csv"
    assert main(["maxfn", "tangential", "--beta", "0.5",
                 "--in", str(field), "--out", str(out)]) == 0
    nt = grid_function_from_csv(out, 1.0)
    assert nt.samples.max() <= 1.0 + 1e-9
    assert nt.samples.min() > 0.5


def test_dorronsoro_bound_band_passes():
    # the one runner that calls sharp_maximal; the battery does not run it
    rep = run_experiment(validate(ExperimentConfig(
        experiment="dorronsoro-bound", levels=(8, 9, 10), seeds=(0, 1, 2))))
    assert [c.passed for c in rep.criteria] == [True], rep.criteria


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
    assert main(["potential", "seminorm", "--sigma", "0.5", "--p", "nan",
                 "--in", str(src)]) == 2
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


@pytest.mark.parametrize("flag, value", [
    ("--beta", "0"), ("--beta", "-0.5"), ("--beta", "1.5"), ("--beta", "nan"),
    ("--c", "0"), ("--c", "-1"), ("--c", "nan"), ("--c", "inf"),
])
def test_cli_inclusion_rejects_bad_beta_and_c(tmp_path, capsys, flag, value):
    path = tmp_path / "prof.flgf"
    save_lipschitz_graph(path, lipschitz_graph(from_callable(
        make_grid(1, 8, 1.0), np.zeros_like)))
    assert main(["lipschitz", "inclusion", "--profile", str(path),
                 "--samples", "2000", flag, value]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_inclusion_shortfall_exits_1(tmp_path, capsys):
    # at a lift of 1e20 the sampled gaps round away (t == phi), so no
    # sample is a member and nothing is checked
    path = tmp_path / "prof.flgf"
    save_lipschitz_graph(path, lipschitz_graph(from_callable(
        make_grid(1, 8, 1.0), lambda x: np.full_like(x, 1e20))))
    assert main(["lipschitz", "inclusion", "--profile", str(path),
                 "--samples", "50"]) == 1
    out = capsys.readouterr()
    assert out.out == "checked 0, violations 0\n"
    assert "0 of 50" in out.err


def test_cli_surrogate_dilated_composite(tmp_path, capsys):
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    src = tmp_path / "f.flgf"
    save_grid_function(src, f)
    field = tmp_path / "w.flhf"
    assert main(["extend", "surrogate", "--heights", "0.25,8",
                 "--in", str(src), "--out", str(field),
                 "--alpha-L", "0.5", "--r", "1.5", "--J", "10"]) == 0
    assert "tail bound" in capsys.readouterr().out
    out = tmp_path / "d.flgf"
    assert main(["maxfn", "dilated", "--beta", "0.5", "--p", "2",
                 "--j", "1", "--in", str(field), "--out", str(out)]) == 0
    assert main(["maxfn", "composite", "--beta", "0.5", "--p", "2",
                 "--r", "1.5", "--in", str(src), "--out", str(out)]) == 0


def test_cli_divset_and_boundary_max(tmp_path, capsys):
    g = make_grid(1, 8, 1.0)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    src = tmp_path / "f.flgf"
    save_grid_function(src, f)
    pts = tmp_path / "div.csv"
    assert main(["fractal", "divset", "--in", str(src),
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


def _cosine_field(tmp_path):
    """(grid function path, Poisson field path) of cos(2 pi x) at level 8."""
    src = tmp_path / "f.flgf"
    save_grid_function(src, from_callable(make_grid(1, 8, 1.0),
                                          lambda x: np.cos(2 * np.pi * x)))
    field = tmp_path / "u.flhf"
    assert main(["extend", "poisson", "--heights", "1.0,10",
                 "--in", str(src), "--out", str(field)]) == 0
    return src, field


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_region_parameters_exit_2(tmp_path, capsys, value):
    src, field = _cosine_field(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["maxfn", "tangential", "--in", str(field),
                 "--out", str(out), "--aperture", value]) == 2
    assert main(["fractal", "divset", "--in", str(src),
                 "--out", str(out), "--aperture", value]) == 2
    assert capsys.readouterr().err.count(
        f"error: aperture must be positive and finite, got {value}") == 2
    ppath = tmp_path / "prof.flgf"
    save_lipschitz_graph(ppath, lipschitz_graph(from_callable(
        make_grid(1, 8, 1.0), np.zeros_like)))
    assert main(["lipschitz", "boundary-max", "--profile", str(ppath),
                 "--in", str(src), "--out", str(out), "--c", value]) == 2
    assert capsys.readouterr().err == (
        f"error: c must be finite and positive, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("t_max, message", [
    ("1e-9", "fewer than 2 field heights at or below t_max=1e-09"),
    ("-1", "t_max must be positive, got -1.0"),
    ("nan", "t_max must be positive, got nan"),
])
def test_cli_uncovered_region_exits_2(tmp_path, capsys, t_max, message):
    _, field = _cosine_field(tmp_path)
    assert main(["maxfn", "tangential", "--in", str(field),
                 "--out", str(tmp_path / "nt.csv"), f"--t-max={t_max}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    # the remedy is a larger t_max or lower heights; aperture plays no part
    assert "t_max" in err and "aperture" not in err


def test_cli_coverage_error_prints_no_traceback(tmp_path):
    _, field = _cosine_field(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "fatou_lab", "maxfn", "tangential",
         "--in", str(field), "--out", str(tmp_path / "nt.csv"),
         "--t-max", "1e-9"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: fewer than 2 field heights")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", ["poisson", "surrogate"])
@pytest.mark.parametrize("heights, message", [
    ("nan,5", "positive and finite"), ("0,5", "strictly decreasing")])
def test_cli_extend_checks_heights_first(tmp_path, capsys, monkeypatch, kind,
                                         heights, message):
    def no_ball_mean(*args):
        raise AssertionError("ball mean computed before the height check")

    monkeypatch.setattr(extension, "ball_mean_all_centers", no_ball_mean)
    src = tmp_path / "f.flgf"
    save_grid_function(src, from_callable(make_grid(1, 6, 1.0), np.cos))
    out = tmp_path / "w.flhf"
    assert main(["extend", kind, "--heights", heights,
                 "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: heights must be {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("heights, message", [
    ("1,-1", "height count must be >= 0, got -1"),
    ("1,2000000", "heights must be positive, but 1.0 * 2^-2000000 rounds to 0"),
    ("1e300,1100", "heights must be positive, but 1e+300 * 2^-1100 rounds"),
    ("1," + "9" * 400, "heights must be positive, but 1.0 * 2^-999"),
], ids=["negative-count", "underflow", "underflow-large-t0", "huge-count"])
def test_cli_extend_rejects_a_ladder_before_building_it(tmp_path, capsys,
                                                        heights, message):
    # K = 2e6 once built all K + 1 rungs (92 MiB, 6.4 s) before a check
    # that read "not strictly decreasing", as the rungs had underflowed to
    # 0; the check that replaces it must not overflow at a huge K either
    src = tmp_path / "f.flgf"
    save_grid_function(src, from_callable(make_grid(1, 6, 1.0), np.cos))
    out = tmp_path / "u.flhf"
    assert main(["extend", "poisson", "--heights", heights,
                 "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


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
        main(["maxfn", "warp"])
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


_MULTI_SEED_CONFIGS = [
    ExperimentConfig(experiment="poincare", levels=(8, 9), seeds=(0, 1, 2)),
    ExperimentConfig(experiment="nagel-stein-bound", levels=(8, 9),
                     seeds=(0, 1, 2)),
    ExperimentConfig(experiment="frostman-lemma", levels=(9,), s_values=(0.75,),
                     depths=(8,), seeds=(0, 1, 2)),
    ExperimentConfig(experiment="boundary-max", levels=(8, 9), seeds=(0, 1, 2)),
    ExperimentConfig(experiment="dorronsoro-bound", levels=(8, 9),
                     seeds=(0, 1, 2)),
    ExperimentConfig(experiment="j-uniformity", levels=(9,), seeds=(0, 1, 2)),
]


@pytest.mark.parametrize("cfg", _MULTI_SEED_CONFIGS, ids=lambda c: c.experiment)
def test_thread_count_does_not_change_reports(tmp_path, cfg):
    # the runners loop over seeds serially, so two runs give the same bytes
    outputs = []
    for run in ("1", "2"):
        out = tmp_path / run
        rep = run_experiment(validate(cfg))
        for fmt in ("csv", "svg", "text"):
            emit_report(rep, fmt, str(out))
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(experiment="nagel-stein-bound", levels=(8, 9),
                     seeds=(0, 1)),
    ExperimentConfig(experiment="dorronsoro-bound", levels=(8, 9),
                     seeds=(0, 1)),
    ExperimentConfig(experiment="divergence-dimension", levels=(7, 9),
                     beta_prime=(0.5, 0.75), window=(3, 7)),
], ids=lambda cfg: cfg.experiment)
def test_poisson_runners_never_build_the_poisson_field(monkeypatch, cfg):
    import fatou_lab

    def refuse(*args, **kwargs):
        raise AssertionError("poisson_extend called")

    for name, mod in list(sys.modules.items()):
        if name.startswith("fatou_lab") and hasattr(mod, "poisson_extend"):
            monkeypatch.setattr(mod, "poisson_extend", refuse)
    assert fatou_lab.extension.poisson_extend is refuse
    assert run_experiment(validate(cfg)).rows


@pytest.mark.parametrize("text", ["r\n", ""])
def test_cli_kernel_table_without_radii_exits_2(tmp_path, capsys, text):
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    out = tmp_path / "table.csv"
    assert main(["kernel-table", "bessel", "--n", "1", "--alpha",
                 "2.0", "--points", str(pts), "--out", str(out)]) == 2
    assert "no radii" in capsys.readouterr().err
    assert not out.exists()
