import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from fatou_lab import cli, experiments, extension
from fatou_lab.cli import main
from fatou_lab.config import (EXPERIMENTS, ExperimentConfig, config_hash, load,
                              parse, reads, serialize, validate)
from fatou_lab.errors import ParameterError
from fatou_lab.experiments import _RUNNERS, acceptance_configs, run_experiment
from fatou_lab.extension import annuli_surrogate, dyadic_heights, poisson_extend
from fatou_lab.grid import GridFunction, from_callable, make_grid
from fatou_lab.lipschitz import lipschitz_graph
from fatou_lab.maximal import ApproachRegionSpec, tangential_max
from fatou_lab.report import RunReport, emit_report


def test_config_round_trip():
    cfg = validate(ExperimentConfig(
        experiment="frostman-lemma", levels=(12,), alpha=0.25, p=2.0,
        seeds=(0, 1, 2), output_dir="some/dir"))
    text = serialize(cfg)
    assert parse(text) == cfg
    assert config_hash(cfg) == config_hash(parse(text))
    # the fields and nothing else: extent and aperture are constants
    assert [line.split(" = ")[0] for line in text.splitlines()[1:] if line] \
        == [f.name for f in fields(ExperimentConfig)]


def test_config_validation_messages():
    with pytest.raises(ParameterError, match="unknown experiment"):
        validate(ExperimentConfig(experiment="warp-drive"))
    with pytest.raises(ParameterError, match="alpha p <= n"):
        validate(ExperimentConfig(experiment="nagel-stein-bound", alpha=0.75,
                                  p=2.0))
    # at alpha p = n the derived region order 1 - alpha p / n is 0
    with pytest.raises(ParameterError, match="positive; got beta = 0.0"):
        validate(ExperimentConfig(experiment="frostman-lemma", alpha=0.5,
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
_OTHER = {"dim": 2, "levels": (8,), "p": 3.0, "alpha": 0.2, "c": 2.0,
          "seeds": (1,)}
_UNREAD = [(name, key) for name in EXPERIMENTS for key in _OTHER
           if key not in reads(name)]
# keys the config no longer has, each with a value it once took: the
# runners pin or derive them (boundary-max's annuli surrogate, the orders
# and threshold of divergence-dimension, the Cantor depths, the corkscrew
# slopes, the ball-mean power of j-uniformity; the torus extent, the
# region aperture and order, the Frostman dimensions and the box-counting
# scales)
_REMOVED = {"beta_prime": "0.5,1.0", "alpha_L": "0.25", "r": "1.2",
            "p0": "1.2", "J": "5", "depths": "4", "eps": "0.05",
            "m_values": "1.0", "extent": "2.0", "beta": "0.7",
            "aperture": "2.0", "s_values": "0.8", "window": "3,8"}
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
    # 13 runners x 6 keys, less the 40 (runner, key) pairs that are read
    assert len(_UNREAD) == 13 * 6 - 40
    assert not set(_REMOVED) & {f.name for f in fields(ExperimentConfig)}


_UNREAD_OR_REMOVED = _UNREAD + [(n, k) for n in EXPERIMENTS
                                 for k in _REMOVED]


@pytest.mark.parametrize("name, key", _UNREAD_OR_REMOVED,
                         ids=[f"{n}-{k}" for n, k in _UNREAD_OR_REMOVED])
def test_unread_key_must_keep_its_default(name, key):
    if key in _REMOVED:
        # no runner reads a removed key: every experiment refuses it
        with pytest.raises(ParameterError,
                           match=f"unknown config key\\(s\\) '{key}'$"):
            parse(serialize(_BASE[name]) + f"{key} = {_REMOVED[key]}\n")
        return
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
    ("experiment = corkscrew-geometry\nseeds = 0,1,2\n", ["seeds"]),
    ("experiment = corkscrew-geometry\nlevels = 6,8\n", ["levels"]),
    ("experiment = poincare\nalpha = -1\n", ["alpha"]),
    ("experiment = nagel-stein-bound\nr = 5\n", ["r"]),
    ("experiment = kernel-identities\np = 3\nlevels = 20\n",
     ["levels", "p"]),
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
    ExperimentConfig(experiment="poincare", levels=(6, 7)),
    ExperimentConfig(experiment="nagel-stein-bound", levels=(6, 7)),
    ExperimentConfig(experiment="dorronsoro-bound", levels=(6, 7)),
    # beta' = beta takes the limiting branch, 0.75 and 1 the box-counting one
    ExperimentConfig(experiment="divergence-dimension", levels=(7, 10)),
    ExperimentConfig(experiment="frostman-lemma", levels=(8,)),
    ExperimentConfig(experiment="corkscrew-geometry", levels=(8,)),
    ExperimentConfig(experiment="inclusion-lemma", levels=(8,)),
    ExperimentConfig(experiment="boundary-max", levels=(6, 7)),
    ExperimentConfig(experiment="j-uniformity", levels=(7,)),
    ExperimentConfig(experiment="boxdim-calibration", levels=(10,)),
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
    cfg = ExperimentConfig(experiment="boxdim-calibration", levels=(12,))
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
    cfg = ExperimentConfig(experiment="boxdim-calibration", levels=(12,))
    rep = run_experiment(cfg)
    path = emit_report(rep, "svg", str(tmp_path))[0]
    body = open(path).read()
    assert f"fitted slope {rep.stats['fit_slope']:.4g}" in body


def test_divergence_limiting_case_note():
    cfg = ExperimentConfig(experiment="divergence-dimension", levels=(8, 10),
                           alpha=0.25, p=2.0, seeds=(0,))
    rep = run_experiment(cfg)
    assert any("limiting case covered by maximal bound" in n
               for n in rep.notes)


def test_divergence_dimension_runs_at_an_extent_off_the_ladder(monkeypatch):
    # the height cap is a rung of the unit ladder the divergence set
    # scans, so an extent that is not a power of two runs to the end; the
    # extent is a constant of the config, so the runner is handed another
    monkeypatch.setattr(ExperimentConfig, "extent", 3.0)
    cfg = validate(ExperimentConfig(experiment="divergence-dimension",
                                    levels=(7, 10)))
    rep = run_experiment(cfg)
    assert rep.criteria
    assert any(q.startswith("slope_bp") for _, _, q, _ in rep.rows)


def test_dorronsoro_bound_band_passes():
    # the one runner that calls sharp_maximal; the battery does not run it
    rep = run_experiment(validate(ExperimentConfig(
        experiment="dorronsoro-bound", levels=(8, 9, 10), seeds=(0, 1, 2))))
    assert [c.passed for c in rep.criteria] == [True], rep.criteria


def _verify(tmp_path, text: str) -> list:
    """verify's argv for the INI config text, reports under tmp_path/out."""
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return ["verify", "--config", str(path), "--output-dir",
            str(tmp_path / "out")]


def _rows(path) -> dict:
    """{quantity: [values]} of a CSV report."""
    out = {}
    for line in path.read_text().splitlines()[1:]:
        quantity, value = line.split(",")[2:]
        out.setdefault(quantity, []).append(float(value))
    return out


# One small verify run of the runner that reaches each library route:
# kernel tables, the Poisson and surrogate extensions, the maximal
# operators, potentials, fractals, Lipschitz geometry.


def test_verify_kernel_identities_rows(tmp_path, capsys):
    assert main(["verify", "--experiment", "kernel-identities",
                 "--output-dir", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "kernel-identities.csv")
    l1 = [v for q, vs in rows.items() if q.startswith("l1_err_") for v in vs]
    ratios = [v for q, vs in rows.items() if q.startswith("origin_ratio_")
              for v in vs]
    assert len(l1) == 8 and max(l1) <= 1e-4
    assert ratios and all(0.9 <= v <= 1.0 for v in ratios)


def test_verify_rejects_a_non_numeric_list_entry(tmp_path, capsys):
    # a mistyped entry of a list key is an error naming key and entry
    args = _verify(tmp_path, "[experiment]\nexperiment = poisson-exactness\n"
                             "levels = 1.O\n")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "'levels'" in err and "'1.O'" in err
    assert not (tmp_path / "out").exists()
    (tmp_path / "cfg.ini").write_text("[experiment]\nexperiment = "
                                      "poisson-exactness\nlevels = 8\n")
    assert main(args) == 0
    assert capsys.readouterr().out.startswith(
        "PASS  poisson eigenfunction exactness")


@pytest.mark.parametrize("text", ["r\n", ""])
def test_verify_config_without_its_section_exits_2(tmp_path, capsys, text):
    # a config without its [experiment] section
    assert main(_verify(tmp_path, text)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "section" in err
    assert not (tmp_path / "out").exists()


def test_verify_dorronsoro_bound_rows(tmp_path, capsys):
    # Poisson extension swept by the tangential maximal operator
    assert main(_verify(tmp_path, "[experiment]\nexperiment = "
                                  "dorronsoro-bound\nlevels = 6,7\n")) == 0
    ratios = _rows(tmp_path / "out" / "dorronsoro-bound.csv")["ratio"]
    assert len(ratios) == 2 and all(v > 0 for v in ratios)


def test_verify_frostman_lemma_and_boxdim_calibration_pass(tmp_path,
                                                           capsys):
    assert main(_verify(tmp_path, "[experiment]\nexperiment = frostman-lemma\n"
                                  "levels = 10\nseeds = 0,1\n")) == 0
    assert main(_verify(tmp_path, "[experiment]\nexperiment = "
                                  "boxdim-calibration\nlevels = 12\n")) == 0
    slope = _rows(tmp_path / "out" / "boxdim-calibration.csv")["slope_cantor"]
    assert abs(slope[0] - 0.6309) < 0.05
    assert capsys.readouterr().out.count("PASS  ") == 2


def test_verify_lipschitz_runners_pass(tmp_path, capsys):
    for text in ("experiment = corkscrew-geometry\nlevels = 8\n",
                 "experiment = inclusion-lemma\nlevels = 6\n",
                 "experiment = boundary-max\nlevels = 6,7\nseeds = 0,1\n"):
        assert main(_verify(tmp_path, "[experiment]\n" + text)) == 0, text
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS  ") == 4


@pytest.mark.parametrize("key, value", [
    ("beta", "0"), ("beta", "-0.5"), ("beta", "1.5"), ("beta", "nan"),
    ("c", "0"), ("c", "-1"), ("c", "nan"), ("c", "inf"),
])
def test_verify_inclusion_lemma_rejects_beta_and_bad_c(tmp_path, capsys, key,
                                                       value):
    assert main(_verify(tmp_path, "[experiment]\nexperiment = inclusion-lemma"
                                  f"\nlevels = 6\n{key} = {value}\n")) == 2
    # beta is derived from alpha and p, so any value of it is refused
    assert capsys.readouterr().err.startswith(
        "error: unknown config key(s) 'beta'" if key == "beta"
        else "error: c")
    assert not (tmp_path / "out").exists()


def test_cli_inclusion_shortfall_exits_1(tmp_path, capsys, monkeypatch):
    # at a lift of 1e20 the sampled gaps round away (t == phi), so no
    # sample is a member, nothing is checked, and the criterion fails
    check = experiments.region_inclusion_check

    def lifted(graph, beta, c, samples, **kw):
        phi = graph.phi
        return check(lipschitz_graph(GridFunction(phi.grid, phi.samples + 1e20)),
                     beta, c, 50, **kw)

    monkeypatch.setattr(experiments, "region_inclusion_check", lifted)
    assert main(["verify", "--experiment", "inclusion-lemma", "--levels", "6",
                 "--output-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert ("FAIL  domain regions flatten into widened half-space regions: "
            "0 violations over 0 sampled points, 10 profiles\n") in out


def test_verify_j_uniformity_passes(tmp_path, capsys):
    # annuli surrogate swept by the dilated mitigated maximal operator
    assert main(_verify(tmp_path, "[experiment]\nexperiment = j-uniformity\n"
                                  "levels = 8\nseeds = 0,1\n")) == 0
    assert "PASS  " in capsys.readouterr().out


def test_verify_divergence_dimension_and_boundary_max_rows(tmp_path,
                                                           capsys):
    assert main(_verify(tmp_path, "[experiment]\nexperiment = "
                                  "divergence-dimension\nlevels = 8,11\n")) == 0
    rows = _rows(tmp_path / "out" / "divergence-dimension.csv")
    assert any(q.startswith("slope_bp") for q in rows)
    assert main(_verify(tmp_path, "[experiment]\nexperiment = boundary-max\n"
                                  "levels = 6,7\nc = 1.0\n")) == 0
    assert len(_rows(tmp_path / "out" / "boundary-max.csv")["ratio"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_region_parameters_exit_2(tmp_path, capsys, value):
    # the aperture is a constant, so any value of it is refused
    for name in ("nagel-stein-bound", "dorronsoro-bound"):
        assert main(_verify(tmp_path, f"[experiment]\nexperiment = {name}\n"
                                      f"levels = 6\naperture = {value}\n")) == 2
    assert capsys.readouterr().err.count(
        "error: unknown config key(s) 'aperture'") == 2
    assert main(_verify(tmp_path, "[experiment]\nexperiment = boundary-max\n"
                                  f"levels = 6\nc = {value}\n")) == 2
    assert capsys.readouterr().err == (
        f"error: c must be finite and positive, got {value}\n")
    assert not list(tmp_path.glob("out/*"))


# configs that once ran into a library error mid-run (after the output
# directory was made, with a message that did not name the key), a
# traceback (exit 1) or a FAIL line (exit 1): key, experiment, INI lines.
# J, eps, p0, depths, m_values, extent, aperture, window and s_values have
# left the config, so their cases now stop as unknown keys
_OUT_OF_DOMAIN = {
    "seeds-negative": ("seeds", "poincare", "seeds = -1"),
    "seeds-2^112": ("seeds", "poincare", f"seeds = {2 ** 112}"),
    "J-2000": ("J", "boundary-max", "J = 2000"),
    "J-1023": ("J", "boundary-max", "J = 1023"),
    "eps-nan": ("eps", "divergence-dimension", "eps = nan"),
    "eps-inf": ("eps", "divergence-dimension", "eps = inf"),
    "eps-negative": ("eps", "divergence-dimension", "eps = -1"),
    "eps-zero": ("eps", "divergence-dimension", "eps = 0"),
    "poincare-s-inf": ("s_values", "poincare", "s_values = 0.3,inf"),
    "poincare-s-nan": ("s_values", "poincare", "s_values = nan"),
    "extent-inf": ("extent", "poincare", "extent = inf"),
    "frostman-extent-0.5": ("extent", "frostman-lemma", "extent = 0.5"),
    "aperture-zero": ("aperture", "nagel-stein-bound", "aperture = 0"),
    "aperture-negative": ("aperture", "dorronsoro-bound", "aperture = -1"),
    "aperture-inf": ("aperture", "nagel-stein-bound", "aperture = inf"),
    "aperture-nan": ("aperture", "divergence-dimension", "aperture = nan"),
    "p0-inf": ("p0", "boundary-max", "p0 = inf"),
    "depths-zero": ("depths", "frostman-lemma", "depths = 0"),
    "depths-25": ("depths", "frostman-lemma", "depths = 6,25"),
    "window-boxdim-0": ("window", "boxdim-calibration", "window = 0,6"),
    "window-divergence-0": ("window", "divergence-dimension", "window = 0,6"),
    "frostman-s-1.5": ("s_values", "frostman-lemma", "s_values = 0.75,1.5"),
    "m_values-inf": ("m_values", "corkscrew-geometry", "m_values = inf"),
    "m_values-nan": ("m_values", "corkscrew-geometry", "m_values = 1,nan"),
    "m_values-negative": ("m_values", "corkscrew-geometry", "m_values = -1"),
    # the box-counting runners fit scales down to 2^-10
    "levels-boxdim-9": ("levels", "boxdim-calibration", "levels = 9"),
    "levels-divergence-9": ("levels", "divergence-dimension", "levels = 7,9"),
    # dorronsoro-bound's dyadic scales in [4h, extent/4] start at N = 2^4
    "levels-dorronsoro-3": ("levels", "dorronsoro-bound", "levels = 3"),
    # j-uniformity's dilations up to j = 8 scan a height only while
    # levels + 2 > 8 beta / (1 - beta): levels >= 7 at alpha = 0.25, and
    # no level at alpha = 0.1
    "levels-j-uniformity-6": ("levels", "j-uniformity", "levels = 6"),
    "alpha-j-uniformity-0.1": ("alpha", "j-uniformity", "alpha = 0.1"),
}

# the rest of a runnable config of each experiment above
_RUNNABLE = {
    "poincare": ("levels = 6",),
    "boundary-max": ("levels = 6",),
    "divergence-dimension": ("levels = 8,10",),
    "nagel-stein-bound": ("levels = 6",),
    "dorronsoro-bound": ("levels = 6",),
    "frostman-lemma": ("levels = 8",),
    "boxdim-calibration": ("levels = 10",),
    "corkscrew-geometry": ("levels = 6",),
    "j-uniformity": ("levels = 8",),
}


def test_runnable_rests_validate():
    for name, rest in _RUNNABLE.items():
        parse("\n".join(["[experiment]", f"experiment = {name}", *rest]))


@pytest.mark.parametrize("case", sorted(_OUT_OF_DOMAIN))
def test_config_outside_the_schema_exits_2_naming_the_key(tmp_path, capsys,
                                                          case):
    key, name, line = _OUT_OF_DOMAIN[case]
    # the case's line replaces the same key of the runnable rest
    rest = [r for r in _RUNNABLE[name] if not r.startswith(f"{key} =")]
    out = tmp_path / "out"
    path = tmp_path / "cfg.ini"
    path.write_text("\n".join(["[experiment]", f"experiment = {name}", *rest,
                               line, f"output_dir = {out}", ""]))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(rf"\b{key}\b", err), err
    assert not out.exists()


def test_every_experiment_validates_from_its_name():
    # the probe values the runners pin or derive need no config
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=name)
        assert validate(cfg) is cfg


def test_frostman_lemma_verifies_from_its_name(tmp_path, capsys):
    # its measure dimensions are derived from n - alpha p
    assert main(["verify", "--experiment", "frostman-lemma",
                 "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(
        "PASS  smoothed density integrable against fractional measures: "
        "s=0.6: band ")


@pytest.mark.parametrize("key", sorted(_REMOVED))
def test_removed_key_exits_2_naming_it(tmp_path, capsys, key):
    # each experiment that read the key once now runs from its name alone
    name = {"alpha_L": "boundary-max", "p0": "boundary-max",
            "J": "boundary-max", "r": "j-uniformity",
            "beta_prime": "divergence-dimension",
            "eps": "divergence-dimension", "depths": "frostman-lemma",
            "m_values": "corkscrew-geometry", "extent": "poincare",
            "beta": "inclusion-lemma", "aperture": "nagel-stein-bound",
            "s_values": "frostman-lemma",
            "window": "boxdim-calibration"}[key]
    assert main(_verify(tmp_path, "\n".join([
        "[experiment]", f"experiment = {name}", "levels = 6",
        f"{key} = {_REMOVED[key]}", ""]))) == 2
    assert capsys.readouterr().err == (
        f"error: unknown config key(s) '{key}'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["levels = 6,,8", "seeds = 1,",
                                  "levels = ,6", "seeds = ,"])
def test_list_with_an_empty_entry_exits_2(tmp_path, capsys, line):
    # an empty entry is an error, not a shorter list
    key = line.split()[0]
    assert main(_verify(tmp_path, "[experiment]\nexperiment = poincare\n"
                                  f"{line}\n")) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config key '{key}': empty entry in ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("default", ["[DEFAULT]\nlevels = 6\n", "[DEFAULT]\n"],
                         ids=["with-a-key", "empty"])
def test_default_section_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                           default):
    # configparser merges a [DEFAULT] section into every other section
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.ini"
    path.write_text(default + "[experiment]\nexperiment = poincare\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: config must contain one [experiment] section and no other, "
        "got ['DEFAULT', 'experiment']\n")
    assert os.listdir(tmp_path) == ["cfg.ini"]


def test_verify_empty_output_dir_exits_2(tmp_path, capsys, monkeypatch):
    # an empty --output-dir is a path that cannot be made, not "unset"
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--experiment", "poisson-exactness",
                 "--levels", "6", "--output-dir", ""]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot create output directory")
    assert not (tmp_path / "fatou-lab-out").exists()


def test_suite_empty_output_dir_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["suite", "--output-dir", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot create output directory")
    assert captured.out == ""
    assert not (tmp_path / "fatou-lab-out").exists()


def _uncovered(t_max):
    """A run_experiment stand-in that sweeps a Poisson field whose lowest
    heights lie above t_max."""
    def run(cfg):
        f = from_callable(make_grid(1, 8, 1.0), lambda x: np.cos(2 * np.pi * x))
        spec = ApproachRegionSpec(beta=0.5, t_max=t_max)
        tangential_max(poisson_extend(f, (1.0, 0.5, 0.25)), spec)
    return run


@pytest.mark.parametrize("t_max, message", [
    ("1e-9", "fewer than 2 field heights at or below t_max=1e-09"),
    ("-1", "t_max must be positive, got -1.0"),
    ("nan", "t_max must be positive, got nan"),
])
def test_cli_uncovered_region_exits_2(tmp_path, capsys, monkeypatch, t_max,
                                      message):
    # a region the field's heights do not cover is a usage error
    monkeypatch.setattr(cli, "run_experiment", _uncovered(float(t_max)))
    assert main(["verify", "--experiment", "poisson-exactness",
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    # the remedy is a larger t_max or lower heights; aperture plays no part
    assert "t_max" in err and "aperture" not in err


def test_cli_coverage_error_prints_no_traceback(tmp_path, capsys,
                                                monkeypatch):
    # a CoverageError escaping main would fail the test
    monkeypatch.setattr(cli, "run_experiment", _uncovered(1e-9))
    assert main(["verify", "--experiment", "poisson-exactness",
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fewer than 2 field heights")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["poisson", "surrogate"])
@pytest.mark.parametrize("heights, message", [
    ("nan,5", "positive and finite"), ("0,5", "strictly decreasing")])
def test_extensions_check_heights_first(capsys, monkeypatch, kind, heights,
                                        message):
    # the height ladders the runners build are checked before any slice or
    # ball mean is computed
    def refuse(*args):
        raise AssertionError("field computed before the height check")

    monkeypatch.setattr(extension, "ball_mean_all_centers", refuse)
    monkeypatch.setattr(extension, "poisson_slices", refuse)
    f = from_callable(make_grid(1, 6, 1.0), np.cos)
    hts = tuple(float(t) for t in heights.split(","))
    with pytest.raises(ParameterError, match=f"heights must be {message}$"):
        if kind == "poisson":
            poisson_extend(f, hts)
        else:
            annuli_surrogate(f, hts, 0.5, 1.5, 4)


@pytest.mark.parametrize("t0, message", [
    (5e-324, "strictly decreasing"), (float("nan"), "positive and finite"),
], ids=["underflow", "nan-t0"])
def test_poisson_extend_rejects_a_degenerate_ladder_first(monkeypatch, t0,
                                                         message):
    # dyadic_heights builds grid.levels + 3 rungs without checking them; a
    # ladder that underflows to 0 (from a subnormal t0) or is not finite
    # is rejected by poisson_extend before any slice is computed
    def refuse(*args):
        raise AssertionError("field computed before the height check")

    monkeypatch.setattr(extension, "poisson_slices", refuse)
    g = make_grid(1, 6, 1.0)
    hts = dyadic_heights(t0, grid=g)
    assert len(hts) == g.levels + 3
    with pytest.raises(ParameterError, match=f"heights must be {message}$"):
        poisson_extend(from_callable(g, np.cos), hts)


# malformed configs, each a usage error before any report is written
_MALFORMED_CONFIGS = {
    "empty-file": "",
    "section-only": "[experiment]\n",
    "second-section": "[experiment]\nexperiment = poincare\n[grid]\n"
                      "levels = 8\n",
    "key-without-value": "[experiment]\nexperiment = poincare\nlevels\n",
    "p-not-a-number": "[experiment]\nexperiment = poincare\np = abc\n",
    "levels-negative": "[experiment]\nexperiment = poincare\nlevels = -1\n",
    "levels-25": "[experiment]\nexperiment = poincare\nlevels = 25\n",
    "levels-fractional": "[experiment]\nexperiment = poincare\n"
                         "levels = 1.5\n",
    "levels-repeated": "[experiment]\nexperiment = poincare\nlevels = 8,8\n",
    "levels-repeated-2d": "[experiment]\nexperiment = commute-lemma\ndim = 2\n"
                          "levels = 4,4\n",
    "seeds-empty": "[experiment]\nexperiment = boxdim-calibration\nseeds =\n",
    "dim-2-unread": "[experiment]\nexperiment = corkscrew-geometry\ndim = 2\n",
    "boxdim-levels-4": "[experiment]\nexperiment = boxdim-calibration\n"
                       "levels = 4\n",
    "levels-not-a-number": "[experiment]\nexperiment = boxdim-calibration\n"
                           "levels = half,8\n",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CONFIGS))
def test_verify_malformed_config_exits_2(tmp_path, capsys, case):
    assert main(_verify(tmp_path, _MALFORMED_CONFIGS[case])) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_cli_verify_exit_codes(tmp_path):
    assert main(["verify", "--experiment", "poisson-exactness",
                 "--levels", "10",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert main(["verify"]) == 2


def test_cli_verify_from_config_file(tmp_path):
    cfg = validate(ExperimentConfig(experiment="boxdim-calibration",
                                    levels=(12,),
                                    output_dir=str(tmp_path / "rep")))
    path = tmp_path / "cfg.ini"
    path.write_text(serialize(cfg))
    assert main(["verify", "--config", str(path)]) == 0
    assert (tmp_path / "rep" / "boxdim-calibration.csv").exists()
    assert (tmp_path / "rep" / "boxdim-calibration.svg").exists()
    assert (tmp_path / "rep" / "boxdim-calibration.txt").exists()


def test_cli_usage_error_exit_code():
    # a retired tool command is no command at all
    with pytest.raises(SystemExit) as err:
        main(["maxfn", "tangential"])
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
    ExperimentConfig(experiment="frostman-lemma", levels=(9,), seeds=(0, 1, 2)),
    ExperimentConfig(experiment="boundary-max", levels=(8, 9), seeds=(0, 1, 2)),
    ExperimentConfig(experiment="dorronsoro-bound", levels=(8, 9),
                     seeds=(0, 1, 2)),
    ExperimentConfig(experiment="j-uniformity", levels=(9,), seeds=(0, 1, 2)),
]


@pytest.mark.parametrize("cfg", _MULTI_SEED_CONFIGS, ids=lambda c: c.experiment)
def test_multi_seed_reports_are_deterministic(tmp_path, cfg):
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
    ExperimentConfig(experiment="divergence-dimension", levels=(7, 10)),
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
