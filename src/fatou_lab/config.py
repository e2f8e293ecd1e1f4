"""Experiment configuration: a flat key-value record with per-experiment
validation, round-tripping through an INI file.

CLI flags override file values; see config-schema.ini at the repository
root for the full key list with types and constraints.
"""

import configparser
import hashlib
import io
from dataclasses import dataclass, fields

from .errors import ParameterError
from .grid import MAX_LEVELS

EXPERIMENTS = (
    "nagel-stein-bound",
    "dorronsoro-bound",
    "divergence-dimension",
    "frostman-lemma",
    "commute-lemma",
    "poincare",
    "corkscrew-geometry",
    "inclusion-lemma",
    "boundary-max",
    "kernel-identities",
    "poisson-exactness",
    "j-uniformity",
    "boxdim-calibration",
)

# the experiments whose runners honour dim = 2; the rest run in 1-D only
_PLANAR = ("commute-lemma", "poisson-exactness")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dim: int = 1
    levels: tuple = (10,)
    extent: float = 1.0
    p: float = 2.0
    alpha: float = 0.25
    beta: float | None = None          # derived as 1 - alpha p / n when unset
    beta_prime: tuple = ()
    aperture: float = 1.0
    c: float = 1.0
    alpha_L: float = 0.5
    r: float | None = None             # surrogate exponent, default (1 + p) / 2
    p0: float | None = None            # boundary exponent, default (1 + p) / 2
    J: int = 20
    s_values: tuple = ()
    depths: tuple = ()
    eps: float = 0.02
    window: tuple = (4, 10)
    m_values: tuple = ()
    seeds: tuple = (0,)
    output_dir: str = "fatou-lab-out"

    def derived_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return 1.0 - self.alpha * self.p / self.dim

    def derived_r(self) -> float:
        return self.r if self.r is not None else (1.0 + self.p) / 2.0

    def derived_p0(self) -> float:
        return self.p0 if self.p0 is not None else (1.0 + self.p) / 2.0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the constraints of the selected experiment; return cfg."""
    _require(cfg.experiment in EXPERIMENTS,
             f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}")
    _require(cfg.dim in (1, 2), "dim must be 1 or 2")
    _require(cfg.dim == 1 or cfg.experiment in _PLANAR,
             f"{cfg.experiment} runs in one dimension only; dim = 2 is "
             f"supported by {' and '.join(_PLANAR)}")
    max_level = MAX_LEVELS[cfg.dim]
    _require(len(cfg.levels) >= 1
             and all(2 <= m <= max_level for m in cfg.levels),
             f"levels must be a nonempty tuple within [2, {max_level}] "
             f"for dim = {cfg.dim}")
    _require(cfg.extent > 0, "extent must be positive")
    _require(cfg.p > 1, "p must exceed 1")
    _require(len(cfg.seeds) >= 1, "need at least one seed")
    name = cfg.experiment
    if name in ("nagel-stein-bound", "dorronsoro-bound", "divergence-dimension",
                "frostman-lemma", "poincare", "j-uniformity"):
        _require(cfg.alpha > 0, "alpha must be positive")
        _require(cfg.alpha * cfg.p <= cfg.dim, "alpha p <= n required")
    if name == "nagel-stein-bound":
        _require(cfg.levels[-1] + 6 <= 24,
                 f"nagel-stein-bound probes an extended control at level "
                 f"levels[-1] + 6 = {cfg.levels[-1] + 6}, above the limit 24")
    beta = cfg.derived_beta()
    _require(0.0 < beta <= 1.0, f"beta = {beta} must lie in (0, 1]")
    r = cfg.derived_r()
    if name in ("nagel-stein-bound", "boundary-max", "divergence-dimension",
                "j-uniformity"):
        _require(1.0 < r < cfg.p, f"1 < r < p required, got r={r}, p={cfg.p}")
    if name == "frostman-lemma":
        floor = cfg.dim - cfg.alpha * cfg.p
        _require(len(cfg.s_values) >= 1, "frostman-lemma needs s_values")
        _require(all(s > floor for s in cfg.s_values),
                 f"s > n-alpha*p required (n-alpha*p = {floor})")
        _require(len(cfg.depths) >= 1, "frostman-lemma needs cantor depths")
    if name == "divergence-dimension":
        _require(len(cfg.beta_prime) >= 1, "divergence-dimension needs beta_prime")
        _require(all(beta <= b <= 1.0 + 1e-12 for b in cfg.beta_prime),
                 "beta_prime values must lie in [beta, 1]")
        _require(cfg.window[0] < cfg.window[1] <= max(cfg.levels),
                 "scale window must fit the finest grid")
    if name == "corkscrew-geometry":
        _require(len(cfg.m_values) >= 1, "corkscrew-geometry needs m_values")
    if name in ("inclusion-lemma", "boundary-max"):
        _require(cfg.c > 0, "c must be positive")
    if name == "boundary-max":
        # the annuli surrogate's preconditions, named by config key
        _require(cfg.derived_p0() >= 1, f"p0 = {cfg.derived_p0()} must be >= 1")
        _require(0.0 < cfg.alpha_L <= 1.0,
                 f"alpha_L = {cfg.alpha_L} must lie in (0, 1]")
        _require(cfg.J >= 1, f"J = {cfg.J} must be >= 1")
    return cfg


_TUPLE_FIELDS = {"levels": int, "beta_prime": float, "s_values": float,
                 "depths": int, "window": int, "m_values": float,
                 "seeds": int}
_OPTIONAL_FLOATS = ("beta", "r", "p0")


def serialize(cfg: ExperimentConfig) -> str:
    """INI text; parse(serialize(cfg)) == cfg."""
    cp = configparser.ConfigParser()
    cp["experiment"] = {}
    sect = cp["experiment"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name in _TUPLE_FIELDS:
            sect[f.name] = ",".join(format(v, ".17g") if isinstance(v, float)
                                    else str(v) for v in value)
        elif isinstance(value, float):
            sect[f.name] = format(value, ".17g")
        else:
            sect[f.name] = str(value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"malformed config: {exc}") from exc
    if cp.sections() != ["experiment"]:
        raise ParameterError("config must contain one [experiment] section and "
                             f"no other, got {cp.sections()}")
    sect = cp["experiment"]
    unknown = sorted(set(sect) - {cp.optionxform(f.name)
                                  for f in fields(ExperimentConfig)})
    if unknown:
        raise ParameterError(
            f"unknown config key(s) {', '.join(map(repr, unknown))}")
    kwargs = {}
    for f in fields(ExperimentConfig):
        if f.name not in sect:
            continue
        raw = sect[f.name]
        try:
            if f.name in _TUPLE_FIELDS:
                conv = _TUPLE_FIELDS[f.name]
                kwargs[f.name] = tuple(conv(v) for v in raw.split(",") if v != "")
            elif f.name in ("dim", "J"):
                kwargs[f.name] = int(raw)
            elif f.name in ("experiment", "output_dir"):
                kwargs[f.name] = raw
            else:
                kwargs[f.name] = float(raw)
        except ValueError as exc:
            raise ParameterError(f"config key {f.name!r}: {exc}") from exc
    if "experiment" not in kwargs:
        raise ParameterError("config must set the experiment name")
    return validate(ExperimentConfig(**kwargs))


def load(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse(fh.read())


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantic fields; the output location does not count."""
    from dataclasses import replace

    canonical = replace(cfg, output_dir="")
    return hashlib.sha256(serialize(canonical).encode()).hexdigest()[:16]
