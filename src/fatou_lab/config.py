"""Experiment configuration: a flat key-value record with per-experiment
validation, round-tripping through an INI file.

CLI flags override file values; see config-schema.ini at the repository
root for the full key list with types and constraints.
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields

from .errors import ParameterError
from .grid import MAX_LEVELS, make_grid, open_path
from .maximal import ApproachRegionSpec

# The keys each runner reads besides experiment and output_dir; every
# other key must keep its default.  "key:1" marks a list of which the
# runner uses one entry (the largest level, the first seed), "levels:2"
# only the smallest and largest level.  dim is listed only where the
# runner honours dim = 2.
_READS = {
    "nagel-stein-bound": "levels extent p alpha beta aperture seeds",
    "dorronsoro-bound": "levels extent p alpha beta aperture seeds",
    "divergence-dimension": "levels:2 extent p alpha beta aperture window "
                            "seeds:1",
    "frostman-lemma": "levels:1 extent p alpha s_values seeds",
    "commute-lemma": "dim levels:1 extent seeds",
    "poincare": "levels extent seeds",
    "corkscrew-geometry": "levels:1 extent seeds:1",
    "inclusion-lemma": "levels:1 extent p alpha beta c seeds:1",
    "boundary-max": "levels extent p alpha beta c seeds",
    "kernel-identities": "",
    "poisson-exactness": "dim levels:1 extent",
    "j-uniformity": "levels:1 extent p alpha beta seeds",
    "boxdim-calibration": "levels:1 extent window",
}

EXPERIMENTS = tuple(_READS)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dim: int = 1
    levels: tuple = (10,)
    extent: float = 1.0
    p: float = 2.0
    alpha: float = 0.25
    beta: float | None = None          # derived as 1 - alpha p / n when unset
    aperture: float = 1.0
    c: float = 1.0
    s_values: tuple = ()
    window: tuple = (4, 10)
    seeds: tuple = (0,)
    output_dir: str = "fatou-lab-out"

    def derived_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return 1.0 - self.alpha * self.p / self.dim


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def reads(experiment: str) -> dict:
    """Key -> how many of its entries the runner uses (None: all), for each
    key the experiment's runner reads."""
    return {key: int(most) if most else None for key, _, most in
            (word.partition(":") for word in _READS[experiment].split())}


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the constraints of the selected experiment; return cfg."""
    name = cfg.experiment
    _require(name in EXPERIMENTS,
             f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    read = reads(name)
    unread = [f"{f.name!r} (keep the default {f.default!r})"
              for f in fields(cfg)
              if f.name not in read and f.name not in ("experiment", "output_dir")
              and getattr(cfg, f.name) != f.default]
    _require(not unread, f"{name} does not read {', '.join(unread)}")
    for key, most in read.items():
        if most is not None:
            _require(len(getattr(cfg, key)) <= most,
                     f"{name} reads at most {most} of {key!r}, got "
                     f"{list(getattr(cfg, key))}")
    _require(cfg.dim in (1, 2), "dim must be 1 or 2")
    max_level = MAX_LEVELS[cfg.dim]
    _require(len(cfg.levels) >= 1
             and all(2 <= m <= max_level for m in cfg.levels),
             f"levels must be a nonempty tuple within [2, {max_level}] "
             f"for dim = {cfg.dim}")
    _require(all(a < b for a, b in zip(cfg.levels, cfg.levels[1:])),
             f"levels must be strictly ascending, got {list(cfg.levels)}")
    make_grid(cfg.dim, cfg.levels[0], cfg.extent)  # rejects the extent
    _require(cfg.p > 1, "p must exceed 1")
    _require(len(cfg.seeds) >= 1, "need at least one seed")
    # substream keys the stream by (seed << 16) ^ label, below Philox's 2^128
    _require(all(0 <= s < 2 ** 112 for s in cfg.seeds),
             f"seeds must lie in [0, 2^112), got {list(cfg.seeds)}")
    if "alpha" in read:
        _require(cfg.alpha > 0, "alpha must be positive")
        _require(cfg.alpha * cfg.p <= cfg.dim, "alpha p <= n required")
    beta = cfg.derived_beta()
    if "beta" in read:
        _require(0.0 < beta <= 1.0, f"beta = {beta} must lie in (0, 1]")
    if "aperture" in read:
        ApproachRegionSpec(beta=beta, aperture=cfg.aperture)
    if "c" in read:
        _require(math.isfinite(cfg.c) and cfg.c > 0,
                 f"c must be finite and positive, got {cfg.c}")
    if "window" in read:
        _require(len(cfg.window) == 2
                 and 1 <= cfg.window[0] < cfg.window[1] <= max(cfg.levels),
                 f"window must hold two scales 1 <= m_lo < m_hi <= "
                 f"max(levels) = {max(cfg.levels)}, got {list(cfg.window)}")
    if name == "nagel-stein-bound":
        _require(cfg.levels[-1] + 6 <= 24,
                 f"nagel-stein-bound probes an extended control at level "
                 f"levels[-1] + 6 = {cfg.levels[-1] + 6}, above the limit 24")
    if name == "frostman-lemma":
        floor = cfg.dim - cfg.alpha * cfg.p
        _require(len(cfg.s_values) >= 1, "frostman-lemma needs s_values")
        _require(all(s > floor for s in cfg.s_values),
                 f"s > n-alpha*p required (n-alpha*p = {floor})")
        _require(all(s <= 1.0 for s in cfg.s_values),
                 f"s_values must be at most 1, the dimension of the line, "
                 f"got {list(cfg.s_values)}")
        _require(cfg.extent >= 1.0,
                 f"frostman-lemma needs extent >= 1 to hold the measures' "
                 f"support [0, 1], got extent = {cfg.extent}")
    return cfg


_TUPLE_FIELDS = {"levels": int, "s_values": float, "window": int,
                 "seeds": int}


def serialize(cfg: ExperimentConfig) -> str:
    """INI text; parse(serialize(cfg)) == cfg."""
    cp = configparser.ConfigParser(interpolation=None)
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
    # no header matches the empty name, so [DEFAULT] is a section like any
    # other and is refused, not merged into [experiment]
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keys as written: an error names them so
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"malformed config: {exc}") from exc
    if cp.sections() != ["experiment"]:
        raise ParameterError("config must contain one [experiment] section and "
                             f"no other, got {cp.sections()}")
    sect = cp["experiment"]
    unknown = sorted(set(sect) - {f.name for f in fields(ExperimentConfig)})
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
                # an empty value is the empty tuple serialize writes
                cells = raw.split(",") if raw else []
                if "" in cells:
                    raise ValueError(f"empty entry in {raw!r}")
                kwargs[f.name] = tuple(map(_TUPLE_FIELDS[f.name], cells))
            elif f.name == "dim":
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
    with open_path(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"config {path} is not UTF-8 text: {exc}") \
                from exc
    return parse(text)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantic fields; the output location does not count."""
    from dataclasses import replace

    canonical = replace(cfg, output_dir="")
    return hashlib.sha256(serialize(canonical).encode()).hexdigest()[:16]
