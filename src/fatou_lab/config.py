"""Experiment configuration: a flat key-value record with per-experiment
validation, round-tripping through an INI file.

CLI flags override file values; see config-schema.ini at the repository
root for the full key list with types and constraints.  The torus extent
and the region aperture are constants, and the region order is derived
from (n, alpha, p).
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields
from typing import ClassVar

from .errors import ParameterError
from .grid import MAX_LEVELS, dilated_height_scanned, open_path

# The keys each runner reads besides experiment and output_dir; every
# other key must keep its default.  "key:1" marks a list of which the
# runner uses one entry (the largest level, the first seed), "levels:2"
# only the smallest and largest level.  dim is listed only where the
# runner honours dim = 2.
_READS = {
    "nagel-stein-bound": "levels p alpha seeds",
    "dorronsoro-bound": "levels p alpha seeds",
    "divergence-dimension": "levels:2 p alpha seeds:1",
    "frostman-lemma": "levels:1 p alpha seeds",
    "commute-lemma": "dim levels:1 seeds",
    "poincare": "levels seeds",
    "corkscrew-geometry": "levels:1 seeds:1",
    "inclusion-lemma": "levels:1 p alpha c seeds:1",
    "boundary-max": "levels p alpha c seeds",
    "kernel-identities": "",
    "poisson-exactness": "dim levels:1",
    "j-uniformity": "levels:1 p alpha seeds",
    "boxdim-calibration": "levels:1",
}

EXPERIMENTS = tuple(_READS)

# the box-counting scales 2^-4..2^-10 of divergence-dimension and
# boxdim-calibration; their finest level must reach the finer one
BOX_WINDOW = (4, 10)

# the dilations j of j-uniformity
J_DILATIONS = range(9)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dim: int = 1
    levels: tuple = (10,)
    p: float = 2.0
    alpha: float = 0.25
    c: float = 1.0
    seeds: tuple = (0,)
    output_dir: str = "fatou-lab-out"

    extent: ClassVar[float] = 1.0     # torus side length
    aperture: ClassVar[float] = 1.0   # approach-region aperture

    def derived_beta(self) -> float:
        """The critical region order 1 - alpha p / n."""
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
    _require(cfg.p > 1, "p must exceed 1")
    _require(len(cfg.seeds) >= 1, "need at least one seed")
    # substream keys the stream by (seed << 16) ^ label, below Philox's 2^128
    _require(all(0 <= s < 2 ** 112 for s in cfg.seeds),
             f"seeds must lie in [0, 2^112), got {list(cfg.seeds)}")
    if "alpha" in read:
        _require(cfg.alpha > 0, "alpha must be positive")
        beta = cfg.derived_beta()
        _require(beta > 0, f"alpha p <= n required, with beta = 1 - alpha p "
                           f"/ n positive; got beta = {beta}")
    if "c" in read:
        _require(math.isfinite(cfg.c) and cfg.c > 0,
                 f"c must be finite and positive, got {cfg.c}")
    if name in ("divergence-dimension", "boxdim-calibration"):
        _require(max(cfg.levels) >= BOX_WINDOW[1],
                 f"{name} fits box counts at scales 2^-{BOX_WINDOW[0]}.."
                 f"2^-{BOX_WINDOW[1]}: max(levels) must be at least "
                 f"{BOX_WINDOW[1]}, got {max(cfg.levels)}")
    if name == "nagel-stein-bound":
        _require(cfg.levels[-1] + 6 <= 24,
                 f"nagel-stein-bound probes an extended control at level "
                 f"levels[-1] + 6 = {cfg.levels[-1] + 6}, above the limit 24")
    if name == "dorronsoro-bound":
        # dyadic_scales(grid) keeps the radii in [4h, extent/4]
        _require(min(cfg.levels) >= 4,
                 f"dorronsoro-bound takes the sharp maximal function over "
                 f"dyadic scales in [4h, extent/4], empty below N = 2^4: "
                 f"min(levels) must be at least 4, got {min(cfg.levels)}")
    if name == "j-uniformity":
        # a dilation scans no height unless it scans the lowest rung of
        # dyadic_heights(1.0, grid)
        beta, j_max = cfg.derived_beta(), J_DILATIONS[-1]
        _require(all(dilated_height_scanned(2.0 ** -(max(cfg.levels) + 2), j,
                                            beta) for j in J_DILATIONS),
                 f"j-uniformity scans heights down to 2^-(levels + 2) at "
                 f"dilations j <= {j_max}, which needs levels + 2 > {j_max} "
                 f"beta / (1 - beta) = {j_max * beta / (1.0 - beta):.4g}: "
                 f"raise levels or alpha; got levels = {list(cfg.levels)}, "
                 f"alpha = {cfg.alpha}")
    return cfg


_LIST_FIELDS = ("levels", "seeds")  # comma-separated ints


def serialize(cfg: ExperimentConfig) -> str:
    """INI text; parse(serialize(cfg)) == cfg."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["experiment"] = {}
    sect = cp["experiment"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _LIST_FIELDS:
            sect[f.name] = ",".join(map(str, value))
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
            if f.name in _LIST_FIELDS:
                cells = raw.split(",")
                if "" in cells:
                    raise ValueError(f"empty entry in {raw!r}")
                kwargs[f.name] = tuple(map(int, cells))
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
