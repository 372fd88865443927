"""Experiment configuration files: flat INI sections with strict key checking.

Unknown sections or keys are hard errors; a silent typo in a verification
config would invalidate the run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

_KNOWN_KEYS = {
    "model": {"family", "n", "alpha", "J", "B", "A"},
    "blocks": {"q", "l", "cut"},
    "effective": {"tau"},
    "agsp": {"m", "powers"},
    "sweep": {"param", "values"},
    "output": {"dir"},
    "run": {"seed", "jobs", "tolerance"},
}

_SWEEPABLE = {"n", "alpha", "J", "B", "q", "l", "tau", "m"}
_INT_PARAMS = {"n", "q", "l", "m"}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _floats(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {raw!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"expected finite numbers, got {raw!r}")
    return values


def _float(raw: str) -> float:
    values = _floats(raw)
    if len(values) != 1:
        raise ConfigError(f"expected a single number, got {raw!r}")
    return values[0]


def check_tolerance(value: float) -> float:
    """The comparison slack of every record; a non-finite or negative one is rejected."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {value!r}")
    return value


def check_non_negative(key: str, value: int) -> int:
    """A seed, filter degree or Schmidt-rank power; a negative one is rejected by `key`."""
    if value < 0:
        raise ConfigError(f"{key} must be >= 0, got {value}")
    return value


def check_jobs(key: str, value: int) -> int:
    """The worker count of a sweep; below 1 is rejected by `key`."""
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    return value


def _ints(raw: str) -> list[int]:
    try:
        vals = _floats(raw)
    except ConfigError as exc:
        raise ConfigError(f"expected integers, got {raw!r}") from exc
    if not all(v.is_integer() for v in vals):
        raise ConfigError(f"expected integers, got {raw!r}")
    return [int(v) for v in vals]


def _int(raw: str) -> int:
    values = _ints(raw)
    if len(values) != 1:
        raise ConfigError(f"expected a single integer, got {raw!r}")
    return values[0]


@dataclass
class ExperimentConfig:
    family: str = "long_range_ising"
    n: int = 8
    alpha: float = 3.0
    J: float = 1.0
    B: float = 2.0
    A: float = 1.0
    q: int = 2
    l: int = 2
    cut: int | None = None
    taus: list[float] = field(default_factory=lambda: [4.0])
    ms: list[int] = field(default_factory=lambda: [4])
    sr_powers: list[int] = field(default_factory=lambda: [1, 2])
    sweep_param: str | None = None
    sweep_values: list[float] = field(default_factory=list)
    output_dir: str = "results"
    seed: int = 0
    jobs: int = 1
    tolerance: float = 1e-9

    def grid_points(self) -> list["ExperimentConfig"]:
        """One config per sweep value (just [self] without a sweep)."""
        if not self.sweep_param:
            return [self]
        points = []
        for value in self.sweep_values:
            points.append(self.with_param(self.sweep_param, value))
        return points

    def with_param(self, name: str, value) -> "ExperimentConfig":
        if name in _INT_PARAMS:
            if not float(value).is_integer():
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            value = int(value)
        if name == "tau":
            return replace(self, taus=[float(value)])
        if name == "m":
            return replace(self, ms=[int(value)])
        return replace(self, **{name: value})


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a config file; unknown keys raise ConfigError."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (J vs B)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc  # message carries line numbers
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")

    def get(section: str, key: str, parse):
        """`parse` of the value of `key`, None when it is absent; an error names the key."""
        if not parser.has_section(section) or key not in parser[section]:
            return None
        try:
            return parse(parser[section][key])
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    family = get("model", "family", str.strip)
    if family is not None:
        if family not in ("long_range_ising", "long_range_fermion"):
            raise ConfigError(f"unknown model family {family!r}")
        cfg.family = family
    scalars = [("model", "n", _int)] + [("model", k, _float) for k in ("alpha", "J", "B", "A")]
    scalars += [("blocks", k, _int) for k in ("q", "l", "cut")]
    for section, key, parse in scalars:
        value = get(section, key, parse)
        if value is not None:
            setattr(cfg, key, value)
    taus = get("effective", "tau", _floats)
    if taus is not None:
        if not taus:
            raise ConfigError("empty tau grid")
        cfg.taus = taus
    ms = get("agsp", "m", _ints)
    if ms is not None:
        if not ms:
            raise ConfigError("empty m grid")
        cfg.ms = [check_non_negative("[agsp] m", v) for v in ms]
    powers = get("agsp", "powers", _ints)
    if powers is not None:
        cfg.sr_powers = [check_non_negative("[agsp] powers", v) for v in powers]
    if parser.has_section("sweep"):
        s = parser["sweep"]
        if "param" not in s or "values" not in s:
            raise ConfigError("[sweep] needs both 'param' and 'values'")
        param = s["param"].strip()
        if param not in _SWEEPABLE:
            raise ConfigError(f"cannot sweep {param!r}; choose from {sorted(_SWEEPABLE)}")
        cfg.sweep_param = param
        cfg.sweep_values = get("sweep", "values", _floats)
        if not cfg.sweep_values:
            raise ConfigError("empty sweep grid")
        if param in _INT_PARAMS:
            if not all(v.is_integer() for v in cfg.sweep_values):
                raise ConfigError(f"[sweep] values of {param} must be integers, got {s['values']!r}")
            cfg.sweep_values = [check_non_negative("[sweep] values", int(v)) for v in cfg.sweep_values]
    if parser.has_section("output") and "dir" in parser["output"]:
        cfg.output_dir = parser["output"]["dir"].strip()
    seed = get("run", "seed", _int)
    if seed is not None:
        cfg.seed = check_non_negative("[run] seed", seed)
    jobs = get("run", "jobs", _int)
    if jobs is not None:
        cfg.jobs = check_jobs("[run] jobs", jobs)
    tolerance = get("run", "tolerance", _float)
    if tolerance is not None:
        cfg.tolerance = check_tolerance(tolerance)
    return cfg
