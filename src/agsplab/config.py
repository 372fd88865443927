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
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {raw!r}") from exc


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


def _ints(raw: str) -> list[int]:
    vals = _floats(raw)
    if not all(math.isfinite(v) and v == int(v) for v in vals):
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
    m = parser["model"] if parser.has_section("model") else {}
    if "family" in m:
        family = m["family"].strip()
        if family not in ("long_range_ising", "long_range_fermion"):
            raise ConfigError(f"unknown model family {family!r}")
        cfg.family = family
    if "n" in m:
        cfg.n = _int(m["n"])
    if "alpha" in m:
        cfg.alpha = _float(m["alpha"])
    if "J" in m:
        cfg.J = _float(m["J"])
    if "B" in m:
        cfg.B = _float(m["B"])
    if "A" in m:
        cfg.A = _float(m["A"])
    b = parser["blocks"] if parser.has_section("blocks") else {}
    if "q" in b:
        cfg.q = _int(b["q"])
    if "l" in b:
        cfg.l = _int(b["l"])
    if "cut" in b:
        cfg.cut = _int(b["cut"])
    if parser.has_section("effective") and "tau" in parser["effective"]:
        cfg.taus = _floats(parser["effective"]["tau"])
        if not cfg.taus:
            raise ConfigError("empty tau grid")
    if parser.has_section("agsp"):
        a = parser["agsp"]
        if "m" in a:
            cfg.ms = [check_non_negative("[agsp] m", v) for v in _ints(a["m"])]
            if not cfg.ms:
                raise ConfigError("empty m grid")
        if "powers" in a:
            cfg.sr_powers = [check_non_negative("[agsp] powers", v) for v in _ints(a["powers"])]
    if parser.has_section("sweep"):
        s = parser["sweep"]
        if "param" not in s or "values" not in s:
            raise ConfigError("[sweep] needs both 'param' and 'values'")
        param = s["param"].strip()
        if param not in _SWEEPABLE:
            raise ConfigError(f"cannot sweep {param!r}; choose from {sorted(_SWEEPABLE)}")
        cfg.sweep_param = param
        cfg.sweep_values = _floats(s["values"])
        if not cfg.sweep_values:
            raise ConfigError("empty sweep grid")
    if parser.has_section("output") and "dir" in parser["output"]:
        cfg.output_dir = parser["output"]["dir"].strip()
    if parser.has_section("run"):
        r = parser["run"]
        if "seed" in r:
            cfg.seed = check_non_negative("[run] seed", _int(r["seed"]))
        if "jobs" in r:
            cfg.jobs = _int(r["jobs"])
        if "tolerance" in r:
            cfg.tolerance = check_tolerance(_float(r["tolerance"]))
    return cfg
