"""Flat key-value experiment configs: one section per experiment name."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .grid import GridSpec

EXPERIMENTS = (
    "balian-low",
    "trace-check",
    "plunge-count",
    "density",
    "improve",
    "dual-decay",
    "uncertainty-sum",
    "fock-sweep",
)


class ConfigError(ValueError):
    """Unusable config file or parameter value."""


@dataclass
class ExperimentConfig:
    """One experiment's raw parameters plus provenance of their source file."""

    experiment: str
    params: dict[str, str]
    seed: int
    sha256: str
    source: Path = field(default_factory=lambda: Path("."))

    def error(self, message: str) -> ConfigError:
        """A ConfigError whose message names this experiment's section."""
        return ConfigError(f"[{self.experiment}] {message}")

    def get_str(self, key: str, default: str | None = None) -> str:
        value = self.params.get(key, default)
        if value is None:
            raise self.error(f"is missing required key '{key}'")
        return value

    def get_int(self, key: str, default: int | None = None) -> int:
        raw = self.get_str(key, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError:
            raise self.error(f"{key} = {raw!r} is not an integer") from None

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.get_str(key, None if default is None else repr(default))
        try:
            value = float(raw)
        except ValueError:
            raise self.error(f"{key} = {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise self.error(f"{key} = {raw!r} is not finite")
        return value

    def get_floats(self, key: str, default: str | None = None) -> list[float]:
        raw = self.get_str(key, default)
        try:
            values = [float(tok) for tok in raw.split()]
        except ValueError:
            raise self.error(f"{key} = {raw!r} is not a number list") from None
        if not values:
            raise self.error(f"{key} must list at least one number")
        if not all(math.isfinite(v) for v in values):
            raise self.error(f"{key} = {raw!r} is not finite")
        return values

    def grid(self) -> GridSpec:
        dim, n, dx = self.get_int("grid_dim", 1), self.get_int("grid_n"), self.get_float("grid_dx")
        try:
            return GridSpec(dim, n, dx)
        except ValueError as exc:
            raise self.error(f"bad grid: {exc}") from None

    def resolve_path(self, key: str) -> Path:
        """A path value, taken relative to the config file's directory."""
        return self.source.parent / self.get_str(key)


def load_config(path, experiment: str, seed: int | None = None) -> ExperimentConfig:
    """Parse one experiment section; unknown names and bad syntax are errors."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}' (choose from {', '.join(EXPERIMENTS)})")
    source = Path(path)
    try:
        text = source.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source}: {exc}") from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(source))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {source}: {exc}") from None
    if not parser.has_section(experiment):
        raise ConfigError(f"config {source} has no [{experiment}] section")
    params = dict(parser.items(experiment))
    cfg = ExperimentConfig(
        experiment=experiment,
        params=params,
        seed=0,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        source=source,
    )
    cfg.seed = seed if seed is not None else cfg.get_int("seed", 0)
    return cfg
