"""Declarative run configuration: one INI-style file, flags override.

Sections mirror the subsystems: [model] stage widths and layer
hyperparameters, [optimizer] the training protocol, [data] the synthetic
dataset recipe and split sizes, [run] output location and backward mode.
Each section is one dataclass, its keys are the dataclass's fields, and a
key's default is its field's default. Unknown sections or keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .data import SynthLesionSpec
from .model import ModelConfig
from .train import OptimizerConfig

__all__ = ["ConfigError", "DataConfig", "RunSettings", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """Malformed config file or override."""


@dataclass(frozen=True)
class DataConfig:
    image_size: int = 32
    lesion_min: int = 1
    lesion_max: int = 2
    radius_min: float = 4.0
    radius_max: float = 7.0
    contrast: float = 0.5
    oriented_texture: bool = True
    noise_std: float = 0.1
    positive_fraction: float = 0.5
    seed: int = 0
    n_train: int = 200
    n_val: int = 60
    n_test: int = 100
    augment: bool = False
    deform_variants: int = 5     # deformed copies per test bag in the deform protocol
    noise_prob: float = 0.01

    def __post_init__(self):
        for low, high in (("lesion_min", "lesion_max"), ("radius_min", "radius_max")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must be <= {high}, got {getattr(self, low)} "
                                 f"> {getattr(self, high)}")
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError(f"noise_prob must lie in [0, 1], got {self.noise_prob}")
        if self.deform_variants < 1:
            raise ValueError(f"deform_variants must be >= 1, got {self.deform_variants}")
        for key in ("seed", "n_train", "n_val", "n_test"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")

    def lesion_spec(self) -> SynthLesionSpec:
        return SynthLesionSpec(
            image_size=self.image_size,
            lesion_count=(self.lesion_min, self.lesion_max),
            lesion_radius=(self.radius_min, self.radius_max),
            contrast=self.contrast,
            oriented_texture=self.oriented_texture,
            noise_std=self.noise_std,
            positive_fraction=self.positive_fraction,
            seed=self.seed,
        )


@dataclass(frozen=True)
class RunSettings:
    output: str = ""             # empty: use $DEFORMGABOR_OUT or ./runs
    mode: str = "exact"          # backward mode: exact or paper
    heatmaps: int = 4            # bags to export heatmaps for during eval

    def __post_init__(self):
        if self.mode not in ("exact", "paper"):
            raise ValueError(f"run.mode must be exact or paper, got {self.mode!r}")
        if self.heatmaps < 0:
            raise ValueError(f"heatmaps must be >= 0, got {self.heatmaps}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    optimizer: OptimizerConfig
    data: DataConfig
    run: RunSettings


_SECTIONS = {"model": ModelConfig, "optimizer": OptimizerConfig, "data": DataConfig,
             "run": RunSettings}
# the only INI keys whose names differ from their fields: field -> key
_RENAMED = {"model": {"U": "orientations", "V": "mask_count", "H": "kernel_size", "lam": "lambda"}}
# section -> INI key -> the dataclass field it sets, whose default is the key's default
_SCHEMA = {section: {_RENAMED.get(section, {}).get(f.name, f.name): f for f in fields(cls)}
           for section, cls in _SECTIONS.items()}


def _coerce(section: str, key: str, raw: str, default):
    """Parse raw as the type of default; a default of None takes "auto" or a number."""
    raw = raw.strip()
    if isinstance(default, tuple):
        return _parse_widths(raw)
    if default is None and raw == "auto":
        return None
    try:
        if isinstance(default, bool):
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, str):
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be a finite number, got {raw!r}")
    return value


def _parse_widths(text: str):
    try:
        widths = tuple(int(t) for t in text.split("-"))
    except ValueError:
        raise ConfigError(f"[model] widths: expected dash-separated integers, got {text!r}") from None
    if any(w < 1 for w in widths):
        raise ConfigError(f"[model] widths: need positive stage widths, got {text!r}")
    return widths


def parse_config(path=None, overrides=()) -> RunConfig:
    """Read the config file (optional) and apply `section.key=value` overrides.

    A key set nowhere keeps its dataclass field's default.
    """
    values = {section: {} for section in _SCHEMA}

    def assign(section, key, raw):
        field = _SCHEMA[section][key]
        values[section][field.name] = _coerce(section, key, raw, field.default)

    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"config parse failure: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                assign(section, key, raw)

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {dotted!r}")
        assign(section, key, raw)

    try:
        cfg = RunConfig(**{s: _SECTIONS[s](**kwargs) for s, kwargs in values.items()})
        cfg.data.lesion_spec()  # validates the dataset recipe
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg
