"""Declarative run configuration: one INI-style file, flags override.

Sections mirror the subsystems: [model] stage widths and layer
hyperparameters, [optimizer] the training protocol, [data] the synthetic
dataset recipe and split sizes, [run] output location and backward mode.
Every key has a default; unknown sections or keys are rejected so typos
fail loudly.
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


_MODEL_DEFAULTS = {
    "widths": "4-8",
    "plain_blocks": 1,
    "in_channels": 1,
    "orientations": 4,
    "mask_count": 2,
    "kernel_size": 3,
    "sigma": "auto",
    "lambda": "auto",
    "task": "mil",
    "n_labels": 1,
}

_OPTIMIZER_DEFAULTS = {
    "kind": "adam",
    "lr_masks": 1e-4,
    "lr_filters": 1e-4,
    "momentum": 0.9,
    "weight_decay": 0.0,
    "epochs": 50,
    "batch_size": 16,
    "lr_decay_every": 100,
    "lr_decay_factor": 0.1,
    "plateau_patience": 10,
    "seed": 0,
}

_DATA_DEFAULTS = {f.name: f.default for f in fields(DataConfig)}
_RUN_DEFAULTS = {f.name: f.default for f in fields(RunSettings)}

_SCHEMA = {
    "model": _MODEL_DEFAULTS,
    "optimizer": _OPTIMIZER_DEFAULTS,
    "data": _DATA_DEFAULTS,
    "run": _RUN_DEFAULTS,
}


def _coerce(section: str, key: str, raw, default):
    """Parse raw as the type of default; a default of "auto" takes "auto" or a number."""
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        if isinstance(default, bool):
            if isinstance(raw, bool):
                return raw
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, str) and (default != "auto" or raw == "auto"):
            return str(raw)
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be a finite number, got {raw!r}")
    return value


def _parse_widths(text: str):
    try:
        widths = tuple(int(t) for t in str(text).split("-"))
    except ValueError:
        raise ConfigError(f"[model] widths: expected dash-separated integers, got {text!r}") from None
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"[model] widths: need positive stage widths, got {text!r}")
    return widths


def parse_config(path=None, overrides=()) -> RunConfig:
    """Read the config file (optional) and apply `section.key=value` overrides."""
    values = {s: dict(defaults) for s, defaults in _SCHEMA.items()}

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
                values[section][key] = _coerce(section, key, raw, _SCHEMA[section][key])

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {dotted!r}")
        values[section][key] = _coerce(section, key, raw, _SCHEMA[section][key])

    m = values["model"]
    try:
        model = ModelConfig(
            widths=_parse_widths(m["widths"]),
            plain_blocks=m["plain_blocks"],
            in_channels=m["in_channels"],
            U=m["orientations"],
            V=m["mask_count"],
            H=m["kernel_size"],
            sigma=None if m["sigma"] == "auto" else m["sigma"],
            lam=None if m["lambda"] == "auto" else m["lambda"],
            task=m["task"],
            n_labels=m["n_labels"],
        )
        optimizer = OptimizerConfig(**values["optimizer"])
        data = DataConfig(**values["data"])
        run = RunSettings(**values["run"])
        data.lesion_spec()  # validates the dataset recipe
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(model=model, optimizer=optimizer, data=data, run=run)
