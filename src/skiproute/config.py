"""Experiment files: one INI holding model, task, training, sampler and
adapter settings.

Flat key = value pairs grouped into sections. Each section's keys are the
fields of its dataclass, cast by their declared type, and the default file
is written from those fields' defaults. Unknown sections or
keys are rejected outright so a typo cannot silently fall back to a
default; absent sections simply keep every default.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

from .data import TaskSpec
from .errors import ConfigError
from .lora import LoraConfig
from .model import ModelConfig, SamplerConfig
from .training import TrainConfig


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    task: TaskSpec
    train: TrainConfig
    sampler: SamplerConfig
    lora: LoraConfig


_CASTS = {"int": int, "float": float, "str": str}
_SECTIONS = get_type_hints(ExperimentConfig)  # section name -> dataclass

# kind is the one value spelled out here: TaskSpec has no default for it
DEFAULT_EXPERIMENT = ExperimentConfig(
    model=ModelConfig(), task=TaskSpec(kind="copy"), train=TrainConfig(),
    sampler=SamplerConfig(), lora=LoraConfig())
# a [section] per settings dataclass, then a line per field, in field order
DEFAULT_CONFIG = "\n\n".join(
    "\n".join([f"[{section}]"] + [f"{key} = {value}" for key, value in settings.items()])
    for section, settings in asdict(DEFAULT_EXPERIMENT).items()) + "\n"


def parse_experiment(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed experiment file: {e}")

    built = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    for section, cls in _SECTIONS.items():
        casts = {f.name: _CASTS[f.type] for f in fields(cls)}
        kwargs = {}
        if parser.has_section(section):
            for key, raw in parser.items(section):
                if key not in casts:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                try:
                    kwargs[key] = casts[key](raw)
                except ValueError:
                    raise ConfigError(
                        f"[{section}] {key} = {raw!r} is not a valid "
                        f"{casts[key].__name__}")
        try:
            built[section] = cls(**kwargs)
        except TypeError as e:
            raise ConfigError(f"[{section}] is incomplete: {e}")
    return ExperimentConfig(**built)


def load_experiment(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_experiment(fh.read())
