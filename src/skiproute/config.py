"""Experiment files: one INI holding model, task, training, and sampler knobs.

Flat key = value pairs grouped into sections. Each section's keys are the
fields of its dataclass, cast by their declared type. Unknown sections or
keys are rejected outright so a typo cannot silently fall back to a
default; absent sections simply keep every default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .data import TaskSpec
from .errors import ConfigError
from .model import ModelConfig, SamplerConfig
from .training import TrainConfig


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    lora_alpha: float = 32.0
    dropout: float = 0.1

    def __post_init__(self):
        # rank and dropout are checked before training, alpha only at save
        if float(np.float32(self.lora_alpha)) != self.lora_alpha:
            raise ConfigError(f"lora_alpha {self.lora_alpha!r} is not exact "
                              f"in float32, which checkpoints store")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    task: TaskSpec
    train: TrainConfig
    sampler: SamplerConfig
    lora: LoraConfig


_CASTS = {"int": int, "float": float, "str": str}
_SECTIONS = get_type_hints(ExperimentConfig)  # section name -> dataclass

DEFAULT_CONFIG = """\
[model]
n_layers = 12
d_model = 64
n_heads = 4
d_ff = 256
vocab_size = 260
max_seq = 256

[task]
kind = copy
min_len = 3
max_len = 8
n_train = 256
n_val = 64
n_test = 64
seed = 0

[train]
lam = 0.01
alpha = 0.0
lr_min = 1e-4
lr_max = 3e-4
accum_steps = 5
patience = 4
max_epochs = 50
batch_size = 16
eval_every = 50
seed = 0

[sampler]
mode = greedy
top_k = 10
temperature = 0.8

[lora]
rank = 8
lora_alpha = 32.0
dropout = 0.1
"""


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


def write_default_config(path: str) -> None:
    with open(path, "w") as fh:
        fh.write(DEFAULT_CONFIG)
