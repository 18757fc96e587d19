"""Experiment files: each section's keys are its settings dataclass's fields."""

import configparser
from dataclasses import fields

import pytest

import skiproute.config as CF
import skiproute.data as D
import skiproute.model as M
import skiproute.training as TR
from skiproute.errors import ConfigError


def test_default_file_spells_out_every_default():
    exp = CF.parse_experiment(CF.DEFAULT_CONFIG)
    assert exp == CF.ExperimentConfig(
        model=M.ModelConfig(), task=D.TaskSpec(kind="copy"),
        train=TR.TrainConfig(), sampler=M.SamplerConfig(),
        lora=CF.LoraConfig())
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(CF.DEFAULT_CONFIG)
    for section in fields(exp):
        assert list(ini[section.name]) == [
            f.name for f in fields(getattr(exp, section.name))]


@pytest.mark.parametrize("line", ["schedule = cosine", "phase2_divisor = 3.0",
                                  "max_seq = 64"])
def test_removed_train_settings_are_unknown_keys(line):
    text = CF.DEFAULT_CONFIG.replace("[train]\n", f"[train]\n{line}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        CF.parse_experiment(text)



def test_lora_alpha_that_a_checkpoint_would_change_is_refused():
    text = CF.DEFAULT_CONFIG.replace("lora_alpha = 32.0", "lora_alpha = 0.1")
    with pytest.raises(ConfigError, match="not exact in float32"):
        CF.parse_experiment(text)
