"""End-to-end command-line workflow on a miniature experiment."""

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skiproute.bench as B
import skiproute.bundle as BU
import skiproute.data as D
import skiproute.lora as L
import skiproute.metrics as X
import skiproute.model as M
import skiproute.oracle as O
import skiproute.router as R
import skiproute.tensor as T
import skiproute.training as TR
from skiproute import cli
from skiproute.cli import main
from skiproute.config import ExperimentConfig, load_experiment
from skiproute.tokenizer import EOS, detokenize, frame_prompt

TINY_INI = """\
[model]
n_layers = 2
d_model = 16
n_heads = 2
d_ff = 32
max_seq = 64

[task]
kind = copy
min_len = 3
max_len = 4
n_train = 16
n_val = 8
n_test = 8
seed = 0

[train]
alpha = 0.1
lr_min = 1e-3
lr_max = 3e-3
accum_steps = 1
batch_size = 8
max_epochs = 1
eval_every = 50
seed = 0

[sampler]
mode = greedy
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the whole pipeline once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "exp.ini"
    cfg.write_text(TINY_INI)
    paths = {
        "cfg": str(cfg),
        "model": str(root / "model.bin"),
        "pre": str(root / "pretrained.bin"),
        "routers": str(root / "routers.bin"),
        "adapters": str(root / "adapters.bin"),
        "merged": str(root / "merged.bin"),
        "root": root,
    }
    steps = [
        ["init", "--config", paths["cfg"], "--model", paths["model"]],
        ["pretrain", "--config", paths["cfg"], "--model", paths["model"],
         "--out", paths["pre"], "--log", str(root / "pretrain.csv")],
        ["train-router", "--config", paths["cfg"], "--model", paths["pre"],
         "--out", paths["routers"], "--log", str(root / "router.csv")],
        ["train-lora", "--config", paths["cfg"], "--model", paths["pre"],
         "--routers", paths["routers"], "--out", paths["adapters"]],
        ["merge", "--config", paths["cfg"], "--model", paths["pre"],
         "--adapters", paths["adapters"], "--out", paths["merged"]],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    return paths


def test_init_leaves_existing_config_alone(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(TINY_INI)
    assert main(["init", "--config", str(cfg)]) == 0
    assert cfg.read_text() == TINY_INI  # no --force, file kept


def test_init_writes_default_config(tmp_path):
    cfg = tmp_path / "fresh.ini"
    assert main(["init", "--config", str(cfg)]) == 0
    assert load_experiment(str(cfg)) == ExperimentConfig(
        model=M.ModelConfig(), task=D.TaskSpec(kind="copy"),
        train=TR.TrainConfig(), sampler=M.SamplerConfig(), lora=L.LoraConfig())


def test_pipeline_artifacts_exist(workdir):
    assert BU.load_bundle(workdir["model"]).weights is not None
    assert BU.load_bundle(workdir["routers"]).routers is not None
    assert BU.load_bundle(workdir["adapters"]).adapters is not None
    assert BU.load_bundle(workdir["merged"]).weights is not None
    log = workdir["root"] / "router.csv"
    with open(log) as fh:
        header = fh.readline().strip().split(",")
    assert header[:6] == ["step", "ce", "reg", "pp", "total", "val_ce"]
    assert header[6:] == ["rho_0", "rho_1"]


def test_infer_plain_and_routed(workdir, capsys):
    assert main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--prompt", "abc"]) == 0
    plain = capsys.readouterr().out
    assert plain.strip() != ""

    assert main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--prompt", "abc", "--routers", workdir["routers"]]) == 0
    routed = capsys.readouterr().out
    assert "skipped:" in routed
    assert "/2 layers" in routed
    assert "margin " in routed


def test_infer_with_fixed_skip_set(workdir, capsys):
    # a full prefill, then decoding under the set: the greedy quality pass
    assert main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--prompt", "qq", "--skip", "0"]) == 0
    printed = capsys.readouterr().out
    weights = BU.load_bundle(workdir["pre"]).weights
    budget = load_experiment(workdir["cfg"]).task.max_len + 2
    prompt = frame_prompt(b"qq")
    [tokens] = O.greedy_outputs(weights.config, weights, [prompt], budget,
                                frozenset({0}))
    assert printed == detokenize(tokens).decode("utf-8", errors="replace") + "\n"
    # on this prompt a prefill that skips the layer too decodes other tokens
    skipped = M.generate(weights.config, weights, prompt, budget, skip_set={0},
                         prefill_skip={0}, stop_at=EOS).tokens
    assert list(tokens) != skipped


def test_merged_and_adapted_inference_agree(workdir, capsys):
    assert main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--prompt", "abcd", "--adapters", workdir["adapters"]]) == 0
    adapted = capsys.readouterr().out
    assert main(["infer", "--config", workdir["cfg"],
                 "--model", workdir["merged"], "--prompt", "abcd"]) == 0
    merged = capsys.readouterr().out
    assert adapted == merged


def test_bench_writes_report(workdir, capsys):
    out = workdir["root"] / "latency.csv"
    assert main(["bench", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--routers", workdir["routers"], "--skip", "1",
                 "--runs", "1", "--warmup", "0", "--max-new", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.reader(fh))
    names = {r[0] for r in rows[1:]}
    assert names == {"full", "skip", "routed"}


def test_oracle_subcommand(workdir, capsys):
    out = workdir["root"] / "oracle.csv"
    assert main(["oracle", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--epsilon", "1.0", "--max-prompts", "2", "--max-new", "4",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "winner:" in text
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["role", "include_mask", "layers_used", "quality"]
    assert rows[-1][0] == "winner"
    assert rows[-1][1] == "00"  # epsilon 1 admits the empty subsequence


def test_train_router_band_matches_direct_tuning(workdir, tmp_path, capsys):
    # a fast, high-pressure rig: tuning lands after retrying at lower rates
    cfg = tmp_path / "band.ini"
    cfg.write_text(TINY_INI.replace("lr_min = 1e-3", "lr_min = 0.1")
                   .replace("lr_max = 3e-3", "lr_max = 0.1")
                   .replace("max_epochs = 1", "max_epochs = 2"))
    out = tmp_path / "tuned.bin"
    assert main(["train-router", "--config", str(cfg), "--model", workdir["pre"],
                 "--out", str(out), "--alpha", "1.0", "--band", "0.05,0.5"]) == 0
    printed = capsys.readouterr().out

    exp = load_experiment(str(cfg))
    weights = BU.load_bundle(workdir["pre"]).weights
    train, val, _ = D.generate_dataset(exp.task)
    tuned = TR.tune_routers_to_band(
        weights.config, weights, train, val, dataclasses.replace(exp.train, alpha=1.0),
        probe_pairs=val[:24], band=(0.05, 0.5))
    direct = tmp_path / "direct.bin"
    BU.save_bundle(str(direct), routers=tuned.routers)
    assert out.read_bytes() == direct.read_bytes()
    assert (f"in {tuned.attempts} attempt(s): skip fraction "
            f"{tuned.skip_fraction:.4f} on 8 validation prompts") in printed


def test_train_router_band_missed_exits_two(workdir, tmp_path, capsys):
    out = tmp_path / "never.bin"
    assert main(["train-router", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--out", str(out), "--band", "0.05,0.5"]) == 2
    err = capsys.readouterr().err
    assert "missed the skip band (0.05, 0.5)" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("band", ["0.3", "0.3,0.2", "a,b", "0.1,1.5", "-0.1,0.2",
                                  "0.1,0.2,0.3"])
def test_bad_bands_are_usage_errors(workdir, capsys, band):
    with pytest.raises(SystemExit) as e:
        main(["train-router", "--config", workdir["cfg"], "--model", workdir["pre"],
              "--out", "unused.bin", "--band", band])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "--band" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["pretrain", "--target-accuracy", "1.5"],  # was: trained the whole budget
    ["pretrain", "--target-accuracy", "-1"],   # was: stopped at the first validation
    ["train-router", "--alpha", "-1"],         # was: ConfigError, exit 2
    ["train-router", "--alpha", "nan"],
])
def test_bad_training_targets_are_usage_errors(workdir, tmp_path, capsys, argv):
    out = tmp_path / "unused.bin"
    with pytest.raises(SystemExit) as e:
        main(argv[:1] + ["--config", workdir["cfg"], "--model", workdir["pre"],
                         "--out", str(out)] + argv[1:])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and argv[1] in err and "Traceback" not in err
    assert not out.exists()


def test_train_router_builds_routers_in_the_model_dtype(workdir, tmp_path, monkeypatch):
    # bundles hold float32, so a float64 model stands in for the loaded one
    config = BU.load_bundle(workdir["pre"]).weights.config
    wide = M.init_model(config, np.random.default_rng(0), dtype=np.float64)
    monkeypatch.setattr(cli, "_load", lambda path, part, weights=None: wide)
    saved = {}
    monkeypatch.setattr(cli, "save_bundle", lambda path, **parts: saved.update(parts))
    assert main(["train-router", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--out", str(tmp_path / "routers.bin")]) == 0
    assert {p.dtype for p in saved["routers"].parameters()} == {np.dtype(np.float64)}


def test_stats_and_reaggregation(workdir, capsys):
    dump = workdir["root"] / "raw.csv"
    assert main(["stats", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--routers", workdir["routers"], "--dump", str(dump),
                 "--max-prompts", "4"]) == 0
    direct = capsys.readouterr().out
    assert main(["stats", "--config", workdir["cfg"],
                 "--from-raw", str(dump)]) == 0
    again = capsys.readouterr().out
    assert direct == again
    assert "average:" in direct and "min margin" in direct
    assert "distinct skip sets: " in direct and "margin quartiles " in direct


def test_malformed_decision_log_exits_two(workdir, tmp_path, capsys):
    raw = tmp_path / "junk.csv"
    raw.write_text("prompt,rho_0,skip_0\n0,abc,1\n")
    assert main(["stats", "--config", workdir["cfg"], "--from-raw", str(raw)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a number" in err and "Traceback" not in err


def test_decision_log_rho_outside_the_unit_interval_exits_two(workdir, tmp_path,
                                                              capsys):
    raw = tmp_path / "nan.csv"
    raw.write_text("prompt,rho_0,rho_1,skip_0,skip_1\n0,nan,1.5,1,0\n")
    assert main(["stats", "--config", workdir["cfg"], "--from-raw", str(raw)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "outside [0, 1]" in err and "Traceback" not in err


def test_stats_dump_matches_per_prompt_prefill(workdir, capsys):
    dump = workdir["root"] / "raw_all.csv"
    assert main(["stats", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--routers", workdir["routers"], "--dump", str(dump)]) == 0
    capsys.readouterr()
    weights = BU.load_bundle(workdir["pre"]).weights
    routers = BU.load_bundle(workdir["routers"]).routers
    _, _, test = D.generate_dataset(load_experiment(workdir["cfg"]).task)
    logged = X.read_decision_log(str(dump))
    assert len(logged) == len(test) == 8
    for (prompt, _), got in zip(test, logged):
        _, _, want = R.prefill(weights.config, weights, routers,
                               np.asarray(frame_prompt(prompt)))
        assert got.passed == want.passed
        np.testing.assert_allclose(got.rho, want.rho, rtol=0, atol=1e-6)


def test_compare_subcommand(workdir, capsys):
    out = workdir["root"] / "compare.csv"
    assert main(["compare", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--routers", workdir["routers"], "--adapters", workdir["adapters"],
                 "--max-prompts", "3", "--runs", "1", "--warmup", "0",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "unified baseline kept" in text
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert {r[0] for r in rows[1:]} == {"full", "routed", "unified"}
    for row in rows[1:]:
        assert 0.0 <= float(row[1]) <= 1.0


def test_compare_times_every_configuration_with_the_adapters(
        workdir, monkeypatch, capsys):
    seen = {}
    timing = [False]
    real_measure, real_generate = B.measure_tpot, M.generate
    real_routed = R.generate_with_routers

    def measure(runs, **kwargs):
        timing[0] = True
        try:
            return real_measure(runs, **kwargs)
        finally:
            timing[0] = False

    def recorder(name, real):
        def run(*args, **kwargs):
            if timing[0]:
                seen.setdefault(name, []).append(kwargs.get("project"))
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(B, "measure_tpot", measure)
    monkeypatch.setattr(M, "generate", recorder("generate", real_generate))
    monkeypatch.setattr(R, "generate_with_routers",
                        recorder("routed", real_routed))
    assert main(["compare", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--routers", workdir["routers"], "--adapters", workdir["adapters"],
                 "--max-prompts", "1", "--runs", "1", "--warmup", "0"]) == 0
    capsys.readouterr()
    # full and unified go through generate, routed through its own call
    assert len(seen["generate"]) == 2 and len(seen["routed"]) == 1
    projections = [p for ps in seen.values() for p in ps]
    assert projections[0] is not None
    assert all(p is projections[0] for p in projections)


def _infer_with(workdir, flag, path):
    return main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--prompt", "abc", flag, path])


@pytest.mark.parametrize("count,width", [(3, 16), (2, 8)])
def test_mismatched_routers_are_refused_at_load(workdir, tmp_path, capsys,
                                                 count, width):
    path = str(tmp_path / "routers.bin")
    BU.save_bundle(path, routers=R.RouterBank(
        [R.Router(T.Tensor(np.zeros(width, dtype=np.float32))) for _ in range(count)]))
    assert _infer_with(workdir, "--routers", path) == 2
    err = capsys.readouterr().err
    assert f"{count} routers of width [{width}]" in err and "Traceback" not in err


@pytest.mark.parametrize("key,shape,message", [
    ((2, "wq"), (16, 16), "adapter for layer 2 of a 2-layer model"),
    ((0, "w_gate"), (16, 16), "adapter 0/w_gate: adapter shapes"),
])
def test_mismatched_adapters_are_refused_at_load(workdir, tmp_path, capsys,
                                                  key, shape, message):
    path = str(tmp_path / "adapters.bin")
    ad = L.make_adapter(*shape, rank=2, lora_alpha=4.0,
                        rng=np.random.default_rng(0))
    BU.save_bundle(path, adapters=L.AdapterSet(
        rank=2, lora_alpha=4.0, adapters={key: ad}))
    assert _infer_with(workdir, "--adapters", path) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# ------------------------------------------------------------ exit codes


def test_module_runs_as_a_script(tmp_path):
    cfg = tmp_path / "x.ini"
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "skiproute.cli", "init", "--config", str(cfg)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "[model]" in cfg.read_text()


def test_usage_errors_exit_one(workdir):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no-such-command", "--config", workdir["cfg"]])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
              "--prompt", "x", "--skip", "one,two"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["stats", "--config", workdir["cfg"]])
    assert e.value.code == 1


@pytest.mark.parametrize("argv", [
    ["compare", "--routers", "routers", "--max-prompts", "0"],
    ["stats", "--routers", "routers", "--max-prompts", "-60"],
    ["bench", "--runs", "0"],
    ["bench", "--warmup", "-1"],
    ["infer", "--prompt", "x", "--max-new", "0"],
    ["oracle", "--max-prompts", "2.5"],
])
def test_bad_counts_are_usage_errors(workdir, capsys, argv):
    argv = [workdir.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as e:
        main(argv[:1] + ["--config", workdir["cfg"], "--model", workdir["pre"]]
             + argv[1:])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_infer_takes_routers_or_a_skip_set_not_both(workdir, capsys):
    with pytest.raises(SystemExit) as e:
        main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
              "--prompt", "x", "--routers", workdir["routers"], "--skip", "1"])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert "not allowed with" in err and "Traceback" not in err


def test_retained_below_two_is_a_usage_error(workdir, capsys):
    argv = ["compare", "--config", workdir["cfg"], "--model", workdir["pre"],
            "--routers", workdir["routers"], "--max-prompts", "1",
            "--runs", "1", "--warmup", "0", "--max-new", "2"]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--retained", "1"])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    # more layers than the loaded model has is a data error
    assert main(argv + ["--retained", "3"]) == 2
    assert "retained count" in capsys.readouterr().err


def test_retained_above_depth_exits_before_routing(workdir, monkeypatch, capsys):
    calls = []
    real_routed = R.generate_with_routers

    def routed(*args, **kwargs):
        calls.append(1)
        return real_routed(*args, **kwargs)

    monkeypatch.setattr(R, "generate_with_routers", routed)
    assert main(["compare", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--routers", workdir["routers"], "--runs", "1", "--warmup", "0",
                 "--retained", "3"]) == 2
    assert "retained count" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("epsilon", ["2", "-0.5", "nan", "tight"])
def test_epsilon_outside_zero_one_is_a_usage_error(workdir, capsys, epsilon):
    with pytest.raises(SystemExit) as e:
        main(["oracle", "--config", workdir["cfg"], "--model", workdir["pre"],
              "--epsilon", epsilon])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["infer", "--prompt", "x", "--skip", "99"],
    ["infer", "--prompt", "x", "--skip=-1"],
    ["bench", "--skip", "40"],
])
def test_skip_sets_outside_the_model_exit_two(workdir, capsys, argv):
    assert main(argv[:1] + ["--config", workdir["cfg"], "--model", workdir["pre"]]
                + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "outside 0..1" in err and "Traceback" not in err


def test_data_errors_exit_two(workdir, tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    assert main(["infer", "--config", workdir["cfg"], "--model", missing,
                 "--prompt", "x"]) == 2
    capsys.readouterr()

    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[model]\nn_layers = banana\n")
    assert main(["infer", "--config", str(bad_cfg), "--model", workdir["pre"],
                 "--prompt", "x"]) == 2
    capsys.readouterr()

    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"XXXX" + b"\x00" * 40)
    assert main(["infer", "--config", workdir["cfg"], "--model", str(corrupt),
                 "--prompt", "x"]) == 2
    capsys.readouterr()

    routerless = tmp_path / "routerless.bin"
    weights = BU.load_bundle(workdir["pre"]).weights
    BU.save_bundle(str(routerless), weights=weights)
    assert main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--prompt", "x", "--routers", str(routerless)]) == 2
    capsys.readouterr()


def test_overlong_routed_prompt_exits_two(workdir, capsys):
    assert main(["infer", "--config", workdir["cfg"], "--model", workdir["pre"],
                 "--prompt", "x" * 64, "--routers", workdir["routers"]]) == 2
    err = capsys.readouterr().err
    assert "exceeds max_seq" in err and "Traceback" not in err


def test_numerical_errors_exit_three(workdir, tmp_path, capsys):
    poisoned = tmp_path / "nan.bin"
    weights = BU.load_bundle(workdir["pre"]).weights
    weights.head.data[0, 0] = np.nan
    BU.save_bundle(str(poisoned), weights=weights)
    assert main(["infer", "--config", workdir["cfg"], "--model", str(poisoned),
                 "--prompt", "abc"]) == 3
    capsys.readouterr()
