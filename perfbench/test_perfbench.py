"""The benchmark's own test: every workload at a tiny size, fixed seed.

Run from the repository root:

    python3 -m pytest perfbench

It checks that a run prints every metric BENCHMARK.json names, with its
unit, that the traced counts repeat exactly from run to run, and that the
benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_library()
import workloads as W  # noqa: E402  (needs the library on the path)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Short long-prompts and a small probe keep the test quick; the sample
# floors that let every percentile be reported stay as they are.
TINY = W.Sizes(prefill_lengths=(8, 24), probe_prompts=4)
SEED = 7


def _run(capsys, workload: str, trace: int) -> tuple[dict, list[str]]:
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "1", "--trace", str(trace)], sizes=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines[:-1]


def test_end_to_end_metrics_printed_with_units(capsys):
    # At --seconds 1 every workload runs each request kind at its floor, so
    # the untraced runs of all workloads are the same run; one covers them.
    assert len({tuple(W.plan(w, 1).items()) for w in WORKLOADS}) == 1
    result, lines = _run(capsys, WORKLOADS[0], 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (n=" in line
                   for line in lines), name
    assert any(line.startswith("metric failed_frac = 0.0 ") for line in lines)
    assert any(line.startswith("env nproc=") and "numpy=" in line
               and "blas=" in line and f"seed={SEED}" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_exactly(capsys, workload):
    first, lines = _run(capsys, workload, 1)
    second, _ = _run(capsys, workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"layer {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert first["correct"] and second["correct"]
    counts = {k for k, u in want.items() if u not in ("ms", "%")}
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    m = first["metrics"]
    if workload == "decode":
        assert [m[f"model.layers_run_per_step.{c}"]["value"]
                for c in ("full", "skip2", "skip4")] == [12, 10, 8]
        assert 0.15 <= m["router.skip_fraction"]["value"] <= 0.25
    if workload != "train":
        assert m["lora.adapted_matmul.calls"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "decode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
