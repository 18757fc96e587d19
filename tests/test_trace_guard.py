"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by name for a ``--trace 1`` run. Installing it must find every name it
wraps, and uninstalling it must put every original back."""

import importlib.util
from pathlib import Path

import skiproute
import skiproute.bundle as BU
import skiproute.data as D
import skiproute.lora as L
import skiproute.model as M
import skiproute.router as R
import skiproute.tensor as T
import skiproute.training as TR

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
OWNERS = (M, R, T, TR, L, D, BU, T.Tensor, TR.Adam)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    before = {id(owner): dict(vars(owner)) for owner in OWNERS}
    tracer = _load_spans().Tracer()
    try:
        tracer.install(skiproute)
        assert tracer._patches
        for owner, attr, _ in tracer._patches:
            assert id(owner) in before, (owner, attr)
            assert getattr(owner, attr) is not before[id(owner)][attr], attr
    finally:
        tracer.uninstall()
    for owner in OWNERS:
        old, now = before[id(owner)], dict(vars(owner))
        assert now.keys() == old.keys(), owner
        assert [k for k in old if now[k] is not old[k]] == [], owner
