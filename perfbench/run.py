"""skiproute benchmark: decode, prefill and train workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric instead, measured by a traced pass over the same main
block, and the spans are written to ``perfbench/out/``. The lines before
it name each metric with its unit and sample count, and each median and
rate as measured beside its value scaled to a fixed host speed
(``workloads.REF_KERNELS``). METRICS.md says which
per-layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decode", "prefill", "train")
# Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 9


def _import_library():
    """Import skiproute from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "skiproute" / "__init__.py").is_file():
        raise SystemExit(f"no skiproute sources under {src}")
    sys.path.insert(0, str(src))
    import skiproute
    if Path(skiproute.__file__).resolve().parent != src / "skiproute":
        raise SystemExit(f"skiproute was imported from {skiproute.__file__}")
    return skiproute


def _describe_environment(seed: int) -> None:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={sys.version.split()[0]} numpy={np.__version__} "
          f"blas={blas.get('name')} {blas.get('version')} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} seed={seed}")


def _describe_host(ref_s) -> None:
    import numpy as np
    import workloads as W
    for kind, times in ref_s.items():
        if times:  # a traced block times one kind of request only
            ms = 1e3 * np.asarray(times)
            print(f"host {kind} kernel ms: p10={np.percentile(ms, 10):.3f} "
                  f"p50={np.median(ms):.3f} p90={np.percentile(ms, 90):.3f} "
                  f"(n={ms.size}), nominal {1e3 * W.REF_KERNELS[kind][2]:.3f}")


def _pct(xs, q):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    import numpy as np
    if not xs:
        return None
    v = float(np.percentile(xs, q))
    return v if sum(x > v for x in xs) >= 10 else None


def _div(a, b):
    return a / b if a is not None and b else None


def end_to_end(stats, setup_times, scale: bool = True
               ) -> list[tuple[str, float | None, str, int]]:
    """(name, value, unit, sample count) for every end-to-end metric.

    Medians and rates of requests are scaled to the host speed of the
    reference kernels (as measured when ``scale`` is false). The p90s and
    set-up are as measured: a p90 falls in the host's slow stretches, and
    on the box the benchmark was written on scaling widened the p90s'
    run-to-run spread; set-up's work matches neither kernel.
    """
    from workloads import scaled

    def ms(samples):
        return [1e3 * t for t in scaled(samples, scale)]

    def raw_ms(samples):
        return [1e3 * t for t in scaled(samples, False)]

    rows = [("setup_s", statistics.median(setup_times), "s", len(setup_times))]
    for name, cfg in (("tpot_full_ms", "full"), ("tpot_routed_ms", "routed")):
        n = len(stats.tpot[cfg])
        rows += [(f"{name}.p50", _pct(ms(stats.tpot[cfg]), 50), "ms", n),
                 (f"{name}.p90", _pct(raw_ms(stats.tpot[cfg]), 90), "ms", n)]
    for cfg, ratios in stats.step_ratio.items():
        rows.append((f"tpot_ratio.{cfg}", _pct(ratios, 50), "ratio", len(ratios)))
    ttft = ms(stats.ttft)
    rows += [
        ("decode_tok_s",
         _div(stats.decode_tokens, sum(scaled(stats.decode_walls, scale))), "1/s",
         stats.decode_tokens),
        ("ttft_ms.p50", _pct(ttft, 50), "ms", len(ttft)),
        ("ttft_ms.p90", _pct(raw_ms(stats.ttft), 90), "ms", len(ttft)),
        ("prefill_tok_s", _div(stats.prompt_tokens, 1e-3 * sum(ttft)), "1/s",
         stats.prompt_tokens),
        ("train_step_ms.p50", _pct(ms(stats.phase1_steps), 50), "ms",
         len(stats.phase1_steps)),
        ("lora_step_ms.p50", _pct(ms(stats.lora_steps), 50), "ms",
         len(stats.lora_steps)),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    ]
    return rows


def per_layer(tr, stats, overhead_pct) -> list[tuple[str, float, str]]:
    """(name, value, unit) for every per-layer metric of the traced pass."""
    from spans import TENSOR_OPS

    def ratio(a, b):
        return a / b if b else 0.0

    rows = [
        ("model.decode_step.ms", tr.mean_ms("model.decode_step"), "ms"),
        ("model.decode_fixed.ms", tr.mean_ms("model.decode_fixed"), "ms"),
        ("model.sample_token.ms", tr.mean_ms("model.sample_token"), "ms"),
        ("model.forward_full.ms", tr.mean_ms("model.forward_full", category=""), "ms"),
    ]
    for cat in ("prefill", "decode", "train"):
        rows += [(f"model.layer_branch.{cat}.ms",
                  tr.mean_ms("model.layer_branch", category=cat), "ms"),
                 (f"model.layer_branch.{cat}.calls",
                  tr.calls("model.layer_branch", category=cat), "count")]
    for cfg in ("full", "skip2", "skip4", "routed"):
        rows.append((f"model.layers_run_per_step.{cfg}",
                     ratio(tr.calls("model.layer_branch", category="decode", tag=cfg),
                           tr.calls("model.decode_step", tag=cfg)), "count"))
    rows.append(("model.tokens_generated", stats.decode_tokens + len(stats.ttft),
                 "count"))

    decisions = [d for d in tr.decisions if d[0] == "main"]
    rows += [
        ("router.prefill.ms", tr.mean_ms("router.prefill"), "ms"),
        ("router.router_probability.ms", tr.mean_ms("router.router_probability"), "ms"),
        ("router.skip_fraction",
         statistics.fmean(d[1] for d in decisions) if decisions else 0.0, "fraction"),
        ("router.margin_min", min((d[2] for d in decisions), default=0.0), "prob"),
    ]
    for op in TENSOR_OPS:
        rows += [(f"tensor.{op}.calls", tr.calls(f"tensor.{op}"), "count"),
                 (f"tensor.{op}.ms", tr.mean_ms(f"tensor.{op}"), "ms")]
    rows += [
        ("tensor.objects_per_decode_step",
         ratio(tr.calls("tensor.objects", category="decode"),
               tr.calls("model.decode_step")), "count"),
        ("tensor.backward.ms", tr.mean_ms("tensor.backward"), "ms"),
        ("training.soft_forward.ms", tr.mean_ms("router.soft_forward"), "ms"),
        ("training.loss_total.ms", tr.mean_ms("training.loss_total"), "ms"),
        ("training.backward.ms",
         ratio(tr.mean_ms("tensor.backward") * tr.calls("tensor.backward"),
               tr.calls("training.Adam.step")), "ms"),
        ("training.adam.ms", tr.mean_ms("training.Adam.step"), "ms"),
        ("training.probe.ms", tr.mean_ms("training.measure_skip_fraction"), "ms"),
        ("training.val.ms", tr.mean_ms("training.val"), "ms"),
        ("lora.adapted_matmul.ms", tr.mean_ms("lora.adapted_matmul"), "ms"),
        ("lora.adapted_matmul.calls", tr.calls("lora.adapted_matmul"), "count"),
        ("data.encode_batch.ms", tr.mean_ms("data.encode_batch"), "ms"),
        ("bundle.save_bundle.ms", tr.mean_ms("bundle.save_bundle", phase="setup"), "ms"),
        ("bundle.load_bundle.ms", tr.mean_ms("bundle.load_bundle", phase="setup"), "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
    return rows


def _result(correct, attempted, failed, rows) -> str:
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, *_ in rows
               if value is not None}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None, sizes=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    sr = _import_library()
    import workloads as W
    from spans import Tracer

    sizes = sizes or W.Sizes()
    _describe_environment(args.seed)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    bundle_path = str(out_dir / f"setup-{os.getpid()}.bin")
    blocks = W.plan(args.workload, args.seconds)
    print(f"plan workload={args.workload} seconds={args.seconds} "
          f"decode_prompts={blocks['decode']} prefill_requests={blocks['prefill']} "
          f"train_cycles={blocks['train']} new_tokens={W.NEW_TOKENS} "
          f"closed_loop_clients=1")

    tracer = Tracer()
    setup_times = []
    setup_failed = 0
    try:
        for _ in range(1 if args.trace else SETUP_REPS):
            t0 = time.perf_counter()
            if args.trace:
                with tracer.active(sr, "setup"):
                    rig = W.setup(args.seed, sizes, bundle_path)
            else:
                rig = W.setup(args.seed, sizes, bundle_path)
            setup_times.append(time.perf_counter() - t0)
            if not rig.setup_ok:
                setup_failed += 1
                print("setup: bundle round trip changed the weights", file=sys.stderr)
    finally:
        if os.path.exists(bundle_path):
            os.remove(bundle_path)
    W.warmup(rig, tracer)

    if not args.trace:
        stats = W.Stats()
        for kind, j in W.schedule(blocks):
            W.BLOCKS[kind](rig, stats, range(j, j + 1), tracer)
        rows = end_to_end(stats, setup_times)
        unscaled = end_to_end(stats, setup_times, scale=False)
        busy = {"decode": sum(W.scaled(stats.decode_walls, False)),
                "prefill": sum(W.scaled(stats.ttft, False)),
                "train": sum(W.scaled(stats.phase1_steps + stats.lora_steps, False))}
        print("busy_s " + " ".join(
            f"{kind}={t:.2f} ({100 * t / stats.busy:.0f}%)" for kind, t in busy.items()))
        _describe_host(stats.ref_s)
        attempted = stats.attempted + len(setup_times)
        failed = stats.failed + setup_failed
        for (name, value, unit, n), (_, measured, _, _) in zip(rows, unscaled):
            shown = "unreported: fewer than ten samples beyond" if value is None \
                else f"{value!r} {unit}"
            as_measured = f", unscaled {measured!r}" if measured != value else ""
            print(f"metric {name} = {shown} (n={n}{as_measured})")
        print(f"metric failed_frac = {failed / attempted!r} fraction "
              f"({failed} of {attempted} operations)")
        print(_result(failed == 0, attempted, failed, rows))
        return 0

    # Traced run: every unit of the main block twice in a row, once untraced
    # and once traced, the order alternating from unit to unit so that drift
    # of the host's speed falls on both passes alike. The ratio of their
    # busy times is the tracing overhead.
    main_block = W.BLOCKS[args.workload]
    plain, traced = W.Stats(), W.Stats()
    for j in range(blocks[args.workload]):
        for on in ((False, True) if j % 2 == 0 else (True, False)):
            if on:
                with tracer.active(sr, "main"):
                    main_block(rig, traced, range(j, j + 1), tracer)
            else:
                main_block(rig, plain, range(j, j + 1), tracer)
    overhead = 100.0 * (traced.busy / plain.busy - 1.0)
    _describe_host({k: plain.ref_s[k] + traced.ref_s[k] for k in plain.ref_s})
    print(f"overhead busy_s: untraced {plain.busy!r}, traced {traced.busy!r} "
          f"({overhead:+.1f}%)")
    for (name, u, unit, _), (_, t, _, _) in zip(end_to_end(plain, setup_times),
                                                end_to_end(traced, setup_times)):
        if u is not None and t is not None and name not in ("setup_s", "peak_rss_mb"):
            print(f"overhead {name}: untraced {u!r} {unit}, traced {t!r} {unit} "
                  f"({100.0 * (t / u - 1.0):+.1f}%)")
    rows = per_layer(tracer, traced, overhead)
    attempted = plain.attempted + traced.attempted + len(setup_times)
    failed = plain.failed + traced.failed + setup_failed
    for name, value, unit in rows:
        print(f"layer {name} = {value!r} {unit}")
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed,
                                   "seconds": args.seconds,
                                   "overhead_pct": overhead})
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    print(_result(failed == 0, attempted, failed, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
