"""Command-line front end for the full workflow.

Exit codes: 0 on success, 1 for usage mistakes, 2 for broken or missing
data (files, containers, experiment configs), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import bench as B
from . import metrics as X
from . import model as M
from . import oracle as O
from . import router as R
from . import training as TR
from .bundle import load_bundle, save_bundle
from .config import ExperimentConfig, load_experiment, write_default_config
from .data import generate_dataset
from .errors import BundleError, NumericalError, SkipRouteError
from .lora import adapted_project, init_adapters, merge
from .tokenizer import EOS, detokenize, frame_prompt


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _skip_list(text: str) -> frozenset:
    try:
        return frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad layer list {text!r}")


def _count(least: int):
    """An argparse type for an integer of at least ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


_positive, _non_negative = _count(1), _count(0)


def _real(accepts, requirement: str):
    """An argparse type for a number that ``accepts`` admits."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text!r}")
        return value
    return parse


_fraction = _real(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_non_negative_real = _real(lambda v: 0.0 <= v < math.inf, "be a finite number >= 0")


def _band(text: str) -> tuple[float, float]:
    """An argparse type for a skip band ``lo,hi`` with 0 <= lo < hi <= 1."""
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a band lo,hi: {text!r}")
    if not 0.0 <= lo < hi <= 1.0:
        raise argparse.ArgumentTypeError(f"band must satisfy 0 <= lo < hi <= 1, "
                                         f"got {text!r}")
    return lo, hi


# validation prompts the band probe reads, as in the quality-retention check
_BAND_PROBE_PROMPTS = 24

_SECTION_NAMES = {"weights": "model", "routers": "router", "adapters": "adapter"}


def _load(path: str, part: str, weights: Optional[M.ModelWeights] = None):
    """``part`` ("weights", "routers" or "adapters") of the bundle at
    ``path``, which ``load_bundle`` checks against ``weights``."""
    found = getattr(load_bundle(path, weights), part)
    if found is None:
        raise BundleError(f"{path} holds no {_SECTION_NAMES[part]} section")
    return found


def _max_new(exp: ExperimentConfig, override: Optional[int]) -> int:
    return override if override is not None else exp.task.max_len + 2


def _decode_text(tokens) -> str:
    return detokenize(tokens).decode("utf-8", errors="replace")


# ----------------------------------------------------------- subcommands


def cmd_init(args) -> int:
    import os
    if args.force or not os.path.exists(args.config):
        write_default_config(args.config)
        print(f"wrote {args.config}")
    exp = load_experiment(args.config)
    if args.model:
        seed = exp.train.seed if args.seed is None else args.seed
        weights = M.init_model(exp.model, np.random.default_rng(seed))
        save_bundle(args.model, weights=weights)
        print(f"initialized {exp.model.n_layers}-layer model -> {args.model}")
    return 0


def cmd_pretrain(args) -> int:
    exp = load_experiment(args.config)
    weights = _load(args.model, "weights")
    train, val, _ = generate_dataset(exp.task)
    stop_check = None
    if args.target_accuracy is not None:
        quality = O.dataset_exact_match(weights.config, weights, val,
                                        _max_new(exp, args.max_new))
        def stop_check():
            return quality(frozenset()) >= args.target_accuracy
    result = TR.train_model(weights.config, weights, train, val, exp.train,
                            log_path=args.log, stop_check=stop_check)
    save_bundle(args.out, weights=weights)
    print(f"pretrained for {result.steps} steps, "
          f"best val ce {result.best_val_ce:.4f} -> {args.out}")
    return 0


def cmd_train_router(args) -> int:
    exp = load_experiment(args.config)
    weights = _load(args.model, "weights")
    tc = exp.train if args.alpha is None else replace(exp.train, alpha=args.alpha)
    train, val, _ = generate_dataset(exp.task)
    if args.band is not None:
        probe = val[:_BAND_PROBE_PROMPTS]
        tuned = TR.tune_routers_to_band(weights.config, weights, train, val, tc,
                                        probe_pairs=probe, band=args.band,
                                        log_path=args.log)
        routers, result = tuned.routers, tuned.train
        print(f"tuned into band {args.band[0]:g}-{args.band[1]:g} in "
              f"{tuned.attempts} attempt(s): skip fraction "
              f"{tuned.skip_fraction:.4f} on {len(probe)} validation prompts")
    else:
        routers = R.init_routers(weights.config, dtype=weights.embedding.dtype)
        result = TR.train_routers(weights.config, weights, routers, train, val, tc,
                                  log_path=args.log)
    save_bundle(args.out, routers=routers)
    rho = result.rows[-1].mean_rho if result.rows else ()
    print(f"trained routers for {result.steps} steps, "
          f"mean rho {np.mean(rho):.3f} -> {args.out}")
    return 0


def cmd_train_lora(args) -> int:
    exp = load_experiment(args.config)
    weights = _load(args.model, "weights")
    routers = _load(args.routers, "routers", weights)
    adapters = init_adapters(
        weights, rank=exp.lora.rank, lora_alpha=exp.lora.lora_alpha,
        rng=np.random.default_rng(exp.train.seed))
    train, val, _ = generate_dataset(exp.task)
    result = TR.train_lora(weights.config, weights, routers, adapters, train,
                           val, exp.train, log_path=args.log, dropout=exp.lora.dropout)
    save_bundle(args.out, adapters=adapters)
    print(f"trained adapters for {result.steps} steps, "
          f"best val ce {result.best_val_ce:.4f} -> {args.out}")
    return 0


def cmd_merge(args) -> int:
    weights = _load(args.model, "weights")
    adapters = _load(args.adapters, "adapters", weights)
    merged = merge(weights, adapters)
    save_bundle(args.out, weights=merged)
    print(f"merged {len(adapters.adapters)} adapters -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    exp = load_experiment(args.config)
    weights = _load(args.model, "weights")
    config = weights.config
    project = None
    if args.adapters:
        project = adapted_project(_load(args.adapters, "adapters", weights))
    prompt = frame_prompt(args.prompt.encode("utf-8"))
    rng = np.random.default_rng(exp.task.seed)
    budget = _max_new(exp, args.max_new)
    if args.routers:
        routers = _load(args.routers, "routers", weights)
        result, decision = R.generate_with_routers(
            config, weights, routers, prompt, budget, sampler=exp.sampler,
            rng=rng, stop_at=EOS, project=project)
        print(_decode_text(result.tokens))
        skipped = ",".join(str(i) for i in sorted(decision.skip_set))
        print(f"skipped: {skipped or '-'} "
              f"({len(decision.skip_set)}/{config.n_layers} layers, "
              f"margin {decision.margin:.3g})")
    else:
        result = M.generate(config, weights, prompt, budget,
                            sampler=exp.sampler, skip_set=args.skip,
                            rng=rng, stop_at=EOS, project=project)
        print(_decode_text(result.tokens))
    return 0


def cmd_bench(args) -> int:
    exp = load_experiment(args.config)
    weights = _load(args.model, "weights")
    config = weights.config
    _, _, test = generate_dataset(exp.task)
    prompt = frame_prompt(args.prompt.encode("utf-8") if args.prompt
                          else test[0][0])
    budget = max(2, _max_new(exp, args.max_new))

    runs = {"full": lambda: M.generate(config, weights, prompt, budget)}
    if args.skip:
        runs["skip"] = lambda: M.generate(config, weights, prompt, budget,
                                          skip_set=args.skip)
    if args.routers:
        routers = _load(args.routers, "routers", weights)
        runs["routed"] = lambda: R.generate_with_routers(
            config, weights, routers, prompt, budget)[0]
    report = B.LatencyReport(B.measure_tpot(runs, n_runs=args.runs,
                                            warmup=args.warmup))
    for name, r in report.entries.items():
        rel = report.relative(name, "full")
        print(f"{name}: mean {r.mean * 1e3:.3f} ms/token, "
              f"median {r.median * 1e3:.3f} ms/token "
              f"(IQR {r.iqr * 1e3:.3f}), x{rel:.3f} vs full")
    if args.out:
        B.write_latency_csv(args.out, report, baseline="full")
    return 0


def cmd_oracle(args) -> int:
    exp = load_experiment(args.config)
    weights = _load(args.model, "weights")
    config = weights.config
    _, _, test = generate_dataset(exp.task)
    pairs = test[:args.max_prompts]
    budget = _max_new(exp, args.max_new)
    if args.quality == "golden":
        quality = O.golden_exact_match(
            config, weights, [frame_prompt(p) for p, _ in pairs], budget)
    elif args.quality == "dataset":
        quality = O.dataset_exact_match(config, weights, pairs, budget)
    else:
        quality = O.negative_perplexity(config, weights, pairs,
                                        config.max_seq)
    result = O.brute_force_oracle(config.n_layers, quality, args.epsilon)
    w = result.winner
    print(f"winner: mask {w.mask_string(config.n_layers)}, "
          f"{w.layers_used}/{config.n_layers} layers, quality {w.quality:.4f} "
          f"(full {result.full_quality:.4f}, threshold {result.threshold:.4f})")
    if args.out:
        O.write_oracle_csv(args.out, result)
    return 0


def cmd_stats(args) -> int:
    if args.from_raw:
        decisions = X.read_decision_log(args.from_raw)
    else:
        exp = load_experiment(args.config)
        weights = _load(args.model, "weights")
        routers = _load(args.routers, "routers", weights)
        _, _, test = generate_dataset(exp.task)
        decisions = TR.probe_decisions(weights.config, weights, routers,
                                       test[:args.max_prompts])
        if args.dump:
            X.write_decision_log(args.dump, decisions)
    stats = X.collect_skip_stats(decisions)
    for i, f in enumerate(stats.layer_skip_fraction):
        print(f"layer {i}: skipped {f:.4f}")
    print(f"average: {stats.average_skip_fraction:.4f} "
          f"over {stats.n_prompts} prompts, min margin {stats.margin_min:.3g}")
    q1, q2, q3 = stats.margin_quartiles
    print(f"distinct skip sets: {stats.n_skip_sets}, "
          f"margin quartiles {q1:.3g} / {q2:.3g} / {q3:.3g}")
    return 0


def cmd_compare(args) -> int:
    exp = load_experiment(args.config)
    weights = _load(args.model, "weights")
    config = weights.config
    routers = _load(args.routers, "routers", weights)
    project = None
    if args.adapters:
        project = adapted_project(_load(args.adapters, "adapters", weights))
    _, _, test = generate_dataset(exp.task)
    pairs = test[:args.max_prompts]
    budget = max(2, _max_new(exp, args.max_new))
    m = config.n_layers

    def run_routed(prompt_ids):
        return R.generate_with_routers(config, weights, routers, prompt_ids,
                                       budget, stop_at=EOS, project=project)

    if args.retained is not None:
        # a count the model cannot hold is refused before any prompt is routed
        O.unified_skip_layers(m, args.retained)
    prompts = [frame_prompt(p) for p, _ in pairs]
    routed_outputs = []
    skip_counts = []
    for prompt_ids in prompts:
        result, decision = run_routed(prompt_ids)
        routed_outputs.append(result.tokens)
        skip_counts.append(len(decision.skip_set))

    if args.retained is not None:
        retained = args.retained
    else:
        retained = int(np.clip(m - round(float(np.mean(skip_counts))), 2, m))
    unified_skip = O.unified_skip_layers(m, retained)

    # full and unified quality run the base model; routed runs with --adapters
    methods = {
        "full": O.greedy_outputs(config, weights, prompts, budget),
        "routed": routed_outputs,
        "unified": O.greedy_outputs(config, weights, prompts, budget,
                                    unified_skip),
    }

    bench_prompt = prompts[0]
    # every configuration runs with the same projection, so the ratios
    # measure skipping alone and not the adapters' cost
    report = B.LatencyReport(B.measure_tpot({
        "full": lambda: M.generate(config, weights, bench_prompt, budget,
                                   project=project),
        "routed": lambda: run_routed(bench_prompt)[0],
        "unified": lambda: M.generate(config, weights, bench_prompt, budget,
                                      skip_set=unified_skip, project=project),
    }, n_runs=args.runs, warmup=args.warmup))

    rows = []
    for name, outputs in methods.items():
        hits = sum(detokenize(out) == resp
                   for out, (_, resp) in zip(outputs, pairs))
        bleu = float(np.mean([
            X.bleu_n(list(detokenize(out)), list(resp), 1)
            for out, (_, resp) in zip(outputs, pairs)]))
        r = report.entries[name]
        rel = report.relative(name, "full")
        rows.append((name, hits / len(pairs), bleu, r.mean, r.median, rel))
        print(f"{name}: accuracy {hits / len(pairs):.3f}, bleu1 {bleu:.3f}, "
              f"tpot x{rel:.3f} vs full (median {r.median * 1e3:.3f} ms, "
              f"IQR {r.iqr * 1e3:.3f} ms)")
    print(f"unified baseline kept {retained}/{m} layers "
          f"(skips {sorted(unified_skip)})")

    if args.out:
        import csv as _csv
        with open(args.out, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["method", "accuracy", "bleu1", "mean_tpot",
                        "median_tpot", "relative_tpot"])
            w.writerows(rows)
    return 0


# -------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="skiproute",
                     description="Input-adaptive transformer layer skipping")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="experiment INI file")
        return p

    p = add("init", cmd_init, "write a default experiment file / fresh model")
    p.add_argument("--model", help="also initialize weights to this bundle")
    p.add_argument("--seed", type=int, help="override the init seed")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing experiment file")

    p = add("pretrain", cmd_pretrain, "train the base model on the task")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="CSV training log")
    p.add_argument("--target-accuracy", type=_fraction,
                   help="stop once validation exact-match reaches this")
    p.add_argument("--max-new", type=_positive)

    p = add("train-router", cmd_train_router, "phase 1: fit the skip routers")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.add_argument("--alpha", type=_non_negative_real,
                   help="override the skip pressure")
    p.add_argument("--band", type=_band,
                   help="warm-start the routers and tune them until the skip "
                        "fraction probed on the validation split lands in "
                        "lo,hi, e.g. 0.15,0.25")

    p = add("train-lora", cmd_train_lora, "phase 2: fit low-rank compensation")
    p.add_argument("--model", required=True)
    p.add_argument("--routers", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")

    p = add("merge", cmd_merge, "fold adapters into dense weights")
    p.add_argument("--model", required=True)
    p.add_argument("--adapters", required=True)
    p.add_argument("--out", required=True)

    p = add("infer", cmd_infer, "generate from a prompt")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--adapters", help="apply low-rank adapters")
    skipping = p.add_mutually_exclusive_group()
    skipping.add_argument("--routers", help="route layer skipping per prompt")
    skipping.add_argument("--skip", type=_skip_list, default=frozenset(),
                          help="layers to skip after a full prefill, e.g. 3,8")
    p.add_argument("--max-new", type=_positive)

    p = add("bench", cmd_bench, "measure decode time per token")
    p.add_argument("--model", required=True)
    p.add_argument("--routers")
    p.add_argument("--skip", type=_skip_list, default=frozenset())
    p.add_argument("--prompt")
    p.add_argument("--runs", type=_positive, default=5)
    p.add_argument("--warmup", type=_non_negative, default=2)
    p.add_argument("--max-new", type=_positive)
    p.add_argument("--out", help="CSV latency report")

    p = add("oracle", cmd_oracle, "exhaustive layer-subsequence search")
    p.add_argument("--model", required=True)
    p.add_argument("--epsilon", type=_fraction, default=0.0)
    p.add_argument("--quality", choices=("golden", "dataset", "perplexity"),
                   default="golden")
    p.add_argument("--max-prompts", type=_positive, default=8)
    p.add_argument("--max-new", type=_positive)
    p.add_argument("--out", help="CSV with the Pareto front and winner")

    p = add("stats", cmd_stats, "aggregate per-prompt skip decisions")
    p.add_argument("--model")
    p.add_argument("--routers")
    p.add_argument("--from-raw", help="re-aggregate a raw decision dump")
    p.add_argument("--dump", help="write the raw per-prompt decisions")
    p.add_argument("--max-prompts", type=_positive, default=64)

    p = add("compare", cmd_compare, "routed vs evenly spaced skipping")
    p.add_argument("--model", required=True)
    p.add_argument("--routers", required=True)
    p.add_argument("--adapters")
    p.add_argument("--retained", type=_count(2),
                   help="layers the spaced baseline keeps (default: match "
                        "the routed budget)")
    p.add_argument("--max-prompts", type=_positive, default=16)
    p.add_argument("--runs", type=_positive, default=5)
    p.add_argument("--warmup", type=_non_negative, default=2)
    p.add_argument("--max-new", type=_positive)
    p.add_argument("--out", help="CSV with quality and latency per method")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats" and not args.from_raw \
            and not (args.model and args.routers):
        parser.error("stats needs either --from-raw or --model and --routers")
    try:
        return args.fn(args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (SkipRouteError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
