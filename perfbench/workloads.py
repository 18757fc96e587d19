"""Inputs, set-up, request blocks and output checks of the benchmark.

Every input is a function of the workload seed: the untrained default
12x64 model, the router bank, the task prompts, the long prompts and the
training pairs. The program only ever sees the generated inputs.

Three kinds of request make up the workloads, each a closed loop with one
client that waits for every reply before sending the next request:

* decode: a short task prompt generating NEW_TOKENS tokens with no
  early stop, once under each decode configuration, the order rotating
  from prompt to prompt so that drift on a shared box hits every
  configuration alike;
* prefill: a long prompt, routed, ending at its first token;
* train: a cycle of one phase-1 router step at band-tuning cadence
  (validation and the skip-fraction probe after it), then one phase-2
  adapter step.

Every request's output is checked outside its timed region; a request
whose output is wrong counts as failed. Request times are also scaled
to a fixed host speed by a reference kernel timed next to them (see
``Stats.host_factor``).
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from skiproute import bundle as BU
from skiproute import data as D
from skiproute import lora as L
from skiproute import model as M
from skiproute import router as R
from skiproute import tensor as T
from skiproute import tokenizer as TK
from skiproute import training as TR

DECODE_CONFIGS = ("full", "skip2", "skip4", "routed")
FIXED_SKIPS = {"full": (), "skip2": (6, 9), "skip4": (3, 5, 7, 9)}
# Criterion 2's bound on cache-versus-recompute logits.
LOGIT_TOL = 1e-4
BATCH = 16
NEW_TOKENS = 32
VAL_PAIRS = 16
PREFILL_POOL = 32
# Router score of a calibration prompt; see routed_bank.
SCORE = 0.05
DECODE_POOL = 12
# Units of each kind a run makes at least. Percentiles need ten samples
# beyond them: p90 of the decode steps and first tokens needs over a
# hundred, a train-step median 21. The decode floor is higher so that the
# ratios of a workload that is not about decoding still see twelve
# stretches of the run.
MIN_UNITS = {"decode": 12, "prefill": 128, "train": 21}
# A run makes whole rounds of the prompt pools, so that every seed sends
# each prompt, and so each prompt length, equally often.
ROUND = {"decode": DECODE_POOL, "prefill": PREFILL_POOL, "train": 1}
# Units per second of --seconds: what the program got through when the
# benchmark was written, on a shared 2-core x86 box with one BLAS thread.
UNITS_PER_S = {"decode": 1.7, "prefill": 30.0, "train": 2.5}
# The speed of the shared host drifts by up to two times over seconds and
# minutes as its other tenants come and go, so a whole run can sit in a
# slow or a fast stretch. Before each request, if REF_EVERY_S have passed
# since it last did, the benchmark times a fixed reference kernel of its
# own that does the request's kind of work, and it records with the
# request the factor nominal / median of the kernel's last REF_WINDOW
# times. Scaled by it, the request's times read as on the host at the
# speed where the kernel takes its nominal time, within an eighth of its
# median on the box the benchmark was written on. No change to the
# program touches the kernels, so such a change moves the scaled times
# in full.
# kind -> (rows of the kernel's input, passes over its six matrices,
# nominal seconds): one row for decode and prefill requests, whose
# numpy calls are small; a batch of rows for training steps, whose
# matrix products are not.
REF_KERNELS = {"infer": (1, 12, 3.2e-3), "train": (256, 4, 4.9e-3)}
REF_WINDOW = 3
REF_EVERY_S = 0.25
_REF_ROWS = np.random.default_rng(0).standard_normal((256, 64)).astype(np.float32)
_REF_MATS = np.random.default_rng(1).standard_normal((6, 64, 64)).astype(np.float32) / 8


class _Node:
    __slots__ = ("data", "parent")

    def __init__(self, data, parent=None):
        self.data, self.parent = data, parent


def _reference_kernel(rows: int, passes: int) -> None:
    """Work of the program's kind: an interpreted loop of numpy
    operations on ``rows`` 64-wide rows, each result a new object as on
    the library's tape, then plain dict updates. Matrix products alone
    follow the host's fast stretches less closely than a decode step does.
    """
    x = _Node(_REF_ROWS[:rows])
    for _ in range(passes):
        for m in _REF_MATS:
            y = _Node(x.data @ m, x)
            y = _Node(y.data / np.sqrt((y.data * y.data).mean() + 1e-6), y)
            e = np.exp(y.data - y.data.max())
            x = _Node(e / e.sum(), y)
    counts = {}
    for i in range(10000):
        counts[i & 255] = counts.get(i & 255, 0) + i


@dataclass(frozen=True)
class Sizes:
    """The inputs that set most of a run's cost besides its unit counts.

    The defaults are the benchmark's; its test shrinks them to stay quick.
    """

    prefill_lengths: tuple[int, int] = (32, 240)
    probe_prompts: int = 24


def plan(workload: str, seconds: int) -> dict[str, int]:
    """How many units of each request kind one run makes.

    A unit is a decode prompt (four requests), a prefill request or a
    training cycle. The workload's own kind scales with ``seconds``. Each
    run reports every end-to-end metric, so the other two kinds run too,
    at the smallest size whose percentiles the sample supports. The work
    is fixed by ``seconds`` rather than by the clock, so every count in a
    run repeats exactly for a given seed.
    """
    out = dict(MIN_UNITS)
    n = max(MIN_UNITS[workload], math.ceil(seconds * UNITS_PER_S[workload]))
    out[workload] = ROUND[workload] * math.ceil(n / ROUND[workload])
    return out


def schedule(counts: dict[str, int]) -> list[tuple[str, int]]:
    """Units of every kind spread evenly over the run, in one sequence.

    The speed of the shared host drifts over seconds; spreading each kind
    over the whole run lets every metric see the same mix of fast and
    slow stretches instead of one stretch each.
    """
    order = {kind: rank for rank, kind in enumerate(counts)}
    units = [(kind, j) for kind, n in counts.items() for j in range(n)]
    return sorted(units, key=lambda u: ((u[1] + 0.5) / counts[u[0]], order[u[0]]))


@dataclass
class Rig:
    """Everything a run needs, built by ``setup``."""

    seed: int
    config: M.ModelConfig
    weights: M.ModelWeights
    bank: R.RouterBank
    decode_prompts: list[list[int]]
    prefill_prompts: list[list[int]]
    train_pairs: list
    val_pairs: list
    probe_pairs: list
    train_config: TR.TrainConfig
    setup_ok: bool = True
    # first verified output per (kind, prompt index, configuration)
    verified: dict = field(default_factory=dict)


def routed_bank(config, weights, prompts, rng) -> R.RouterBank:
    """A seeded bank whose per-prompt skip sets vary but whose sizes do not.

    Each calibration prompt is given its own seeded set of two or three
    layers to skip, alternating, so the mean skip fraction is 2.5/12 (in
    the paper's 0.15-0.25 band) and does not drift with the seed. Router i
    is then the least-squares probe that scores each prompt's pooled hidden
    state at -SCORE if the prompt skips layer i and +SCORE if it runs it, so
    prefill thresholds each prompt onto its chosen side, about SCORE / 4
    away from 0.5. SCORE keeps the weight norms near those of a warm-started
    bank (a few units); much larger ones make the phase-1 L2 term big
    enough that float32 breaks the loss decomposition check.
    """
    n_layers = config.n_layers
    pooled = np.stack([TR.mean_hidden_per_layer(config, weights, [(p, b"")],
                                                config.max_seq)
                       for p in prompts])
    skips = [set(rng.choice(n_layers, size=2 + k % 2, replace=False).tolist())
             for k in range(len(prompts))]
    routers = []
    for i in range(n_layers):
        target = np.array([-SCORE if i in s else SCORE for s in skips])
        w = np.linalg.lstsq(pooled[:, i], target, rcond=None)[0]
        routers.append(R.Router(T.Tensor(w.astype(np.float32))))
    return R.RouterBank(routers)


def _long_prompts(rng, sizes: Sizes) -> list[list[int]]:
    lo, hi = sizes.prefill_lengths
    lengths = rng.permutation(np.linspace(lo, hi, PREFILL_POOL).round())
    return [TK.frame_prompt(bytes(rng.integers(97, 123, size=int(n) - 2,
                                               dtype=np.uint8)))
            for n in lengths]


def setup(seed: int, sizes: Sizes, bundle_path: str) -> Rig:
    """Build the inputs and the model, and round-trip them through a bundle."""
    streams = D.seeded_streams(seed, ["model", "routers", "prompts"])
    config = M.ModelConfig()
    built = M.init_model(config, streams["model"])
    train, val, test = D.generate_dataset(D.TaskSpec(
        kind="caesar-translate", n_train=2 * BATCH,
        n_val=VAL_PAIRS,
        n_test=DECODE_POOL + sizes.probe_prompts, seed=seed))
    decode = [p for p, _ in test[:DECODE_POOL]]
    bank = routed_bank(config, built, decode, streams["routers"])

    BU.save_bundle(bundle_path, weights=built, routers=bank)
    loaded = BU.load_bundle(bundle_path)
    written = list(built.parameters()) + bank.parameters()
    read = list(loaded.weights.parameters()) + loaded.routers.parameters()
    same = len(written) == len(read) and all(
        np.array_equal(a.data, b.data) for a, b in zip(written, read))

    tc = TR.TrainConfig(alpha=0.01, accum_steps=1, batch_size=BATCH,
                        max_epochs=1, eval_every=1, patience=10 ** 9,
                        seed=seed)
    return Rig(seed=seed, config=loaded.weights.config,
               weights=loaded.weights, bank=loaded.routers,
               decode_prompts=[TK.frame_prompt(p) for p in decode],
               prefill_prompts=_long_prompts(streams["prompts"], sizes),
               train_pairs=train, val_pairs=val,
               probe_pairs=test[DECODE_POOL:], train_config=tc,
               setup_ok=same)


# --------------------------------------------------------------- results


def scaled(samples, on: bool = True) -> list[float]:
    """Seconds of (seconds, host factor) samples, scaled or as measured."""
    return [t * f if on else t for t, f in samples]


@dataclass
class Stats:
    """Samples and counts of one measured pass.

    A timed sample is a pair: the seconds measured and the factor that
    scales them to the host speed of its kernel's nominal time.
    """

    attempted: int = 0
    failed: int = 0
    tpot: dict = field(default_factory=lambda: {c: [] for c in DECODE_CONFIGS})
    # skip-set step time over the full step time at the same position of
    # the same prompt, whose requests run within a second of each other
    step_ratio: dict = field(default_factory=lambda: {"skip2": [], "skip4": []})
    decode_tokens: int = 0
    decode_walls: list = field(default_factory=list)
    ttft: list = field(default_factory=list)
    prompt_tokens: int = 0
    phase1_steps: list = field(default_factory=list)
    lora_steps: list = field(default_factory=list)
    # per kernel kind, the seconds it took and when it last ran
    ref_s: dict = field(default_factory=lambda: {k: [] for k in REF_KERNELS})
    ref_at: dict = field(default_factory=lambda: {k: -math.inf for k in REF_KERNELS})

    def host_factor(self, kind: str) -> float:
        """The factor that scales the next ``kind`` request to the host
        speed of the kernel's nominal time, timing the kernel when due."""
        rows, passes, nominal = REF_KERNELS[kind]
        t0 = time.perf_counter()
        if t0 - self.ref_at[kind] >= REF_EVERY_S:
            _reference_kernel(rows, passes)
            self.ref_at[kind] = time.perf_counter()
            self.ref_s[kind].append(self.ref_at[kind] - t0)
        return nominal / statistics.median(self.ref_s[kind][-REF_WINDOW:])

    @property
    def busy(self) -> float:
        """Seconds spent waiting on the library, checks excluded."""
        return sum(sum(scaled(x, False)) for x in (
            self.decode_walls, self.ttft, self.phase1_steps, self.lora_steps))


def _fail(stats: Stats) -> None:
    traceback.print_exc(file=sys.stderr)
    stats.failed += 1


# ---------------------------------------------------------------- checks


def _top_two_gap(row: np.ndarray) -> float:
    a, b = np.partition(row, -2)[-2:]
    return float(b - a)


def _tokens_match(tokens, logits: np.ndarray) -> bool:
    """Greedy tokens against reference logits, one row per token.

    A token whose reference row has its top two logits within LOGIT_TOL
    of each other is a tie at the tested precision and does not count.
    """
    for tok, row in zip(tokens, logits):
        if int(np.argmax(row)) != tok and _top_two_gap(row) >= LOGIT_TOL:
            return False
    return True


def _full_logits(rig: Rig, ids) -> np.ndarray:
    with T.no_grad():
        return M.forward_full(rig.config, rig.weights, np.asarray(ids)[None, :]).data


def _routed_prefill_ok(rig: Rig, ids, decision, full: np.ndarray) -> bool:
    """Routed prefill logits match the full model's ``full``; the decision
    is the same as the request's and thresholds its own rho."""
    logits, _, again = R.prefill(rig.config, rig.weights, rig.bank,
                                 np.asarray(ids)[None, :])
    return (float(np.max(np.abs(logits.data - full))) < LOGIT_TOL
            and again == decision
            and decision.passed == tuple(r >= R.PASS_THRESHOLD
                                         for r in decision.rho))


def _decode_ok(rig: Rig, ids, tokens, skip) -> bool:
    """Greedy tokens against a recompute that never decodes incrementally.

    The prompt runs as one full-compute block, as in every configuration
    here, and then all generated tokens but the last as one more block
    under the decode skip set. A single block over the whole sequence
    under the skip set would be a different computation: the protocol's
    prompt K/V rows come from every layer.
    """
    cfg, w = rig.config, rig.weights
    cache = M.KVCache(cfg, decode_skip=skip)
    with T.no_grad():
        first = M.forward_full(cfg, w, np.asarray(ids)[None, :], cache=cache)
        rest = M.forward_full(cfg, w, np.asarray(tokens[:-1])[None, :],
                              skip_set=skip, cache=cache)
    ref = np.concatenate([first.data[0, -1:], rest.data[0]])
    return _tokens_match(tokens, ref)


def _check_once(rig: Rig, key, output, verify) -> bool:
    """Verify the first output for ``key``; later ones must equal it."""
    if key in rig.verified:
        return rig.verified[key] == output
    ok = verify()
    if ok:
        rig.verified[key] = output
    return ok


# ---------------------------------------------------------------- blocks


def decode_block(rig: Rig, stats: Stats, units: range, tracer,
                 n_new: int = NEW_TOKENS) -> None:
    cfg, w = rig.config, rig.weights
    for k in units:
        idx = k % len(rig.decode_prompts)
        ids = rig.decode_prompts[idx]
        steps = {}
        for j in range(len(DECODE_CONFIGS)):
            name = DECODE_CONFIGS[(k + j) % len(DECODE_CONFIGS)]
            stats.attempted += 1
            f = stats.host_factor("infer")
            try:
                with tracer.span("request.decode", name):
                    t0 = time.perf_counter()
                    if name == "routed":
                        res, decision = R.generate_with_routers(
                            cfg, w, rig.bank, ids, n_new)
                    else:
                        res = M.generate(cfg, w, ids, n_new,
                                         skip_set=FIXED_SKIPS[name],
                                         prefill_skip=())
                    wall = time.perf_counter() - t0
                with tracer.paused():
                    if name == "routed":
                        skip = decision.skip_set
                        ok = _check_once(
                            rig, ("decode", idx, name),
                            (tuple(res.tokens), decision),
                            lambda: _routed_prefill_ok(
                                rig, ids, decision, _full_logits(rig, ids))
                            and _decode_ok(rig, ids, res.tokens, skip))
                    else:
                        skip = frozenset(FIXED_SKIPS[name])
                        ok = _check_once(
                            rig, ("decode", idx, name), tuple(res.tokens),
                            lambda: _decode_ok(rig, ids, res.tokens, skip))
                    ok = ok and len(res.tokens) == n_new \
                        and len(res.decode_times) == n_new - 1
            except Exception:
                _fail(stats)
                continue
            stats.tpot[name].extend((t, f) for t in res.decode_times)
            # the ratios pair unscaled steps, which see one host speed
            steps[name] = res.decode_times
            stats.decode_tokens += len(res.tokens)
            stats.decode_walls.append((wall, f))
            stats.failed += not ok
        for name, ratios in stats.step_ratio.items():
            if name in steps and "full" in steps:
                ratios.extend(a / b for a, b in zip(steps[name], steps["full"]))


def prefill_block(rig: Rig, stats: Stats, units: range, tracer) -> None:
    cfg, w = rig.config, rig.weights
    for k in units:
        idx = k % len(rig.prefill_prompts)
        ids = rig.prefill_prompts[idx]
        stats.attempted += 1
        f = stats.host_factor("infer")
        try:
            with tracer.span("request.prefill", "routed"):
                t0 = time.perf_counter()
                res, decision = R.generate_with_routers(cfg, w, rig.bank, ids, 1)
                ttft = time.perf_counter() - t0

            def verify():
                full = _full_logits(rig, ids)
                return (_routed_prefill_ok(rig, ids, decision, full)
                        and _tokens_match(res.tokens, full[0, -1:]))

            with tracer.paused():
                ok = len(res.tokens) == 1 and _check_once(
                    rig, ("prefill", idx), (tuple(res.tokens), decision), verify)
        except Exception:
            _fail(stats)
            continue
        stats.ttft.append((ttft, f))
        stats.prompt_tokens += len(ids)
        stats.failed += not ok


def _copy_bank(bank: R.RouterBank) -> R.RouterBank:
    return R.RouterBank([R.Router(T.Tensor(r.weight.data.copy()))
                         for r in bank.routers])


def _finite(result: TR.TrainResult) -> bool:
    return result.rows != [] and all(
        math.isfinite(v) for r in result.rows
        for v in (r.ce, r.reg, r.pp, r.total, r.val_ce))


def train_block(rig: Rig, stats: Stats, units: range, tracer) -> None:
    """One phase-1 step with validation and probe, then one phase-2 step,
    per cycle; each cycle starts from the set-up's bank and fresh adapters."""
    cfg, w = rig.config, rig.weights
    for c in units:
        routers = _copy_bank(rig.bank)

        def probe() -> bool:
            # evaluate() calls this right after the step's validation pass,
            # which began when the optimizer step returned
            start = time.perf_counter()
            tracer.add_span("training.val",
                            tracer.last_end.get("training.Adam.step", start),
                            start)
            TR.measure_skip_fraction(cfg, w, routers, rig.probe_pairs)
            return False

        stats.attempted += 1
        f = stats.host_factor("train")
        try:
            with tracer.span("request.train", "phase1"):
                t0 = time.perf_counter()
                result = TR.train_routers(cfg, w, routers,
                                          rig.train_pairs[:BATCH], rig.val_pairs,
                                          rig.train_config, stop_check=probe)
                stats.phase1_steps.append((time.perf_counter() - t0, f))
        except Exception:
            _fail(stats)
            continue
        moved = all(not np.array_equal(a.weight.data, b.weight.data)
                    for a, b in zip(routers.routers, rig.bank.routers))
        stats.failed += result.steps != 1 or not _finite(result) or not moved

        adapters = L.init_adapters(w, rng=np.random.default_rng([rig.seed, c]))
        stats.attempted += 1
        f = stats.host_factor("train")
        try:
            with tracer.span("request.train", "lora"):
                t0 = time.perf_counter()
                result = TR.train_lora(cfg, w, routers, adapters,
                                       rig.train_pairs[BATCH:2 * BATCH],
                                       rig.val_pairs[:1], rig.train_config)
                stats.lora_steps.append((time.perf_counter() - t0, f))
        except Exception:
            _fail(stats)
            continue
        # B factors start at zero; one step must move every one of them
        moved = all(np.any(ad.b.data != 0) for _, ad in adapters.items())
        stats.failed += result.steps != 1 or not _finite(result) or not moved


BLOCKS = {"decode": decode_block, "prefill": prefill_block, "train": train_block}


def warmup(rig: Rig, tracer) -> None:
    """Fill lazy caches and first-call paths before anything is timed."""
    discarded = Stats()
    decode_block(rig, discarded, range(1), tracer, n_new=8)
    prefill_block(rig, discarded, range(2), tracer)
    train_block(rig, discarded, range(1), tracer)
    rig.verified.clear()

