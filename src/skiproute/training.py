"""The three-term loss and the training loops for every phase.

Phase 1 trains the routers through the soft forward with the base model
frozen; Phase 2 trains low-rank adapters with the routers frozen and the
skip penalty divided down. A plain language-modeling loop is also provided
to give the toy model something worth skipping layers of. All three share
one engine: Adam with cosine-decayed learning rate, gradient accumulation,
periodic validation, and patience-based early stopping on validation
cross entropy alone.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from . import model as M
from . import router as R
from . import tensor as T
from .data import Batch, Pair, encode_batch, iter_minibatches, seeded_streams
from .errors import ConfigError, DatasetError, NumericalError
from .lora import AdapterSet, adapted_project
from .model import ModelConfig, ModelWeights
from .router import RouterBank
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.01
    alpha: float = 0.0
    lr_min: float = 1e-4
    lr_max: float = 3e-4
    accum_steps: int = 5
    patience: int = 4
    max_epochs: int = 50
    batch_size: int = 16
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0 or self.alpha < 0:
            raise ConfigError("loss coefficients must be non-negative")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.accum_steps < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ConfigError("accumulation, batch size and eval cadence must be positive")
        if not 0 <= self.lr_min <= self.lr_max:
            raise ConfigError(f"bad learning-rate bounds [{self.lr_min}, {self.lr_max}]")
        if self.max_epochs < 1:
            raise ConfigError("need at least one epoch")


PHASE2_DIVISOR = 3.0


def cosine_lr(step: int, total_steps: int, lr_min: float, lr_max: float) -> float:
    """lr_max at step 0 decaying to lr_min at the final step."""
    t = min(step, total_steps) / max(total_steps, 1)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t))


# The most elements one Adam update works over at once: its three
# temporaries (gathered gradients, update, denominator) then stay under
# 3 · 32768 entries, 384 KB in float32, however large the model. A larger
# parameter is updated on its own.
ADAM_BUCKET = 1 << 15


def _runs_with_grad(members: list):
    """The runs of consecutive bucket members whose parameter has a gradient."""
    run = []
    for member in members:
        if member[0].grad is not None:
            run.append(member)
        elif run:
            yield run
            run = []
    if run:
        yield run


class Adam:
    """Adaptive-moment optimizer over an explicit parameter list.

    The moments of all parameters of one dtype live in one flat buffer
    each; ``m`` and ``v`` hold per-parameter views of them, in the
    parameters' order and shapes. The buffer is cut into buckets of
    consecutive parameters of at most ``ADAM_BUCKET`` elements (a larger
    parameter alone), and a step updates each run of consecutive parameters
    with a gradient in one bucket with one pass of the update's operations,
    instead of one pass per parameter. Every operation is elementwise, so
    each entry is rounded exactly as the per-parameter update rounds it."""

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        if not self.params:
            raise ConfigError("optimizer needs at least one parameter")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        # the positions of the parameters of each dtype, in order
        groups: dict = {}
        for i, p in enumerate(self.params):
            groups.setdefault(p.dtype, []).append(i)
        self.m: list = [None] * len(self.params)
        self.v: list = [None] * len(self.params)
        # each bucket: its dtype's flat m and v, and (parameter, start, end)
        # per member, the member's span of them
        self._buckets: list = []
        for dtype, members in groups.items():
            total = sum(self.params[i].size for i in members)
            flat_m, flat_v = np.zeros(total, dtype=dtype), np.zeros(total, dtype=dtype)
            bucket, lo = [], 0
            for i in members:
                p = self.params[i]
                hi = lo + p.size
                self.m[i] = flat_m[lo:hi].reshape(p.shape)
                self.v[i] = flat_v[lo:hi].reshape(p.shape)
                if bucket and hi - bucket[0][1] > ADAM_BUCKET:
                    self._buckets.append((flat_m, flat_v, bucket))
                    bucket = []
                bucket.append((p, lo, hi))
                lo = hi
            self._buckets.append((flat_m, flat_v, bucket))

    def step(self, lr: float) -> None:
        """One update at learning rate ``lr`` (a Python float, so every
        operation rounds in the parameter's dtype). A parameter without a
        gradient keeps its data and moments. For each run of parameters
        with one, two temporaries beside the gathered gradients serve every
        step of ``p -= lr·m̂ / (√v̂ + eps)``, each rounded in the order of
        the written expression."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for flat_m, flat_v, members in self._buckets:
            for run in _runs_with_grad(members):
                self._update(flat_m, flat_v, run, lr, c1, c2)

    def _update(self, flat_m: np.ndarray, flat_v: np.ndarray, run: list, lr: float,
                c1: float, c2: float) -> None:
        """The update of one run of a bucket's parameters; its temporaries
        go when it returns."""
        b1, b2 = self.beta1, self.beta2
        lo, hi = run[0][1], run[-1][2]
        m, v = flat_m[lo:hi], flat_v[lo:hi]
        g = np.concatenate([p.grad.reshape(-1) for p, _, _ in run], dtype=m.dtype)
        upd = np.multiply(g, 1 - b1)
        m *= b1
        m += upd
        np.multiply(g, 1 - b2, out=upd)
        upd *= g
        v *= b2
        v += upd
        den = np.divide(v, c2)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, c1, out=upd)
        upd *= lr
        upd /= den
        for p, a, b in run:
            p.data -= upd[a - lo:b - lo].reshape(p.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass(frozen=True)
class LossBreakdown:
    """The loss and its three ingredients, kept on the tape for backward."""

    ce: Tensor
    reg: Tensor
    pp: Tensor
    total: Tensor
    lam: float
    alpha_eff: float

    def verify(self) -> None:
        ce, reg, pp = self.ce.item(), self.reg.item(), self.pp.item()
        want = ce + self.lam * reg + self.alpha_eff * pp
        if not math.isfinite(self.total.item()):
            raise NumericalError(
                f"non-finite loss: ce={ce}, reg={reg}, pp={pp}")
        # the terms are scaled and summed in their own dtypes: allow a few
        # ulps of the coarsest at the terms' magnitude (three roundings, and
        # lam and alpha rounded)
        eps = max(float(np.finfo(t.dtype).eps) for t in (self.ce, self.reg, self.pp, self.total))
        bound = 4 * eps * (abs(ce) + self.lam * abs(reg) + self.alpha_eff * abs(pp))
        if abs(self.total.item() - want) > bound:
            raise NumericalError(
                f"loss decomposition broke: total={self.total.item()} vs {want}")


def loss_total(logits: Tensor, targets: np.ndarray, ignore_mask: np.ndarray,
               routers: Optional[RouterBank], rhos: Sequence[Tensor],
               lam: float, alpha_eff: float) -> LossBreakdown:
    """ce on unmasked targets + lam * router l2 + alpha_eff * summed rho."""
    ce = T.cross_entropy(logits, targets, ignore_mask)
    zero = Tensor(np.zeros((), dtype=ce.dtype))
    reg = zero if routers is None else T.parameters_norm_sq(routers.parameters())
    pp = functools.reduce(T.add, rhos) if rhos else zero
    total = T.add(ce, T.add(T.scale(reg, lam), T.scale(pp, alpha_eff)))
    return LossBreakdown(ce=ce, reg=reg, pp=pp, total=total,
                         lam=lam, alpha_eff=alpha_eff)


def _ignore_mask(batch: Batch) -> np.ndarray:
    # targets are tokens[:, 1:]; keep only response and EOS targets
    return (batch.response_mask[:, 1:] == 0).astype(np.uint8)


@dataclass(frozen=True)
class TrainLogRow:
    step: int
    ce: float
    reg: float
    pp: float
    total: float
    val_ce: float
    mean_rho: tuple[float, ...]


@dataclass
class TrainResult:
    rows: list[TrainLogRow]
    steps: int
    stopped_early: bool
    best_val_ce: float


def write_train_log(path: str, rows: Sequence[TrainLogRow]) -> None:
    n_layers = len(rows[0].mean_rho) if rows else 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "ce", "reg", "pp", "total", "val_ce"]
                   + [f"rho_{i}" for i in range(n_layers)])
        for r in rows:
            w.writerow([r.step, r.ce, r.reg, r.pp, r.total, r.val_ce, *r.mean_rho])


def _val_batches(pairs: Sequence[Pair], tc: TrainConfig,
                 max_seq: int) -> list[Batch]:
    return [encode_batch(pairs[lo:lo + tc.batch_size], max_seq)
            for lo in range(0, len(pairs), tc.batch_size)]


def _mean_val_ce(batches: Sequence[Batch],
                 logits_fn: Callable[[Batch], Tensor]) -> float:
    """Cross entropy over all response positions, weighted exactly."""
    total, count = 0.0, 0
    with T.no_grad():
        for b in batches:
            n_kept = int(b.response_mask[:, 1:].sum())
            if n_kept == 0:
                continue
            ce = T.cross_entropy(logits_fn(b), b.tokens[:, 1:], _ignore_mask(b))
            total += ce.item() * n_kept
            count += n_kept
    if count == 0:
        raise DatasetError("validation set has no response tokens")
    return total / count


def _train_phase(config: ModelConfig, weights: ModelWeights,
                 routers: Optional[RouterBank], trained,
                 forward: Callable[[Batch, bool], tuple[Tensor, Sequence[Tensor]]],
                 alpha_eff: float, train_pairs: Sequence[Pair],
                 val_pairs: Sequence[Pair], tc: TrainConfig,
                 log_path: Optional[str],
                 stop_check: Optional[Callable[[], bool]] = None,
                 check_each_step: bool = False) -> TrainResult:
    """One phase: ``trained`` (the model, the bank or the adapters) learns on
    ``loss_total`` with all else frozen. ``forward(batch, training)`` gives
    the logits and the per-layer rho tensors (none without routers).

    Adam steps every ``tc.accum_steps`` batches at a cosine-decayed learning
    rate. Validation runs every ``tc.eval_every`` optimizer steps and once
    when the run ends, and each validation logs one row: the losses and
    per-layer rho averaged over the batches since the last row. The run
    stops once ``tc.patience`` validations in a row have not improved on the
    best, or when ``stop_check`` returns True. ``stop_check`` runs without a
    gradient right after each validation, or, with ``check_each_step``,
    after every optimizer step instead."""
    weights.set_requires_grad(False)
    if routers is not None:
        routers.set_requires_grad(False)
    trained.set_requires_grad(True)
    val_batches = _val_batches(val_pairs, tc, config.max_seq)
    rows: list[TrainLogRow] = []
    # summed over the batches since the last row: ce, reg, pp, total, then
    # each layer's rho
    sums = np.zeros(4 + config.n_layers)
    n_summed = 0
    opt_steps, best_val, stale, stopped = 0, math.inf, 0, False

    def validate() -> None:
        nonlocal n_summed, best_val, stale, stopped
        v = _mean_val_ce(val_batches, lambda b: forward(b, False)[0])
        if not math.isfinite(v):
            raise NumericalError(f"non-finite validation loss at step {opt_steps}")
        mean = sums / max(n_summed, 1)
        rows.append(TrainLogRow(opt_steps, *mean[:4], val_ce=v,
                                mean_rho=tuple(mean[4:])))
        sums[:] = 0.0
        n_summed = 0
        if v < best_val:
            best_val, stale = v, 0
        else:
            stale += 1
            stopped = stopped or stale >= tc.patience
        if stop_check is not None and not check_each_step:
            with T.no_grad():
                stopped = bool(stop_check()) or stopped

    try:
        if not train_pairs:
            raise DatasetError("training set is empty")
        opt = Adam(list(trained.parameters()))
        shuffle_rng = seeded_streams(tc.seed, ["shuffle", "dropout"])["shuffle"]
        per_epoch = math.ceil(len(train_pairs) / tc.batch_size)
        total_opt_steps = max(1, per_epoch * tc.max_epochs // tc.accum_steps)
        epochs = (iter_minibatches(train_pairs, tc.batch_size, shuffle_rng, config.max_seq)
                  for _ in range(tc.max_epochs))
        for micro, batch in enumerate(chain.from_iterable(epochs), 1):
            logits, rhos = forward(batch, True)
            bd = loss_total(logits, batch.tokens[:, 1:], _ignore_mask(batch),
                            routers, rhos, tc.lam, alpha_eff)
            bd.verify()
            # every layer runs in plain training; log that fact in the rho columns
            sums += (bd.ce.item(), bd.reg.item(), bd.pp.item(), bd.total.item(),
                     *([r.item() for r in rhos] or [1.0] * config.n_layers))
            n_summed += 1
            bd.total.backward(np.asarray(1.0 / tc.accum_steps, dtype=bd.total.dtype))
            # free the step's graph before the optimizer step and validation
            del bd, logits, rhos
            if micro % tc.accum_steps:
                continue
            opt.step(cosine_lr(opt_steps, total_opt_steps, tc.lr_min, tc.lr_max))
            opt.zero_grad()
            opt_steps += 1
            if opt_steps % tc.eval_every == 0:
                validate()
            if stop_check is not None and check_each_step:
                with T.no_grad():
                    stopped = bool(stop_check()) or stopped
            if stopped:
                break
        # a stop between validations still ends on a validated row
        if not rows or rows[-1].step != opt_steps:
            validate()
    finally:
        trained.set_requires_grad(False)
    if log_path:
        write_train_log(log_path, rows)
    return TrainResult(rows=rows, steps=opt_steps, stopped_early=stopped,
                       best_val_ce=best_val)


def _soft_forward(config: ModelConfig, weights: ModelWeights,
                  routers: RouterBank, projects=(None, None)):
    """The soft forward of a batch; ``projects`` holds the projection hook
    for evaluation and the one for training."""
    def forward(b: Batch, training: bool):
        return R.soft_forward(config, weights, routers, b.tokens[:, :-1],
                              attn_mask=b.attn[:, :-1],
                              router_mask=b.prompt_mask[:, :-1],
                              project=projects[training])
    return forward


def train_model(config: ModelConfig, weights: ModelWeights,
                train_pairs: Sequence[Pair], val_pairs: Sequence[Pair],
                tc: TrainConfig,
                log_path: Optional[str] = None,
                stop_check: Optional[Callable[[], bool]] = None) -> TrainResult:
    """Plain language-model training of the base weights (no routers).

    ``stop_check`` runs without a gradient at every evaluation point, right
    after validation; returning True ends the run early (``skiproute
    pretrain --target-accuracy`` stops once greedy accuracy reaches it).
    """
    def forward(b: Batch, training: bool):
        return M.forward_full(config, weights, b.tokens[:, :-1],
                              attn_mask=b.attn[:, :-1]), ()

    return _train_phase(config, weights, None, weights, forward, 0.0,
                        train_pairs, val_pairs, tc, log_path, stop_check)


def train_routers(config: ModelConfig, weights: ModelWeights, routers: RouterBank,
                  train_pairs: Sequence[Pair], val_pairs: Sequence[Pair],
                  tc: TrainConfig,
                  log_path: Optional[str] = None,
                  stop_check: Optional[Callable[[], bool]] = None) -> TrainResult:
    """Phase 1: routers learn through the soft forward; the model is frozen.

    ``stop_check`` runs as in ``train_model`` (used by budget tuning to stop
    once a skip target is met).
    """
    return _train_phase(config, weights, routers, routers,
                        _soft_forward(config, weights, routers), tc.alpha,
                        train_pairs, val_pairs, tc, log_path, stop_check)


def train_lora(config: ModelConfig, weights: ModelWeights, routers: RouterBank,
               adapters: AdapterSet, train_pairs: Sequence[Pair],
               val_pairs: Sequence[Pair], tc: TrainConfig,
               log_path: Optional[str] = None,
               dropout: float = 0.1) -> TrainResult:
    """Phase 2: adapters compensate; routers and base weights are frozen.

    The skip penalty keeps its pressure direction but is divided by
    ``PHASE2_DIVISOR``. ``dropout`` drops inputs of the adapters' low-rank
    path in training steps only, never in validation.
    """
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {dropout}")
    dropout_rng = seeded_streams(tc.seed, ["shuffle", "dropout"])["dropout"]
    projects = (adapted_project(adapters),
                adapted_project(adapters, dropout=dropout, rng=dropout_rng))
    return _train_phase(config, weights, routers, adapters,
                        _soft_forward(config, weights, routers, projects),
                        tc.alpha / PHASE2_DIVISOR,
                        train_pairs, val_pairs, tc, log_path)


def _layer_inputs(config: ModelConfig, weights: ModelWeights, batch: Batch,
                  project=None) -> tuple[np.ndarray, list[Tensor]]:
    """Run ``batch`` as one right-padded block without a gradient.

    Returns the prompt mask and the hidden state entering each layer, over
    every column but the last (the teacher-forcing input).
    """
    hs: list[Tensor] = []
    with T.no_grad():
        M.forward_full(config, weights, batch.tokens[:, :-1],
                       attn_mask=batch.attn[:, :-1], project=project, hidden=hs)
    return batch.prompt_mask[:, :-1], hs


def _probe_key(config: ModelConfig, weights: ModelWeights, batch: Batch) -> bytes:
    """SHA-256 over everything the probe's forward reads: the config, each
    parameter's dtype, shape and bytes, and the encoded prompts."""
    h = hashlib.sha256(repr(config).encode())
    for a in [p.data for p in weights.parameters()] + [
            batch.tokens, batch.attn, batch.prompt_mask]:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


# the layer inputs of the last probe without adapters, under its _probe_key
_probe_memo: dict[bytes, tuple[np.ndarray, list[Tensor]]] = {}


def probe_decisions(config: ModelConfig, weights: ModelWeights,
                    routers: RouterBank, pairs: Sequence[Pair],
                    project=None) -> list[R.SkipDecision]:
    """The frozen prefill decision of each prompt in ``pairs``.

    All prompts run as one padded, masked forward. Each router reads its
    layer input averaged over each row's own prompt tokens, which gives one
    probability per prompt, and each row is thresholded as ``R.prefill``
    thresholds that prompt alone; only the float rounding of the padded
    batch differs. A framed prompt of up to ``config.max_seq`` tokens is
    accepted, as in ``R.prefill``; a longer one raises ``ShapeError``.

    The layer inputs depend only on the model and the prompts, not on the
    routers, so the last probe's are kept (read-only) under a SHA-256 digest
    of the config, every parameter's dtype, shape and bytes, and the encoded
    prompts. A probe whose digest matches reuses them and runs no forward;
    any change to a weight, in place or not, or to the prompts recomputes
    them. A probe through ``project`` (adapters, which may change between
    calls) always runs its forward and leaves the memo alone.
    """
    if not pairs:
        raise DatasetError("need at least one probe pair")
    if len(routers) != config.n_layers:
        raise ConfigError(f"{len(routers)} routers for {config.n_layers} layers")
    # no width limit here: the EOS column encode_batch appends is dropped
    # before the forward, which checks the prompt width itself
    batch = encode_batch([(p, b"") for p, _ in pairs], None)
    if project is not None:
        pmask, hs = _layer_inputs(config, weights, batch, project)
    else:
        key = _probe_key(config, weights, batch)
        if key not in _probe_memo:
            pmask, hs = _layer_inputs(config, weights, batch)
            for h in hs:
                h.data.flags.writeable = False
            _probe_memo.clear()
            _probe_memo[key] = pmask, hs
        pmask, hs = _probe_memo[key]
    rhos = np.stack([R.router_probability(r, h, pmask).data
                     for r, h in zip(routers.routers, hs)], axis=1)
    return [R.SkipDecision.from_rhos(row) for row in rhos]


def measure_skip_fraction(config: ModelConfig, weights: ModelWeights,
                          routers: RouterBank, pairs: Sequence[Pair],
                          project=None) -> float:
    """Mean fraction of layers the frozen prefill decision drops over pairs,
    from one padded forward (``probe_decisions``), or none when the model
    and the prompts are those of the last probe without adapters."""
    decisions = probe_decisions(config, weights, routers, pairs, project)
    return sum(d.skip_fraction for d in decisions) / len(decisions)


def mean_hidden_per_layer(config: ModelConfig, weights: ModelWeights,
                          pairs: Sequence[Pair], max_seq: int) -> np.ndarray:
    """Per-layer average of what each router reads: the prompt-pooled hidden
    state entering the layer, averaged again over a calibration set."""
    if not pairs:
        raise DatasetError("need at least one calibration pair")
    pmask, hs = _layer_inputs(config, weights, encode_batch(pairs, max_seq))
    pmask = pmask.astype(np.float64)
    counts = np.maximum(pmask.sum(axis=1), 1.0)[:, None]
    return np.stack([((h.data * pmask[:, :, None]).sum(axis=1) / counts).mean(axis=0)
                     for h in hs])


# a warm-started router's logit on the calibration mean of its input, the
# cap on its weight norm, and how many attempts band tuning makes
WARM_START_LOGIT = 0.4
WARM_START_NORM_CAP = 3.0
TUNE_ATTEMPTS = 5


def warm_start_routers(config: ModelConfig, weights: ModelWeights,
                       pairs: Sequence[Pair]) -> RouterBank:
    """A bank whose probabilities start decisively above the pass threshold.

    Zero weights put every router exactly at the threshold, where the first
    optimizer step decides every layer's fate at once. Aligning each weight
    vector with the mean of its input over the calibration ``pairs``
    (prompts of up to ``config.max_seq`` tokens) raises the initial
    probabilities to roughly ``sigmoid(WARM_START_LOGIT)``, so the skip
    penalty must carry a layer across the threshold against whatever
    gradient the data provides, one layer at a time. Weight norms are capped
    at ``WARM_START_NORM_CAP`` so layers with faint inputs do not start with
    outsized vectors. The bank takes the model's dtype.
    """
    means = mean_hidden_per_layer(config, weights, pairs, config.max_seq)
    routers = R.init_routers(config, dtype=weights.embedding.dtype)
    for i in range(config.n_layers):
        norm = float(np.linalg.norm(means[i]))
        if norm == 0.0:
            continue
        scale = min(WARM_START_LOGIT / (norm * norm), WARM_START_NORM_CAP / norm)
        routers[i].weight.data[:] = (means[i] * scale).astype(
            routers[i].weight.dtype)
    return routers


@dataclass(frozen=True)
class BandTuneResult:
    """Outcome of budget tuning: the bank that landed in the band."""

    routers: RouterBank
    train: TrainResult
    skip_fraction: float
    attempts: int


def tune_routers_to_band(config: ModelConfig, weights: ModelWeights,
                         train_pairs: Sequence[Pair], val_pairs: Sequence[Pair],
                         tc: TrainConfig, probe_pairs: Sequence[Pair],
                         band: tuple[float, float] = (0.15, 0.25),
                         log_path: Optional[str] = None) -> BandTuneResult:
    """Train warm-started routers until the skip fraction first enters band.

    The skip penalty pushes routers downward at a rate the optimizer largely
    normalizes away, so a moderate budget is a point the training trajectory
    passes through rather than an equilibrium the loss settles at. Each
    attempt starts from the same calibrated warm start (every probability
    decisively above the pass threshold, built once per call), trains under
    the usual Phase 1 loss, and probes the frozen prefill decision on
    ``probe_pairs`` after every optimizer step, stopping the moment the mean
    skip fraction reaches the lower band edge. An attempt that lands past
    the upper edge jumped the band between probes and is retried from
    scratch at half the learning rate; one that never reaches the band gets
    its epoch budget doubled. After ``TUNE_ATTEMPTS`` misses it raises
    ``ConfigError``.

    The base model is frozen, so every probe after the first reuses the
    probe prompts' layer inputs (see ``probe_decisions``) and costs only the
    routers' dot products. Validation cannot steer an attempt, so it runs
    once, when the attempt ends: the attempt's log (``log_path``, rewritten
    by each attempt) and ``train.rows`` hold one row, its losses and rho
    averaged over all of its steps, and ``train.best_val_ce`` is that row's
    validation loss.
    """
    lo, hi = band
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError(f"skip band must satisfy 0 <= lo < hi <= 1, got {band}")

    warm = warm_start_routers(config, weights, train_pairs)
    lr_min, lr_max, epochs = tc.lr_min, tc.lr_max, tc.max_epochs
    for attempt in range(1, TUNE_ATTEMPTS + 1):
        routers = RouterBank([R.Router(Tensor(r.weight.data.copy()))
                              for r in warm.routers])
        # validation only when the attempt ends
        tc_try = replace(tc, lr_min=lr_min, lr_max=lr_max, max_epochs=epochs,
                         eval_every=10 ** 9)

        def reached_band() -> bool:
            return measure_skip_fraction(config, weights, routers,
                                         probe_pairs) >= lo

        result = _train_phase(config, weights, routers, routers,
                              _soft_forward(config, weights, routers), tc.alpha,
                              train_pairs, val_pairs, tc_try, log_path,
                              stop_check=reached_band, check_each_step=True)
        fraction = measure_skip_fraction(config, weights, routers, probe_pairs)
        if lo <= fraction <= hi:
            return BandTuneResult(routers=routers, train=result,
                                  skip_fraction=fraction, attempts=attempt)
        if fraction > hi:
            lr_min, lr_max = lr_min / 2, lr_max / 2
        else:
            epochs *= 2
    raise ConfigError(f"router tuning missed the skip band {band} "
                      f"in {TUNE_ATTEMPTS} attempts")
