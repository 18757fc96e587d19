"""Per-layer skip routers and the two-sided protocol built on them.

Each layer gets a bias-free probe: a D-vector dotted with every hidden
token, squashed to a probability, averaged over the prompt positions and
then over the batch. Training uses the soft forward, which scales each
layer's residual branch by its probability; inference thresholds once at
prefill and replays that frozen decision for every decode step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model as M
from . import tensor as T
from .errors import ConfigError, MaskError, ShapeError
# sample_token is re-exported because the benchmark's tracer wraps it by
# this name (tests/test_trace_guard.py pins every name the tracer wraps).
from .model import (GenerationResult, KVCache, ModelConfig, ModelWeights,
                    SamplerConfig, sample_token)
from .tensor import Tensor

PASS_THRESHOLD = 0.5


@dataclass
class Router:
    """Bias-free linear probe mapping a hidden token to one score."""

    weight: Tensor

    def __post_init__(self):
        if self.weight.ndim != 1:
            raise ShapeError(f"router weight must be a vector, got {self.weight.shape}")


@dataclass
class RouterBank:
    routers: list[Router]

    def __len__(self) -> int:
        return len(self.routers)

    def __getitem__(self, i: int) -> Router:
        return self.routers[i]

    def parameters(self) -> list[Tensor]:
        return [r.weight for r in self.routers]

    def set_requires_grad(self, flag: bool) -> None:
        for r in self.routers:
            r.weight.requires_grad = flag


def init_routers(config: ModelConfig, dtype=np.float32) -> RouterBank:
    """Zero-weight bank: every probability starts at 0.5, every layer passes."""
    return RouterBank([Router(Tensor(np.zeros(config.d_model, dtype=dtype)))
                       for _ in range(config.n_layers)])


@dataclass(frozen=True)
class SkipDecision:
    """Frozen per-layer outcome of one prefill; ρ fixes each pass flag."""

    rho: tuple[float, ...]

    @classmethod
    def from_rhos(cls, rhos: Sequence[float]) -> "SkipDecision":
        return cls(rho=tuple(float(r) for r in rhos))

    @property
    def passed(self) -> tuple[bool, ...]:
        return tuple(r >= PASS_THRESHOLD for r in self.rho)

    @property
    def skip_set(self) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.passed) if not p)

    @property
    def skip_fraction(self) -> float:
        return len(self.skip_set) / len(self.passed)

    @property
    def margin(self) -> float:
        """min |rho - 0.5|: how far the closest layer is from flipping."""
        return min(abs(r - PASS_THRESHOLD) for r in self.rho)


def router_probability(router: Router, hidden: Tensor,
                       attention_mask: Optional[np.ndarray] = None) -> Tensor:
    """Per-sequence mean over valid tokens of sigmoid(weight . token); with
    no mask every position is valid."""
    b, n, d = hidden.shape
    if n == 0:
        raise ShapeError("router saw sequences with no positions")
    scores = T.reshape(T.linear(hidden, T.reshape(router.weight, (1, d))), (b, n))
    probs = T.sigmoid(scores)
    counts = np.full(b, n)
    if attention_mask is not None:
        mask = (np.asarray(attention_mask) != 0)
        counts = mask.sum(axis=1)
        if np.any(counts == 0):
            raise MaskError("router saw a sequence with every token masked")
        probs = T.mul(probs, Tensor(mask.astype(probs.dtype)))
    # divide, not multiply by a rounded 1/count: n * 0.5 / n is exactly 0.5;
    # the sum divided by the count has the bytes of numpy's mean
    return T.divide(T.sum_axis(probs, 1), counts)


def unify_batch(rhos: Tensor) -> Tensor:
    """One probability for the whole batch: the arithmetic mean."""
    if rhos.shape[0] == 0:
        raise ShapeError("no rows to unify")
    return T.divide(T.sum_axis(rhos, 0), rhos.shape[0])


def soft_layer_forward(config: ModelConfig, weights: ModelWeights, layer_index: int,
                       hidden: Tensor, rho: Tensor, mask: Optional[np.ndarray],
                       rows: tuple[np.ndarray, np.ndarray], project=None
                       ) -> Tensor:
    """hidden + rho * branch: exact layer at rho=1, exact identity at rho=0.
    ``mask`` and ``rows`` are the pass's attention mask and rotary table
    rows, as for ``M.layer_branch``."""
    branch = T.lift(M.layer_branch(config, weights, layer_index, hidden, mask, rows,
                                   project=project))
    return T.add(hidden, T.mul(rho, branch))


def soft_forward(config: ModelConfig, weights: ModelWeights, routers: RouterBank,
                 tokens: np.ndarray, attn_mask: Optional[np.ndarray] = None,
                 router_mask: Optional[np.ndarray] = None, project=None
                 ) -> tuple[Tensor, list[Tensor]]:
    """Training forward: logits plus the batch-unified probability per layer.

    ``router_mask`` selects which positions each router averages over
    (prompt tokens); it defaults to ``attn_mask``. Every layer executes;
    its output is blended with its input by the layer's probability.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if len(routers) != config.n_layers:
        raise ConfigError(f"{len(routers)} routers for {config.n_layers} layers")
    if router_mask is None:
        router_mask = attn_mask

    h = T.embedding(weights.embedding, tokens)
    b, n = tokens.shape
    mask = M.attention_mask(attn_mask, b, n, n)
    rows = M._rope_rows(config, 0, n)
    rhos: list[Tensor] = []
    for i in range(config.n_layers):
        rho = unify_batch(router_probability(routers[i], h, router_mask))
        rhos.append(rho)
        h = soft_layer_forward(config, weights, i, h, rho, mask, rows, project)
    return T.lift(M._finish(weights, h)), rhos


def prefill(config: ModelConfig, weights: ModelWeights, routers: RouterBank,
            tokens: np.ndarray, project=None) -> tuple[Tensor, KVCache, SkipDecision]:
    """Full-compute pass over the prompt that also fixes the skip decision.

    No layer is skipped here and every layer's K,V rows are cached, so the
    logits match the unmodified model no matter what the routers say. The
    prompt has no padding: each router reads the previous layer's output
    (the embedding for layer 0) averaged over every prompt position, and
    the thresholded decision is frozen into the returned cache for the
    decode phase.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.shape[1] == 0:
        raise ShapeError("prefill needs a non-empty prompt")
    if len(routers) != config.n_layers:
        raise ConfigError(f"{len(routers)} routers for {config.n_layers} layers")

    with T.no_grad():
        cache = KVCache(config, batch_size=tokens.shape[0],
                        dtype=weights.embedding.dtype)
        hs: list[Tensor] = []
        logits = M.forward_full(config, weights, tokens, cache=cache,
                                project=project, hidden=hs)
        rhos = [unify_batch(router_probability(r, h)).item()
                for r, h in zip(routers.routers, hs)]
    decision = SkipDecision.from_rhos(rhos)
    cache.decode_skip = decision.skip_set
    return logits, cache, decision


def generate_with_routers(config: ModelConfig, weights: ModelWeights,
                          routers: RouterBank, prompt_ids: Sequence[int],
                          max_new_tokens: int,
                          sampler: SamplerConfig = SamplerConfig(),
                          rng: Optional[np.random.Generator] = None,
                          stop_at: Optional[int] = None, project=None
                          ) -> tuple[GenerationResult, SkipDecision]:
    """Routed generation: full prefill, then decoding under the frozen decision."""
    return M._generate(
        config, weights, prompt_ids, max_new_tokens,
        lambda prompt: prefill(config, weights, routers, prompt, project=project),
        sampler, rng, stop_at, project)
