"""Exhaustive layer-subsequence search and the input-agnostic baseline.

The search enumerates every subset of layers, scores each one under a
caller-chosen quality function, and returns both the smallest subset that
stays within a relative tolerance of full quality and the Pareto front of
quality against depth. Enumeration is exponential by design and refuses to
run past a hard layer-count limit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import model as M
from . import tensor as T
from .data import Pair, encode_batch
from .errors import ConfigError, EnumerationLimitError
from .model import ModelConfig, ModelWeights
from .tensor import Tensor
from .tokenizer import EOS, detokenize, frame_prompt

EMBEDDING_LEVEL = -1
ENUMERATION_LIMIT = 16

QualityFn = Callable[[frozenset], float]


def anc(include: Sequence[int], i: int) -> int:
    """Nearest included layer strictly below i, or the embedding level."""
    best = EMBEDDING_LEVEL
    for j in include:
        if best < j < i:
            best = j
    return best


def subsequence_forward(config: ModelConfig, weights: ModelWeights,
                        tokens: np.ndarray, include: Sequence[int],
                        attn_mask: Optional[np.ndarray] = None) -> Tensor:
    """Logits from running only the given layers, each fed by its ancestor.

    Implemented as an interpreter over a table of per-level hidden states
    rather than a masked loop, so it can cross-check the skipping forward:
    both must agree bit for bit.
    """
    include = sorted({int(i) for i in include})
    for i in include:
        if not 0 <= i < config.n_layers:
            raise ConfigError(f"layer {i} outside [0, {config.n_layers})")
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    b, n = tokens.shape
    rows = M._rope_rows(config, 0, n)
    mask = M.attention_mask(attn_mask, b, n, n)

    levels = {EMBEDDING_LEVEL: T.embedding(weights.embedding, tokens)}
    for i in include:
        src = levels[anc(include, i)]
        levels[i] = M.layer_forward(config, weights, i, src, mask, rows)
    top = levels[include[-1]] if include else levels[EMBEDDING_LEVEL]
    return T.lift(M._finish(weights, top))


@dataclass(frozen=True)
class OracleEntry:
    include: tuple[int, ...]
    layers_used: int
    quality: float

    def mask_string(self, n_layers: int) -> str:
        kept = set(self.include)
        return "".join("1" if i in kept else "0" for i in range(n_layers))


@dataclass(frozen=True)
class OracleResult:
    winner: OracleEntry
    pareto: tuple[OracleEntry, ...]
    full_quality: float
    threshold: float
    epsilon: float
    n_layers: int
    evaluated: int


def brute_force_oracle(n_layers: int, quality_fn: QualityFn,
                       epsilon: float) -> OracleResult:
    """Score every subset; pick the smallest one within tolerance.

    ``quality_fn`` maps a skip set (the complement of the subset) to a
    score, higher better. A subset is feasible when its quality reaches
    (1 - epsilon) times the full-depth quality. Ties break toward higher
    quality, then toward the lexicographically smallest inclusion tuple.
    If nothing is feasible the full-depth subset is returned.
    """
    if n_layers < 1:
        raise ConfigError(f"need at least one layer, got {n_layers}")
    if n_layers > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{n_layers} layers means 2^{n_layers} subsets; the exhaustive "
            f"search is capped at {ENUMERATION_LIMIT} layers")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must lie in [0, 1], got {epsilon}")

    all_layers = tuple(range(n_layers))
    full_quality = quality_fn(frozenset())
    threshold = (1.0 - epsilon) * full_quality

    best_per_size: dict[int, OracleEntry] = {}
    winner: Optional[OracleEntry] = None
    evaluated = 0
    for k in range(n_layers + 1):
        for combo in combinations(all_layers, k):
            include = tuple(combo)
            if include == all_layers:
                q = full_quality
            else:
                q = quality_fn(frozenset(all_layers) - frozenset(include))
            evaluated += 1
            entry = OracleEntry(include=include, layers_used=k, quality=q)
            held = best_per_size.get(k)
            if held is None or q > held.quality:
                best_per_size[k] = entry
            if q >= threshold and winner is None:
                winner = entry
            elif q >= threshold and winner is not None \
                    and winner.layers_used == k and q > winner.quality:
                winner = entry
    if winner is None:
        winner = best_per_size[n_layers]

    pareto: list[OracleEntry] = []
    best_seen = -math.inf
    for k in range(n_layers + 1):
        e = best_per_size[k]
        if e.quality > best_seen:
            pareto.append(e)
            best_seen = e.quality
    return OracleResult(winner=winner, pareto=tuple(pareto),
                        full_quality=full_quality, threshold=threshold,
                        epsilon=epsilon, n_layers=n_layers, evaluated=evaluated)


def write_oracle_csv(path: str, result: OracleResult) -> None:
    """Pareto rows then the winner, with inclusion masks as bit strings."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["role", "include_mask", "layers_used", "quality"])
        for e in result.pareto:
            w.writerow(["pareto", e.mask_string(result.n_layers),
                        e.layers_used, e.quality])
        e = result.winner
        w.writerow(["winner", e.mask_string(result.n_layers),
                    e.layers_used, e.quality])


# ------------------------------------------------------ quality functions


def greedy_outputs(config: ModelConfig, weights: ModelWeights,
                   prompts: Sequence[Sequence[int]], max_new_tokens: int,
                   skip_set: frozenset = frozenset()) -> list[tuple[int, ...]]:
    """Greedy tokens of each framed prompt under the deployment protocol:
    full prefill, decoding under ``skip_set``, stop at EOS."""
    return [tuple(M.generate(config, weights, p, max_new_tokens,
                             skip_set=skip_set, stop_at=EOS).tokens)
            for p in prompts]


def golden_exact_match(config: ModelConfig, weights: ModelWeights,
                       prompts: Sequence[Sequence[int]],
                       max_new_tokens: int) -> QualityFn:
    """Fraction of prompts whose greedy output matches the full model's.

    The full-depth run is the reference, so the empty skip set always
    scores 1.0 and the measure needs no labels.
    """
    if not prompts:
        raise ConfigError("need at least one prompt")
    golden = greedy_outputs(config, weights, prompts, max_new_tokens)

    def quality(skip_set: frozenset) -> float:
        outs = greedy_outputs(config, weights, prompts, max_new_tokens, skip_set)
        return sum(o == g for o, g in zip(outs, golden)) / len(golden)

    return quality


def dataset_exact_match(config: ModelConfig, weights: ModelWeights,
                        pairs: Sequence[Pair], max_new_tokens: int) -> QualityFn:
    """Fraction of pairs whose greedy output reproduces the response byte
    for byte."""
    if not pairs:
        raise ConfigError("need at least one pair")
    prompts = [frame_prompt(prompt) for prompt, _ in pairs]

    def quality(skip_set: frozenset) -> float:
        outs = greedy_outputs(config, weights, prompts, max_new_tokens, skip_set)
        return sum(detokenize(o) == response
                   for o, (_, response) in zip(outs, pairs)) / len(pairs)

    return quality


def negative_perplexity(config: ModelConfig, weights: ModelWeights,
                        pairs: Sequence[Pair], max_seq: int) -> QualityFn:
    """Teacher-forced response scorer: minus exp of the mean cross entropy.

    An ablation scorer, not the deployment protocol: the skip set applies
    to every position. The exponent is capped so a diverged subset scores
    terribly instead of overflowing.
    """
    if not pairs:
        raise ConfigError("need at least one pair")
    batch = encode_batch(pairs, max_seq)
    ignore = (batch.response_mask[:, 1:] == 0).astype(np.uint8)

    def quality(skip_set: frozenset) -> float:
        with T.no_grad():
            logits = M.forward_full(config, weights, batch.tokens[:, :-1],
                                    skip_set=skip_set,
                                    attn_mask=batch.attn[:, :-1])
            ce = T.cross_entropy(logits, batch.tokens[:, 1:], ignore)
        return -math.exp(min(ce.item(), 50.0))

    return quality


# ------------------------------------------------- input-agnostic baseline


def unified_retained_layers(n_layers: int, n_retained: int) -> frozenset:
    """Evenly spaced layer subset keeping the first and last layer.

    Layer k of the retained ladder sits at round(k * (m - 1) / (K - 1))
    with round-half-up, for k = 0 .. K-1.
    """
    if not 2 <= n_retained <= n_layers:
        raise ConfigError(
            f"retained count must lie in [2, {n_layers}], got {n_retained}")
    step = (n_layers - 1) / (n_retained - 1)
    return frozenset(math.floor(k * step + 0.5) for k in range(n_retained))


def unified_skip_layers(n_layers: int, n_retained: int) -> frozenset:
    """Complement of the retained ladder: the layers the baseline skips."""
    kept = unified_retained_layers(n_layers, n_retained)
    return frozenset(range(n_layers)) - kept
