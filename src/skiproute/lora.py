"""Low-rank adapters for the compensation fine-tune, with merge-to-base.

An adapter pairs A (rank x in_features) with B (out_features x rank); the
effective weight delta is scaling * B @ A where scaling = lora_alpha / rank.
B starts at zero, so a fresh adapter set leaves the model's output bitwise
unchanged. Merging folds every delta into the base matrices and retires the
set, which keeps a second merge from silently doubling the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .model import LAYER_MATRICES, LayerWeights, ModelWeights
from .tensor import Tensor

TARGET_NAMES = LAYER_MATRICES


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    lora_alpha: float = 32.0
    dropout: float = 0.1

    def __post_init__(self):
        # rank and dropout are checked before training, alpha only at save
        if float(np.float32(self.lora_alpha)) != self.lora_alpha:
            raise ConfigError(f"lora_alpha {self.lora_alpha!r} is not exact "
                              f"in float32, which checkpoints store")


@dataclass
class LoraAdapter:
    a: Tensor
    b: Tensor
    rank: int
    lora_alpha: float

    @property
    def scaling(self) -> float:
        return self.lora_alpha / self.rank

    def delta(self) -> np.ndarray:
        """The dense weight update this adapter encodes."""
        return (self.scaling * (self.b.data @ self.a.data)).astype(self.b.dtype)


def _check_rank(rank: int, d_out: int, d_in: int) -> None:
    if rank < 1:
        raise ConfigError(f"adapter rank must be positive, got {rank}")
    if rank >= min(d_out, d_in):
        raise ConfigError(
            f"adapter rank {rank} is not low-rank for a {d_out}x{d_in} weight")


def make_adapter(d_out: int, d_in: int, rank: int, lora_alpha: float,
                 rng: np.random.Generator, dtype=np.float32) -> LoraAdapter:
    """A ~ normal(0, 0.02), B = 0: the initial delta is exactly zero."""
    _check_rank(rank, d_out, d_in)
    return LoraAdapter(
        a=Tensor(rng.normal(0.0, 0.02, size=(rank, d_in)).astype(dtype)),
        b=Tensor(np.zeros((d_out, rank), dtype=dtype)),
        rank=rank, lora_alpha=lora_alpha)


@dataclass
class AdapterSet:
    """Adapters keyed by (layer index, target matrix name)."""

    rank: int
    lora_alpha: float
    adapters: dict[tuple[int, str], LoraAdapter] = field(default_factory=dict)
    merged: bool = False

    def get(self, layer_index: int, name: str) -> Optional[LoraAdapter]:
        return self.adapters.get((layer_index, name))

    def items(self) -> Iterator[tuple[tuple[int, str], LoraAdapter]]:
        yield from sorted(self.adapters.items())

    def parameters(self) -> list[Tensor]:
        out = []
        for _, ad in self.items():
            out.extend((ad.a, ad.b))
        return out

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag


def init_adapters(weights: ModelWeights, rank: int = LoraConfig.rank,
                  lora_alpha: float = LoraConfig.lora_alpha,
                  rng: Optional[np.random.Generator] = None) -> AdapterSet:
    """One adapter per attention and FFN matrix of every layer."""
    if rng is None:
        rng = np.random.default_rng(0)
    adapters = {}
    for i, lw in enumerate(weights.layers):
        for name, w in lw.matrices():
            d_out, d_in = w.shape
            adapters[(i, name)] = make_adapter(
                d_out, d_in, rank, lora_alpha, rng, dtype=w.dtype)
    return AdapterSet(rank=rank, lora_alpha=lora_alpha, adapters=adapters)


def check_fits(adapter: LoraAdapter, shape: tuple[int, int]) -> None:
    """Raise unless ``adapter`` is a low-rank update of a weight of
    ``shape``, (out_features, in_features)."""
    d_out, d_in = shape
    _check_rank(adapter.rank, d_out, d_in)
    if adapter.a.shape != (adapter.rank, d_in) or adapter.b.shape != (d_out, adapter.rank):
        raise ShapeError(
            f"adapter shapes {adapter.a.shape}/{adapter.b.shape} do not fit a "
            f"{d_out}x{d_in} weight at rank {adapter.rank}")


def adapted_matmul(ops, x, base_weight: Tensor, adapter: LoraAdapter,
                   dropout: float = 0.0, rng: Optional[np.random.Generator] = None):
    """x @ W.T plus the scaled low-rank path, whose input entries are
    dropped at rate ``dropout`` (drawn from ``rng``), over the ops
    namespace ``ops`` (``tensor`` on the tape, ``tensor.plain`` without).
    The op raises ``ShapeError`` when the factors do not fit ``base_weight``;
    the adapter's own consistency is checked where it is made or loaded."""
    kept = inv_keep = None
    if dropout > 0.0:
        if rng is None:
            raise ConfigError("adapter dropout needs a generator")
        keep = 1.0 - dropout
        # kept entries are scaled by 1/keep rounded in x's dtype, the rest are 0
        inv_keep = x.dtype.type(1) / x.dtype.type(keep)
        kept = rng.random(x.shape) < keep
    return ops.adapted_linear(x, base_weight, adapter.a, adapter.b, adapter.scaling,
                              kept, inv_keep)


def adapted_project(adapters: AdapterSet, dropout: float = 0.0,
                    rng: Optional[np.random.Generator] = None):
    """A projection hook for the model forward that runs ``adapted_matmul``
    with ``dropout`` wherever an adapter matches, and the plain projection
    elsewhere. Training passes a hook with dropout to its training steps
    only. Each adapter is checked here, once, against the weight shape its
    own factors name; on every call the op checks that they fit the weight
    it meets."""
    for _, ad in adapters.items():
        check_fits(ad, (ad.b.shape[0], ad.a.shape[-1]))

    def project(ops, x, w: Tensor, layer_index: int, name: str):
        ad = adapters.get(layer_index, name)
        if ad is None:
            return ops.linear(x, w)
        return adapted_matmul(ops, x, w, ad, dropout, rng)

    return project


def merge(weights: ModelWeights, adapters: AdapterSet) -> ModelWeights:
    """Fold every adapter delta into its base matrix: W <- W + scaling * B @ A.

    Returns a new ModelWeights (norms, embedding and head shared with the
    input). The adapter set is consumed; merging it twice raises.
    """
    if adapters.merged:
        raise ConfigError("adapter set was already merged; deltas would double")
    new_layers = []
    for i, lw in enumerate(weights.layers):
        updated = {}
        for name, w in lw.matrices():
            ad = adapters.get(i, name)
            if ad is None:
                updated[name] = w
                continue
            delta = ad.delta()
            if delta.shape != w.shape:
                raise ShapeError(
                    f"adapter delta {delta.shape} does not match "
                    f"layer {i} {name} {w.shape}")
            updated[name] = Tensor(w.data + delta)
        new_layers.append(LayerWeights(
            **updated, attn_norm=lw.attn_norm, ffn_norm=lw.ffn_norm))
    adapters.merged = True
    return ModelWeights(config=weights.config, embedding=weights.embedding,
                        layers=new_layers, final_norm=weights.final_norm,
                        head=weights.head)
