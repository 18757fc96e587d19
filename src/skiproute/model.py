"""Decoder-only transformer with a skip-aware incremental KV cache.

Pre-norm layers: RMSNorm into causal multi-head attention with rotary
position embeddings, RMSNorm into a gated feed-forward. Each layer's
contribution is exposed as a residual branch so the soft training forward
can scale it by a probability and remain bitwise-identical to the hard
pass/skip limits.

Weight matrices are stored (out_features, in_features); a projection is
always x @ W.T. The KV cache holds post-rotation keys, so cached entries
never need re-rotating as decoding advances.

One definition of the layer serves training and inference, written against
an ops namespace that ``_ops`` picks by grad mode alone: the tape ops when
grad mode is on, the same forward kernels on bare arrays under ``no_grad``
(see ``tensor.plain``). Inference therefore builds no tape objects and
reads weights through ``.data`` views, so a weight updated in place is used
by the next call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import (CacheConsistencyError, ConfigError, MaskError, NumericalError,
                     ShapeError)
from .tensor import Tensor
from .tokenizer import VOCAB_SIZE


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 12
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    vocab_size: int = VOCAB_SIZE
    max_seq: int = 256

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError(f"need at least one layer, got {self.n_layers}")
        if self.vocab_size < 2:
            raise ConfigError(f"vocab size must be at least 2, got {self.vocab_size}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq < 1:
            raise ConfigError(f"max_seq must be positive, got {self.max_seq}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class LayerWeights:
    """One layer's parameters. ``wq``/``wk``/``wv`` are the row blocks of
    one C-contiguous (3·d_model, d_model) buffer ``qkv``, and ``w_gate``/
    ``w_up`` those of one (2·d_ff, d_model) buffer ``gate_up``: construction
    copies the given matrices into new buffers and names new Tensors over
    views of them. Whatever reads a named matrix or updates it in place
    (bundles, adapters, Adam) sees the one copy a fused decode product
    reads."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor
    attn_norm: Tensor
    ffn_norm: Tensor
    qkv: np.ndarray = field(init=False, repr=False, compare=False)
    gate_up: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.qkv = self._stack("wq", "wk", "wv")
        self.gate_up = self._stack("w_gate", "w_up")

    def _stack(self, *names: str) -> np.ndarray:
        parts = [getattr(self, name) for name in names]
        buf = np.concatenate([p.data for p in parts])
        lo = 0
        for name, p in zip(names, parts):
            hi = lo + p.shape[0]
            setattr(self, name, Tensor(buf[lo:hi], requires_grad=p.requires_grad))
            lo = hi
        return buf

    def matrices(self) -> Iterator[tuple[str, Tensor]]:
        for name in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"):
            yield name, getattr(self, name)

    def parameters(self) -> Iterator[Tensor]:
        for name in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down",
                     "attn_norm", "ffn_norm"):
            yield getattr(self, name)


@dataclass
class ModelWeights:
    config: ModelConfig
    embedding: Tensor
    layers: list[LayerWeights]
    final_norm: Tensor
    head: Tensor

    def parameters(self) -> Iterator[Tensor]:
        """Fixed traversal order; the binary container and optimizer rely on it."""
        yield self.embedding
        for lw in self.layers:
            yield from lw.parameters()
        yield self.final_norm
        yield self.head

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag


def init_model(config: ModelConfig, rng: np.random.Generator,
               dtype=np.float32) -> ModelWeights:
    """Fresh weights: normal(0, 0.02) projections, unit norm scales."""

    def mat(n_out, n_in):
        return Tensor(rng.normal(0.0, 0.02, size=(n_out, n_in)).astype(dtype))

    d, f, v = config.d_model, config.d_ff, config.vocab_size
    layers = [
        LayerWeights(
            wq=mat(d, d), wk=mat(d, d), wv=mat(d, d), wo=mat(d, d),
            w_gate=mat(f, d), w_up=mat(f, d), w_down=mat(d, f),
            attn_norm=Tensor(np.ones(d, dtype=dtype)),
            ffn_norm=Tensor(np.ones(d, dtype=dtype)),
        )
        for _ in range(config.n_layers)
    ]
    return ModelWeights(
        config=config,
        embedding=mat(v, d),
        layers=layers,
        final_norm=Tensor(np.ones(d, dtype=dtype)),
        head=mat(v, d),
    )


def _layer_set(config: ModelConfig, layers: Sequence[int]) -> frozenset[int]:
    """``layers`` as a set of layer indices; one outside the model raises
    ``ConfigError``."""
    found = frozenset(int(i) for i in layers)
    if found and (min(found) < 0 or max(found) >= config.n_layers):
        raise ConfigError(f"skip set {sorted(found)} names a layer outside "
                          f"0..{config.n_layers - 1}")
    return found


@lru_cache(maxsize=8)
def _rope_tables(max_seq: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (max_seq, head_dim) rotary tables in the interleaved form
    ``tensor.rope`` takes: ``cos`` repeats each pair's float32 cosine and
    ``sin`` holds the pair (-sin, +sin) of its float32 sine."""
    inv = 10000.0 ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.outer(np.arange(max_seq, dtype=np.float64), inv)
    cos = np.cos(angles).astype(np.float32)
    sin = np.sin(angles).astype(np.float32)
    tables = (np.repeat(cos, 2, axis=1),
              np.stack([-sin, sin], axis=-1).reshape(max_seq, head_dim))
    for t in tables:
        t.flags.writeable = False
    return tables


def _rope_rows(config: ModelConfig, start: int,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rotary table rows of positions ``start..start+n-1``, as slices of
    the tables; a range past ``max_seq`` raises ``ShapeError``."""
    if start + n > config.max_seq:
        raise ShapeError(f"sequence length {start + n} exceeds max_seq {config.max_seq}")
    return tuple(t[start:start + n] for t in _rope_tables(config.max_seq,
                                                          config.head_dim))


class KVCache:
    """Per-layer key/value buffers for one generation session.

    Buffers are head-major, (batch, heads, max_seq, head_dim), so the
    filled prefix of every head is read as a view, and only that prefix is
    ever read, so the buffers start uninitialised. ``decode_skip`` is the
    layer set this cache is bound to for decoding, checked against the
    model's layers; every decode step runs under it. Layers
    the session never executes keep a filled count of 0 and are never read.
    """

    def __init__(self, config: ModelConfig, batch_size: int = 1,
                 decode_skip: Sequence[int] = (), dtype=np.float32):
        shape = (batch_size, config.n_heads, config.max_seq, config.head_dim)
        self.config = config
        self.k = [np.empty(shape, dtype=dtype) for _ in range(config.n_layers)]
        self.v = [np.empty(shape, dtype=dtype) for _ in range(config.n_layers)]
        self.filled = [0] * config.n_layers
        self.n_positions = 0
        self.decode_skip = _layer_set(config, decode_skip)

    def append(self, layer_index: int, k_rows: np.ndarray,
               v_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store (b, h, n, hd) rows after the filled prefix; return views of
        the whole filled prefix, new rows included."""
        lo = self.filled[layer_index]
        hi = lo + k_rows.shape[2]
        if hi > self.config.max_seq:
            raise ShapeError(f"cache overflow: {hi} rows > max_seq {self.config.max_seq}")
        k, v = self.k[layer_index], self.v[layer_index]
        k[:, :, lo:hi] = k_rows
        v[:, :, lo:hi] = v_rows
        self.filled[layer_index] = hi
        return k[:, :, :hi], v[:, :, :hi]


def _ops():
    """The tape ops in grad mode, the plain kernels under ``no_grad``."""
    return T if T.grad_enabled() else T.plain


def _plain_project(ops, x, w: Tensor, layer_index: int, name: str):
    return ops.linear(x, w)


def _fuses(ops, project, x, buf: np.ndarray) -> bool:
    """Whether the default projections over the row blocks of ``buf`` run
    as one product over it: only under ``no_grad`` (the tape's x-gradient
    would sum in another order), only with no hook (adapters are per
    name), and only where ``tensor.fuses_on_small_kernel`` keeps each
    block's bytes. The caller also checks that the named matrices are
    still views of ``buf``, which a deepcopy or a rebound ``.data``
    undoes."""
    return project is _plain_project and ops is T.plain \
        and T.fuses_on_small_kernel(x, buf)


def attention_mask(attn_mask: Optional[np.ndarray], b: int, n: int,
                   t_len: int) -> Optional[np.ndarray]:
    """Which of ``t_len`` keys each of ``n`` queries may read, broadcastable
    over (b, heads, n, t_len): causal, and no padding. The queries are the
    last ``n`` keys. None when every key is allowed, as for one new token
    with no padding mask. A query left no key to read raises ``MaskError``.
    """
    if attn_mask is None and n == 1:
        return None
    past = t_len - n
    causal = np.arange(t_len)[None, :] <= (past + np.arange(n))[:, None]
    if attn_mask is None:
        return causal  # every query reads its own key
    key_valid = np.ones((b, t_len), dtype=bool)
    key_valid[:, past:past + n] = np.asarray(attn_mask) != 0
    keep = causal[None, None] & key_valid[:, None, None, :]
    if not keep.any(axis=-1).all():
        raise MaskError("attention row with every key masked")
    return keep


def _attention(ops, config: ModelConfig, lw: LayerWeights, x,
               mask: Optional[np.ndarray], rows: tuple[np.ndarray, np.ndarray],
               cache: Optional[KVCache], layer_index: int, project):
    b, n, d = x.shape
    h, hd = config.n_heads, config.head_dim
    cos, sin = rows

    def heads(t):  # (b, n, d) -> (b, h, n, hd)
        return ops.transpose(ops.reshape(t, (b, n, h, hd)), (0, 2, 1, 3))

    if _fuses(ops, project, x, lw.qkv) \
            and lw.wq.data.base is lw.wk.data.base is lw.wv.data.base is lw.qkv:
        # one product, and one rotation over its (2, b, h, n, hd) q/k view
        qkv = T.linear_fwd(x, lw.qkv).reshape(b, n, 3, h, hd).transpose(2, 0, 3, 1, 4)
        q, k = T.rope_fwd(qkv[:2], cos, sin)
        v = qkv[2]
    else:
        q = ops.rope(heads(project(ops, x, lw.wq, layer_index, "wq")), cos, sin)
        k = ops.rope(heads(project(ops, x, lw.wk, layer_index, "wk")), cos, sin)
        v = heads(project(ops, x, lw.wv, layer_index, "wv"))

    if cache is not None:
        # Stash the post-rotation rows and read the whole prefix back as
        # views. The cache holds values, never graph nodes: it serves
        # inference only.
        k, v = (ops.lift(t) for t in cache.append(
            layer_index, T.plain.lift(k), T.plain.lift(v)))

    out = ops.attention(q, k, v, hd**-0.5, mask)
    out = ops.reshape(ops.transpose(out, (0, 2, 1, 3)), (b, n, d))
    return project(ops, out, lw.wo, layer_index, "wo")


def _ffn(ops, lw: LayerWeights, x, layer_index: int, project):
    if _fuses(ops, project, x, lw.gate_up) \
            and lw.w_gate.data.base is lw.w_up.data.base is lw.gate_up:
        gu = T.linear_fwd(x, lw.gate_up)
        f = lw.w_gate.shape[0]
        g, u = gu[..., :f], gu[..., f:]
    else:
        g = project(ops, x, lw.w_gate, layer_index, "w_gate")
        u = project(ops, x, lw.w_up, layer_index, "w_up")
    return project(ops, ops.swiglu(g, u), lw.w_down, layer_index, "w_down")


def layer_branch(config: ModelConfig, weights: ModelWeights, layer_index: int,
                 x, mask: Optional[np.ndarray],
                 rows: tuple[np.ndarray, np.ndarray],
                 cache: Optional[KVCache] = None, project=None):
    """The layer's residual contribution: attention delta plus FFN delta.

    ``mask`` and ``rows`` belong to the pass, not to the layer: its
    ``attention_mask`` and the rotary table rows of its positions
    (``_rope_rows``), built once and handed to every layer. With a cache
    the layer appends its K,V rows; ``forward_full`` checks beforehand that
    they line up with ``rows``.

    ``project(ops, x, w, layer_index, name)`` lets callers wrap every weight
    application (low-rank adapters); it defaults to ``ops.linear(x, w)``.

    ``x`` is a Tensor or an ndarray. The layer runs over ``_ops()``: in
    grad mode on the tape, returning a Tensor; under ``no_grad`` on plain
    arrays, returning an ndarray.
    """
    if project is None:
        project = _plain_project
    lw = weights.layers[layer_index]
    ops = _ops()
    x = ops.lift(x)
    a = _attention(ops, config, lw, ops.rmsnorm(x, lw.attn_norm), mask,
                   rows, cache, layer_index, project)
    f = _ffn(ops, lw, ops.rmsnorm(ops.add(x, a), lw.ffn_norm), layer_index, project)
    return ops.add(a, f)


def layer_forward(config: ModelConfig, weights: ModelWeights, layer_index: int,
                  x, mask: Optional[np.ndarray],
                  rows: tuple[np.ndarray, np.ndarray],
                  cache: Optional[KVCache] = None) -> Tensor:
    """Residual-added layer output, as a Tensor."""
    ops = _ops()
    branch = layer_branch(config, weights, layer_index, x, mask, rows, cache)
    return T.lift(ops.add(ops.lift(x), branch))


def _finish(weights: ModelWeights, h):
    """Logits from the last hidden state, over ``_ops()`` as ``layer_branch``
    runs: a Tensor in grad mode, an ndarray under ``no_grad``."""
    ops = _ops()
    return ops.linear(ops.rmsnorm(ops.lift(h), weights.final_norm), weights.head)


def forward_full(config: ModelConfig, weights: ModelWeights, tokens: np.ndarray,
                 skip_set: Sequence[int] = (), cache: Optional[KVCache] = None,
                 attn_mask: Optional[np.ndarray] = None, project=None,
                 hidden: Optional[list] = None) -> Tensor:
    """Logits for a token block; skipped layers pass the hidden state through.

    With a cache, the block continues the session: positions pick up at
    ``cache.n_positions`` and executed layers append their K,V rows. Before
    any layer writes, every layer the pass runs must hold
    ``cache.n_positions`` rows, or ``CacheConsistencyError`` is raised and
    the cache is left as it was. With ``hidden``, the hidden state entering
    each executed layer is appended to it as a Tensor (what the routers
    read at prefill). A skip set naming a layer the model lacks raises
    ``ConfigError``, and a block running past ``max_seq`` ``ShapeError``.
    Under ``no_grad`` the whole pass runs on plain arrays. The attention
    mask and the rotary table rows are built once for all layers.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    b, n = tokens.shape
    start = cache.n_positions if cache is not None else 0
    rows = _rope_rows(config, start, n)
    skip = _layer_set(config, skip_set)
    if cache is not None:
        for i in range(config.n_layers):
            if i not in skip and cache.filled[i] != start:
                raise CacheConsistencyError(
                    f"layer {i} cache holds {cache.filled[i]} of {start} "
                    "previous positions")

    ops = _ops()
    h = ops.embedding(weights.embedding, tokens)
    mask = attention_mask(attn_mask, b, n, start + n)
    for i in range(config.n_layers):
        if i in skip:
            continue
        if hidden is not None:
            hidden.append(T.lift(h))
        h = ops.add(h, layer_branch(config, weights, i, h, mask, rows, cache, project))
    if cache is not None:
        cache.n_positions += n
    return T.lift(_finish(weights, h))


def decode_step(config: ModelConfig, weights: ModelWeights, tokens: np.ndarray,
                cache: KVCache, project=None) -> Tensor:
    """One incremental token under the cache's decode skip set."""
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.shape[1] != 1:
        raise ShapeError(f"decode_step takes one token per sequence, got {tokens.shape}")
    return forward_full(config, weights, tokens, skip_set=cache.decode_skip,
                        cache=cache, project=project)


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "greedy"
    top_k: int = 10
    temperature: float = 0.8

    def __post_init__(self):
        if self.mode not in ("greedy", "topk"):
            raise ConfigError(f"sampler mode must be greedy or topk, got {self.mode!r}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be positive, got {self.top_k}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


def sample_token(logits_row: np.ndarray, sampler: SamplerConfig,
                 rng: Optional[np.random.Generator]) -> int:
    row = np.asarray(logits_row, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(row)):
        raise NumericalError("non-finite logits reached the sampler")
    if sampler.mode == "greedy":
        return int(np.argmax(row))
    if rng is None:
        raise ConfigError("top-k sampling needs a random generator")
    k = min(sampler.top_k, row.size)
    top = np.argpartition(-row, k - 1)[:k]
    scaled = row[top] / sampler.temperature
    p = np.exp(scaled - scaled.max())
    p /= p.sum()
    return int(rng.choice(top, p=p))


@dataclass
class GenerationResult:
    tokens: list[int]
    decode_times: list[float] = field(default_factory=list)


def _generate(config: ModelConfig, weights: ModelWeights, prompt_ids: Sequence[int],
              max_new_tokens: int, prefill: Callable, sampler: SamplerConfig,
              rng: Optional[np.random.Generator], stop_at: Optional[int],
              project) -> tuple[GenerationResult, object]:
    """The generation loop behind both fixed-skip and routed generation.

    ``prefill(prompt)`` runs the (1, n) prompt and returns its logits, a
    cache bound to the decode skip set, and whatever else the caller wants
    back. The first new token comes from the prefill logits; every later
    token is one timed decode step under ``cache.decode_skip``, so
    ``decode_times`` has one entry per generated token after the first.
    """
    if max_new_tokens < 1:
        raise ConfigError(f"max_new_tokens must be at least 1, got {max_new_tokens}")
    prompt = np.asarray(list(prompt_ids), dtype=np.int64)
    if prompt.size == 0:
        raise ShapeError("cannot generate from an empty prompt")

    with T.no_grad():
        logits, cache, extra = prefill(prompt[None, :])

        out: list[int] = []
        times: list[float] = []
        tok = sample_token(logits.data[0, -1], sampler, rng)
        out.append(tok)
        while len(out) < max_new_tokens and tok != stop_at \
                and cache.n_positions < config.max_seq:
            t0 = time.perf_counter()
            logits = decode_step(config, weights, np.array([[tok]]), cache,
                                 project=project)
            tok = sample_token(logits.data[0, -1], sampler, rng)
            times.append(time.perf_counter() - t0)
            out.append(tok)
    return GenerationResult(tokens=out, decode_times=times), extra


def generate(config: ModelConfig, weights: ModelWeights, prompt_ids: Sequence[int],
             max_new_tokens: int, sampler: SamplerConfig = SamplerConfig(),
             skip_set: Sequence[int] = (), rng: Optional[np.random.Generator] = None,
             stop_at: Optional[int] = None, project=None,
             prefill_skip: Sequence[int] = ()) -> GenerationResult:
    """Autoregressive generation with a fixed skip set and per-step timing.

    The prompt runs through every layer, as in routed generation, and
    ``skip_set`` governs decoding only. ``prefill_skip`` (every layer runs
    by default) skips layers at prefill too.
    """
    skip = frozenset(int(i) for i in skip_set)
    pre_skip = frozenset(int(i) for i in prefill_skip)

    def prefill(prompt):
        cache = KVCache(config, batch_size=1, decode_skip=skip,
                        dtype=weights.embedding.dtype)
        logits = forward_full(config, weights, prompt, skip_set=pre_skip,
                              cache=cache, project=project)
        return logits, cache, None

    return _generate(config, weights, prompt_ids, max_new_tokens, prefill,
                     sampler, rng, stop_at, project)[0]

