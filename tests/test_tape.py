"""What a training step's tape keeps alive.

A graph node holds its output's layout, not the output, and each op's
backward keeps only the arrays it will read, decided from which operands
require grad when the op is built. So once the forward drops a value that
no backward reads, it is freed while the loss graph lives on.
"""

import gc
import weakref
from collections import defaultdict

import numpy as np

import skiproute.data as D
import skiproute.lora as L
import skiproute.model as M
import skiproute.router as R
import skiproute.tensor as T
import skiproute.training as TR
from memcheck import NODE_OVERHEAD_BYTES, peak_bytes


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s buffer: a view dies before its buffer."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _rig(n_layers=3, d_model=16, n_heads=2, d_ff=32, batch=4):
    config = M.ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=n_heads,
                           d_ff=d_ff, max_seq=64)
    weights = M.init_model(config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    routers = R.RouterBank([R.Router(T.Tensor(rng.normal(0.0, 0.5, d_model).astype(np.float32)))
                            for _ in range(n_layers)])
    train, val, _ = D.generate_dataset(D.TaskSpec(
        kind="copy", min_len=6, max_len=8, n_train=batch, n_val=4, n_test=4, seed=1))
    return config, weights, routers, train, val


class _Recorder:
    """A projection hook around ``inner`` that keeps weak references to
    each projection's input and output buffers, by (layer, name)."""

    def __init__(self, inner):
        self.inner = inner
        self.inputs = defaultdict(list)
        self.outputs = defaultdict(list)

    def __call__(self, ops, x, w, layer_index, name):
        out = self.inner(ops, x, w, layer_index, name)
        self.inputs[layer_index, name].append(weakref.ref(_owner(x.data)))
        self.outputs[layer_index, name].append(weakref.ref(_owner(out.data)))
        return out


def _soft_loss(monkeypatch, rig, project):
    """The phase loss of one batch through ``project``, and weak references
    to every ρ-scaled branch."""
    config, weights, routers, train, _ = rig
    scaled = []
    mul = T.mul

    def recording_mul(a, b):
        out = mul(a, b)
        if a.ndim == 0 and b.ndim == 3:  # rho times a layer's branch
            scaled.append(weakref.ref(_owner(out.data)))
        return out

    monkeypatch.setattr(T, "mul", recording_mul)
    batch = D.encode_batch(train, config.max_seq)
    logits, rhos = R.soft_forward(config, weights, routers, batch.tokens[:, :-1],
                                  attn_mask=batch.attn[:, :-1],
                                  router_mask=batch.prompt_mask[:, :-1], project=project)
    loss = TR.loss_total(logits, batch.tokens[:, 1:], TR._ignore_mask(batch), routers,
                         rhos, 0.01, 0.01).total
    monkeypatch.setattr(T, "mul", mul)
    del logits, rhos
    gc.collect()
    return loss, scaled


def _dead(refs):
    return [r for r in refs if r() is not None] == []


def test_phase1_tape_frees_what_no_backward_reads(monkeypatch):
    rig = _rig()
    config, weights, routers = rig[:3]
    routers.set_requires_grad(True)
    rec = _Recorder(lambda ops, x, w, i, name: ops.linear(x, w))
    loss, scaled = _soft_loss(monkeypatch, rig, rec)
    layers = range(config.n_layers)
    assert len(scaled) == config.n_layers
    assert _dead(scaled)
    for i in layers:
        # pre-rope q/k, the wo and w_down outputs
        for name in ("wq", "wk", "wo", "w_down"):
            assert _dead(rec.outputs[i, name]), (i, name)
        # a frozen projection's backward reads W, not its input
        for name, _ in weights.layers[i].matrices():
            assert _dead(rec.inputs[i, name]), (i, name)
    # what backward does read stays: v, g and u past layer 0 (layer 0 reads
    # only the frozen embedding, so nothing in its branch takes a gradient)
    for i in layers[1:]:
        for name in ("wv", "w_gate", "w_up"):
            assert not _dead(rec.outputs[i, name]), (i, name)
    loss.backward()
    assert all(r.weight.grad is not None and np.any(r.weight.grad != 0)
               for r in routers.routers)


def test_lora_tape_frees_what_no_backward_reads(monkeypatch):
    rig = _rig()
    config, weights, routers = rig[:3]
    adapters = L.init_adapters(weights, rank=2, rng=np.random.default_rng(2))
    adapters.set_requires_grad(True)
    rec = _Recorder(L.adapted_project(adapters, dropout=0.1, rng=np.random.default_rng(3)))
    loss, scaled = _soft_loss(monkeypatch, rig, rec)
    assert len(scaled) == config.n_layers
    assert _dead(scaled)
    for i in range(config.n_layers):
        for name in ("wq", "wk", "wo", "w_down"):
            assert _dead(rec.outputs[i, name]), (i, name)
        # A's gradient reads every adapted projection's input
        for name, _ in weights.layers[i].matrices():
            assert not _dead(rec.inputs[i, name]), (i, name)
    loss.backward()
    # B starts at zero, so only B's gradient is nonzero after one sweep
    assert all(ad.a.grad is not None and np.any(ad.b.grad != 0) for _, ad in adapters.items())


def _lora_peak_bound(config, b, n, adapters):
    """Bytes one LoRA step may hold at once, from its shapes alone.

    The tape keeps, per layer and token, the float32 values some backward
    reads: the hidden state, its norm, post-rope q and k, v, the attention
    output's copy, h + a, its norm, g, u and swiglu(g, u) (an adapter's A
    gradient reads each projection's input), the branch (rho's gradient
    reads it), the attention weights (heads × n) and each adapter's
    rank-wide product; and the final hidden state, its norm and the
    logits. Backward adds up to eight temporaries of the widest
    activation (the cross entropy's and swiglu's). The adapters add their
    gradients and Adam's two moments, and each of a layer's 32 graph nodes
    its Python objects. A tape that kept the values no backward reads
    (pre-rope q and k, the attention output, the wo and w_down outputs,
    sigmoid(g) and the rho-scaled branch: 6·d + f more per layer and token)
    exceeds it.
    """
    d, f, heads, v = config.d_model, config.d_ff, config.n_heads, config.vocab_size
    rank_wide = sum(ad.rank for ad in adapters.adapters.values()) // config.n_layers
    per_layer = 10 * d + 3 * f + heads * n + rank_wide
    tape = 4 * b * n * (config.n_layers * per_layer + 2 * d + v)
    working = 8 * 4 * b * n * max(f, v)
    state = 3 * sum(p.data.nbytes for p in adapters.parameters())
    nodes = 32 * config.n_layers * NODE_OVERHEAD_BYTES
    return tape + working + state + nodes


def test_one_lora_step_peaks_within_its_tape_bound():
    config, weights, routers, train, val = _rig(n_layers=4, d_model=64, n_heads=4,
                                                d_ff=256, batch=16)
    adapters = L.init_adapters(weights, rng=np.random.default_rng(3))
    tc = TR.TrainConfig(batch_size=16, accum_steps=1, max_epochs=1, eval_every=1,
                        patience=10 ** 9, seed=1)
    b, width = D.encode_batch(train, config.max_seq).tokens.shape
    result, peak = peak_bytes(
        lambda: TR.train_lora(config, weights, routers, adapters, train, val[:1], tc))
    assert result.steps == 1
    bound = _lora_peak_bound(config, b, width - 1, adapters)
    assert peak <= bound, (peak, bound)
