import contextlib
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skiproute import bundle as BU
from skiproute import data as D
from skiproute import lora as L
from skiproute import model as M
from skiproute import router as R
from skiproute import tensor as T
from skiproute import training as TR
from skiproute.errors import (CacheConsistencyError, ConfigError, MaskError,
                              NumericalError, ShapeError, VocabularyError)


def tiny_model(m=3, d=16, heads=2, d_ff=32, vocab=40, max_seq=32, seed=0, dtype=np.float32):
    cfg = M.ModelConfig(n_layers=m, d_model=d, n_heads=heads, d_ff=d_ff,
                        vocab_size=vocab, max_seq=max_seq)
    return cfg, M.init_model(cfg, np.random.default_rng(seed), dtype=dtype)


def tokens_for(cfg, n, seed=1):
    return np.random.default_rng(seed).integers(0, cfg.vocab_size, size=(1, n))


def pass_inputs(cfg, b, n):
    """The attention mask and rotary rows of an unpadded (b, n) block at
    position 0, as a pass builds them for its layers."""
    return M.attention_mask(None, b, n, n), M._rope_rows(cfg, 0, n)


class TestConfig:
    def test_head_split_must_divide(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(n_layers=2, d_model=10, n_heads=4)

    def test_bounds(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(n_layers=0)
        with pytest.raises(ConfigError):
            M.ModelConfig(vocab_size=1)

    def test_init_statistics(self):
        cfg, w = tiny_model(d=64, d_ff=128, vocab=200, seed=3)
        assert w.embedding.shape == (200, 64)
        assert w.layers[0].w_gate.shape == (128, 64)
        assert w.layers[0].w_down.shape == (64, 128)
        assert np.all(w.final_norm.data == 1.0)
        flat = np.concatenate([lw.wq.data.ravel() for lw in w.layers])
        assert abs(flat.std() - 0.02) < 0.002 and abs(flat.mean()) < 0.002


class TestLayerForward:
    def test_residual_identity_with_zeroed_outputs(self):
        cfg, w = tiny_model()
        w.layers[1].wo.data[:] = 0.0
        w.layers[1].w_down.data[:] = 0.0
        x = T.Tensor(np.random.default_rng(2).normal(size=(2, 5, cfg.d_model)))
        out = M.layer_forward(cfg, w, 1, x, *pass_inputs(cfg, 2, 5))
        np.testing.assert_array_equal(out.data, x.data)

    def test_single_position_attention_matches_hand_computation(self):
        cfg, w = tiny_model(m=1, d=2, heads=1, d_ff=4, vocab=6, seed=7, dtype=np.float64)
        lw = w.layers[0]
        x = np.array([[[0.3, -1.1]]])
        xn = x / np.sqrt((x**2).mean(-1, keepdims=True) + 1e-5)
        # one position at index 0: rotation is identity, softmax over one
        # score is 1, so attention output is the O-projected V-projection
        expected = (xn @ lw.wv.data.T) @ lw.wo.data.T
        rows = M._rope_rows(cfg, 0, 1)
        got = M._attention(T, cfg, lw, T.Tensor(xn), None, rows, None, 0,
                           M._plain_project)
        np.testing.assert_allclose(got.data, expected, rtol=1e-12)
        lw.wo.data[:] = np.eye(2)
        got_v = M._attention(T, cfg, lw, T.Tensor(xn), None, rows, None, 0,
                             M._plain_project)
        np.testing.assert_allclose(got_v.data, xn @ lw.wv.data.T, rtol=1e-12)

    def test_causal_at_any_start_position(self):
        cfg, w = tiny_model()
        x = np.random.default_rng(1).normal(size=(1, 4, cfg.d_model))
        later = x.copy()
        later[0, 3] += 1.0
        mask = M.attention_mask(None, 1, 4, 4)
        for start in (0, 3):
            rows = M._rope_rows(cfg, start, 4)
            a = M.layer_forward(cfg, w, 0, T.Tensor(x), mask, rows)
            b = M.layer_forward(cfg, w, 0, T.Tensor(later), mask, rows)
            np.testing.assert_array_equal(a.data[:, :3], b.data[:, :3])

    def test_cache_position_mismatch(self):
        # the block would start at position 3, but no layer holds any rows
        cfg, w = tiny_model()
        cache = M.KVCache(cfg)
        cache.n_positions = 3
        with pytest.raises(CacheConsistencyError):
            M.forward_full(cfg, w, tokens_for(cfg, 2), cache=cache)
        assert cache.filled == [0, 0, 0] and cache.n_positions == 3


def _half_tables(max_seq, hd):
    """The half-width float32 tables rotary embedding was defined with."""
    inv = 10000.0 ** (-np.arange(0, hd, 2, dtype=np.float64) / hd)
    angles = np.outer(np.arange(max_seq, dtype=np.float64), inv)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def _half_rope(d, cos, sin):
    """Reference rotation over half-width tables: four products on the
    strided halves of each pair."""
    x1, x2 = d[..., 0::2], d[..., 1::2]
    out = np.empty_like(d)
    np.subtract(x1 * cos, x2 * sin, out=out[..., 0::2])
    np.add(x1 * sin, x2 * cos, out=out[..., 1::2])
    return out


def _half_rope_grad(g, cos, sin):
    g1, g2 = g[..., 0::2], g[..., 1::2]
    gx = np.empty_like(g)
    gx[..., 0::2] = g1 * cos + g2 * sin
    gx[..., 1::2] = -g1 * sin + g2 * cos
    return gx


def _bits(a):
    a = np.asarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestRotary:
    def test_tables_interleave_the_half_width_tables(self):
        cos_h, sin_h = _half_tables(256, 16)
        cos, sin = M._rope_tables(256, 16)
        assert cos.shape == sin.shape == (256, 16)
        assert cos.dtype == sin.dtype == np.float32
        for even_odd in (slice(0, None, 2), slice(1, None, 2)):
            np.testing.assert_array_equal(_bits(cos[:, even_odd]), _bits(cos_h))
        np.testing.assert_array_equal(_bits(sin[:, 0::2]), _bits(-sin_h))
        np.testing.assert_array_equal(_bits(sin[:, 1::2]), _bits(sin_h))
        assert not cos.flags.writeable and not sin.flags.writeable

    # (batch, positions) of a default-model decode step at the first and
    # last position, a 240-token prefill block and a batch-16 training block
    @pytest.mark.parametrize("b,positions", [
        (1, [0]), (1, [255]), (1, list(range(240))), (16, list(range(20)))],
        ids=["decode0", "decode255", "prefill240", "train16"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_matches_half_width_composition(self, b, positions, dtype):
        h, hd = 4, 16
        n = len(positions)
        rng = np.random.default_rng(n + b)
        # laid out as the model's heads: a transposed view of (b, n, h*hd)
        d = rng.normal(size=(b, n, h * hd)).astype(dtype).reshape(
            b, n, h, hd).transpose(0, 2, 1, 3)
        g = rng.normal(size=(b, h, n, hd)).astype(dtype)
        cos_h, sin_h = (t[positions] for t in _half_tables(256, hd))
        rows = M._rope_rows(M.ModelConfig(), positions[0], n)

        ref = _half_rope(d, cos_h, sin_h)
        got = T.plain.rope(d, *rows)
        np.testing.assert_array_equal(_bits(got), _bits(ref))
        assert got.strides == ref.strides

        x = T.Tensor(d, requires_grad=True)
        out = T.rope(x, *rows)
        np.testing.assert_array_equal(_bits(out.data), _bits(ref))
        out.backward(g)
        np.testing.assert_array_equal(_bits(x.grad), _bits(_half_rope_grad(g, cos_h, sin_h)))

    # (start, n): a block running one and two positions past max_seq
    @pytest.mark.parametrize("positions", [(15, 2), (13, 5)])
    def test_positions_outside_the_tables_raise(self, positions):
        start, n = positions
        cfg, w = tiny_model(m=2, max_seq=16)
        with pytest.raises(ShapeError, match="exceeds max_seq 16"):
            M._rope_rows(cfg, start, n)
        cache = M.KVCache(cfg)
        with T.no_grad():
            M.forward_full(cfg, w, tokens_for(cfg, start), cache=cache)
            with pytest.raises(ShapeError, match="exceeds max_seq 16"):
                M.forward_full(cfg, w, tokens_for(cfg, n), cache=cache)
        assert cache.filled == [start, start] and cache.n_positions == start

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("case", ["plain", "cache", "padded"])
    def test_shared_rows_match_direct_layer_calls(self, case, grad):
        """``forward_full`` hands every layer slices of the tables; a chain of
        direct ``layer_forward`` calls given rows gathered position by
        position gives the same bits."""
        cfg, w = tiny_model(m=3, max_seq=32)
        toks = np.random.default_rng(4).integers(0, cfg.vocab_size, size=(2, 9))
        attn = np.ones((2, 9), dtype=np.int64)
        if case == "padded":
            attn[1, 6:] = 0
        blocks = [(0, 5), (5, 9)] if case == "cache" else [(0, 9)]
        mask = attn if case == "padded" else None
        with contextlib.ExitStack() as stack:
            if not grad:
                stack.enter_context(T.no_grad())
            cache = M.KVCache(cfg, batch_size=2) if case == "cache" else None
            ref_cache = M.KVCache(cfg, batch_size=2) if case == "cache" else None
            for lo, hi in blocks:
                got = M.forward_full(cfg, w, toks[:, lo:hi], cache=cache, attn_mask=mask)
                ref = T.embedding(w.embedding, toks[:, lo:hi])
                ref_mask = M.attention_mask(mask, 2, hi - lo, hi)
                rows = tuple(t[np.arange(lo, hi)] for t in M._rope_tables(
                    cfg.max_seq, cfg.head_dim))
                for i in range(cfg.n_layers):
                    ref = M.layer_forward(cfg, w, i, ref, ref_mask, rows, ref_cache)
                if ref_cache is not None:
                    ref_cache.n_positions = hi
                ref = M._finish(w, ref)
                np.testing.assert_array_equal(_bits(T.lift(got).data),
                                              _bits(T.lift(ref).data))


class TestForwardFull:
    def test_skip_empty_equals_layerwise_loop(self):
        cfg, w = tiny_model()
        toks = tokens_for(cfg, 6)
        ref = T.embedding(w.embedding, toks)
        for i in range(cfg.n_layers):
            ref = M.layer_forward(cfg, w, i, ref, *pass_inputs(cfg, 1, 6))
        ref = M._finish(w, ref)
        out = M.forward_full(cfg, w, toks)
        np.testing.assert_array_equal(out.data, ref.data)

    def test_skip_all_is_embeddings_through_head(self):
        cfg, w = tiny_model()
        toks = tokens_for(cfg, 4)
        out = M.forward_full(cfg, w, toks, skip_set=range(cfg.n_layers))
        ref = M._finish(w, T.embedding(w.embedding, toks))
        np.testing.assert_array_equal(out.data, ref.data)

    def test_skip_one_equals_model_surgery(self):
        cfg, w = tiny_model(m=4)
        toks = tokens_for(cfg, 7)
        for i in range(cfg.n_layers):
            skipped = M.forward_full(cfg, w, toks, skip_set={i})
            # the same weights with layer i physically removed
            small_cfg = dataclasses.replace(cfg, n_layers=cfg.n_layers - 1)
            smaller = M.ModelWeights(small_cfg, w.embedding, w.layers[:i] + w.layers[i + 1:],
                                     w.final_norm, w.head)
            direct = M.forward_full(small_cfg, smaller, toks)
            assert np.max(np.abs(skipped.data - direct.data)) == 0.0

    def test_causality(self):
        cfg, w = tiny_model()
        toks = tokens_for(cfg, 8)
        with T.no_grad():
            base = M.forward_full(cfg, w, toks).data
            toks2 = toks.copy()
            toks2[0, 5] = (toks2[0, 5] + 1) % cfg.vocab_size
            pert = M.forward_full(cfg, w, toks2).data
        np.testing.assert_array_equal(base[:, :5], pert[:, :5])
        assert np.any(base[:, 5:] != pert[:, 5:])

    def test_vocabulary_error(self):
        cfg, w = tiny_model()
        with pytest.raises(VocabularyError):
            M.forward_full(cfg, w, np.array([[0, cfg.vocab_size]]))

    def test_length_limit(self):
        cfg, w = tiny_model(max_seq=8)
        with pytest.raises(ShapeError):
            M.forward_full(cfg, w, tokens_for(cfg, 9))

    @pytest.mark.parametrize("skip", [{3}, {-1}, {0, 99}])
    def test_skip_set_outside_the_model_raises(self, skip):
        cfg, w = tiny_model(m=3)
        with pytest.raises(ConfigError, match="outside 0..2"):
            M.forward_full(cfg, w, tokens_for(cfg, 4), skip_set=skip)
        with pytest.raises(ConfigError, match="outside 0..2"):
            M.KVCache(cfg, decode_skip=skip)

    @pytest.mark.parametrize("grad", [False, True])
    def test_fully_masked_attention_row_raises(self, grad):
        # the first query reads only itself; masking it leaves that row empty
        cfg, w = tiny_model()
        w.set_requires_grad(grad)
        toks = tokens_for(cfg, 5)
        attn = np.array([[0, 1, 1, 1, 1]])
        with pytest.raises(MaskError):
            M.forward_full(cfg, w, toks, attn_mask=attn)
        with pytest.raises(MaskError):
            M.attention_mask(attn, 1, 5, 5)


class TestKVCacheEquivalence:
    @pytest.mark.parametrize("skip", [(), (1,), (0, 2)])
    def test_token_by_token_matches_full(self, skip):
        cfg, w = tiny_model()
        toks = tokens_for(cfg, 6, seed=9)
        with T.no_grad():
            full = M.forward_full(cfg, w, toks, skip_set=skip).data
            cache = M.KVCache(cfg, decode_skip=skip)
            step_logits = [M.forward_full(cfg, w, toks[:, :1], skip_set=skip,
                                          cache=cache).data[:, -1]]
            for j in range(1, toks.shape[1]):
                out = M.decode_step(cfg, w, toks[:, j:j + 1], cache)
                step_logits.append(out.data[:, -1])
        stacked = np.stack(step_logits, axis=1)
        assert np.max(np.abs(stacked - full)) < 1e-4

    def test_prefill_block_then_decode(self):
        cfg, w = tiny_model()
        toks = tokens_for(cfg, 7, seed=11)
        with T.no_grad():
            full = M.forward_full(cfg, w, toks, skip_set=(2,)).data
            cache = M.KVCache(cfg, decode_skip=(2,))
            M.forward_full(cfg, w, toks[:, :4], skip_set=(2,), cache=cache)
            outs = [M.decode_step(cfg, w, toks[:, j:j + 1], cache).data[:, -1]
                    for j in range(4, 7)]
        assert np.max(np.abs(np.stack(outs, axis=1) - full[:, 4:])) < 1e-4

    def test_skipped_layer_never_written(self):
        cfg, w = tiny_model()
        cache = M.KVCache(cfg, decode_skip=(1,))
        # the buffers start uninitialised; a NaN fill shows any write
        for buf in cache.k + cache.v:
            buf.fill(np.nan)
        with T.no_grad():
            M.forward_full(cfg, w, tokens_for(cfg, 5), skip_set=(1,), cache=cache)
        assert cache.filled == [5, 0, 5]
        assert np.isnan(cache.k[1]).all() and np.isnan(cache.v[1]).all()

    def test_unfilled_rows_are_never_read(self, monkeypatch):
        # every generation path must read only the rows it wrote: a cache
        # whose buffers start as NaN gives the zeroed cache's bits exactly
        cfg, w = tiny_model(m=4)
        prompt = tokens_for(cfg, 6, seed=5)
        bank = R.RouterBank([R.Router(T.Tensor(np.full(cfg.d_model, s, dtype=np.float32)))
                             for s in (2.0, -9.0, 0.0, 9.0)])

        def run(fill):
            class Filled(M.KVCache):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    for buf in self.k + self.v:
                        buf.fill(fill)

            monkeypatch.setattr(M, "KVCache", Filled)
            monkeypatch.setattr(R, "KVCache", Filled)
            out = []
            for skip in ((), (1, 2)):
                out.append(M.generate(cfg, w, prompt[0], 8, skip_set=skip).tokens)
                with T.no_grad():
                    cache = M.KVCache(cfg, decode_skip=skip)
                    out.append(M.forward_full(cfg, w, prompt, skip_set=skip, cache=cache).data)
                    for tok in (3, 7, 1):
                        out.append(M.decode_step(cfg, w, np.array([[tok]]), cache).data)
            logits, cache, decision = R.prefill(cfg, w, bank, prompt)
            assert 0 < len(decision.skip_set) < cfg.n_layers
            out.append(logits.data)
            with T.no_grad():
                out.append(M.decode_step(cfg, w, np.array([[3]]), cache).data)
            res, routed = R.generate_with_routers(cfg, w, bank, prompt[0], 8)
            out += [res.tokens, routed.skip_set]
            return out

        poisoned, zeroed = run(np.nan), run(0.0)
        for got, want in zip(poisoned, zeroed):
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want

    def test_decode_missing_history(self):
        cfg, w = tiny_model()
        # prefill skipped layer 1 but the decode set claims it should run
        cache = M.KVCache(cfg, decode_skip=())
        with T.no_grad():
            M.forward_full(cfg, w, tokens_for(cfg, 3), skip_set=(1,), cache=cache)
            with pytest.raises(CacheConsistencyError):
                M.decode_step(cfg, w, np.array([[1]]), cache)

    def test_missing_history_fails_before_any_write(self):
        # layer 1 was skipped at prefill; a full block must not let layer 0
        # grow past the positions the cache has seen
        cfg, w = tiny_model(m=3)
        cache = M.KVCache(cfg)
        with T.no_grad():
            M.forward_full(cfg, w, tokens_for(cfg, 3), skip_set=(1,), cache=cache)
            with pytest.raises(CacheConsistencyError):
                M.forward_full(cfg, w, tokens_for(cfg, 1), cache=cache)
        assert cache.filled == [3, 0, 3] and cache.n_positions == 3

    def test_decode_step_takes_single_token(self):
        cfg, w = tiny_model()
        cache = M.KVCache(cfg)
        with T.no_grad():
            M.forward_full(cfg, w, tokens_for(cfg, 2), cache=cache)
            with pytest.raises(ShapeError):
                M.decode_step(cfg, w, tokens_for(cfg, 2), cache)


class TestSampling:
    def test_greedy_is_argmax(self):
        row = np.array([0.1, 2.0, -1.0])
        assert M.sample_token(row, M.SamplerConfig(mode="greedy"), None) == 1

    def test_topk_stays_in_top_set(self):
        rng = np.random.default_rng(0)
        row = np.array([10.0, 9.0, -50.0, -50.0, 8.5])
        cfg = M.SamplerConfig(mode="topk", top_k=3, temperature=0.8)
        draws = {M.sample_token(row, cfg, rng) for _ in range(50)}
        assert draws <= {0, 1, 4}

    def test_topk_defaults(self):
        cfg = M.SamplerConfig(mode="topk")
        assert cfg.top_k == 10 and cfg.temperature == 0.8

    def test_non_finite_logits(self):
        with pytest.raises(NumericalError):
            M.sample_token(np.array([1.0, np.nan]), M.SamplerConfig(), None)

    def test_bad_sampler_config(self):
        with pytest.raises(ConfigError):
            M.SamplerConfig(mode="beam")
        with pytest.raises(ConfigError):
            M.SamplerConfig(temperature=0.0)


class TestGenerate:
    def test_greedy_reproducible(self):
        cfg, w = tiny_model()
        prompt = [1, 2, 3]
        a = M.generate(cfg, w, prompt, max_new_tokens=8)
        b = M.generate(cfg, w, prompt, max_new_tokens=8)
        assert a.tokens == b.tokens and len(a.tokens) == 8

    def test_single_token(self):
        cfg, w = tiny_model()
        out = M.generate(cfg, w, [1, 2], max_new_tokens=1)
        assert len(out.tokens) == 1 and out.decode_times == []

    def test_decode_times_count(self):
        cfg, w = tiny_model()
        out = M.generate(cfg, w, [1, 2], max_new_tokens=5)
        assert len(out.decode_times) == len(out.tokens) - 1

    def test_stop_token(self):
        cfg, w = tiny_model()
        probe = M.generate(cfg, w, [1], max_new_tokens=6)
        stop = probe.tokens[2]
        out = M.generate(cfg, w, [1], max_new_tokens=6, stop_at=stop)
        assert out.tokens == probe.tokens[:3]

    def test_skip_changes_output_but_stays_deterministic(self):
        cfg, w = tiny_model()
        a = M.generate(cfg, w, [1, 2], max_new_tokens=6, skip_set={1})
        b = M.generate(cfg, w, [1, 2], max_new_tokens=6, skip_set={1})
        assert a.tokens == b.tokens

    def test_topk_reproducible_with_seed(self):
        cfg, w = tiny_model()
        s = M.SamplerConfig(mode="topk")
        a = M.generate(cfg, w, [3], 6, sampler=s, rng=np.random.default_rng(4))
        b = M.generate(cfg, w, [3], 6, sampler=s, rng=np.random.default_rng(4))
        assert a.tokens == b.tokens

    def test_bad_budget(self):
        cfg, w = tiny_model()
        with pytest.raises(ConfigError):
            M.generate(cfg, w, [1], max_new_tokens=0)

    def test_empty_prompt(self):
        cfg, w = tiny_model()
        with pytest.raises(ShapeError):
            M.generate(cfg, w, [], max_new_tokens=2)

    @pytest.mark.parametrize("prefill_skip", [None, ()])
    def test_skip_set_outside_the_model(self, prefill_skip):
        cfg, w = tiny_model()
        with pytest.raises(ConfigError):
            M.generate(cfg, w, [1, 2], 3, skip_set={99},
                       prefill_skip=prefill_skip)
        with pytest.raises(ConfigError):
            M.generate(cfg, w, [1, 2], 3, prefill_skip={-1})


class TestTrainingPath:
    def test_gradients_reach_all_parameters(self):
        cfg, w = tiny_model(m=2, d=8, heads=2, d_ff=16, vocab=12, dtype=np.float64)
        w.set_requires_grad(True)
        toks = np.random.default_rng(0).integers(0, 12, size=(2, 5))
        logits = M.forward_full(cfg, w, toks[:, :-1])
        loss = T.cross_entropy(logits, toks[:, 1:])
        loss.backward()
        for p in w.parameters():
            assert p.grad is not None and np.any(p.grad != 0)

    def test_padding_mask_blocks_attention(self):
        cfg, w = tiny_model()
        toks = tokens_for(cfg, 6)
        attn = np.ones((1, 6), dtype=np.uint8)
        attn[0, 4:] = 0  # last two are pad
        with T.no_grad():
            masked = M.forward_full(cfg, w, toks, attn_mask=attn).data
            toks2 = toks.copy()
            toks2[0, 5] = (toks2[0, 5] + 3) % cfg.vocab_size
            masked2 = M.forward_full(cfg, w, toks2, attn_mask=attn).data
        np.testing.assert_array_equal(masked[:, :4], masked2[:, :4])


def _greedy_on_tape(cfg, w, prompt, n_new, decode_skip=(), project=None,
                    routers=None):
    """Reference greedy decoding with every forward recorded on the tape:
    full prefill into a cache, then one cached step per token under
    ``decode_skip`` (or the routers' decision, read from the prefill's
    layer inputs as ``R.prefill`` reads them)."""
    cache = M.KVCache(cfg, dtype=w.embedding.dtype)
    hs = []
    logits = M.forward_full(cfg, w, np.asarray(prompt)[None, :], cache=cache,
                            project=project, hidden=hs)
    assert logits.requires_grad  # the tape really ran
    if routers is not None:
        decode_skip = R.SkipDecision.from_rhos(
            [R.unify_batch(R.router_probability(r, h)).item()
             for r, h in zip(routers.routers, hs)]).skip_set
    tokens = [int(np.argmax(logits.data[0, -1]))]
    while len(tokens) < n_new:
        logits = M.forward_full(cfg, w, np.array([[tokens[-1]]]),
                                skip_set=decode_skip, cache=cache, project=project)
        tokens.append(int(np.argmax(logits.data[0, -1])))
    return tokens


def _with_random_adapters(w, seed):
    adapters = L.init_adapters(w, rank=4, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for _, ad in adapters.items():
        ad.b.data[:] = rng.normal(0.0, 0.05, size=ad.b.shape).astype(ad.b.dtype)
    return adapters


class TestPlainPath:
    """Inference without a tape computes what the tape computes."""

    @pytest.mark.parametrize("size", ["default", "tiny64"])
    def test_logits_match_the_tape(self, size):
        if size == "default":
            cfg = M.ModelConfig()
            w = M.init_model(cfg, np.random.default_rng(5))
        else:
            cfg, w = tiny_model(m=3, d=16, heads=2, seed=5, dtype=np.float64)
        toks = np.random.default_rng(6).integers(0, cfg.vocab_size, size=(2, 9))
        attn = np.ones((2, 9), dtype=np.uint8)
        attn[1, 7:] = 0
        adapters = _with_random_adapters(w, 7)
        for project in (None, L.adapted_project(adapters)):
            with T.no_grad():
                plain = M.forward_full(cfg, w, toks, attn_mask=attn, project=project)
            w.set_requires_grad(True)
            adapters.set_requires_grad(True)
            try:
                tape = M.forward_full(cfg, w, toks, attn_mask=attn, project=project)
            finally:
                w.set_requires_grad(False)
                adapters.set_requires_grad(False)
            assert tape.requires_grad and not plain.requires_grad
            assert plain.dtype == w.embedding.dtype
            assert plain.data.tobytes() == tape.data.tobytes()
            # grad mode alone puts the forward on the tape; with nothing to
            # differentiate it records no graph and computes the same bytes
            frozen = M.forward_full(cfg, w, toks, attn_mask=attn, project=project)
            assert not frozen.requires_grad
            assert frozen.data.tobytes() == plain.data.tobytes()

    def test_greedy_tokens_match_the_tape(self):
        cfg = M.ModelConfig()
        w = M.init_model(cfg, np.random.default_rng(8))
        routers = R.init_routers(cfg)
        rng = np.random.default_rng(9)
        for r in routers.routers:
            r.weight.data[:] = rng.normal(0.0, 3.0, size=cfg.d_model)
        adapters = _with_random_adapters(w, 10)
        prompt = rng.integers(97, 123, size=10).tolist()
        skips = {"full": (), "skip2": (6, 9), "skip4": (3, 5, 7, 9)}
        for with_adapters in (False, True):
            project = L.adapted_project(adapters) if with_adapters else None
            got = {name: M.generate(cfg, w, prompt, 8, skip_set=skip,
                                    prefill_skip=(), project=project).tokens
                   for name, skip in skips.items()}
            routed, decision = R.generate_with_routers(cfg, w, routers, prompt, 8,
                                                       project=project)
            got["routed"] = routed.tokens
            assert 0 < len(decision.skip_set) < cfg.n_layers

            w.set_requires_grad(True)
            adapters.set_requires_grad(True)
            try:
                want = {name: _greedy_on_tape(cfg, w, prompt, 8, skip, project)
                        for name, skip in skips.items()}
                want["routed"] = _greedy_on_tape(cfg, w, prompt, 8,
                                                 project=project, routers=routers)
            finally:
                w.set_requires_grad(False)
                adapters.set_requires_grad(False)
            assert got == want, with_adapters

    def test_decode_step_builds_no_tape(self, monkeypatch):
        cfg, w = tiny_model()
        cache = M.KVCache(cfg)
        with T.no_grad():
            M.forward_full(cfg, w, tokens_for(cfg, 4), cache=cache)
            made = []
            init = T.Tensor.__init__

            def counted(obj, *args, **kwargs):
                made.append(obj)
                init(obj, *args, **kwargs)

            monkeypatch.setattr(T.Tensor, "__init__", counted)
            logits = M.decode_step(cfg, w, np.array([[3]]), cache)
        assert made == [logits]

    def test_generate_reads_weights_updated_in_place(self):
        cfg = M.ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, max_seq=32)
        w = M.init_model(cfg, np.random.default_rng(11))
        train, val, _ = D.generate_dataset(D.TaskSpec(
            kind="copy", min_len=3, max_len=3, n_train=4, n_val=2, n_test=1, seed=1))
        prompt = [1, 2, 3, 4]
        before = M.generate(cfg, w, prompt, 6).tokens
        tc = TR.TrainConfig(lr_min=0.05, lr_max=0.05, accum_steps=1,
                            batch_size=4, max_epochs=1, eval_every=1)
        assert TR.train_model(cfg, w, train, val, tc).steps == 1
        after = M.generate(cfg, w, prompt, 6).tokens
        assert after != before
        assert after == M.generate(cfg, copy.deepcopy(w), prompt, 6).tokens


def _separate(ops, x, w, layer_index, name):
    """The default projection as a hook: any hook keeps the separate
    products."""
    return ops.linear(x, w)


def _fused_products(monkeypatch, w):
    """A list that gains the id of the buffer of each product run over a
    layer's q/k/v or gate/up buffer of ``w``."""
    bufs = {id(buf) for lw in w.layers for buf in (lw.qkv, lw.gate_up)}
    seen = []
    kernel = T.linear_fwd

    def counted(x, weight):
        if id(weight) in bufs:
            seen.append(id(weight))
        return kernel(x, weight)

    monkeypatch.setattr(T, "linear_fwd", counted)
    return seen


def _decode_bytes(cfg, w, prompt, n_new, skip=(), routers=None, project=None):
    """Greedy tokens, the bytes of every logit row and of every filled K/V
    row, and the decode skip set, of a full prefill (routed when
    ``routers`` are given) and ``n_new - 1`` decode steps."""
    prompt = np.asarray(prompt)[None, :]
    with T.no_grad():
        if routers is None:
            cache = M.KVCache(cfg, decode_skip=skip, dtype=w.embedding.dtype)
            logits = M.forward_full(cfg, w, prompt, cache=cache, project=project)
        else:
            logits, cache, _ = R.prefill(cfg, w, routers, prompt, project=project)
        rows = [logits.data.tobytes()]
        tokens = [int(np.argmax(logits.data[0, -1]))]
        while len(tokens) < n_new:
            logits = M.decode_step(cfg, w, np.array([[tokens[-1]]]), cache,
                                   project=project)
            rows.append(logits.data.tobytes())
            tokens.append(int(np.argmax(logits.data[0, -1])))
    kv = [buf[:, :, :f].tobytes()
          for f, k, v in zip(cache.filled, cache.k, cache.v) for buf in (k, v)]
    return tokens, rows, kv, cache.decode_skip


def _assert_packed(w):
    """Every layer's named q/k/v and gate/up matrices are, in order, the
    row blocks of its buffers: the same memory, not a copy."""
    for lw in w.layers:
        for buf, names in ((lw.qkv, ("wq", "wk", "wv")),
                           (lw.gate_up, ("w_gate", "w_up"))):
            assert buf.flags.c_contiguous and buf.flags.owndata
            lo = 0
            for name in names:
                view = getattr(lw, name).data
                block = buf[lo:lo + len(view)]
                assert view.base is buf and view.ctypes.data == block.ctypes.data
                assert view.shape == block.shape and view.strides == block.strides
                lo += len(view)
            assert lo == len(buf)


class TestFusedDecode:
    """Under ``no_grad`` with the default projection, a step of at most
    ``STACKED_SMALL_KERNEL_MAX`` // rows tokens runs one product over each
    layer's q/k/v buffer and one over its gate/up buffer, with every byte
    of the separate products."""

    @pytest.mark.parametrize("case", ["full", "skip2", "skip4", "routed"])
    def test_decode_matches_the_separate_products(self, case, monkeypatch):
        cfg = M.ModelConfig()
        w = M.init_model(cfg, np.random.default_rng(21))
        skip = {"skip2": (6, 9), "skip4": (3, 5, 7, 9)}.get(case, ())
        routers = None
        if case == "routed":
            routers = R.init_routers(cfg)
            rng = np.random.default_rng(22)
            for r in routers.routers:
                r.weight.data[:] = rng.normal(0.0, 3.0, size=cfg.d_model)
        prompt = np.random.default_rng(23).integers(97, 123, size=10)
        fused = _fused_products(monkeypatch, w)
        want = _decode_bytes(cfg, w, prompt, 12, skip, routers, _separate)
        assert fused == []
        got = _decode_bytes(cfg, w, prompt, 12, skip, routers)
        assert got == want
        # the 10-token prefill keeps the separate products; each decode
        # step fuses twice per layer it runs
        run = cfg.n_layers - len(got[3])
        assert 0 < run < cfg.n_layers if case == "routed" else run == 12 - len(skip)
        assert len(fused) == 2 * 11 * run
        if routers is None:
            tokens = M.generate(cfg, w, prompt.tolist(), 12, skip_set=skip,
                                prefill_skip=()).tokens
        else:
            tokens = R.generate_with_routers(cfg, w, routers, prompt.tolist(),
                                             12)[0].tokens
        assert tokens == got[0]

    @pytest.mark.parametrize("b", [1, 3])
    def test_short_prefill_matches_the_separate_products(self, b, monkeypatch):
        # on the default model q/k/v fuses up to 6 tokens, gate/up up to 2
        cfg = M.ModelConfig()
        w = M.init_model(cfg, np.random.default_rng(24))
        fused = _fused_products(monkeypatch, w)
        for n in range(1, 9):
            toks = np.random.default_rng(n).integers(0, cfg.vocab_size, size=(b, n))
            out = {}
            for project in (None, _separate):
                with T.no_grad():
                    cache = M.KVCache(cfg, batch_size=b)
                    logits = M.forward_full(cfg, w, toks, cache=cache, project=project)
                out[project] = [logits.data.tobytes()] + [
                    buf[:, :, :n].tobytes() for buf in cache.k + cache.v]
            assert out[None] == out[_separate], n
        assert len(fused) == 12 * (6 + 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_only_float32_inference_fuses(self, dtype, monkeypatch):
        cfg, w = tiny_model(dtype=dtype)
        fused = _fused_products(monkeypatch, w)
        M.generate(cfg, w, [1, 2, 3], 6)
        assert bool(fused) == (dtype == np.float32)
        fused.clear()
        w.set_requires_grad(True)
        M.forward_full(cfg, w, tokens_for(cfg, 1))  # on the tape
        assert fused == []

    def test_named_matrices_are_row_blocks_of_the_buffers(self, tmp_path):
        cfg, w = tiny_model()
        _assert_packed(w)
        path = str(tmp_path / "m.bin")
        BU.save_bundle(path, weights=w)
        _assert_packed(BU.load_bundle(path).weights)
        _assert_packed(L.merge(w, _with_random_adapters(w, 3)))
        some = _with_random_adapters(w, 4)
        some.adapters = {key: ad for key, ad in some.adapters.items()
                         if key[1] in ("wk", "w_up")}
        merged = L.merge(w, some)
        _assert_packed(merged)
        # an unmerged matrix is copied into the merged layer's buffer
        for name in ("wq", "wv", "w_gate"):
            old, new = getattr(w.layers[0], name), getattr(merged.layers[0], name)
            assert new is not old and new.data.tobytes() == old.data.tobytes()

    def test_an_adam_step_updates_the_buffers_in_place(self):
        cfg = M.ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, max_seq=32)
        w = M.init_model(cfg, np.random.default_rng(11))
        train, val, _ = D.generate_dataset(D.TaskSpec(
            kind="copy", min_len=3, max_len=3, n_train=4, n_val=2, n_test=1, seed=1))
        bufs = [(lw.qkv, lw.gate_up) for lw in w.layers]
        before = [tuple(buf.copy() for buf in pair) for pair in bufs]
        tc = TR.TrainConfig(lr_min=0.05, lr_max=0.05, accum_steps=1,
                            batch_size=4, max_epochs=1, eval_every=1)
        assert TR.train_model(cfg, w, train, val, tc).steps == 1
        _assert_packed(w)
        for lw, pair, old in zip(w.layers, bufs, before):
            assert lw.qkv is pair[0] and lw.gate_up is pair[1]
            assert not any(np.array_equal(a, b) for a, b in zip(pair, old))

    def test_copies_and_rebound_weights_take_the_separate_products(self, monkeypatch):
        cfg, w = tiny_model()
        prompt = [1, 2, 3, 4]
        want = _decode_bytes(cfg, w, prompt, 8)
        dup = copy.deepcopy(w)
        fused = _fused_products(monkeypatch, dup)
        assert _decode_bytes(cfg, dup, prompt, 8) == want
        assert fused == []

        lw = w.layers[1]
        lw.wk.data = lw.wk.data * 2  # no longer a view of the buffer
        fused = _fused_products(monkeypatch, w)
        got = _decode_bytes(cfg, w, prompt, 8)
        assert got != want
        assert got == _decode_bytes(cfg, w, prompt, 8, project=_separate)
        assert fused and id(lw.qkv) not in fused and id(lw.gate_up) in fused


class TestPrefillThenDecodeProperty:
    @settings(max_examples=40, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           skip=st.frozensets(st.integers(0, 2)),
           n_prompt=st.integers(1, 16),
           seed=st.integers(0, 2**16))
    def test_incremental_matches_recompute_up_to_a_full_cache(
            self, dtype, skip, n_prompt, seed):
        cfg, w = tiny_model(m=3, max_seq=16, seed=seed % 7, dtype=dtype)
        toks = np.random.default_rng(seed).integers(0, cfg.vocab_size,
                                                    size=(1, cfg.max_seq))
        with T.no_grad():
            full = M.forward_full(cfg, w, toks, skip_set=skip).data
            cache = M.KVCache(cfg, decode_skip=skip, dtype=dtype)
            steps = [M.forward_full(cfg, w, toks[:, :n_prompt], skip_set=skip,
                                    cache=cache).data]
            for j in range(n_prompt, cfg.max_seq):
                steps.append(M.decode_step(cfg, w, toks[:, j:j + 1], cache).data)
        incremental = np.concatenate(steps, axis=1)
        assert incremental.dtype == dtype
        assert np.max(np.abs(incremental - full)) < 1e-4
        assert cache.n_positions == cfg.max_seq
        assert cache.filled == [0 if i in skip else cfg.max_seq
                                for i in range(cfg.n_layers)]

        # generation stops once the cache is full, however large the budget
        out = M.generate(cfg, w, toks[0, :n_prompt].tolist(), 3 * cfg.max_seq,
                         skip_set=skip)
        assert len(out.tokens) == cfg.max_seq - n_prompt + 1
        assert len(out.decode_times) == len(out.tokens) - 1
