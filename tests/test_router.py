import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import fd_gradient, relative_error
from skiproute import model as M
from skiproute import router as R
from skiproute import tensor as T
from skiproute.errors import ConfigError, MaskError, ShapeError


def tiny(m=3, d=16, heads=2, d_ff=32, vocab=40, seed=0, dtype=np.float32):
    cfg = M.ModelConfig(n_layers=m, d_model=d, n_heads=heads, d_ff=d_ff,
                        vocab_size=vocab, max_seq=32)
    return cfg, M.init_model(cfg, np.random.default_rng(seed), dtype=dtype)


def pass_inputs(cfg, b, n):
    """The attention mask and rotary rows of an unpadded (b, n) block at
    position 0, as a pass builds them for its layers."""
    return M.attention_mask(None, b, n, n), M._rope_rows(cfg, 0, n)


def logit(p):
    return float(np.log(p / (1.0 - p)))


class TestRouterProbability:
    def test_zero_weight_gives_half(self):
        r = R.Router(T.Tensor(np.zeros(8)))
        h = T.Tensor(np.random.default_rng(0).normal(size=(3, 5, 8)))
        out = R.router_probability(r, h, np.ones((3, 5)))
        np.testing.assert_array_equal(out.data, [0.5, 0.5, 0.5])

    def test_unit_score_single_token(self):
        w = np.zeros(4)
        w[0] = 1.0
        h = np.zeros((1, 1, 4))
        h[0, 0, 0] = 1.0
        out = R.router_probability(R.Router(T.Tensor(w)), T.Tensor(h))
        assert out.data[0] == pytest.approx(0.7310585786, abs=1e-6)

    def test_mean_of_two_tokens(self):
        h = np.array([[[logit(0.2)], [logit(0.8)]]])
        out = R.router_probability(R.Router(T.Tensor(np.ones(1))), T.Tensor(h))
        assert out.data[0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_weight_masked_read_is_half_at_every_length(self, dtype):
        # the masked mean is the sum over the count, so exactly 0.5 too
        r = R.Router(T.Tensor(np.zeros(8, dtype=dtype)))
        h = np.random.default_rng(1).normal(size=(1, 256, 8)).astype(dtype)
        for n in range(1, 257):
            got = R.router_probability(r, T.Tensor(h[:, :n]), np.ones((1, n)))
            assert got.data.tolist() == [0.5], n

    def test_mask_excludes_positions(self):
        rng = np.random.default_rng(1)
        w = T.Tensor(rng.normal(size=6))
        h = rng.normal(size=(2, 4, 6))
        h[:, 2:] = 50.0  # saturating values the mask must hide
        masked = R.router_probability(R.Router(w), T.Tensor(h), np.array([[1, 1, 0, 0]] * 2))
        plain = R.router_probability(R.Router(w), T.Tensor(h[:, :2]))
        np.testing.assert_allclose(masked.data, plain.data, rtol=1e-6)

    def test_all_masked_sequence(self):
        r = R.Router(T.Tensor(np.zeros(4)))
        with pytest.raises(MaskError):
            R.router_probability(r, T.Tensor(np.zeros((1, 3, 4))), np.zeros((1, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_output_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        r = R.Router(T.Tensor(rng.normal(scale=3.0, size=5)))
        h = T.Tensor(rng.normal(scale=3.0, size=(2, 4, 5)))
        out = R.router_probability(r, h)
        assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)

    def test_vector_weight_required(self):
        with pytest.raises(ShapeError):
            R.Router(T.Tensor(np.zeros((2, 2))))


class TestUnifyAndDecision:
    def test_singleton_identity(self):
        assert R.unify_batch(T.Tensor(np.array([0.37]))).item() == pytest.approx(0.37)

    def test_pair_mean(self):
        assert R.unify_batch(T.Tensor(np.array([0.4, 0.8]))).item() == pytest.approx(0.6)

    def test_boundary_mean_passes(self):
        rho = R.unify_batch(T.Tensor(np.array([0.49, 0.49, 0.52], dtype=np.float64)))
        decision = R.SkipDecision.from_rhos([rho.item()])
        assert rho.item() == 0.5 and decision.passed == (True,)

    def test_threshold_is_inclusive(self):
        d = R.SkipDecision.from_rhos([0.5, 0.4999, 0.51])
        assert d.passed == (True, False, True)
        assert d.skip_set == {1}
        assert d.skip_fraction == pytest.approx(1 / 3)

    def test_decision_is_immutable_and_derives_its_flags(self):
        d = R.SkipDecision.from_rhos([0.7, 0.2])
        with pytest.raises(AttributeError):
            d.rho = (0.1,)
        with pytest.raises(AttributeError):
            d.passed = (False, False)
        assert d.passed == (True, False) and d.skip_set == {1}
        again = R.SkipDecision(rho=(0.7, 0.2))
        assert d == again and hash(d) == hash(again)

    def test_empty_reads_raise(self):
        r = R.Router(T.Tensor(np.zeros(4)))
        for mask in (None, np.zeros((2, 0))):
            with pytest.raises(ShapeError):
                R.router_probability(r, T.Tensor(np.zeros((2, 0, 4))), mask)
        with pytest.raises(ShapeError):
            R.unify_batch(T.Tensor(np.zeros(0)))


def _bytes(x, dtype):
    return np.asarray(x, dtype=dtype).tobytes()


class TestRouterReadBytes:
    """rho from the router's one pooling path, byte for byte against numpy's
    own expressions, at lengths on both sides of numpy's 8-wide and 128-wide
    pairwise summation blocks."""

    LENGTHS = (1, 2, 7, 8, 9, 15, 16, 17, 31, 127, 128, 129, 130, 200, 255, 256)
    BATCHES = (1, 2, 3, 16, 33)

    @staticmethod
    def _read(dtype, b, n, seed=0):
        rng = np.random.default_rng(seed)
        d = 8
        h = rng.normal(scale=2.0, size=(b, n, d)).astype(dtype)
        w = rng.normal(size=d).astype(dtype)
        probs = T.sigmoid_fwd((h @ w.reshape(d, 1)).reshape(b, n))
        return R.Router(T.Tensor(w)), T.Tensor(h), probs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unmasked_read_is_numpy_mean(self, dtype):
        for b in self.BATCHES:
            for n in self.LENGTHS:
                router, h, probs = self._read(dtype, b, n)
                got = R.router_probability(router, h).data
                assert got.tobytes() == _bytes(probs.mean(axis=1), dtype), (b, n)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_read_is_masked_sum_over_count(self, dtype):
        for b in self.BATCHES:
            for n in self.LENGTHS:
                router, h, probs = self._read(dtype, b, n, seed=1)
                padded = np.ones((b, n), dtype=dtype)
                for row in range(b):
                    padded[row, 1 + (row * 37) % n:] = 0.0
                for mask in (np.ones((b, n), dtype=dtype), padded):
                    got = R.router_probability(router, h, mask).data
                    want = (probs * mask).sum(axis=1) / mask.sum(axis=1)
                    assert got.tobytes() == _bytes(want, dtype), (b, n)
                all_ones = R.router_probability(router, h, np.ones((b, n))).data
                assert all_ones.tobytes() == _bytes(probs.mean(axis=1), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unify_batch_is_numpy_mean(self, dtype):
        rng = np.random.default_rng(2)
        for b in range(1, 34):
            rhos = rng.uniform(0.3, 0.7, size=b).astype(dtype)
            got = R.unify_batch(T.Tensor(rhos)).data
            assert _bytes(got, dtype) == _bytes(rhos.mean(), dtype), b

    # SHA-256 of the router gradients below, as computed when the unmasked
    # read was numpy's mean and the batch mean numpy's mean over rows
    GRAD_DIGESTS = {
        ("float32", "unmasked"): "dabc8a335e4609a7d4a80e875b95c7e0163b334889b1c25476bc68ca0a871381",
        ("float32", "prompt"): "2d911231ca603f04f1a06e5943963aef0ddd62534d5f8445cb66deaf9338bff9",
        ("float64", "unmasked"): "0cc8c8d2d61ada089d928c0c8ccb88467a515de7826c9ce236f08206b9fb1341",
        ("float64", "prompt"): "19ddffc746420abe318067bcf03b15ae34fcae4c221255e2e5c29f09aebe1c2f",
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_soft_forward_router_gradients_keep_their_bytes(self, dtype):
        cfg, w = tiny(m=3, dtype=dtype)
        rng = np.random.default_rng(5)
        routers = R.RouterBank([
            R.Router(T.Tensor(rng.normal(scale=0.5, size=cfg.d_model).astype(dtype)))
            for _ in range(cfg.n_layers)])
        routers.set_requires_grad(True)
        toks = rng.integers(0, cfg.vocab_size, size=(4, 10))
        attn = np.ones((4, 9), dtype=np.uint8)
        attn[1, 7:] = 0
        attn[3, 5:] = 0
        prompt = attn.copy()
        prompt[:, 4:] = 0
        for name, router_mask in (("unmasked", None), ("prompt", prompt)):
            for r in routers:
                r.weight.grad = None
            logits, _ = R.soft_forward(cfg, w, routers, toks[:, :-1], attn_mask=attn,
                                       router_mask=router_mask)
            T.cross_entropy(logits, toks[:, 1:], 1 - attn).backward()
            grads = b"".join(r.weight.grad.tobytes() for r in routers)
            want = self.GRAD_DIGESTS[np.dtype(dtype).name, name]
            assert hashlib.sha256(grads).hexdigest() == want, name


class TestSoftLayerForward:
    def test_rho_one_is_bitwise_hard_pass(self):
        cfg, w = tiny()
        x = T.Tensor(np.random.default_rng(3).normal(size=(2, 4, cfg.d_model))
                     .astype(np.float32))
        inputs = pass_inputs(cfg, 2, 4)
        soft = R.soft_layer_forward(cfg, w, 0, x, T.Tensor(np.float32(1.0)), *inputs)
        hard = M.layer_forward(cfg, w, 0, x, *inputs)
        np.testing.assert_array_equal(soft.data, hard.data)

    def test_rho_zero_is_bitwise_identity(self):
        cfg, w = tiny()
        x = T.Tensor(np.random.default_rng(4).normal(size=(2, 4, cfg.d_model))
                     .astype(np.float32))
        soft = R.soft_layer_forward(cfg, w, 1, x, T.Tensor(np.float32(0.0)),
                                    *pass_inputs(cfg, 2, 4))
        np.testing.assert_array_equal(soft.data, x.data)

    def test_rho_half_interpolates(self):
        cfg, w = tiny()
        x = T.Tensor(np.random.default_rng(5).normal(size=(1, 3, cfg.d_model))
                     .astype(np.float32))
        inputs = pass_inputs(cfg, 1, 3)
        soft = R.soft_layer_forward(cfg, w, 2, x, T.Tensor(np.float32(0.5)), *inputs)
        branch = M.layer_branch(cfg, w, 2, x, *inputs)
        np.testing.assert_array_equal(soft.data, x.data + np.float32(0.5) * branch.data)


class TestPrefill:
    def test_zero_routers_all_pass(self):
        cfg, w = tiny()
        routers = R.init_routers(cfg)
        logits, cache, decision = R.prefill(cfg, w, routers, np.array([[1, 2, 3]]))
        assert decision.rho == (0.5,) * cfg.n_layers
        assert decision.passed == (True,) * cfg.n_layers
        assert decision.skip_set == frozenset()
        assert cache.filled == [3] * cfg.n_layers and cache.n_positions == 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_routers_pass_at_every_length(self, dtype):
        # multiplying the sum by a rounded 1/n gave 0.49999997 at n = 41
        # and skipped every layer
        cfg = M.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16)
        w = M.init_model(cfg, np.random.default_rng(0), dtype=dtype)
        routers = R.init_routers(cfg, dtype=dtype)
        toks = np.random.default_rng(1).integers(0, cfg.vocab_size,
                                                 size=(1, cfg.max_seq))
        for n in range(1, cfg.max_seq + 1):
            _, _, decision = R.prefill(cfg, w, routers, toks[:, :n])
            assert decision.rho == (0.5,) * cfg.n_layers, n
            assert decision.skip_set == frozenset()

    def test_logits_ignore_router_weights(self):
        cfg, w = tiny()
        toks = np.array([[4, 5, 6, 7]])
        wild = R.RouterBank([R.Router(T.Tensor(np.full(cfg.d_model, s)))
                             for s in (-9.0, 0.0, 9.0)])
        logits, _, decision = R.prefill(cfg, w, wild, toks)
        base = M.forward_full(cfg, w, toks)
        np.testing.assert_array_equal(logits.data, base.data)
        assert decision.skip_set  # the wild bank does skip something

    def test_router_reads_previous_layer_output(self):
        cfg, w = tiny()
        toks = np.array([[1, 2]])
        routers = R.init_routers(cfg)
        with T.no_grad():
            h = T.embedding(w.embedding, toks)
            expected = []
            for i in range(cfg.n_layers):
                expected.append(R.unify_batch(
                    R.router_probability(routers[i], h)).item())
                h = M.layer_forward(cfg, w, i, h, *pass_inputs(cfg, 1, 2))
        _, _, decision = R.prefill(cfg, w, routers, toks)
        assert decision.rho == tuple(expected)

    def test_empty_prompt(self):
        cfg, w = tiny()
        with pytest.raises(ShapeError):
            R.prefill(cfg, w, R.init_routers(cfg), np.zeros((1, 0), dtype=int))

    def test_router_count_mismatch(self):
        cfg, w = tiny(m=3)
        small = R.RouterBank([R.Router(T.Tensor(np.zeros(cfg.d_model)))])
        with pytest.raises(ConfigError):
            R.prefill(cfg, w, small, np.array([[1]]))

    def test_prompt_longer_than_max_seq(self):
        cfg, w = tiny()
        toks = np.ones((1, cfg.max_seq + 1), dtype=int)
        with pytest.raises(ShapeError):
            R.prefill(cfg, w, R.init_routers(cfg), toks)


class TestDecodeProtocol:
    def forcing_bank(self, cfg, w, prompt, skip):
        """Routers that point against the prompt's mean input to each layer
        in ``skip`` (mean score -1) and sit at 0.5 on the others."""
        hs = []
        M.forward_full(cfg, w, np.array([prompt]), hidden=hs)
        means = [h.data[0].mean(axis=0) for h in hs]
        return R.RouterBank([
            R.Router(T.Tensor(-m / (m @ m) if i in skip else np.zeros_like(m)))
            for i, m in enumerate(means)])

    def test_all_pass_matches_base_decode(self):
        cfg, w = tiny()
        routers = R.init_routers(cfg)
        prompt = [1, 2, 3]
        routed, decision = R.generate_with_routers(cfg, w, routers, prompt, 6)
        base = M.generate(cfg, w, prompt, 6)
        assert decision.skip_set == frozenset()
        assert routed.tokens == base.tokens

    def test_decision_constant_across_steps(self):
        cfg, w = tiny()
        logits, cache, decision = R.prefill(cfg, w, R.init_routers(cfg),
                                            np.array([[1, 2]]))
        first = cache.decode_skip
        with T.no_grad():
            M.decode_step(cfg, w, np.array([[3]]), cache)
            M.decode_step(cfg, w, np.array([[4]]), cache)
        assert cache.decode_skip == first == decision.skip_set

    def test_invocation_count_drops_by_skipped_layers(self, monkeypatch):
        cfg, w = tiny(m=4, seed=2)
        calls = []
        branch = M.layer_branch

        def counted(*args, **kwargs):
            calls.append(args[2])
            return branch(*args, **kwargs)

        monkeypatch.setattr(M, "layer_branch", counted)
        for forced_skip in [frozenset(), {1}, {0, 2}]:
            logits, cache, decision = R.prefill(cfg, w, R.init_routers(cfg),
                                                np.array([[1, 2, 3]]))
            decision = R.SkipDecision.from_rhos(
                [0.0 if i in forced_skip else 1.0 for i in range(cfg.n_layers)])
            cache.decode_skip = decision.skip_set
            calls.clear()
            with T.no_grad():
                M.decode_step(cfg, w, np.array([[5]]), cache)
            assert sorted(calls) == [i for i in range(cfg.n_layers)
                                     if i not in forced_skip]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_routed_generation_matches_fixed_skip_generation(self, seed):
        cfg, w = tiny(seed=seed)
        rng = np.random.default_rng(seed)
        short = [int(t) for t in rng.integers(0, cfg.vocab_size, 4)]
        full_cache = [int(t) for t in rng.integers(0, cfg.vocab_size, cfg.max_seq - 2)]
        forced = frozenset({seed % cfg.n_layers})
        for prompt in (short, full_cache):
            bank = self.forcing_bank(cfg, w, prompt, forced)
            routed, decision = R.generate_with_routers(cfg, w, bank, prompt, 8)
            fixed = M.generate(cfg, w, prompt, 8, skip_set=forced, prefill_skip=())
            assert decision.skip_set == forced
            assert routed.tokens == fixed.tokens
            assert len(routed.decode_times) == len(fixed.decode_times)
        # two free cache rows: the prefill token plus two decode steps
        assert len(routed.tokens) == 3 and len(routed.decode_times) == 2

    def test_routed_generation_deterministic(self):
        cfg, w = tiny(seed=6)
        bank = R.RouterBank([R.Router(T.Tensor(
            np.random.default_rng(i).normal(scale=2.0, size=cfg.d_model)
            .astype(np.float32))) for i in range(cfg.n_layers)])
        a, da = R.generate_with_routers(cfg, w, bank, [1, 2], 6)
        b, db = R.generate_with_routers(cfg, w, bank, [1, 2], 6)
        assert a.tokens == b.tokens and da == db


class TestSoftForward:
    def test_shapes_and_rho_range(self):
        cfg, w = tiny()
        routers = R.init_routers(cfg)
        toks = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 6))
        logits, rhos = R.soft_forward(cfg, w, routers, toks)
        assert logits.shape == (2, 6, cfg.vocab_size)
        assert len(rhos) == cfg.n_layers
        assert all(0.0 <= r.item() <= 1.0 for r in rhos)

    def test_zero_routers_match_full_forward_value(self):
        # with every rho at 0.5 the soft path is a damped model, not the
        # base model; but with saturated routers it collapses to it
        cfg, w = tiny()
        sat = R.RouterBank([R.Router(T.Tensor(np.zeros(cfg.d_model)))
                            for _ in range(cfg.n_layers)])
        toks = np.array([[1, 2, 3]])
        logits, rhos = R.soft_forward(cfg, w, sat, toks)
        assert all(r.item() == 0.5 for r in rhos)
        assert np.any(logits.data != M.forward_full(cfg, w, toks).data)

    def test_fully_masked_attention_row_raises(self):
        # the routers may read every position; the first query's only key
        # is masked, so attention has an empty row
        cfg, w = tiny()
        routers = R.init_routers(cfg)
        routers.set_requires_grad(True)
        with pytest.raises(MaskError):
            R.soft_forward(cfg, w, routers, np.array([[1, 2, 3, 4]]),
                           attn_mask=np.array([[0, 1, 1, 1]]),
                           router_mask=np.ones((1, 4)))

    def test_router_gradient_reaches_weights(self):
        cfg, w = tiny(m=2, d=8, heads=2, d_ff=16, vocab=12, dtype=np.float64)
        routers = R.init_routers(cfg, dtype=np.float64)
        routers.set_requires_grad(True)
        toks = np.random.default_rng(1).integers(0, 12, size=(2, 5))
        logits, rhos = R.soft_forward(cfg, w, routers, toks[:, :-1])
        loss = T.cross_entropy(logits, toks[:, 1:])
        loss.backward()
        for r in routers.routers:
            assert r.weight.grad is not None and np.any(r.weight.grad != 0)

    def test_router_gradient_matches_finite_differences(self):
        # end-to-end: loss as a function of one router's weight vector
        cfg, w = tiny(m=2, d=4, heads=2, d_ff=8, vocab=10, seed=8, dtype=np.float64)
        toks = np.random.default_rng(2).integers(0, 10, size=(1, 5))
        base = np.random.default_rng(3).normal(scale=0.5, size=(2, cfg.d_model))

        def loss_for(w0):
            bank = R.RouterBank([Router_from(w0), Router_from(base[1])])
            logits, _ = R.soft_forward(cfg, w, bank, toks[:, :-1])
            return T.cross_entropy(logits, toks[:, 1:])

        def Router_from(vec):
            return R.Router(T.Tensor(np.asarray(vec, dtype=np.float64)))

        bank = R.RouterBank([R.Router(T.Tensor(base[0].copy(), requires_grad=True)),
                             Router_from(base[1])])
        logits, _ = R.soft_forward(cfg, w, bank, toks[:, :-1])
        T.cross_entropy(logits, toks[:, 1:]).backward()
        analytic = bank[0].weight.grad
        numeric = fd_gradient(lambda v: loss_for(v).item(), base[0], step=1e-4)
        assert relative_error(analytic, numeric) < 1e-3
