import numpy as np
import pytest

from skiproute import lora as L
from skiproute import model as M
from skiproute import tensor as T
from skiproute.errors import ConfigError, ShapeError


def tiny(m=2, d=16, heads=2, d_ff=32, vocab=30, seed=0):
    cfg = M.ModelConfig(n_layers=m, d_model=d, n_heads=heads, d_ff=d_ff,
                        vocab_size=vocab, max_seq=32)
    return cfg, M.init_model(cfg, np.random.default_rng(seed))


def random_adapter(d_out, d_in, rank, alpha=32.0, seed=1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    ad = L.make_adapter(d_out, d_in, rank, alpha, rng, dtype=dtype)
    ad.b.data[:] = rng.normal(0.0, 0.05, size=ad.b.shape).astype(dtype)
    return ad


class TestAdaptedMatmul:
    def test_zero_b_equals_base(self):
        rng = np.random.default_rng(0)
        w = T.Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        ad = L.make_adapter(6, 4, 2, 32.0, rng)
        x = T.Tensor(rng.normal(size=(3, 5, 4)).astype(np.float32))
        out = L.adapted_matmul(T, x, w, ad)
        np.testing.assert_array_equal(out.data, T.linear(x, w).data)

    def test_scaling_value(self):
        ad = L.make_adapter(16, 16, 8, 32.0, np.random.default_rng(0))
        assert ad.scaling == 4.0

    @pytest.mark.parametrize("ops", [T, T.plain], ids=["tape", "plain"])
    def test_explicit_merge_oracle(self, ops):
        ad = random_adapter(4, 4, rank=2, alpha=8.0)  # scaling 4.0
        assert ad.scaling == 4.0
        w = T.Tensor(np.random.default_rng(3).normal(size=(4, 4)).astype(np.float32))
        x = T.Tensor(np.random.default_rng(4).normal(size=(2, 3, 4)).astype(np.float32))
        out = T.lift(L.adapted_matmul(ops, ops.lift(x), w, ad))
        explicit = x.data @ (w.data + 4.0 * (ad.b.data @ ad.a.data)).T
        assert np.max(np.abs(out.data - explicit)) < 1e-6
        # either namespace computes the tape's bytes, dropout draws included
        assert out.data.tobytes() == L.adapted_matmul(T, x, w, ad).data.tobytes()
        dropped = L.adapted_matmul(ops, ops.lift(x), w, ad, dropout=0.5,
                                   rng=np.random.default_rng(7))
        want = L.adapted_matmul(T, x, w, ad, dropout=0.5, rng=np.random.default_rng(7))
        assert T.lift(dropped).data.tobytes() == want.data.tobytes()

    def test_rank_guard(self):
        with pytest.raises(ConfigError):
            L.make_adapter(4, 8, 4, 32.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            L.make_adapter(4, 8, 0, 32.0, np.random.default_rng(0))

    def test_shape_guard(self):
        ad = random_adapter(6, 4, rank=2)
        w = T.Tensor(np.zeros((8, 4), dtype=np.float32))
        x = T.Tensor(np.zeros((1, 2, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            L.adapted_matmul(T, x, w, ad)

    def test_gradients_reach_only_adapter(self):
        rng = np.random.default_rng(5)
        w = T.Tensor(rng.normal(size=(6, 4)))  # frozen base
        ad = random_adapter(6, 4, rank=2, dtype=np.float64)
        ad.a.requires_grad = True
        ad.b.requires_grad = True
        x = T.Tensor(rng.normal(size=(2, 3, 4)))
        out = L.adapted_matmul(T, x, w, ad)
        out.backward(np.ones(out.shape))
        assert w.grad is None
        assert np.any(ad.a.grad != 0) and np.any(ad.b.grad != 0)

    def test_dropout_only_on_adapter_path(self):
        rng = np.random.default_rng(6)
        w = T.Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        ad = L.make_adapter(6, 4, 2, 32.0, rng)  # B = 0
        x = T.Tensor(rng.normal(size=(1, 8, 4)).astype(np.float32))
        out = L.adapted_matmul(T, x, w, ad, dropout=0.5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(out.data, T.linear(x, w).data)

    def test_dropout_perturbs_nonzero_adapter(self):
        ad = random_adapter(6, 4, rank=2)
        w = T.Tensor(np.random.default_rng(8).normal(size=(6, 4)).astype(np.float32))
        x = T.Tensor(np.random.default_rng(9).normal(size=(1, 8, 4)).astype(np.float32))
        clean = L.adapted_matmul(T, x, w, ad)
        dropped = L.adapted_matmul(T, x, w, ad, dropout=0.5, rng=np.random.default_rng(10))
        assert np.any(clean.data != dropped.data)

    @pytest.mark.parametrize("ops", [T, T.plain], ids=["tape", "plain"])
    def test_dropout_draws_one_uniform_per_input_entry(self, ops):
        ad = random_adapter(6, 4, rank=2)
        w = T.Tensor(np.random.default_rng(8).normal(size=(6, 4)).astype(np.float32))
        x = T.Tensor(np.random.default_rng(9).normal(size=(2, 5, 4)).astype(np.float32))
        rng, reference = np.random.default_rng(12), np.random.default_rng(12)
        L.adapted_matmul(ops, ops.lift(x), w, ad, dropout=0.1, rng=rng)
        reference.random(x.shape)
        assert rng.random() == reference.random()

    def test_dropout_needs_rng(self):
        ad = random_adapter(6, 4, rank=2)
        w = T.Tensor(np.zeros((6, 4), dtype=np.float32))
        x = T.Tensor(np.zeros((1, 2, 4), dtype=np.float32))
        with pytest.raises(ConfigError):
            L.adapted_matmul(T, x, w, ad, dropout=0.1)


class TestAdaptedProject:
    def test_checks_each_adapter_once_when_built(self, monkeypatch):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(0))
        calls = []
        check = L.check_fits
        monkeypatch.setattr(L, "check_fits", lambda *a: calls.append(a) or check(*a))
        project = L.adapted_project(adapters, dropout=0.1, rng=np.random.default_rng(1))
        assert len(calls) == len(adapters.adapters)
        toks = np.arange(12).reshape(2, 6) % cfg.vocab_size
        with T.no_grad():
            M.forward_full(cfg, w, toks, project=project)
        adapters.set_requires_grad(True)
        M.forward_full(cfg, w, toks, project=project)
        assert len(calls) == len(adapters.adapters)

    def test_every_adapted_projection_runs_through_adapted_matmul(self, monkeypatch):
        # a wrapper set on the module, as a tracer sets one, sees every call
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(0))
        calls = []
        inner = L.adapted_matmul
        monkeypatch.setattr(L, "adapted_matmul", lambda *a: calls.append(a) or inner(*a))
        project = L.adapted_project(adapters, dropout=0.1, rng=np.random.default_rng(1))
        toks = np.arange(12).reshape(2, 6) % cfg.vocab_size
        M.forward_full(cfg, w, toks, project=project)
        assert len(calls) == len(adapters.adapters)

    def test_adapter_that_does_not_fit_itself_is_refused_when_built(self):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(0))
        adapters.adapters[(1, "wo")].rank = 3  # its factors are rank 2
        with pytest.raises(ShapeError):
            L.adapted_project(adapters)

    @pytest.mark.parametrize("ops", [T, T.plain], ids=["tape", "plain"])
    def test_misfit_weight_raises_a_shape_error_on_every_call(self, ops):
        ad = random_adapter(6, 4, rank=2)
        adapters = L.AdapterSet(rank=2, lora_alpha=32.0, adapters={(0, "wq"): ad})
        project = L.adapted_project(adapters)
        x = ops.lift(T.Tensor(np.zeros((1, 2, 4), dtype=np.float32)))
        for _ in range(2):
            with pytest.raises(ShapeError):
                project(ops, x, T.Tensor(np.zeros((8, 4), dtype=np.float32)), 0, "wq")


class TestAdapterSet:
    def test_covers_all_targets(self):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(0))
        assert len(adapters.adapters) == cfg.n_layers * len(L.TARGET_NAMES)
        for (i, name), ad in adapters.items():
            d_out, d_in = getattr(w.layers[i], name).shape
            assert ad.a.shape == (2, d_in) and ad.b.shape == (d_out, 2)
            assert not ad.b.data.any()

    def test_fresh_set_preserves_model_output(self):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(1))
        toks = np.random.default_rng(2).integers(0, cfg.vocab_size, size=(2, 6))
        base = M.forward_full(cfg, w, toks)
        adapted = M.forward_full(cfg, w, toks, project=L.adapted_project(adapters))
        np.testing.assert_array_equal(base.data, adapted.data)

    def test_parameter_order_stable(self):
        cfg, w = tiny()
        a1 = L.init_adapters(w, rank=2, rng=np.random.default_rng(3))
        keys = [k for k, _ in a1.items()]
        assert keys == sorted(keys)
        assert len(a1.parameters()) == 2 * len(keys)


class TestMerge:
    def perturb(self, adapters, seed=11):
        rng = np.random.default_rng(seed)
        for _, ad in adapters.items():
            ad.b.data[:] = rng.normal(0.0, 0.05, size=ad.b.shape).astype(np.float32)

    def test_zero_adapters_bitwise_noop(self):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(4))
        merged = L.merge(w, adapters)
        for p, q in zip(w.parameters(), merged.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_merged_forward_matches_adapted(self):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(5))
        self.perturb(adapters)
        toks = np.random.default_rng(6).integers(0, cfg.vocab_size, size=(2, 6))
        adapted = M.forward_full(cfg, w, toks, project=L.adapted_project(adapters))
        merged = L.merge(w, adapters)
        folded = M.forward_full(merged.config, merged, toks)
        assert np.max(np.abs(adapted.data - folded.data)) < 1e-5

    def test_merge_consumes_set(self):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(7))
        L.merge(w, adapters)
        with pytest.raises(ConfigError):
            L.merge(w, adapters)

    def test_merge_preserves_greedy_generation(self):
        cfg, w = tiny()
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(8))
        self.perturb(adapters, seed=12)
        before = M.generate(cfg, w, [1, 2, 3], 8, project=L.adapted_project(adapters))
        merged = L.merge(w, adapters)
        after = M.generate(merged.config, merged, [1, 2, 3], 8)
        assert before.tokens == after.tokens

    def test_base_weights_untouched_by_merge(self):
        cfg, w = tiny()
        snapshot = [p.data.copy() for p in w.parameters()]
        adapters = L.init_adapters(w, rank=2, rng=np.random.default_rng(9))
        self.perturb(adapters, seed=13)
        L.merge(w, adapters)
        for p, s in zip(w.parameters(), snapshot):
            np.testing.assert_array_equal(p.data, s)
