"""Loss decomposition, optimizer behavior, and the three training phases."""

import csv
import dataclasses
import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import skiproute.data as D
import skiproute.lora as L
import skiproute.model as M
import skiproute.router as R
import skiproute.tensor as T
import skiproute.training as TR
from skiproute.errors import ConfigError, NumericalError, ShapeError
from skiproute.tokenizer import frame_prompt


def tiny_config(n_layers=2, d_model=16, n_heads=2, d_ff=32):
    return M.ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=n_heads,
                         d_ff=d_ff, max_seq=64)


def copy_pairs(n, seed=0, min_len=3, max_len=4):
    spec = D.TaskSpec(kind="copy", min_len=min_len, max_len=max_len,
                      n_train=n, n_val=max(4, n // 4), n_test=4, seed=seed)
    return D.generate_dataset(spec)


def snapshot(params):
    return [p.data.copy() for p in params]


def all_identical(params, snap):
    return all(np.array_equal(p.data, s) for p, s in zip(params, snap))


# ---------------------------------------------------------------- config


def test_train_config_defaults():
    tc = TR.TrainConfig()
    assert tc.lam == 0.01
    assert tc.accum_steps == 5
    assert tc.patience == 4
    assert tc.eval_every == 50
    assert tc.lr_min == 1e-4 and tc.lr_max == 3e-4


@pytest.mark.parametrize("kw", [
    dict(lam=-0.1),
    dict(alpha=-1.0),
    dict(patience=0),
    dict(accum_steps=0),
    dict(batch_size=0),
    dict(eval_every=0),
    dict(lr_min=2e-4, lr_max=1e-4),
    dict(lr_min=-1e-4),
    dict(max_epochs=-1),
    dict(max_epochs=0),
])
def test_train_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        TR.TrainConfig(**kw)


# ------------------------------------------------------------- schedule


def test_cosine_endpoints_and_midpoint():
    assert TR.cosine_lr(0, 100, 1e-4, 3e-4) == pytest.approx(3e-4)
    assert TR.cosine_lr(100, 100, 1e-4, 3e-4) == pytest.approx(1e-4)
    assert TR.cosine_lr(50, 100, 1e-4, 3e-4) == pytest.approx(2e-4)


def test_cosine_is_monotone_decreasing():
    vals = [TR.cosine_lr(s, 40, 1e-4, 3e-4) for s in range(41)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cosine_clamps_past_the_end():
    assert TR.cosine_lr(250, 100, 1e-4, 3e-4) == pytest.approx(1e-4)


# ----------------------------------------------------------------- adam


def test_adam_first_step_moves_by_about_lr():
    p = T.Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    p.grad = np.array([1.0, -2.0, 0.5, -0.25], dtype=np.float32)
    opt = TR.Adam([p])
    opt.step(1e-3)
    # bias-corrected first step is lr * g / (|g| + eps) = lr * sign(g)
    np.testing.assert_allclose(p.data, [-1e-3, 1e-3, -1e-3, 1e-3], rtol=1e-4)


def test_adam_skips_parameters_without_grad():
    p = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    q = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    p.grad = np.ones(3, dtype=np.float32)
    opt = TR.Adam([p, q])
    opt.step(1e-2)
    assert not np.array_equal(p.data, np.ones(3))
    np.testing.assert_array_equal(q.data, np.ones(3))


def test_adam_zero_grad_clears():
    p = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    p.grad = np.ones(2, dtype=np.float32)
    opt = TR.Adam([p])
    opt.zero_grad()
    assert p.grad is None


def test_adam_requires_parameters():
    with pytest.raises(ConfigError):
        TR.Adam([])


def _reference_adam_step(opt, lr):
    """``Adam.step`` as the plain expression it computes in place."""
    opt.t += 1
    b1, b2 = TR.ADAM_BETA1, TR.ADAM_BETA2
    for p, m, v in zip(opt.params, opt.m, opt.v):
        g = p.grad
        if g is None:
            continue
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**opt.t)
        v_hat = v / (1 - b2**opt.t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + TR.ADAM_EPS)).astype(p.data.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_matches_the_plain_expression(dtype):
    # a router's weight, an adapter's two factors and an embedding table
    shapes = [(64,), (8, 64), (64, 8), (260, 64)]
    rng = np.random.default_rng(21)
    inits = [rng.normal(scale=0.1, size=s).astype(dtype) for s in shapes]
    got, want = (TR.Adam([T.Tensor(a.copy(), requires_grad=True) for a in inits])
                 for _ in range(2))
    for step in range(20):
        lr = TR.cosine_lr(step, 20, 1e-4, 3e-3)
        grads = [rng.normal(scale=10.0 ** -(step % 4), size=s).astype(dtype)
                 for s in shapes]
        for opt in (got, want):
            for p, g in zip(opt.params, grads):
                p.grad = g
        got.step(lr)
        _reference_adam_step(want, lr)
        assert got.t == want.t
        for a, b in zip([p.data for p in got.params] + got.m + got.v,
                        [p.data for p in want.params] + want.m + want.v):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bucket", [TR.ADAM_BUCKET, 600])
def test_adam_over_mixed_dtypes_and_missing_gradients(bucket, monkeypatch):
    """Float32 and float64 parameters in one optimizer, some of them
    without a gradient on some steps, one larger than a bucket: a
    parameter without a gradient keeps its data and moments, and every
    other byte is the plain expression's."""
    monkeypatch.setattr(TR, "ADAM_BUCKET", bucket)
    shapes = [(64,), (8, 64), (64, 8), (260, 64), (256, 8), (3,), (300, 130)]
    dtypes = [np.float32, np.float64, np.float32, np.float64, np.float32,
              np.float64, np.float32]
    rng = np.random.default_rng(22)
    inits = [rng.normal(scale=0.1, size=s).astype(d) for s, d in zip(shapes, dtypes)]
    got, want = (TR.Adam([T.Tensor(a.copy(), requires_grad=True) for a in inits])
                 for _ in range(2))
    for step in range(20):
        lr = TR.cosine_lr(step, 20, 1e-4, 3e-3)
        grads = [None if (step + i) % 3 == 0 else
                 rng.normal(scale=10.0 ** -(step % 4), size=s).astype(d)
                 for i, (s, d) in enumerate(zip(shapes, dtypes))]
        for opt in (got, want):
            for p, g in zip(opt.params, grads):
                p.grad = g
        before = [(p.data.tobytes(), m.tobytes(), v.tobytes())
                  for p, m, v in zip(got.params, got.m, got.v)]
        got.step(lr)
        _reference_adam_step(want, lr)
        for g, old, p, m, v in zip(grads, before, got.params, got.m, got.v):
            if g is None:
                assert (p.data.tobytes(), m.tobytes(), v.tobytes()) == old
        for a, b, d in zip([p.data for p in got.params] + got.m + got.v,
                           [p.data for p in want.params] + want.m + want.v, dtypes * 3):
            assert a.dtype == b.dtype == d
            assert a.tobytes() == b.tobytes()


def test_adam_step_temporaries_stay_bounded():
    """A step over the whole default model (about 0.8 M float32 entries)
    allocates no more than three bucket-sized temporaries at once."""
    weights = M.init_model(M.ModelConfig(), np.random.default_rng(0))
    params = list(weights.parameters())
    for p in params:
        p.grad = np.full_like(p.data, 1e-3)
    opt = TR.Adam(params)
    largest = max(TR.ADAM_BUCKET, max(p.size for p in params))
    bound = 3 * largest * 4 + 64 * 1024  # and the Python objects of a step
    assert 3 * sum(p.size for p in params) * 4 > 8 * bound
    tracemalloc.start()
    try:
        opt.step(1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


# ------------------------------------------------------------ loss_total


def test_loss_decomposition_against_manual_terms():
    rng = np.random.default_rng(0)
    logits = T.Tensor(rng.normal(size=(1, 3, 5)).astype(np.float32))
    targets = np.array([[1, 2, 3]])
    ignore = np.zeros((1, 3), dtype=np.uint8)
    bank = R.RouterBank([
        R.Router(T.Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)),
        R.Router(T.Tensor(np.array([3.0, -1.0], dtype=np.float32), requires_grad=True)),
    ])
    rhos = [T.Tensor(np.asarray(0.3, dtype=np.float32)),
            T.Tensor(np.asarray(0.4, dtype=np.float32))]
    bd = TR.loss_total(logits, targets, ignore, bank, rhos, lam=0.01, alpha_eff=0.5)

    ce_manual = 0.0
    for t in range(3):
        row = logits.data[0, t].astype(np.float64)
        lse = np.log(np.exp(row - row.max()).sum()) + row.max()
        ce_manual += lse - row[targets[0, t]]
    ce_manual /= 3
    assert bd.ce.item() == pytest.approx(ce_manual, abs=1e-6)
    assert bd.reg.item() == pytest.approx(1 + 4 + 9 + 1, abs=1e-5)
    assert bd.pp.item() == pytest.approx(0.7, abs=1e-7)
    assert bd.total.item() == pytest.approx(
        ce_manual + 0.01 * 15.0 + 0.5 * 0.7, abs=1e-5)
    bd.verify()


def test_loss_reg_gradient_is_two_lam_w():
    w = T.Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    bank = R.RouterBank([R.Router(w)])
    logits = T.Tensor(np.zeros((1, 1, 4), dtype=np.float32))
    bd = TR.loss_total(logits, np.array([[0]]), None, bank, (), lam=0.05, alpha_eff=0.0)
    bd.total.backward()
    np.testing.assert_allclose(w.grad, 2 * 0.05 * w.data, rtol=1e-6)


def test_loss_without_routers_has_zero_reg_and_pp():
    logits = T.Tensor(np.zeros((1, 2, 4), dtype=np.float32))
    bd = TR.loss_total(logits, np.array([[1, 2]]), None, None, (), 0.01, 1.0)
    assert bd.reg.item() == 0.0
    assert bd.pp.item() == 0.0
    assert bd.total.item() == pytest.approx(math.log(4), abs=1e-6)


def test_zero_routers_give_reg_zero_and_pp_half_per_layer():
    config = M.ModelConfig(n_layers=12, d_model=8, n_heads=2, d_ff=16, max_seq=32)
    weights = M.init_model(config, np.random.default_rng(0))
    bank = R.init_routers(config)
    tokens = np.array([[256, 97, 98, 259], [256, 99, 100, 259]])
    logits, rhos = R.soft_forward(config, weights, bank, tokens)
    bd = TR.loss_total(logits, np.roll(tokens, -1, axis=1), None, bank, rhos,
                       lam=0.01, alpha_eff=1.0)
    assert bd.reg.item() == 0.0
    assert bd.pp.item() == 6.0  # twelve layers at exactly 0.5 each
    bd.verify()


def test_verify_raises_on_non_finite_total():
    logits = T.Tensor(np.full((1, 1, 4), np.nan, dtype=np.float32))
    bd = TR.loss_total(logits, np.array([[0]]), None, None, (), 0.0, 0.0)
    with pytest.raises(NumericalError):
        bd.verify()


def test_verify_accepts_float32_rounding_of_a_large_loss():
    # large router weights put the float32 total near 40, where half an ulp
    # (1.9e-6) is coarser than a fixed 1e-6 bound
    config = M.ModelConfig(n_layers=4)
    weights = M.init_model(config, np.random.default_rng(0))
    train, val, _ = D.generate_dataset(D.TaskSpec(kind="copy", n_train=16, n_val=8, n_test=4))
    bank = R.init_routers(config)
    heavy = np.random.default_rng(1).normal(0.0, 4.0, config.d_model)
    for router in bank.routers:
        router.weight.data[:] = heavy
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1, alpha=0.01)
    result = TR.train_routers(config, weights, bank, train, val, tc)
    assert result.steps == 2
    assert all(row.reg > 2000 and row.total > 30 for row in result.rows)


def test_verify_allows_float32_terms_in_a_float64_total():
    # a float32 bank under a float64 model: reg and pp are scaled in float32
    logits = T.Tensor(np.random.default_rng(2).normal(size=(1, 3, 5)))
    heavy = np.random.default_rng(1).normal(0.0, 4.0, (2, 64)).astype(np.float32)
    bank = R.RouterBank([R.Router(T.Tensor(w, requires_grad=True)) for w in heavy])
    rhos = [T.Tensor(np.asarray(p, dtype=np.float32)) for p in (0.3, 0.7)]
    bd = TR.loss_total(logits, np.array([[1, 2, 3]]), None, bank, rhos,
                       lam=0.01, alpha_eff=0.3)
    assert bd.total.dtype == np.float64 and bd.reg.dtype == np.float32
    bd.verify()


def test_verify_raises_when_the_total_is_off():
    bd = TR.loss_total(T.Tensor(np.zeros((1, 2, 4), dtype=np.float32)),
                       np.array([[1, 2]]), None, None, (), 0.01, 1.0)
    bd.verify()
    off = dataclasses.replace(bd, total=T.Tensor(bd.total.data + np.float32(1e-3)))
    with pytest.raises(NumericalError, match="decomposition"):
        off.verify()


# ------------------------------------------------------------- csv log


def test_train_log_round_trip(tmp_path):
    rows = [TR.TrainLogRow(step=10, ce=1.5, reg=0.25, pp=1.0, total=1.7525,
                           val_ce=1.6, mean_rho=(0.5, 0.75)),
            TR.TrainLogRow(step=20, ce=1.2, reg=0.3, pp=0.9, total=1.4,
                           val_ce=1.3, mean_rho=(0.4, 0.6))]
    path = tmp_path / "log.csv"
    TR.write_train_log(str(path), rows)
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["step", "ce", "reg", "pp", "total", "val_ce", "rho_0", "rho_1"]
    assert len(parsed) == 3
    assert int(parsed[1][0]) == 10
    assert float(parsed[2][6]) == pytest.approx(0.4)


# ------------------------------------------------------- pretrain phase


def test_pretraining_lowers_validation_ce(tmp_path):
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(1))
    train, val, _ = copy_pairs(48, seed=3)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=3,
                        lr_min=1e-3, lr_max=3e-3, eval_every=50, seed=0)
    batches = TR._val_batches(val, tc, config.max_seq)

    def val_ce():
        return TR._mean_val_ce(batches, lambda b: M.forward_full(
            config, weights, b.tokens[:, :-1], attn_mask=b.attn[:, :-1]))

    before = val_ce()
    log = tmp_path / "pretrain.csv"
    result = TR.train_model(config, weights, train, val, tc, log_path=str(log))
    after = val_ce()
    assert after < before
    assert result.steps == 18  # 3 epochs x ceil(48/8) batches, accum 1
    assert result.rows[-1].val_ce == pytest.approx(after, abs=1e-6)
    assert result.rows[-1].mean_rho == tuple(1.0 for _ in range(config.n_layers))
    assert log.exists()


def test_pretraining_stops_at_target_accuracy():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(1))
    train, val, _ = copy_pairs(16, seed=3)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=10,
                        eval_every=1)
    result = TR.train_model(config, weights, train, val, tc,
                            stop_check=lambda: True)
    assert result.stopped_early
    assert result.steps == 1


# ------------------------------------------------------- early stopping


def test_patience_stops_after_flat_validation():
    config = tiny_config(n_layers=1, d_model=8, d_ff=16)
    weights = M.init_model(config, np.random.default_rng(0))
    train, val, _ = copy_pairs(8, seed=1)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=40,
                        lr_min=0.0, lr_max=0.0, eval_every=1, patience=2)
    result = TR.train_model(config, weights, train, val, tc)
    # zero learning rate: first eval sets the best, later ones never improve
    assert result.stopped_early
    assert len(result.rows) == tc.patience + 1
    assert result.rows[0].val_ce == result.rows[-1].val_ce


def test_improving_runs_are_not_stopped():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(2))
    train, val, _ = copy_pairs(16, seed=2)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=2,
                        lr_min=1e-3, lr_max=3e-3, eval_every=2)
    result = TR.train_model(config, weights, train, val, tc)
    assert not result.stopped_early
    assert result.steps == 4


# ------------------------------------------------------ failure raising


def test_non_finite_loss_raises_numerical_error():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(0))
    weights.head.data[0, 0] = np.nan  # every logit row sees the poison
    train, val, _ = copy_pairs(8, seed=0)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1)
    with pytest.raises(NumericalError):
        TR.train_model(config, weights, train, val, tc)


# ------------------------------------------------------ phase isolation


def test_router_phase_touches_only_routers():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(4))
    bank = R.init_routers(config)
    train, val, _ = copy_pairs(16, seed=4)
    model_snap = snapshot(weights.parameters())
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1, alpha=0.2,
                        lr_min=1e-3, lr_max=3e-3)
    result = TR.train_routers(config, weights, bank, train, val, tc)
    assert all_identical(weights.parameters(), model_snap)
    assert not all_identical(bank.parameters(), snapshot([T.Tensor(np.zeros(16))] * 2))
    assert result.steps == 2
    assert all(len(row.mean_rho) == config.n_layers for row in result.rows)


def test_lora_phase_touches_only_adapters():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(5))
    bank = R.init_routers(config)
    adapters = L.init_adapters(weights, rank=2, rng=np.random.default_rng(6))
    train, val, _ = copy_pairs(16, seed=5)
    model_snap = snapshot(weights.parameters())
    router_snap = snapshot(bank.parameters())
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=2, alpha=0.3,
                        lr_min=1e-3, lr_max=3e-3)
    adapter_snap = snapshot(adapters.parameters())
    TR.train_lora(config, weights, bank, adapters, train, val, tc)
    assert all_identical(weights.parameters(), model_snap)
    assert all_identical(bank.parameters(), router_snap)
    assert not all_identical(adapters.parameters(), adapter_snap)


def test_phase_flags_are_restored_after_training():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(4))
    bank = R.init_routers(config)
    train, val, _ = copy_pairs(8, seed=4)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1)
    TR.train_routers(config, weights, bank, train, val, tc)
    assert not any(p.requires_grad for p in weights.parameters())
    assert not any(p.requires_grad for p in bank.parameters())


# -------------------------------------------------------- determinism


def test_router_training_is_reproducible():
    config = tiny_config(n_layers=2, d_model=8, d_ff=16)
    train, val, _ = copy_pairs(16, seed=7)
    results = []
    for _ in range(2):
        weights = M.init_model(config, np.random.default_rng(11))
        bank = R.init_routers(config)
        tc = TR.TrainConfig(batch_size=8, accum_steps=2, max_epochs=2, alpha=0.1,
                            lr_min=1e-3, lr_max=3e-3, seed=9)
        results.append(TR.train_routers(config, weights, bank, train, val, tc))
    assert results[0].rows == results[1].rows
    assert results[0].steps == results[1].steps


def test_accumulation_smooths_but_matches_step_count():
    config = tiny_config(n_layers=1, d_model=8, d_ff=16)
    weights = M.init_model(config, np.random.default_rng(0))
    train, val, _ = copy_pairs(20, seed=8)
    tc = TR.TrainConfig(batch_size=4, accum_steps=5, max_epochs=2)
    result = TR.train_model(config, weights, train, val, tc)
    # 2 epochs x 5 micro-batches with accumulation 5 -> 2 optimizer steps
    assert result.steps == 2


# The reverse pass as it was: every gradient summed in place into a
# zero-filled buffer, and every projection a matmul of a transposed weight.
def _zero_fill_accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def _zero_fill_node_accumulate(self, g):
    # a graph node keeps its output's layout, not the output
    if self.grad is None:
        self.grad = np.zeros(self.shape, self.dtype)
    self.grad += g


def _matmul_of_transpose(x, w):
    return T.matmul(x, T.transpose(w, (1, 0)))


STEP_MODELS = {
    "default32": (M.ModelConfig(), np.float32),
    "tiny64": (tiny_config(n_layers=3), np.float64),
}


def one_step_bytes(monkeypatch, model, phase):
    """Gradients at the one optimizer step of ``phase`` and the trained
    parameters, as bytes with -0.0 folded into 0.0."""
    config, dtype = STEP_MODELS[model]
    weights = M.init_model(config, np.random.default_rng(3), dtype=dtype)
    rng = np.random.default_rng(4)
    bank = R.init_routers(config, dtype=dtype)
    for router in bank:
        router.weight.data[:] = rng.normal(0.0, 0.5, size=config.d_model)
    adapters = L.init_adapters(weights, rank=2, rng=rng)
    for _, ad in adapters.items():
        ad.b.data[:] = rng.normal(0.0, 0.05, size=ad.b.shape)
    train, val, _ = copy_pairs(8, seed=6)
    # two micro-batches of four: one step whose gradients add across passes
    tc = TR.TrainConfig(batch_size=4, accum_steps=2, max_epochs=1, alpha=0.3, seed=2)
    grads = []
    step = TR.Adam.step

    def recording_step(opt, lr):
        grads.extend(p.grad.copy() for p in opt.params if p.grad is not None)
        step(opt, lr)

    with monkeypatch.context() as mp:
        mp.setattr(TR.Adam, "step", recording_step)
        if phase == "model":
            TR.train_model(config, weights, train, val, tc)
            params = list(weights.parameters())
        elif phase == "routers":
            TR.train_routers(config, weights, bank, train, val, tc)
            params = bank.parameters()
        else:
            TR.train_lora(config, weights, bank, adapters, train, val, tc,
                          dropout=0.1)
            params = adapters.parameters()
    assert len(grads) == len(params)
    return [(a + 0.0).tobytes() for a in grads + [p.data for p in params]]


@pytest.mark.parametrize("phase", ["model", "routers", "lora"])
@pytest.mark.parametrize("model", sorted(STEP_MODELS))
def test_reverse_pass_is_bitwise_equal_to_zero_filled_accumulation(
        monkeypatch, model, phase):
    lean = one_step_bytes(monkeypatch, model, phase)
    with monkeypatch.context() as mp:
        mp.setattr(T.Tensor, "accumulate_grad", _zero_fill_accumulate)
        mp.setattr(T.Node, "accumulate_grad", _zero_fill_node_accumulate)
        mp.setattr(T, "linear", _matmul_of_transpose)
        reference = one_step_bytes(monkeypatch, model, phase)
    assert len(lean) == len(reference)
    assert lean == reference


# SHA-256 of ``one_step_bytes`` as the tape gave them when it kept every
# norm, swiglu and attention output a gradient reads, before backward
# formed those values again from what their nodes keep.
ONE_STEP_DIGESTS = {
    ("default32", "model"): "13d8491c2e53fee12f3c7068c02a6aa99fd6316b6b77b98bd8dcb5b608489403",
    ("default32", "lora"): "a404a2ad875fc1a8296e81bb87ab8d29d9b88aa7c15f4521817e5a7cc6604060",
    ("tiny64", "model"): "6d2439f0a2380fda7d6b4563c76558d1856afe6beac9d2c3d3084bf9e242e7d1",
    ("tiny64", "lora"): "ab4bf67eb8f923e4e6c99f8e277d3b65c36ab6da399bf5a192fac1246480c268",
}


@pytest.mark.parametrize("phase", ["model", "lora"])
@pytest.mark.parametrize("model", sorted(STEP_MODELS))
def test_one_step_keeps_its_pinned_bytes(monkeypatch, model, phase):
    got = b"".join(one_step_bytes(monkeypatch, model, phase))
    assert hashlib.sha256(got).hexdigest() == ONE_STEP_DIGESTS[model, phase]


# ------------------------------------------------- budget tuning helpers


def test_mean_hidden_per_layer_shape_and_first_row():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(3))
    _, val, _ = copy_pairs(8, seed=3)
    means = TR.mean_hidden_per_layer(config, weights, val, config.max_seq)
    assert means.shape == (config.n_layers, config.d_model)
    # layer 0 reads the raw embeddings, prompt-masked and pooled
    batch = D.encode_batch(val, config.max_seq)
    toks = batch.tokens[:, :-1]
    pmask = batch.prompt_mask[:, :-1].astype(np.float64)
    emb = weights.embedding.data[toks]
    pooled = (emb * pmask[:, :, None]).sum(axis=1) / pmask.sum(axis=1)[:, None]
    np.testing.assert_allclose(means[0], pooled.mean(axis=0), rtol=1e-6)


def test_mean_hidden_rejects_empty_calibration_set():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(3))
    with pytest.raises(TR.DatasetError):
        TR.mean_hidden_per_layer(config, weights, [], config.max_seq)


def test_warm_start_puts_every_router_above_threshold():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(0))
    _, val, _ = copy_pairs(8, seed=0)
    bank = TR.warm_start_routers(config, weights, val)
    assert TR.measure_skip_fraction(config, weights, bank, val) == 0.0
    for router in bank:
        assert np.linalg.norm(router.weight.data) <= TR.WARM_START_NORM_CAP + 1e-6


def test_warm_start_hits_target_logit_when_uncapped(monkeypatch):
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(1))
    _, val, _ = copy_pairs(8, seed=1)
    means = TR.mean_hidden_per_layer(config, weights, val, config.max_seq)
    monkeypatch.setattr(TR, "WARM_START_LOGIT", 0.3)
    monkeypatch.setattr(TR, "WARM_START_NORM_CAP", 1e9)
    bank = TR.warm_start_routers(config, weights, val)
    for i in range(config.n_layers):
        logit = float(bank[i].weight.data @ means[i])
        assert logit == pytest.approx(0.3, rel=1e-4)


def test_measure_skip_fraction_extremes():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(2))
    _, val, _ = copy_pairs(8, seed=2)
    assert TR.measure_skip_fraction(config, weights, R.init_routers(config),
                                    val) == 0.0  # zero weights always pass
    bank = TR.warm_start_routers(config, weights, val)
    for router in bank:
        router.weight.data[:] = -router.weight.data
    assert TR.measure_skip_fraction(config, weights, bank, val) == 1.0
    with pytest.raises(TR.DatasetError):
        TR.measure_skip_fraction(config, weights, bank, [])


# ------------------------------------------------------- the batched probe

# float32 default model: framed prompts of 2 to max_seq tokens, 41 among
# them; float64 tiny model: 2 to its max_seq of 32
PROBE_MODELS = {
    "default32": (M.ModelConfig(), np.float32, (0, 1, 2, 7, 39, 100, 180, 254)),
    "tiny64": (M.ModelConfig(n_layers=3, d_model=16, n_heads=2, d_ff=32,
                             max_seq=32), np.float64, (0, 1, 2, 5, 13, 30)),
}


@functools.lru_cache(maxsize=None)
def probe_model(name):
    config, dtype, lengths = PROBE_MODELS[name]
    weights = M.init_model(config, np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(1)
    prompts = [bytes(rng.integers(97, 123, size=n, dtype=np.uint8))
               for n in lengths]
    return config, weights, prompts


def probe_bank(config, weights, prompts, kind):
    dtype = weights.embedding.dtype
    if kind == "zero":
        return R.init_routers(config, dtype=dtype)
    # calibrated on the prompts that fit encode_batch's limit
    bank = TR.warm_start_routers(config, weights, [(p, b"") for p in prompts[:-1]])
    if kind == "negated":
        for router in bank:
            router.weight.data[:] = -router.weight.data
    return bank


@pytest.mark.parametrize("adapted", [False, True])
@pytest.mark.parametrize("kind", ["zero", "warm", "negated"])
@pytest.mark.parametrize("model", sorted(PROBE_MODELS))
def test_probe_matches_sequential_prefill(model, kind, adapted):
    config, weights, prompts = probe_model(model)
    bank = probe_bank(config, weights, prompts, kind)
    project = None
    if adapted:
        adapters = L.init_adapters(weights, rank=2,
                                   rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for _, ad in adapters.items():
            ad.b.data[:] = rng.normal(0.0, 0.05, size=ad.b.shape)
        project = L.adapted_project(adapters)
    pairs = [(p, b"xyz") for p in prompts]  # responses are not probed

    got = TR.probe_decisions(config, weights, bank, pairs, project=project)
    want = [R.prefill(config, weights, bank, np.asarray(frame_prompt(p)),
                      project=project)[2] for p in prompts]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.passed == w.passed
        np.testing.assert_allclose(g.rho, w.rho, rtol=0.0, atol=1e-6)
    assert TR.measure_skip_fraction(config, weights, bank, pairs,
                                    project=project) == \
        sum(w.skip_fraction for w in want) / len(want)


def test_probe_runs_each_layer_once(monkeypatch):
    config, weights, prompts = probe_model("default32")
    # probe other prompts first, so the counted probe is not served by the
    # memo whatever the tests before this one probed
    TR.measure_skip_fraction(config, weights, R.init_routers(config),
                             [(prompts[0], b"")])
    calls = []
    real = M.layer_branch

    def counted(config, weights, layer_index, *args, **kwargs):
        calls.append(layer_index)
        return real(config, weights, layer_index, *args, **kwargs)

    monkeypatch.setattr(M, "layer_branch", counted)
    TR.measure_skip_fraction(config, weights, R.init_routers(config),
                             [(p, b"") for p in prompts])
    assert calls == list(range(config.n_layers))  # once per layer, not per prompt


def test_probe_rejects_what_prefill_rejects():
    config, weights, _ = probe_model("tiny64")
    bank = R.init_routers(config, dtype=np.float64)
    with pytest.raises(TR.DatasetError):
        TR.measure_skip_fraction(config, weights, bank, [])
    overlong = [(b"a" * (config.max_seq - 1), b"")]  # framed: max_seq + 1
    with pytest.raises(ShapeError):
        TR.measure_skip_fraction(config, weights, bank, overlong)
    with pytest.raises(ShapeError):
        R.prefill(config, weights, bank,
                  np.asarray(frame_prompt(overlong[0][0])))
    with pytest.raises(ConfigError):
        TR.measure_skip_fraction(config, weights, R.RouterBank(bank.routers[:1]),
                                 [(b"a", b"")])


def test_train_routers_stop_check_halts_at_first_eval():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(4))
    bank = R.init_routers(config)
    train, val, _ = copy_pairs(16, seed=4)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=5,
                        eval_every=1)
    result = TR.train_routers(config, weights, bank, train, val, tc,
                              stop_check=lambda: True)
    assert result.stopped_early
    assert result.steps == 1


def _run_phase(phase, stop_check=None):
    """Train one phase of a tiny rig for two evaluated steps; return every
    parameter of the model, the bank and the adapters."""
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(4))
    bank = R.init_routers(config)
    adapters = L.init_adapters(weights, rank=2, rng=np.random.default_rng(6))
    train, val, _ = copy_pairs(16, seed=4)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1,
                        eval_every=1, alpha=0.2)
    if phase == "model":
        TR.train_model(config, weights, train, val, tc, stop_check=stop_check)
    elif phase == "routers":
        TR.train_routers(config, weights, bank, train, val, tc,
                         stop_check=stop_check)
    else:
        TR.train_lora(config, weights, bank, adapters, train, val, tc)
    return list(weights.parameters()) + bank.parameters() + adapters.parameters()


@pytest.mark.parametrize("phase", ["model", "routers"])
def test_stop_check_runs_without_grad_right_after_validation(
        monkeypatch, phase):
    events = []
    mean_val_ce = TR._mean_val_ce

    def recording_val(*args):
        events.append(("val", T.grad_enabled()))
        return mean_val_ce(*args)

    def stop_check():
        events.append(("stop", T.grad_enabled()))
        return False

    monkeypatch.setattr(TR, "_mean_val_ce", recording_val)
    _run_phase(phase, stop_check)
    assert events == [("val", True), ("stop", False)] * 2
    assert T.grad_enabled()


@pytest.mark.parametrize("phase", ["model", "routers", "lora"])
def test_every_phase_leaves_every_parameter_frozen(phase):
    assert not any(p.requires_grad for p in _run_phase(phase))


@pytest.mark.parametrize("kw", [dict(band=(0.3, 0.2)),
                                dict(band=(-0.1, 0.5)),
                                dict(band=(0.2, 1.5))])
def test_tune_routers_band_validation(kw):
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(5))
    train, val, _ = copy_pairs(8, seed=5)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1)
    with pytest.raises(ConfigError):
        TR.tune_routers_to_band(config, weights, train, val, tc, val, **kw)


def test_tune_routers_trivial_band_stops_immediately():
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(6))
    train, val, _ = copy_pairs(8, seed=6)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1)
    tuned = TR.tune_routers_to_band(config, weights, train, val, tc, val,
                                    band=(0.0, 1.0))
    assert tuned.attempts == 1
    assert tuned.train.stopped_early
    assert 0.0 <= tuned.skip_fraction <= 1.0


def test_tune_routers_unreachable_band_raises():
    config = tiny_config(n_layers=1, d_model=8, d_ff=16)
    weights = M.init_model(config, np.random.default_rng(7))
    train, val, _ = copy_pairs(8, seed=7)
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=1, alpha=0.0,
                        lr_min=1e-6, lr_max=1e-6)
    with pytest.raises(ConfigError, match="missed the skip band"):
        TR.tune_routers_to_band(config, weights, train, val, tc, val,
                                band=(0.99, 1.0))


def _tuning_rig():
    """A four-layer rig whose tuning needs four attempts: the first and
    third end below the band, the second jumps past it, the fourth lands
    in (0.2, 0.3)."""
    config = tiny_config(n_layers=4)
    weights = M.init_model(config, np.random.default_rng(0))
    train, val, _ = D.generate_dataset(D.TaskSpec(
        kind="copy", min_len=3, max_len=4, n_train=16, n_val=4, n_test=4,
        seed=0))
    tc = TR.TrainConfig(batch_size=8, accum_steps=1, max_epochs=4, alpha=0.5,
                        lr_min=0.1, lr_max=0.1)
    return config, weights, train, val, tc


def _tune_validating_every_step(config, weights, train, val, tc, band):
    """Band tuning as a plain router run: a fresh warm start per attempt,
    validation after every step and the band probe right after it."""
    lo, hi = band
    lr_min, lr_max, epochs = tc.lr_min, tc.lr_max, tc.max_epochs
    for attempt in range(1, TR.TUNE_ATTEMPTS + 1):
        bank = TR.warm_start_routers(config, weights, train)
        tc_try = dataclasses.replace(tc, lr_min=lr_min, lr_max=lr_max,
                                     max_epochs=epochs, eval_every=1,
                                     patience=10 ** 9)
        result = TR.train_routers(
            config, weights, bank, train, val, tc_try,
            stop_check=lambda: TR.measure_skip_fraction(
                config, weights, bank, val) >= lo)
        fraction = TR.measure_skip_fraction(config, weights, bank, val)
        if lo <= fraction <= hi:
            return bank, result, fraction, attempt
        if fraction > hi:
            lr_min, lr_max = lr_min / 2, lr_max / 2
        else:
            epochs *= 2
    raise AssertionError("the reference missed the band")


def test_tuned_routers_match_a_run_that_validates_every_step(monkeypatch):
    config, weights, train, val, tc = _tuning_rig()
    band = (0.2, 0.3)
    bank, ref, fraction, attempts = _tune_validating_every_step(
        config, weights, train, val, tc, band)

    validations = []
    mean_val_ce = TR._mean_val_ce

    def counted_val(*args):
        validations.append(1)
        return mean_val_ce(*args)

    monkeypatch.setattr(TR, "_mean_val_ce", counted_val)
    tuned = TR.tune_routers_to_band(config, weights, train, val, tc, val,
                                    band=band)
    assert (tuned.attempts, tuned.skip_fraction) == (attempts, fraction)
    assert attempts > 1
    assert [r.weight.data.tobytes() for r in tuned.routers] == \
        [r.weight.data.tobytes() for r in bank]
    assert all(r.weight.dtype == np.float32 for r in tuned.routers)
    assert len(validations) == attempts  # one per attempt, not per step

    # one row per attempt: its losses averaged over the attempt's steps, and
    # the validation the reference ran at the same step
    res = tuned.train
    assert (res.steps, res.stopped_early) == (ref.steps, ref.stopped_early)
    assert len(res.rows) == 1 and res.rows[0].step == res.steps
    row, last = res.rows[0], ref.rows[-1]
    assert row.val_ce == last.val_ce == res.best_val_ce
    for name in ("ce", "reg", "pp", "total"):
        assert getattr(row, name) == pytest.approx(
            np.mean([getattr(r, name) for r in ref.rows]), rel=1e-12)
    np.testing.assert_allclose(
        row.mean_rho, np.mean([r.mean_rho for r in ref.rows], axis=0),
        rtol=1e-12)


def test_an_attempt_the_stop_check_ends_is_still_validated(tmp_path):
    config, weights, train, val, tc = _tuning_rig()
    log = tmp_path / "tune.csv"
    tuned = TR.tune_routers_to_band(config, weights, train, val, tc, val,
                                    band=(0.0, 1.0), log_path=str(log))
    assert tuned.attempts == 1 and tuned.train.steps == 1
    assert tuned.train.stopped_early
    [row] = tuned.train.rows
    assert row.step == 1 and math.isfinite(row.val_ce)
    with open(log) as fh:
        assert len(list(csv.reader(fh))) == 2  # header and the attempt's row


def _logged_pretraining(log):
    """Pretraining with accumulation that validates every step and ends on
    patience: a learning rate too high for the tiny model overshoots."""
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(8))
    train, val, _ = copy_pairs(24, seed=8)
    tc = TR.TrainConfig(batch_size=4, accum_steps=2, max_epochs=20,
                        lr_min=0.05, lr_max=0.05, eval_every=1, patience=2,
                        seed=3)
    result = TR.train_model(config, weights, train, val, tc, log_path=log)
    assert result.stopped_early and len(result.rows) >= 2
    assert result.steps < 20 * 6 // 2  # patience, not the epoch budget


def _logged_router_run(log):
    """Phase 1 that validates every second step and stops at the third
    validation's stop check."""
    config = tiny_config()
    weights = M.init_model(config, np.random.default_rng(9))
    train, val, _ = copy_pairs(16, seed=9)
    bank = TR.warm_start_routers(config, weights, train)
    tc = TR.TrainConfig(batch_size=4, accum_steps=1, max_epochs=5,
                        eval_every=2, alpha=0.3, lr_min=1e-3, lr_max=1e-2,
                        seed=4)
    checks = []

    def stop_check():
        checks.append(1)
        return len(checks) == 3

    result = TR.train_routers(config, weights, bank, train, val, tc,
                              log_path=log, stop_check=stop_check)
    assert result.stopped_early and result.steps == 6 and len(result.rows) == 3


def _logged_tuning(log):
    config, weights, train, val, tc = _tuning_rig()
    tuned = TR.tune_routers_to_band(config, weights, train, val, tc, val,
                                    band=(0.2, 0.3), log_path=log)
    assert tuned.attempts > 1


# Each run and the SHA-256 of its CSV log, taken before the training loop
# was folded into one function.
LOGGED_RUNS = {
    "pretraining": (_logged_pretraining,
                    "622472a57064b1e3d63753d881efc77d8ec092ef63039896a06be5c6688ca5c9"),
    "router_run": (_logged_router_run,
                   "a51ca3d11e165971b60e86fc4757156214299d6e588514e821c272373505ccf6"),
    "tuning": (_logged_tuning,
               "19044c3b13098778685270740657f6543d96b42096952158c0abae5803800a70"),
}


@pytest.mark.parametrize("run", sorted(LOGGED_RUNS))
def test_log_rows_keep_their_pinned_bytes(tmp_path, run):
    build, digest = LOGGED_RUNS[run]
    log = tmp_path / "log.csv"
    build(str(log))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest


# ------------------------------------------------------- the probe's memo


def _counting_forward(monkeypatch):
    calls = []
    real = M.forward_full

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(M, "forward_full", counted)
    return calls


def _memo_rig(seed, dtype=np.float32):
    config = tiny_config(n_layers=3)
    weights = M.init_model(config, np.random.default_rng([11, seed]), dtype=dtype)
    _, val, test = copy_pairs(8, seed=seed)
    bank = TR.warm_start_routers(config, weights, val)
    return config, weights, bank, val, test


def test_a_repeated_probe_runs_no_forward(monkeypatch):
    config, weights, bank, val, test = _memo_rig(1)
    calls = _counting_forward(monkeypatch)
    first = TR.probe_decisions(config, weights, bank, val)
    assert len(calls) == 1
    other = R.RouterBank([R.Router(T.Tensor(-r.weight.data)) for r in bank])
    again = TR.probe_decisions(config, weights, bank, val)
    flipped = TR.probe_decisions(config, weights, other, val)
    assert len(calls) == 1
    assert again == first

    TR.probe_decisions(config, weights, bank, test)  # other prompts
    assert len(calls) == 2
    fresh = TR.probe_decisions(config, weights, other, val)
    assert len(calls) == 3
    assert flipped == fresh  # bit for bit: rho are compared exactly


def test_any_weight_change_forces_a_recompute(monkeypatch):
    config, weights, bank, val, _ = _memo_rig(2)
    calls = _counting_forward(monkeypatch)
    TR.probe_decisions(config, weights, bank, val)
    params = list(weights.parameters())
    # one Adam step on one parameter
    params[3].grad = np.ones_like(params[3].data)
    TR.Adam([params[3]]).step(1e-3)
    TR.probe_decisions(config, weights, bank, val)
    assert len(calls) == 2
    for k, p in enumerate(params):
        p.data[0] += 1
        TR.probe_decisions(config, weights, bank, val)
        assert len(calls) == 3 + k


def test_dtype_and_adapters_force_a_recompute(monkeypatch):
    config, weights, bank, val, _ = _memo_rig(3)
    _, wide, *_ = _memo_rig(3, dtype=np.float64)  # the same draws, unrounded
    calls = _counting_forward(monkeypatch)
    TR.probe_decisions(config, weights, bank, val)
    TR.probe_decisions(config, wide, bank, val)
    assert len(calls) == 2

    project = L.adapted_project(
        L.init_adapters(wide, rank=2, rng=np.random.default_rng(2)))
    TR.probe_decisions(config, wide, bank, val, project=project)
    TR.probe_decisions(config, wide, bank, val, project=project)
    assert len(calls) == 4
    TR.probe_decisions(config, wide, bank, val)  # adapted probes left the memo
    assert len(calls) == 4


def test_memoized_layer_inputs_are_read_only(monkeypatch):
    config, weights, bank, val, _ = _memo_rig(4)
    seen = []
    real = R.router_probability

    def recording(router, hidden, mask=None):
        seen.append(hidden)
        return real(router, hidden, mask)

    monkeypatch.setattr(R, "router_probability", recording)
    TR.probe_decisions(config, weights, bank, val)
    TR.probe_decisions(config, weights, bank, val)
    assert len(seen) == 2 * config.n_layers
    for h in seen:
        with pytest.raises(ValueError):
            h.data[0, 0, 0] = 0.0


def test_warm_start_takes_the_model_dtype():
    config = tiny_config()
    _, val, _ = copy_pairs(8, seed=0)
    for dtype in (np.float32, np.float64):
        weights = M.init_model(config, np.random.default_rng(0), dtype=dtype)
        bank = TR.warm_start_routers(config, weights, val)
        assert all(r.weight.dtype == dtype for r in bank)
