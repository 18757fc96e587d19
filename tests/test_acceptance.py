"""Acceptance suite: ten deliverable claims, one verdict line per criterion.

Each test checks one headline claim end to end at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers. The two heavy
rigs (a sequence-accurate m=12 translation model, and three seeds of
budget-tuned routers with low-rank compensation on top of it) are built
once per session and shared by the criteria that need them.
"""

import configparser
import csv
import math
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest

import skiproute.bench as B
import skiproute.bundle as BU
import skiproute.cli as CLI
import skiproute.config as CF
import skiproute.data as D
import skiproute.lora as L
import skiproute.metrics as X
import skiproute.model as M
import skiproute.oracle as O
import skiproute.router as R
import skiproute.tensor as T
import skiproute.tokenizer as TK
import skiproute.training as TR
from fdcheck import fd_gradient, relative_error

TOY = M.ModelConfig(n_layers=12, d_model=64, n_heads=4, d_ff=256,
                    vocab_size=260, max_seq=256)
CAESAR = D.TaskSpec(kind="caesar-translate", min_len=3, max_len=6,
                    n_train=768, n_val=64, n_test=64, seed=1)
MAX_NEW = CAESAR.max_len + 2
SEEDS = (0, 1, 2)
BAND = (0.15, 0.25)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_access(request):
    """Let verdict lines reach the terminal even under output capture."""
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert ok, line


def _routed_accuracy(config, weights, routers, pairs, project=None) -> float:
    hits = 0
    for prompt, response in pairs:
        out, _ = R.generate_with_routers(config, weights, routers,
                                         TK.frame_prompt(prompt), MAX_NEW,
                                         stop_at=TK.EOS, project=project)
        hits += TK.detokenize(out.tokens) == response
    return hits / len(pairs)


# ----------------------------------------------------------- shared rigs


@pytest.fixture(scope="session")
def caesar_rig():
    """m=12 model trained on the byte-shift translation task to >=96%."""
    t0 = time.perf_counter()
    weights = M.init_model(TOY, np.random.default_rng(0))
    train, val, test = D.generate_dataset(CAESAR)
    tc = TR.TrainConfig(lam=0.0, alpha=0.0, lr_min=1e-3, lr_max=1e-3,
                        accum_steps=1, patience=30, max_epochs=45,
                        batch_size=16, eval_every=100, seed=0)
    val_quality = O.dataset_exact_match(TOY, weights, val, MAX_NEW)
    TR.train_model(TOY, weights, train, val, tc,
                   stop_check=lambda: val_quality(frozenset()) >= 0.96)
    val_acc = val_quality(frozenset())
    test_acc = O.dataset_exact_match(TOY, weights, test, MAX_NEW)(frozenset())
    return SimpleNamespace(config=TOY, weights=weights, train=train, val=val,
                           test=test, val_acc=val_acc, full_test_acc=test_acc,
                           seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def routed_rig(caesar_rig, tmp_path_factory):
    """Three seeds of budget-tuned routers plus low-rank compensation."""
    t0 = time.perf_counter()
    rig = caesar_rig
    work = tmp_path_factory.mktemp("routed")
    model_path = str(work / "model.bin")
    BU.save_bundle(model_path, weights=rig.weights)

    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(CF.DEFAULT_CONFIG)
    ini["task"] = {"kind": CAESAR.kind, "min_len": str(CAESAR.min_len),
                   "max_len": str(CAESAR.max_len),
                   "n_train": str(CAESAR.n_train), "n_val": str(CAESAR.n_val),
                   "n_test": str(CAESAR.n_test), "seed": str(CAESAR.seed)}
    ini_path = str(work / "experiment.ini")
    with open(ini_path, "w") as fh:
        ini.write(fh)

    per_seed = []
    for seed in SEEDS:
        tune_tc = TR.TrainConfig(lam=0.01, alpha=0.01, lr_min=3e-4,
                                 lr_max=3e-4, accum_steps=1, patience=4,
                                 max_epochs=4, batch_size=16, eval_every=1,
                                 seed=seed)
        tuned = TR.tune_routers_to_band(rig.config, rig.weights, rig.train,
                                        rig.val, tune_tc,
                                        probe_pairs=rig.val[:24], band=BAND)
        adapters = L.init_adapters(rig.weights, rank=8, lora_alpha=32.0,
                                   rng=np.random.default_rng(seed))
        lora_tc = TR.TrainConfig(lam=0.01, alpha=0.01, lr_min=3e-4,
                                 lr_max=3e-4, accum_steps=1, patience=6,
                                 max_epochs=8, batch_size=16, eval_every=24,
                                 seed=seed)
        TR.train_lora(rig.config, rig.weights, tuned.routers, adapters,
                      rig.train, rig.val, lora_tc, dropout=0.1)
        router_path = str(work / f"routers_{seed}.bin")
        adapter_path = str(work / f"adapters_{seed}.bin")
        BU.save_bundle(router_path, routers=tuned.routers)
        BU.save_bundle(adapter_path, adapters=adapters)
        router_only = _routed_accuracy(rig.config, rig.weights, tuned.routers,
                                       rig.test)
        compensated = _routed_accuracy(rig.config, rig.weights, tuned.routers,
                                       rig.test,
                                       project=L.adapted_project(adapters))
        per_seed.append(SimpleNamespace(
            seed=seed, routers=tuned.routers, adapters=adapters,
            skip_fraction=tuned.skip_fraction, attempts=tuned.attempts,
            router_only_acc=router_only, compensated_acc=compensated,
            router_path=router_path, adapter_path=adapter_path))
    return SimpleNamespace(per_seed=per_seed, model_path=model_path,
                           ini_path=ini_path,
                           seconds=time.perf_counter() - t0)


# --------------------------------------------- criterion 1: gradient suite


def _check_grads(fn, arrays, loss_rng):
    """Analytic grads of sum(fn(*arrays) * W) vs central differences."""
    tensors = [T.Tensor(a, requires_grad=True, dtype=np.float64)
               for a in arrays]
    out = fn(*tensors)
    if out.ndim == 0:
        loss = out
        weight = None
    else:
        weight = loss_rng.normal(size=out.shape)
        flat = T.reshape(T.mul(out, T.Tensor(weight)), (out.size,))
        loss = T.sum_axis(flat, 0)
    loss.backward()

    worst = 0.0
    for idx, tensor in enumerate(tensors):
        def value(x, idx=idx):
            with T.no_grad():
                args = [T.Tensor(a, dtype=np.float64) for a in arrays]
                args[idx] = T.Tensor(x, dtype=np.float64)
                o = fn(*args)
                if o.ndim == 0:
                    return float(o.data)
                return float(np.sum(o.data * weight))
        numeric = fd_gradient(value, arrays[idx])
        worst = max(worst, relative_error(tensor.grad, numeric))
    return worst


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    loss_rng = np.random.default_rng(12)

    x23 = rng.normal(size=(2, 3))
    y23 = rng.normal(size=(2, 3))
    a24 = rng.normal(size=(2, 4))
    b43 = rng.normal(size=(4, 3))
    x234 = rng.normal(size=(2, 3, 4))
    gain = rng.normal(size=4) + 1.5
    table = rng.normal(size=(7, 4))
    ids = rng.integers(0, 7, size=(2, 5))
    logits = rng.normal(size=(2, 3, 11))
    targets = rng.integers(0, 11, size=(2, 3))
    ignore = np.zeros((2, 3), dtype=np.uint8)
    ignore[0, 1] = 1
    soft_mask = np.ones((2, 5), dtype=bool)
    soft_mask[0, 3] = False
    x25 = rng.normal(size=(2, 5))
    n, hd = 3, 4
    inv = 10000.0 ** (-np.arange(0, hd, 2) / hd)
    ang = np.outer(np.arange(n), inv)
    cos = np.repeat(np.cos(ang), 2, axis=1)
    sin = np.stack([-np.sin(ang), np.sin(ang)], axis=-1).reshape(n, hd)
    x_rope = rng.normal(size=(2, n, hd))
    w54 = rng.normal(size=(5, 4))
    counts = np.array([[3.0], [7.0]])
    q = rng.normal(size=(1, 2, 3, 4))
    kv = rng.normal(size=(1, 2, 5, 4))
    vv = rng.normal(size=(1, 2, 5, 4))
    keep = np.arange(5)[None, :] <= np.arange(2, 5)[:, None]
    keep[1, 0] = False
    lo_a = rng.normal(size=(2, 4))
    lo_b = rng.normal(size=(5, 2))
    drop = (rng.random(size=(2, 3, 4)) < 0.75) / 0.75

    ops = {
        "add": (lambda a, b: T.add(a, b), [x23, y23]),
        "mul": (lambda a, b: T.mul(a, b), [x23, y23]),
        "scale": (lambda a: T.scale(a, 1.7), [x23]),
        "matmul": (lambda a, b: T.matmul(a, b), [a24, b43]),
        "sigmoid": (lambda a: T.sigmoid(a), [x23]),
        "softmax_rows": (lambda a: T.softmax_rows(a), [x25]),
        "softmax_rows_masked": (lambda a: T.softmax_rows(a, soft_mask), [x25]),
        "sum_axis": (lambda a: T.sum_axis(a, 0), [x234]),
        "transpose": (lambda a: T.transpose(a, (1, 0, 2)), [x234]),
        "reshape": (lambda a: T.reshape(a, (3, 8)), [x234]),
        "embedding": (lambda t: T.embedding(t, ids), [table]),
        "rmsnorm": (lambda a, g: T.rmsnorm(a, g), [x234, gain]),
        "rope": (lambda a: T.rope(a, cos, sin), [x_rope]),
        "cross_entropy": (
            lambda lg: T.cross_entropy(lg, targets), [logits]),
        "cross_entropy_ignored": (
            lambda lg: T.cross_entropy(lg, targets, ignore), [logits]),
        "parameters_norm_sq": (
            lambda a, b: T.parameters_norm_sq([a, b]), [x23, b43]),
        "linear": (lambda a, w: T.linear(a, w), [x234, w54]),
        "divide": (lambda a: T.divide(a, counts), [x23]),
        "attention": (lambda q, k, v: T.attention(q, k, v, 0.5), [q, kv, vv]),
        "attention_masked": (
            lambda q, k, v: T.attention(q, k, v, 0.5, keep), [q, kv, vv]),
        "swiglu": (lambda g, u: T.swiglu(g, u), [x23, y23]),
        "adapted_linear": (
            lambda x, w, a, b: T.adapted_linear(x, w, a, b, 1.7), [x234, w54, lo_a, lo_b]),
        "adapted_linear_masked": (
            lambda x, w, a, b: T.adapted_linear(x, w, a, b, 1.7, drop > 0, 1 / 0.75),
            [x234, w54, lo_a, lo_b]),
    }
    worst_name, worst_err = "", 0.0
    for name, (fn, arrays) in ops.items():
        err = _check_grads(fn, arrays, loss_rng)
        if err > worst_err:
            worst_name, worst_err = name, err
        assert err < 1e-5, f"{name}: op gradient relative error {err:.3e}"

    # routers through the frozen model: the whole Phase 1 gradient path
    cfg = M.ModelConfig(n_layers=2, d_model=4, n_heads=2, d_ff=8,
                        vocab_size=260, max_seq=32)
    weights = M.init_model(cfg, np.random.default_rng(13), dtype=np.float64)
    routers = R.init_routers(cfg, dtype=np.float64)
    wrng = np.random.default_rng(14)
    for router in routers:
        router.weight.data[:] = 0.1 * wrng.normal(size=4)
    _, val, _ = D.generate_dataset(D.TaskSpec(
        kind="copy", min_len=3, max_len=4, n_train=2, n_val=2, n_test=2,
        seed=5))
    batch = D.encode_batch(val, 16)
    ignore_mask = (batch.response_mask[:, 1:] == 0).astype(np.uint8)

    def loss_value():
        logits2, rhos = R.soft_forward(cfg, weights, routers,
                                       batch.tokens[:, :-1],
                                       attn_mask=batch.attn[:, :-1],
                                       router_mask=batch.prompt_mask[:, :-1])
        bd = TR.loss_total(logits2, batch.tokens[:, 1:], ignore_mask,
                           routers, rhos, lam=0.01, alpha_eff=0.1)
        return bd.total

    routers.set_requires_grad(True)
    loss_value().backward()
    analytic = np.concatenate([r.weight.grad.copy() for r in routers])
    routers.set_requires_grad(False)

    def end_to_end(flat):
        for i, router in enumerate(routers):
            router.weight.data[:] = flat[i * 4:(i + 1) * 4]
        with T.no_grad():
            return float(loss_value().data)

    flat0 = np.concatenate([r.weight.data.copy() for r in routers])
    numeric = fd_gradient(end_to_end, flat0)
    e2e_err = relative_error(analytic, numeric)
    elapsed = time.perf_counter() - t0
    ok = worst_err < 1e-5 and e2e_err < 1e-3 and elapsed < 30.0
    _verdict(1, "gradient suite", ok,
             f"worst op {worst_name} rel err {worst_err:.2e} (<1e-5), "
             f"router-through-model rel err {e2e_err:.2e} (<1e-3), "
             f"{elapsed:.1f}s (<30s)")


# --------------------------------------- criterion 2: KV-cache equivalence


def test_criterion_2_kv_cache_equivalence():
    t0 = time.perf_counter()
    weights = M.init_model(TOY, np.random.default_rng(2))
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(4, 13))
        toks = rng.integers(0, TOY.vocab_size, size=(1, length))
        skip = frozenset(int(i) for i in range(TOY.n_layers)
                         if rng.random() < 0.3)
        with T.no_grad():
            full = M.forward_full(TOY, weights, toks, skip_set=skip).data
            cache = M.KVCache(TOY, decode_skip=skip)
            step_logits = [M.forward_full(TOY, weights, toks[:, :1],
                                          skip_set=skip,
                                          cache=cache).data[:, -1]]
            for j in range(1, length):
                out = M.decode_step(TOY, weights, toks[:, j:j + 1], cache)
                step_logits.append(out.data[:, -1])
        stacked = np.stack(step_logits, axis=1)
        worst = max(worst, float(np.max(np.abs(stacked - full))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(2, "KV-cache equivalence", ok,
             f"50 random (skip set, prompt) pairs, max |delta| {worst:.2e} "
             f"(<1e-4), {elapsed:.1f}s (<60s)")


# --------------------------------------- criterion 3: protocol equivalence


def test_criterion_3_protocol_equivalence():
    # all probabilities >= 0.5 (zero-weight bank): routed greedy == base greedy
    weights = M.init_model(TOY, np.random.default_rng(3))
    bank = R.init_routers(TOY)
    rng = np.random.default_rng(303)
    identical = 0
    for _ in range(12):
        prompt = bytes(rng.integers(97, 123, size=int(rng.integers(3, 9))))
        ids = TK.frame_prompt(prompt)
        routed, decision = R.generate_with_routers(TOY, weights, bank, ids, 10)
        base = M.generate(TOY, weights, ids, 10)
        assert decision.skip_set == frozenset(), "0.5 must pass, not skip"
        assert all(r >= 0.5 for r in decision.rho)
        identical += routed.tokens == base.tokens
    assert identical == 12

    # soft blend at the exact poles is bitwise the hard pass / skip
    cfg = M.ModelConfig(n_layers=4, d_model=16, n_heads=2, d_ff=32,
                        vocab_size=260, max_seq=32)
    w4 = M.init_model(cfg, np.random.default_rng(4))
    toks = np.asarray(TK.frame_prompt(b"abcdef"))[None, :]
    mask = M.attention_mask(None, 1, toks.shape[1], toks.shape[1])
    rows = M._rope_rows(cfg, 0, toks.shape[1])
    skip_pole = {1, 3}

    with T.no_grad():
        h = T.embedding(w4.embedding, toks)
        # per-layer identity at forced exact poles
        mid = M.layer_forward(cfg, w4, 0, h, mask, rows)
        soft_one = R.soft_layer_forward(cfg, w4, 0, h,
                                        T.Tensor(np.float32(1.0)), mask, rows)
        soft_zero = R.soft_layer_forward(cfg, w4, 0, h,
                                         T.Tensor(np.float32(0.0)), mask, rows)
        assert np.array_equal(soft_one.data, mid.data)
        assert np.array_equal(soft_zero.data, h.data)

        # craft routers that saturate to the poles along the hard path
        bank4 = R.init_routers(cfg)
        for i in range(cfg.n_layers):
            states = h.data[0].astype(np.float64)  # (n, d)
            direction = np.linalg.pinv(states) @ np.ones(states.shape[0])
            sign = -1.0 if i in skip_pole else 1.0
            bank4[i].weight.data[:] = (sign * 60.0 * direction).astype(
                np.float32)
            scores = states @ bank4[i].weight.data.astype(np.float64)
            assert np.all(sign * scores > 17.5), "construction must saturate"
            if i not in skip_pole:
                h = M.layer_forward(cfg, w4, i, h, mask, rows)

        soft_logits, rhos = R.soft_forward(cfg, w4, bank4, toks)
        hard_logits = M.forward_full(cfg, w4, toks, skip_set=skip_pole)
    for i, rho in enumerate(rhos):
        if i in skip_pole:
            assert rho.item() < 1e-7
        else:
            assert rho.item() == 1.0
    bitwise = np.array_equal(soft_logits.data, hard_logits.data)
    _verdict(3, "protocol equivalence", bitwise and identical == 12,
             f"12/12 routed==base greedy generations with all rho>=0.5; "
             f"soft forward at the poles bitwise equal to hard pass/skip: "
             f"{bitwise}")


# ----------------------------------------- criterion 4: oracle cross-check


def test_criterion_4_oracle_cross_check():
    t0 = time.perf_counter()
    cfg = M.ModelConfig(n_layers=4, d_model=8, n_heads=2, d_ff=16,
                        vocab_size=260, max_seq=64)
    weights = M.init_model(cfg, np.random.default_rng(0))
    task = D.TaskSpec(kind="copy", min_len=3, max_len=4, n_train=256,
                      n_val=32, n_test=16, seed=3)
    train, val, _ = D.generate_dataset(task)
    tc = TR.TrainConfig(lam=0.0, alpha=0.0, lr_min=3e-3, lr_max=3e-3,
                        accum_steps=1, patience=10 ** 6, max_epochs=20,
                        batch_size=16, eval_every=100, seed=0)
    TR.train_model(cfg, weights, train, val, tc)

    # every subsequence interpreter state matches the skip-complement forward
    toks = np.random.default_rng(44).integers(0, cfg.vocab_size, size=(2, 7))
    all_layers = frozenset(range(cfg.n_layers))
    exact = 0
    with T.no_grad():
        for k in range(cfg.n_layers + 1):
            from itertools import combinations
            for include in combinations(range(cfg.n_layers), k):
                sub = O.subsequence_forward(cfg, weights, toks, include)
                ref = M.forward_full(cfg, weights, toks,
                                     skip_set=all_layers - frozenset(include))
                exact += np.array_equal(sub.data, ref.data)
    assert exact == 16, f"only {exact}/16 subsequences matched exactly"

    # epsilon=1 keeps nothing
    prompts = [TK.frame_prompt(p) for p, _ in val[:4]]
    golden = O.golden_exact_match(cfg, weights, prompts, task.max_len + 2)
    free = O.brute_force_oracle(cfg.n_layers, golden, epsilon=1.0)
    assert free.winner.include == ()
    assert free.evaluated == 2 ** cfg.n_layers

    # surgically zeroed layer, epsilon=0: exactly that layer is dropped
    zeroed = 2
    weights.layers[zeroed].wo.data[:] = 0.0
    weights.layers[zeroed].w_down.data[:] = 0.0
    quality = O.negative_perplexity(cfg, weights, val, max_seq=32)
    result = O.brute_force_oracle(cfg.n_layers, quality, epsilon=0.0)
    dropped = tuple(sorted(all_layers - frozenset(result.winner.include)))
    elapsed = time.perf_counter() - t0
    ok = (exact == 16 and free.winner.include == () and dropped == (zeroed,)
          and elapsed < 60.0)
    _verdict(4, "oracle cross-check", ok,
             f"16/16 subsequences bitwise, eps=1 keeps 0 layers, "
             f"zeroed layer {zeroed} dropped exactly (skip={dropped}), "
             f"{elapsed:.1f}s (<60s)")


# ------------------------------------ criterion 5: skip-pressure monotone


def test_criterion_5_alpha_monotonicity():
    t0 = time.perf_counter()
    weights = M.init_model(TOY, np.random.default_rng(0))
    task = D.TaskSpec(kind="copy", min_len=3, max_len=6, n_train=768,
                      n_val=64, n_test=64, seed=2)
    train, val, _ = D.generate_dataset(task)
    pre = TR.TrainConfig(lam=0.0, alpha=0.0, lr_min=1e-3, lr_max=1e-3,
                         accum_steps=1, patience=30, max_epochs=45,
                         batch_size=16, eval_every=100, seed=0)
    quality = O.dataset_exact_match(TOY, weights, val, task.max_len + 2)
    TR.train_model(TOY, weights, train, val, pre,
                   stop_check=lambda: quality(frozenset()) >= 0.9)

    alpha_1 = 0.01
    fractions = []
    for alpha in (0.0, alpha_1, 2 * alpha_1):
        bank = R.init_routers(TOY)
        tc = TR.TrainConfig(lam=0.01, alpha=alpha, lr_min=3e-3, lr_max=3e-3,
                            accum_steps=1, patience=10 ** 6, max_epochs=6,
                            batch_size=16, eval_every=100, seed=0)
        TR.train_routers(TOY, weights, bank, train, val, tc)
        fractions.append(TR.measure_skip_fraction(TOY, weights, bank, val))
    elapsed = time.perf_counter() - t0
    monotone = fractions[0] <= fractions[1] <= fractions[2]
    ok = monotone and elapsed < 600.0
    _verdict(5, "skip-pressure monotonicity", ok,
             f"converged skip fractions at alpha 0/{alpha_1}/{2 * alpha_1}: "
             f"{fractions[0]:.3f} <= {fractions[1]:.3f} <= "
             f"{fractions[2]:.3f}, {elapsed:.0f}s (<600s)")


# --------------------------------------- criterion 6: quality retention


def test_criterion_6_quality_retention(caesar_rig, routed_rig):
    t0 = time.perf_counter()
    rig, routed = caesar_rig, routed_rig
    assert rig.val_acc >= 0.95, (
        f"base model reached only {rig.val_acc:.3f} sequence accuracy")
    for s in routed.per_seed:
        assert BAND[0] <= s.skip_fraction <= BAND[1], (
            f"seed {s.seed} tuned to {s.skip_fraction:.3f}, "
            f"outside {BAND}")
    comp = statistics.median(s.compensated_acc for s in routed.per_seed)
    router_only = statistics.median(s.router_only_acc for s in routed.per_seed)
    bar = 0.8 * rig.full_test_acc
    elapsed = rig.seconds + routed.seconds + (time.perf_counter() - t0)
    ok = comp >= bar and comp >= router_only and elapsed < 1800.0
    fractions = ", ".join(f"{s.skip_fraction:.3f}" for s in routed.per_seed)
    _verdict(6, "quality retention", ok,
             f"base val acc {rig.val_acc:.3f} (>=0.95), skip fractions "
             f"[{fractions}] in {BAND}, median compensated acc {comp:.4f} "
             f">= 0.8*full {bar:.4f} and >= router-only {router_only:.4f}, "
             f"{elapsed:.0f}s (<1800s)")


# ------------------------------------------------- criterion 7: latency


def test_criterion_7_latency(caesar_rig):
    t0 = time.perf_counter()
    rig = caesar_rig
    prompt = TK.frame_prompt(rig.test[0][0])

    def runner(skip):
        return lambda: M.generate(rig.config, rig.weights, prompt, 48,
                                  skip_set=skip, prefill_skip=())

    tpot = B.measure_tpot({"base": runner(frozenset()),
                           "skip2": runner(frozenset({6, 9})),
                           "skip4": runner(frozenset({3, 5, 7, 9}))},
                          n_runs=15, warmup=2)
    base, skip2, skip4 = tpot["base"], tpot["skip2"], tpot["skip4"]
    r2 = skip2.median / base.median
    r4 = skip4.median / base.median
    elapsed = time.perf_counter() - t0
    ok = r2 <= 0.92 and r4 <= 0.80 and elapsed < 300.0
    _verdict(7, "decode latency", ok,
             f"median TPOT ratio skipping 2/12: {r2:.3f} (<=0.92), "
             f"4/12: {r4:.3f} (<=0.80), base {base.median * 1e3:.2f} "
             f"ms/token, {elapsed:.0f}s (<300s)")


# -------------------------------------- criterion 8: baseline comparison


def test_criterion_8_baseline_comparison(routed_rig, tmp_path):
    wins = 0
    details = []
    for s in routed_rig.per_seed:
        out_csv = str(tmp_path / f"compare_{s.seed}.csv")
        rc = CLI.main(["compare", "--config", routed_rig.ini_path,
                       "--model", routed_rig.model_path,
                       "--routers", s.router_path,
                       "--adapters", s.adapter_path,
                       "--max-prompts", "32", "--out", out_csv])
        assert rc == 0
        with open(out_csv, newline="") as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        assert {"full", "routed", "unified"} <= set(rows)
        for row in rows.values():
            assert math.isfinite(float(row["accuracy"]))
            assert math.isfinite(float(row["median_tpot"]))
            assert math.isfinite(float(row["relative_tpot"]))
        routed_q = float(rows["routed"]["accuracy"])
        unified_q = float(rows["unified"]["accuracy"])
        wins += routed_q >= unified_q
        details.append(f"seed {s.seed}: routed {routed_q:.3f} vs "
                       f"unified {unified_q:.3f}")
    ok = wins >= 2
    _verdict(8, "baseline comparison", ok,
             f"routed quality >= evenly-spaced baseline on {wins}/3 seeds "
             f"(need >=2); " + "; ".join(details))


# ----------------------------------------- criterion 9: phase isolation


def test_criterion_9_phase_isolation(tmp_path):
    cfg = M.ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                        vocab_size=260, max_seq=64)
    weights = M.init_model(cfg, np.random.default_rng(9))
    bank = R.init_routers(cfg)
    adapters = L.init_adapters(weights, rank=2, lora_alpha=4.0,
                               rng=np.random.default_rng(10))
    train, val, _ = D.generate_dataset(D.TaskSpec(
        kind="copy", min_len=3, max_len=4, n_train=32, n_val=8, n_test=4,
        seed=9))
    paths = [str(tmp_path / f"ckpt_{i}.bin") for i in range(3)]
    BU.save_bundle(paths[0], weights=weights, routers=bank, adapters=adapters)

    tc = TR.TrainConfig(lam=0.01, alpha=0.3, lr_min=3e-3, lr_max=3e-3,
                        accum_steps=1, patience=10 ** 6, max_epochs=1,
                        batch_size=8, eval_every=10, seed=0)
    TR.train_routers(cfg, weights, bank, train, val, tc)
    BU.save_bundle(paths[1], weights=weights, routers=bank, adapters=adapters)
    TR.train_lora(cfg, weights, bank, adapters, train, val, tc)
    BU.save_bundle(paths[2], weights=weights, routers=bank, adapters=adapters)

    sections = [BU.read_sections(p) for p in paths]
    phase1_clean = (sections[0]["MODL"] == sections[1]["MODL"]
                    and sections[0]["LORA"] == sections[1]["LORA"]
                    and sections[0]["ROUT"] != sections[1]["ROUT"])
    phase2_clean = (sections[1]["MODL"] == sections[2]["MODL"]
                    and sections[1]["ROUT"] == sections[2]["ROUT"]
                    and sections[1]["LORA"] != sections[2]["LORA"])

    prompts = [TK.frame_prompt(p) for p, _ in val[:4]]
    project = L.adapted_project(adapters)
    adapted = [M.generate(cfg, weights, ids, 8, project=project).tokens
               for ids in prompts]
    merged_weights = L.merge(weights, adapters)
    merged = [M.generate(cfg, merged_weights, ids, 8).tokens
              for ids in prompts]
    same = sum(a == m for a, m in zip(adapted, merged))
    ok = phase1_clean and phase2_clean and same == len(prompts)
    _verdict(9, "phase isolation", ok,
             f"phase 1 changed only ROUT: {phase1_clean}, phase 2 changed "
             f"only LORA: {phase2_clean}, merge-then-infer matched "
             f"adapted-infer on {same}/{len(prompts)} greedy generations")


# --------------------------------------- criterion 10: stats and reports


def test_criterion_10_stats_and_report_fidelity(tmp_path):
    cfg = M.ModelConfig(n_layers=3, d_model=16, n_heads=2, d_ff=32,
                        vocab_size=260, max_seq=64)
    weights = M.init_model(cfg, np.random.default_rng(20))
    bank = R.init_routers(cfg)
    wrng = np.random.default_rng(21)
    for router in bank:
        router.weight.data[:] = wrng.normal(scale=2.0, size=cfg.d_model)
    decisions = []
    for _ in range(20):
        prompt = bytes(wrng.integers(97, 123, size=int(wrng.integers(3, 7))))
        _, _, decision = R.prefill(cfg, weights, bank,
                                   np.asarray(TK.frame_prompt(prompt)))
        decisions.append(decision)

    direct = X.collect_skip_stats(decisions)
    dump = str(tmp_path / "decisions.csv")
    X.write_decision_log(dump, decisions)
    reread = X.read_decision_log(dump)
    reaggregated = X.collect_skip_stats(reread)
    stats_exact = (reaggregated == direct and reread == decisions)

    # every report writer round-trips through its CSV
    train, val, _ = D.generate_dataset(D.TaskSpec(
        kind="copy", min_len=3, max_len=3, n_train=8, n_val=4, n_test=4,
        seed=7))
    small = M.ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                          vocab_size=260, max_seq=32)
    wsmall = M.init_model(small, np.random.default_rng(22))
    tc = TR.TrainConfig(accum_steps=1, batch_size=4, max_epochs=1,
                        eval_every=1, patience=10 ** 6)
    result = TR.train_model(small, wsmall, train, val, tc)
    log_path = str(tmp_path / "train.csv")
    TR.write_train_log(log_path, result.rows)
    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    train_exact = len(rows) == len(result.rows) and all(
        int(row["step"]) == orig.step
        and float(row["ce"]) == orig.ce
        and float(row["val_ce"]) == orig.val_ce
        and all(float(row[f"rho_{i}"]) == orig.mean_rho[i]
                for i in range(len(orig.mean_rho)))
        for row, orig in zip(rows, result.rows))

    table = {frozenset(): 0.9, frozenset({0}): 0.7, frozenset({1}): 0.85,
             frozenset({0, 1}): 0.2}
    oracle = O.brute_force_oracle(2, lambda s: table[s], epsilon=0.2)
    oracle_path = str(tmp_path / "oracle.csv")
    O.write_oracle_csv(oracle_path, oracle)
    with open(oracle_path, newline="") as fh:
        orows = list(csv.DictReader(fh))
    winner_rows = [r for r in orows if r["role"] == "winner"]
    oracle_exact = (len(winner_rows) == 1
                    and float(winner_rows[0]["quality"])
                    == oracle.winner.quality
                    and winner_rows[0]["include_mask"]
                    == oracle.winner.mask_string(2))

    fake_times = iter([[0.01, 0.01], [0.02, 0.02]] * 20)
    report = B.LatencyReport(B.measure_tpot(
        {"full": lambda: SimpleNamespace(decode_times=next(fake_times)),
         "skip": lambda: SimpleNamespace(decode_times=next(fake_times))},
        n_runs=2, warmup=0))
    latency_path = str(tmp_path / "latency.csv")
    B.write_latency_csv(latency_path, report, baseline="full")
    with open(latency_path, newline="") as fh:
        lrows = {r["method"]: r for r in csv.DictReader(fh)}
    latency_exact = (
        float(lrows["full"]["median_tpot"]) == report.entries["full"].median
        and float(lrows["skip"]["relative_to_full"])
        == report.relative("skip", "full"))

    ok = stats_exact and train_exact and oracle_exact and latency_exact
    _verdict(10, "stats and report fidelity", ok,
             f"decision dump re-aggregation exact: {stats_exact}, train log "
             f"round-trip exact: {train_exact}, oracle CSV exact: "
             f"{oracle_exact}, latency CSV exact: {latency_exact}")
