import gc
import itertools
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gemmscan
from fdcheck import fd_gradient, relative_error
from memcheck import NODE_OVERHEAD_BYTES, peak_bytes, retained_bytes
from skiproute import tensor as T
from skiproute.errors import MaskError, ShapeError, VocabularyError

RNG = np.random.default_rng(20240811)


def rand64(*shape):
    return RNG.uniform(-2.0, 2.0, size=shape).astype(np.float64)


def check_op_grad(build, x0, tol=1e-5, step=1e-4):
    """Compare tape gradient of a weighted sum of build(x) against central differences.

    Random fixed weights keep the check informative for ops whose plain sum
    is constant (softmax rows always sum to one).
    """
    xt = T.Tensor(x0.copy(), requires_grad=True)
    out = build(xt)
    w = np.random.default_rng(7).uniform(0.1, 1.0, size=out.shape)
    out.backward(w)
    numeric = fd_gradient(lambda a: float(np.sum(w * build(T.Tensor(a)).data)), x0, step=step)
    assert relative_error(xt.grad, numeric) < tol


class TestMatmul:
    def test_identity(self):
        a = rand64(3, 3)
        out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(a))
        np.testing.assert_allclose(out.data, a)

    def test_hand_case(self):
        out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[0.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[2.0], [4.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_grad_vs_finite_differences(self):
        b = rand64(4, 5)
        check_op_grad(lambda x: T.matmul(x, T.Tensor(b)), rand64(3, 4))
        a = rand64(3, 4)
        check_op_grad(lambda x: T.matmul(T.Tensor(a), x), rand64(4, 5))

    def test_grad_of_sum_against_closed_form(self):
        # d sum(A@B) / dA[i, j] is the sum of row j of B.
        a = T.Tensor(rand64(3, 4), requires_grad=True)
        b = rand64(4, 5)
        out = T.matmul(a, T.Tensor(b))
        out.backward(np.ones(out.shape))
        np.testing.assert_allclose(a.grad, np.tile(b.sum(axis=1), (3, 1)))

    def test_batched_grads(self):
        b = rand64(4, 5)
        check_op_grad(lambda x: T.matmul(x, T.Tensor(b)), rand64(2, 3, 4))
        a = rand64(2, 3, 4)
        check_op_grad(lambda x: T.matmul(T.Tensor(a), x), rand64(2, 4, 5))


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_grad_vs_finite_differences(self, x_shape):
        w = rand64(5, 4)
        check_op_grad(lambda x: T.linear(x, T.Tensor(w)), rand64(*x_shape))
        x = rand64(*x_shape)
        check_op_grad(lambda w: T.linear(T.Tensor(x), w), rand64(5, 4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape", [(7, 16), (3, 7, 16)])
    def test_bitwise_equal_to_matmul_of_transpose(self, x_shape, dtype):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=x_shape).astype(dtype)
        w0 = rng.normal(size=(24, 16)).astype(dtype)
        seed = rng.normal(size=x_shape[:-1] + (24,)).astype(dtype)
        runs = []
        for project in (T.linear, lambda x, w: T.matmul(x, T.transpose(w, (1, 0)))):
            x = T.Tensor(x0, requires_grad=True)
            w = T.Tensor(w0, requires_grad=True)
            out = project(x, w)
            out.backward(seed)
            runs.append([out.data, x.grad, w.grad])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 3\)"):
            T.linear(T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((5, 3))))
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros(4)), T.Tensor(np.zeros((5, 4))))


# a weight's gradient in the ``np.tensordot`` form, in C layout
_weight_grad = gemmscan.tensordot_weight_grad


def _stacked_linear(x, w, g):
    """``linear``'s output and its x and W gradients as stacked products."""
    return [x @ w.T, g @ w, _weight_grad(x, g)]


def _stacked_adapted_linear(x, w, a, b, scaling, mask, g):
    """``adapted_linear``'s output and its x, W, A and B gradients, each
    term a stacked product, rounded and summed in the node's order."""
    s = np.asarray(scaling, dtype=x.dtype)
    xa = x if mask is None else x * mask
    la = xa @ a.T
    low = la @ b.T
    low *= s
    out = x @ w.T
    out += low
    gl = g * s
    gla = gl @ b
    gx = gla @ a
    gx = np.add(g @ w, gx if mask is None else gx * mask)
    return [out, gx, _weight_grad(x, g), _weight_grad(xa, gla), _weight_grad(la, gl)]


class TestLinearOneGemm:
    """``linear_fwd`` runs a float32 batch past ``STACKED_SMALL_KERNEL_MAX``
    as one GEMM; on a BLAS where that changes a byte these tests fail."""

    def test_grid_matches_stacked_product(self):
        assert gemmscan.mismatches() == []

    def test_grid_matches_stacked_product_on_two_blas_threads(self):
        # the command line does not pin BLAS threads, so check a second
        # count; the script runs the weight-gradient grid too
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join((src, tests)))
        done = subprocess.run([sys.executable, "-m", "gemmscan"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr

    def test_fused_stacks_keep_each_blocks_bytes(self):
        assert gemmscan.fused_mismatches() == []

    @pytest.mark.parametrize("rows,line", [(192, 6), (512, 2)])
    def test_fused_rule_stops_at_the_small_kernel_line(self, rows, line):
        w = np.zeros((rows, 64), dtype=np.float32)
        for b in (1, 16):
            assert T.fuses_on_small_kernel(np.zeros((b, line, 64), np.float32), w)
            assert not T.fuses_on_small_kernel(np.zeros((b, line + 1, 64), np.float32), w)
        assert not T.fuses_on_small_kernel(np.zeros((1, 1, 64)), w.astype(np.float64))

    def test_float64_keeps_the_stacked_product(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(260, 64))
        for b, n in ((2, 5), (16, 18), (5, 100)):
            x = rng.normal(size=(b, n, 64))
            assert gemmscan.same_array(T.linear_fwd(x, w), x @ w.T)

    @pytest.mark.parametrize("x_shape,m", [((16, 18, 64), 256), ((16, 18, 64), 260),
                                           ((16, 19, 64), 64), ((3, 60, 16), 24)])
    def test_tape_linear_matches_stacked_products(self, x_shape, m):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=x_shape).astype(np.float32)
        w0 = rng.normal(size=(m, x_shape[-1])).astype(np.float32)
        g = rng.normal(size=x_shape[:-1] + (m,)).astype(np.float32)
        x, w = T.Tensor(x0, requires_grad=True), T.Tensor(w0, requires_grad=True)
        out = T.linear(x, w)
        out.backward(g)
        for got, want in zip((out.data, x.grad, w.grad), _stacked_linear(x0, w0, g)):
            assert gemmscan.same_array(got, want)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("x_shape", [(16, 18, 64), (4, 160, 64)])
    def test_adapted_linear_matches_stacked_products(self, x_shape, masked):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=x_shape).astype(np.float32)
        w0 = rng.normal(scale=0.1, size=(256, 64)).astype(np.float32)
        a0 = rng.normal(scale=0.02, size=(8, 64)).astype(np.float32)
        b0 = rng.normal(scale=0.05, size=(256, 8)).astype(np.float32)
        g = rng.normal(size=x_shape[:-1] + (256,)).astype(np.float32)
        keep, inv_keep, mask = _dropout(x_shape, rng) if masked else (None,) * 3
        leaves = [T.Tensor(t, requires_grad=True) for t in (x0, w0, a0, b0)]
        out = T.adapted_linear(*leaves, 2.0, keep, inv_keep)
        out.backward(g)
        want = _stacked_adapted_linear(x0, w0, a0, b0, 2.0, mask, g)
        for got, ref in zip([out.data] + [t.grad for t in leaves], want):
            assert gemmscan.same_array(got, ref)
        plain = T.plain.adapted_linear(x0, *leaves[1:], 2.0, keep, inv_keep)
        assert gemmscan.same_array(plain, want[0])


class TestWeightGradient:
    """In float32 every weight gradient is one product over all rows, in
    the weight's own layout, with the bytes of the ``np.tensordot`` form;
    on a BLAS where that changes a byte these tests fail."""

    def test_grid_matches_tensordot(self):
        assert gemmscan.weight_grad_mismatches() == []

    def test_float64_keeps_tensordot(self):
        rng = np.random.default_rng(6)
        for (m, k), (b, n) in itertools.product(((260, 64), (8, 64), (64, 8)),
                                                ((1, 40), (5, 31), (16, 18), (2, 100))):
            x, g = rng.normal(size=(b, n, k)), rng.normal(size=(b, n, m))
            gw = np.tensordot(x, g, axes=([0, 1], [0, 1])).T
            assert gemmscan.same_array(T._linear_weight_grad(x, g), gw)
            assert gemmscan.same_array(T._linear_weight_grad(x[0], g[0]), (x[0].T @ g[0]).T)
            hidden, gr = rng.normal(size=(b, n, k)), rng.normal(size=(b, n, 1))
            w = T.Tensor(rng.normal(size=k), requires_grad=True)
            T.matmul(T.Tensor(hidden), T.reshape(w, (k, 1))).backward(gr)
            want = np.tensordot(hidden, gr, axes=([0, 1], [0, 1])).reshape(k)
            assert w.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("masked", [False, True])
    def test_float32_weight_grads_are_kept_in_the_weights_layout(self, masked, monkeypatch):
        formed = []
        real = T._linear_weight_grad

        def recording(x, g):
            formed.append(real(x, g))
            return formed[-1]

        monkeypatch.setattr(T, "_linear_weight_grad", recording)
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.normal(size=(16, 18, 64)).astype(np.float32), requires_grad=True)
        # a projection feeding an adapted one, as in a layer
        w1, a, b, w2 = (T.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                        for s in ((256, 64), (8, 256), (64, 8), (64, 256)))
        hidden = T.linear(x, w1)
        keep, inv_keep, _ = _dropout(hidden.shape, rng) if masked else (None,) * 3
        out = T.adapted_linear(hidden, w2, a, b, 2.0, keep, inv_keep)
        out.backward(rng.normal(size=out.shape).astype(np.float32))
        assert len(formed) == 4
        for leaf in (w1, w2, a, b):
            assert leaf.grad.shape == leaf.shape and leaf.grad.flags.c_contiguous
            assert any(leaf.grad is f for f in formed)


class TestSigmoid:
    def test_values(self):
        out = T.sigmoid(T.Tensor(np.array([0.0, 1e3, 1.0])))
        assert out.data[0] == pytest.approx(0.5)
        assert out.data[1] == pytest.approx(1.0, abs=1e-6)
        assert out.data[2] == pytest.approx(0.7310585786, abs=1e-6)

    def test_grad(self):
        check_op_grad(T.sigmoid, rand64(3, 4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_split_by_sign_form(self, dtype):
        def split_form(d):
            out = np.empty_like(d)
            pos = d >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
            e = np.exp(d[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        rng = np.random.default_rng(3)
        edges = [0.0, -0.0, 1e30, -1e30, 1e-30, -1e-30, 88.0, -88.0, 710.0,
                 -710.0, np.inf, -np.inf]
        d = np.concatenate([np.array(edges), rng.normal(scale=8.0, size=2000),
                            rng.normal(scale=1e-3, size=200)]).astype(dtype)
        # a block of the FFN gate's size with random signs
        block = rng.normal(scale=4.0, size=(16, 19, 256)).astype(dtype)
        for x in (d, block):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = T.sigmoid(T.Tensor(x)).data
            assert got.dtype == dtype and got.shape == x.shape
            assert np.array_equal(got.view(np.uint8), split_form(x).view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_stays_nan(self, dtype):
        got = T.sigmoid_fwd(np.array([np.nan, 1.0, -np.nan], dtype=dtype))
        assert np.isnan(got[0]) and np.isnan(got[2]) and not np.isnan(got[1])


class TestSoftmaxRows:
    def test_uniform(self):
        out = T.softmax_rows(T.Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3])

    def test_mask_hides_entry(self):
        out = T.softmax_rows(T.Tensor(np.ones((1, 3))), mask=np.array([1, 1, 0]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]])

    def test_scalar_case(self):
        out = T.softmax_rows(T.Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[0.0900, 0.2447, 0.6652]], atol=1e-4)

    def test_all_masked_row_raises(self):
        with pytest.raises(MaskError):
            T.softmax_rows(T.Tensor(np.ones((1, 3))), mask=np.zeros(3))

    def test_grad(self):
        check_op_grad(lambda x: T.softmax_rows(x), rand64(3, 5))
        check_op_grad(lambda x: T.softmax_rows(x, mask=np.array([1, 1, 1, 0, 1])), rand64(3, 5))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6), st.floats(-10, 10))
    def test_rows_sum_to_one_and_shift_invariant(self, row, c):
        x = np.array([row], dtype=np.float64)
        out = T.softmax_rows(T.Tensor(x)).data
        shifted = T.softmax_rows(T.Tensor(x + c)).data
        assert abs(out.sum() - 1.0) < 1e-6
        np.testing.assert_allclose(out, shifted, atol=1e-9)


def _causal_keep(n, t):
    return np.arange(t)[None, :] <= (t - n + np.arange(n))[:, None]


def _attention_case(case):
    """(q, k, v, mask) arrays laid out as the model lays them out: q, k and
    v are head views of (b, n, heads, hd) rows; decode reads k and v as the
    filled prefix of cache buffers."""
    rng = np.random.default_rng(17)
    h, hd = 4, 16

    def heads(b, n):
        return rng.normal(size=(b, n, h, hd)).astype(np.float32).transpose(0, 2, 1, 3)

    if case == "prefill":
        return heads(1, 24), heads(1, 24), heads(1, 24), _causal_keep(24, 24)
    if case == "decode":
        k_buf = rng.normal(size=(1, h, 32, hd)).astype(np.float32)
        v_buf = rng.normal(size=(1, h, 32, hd)).astype(np.float32)
        return heads(1, 1), k_buf[:, :, :13], v_buf[:, :, :13], None
    # a right-padded batch: row 1 has two pad tokens, row 2 has five
    valid = np.ones((3, 9), dtype=bool)
    valid[1, 7:] = False
    valid[2, 4:] = False
    keep = _causal_keep(9, 9)[None, None] & valid[:, None, None, :]
    return heads(3, 9), heads(3, 9), heads(3, 9), keep


def _composed_attention(q, k, v, scale, mask):
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale)
    return T.matmul(T.softmax_rows(scores, mask), v)


def _assert_same_forward_and_grads(fused, composed, arrays, seed):
    runs = []
    for op in (fused, composed):
        ins = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = op(*ins)
        out.backward(seed)
        runs.append([out.data] + [t.grad for t in ins])
    for got, want in zip(*runs):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    return runs[1][0]


class TestAttention:
    @pytest.mark.parametrize("case", ["prefill", "decode", "padded"])
    def test_bitwise_equal_to_composed_ops(self, case):
        q, k, v, mask = _attention_case(case)
        before = [a.copy() for a in (q, k, v)]
        seed = np.random.default_rng(5).normal(size=q.shape).astype(np.float32)
        # the model's 1/sqrt(16) is exact; 0.3 also shows the rounding order
        for scale in (16 ** -0.5, 0.3):
            want = _assert_same_forward_and_grads(
                lambda *t: T.attention(*t, scale, mask),
                lambda *t: _composed_attention(*t, scale, mask), (q, k, v), seed)
            assert T.plain.attention(q, k, v, scale, mask).tobytes() == want.tobytes()
        # the operands, cache views included, are only read
        for a, b in zip((q, k, v), before):
            assert a.tobytes() == b.tobytes()

    def test_grad(self):
        keep = _causal_keep(3, 5)
        keep[1, 0] = False
        q, k, v = rand64(2, 2, 3, 4), rand64(2, 2, 5, 4), rand64(2, 2, 5, 4)
        check_op_grad(lambda x: T.attention(x, T.Tensor(k), T.Tensor(v), 0.5, keep), q)
        check_op_grad(lambda x: T.attention(T.Tensor(q), x, T.Tensor(v), 0.5, keep), k)
        check_op_grad(lambda x: T.attention(T.Tensor(q), T.Tensor(k), x, 0.5, keep), v)

    def test_shape_errors(self):
        q = T.Tensor(np.zeros((1, 2, 3, 4)))
        with pytest.raises(ShapeError):
            T.attention(q, T.Tensor(np.zeros((2, 3, 4))), q, 1.0)
        with pytest.raises(ShapeError):
            T.attention(q, q, T.Tensor(np.zeros((1, 2, 5, 4))), 1.0)


class TestSwiglu:
    @pytest.mark.parametrize("shape", [(1, 24, 64), (1, 1, 64), (3, 9, 64)])
    def test_bitwise_equal_to_composed_ops(self, shape):
        rng = np.random.default_rng(8)
        g, u, seed = (rng.normal(scale=3.0, size=shape).astype(np.float32) for _ in range(3))
        want = _assert_same_forward_and_grads(
            T.swiglu, lambda g, u: T.mul(T.mul(g, T.sigmoid(g)), u), (g, u), seed)
        assert T.plain.swiglu(g, u).tobytes() == want.tobytes()

    def test_grad(self):
        g, u = rand64(2, 3, 4), rand64(2, 3, 4)
        check_op_grad(lambda x: T.swiglu(x, T.Tensor(u)), g)
        check_op_grad(lambda x: T.swiglu(T.Tensor(g), x), u)


def _composed_adapted_linear(x, w, a, b, scaling, mask):
    """The adapter formula in the composed ops, as one node replaces it."""
    xa = x if mask is None else T.mul(x, T.Tensor(mask))
    low = T.linear(T.linear(xa, a), b)
    return T.add(T.linear(x, w), T.scale(low, scaling))


def _dropout(shape, rng, dtype=np.float32):
    """A keep-draw at rate 0.9, the kept entries' scale, and the float mask
    the two stand for, formed as adapter dropout formed it."""
    keep = rng.random(shape) < 0.9
    inv_keep = dtype(1) / dtype(0.9)
    return keep, inv_keep, np.multiply(keep, inv_keep, dtype=dtype)


def _assert_node_matches_composed(x_shape, w_grad, x_grad, masked, dtype):
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=x_shape).astype(dtype)
    w0 = rng.normal(scale=0.1, size=(48, 64)).astype(dtype)
    a0 = rng.normal(scale=0.02, size=(8, 64)).astype(dtype)
    b0 = rng.normal(scale=0.05, size=(48, 8)).astype(dtype)
    seed = rng.normal(size=x_shape[:-1] + (48,)).astype(dtype)
    keep, inv_keep, mask = _dropout(x_shape, rng, dtype) if masked else (None,) * 3
    runs = []
    # the node takes the keep-draw; the composed ops take its float mask
    for op in (lambda *t: T.adapted_linear(*t, 4.0 / 3.0, keep, inv_keep),
               lambda *t: _composed_adapted_linear(*t, 4.0 / 3.0, mask)):
        x = T.Tensor(x0, requires_grad=x_grad)
        w = T.Tensor(w0, requires_grad=w_grad)
        a = T.Tensor(a0, requires_grad=True)
        b = T.Tensor(b0, requires_grad=True)
        # x also feeds a plain projection, whose gradient reaches it
        # first, so the order of the node's two terms shows in the bits
        out = T.add(T.linear(x, T.Tensor(w0)), op(x, w, a, b))
        out.backward(seed)
        runs.append([out.data] + [t.grad for t in (x, w, a, b)])
    for got, want in zip(*runs):
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    plain = T.plain.adapted_linear(x0, T.Tensor(w0), T.Tensor(a0), T.Tensor(b0),
                                   4.0 / 3.0, keep, inv_keep)
    want = _composed_adapted_linear(*(T.Tensor(t) for t in (x0, w0, a0, b0)),
                                    4.0 / 3.0, mask).data
    assert plain.tobytes() == want.tobytes()


class TestAdaptedLinear:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("w_grad", [False, True])
    @pytest.mark.parametrize("x_shape", [(19, 64), (4, 19, 64)])
    def test_bitwise_equal_to_composed_ops(self, x_shape, w_grad, x_grad, masked):
        _assert_node_matches_composed(x_shape, w_grad, x_grad, masked, np.float32)

    @pytest.mark.parametrize("masked", [False, True])
    def test_bitwise_equal_to_composed_ops_in_float64(self, masked):
        for x_shape in ((19, 64), (4, 19, 64)):
            for w_grad in (False, True):
                for x_grad in (False, True):
                    _assert_node_matches_composed(x_shape, w_grad, x_grad, masked, np.float64)

    @pytest.mark.parametrize("masked", [False, True])
    def test_grad(self, masked):
        x, w, a, b = rand64(2, 3, 4), rand64(5, 4), rand64(2, 4), rand64(5, 2)
        keep, inv_keep, _ = _dropout(x.shape, np.random.default_rng(4), np.float64) \
            if masked else (None,) * 3
        args = [T.Tensor(t) for t in (x, w, a, b)]
        for i, t in enumerate((x, w, a, b)):
            def build(v, i=i):
                return T.adapted_linear(*args[:i], v, *args[i + 1:], 1.7, keep, inv_keep)
            check_op_grad(build, t)

    def test_shape_errors(self):
        x, w = T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((5, 4)))
        a, b = T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((5, 2)))
        with pytest.raises(ShapeError):
            T.adapted_linear(T.Tensor(np.zeros((3, 5))), w, a, b, 1.0)
        with pytest.raises(ShapeError):
            T.adapted_linear(x, w, T.Tensor(np.zeros((2, 3))), b, 1.0)
        with pytest.raises(ShapeError):
            T.adapted_linear(x, w, a, T.Tensor(np.zeros((5, 3))), 1.0)
        with pytest.raises(ShapeError, match="keep-draw"):
            T.adapted_linear(x, w, a, b, 1.0, np.ones((4, 3), dtype=bool), 2.0)
        with pytest.raises(TypeError, match="inv_keep"):
            T.adapted_linear(x, w, a, b, 1.0, np.ones((3, 4), dtype=bool))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_node_keeps_one_bit_per_dropout_entry(self, dtype):
        """Beyond its parents and output, a masked node holds the keep-draw
        packed one bit per entry and the rank-wide product: no float mask,
        no ``x * mask`` and no unpacked draw."""
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(16, 19, 64)).astype(dtype), requires_grad=True)
        w = T.Tensor(rng.normal(size=(48, 64)).astype(dtype))
        a = T.Tensor(rng.normal(size=(8, 64)).astype(dtype), requires_grad=True)
        b = T.Tensor(rng.normal(size=(48, 8)).astype(dtype), requires_grad=True)
        inv_keep = dtype(1) / dtype(0.9)
        out, held = retained_bytes(
            lambda: T.adapted_linear(x, w, a, b, 2.0, rng.random(x.shape) < 0.9, inv_keep))
        rank_wide = out.size // 48 * 8 * x.data.itemsize
        assert held - out.data.nbytes <= -(-x.size // 8) + rank_wide + NODE_OVERHEAD_BYTES

    def test_dropout_backward_holds_no_masked_input_at_its_peak(self):
        """One dropout backward at ``w_down``'s shape, (16, 18, 256) → 64.
        At its peak, x's gradient from the base product, the low-rank
        x-gradient and their sum are live beside the float mask and the
        unpacked keep-draw; ``x * mask``, which only A's gradient reads, is
        gone by then."""
        rng = np.random.default_rng(12)
        x = T.Tensor(rng.normal(size=(16, 18, 256)).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.normal(scale=0.05, size=(64, 256)).astype(np.float32))
        a = T.Tensor(rng.normal(scale=0.05, size=(8, 256)).astype(np.float32),
                     requires_grad=True)
        b = T.Tensor(rng.normal(scale=0.05, size=(64, 8)).astype(np.float32),
                     requires_grad=True)
        keep, inv_keep, _ = _dropout(x.shape, rng)
        out = T.adapted_linear(x, w, a, b, 4.0, keep, inv_keep)
        seed = rng.normal(size=out.shape).astype(np.float32)
        _, peak = peak_bytes(lambda: out.backward(seed))
        # the seed's copy and its scaled form are output-sized; an eighth of
        # an input covers the rank-wide products, the adapter gradients and
        # the Python objects
        size = x.data.nbytes
        assert peak <= 4 * size + x.size + 2 * out.data.nbytes + size // 8


class TestMeanSum:
    """The mean the router pools with: ``sum_axis`` divided by the count."""

    def test_constant(self):
        out = T.divide(T.sum_axis(T.Tensor(np.full((2, 5), 3.25)), 1), 5)
        np.testing.assert_array_equal(out.data, [3.25, 3.25])

    def test_pair(self):
        assert T.divide(T.sum_axis(T.Tensor(np.array([0.2, 0.8])), 0), 2).item() \
            == pytest.approx(0.5)

    def test_grads(self):
        check_op_grad(lambda x: T.sum_axis(x, 0), rand64(3, 4))
        check_op_grad(lambda x: T.divide(T.sum_axis(x, 1), 4), rand64(3, 4))

    def test_mean_backward_distributes_uniformly(self):
        x = T.Tensor(rand64(6), requires_grad=True)
        T.divide(T.sum_axis(x, 0), 6).backward()
        np.testing.assert_allclose(x.grad, np.full(6, 1 / 6))


class TestCrossEntropy:
    def test_one_hot_perfect(self):
        logits = np.full((1, 3, 4), -30.0)
        targets = np.array([[1, 2, 0]])
        for i, t in enumerate(targets[0]):
            logits[0, i, t] = 30.0
        loss = T.cross_entropy(T.Tensor(logits), targets)
        assert loss.item() < 1e-9

    def test_uniform_is_log_vocab(self):
        loss = T.cross_entropy(T.Tensor(np.zeros((2, 3, 4))), np.zeros((2, 3), dtype=int))
        assert loss.item() == pytest.approx(math.log(4), abs=1e-6)

    def test_matches_per_position_oracle(self):
        logits = rand64(2, 4)
        targets = np.array([1, 3])
        expected = 0.0
        for row, t in zip(logits, targets):
            p = np.exp(row - row.max())
            p /= p.sum()
            expected += -math.log(p[t])
        loss = T.cross_entropy(T.Tensor(logits), targets)
        assert loss.item() == pytest.approx(expected / 2, rel=1e-9)

    def test_ignore_mask(self):
        logits = rand64(1, 3, 5)
        targets = np.array([[0, 1, 2]])
        mask = np.array([[1, 1, 0]])  # only the last position counts
        loss = T.cross_entropy(T.Tensor(logits), targets, ignore_mask=mask)
        ref = T.cross_entropy(T.Tensor(logits[:, 2:]), targets[:, 2:])
        assert loss.item() == pytest.approx(ref.item(), rel=1e-9)

    def test_all_masked_raises(self):
        with pytest.raises(MaskError):
            T.cross_entropy(T.Tensor(rand64(1, 2, 3)), np.zeros((1, 2), dtype=int), np.ones((1, 2)))

    def test_bad_target_raises(self):
        with pytest.raises(VocabularyError):
            T.cross_entropy(T.Tensor(rand64(1, 2, 3)), np.array([[0, 7]]))

    def test_grad(self):
        targets = np.array([[1, 0, 3]])
        mask = np.array([[1, 0, 0]])
        check_op_grad(lambda x: T.cross_entropy(x, targets, mask), rand64(1, 3, 4), tol=1e-4)


class TestEmbeddingAndNorm:
    def test_embedding_gather(self):
        table = rand64(6, 3)
        out = T.embedding(T.Tensor(table), np.array([[0, 5], [2, 2]]))
        np.testing.assert_allclose(out.data, table[[[0, 5], [2, 2]]])

    def test_embedding_bad_id(self):
        with pytest.raises(VocabularyError):
            T.embedding(T.Tensor(rand64(4, 3)), np.array([4]))

    def test_embedding_scatter_add_grad(self):
        table = T.Tensor(rand64(4, 3), requires_grad=True)
        out = T.embedding(table, np.array([1, 1, 3]))
        out.backward(np.ones(out.shape))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(table.grad, expected)

    def test_rmsnorm_unit_scale(self):
        x = rand64(2, 3, 4)
        out = T.rmsnorm(T.Tensor(x), T.Tensor(np.ones(4)))
        expected = x / np.sqrt((x**2).mean(axis=-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_rmsnorm_grads(self):
        gain = rand64(4)
        check_op_grad(lambda x: T.rmsnorm(x, T.Tensor(gain)), rand64(2, 3, 4))
        x = rand64(2, 3, 4)
        check_op_grad(lambda g: T.rmsnorm(T.Tensor(x), g), rand64(4))


class TestStructuralOps:
    def test_add_mul_scale_grads(self):
        b = rand64(3, 4)
        check_op_grad(lambda x: T.add(x, T.Tensor(b)), rand64(3, 4))
        check_op_grad(lambda x: T.mul(x, T.Tensor(b)), rand64(3, 4))
        check_op_grad(lambda x: T.scale(x, -1.7), rand64(3, 4))
        counts = np.array([[3.0], [1.0], [7.0]])
        check_op_grad(lambda x: T.divide(x, counts), rand64(3, 4))

    def test_divide_is_exact(self):
        # n * 0.5 / n is 0.5; n * 0.5 * fl(1 / n) is not for n = 41
        halves = T.Tensor(np.full(41, 0.5, dtype=np.float32))
        out = T.divide(T.sum_axis(halves, 0), np.array(41))
        assert out.dtype == np.float32 and out.item() == 0.5

    def test_broadcast_unreduces(self):
        # scalar rho broadcast over a full tensor, as in the soft forward
        rho = T.Tensor(np.array(0.3), requires_grad=True)
        x = rand64(2, 3)
        out = T.mul(rho, T.Tensor(x))
        out.backward(np.ones((2, 3)))
        assert rho.grad == pytest.approx(x.sum())

    def test_transpose_reshape_concat_grads(self):
        check_op_grad(lambda x: T.transpose(x, (1, 0, 2)), rand64(2, 3, 4))
        check_op_grad(lambda x: T.reshape(x, (6, 4)), rand64(2, 3, 4))

    def test_rope_rotation_and_grad(self):
        n, hd = 3, 4
        inv = 10000.0 ** (-np.arange(0, hd, 2) / hd)
        ang = np.outer(np.arange(n), inv)
        # interleaved tables: each pair's cosine twice, (-sin, +sin) per pair
        cos = np.repeat(np.cos(ang), 2, axis=1)
        sin = np.stack([-np.sin(ang), np.sin(ang)], axis=-1).reshape(n, hd)
        x = rand64(2, n, hd)
        out = T.rope(T.Tensor(x), cos, sin).data
        # rotation preserves pairwise norms
        norm_in = x[..., 0::2] ** 2 + x[..., 1::2] ** 2
        norm_out = out[..., 0::2] ** 2 + out[..., 1::2] ** 2
        np.testing.assert_allclose(norm_in, norm_out, rtol=1e-10)
        check_op_grad(lambda t: T.rope(t, cos, sin), x)

    def test_position_zero_is_identity(self):
        hd = 4
        cos = np.ones((1, hd))
        sin = np.array([[-0.0, 0.0] * (hd // 2)])
        x = rand64(1, 1, hd)
        np.testing.assert_array_equal(T.rope(T.Tensor(x), cos, sin).data, x)


class TestAutodiffEngine:
    def test_accumulation_is_additive(self):
        x = T.Tensor(rand64(3), requires_grad=True)
        out = T.sum_axis(T.mul(x, x), 0)
        out.backward()
        once = x.grad.copy()
        out2 = T.sum_axis(T.mul(x, x), 0)
        out2.backward()
        np.testing.assert_allclose(x.grad, 2 * once)

    @staticmethod
    def _graph():
        """A loss over shared and branching interior nodes, and its leaves."""
        rng = np.random.default_rng(21)
        x, w, gain = (T.Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)
                      for shape in ((3, 4), (5, 4), (5,)))
        h = T.linear(x, w)
        y = T.rmsnorm(T.add(h, T.sigmoid(h)), gain)
        loss = T.sum_axis(T.divide(T.sum_axis(T.mul(y, h), 1), 5), 0)
        return loss, (x, w, gain)

    @staticmethod
    def _topo(node, seen=None, out=None):
        """Interior nodes in the engine's sweep order, reversed: a post-order
        walk over ``Node.parents`` that visits parents last to first, as its
        stack pops them; leaves and operands without a gradient end it."""
        seen, out = (set(), []) if seen is None else (seen, out)
        if isinstance(node, T.Node) and id(node) not in seen:
            seen.add(id(node))
            for p in reversed(node.parents):
                TestAutodiffEngine._topo(p, seen, out)
            out.append(node)
        return out

    def test_only_leaves_keep_gradients(self):
        loss, leaves = self._graph()
        interior = self._topo(loss._node)
        assert len(interior) == 8
        loss.backward()
        assert all(node.grad is None for node in interior)
        assert all(t.grad is not None for t in leaves)
        # the same sweep keeping every node's gradient, as the engine once did
        kept, kept_leaves = self._graph()
        kept.accumulate_grad(np.ones_like(kept.data))
        for node in reversed(self._topo(kept._node)):
            node.backward(node.grad)
        for got, want in zip(leaves, kept_leaves):
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_a_second_sweep_adds_to_the_leaves_again(self):
        loss, leaves = self._graph()
        loss.backward()
        once = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, once):
            np.testing.assert_allclose(t.grad, 2.0 * g, rtol=1e-12)

    def test_leaves_fed_one_gradient_stay_independent(self):
        # add hands the same array to both parents
        a = T.Tensor(rand64(3), requires_grad=True)
        b = T.Tensor(rand64(3), requires_grad=True)
        seed = rand64(3)
        T.add(a, b).backward(seed)
        want = seed.copy()
        seed[:] = 0.0  # the caller's seed array is not the gradient
        np.testing.assert_array_equal(a.grad, want)
        np.testing.assert_array_equal(b.grad, want)
        more = rand64(3)
        T.scale(a, 2.0).backward(more)
        np.testing.assert_array_equal(a.grad, want + 2.0 * more)
        np.testing.assert_array_equal(b.grad, want)

    @pytest.mark.parametrize("shape,axis", [((3, 4), 1), ((3, 4), 0), ((3, 1), 1), ((1,), 0)])
    def test_reduction_gradient_is_writable_in_the_parameter_shape(self, shape, axis):
        x = T.Tensor(rand64(*shape), requires_grad=True)
        out = T.sum_axis(x, axis)
        out.backward(np.ones(out.shape))
        assert x.grad.shape == shape and x.grad.dtype == x.dtype
        assert x.grad.flags.writeable
        x.grad *= 2.0

    def test_scalar_gradient_is_a_writable_array(self):
        # a 0-d product comes back from numpy as a scalar, not an array
        x = T.Tensor(np.asarray(1.5), requires_grad=True)
        T.scale(x, 2.0).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.flags.writeable
        assert x.grad == 2.0

    def test_chain_rule_random_compositions(self):
        ops = [
            lambda t: T.sigmoid(t),
            lambda t: T.mul(t, t),
            lambda t: T.add(t, T.scale(t, 0.5)),
            lambda t: T.rmsnorm(t, T.Tensor(np.ones(t.shape[-1]))),
        ]
        rng = np.random.default_rng(3)
        for _ in range(6):
            depth = rng.integers(1, 5)
            chain = [ops[i] for i in rng.integers(0, len(ops), depth)]

            def build(t, chain=chain):
                for f in chain:
                    t = f(t)
                return t

            check_op_grad(build, rand64(2, 4), tol=1e-4)

    def test_frozen_weights_pass_gradient_through(self):
        w = T.Tensor(rand64(4, 4))  # frozen: no grad requested
        x = T.Tensor(rand64(2, 4), requires_grad=True)
        out = T.matmul(x, w)
        out.backward(np.ones(out.shape))
        assert w.grad is None
        assert x.grad is not None and np.any(x.grad != 0)

    def test_no_grad_mode_builds_no_graph(self):
        x = T.Tensor(rand64(2, 2), requires_grad=True)
        with T.no_grad():
            out = T.mul(x, x)
        assert not out.requires_grad and out._node is None

    def test_a_node_keeps_its_outputs_layout_not_the_output(self):
        x = T.Tensor(rand64(3, 4, 5), requires_grad=True)
        y = T.transpose(T.scale(x, 2.0), (1, 0, 2))
        node = y._node
        assert (node.shape, node.dtype, node.strides) == (y.shape, y.dtype, y.data.strides)
        loss = T.sum_axis(T.reshape(y, (60,)), 0)  # the reshape copies the view
        scaled = weakref.ref(y.data.base)
        del y
        gc.collect()
        assert scaled() is None
        loss.backward()
        assert x.grad.tobytes() == np.full((3, 4, 5), 2.0).tobytes()

    def test_a_node_built_while_w_was_frozen_keeps_no_x(self):
        w = T.Tensor(rand64(5, 4))
        x0 = T.Tensor(rand64(3, 4), requires_grad=True)

        def build():
            x = T.scale(x0, 1.0)  # interior, so only the graph could keep it
            return T.linear(x, w), weakref.ref(x.data)

        out, x_ref = build()
        gc.collect()
        assert x_ref() is None
        w.requires_grad = True  # too late: the node decided when it was built
        out.backward(np.ones(out.shape))
        assert w.grad is None and x0.grad.tobytes() == (np.ones((3, 5)) @ w.data).tobytes()
        kept, x_ref = build()
        gc.collect()
        assert x_ref() is not None  # W's gradient reads x

    @pytest.mark.parametrize("build", [
        lambda t: T.add(t(2, 3), t(2, 3)), lambda t: T.mul(t(2, 3), t(2, 3)),
        lambda t: T.divide(t(2, 3), np.ones(3)), lambda t: T.scale(t(2, 3), 2.0),
        lambda t: T.linear(t(2, 3), t(4, 3)),
        lambda t: T.adapted_linear(t(2, 3), t(4, 3), t(2, 3), t(4, 2), 1.0,
                                   np.ones((2, 3), bool), 1.0),
        lambda t: T.matmul(t(2, 3), t(3, 4)), lambda t: T.sigmoid(t(2, 3)),
        lambda t: T.softmax_rows(t(2, 3)),
        lambda t: T.attention(t(1, 1, 2, 4), t(1, 1, 2, 4), t(1, 1, 2, 4), 0.5),
        lambda t: T.swiglu(t(2, 3), t(2, 3)),
        lambda t: T.sum_axis(t(2, 3), 1), lambda t: T.transpose(t(2, 3), (1, 0)),
        lambda t: T.reshape(t(2, 3), (3, 2)), lambda t: T.embedding(t(5, 3), np.array([1, 2])),
        lambda t: T.rmsnorm(t(2, 3), t(3)),
        lambda t: T.rope(t(2, 4), np.ones((2, 4)), np.ones((2, 4))),
        lambda t: T.cross_entropy(t(2, 5), np.array([1, 2]))])
    def test_no_backward_keeps_an_operand_tensor(self, build):
        # a Tensor in the closure would keep its whole output array alive
        out = build(lambda *shape: T.scale(T.Tensor(rand64(*shape), requires_grad=True), 1.0))
        held = [c.cell_contents for c in out._node.backward.__closure__]
        assert not any(isinstance(c, T.Tensor) for c in held)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_swiglu_gradients_equal_the_stored_sigmoid_expression(self, dtype):
        rng = np.random.default_rng(5)
        g0, u0, G = (rng.normal(scale=4.0, size=(4, 7, 24)).astype(dtype) for _ in range(3))
        g0[0, 0, :4] = [-40.0, 40.0, 0.0, -0.0]  # saturated and signed-zero entries
        g, u = T.Tensor(g0, requires_grad=True), T.Tensor(u0, requires_grad=True)
        T.swiglu(g, u).backward(G)
        # the node's backward as it was, over the sigmoid its forward kept
        sig = T.sigmoid_fwd(g0)
        gu = g0 * sig
        gu *= G
        gg = G * u0
        gsig = gg * g0
        gsig *= sig
        gsig *= 1.0 - sig
        gg *= sig
        assert u.grad.tobytes() == gu.tobytes()
        assert g.grad.tobytes() == (gg + gsig).tobytes()

    @staticmethod
    def _rebuildable(case, rng):
        """Interior leaves and an output whose node can rebuild it."""
        def interior(*shape):
            leaf = T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            return leaf, T.scale(leaf, 1.0)
        if case == "rmsnorm":
            (x, xi), (gain, _) = interior(4, 6, 8), interior(8)
            return [x, gain], T.rmsnorm(xi, gain)
        if case == "swiglu":
            (g, gi), (u, ui) = interior(4, 6, 8), interior(4, 6, 8)
            return [g, u], T.swiglu(gi, ui)
        (q, qi), (k, ki), (v, vi) = (interior(4, 2, 6, 4) for _ in range(3))
        out = T.attention(qi, ki, vi, 0.5, np.tril(np.ones((6, 6), bool)))
        return [q, k, v], T.reshape(T.transpose(out, (0, 2, 1, 3)), (4, 6, 8))

    @staticmethod
    def _closure_arrays(root):
        """Ids of the arrays every node's closures hold, over the graph."""
        ids, stack, seen = set(), [root], set()
        while stack:
            node = stack.pop()
            if type(node) is not T.Node or id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.parents)
            for fn in (node.backward, node.rebuild):
                for cell in getattr(fn, "__closure__", None) or ():
                    if isinstance(cell.cell_contents, np.ndarray):
                        ids.add(id(cell.cell_contents))
        return ids

    @pytest.mark.parametrize("case", ["rmsnorm", "swiglu", "attention"])
    def test_a_rebuilt_input_gives_the_kept_inputs_bytes(self, case):
        """A weight gradient that reads a rebuilt input, and every operand
        gradient, keep the bytes they have when the tape keeps the input;
        after the sweep no node holds the rebuilt value or anything else it
        formed (swiglu's sigmoid included)."""
        def sweep(rebuild):
            rng = np.random.default_rng(7)
            leaves, y = self._rebuildable(case, rng)
            assert y._node.rebuild is not None
            if not rebuild:
                y._node.rebuild = None  # before linear decides what to keep
            w = T.Tensor(rng.normal(size=(5, 8)).astype(np.float32), requires_grad=True)
            out = T.linear(y, w)
            held = self._closure_arrays(out._node)
            assert (id(y.data) in held) != rebuild
            out.backward(rng.normal(size=out.shape).astype(np.float32))
            assert y._node.held is None
            assert self._closure_arrays(out._node) == held
            return [t.grad.tobytes() for t in leaves + [w]]

        assert sweep(True) == sweep(False)

    def test_scalar_backward_seed(self):
        x = T.Tensor(rand64(3), requires_grad=True)
        with pytest.raises(ValueError):
            T.mul(x, x).backward()  # non-scalar without a seed
