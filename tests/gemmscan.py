"""The float32 shape grids on which the projection kernels must keep their
bytes: ``tensor.linear_fwd`` must return the stacked ``x @ W.T``'s bytes
and layout, whichever form it runs; wherever
``tensor.fuses_on_small_kernel`` allows one product over weights stacked
by rows, each column block of it must hold that block's own
``linear_fwd`` bytes; and the weight gradients of ``linear``,
``adapted_linear`` and a router (a ``linear`` over its weight read as
one row), one product over all rows, must hold the bytes of the
``np.tensordot`` form in the weight's own C layout.

Run as a script (``PYTHONPATH=src:tests python -m gemmscan``) it prints the
shapes that break either rule, one per line, and exits 1 if there are any;
the tests run it once more under two BLAS threads this way.
"""

import sys

import numpy as np

from skiproute import tensor as T

BATCHES = (2, 5, 16, 33)
ROWS = tuple(range(1, 41)) + (48, 64, 100, 136, 200, 255)
# (out_features, in_features): the model's q/k/v/o, gate/up and down
# projections, the head, the rank-8 factors, and two shapes off the model
WEIGHTS = ((64, 64), (256, 64), (64, 256), (260, 64), (8, 64), (64, 8),
           (256, 8), (8, 256), (48, 48), (96, 32))
GRAD_BATCHES = (1, 2, 5, 16, 33)
# a router's hidden width: the model's, and two off it
ROUTER_WIDTHS = (64, 48, 256)
FUSED_BATCHES = (1, 2, 16)
# (row blocks, in_features): the model's (192, 64) q/k/v and (512, 64)
# gate/up buffers, and an uneven stack off the model
STACKS = (((64, 64, 64), 64), ((256, 256), 64), ((24, 40, 16), 32))


def same_array(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, shape, strides and bytes."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.strides == want.strides and got.tobytes() == want.tobytes())


def mismatches(seed: int = 0) -> list:
    """The (b, n, out_features, in_features) shapes of the grid where
    ``linear_fwd`` differs from the stacked product, for a C-contiguous
    input and for a transposed view of one."""
    rng = np.random.default_rng(seed)
    bad = []
    for b in BATCHES:
        for n in ROWS:
            for m, k in WEIGHTS:
                w = rng.normal(size=(m, k)).astype(np.float32)
                x = rng.normal(size=(b, n, k)).astype(np.float32)
                view = rng.normal(size=(n, b, k)).astype(np.float32).transpose(1, 0, 2)
                if not all(same_array(T.linear_fwd(v, w), v @ w.T) for v in (x, view)):
                    bad.append((b, n, m, k))
    return bad


def fused_mismatches(seed: int = 0) -> list:
    """The (b, n, rows, in_features) shapes, for every n that
    ``fuses_on_small_kernel`` allows, where the stacked product is not
    C-contiguous or a column block of it differs from the block's own
    ``linear_fwd`` in bytes or, copied out, in layout."""
    rng = np.random.default_rng(seed)
    bad = []
    for blocks, k in STACKS:
        rows = sum(blocks)
        for b in FUSED_BATCHES:
            for n in range(1, T.STACKED_SMALL_KERNEL_MAX // rows + 1):
                parts = [rng.normal(size=(m, k)).astype(np.float32) for m in blocks]
                w = np.concatenate(parts)
                x = rng.normal(size=(b, n, k)).astype(np.float32)
                fused = T.linear_fwd(x, w)
                ok = T.fuses_on_small_kernel(x, w) and fused.flags.c_contiguous \
                    and fused.shape == (b, n, rows)
                lo = 0
                for part in parts:
                    block = fused[..., lo:lo + len(part)]
                    ok = ok and same_array(block.copy(),
                                           T.linear_fwd(x, part))
                    lo += len(part)
                if not ok:
                    bad.append((b, n, rows, k))
    return bad


def tensordot_weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A weight's gradient in the ``np.tensordot`` form, copied into the
    C layout ``accumulate_grad`` stored it in."""
    gw = np.tensordot(x, g, axes=([0, 1], [0, 1])) if x.ndim == 3 else x.T @ g
    return np.ascontiguousarray(gw.T)


def weight_grad_mismatches(seed: int = 0) -> list:
    """The shapes of the grid where a weight gradient differs from the
    ``np.tensordot`` form in bytes, dtype, shape or C layout:
    (b, n, out_features, in_features) for a projection's or an adapter
    factor's (a rank-2 input too, at b = 1), and (b, n, 1, width) for a
    router's, taken through the tape's ``linear`` as the router reads."""
    rng = np.random.default_rng(seed)
    bad = []
    for b in GRAD_BATCHES:
        for n in ROWS:
            for m, k in WEIGHTS:
                x = rng.normal(size=(b, n, k)).astype(np.float32)
                g = rng.normal(size=(b, n, m)).astype(np.float32)
                pairs = [(x, g)] + ([(x[0], g[0])] if b == 1 else [])
                if not all(same_array(T._linear_weight_grad(xi, gi), tensordot_weight_grad(xi, gi))
                           for xi, gi in pairs):
                    bad.append((b, n, m, k))
            for d in ROUTER_WIDTHS:
                hidden = rng.normal(size=(b, n, d)).astype(np.float32)
                g = rng.normal(size=(b, n, 1)).astype(np.float32)
                w = T.Tensor(rng.normal(size=d).astype(np.float32), requires_grad=True)
                T.linear(T.Tensor(hidden), T.reshape(w, (1, d))).backward(g)
                want = np.tensordot(hidden, g, axes=([0, 1], [0, 1])).reshape(d)
                if not same_array(w.grad, want):
                    bad.append((b, n, 1, d))
    return bad


if __name__ == "__main__":
    found = mismatches() + fused_mismatches() + weight_grad_mismatches()
    for shape in found:
        print(*shape)
    sys.exit(1 if found else 0)
