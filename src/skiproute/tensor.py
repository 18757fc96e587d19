"""Dense tensors with reverse-mode autodiff, and the forward kernels under it.

Small tape-based engine over numpy arrays: enough to train router probes
and low-rank adapters through a frozen transformer. Ops build a graph only
when some input requires grad (and grad mode is on).

Every op's forward numerics live in a small pure ndarray kernel (the
``*_fwd`` functions); the op calls it and adds only the backward. ``plain``
offers the kernels under the ops' names, so code written against an ops
namespace (this module or ``plain``) computes the same numbers on the tape
or on bare arrays, where inference pays no tape overhead at all.

Conventions:
  - float32 by default; build tensors as float64 for gradient checks.
  - gradient accumulation is additive; call ``zero_grad`` between passes.
  - gradients accumulate out of place: a node's first gradient is kept by
    reference when it already has ``data``'s dtype and layout (else it is
    copied into a C-order buffer), so a ``.grad`` may share memory with
    another node's gradient (``add`` hands one array to both parents,
    ``reshape``/``transpose`` hand views).
    Treat every ``.grad`` as read-only.
  - only leaves keep ``.grad`` after a backward pass: an interior node
    drops its gradient as soon as it has passed it to its parents, so the
    pass holds the gradients of one frontier, not of the whole graph.
  - graph links live apart from forward values. An op's output that
    requires grad holds a ``Node``: its operands' gradient targets, its
    backward closure, its pending gradient, and its output's shape, dtype and
    strides (what ``accumulate_grad`` needs to keep a gradient by
    reference), never the output array. The closure
    keeps only the arrays its backward reads, chosen when the op is built
    from which operands then require grad: a ``linear`` over a frozen
    weight keeps ``W`` but not ``x``, ``rope``, ``add``, ``reshape`` and
    ``transpose`` keep no array. So a value no backward reads is freed as
    soon as the forward drops it, and flipping ``requires_grad`` after an
    op is built does not change what its backward does.
  - a node whose closure already keeps what forms its output again has a
    ``rebuild``: ``rmsnorm`` (``d / r * gain``), ``swiglu`` (which hands
    the ``sigmoid(g)`` it forms on to its own backward), ``attention``
    (``p @ v``), and a ``transpose`` or ``reshape`` of such a node (its
    parent's value, then the same view or copy), each with the forward's
    own expression, layout and bytes. Where a weight or adapter gradient
    reads such an output, ``linear`` and ``adapted_linear`` keep its node,
    not the array, and read ``Node.value()`` in backward: the value is
    formed once per sweep, at its first consumer's backward, and dropped
    once its own node's backward has run.
  - tensors that participate in a graph must not be mutated in place.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import MaskError, ShapeError, VocabularyError

DEFAULT_DTYPE = np.float32
_FLOAT32, _FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    """Whether ops record a graph for inputs that require grad."""
    return _GRAD_ENABLED


class Tensor:
    """A dense array plus an optional gradient accumulator.

    A leaf keeps its gradient in ``.grad``. An op's output that requires
    grad also holds its ``Node``, the place in the graph where its gradient
    collects during a backward pass."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        # identity first: native float32 and float64 dtypes are singletons
        if arr.dtype is not _FLOAT32 and arr.dtype is not _FLOAT64 \
                and arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[Node] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self._node is not None:
            self._node.accumulate_grad(g)
            return
        d = self.data
        self.grad = _accumulated(self.grad, g, d.shape, d.dtype, d.strides)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode sweep from this node; grads add into the leaves' ``.grad``.

        Every interior node (one with a backward) drops its ``.grad`` once
        it has passed it on, this node included; only leaves keep theirs.
        The graph itself stays until its nodes go out of scope, so a second
        sweep through it adds to the leaves again.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        else:
            # a copy: the caller's array must not become ``.grad``
            grad = np.array(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ShapeError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        root = self._node
        if root is None:  # a leaf: the seed is its whole gradient
            self.accumulate_grad(grad)
            return
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if type(p) is Node and id(p) not in seen:
                    stack.append((p, False))

        root.accumulate_grad(grad)
        for node in reversed(topo):
            if node.grad is not None:
                g, node.grad = node.grad, None
                node.backward(g)
            node.held = None  # every consumer of a rebuilt value has run

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Node:
    """An op's output as the graph sees it: the operands' gradient targets
    (``parents``, one per operand: its ``Node``, a leaf ``Tensor``, or None
    for an operand that takes no gradient), the ``backward`` closure, the
    gradient pending during a sweep, and the output's shape, dtype and
    strides, but not the output array itself. ``rebuild``, where the op
    has one, forms the output again from what the closure keeps; ``held``
    is that value while a sweep needs it."""

    __slots__ = ("grad", "parents", "backward", "shape", "dtype", "strides", "rebuild", "held")

    def __init__(self, data: np.ndarray, parents: tuple, backward: Callable[[np.ndarray], None],
                 rebuild: Optional[Callable[[], np.ndarray]] = None):
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.backward = backward
        self.shape, self.dtype, self.strides = data.shape, data.dtype, data.strides
        self.rebuild = rebuild
        self.held: Optional[np.ndarray] = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        self.grad = _accumulated(self.grad, g, self.shape, self.dtype, self.strides)

    def value(self) -> np.ndarray:
        """The output, formed by ``rebuild`` on the first call of a sweep
        and held until the sweep has run this node's backward."""
        if self.held is None:
            self.held = self.rebuild()
        return self.held


def _accumulated(held: Optional[np.ndarray], g: np.ndarray, shape: tuple, dtype,
                 strides: tuple) -> np.ndarray:
    """The gradient ``held + g`` of an array of this shape, dtype and
    strides, formed out of place. A first gradient is kept by reference
    when it already has the array's dtype and layout; otherwise it is
    copied into a new C-order buffer."""
    if held is not None:
        # never in place: the held array may be another node's gradient
        return np.add(held, g, out=np.empty(shape, dtype))
    if g.dtype == dtype and g.shape == shape and g.strides == strides and g.flags.writeable:
        return g
    out = np.empty(shape, dtype)
    out[...] = g
    return out


def _target(t: Tensor):
    """Where ``t``'s gradient goes when an op built now reads ``t``: its
    node, or ``t`` itself for a leaf; None when it needs none or grad mode
    is off. Ops decide from this what their backward keeps."""
    if not (_GRAD_ENABLED and t.requires_grad):
        return None
    return t if t._node is None else t._node


def _make(data: np.ndarray, targets: tuple, backward: Callable,
          rebuild: Optional[Callable[[], np.ndarray]] = None) -> Tensor:
    """The op's output; with a graph node when some target takes a
    gradient. ``targets`` are the operands' ``_target``s."""
    out = Tensor(data)
    if targets.count(None) < len(targets):
        out.requires_grad = True
        out._node = Node(out.data, targets, backward, rebuild)
    return out


def _kept(x: Tensor, xt) -> np.ndarray | Node:
    """What a backward keeps to read ``x``'s value: its node ``xt`` when the
    node can rebuild the value, else the array. ``_read`` gives the value."""
    return xt if type(xt) is Node and xt.rebuild is not None else x.data


def _read(kept) -> np.ndarray:
    return kept.value() if type(kept) is Node else kept


def _rebuilt_view(xt, view: Callable[[np.ndarray], np.ndarray]):
    """The rebuild of ``view`` of the operand whose target is ``xt``, or
    None when ``xt`` is not a node that can rebuild."""
    if type(xt) is not Node or xt.rebuild is None:
        return None
    return lambda: view(xt.value())


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- kernels
# Pure forward numerics over ndarrays. They keep the input's dtype: scalars
# enter as Python floats or as arrays of that dtype.


def scale_fwd(d: np.ndarray, s: float) -> np.ndarray:
    return d * np.asarray(s, dtype=d.dtype)


# numpy runs a stacked float32 ``(b, n, k) @ W.T`` as one BLAS call per
# batch row. OpenBLAS (0.3.31 as bundled with numpy 2.4.6, AVX-512) sends a
# call whose rows × out_features is at most this to its small-matrix kernel
# and every larger call to its general kernel, whose output bytes do not
# depend on the row count. Past this line one call over all b·n rows
# therefore returns the stacked product's bytes: a scan of 1840 shapes
# (b in 2, 5, 16, 33; n in 1..40, 48, 64, 100, 136, 200, 255; the model's
# projections, the rank-8 factors and the head), with one and with two
# BLAS threads, found no exception; ``tests/gemmscan.py`` reruns it.
# Float64 differs between the two forms at every row count, so it stays
# stacked.
STACKED_SMALL_KERNEL_MAX = 1200


def linear_fwd(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ W.T for a (out_features, in_features) weight.

    A float32 ``(b, n, k)`` input with b > 1 and n · out_features above
    ``STACKED_SMALL_KERNEL_MAX`` runs as one GEMM over its ``(b·n, k)``
    rows, bytes and C-contiguous layout equal to the stacked product's.
    One BLAS thread, batch (16, 18), numpy 2.4.6 on an AVX-512 host: the
    FFN's gate/up product takes 113 µs against 306 µs stacked, the head 81
    against 219 µs, an adapter's ``B`` factor 21 against 30 µs. Everything
    else (batch 1, rank 2, float64, fewer rows) keeps ``x @ W.T``.
    """
    # len(x) rather than x.shape[0]: a batch-1 call pays two cheap checks
    if x.ndim == 3 and len(x) > 1 and x.shape[1] * w.shape[0] > STACKED_SMALL_KERNEL_MAX \
            and x.dtype == w.dtype == np.float32:
        b, n, k = x.shape
        return (x.reshape(b * n, k) @ w.T).reshape(b, n, w.shape[0])
    return x @ w.T


# A product over weights stacked by rows, such as the model's q/k/v or
# gate/up buffer, multiplies out_features, so it can carry a call across
# the line above while the separate products stay below it. A scan
# (b in 1, 2, 16; n in 1..40, 64, 100, 136, 200, 240) found the two forms
# unequal only there: q/k/v at 7 <= n <= 18, gate/up at n in {3, 4}. On the small kernel, each column block of the stacked
# product holds the separate product's bytes; past the line the bytes hold
# too, but at prefill lengths the stacked product ran slower (time to the
# first token +18%). ``tests/gemmscan.py`` checks the rule.
def fuses_on_small_kernel(x: np.ndarray, w: np.ndarray) -> bool:
    """Whether ``linear_fwd(x, w)`` over a ``w`` stacked from row blocks
    stays on the small kernel, where each of its column blocks equals the
    block's own ``linear_fwd`` byte for byte: float32, and rows ×
    out_features at most ``STACKED_SMALL_KERNEL_MAX``."""
    return x.dtype == w.dtype == np.float32 \
        and x.shape[-2] * w.shape[0] <= STACKED_SMALL_KERNEL_MAX


def _dropout_mask(keep: np.ndarray, inv_keep, dtype) -> np.ndarray:
    """The float dropout mask of a boolean keep-draw: ``inv_keep`` (1/keep
    rounded in ``dtype``) where an entry is kept, 0 where it is dropped."""
    return np.multiply(keep, inv_keep, dtype=dtype)


def adapted_linear_fwd(x: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray,
                       scaling: float, keep=None, inv_keep=None) -> tuple[np.ndarray, np.ndarray]:
    """``x @ W.T + scaling * (((x * mask) @ A.T) @ B.T)``, and the low-rank
    path's rank-wide product (for backward); see ``adapted_linear``. The
    mask and ``x * mask`` are temporaries; the scaling and the sum are
    formed in place."""
    xa = x if keep is None else x * _dropout_mask(keep, inv_keep, x.dtype)
    la = linear_fwd(xa, a)
    low = linear_fwd(la, b)
    low *= np.asarray(scaling, dtype=low.dtype)
    out = linear_fwd(x, w)
    out += low
    return out, la


def sigmoid_fwd(d: np.ndarray) -> np.ndarray:
    # exp only ever sees -|d|, so it cannot overflow. The numerator is 1
    # where d >= 0 (e <= 1 there) and e elsewhere, so each element matches
    # the split-by-sign form bitwise; a NaN stays NaN. Taking the maximum
    # avoids np.where's slow select over a data-dependent mask.
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = 1.0 + e
    out = (d >= 0).astype(d.dtype)
    np.maximum(e, out, out=out)
    out /= p
    return out


def softmax_rows_fwd(d: np.ndarray, mask=None) -> np.ndarray:
    """Row-stabilized softmax over the last axis; see ``softmax_rows``."""
    if mask is not None:
        m = np.asarray(mask.data if isinstance(mask, Tensor) else mask)
        keep = m != 0
        np.broadcast_to(keep, d.shape)  # the mask must fit the scores
        # broadcasting only repeats rows, so checking the mask's own rows
        # checks every row of the scores
        if not keep.any(axis=-1).all():
            raise MaskError("softmax row with every entry masked")
        d = np.where(keep, d, np.array(-1e9, dtype=d.dtype))
    e = d - d.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float,
                  mask=None) -> tuple[np.ndarray, np.ndarray]:
    """``softmax_rows(scale(q @ kᵀ), mask) @ v`` and the attention weights
    (for backward); see ``attention``. After the product every step works
    in place on the scores buffer; ``q``, ``k`` and ``v`` (perhaps views of
    a KV cache) are only read."""
    s = q @ k.swapaxes(-1, -2)
    s *= np.asarray(scale, dtype=s.dtype)
    if mask is not None:
        np.copyto(s, np.array(-1e9, dtype=s.dtype), where=np.logical_not(mask))
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s @ v, s


def swiglu_fwd(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``g * sigmoid(g) * u``, the gated FFN's activation, formed in the
    output's own buffer."""
    out = g * sigmoid_fwd(g)
    out *= u
    return out


def embedding_fwd(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise VocabularyError(
            f"token id out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    return table[ids]


# added to the mean square under the root of every RMS normalization
RMSNORM_EPS = 1e-5


def rmsnorm_fwd(d: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d / rms(d)) * gain over the last axis, and the rms (for backward)."""
    # the sum over the axis count is bitwise ``mean``, without its overhead
    ms = np.add.reduce(d * d, axis=-1, keepdims=True) / d.shape[-1]
    r = np.sqrt(ms + np.asarray(RMSNORM_EPS, dtype=d.dtype))
    return d / r * gain, r


def _swap_pairs(d: np.ndarray) -> np.ndarray:
    """A new buffer in ``d``'s layout with the two entries of each pair of
    the last axis exchanged."""
    s = np.empty_like(d)
    s[..., 0::2] = d[..., 1::2]
    s[..., 1::2] = d[..., 0::2]
    return s


def rope_fwd(d: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """``d * cos + swap_pairs(d) * sin`` over interleaved tables (see ``rope``)."""
    if d.shape[-1] % 2 != 0:
        raise ShapeError(f"rope needs an even last axis, got {d.shape}")
    out = np.multiply(d, cos, out=np.empty_like(d))
    s = _swap_pairs(d)
    s *= sin
    out += s
    return out


# -------------------------------------------------------------------- ops


def lift(x) -> Tensor:
    """``x`` as an operand of the tape ops: an ndarray becomes a constant."""
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    at, bt = _target(a), _target(b)
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        if at is not None:
            at.accumulate_grad(_unbroadcast(g, a_shape))
        if bt is not None:
            bt.accumulate_grad(_unbroadcast(g, b_shape))

    return _make(data, (at, bt), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    at, bt = _target(a), _target(b)
    a_shape, b_shape = a.shape, b.shape
    ad = a.data if bt is not None else None
    bd = b.data if at is not None else None

    def backward(g):
        if at is not None:
            at.accumulate_grad(_unbroadcast(g * bd, a_shape))
        if bt is not None:
            bt.accumulate_grad(_unbroadcast(g * ad, b_shape))

    return _make(data, (at, bt), backward)


def divide(x: Tensor, d: np.ndarray) -> Tensor:
    """``x / d`` for a constant array ``d`` that broadcasts to ``x``."""
    d = np.asarray(d, dtype=x.dtype)
    data = x.data / d
    xt, x_shape = _target(x), x.shape

    def backward(g):
        xt.accumulate_grad(_unbroadcast(g / d, x_shape))

    return _make(data, (xt,), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    data = scale_fwd(x.data, s)
    xt, dtype = _target(x), x.dtype

    def backward(g):
        xt.accumulate_grad(g * np.asarray(s, dtype=dtype))

    return _make(data, (xt,), backward)


def _linear_weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of the weight of ``linear(x, W)`` for output gradient
    ``g``: ``gᵀ x`` summed over every leading row, ``(m, k)`` for ``g`` of
    width m and ``x`` of width k.

    In float32 it is one product over all ``b·n`` rows, C-contiguous in the
    weight's own layout, so ``accumulate_grad`` keeps it by reference. It
    has the bytes of ``np.tensordot(x, g, ...).T``, the form it replaces: a
    scan (b in 1, 2, 5, 16, 33; n in 1..40, 48, 64, 100, 136, 200, 255; the
    model's projections, the rank-8 factors, the head and two shapes off
    the model), with one and with two BLAS threads, found no exception, and
    ``tests/gemmscan.py`` reruns it. One BLAS thread, batch (16, 18),
    numpy 2.4.6 on an AVX-512 host, layout copy included: a rank-8
    factor's gradient takes 5–10 µs against 11–22, a 64×64 weight's 24
    against 33. Float64 keeps ``tensordot``, whose bytes the direct form
    misses at many row counts (143 of 230 batch shapes for the head)."""
    if x.dtype == g.dtype == np.float32:
        return g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1])
    gw = np.tensordot(x, g, axes=([0, 1], [0, 1])) if x.ndim == 3 else x.T @ g
    return gw.T


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ W.T`` for a rank-2 or rank-3 ``x`` and an (out_features,
    in_features) weight: one node where ``matmul`` of ``transpose`` takes two,
    computing the same products. The forward is ``linear_fwd``: a float32
    batch past ``STACKED_SMALL_KERNEL_MAX`` runs as one GEMM over all its
    rows, with the stacked product's bytes. ``W``'s gradient is
    ``_linear_weight_grad``, one product over all rows in float32; ``x``'s,
    ``g @ W``, stays stacked, since one GEMM there changes bytes at n = 1
    and for the rank-8 factors. When ``W`` takes a gradient the node keeps
    ``x`` for it, or ``x``'s node where that node can rebuild ``x``
    (``_kept``), and then forms ``x`` again in backward."""
    if x.ndim not in (2, 3) or w.ndim != 2:
        raise ShapeError(f"linear supports rank 2 or 3 by rank 2; got {x.shape} @ {w.shape}.T")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} @ {w.shape}.T")
    data = linear_fwd(x.data, w.data)
    xt, wt = _target(x), _target(w)
    xk = _kept(x, xt) if wt is not None else None
    wd = w.data if xt is not None else None

    def backward(g):
        if xt is not None:
            xt.accumulate_grad(g @ wd)
        if wt is not None:
            wt.accumulate_grad(_linear_weight_grad(_read(xk), g))

    return _make(data, (xt, wt), backward)


def _check_adapted(x, w, a, b) -> None:
    """Raise ``ShapeError`` unless ``adapted_linear``'s operands (Tensors
    or arrays) fit one another."""
    if x.ndim not in (2, 3) or w.ndim != 2 or a.ndim != 2 or x.shape[-1] != w.shape[1] \
            or a.shape[1] != w.shape[1] or b.shape != (w.shape[0], a.shape[0]):
        raise ShapeError(f"adapted_linear operands disagree: x {x.shape}, W {w.shape}, "
                         f"A {a.shape}, B {b.shape}")


def _plain_adapted_linear(x: np.ndarray, w: Tensor, a: Tensor, b: Tensor, scaling: float,
                          keep=None, inv_keep=None) -> np.ndarray:
    """``plain.adapted_linear``: the tape op's operand check, then its kernel."""
    _check_adapted(x, w, a, b)
    return adapted_linear_fwd(x, w.data, a.data, b.data, scaling, keep, inv_keep)[0]


def adapted_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, scaling: float,
                   keep=None, inv_keep=None) -> Tensor:
    """A projection with a low-rank adapter, ``x @ W.T + scaling * (((x *
    mask) @ A.T) @ B.T)``, as one node where the composed ``linear``,
    ``mul``, ``scale`` and ``add`` ops take up to six; forward and gradients
    match them bitwise. Dropout enters as ``keep``, a boolean array of
    ``x``'s shape (or None for no dropout), and ``inv_keep``, the kept
    entries' scale 1/keep rounded in ``x``'s dtype: the mask is
    ``_dropout_mask(keep, inv_keep, x.dtype)``, a constant. Beyond its
    parents the node keeps only the rank-wide product and the keep-draw
    packed one bit per entry; backward rebuilds the mask and ``x * mask``
    from them, and keeps none of the output-wide intermediates. ``x``,
    which the gradients of ``W`` and ``A`` read, is kept as in ``linear``:
    its node where that node can rebuild it, else the array."""
    _check_adapted(x, w, a, b)
    scaling = float(scaling)
    bits = None
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != x.shape:
            raise ShapeError(f"adapted_linear keep-draw {keep.shape} does not match x {x.shape}")
        if inv_keep is None:
            raise TypeError("adapted_linear needs inv_keep with a keep-draw")
        inv_keep = x.dtype.type(inv_keep)
        bits = np.packbits(keep)
    out, la = adapted_linear_fwd(x.data, w.data, a.data, b.data, scaling, keep, inv_keep)
    xt, wt, at, bt = _target(x), _target(w), _target(a), _target(b)
    x_shape, x_size, dtype = x.shape, x.size, x.dtype
    xk = _kept(x, xt) if wt is not None or at is not None else None
    wd = w.data if xt is not None else None
    ad = a.data if xt is not None else None
    bd = b.data if xt is not None or at is not None else None
    if bt is None:
        la = None

    # the composed graph's backward, in the order its reverse sweep runs it:
    # the base product first, then the scaled low-rank chain from B back to x
    def backward(g):
        xd = None if xk is None else _read(xk)
        if xt is not None:
            xt.accumulate_grad(g @ wd)
        if wt is not None:
            wt.accumulate_grad(_linear_weight_grad(xd, g))
        if xt is None and at is None and bt is None:
            return
        gl = g * np.asarray(scaling, dtype=g.dtype)
        if bt is not None:
            bt.accumulate_grad(_linear_weight_grad(la, gl))
        if xt is not None or at is not None:
            gla = gl @ bd
            mask = None
            if bits is not None:
                kept = np.unpackbits(bits, count=x_size).view(bool).reshape(x_shape)
                mask = _dropout_mask(kept, inv_keep, dtype)
            if at is not None:
                # ``x * mask`` inline, so it is freed before the x-gradient
                at.accumulate_grad(_linear_weight_grad(
                    xd if mask is None else xd * mask, gla))
            if xt is not None:
                gx = gla @ ad
                if mask is not None:
                    gx *= mask
                xt.accumulate_grad(gx)

    return _make(out, (xt, wt, at, bt), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for rank (2,2), (3,2), (3,3) and (4,4) operand pairs.

    A rank-2 right operand broadcasts over the single batch dimension of a
    rank-3 left operand; equal ranks above 2 need equal batch dimensions.
    Anything wider is out of contract.
    """
    ra, rb = a.ndim, b.ndim
    if (ra, rb) not in ((2, 2), (3, 2), (3, 3), (4, 4)):
        raise ShapeError(
            f"matmul supports rank (2,2), (3,2), (3,3), (4,4); got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if ra == rb > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    at, bt = _target(a), _target(b)
    ad = a.data if bt is not None else None
    bd = b.data if at is not None else None

    def backward(g):
        if at is not None:
            at.accumulate_grad(g @ np.swapaxes(bd, -1, -2))
        if bt is not None:
            if (ra, rb) == (3, 2):
                bt.accumulate_grad(np.tensordot(ad, g, axes=([0, 1], [0, 1])))
            else:
                bt.accumulate_grad(np.swapaxes(ad, -1, -2) @ g)

    return _make(data, (at, bt), backward)


def sigmoid(x: Tensor) -> Tensor:
    out = sigmoid_fwd(x.data)
    xt = _target(x)

    def backward(g):
        xt.accumulate_grad(g * out * (1.0 - out))

    return _make(out, (xt,), backward)


def softmax_rows(x: Tensor, mask=None) -> Tensor:
    """Row-stabilized softmax over the last axis.

    ``mask`` (array-like, nonzero = keep) is broadcast against ``x``; masked
    entries are pushed to -inf-like before normalization and come out as
    exact zeros. A fully masked row raises ``MaskError``.
    """
    out = softmax_rows_fwd(x.data, mask)
    xt = _target(x)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        xt.accumulate_grad(out * (g - inner))

    return _make(out, (xt,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, mask=None) -> Tensor:
    """``softmax_rows(scale(q @ kᵀ), mask) @ v`` as one node, for
    (b, heads, n, hd) queries and (b, heads, t, hd) keys and values; forward
    and gradients match the composed ops bitwise.

    ``mask`` (nonzero = keep) broadcasts against the (b, heads, n, t) scores
    and must leave every row a key. Unlike ``softmax_rows`` this op does not
    check that: a forward pass checks its mask once for all its layers.
    Where the node keeps ``v`` (``q`` or ``k`` takes a gradient) it can
    rebuild its output, ``p @ v``.
    """
    if not q.ndim == k.ndim == v.ndim == 4 or k.shape[:3] != v.shape[:3] \
            or q.shape[:2] + q.shape[3:] != k.shape[:2] + k.shape[3:]:
        raise ShapeError(f"attention operands disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    scale = float(scale)
    out, p = attention_fwd(q.data, k.data, v.data, scale, mask)
    qt, kt, vt = _target(q), _target(k), _target(v)
    qd = q.data if kt is not None else None
    kd = k.data if qt is not None else None
    vd = v.data if qt is not None or kt is not None else None

    # each gradient is the composed ops' expression, rounded in the same
    # order on the same layouts, computed in place on buffers made here
    def backward(g):
        if vt is not None:
            vt.accumulate_grad(p.swapaxes(-1, -2) @ g)
        if qt is not None or kt is not None:
            gs = g @ vd.swapaxes(-1, -2)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= np.asarray(scale, dtype=gs.dtype)
            if qt is not None:
                qt.accumulate_grad(gs @ kd)
            if kt is not None:
                kt.accumulate_grad((qd.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))

    # attention_fwd's own product over the weights the node keeps
    rebuild = None if vd is None else (lambda: p @ vd)
    return _make(out, (qt, kt, vt), backward, rebuild)


def swiglu(g: Tensor, u: Tensor) -> Tensor:
    """The gated FFN's activation ``g * sigmoid(g) * u`` as one node; forward
    and gradients match the composed ops bitwise. The node keeps ``g`` and
    ``u``, not ``sigmoid(g)``: backward forms it again with ``sigmoid_fwd``,
    the same bytes. Where it keeps ``u`` (``g`` takes a gradient) it can
    rebuild its output as ``swiglu_fwd`` forms it, and hands the
    ``sigmoid(g)`` formed there on to its own backward, which then forms
    none."""
    if g.shape != u.shape:
        raise ShapeError(f"swiglu operands disagree: {g.shape} vs {u.shape}")
    out = swiglu_fwd(g.data, u.data)
    gt, ut = _target(g), _target(u)
    gd = g.data
    ud = u.data if gt is not None else None
    handed = None  # sigmoid(g) from this sweep's rebuild

    def rebuild():
        nonlocal handed
        handed = sigmoid_fwd(gd)
        y = gd * handed  # swiglu_fwd's expression, with its sigmoid kept
        y *= ud
        return y

    def backward(G):
        nonlocal handed
        sig, handed = handed, None
        if sig is None:
            sig = sigmoid_fwd(gd)
        if ut is not None:
            gu = gd * sig
            gu *= G
            ut.accumulate_grad(gu)
        if gt is not None:
            gg = G * ud
            gsig = gg * gd
            gsig *= sig
            gg *= sig
            gsig *= np.subtract(1.0, sig, out=sig)
            # the product's and the sigmoid's terms, added as the graph adds them
            gt.accumulate_grad(gg)
            gt.accumulate_grad(gsig)

    return _make(out, (gt, ut), backward, None if ud is None else rebuild)


def sum_axis(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    data = x.data.sum(axis=axis)
    xt, x_shape = _target(x), x.shape

    def backward(g):
        xt.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), x_shape))

    return _make(data, (xt,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inv = tuple(axes.index(i) for i in range(len(axes)))
    xt = _target(x)

    def backward(g):
        xt.accumulate_grad(g.transpose(inv))

    return _make(data, (xt,), backward, _rebuilt_view(xt, lambda d: d.transpose(axes)))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)
    xt, x_shape = _target(x), x.shape

    def backward(g):
        xt.accumulate_grad(g.reshape(x_shape))

    return _make(data, (xt,), backward, _rebuilt_view(xt, lambda d: d.reshape(shape)))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    data = embedding_fwd(table.data, ids)
    tt, t_shape, dtype = _target(table), table.shape, table.dtype

    def backward(g):
        acc = np.zeros(t_shape, dtype)
        np.add.at(acc, ids.reshape(-1), g.reshape(-1, t_shape[1]))
        tt.accumulate_grad(acc)

    return _make(data, (tt,), backward)


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by ``gain``.
    The node keeps ``x``, the rms and ``gain``, and rebuilds its output
    from them as ``rmsnorm_fwd`` forms it."""
    d = x.data
    n = d.shape[-1]
    gd = gain.data
    data, r = rmsnorm_fwd(d, gd)
    xt, gt, g_dtype = _target(x), _target(gain), gain.dtype

    def backward(g):
        if xt is not None:
            gy = g * gd
            inner = (gy * d).sum(axis=-1, keepdims=True)
            xt.accumulate_grad(gy / r - d * inner / (n * r**3))
        if gt is not None:
            gg = (g * (d / r)).reshape(-1, n).sum(axis=0)
            gt.accumulate_grad(gg.astype(g_dtype))

    return _make(data, (xt, gt), backward, lambda: d / r * gd)


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate interleaved pairs of the last axis by per-position angles.

    ``cos``/``sin`` have shape (n, last) and broadcast over leading axes:
    ``cos`` repeats each pair's cosine, ``sin`` holds (-sin, +sin) per pair.
    A pair (x1, x2) becomes (x1*c + x2*(-s), x2*c + x1*s), the same two
    rounded products per entry as ``x1*c - x2*s`` and ``x1*s + x2*c``,
    summed in another order or with a negated operand, so every bit
    matches the half-width form. Backward applies the inverse rotation,
    ``g * cos - swap_pairs(g) * sin``.
    """
    out = rope_fwd(x.data, cos, sin)
    xt = _target(x)

    def backward(g):
        gx = np.multiply(g, cos, out=np.empty_like(g))
        s = _swap_pairs(g)
        s *= sin
        gx -= s
        xt.accumulate_grad(gx)

    return _make(out, (xt,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_mask=None) -> Tensor:
    """Mean negative log-likelihood over unmasked positions.

    ``logits`` is (..., V), ``targets`` matches the leading shape, and
    ``ignore_mask`` (same leading shape, nonzero = excluded) drops prompt
    and pad positions from the mean. Log-sum-exp stabilized.
    """
    targets = np.asarray(targets)
    v = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} != logits leading shape {logits.shape[:-1]}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise VocabularyError(f"target id out of range [0, {v}): max={targets.max()}")

    flat = logits.data.reshape(-1, v)
    tflat = targets.reshape(-1)
    if ignore_mask is not None:
        m = np.asarray(ignore_mask.data if isinstance(ignore_mask, Tensor) else ignore_mask)
        keep = (m == 0).reshape(-1)
    else:
        keep = np.ones(tflat.shape[0], dtype=bool)
    n_kept = int(keep.sum())
    if n_kept == 0:
        raise MaskError("cross entropy with every position masked")

    mx = flat.max(axis=-1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(flat - mx).sum(axis=-1))
    nll = lse - flat[np.arange(tflat.shape[0]), tflat]
    data = np.asarray((nll * keep).sum() / n_kept, dtype=logits.dtype)
    lt, l_shape, dtype = _target(logits), logits.shape, logits.dtype

    # the gradient is formed in one (b·n, V) buffer, in place
    def backward(g):
        probs = flat - lse[:, None]
        np.exp(probs, out=probs)
        probs[np.arange(tflat.shape[0]), tflat] -= 1.0
        probs *= (keep / n_kept)[:, None]
        probs *= g
        lt.accumulate_grad(probs.reshape(l_shape).astype(dtype, copy=False))

    return _make(data, (lt,), backward)


def parameters_norm_sq(params: Iterable[Tensor]) -> Tensor:
    """Sum of squared entries across tensors (l2 regularizer term)."""
    total = None
    for p in params:
        flat = reshape(p, (p.size,))
        term = sum_axis(mul(flat, flat), 0)
        total = term if total is None else add(total, term)
    if total is None:
        raise ShapeError("norm of an empty parameter list")
    return total


# The kernels under the names and signatures of the tape ops, over bare
# ndarrays; parameters stay Tensors and are read through ``.data``. Code
# that takes an ops namespace runs on this one under ``no_grad``.
plain = SimpleNamespace(
    lift=lambda x: x.data if isinstance(x, Tensor) else x,
    add=np.add,
    linear=lambda x, w: linear_fwd(x, w.data),
    adapted_linear=_plain_adapted_linear,
    attention=lambda q, k, v, scale, mask=None: attention_fwd(q, k, v, scale, mask)[0],
    swiglu=swiglu_fwd,
    transpose=lambda x, axes: x.transpose(axes),
    reshape=lambda x, shape: x.reshape(shape),
    embedding=lambda table, ids: embedding_fwd(table.data, np.asarray(ids)),
    rmsnorm=lambda x, gain: rmsnorm_fwd(x, gain.data)[0],
    rope=rope_fwd,
)
