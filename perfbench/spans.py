"""Span tracing for the benchmark, installed from outside the library.

The tracer replaces public functions of ``skiproute`` modules with thin
wrappers for the duration of a traced block and puts the originals back
afterwards, so the library itself carries no tracing code and an untraced
run pays nothing.

Every wrapped call opens a span (name, start, end, parent, request id).
Spans of the coarse layers are kept in memory as columns and written as
JSON at exit. Tensor ops are far more numerous (hundreds per decode step),
so their spans are folded into per-(phase, name) aggregates as they close
instead of being stored one by one. Self time is a span's duration minus
the time its traced children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

TENSOR_OPS = ("matmul", "transpose", "reshape", "softmax_rows", "sigmoid",
              "rmsnorm", "rope", "embedding", "cross_entropy")

# Every span that closes inside a decode step is booked as decode work
# (decode_step itself calls forward_full). Outside one, the nearest
# enclosing span with one of these names books a layer_branch as train or
# prefill work.
_CATEGORY = {"router.soft_forward": "train", "router.prefill": "prefill",
             "model.forward_full": "prefill"}


class _Frame:
    __slots__ = ("name", "start", "child", "lb", "index")

    def __init__(self, name, start, index):
        self.name = name
        self.start = start
        self.child = 0.0   # time covered by traced children
        self.lb = 0.0      # time covered by layer_branch descendants
        self.index = index


class Tracer:
    """Collects spans and aggregates while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.phase = "main"
        self.tag = ""          # configuration of the current request
        self.request = -1
        self.t0 = time.perf_counter()
        self.stack: list[_Frame] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {k: [] for k in ("name", "start", "end", "self",
                                     "parent", "request", "phase", "tag")}
        # (phase, name, category, tag) -> [calls, inclusive s, self s]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])
        self.last_end: dict[str, float] = {}
        # (phase, skip fraction, min |rho - 0.5|) of every routed prefill
        self.decisions: list[tuple[str, float, float]] = []
        self._decode_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str, record: bool) -> _Frame:
        index = -1
        if record:
            index = len(self.cols["name"])
            parent = next((f.index for f in reversed(self.stack)
                           if f.index >= 0), -1)
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            c = self.cols
            c["name"].append(nid)
            c["start"].append(0.0)
            c["end"].append(0.0)
            c["self"].append(0.0)
            c["parent"].append(parent)
            c["request"].append(self.request)
            c["phase"].append(self.phase)
            c["tag"].append(self.tag)
        if name == "model.decode_step":
            self._decode_depth += 1
        frame = _Frame(name, time.perf_counter(), index)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, end: float | None = None) -> None:
        if end is None:
            end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        own = dur - frame.child
        if frame.name == "model.decode_step":
            self._decode_depth -= 1
            self._add(("model.decode_fixed", "", self.tag), dur - frame.lb, 0.0)
        category = "decode" if self._decode_depth else ""
        if frame.name == "model.layer_branch":
            category = category or next(
                (_CATEGORY[f.name] for f in reversed(self.stack)
                 if f.name in _CATEGORY), "prefill")
            for f in self.stack:
                f.lb += dur
        if self.stack:
            self.stack[-1].child += dur
        self._add((frame.name, category, self.tag), dur, own)
        self.last_end[frame.name] = end
        if frame.index >= 0:
            c = self.cols
            c["start"][frame.index] = frame.start - self.t0
            c["end"][frame.index] = end - self.t0
            c["self"][frame.index] = own

    def _add(self, key, dur, own) -> None:
        a = self.agg[(self.phase,) + key]
        a[0] += 1
        a[1] += dur
        a[2] += own

    def add_span(self, name: str, start: float, end: float) -> None:
        """Book an interval the caller measured as a span of its own."""
        if not self.on:
            return
        frame = self._enter(name, record=True)
        frame.start = start
        self._exit(frame, end)

    @contextmanager
    def span(self, name: str, tag: str = ""):
        """A benchmark-level span: one request or step, with a new request id."""
        if not self.on:
            yield
            return
        self.request += 1
        self.tag = tag
        frame = self._enter(name, record=True)
        try:
            yield
        finally:
            self._exit(frame)
            self.tag = ""

    @contextmanager
    def paused(self):
        """Run output checks without booking their work."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # ------------------------------------------------------- wrapping

    def _wrapper(self, fn, name: str, record: bool, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(out)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, sr) -> None:
        """Wrap the traced public functions of the skiproute modules ``sr``."""
        M, R, T, TR, L, D, BU = (sr.model, sr.router, sr.tensor, sr.training,
                                 sr.lora, sr.data, sr.bundle)
        coarse = [
            (M, "generate", "model.generate"),
            (M, "decode_step", "model.decode_step"),
            (M, "forward_full", "model.forward_full"),
            (M, "sample_token", "model.sample_token"),
            (M, "layer_branch", "model.layer_branch"),
            (R, "generate_with_routers", "router.generate_with_routers"),
            (R, "router_probability", "router.router_probability"),
            (R, "soft_forward", "router.soft_forward"),
            (TR, "train_routers", "training.train_routers"),
            (TR, "train_lora", "training.train_lora"),
            (TR, "loss_total", "training.loss_total"),
            (TR, "measure_skip_fraction", "training.measure_skip_fraction"),
            (L, "adapted_matmul", "lora.adapted_matmul"),
            (D, "encode_batch", "data.encode_batch"),
            (BU, "save_bundle", "bundle.save_bundle"),
            (BU, "load_bundle", "bundle.load_bundle"),
        ]
        for owner, attr, name in coarse:
            self._patch(owner, attr, self._wrapper(getattr(owner, attr), name, True))

        def decision(out):
            d = out[2]
            self.decisions.append((self.phase, d.skip_fraction,
                                   min(abs(r - R.PASS_THRESHOLD) for r in d.rho)))

        self._patch(R, "prefill", self._wrapper(R.prefill, "router.prefill",
                                                True, decision))
        # Modules that imported a traced function by name hold their own
        # reference; point it at the same wrapper.
        self._patch(R, "sample_token", M.sample_token)
        self._patch(TR, "encode_batch", D.encode_batch)
        for op in TENSOR_OPS:
            self._patch(T, op, self._wrapper(getattr(T, op), "tensor." + op, False))
        self._patch(T.Tensor, "backward",
                    self._wrapper(T.Tensor.backward, "tensor.backward", True))
        self._patch(TR.Adam, "step",
                    self._wrapper(TR.Adam.step, "training.Adam.step", True))

        init = T.Tensor.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.on:
                key = (tracer.phase, "tensor.objects",
                       "decode" if tracer._decode_depth else "", tracer.tag)
                tracer.agg[key][0] += 1

        self._patch(T.Tensor, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    @contextmanager
    def active(self, sr, phase: str):
        """Trace everything run inside the block under ``phase``."""
        self.install(sr)
        self.phase, self.on = phase, True
        try:
            yield self
        finally:
            self.on = False
            self.uninstall()

    # --------------------------------------------------------- queries

    def calls(self, name, phase="main", category=None, tag=None) -> int:
        return sum(v[0] for k, v in self._select(name, phase, category, tag))

    def mean_ms(self, name, phase="main", category=None, tag=None) -> float:
        """Mean inclusive milliseconds per call; 0 when never called."""
        rows = list(self._select(name, phase, category, tag))
        n = sum(v[0] for _, v in rows)
        return 1e3 * sum(v[1] for _, v in rows) / n if n else 0.0

    def _select(self, name, phase, category, tag):
        for k, v in self.agg.items():
            if k[0] == phase and k[1] == name \
                    and (category is None or k[2] == category) \
                    and (tag is None or k[3] == tag):
                yield k, v

    def write(self, path: str, extra: dict) -> None:
        summary = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for (phase, name, category, tag), (n, incl, own) in self.agg.items():
            key = "/".join(p for p in (phase, name, category, tag) if p)
            s = summary[key]
            s["calls"] += n
            s["total_ms"] += 1e3 * incl
            s["self_ms"] += 1e3 * own
        doc = dict(extra, names=self.names, spans=self.cols,
                   summary=dict(sorted(summary.items())))
        with open(path, "w") as fh:
            json.dump(doc, fh)
