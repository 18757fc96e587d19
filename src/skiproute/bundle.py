"""Single-file binary container for model, router, and adapter weights.

Layout: a five-byte magic (four family bytes plus one version digit),
then sections. Each section is a four-byte ASCII tag, an unsigned 64-bit
little-endian payload length, and the payload. Tensors are stored as a
32-bit rank, that many 32-bit extents, then float32 data in C order; a
weight, router or adapter array of any other dtype is refused on save.
All integers are unsigned 32-bit little-endian unless said otherwise.
The model payload is the six config integers (layers, width, heads, FFN
width, vocabulary, max sequence) then every parameter as a tensor, in
``ModelWeights.parameters`` order. The router payload is the router
count and width, then each router's weight as bare float32 data. The
adapter payload is the rank, ``lora_alpha`` as float32 and the entry
count, then per entry its layer index, its target name NUL-padded to
eight bytes, and the A and B factors as tensors.

Every read is bounds-checked before any slice or allocation, so a
truncated or corrupted file raises a container error instead of failing
arbitrarily deep in numpy. Routers and adapters are checked against the
model they will run on when they are loaded, not at first use.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BadMagicError, BundleError, BundleShapeError, ConfigError,
                     ShapeError, TruncatedFileError, VersionError)
from .lora import TARGET_NAMES, AdapterSet, LoraAdapter, check_fits
from .model import LayerWeights, ModelConfig, ModelWeights, layer_shapes
from .router import Router, RouterBank
from .tensor import Tensor

MAGIC_FAMILY = b"FRST"
MAGIC_VERSION = b"1"
MAGIC = MAGIC_FAMILY + MAGIC_VERSION

SECTION_MODEL = b"MODL"
SECTION_ROUTERS = b"ROUT"
SECTION_ADAPTERS = b"LORA"
_KNOWN_SECTIONS = (SECTION_MODEL, SECTION_ROUTERS, SECTION_ADAPTERS)

_MAX_TENSOR_RANK = 4
_TAG_PAD = 8


def _float32_bytes(arr: np.ndarray) -> bytes:
    """``arr``'s little-endian float32 bytes in C order. Any other dtype
    raises ``ConfigError``: it would reload as float32 with other bytes."""
    if arr.dtype != np.float32:
        raise ConfigError(f"refusing to save a {arr.dtype} array: bundles "
                          "hold float32 only")
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _pack_tensor(arr: np.ndarray) -> bytes:
    return (struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
            + _float32_bytes(arr))


class _Reader:
    """Cursor over one payload; every take is length-checked first."""

    def __init__(self, buf: bytes, context: str):
        self.buf = buf
        self.pos = 0
        self.context = context

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFileError(
                f"{self.context}: wanted {n} bytes at offset {self.pos}, "
                f"only {len(self.buf) - self.pos} remain")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self.take(4))[0]

    def tensor(self) -> np.ndarray:
        rank = self.u32()
        if rank > _MAX_TENSOR_RANK:
            raise BundleShapeError(f"{self.context}: tensor rank {rank} is absurd")
        shape = tuple(self.u32() for _ in range(rank))
        count = 1
        for e in shape:
            count *= e
        data = self.take(4 * count)
        return np.frombuffer(data, dtype="<f4").reshape(shape).copy()

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise BundleShapeError(
                f"{self.context}: {len(self.buf) - self.pos} trailing bytes")


def _expect_shape(arr: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    if arr.shape != shape:
        raise BundleShapeError(f"{what}: stored shape {arr.shape}, wanted {shape}")
    return arr


# ------------------------------------------------------------- sections
# Each packer collects its pieces in a list and joins them once: growing
# one bytes object piece by piece copies the payload over and over.


def _pack_model(weights: ModelWeights) -> bytes:
    c = weights.config
    out = [struct.pack("<6I", c.n_layers, c.d_model, c.n_heads, c.d_ff,
                       c.vocab_size, c.max_seq)]
    out.extend(_pack_tensor(p.data) for p in weights.parameters())
    return b"".join(out)


def _unpack_model(payload: bytes) -> ModelWeights:
    r = _Reader(payload, "model section")
    raw = [r.u32() for _ in range(6)]
    try:
        config = ModelConfig(n_layers=raw[0], d_model=raw[1], n_heads=raw[2],
                             d_ff=raw[3], vocab_size=raw[4], max_seq=raw[5])
    except ConfigError as e:
        raise BundleShapeError(f"model section holds a bad configuration: {e}")
    d, v = config.d_model, config.vocab_size

    def tensor(shape, what):
        return Tensor(_expect_shape(r.tensor(), shape, what))

    embedding = tensor((v, d), "embedding")
    shapes = layer_shapes(config)
    layers = [LayerWeights(**{name: tensor(shape, f"layer {i} {name}")
                              for name, shape in shapes.items()})
              for i in range(config.n_layers)]
    final_norm = tensor((d,), "final_norm")
    head = tensor((v, d), "head")
    r.done()
    return ModelWeights(config=config, embedding=embedding, layers=layers,
                        final_norm=final_norm, head=head)


def _pack_routers(routers: RouterBank) -> bytes:
    if len(routers) == 0:
        raise ConfigError("refusing to save an empty router bank")
    d = routers[0].weight.data.shape[0]
    out = [struct.pack("<2I", len(routers), d)]
    for router in routers.routers:
        w = router.weight.data
        if w.shape != (d,):
            raise BundleShapeError(f"router weight shape {w.shape}, wanted ({d},)")
        out.append(_float32_bytes(w))
    return b"".join(out)


def _unpack_routers(payload: bytes) -> RouterBank:
    r = _Reader(payload, "router section")
    m, d = r.u32(), r.u32()
    if m < 1 or d < 1:
        raise BundleShapeError(f"router section claims {m} routers of width {d}")
    bank = []
    for _ in range(m):
        w = np.frombuffer(r.take(4 * d), dtype="<f4").copy()
        bank.append(Router(Tensor(w)))
    r.done()
    return RouterBank(bank)


def _pack_adapters(adapters: AdapterSet) -> bytes:
    if adapters.merged:
        raise ConfigError("refusing to save a consumed adapter set")
    entries = list(adapters.items())
    if not entries:
        raise ConfigError("refusing to save an empty adapter set")
    # one rank and one float32 alpha are stored for the whole set, so
    # anything else would reload with a different scaling
    rank, alpha = adapters.rank, adapters.lora_alpha
    if float(np.float32(alpha)) != alpha:
        raise ConfigError(f"refusing to save lora_alpha {alpha!r}: "
                          f"float32 stores it as {float(np.float32(alpha))!r}")
    out = [struct.pack("<IfI", rank, alpha, len(entries))]
    for (layer, name), ad in entries:
        if (ad.rank, ad.lora_alpha) != (rank, alpha):
            raise ConfigError(
                f"refusing to save adapter {layer}/{name} of rank {ad.rank} "
                f"and alpha {ad.lora_alpha} in a set of rank {rank} and "
                f"alpha {alpha}")
        tag = name.encode("ascii")
        if len(tag) > _TAG_PAD:
            raise BundleShapeError(f"target name {name!r} longer than {_TAG_PAD}")
        out += (struct.pack("<I", layer), tag.ljust(_TAG_PAD, b"\x00"),
                _pack_tensor(ad.a.data), _pack_tensor(ad.b.data))
    return b"".join(out)


def _unpack_adapters(payload: bytes) -> AdapterSet:
    r = _Reader(payload, "adapter section")
    rank = r.u32()
    alpha = r.f32()
    n = r.u32()
    adapters: dict[tuple[int, str], LoraAdapter] = {}
    for _ in range(n):
        layer = r.u32()
        name = r.take(_TAG_PAD).rstrip(b"\x00").decode("ascii", "replace")
        if name not in TARGET_NAMES:
            raise BundleShapeError(f"unknown adapter target {name!r}")
        a = r.tensor()
        b = r.tensor()
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != rank or b.shape[1] != rank:
            raise BundleShapeError(
                f"adapter {layer}/{name}: factors {a.shape} x {b.shape} "
                f"do not form a rank-{rank} update")
        if (layer, name) in adapters:
            raise BundleShapeError(f"duplicate adapter entry {layer}/{name}")
        adapters[(layer, name)] = LoraAdapter(a=Tensor(a), b=Tensor(b),
                                              rank=rank, lora_alpha=alpha)
    r.done()
    return AdapterSet(rank=rank, lora_alpha=alpha, adapters=adapters)


# ----------------------------------------------------------- whole files


@dataclass
class Bundle:
    weights: Optional[ModelWeights] = None
    routers: Optional[RouterBank] = None
    adapters: Optional[AdapterSet] = None


def save_bundle(path: str, weights: Optional[ModelWeights] = None,
                routers: Optional[RouterBank] = None,
                adapters: Optional[AdapterSet] = None) -> None:
    """Write the given parts as one container; order is fixed.

    The bytes go to a temporary file beside ``path`` that then replaces it
    in one step, so a failed save leaves any earlier file as it was.
    """
    parts: list[tuple[bytes, bytes]] = []
    if weights is not None:
        parts.append((SECTION_MODEL, _pack_model(weights)))
    if routers is not None:
        parts.append((SECTION_ROUTERS, _pack_routers(routers)))
    if adapters is not None:
        parts.append((SECTION_ADAPTERS, _pack_adapters(adapters)))
    if not parts:
        raise ConfigError("nothing to save")
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory: the rename is atomic
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for tag, payload in parts:
                fh.write(tag)
                fh.write(struct.pack("<Q", len(payload)))
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_sections(path: str) -> dict[str, bytes]:
    """Raw payload per section tag, after validating magic and framing."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC):
        raise TruncatedFileError(f"{path}: shorter than the magic")
    if blob[:4] != MAGIC_FAMILY:
        raise BadMagicError(f"{path}: magic {blob[:4]!r} is not {MAGIC_FAMILY!r}")
    if blob[4:5] != MAGIC_VERSION:
        raise VersionError(
            f"{path}: container version {blob[4:5]!r}, this build reads "
            f"{MAGIC_VERSION!r} only")
    sections: dict[str, bytes] = {}
    pos = len(MAGIC)
    while pos < len(blob):
        if pos + 12 > len(blob):
            raise TruncatedFileError(f"{path}: dangling section header")
        tag = blob[pos:pos + 4]
        (length,) = struct.unpack("<Q", blob[pos + 4:pos + 12])
        pos += 12
        if tag not in _KNOWN_SECTIONS:
            raise BundleError(f"{path}: unknown section tag {tag!r}")
        if pos + length > len(blob):
            raise TruncatedFileError(
                f"{path}: section {tag.decode()} claims {length} bytes, "
                f"{len(blob) - pos} remain")
        name = tag.decode("ascii")
        if name in sections:
            raise BundleError(f"{path}: duplicate section {name}")
        sections[name] = blob[pos:pos + length]
        pos += length
    return sections


def _check_fit(path: str, bundle: Bundle, weights: ModelWeights) -> None:
    c = weights.config
    routers = bundle.routers
    if routers is not None:
        widths = {r.weight.shape[0] for r in routers.routers}
        if len(routers) != c.n_layers or widths != {c.d_model}:
            raise BundleShapeError(
                f"{path}: {len(routers)} routers of width {sorted(widths)} for "
                f"a model of {c.n_layers} layers of width {c.d_model}")
    if bundle.adapters is not None:
        for (layer, name), ad in bundle.adapters.items():
            if layer >= c.n_layers:
                raise BundleShapeError(f"{path}: adapter for layer {layer} "
                                       f"of a {c.n_layers}-layer model")
            try:
                check_fits(ad, getattr(weights.layers[layer], name).shape)
            except (ConfigError, ShapeError) as e:
                raise BundleShapeError(f"{path}: adapter {layer}/{name}: {e}") from e


def load_bundle(path: str, weights: Optional[ModelWeights] = None) -> Bundle:
    """Every section of ``path``. Routers and adapters are checked against
    ``weights``, or else against the file's own model section: one router
    of the model's width per layer, and every adapter on an existing layer
    and fitting its matrix. A misfit raises ``BundleShapeError``."""
    sections = read_sections(path)
    bundle = Bundle()
    if SECTION_MODEL.decode() in sections:
        bundle.weights = _unpack_model(sections[SECTION_MODEL.decode()])
    if SECTION_ROUTERS.decode() in sections:
        bundle.routers = _unpack_routers(sections[SECTION_ROUTERS.decode()])
    if SECTION_ADAPTERS.decode() in sections:
        bundle.adapters = _unpack_adapters(sections[SECTION_ADAPTERS.decode()])
    model = weights if weights is not None else bundle.weights
    if model is not None:
        _check_fit(path, bundle, model)
    return bundle
