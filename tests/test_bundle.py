"""Container round trips plus truncation and corruption behavior."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

import skiproute.bundle as BU
import skiproute.lora as L
import skiproute.model as M
import skiproute.router as R
from skiproute.errors import (BadMagicError, BundleError, BundleShapeError,
                              ConfigError, TruncatedFileError, VersionError)
from skiproute.tensor import Tensor


@pytest.fixture
def parts():
    config = M.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16, max_seq=32)
    rng = np.random.default_rng(0)
    weights = M.init_model(config, rng)
    bank = R.init_routers(config)
    for router in bank.routers:
        router.weight.data[:] = rng.normal(size=8).astype(np.float32)
    adapters = L.init_adapters(weights, rank=2, rng=rng)
    for _, ad in adapters.items():
        ad.b.data[:] = rng.normal(size=ad.b.shape).astype(np.float32)
    return config, weights, bank, adapters


def params_equal(a, b):
    return all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


def test_full_round_trip(tmp_path, parts):
    config, weights, bank, adapters = parts
    path = tmp_path / "all.bin"
    BU.save_bundle(str(path), weights=weights, routers=bank, adapters=adapters)
    loaded = BU.load_bundle(str(path))
    assert loaded.weights.config == config
    assert params_equal(loaded.weights.parameters(), weights.parameters())
    assert params_equal(loaded.routers.parameters(), bank.parameters())
    assert loaded.adapters.rank == 2
    assert loaded.adapters.lora_alpha == adapters.lora_alpha
    assert not loaded.adapters.merged
    for key, ad in adapters.items():
        got = loaded.adapters.adapters[key]
        np.testing.assert_array_equal(got.a.data, ad.a.data)
        np.testing.assert_array_equal(got.b.data, ad.b.data)
        np.testing.assert_array_equal(got.delta(), ad.delta())


def test_save_load_save_is_byte_identical(tmp_path, parts):
    _, weights, bank, adapters = parts
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    BU.save_bundle(str(first), weights=weights, routers=bank, adapters=adapters)
    loaded = BU.load_bundle(str(first))
    BU.save_bundle(str(second), weights=loaded.weights, routers=loaded.routers,
                   adapters=loaded.adapters)
    assert first.read_bytes() == second.read_bytes()


def test_file_matches_the_documented_layout(tmp_path, parts):
    """Rebuild the whole file by hand: the magic, then per section a tag and
    a u64 length, then per tensor its rank, extents and f32 data."""
    config, weights, bank, adapters = parts
    path = tmp_path / "all.bin"
    BU.save_bundle(str(path), weights=weights, routers=bank, adapters=adapters)

    def u32(*values):
        return struct.pack(f"<{len(values)}I", *values)

    def tensor(arr):
        return u32(arr.ndim, *arr.shape) + arr.astype("<f4").tobytes()

    def section(tag, payload):
        return tag + struct.pack("<Q", len(payload)) + payload

    model = u32(config.n_layers, config.d_model, config.n_heads, config.d_ff,
                config.vocab_size, config.max_seq)
    model += b"".join(tensor(p.data) for p in weights.parameters())
    routers = u32(len(bank), config.d_model)
    routers += b"".join(r.weight.data.astype("<f4").tobytes() for r in bank.routers)
    lora = u32(adapters.rank) + struct.pack("<f", adapters.lora_alpha)
    lora += u32(len(adapters.adapters))
    for (layer, name), ad in sorted(adapters.adapters.items()):
        lora += u32(layer) + name.encode("ascii").ljust(8, b"\x00")
        lora += tensor(ad.a.data) + tensor(ad.b.data)
    want = (b"FRST1" + section(b"MODL", model) + section(b"ROUT", routers)
            + section(b"LORA", lora))
    assert path.read_bytes() == want


def test_saved_bytes_are_pinned(tmp_path, parts):
    """How the model holds its weights in memory does not reach the file:
    the fixture's bundle, and its merged model's, keep these digests."""
    _, weights, bank, adapters = parts
    path = tmp_path / "all.bin"
    BU.save_bundle(str(path), weights=weights, routers=bank, adapters=adapters)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "bf5cbdd1440556cdefb62c379d2911e1a049449febb5cb97edd1a2effee1b0ca"
    BU.save_bundle(str(path), weights=L.merge(weights, adapters))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "f46599dfd91595dc02c928b4bbda6c36c040117c234bcabcf7c8cf85e84f0b55"


@pytest.mark.parametrize("part", ["weights", "one_weight", "routers", "adapters"])
def test_arrays_that_are_not_float32_are_refused(tmp_path, parts, part):
    # the file holds float32 only, so another dtype would reload with
    # other bytes
    config, weights32, _, _ = parts
    weights = M.init_model(config, np.random.default_rng(0), dtype=np.float64)
    if part == "one_weight":
        weights32.head = Tensor(weights32.head.data.astype(np.float64))
    given = {"weights": weights, "one_weight": weights32,
             "routers": R.init_routers(config, dtype=np.float64),
             "adapters": L.init_adapters(weights, rank=2)}[part]
    path = tmp_path / "x.bin"
    with pytest.raises(ConfigError, match="float64 array"):
        BU.save_bundle(str(path), **{"weights" if part == "one_weight" else part: given})
    assert list(tmp_path.iterdir()) == []


def test_partial_bundles_load(tmp_path, parts):
    _, weights, bank, adapters = parts
    path = tmp_path / "routers.bin"
    BU.save_bundle(str(path), routers=bank)
    loaded = BU.load_bundle(str(path))
    assert loaded.weights is None
    assert loaded.adapters is None
    assert params_equal(loaded.routers.parameters(), bank.parameters())

    path = tmp_path / "adapters.bin"
    BU.save_bundle(str(path), adapters=adapters)
    loaded = BU.load_bundle(str(path))
    assert loaded.weights is None and loaded.routers is None
    assert len(loaded.adapters.adapters) == len(adapters.adapters)


def test_section_listing(tmp_path, parts):
    _, weights, bank, _ = parts
    path = tmp_path / "two.bin"
    BU.save_bundle(str(path), weights=weights, routers=bank)
    sections = BU.read_sections(str(path))
    assert set(sections) == {"MODL", "ROUT"}
    assert all(isinstance(v, bytes) for v in sections.values())


def test_failed_save_keeps_the_old_file(tmp_path, parts, monkeypatch):
    _, weights, bank, _ = parts
    path = tmp_path / "model.bin"
    BU.save_bundle(str(path), routers=bank)
    before = path.read_bytes()

    class DiskFull(OSError):
        pass

    def failing_open(name, mode="r"):
        fh = open(name, mode)
        real_write = fh.write

        def write(data):
            if fh.tell() > 0:  # the magic goes through, the sections do not
                raise DiskFull("no space left on device")
            return real_write(data)

        fh.write = write
        return fh

    monkeypatch.setattr(BU, "open", failing_open, raising=False)
    with pytest.raises(DiskFull):
        BU.save_bundle(str(path), weights=weights, routers=bank)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
    assert params_equal(BU.load_bundle(str(path)).routers.parameters(),
                        bank.parameters())


def test_nothing_to_save_is_refused(tmp_path):
    with pytest.raises(ConfigError):
        BU.save_bundle(str(tmp_path / "empty.bin"))


def test_merged_adapters_are_refused(tmp_path, parts):
    _, weights, _, adapters = parts
    L.merge(weights, adapters)
    with pytest.raises(ConfigError):
        BU.save_bundle(str(tmp_path / "x.bin"), adapters=adapters)


def test_bad_magic_and_version(tmp_path, parts):
    _, _, bank, _ = parts
    path = tmp_path / "r.bin"
    BU.save_bundle(str(path), routers=bank)
    blob = bytearray(path.read_bytes())

    wrong = tmp_path / "wrong.bin"
    wrong.write_bytes(b"XRST" + blob[4:])
    with pytest.raises(BadMagicError):
        BU.load_bundle(str(wrong))

    future = tmp_path / "future.bin"
    future.write_bytes(blob[:4] + b"2" + bytes(blob[5:]))
    with pytest.raises(VersionError):
        BU.load_bundle(str(future))

    stub = tmp_path / "stub.bin"
    stub.write_bytes(b"FRS")
    with pytest.raises(TruncatedFileError):
        BU.load_bundle(str(stub))


def test_unknown_section_tag(tmp_path, parts):
    _, _, bank, _ = parts
    path = tmp_path / "r.bin"
    BU.save_bundle(str(path), routers=bank)
    blob = bytearray(path.read_bytes())
    blob[5:9] = b"WHAT"
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleError):
        BU.load_bundle(str(path))


def test_duplicate_section(tmp_path, parts):
    _, _, bank, _ = parts
    path = tmp_path / "r.bin"
    BU.save_bundle(str(path), routers=bank)
    blob = path.read_bytes()
    path.write_bytes(blob + blob[5:])  # append the ROUT section again
    with pytest.raises(BundleError):
        BU.load_bundle(str(path))


def test_shape_mismatch_is_reported(tmp_path, parts):
    _, weights, _, _ = parts
    path = tmp_path / "m.bin"
    BU.save_bundle(str(path), weights=weights)
    blob = bytearray(path.read_bytes())
    # embedding extents live right after magic, header, config words, rank
    offset = 5 + 12 + 24 + 4 + 4
    (d,) = struct.unpack_from("<I", blob, offset)
    struct.pack_into("<I", blob, offset, d + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleShapeError):
        BU.load_bundle(str(path))


def test_truncation_always_raises_container_errors(tmp_path, parts):
    _, weights, bank, adapters = parts
    path = tmp_path / "full.bin"
    BU.save_bundle(str(path), weights=weights, routers=bank, adapters=adapters)
    blob = path.read_bytes()
    # a cut exactly at a section boundary is a valid shorter bundle
    boundaries = {len(blob)}
    pos = 5
    while pos < len(blob):
        boundaries.add(pos)
        (length,) = struct.unpack_from("<Q", blob, pos + 4)
        pos += 12 + length
    rng = np.random.default_rng(1)
    cuts = set(range(0, 128)) | {len(blob) - 1, len(blob) - 5}
    cuts |= {int(c) for c in rng.integers(0, len(blob), size=60)}
    for cut in sorted(cuts):
        stub = tmp_path / "cut.bin"
        stub.write_bytes(blob[:cut])
        if cut in boundaries:
            BU.load_bundle(str(stub))  # valid prefix, must load cleanly
        else:
            with pytest.raises(BundleError):
                BU.load_bundle(str(stub))


def test_corruption_raises_container_errors_or_loads(tmp_path, parts):
    _, weights, bank, adapters = parts
    path = tmp_path / "full.bin"
    BU.save_bundle(str(path), weights=weights, routers=bank, adapters=adapters)
    blob = path.read_bytes()
    rng = np.random.default_rng(2)
    for _ in range(120):
        corrupt = bytearray(blob)
        pos = int(rng.integers(0, len(blob)))
        corrupt[pos] ^= int(rng.integers(1, 256))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(corrupt))
        try:
            BU.load_bundle(str(bad))
        except BundleError:
            pass  # any container subclass is acceptable; anything else fails


def test_router_only_bundle_drives_inference(tmp_path, parts):
    config, weights, bank, _ = parts
    path = tmp_path / "r.bin"
    BU.save_bundle(str(path), routers=bank)
    loaded = BU.load_bundle(str(path)).routers
    tokens = np.array([256, 97, 98, 259])
    _, _, want = R.prefill(config, weights, bank, tokens)
    _, _, got = R.prefill(config, weights, loaded, tokens)
    assert got == want


def test_routers_that_do_not_fit_the_files_model_are_refused(tmp_path, parts):
    config, weights, _, _ = parts
    path = tmp_path / "misfit.bin"
    three = R.init_routers(replace(config, n_layers=3))
    BU.save_bundle(str(path), weights=weights, routers=three)
    with pytest.raises(BundleShapeError, match="3 routers of width"):
        BU.load_bundle(str(path))


def test_adapters_are_checked_against_the_given_model(tmp_path, parts):
    config, weights, _, adapters = parts
    path = tmp_path / "a.bin"
    BU.save_bundle(str(path), adapters=adapters)
    assert BU.load_bundle(str(path), weights).adapters is not None
    one_layer = M.init_model(replace(config, n_layers=1),
                             np.random.default_rng(0))
    with pytest.raises(BundleShapeError, match="of a 1-layer model"):
        BU.load_bundle(str(path), one_layer)


@pytest.mark.parametrize("change,message", [
    ("set_alpha", "float32 stores it as 0.10000000149"),
    ("entry_rank", "adapter 1/wv of rank 1"),
    ("entry_alpha", "adapter 1/wv of rank 2 and alpha 16.0"),
])
def test_adapters_whose_reload_would_rescale_are_refused(tmp_path, parts,
                                                         change, message):
    _, _, _, adapters = parts
    entry = adapters.get(1, "wv")
    if change == "set_alpha":
        adapters.lora_alpha = 0.1
        for _, ad in adapters.items():
            ad.lora_alpha = 0.1
    elif change == "entry_rank":
        entry.rank = 1
    else:
        entry.lora_alpha = 16.0
    with pytest.raises(ConfigError, match=message):
        BU.save_bundle(str(tmp_path / "x.bin"), adapters=adapters)
