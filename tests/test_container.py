"""Binary tensor container round-trips and format validation."""

import struct

import numpy as np
import pytest

from svtc import container
from svtc.container import ContainerError, load_tensors, save_tensors


def test_round_trip_preserves_bytes_and_order(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "x_v": rng.standard_normal((5, 3)),
        "weights.layer.w": rng.standard_normal((2, 2, 4)),
        "scalar": np.array(3.5),
        "unicode-name-é": rng.standard_normal(7),
    }
    path = tmp_path / "t.svt"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float64
        np.testing.assert_array_equal(loaded[name], np.asarray(arr, dtype=np.float64))
        assert loaded[name].tobytes() == np.asarray(arr, dtype=np.float64).tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "t.svt"
    save_tensors(path, {"a": np.zeros((2, 3))})
    raw = path.read_bytes()
    assert raw[:4] == b"SVTC"
    version, count = struct.unpack_from("<II", raw, 4)
    assert version == 1 and count == 1
    (nlen,) = struct.unpack_from("<H", raw, 12)
    assert raw[14 : 14 + nlen] == b"a"
    rank = raw[14 + nlen]
    assert rank == 2
    extents = struct.unpack_from("<2Q", raw, 15 + nlen)
    assert extents == (2, 3)
    assert raw[15 + nlen + 16] == 0  # dtype tag f64


def test_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"a": rng.standard_normal((4, 4)), "b": rng.standard_normal(3)}
    p1, p2 = tmp_path / "1.svt", tmp_path / "2.svt"
    save_tensors(p1, tensors)
    save_tensors(p2, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.svt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContainerError):
        load_tensors(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "t.svt"
    save_tensors(path, {"a": np.ones((4, 4))})
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ContainerError):
        load_tensors(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "t.svt"
    save_tensors(path, {"a": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError):
        load_tensors(path)


def test_empty_container(tmp_path):
    path = tmp_path / "t.svt"
    save_tensors(path, {})
    assert load_tensors(path) == {}


def _small_file(tmp_path):
    path = tmp_path / "t.svt"
    save_tensors(path, {"w": np.arange(3.0), "bé": np.ones((1, 2))})
    return path, path.read_bytes()


def test_trailing_bytes_rejected(tmp_path):
    path, raw = _small_file(tmp_path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ContainerError, match="trailing"):
        load_tensors(path)


def test_non_utf8_name_rejected(tmp_path):
    path, raw = _small_file(tmp_path)
    corrupt = bytearray(raw)
    corrupt[14] = 0xFF  # the first byte of the first name: never valid UTF-8
    path.write_bytes(bytes(corrupt))
    with pytest.raises(ContainerError, match="UTF-8"):
        load_tensors(path)


def test_truncation_at_every_offset_rejected(tmp_path):
    path, raw = _small_file(tmp_path)
    assert load_tensors(path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ContainerError):
            load_tensors(path)


def test_duplicate_name_rejected(tmp_path):
    # a hand-built 2-tensor file whose records are both named "a"
    record = struct.pack("<H", 1) + b"a" + struct.pack("<BQB", 1, 1, 0)
    raw = b"SVTC" + struct.pack("<II", 1, 2)
    raw += record + struct.pack("<d", 1.0) + record + struct.pack("<d", 2.0)
    path = tmp_path / "dup.svt"
    path.write_bytes(raw)
    with pytest.raises(ContainerError, match="duplicate tensor name 'a'"):
        load_tensors(path)


def test_every_bit_flip_loads_or_raises_container_error(tmp_path):
    # three tensors, one with a zero extent: a flipped rank or extent byte
    # asks numpy for a shape it cannot hold
    path = tmp_path / "x.svt"
    save_tensors(path, {"w": np.arange(6.0).reshape(2, 3), "e": np.zeros((0, 4)), "b": np.ones(2)})
    raw = path.read_bytes()
    rejected = 0
    for bit in range(8 * len(raw)):
        corrupt = bytearray(raw)
        corrupt[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(corrupt))
        try:
            load_tensors(path)
        except ContainerError:
            rejected += 1
    assert rejected > 0


@pytest.mark.parametrize(
    "rank, extents",
    [(65, [0] + [1] * 64), (2, [0, 1 << 63]), (3, [(1 << 64) - 1, 0, 2])],
    ids=["rank-65", "zero-beside-2^63", "zero-beside-2^64-1"],
)
def test_shape_numpy_cannot_hold_rejected(tmp_path, rank, extents):
    # a zero extent makes the payload empty, so only the shape is wrong
    record = struct.pack("<H", 1) + b"t" + struct.pack(f"<B{rank}QB", rank, *extents, 0)
    path = tmp_path / "big.svt"
    path.write_bytes(b"SVTC" + struct.pack("<II", 1, 1) + record)
    with pytest.raises(ContainerError, match=r"bad shape .* for 't' in .*big\.svt"):
        load_tensors(path)
