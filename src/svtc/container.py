"""Binary tensor container shared by corpus files and checkpoints.

Layout (all integers little-endian):
    magic "SVTC" | version u32 | tensor count u32
    per tensor: name length u16 | UTF-8 name | rank u8 | extents u64 each
                | dtype tag u8 (0 = float64 LE) | raw row-major payload
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"SVTC"
VERSION = 1
DTYPE_F64 = 0


class ContainerError(ValueError):
    """Malformed or unsupported container file."""


def save_tensors(path, tensors: dict) -> None:
    """Write named float64 tensors; insertion order is preserved on disk."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise ContainerError(f"tensor name too long: {name[:32]}...")
        parts.append(struct.pack("<H", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(struct.pack("<B", DTYPE_F64))
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_tensors(path) -> dict:
    """Read a container back into {name: float64 ndarray} (file order).

    Every malformed file raises :class:`ContainerError`: bad magic or version,
    truncation anywhere, a name that is not UTF-8 or repeats an earlier one,
    a shape numpy cannot hold, or bytes past the last tensor.
    """
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ContainerError(f"bad magic in {path}")
    if len(buf) < 12:
        raise ContainerError(f"truncated container: {path}")
    version, count = struct.unpack_from("<II", buf, 4)
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    out = {}
    off = 12
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, off)
            off += 2
            raw_name = buf[off : off + nlen]
            if len(raw_name) != nlen:
                raise ContainerError(f"truncated container: {path}")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ContainerError(f"tensor name is not UTF-8 at byte {off}") from err
            off += nlen
            (rank,) = struct.unpack_from("<B", buf, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}Q", buf, off)
            off += 8 * rank
            (tag,) = struct.unpack_from("<B", buf, off)
            off += 1
            if tag != DTYPE_F64:
                raise ContainerError(f"unsupported dtype tag {tag} for {name!r}")
            if name in out:
                raise ContainerError(f"duplicate tensor name {name!r} in {path}")
            n = 1
            for s in shape:
                n *= s
            end = off + 8 * n
            if end > len(buf):
                raise ContainerError(f"truncated payload for {name!r}")
            try:
                arr = np.frombuffer(buf[off:end], dtype="<f8").reshape(shape)
            except ValueError as err:  # rank or extents numpy cannot hold
                raise ContainerError(f"bad shape {shape} for {name!r} in {path}: {err}") from None
            out[name] = arr.astype(np.float64)
            off = end
    except struct.error as err:
        raise ContainerError(f"truncated container: {path}") from err
    if off != len(buf):
        raise ContainerError(f"{len(buf) - off} trailing bytes after the last tensor in {path}")
    return out
