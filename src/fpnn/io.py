"""Binary container for named float64 tensors.

Layout (all integers little-endian):

    bytes 0..7    magic ``FPNNTBIN``
    bytes 8..11   u32 format version
    bytes 12..15  u32 CRC32 of everything after byte 16
    u32 meta_len, meta JSON (utf-8)
    u32 n_tensors
    per tensor: u16 name_len, name, u8 ndim, ndim x u64 extents
    payloads: concatenated float64 little-endian, C order

The same container backs preprocessed sample archives and model
checkpoints. Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"FPNNTBIN"
FORMAT_VERSION = 1


def write_tensors(path: str | Path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Serialize named tensors plus a JSON metadata blob."""
    path = Path(path)
    chunks = []
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    chunks.append(struct.pack("<I", len(tensors)))
    payloads = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        payloads.append(arr.astype("<f8").tobytes())
    body = b"".join(chunks) + b"".join(payloads)
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, zlib.crc32(body))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(header + body)
    os.replace(tmp, path)


def read_tensors(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load a container; returns (meta, tensors). Raises CheckpointError on
    bad magic, unsupported version, or checksum mismatch. Parsing goes
    through a memoryview: a payload's one copy is its returned array."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a tensor container (bad magic)")
    version, crc = struct.unpack("<II", raw[8:16])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    body = memoryview(raw)[16:]
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(body):
            raise CheckpointError(f"{path}: truncated container")
        out = body[off : off + n]
        off += n
        return out

    (meta_len,) = struct.unpack("<I", take(4))
    meta = json.loads(str(take(meta_len), "utf-8"))
    (n_tensors,) = struct.unpack("<I", take(4))
    entries = []
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name = str(take(name_len), "utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
        entries.append((name, shape))
    tensors = {}
    for name, shape in entries:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)
        tensors[name] = arr.astype(np.float64)
    return meta, tensors


def sha256_file(path: str | Path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
