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

``read_json_object`` reads every JSON file the package takes in (an
archive's manifest, a battery's meta.json, a CLI config file): a file that
is not valid JSON, holds another JSON value or lacks a required key is an
error naming the file and the key. A container's meta is checked the same
way. Every JSON value read from outside (a checkpoint's config, a CLI config
file, a battery's meta.json) gets its kind by one rule, ``json_value``: a
value of the wrong kind is an error naming where it was read and the key.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import zlib
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CheckpointError, DataValidationError

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
    """Load a container; returns (meta, tensors). Reads back only what
    ``write_tensors`` can write: bad magic, an unsupported version, a
    checksum mismatch, a meta that is no JSON object, a tensor name that is
    not UTF-8 or appears twice, extents past the data, and bytes after the
    last payload each raise CheckpointError naming the file. Parsing goes
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
    meta = _json_object(bytes(take(meta_len)), f"{path}: meta", CheckpointError)
    (n_tensors,) = struct.unpack("<I", take(4))
    shapes = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name_bytes = bytes(take(name_len))
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {name_bytes!r}") from None
        if name in shapes:
            raise CheckpointError(f"{path}: tensor name {name!r} appears twice")
        (ndim,) = struct.unpack("<B", take(1))
        shapes[name] = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
    tensors = {}
    for name, shape in shapes.items():
        count = math.prod(shape)  # exact: an int64 product can wrap to 0
        arr = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)
        tensors[name] = arr.astype(np.float64)
    if off != len(body):
        raise CheckpointError(f"{path}: {len(body) - off} bytes after the last payload")
    return meta, tensors


def require_keys(obj: dict, keys, where: str,
                 error: type[Exception] = DataValidationError) -> None:
    """Raise ``error`` naming ``where`` and the first of ``keys`` that
    ``obj`` lacks."""
    for key in keys:
        if key not in obj:
            raise error(f"{where} has no {key!r}")


def _json_object(text: bytes, where: str, error: type[Exception]) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise error(f"{where}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{where}: must hold a JSON object, got {type(doc).__name__}")
    return doc


def read_json_object(path: str | Path, keys=(),
                     error: type[Exception] = DataValidationError) -> dict:
    """The JSON object in file ``path``, which must hold each of ``keys``.
    Invalid JSON, another JSON value or a missing key raises ``error``
    naming the file (and the key)."""
    doc = _json_object(Path(path).read_bytes(), str(path), error)
    require_keys(doc, keys, str(path), error)
    return doc


def _number(value, whole: bool = False) -> bool:
    """A finite JSON number (a bool is not one), with no fraction if ``whole``."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (not whole or value == int(value)))


def json_value(value, like, where: str, error: type[Exception] = DataValidationError):
    """``value``, read from JSON, as the kind of ``like`` (a field default):

    - bool: true or false only;
    - int: a finite number with no fraction, returned as an int;
    - float: any finite number, returned as a float;
    - tuple: a list of whole numbers, returned as a tuple of ints;
    - dataclass instance: an object holding some of its fields, each read
      by this rule against its value in ``like``, returned as ``like`` with
      those fields replaced (so the dataclass checks its ranges).

    Anything else raises ``error`` naming ``where``, a field as
    ``where 'key'``, and the value."""
    if is_dataclass(like):
        names = [f.name for f in fields(like)]
        if not isinstance(value, dict) or not value.keys() <= set(names):
            raise error(f"{where} must be an object with some of {', '.join(names)}, "
                        f"got {json.dumps(value)}")
        return replace(like, **{key: json_value(v, getattr(like, key), f"{where} {key!r}", error)
                                for key, v in value.items()})
    if isinstance(like, bool):
        ok, wanted = isinstance(value, bool), "true or false"
    elif isinstance(like, tuple):
        ok = isinstance(value, (list, tuple)) and all(_number(v, whole=True) for v in value)
        wanted = "a list of whole numbers"
    elif isinstance(like, int):
        ok, wanted = _number(value, whole=True), "a whole number"
    else:
        ok, wanted = _number(value), "a number"
    if not ok:
        raise error(f"{where} must be {wanted}, got {json.dumps(value)}")
    return tuple(map(int, value)) if isinstance(like, tuple) else type(like)(value)


def sha256_file(path: str | Path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
