"""Binary checkpoint format with bit-exact round trips.

A checkpoint is named float64 parameters plus a JSON header of ``arch``,
``schedule``, ``provenance`` and ``params`` (each parameter's name and shape).
Layout (little-endian throughout; a layout change bumps ``FORMAT_VERSION``):
  magic (8 bytes) | version uint32 | header_len uint64 | header JSON |
  one float64 blob per parameter, in header order |
  sha256 digest (32 bytes) of everything before it
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import CheckpointIntegrityError, CheckpointVersionError
from ..gradcore import Array

MAGIC = b"SMAXLAB\x00"
FORMAT_VERSION = 2
_DIGEST_LEN = 32


@dataclass
class Checkpoint:
    params: dict[str, Array]
    arch: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header = {
        "arch": ckpt.arch,
        "schedule": ckpt.schedule,
        "provenance": ckpt.provenance,
        "params": [{"name": name, "shape": list(arr.shape)}
                   for name, arr in ckpt.params.items()],
    }
    header_bytes = to_json(header).encode("utf-8")
    parts = [MAGIC,
             struct.pack("<I", FORMAT_VERSION),
             struct.pack("<Q", len(header_bytes)),
             header_bytes]
    for arr in ckpt.params.values():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    payload = b"".join(parts)
    write_atomic(path, payload + hashlib.sha256(payload).digest())


def to_json(value, **options) -> str:
    """``json.dumps`` with sorted keys."""
    return json.dumps(value, sort_keys=True, **options)


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` (a str as UTF-8) to ``path`` all at once or not at all.

    The bytes go to a temporary file beside the target, which is then
    renamed over it, so a crash mid-write never leaves a truncated file
    under the final name, and a failed write leaves no temporary file.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointIntegrityError("checkpoint truncated")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if len(blob) < _DIGEST_LEN:
        raise CheckpointIntegrityError("checkpoint truncated")
    payload, digest = blob[:-_DIGEST_LEN], blob[-_DIGEST_LEN:]
    reader = _Reader(payload)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointIntegrityError("bad magic; not a checkpoint file")
    version = struct.unpack("<I", reader.take(4))[0]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version}, expected {FORMAT_VERSION}")
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointIntegrityError("checksum mismatch; checkpoint corrupted")
    header_len = struct.unpack("<Q", reader.take(8))[0]
    try:
        header = json.loads(reader.take(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointIntegrityError(f"unreadable header: {exc}") from exc
    _check_header(header)
    params: dict[str, Array] = {}
    for entry in header["params"]:
        count = math.prod(entry["shape"])  # a Python int, so a huge shape cannot wrap
        flat = np.frombuffer(reader.take(8 * count), dtype="<f8").copy()
        try:
            params[entry["name"]] = flat.reshape(entry["shape"])
        except (ValueError, OverflowError) as exc:  # over numpy's rank or size limits
            raise CheckpointIntegrityError(
                f"unusable shape {entry['shape']} for {entry['name']!r}: {exc}") from exc
    if reader.pos != len(payload):
        raise CheckpointIntegrityError("trailing bytes after checkpoint payload")
    return Checkpoint(params, header["arch"], header["schedule"], header["provenance"])


def _check_header(header) -> None:
    """Reject a header that passed its checksum yet lacks a key or has a malformed entry."""
    if not isinstance(header, dict):
        raise CheckpointIntegrityError("header is not a JSON object")
    for key, kind in (("arch", dict), ("schedule", dict), ("provenance", dict), ("params", list)):
        if type(header.get(key)) is not kind:
            raise CheckpointIntegrityError(f"header lacks a valid {key!r} entry")
    names = set()
    for entry in header["params"]:
        if not (isinstance(entry, dict) and type(entry.get("name")) is str
                and type(entry.get("shape")) is list
                and all(type(n) is int and n >= 0 for n in entry["shape"])
                and entry["name"] not in names):
            raise CheckpointIntegrityError(f"malformed params entry {entry!r}")
        names.add(entry["name"])
