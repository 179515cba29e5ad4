"""Binary checkpoint format with bit-exact round trips.

Layout (little-endian throughout):
  magic (8 bytes) | version uint32 | header_len uint64 | header JSON |
  beta float64[T] | one float64 blob per parameter, in header order |
  sha256 digest (32 bytes) of everything before it
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import CheckpointIntegrityError, CheckpointVersionError
from ..gradcore import Array, ParamStore

MAGIC = b"SMAXLAB\x00"
FORMAT_VERSION = 1
_DIGEST_LEN = 32


@dataclass
class Checkpoint:
    format_version: int
    arch: dict
    schedule: dict
    beta: Array
    params: dict[str, Array]
    provenance: dict


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    path = Path(path)
    header = {
        "arch": ckpt.arch,
        "schedule": ckpt.schedule,
        "provenance": ckpt.provenance,
        "beta_len": int(len(ckpt.beta)),
        "params": [{"name": name, "shape": list(arr.shape)}
                   for name, arr in ckpt.params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC,
             struct.pack("<I", ckpt.format_version),
             struct.pack("<Q", len(header_bytes)),
             header_bytes,
             np.ascontiguousarray(ckpt.beta, dtype="<f8").tobytes()]
    for arr in ckpt.params.values():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    payload = b"".join(parts)
    # Write beside the target and rename over it, so a crash mid-write never
    # leaves a truncated checkpoint under the final name.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload + hashlib.sha256(payload).digest())
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointIntegrityError(f"unreadable header: {exc}") from exc
    beta = np.frombuffer(reader.take(8 * header["beta_len"]), dtype="<f8").copy()
    params: dict[str, Array] = {}
    for entry in header["params"]:
        count = int(np.prod(entry["shape"], dtype=np.int64)) if entry["shape"] else 1
        flat = np.frombuffer(reader.take(8 * count), dtype="<f8").copy()
        params[entry["name"]] = flat.reshape(entry["shape"])
    if reader.pos != len(payload):
        raise CheckpointIntegrityError("trailing bytes after checkpoint payload")
    return Checkpoint(format_version=version, arch=header["arch"],
                      schedule=header["schedule"], beta=beta, params=params,
                      provenance=header["provenance"])


def param_store_from(params: dict[str, Array]) -> ParamStore:
    store = ParamStore()
    for name, arr in params.items():
        store.add(name, arr)
    return store
