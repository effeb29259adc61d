"""JSON digests, and the one layout of every xlab file: checkpoints (``XLCK``),
token streams (``XLTS``), vocabularies (``XLVB``), run records (``XLRR``) and
scaling fits (``XLSF``). A file is the caller's magic; ``<BI``, the version and
the header length; the SHA-256 of the header bytes followed by the payload; the
JSON header, keys sorted, with the caller's fields and ``tensors`` (a ``[name,
shape, dtype]`` per array); then the arrays in that order, C-ordered and
little-endian. Vocabularies, run records and scaling fits hold no arrays."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np


def json_digest(obj) -> str:
    """SHA-256 of canonical JSON: sorted keys, no whitespace drift."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_arrays(path: str | Path, magic: bytes, version: int, header: dict,
                 arrays: dict[str, np.ndarray] | None = None) -> None:
    """Write ``header`` and ``arrays`` in the array layout, the header gaining the
    ``tensors`` list. The file is written next to ``path`` and moved into place, so
    a failed write leaves any earlier file at ``path`` and no partial file."""
    arrays = {n: np.asarray(a, dtype=a.dtype.newbyteorder("<"), order="C")
              for n, a in (arrays or {}).items()}
    header = {**header, "tensors": [[n, list(a.shape), a.dtype.str] for n, a in arrays.items()]}
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(raw)
    for a in arrays.values():
        digest.update(a)
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(magic)
            f.write(struct.pack("<BI", version, len(raw)))
            f.write(digest.digest())
            f.write(raw)
            for a in arrays.values():
                f.write(a)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_arrays(path: str | Path, magic: bytes, version: int,
                error: type[Exception]) -> tuple[dict, dict[str, np.ndarray]]:
    """``(header, {name: array})`` of an array file, the header without its
    ``tensors`` and the arrays writable views of one payload buffer (copies where
    misaligned) in their written dtypes; ``error`` naming the file on a bad magic
    or version, a truncated header, a digest mismatch (checked before any
    parsing), a bad header, or a payload of another size than the header lists."""
    with open(path, "rb") as f:
        got, prefix = f.read(len(magic)), f.read(5)
        if got != magic:
            raise error(f"{path}: bad magic {got!r}, expected {magic!r}")
        if len(prefix) != 5:
            raise error(f"{path}: truncated header")
        got_version, hlen = struct.unpack("<BI", prefix)
        if got_version != version:
            raise error(f"{path}: unsupported {magic.decode('ascii', 'replace')} version "
                        f"{got_version} (this xlab reads version {version})")
        want = f.read(32)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if hlen > size:
            raise error(f"{path}: truncated header")
        raw, payload = f.read(hlen), bytearray(size - hlen)
        f.readinto(payload)
    digest = hashlib.sha256(raw)
    digest.update(payload)
    if digest.digest() != want:
        raise error(f"{path}: digest mismatch: the header or payload is not what was written")
    try:
        header = json.loads(raw)
        specs = [(str(n), tuple(int(d) for d in shape), np.dtype(dt))
                 for n, shape, dt in header.pop("tensors")]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise error(f"{path}: bad header ({type(e).__name__}: {e})") from e
    if any(dt.kind not in "biuf" or min(shape, default=0) < 0 for _, shape, dt in specs):
        raise error(f"{path}: the header lists an array of negative size or non-numeric dtype")
    need = sum(dt.itemsize * math.prod(shape) for _, shape, dt in specs)
    if len(payload) != need:
        raise error(f"{path}: the payload is {len(payload)} bytes, the header lists {need}")
    arrays, offset = {}, 0
    for name, shape, dt in specs:
        a = np.frombuffer(payload, dtype=dt, count=math.prod(shape), offset=offset)
        arrays[name] = (a.copy() if offset % dt.itemsize else a).reshape(shape)
        offset += a.nbytes
    return header, arrays
