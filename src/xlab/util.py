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
    ``tensors`` and the arrays writable and in their written dtypes; ``error``
    naming the file on a bad magic, version or header, a truncated file, a
    payload of another size than the header lists, or a digest mismatch."""
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
        want, raw = f.read(32), f.read(hlen)
        if len(raw) != hlen:
            raise error(f"{path}: truncated header")
        try:
            header = json.loads(raw)
            specs = [(str(n), tuple(int(d) for d in shape), np.dtype(dt))
                     for n, shape, dt in header.pop("tensors")]
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise error(f"{path}: bad header ({type(e).__name__}: {e})") from e
        if any(dt.kind not in "biuf" or min(shape, default=0) < 0 for _, shape, dt in specs):
            raise error(f"{path}: the header lists an array of negative size or non-numeric dtype")
        need = sum(dt.itemsize * math.prod(shape) for _, shape, dt in specs)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != need:
            raise error(f"{path}: the payload is {size} bytes, the header lists {need}")
        digest, arrays = hashlib.sha256(raw), {}
        for name, shape, dt in specs:
            buf = bytearray(dt.itemsize * math.prod(shape))
            f.readinto(buf)
            digest.update(buf)
            arrays[name] = np.frombuffer(buf, dtype=dt).reshape(shape)
    if digest.digest() != want:
        raise error(f"{path}: digest mismatch: the header or payload is not what was written")
    return header, arrays
