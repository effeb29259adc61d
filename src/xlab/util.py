"""Small shared helpers: JSON digests, atomic file writes, and the one layout of
xlab's binary files (checkpoints, token streams): the caller's magic; ``<BI``,
the version and the header length; the JSON header, keys sorted, with the
caller's fields, ``tensors`` (a ``[name, shape, dtype]`` per array) and
``payload_sha256``; then the arrays in that order, C-ordered, little-endian."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def json_digest(obj) -> str:
    """SHA-256 of canonical JSON: sorted keys, no whitespace drift."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Yield a file next to ``path``, moved into place when the block ends; a
    failed write leaves any earlier file at ``path`` and no partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_arrays(path: str | Path, magic: bytes, version: int, header: dict,
                 arrays: dict[str, np.ndarray]) -> None:
    """Write ``header`` and ``arrays`` atomically in the array layout; the
    header gains the ``tensors`` list and the ``payload_sha256``."""
    arrays = {n: np.asarray(a, dtype=a.dtype.newbyteorder("<"), order="C")
              for n, a in arrays.items()}
    digest = hashlib.sha256()
    for a in arrays.values():
        digest.update(a)
    header = {**header, "tensors": [[n, list(a.shape), a.dtype.str] for n, a in arrays.items()],
              "payload_sha256": digest.hexdigest()}
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<BI", version, len(raw)))
        f.write(raw)
        for a in arrays.values():
            f.write(a)


def read_arrays(path: str | Path, magic: bytes, version: int,
                error: type[Exception]) -> tuple[dict, dict[str, np.ndarray]]:
    """``(header, {name: array})`` of an array file, the arrays writable and in
    their written dtypes; ``error`` naming the file on a bad magic, version or
    header, a truncated file, or a payload that does not match its digest."""
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
        raw = f.read(hlen)
        if len(raw) != hlen:
            raise error(f"{path}: truncated header")
        try:
            header = json.loads(raw)
            specs = [(str(n), tuple(int(d) for d in shape), np.dtype(dt))
                     for n, shape, dt in header["tensors"]]
            want = header["payload_sha256"]
        except (KeyError, TypeError, ValueError) as e:
            raise error(f"{path}: bad header ({type(e).__name__}: {e})") from e
        if any(dt.kind not in "biuf" or min(shape, default=0) < 0 for _, shape, dt in specs):
            raise error(f"{path}: the header lists an array of negative size or non-numeric dtype")
        need = sum(dt.itemsize * math.prod(shape) for _, shape, dt in specs)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != need:  # the digest tells a cut or padded payload from a wrong tensors list
            what = ("the header's tensors do not match the payload"
                    if hashlib.sha256(f.read()).hexdigest() == want
                    else "truncated payload" if size < need else "bytes after the digested payload")
            raise error(f"{path}: {what} ({size} bytes, {need} listed)")
        digest, arrays = hashlib.sha256(), {}
        for name, shape, dt in specs:
            buf = bytearray(dt.itemsize * math.prod(shape))
            f.readinto(buf)
            digest.update(buf)
            arrays[name] = np.frombuffer(buf, dtype=dt).reshape(shape)
    if digest.hexdigest() != want:
        raise error(f"{path}: payload digest mismatch")
    return header, arrays
