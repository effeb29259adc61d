"""Small shared helpers: JSON digests and atomic file writes."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path


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
