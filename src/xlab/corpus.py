"""Document ingestion, deterministic splits, and token-stream files.

A corpus is a flat, ordered list of UTF-8 documents. Everything downstream
(tokenizer training, language mixing, evaluation) consumes either a
:class:`DocumentStore` or a :class:`TokenStream`; both are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .util import read_arrays, write_arrays

STREAM_MAGIC = b"XLTS"
STREAM_VERSION = 2


class CorpusError(ValueError):
    pass


def _digest_documents(documents: Sequence[str]) -> str:
    """SHA-256 over the canonical concatenation: u64-LE byte length, then bytes,
    per document in store order."""
    h = hashlib.sha256()
    for doc in documents:
        raw = doc.encode("utf-8")
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    return h.hexdigest()


@dataclass(frozen=True)
class DocumentStore:
    """Ordered UTF-8 documents plus a content digest.

    The digest changes iff any document byte (or the document order) changes.
    """

    documents: tuple[str, ...]
    source_id: str = field(default="")

    def __post_init__(self):
        if not self.source_id:
            object.__setattr__(self, "source_id", _digest_documents(self.documents))

    @classmethod
    def from_documents(cls, documents: Iterable[str]) -> "DocumentStore":
        return cls(documents=tuple(documents))

    def __len__(self) -> int:
        return len(self.documents)


def ingest(paths: Sequence[str | Path], doc_separator: str | None = None) -> DocumentStore:
    """Read UTF-8 files into a store.

    Files are read in lexicographic order of their path strings; within a file,
    document order follows file order. By default each file is one document;
    with `doc_separator` (e.g. a blank line ``"\\n\\n"``) files are split into
    multiple documents and empty fragments are dropped.

    Raises CorpusError naming the file and byte offset for non-UTF-8 input.
    """
    docs: list[str] = []
    for path in sorted(Path(p) for p in paths):
        raw = path.read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorpusError(
                f"{path}: invalid UTF-8 at byte offset {e.start}"
            ) from e
        if doc_separator is None:
            docs.append(text)
        else:
            docs.extend(part for part in text.split(doc_separator) if part.strip())
    return DocumentStore.from_documents(docs)


def split(
    store: DocumentStore, test_fraction: float, seed: int
) -> tuple[DocumentStore, DocumentStore]:
    """Partition a store into (train, test) at document granularity.

    The test size is round-half-up of ``len * fraction`` with a minimum of one
    document when the fraction is positive. Deterministic under
    (store, fraction, seed): a seeded permutation assigns the first k permuted
    documents to the test half; both halves keep the original store order.
    """
    if not (0 <= test_fraction < 1):
        raise CorpusError(f"test_fraction must be in [0, 1), got {test_fraction}")
    n = len(store)
    if test_fraction == 0:
        return store, DocumentStore.from_documents(())
    if n == 0:
        raise CorpusError("cannot split an empty store with test_fraction > 0")
    k = int(np.floor(n * test_fraction + 0.5))
    k = max(1, min(k, n))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    test_idx = np.sort(order[:k])
    train_idx = np.sort(order[k:])
    train = DocumentStore.from_documents(store.documents[i] for i in train_idx)
    test = DocumentStore.from_documents(store.documents[i] for i in test_idx)
    return train, test


@dataclass(frozen=True)
class TokenStream:
    """A flat sequence of token ids with document boundaries.

    ``doc_boundaries`` holds the (strictly increasing) end offset of each
    document; the last boundary equals ``len(ids)``. ``vocab_digest`` ties the
    stream to the vocabulary that produced it.
    """

    ids: np.ndarray  # uint32
    doc_boundaries: np.ndarray  # uint64, strictly increasing, last == len(ids)
    vocab_digest: str

    def __post_init__(self):
        ids = np.ascontiguousarray(self.ids, dtype=np.uint32)
        bounds = np.ascontiguousarray(self.doc_boundaries, dtype=np.uint64)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "doc_boundaries", bounds)
        if len(bounds) == 0:
            if len(ids) != 0:
                raise CorpusError("nonempty ids require document boundaries")
            return
        if np.any(np.diff(bounds.astype(np.int64)) <= 0):
            raise CorpusError("doc_boundaries must be strictly increasing")
        if int(bounds[-1]) != len(ids):
            raise CorpusError(
                f"last boundary {int(bounds[-1])} != token count {len(ids)}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_documents(self) -> int:
        return len(self.doc_boundaries)

    def document(self, i: int) -> np.ndarray:
        start = 0 if i == 0 else int(self.doc_boundaries[i - 1])
        return self.ids[start : int(self.doc_boundaries[i])]


def _vocab_digest(value, path) -> str:
    if not (isinstance(value, str) and re.fullmatch("[0-9a-fA-F]{64}", value)):
        raise CorpusError(f"{path}: vocab_digest {value!r} is not a 32-byte hex digest")
    return value


def write_token_stream(path: str | Path, stream: TokenStream) -> None:
    """Write XLTS version 2 with :func:`~xlab.util.write_arrays`, under a payload SHA-256:
    the ``vocab_digest`` in the header, then ``ids`` (``<u4``) and ``doc_boundaries`` (``<u8``)."""
    header = {"vocab_digest": _vocab_digest(stream.vocab_digest, path)}
    arrays = {"ids": stream.ids, "doc_boundaries": stream.doc_boundaries}
    write_arrays(path, STREAM_MAGIC, STREAM_VERSION, header, arrays)


def read_token_stream(path: str | Path) -> TokenStream:
    """Read an XLTS version 2 file; CorpusError naming the file unless its
    payload matches its SHA-256 and it holds what the writer writes."""
    header, arrays = read_arrays(path, STREAM_MAGIC, STREAM_VERSION, CorpusError)
    if [(n, a.dtype.str, a.ndim) for n, a in arrays.items()] != [
            ("ids", "<u4", 1), ("doc_boundaries", "<u8", 1)]:
        raise CorpusError(f"{path}: the arrays are not 1-d ids <u4 and doc_boundaries <u8")
    return TokenStream(**arrays, vocab_digest=_vocab_digest(header.get("vocab_digest"), path))
