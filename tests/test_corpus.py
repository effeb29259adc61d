import hashlib
import json
import struct

import numpy as np
import pytest

from xlab import corpus


def test_ingest_lexicographic_order(tmp_path):
    (tmp_path / "b.txt").write_text("doc from b")
    (tmp_path / "a.txt").write_text("doc from a")
    store = corpus.ingest([tmp_path / "b.txt", tmp_path / "a.txt"])
    assert store.documents == ("doc from a", "doc from b")


def test_ingest_empty():
    store = corpus.ingest([])
    assert len(store) == 0
    assert store.source_id == hashlib.sha256(b"").hexdigest()


def test_ingest_digest_matches_independent_oracle(tmp_path):
    texts = [[f"file{i} doc{j} text" for j in range(k)] for i, k in enumerate([3, 4, 3])]
    for i, docs in enumerate(texts):
        (tmp_path / f"f{i}.txt").write_text("\n\n".join(docs))
    store = corpus.ingest(sorted(tmp_path.glob("*.txt")), doc_separator="\n\n")
    assert len(store) == 10
    # independent recomputation: length-prefixed concatenation hashed directly
    blob = b""
    for docs in texts:
        for d in docs:
            raw = d.encode()
            blob += struct.pack("<Q", len(raw)) + raw
    assert store.source_id == hashlib.sha256(blob).hexdigest()


def test_ingest_rejects_bad_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"fine until \xff\xfe here")
    with pytest.raises(corpus.CorpusError, match=r"bad\.txt.*byte offset 11"):
        corpus.ingest([p])


def test_split_zero_fraction():
    store = corpus.DocumentStore.from_documents([f"d{i}" for i in range(10)])
    train, test = corpus.split(store, 0.0, seed=1)
    assert len(train) == 10 and len(test) == 0


def test_split_deterministic():
    store = corpus.DocumentStore.from_documents([f"d{i}" for i in range(10)])
    a = corpus.split(store, 0.2, seed=7)
    b = corpus.split(store, 0.2, seed=7)
    assert (len(a[0]), len(a[1])) == (8, 2)
    assert a[0].documents == b[0].documents and a[1].documents == b[1].documents
    assert a[0].source_id == b[0].source_id


def test_split_size_matches_reimplemented_shuffle():
    store = corpus.DocumentStore.from_documents([f"d{i}" for i in range(100)])
    train, test = corpus.split(store, 0.1, seed=3)
    assert len(test) == 10
    # independent reimplementation of the seeded selection
    order = np.random.default_rng(3).permutation(100)
    expect_test = sorted(order[:10])
    assert list(test.documents) == [f"d{i}" for i in expect_test]


def test_split_is_partition():
    docs = [f"doc {i} body" for i in range(31)]
    store = corpus.DocumentStore.from_documents(docs)
    train, test = corpus.split(store, 0.3, seed=11)
    assert sorted(train.documents + test.documents) == sorted(docs)
    assert not set(train.documents) & set(test.documents)


def test_split_min_one_test_doc():
    store = corpus.DocumentStore.from_documents(["only", "two"])
    _, test = corpus.split(store, 0.01, seed=0)
    assert len(test) == 1


def test_split_rejects_fraction_one():
    store = corpus.DocumentStore.from_documents(["x"])
    with pytest.raises(corpus.CorpusError):
        corpus.split(store, 1.0, seed=0)


def test_token_stream_roundtrip(tmp_path):
    stream = corpus.TokenStream(
        ids=np.arange(17, dtype=np.uint32),
        doc_boundaries=np.array([5, 17], dtype=np.uint64),
        vocab_digest="ab" * 32,
    )
    path = tmp_path / "s.xlts"
    corpus.write_token_stream(path, stream)
    back = corpus.read_token_stream(path)
    assert np.array_equal(back.ids, stream.ids)
    assert np.array_equal(back.doc_boundaries, stream.doc_boundaries)
    assert back.vocab_digest == stream.vocab_digest


def test_token_stream_bad_magic(tmp_path):
    p = tmp_path / "bad.xlts"
    p.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(corpus.CorpusError, match="magic"):
        corpus.read_token_stream(p)


def test_token_stream_truncated_is_corpus_error(tmp_path):
    stream = corpus.TokenStream(
        ids=np.arange(17, dtype=np.uint32),
        doc_boundaries=np.array([5, 17], dtype=np.uint64),
        vocab_digest="ab" * 32,
    )
    path = tmp_path / "s.xlts"
    corpus.write_token_stream(path, stream)
    raw = path.read_bytes()
    for cut in (20, 45, len(raw) - 3):  # in the digest, the counts, the payload
        path.write_bytes(raw[:cut])
        with pytest.raises(corpus.CorpusError, match=f"{path.name}: truncated"):
            corpus.read_token_stream(path)


def _payload_offset(raw: bytes) -> int:
    _, hlen = struct.unpack("<BI", raw[4:9])
    return 9 + hlen


def test_token_stream_with_a_flipped_id_byte_is_refused(tmp_path):
    stream = corpus.TokenStream(
        ids=np.arange(17, dtype=np.uint32),
        doc_boundaries=np.array([5, 17], dtype=np.uint64),
        vocab_digest="ab" * 32,
    )
    path = tmp_path / "s.xlts"
    corpus.write_token_stream(path, stream)
    raw = bytearray(path.read_bytes())
    raw[_payload_offset(raw) + 4 * 3] ^= 0x40  # ids[3]: 3 -> 67
    path.write_bytes(bytes(raw))
    with pytest.raises(corpus.CorpusError, match=f"{path.name}: payload digest"):
        corpus.read_token_stream(path)


def test_token_stream_version_1_is_refused(tmp_path):
    ids, bounds = np.arange(5, dtype="<u4"), np.array([5], dtype="<u8")
    path = tmp_path / "v1.xlts"
    path.write_bytes(b"XLTS" + struct.pack("<B", 1) + bytes(32) + struct.pack("<QQ", 5, 1)
                     + ids.tobytes() + bounds.tobytes())
    with pytest.raises(corpus.CorpusError, match="XLTS version 1 .*reads version 2"):
        corpus.read_token_stream(path)


@pytest.mark.parametrize("edit, match", [
    (lambda h: h.update(vocab_digest="ab" * 31), "not a 32-byte hex digest"),
    (lambda h: h.update(vocab_digest="zz" * 32), "not a 32-byte hex digest"),
    (lambda h: h.pop("vocab_digest"), "vocab_digest None"),
    (lambda h: h["tensors"].reverse(), "not 1-d ids <u4 and doc_boundaries <u8"),
])
def test_token_stream_header_is_checked(tmp_path, edit, match):
    stream = corpus.TokenStream(ids=np.arange(4, dtype=np.uint32),
                                doc_boundaries=np.array([4], dtype=np.uint64),
                                vocab_digest="ab" * 32)
    path = tmp_path / "s.xlts"
    corpus.write_token_stream(path, stream)
    raw = path.read_bytes()
    offset = _payload_offset(raw)
    header = json.loads(raw[9:offset])
    edit(header)
    header_raw = json.dumps(header).encode()
    path.write_bytes(raw[:4] + struct.pack("<BI", 2, len(header_raw)) + header_raw + raw[offset:])
    with pytest.raises(corpus.CorpusError, match=match):
        corpus.read_token_stream(path)


def test_token_stream_writer_refuses_a_bad_vocab_digest(tmp_path):
    stream = corpus.TokenStream(ids=np.arange(4, dtype=np.uint32),
                                doc_boundaries=np.array([4], dtype=np.uint64),
                                vocab_digest="abc")
    with pytest.raises(corpus.CorpusError, match="not a 32-byte hex digest"):
        corpus.write_token_stream(tmp_path / "s.xlts", stream)
    assert not list(tmp_path.iterdir())


def test_token_stream_validates_boundaries():
    with pytest.raises(corpus.CorpusError):
        corpus.TokenStream(
            ids=np.arange(5, dtype=np.uint32),
            doc_boundaries=np.array([3, 3], dtype=np.uint64),
            vocab_digest="0" * 64,
        )
    with pytest.raises(corpus.CorpusError):
        corpus.TokenStream(
            ids=np.arange(5, dtype=np.uint32),
            doc_boundaries=np.array([3], dtype=np.uint64),
            vocab_digest="0" * 64,
        )
