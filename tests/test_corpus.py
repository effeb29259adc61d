import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from xlab import corpus

from conftest import edit_array_file


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


def test_source_id_is_computed_not_taken():
    # a caller's source_id used to be kept unchecked
    with pytest.raises(TypeError):
        corpus.DocumentStore(("a b",), source_id="bogus")
    raw = "a b".encode()
    assert corpus.DocumentStore(("a b",)).source_id == hashlib.sha256(
        struct.pack("<Q", len(raw)) + raw).hexdigest()


def test_a_store_takes_any_iterable_of_str_and_keeps_a_tuple():
    # a list used to be kept inside the frozen store
    stores = [corpus.DocumentStore(docs) for docs in
              (["a", "b"], ("a", "b"), (d for d in "ab"), {"a": 0, "b": 1}.keys())]
    assert all(type(s.documents) is tuple and s.documents == ("a", "b") for s in stores)
    assert len({s.source_id for s in stores}) == 1


@pytest.mark.parametrize("documents, match", [
    ("abc", "documents must be an iterable of str, got str"),
    (b"ab", "documents must be an iterable of str, got bytes"),
    (5, "documents must be an iterable of str, got int"),
    ((1,), r"documents\[0\] must be a str, got 1"),
    (["a", b"b"], r"documents\[1\] must be a str, got b'b'"),
], ids=["str", "bytes", "int", "int document", "bytes document"])
def test_a_store_refuses_a_bare_string_and_a_document_that_is_not_a_str(documents, match):
    # "abc" was kept as three one-letter documents with the source_id of ("a", "b", "c"),
    # and (1,) or b"ab" failed with a bare AttributeError in the digest, also in train_bpe
    with pytest.raises(corpus.CorpusError, match=match):
        corpus.DocumentStore(documents)


@pytest.mark.parametrize("paths, match", [
    ("file.txt", "paths must be an iterable of paths, got str"),
    (b"a", "paths must be an iterable of paths, got bytes"),
    (Path("a.txt"), r"paths must be an iterable of paths, got \w*Path"),
    ([1], "paths must hold str or os.PathLike items, got 1"),
], ids=["str", "bytes", "one path", "int path"])
def test_ingest_refuses_paths_that_are_not_an_iterable_of_paths(paths, match):
    # "file.txt" was read as the paths "f", "i", ..., "." and failed with a bare
    # IsADirectoryError on "."; the others raised a bare TypeError
    with pytest.raises(corpus.CorpusError, match=match):
        corpus.ingest(paths)


def test_ingest_rejects_bad_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"fine until \xff\xfe here")
    with pytest.raises(corpus.CorpusError, match=r"bad\.txt.*byte offset 11"):
        corpus.ingest([p])


def test_ingest_refuses_an_empty_separator(tmp_path):
    # str.split raised a bare ValueError("empty separator")
    (tmp_path / "a.txt").write_text("one\n\ntwo")
    with pytest.raises(corpus.CorpusError, match="doc_separator must not be empty"):
        corpus.ingest([tmp_path / "a.txt"], doc_separator="")


def test_split_zero_fraction():
    store = corpus.DocumentStore([f"d{i}" for i in range(10)])
    train, test = corpus.split(store, 0.0, seed=1)
    assert len(train) == 10 and len(test) == 0


def test_split_deterministic():
    store = corpus.DocumentStore([f"d{i}" for i in range(10)])
    a = corpus.split(store, 0.2, seed=7)
    b = corpus.split(store, 0.2, seed=7)
    assert (len(a[0]), len(a[1])) == (8, 2)
    assert a[0].documents == b[0].documents and a[1].documents == b[1].documents
    assert a[0].source_id == b[0].source_id


def test_split_size_matches_reimplemented_shuffle():
    store = corpus.DocumentStore([f"d{i}" for i in range(100)])
    train, test = corpus.split(store, 0.1, seed=3)
    assert len(test) == 10
    # independent reimplementation of the seeded selection
    order = np.random.default_rng(3).permutation(100)
    expect_test = sorted(order[:10])
    assert list(test.documents) == [f"d{i}" for i in expect_test]


def test_split_is_partition():
    docs = [f"doc {i} body" for i in range(31)]
    store = corpus.DocumentStore(docs)
    train, test = corpus.split(store, 0.3, seed=11)
    assert sorted(train.documents + test.documents) == sorted(docs)
    assert not set(train.documents) & set(test.documents)


def test_split_min_one_test_doc():
    store = corpus.DocumentStore(["only", "two"])
    _, test = corpus.split(store, 0.01, seed=0)
    assert len(test) == 1


def test_split_rejects_fraction_one():
    store = corpus.DocumentStore(["x"])
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
    # cut in the digest, in the header, and in the payload, which the digest covers
    for cut, what in ((20, "truncated header"), (45, "truncated header"),
                      (len(raw) - 3, "digest mismatch")):
        path.write_bytes(raw[:cut])
        with pytest.raises(corpus.CorpusError, match=f"{path.name}: {what}"):
            corpus.read_token_stream(path)


def test_token_stream_with_a_flipped_id_byte_is_refused(tmp_path):
    stream = corpus.TokenStream(
        ids=np.arange(17, dtype=np.uint32),
        doc_boundaries=np.array([5, 17], dtype=np.uint64),
        vocab_digest="ab" * 32,
    )
    path = tmp_path / "s.xlts"
    corpus.write_token_stream(path, stream)
    raw = bytearray(path.read_bytes())
    ids_start = len(raw) - stream.ids.nbytes - stream.doc_boundaries.nbytes
    raw[ids_start + 4 * 3] ^= 0x40  # ids[3]: 3 -> 67
    path.write_bytes(bytes(raw))
    with pytest.raises(corpus.CorpusError, match=f"{path.name}: digest mismatch"):
        corpus.read_token_stream(path)


def test_token_stream_version_1_is_refused(tmp_path):
    stream = corpus.TokenStream(ids=np.arange(5, dtype=np.uint32),
                                doc_boundaries=np.array([5], dtype=np.uint64),
                                vocab_digest="ab" * 32)
    path = tmp_path / "v1.xlts"
    corpus.write_token_stream(path, stream)
    edit_array_file(path, lambda header, arrays: None, version=1)
    with pytest.raises(corpus.CorpusError, match="XLTS version 1 .*reads version 3"):
        corpus.read_token_stream(path)


@pytest.mark.parametrize("edit, match", [
    (lambda h, a: h.update(vocab_digest="ab" * 31), "not a 32-byte hex digest"),
    (lambda h, a: h.update(vocab_digest="zz" * 32), "not a 32-byte hex digest"),
    (lambda h, a: h.pop("vocab_digest"), "vocab_digest None"),
    (lambda h, a: h.update(vocab_digest="x"), r"s\.xlts: vocab_digest 'x' is not a 32-byte"),
    (lambda h, a: a.update(ids=a.pop("ids")), "not 1-d ids <u4 and doc_boundaries <u8"),
])
def test_token_stream_header_is_checked(tmp_path, edit, match):
    stream = corpus.TokenStream(ids=np.arange(4, dtype=np.uint32),
                                doc_boundaries=np.array([4], dtype=np.uint64),
                                vocab_digest="ab" * 32)
    path = tmp_path / "s.xlts"
    corpus.write_token_stream(path, stream)
    edit_array_file(path, edit)
    with pytest.raises(corpus.CorpusError, match=match):
        corpus.read_token_stream(path)


def test_a_bad_vocab_digest_is_refused_before_a_stream_is_written(tmp_path):
    # the constructor took it, and the writer refused it later
    with pytest.raises(corpus.CorpusError, match="not a 32-byte hex digest"):
        corpus.write_token_stream(tmp_path / "s.xlts", corpus.TokenStream(
            ids=np.arange(4, dtype=np.uint32), doc_boundaries=np.array([4], dtype=np.uint64),
            vocab_digest="abc"))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("digest", ["x", "ab" * 31, "zz" * 32, "ab" * 33, None, b"ab" * 32],
                         ids=["short", "31 bytes", "not hex", "33 bytes", "None", "bytes"])
def test_a_token_stream_checks_its_vocab_digest(digest):
    with pytest.raises(corpus.CorpusError, match="not a 32-byte hex digest"):
        corpus.TokenStream(np.arange(4), [4], digest)
    for good in ("ab" * 32, "AB" * 32):
        assert corpus.TokenStream(np.arange(4), [4], good).vocab_digest == good


@pytest.mark.parametrize("i, match", [
    (2, r"document 2 out of range \[0, 2\)"),
    (-1, r"document -1 out of range \[0, 2\)"),
    (1.0, "i must be an int, got 1.0"),
    (True, "i must be an int, got True"),
])
def test_a_document_index_outside_the_stream_is_refused(i, match):
    # 2 and 1.0 raised a bare IndexError, and -1 gave the last document
    stream = corpus.TokenStream(np.arange(5), [2, 5], "0" * 64)
    assert [stream.document(k).tolist() for k in range(2)] == [[0, 1], [2, 3, 4]]
    with pytest.raises(corpus.CorpusError, match=match):
        stream.document(i)


def test_a_numpy_integer_document_index_is_an_int():
    stream = corpus.TokenStream(np.arange(5), [2, 5], "0" * 64)
    assert stream.document(np.int64(1)).tolist() == [2, 3, 4]


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


def test_token_stream_refuses_ids_outside_uint32():
    # int64 -1 and 2**32 + 5 used to wrap to 4294967295 and 5; a list [-1] raised OverflowError
    for ids, shown in ((np.array([-1, 2**32 + 5]), "-1..4294967301"), ([-1], "-1..-1"),
                       ([7, 2**32], "7..4294967296")):
        with pytest.raises(corpus.CorpusError,
                           match=rf"token ids {shown} are outside \[0, 4294967296\)"):
            corpus.TokenStream(ids=ids, doc_boundaries=[len(ids)], vocab_digest="0" * 64)
    stream = corpus.TokenStream(ids=np.array([0, 2**32 - 1]), doc_boundaries=[2],
                                vocab_digest="0" * 64)
    assert stream.ids.dtype == np.uint32 and stream.ids.tolist() == [0, 2**32 - 1]
    ids = np.array([3, 1], dtype=np.uint32)
    assert corpus.TokenStream(ids=ids, doc_boundaries=[2], vocab_digest="0" * 64).ids is ids


def test_token_stream_refuses_doc_boundaries_that_are_not_integers():
    # float boundaries 1.7 and 3.2 used to be stored as 1 and 3
    for bounds in (np.array([1.7, 3.2]), [1.0, 3.0], np.array([False, True])):
        with pytest.raises(corpus.CorpusError, match="doc_boundaries must be integers, got dtype"):
            corpus.TokenStream(ids=np.arange(3), doc_boundaries=bounds, vocab_digest="0" * 64)
    # an int64 -1 used to wrap to 2**64 - 1, which passed the order check
    match = r"doc_boundaries -1..3 are outside \[0, 18446744073709551616\)"
    with pytest.raises(corpus.CorpusError, match=match):
        corpus.TokenStream(ids=np.arange(3), doc_boundaries=np.array([-1, 3]),
                           vocab_digest="0" * 64)
    stream = corpus.TokenStream(ids=np.arange(3), doc_boundaries=np.array([1, 3], dtype=np.int8),
                                vocab_digest="0" * 64)
    assert stream.doc_boundaries.dtype == np.uint64 and stream.doc_boundaries.tolist() == [1, 3]


def test_token_stream_refuses_ids_that_are_not_integers():
    # float ids 1.5 and 2.7 used to be stored as 1 and 2
    for ids in (np.array([1.5, 2.7]), [1.0, 2.0], np.array([True, False])):
        with pytest.raises(corpus.CorpusError, match="token ids must be integers, got dtype"):
            corpus.TokenStream(ids=ids, doc_boundaries=[2], vocab_digest="0" * 64)
    empty = corpus.TokenStream(ids=[], doc_boundaries=[], vocab_digest="0" * 64)
    assert empty.ids.dtype == np.uint32 and len(empty) == 0
    stream = corpus.TokenStream(ids=np.array([1, 2], dtype=np.int8), doc_boundaries=[2],
                                vocab_digest="0" * 64)
    assert stream.ids.dtype == np.uint32 and stream.ids.tolist() == [1, 2]
