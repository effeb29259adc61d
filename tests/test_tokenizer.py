import gc
import weakref

import numpy as np
import pytest

from xlab import tokenizer
from xlab.corpus import DocumentStore
from xlab.tokenizer import MARKER

from conftest import (edit_array_file, make_vocab, oracle_bpe_merges, pretoken_counts,
                      unequal_merged_layout)


def test_single_merge_ab():
    store = DocumentStore(["abababab"])
    # base = unk + {marker, a, b}; one extra slot -> exactly one merge
    vocab = tokenizer.train_bpe(store, vocab_size=5)
    assert vocab.merges == (("a", "b"),)
    assert "ab" in vocab.pieces


def test_no_merges_at_base_size():
    store = DocumentStore(["aaaa"])
    vocab = tokenizer.train_bpe(store, vocab_size=3)  # unk, marker, 'a'
    assert vocab.merges == ()
    assert set(vocab.pieces) == {"<unk>", MARKER, "a"}


def test_vocab_size_below_alphabet_rejected():
    store = DocumentStore(["abc"])
    with pytest.raises(tokenizer.TokenizerError, match="smaller than the base"):
        tokenizer.train_bpe(store, vocab_size=3)


def test_first_merges_match_recount_oracle():
    store = DocumentStore(["low low lower"])
    word_counts = pretoken_counts(store.documents)
    base = 1 + len({c for w in word_counts for c in w} | {MARKER})
    vocab = tokenizer.train_bpe(store, vocab_size=base + 3)
    assert vocab.merges == tuple(oracle_bpe_merges(word_counts, 3))


def test_longer_corpus_merges_match_recount_oracle(tiny_store):
    word_counts = pretoken_counts(tiny_store.documents)
    base = 1 + len({c for w in word_counts for c in w} | {MARKER})
    vocab = tokenizer.train_bpe(tiny_store, vocab_size=base + 25)
    assert vocab.merges == tuple(oracle_bpe_merges(word_counts, 25))


def _zipfian_store(seed: int, n_words: int, n_docs: int) -> DocumentStore:
    """Documents of words drawn with Zipfian frequency from a seeded lexicon of short
    words over five letters; most words are drawn a handful of times, so many pair
    counts tie."""
    rng = np.random.default_rng(seed)
    lexicon = sorted({"".join(rng.choice(list("abcde"), size=rng.integers(2, 8)))
                      for _ in range(n_words)})
    p = 1.0 / np.arange(1, len(lexicon) + 1)
    draws = rng.choice(len(lexicon), size=20 * n_words, p=p / p.sum())
    docs = np.array_split(np.array(lexicon)[draws], n_docs)
    return DocumentStore(" ".join(doc) for doc in docs)


def test_zipfian_corpus_merges_match_recount_oracle():
    # a pair's count falls under it at many merges, so its heap entry is queued
    # again at its count before it can be taken
    store = _zipfian_store(seed=5, n_words=400, n_docs=7)
    word_counts = pretoken_counts(store.documents)
    assert len(word_counts) >= 300
    vocab = tokenizer.train_bpe(store, vocab_size=1 + 6 + 60)  # unk, marker, a-e
    assert vocab.merges == tuple(oracle_bpe_merges(word_counts, 60))


def test_training_determinism(tiny_store):
    a = tokenizer.train_bpe(tiny_store, vocab_size=60)
    b = tokenizer.train_bpe(tiny_store, vocab_size=60)
    assert a.pieces == b.pieces and a.merges == b.merges


def test_encode_decode_roundtrip(tiny_vocab):
    text = "the cat sat on the mat"
    assert tokenizer.decode(tiny_vocab, tokenizer.encode(tiny_vocab, text)) == text


def test_encode_empty(tiny_vocab):
    assert tokenizer.encode(tiny_vocab, "") == []
    assert tokenizer.decode(tiny_vocab, []) == ""


def test_unseen_characters_one_unk_each(tiny_vocab):
    ids = tokenizer.encode(tiny_vocab, "cat zq")
    assert ids.count(tiny_vocab.unk_id) == 2  # 'z' and 'q' unseen


def test_decode_rejects_out_of_range(tiny_vocab):
    with pytest.raises(tokenizer.TokenizerError, match=r"ids 60..60 are outside \[0, 60\)"):
        tokenizer.decode(tiny_vocab, [len(tiny_vocab)])


def test_vocab_file_roundtrip(tmp_path, tiny_vocab):
    p = tmp_path / "v.vocab"
    tokenizer.save_vocab(p, tiny_vocab)
    back = tokenizer.load_vocab(p)
    assert back.pieces == tiny_vocab.pieces
    assert back.merges == tiny_vocab.merges
    assert tokenizer.vocab_digest(back) == tokenizer.vocab_digest(tiny_vocab)


def test_tab_pieces_round_trip_and_digest_apart(tmp_path):
    vocab = tokenizer.Vocabulary(("<unk>", "a\t", "b", "a\tb"), merges=(("a\t", "b"),))
    other = tokenizer.Vocabulary(("<unk>", "a", "\tb", "a\tb"), merges=(("a", "\tb"),))
    for v in (vocab, other):
        tokenizer.save_vocab(tmp_path / "v.vocab", v)
        assert tokenizer.load_vocab(tmp_path / "v.vocab") == v
    assert tokenizer.vocab_digest(vocab) != tokenizer.vocab_digest(other)


def _saved_vocab(tmp_path, edit):
    """A saved vocabulary whose fields ``edit`` changed, under a valid digest."""
    path = tmp_path / "v.vocab"
    tokenizer.save_vocab(path, tokenizer.Vocabulary(
        ("<unk>", "a", "b", "ab", "aba"), merges=(("a", "b"), ("ab", "a"))))
    edit_array_file(path, lambda fields, arrays: edit(fields))
    return path


def test_load_vocab_header_without_pieces_is_tokenizer_error(tmp_path):
    p = _saved_vocab(tmp_path, lambda fields: fields.pop("pieces"))
    with pytest.raises(tokenizer.TokenizerError,
                       match=rf"{p}: Vocabulary with missing fields \['pieces'\]"):
        tokenizer.load_vocab(p)


def test_load_vocab_missing_last_merge_is_tokenizer_error(tmp_path):
    p = _saved_vocab(tmp_path, lambda fields: fields["merges"].pop())
    with pytest.raises(tokenizer.TokenizerError,
                       match=f"{p}: merge 0 \\('a', 'b'\\) did not produce piece 4"):
        tokenizer.load_vocab(p)


def test_load_vocab_merge_without_tab_is_tokenizer_error(tmp_path):
    p = _saved_vocab(tmp_path, lambda fields: fields["merges"].__setitem__(-1, "aba"))
    with pytest.raises(tokenizer.TokenizerError,
                       match=rf"{p}: merges\[1\] must be tuple\[str, str\], got 'aba'"):
        tokenizer.load_vocab(p)


@pytest.mark.parametrize("edit, match", [
    (lambda fields: fields.update(unk_id=1), "unk_id 1 and marker .* are not 0 and"),
    (lambda fields: fields.update(unk_id=True), "unk_id True and marker .* are not 0 and"),
    (lambda fields: fields.update(marker="#"), "unk_id 0 and marker '#' are not 0 and"),
    (lambda fields: fields["pieces"].append(7), "pieces.5. must be a str, got 7"),
])
def test_load_vocab_checks_unk_id_marker_and_types(tmp_path, edit, match):
    p = _saved_vocab(tmp_path, edit)
    with pytest.raises(tokenizer.TokenizerError, match=f"{p}: .*{match}"):
        tokenizer.load_vocab(p)


def test_a_merge_over_a_non_piece_or_the_unk_piece_is_refused(tmp_path):
    # under an id encoder, such a merge would join unseen characters
    match = "is over a string that is not a piece or is the unk piece"
    for pieces, merges in [(("a", "b", "ab"), (("a", "b"),)),
                           (("<unk>", "a", "ab"), (("a", "b"),)),
                           (("<unk>", "a", "<unk>a"), (("<unk>", "a"),))]:
        with pytest.raises(tokenizer.TokenizerError, match=f"merge 0 .* {match}"):
            tokenizer.Vocabulary(pieces, merges)
    for edit in (lambda fields: fields["pieces"].__setitem__(slice(2), ["a", "<unk>"]),  # unk "a"
                 lambda fields: fields["pieces"].__setitem__(2, "c")):  # "b" is no piece
        p = _saved_vocab(tmp_path, edit)
        with pytest.raises(tokenizer.TokenizerError, match=rf"{p}: merge 0 \('a', 'b'\) {match}"):
            tokenizer.load_vocab(p)


def _count_encoded_words(monkeypatch, seen=lambda: None) -> list[tuple[str, object]]:
    """The pretokens the merge loop encodes from now on, each recorded with
    ``seen()`` called just before it is encoded."""
    calls, encode_word = [], tokenizer._encode_word

    def counted(*args):
        calls.append((args[-1], seen()))
        return encode_word(*args)

    monkeypatch.setattr(tokenizer, "_encode_word", counted)
    return calls


def test_word_cache_is_bounded(monkeypatch):
    vocab = tokenizer.Vocabulary(pieces=("<unk>", MARKER, "w", "0", "1"), merges=())
    calls = _count_encoded_words(monkeypatch, lambda: len(vocab._word_ids))
    n_words = tokenizer.WORD_CACHE_SIZE + 100
    tokenizer.encode(vocab, " ".join(f"w{i:b}" for i in range(n_words)))
    assert len(calls) == n_words
    # a word is stored after its encoding, so the cache never held more than its size
    assert max(size for _, size in calls) == tokenizer.WORD_CACHE_SIZE - 1
    assert len(vocab._word_ids) <= tokenizer.WORD_CACHE_SIZE
    # the first word was evicted and encodes the same again; the last is not re-encoded
    last = f"w{n_words - 1:b}"
    ids = tokenizer.encode(vocab, f"w0 {last}")
    assert ids[:3] == [1, 2, 3] and len(ids) == 3 + len(last) + 1
    assert [word for word, _ in calls[n_words:]] == [MARKER + "w0"]


def test_tokenizing_the_training_store_runs_no_merge_loop(monkeypatch, tiny_store):
    vocab = tokenizer.train_bpe(tiny_store, vocab_size=60)
    calls = _count_encoded_words(monkeypatch)
    ids = tokenizer.tokenize_store(vocab, tiny_store).ids
    assert calls == []
    cold = tokenizer.tokenize_store(tokenizer.Vocabulary(vocab.pieces, vocab.merges), tiny_store)
    assert len(calls) == len(pretoken_counts(tiny_store.documents))
    assert np.array_equal(cold.ids, ids)


def test_training_seeds_at_most_the_cache_size_most_frequent_words(monkeypatch):
    monkeypatch.setattr(tokenizer, "WORD_CACHE_SIZE", 3)
    counts = {"abab": 5, "ba": 4, "aab": 3, "bba": 2, "b": 1}
    store = DocumentStore([" ".join(w for w, n in counts.items() for _ in range(n))])
    vocab = tokenizer.train_bpe(store, vocab_size=7)
    cold = tokenizer.Vocabulary(vocab.pieces, vocab.merges)
    assert vocab._word_ids == {w: tuple(tokenizer.encode(cold, w)) for w in ("abab", "ba", "aab")}


def test_a_miss_never_evicts_a_seeded_word(monkeypatch):
    monkeypatch.setattr(tokenizer, "WORD_CACHE_SIZE", 3)
    counts = {"abab": 5, "ba": 4, "aab": 3, "bba": 2, "b": 1}
    store = DocumentStore([" ".join(w for w, n in counts.items() for _ in range(n))])
    vocab = tokenizer.train_bpe(store, vocab_size=7)
    seeded = dict(vocab._word_ids)
    calls = _count_encoded_words(monkeypatch)
    ids = tokenizer.tokenize_store(vocab, store).ids
    assert [word for word, _ in calls] == [MARKER + "bba", MARKER + "b"]
    assert seeded.items() <= vocab._word_ids.items() and len(seeded) == 3
    cold = tokenizer.Vocabulary(vocab.pieces, vocab.merges)
    assert np.array_equal(tokenizer.tokenize_store(cold, store).ids, ids)
    # the third miss fills the misses' share; the fourth drops those three, and no seeded word
    tokenizer.encode(vocab, "a aa bb")
    assert vocab._word_ids.keys() == seeded.keys() | {"aa", "bb"}


def test_dropped_vocabulary_is_freed_without_the_cycle_collector(tiny_store):
    vocab = tokenizer.train_bpe(tiny_store, vocab_size=40)
    tokenizer.encode(vocab, "the cat sat")
    ref = weakref.ref(vocab)
    gc.disable()
    try:
        del vocab
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Cloning


def test_clone_layout_arithmetic():
    cv = tokenizer.clone_vocab(make_vocab(100), n_languages=2, anchor_fraction=0.0)
    assert cv.total_size == 200
    assert cv.luts[1][5] == 105
    assert cv.luts[0][5] == 5


def test_clone_fully_anchored_degenerate():
    cv = tokenizer.clone_vocab(make_vocab(100), n_languages=3, anchor_fraction=1.0)
    assert cv.total_size == 100
    assert np.array_equal(cv.luts[0], cv.luts[2])


def test_clone_partial_anchor_size():
    cv = tokenizer.clone_vocab(make_vocab(100), n_languages=2, anchor_fraction=0.4, seed=5)
    assert len(cv.anchor_ids) == 40
    assert cv.total_size == 160


def test_clone_anchor_ids_keep_low_ids():
    cv = tokenizer.clone_vocab(make_vocab(50), n_languages=2, anchor_fraction=0.3, seed=2)
    # anchors occupy [0, A) in anchor_id order
    anchors = cv.luts[0][cv.anchor_ids]
    assert np.array_equal(np.sort(anchors), np.arange(len(cv.anchor_ids)))
    assert np.array_equal(anchors, cv.luts[1][cv.anchor_ids])


def test_language_mapping_roundtrip():
    cv = tokenizer.clone_vocab(make_vocab(64), n_languages=3, anchor_fraction=0.25, seed=9)
    base = np.random.default_rng(0).integers(0, 64, size=200)
    for n in range(3):
        assert np.array_equal(cv.to_base(cv.map_ids(base, n)), base)


def test_map_ids_refuses_ids_outside_the_language():
    # -1 used to wrap to the last id of the language, 24 to raise a bare IndexError
    cv = tokenizer.clone_vocab(make_vocab(24), n_languages=2, anchor_fraction=0.25, seed=1)
    for ids, shown in (([-1], "-1..-1"), ([3, 24], "3..24")):
        with pytest.raises(tokenizer.TokenizerError,
                           match=rf"ids {shown} are outside \[0, 24\) of language 1"):
            cv.map_ids(np.array(ids), 1)
    assert np.array_equal(cv.map_ids([0, 23], 1), cv.luts[1][[0, 23]])
    assert cv.map_ids(np.empty(0, dtype=np.int64), 1).size == 0


def test_to_base_refuses_ids_outside_the_layout():
    # -1 used to project to base id 23, 42 to raise a bare IndexError
    cv = tokenizer.clone_vocab(make_vocab(24), n_languages=2, anchor_fraction=0.25, seed=1)
    assert cv.total_size == 42
    for ids, shown in (([-1], "-1..-1"), ([3, 42], "3..42")):
        with pytest.raises(tokenizer.TokenizerError,
                           match=rf"model ids {shown} are outside \[0, 42\) of the layout"):
            cv.to_base(np.array(ids))
    assert np.array_equal(cv.to_base([0, 41]), cv._inverse[[0, 41]])
    assert cv.to_base(np.empty(0, dtype=np.int64)).size == 0


def test_to_base_refuses_a_layout_that_is_not_a_clone_layout():
    # model id 2 is language A's "y", source id 2, and used to project to base id 1
    layout = unequal_merged_layout()
    assert layout.total_size == 6
    with pytest.raises(tokenizer.TokenizerError, match="not a clone layout"):
        layout.to_base([0, 2])
    with pytest.raises(tokenizer.TokenizerError, match="not a clone layout"):
        layout.duplicated_base_ids()
    # equal-size side-by-side vocabularies tile the id space, so they pass
    disjoint = tokenizer.disjoint_layout([3, 3])
    assert disjoint.to_base([1, 4]).tolist() == [1, 1]
    assert disjoint.duplicated_base_ids().tolist() == [0, 1, 2]


def test_to_base_builds_its_inverse_once():
    cv = tokenizer.clone_vocab(make_vocab(64), n_languages=2, anchor_fraction=0.25, seed=1)
    ids = cv.map_ids(np.arange(64), 1)
    first = cv.to_base(ids)
    inverse = cv._inverse
    assert np.array_equal(cv.to_base(ids), first)
    assert cv._inverse is inverse


def test_the_unk_id_the_marker_and_the_layout_size_are_not_settable():
    vocab = make_vocab(6)
    assert (vocab.unk_id, vocab.marker) == (0, MARKER)
    with pytest.raises(tokenizer.TokenizerError, match="begin with the unk piece"):
        tokenizer.Vocabulary((), ())
    for call in (lambda: tokenizer.Vocabulary(vocab.pieces, (), unk_id=1),
                 lambda: tokenizer.Vocabulary(vocab.pieces, (), marker="#"),
                 lambda: tokenizer.clone_vocab(vocab, 2, selection="frequency"),
                 lambda: tokenizer.IdLayout(luts=(np.arange(3),), total_size=9)):
        with pytest.raises(TypeError):
            call()
    # one past the largest id of any table, a Python int
    for sizes, total in (([3, 0, 2], 5), ([0], 0)):
        size = tokenizer.disjoint_layout(sizes).total_size
        assert size == total and type(size) is int
    cv = tokenizer.clone_vocab(vocab, 3, anchor_fraction=0.5, seed=1)
    assert cv.total_size == 3 + 3 * 3


@pytest.mark.parametrize("luts, anchors, match", [
    ((np.array([1.5, 0.2]),), (), "ids in language 0's table must be integers, got dtype float64"),
    ((np.arange(3), np.array([-1, 0])), (), r"ids -1..0 are outside .* in language 1's table"),
    ((np.zeros((2, 2), int),), (), "each language's table and anchor_ids must be 1-d"),
    ((np.arange(3),), [[0]], "each language's table and anchor_ids must be 1-d"),
    ((np.arange(3),), [0.0], "anchor_ids must be integers"),
    ((np.arange(3),), [3], r"anchor_ids 3..3 are outside \[0, 3\)"),
    ([], (), "at least one language"),
    (np.arange(3), (), "at least one language"),
], ids=["float table", "negative table", "2-d table", "2-d anchors", "float anchors",
        "anchor past the base", "no table", "an array, not a tuple of tables"])
def test_a_layout_refuses_tables_that_are_not_ids(luts, anchors, match):
    # a float table mapped 0 to 1.5, a negative one mapped 0 to -1, and a list table
    # failed with a bare AttributeError
    with pytest.raises(tokenizer.TokenizerError, match=match):
        tokenizer.IdLayout(luts, anchor_ids=anchors)


def test_a_layout_stores_its_tables_as_contiguous_int64():
    layout = tokenizer.IdLayout(([2, 0, 1], np.arange(6, dtype=np.uint8)[::2]), anchor_ids=[1])
    for table in (*layout.luts, layout.anchor_ids):
        assert table.dtype == np.int64 and table.flags.c_contiguous
    assert layout.map_ids([0, 2], 0).tolist() == [2, 1]
    assert layout.map_ids([1, 2], 1).tolist() == [2, 4]


def test_a_layout_needs_a_language():
    # a layout of no language used to fail later, in language_slices, with a bare IndexError
    for build in (lambda: tokenizer.disjoint_layout([]), lambda: tokenizer.IdLayout(luts=())):
        with pytest.raises(tokenizer.TokenizerError, match="at least one language"):
            build()


def test_layouts_compare_by_identity():
    # equal layouts used to raise "The truth value of an array ... is ambiguous"
    a, b = (tokenizer.clone_vocab(make_vocab(10), 2, anchor_fraction=0.3, seed=1)
            for _ in range(2))
    assert a == a and a != b and len({a, b, a}) == 2
    assert tokenizer.relabel(a, [0, 1]) != a


def test_relabel_identity_and_involution():
    cv = tokenizer.clone_vocab(make_vocab(100), n_languages=2, anchor_fraction=0.0)
    ident = tokenizer.relabel(cv, [0, 1])
    assert np.array_equal(ident.luts, cv.luts)
    twice = tokenizer.relabel(tokenizer.relabel(cv, [1, 0]), [1, 0])
    assert np.array_equal(twice.luts, cv.luts)


def test_relabel_swaps_blocks():
    cv = tokenizer.clone_vocab(make_vocab(100), n_languages=2, anchor_fraction=0.0)
    swapped = tokenizer.relabel(cv, [1, 0])
    assert swapped.luts[0][5] == 105 and swapped.luts[1][5] == 5


def test_relabel_rejects_non_bijection():
    cv = tokenizer.clone_vocab(make_vocab(10), n_languages=2, anchor_fraction=0.0)
    with pytest.raises(tokenizer.TokenizerError, match="bijection"):
        tokenizer.relabel(cv, [0, 0])


# ---------------------------------------------------------------------------
# Merging


def _vocab_from(pieces):
    return tokenizer.Vocabulary(pieces=tuple(pieces), merges=())


def test_merge_small_union():
    a = _vocab_from([MARKER + "the", "chat"])
    b = _vocab_from([MARKER + "the", "chien"])
    mv = tokenizer.merge_vocabs(a, b)
    assert mv.layout.total_size == 3
    assert mv.shared == {MARKER + "the"}


def test_merge_identical_vocabs():
    a = _vocab_from(["x", "y", "z"])
    mv = tokenizer.merge_vocabs(a, a)
    assert mv.layout.total_size == 3
    assert np.array_equal(mv.layout.luts[0], mv.layout.luts[1])


def test_language_slices_refuse_a_layout_that_is_not_a_clone_layout():
    cv = tokenizer.clone_vocab(make_vocab(10), n_languages=3, anchor_fraction=0.3)
    assert cv.language_slices() == (slice(0, 3), [slice(3, 10), slice(10, 17), slice(17, 24)])
    merged = tokenizer.merge_vocabs(_vocab_from(["<unk>", "a", "b"]),
                                    _vocab_from(["<unk>", "c", "d"])).layout
    assert merged.total_size == 5
    # blocks over ids 0-5 of 8, and a second block that ends at 6, past the id space
    for layout in (tokenizer.disjoint_layout([3, 5]), merged):
        with pytest.raises(tokenizer.TokenizerError, match="not a clone layout"):
            layout.language_slices()


def test_merge_size_identity_and_remap_roundtrip():
    rng = np.random.default_rng(4)
    common = [f"c{i}" for i in range(rng.integers(20, 60))]
    a = _vocab_from([f"a{i}" for i in range(200)] + common)
    b = _vocab_from(common + [f"b{i}" for i in range(170)])
    mv = tokenizer.merge_vocabs(a, b)
    remap_a, remap_b = mv.layout.luts
    overlap = len(set(a.pieces) & set(b.pieces))  # independent recount
    assert mv.layout.total_size == len(a.pieces) + len(b.pieces) - overlap
    for i, p in enumerate(a.pieces):
        assert mv.pieces[remap_a[i]] == p
    for i, p in enumerate(b.pieces):
        assert mv.pieces[remap_b[i]] == p
    # a shared surface form has exactly one final id
    for p in mv.shared:
        assert remap_a[a.pieces.index(p)] == remap_b[b.pieces.index(p)]


@pytest.mark.parametrize("sizes, match", [
    ([2.5, 3], "sizes must be integers, got dtype float64"),
    ([-2, 3], r"sizes -2..3 are outside \[0, "),
], ids=["float", "negative"])
def test_disjoint_layout_refuses_sizes_that_are_not_ints_of_at_least_zero(sizes, match):
    # [2.5, 3] gave id 2 to both languages; [-2, 3] blamed language 1's table
    with pytest.raises(tokenizer.TokenizerError, match=match):
        tokenizer.disjoint_layout(sizes)
