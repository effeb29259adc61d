import gc
import weakref

import numpy as np
import pytest

from xlab import tokenizer
from xlab.corpus import DocumentStore
from xlab.tokenizer import MARKER

from conftest import make_vocab


def oracle_bpe_merges(word_counts: dict[str, int], n_merges: int):
    """Exhaustive pair-frequency recount after every merge; ties broken
    lexicographically. Independent of the incremental trainer."""
    words = {w: list(w) for w in word_counts}
    merges = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for w, syms in words.items():
            for pair in zip(syms, syms[1:]):
                counts[pair] = counts.get(pair, 0) + word_counts[w]
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        merges.append(best)
        for w in words:
            syms, out, i = words[w], [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best:
                    out.append(best[0] + best[1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    return merges


def test_single_merge_ab():
    store = DocumentStore.from_documents(["abababab"])
    # base = unk + {marker, a, b}; one extra slot -> exactly one merge
    vocab = tokenizer.train_bpe(store, vocab_size=5)
    assert vocab.merges == (("a", "b"),)
    assert "ab" in vocab.pieces


def test_no_merges_at_base_size():
    store = DocumentStore.from_documents(["aaaa"])
    vocab = tokenizer.train_bpe(store, vocab_size=3)  # unk, marker, 'a'
    assert vocab.merges == ()
    assert set(vocab.pieces) == {"<unk>", MARKER, "a"}


def test_vocab_size_below_alphabet_rejected():
    store = DocumentStore.from_documents(["abc"])
    with pytest.raises(tokenizer.TokenizerError, match="smaller than the base"):
        tokenizer.train_bpe(store, vocab_size=3)


def test_first_merges_match_recount_oracle():
    text = "low low lower"
    store = DocumentStore.from_documents([text])
    word_counts = {}
    for w in text.split():
        key = MARKER + w
        word_counts[key] = word_counts.get(key, 0) + 1
    base = 1 + len({c for w in word_counts for c in w} | {MARKER})
    vocab = tokenizer.train_bpe(store, vocab_size=base + 3)
    assert vocab.merges == tuple(oracle_bpe_merges(word_counts, 3))


def test_longer_corpus_merges_match_recount_oracle(tiny_store):
    word_counts = {}
    for doc in tiny_store.documents:
        for w in doc.split():
            key = MARKER + w
            word_counts[key] = word_counts.get(key, 0) + 1
    base = 1 + len({c for w in word_counts for c in w} | {MARKER})
    vocab = tokenizer.train_bpe(tiny_store, vocab_size=base + 25)
    assert vocab.merges == tuple(oracle_bpe_merges(word_counts, 25))


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
    with pytest.raises(tokenizer.TokenizerError, match="out of range"):
        tokenizer.decode(tiny_vocab, [len(tiny_vocab)])


def test_vocab_file_roundtrip(tmp_path, tiny_vocab):
    p = tmp_path / "v.vocab"
    tokenizer.save_vocab(p, tiny_vocab)
    back = tokenizer.load_vocab(p)
    assert back.pieces == tiny_vocab.pieces
    assert back.merges == tiny_vocab.merges
    assert tokenizer.vocab_digest(back) == tokenizer.vocab_digest(tiny_vocab)


def test_load_vocab_header_without_pieces_is_tokenizer_error(tmp_path, tiny_vocab):
    p = tmp_path / "v.vocab"
    tokenizer.save_vocab(p, tiny_vocab)
    lines = p.read_text(encoding="utf-8").split("\n")
    lines[0] = " ".join(kv for kv in lines[0].split() if not kv.startswith("pieces="))
    p.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(tokenizer.TokenizerError, match="lacks field 'pieces'"):
        tokenizer.load_vocab(p)


def test_load_vocab_missing_last_merge_is_tokenizer_error(tmp_path, tiny_vocab):
    p = tmp_path / "v.vocab"
    tokenizer.save_vocab(p, tiny_vocab)
    lines = p.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == "" and "\t" in lines[-2]
    p.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    n_merges = len(tiny_vocab.merges)
    with pytest.raises(tokenizer.TokenizerError, match=f"{p}: .*{n_merges} merges"):
        tokenizer.load_vocab(p)


def test_load_vocab_merge_without_tab_is_tokenizer_error(tmp_path, tiny_vocab):
    p = tmp_path / "v.vocab"
    tokenizer.save_vocab(p, tiny_vocab)
    lines = p.read_text(encoding="utf-8").split("\n")
    lines[-2] = lines[-2].replace("\t", "")
    p.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(tokenizer.TokenizerError, match=f"{p}: merge .* not two tab-separated"):
        tokenizer.load_vocab(p)


def test_word_cache_is_bounded():
    vocab = tokenizer.Vocabulary(pieces=("<unk>", MARKER, "w", "0", "1"), merges=())
    n_words = tokenizer.WORD_CACHE_SIZE + 100
    tokenizer.encode(vocab, " ".join(f"w{i:b}" for i in range(n_words)))
    info = vocab._word_encoder.cache_info()
    assert info.misses == n_words
    assert info.currsize == info.maxsize == tokenizer.WORD_CACHE_SIZE
    # the first word was evicted and encodes the same again; the last is a hit
    last = f"w{n_words - 1:b}"
    ids = tokenizer.encode(vocab, f"w0 {last}")
    assert ids[:3] == [1, 2, 3] and len(ids) == 3 + len(last) + 1
    assert vocab._word_encoder.cache_info().hits == 1


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


def test_clone_frequency_selection():
    counts = np.arange(50)[::-1]  # id 0 most frequent
    cv = tokenizer.clone_vocab(
        make_vocab(50), 2, anchor_fraction=0.2, selection="frequency", counts=counts
    )
    assert np.array_equal(cv.anchor_ids, np.arange(10))


def test_language_mapping_roundtrip():
    cv = tokenizer.clone_vocab(make_vocab(64), n_languages=3, anchor_fraction=0.25, seed=9)
    rng = np.random.default_rng(0)
    base = rng.integers(0, 64, size=200)
    s = cv.map_ids(base, 1)
    assert np.array_equal(cv.map_language(cv.map_language(s, 2), 1), s)
    assert np.array_equal(cv.to_base(s), base)


def test_to_base_builds_its_inverse_once():
    cv = tokenizer.clone_vocab(make_vocab(64), n_languages=2, anchor_fraction=0.25, seed=1)
    ids = cv.map_ids(np.arange(64), 1)
    first = cv.to_base(ids)
    inverse = cv._inverse
    assert np.array_equal(cv.to_base(ids), first)
    assert cv._inverse is inverse


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


def test_merge_rejects_marker_mismatch():
    a = tokenizer.Vocabulary(pieces=("x",), merges=(), marker="#")
    b = tokenizer.Vocabulary(pieces=("x",), merges=(), marker=MARKER)
    with pytest.raises(tokenizer.TokenizerError, match="marker"):
        tokenizer.merge_vocabs(a, b)
