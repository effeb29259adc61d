"""Property tests: the window layout, the vocabulary, token-stream and array
file round trips, the one-block meaning of ``vocab_groups=None``, the bitwise
equivariance of training and evaluation under clone permutations, the document
join, BPE training against the recount oracle, BPE encoding against the string
reference, the BPE round trip, a trained vocabulary's ids against its cold copy's,
role relabelling and the policy marginal."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xlab import corpus, evaluator, mixer, model, tokenizer, util

from conftest import (make_model, make_vocab, oracle_bpe_merges, pretoken_counts,
                      reference_encode)

FAST = settings(max_examples=40, deadline=None)
WITH_TMP_PATH = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def doc_window_stride(draw):
    window = draw(st.integers(2, 40))
    return draw(st.integers(0, 200)), window, draw(st.integers(1, window - 1))


@FAST
@given(doc_window_stride())
def test_window_spans_score_every_target_once(args):
    n, window, stride = args
    spans = evaluator.window_spans(n, window, stride)
    scored = [p for _, first, end in spans for p in range(first, end)]
    assert sorted(scored) == list(range(1, n))
    for start, first, end in spans:
        assert 0 <= start < first <= end <= n  # every target has context
        assert end - start <= window


# any text, with tabs, line breaks and spaces drawn often
_PIECE = st.text(st.characters() | st.sampled_from("\t\n\r "), min_size=1, max_size=4)


@st.composite
def vocabularies(draw, piece=_PIECE):
    """The first base piece is the unk piece, and no merge is over it. The
    merges come in any order, so a merge may be over a piece that a later
    merge makes."""
    pieces = draw(st.lists(piece, min_size=1, max_size=12, unique=True))
    n_base = len(pieces)
    merges = []
    for _ in range(draw(st.integers(0, 8)) if n_base > 1 else 0):
        sides = st.sampled_from(pieces[1:])
        left, right = draw(sides), draw(sides)
        if left + right not in pieces:
            pieces.append(left + right)
            merges.append((left, right))
    merges = draw(st.permutations(merges))
    return tokenizer.Vocabulary(pieces=tuple(pieces[:n_base]) + tuple(a + b for a, b in merges),
                                merges=tuple(merges))


@WITH_TMP_PATH
@given(vocabularies())
def test_vocab_file_roundtrip_is_exact(tmp_path, vocab):
    path = tmp_path / "v.vocab"
    tokenizer.save_vocab(path, vocab)
    back = tokenizer.load_vocab(path)
    assert back == vocab
    assert tokenizer.vocab_digest(back) == tokenizer.vocab_digest(vocab)


# base pieces of one letter each, so that drawn merges chain and apply to drawn text
_LETTER = st.sampled_from("ab▁c")


@st.composite
def vocabularies_and_texts(draw):
    """A drawn vocabulary, and text of its pieces, their characters, characters
    outside them and whitespace."""
    vocab = draw(st.one_of(vocabularies(), vocabularies(_LETTER)))
    inside = sorted({c for p in (*vocab.pieces, vocab.marker) for c in p})
    chunk = (st.sampled_from(vocab.pieces) | st.sampled_from(inside) | st.characters()
             | st.sampled_from(" \n"))
    return vocab, "".join(draw(st.lists(chunk, max_size=30)))


@settings(max_examples=300, deadline=None)
@given(vocabularies_and_texts())
# merge 0 is over the piece merge 1 makes: every site of merge 1 goes in one
# pass, so "abab" is "ab" "ab", not "aba" "b"
@example((tokenizer.Vocabulary(("<unk>", tokenizer.MARKER, "a", "b", "aba", "ab"),
                               (("ab", "a"), ("a", "b"))), "abab x"))
def test_encode_matches_the_string_reference(case):
    vocab, text = case
    assert tokenizer.encode(vocab, text) == reference_encode(vocab, text)


@st.composite
def token_streams(draw):
    lengths = draw(st.lists(st.integers(1, 20), max_size=6))
    ids = draw(st.lists(st.integers(0, 2**32 - 1), min_size=sum(lengths), max_size=sum(lengths)))
    digest = draw(st.binary(min_size=32, max_size=32)).hex()
    return corpus.TokenStream(
        ids=np.asarray(ids, dtype=np.uint32),
        doc_boundaries=np.cumsum(lengths, dtype=np.uint64),
        vocab_digest=digest,
    )


@WITH_TMP_PATH
@given(token_streams())
def test_token_stream_file_roundtrip_is_exact(tmp_path, stream):
    path = tmp_path / "s.xlts"
    corpus.write_token_stream(path, stream)
    back = corpus.read_token_stream(path)
    assert back.ids.dtype == np.uint32 and back.doc_boundaries.dtype == np.uint64
    assert np.array_equal(back.ids, stream.ids)
    assert np.array_equal(back.doc_boundaries, stream.doc_boundaries)
    assert back.vocab_digest == stream.vocab_digest


@st.composite
def named_arrays(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True))
    return {name: draw(hnp.arrays(
        draw(st.sampled_from(["<u4", "<u8", "<f4", "<f8"])),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    )) for name in names}


class LayoutError(ValueError):
    pass


@WITH_TMP_PATH
@given(named_arrays(), st.dictionaries(st.sampled_from(["a", "b"]), st.integers()))
def test_array_file_roundtrip_is_exact(tmp_path, arrays, fields):
    path = tmp_path / "a.bin"
    util.write_arrays(path, b"TEST", 3, fields, arrays)
    header, back = util.read_arrays(path, b"TEST", 3, LayoutError)
    assert {k: header[k] for k in fields} == fields
    assert list(back) == list(arrays)
    for name, a in arrays.items():
        got = back[name]
        assert (got.dtype.str, got.shape) == (a.dtype.str, a.shape), name
        assert got.tobytes() == a.tobytes() and got.flags.writeable, name
        assert got.flags.aligned, name  # a view of the payload, or a copy where misaligned
    raw = path.read_bytes()
    need = sum(a.nbytes for a in arrays.values())
    # the header, then the payload one byte longer or shorter
    for rest, payload in [(raw[41:] + b"\0", need + 1)] + [(raw[41:-1], need - 1)] * (need > 0):
        path.write_bytes(raw[:41] + rest)
        with pytest.raises(LayoutError, match=f"{path.name}: digest mismatch"):
            util.read_arrays(path, b"TEST", 3, LayoutError)
        path.write_bytes(raw[:9] + hashlib.sha256(rest).digest() + rest)  # digest made to fit
        with pytest.raises(LayoutError, match=f"{path.name}: the payload is {payload} bytes, "
                                              f"the header lists {need}$"):
            util.read_arrays(path, b"TEST", 3, LayoutError)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    tie=st.booleans(),
    dtype=st.sampled_from(["float32", "float64"]),
    n_layers=st.integers(0, 2),
    shape=st.sampled_from([(7,), (1, 5), (3, 6)]),
)
def test_no_groups_is_the_one_block_grouping(seed, tie, dtype, n_layers, shape):
    state = make_model(n_layers=n_layers, tie_embeddings=tie, dtype=dtype, seed=seed)
    v = state.config.vocab_size
    rng = np.random.default_rng(seed)
    ids, targets = rng.integers(0, v, size=(2, *shape))
    loss_none, grads_none = model.loss_and_grads(state, ids, targets, vocab_groups=None)
    one_block = (slice(0, 0), [slice(0, v)])
    loss_one, grads_one = model.loss_and_grads(state, ids, targets, vocab_groups=one_block)
    assert loss_none == loss_one
    assert (model.sequence_logprobs(state, ids).tobytes()
            == model.sequence_logprobs(state, ids, one_block).tobytes())
    assert list(grads_none) == list(grads_one) == list(state.params)
    for name, g in grads_none.items():
        assert g.tobytes() == grads_one[name].tobytes(), name
        assert not any(np.shares_memory(g, p) for p in state.params.values()), name
    arrays = list(grads_none.values())
    for i, g in enumerate(arrays):
        assert not any(np.shares_memory(g, h) for h in arrays[i + 1 :])


@st.composite
def clone_permutations(draw):
    """(anchors, ids per block, a permutation of the 2-4 blocks, tied, dtype, seed)."""
    q = tuple(draw(st.permutations(range(draw(st.integers(2, 4))))))
    return (draw(st.integers(0, 3)), draw(st.integers(1, 12)), q, draw(st.booleans()),
            draw(st.sampled_from(["float32", "float64"])), draw(st.integers(0, 2**16)))


@settings(max_examples=30, deadline=None)
@given(clone_permutations())
@example((0, 9, (1, 0), True, "float32", 13))
@example((3, 9, (1, 0), True, "float32", 13))
def test_clone_permutation_is_bitwise_equivariant(case):
    """Moving every clone block's ids to another block, in the model and in the
    data, moves the loss, the gradients and every evaluation result with them,
    bit for bit."""
    n_anchor, n_dup, q, tie, dtype, seed = case
    base = n_anchor + n_dup
    layout = tokenizer.clone_vocab(make_vocab(base), len(q), (n_anchor + 0.5) / base, seed)
    groups = layout.language_slices()
    total = layout.total_size
    perm = np.arange(total)  # block n's ids move to block q[n]; the anchors stay
    for n, b in enumerate(groups[1]):
        perm[b] = np.arange(total)[groups[1][q[n]]]
    state = make_model(n_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=total,
                       max_seq_len=8, tie_embeddings=tie, dtype=dtype, seed=seed)
    by_id = ("token_embedding", "output_head.weight")[: 1 if tie else 2]
    moved = state.copy()
    for name in by_id:
        moved.params[name][perm] = state.params[name]

    rng = np.random.default_rng(seed)
    ids, targets = rng.integers(0, total, size=(2, 3, 8))
    loss, grads = model.loss_and_grads(state, ids, targets, groups)
    loss_moved, grads_moved = model.loss_and_grads(moved, perm[ids], perm[targets], groups)
    assert loss == loss_moved
    for name, g in grads.items():
        g_moved = grads_moved[name][perm] if name in by_id else grads_moved[name]
        assert g.tobytes() == g_moved.tobytes(), name

    assert (model.sequence_logprobs(state, ids, groups).tobytes()
            == model.sequence_logprobs(moved, perm[ids], groups).tobytes())
    doc = rng.integers(0, total, size=21)
    got, got_moved = (evaluator.sliding_logprobs(s, d, 8, 3, groups)
                      for s, d in ((state, doc), (moved, perm[doc])))
    assert got[1].tobytes() == got_moved[1].tobytes()

    lengths = [1, 2, 9, 20]
    stream = corpus.TokenStream(ids=rng.integers(0, base, size=sum(lengths)).astype(np.uint32),
                                doc_boundaries=np.cumsum(lengths, dtype=np.uint64),
                                vocab_digest="0" * 64)
    res, res_moved = (evaluator.per_language_eval(s, layout, stream, window=8, stride=3)
                      for s in (state, moved))
    for n in range(len(q)):
        assert res[n] == res_moved[q[n]], n


@FAST
@given(token_streams(), st.one_of(st.none(), st.integers(0, 2**40)))
def test_document_join_matches_per_document_reference(stream, separator_id):
    joined = mixer.concat_with_separator(stream, separator_id)
    docs = [stream.document(i).astype(np.int64) for i in range(stream.n_documents)]
    reference = []
    for i, doc in enumerate(docs):
        if i and separator_id is not None:
            reference.append(separator_id)
        reference.extend(doc.tolist())
    assert joined.dtype == np.int64
    assert joined.tolist() == reference


_WORD = st.text(alphabet="abcdeé", min_size=1, max_size=6)
_SPACE = st.sampled_from([" ", "  ", "\t", "\n"])


@st.composite
def bpe_cases(draw):
    """A vocabulary trained on drawn words, and text over the corpus alphabet
    with arbitrary whitespace."""
    words = draw(st.lists(_WORD, min_size=3, max_size=30))
    store = corpus.DocumentStore([" ".join(words)])
    alphabet = sorted(set("".join(words)))
    extra_merges = draw(st.integers(0, 12))
    try:
        vocab = tokenizer.train_bpe(store, 2 + len(alphabet) + extra_merges)
    except tokenizer.TokenizerError:  # too few distinct pairs for that many merges
        assume(False)
    pieces = draw(st.lists(st.tuples(_SPACE, st.text(alphabet=alphabet, min_size=1)),
                           max_size=8))
    text = "".join(space + word for space, word in pieces) + draw(_SPACE)
    return vocab, text


@FAST
@given(bpe_cases())
def test_bpe_round_trip_on_the_training_alphabet(case):
    vocab, text = case
    ids = tokenizer.encode(vocab, text)
    assert vocab.unk_id not in ids
    assert tokenizer.decode(vocab, ids) == " ".join(text.split())


def _every_merge(text: str) -> list[tuple[str, str]]:
    """Every merge the recount oracle finds in the text, in order."""
    return oracle_bpe_merges(pretoken_counts([text]), len(text))


@st.composite
def bpe_training_cases(draw):
    """Text over a 2-4 letter alphabet whose words repeat and include runs
    like ``aaaa`` and ``abab``, and a merge count from 0 to two past the
    oracle's last merge."""
    alphabet = draw(st.sampled_from(["ab", "abc", "abcd"]))
    letter = st.sampled_from(alphabet)
    word = st.one_of(
        st.text(alphabet=alphabet, min_size=1, max_size=8),
        st.builds(lambda c, n: c * n, letter, st.integers(2, 9)),
        st.builds(lambda a, b, n: (a + b) * n, letter, letter, st.integers(2, 5)),
    )
    words = draw(st.lists(st.tuples(word, st.integers(1, 4)), min_size=1, max_size=10))
    text = " ".join(w for w, repeats in words for _ in range(repeats))
    return text, draw(st.integers(0, len(_every_merge(text)) + 2))


@settings(max_examples=150, deadline=None)
@given(bpe_training_cases())
@example(("aaaa aaaa abab", 5))
@example(("aaaaaaa abababab ba", 40))  # past exhaustion
@example(("aaaaa aaaaa aaa", 5))  # odd equal-symbol runs: aa merges left to right
@example(("abaab ab", 4))  # a left symbol that recurs without its right
def test_bpe_training_matches_the_recount_oracle(case):
    text, n_merges = case
    every_merge = _every_merge(text)
    store = corpus.DocumentStore([text])
    size = 2 + len(set(text) - {" "}) + n_merges
    if n_merges > len(every_merge):
        with pytest.raises(tokenizer.TokenizerError,
                           match=f"corpus exhausted after {len(every_merge)} merges"):
            tokenizer.train_bpe(store, size)
    else:
        assert tokenizer.train_bpe(store, size).merges == tuple(every_merge[:n_merges])


@settings(max_examples=100, deadline=None)
@given(bpe_training_cases(), st.text(alphabet="abcde \n", max_size=40))
@example(("aaaa aaaa abab", 5), "aaa ab e abab")
def test_a_trained_vocabulary_encodes_as_its_cold_copy(case, held_out):
    """Training seeds the word cache with its own segmentations; a copy with
    an empty cache runs the merge loop on every word."""
    text, n_merges = case
    words = text.split()
    store = corpus.DocumentStore(" ".join(words[i : i + 3]) for i in range(0, len(words), 3))
    try:
        trained = tokenizer.train_bpe(store, 2 + len(set(text) - {" "}) + n_merges)
    except tokenizer.TokenizerError:  # too few distinct pairs for that many merges
        assume(False)
    cold = tokenizer.Vocabulary(trained.pieces, trained.merges)
    ids, cold_ids = (tokenizer.tokenize_store(v, store) for v in (trained, cold))
    assert np.array_equal(ids.ids, cold_ids.ids)
    assert np.array_equal(ids.doc_boundaries, cold_ids.doc_boundaries)
    assert tokenizer.encode(trained, held_out) == tokenizer.encode(cold, held_out)


@st.composite
def layouts_and_permutations(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        layout = tokenizer.clone_vocab(
            make_vocab(draw(st.integers(2, 30))), n,
            anchor_fraction=draw(st.sampled_from([0.0, 0.25, 1.0])), seed=draw(st.integers(0, 99)),
        )
    else:
        layout = tokenizer.disjoint_layout(draw(st.lists(st.integers(1, 20), min_size=n,
                                                         max_size=n)))
    p = draw(st.permutations(range(n)))
    q = draw(st.permutations(range(n)))
    return layout, p, q


@FAST
@given(layouts_and_permutations(), st.data())
def test_relabel_is_the_role_swap(case, data):
    layout, p, q = case
    base_size = min(len(lut) for lut in layout.luts)
    x = np.asarray(data.draw(st.lists(st.integers(0, base_size - 1), max_size=20)), np.int64)
    relabelled = tokenizer.relabel(layout, p)
    for n in range(layout.n_languages):
        assert np.array_equal(relabelled.map_ids(x, n), layout.map_ids(x, p[n]))
    twice = tokenizer.relabel(relabelled, q)
    once = tokenizer.relabel(layout, [p[q[n]] for n in range(len(q))])
    assert len(twice.luts) == len(once.luts)
    for a, b in zip(twice.luts, once.luts):
        assert np.array_equal(a, b)
    assert twice.total_size == once.total_size == layout.total_size
    assert np.array_equal(twice.anchor_ids, layout.anchor_ids)


@st.composite
def staged_policies(draw):
    n = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, 19), max_size=3)))
    ends = [c / 20 for c in cuts] + [1.0]
    stages = []
    for end in ends:
        weights = np.asarray(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)), float)
        assume(weights.sum() > 0)
        stages.append({"until": end, "probs": (weights / weights.sum()).tolist()})
    return mixer.parse_policy(stages)


# fixed before running: five binomial standard deviations at the worst case
# p = 1/2, plus one step per stage for the stage ends falling between steps
SAMPLE_STEPS = 4000


@settings(max_examples=20, deadline=None)
@given(staged_policies(), st.integers(0, 2**32 - 1))
def test_marginal_matches_sampled_tag_frequencies(policy, seed):
    rng = np.random.default_rng(seed)
    tags = [mixer.sample_language(policy, step, SAMPLE_STEPS, rng) for step in range(SAMPLE_STEPS)]
    freq = np.bincount(tags, minlength=policy.n_languages) / SAMPLE_STEPS
    tolerance = 5 * math.sqrt(0.25 / SAMPLE_STEPS) + len(policy.stages) / SAMPLE_STEPS
    assert np.all(np.abs(freq - mixer.marginal(policy)) <= tolerance)
