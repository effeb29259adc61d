"""Property tests: the window layout, the vocabulary, token-stream and array
file round trips, the one-block meaning of ``vocab_groups=None``, the document
join, the BPE round trip, role relabelling and the policy marginal."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xlab import corpus, evaluator, mixer, model, tokenizer, util

from conftest import make_model, make_vocab

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


# pieces as BPE makes them: no whitespace, so no line break and no tab
_PIECE = st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                 min_size=1, max_size=4)


@st.composite
def vocabularies(draw):
    pieces = draw(st.lists(_PIECE, min_size=1, max_size=12, unique=True))
    merges = []
    for _ in range(draw(st.integers(0, 8))):
        left, right = draw(st.sampled_from(pieces)), draw(st.sampled_from(pieces))
        if left + right not in pieces:
            pieces.append(left + right)
            merges.append((left, right))
    return tokenizer.Vocabulary(pieces=tuple(pieces), merges=tuple(merges))


@WITH_TMP_PATH
@given(vocabularies())
def test_vocab_file_roundtrip_is_exact(tmp_path, vocab):
    path = tmp_path / "v.vocab"
    tokenizer.save_vocab(path, vocab)
    back = tokenizer.load_vocab(path)
    assert back == vocab
    assert tokenizer.vocab_digest(back) == tokenizer.vocab_digest(vocab)


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
    raw = path.read_bytes()
    path.write_bytes(raw + b"\0")
    with pytest.raises(LayoutError, match=f"{path.name}: bytes after the digested payload"):
        util.read_arrays(path, b"TEST", 3, LayoutError)
    if any(a.size for a in arrays.values()):
        path.write_bytes(raw[:-1])
        with pytest.raises(LayoutError, match=f"{path.name}: truncated payload"):
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
    assert list(grads_none) == list(grads_one) == list(state.params)
    for name, g in grads_none.items():
        assert g.tobytes() == grads_one[name].tobytes(), name
        assert not any(np.shares_memory(g, p) for p in state.params.values()), name
    arrays = list(grads_none.values())
    for i, g in enumerate(arrays):
        assert not any(np.shares_memory(g, h) for h in arrays[i + 1 :])


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
    store = corpus.DocumentStore.from_documents([" ".join(words)])
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
