"""Property tests: the window layout, the vocabulary and token-stream file
round trips, and the one-block meaning of ``vocab_groups=None``."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xlab import corpus, evaluator, model, tokenizer

from conftest import make_model

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
