import itertools

import numpy as np
import pytest

from xlab import alignment, mixer, tokenizer, trainer
from xlab.alignment import ParallelPair

from conftest import make_model, make_vocab, markov_stream


def brute_force_matching_weight(weights: np.ndarray) -> float:
    """Exhaustive max over all injections of the shorter side into the longer."""
    n, m = weights.shape
    w = weights if n <= m else weights.T
    n, m = w.shape
    best = -np.inf
    for cols in itertools.permutations(range(m), n):
        best = max(best, sum(w[i, c] for i, c in enumerate(cols)))
    return best


def matched_weight(weights: np.ndarray, pairs) -> float:
    return float(sum(weights[i, j] for i, j in pairs))


def fake_hidden(weights: np.ndarray):
    """Hidden states whose single-layer cosine matrix equals ``weights``.

    Rows of A are scaled copies of an orthonormal-ish basis; instead of
    reverse-engineering vectors we just exploit match_tokens' contract by
    passing unit vectors built from an SVD-free trick: for tests of the
    matcher itself we call linear_sum_assignment indirectly through a
    one-layer identity embedding, so here we simply return matrices whose
    normalized Gram matrix is ``weights`` via Cholesky on a PSD completion.
    """
    # Build unit vectors u_i, v_j with u_i . v_j = weights[i, j] by embedding
    # [I, W; W^T, I]-style block matrix; add ridge until PSD.
    n, m = weights.shape
    for ridge in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0):
        g = np.block([[np.eye(n) * (1 + ridge), weights],
                      [weights.T, np.eye(m) * (1 + ridge)]])
        evals = np.linalg.eigvalsh(g)
        if evals.min() > 1e-9:
            chol = np.linalg.cholesky(g)
            a, b = chol[:n], chol[n:]
            return [a], [b]
    raise AssertionError("could not embed weight matrix")


def test_match_identity_dominant():
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ha, hb = fake_hidden(w / 2)  # cosine scaled but argmax structure kept
    pairs = alignment.match_tokens(ha, hb)
    assert pairs == [(0, 0), (1, 1), (2, 2)]


def test_match_random_matrices_against_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 9))
        w = rng.uniform(-1, 1, size=(n, m)) * 0.45
        ha, hb = fake_hidden(w)
        pairs = alignment.match_tokens(ha, hb)
        assert len(pairs) == min(n, m)
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        # compare achieved weight against exhaustive enumeration, using the
        # actual cosine matrix realized by the embedding
        na = ha[0] / np.linalg.norm(ha[0], axis=1, keepdims=True)
        nb = hb[0] / np.linalg.norm(hb[0], axis=1, keepdims=True)
        actual_w = na @ nb.T
        assert matched_weight(actual_w, pairs) == pytest.approx(
            brute_force_matching_weight(actual_w), abs=1e-9
        )


def cloned_pair_through(cv, stream, count=24):
    base = stream.ids[:count]
    return ParallelPair(cv.map_ids(base, 0), cv.map_ids(base, 1), "cloned")


@pytest.fixture(scope="module")
def trained_cloned():
    vocab_size = 24
    stream, _ = markov_stream(6000, vocab_size, seed=21)
    cv = tokenizer.clone_vocab(make_vocab(vocab_size), 2, anchor_fraction=0.0)
    st = make_model(n_layers=2, d_model=32, n_heads=2, d_ff=48,
                    vocab_size=cv.total_size, max_seq_len=24, dtype="float32", seed=3)
    policy = mixer.parse_policy("50/50")
    source = trainer.ClonedMixtureSource(
        mixer.StreamCursor(stream, seq_len=24), cv, policy, batch_size=8, seed=5
    )
    cfg = trainer.TrainConfig(total_steps=150, batch_size=8, seq_len=24,
                              warmup_steps=20, seed=5, lr_max=2e-3, lr_min=2e-4)
    trainer.train(st, source, cfg, vocab_groups=cv.language_slices())
    return st, cv, stream


def test_embedding_similarity_copied_rows_is_one():
    cv = tokenizer.clone_vocab(make_vocab(50), 2, anchor_fraction=0.0)
    st = make_model(vocab_size=cv.total_size, d_model=64, seed=2)
    emb = st.params["token_embedding"]
    a, blocks = cv.language_slices()
    emb[blocks[1]] = emb[blocks[0]]
    rep = alignment.embedding_similarity(st, cv, seed=0)
    assert rep.mean == pytest.approx(1.0, abs=1e-12)


def test_embedding_similarity_fresh_init_matches_baseline():
    cv = tokenizer.clone_vocab(make_vocab(1100), 2, anchor_fraction=0.05, seed=1)
    st = make_model(n_layers=0, n_heads=1, d_ff=8, vocab_size=cv.total_size,
                    d_model=64, seed=9)
    rep = alignment.embedding_similarity(st, cv, seed=4)
    assert rep.n_pairs >= 1000
    assert abs(rep.mean - rep.baseline) < 0.02


def test_embedding_similarity_requires_duplicates():
    cv = tokenizer.clone_vocab(make_vocab(40), 2, anchor_fraction=1.0)
    st = make_model(vocab_size=cv.total_size, seed=0)
    with pytest.raises(alignment.AlignmentError, match="anchored"):
        alignment.embedding_similarity(st, cv)


def test_embedding_similarity_frequency_buckets():
    cv = tokenizer.clone_vocab(make_vocab(60), 2, anchor_fraction=0.0)
    st = make_model(vocab_size=cv.total_size, d_model=64, seed=2)
    freq = np.concatenate([np.full(30, 5), np.full(30, 500)])
    rep = alignment.embedding_similarity(st, cv, freq=freq, seed=0)
    assert set(rep.by_frequency_decade) == {0, 2}


def test_hidden_similarity_identical_sequences(trained_cloned):
    st, cv, stream = trained_cloned
    ids = cv.map_ids(stream.ids[:20], 0)
    pair = ParallelPair(ids, ids, "cloned")
    sims = alignment.hidden_similarity(st, pair)
    assert sims.shape == (2,)
    assert np.allclose(sims, 1.0, atol=1e-6)


def test_hidden_similarity_fully_anchored_pair():
    cv = tokenizer.clone_vocab(make_vocab(30), 2, anchor_fraction=1.0)
    st = make_model(vocab_size=cv.total_size, max_seq_len=16, seed=4)
    base = np.random.default_rng(0).integers(0, 30, size=12)
    pair = ParallelPair(cv.map_ids(base, 0), cv.map_ids(base, 1), "cloned")
    sims = alignment.hidden_similarity(st, pair)
    assert np.allclose(sims, 1.0, atol=1e-12)


def test_hidden_similarity_bounded(trained_cloned):
    st, cv, stream = trained_cloned
    pair = cloned_pair_through(cv, stream)
    sims = alignment.hidden_similarity(st, pair)
    assert np.all(sims <= 1.0 + 1e-9) and np.all(sims >= -1.0 - 1e-9)


def test_hidden_similarity_positional_requires_equal_lengths():
    st = make_model(seed=1)
    pair = ParallelPair(np.arange(5), np.arange(6), "real")
    with pytest.raises(alignment.AlignmentError, match="equal-length"):
        alignment.hidden_similarity(st, pair, matching="positional")


def test_matching_mode_beats_positional_mean(trained_cloned):
    # the App-G sanity property on clones: max-weight matching maximizes the
    # across-layer mean, so it can never fall below the positional assignment
    st, cv, stream = trained_cloned
    pair = cloned_pair_through(cv, stream)
    pos = alignment.hidden_similarity(st, pair, matching="positional")
    mw = alignment.hidden_similarity(st, pair, matching="max_weight")
    assert mw.mean() >= pos.mean() - 1e-9


def test_matching_recovers_positions_on_diagonal_dominance(trained_cloned):
    st, cv, stream = trained_cloned
    base = stream.ids[:16]
    ta = alignment.match_tokens(
        alignment_forward_blocks(st, cv.map_ids(base, 0)),
        alignment_forward_blocks(st, cv.map_ids(base, 0)),
    )
    assert ta == [(i, i) for i in range(16)]


def alignment_forward_blocks(st, ids):
    from xlab.model import forward

    return forward(st, ids).hidden_states[1:]


def test_gradient_similarity_same_sequence_is_one(trained_cloned):
    st, cv, stream = trained_cloned
    ids = cv.map_ids(stream.ids[:16], 0)
    rep = alignment.gradient_similarity(st, ParallelPair(ids, ids, "cloned"))
    for g, c in rep.per_group.items():
        assert c == pytest.approx(1.0, abs=1e-6), g
    assert rep.macro_average == pytest.approx(1.0, abs=1e-6)


def test_gradient_similarity_disjoint_embedding_cosine_zero():
    vocab_size = 20
    cv = tokenizer.clone_vocab(make_vocab(vocab_size), 2, anchor_fraction=0.0)
    st = make_model(vocab_size=cv.total_size, max_seq_len=12,
                    tie_embeddings=False, seed=6)
    base = np.random.default_rng(2).integers(0, vocab_size, size=10)
    pair = ParallelPair(cv.map_ids(base, 0), cv.map_ids(base, 1), "cloned")
    rep = alignment.gradient_similarity(st, pair)
    # untied: the token-embedding gradient touches disjoint rows exactly
    assert rep.embedding_groups["token_embedding"] == 0.0
    assert "output_head" in rep.per_group  # untied head participates in macro
    assert set(rep.embedding_groups) == {"token_embedding", "position_embedding"}


def test_parallel_pair_validation():
    with pytest.raises(alignment.AlignmentError):
        ParallelPair(np.arange(3), np.arange(4), "cloned")
    with pytest.raises(alignment.AlignmentError):
        ParallelPair(np.arange(3), np.arange(3), "weird")
    cv = tokenizer.clone_vocab(make_vocab(30), 2, anchor_fraction=0.0)
    good = ParallelPair(cv.map_ids(np.arange(5), 0), cv.map_ids(np.arange(5), 1), "cloned")
    good.validate_cloned(cv)
    bad = ParallelPair(cv.map_ids(np.arange(5), 0), cv.map_ids(np.arange(1, 6), 1), "cloned")
    with pytest.raises(alignment.AlignmentError, match="base-equivalent"):
        bad.validate_cloned(cv)
