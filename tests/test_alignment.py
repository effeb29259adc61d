import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from xlab import alignment, mixer, tokenizer, trainer
from xlab.alignment import ParallelPair

from conftest import make_model, make_vocab, markov_stream, unequal_merged_layout


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
    matcher itself we reach it through a one-layer identity embedding, so
    here we simply return matrices whose normalized Gram matrix is
    ``weights`` via Cholesky on a PSD completion.
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


def _scipy_pairs(weights: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return sorted(zip(rows.tolist(), cols.tolist()))


def _oracle_shapes(rng):
    """1x1, 1xm, nx1 and square shapes, then random ones of both orientations."""
    yield from [(1, 1)] + [(1, m) for m in range(2, 40)] + [(n, 1) for n in range(2, 40)]
    yield from ((n, n) for n in range(2, 50))
    for _ in range(1000):
        n, m = (int(x) for x in rng.integers(1, 50, size=2))
        yield n, m
        yield m, n


def test_max_weight_matching_is_scipys_linear_sum_assignment():
    rng = np.random.default_rng(24)
    checked = 0
    for n, m in _oracle_shapes(rng):
        weights = rng.uniform(-1, 1, size=(n, m))
        assert alignment._max_weight_matching(weights) == _scipy_pairs(weights), (n, m)
        checked += 1
    assert checked >= 2000


def test_max_weight_matching_breaks_ties_as_scipy_does():
    # small integer weights tie often; constant ones make every assignment optimal
    rng = np.random.default_rng(25)
    for _ in range(400):
        n, m = (int(x) for x in rng.integers(1, 12, size=2))
        weights = rng.integers(0, 3, size=(n, m)).astype(np.float64)
        assert alignment._max_weight_matching(weights) == _scipy_pairs(weights), weights
    for shape in [(1, 1), (3, 3), (2, 5), (5, 2)]:
        weights = np.ones(shape)
        assert alignment._max_weight_matching(weights) == _scipy_pairs(weights), shape


def test_match_tokens_is_scipys_matching_of_the_mean_layer_cosine():
    rng = np.random.default_rng(26)
    for _ in range(200):
        ta, tb = (int(x) for x in rng.integers(1, 20, size=2))
        layers = int(rng.integers(1, 4))
        ha = [rng.standard_normal((ta, 8)).astype(np.float32) for _ in range(layers)]
        hb = [rng.standard_normal((tb, 8)).astype(np.float32) for _ in range(layers)]
        weights = sum(_cosine_matrix(a, b) for a, b in zip(ha, hb)) / layers
        assert alignment.match_tokens(ha, hb) == _scipy_pairs(weights)


def _cosine_matrix(a, b):
    na = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-300)
    nb = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-300)
    return na.astype(np.float64) @ nb.astype(np.float64).T


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_match_tokens_refuses_a_non_finite_hidden_state(bad):
    ha = [np.ones((3, 4)), np.ones((3, 4))]
    hb = [np.eye(4)[:2], np.eye(4)[:2]]
    ha[1][2, 0] = bad
    with pytest.raises(alignment.AlignmentError, match="non-finite cosines"):
        alignment.match_tokens(ha, hb)


def test_max_weight_hidden_similarity_refuses_a_nan_hidden_state():
    st = make_model(seed=1)
    st.params["token_embedding"][3, 0] = np.nan
    pair = ParallelPair(np.arange(5), np.array([4, 3, 2]), "real")
    with pytest.raises(alignment.AlignmentError, match="non-finite cosines"):
        alignment.hidden_similarity(st, pair, matching="max_weight")


def _num_den_cosine_rows(a, b):
    """The row cosine ``_cosine_rows`` keeps: a . b / (|a| |b|) in float64, zero rows 0."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    num = (a * b).sum(axis=-1)
    den = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cosine_rows_keeps_its_formula_bit_for_bit_and_writes_no_input(dtype):
    rng = np.random.default_rng(27)
    scales = 10.0 ** rng.integers(-3, 4, (2, 40, 1))
    a, b = (rng.standard_normal((2, 40, 16)) * scales).astype(dtype)
    a[3], b[5], a[7], b[7] = 0, 0, 0, 0
    a_in, b_in = a.copy(), b.copy()
    got = alignment._cosine_rows(a, b)
    assert got.dtype == np.float64 and np.array_equal(got, _num_den_cosine_rows(a, b))
    assert got[[3, 5, 7]].tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(a, a_in) and np.array_equal(b, b_in)


def test_cosine_rows_scales_only_the_finite_rows_whose_squares_overflow():
    # numpy's overflow warning would fail the test: warnings are errors here
    assert alignment._cosine_rows(np.full((2, 4), 1e160), np.full((2, 4), 1e160)).tolist() \
        == [1.0, 1.0]
    a, b = np.random.default_rng(28).standard_normal((2, 6, 16))
    big_a, big_b = a.copy(), b.copy()
    big_a[[1, 4]] *= 1e160
    big_b[4] *= -1e200
    got = alignment._cosine_rows(big_a, big_b)
    keep, over = [0, 2, 3, 5], [1, 4]
    assert np.array_equal(got[keep], _num_den_cosine_rows(a[keep], b[keep]))
    assert np.allclose(got[over], _num_den_cosine_rows(a[over], b[over] * [[1], [-1]]),
                       rtol=1e-12, atol=0)
    assert np.array_equal(big_a[keep], a[keep]) and np.array_equal(big_a[over], a[over] * 1e160)
    big_a[4, 0] = np.nan
    with pytest.raises(alignment.AlignmentError, match="non-finite cosines"):
        alignment._cosine_rows(big_a, big_b)


def test_match_tokens_weighs_float64_states_by_their_unit_rows_and_writes_no_input(monkeypatch):
    seen = []
    monkeypatch.setattr(alignment, "_max_weight_matching", lambda w: seen.append(w.copy()) or [])
    rng = np.random.default_rng(28)
    ha = [rng.standard_normal((7, 8)) for _ in range(3)]
    hb = [rng.standard_normal((9, 8)) for _ in range(3)]
    ha[1][2] = 0
    before = [h.copy() for h in ha + hb]
    alignment.match_tokens(ha, hb)
    assert np.array_equal(seen[0], sum(_cosine_matrix(a, b) for a, b in zip(ha, hb)) / 3)
    assert all(np.array_equal(h, h_in) for h, h_in in zip(ha + hb, before))


def test_a_float32_zero_row_matches_as_a_float64_one():
    # the float32 norm floor of 1e-300 was 0, so a zero row divided 0 by 0 and the
    # matching was refused
    rng = np.random.default_rng(29)
    ha = [rng.standard_normal((4, 6)) for _ in range(2)]
    hb = [rng.standard_normal((5, 6)) for _ in range(2)]
    ha[0][1], hb[1][3] = 0, 0
    as32 = alignment.match_tokens([h.astype(np.float32) for h in ha],
                                  [h.astype(np.float32) for h in hb])
    assert as32 == alignment.match_tokens(ha, hb)
    assert len(as32) == 4


@pytest.mark.parametrize("view", ["positional", "max_weight", "embedding"])
def test_a_nan_embedding_is_refused_by_every_hidden_and_embedding_view(view):
    # positional hidden_similarity scored the NaN states 0 ([0, 0]) and embedding_similarity
    # gave a finite mean, while max_weight matching refused them
    cv = tokenizer.clone_vocab(make_vocab(20), 2)
    st = make_model(n_layers=2, d_model=16, vocab_size=cv.total_size, seed=4)
    pair = cloned_pair_through(cv, markov_stream(200, 20, seed=4)[0], count=10)
    st.params["token_embedding"][pair.seq_a[4], 0] = np.nan
    run = {"embedding": lambda: alignment.embedding_similarity(st, cv)}.get(
        view, lambda: alignment.hidden_similarity(st, pair, matching=view))
    with pytest.raises(alignment.AlignmentError, match="non-finite cosines"):
        run()


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


def test_embedding_similarity_refuses_a_layout_that_is_not_a_clone_layout():
    # it used to pair A's ids 0-3 with B's ids 0, 2, 4 and 5 as if they were equivalent
    layout = unequal_merged_layout()
    st = make_model(vocab_size=layout.total_size, seed=0)
    with pytest.raises(tokenizer.TokenizerError, match="not a clone layout"):
        alignment.embedding_similarity(st, layout)


def test_embedding_similarity_frequency_buckets():
    cv = tokenizer.clone_vocab(make_vocab(60), 2, anchor_fraction=0.0)
    st = make_model(vocab_size=cv.total_size, d_model=64, seed=2)
    freq = np.concatenate([np.full(30, 5), np.full(30, 500)])
    rep = alignment.embedding_similarity(st, cv, freq=freq, seed=0)
    assert set(rep.by_frequency_decade) == {0, 2}


@pytest.mark.parametrize("freq", [
    np.full(30, 5),  # shorter than the base vocabulary: a bare IndexError
    np.full(61, 5),
    np.r_[np.full(59, 5.0), np.nan],  # a decade of -9223372036854775808
    np.r_[np.full(59, 5.0), np.inf],
    np.r_[np.full(59, 5), -1],
    np.full((60, 1), 5),
    np.full(60, "5"),
], ids=["short", "long", "nan", "inf", "negative", "2-d", "str"])
def test_embedding_similarity_refuses_a_freq_without_one_count_per_base_id(freq):
    cv = tokenizer.clone_vocab(make_vocab(60), 2, anchor_fraction=0.0)
    st = make_model(vocab_size=cv.total_size, d_model=64, seed=2)
    with pytest.raises(alignment.AlignmentError, match="one finite count >= 0 for each of the 60"):
        alignment.embedding_similarity(st, cv, freq=freq, seed=0)


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


def test_a_zero_norm_gradient_group_is_reported_only_in_undefined_groups(caplog):
    # with mlp_fc2's weight zero, no gradient reaches mlp_fc1 or ln2, which feeds only it;
    # a log warning also said so
    st = make_model(seed=3)
    st.params["layers.0.mlp_fc2.weight"][:] = 0
    ids = np.arange(1, 9)
    with caplog.at_level("DEBUG"):
        rep = alignment.gradient_similarity(st, ParallelPair(ids, ids[::-1], "cloned"))
    assert rep.undefined_groups == ("layers.0.ln2", "layers.0.mlp_fc1")
    assert not set(rep.undefined_groups) & rep.per_group.keys()
    assert np.isfinite(rep.macro_average)
    assert caplog.records == []


# the model's bare ValueError, and a bare IndexError for the layout, before
@pytest.mark.parametrize("call, match", [
    (lambda st, pair: alignment.hidden_similarity(st, pair), r"seq_b 1..23 are outside \[0, 23\)"),
    (lambda st, pair: alignment.gradient_similarity(st, pair),
     r"seq_b 1..23 are outside \[0, 23\)"),
    (lambda st, pair: alignment.embedding_similarity(
        st, tokenizer.clone_vocab(make_vocab(12), 2)),
     "a layout of 24 ids does not fit the model's vocab_size 23"),
], ids=["hidden_similarity", "gradient_similarity", "embedding_similarity"])
def test_ids_and_layouts_that_do_not_fit_the_model_raise_alignment_error(call, match):
    st = make_model(vocab_size=23, seed=1)
    with pytest.raises(alignment.AlignmentError, match=match):
        call(st, ParallelPair([1, 2, 3], [1, 23, 3], "cloned"))


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


def test_validate_cloned_refuses_a_layout_that_is_not_a_clone_layout():
    # model id 2 is A's "y" and id 1 is A's "x"; both used to project to base id 1
    with pytest.raises(tokenizer.TokenizerError, match="not a clone layout"):
        ParallelPair([2], [1], "cloned").validate_cloned(unequal_merged_layout())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("anchor_fraction", [0.0, 0.25])
def test_gradient_similarity_with_vocab_groups_is_clone_swap_equivariant(seed, anchor_fraction):
    # without vocab_groups the vocabulary sums run over the swapped clones in another order
    cv = tokenizer.clone_vocab(make_vocab(20), 2, anchor_fraction=anchor_fraction, seed=seed)
    groups = cv.language_slices()
    _, (b0, b1) = groups
    perm = np.arange(cv.total_size)
    perm[b0], perm[b1] = np.arange(cv.total_size)[b1], np.arange(cv.total_size)[b0]
    st = make_model(n_layers=2, d_model=16, vocab_size=cv.total_size, dtype="float32",
                    seed=seed)
    swapped = st.copy()
    swapped.params["token_embedding"] = st.params["token_embedding"][perm]
    pair = cloned_pair_through(cv, markov_stream(200, 20, seed=seed)[0], count=12)

    rep = alignment.gradient_similarity(st, pair, vocab_groups=groups)
    rep_swapped = alignment.gradient_similarity(
        swapped, ParallelPair(perm[pair.seq_a], perm[pair.seq_b], "cloned"), vocab_groups=groups)
    assert rep.per_group == rep_swapped.per_group  # bitwise
    assert rep.macro_average == rep_swapped.macro_average
    emb, emb_swapped = rep.embedding_groups, rep_swapped.embedding_groups
    assert emb["position_embedding"] == emb_swapped["position_embedding"]
    # its float64 dot runs over permuted rows
    assert emb["token_embedding"] == pytest.approx(emb_swapped["token_embedding"], abs=1e-12)
