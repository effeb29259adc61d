import numpy as np
import pytest

from xlab import mixer, tokenizer, trainer
from xlab.corpus import CorpusError, TokenStream

from conftest import make_vocab


def two_stage_90v10() -> mixer.MixPolicy:
    return mixer.parse_policy("90v10")


def test_probs_at_stage_selection():
    policy = two_stage_90v10()
    total = 1000
    assert np.allclose(mixer.probs_at(policy, 250, total), [0.9, 0.1])
    # half-open interval: the switch step itself already uses the next stage
    assert np.allclose(mixer.probs_at(policy, 500, total), [0.1, 0.9])
    assert np.allclose(mixer.probs_at(policy, 999, total), [0.1, 0.9])


def test_probs_at_single_stage():
    policy = mixer.parse_policy("50/50")
    for step in (0, 3, 9):
        assert np.allclose(mixer.probs_at(policy, step, 10), [0.5, 0.5])


def test_probs_at_rejects_out_of_range():
    policy = mixer.parse_policy("50/50")
    with pytest.raises(mixer.PolicyError):
        mixer.probs_at(policy, 10, 10)


def test_marginal_two_stage_balances():
    assert np.allclose(mixer.marginal(two_stage_90v10()), [0.5, 0.5])


def test_marginal_single_stage():
    assert np.allclose(mixer.marginal(mixer.parse_policy("90/10")), [0.9, 0.1])


def test_marginal_four_stage_hand_sum():
    policy = mixer.parse_policy(
        [
            {"until": 0.25, "probs": [0.9, 0.1]},
            {"until": 0.5, "probs": [0.1, 0.9]},
            {"until": 0.75, "probs": [0.5, 0.5]},
            {"until": 1.0, "probs": [0.5, 0.5]},
        ]
    )
    # hand sum: 0.25*(0.9+0.1+0.5+0.5) = 0.5 for each language
    assert np.allclose(mixer.marginal(policy), [0.5, 0.5])


def test_policy_validation():
    with pytest.raises(mixer.PolicyError):
        mixer.parse_policy([{"until": 0.5, "probs": [0.9, 0.1]}])  # doesn't end at 1
    with pytest.raises(mixer.PolicyError):
        mixer.parse_policy([{"until": 1.0, "probs": [0.8, 0.1]}])  # doesn't sum to 1
    with pytest.raises(mixer.PolicyError):
        mixer.parse_policy("70/40")
    with pytest.raises(mixer.PolicyError):
        mixer.parse_policy("90/10", n_languages=3)


@pytest.mark.parametrize("spec, match", [
    ([{"probs": [0.5, 0.5]}], "stage 0 must be a mapping"),
    ([{"until": 1.0}], "stage 0 must be a mapping"),
    (5, "a stage list is a list of stages, got 5"),
    (["x"], "stage 0 must be a mapping"),
    ({"until": 1.0, "probs": [0.5, 0.5]}, "a stage list is a list of stages"),
    ([{"until": 1.0, "probs": [[0.5, 0.5]]}], r"stage ending at 1.0 .* got shape \(1, 2\)"),
    ([{"until": "end", "probs": [1.0]}], r"stage 0 must be an \(end, probabilities\) pair with "
                                          "a real end"),
], ids=["no until", "no probs", "not a list", "not a mapping", "bare stage", "2-d probs",
        "until not a number"])
def test_policy_refuses_a_stage_list_of_the_wrong_shape(spec, match):
    # these raised a bare KeyError or TypeError, and 2-d probs made a one-language policy
    with pytest.raises(mixer.PolicyError, match=match):
        mixer.parse_policy(spec)


@pytest.mark.parametrize("build, match", [
    (lambda: mixer.MixPolicy(stages=5), "non-empty tuple of stages, got 5"),
    (lambda: mixer.MixPolicy(stages=((1.0,),)), r"stage 0 must be an \(end, probabilities\) pair"),
    (lambda: mixer.MixPolicy(stages=((1.0, [1.0], 3),)), "stage 0 must be an"),
    (lambda: mixer.MixPolicy(stages=(("1.0", [1.0]),)), "stage 0 must be an .* real end"),
    (lambda: mixer.MixPolicy(stages=((0.5, [1.0]), (True, [1.0]))), "stage 1 must be an"),
    (lambda: mixer.parse_policy([{"until": True, "probs": [1.0]}]),
     r"stage 0 must be an \(end, probabilities\) pair with a real end"),
], ids=["not a tuple", "no probabilities", "three parts", "str end", "bool end", "bool until"])
def test_policy_refuses_a_stage_that_is_not_an_end_and_probabilities(build, match):
    # these raised a bare TypeError or ValueError, and an end of True was taken as 1.0
    with pytest.raises(mixer.PolicyError, match=match):
        build()


@pytest.mark.parametrize("end, probs, match", [
    ("1.0", [1.0], r"stage 0 must be an \(end, probabilities\) pair with a real end"),
    (1.0, ["x"], r"stage 0 probabilities \['x'\] are not numbers"),
    (1.0, {"a": 1}, r"stage 0 probabilities \{'a': 1\} are not numbers"),
], ids=["str end", "str probability", "dict probabilities"])
def test_a_stage_gets_one_answer_from_the_stage_list_and_the_constructor(end, probs, match):
    # parse_policy took the end "1.0" that MixPolicy refused, and MixPolicy gave a bare
    # ValueError or TypeError for probabilities that parse_policy refused
    for build in (lambda: mixer.parse_policy([{"until": end, "probs": probs}]),
                  lambda: mixer.MixPolicy(stages=((end, probs),))):
        with pytest.raises(mixer.PolicyError, match=match):
            build()


def test_a_stage_list_is_converted_by_the_constructor():
    policy = mixer.parse_policy([{"until": 0.5, "probs": [0, 1]}, {"until": 1, "probs": (1, 0)}])
    assert [(type(e), e, p.dtype, p.tolist()) for e, p in policy.stages] == [
        (float, 0.5, np.float64, [0.0, 1.0]), (float, 1.0, np.float64, [1.0, 0.0])]


@pytest.mark.parametrize("spec", ["nanvnan", "nan/nan", [{"until": 1.0, "probs": [np.nan, 1.0]}]],
                         ids=["nanvnan", "nan/nan", "stage list"])
def test_policy_rejects_a_nan_probability(spec):
    # a NaN passed both the sign and the sum check, and every sequence was then tagged 0
    with pytest.raises(mixer.PolicyError, match="non-finite probability"):
        mixer.parse_policy(spec)


def _stream(ids, digest="0" * 64):
    return TokenStream(
        ids=np.asarray(ids, dtype=np.uint32),
        doc_boundaries=np.array([len(ids)], dtype=np.uint64),
        vocab_digest=digest,
    )


def _rows(batch):
    """Whole remapped rows and tags of a next_batch result."""
    ids, targets, tags = batch
    return np.concatenate([ids, targets[:, -1:]], axis=1), tags


def _repeating_source(layout, policy, base, seed, batch_size=1):
    """A source whose every row is ``base``, remapped into its sampled language."""
    cursor = mixer.StreamCursor(_stream(base), seq_len=len(base) - 1)
    return trainer.MixtureSource(cursor, layout, policy, batch_size, seed)


def test_assign_single_language_unchanged():
    cv = tokenizer.clone_vocab(make_vocab(30), n_languages=1, anchor_fraction=0.0)
    policy = mixer.MixPolicy(stages=((1.0, np.array([1.0])),))
    base = np.arange(10)
    rows, tags = _rows(_repeating_source(cv, policy, base, seed=0).next_batch(0, 10))
    assert tags.tolist() == [0]
    assert np.array_equal(rows[0], base)


def test_assign_fully_anchored_unchanged():
    cv = tokenizer.clone_vocab(make_vocab(30), n_languages=2, anchor_fraction=1.0)
    base = np.arange(10)
    source = _repeating_source(cv, mixer.parse_policy("50/50"), base, seed=1, batch_size=4)
    rows, tags = _rows(source.next_batch(0, 10))
    assert set(tags.tolist()) <= {0, 1}
    assert all(np.array_equal(row, base) for row in rows)


def test_assign_empirical_frequencies_within_3_sigma():
    cv = tokenizer.clone_vocab(make_vocab(20), n_languages=2, anchor_fraction=0.0)
    n = 10_000
    source = _repeating_source(cv, mixer.parse_policy("90/10"), np.arange(4), seed=3,
                               batch_size=n)
    _, tags = _rows(source.next_batch(0, 1))
    freq1 = np.mean(tags == 1)
    sigma = np.sqrt(0.9 * 0.1 / n)
    assert abs(freq1 - 0.1) < 3 * sigma


def test_token_counts_match_marginal_within_2_percent():
    policy = two_stage_90v10()
    rng = np.random.default_rng(5)
    n, seq_len = 20_000, 7
    counts = np.zeros(2)
    for step in range(n):
        tag = mixer.sample_language(policy, step, n, rng)
        counts[tag] += seq_len
    expected = mixer.marginal(policy) * n * seq_len
    assert np.all(np.abs(counts - expected) / expected < 0.02)


def test_relabeling_equivariance():
    cv = tokenizer.clone_vocab(make_vocab(40), n_languages=2, anchor_fraction=0.25, seed=2)
    policy = mixer.parse_policy("90/10")
    base = np.arange(12)
    perm = [1, 0]
    plain = _repeating_source(cv, policy, base, seed=11)
    permuted = _repeating_source(tokenizer.relabel(cv, perm), policy, base, seed=11)
    for step in range(200):
        (ids_a,), (tag_a,) = _rows(plain.next_batch(step, 200))
        (ids_b,), (tag_b,) = _rows(permuted.next_batch(step, 200))
        assert tag_b == tag_a  # tags name roles; the layout decides the ids
        assert np.array_equal(ids_a, cv.map_ids(base, tag_a))
        assert np.array_equal(ids_b, cv.map_ids(base, perm[tag_a]))


def test_bilingual_all_from_language_zero():
    policy = mixer.MixPolicy(stages=((1.0, np.array([1.0, 0.0])),))
    layout = tokenizer.disjoint_layout([50, 50])
    cursors = [
        mixer.StreamCursor(_stream(np.arange(40) % 50), seq_len=8),
        mixer.StreamCursor(_stream(np.arange(40) % 50), seq_len=8),
    ]
    source = trainer.MixtureSource(cursors, layout, policy, batch_size=1, seed=0)
    for step in range(10):
        rows, tags = _rows(source.next_batch(step, 10))
        assert tags.tolist() == [0]
        assert rows.max() < 50
    assert cursors[1].position == 0  # language 1's stream was never read


def test_bilingual_disjoint_offsets():
    layout = tokenizer.disjoint_layout([2000, 2000])
    assert layout.map_ids(np.array([7]), 1)[0] == 2007
    assert layout.map_ids(np.array([7]), 0)[0] == 7
    assert layout.total_size == 4000
    assert layout.n_languages == 2 and len(layout.anchor_ids) == 0
    with pytest.raises(tokenizer.TokenizerError, match="language 2 out of range"):
        layout.map_ids(np.array([7]), 2)


def test_bilingual_anchored_shared_id():
    a = tokenizer.Vocabulary(pieces=(tokenizer.MARKER + "the", "chat"), merges=())
    b = tokenizer.Vocabulary(pieces=("chien", tokenizer.MARKER + "the"), merges=())
    layout = tokenizer.merge_vocabs(a, b).layout
    # "the" is id 0 in A and id 1 in B; both map to the same joint id
    assert layout.map_ids(np.array([0]), 0)[0] == layout.map_ids(np.array([1]), 1)[0]


def test_source_needs_one_cursor_per_language_or_one_shared():
    cursors = [mixer.StreamCursor(_stream(np.arange(20)), seq_len=8)] * 3
    with pytest.raises(ValueError, match="3 stream cursors for 2 languages"):
        trainer.MixtureSource(cursors, tokenizer.disjoint_layout([20, 20]),
                              mixer.parse_policy("50/50"), batch_size=1, seed=0)


def test_cursor_wraps_with_epoch(caplog):
    cursor = mixer.StreamCursor(_stream(np.arange(20)), seq_len=8)
    with caplog.at_level("INFO", logger="xlab.mixer"):
        seqs = [cursor.next() for _ in range(4)]
    assert cursor.epoch >= 1
    assert any("epoch" in r.message for r in caplog.records)
    assert all(len(s) == 9 for s in seqs)


def test_cursor_inserts_separator():
    stream = TokenStream(
        ids=np.arange(10, dtype=np.uint32),
        doc_boundaries=np.array([4, 10], dtype=np.uint64),
        vocab_digest="0" * 64,
    )
    cursor = mixer.StreamCursor(stream, seq_len=10, separator_id=99)
    assert 99 in cursor.data
    assert len(cursor.data) == 11


@pytest.mark.parametrize("separator_id, match", [
    (-1, "separator_id must be a non-negative id, got -1"),
    (2.5, "separator_id must be an int, got 2.5"),
])
def test_concat_with_separator_refuses_a_separator_that_is_no_id(separator_id, match):
    # -1 was inserted as a token id, and 2.5 as id 2
    stream = TokenStream(np.arange(4), [2, 4], "0" * 64)
    with pytest.raises(CorpusError, match=match):
        mixer.concat_with_separator(stream, separator_id)
    assert mixer.concat_with_separator(stream, np.int64(7)).tolist() == [0, 1, 7, 2, 3]


@pytest.mark.parametrize("separator_id", [None, 99])
def test_cursor_rejects_a_stream_without_tokens(separator_id):
    empty = TokenStream(ids=np.empty(0, dtype=np.uint32),
                        doc_boundaries=np.empty(0, dtype=np.uint64), vocab_digest="0" * 64)
    with pytest.raises(CorpusError, match="0 tokens"):
        mixer.StreamCursor(empty, seq_len=8, separator_id=separator_id)


@pytest.mark.parametrize("seq_len", [0, -3])
def test_cursor_rejects_a_seq_len_below_one(seq_len):
    # seq_len 0 used to return the same one-token slice forever
    with pytest.raises(CorpusError, match=f"seq_len >= 1, got {seq_len}"):
        mixer.StreamCursor(_stream(np.arange(20)), seq_len=seq_len)


def test_cursor_check_rejects_a_position_outside_the_data():
    cursor = mixer.StreamCursor(_stream(np.arange(20)), seq_len=8)
    for position in (-1, 21):
        with pytest.raises(CorpusError, match=rf"position {position} outside \[0, 20\]"):
            cursor.check({"position": position, "epoch": 3})
    assert cursor.check({"position": 20, "epoch": 3}) == (20, 3)
    assert cursor.state() == {"position": 0, "epoch": 0}  # check moves nothing
