import math
import signal

import numpy as np
import pytest
from scipy.special import log_softmax

from xlab import evaluator, mixer, model, tokenizer, trainer
from xlab.corpus import TokenStream

from conftest import make_model, make_vocab, markov_stream


def one_doc_stream(ids):
    return TokenStream(
        ids=np.asarray(ids, dtype=np.uint32),
        doc_boundaries=np.array([len(ids)], dtype=np.uint64),
        vocab_digest="0" * 64,
    )


def oracle_window_start(p: int, n: int, window: int, stride: int) -> int:
    """Independent statement of the layout rule: which window scores target p."""
    if n <= window or p < window:
        return 0
    last_full_end = window + stride * ((n - window) // stride)
    if p >= last_full_end:  # tail, right-aligned final window
        return n - window
    return stride * ((p - window) // stride + 1)


def test_short_document_equals_full_context():
    st = make_model(vocab_size=23, max_seq_len=64, seed=3)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 23, size=40)
    res = evaluator.sliding_ppl(st, one_doc_stream(ids), window=64, stride=16)
    lp = model.sequence_logprobs(st, ids)
    want = math.exp(-float(np.mean(lp)))
    assert res.ppl == pytest.approx(want, rel=1e-12)
    assert res.tokens_scored == 39


def test_uniform_model_ppl_is_vocab_size():
    st = make_model(vocab_size=23, max_seq_len=32, seed=1)
    st.params["token_embedding"][:] = 0.0
    ids = np.random.default_rng(2).integers(0, 23, size=100)
    res = evaluator.sliding_ppl(st, one_doc_stream(ids), window=32, stride=8)
    assert res.ppl == pytest.approx(23.0, rel=1e-12)


def test_sliding_matches_per_token_rescoring_oracle():
    window, stride, n = 64, 16, 300
    st = make_model(n_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=29,
                    max_seq_len=window, dtype="float64", seed=7)
    ids = np.random.default_rng(4).integers(0, 29, size=n)
    positions, lp = evaluator.sliding_logprobs(st, ids, window=window, stride=stride)
    by_pos = dict(zip(positions.tolist(), lp.tolist()))
    for p in range(1, n):
        s = oracle_window_start(p, n, window, stride)
        want = model.sequence_logprobs(st, ids[s : p + 1])[-1]
        assert abs(by_pos[p] - want) < 1e-10, f"target {p}"


def test_every_predictable_token_scored_once():
    st = make_model(vocab_size=23, max_seq_len=16, seed=5)
    for n in (2, 15, 16, 17, 40, 41, 63):
        ids = np.random.default_rng(n).integers(0, 23, size=n)
        positions, _ = evaluator.sliding_logprobs(st, ids, window=16, stride=4)
        assert sorted(positions.tolist()) == list(range(1, n))


def test_ppl_invariant_under_document_permutation():
    st = make_model(vocab_size=23, max_seq_len=16, seed=6)
    rng = np.random.default_rng(9)
    docs = [rng.integers(0, 23, size=k) for k in (30, 45, 12)]

    def stream_of(order):
        ids = np.concatenate([docs[i] for i in order])
        bounds = np.cumsum([len(docs[i]) for i in order])
        return TokenStream(ids=ids.astype(np.uint32),
                           doc_boundaries=bounds.astype(np.uint64),
                           vocab_digest="0" * 64)

    a = evaluator.sliding_ppl(st, stream_of([0, 1, 2]), window=16, stride=4)
    b = evaluator.sliding_ppl(st, stream_of([2, 0, 1]), window=16, stride=4)
    assert a.ppl == b.ppl  # exact, fsum accumulation
    assert a.tokens_scored == b.tokens_scored


def test_empty_stream_rejected():
    st = make_model()
    empty = TokenStream(ids=np.empty(0, dtype=np.uint32),
                        doc_boundaries=np.empty(0, dtype=np.uint64),
                        vocab_digest="0" * 64)
    with pytest.raises(evaluator.EvalError):
        evaluator.sliding_ppl(st, empty)


def test_stride_larger_than_window_rejected():
    with pytest.raises(evaluator.EvalError):
        evaluator.window_spans(100, window=16, stride=32)


def test_stride_equal_to_window_rejected():
    # such windows are disjoint, and a window's first token has no context
    with pytest.raises(evaluator.EvalError, match="stride 16 must be in"):
        evaluator.window_spans(100, window=16, stride=16)
    with pytest.raises(evaluator.EvalError, match="stride 1 must be in"):
        evaluator.window_spans(5, window=1, stride=1)


@pytest.fixture
def fail_after_half_a_second():
    """Turn a hang into a failure: SIGALRM interrupts the test after 0.5 s."""
    def timeout(signum, frame):
        raise TimeoutError("timed out")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("stride", [0, -3])
def test_non_positive_stride_rejected(fail_after_half_a_second, stride):
    with pytest.raises(evaluator.EvalError, match=f"stride {stride}"):
        evaluator.window_spans(100, window=16, stride=stride)


def test_window_beyond_max_seq_len_rejected():
    st = make_model(vocab_size=23, max_seq_len=16, seed=1)
    ids = np.random.default_rng(0).integers(0, 23, size=60)
    with pytest.raises(evaluator.EvalError, match="window 512 .*max_seq_len 16"):
        evaluator.sliding_ppl(st, one_doc_stream(ids))


def test_sequence_logprobs_scores_a_stack_row_by_row():
    st = make_model(vocab_size=23, max_seq_len=16, seed=4)
    stack = np.random.default_rng(5).integers(0, 23, size=(3, 16))
    lp = model.sequence_logprobs(st, stack)
    assert lp.shape == (3, 15) and lp.dtype == np.float64
    for row, ids in zip(lp, stack):
        assert np.allclose(row, model.sequence_logprobs(st, ids), rtol=0, atol=1e-12)


def test_scored_logprobs_rows_are_slices_of_sequence_logprobs():
    st = make_model(vocab_size=23, max_seq_len=16, dtype="float32", seed=4)
    stack = np.random.default_rng(6).integers(0, 23, size=(4, 16))
    lo, hi = [0, 3, 14, 7], [15, 9, 15, 7]
    full = model.sequence_logprobs(st, stack)
    logp = log_softmax(model.forward(st, stack).logits.astype(np.float64), axis=-1)
    oracle = np.take_along_axis(logp[:, :-1], stack[:, 1:, None], axis=-1)[..., 0]
    assert np.allclose(full, oracle, rtol=0, atol=1e-12)
    got = model.scored_logprobs(st, stack, lo, hi)
    want = np.concatenate([row[a:b] for row, a, b in zip(full, lo, hi)])
    assert got.dtype == np.float64 and got.shape == want.shape == (22,)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    for ids in (stack[0, :2], stack[0, :1]):  # a document of 2 tokens, and t = 1
        got = model.scored_logprobs(st, ids[None], [0], [len(ids) - 1])
        want = model.sequence_logprobs(st, ids)
        assert got.shape == want.shape == (len(ids) - 1,)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert model.sequence_logprobs(st, stack[:, :1]).shape == (4, 0)
    with pytest.raises(ValueError, match="scored positions"):
        model.scored_logprobs(st, stack, 0, 16)  # target 16 is past the row


def test_log_softmax_sees_each_scored_row_once(monkeypatch):
    st = make_model(vocab_size=23, max_seq_len=16, seed=5)
    rows = []
    scored_logprobs = evaluator.scored_logprobs

    def spy(state, ids, lo, hi, vocab_groups):
        out = scored_logprobs(state, ids, lo, hi, vocab_groups)
        assert len(out) == np.sum(np.subtract(hi, lo))
        rows.append(len(out))
        return out

    monkeypatch.setattr(evaluator, "scored_logprobs", spy)
    for n in (2, 15, 16, 17, 40, 41, 63, 200):
        rows.clear()
        ids = np.random.default_rng(n).integers(0, 23, size=n)
        res = evaluator.sliding_ppl(st, one_doc_stream(ids), window=16, stride=4)
        assert sum(rows) == res.tokens_scored == n - 1


def test_per_language_identical_when_fully_anchored():
    vocab = make_vocab(23)
    cv = tokenizer.clone_vocab(vocab, n_languages=2, anchor_fraction=1.0)
    st = make_model(vocab_size=cv.total_size, max_seq_len=16, seed=8)
    ids = np.random.default_rng(3).integers(0, 23, size=80)
    res = evaluator.per_language_eval(st, cv, one_doc_stream(ids), window=16, stride=4)
    assert res[0].ppl == res[1].ppl


def test_unseen_clone_ppl_near_uniform_baseline():
    # briefly train on language 0 only; language 1's ids were never seen, so
    # its perplexity stays near the uniform-over-vocab baseline (long training
    # eventually suppresses the unseen block and breaks this)
    vocab_size = 32
    stream, _ = markov_stream(6000, vocab_size, seed=11)
    cv = tokenizer.clone_vocab(make_vocab(vocab_size), 2, anchor_fraction=0.0)
    st = make_model(n_layers=1, d_model=32, n_heads=2, d_ff=48,
                    vocab_size=cv.total_size, max_seq_len=16, dtype="float32", seed=11)
    policy = mixer.MixPolicy(stages=((1.0, np.array([1.0, 0.0])),))
    source = trainer.ClonedMixtureSource(
        mixer.StreamCursor(stream, seq_len=16), cv, policy, batch_size=8, seed=11
    )
    cfg = trainer.TrainConfig(total_steps=60, batch_size=8, seq_len=16,
                              warmup_steps=10, seed=11, lr_max=5e-4, lr_min=5e-5)
    trainer.train(st, source, cfg, vocab_groups=cv.language_slices())
    res = evaluator.per_language_eval(st, cv, one_doc_stream(stream.ids[:400]),
                                      window=16, stride=4)
    uniform = cv.total_size
    assert res[0].ppl < 0.8 * uniform  # actually learned language 0
    assert abs(res[1].ppl - uniform) / uniform < 0.2


def test_real_mode_per_language_eval():
    layout = tokenizer.disjoint_layout([10, 10])
    st = make_model(vocab_size=20, max_seq_len=16, seed=2)
    rng = np.random.default_rng(1)
    streams = [one_doc_stream(rng.integers(0, 10, size=60)) for _ in range(2)]
    res = evaluator.per_language_eval(st, layout, streams, window=16, stride=4)
    assert set(res) == {0, 1}
    for r in res.values():
        assert r.ppl > 1 and r.tokens_scored == 59


# the model's bare ValueError before
@pytest.mark.parametrize("call, match", [
    (lambda st: evaluator.sliding_logprobs(st, [1, 20, 3], window=4, stride=2), "1..20"),
    (lambda st: evaluator.per_language_eval(st, tokenizer.disjoint_layout([11, 11]),
                                            [one_doc_stream(np.arange(1, 11))] * 2, 4, 2),
     "12..21"),
], ids=["sliding_logprobs", "per_language_eval"])
def test_ids_that_do_not_fit_the_model_raise_eval_error(call, match):
    st = make_model(vocab_size=20, max_seq_len=16, seed=2)
    with pytest.raises(evaluator.EvalError, match=rf"token ids {match} are outside \[0, 20\)"):
        call(st)
