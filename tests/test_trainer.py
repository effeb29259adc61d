import numpy as np
import pytest

from xlab import mixer, model, tokenizer, trainer

from conftest import make_model, make_vocab, markov_stream


def small_setup(vocab_size=10, n_tokens=4000, seq_len=16, batch_size=8, seed=0,
                n_languages=1, dtype="float32"):
    stream, pi = markov_stream(n_tokens, vocab_size, seed=seed)
    cv = tokenizer.clone_vocab(make_vocab(vocab_size), n_languages, anchor_fraction=0.0)
    policy = mixer.MixPolicy(stages=((1.0, np.full(n_languages, 1.0 / n_languages)),))
    cursor = mixer.StreamCursor(stream, seq_len=seq_len)
    source = trainer.ClonedMixtureSource(cursor, cv, policy, batch_size=batch_size, seed=seed)
    st = make_model(n_layers=1, d_model=32, n_heads=2, d_ff=64,
                    vocab_size=cv.total_size, max_seq_len=seq_len, dtype=dtype, seed=seed)
    return st, source, cv, pi


def test_lr_schedule_endpoints():
    cfg = trainer.TrainConfig(total_steps=1000, batch_size=1, seq_len=8,
                              warmup_steps=500, lr_max=6e-4, lr_min=6e-6)
    assert trainer.lr_at(cfg, 0) == 0.0
    assert trainer.lr_at(cfg, 500) == pytest.approx(6e-4)
    # last step is within one cosine increment of lr_min
    last = trainer.lr_at(cfg, 999)
    prev = trainer.lr_at(cfg, 998)
    assert abs(last - 6e-6) <= abs(prev - last) + 1e-12
    assert last >= 6e-6


def test_lr_monotone_warmup_then_decay():
    cfg = trainer.TrainConfig(total_steps=200, batch_size=1, seq_len=8, warmup_steps=50)
    lrs = [trainer.lr_at(cfg, s) for s in range(200)]
    assert all(a <= b for a, b in zip(lrs[:50], lrs[1:51]))
    assert all(a >= b for a, b in zip(lrs[50:-1], lrs[51:]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(total_steps=10, batch_size=1, seq_len=8, warmup_steps=10)
    with pytest.raises(ValueError):
        trainer.TrainConfig(total_steps=10, batch_size=0, seq_len=8, warmup_steps=2)


def test_zero_steps_is_identity():
    st, source, _, _ = small_setup()
    before = {k: v.copy() for k, v in st.params.items()}
    cfg = trainer.TrainConfig(total_steps=0, batch_size=8, seq_len=16, warmup_steps=1, seed=0)
    st, record = trainer.train(st, source, cfg)
    assert record.losses == [] and record.steps == 0
    for k, v in before.items():
        assert np.array_equal(st.params[k], v)


def test_same_seed_bit_identical():
    cfg = trainer.TrainConfig(total_steps=25, batch_size=8, seq_len=16,
                              warmup_steps=5, seed=4, lr_max=3e-3, lr_min=3e-4)
    st1, src1, _, _ = small_setup(seed=4)
    st1, rec1 = trainer.train(st1, src1, cfg)
    st2, src2, _, _ = small_setup(seed=4)
    st2, rec2 = trainer.train(st2, src2, cfg)
    assert rec1.losses == rec2.losses
    for k in st1.params:
        assert np.array_equal(st1.params[k], st2.params[k])


def test_markov_smoke_learns():
    st, source, _, pi = small_setup(n_tokens=20_000, seed=1)
    cfg = trainer.TrainConfig(total_steps=500, batch_size=8, seq_len=16,
                              warmup_steps=50, seed=1, lr_max=3e-3, lr_min=3e-4)
    st, record = trainer.train(st, source, cfg)
    first = float(np.mean(record.losses[:25]))
    last = float(np.mean(record.losses[-25:]))
    assert last < 0.8 * first
    # the corpus is a first-order chain: a trained model must beat the best
    # memoryless predictor, whose loss is the unigram cross-entropy
    unigram_loss = -float(np.sum(pi * np.log(np.maximum(pi, 1e-12))))
    assert last < unigram_loss


def test_token_accounting_exact():
    st, source, _, _ = small_setup(n_languages=2, seed=6)
    cfg = trainer.TrainConfig(total_steps=20, batch_size=8, seq_len=16,
                              warmup_steps=5, seed=6)
    st, record = trainer.train(st, source, cfg, vocab_groups=None)
    assert sum(record.lang_token_counts) == 20 * 8 * 16
    assert all(c >= 0 for c in record.lang_token_counts)
    assert len(record.step_lang_tokens) == 20


def test_resume_bit_identical(tmp_path):
    cfg = trainer.TrainConfig(total_steps=60, batch_size=4, seq_len=16,
                              warmup_steps=10, seed=9, lr_max=3e-3, lr_min=3e-4,
                              checkpoint_every=30)
    st_full, src_full, _, _ = small_setup(seed=9, batch_size=4)
    st_full, rec_full = trainer.train(st_full, src_full, cfg, out_dir=tmp_path / "full")

    st_a, src_a, _, _ = small_setup(seed=9, batch_size=4)
    trainer.train(st_a, src_a, cfg, out_dir=tmp_path / "interrupted")
    ckpt = tmp_path / "interrupted" / "checkpoint_0000030.xlck"
    assert ckpt.exists()

    st_b, src_b, _, _ = small_setup(seed=9, batch_size=4)
    st_b, rec_b = trainer.resume(ckpt, st_b, src_b, cfg, out_dir=tmp_path / "resumed")
    assert rec_b.losses == rec_full.losses
    for k in st_full.params:
        assert np.array_equal(st_full.params[k], st_b.params[k]), k


def test_resume_bit_identical_float64(tmp_path):
    cfg = trainer.TrainConfig(total_steps=20, batch_size=4, seq_len=16,
                              warmup_steps=4, seed=3, lr_max=3e-3, lr_min=3e-4,
                              checkpoint_every=10)
    st_full, src_full, _, _ = small_setup(seed=3, batch_size=4, dtype="float64")
    st_full, rec_full = trainer.train(st_full, src_full, cfg, out_dir=tmp_path / "full")
    ckpt = tmp_path / "full" / "checkpoint_0000010.xlck"

    st_b, src_b, _, _ = small_setup(seed=3, batch_size=4, dtype="float64")
    st_b, rec_b = trainer.train(st_b, src_b, cfg, resume_from=ckpt,
                                out_dir=tmp_path / "resumed")
    assert rec_b.losses == rec_full.losses
    for k in st_full.params:
        assert st_b.params[k].dtype == np.float64
        assert np.array_equal(st_full.params[k], st_b.params[k]), k


@pytest.mark.parametrize("total_steps,written", [(6, [3, 6]), (7, [3, 6, 7]), (2, [2])])
def test_each_checkpoint_written_once(tmp_path, monkeypatch, total_steps, written):
    steps = []
    save = trainer.save_checkpoint

    def counting_save(path, state, step, **kwargs):
        steps.append(step)
        save(path, state, step, **kwargs)

    monkeypatch.setattr(trainer, "save_checkpoint", counting_save)
    cfg = trainer.TrainConfig(total_steps=total_steps, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    assert steps == written
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"checkpoint_{s:07d}.xlck" for s in written
    ]


def test_batch_width_must_match_seq_len():
    st, _, cv, _ = small_setup(seq_len=8, seed=1)
    stream, _ = markov_stream(500, 10, seed=1)
    policy = mixer.MixPolicy(stages=((1.0, np.array([1.0])),))
    source = trainer.ClonedMixtureSource(mixer.StreamCursor(stream, seq_len=6), cv,
                                         policy, batch_size=4, seed=1)
    cfg = trainer.TrainConfig(total_steps=3, batch_size=4, seq_len=8, warmup_steps=1)
    with pytest.raises(ValueError, match=r"width 6 .*seq_len 8"):
        trainer.train(st, source, cfg)


def test_resume_refuses_config_mismatch(tmp_path):
    cfg = trainer.TrainConfig(total_steps=30, batch_size=4, seq_len=16,
                              warmup_steps=5, seed=2, checkpoint_every=30)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint_0000030.xlck"
    other = trainer.TrainConfig(total_steps=40, batch_size=4, seq_len=16,
                                warmup_steps=5, seed=2)
    st2, src2, _, _ = small_setup(seed=2, batch_size=4)
    with pytest.raises(ValueError, match="refusing to resume"):
        trainer.resume(ckpt, st2, src2, other)


def test_resume_rejects_corrupt_checkpoint(tmp_path):
    cfg = trainer.TrainConfig(total_steps=30, batch_size=4, seq_len=16,
                              warmup_steps=5, seed=2, checkpoint_every=30)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint_0000030.xlck"
    raw = bytearray(ckpt.read_bytes())
    raw[10] ^= 0xFF  # inside the header
    ckpt.write_bytes(bytes(raw))
    st2, src2, _, _ = small_setup(seed=2, batch_size=4)
    with pytest.raises(model.CheckpointError):
        trainer.resume(ckpt, st2, src2, cfg)


def test_abort_on_non_finite_loss():
    st, source, _, _ = small_setup(seed=3)
    st.params["token_embedding"][0, 0] = np.nan
    cfg = trainer.TrainConfig(total_steps=10, batch_size=8, seq_len=16,
                              warmup_steps=2, seed=3)
    with pytest.raises(trainer.TrainAbortError, match="last good checkpoint"):
        trainer.train(st, source, cfg)


def test_eval_hooks_fire_on_snapshots():
    st, source, _, _ = small_setup(seed=5)
    seen = []
    hooks = [(5, lambda s, step, rec: seen.append(step)),
             (10, lambda s, step, rec: seen.append(step))]
    cfg = trainer.TrainConfig(total_steps=10, batch_size=8, seq_len=16,
                              warmup_steps=2, seed=5)
    trainer.train(st, source, cfg, eval_hooks=hooks)
    assert seen == [5, 10]


def test_run_record_roundtrip(tmp_path):
    rec = trainer.RunRecord(seed=1, config_digest="abc", n_languages=2)
    rec.losses = [3.0, 2.5]
    rec.steps = 2
    rec.lang_token_counts = [10, 22]
    rec.step_lang_tokens = [[10, 6], [0, 16]]
    rec.evals["2"] = {"0": {"ppl": 9.0}}
    rec.save(tmp_path / "r.json", csv_sidecar=True)
    back = trainer.RunRecord.load(tmp_path / "r.json")
    assert back.to_dict() == rec.to_dict()
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss,tokens_lang0,tokens_lang1"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# Clone-symmetry: role swap + embedding row swap + consistent RNG must give a
# row-swapped, otherwise bit-identical run (trainer-level version of the
# model-level equivariance test; acceptance runs the 200-step variant).


def test_clone_symmetry_short_run():
    vocab_size, seq_len = 12, 16
    stream, _ = markov_stream(3000, vocab_size, seed=8)
    cv = tokenizer.clone_vocab(make_vocab(vocab_size), 2, anchor_fraction=0.0)
    policy = mixer.parse_policy("90/10")
    cfg = trainer.TrainConfig(total_steps=40, batch_size=4, seq_len=seq_len,
                              warmup_steps=8, seed=17, lr_max=3e-3, lr_min=3e-4)
    groups = cv.language_slices()
    perm_ids = np.arange(cv.total_size)
    b0, b1 = groups[1]
    perm_ids[b0], perm_ids[b1] = np.arange(cv.total_size)[b1], np.arange(cv.total_size)[b0]

    def run(role_permutation, swap_rows):
        st = make_model(n_layers=1, d_model=16, n_heads=2, d_ff=24,
                        vocab_size=cv.total_size, max_seq_len=seq_len,
                        dtype="float32", seed=23)
        if swap_rows:
            st.params["token_embedding"] = st.params["token_embedding"][perm_ids]
        cursor = mixer.StreamCursor(stream, seq_len=seq_len)
        source = trainer.ClonedMixtureSource(cursor, cv, policy, batch_size=4,
                                             seed=17, role_permutation=role_permutation)
        return trainer.train(st, source, cfg, vocab_groups=groups)

    st_a, rec_a = run(None, swap_rows=False)
    st_b, rec_b = run([1, 0], swap_rows=True)
    assert rec_a.losses == rec_b.losses
    assert rec_a.lang_token_counts == rec_b.lang_token_counts[::-1]
    for name in st_a.params:
        if name == "token_embedding":
            assert np.array_equal(st_a.params[name][perm_ids], st_b.params[name])
        else:
            assert np.array_equal(st_a.params[name], st_b.params[name]), name
