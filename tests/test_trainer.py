import json
import platform

import numpy as np
import pytest

from xlab import mixer, model, tokenizer, trainer

from conftest import (
    make_model,
    make_vocab,
    markov_stream,
    read_checkpoint_header,
    write_raw_checkpoint,
)


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


@pytest.mark.parametrize("field, value", [
    ("checkpoint_every", -1), ("grad_clip", -1.0), ("grad_clip", float("nan")),
])
def test_train_config_rejects_settings_it_would_misread(field, value):
    # a negative checkpoint_every would checkpoint every step; a negative or
    # NaN grad_clip would turn clipping off like 0 does
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        trainer.TrainConfig(total_steps=10, batch_size=1, seq_len=8, warmup_steps=2,
                            **{field: value})


def adam_reference(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One textbook Adam step on copies; returns (params, m, v)."""
    b1c, b2c = 1.0 - beta1**t, 1.0 - beta2**t
    params, m, v = ({k: a[k].copy() for k in a} for a in (params, m, v))
    for k, p in params.items():
        g = grads[k]
        m[k] += (1.0 - beta1) * (g - m[k])
        v[k] += (1.0 - beta2) * (g * g - v[k])
        p -= (lr / b1c) * m[k] / (np.sqrt(v[k] / b2c) + eps)
    return params, m, v


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_is_bitwise_the_reference_and_writes_no_grad(dtype):
    rng = np.random.default_rng(5)
    shapes = {"w": (7, 5), "b": (5,), "big": (40, 3)}
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    adam = trainer.Adam(params, 0.9, 0.999, 1e-8)
    want_p, want_m, want_v = params, adam.m, adam.v
    for t, lr in enumerate((1e-3, 3e-2, 7e-4), start=1):
        grads = {k: (rng.standard_normal(s) * 10.0**-t).astype(dtype) for k, s in shapes.items()}
        grads["b"][:2] = [0.0, -0.0]
        grads_before = {k: g.copy() for k, g in grads.items()}
        want_p, want_m, want_v = adam_reference(want_p, grads, want_m, want_v, t, lr)
        adam.step(params, grads, lr)
        for k in shapes:
            assert grads[k].tobytes() == grads_before[k].tobytes(), k
            for got, want in ((params, want_p), (adam.m, want_m), (adam.v, want_v)):
                assert got[k].dtype == dtype and got[k].tobytes() == want[k].tobytes(), k


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's heap thresholds")
def test_training_steps_reuse_freed_memory():
    # the caches of a step are several times its largest array, the case in
    # which glibc's default trimming makes every step fault them back in
    resource = pytest.importorskip("resource")
    stream, _ = markov_stream(2000, 50, seed=0)
    source = trainer.MixtureSource(mixer.StreamCursor(stream, seq_len=32),
                                   tokenizer.clone_vocab(make_vocab(50), 1),
                                   mixer.parse_policy([{"until": 1.0, "probs": [1.0]}]), 8, 0)
    st = make_model(n_layers=3, d_model=32, n_heads=2, d_ff=256, vocab_size=50,
                    max_seq_len=32, dtype="float32")
    cfg = trainer.TrainConfig(total_steps=10, batch_size=8, seq_len=32, warmup_steps=1)
    faults = []

    def count_faults(*_):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    trainer.train(st, source, cfg, eval_hooks=[(k, count_faults) for k in range(5, 11)])
    assert np.median(np.diff(faults)) <= 10, np.diff(faults)  # pages faulted per step


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
    st_b, rec_b = trainer.train(st_b, src_b, cfg, resume_from=ckpt,
                                out_dir=tmp_path / "resumed")
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
        trainer.train(st2, src2, other, resume_from=ckpt)


def test_trainer_checkpoint_stores_each_fact_once(tmp_path):
    cfg = trainer.TrainConfig(total_steps=4, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    _, record = trainer.train(st, src, cfg, out_dir=tmp_path)
    header, _ = read_checkpoint_header(tmp_path / "checkpoint_0000004.xlck")
    assert set(header) == {"config", "extra", "payload_sha256", "step", "tensors"}
    assert set(header["extra"]) == {"source", "record"}
    assert header["extra"]["record"] == record.to_dict()
    assert header["step"] == record.steps == 4


def _rewrite_extra(path, edit):
    header, offset = read_checkpoint_header(path)
    edit(header["extra"])
    write_raw_checkpoint(path, header, path.read_bytes()[offset:])


def _with_stored_totals(extra):
    """The extra of a checkpoint that stored the step count and token totals
    beside the per-step lists."""
    rec = extra["record"]
    rec["steps"] = len(rec["losses"])
    rec["lang_token_counts"] = [sum(c) for c in zip(*rec["step_lang_tokens"])]
    extra.update(adam_t=rec["steps"], run_digest=rec["config_digest"])


@pytest.mark.parametrize("edit, match", [
    (lambda extra: extra.pop("record"), "got NoneType"),
    (_with_stored_totals, r"unknown fields \['lang_token_counts', 'steps'\]"),
    (lambda extra: extra["record"].pop("losses"), r"missing fields \['losses'\]"),
])
def test_resume_needs_this_run_record(tmp_path, edit, match):
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint_0000003.xlck"
    _rewrite_extra(ckpt, edit)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    with pytest.raises(ValueError, match=match) as info:
        trainer.train(st, src, cfg, resume_from=ckpt)
    assert str(ckpt) in str(info.value)


def _drop_adam_moment(path):
    state, step, opt, extra = model.load_checkpoint(path)
    del opt["adam_m.token_embedding"]
    model.save_checkpoint(path, state, step, opt_tensors=opt, extra=extra)


@pytest.mark.parametrize("edit, match", [
    (_drop_adam_moment, r"lacks adam_m\.token_embedding$"),
    (lambda path: _rewrite_extra(path, lambda extra: extra.pop("source")), r"lacks extra\.source$"),
])
def test_resume_names_what_the_checkpoint_lacks(tmp_path, edit, match):
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint_0000003.xlck"
    edit(ckpt)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    with pytest.raises(ValueError, match=match) as info:
        trainer.train(st, src, cfg, resume_from=ckpt)
    assert str(ckpt) in str(info.value)


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
        trainer.train(st2, src2, cfg, resume_from=ckpt)


def test_evals_at_a_checkpoint_step_survive_resume(tmp_path):
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)

    def record_step(state, steps_done, record):
        record.evals[str(steps_done)] = {"steps": steps_done}

    hooks = [(3, record_step), (6, record_step)]
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    _, full = trainer.train(st, src, cfg, eval_hooks=hooks, out_dir=tmp_path / "full")
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    _, resumed = trainer.train(st, src, cfg, eval_hooks=hooks, out_dir=tmp_path / "resumed",
                               resume_from=tmp_path / "full" / "checkpoint_0000003.xlck")
    assert sorted(full.evals) == ["3", "6"]
    assert resumed.evals == full.evals


def _two_cursor_setup(seed):
    """A real-pair source: two corpora of 10 ids each, side by side."""
    streams = [markov_stream(1500, 10, seed=seed + k)[0] for k in range(2)]
    layout = tokenizer.disjoint_layout([10, 10])
    cursors = [mixer.StreamCursor(s, seq_len=16) for s in streams]
    source = trainer.MixtureSource(cursors, layout, mixer.parse_policy("90v10"),
                                   batch_size=4, seed=seed)
    st = make_model(n_layers=1, d_model=32, n_heads=2, d_ff=64,
                    vocab_size=layout.total_size, max_seq_len=16, dtype="float32", seed=seed)
    return st, source


def test_resume_bit_identical_two_cursors(tmp_path):
    cfg = trainer.TrainConfig(total_steps=20, batch_size=4, seq_len=16,
                              warmup_steps=4, seed=7, lr_max=3e-3, lr_min=3e-4,
                              checkpoint_every=10)
    st_full, src_full = _two_cursor_setup(7)
    st_full, rec_full = trainer.train(st_full, src_full, cfg, out_dir=tmp_path / "full")
    assert all(c.position > 0 for c in src_full.cursors)  # both corpora were read

    st_b, src_b = _two_cursor_setup(7)
    st_b, rec_b = trainer.train(st_b, src_b, cfg, out_dir=tmp_path / "resumed",
                                resume_from=tmp_path / "full" / "checkpoint_0000010.xlck")
    assert rec_b.losses == rec_full.losses
    assert rec_b.lang_token_counts == rec_full.lang_token_counts
    assert [c.state() for c in src_b.cursors] == [c.state() for c in src_full.cursors]
    for k in st_full.params:
        assert np.array_equal(st_full.params[k], st_b.params[k]), k


def test_source_restore_rejects_foreign_state():
    _, src, _, _ = small_setup(seed=1)
    old_layout = {"cursor": {"position": 0, "epoch": 0}, "rng": src.state()["rng"]}
    with pytest.raises(ValueError, match="does not fit this source"):
        src.restore(old_layout)
    _, two = _two_cursor_setup(1)
    with pytest.raises(ValueError, match="2 cursor states"):
        two.restore(src.state())


def _second_cursor(state):
    return {"cursors": [{"position": 16, "epoch": 5}, state]}


@pytest.mark.parametrize("bad, match", [
    ({"cursors": [{"position": 16, "epoch": 5}, {"position": 99999, "epoch": 0}]},
     "position 99999 outside"),
    ({"cursors": [{"position": 16, "epoch": 5}, {"position": 32, "epoch": 1}],
      "rng": {"bit_generator": "MT19937"}}, "PCG64"),
    (_second_cursor({}), "cursor position None is not an int"),
    (_second_cursor({"position": "x", "epoch": 0}), "cursor position 'x' is not an int"),
    (_second_cursor({"position": None, "epoch": 0}), "cursor position None is not an int"),
    (_second_cursor([32, 0]), "a cursor state is a dict, got list"),
    (_second_cursor({"position": 2.7, "epoch": 0}), "cursor position 2.7 is not an int"),
    (_second_cursor({"position": True, "epoch": 0}), "cursor position True is not an int"),
    (_second_cursor({"position": 32, "epoch": 1.0}), "cursor epoch 1.0 is not an int"),
    (_second_cursor({"position": 32, "epoch": -3}), "cursor epoch -3 is negative"),
    ({"cursors": {"0": {"position": 0, "epoch": 0}}}, "does not fit this source"),
    ({"rng": 5}, "bad source rng state"),
    ({"rng": {"bit_generator": "PCG64"}}, "bad source rng state"),
])
def test_failed_source_restore_moves_nothing(bad, match):
    _, source = _two_cursor_setup(1)
    for _ in range(3):
        source.next_batch(0, 10)
    before = source.state()
    with pytest.raises(ValueError, match=match):
        source.restore({**before, **bad})
    assert source.state() == before


def test_resume_names_the_checkpoint_when_the_source_state_does_not_fit(tmp_path):
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint_0000003.xlck"
    _rewrite_extra(ckpt, lambda extra: extra["source"]["cursors"][0].update(epoch=-1))
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    params = st.params
    with pytest.raises(ValueError, match="cursor epoch -1 is negative") as info:
        trainer.train(st, src, cfg, resume_from=ckpt)
    assert str(ckpt) in str(info.value)
    assert st.params is params  # the model did not take the checkpoint's parameters


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
    assert rec.steps == 0 and rec.lang_token_counts == [0, 0]
    rec.losses = [3.0, 2.5]
    rec.step_lang_tokens = [[10, 6], [0, 16]]
    assert rec.steps == 2 and rec.lang_token_counts == [10, 22]
    rec.evals["2"] = {"0": {"ppl": 9.0}}
    rec.save(tmp_path / "r.json")
    back = trainer.RunRecord.load(tmp_path / "r.json")
    assert back.to_dict() == rec.to_dict()


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.pop("seed"), r"missing fields \['seed'\] and unknown fields \[\]"),
    (lambda d: d.update(steps=2), r"missing fields \[\] and unknown fields \['steps'\]"),
])
def test_run_record_rejects_missing_and_unknown_fields(tmp_path, edit, match):
    d = trainer.RunRecord(seed=1, config_digest="abc", n_languages=2).to_dict()
    edit(d)
    with pytest.raises(ValueError, match=match):
        trainer.RunRecord.from_dict(d)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=match) as info:
        trainer.RunRecord.load(path)
    assert str(path) in str(info.value)


def test_run_record_load_names_file_on_bad_json(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"seed": 1,')
    with pytest.raises(ValueError, match="Expecting") as info:
        trainer.RunRecord.load(path)
    assert str(path) in str(info.value)


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

    def run(layout, swap_rows):
        st = make_model(n_layers=1, d_model=16, n_heads=2, d_ff=24,
                        vocab_size=cv.total_size, max_seq_len=seq_len,
                        dtype="float32", seed=23)
        if swap_rows:
            st.params["token_embedding"] = st.params["token_embedding"][perm_ids]
        cursor = mixer.StreamCursor(stream, seq_len=seq_len)
        source = trainer.ClonedMixtureSource(cursor, layout, policy, batch_size=4, seed=17)
        return trainer.train(st, source, cfg, vocab_groups=groups)

    st_a, rec_a = run(cv, swap_rows=False)
    st_b, rec_b = run(tokenizer.relabel(cv, [1, 0]), swap_rows=True)
    assert rec_a.losses == rec_b.losses
    # tags name roles, so role n saw the same tokens in both runs
    assert rec_a.lang_token_counts == rec_b.lang_token_counts
    for name in st_a.params:
        if name == "token_embedding":
            assert np.array_equal(st_a.params[name][perm_ids], st_b.params[name])
        else:
            assert np.array_equal(st_a.params[name], st_b.params[name]), name
