import gc
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from xlab import mixer, model, tokenizer, trainer, util

from conftest import edit_array_file, make_model, make_vocab, markov_stream


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


def test_a_run_of_one_step_trains_without_warmup(tmp_path):
    # 0 < warmup_steps < total_steps had no solution at total_steps=1
    cfg = trainer.TrainConfig(total_steps=1, batch_size=8, seq_len=16, warmup_steps=0)
    assert trainer.lr_at(cfg, 0) == cfg.lr_max
    st, source, _, _ = small_setup()
    before = st.copy()
    st, record = trainer.train(st, source, cfg, out_dir=tmp_path)
    assert record.steps == 1
    assert not np.array_equal(st.params["token_embedding"], before.params["token_embedding"])
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint_0000001.xlck"]
    for total_steps, warmup_steps in ((1, 1), (10, 10)):
        with pytest.raises(ValueError, match="need 0 <= warmup_steps < total_steps"):
            trainer.TrainConfig(total_steps=total_steps, batch_size=1, seq_len=8,
                                warmup_steps=warmup_steps)


@pytest.mark.parametrize("field, value", [("checkpoint_every", -1)])
def test_train_config_rejects_settings_it_would_misread(field, value):
    # a negative checkpoint_every would checkpoint every step
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        trainer.TrainConfig(total_steps=10, batch_size=1, seq_len=8, warmup_steps=2,
                            **{field: value})


@pytest.mark.parametrize("field, value, match", [
    # a float step count failed in range() and digested apart from its int
    ("total_steps", 10.0, "total_steps must be an int, got 10.0"),
    ("batch_size", True, "batch_size must be an int, got True"),
    ("seq_len", np.int64(8), "seq_len must be an int, got np.int64.8."),
    ("warmup_steps", 2.5, "warmup_steps must be an int, got 2.5"),
    ("seed", "0", "seed must be an int, got '0'"),
    ("seed", -1, "seed must be >= 0 and an int, got -1"),
    ("checkpoint_every", None, "checkpoint_every must be an int, got None"),
    ("lr_max", float("nan"), "lr_max must be a finite float, got nan"),
    ("lr_min", float("inf"), "lr_min must be a finite float, got inf"),
    ("lr_max", 1, "lr_max must be a finite float, got 1"),
    ("lr_min", -1e-6, r"need 0 <= lr_min <= lr_max"),
])
def test_train_config_names_the_field_it_refuses(field, value, match):
    settings = dict(total_steps=10, batch_size=1, seq_len=8, warmup_steps=2)
    with pytest.raises(ValueError, match=match):
        trainer.TrainConfig(**{**settings, field: value})


@pytest.mark.parametrize("field", ["beta1", "beta2", "eps", "grad_clip"])
def test_the_optimizer_constants_are_not_settable(field):
    with pytest.raises(TypeError):
        trainer.TrainConfig(total_steps=10, batch_size=1, seq_len=8, warmup_steps=2,
                            **{field: 0.5})


def test_config_digest_is_pinned():
    # pure JSON and SHA-256: it moves with any TrainConfig or ModelConfig field, or
    # with Adam's and the clip's constants, which it records under their old keys
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    cfg = trainer.TrainConfig(total_steps=4, batch_size=4, seq_len=16, warmup_steps=1, seed=2,
                              lr_max=3e-3, lr_min=3e-4, checkpoint_every=2)
    _, record = trainer.train(st, src, cfg)
    assert record.config_digest == (
        "e33f4ae151a3c63f690851e3473e8745c1cc813f53a67c06d688eecfaeb51dca")


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_clip_gradients_scales_to_the_clip_norm_and_returns_the_float64_norm(dtype):
    rng = np.random.default_rng(3)
    shapes = {"token_embedding": (12, 4), "w": (4, 5), "b": (5,)}
    groups = (slice(0, 2), [slice(2, 7), slice(7, 12)])
    for target in (30.0, 1.5, 0.5):  # about the global norm of the 73 entries
        grads = {k: (rng.standard_normal(s) * target / math.sqrt(73)).astype(dtype)
                 for k, s in shapes.items()}
        before = {k: g.copy() for k, g in grads.items()}
        want = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in before.values()))
        norm = trainer._clip_gradients(grads, groups)
        assert norm == pytest.approx(want, rel=1e-12)
        after = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
        if want > trainer.GRAD_CLIP:
            rel = 1e-6 if dtype == "float32" else 1e-14
            assert after == pytest.approx(trainer.GRAD_CLIP, rel=rel)
            assert all(g.dtype == dtype for g in grads.values())
        else:
            assert all(grads[k].tobytes() == before[k].tobytes() for k in shapes)


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
    adam = trainer.Adam(params)
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


def test_batch_size_must_match_the_config(tmp_path):
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)
    st, src, _, _ = small_setup(seed=2, batch_size=3)
    with pytest.raises(ValueError, match=r"3 rows of width 16 at step 0; .*batch_size 4"):
        trainer.train(st, src, cfg)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    st, src, _, _ = small_setup(seed=2, batch_size=3)
    with pytest.raises(ValueError, match=r"3 rows of width 16 at step 3; .*batch_size 4"):
        trainer.train(st, src, cfg, resume_from=tmp_path / "checkpoint_0000003.xlck")


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
    header, _ = util.read_arrays(tmp_path / "checkpoint_0000004.xlck", model.CHECKPOINT_MAGIC,
                                 model.CHECKPOINT_VERSION, model.CheckpointError)
    assert set(header) == {"config", "extra", "step"}
    assert set(header["extra"]) == {"source", "record"}
    assert header["extra"]["record"] == asdict(record)
    assert header["step"] == record.steps == 4


def _rewrite_extra(path, edit):
    edit_array_file(path, lambda header, tensors: edit(header["extra"]))


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
    (lambda path: edit_array_file(path, lambda header, tensors: tensors.update(
        {"adam_m.token_embedding": tensors["adam_m.token_embedding"][:3]})),
     r"adam_m\.token_embedding is float32 \(3, 32\), the parameter float32 \(10, 32\)$"),
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


def test_adam_restore_checks_before_it_adopts():
    params = {"w": np.ones((3, 2), np.float32), "b": np.ones(2, np.float32)}
    adam = trainer.Adam(params)
    initial = adam.tensors()
    good = {k: np.full_like(m, 0.5) for k, m in initial.items()}
    for bad, match in [
        ({k: m for k, m in good.items() if k != "adam_v.w"}, r"lacks adam_v\.w$"),
        ({}, r"lacks adam_m\.b, adam_m\.w, adam_v\.b \.\.\.$"),
        ({**good, "adam_m.b": good["adam_m.b"].astype(np.float64)},
         r"adam_m\.b is float64 \(2,\), the parameter float32 \(2,\)$"),
    ]:
        with pytest.raises(ValueError, match=match):
            adam.restore(bad, t=7)
        assert adam.t == 0 and all(adam.tensors()[k] is m for k, m in initial.items())
    adam.restore(good, t=7)
    assert adam.t == 7 and all(adam.tensors()[k] is m for k, m in good.items())


def test_resume_keeps_no_reference_to_the_initial_moments(tmp_path, monkeypatch):
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    initial, alive = [], []

    class WatchedAdam(trainer.Adam):
        def __init__(self, *args):
            super().__init__(*args)
            initial.extend(weakref.ref(m) for m in self.tensors().values())

    def count_alive(*_):
        gc.collect()
        alive.append(sum(ref() is not None for ref in initial))

    monkeypatch.setattr(trainer, "Adam", WatchedAdam)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, eval_hooks=[(4, count_alive)],
                  resume_from=tmp_path / "checkpoint_0000003.xlck")
    assert len(initial) == 2 * len(st.params) and alive == [0]


def test_resume_rejects_corrupt_checkpoint(tmp_path):
    cfg = trainer.TrainConfig(total_steps=30, batch_size=4, seq_len=16,
                              warmup_steps=5, seed=2, checkpoint_every=30)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    trainer.train(st, src, cfg, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint_0000030.xlck"
    raw = ckpt.read_bytes()
    assert raw.count(b'"step": 30') == 1
    ckpt.write_bytes(raw.replace(b'"step": 30', b'"step": 27'))  # a header edited in place
    st2, src2, _, _ = small_setup(seed=2, batch_size=4)
    with pytest.raises(model.CheckpointError, match=f"{ckpt.name}: digest mismatch"):
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


def test_an_evals_key_that_is_not_a_str_fails_whole_and_resumed_runs_alike(tmp_path):
    # a resumed run used to fail with a bare TypeError from json.dumps, as its
    # record held the key "3" from the checkpoint beside the hook's int 6
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)

    def record_step(key):
        return lambda state, steps_done, record: record.evals.update({key(steps_done): {}})

    match = "after the hooks of step 6, record.evals key must be a str, got 6"
    hooks = [(3, record_step(str)), (6, record_step(int))]
    for resume in (None, tmp_path / "full" / "checkpoint_0000003.xlck"):
        st, src, _, _ = small_setup(seed=2, batch_size=4)
        with pytest.raises(ValueError, match=match):
            trainer.train(st, src, cfg, eval_hooks=hooks, out_dir=tmp_path / "full",
                          resume_from=resume)
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    with pytest.raises(ValueError,
                       match="after the hooks of step 3, record.evals key must be a str, got 3"):
        trainer.train(st, src, cfg, eval_hooks=[(3, record_step(int))])


@pytest.mark.parametrize("value, shown", [
    (np.float32(2.0), "np.float32"),  # used to fail at the checkpoint with a bare TypeError
    ((1, 2), r"\(1, 2\)"),  # reads back as a list
    (float("nan"), "nan"),
], ids=["numpy-scalar", "tuple", "nan"])
def test_an_evals_value_json_does_not_give_back_is_refused(tmp_path, value, shown):
    cfg = trainer.TrainConfig(total_steps=2, batch_size=4, seq_len=16, warmup_steps=1,
                              seed=2, checkpoint_every=1)

    def hook(state, steps_done, record):
        record.evals[str(steps_done)] = {"ppl": [1.5, {"0": value}]}

    st, src, _, _ = small_setup(seed=2, batch_size=4)
    with pytest.raises(ValueError, match=rf"after the hooks of step 1, record.evals\['1'\]\['ppl'\]"
                                         rf"\[1\]\['0'\] must be a (JSON value|finite float), "
                                         f"got {shown}"):
        trainer.train(st, src, cfg, eval_hooks=[(1, hook)], out_dir=tmp_path)


def test_nested_evals_resume_bit_for_bit(tmp_path):
    cfg = trainer.TrainConfig(total_steps=6, batch_size=4, seq_len=16,
                              warmup_steps=1, seed=2, checkpoint_every=3)

    def hook(state, steps_done, record):
        record.evals[str(steps_done)] = {"ppl": {"0": 3.25, "1": [4.5, None]}, "ok": True,
                                         "steps": steps_done, "note": "x"}

    hooks = [(3, hook), (6, hook)]
    st_full, src, _, _ = small_setup(seed=2, batch_size=4)
    st_full, full = trainer.train(st_full, src, cfg, eval_hooks=hooks, out_dir=tmp_path / "full")
    st, src, _, _ = small_setup(seed=2, batch_size=4)
    st, resumed = trainer.train(st, src, cfg, eval_hooks=hooks, out_dir=tmp_path / "resumed",
                                resume_from=tmp_path / "full" / "checkpoint_0000003.xlck")
    assert resumed == full and sorted(full.evals) == ["3", "6"]
    for k in st_full.params:
        assert np.array_equal(st.params[k], st_full.params[k]), k
    assert ((tmp_path / "full" / "checkpoint_0000006.xlck").read_bytes()
            == (tmp_path / "resumed" / "checkpoint_0000006.xlck").read_bytes())


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


def test_hooks_of_one_step_run_in_the_order_given():
    st, source, _, _ = small_setup(seed=5)
    seen = []

    def hook(name):
        return lambda s, step, rec: seen.append((step, name))

    cfg = trainer.TrainConfig(total_steps=4, batch_size=8, seq_len=16,
                              warmup_steps=1, seed=5)
    trainer.train(st, source, cfg, eval_hooks=[(4, hook("b")), (2, hook("c")), (4, hook("a"))])
    assert seen == [(2, "c"), (4, "b"), (4, "a")]


def test_run_record_roundtrip(tmp_path):
    rec = trainer.RunRecord(seed=1, config_digest="abc", n_languages=2)
    assert rec.steps == 0 and rec.lang_token_counts == [0, 0]
    rec.losses = [3.0, 2.5]
    rec.step_lang_tokens = [[10, 6], [0, 16]]
    assert rec.steps == 2 and rec.lang_token_counts == [10, 22]
    rec.evals["2"] = {"0": {"ppl": 9.0}}
    rec.save(tmp_path / "r.xlrr")
    back = trainer.RunRecord.load(tmp_path / "r.xlrr")
    assert asdict(back) == asdict(rec)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.pop("seed"), r"missing fields \['seed'\] and unknown fields \[\]"),
    (lambda d: d.update(steps=2), r"missing fields \[\] and unknown fields \['steps'\]"),
])
def test_run_record_rejects_missing_and_unknown_fields(tmp_path, edit, match):
    d = asdict(trainer.RunRecord(seed=1, config_digest="abc", n_languages=2))
    edit(d)
    with pytest.raises(ValueError, match=match):
        util.from_fields(trainer.RunRecord, d, ValueError)
    path = tmp_path / "r.xlrr"
    util.write_arrays(path, trainer.RECORD_MAGIC, trainer.RECORD_VERSION, d)
    with pytest.raises(ValueError, match=match) as info:
        trainer.RunRecord.load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("edit, match", [
    (dict(n_languages=0), "got n_languages 0, 2 rows, 2 losses"),
    (dict(losses=[2.0]), "got n_languages 2, 2 rows, 1 losses"),
    (dict(step_lang_tokens=[[1, 2], [3, 4], [5, 6]]), "got n_languages 2, 3 rows, 2 losses"),
    (dict(step_lang_tokens=[[1, 2], [3]]), "got n_languages 2, 2 rows, 2 losses"),
    (dict(step_lang_tokens=[[1, 2], [3, -4]]), "got n_languages 2, 2 rows, 2 losses"),
])
def test_run_record_holds_one_row_of_counts_per_loss(tmp_path, edit, match):
    # a record of n_languages=-3, losses "abc" and rows [[1.5]] used to load with 3 steps
    good = dict(seed=1, config_digest="abc", n_languages=2, losses=[3.0, 2.5],
                step_lang_tokens=[[10, 6], [0, 16]])
    trainer.RunRecord(**good)
    match = "need n_languages >= 1 and a row of that many counts >= 0 per loss, " + match
    with pytest.raises(ValueError, match=match):
        trainer.RunRecord(**{**good, **edit})
    path = tmp_path / "r.xlrr"
    util.write_arrays(path, trainer.RECORD_MAGIC, trainer.RECORD_VERSION,
                      {**asdict(trainer.RunRecord(**good)), **edit})
    with pytest.raises(ValueError, match=f"{path}: .*{match}"):
        trainer.RunRecord.load(path)


def test_run_record_load_names_file_on_bad_json(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"seed": 1,')  # neither a run record file nor JSON
    with pytest.raises(ValueError, match="bad magic") as info:
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


@pytest.mark.parametrize("probs", [[1.0], [0.3, 0.3, 0.4]])
def test_a_source_needs_a_policy_over_the_layout_languages(probs):
    # with 3 policy languages a run failed at the first batch of language 2; with 1,
    # language 1 was never trained
    cv = tokenizer.clone_vocab(make_vocab(10), 2)
    policy = mixer.parse_policy([{"until": 1.0, "probs": probs}])
    cursor = mixer.StreamCursor(markov_stream(200, 10, seed=0)[0], seq_len=8)
    with pytest.raises(ValueError, match=f"a policy of {policy.n_languages} languages, a "
                                         "layout of 2"):
        trainer.MixtureSource(cursor, cv, policy, batch_size=2, seed=0)


@pytest.mark.parametrize("field, value, match", [
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("batch_size", 2.5, "batch_size must be an int, got 2.5"),
    ("batch_size", True, "batch_size must be an int, got True"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("seed", 1.5, "seed must be an int, got 1.5"),
])
def test_a_source_names_a_bad_batch_size_or_seed(field, value, match):
    # batch_size 0 failed at the first batch in np.stack, 2.5 with a bare TypeError, and a
    # seed of -1 or 1.5 with numpy's errors
    cv = tokenizer.clone_vocab(make_vocab(10), 1)
    cursor = mixer.StreamCursor(markov_stream(200, 10, seed=0)[0], seq_len=8)
    args = {"batch_size": 2, "seed": 0, field: value}
    with pytest.raises(ValueError, match=match):
        trainer.MixtureSource(cursor, cv, mixer.parse_policy([{"until": 1.0, "probs": [1.0]}]),
                              **args)
