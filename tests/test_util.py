import re
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xlab import alignment, corpus, evaluator, mixer, model, scaling, tokenizer, trainer, util

from conftest import edit_array_file, make_model, make_vocab


def _run_record(k):
    rec = trainer.RunRecord(seed=k, config_digest="d", n_languages=1)
    rec.losses, rec.step_lang_tokens = [1.0] * k, [[8]] * k
    rec.evals[k] = {"ppl": 2.0}  # an int key, as a hook may write, is read back as a string
    return rec


# each writer called with (path, k): k changes what is written
WRITERS = {
    "checkpoint": lambda path, k: model.save_checkpoint(path, make_model(seed=k), step=k),
    "vocab": lambda path, k: tokenizer.save_vocab(path, make_vocab(4 + k)),
    "token_stream": lambda path, k: corpus.write_token_stream(path, corpus.TokenStream(
        ids=np.arange(k, dtype=np.uint32), doc_boundaries=np.array([k], dtype=np.uint64),
        vocab_digest="0" * 64)),
    "run_record": lambda path, k: _run_record(k).save(path),
    "scaling_fit": lambda path, k: scaling.ScalingFit(
        a=float(k), b=0.5, c=1.0, residual=0.0, t_min=1.0, t_max=10.0).save(path),
}

# the loader of each writer's files, the error it raises and the version it reads
READERS = {
    "checkpoint": (model.load_checkpoint, model.CheckpointError, model.CHECKPOINT_VERSION),
    "vocab": (tokenizer.load_vocab, tokenizer.TokenizerError, tokenizer.VOCAB_VERSION),
    "token_stream": (corpus.read_token_stream, corpus.CorpusError, corpus.STREAM_VERSION),
    "run_record": (trainer.RunRecord.load, ValueError, trainer.RECORD_VERSION),
    "scaling_fit": (scaling.ScalingFit.load, scaling.FitError, scaling.FIT_VERSION),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_changed_header_or_payload_byte_is_refused(tmp_path, writer):
    path = tmp_path / "out.dat"
    WRITERS[writer](path, 3)
    load, error, _ = READERS[writer]
    load(path)
    raw = path.read_bytes()
    # a tab for the space after "tensors": the header parses to the same fields
    edits = [(raw.index(b'"tensors": ') + 10, ord("\t"))]
    if writer in ("checkpoint", "token_stream"):  # the writers with a payload
        edits.append((len(raw) - 1, raw[-1] ^ 0x01))
    for at, byte in edits:
        path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
        with pytest.raises(error, match=f"{path.name}: digest mismatch"):
            load(path)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(WRITERS)), st.data())
def test_any_changed_byte_or_truncation_is_refused(tmp_path, writer, data):
    path = tmp_path / "out.dat"
    WRITERS[writer](path, 3)
    load, error, _ = READERS[writer]
    raw = path.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
    # magic, version, header length (a typed error of any kind), then digest-covered
    what = ("bad magic" if at < 4 else "version" if at == 4 else "" if at < 9
            else "digest mismatch")
    path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
    with pytest.raises(error, match=f"{path.name}: .*{what}"):
        load(path)
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(error, match=f"{path.name}: "):
        load(path)


@pytest.mark.parametrize("writer", WRITERS)
def test_the_previous_version_is_refused_by_name(tmp_path, writer):
    path = tmp_path / "out.dat"
    WRITERS[writer](path, 3)
    load, error, version = READERS[writer]
    edit_array_file(path, lambda header, arrays: None, version=version - 1)
    with pytest.raises(error, match=f"{path.name}: unsupported .* version {version - 1} "):
        load(path)


class DiskFullOnClose:
    """A file that takes every write, then fails to flush when closed."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.f.close()
        if exc_type is None:
            raise OSError("no space left on device")

    def write(self, data):
        return self.f.write(data)


@pytest.mark.parametrize("writer, target", [(name, "out.dat") for name in WRITERS])
def test_failed_save_keeps_earlier_file(tmp_path, monkeypatch, writer, target):
    path = tmp_path / "out.dat"
    WRITERS[writer](path, 1)
    before = (tmp_path / target).read_bytes()
    real_open = open

    def failing_open(p, mode, **kwargs):
        f = real_open(p, mode, **kwargs)
        return DiskFullOnClose(f) if p.name == target + ".tmp" else f

    monkeypatch.setattr(util, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space left"):
        WRITERS[writer](path, 2)
    monkeypatch.undo()
    assert (tmp_path / target).read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


# every class that checks its fields' types, its error and the fields of a valid object
CHECKED = {
    "ModelConfig": (model.ModelConfig, ValueError, dict(
        n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=5, max_seq_len=4)),
    "TrainConfig": (trainer.TrainConfig, ValueError, dict(
        total_steps=10, batch_size=1, seq_len=8, warmup_steps=2)),
    "RunRecord": (trainer.RunRecord, ValueError, dict(
        seed=1, config_digest="d", n_languages=1, losses=[1.0], step_lang_tokens=[[8]],
        evals={"1": {"ppl": 2.0}})),
    "ScalingFit": (scaling.ScalingFit, scaling.FitError, dict(
        a=1.0, b=0.5, c=1.0, residual=0.0, t_min=1.0, t_max=10.0)),
    "Vocabulary": (tokenizer.Vocabulary, tokenizer.TokenizerError, dict(
        pieces=("<unk>", "a", "b", "ab"), merges=(("a", "b"),))),
}

# for the classes a file holds: its writer, its loader and where the header keeps the fields
FILES = {
    "ModelConfig": (lambda path, c: model.save_checkpoint(path, model.init(c, seed=0), step=0),
                    model.load_checkpoint, lambda header: header["config"]),
    "RunRecord": (lambda path, r: r.save(path), trainer.RunRecord.load, lambda header: header),
    "ScalingFit": (lambda path, f: f.save(path), scaling.ScalingFit.load, lambda header: header),
    "Vocabulary": (tokenizer.save_vocab, tokenizer.load_vocab, lambda header: header),
}


def _wrong(value):
    """``(value with one part of another type, that part)``: a bool for an int, an int
    for a float or a bool, an int for a str, in a list or tuple its first item's; a
    dict's first value goes into a list."""
    if type(value) in (list, tuple):
        first, part = _wrong(value[0])
        return type(value)([first, *value[1:]]), part
    if type(value) is dict:
        key, item = next(iter(value.items()))
        return {**value, key: [item]}, [item]
    part = {int: True, float: 1, bool: 0, str: 7}[type(value)]
    return part, part


@pytest.mark.parametrize("name", CHECKED)
def test_every_field_refuses_a_value_of_another_type(tmp_path, name):
    cls, error, good = CHECKED[name]
    values = asdict(cls(**good))
    for f in fields(cls):
        bad, part = _wrong(values[f.name])
        match = rf"{f.name}[\[ ].*must be .*, got {re.escape(repr(part))}$"
        with pytest.raises(error, match="^" + match):
            cls(**{**values, f.name: bad})
        if name in FILES:
            save, load, fields_of = FILES[name]
            path = tmp_path / f"{f.name}.dat"
            save(path, cls(**values))
            edit_array_file(path, lambda header, arrays: fields_of(header).update({f.name: bad}))
            with pytest.raises(error, match=f"^{re.escape(str(path))}: .*{match}"):
                load(path)


def _long(value, length, at, part):
    """A list of ``length`` copies of ``value`` with ``part`` at index ``at``."""
    out = [value] * length
    out[at] = part
    return out


# a long field, checked a whole level at a time, names its first misfit as the
# part-by-part walk does: (class, fields, error, message)
DEEP_MISFITS = {
    "pieces[1500]": (tokenizer.Vocabulary, dict(
        pieces=("<unk>", *(f"p{i}" for i in range(1499)), 1500, *(f"q{i}" for i in range(547))),
        merges=()), tokenizer.TokenizerError, "pieces[1500] must be a str, got 1500"),
    "merges[1900][1]": (tokenizer.Vocabulary, dict(
        pieces=("<unk>", "a", *("a" * k for k in range(2, 2002))),
        merges=tuple(("a" * k, "a") if k != 1901 else ("a" * k, b"a") for k in range(1, 2001))),
        tokenizer.TokenizerError, "merges[1900][1] must be a str, got b'a'"),
    "losses[700]": (trainer.RunRecord, dict(
        seed=1, config_digest="d", n_languages=1, losses=_long(1.0, 1000, 700, float("nan")),
        step_lang_tokens=[[8]] * 1000), ValueError, "losses[700] must be a finite float, got nan"),
    "step_lang_tokens[900][1]": (trainer.RunRecord, dict(
        seed=1, config_digest="d", n_languages=2, losses=[1.0] * 1000,
        step_lang_tokens=_long([8, 8], 1000, 900, [8, True])), ValueError,
        "step_lang_tokens[900][1] must be an int, got True"),
    "documents[3000]": (corpus.DocumentStore, dict(documents=_long("a b", 4000, 3000, None)),
                        corpus.CorpusError, "documents[3000] must be a str, got None"),
}


@pytest.mark.parametrize("name", DEEP_MISFITS)
def test_a_misfit_deep_in_a_long_field_is_named(name):
    cls, values, error, message = DEEP_MISFITS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(**values)


FLOAT_IDS = [1.7, 2.2, 3.9]  # once cast, the ids 1, 2 and 3

# each call that takes ids, given float ids, and the error of its module
FLOAT_ID_CALLS = {
    "map_ids": (lambda: tokenizer.clone_vocab(make_vocab(10), 2).map_ids(FLOAT_IDS, 1),
                tokenizer.TokenizerError),
    "to_base": (lambda: tokenizer.clone_vocab(make_vocab(10), 2).to_base(FLOAT_IDS),
                tokenizer.TokenizerError),
    "decode": (lambda: tokenizer.decode(make_vocab(10), FLOAT_IDS), tokenizer.TokenizerError),
    "relabel": (lambda: tokenizer.relabel(tokenizer.clone_vocab(make_vocab(10), 2), [1.7, 0.2]),
                tokenizer.TokenizerError),
    "sliding_logprobs": (lambda: evaluator.sliding_logprobs(make_model(), FLOAT_IDS, 4, 2),
                         evaluator.EvalError),
    "ParallelPair": (lambda: alignment.ParallelPair(FLOAT_IDS, [1, 2, 3], mode="cloned"),
                     alignment.AlignmentError),
    "hidden_states": (lambda: model.hidden_states(make_model(), FLOAT_IDS), ValueError),
    "loss_and_grads ids": (lambda: model.loss_and_grads(make_model(), FLOAT_IDS, [1, 2, 3]),
                           ValueError),
    "loss_and_grads targets": (lambda: model.loss_and_grads(make_model(), [1, 2, 3], FLOAT_IDS),
                               ValueError),
    "TokenStream": (lambda: corpus.TokenStream(FLOAT_IDS, [3], "0" * 64), corpus.CorpusError),
}


@pytest.mark.parametrize("call", FLOAT_ID_CALLS)
def test_float_ids_raise_the_module_error(call):
    run, error = FLOAT_ID_CALLS[call]
    with pytest.raises(error, match="must be integers, got dtype float64"):
        run()


# each call given a negative int, the error of its module and what the message names;
# tests/test_arguments.py probes every int parameter with wrong types
BAD_INT_CALLS = {
    "cursor separator_id -1": (lambda: mixer.StreamCursor(_stream(), 4, separator_id=-1),
                               corpus.CorpusError, "separator_id must be a non-negative"),
    # every seeded generator is made by util.seeded_rng: an int >= 0, no bool
    "split seed -1": (lambda: corpus.split(corpus.DocumentStore(["a", "b"]), 0.5, -1),
                      corpus.CorpusError, "seed must be >= 0, got -1"),
    "clone_vocab seed -1": (lambda: tokenizer.clone_vocab(make_vocab(10), 2, seed=-1),
                            tokenizer.TokenizerError, "seed must be >= 0, got -1"),
    "init seed -1": (lambda: make_model(seed=-1), ValueError, "seed must be >= 0, got -1"),
    "embedding_similarity seed -1": (
        lambda: alignment.embedding_similarity(make_model(), tokenizer.clone_vocab(
            make_vocab(11), 2), seed=-1),
        alignment.AlignmentError, "seed must be >= 0, got -1"),
}


def _stream():
    return corpus.TokenStream(np.arange(1, 9), [4, 8], "0" * 64)


@pytest.mark.parametrize("call", BAD_INT_CALLS)
def test_a_bad_int_argument_raises_the_module_error(call):
    run, error, match = BAD_INT_CALLS[call]
    with pytest.raises(error, match=match):
        run()


def test_a_numpy_integer_language_is_an_int():
    layout = tokenizer.clone_vocab(make_vocab(10), 2)
    assert np.array_equal(layout.map_ids([1], np.int64(1)), layout.map_ids([1], 1))
