import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xlab import corpus, model, scaling, tokenizer, trainer, util

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
