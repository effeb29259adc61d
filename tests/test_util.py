import numpy as np
import pytest

from xlab import corpus, model, scaling, tokenizer, trainer, util

from conftest import make_model, make_vocab


def _run_record(k):
    rec = trainer.RunRecord(seed=k, config_digest="d", n_languages=1)
    rec.losses, rec.step_lang_tokens = [1.0] * k, [[8]] * k
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
