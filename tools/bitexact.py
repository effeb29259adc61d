"""Bit-identity fingerprint of training, resume and evaluation.

    PYTHONPATH=src python tools/bitexact.py

Trains four small two-clone configs for 40 steps each: float32 grouped
``90v10`` at anchor fraction 0, float32 grouped ``50/50`` at 0.25, float32
ungrouped ``90/10``, and untied float64 grouped ``90v10`` at 0.25. Every config
is run whole and resumed from its step-20 checkpoint, and the script fails if
the two runs, or their step-40 checkpoint files, differ in any bit. It then
prints one line per config: the SHA-256 over the losses, the per-step token
counts, every parameter and the ``per_language_eval`` perplexities, then the
SHA-256 of the whole run's checkpoint files at steps 20 and 40.

A change that claims to keep every floating-point operation, or the checkpoint
bytes, must print the same lines as its parent; run the script in both
checkouts and compare, or run it from one checkout with ``PYTHONPATH`` set to
the other checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from xlab import corpus, evaluator, mixer, model, tokenizer, trainer

N_BASE = 24
SEPARATOR = 0
STEPS = 40
RESUME_AT = 20
DOC_LENGTHS = (1, 2, 15, 16, 17, 40, 61, 130)

# (name, dtype, tied, grouped, policy, anchor fraction)
CONFIGS = (
    ("f32-grouped-90v10-a0", "float32", True, True, "90v10", 0.0),
    ("f32-grouped-50/50-a0.25", "float32", True, True, "50/50", 0.25),
    ("f32-ungrouped-90/10-a0", "float32", True, False, "90/10", 0.0),
    ("f64-untied-grouped-90v10-a0.25", "float64", False, True, "90v10", 0.25),
)


def stream(lengths, seed: int) -> corpus.TokenStream:
    """Documents of the given lengths over base ids 1..N_BASE-1 (0 is the separator)."""
    ids = np.random.default_rng(seed).integers(1, N_BASE, size=sum(lengths))
    return corpus.TokenStream(ids=ids, doc_boundaries=np.cumsum(lengths), vocab_digest="0" * 64)


def setup(dtype: str, tied: bool, policy: str, anchor_fraction: float):
    layout = tokenizer.clone_vocab(tokenizer.Vocabulary(
        pieces=("<unk>",) + tuple(f"p{i}" for i in range(N_BASE - 1)), merges=()),
        2, anchor_fraction=anchor_fraction)
    cursor = mixer.StreamCursor(stream([300] * 10, seed=1), seq_len=16, separator_id=SEPARATOR)
    source = trainer.MixtureSource(cursor, layout, mixer.parse_policy(policy, 2),
                                   batch_size=4, seed=5)
    config = model.ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64,
                               vocab_size=layout.total_size, max_seq_len=16,
                               tie_embeddings=tied, dtype=dtype)
    return model.init(config, seed=3), source, layout


def run(name, dtype, tied, grouped, policy, anchor_fraction, tmp: Path) -> str:
    config = trainer.TrainConfig(total_steps=STEPS, batch_size=4, seq_len=16, warmup_steps=5,
                                 lr_max=3e-3, lr_min=3e-4, seed=7, checkpoint_every=RESUME_AT)
    runs = []
    for resume in (None, tmp / "whole" / f"checkpoint_{RESUME_AT:07d}.xlck"):
        state, source, layout = setup(dtype, tied, policy, anchor_fraction)
        groups = layout.language_slices() if grouped else None
        state, record = trainer.train(state, source, config, vocab_groups=groups,
                                      out_dir=tmp / ("resumed" if resume else "whole"),
                                      resume_from=resume)
        ppl = evaluator.per_language_eval(state, layout, stream(DOC_LENGTHS, seed=2),
                                          window=16, stride=4)
        digest = hashlib.sha256()
        digest.update(json.dumps([[repr(x) for x in record.losses],
                                  record.step_lang_tokens,
                                  [repr(ppl[n].ppl) for n in sorted(ppl)]]).encode())
        for k, v in state.params.items():
            digest.update(k.encode())
            digest.update(np.ascontiguousarray(v))
        runs.append(digest.hexdigest())
    if runs[0] != runs[1]:
        sys.exit(f"{name}: the run resumed from step {RESUME_AT} differs from the whole run")
    files = {step: (tmp / "whole" / f"checkpoint_{step:07d}.xlck").read_bytes()
             for step in (RESUME_AT, STEPS)}
    if (tmp / "resumed" / f"checkpoint_{STEPS:07d}.xlck").read_bytes() != files[STEPS]:
        sys.exit(f"{name}: the resumed run's step-{STEPS} checkpoint differs from the whole run's")
    return " ".join([runs[0]] + [f"ckpt{step}={hashlib.sha256(raw).hexdigest()}"
                                 for step, raw in files.items()])


def main() -> None:
    for spec in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            print(spec[0], run(*spec, Path(tmp)))


if __name__ == "__main__":
    main()
