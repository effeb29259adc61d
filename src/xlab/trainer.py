"""Optimization loop: Adam with linear warmup and cosine decay over
mixer-produced batches, with per-language token accounting, periodic
checkpoints, and bit-exact resume.

A :class:`MixtureSource` owns the data stream cursors, the sampling RNG and
the id remapping, for cloned languages and real pairs alike; the trainer only
consumes (ids, targets, tags) batches. A source exposes its exact state so a
checkpoint can restore the run mid-stream: ``train(..., resume_from=path)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .mixer import MixPolicy, StreamCursor, sample_language
from .model import (
    ModelState,
    VocabGroups,
    grouped_sumsq,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from .tokenizer import IdLayout
from .util import (check_fields, check_type, checked_args, from_fields, json_digest, read_arrays,
                   seeded_rng, write_arrays)

RECORD_MAGIC = b"XLRR"
RECORD_VERSION = 1

BETA1, BETA2, EPS, GRAD_CLIP = 0.9, 0.999, 1e-8, 1.0  # Adam's, and the clipped global norm


class TrainAbortError(RuntimeError):
    """Raised when training hits a non-finite loss; carries the last good
    checkpoint path (or None if none was written)."""

    @checked_args(ValueError)
    def __init__(self, message: str, last_checkpoint: str | None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    """What a run varies; ``BETA1``, ``BETA2``, ``EPS`` and ``GRAD_CLIP`` are fixed,
    and the run digest covers them too. ``batch_size`` and ``seq_len`` are the
    shape of every batch. ``seed`` is recorded in the run record and the digest
    but seeds nothing; ``model.init`` and :class:`MixtureSource` take their own."""

    total_steps: int
    batch_size: int
    seq_len: int
    lr_max: float = 6e-4
    lr_min: float = 6e-6
    warmup_steps: int = 500
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        check_fields(self, ValueError)  # the digest reads 10 and 10.0 apart
        for name in ("total_steps", "batch_size", "seq_len", "warmup_steps", "seed",
                     "checkpoint_every"):
            value, least = getattr(self, name), 1 if name in ("batch_size", "seq_len") else 0
            if value < least:
                raise ValueError(f"{name} must be >= {least} and an int, got {value}")
        if not 0 <= self.lr_min <= self.lr_max or self.lr_max <= 0:
            raise ValueError("need 0 <= lr_min <= lr_max and 0 < lr_max")
        if self.total_steps > 0 and not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")


@checked_args(ValueError)
def lr_at(config: TrainConfig, step: int) -> float:
    """Linear warmup 0 -> lr_max over warmup_steps (none at 0), then cosine decay
    reaching lr_min at total_steps."""
    if not 0 <= step < max(config.total_steps, 1):
        raise ValueError(f"step {step} out of range [0, {config.total_steps})")
    if step < config.warmup_steps:
        return config.lr_max * step / config.warmup_steps
    progress = (step - config.warmup_steps) / (config.total_steps - config.warmup_steps)
    return config.lr_min + 0.5 * (config.lr_max - config.lr_min) * (
        1.0 + math.cos(math.pi * progress)
    )


class Adam:
    """Vanilla Adam (Kingma & Ba, arXiv:1412.6980) with bias correction at ``BETA1``,
    ``BETA2`` and ``EPS``, which the run digest of :func:`train` covers; moments live
    in the model dtype."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    @checked_args(ValueError)
    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        """``m += (1 - BETA1) * (g - m)``, ``v += (1 - BETA2) * (g * g - v)``, ``p -=
        (lr / b1c) * m / (sqrt(v / b2c) + EPS)``, in that order; writes no grad."""
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            m += (1.0 - BETA1) * (g - m)
            v += (1.0 - BETA2) * (g * g - v)
            p -= (lr / b1c) * m / (np.sqrt(v / b2c) + EPS)

    def tensors(self) -> dict[str, np.ndarray]:
        out = {f"adam_m.{k}": v for k, v in self.m.items()}
        out.update({f"adam_v.{k}": v for k, v in self.v.items()})
        return out

    @checked_args(ValueError)
    def restore(self, tensors: dict[str, np.ndarray], t: int):
        """Adopt the writable moments of ``tensors`` after step ``t``. It checks them all
        first: a ValueError names the moments it lacks (the first three) or one whose shape
        or dtype is not its parameter's."""
        mine = self.tensors()
        lacking = sorted(mine.keys() - tensors.keys())
        if lacking:
            raise ValueError("it lacks " + ", ".join(lacking[:3])
                             + (" ..." if len(lacking) > 3 else ""))
        for k, m in mine.items():
            if (tensors[k].shape, tensors[k].dtype) != (m.shape, m.dtype):
                raise ValueError(f"its {k} is {tensors[k].dtype} {tensors[k].shape}, "
                                 f"the parameter {m.dtype} {m.shape}")
        self.t = t
        for k in self.m:
            self.m[k], self.v[k] = tensors[f"adam_m.{k}"], tensors[f"adam_v.{k}"]


@dataclass
class RunRecord:
    """Everything a finished (or interrupted) run reports about itself; step count and
    per-language token totals are derived, not stored. The constructor checks the
    fields' types (:func:`~xlab.util.check_fields`: ``evals`` holds what JSON reads
    back) and that ``step_lang_tokens`` holds a row of counts per loss."""

    seed: int
    config_digest: str
    n_languages: int
    losses: list[float] = field(default_factory=list)
    step_lang_tokens: list[list[int]] = field(default_factory=list)
    evals: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self, ValueError)
        n, rows = self.n_languages, self.step_lang_tokens
        if n < 1 or len(rows) != len(self.losses) or any(len(r) != n or min(r) < 0 for r in rows):
            raise ValueError(f"need n_languages >= 1 and a row of that many counts >= 0 per loss, "
                             f"got n_languages {n}, {len(rows)} rows, {len(self.losses)} losses")

    @property
    def steps(self) -> int:
        return len(self.losses)

    @property
    def lang_token_counts(self) -> list[int]:
        """Tokens seen per language: the column sums of ``step_lang_tokens``."""
        return [sum(col) for col in zip(*self.step_lang_tokens)] or [0] * self.n_languages

    def save(self, path: str | Path) -> None:
        write_arrays(path, RECORD_MAGIC, RECORD_VERSION, asdict(self))

    @classmethod
    def load(cls, path: str | Path) -> "RunRecord":
        header, _ = read_arrays(path, RECORD_MAGIC, RECORD_VERSION, ValueError)
        return from_fields(cls, header, ValueError, f"{path}: ")


# ---------------------------------------------------------------------------
# Batch sources


class MixtureSource:
    """Training slices, each assigned one sampled language and remapped into
    that language's model ids.

    ``cursors`` is one :class:`StreamCursor` shared by every language (cloned
    languages read the same base stream) or a sequence with one cursor per
    language (real pairs read their own corpora). Tag n is language n of
    ``layout``; to swap clone roles, pass a layout from
    :func:`xlab.tokenizer.relabel`. ``batch_size`` is at least 1 and ``seed`` at
    least 0; ValueError names either otherwise.
    """

    @checked_args(ValueError)
    def __init__(
        self,
        cursors: StreamCursor | Sequence[StreamCursor],
        layout: IdLayout,
        policy: MixPolicy,
        batch_size: int,
        seed: int,
    ):
        if policy.n_languages != layout.n_languages:
            raise ValueError(f"a policy of {policy.n_languages} languages, a layout of "
                             f"{layout.n_languages}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        shared = isinstance(cursors, StreamCursor)
        self.cursors = [cursors] if shared else list(cursors)
        if not shared and len(self.cursors) != policy.n_languages:
            raise ValueError(
                f"{len(self.cursors)} stream cursors for {policy.n_languages} languages; "
                "pass one shared cursor or one per language"
            )
        self.layout = layout
        self.policy = policy
        self.batch_size = batch_size
        self.rng = seeded_rng(seed, ValueError)

    @property
    def n_languages(self) -> int:
        return self.policy.n_languages

    @checked_args(ValueError)
    def next_batch(self, step: int, total_steps: int):
        rows, tags = [], []
        for _ in range(self.batch_size):
            tag = sample_language(self.policy, step, total_steps, self.rng)
            cursor = self.cursors[0] if len(self.cursors) == 1 else self.cursors[tag]
            rows.append(self.layout.map_ids(cursor.next(), tag))
            tags.append(tag)
        arr = np.stack(rows)
        return arr[:, :-1], arr[:, 1:], np.asarray(tags)

    def state(self) -> dict:
        return {
            "cursors": [c.state() for c in self.cursors],
            "rng": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        """Checks every cursor state and the RNG state before it moves anything."""
        if not (isinstance(state, dict) and {"cursors", "rng"} <= state.keys()
                and isinstance(state["cursors"], list)
                and len(state["cursors"]) == len(self.cursors)):
            got = sorted(state) if isinstance(state, dict) else type(state).__name__
            raise ValueError(
                f"source state {got} does not fit this source: expected 'cursors' "
                f"({len(self.cursors)} cursor states) and 'rng'"
            )
        checked = [c.check(s) for c, s in zip(self.cursors, state["cursors"])]
        try:
            self.rng.bit_generator.state = state["rng"]  # checked in full before it is set
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"bad source rng state ({e})") from e
        for c, (position, epoch) in zip(self.cursors, checked):
            c.position, c.epoch = position, epoch


# perfbench/drive.py builds ``trainer.ClonedMixtureSource`` and traces its
# ``next_batch`` by this name
ClonedMixtureSource = MixtureSource


# ---------------------------------------------------------------------------
# The loop


def _clip_gradients(grads, vocab_groups: VocabGroups | None) -> float:
    """Scale ``grads`` in place to a global norm of ``GRAD_CLIP`` if it is larger, by
    the Python float ``GRAD_CLIP / norm``, which takes each gradient's dtype; returns
    the norm before clipping, summed in float64 by :func:`grouped_sumsq`."""
    sq = 0.0
    for name in sorted(grads):
        groups = vocab_groups if name in ("token_embedding", "output_head.weight") else None
        sq += grouped_sumsq(grads[name], groups)
    norm = math.sqrt(sq)
    if norm > GRAD_CLIP:
        for g in grads.values():
            g *= GRAD_CLIP / norm
    return norm


def train(
    state: ModelState,
    source,
    config: TrainConfig,
    *,
    vocab_groups: VocabGroups | None = None,
    eval_hooks: Sequence[tuple[int, Callable]] = (),
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> tuple[ModelState, RunRecord]:
    """Run the optimization loop; mutates and returns ``state``.

    Deterministic under (state, source, config): same seed twice is
    bit-identical. Eval hooks are (steps_completed, fn) pairs; fn is called
    with (state, steps_completed, record) on an immutable snapshot boundary,
    the hooks of one step in the order given. Then the one checkpoint site
    writes at every ``checkpoint_every``-th step and at the last. A resumed run
    continues the RunRecord and matches the uninterrupted run bit for bit.
    """
    # under the keys the constants had as TrainConfig fields, so existing checkpoints resume
    run = {**asdict(config), "beta1": BETA1, "beta2": BETA2, "eps": EPS, "grad_clip": GRAD_CLIP}
    digest = json_digest({"train": run, "model": asdict(state.config)})
    record = RunRecord(seed=config.seed, config_digest=digest, n_languages=source.n_languages)
    adam = Adam(state.params)
    start_step = 0
    last_ckpt: str | None = None

    if resume_from is not None:
        ck_state, ck_step, opt, extra = load_checkpoint(resume_from)
        try:  # each owner checks before it adopts: a failed resume moves neither state nor source
            record = from_fields(RunRecord, extra.get("record"), ValueError)
            if record.config_digest != digest:
                raise ValueError(f"it was produced by a different run config "
                                 f"({record.config_digest} != {digest}); refusing to resume")
            adam.restore(opt, t=ck_step)  # Adam takes one step per training step
            if "source" not in extra:
                raise ValueError("it lacks extra.source")
            source.restore(extra["source"])
        except ValueError as e:
            raise ValueError(f"cannot resume from checkpoint {resume_from}: {e}") from e
        state.params = ck_state.params  # in the config dtype, checked by the loader
        start_step = ck_step
        last_ckpt = str(resume_from)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    for step in range(start_step, config.total_steps):
        ids, targets, tags = source.next_batch(step, config.total_steps)
        if ids.shape != (config.batch_size, config.seq_len):
            raise ValueError(f"batch of {ids.shape[0]} rows of width {ids.shape[1]} at step "
                             f"{step}; TrainConfig has batch_size {config.batch_size}, "
                             f"seq_len {config.seq_len}")
        try:
            loss, grads = loss_and_grads(state, ids, targets, vocab_groups)
        except FloatingPointError as e:
            raise TrainAbortError(
                f"aborting at step {step}: {e}; last good checkpoint: {last_ckpt}",
                last_ckpt,
            ) from e
        _clip_gradients(grads, vocab_groups)
        adam.step(state.params, grads, lr_at(config, step))
        record.losses.append(loss)
        tokens = np.bincount(tags, minlength=record.n_languages) * ids.shape[1]
        record.step_lang_tokens.append(tokens.tolist())
        steps_done = step + 1
        # hooks first, so what they record is in this step's checkpoint
        hooks = [fn for at, fn in eval_hooks if at == steps_done]
        for fn in hooks:
            fn(state, steps_done, record)
        if hooks:
            check_type(record.evals, dict[str, dict], ValueError,
                       f"after the hooks of step {steps_done}, record.evals")
        if out is not None and (steps_done == config.total_steps or config.checkpoint_every
                                and steps_done % config.checkpoint_every == 0):
            path = out / f"checkpoint_{steps_done:07d}.xlck"
            save_checkpoint(path, state, step=steps_done, opt_tensors=adam.tensors(),
                            extra={"source": source.state(), "record": asdict(record)})
            last_ckpt = str(path)
    return state, record
