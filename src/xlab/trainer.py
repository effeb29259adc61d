"""Optimization loop: Adam with linear warmup and cosine decay over
mixer-produced batches, with per-language token accounting, periodic
checkpoints, and bit-exact resume.

A :class:`MixtureSource` owns the data stream cursors, the sampling RNG and
the id remapping, for cloned languages and real pairs alike; the trainer only
consumes (ids, targets, tags) batches. A source exposes its exact state so a
checkpoint can restore the run mid-stream: ``train(..., resume_from=path)``.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, fields
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
from .util import atomic_write, json_digest

logger = logging.getLogger(__name__)


class TrainAbortError(RuntimeError):
    """Raised when training hits a non-finite loss; carries the last good
    checkpoint path (or None if none was written)."""

    def __init__(self, message: str, last_checkpoint: str | None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    batch_size: int
    seq_len: int
    lr_max: float = 6e-4
    lr_min: float = 6e-6
    warmup_steps: int = 500
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.total_steps < 0 or self.batch_size <= 0 or self.seq_len <= 0:
            raise ValueError("total_steps must be >= 0; batch_size, seq_len positive")
        if self.lr_min > self.lr_max or self.lr_max <= 0:
            raise ValueError("need 0 < lr_min <= lr_max")
        if self.total_steps > 0 and not 0 < self.warmup_steps < self.total_steps:
            raise ValueError("need 0 < warmup_steps < total_steps")
        for name in ("grad_clip", "checkpoint_every"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0 (0 turns it off), got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)


def lr_at(config: TrainConfig, step: int) -> float:
    """Linear warmup 0 -> lr_max over warmup_steps, then cosine decay reaching
    lr_min at total_steps."""
    if not 0 <= step < max(config.total_steps, 1):
        raise ValueError(f"step {step} out of range [0, {config.total_steps})")
    if step < config.warmup_steps:
        return config.lr_max * step / config.warmup_steps
    progress = (step - config.warmup_steps) / (config.total_steps - config.warmup_steps)
    return config.lr_min + 0.5 * (config.lr_max - config.lr_min) * (
        1.0 + math.cos(math.pi * progress)
    )


class Adam:
    """Vanilla Adam with bias correction; moments live in the model dtype. A step
    works in two scratch buffers the size of the largest parameter, made once."""

    def __init__(self, params: dict[str, np.ndarray], beta1: float, beta2: float, eps: float):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        largest = max(params.values(), key=np.size)
        self._scratch = np.empty((2, largest.size), largest.dtype)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        """``m += (1 - beta1) * (g - m)``, ``v += (1 - beta2) * (g * g - v)``, ``p -=
        (lr / b1c) * m / (sqrt(v / b2c) + eps)``, in that order; writes no grad."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, p in params.items():
            g = grads[k]
            m, v = self.m[k], self.v[k]
            s, u = (buf[: p.size].reshape(p.shape) for buf in self._scratch)
            m += np.multiply(np.subtract(g, m, out=s), 1.0 - self.beta1, out=s)
            np.subtract(np.multiply(g, g, out=s), v, out=s)
            v += np.multiply(s, 1.0 - self.beta2, out=s)
            np.add(np.sqrt(np.divide(v, b2c, out=s), out=s), self.eps, out=s)
            p -= np.divide(np.multiply(m, lr / b1c, out=u), s, out=u)

    def tensors(self) -> dict[str, np.ndarray]:
        out = {f"adam_m.{k}": v for k, v in self.m.items()}
        out.update({f"adam_v.{k}": v for k, v in self.v.items()})
        return out

    def restore(self, tensors: dict[str, np.ndarray], t: int):
        self.t = t
        for k in self.m:
            self.m[k] = tensors[f"adam_m.{k}"].astype(self.m[k].dtype)
            self.v[k] = tensors[f"adam_v.{k}"].astype(self.v[k].dtype)


@dataclass
class RunRecord:
    """Everything a finished (or interrupted) run reports about itself. Step
    count and per-language token totals are derived, not stored."""

    seed: int
    config_digest: str
    n_languages: int
    losses: list[float] = field(default_factory=list)
    step_lang_tokens: list[list[int]] = field(default_factory=list)
    evals: dict[str, dict] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.losses)

    @property
    def lang_token_counts(self) -> list[int]:
        """Tokens seen per language: the column sums of ``step_lang_tokens``."""
        return [sum(col) for col in zip(*self.step_lang_tokens)] or [0] * self.n_languages

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Raises ValueError naming every missing or unknown field."""
        if not isinstance(d, dict):
            raise ValueError(f"a run record is a JSON object, got {type(d).__name__}")
        names = {f.name for f in fields(cls)}
        missing, unknown = sorted(names - d.keys()), sorted(d.keys() - names)
        if missing or unknown:
            raise ValueError(
                f"run record with missing fields {missing} and unknown fields {unknown}"
            )
        return cls(**d)

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as f:
            f.write(json.dumps(self.to_dict(), sort_keys=True, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "RunRecord":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Batch sources


class MixtureSource:
    """Training slices, each assigned one sampled language and remapped into
    that language's model ids.

    ``cursors`` is one :class:`StreamCursor` shared by every language (cloned
    languages read the same base stream) or a sequence with one cursor per
    language (real pairs read their own corpora). Tag n is language n of
    ``layout``; to swap clone roles, pass a layout from
    :func:`xlab.tokenizer.relabel`.
    """

    def __init__(
        self,
        cursors: StreamCursor | Sequence[StreamCursor],
        layout: IdLayout,
        policy: MixPolicy,
        batch_size: int,
        seed: int,
    ):
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
        self.rng = np.random.default_rng(seed)

    @property
    def n_languages(self) -> int:
        return self.policy.n_languages

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


def _clip_gradients(grads, clip: float, vocab_groups: VocabGroups | None) -> float:
    sq = 0.0
    for name in sorted(grads):
        groups = vocab_groups if name in ("token_embedding", "output_head.weight") else None
        sq += grouped_sumsq(grads[name], groups)
    norm = math.sqrt(sq)
    if clip > 0 and norm > clip:
        scale = np.asarray(clip / norm, dtype=next(iter(grads.values())).dtype)
        for g in grads.values():
            g *= scale
    return norm


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory for the process (arrays up to 32 MiB from its
    heap, no trimming); by default it returns the free top of the heap to the OS,
    and every step faults its caches back in. Without ``mallopt``, a no-op."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None and mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD, else 128 KiB once the above is set


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
    with (state, steps_completed, record) on an immutable snapshot boundary.
    A resumed run continues the RunRecord and, with the restored RNG and
    cursors, matches the uninterrupted run bit for bit.
    """
    _keep_freed_memory()
    digest = json_digest({"train": config.to_dict(), "model": state.config.to_dict()})
    record = RunRecord(seed=config.seed, config_digest=digest, n_languages=source.n_languages)
    adam = Adam(state.params, config.beta1, config.beta2, config.eps)
    start_step = 0
    last_ckpt: str | None = None

    if resume_from is not None:
        ck_state, ck_step, opt, extra = load_checkpoint(resume_from)
        try:  # every check before anything moves: a source that fails restores nothing
            record = RunRecord.from_dict(extra.get("record"))
            if record.config_digest != digest:
                raise ValueError(f"it was produced by a different run config "
                                 f"({record.config_digest} != {digest}); refusing to resume")
            lacking = sorted(adam.tensors().keys() - opt.keys())
            lacking += [f"extra.{k}" for k in {"source"} - extra.keys()]
            if lacking:
                raise ValueError("it lacks " + ", ".join(lacking[:3])
                                 + (" ..." if len(lacking) > 3 else ""))
            source.restore(extra["source"])
        except ValueError as e:
            raise ValueError(f"cannot resume from checkpoint {resume_from}: {e}") from e
        state.params = ck_state.params  # in the config dtype, checked by the loader
        adam.restore(opt, t=ck_step)  # Adam takes one step per training step
        start_step = ck_step
        last_ckpt = str(resume_from)

    hooks = sorted(eval_hooks)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    def write_checkpoint(steps_done: int) -> str:
        path = out / f"checkpoint_{steps_done:07d}.xlck"
        save_checkpoint(path, state, step=steps_done, opt_tensors=adam.tensors(),
                        extra={"source": source.state(), "record": record.to_dict()})
        return str(path)

    for step in range(start_step, config.total_steps):
        ids, targets, tags = source.next_batch(step, config.total_steps)
        if ids.shape[1] != config.seq_len:
            raise ValueError(
                f"batch width {ids.shape[1]} at step {step} differs from "
                f"TrainConfig.seq_len {config.seq_len}"
            )
        try:
            loss, grads = loss_and_grads(state, ids, targets, vocab_groups)
        except FloatingPointError as e:
            raise TrainAbortError(
                f"aborting at step {step}: {e}; last good checkpoint: {last_ckpt}",
                last_ckpt,
            ) from e
        _clip_gradients(grads, config.grad_clip, vocab_groups)
        adam.step(state.params, grads, lr_at(config, step))
        record.losses.append(loss)
        tokens = np.bincount(tags, minlength=record.n_languages) * ids.shape[1]
        record.step_lang_tokens.append(tokens.tolist())
        steps_done = step + 1
        # hooks first, so what they record is in this step's checkpoint
        for at, fn in hooks:
            if at == steps_done:
                fn(state, steps_done, record)
        # the last step's checkpoint is written after the loop, once
        if (out is not None and config.checkpoint_every and steps_done < config.total_steps
                and steps_done % config.checkpoint_every == 0):
            last_ckpt = write_checkpoint(steps_done)

    if out is not None and config.total_steps > start_step:
        last_ckpt = write_checkpoint(config.total_steps)
    return state, record
