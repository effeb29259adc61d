"""Language assignment for training sequences, and the stream cursors that
supply them.

Each training sequence gets exactly one language, sampled from a staged,
possibly time-varying distribution; the trainer's ``MixtureSource`` then
remaps its token ids into that language's ids through a
:class:`~xlab.tokenizer.IdLayout` (a clone layout for cloned languages, a
disjoint or merged layout for real bilingual corpora). Sampling is
per-sequence, never per-token.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .corpus import CorpusError, TokenStream
from .util import checked_args

logger = logging.getLogger(__name__)


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class MixPolicy:
    """Ordered schedule stages: (end_fraction, probability vector).

    Stage i is active for training progress in [end_{i-1}, end_i); switches
    are immediate at stage boundaries. Each stage, from :func:`parse_policy` too, is
    a pair whose end is a real number, not a bool or a str; the final end fraction
    must be 1. Each probability vector holds numbers, is 1-d and non-empty, and all
    have one length; PolicyError names a stage it refuses.
    """

    stages: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not isinstance(self.stages, (list, tuple)) or not self.stages:
            raise PolicyError(f"policy needs a non-empty tuple of stages, got {self.stages!r}")
        for i, st in enumerate(self.stages):
            if (not isinstance(st, (list, tuple)) or len(st) != 2
                    or type(st[0]) is bool or not isinstance(st[0], Real)):
                raise PolicyError(f"stage {i} must be an (end, probabilities) pair with a real "
                                  f"end, got {st!r}")
        ends = [e for e, _ in self.stages]
        if any(b <= a for a, b in zip(ends, ends[1:])) or not all(0 < e <= 1 for e in ends):
            raise PolicyError(f"stage end fractions must be strictly increasing in (0, 1], got {ends}")
        if ends[-1] != 1.0:
            raise PolicyError(f"final stage must end at 1.0, got {ends[-1]}")
        norm = []
        for i, (e, p) in enumerate(self.stages):
            try:
                p = np.asarray(p, dtype=np.float64)
            except (TypeError, ValueError) as err:
                raise PolicyError(f"stage {i} probabilities {p!r} are not numbers") from err
            if p.ndim != 1 or not len(p):
                raise PolicyError(f"stage ending at {e} needs a non-empty 1-d probability "
                                  f"vector, got shape {p.shape}")
            if norm and len(p) != len(norm[0][1]):
                raise PolicyError("all stages must cover the same number of languages")
            if not np.all(np.isfinite(p) & (p >= 0)):  # a NaN passes both checks otherwise
                raise PolicyError(f"negative or non-finite probability in stage ending at {e}")
            if abs(p.sum() - 1.0) > 1e-12:
                raise PolicyError(f"stage ending at {e} has probabilities summing to {p.sum()!r}")
            norm.append((float(e), p / p.sum()))
        object.__setattr__(self, "stages", tuple(norm))

    @property
    def n_languages(self) -> int:
        return len(self.stages[0][1])


@checked_args(PolicyError)
def parse_policy(spec, n_languages: int | None = None) -> MixPolicy:
    """Accept a MixPolicy, a stage list like [{"until": 0.5, "probs": [0.9, 0.1]}]
    (a list of mappings, each with exactly the keys ``until`` and ``probs``),
    or a two-language shorthand: "50/50" (constant) or "90v10" (two-stage
    mirror, switching halfway). :class:`MixPolicy` alone checks a stage's ``until``
    and ``probs``, so a str ``until`` is refused as a str end is. ``n_languages``, if
    given, is what the policy's language count must equal."""
    if isinstance(spec, MixPolicy):
        policy = spec
    elif isinstance(spec, str):
        s = spec.strip()
        sep = "v" if "v" in s else "/" if "/" in s else None
        if sep is None:
            raise PolicyError(f"unrecognised policy shorthand {spec!r}")
        try:
            a, b = (float(x) for x in s.split(sep))
        except ValueError as e:
            raise PolicyError(f"unrecognised policy shorthand {spec!r}") from e
        if abs(a + b - 100.0) > 1e-9:
            raise PolicyError(f"shorthand percentages must sum to 100, got {spec!r}")
        p = np.array([a / 100.0, b / 100.0])
        if sep == "/":
            stages = ((1.0, p),)
        else:
            stages = ((0.5, p), (1.0, p[::-1]))
        policy = MixPolicy(stages=stages)
    else:
        if not isinstance(spec, (list, tuple)):
            raise PolicyError(f"a stage list is a list of stages, got {spec!r}")
        for i, st in enumerate(spec):
            if not isinstance(st, Mapping) or st.keys() != {"until", "probs"}:
                raise PolicyError(f"stage {i} must be a mapping with the keys 'until' and "
                                  f"'probs', got {st!r}")
        policy = MixPolicy(stages=tuple((st["until"], st["probs"]) for st in spec))
    if n_languages is not None and policy.n_languages != n_languages:
        raise PolicyError(
            f"policy covers {policy.n_languages} languages but the vocabulary "
            f"defines {n_languages}"
        )
    return policy


@checked_args(PolicyError)
def probs_at(policy: MixPolicy, step: int, total_steps: int) -> np.ndarray:
    """The active stage's probabilities at training progress step/total_steps."""
    if not 0 <= step < total_steps:
        raise PolicyError(f"step {step} out of range [0, {total_steps})")
    x = step / total_steps
    for end, p in policy.stages:
        if x < end:
            return p
    return policy.stages[-1][1]


def marginal(policy: MixPolicy) -> np.ndarray:
    """Length-weighted average of stage probabilities over the whole run."""
    out = np.zeros(policy.n_languages)
    prev = 0.0
    for end, p in policy.stages:
        out += (end - prev) * p
        prev = end
    return out


@checked_args(PolicyError)
def sample_language(
    policy: MixPolicy, step: int, total_steps: int, rng: np.random.Generator
) -> int:
    """Draw one language tag (one uniform variate consumed per call).

    Tag n is the policy's language n. To swap clone roles, keep the policy and
    relabel the id layout (:func:`xlab.tokenizer.relabel`): the same random
    stream then feeds the other clone's ids under the same tags.
    """
    p = probs_at(policy, step, total_steps)
    tag = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
    return min(tag, len(p) - 1)


class StreamCursor:
    """Sequential reader of overlapping training slices from a token stream.

    Documents are concatenated with the separator id in between; slice k
    covers positions [k*seq_len, k*seq_len + seq_len] so consecutive slices
    share one token (the next-token target of the previous slice). When the
    tail cannot fill a slice the cursor wraps to the start and logs an epoch
    increment. Raises CorpusError on a stream with no tokens, a ``seq_len``
    below 1, or a ``separator_id`` that :func:`concat_with_separator` refuses.
    """

    @checked_args(CorpusError)
    def __init__(self, stream: TokenStream, seq_len: int, separator_id: int | None = None):
        if len(stream.ids) == 0:
            raise CorpusError("cannot read training slices from a stream of 0 tokens")
        if seq_len < 1:
            raise CorpusError(f"a training slice needs seq_len >= 1, got {seq_len}")
        self.seq_len = seq_len
        self.data = concat_with_separator(stream, separator_id)
        if len(self.data) < seq_len + 1:
            # tiny corpora: tile until one slice fits
            reps = (seq_len + 1) // max(1, len(self.data)) + 1
            self.data = np.tile(self.data, reps)
        self.position = 0
        self.epoch = 0

    def next(self) -> np.ndarray:
        if self.position + self.seq_len + 1 > len(self.data):
            self.position = 0
            self.epoch += 1
            logger.info("stream exhausted, wrapping to epoch %d", self.epoch)
        out = self.data[self.position : self.position + self.seq_len + 1]
        self.position += self.seq_len
        return out

    def state(self) -> dict:
        return {"position": self.position, "epoch": self.epoch}

    def check(self, state: dict) -> tuple[int, int]:
        """(position, epoch) of ``state``, cursor unmoved; CorpusError names a bad field."""
        if not isinstance(state, dict):
            raise CorpusError(f"a cursor state is a dict, got {type(state).__name__}")
        position, epoch = state.get("position"), state.get("epoch")
        for name, value in (("position", position), ("epoch", epoch)):
            if type(value) is not int:
                raise CorpusError(f"cursor {name} {value!r} is not an int")
        if not 0 <= position <= len(self.data):
            raise CorpusError(f"cursor position {position} outside [0, {len(self.data)}]")
        if epoch < 0:
            raise CorpusError(f"cursor epoch {epoch} is negative")
        return position, epoch


@checked_args(CorpusError)
def concat_with_separator(stream: TokenStream, separator_id: int | None) -> np.ndarray:
    """Flatten a stream's documents into one id array, inserting the separator
    between consecutive documents (none at the ends); CorpusError for a negative
    ``separator_id``."""
    ids = stream.ids.astype(np.int64)
    if separator_id is None:
        return ids
    if separator_id < 0:
        raise CorpusError(f"separator_id must be a non-negative id, got {separator_id}")
    return np.insert(ids, stream.doc_boundaries[:-1].astype(np.intp), separator_id)
