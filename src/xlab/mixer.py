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
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, TokenStream

logger = logging.getLogger(__name__)


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class MixPolicy:
    """Ordered schedule stages: (end_fraction, probability vector).

    Stage i is active for training progress in [end_{i-1}, end_i); switches
    are immediate at stage boundaries. The final end fraction must be 1.
    """

    stages: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not self.stages:
            raise PolicyError("policy needs at least one stage")
        ends = [e for e, _ in self.stages]
        if any(b <= a for a, b in zip(ends, ends[1:])) or not all(0 < e <= 1 for e in ends):
            raise PolicyError(f"stage end fractions must be strictly increasing in (0, 1], got {ends}")
        if ends[-1] != 1.0:
            raise PolicyError(f"final stage must end at 1.0, got {ends[-1]}")
        n = len(self.stages[0][1])
        norm = []
        for e, p in self.stages:
            p = np.asarray(p, dtype=np.float64)
            if len(p) != n:
                raise PolicyError("all stages must cover the same number of languages")
            if np.any(p < 0):
                raise PolicyError(f"negative probability in stage ending at {e}")
            if abs(p.sum() - 1.0) > 1e-12:
                raise PolicyError(f"stage ending at {e} has probabilities summing to {p.sum()!r}")
            norm.append((float(e), p / p.sum()))
        object.__setattr__(self, "stages", tuple(norm))

    @property
    def n_languages(self) -> int:
        return len(self.stages[0][1])


def parse_policy(spec, n_languages: int | None = None) -> MixPolicy:
    """Accept a MixPolicy, a stage list like [{"until": 0.5, "probs": [0.9, 0.1]}],
    or a two-language shorthand: "50/50" (constant) or "90v10" (two-stage
    mirror, switching halfway)."""
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
        stages = tuple((float(st["until"]), np.asarray(st["probs"], float)) for st in spec)
        policy = MixPolicy(stages=stages)
    if n_languages is not None and policy.n_languages != n_languages:
        raise PolicyError(
            f"policy covers {policy.n_languages} languages but the vocabulary "
            f"defines {n_languages}"
        )
    return policy


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
    increment. Raises CorpusError on a stream with no tokens.
    """

    def __init__(self, stream: TokenStream, seq_len: int, separator_id: int | None = None):
        if len(stream.ids) == 0:
            raise CorpusError("cannot read training slices from a stream of 0 tokens")
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


def concat_with_separator(stream: TokenStream, separator_id: int | None) -> np.ndarray:
    """Flatten a stream's documents into one id array, inserting the separator
    between consecutive documents (none at the ends)."""
    ids = stream.ids.astype(np.int64)
    if separator_id is None:
        return ids
    return np.insert(ids, stream.doc_boundaries[:-1].astype(np.intp), separator_id)
