"""Representation-alignment diagnostics.

Three views of cross-lingual alignment inside one model:

* embedding cosine between equivalent duplicated subwords, against a
  random-pair baseline of equal size drawn from the same duplicated pool
  (anisotropy control), optionally bucketed by subword frequency decade;
* per-layer hidden-state cosine over parallel sequences, matched positionally
  (cloned languages) or by exact maximum-weight full matching over token
  pairs weighted by mean across-layer cosine (real language pairs, also
  usable as a sanity mode on clones);
* per-component gradient cosine for full-sequence losses computed separately
  per language with batch size 1, plus a macro average over the
  transformer-block, final-norm, and (untied) head groups. Embedding groups
  are reported separately and excluded from the macro average.

Layer tables cover the block outputs (layers 1..L); the embedding output is
part of the forward trace but not of the tables or the matching weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

# ``forward`` stays importable here because perfbench/drive.py traces it by name
from .model import ModelState, forward, group_of, hidden_states, loss_and_grads  # noqa: F401
from .tokenizer import IdLayout

logger = logging.getLogger(__name__)

EMBEDDING_GROUPS = ("token_embedding", "position_embedding")


class AlignmentError(ValueError):
    pass


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine in float64; zero rows yield 0."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    num = (a * b).sum(axis=-1)
    den = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)


# ---------------------------------------------------------------------------
# Embedding similarity


@dataclass(frozen=True)
class EmbeddingSimilarity:
    mean: float
    baseline: float  # random-pair anisotropy control, same pair count
    n_pairs: int
    by_frequency_decade: dict[int, float] = field(default_factory=dict)


def embedding_similarity(
    state: ModelState,
    cv: IdLayout,
    freq: np.ndarray | None = None,
    seed: int = 0,
) -> EmbeddingSimilarity:
    """Mean cosine over all equivalent duplicated-id pairs (every unordered
    language pair), with a seeded random-pair baseline of the same size drawn
    from the duplicated pool. ``freq`` is an optional per-base-id count used
    for decade bucketing."""
    if cv.n_languages < 2:
        raise AlignmentError("embedding similarity needs at least 2 languages")
    dup = cv.duplicated_base_ids()
    if len(dup) == 0:
        raise AlignmentError("fully anchored vocabulary has no duplicated pairs")
    emb = state.params["token_embedding"]
    cos_all, buckets = [], {}
    for n in range(cv.n_languages):
        for m in range(n + 1, cv.n_languages):
            cos = _cosine_rows(emb[cv.luts[n][dup]], emb[cv.luts[m][dup]])
            cos_all.append(cos)
            if freq is not None:
                decades = np.floor(np.log10(np.maximum(np.asarray(freq)[dup], 1))).astype(int)
                for dec in np.unique(decades):
                    buckets.setdefault(int(dec), []).append(cos[decades == dec])
    cos_all = np.concatenate(cos_all)
    n_pairs = len(cos_all)

    pool = np.concatenate([cv.luts[n][dup] for n in range(cv.n_languages)])
    rng = np.random.default_rng(seed)
    left = pool[rng.integers(0, len(pool), size=n_pairs)]
    right = pool[rng.integers(0, len(pool), size=n_pairs)]
    clash = left == right
    while np.any(clash):
        right[clash] = pool[rng.integers(0, len(pool), size=int(clash.sum()))]
        clash = left == right
    baseline = float(_cosine_rows(emb[left], emb[right]).mean())

    by_decade = {d: float(np.concatenate(v).mean()) for d, v in sorted(buckets.items())}
    return EmbeddingSimilarity(
        mean=float(cos_all.mean()),
        baseline=baseline,
        n_pairs=n_pairs,
        by_frequency_decade=by_decade,
    )


# ---------------------------------------------------------------------------
# Hidden-state similarity


@dataclass(frozen=True)
class ParallelPair:
    """Two id sequences with the same content in two languages: exact
    positional equivalents for clones, line-aligned translations otherwise."""

    seq_a: np.ndarray
    seq_b: np.ndarray
    mode: str  # "cloned" | "real"

    def __post_init__(self):
        object.__setattr__(self, "seq_a", np.asarray(self.seq_a, dtype=np.int64))
        object.__setattr__(self, "seq_b", np.asarray(self.seq_b, dtype=np.int64))
        if self.mode not in ("cloned", "real"):
            raise AlignmentError(f"unknown pair mode {self.mode!r}")
        if self.mode == "cloned" and len(self.seq_a) != len(self.seq_b):
            raise AlignmentError("cloned parallel pairs must have equal lengths")

    def validate_cloned(self, cv: IdLayout) -> None:
        if not np.array_equal(cv.to_base(self.seq_a), cv.to_base(self.seq_b)):
            raise AlignmentError("cloned pair is not base-equivalent position by position")


def match_tokens(
    hidden_a: Sequence[np.ndarray], hidden_b: Sequence[np.ndarray]
) -> list[tuple[int, int]]:
    """Exact maximum-weight full matching of token positions.

    The complete bipartite graph's edge (i, j) is weighted by the mean across
    layers of the cosine between the two tokens' hidden states; every position
    of the shorter sequence is matched injectively into the longer one.
    """
    ta, tb = hidden_a[0].shape[0], hidden_b[0].shape[0]
    if ta == 0 or tb == 0:
        raise AlignmentError("cannot match empty sequences")
    weights = np.zeros((ta, tb))
    for ha, hb in zip(hidden_a, hidden_b):
        na = ha / np.maximum(np.linalg.norm(ha, axis=1, keepdims=True), 1e-300)
        nb = hb / np.maximum(np.linalg.norm(hb, axis=1, keepdims=True), 1e-300)
        weights += na.astype(np.float64) @ nb.astype(np.float64).T
    weights /= len(hidden_a)
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return sorted(zip(rows.tolist(), cols.tolist()))


def hidden_similarity(
    state: ModelState,
    pair: ParallelPair,
    matching: str = "positional",
) -> np.ndarray:
    """Per-layer mean cosine over matched token pairs; length n_layers.

    Positional matching (the only sound choice for cloned pairs, where
    equivalence is known position by position) requires equal lengths;
    max_weight matching derives pairs from the states themselves.
    """
    if len(pair.seq_a) == 0 or len(pair.seq_b) == 0:
        raise AlignmentError("cannot compare empty sequences")
    ha = hidden_states(state, pair.seq_a)[1:]
    hb = hidden_states(state, pair.seq_b)[1:]
    if matching == "positional":
        if len(pair.seq_a) != len(pair.seq_b):
            raise AlignmentError("positional matching requires equal-length sequences")
        pairs = [(i, i) for i in range(len(pair.seq_a))]
    elif matching == "max_weight":
        pairs = match_tokens(ha, hb)
    else:
        raise AlignmentError(f"unknown matching mode {matching!r}")
    ia = np.array([i for i, _ in pairs])
    ib = np.array([j for _, j in pairs])
    return np.array([_cosine_rows(la[ia], lb[ib]).mean() for la, lb in zip(ha, hb)])


# ---------------------------------------------------------------------------
# Gradient similarity


@dataclass(frozen=True)
class GradientSimilarity:
    per_group: dict[str, float]
    macro_average: float
    embedding_groups: dict[str, float]
    undefined_groups: tuple[str, ...] = ()


def _group_vectors(grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    groups: dict[str, list[np.ndarray]] = {}
    for name in sorted(grads):
        groups.setdefault(group_of(name), []).append(grads[name].ravel())
    return {g: np.concatenate(parts).astype(np.float64) for g, parts in groups.items()}


def gradient_similarity(state: ModelState, pair: ParallelPair) -> GradientSimilarity:
    """Cosine of full-sequence loss gradients (batch of 1 per language),
    per component group. The macro average spans transformer-block, final-norm
    and untied-head groups; embedding groups are reported separately (note a
    tied head folds head gradients into the embedding group). Zero-norm groups
    are excluded with a warning."""
    grads = []
    for seq in (pair.seq_a, pair.seq_b):
        if len(seq) < 2:
            raise AlignmentError("sequences need at least 2 tokens for a loss")
        _, g = loss_and_grads(state, seq[:-1], seq[1:])
        grads.append(_group_vectors(g))
    per_group: dict[str, float] = {}
    embedding: dict[str, float] = {}
    undefined: list[str] = []
    macro_terms = []
    for group in grads[0]:
        va, vb = grads[0][group], grads[1][group]
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0 or nb == 0:
            undefined.append(group)
            logger.warning("gradient group %s has zero norm; excluded from macro average", group)
            continue
        cos = float(va @ vb / (na * nb))
        if group in EMBEDDING_GROUPS:
            embedding[group] = cos
        else:
            per_group[group] = cos
            macro_terms.append(cos)
    macro = float(np.mean(macro_terms)) if macro_terms else float("nan")
    return GradientSimilarity(
        per_group=per_group,
        macro_average=macro,
        embedding_groups=embedding,
        undefined_groups=tuple(undefined),
    )
