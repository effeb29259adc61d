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

Cosines of embeddings and hidden states, so also the matching weights, are float64
for any model dtype: a zero row scores 0, and a NaN or an infinity raises
AlignmentError. A zero-norm gradient group is reported in ``undefined_groups`` instead.

The exact matching runs in numpy: shortest augmenting paths with row and
column potentials (Crouse 2016), one Dijkstra search over the longer sequence
per token of the shorter one, vectorised over the longer one's tokens, in
O(n**2 * m) for n <= m tokens. A weight matrix with one optimum gets the pairs
of SciPy's ``linear_sum_assignment``. Its cost, medians of two rounds of
random weights on a 2-vCPU Xeon with NumPy 2.4, against SciPy 1.17's compiled
solver:

    =========  ============  ==============
    weights    numpy         SciPy
    =========  ============  ==============
    36 x 48    1.3-1.7 ms    0.04 ms
    128 x 128  18-25 ms      0.6-0.8 ms
    512 x 512  170-180 ms    14 ms
    =========  ============  ==============
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# ``forward`` stays importable here because perfbench/drive.py traces it by name
from .model import (ModelState, VocabGroups, forward, group_of,  # noqa: F401
                    hidden_states, loss_and_grads)
from .tokenizer import IdLayout
from .util import checked_args, checked_ids, seeded_rng

EMBEDDING_GROUPS = ("token_embedding", "position_embedding")


class AlignmentError(ValueError):
    pass


def _rows_and_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` in float64 (not copied if it is; never write it) and its row norms, 0
    for a zero row; AlignmentError if a NaN or an infinity makes a norm non-finite.
    A finite row whose squares overflow is scaled by a power of two into [-1, 1)
    first, in a copy; a cosine does not see a row's scale, and other rows keep theirs."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=-1)
    if not np.isfinite(norms).all():
        over = ~np.isfinite(norms) & np.isfinite(x).all(axis=-1)
        if over.any():
            x = x.copy()
            _, exponent = np.frexp(np.abs(x[over]).max(axis=-1, keepdims=True))
            x[over] = np.ldexp(x[over], -exponent)
            norms[over] = np.linalg.norm(x[over], axis=-1)
        if not np.isfinite(norms).all():
            raise AlignmentError("cannot compare states or embeddings with non-finite cosines")
    return x, norms


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine as :func:`_rows_and_norms` rules; zero rows yield 0."""
    (a, norm_a), (b, norm_b) = _rows_and_norms(a), _rows_and_norms(b)
    den = norm_a * norm_b
    return np.where(den > 0, (a * b).sum(axis=-1) / np.maximum(den, 1e-300), 0.0)


# ---------------------------------------------------------------------------
# Embedding similarity


@dataclass(frozen=True)
class EmbeddingSimilarity:
    mean: float
    baseline: float  # random-pair anisotropy control, same pair count
    n_pairs: int
    by_frequency_decade: dict[int, float] = field(default_factory=dict)


@checked_args(AlignmentError)
def embedding_similarity(
    state: ModelState,
    cv: IdLayout,
    freq: np.ndarray | None = None,
    seed: int = 0,
) -> EmbeddingSimilarity:
    """Mean cosine over all equivalent duplicated-id pairs (every unordered
    language pair), with a seeded random-pair baseline of the same size drawn
    from the duplicated pool. ``freq``, optional, holds one finite count >= 0 per
    base id, for decade bucketing; AlignmentError otherwise."""
    if cv.n_languages < 2:
        raise AlignmentError("embedding similarity needs at least 2 languages")
    if cv.total_size > (size := state.config.vocab_size):
        raise AlignmentError(f"a layout of {cv.total_size} ids does not fit the model's "
                             f"vocab_size {size}")
    dup = cv.duplicated_base_ids()
    if len(dup) == 0:
        raise AlignmentError("fully anchored vocabulary has no duplicated pairs")
    decades = np.empty(0, int)
    if freq is not None:
        freq, n_base = np.asarray(freq), len(cv.luts[0])
        if (freq.shape != (n_base,) or freq.dtype.kind not in "iuf"
                or not np.all(np.isfinite(freq) & (freq >= 0))):
            raise AlignmentError(f"freq must hold one finite count >= 0 for each of the "
                                 f"{n_base} base ids, got {freq.dtype} of shape {freq.shape}")
        decades = np.floor(np.log10(np.maximum(freq[dup], 1))).astype(int)
    emb = state.params["token_embedding"]
    # a row per language pair; each mean is over raveled rows, since a 2-D mean sums
    # in another order
    cos_all = np.stack([_cosine_rows(emb[cv.luts[n][dup]], emb[cv.luts[m][dup]])
                        for n in range(cv.n_languages) for m in range(n + 1, cv.n_languages)])
    n_pairs = cos_all.size

    pool = np.concatenate([cv.luts[n][dup] for n in range(cv.n_languages)])
    rng = seeded_rng(seed, AlignmentError)
    left = pool[rng.integers(0, len(pool), size=n_pairs)]
    right = pool[rng.integers(0, len(pool), size=n_pairs)]
    clash = left == right
    while np.any(clash):
        right[clash] = pool[rng.integers(0, len(pool), size=int(clash.sum()))]
        clash = left == right
    baseline = float(_cosine_rows(emb[left], emb[right]).mean())

    by_decade = {int(d): float(cos_all[:, decades == d].ravel().mean())
                 for d in np.unique(decades)}
    return EmbeddingSimilarity(
        mean=float(cos_all.ravel().mean()),
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
        object.__setattr__(self, "seq_a", checked_ids(self.seq_a, None, AlignmentError, "seq_a"))
        object.__setattr__(self, "seq_b", checked_ids(self.seq_b, None, AlignmentError, "seq_b"))
        if self.mode not in ("cloned", "real"):
            raise AlignmentError(f"unknown pair mode {self.mode!r}")
        if self.mode == "cloned" and len(self.seq_a) != len(self.seq_b):
            raise AlignmentError("cloned parallel pairs must have equal lengths")

    def validate_cloned(self, cv: IdLayout) -> None:
        if not np.array_equal(cv.to_base(self.seq_a), cv.to_base(self.seq_b)):
            raise AlignmentError("cloned pair is not base-equivalent position by position")


def _check_pair(state: ModelState, pair: ParallelPair) -> None:
    """AlignmentError unless every id of ``pair`` is below the model's vocab_size."""
    for name in ("seq_a", "seq_b"):
        checked_ids(getattr(pair, name), state.config.vocab_size, AlignmentError, name,
                    " of the model")


def _max_weight_matching(weights: np.ndarray) -> list[tuple[int, int]]:
    """Sorted (row, column) pairs of a maximum-weight assignment of every row of the
    finite ``weights`` to its own column, or of every column when rows outnumber
    columns (the matrix is then transposed).

    Shortest augmenting paths with row and column potentials (Crouse 2016, *On
    implementing 2D rectangular assignment algorithms*) on the negated weights:
    for each row in turn a Dijkstra search over the columns left, vectorised over
    them, finds the cheapest path to a free column; the potentials absorb its
    length and the path flips. Its arithmetic, its order and its tie-breaks are
    those of SciPy's ``linear_sum_assignment``.
    """
    transpose = weights.shape[1] < weights.shape[0]
    cost = -(weights.T if transpose else weights)
    nr, nc = cost.shape
    u, v = np.zeros(nr), np.zeros(nc)
    path = np.full(nc, -1)
    col4row, row4col = np.full(nr, -1), np.full(nc, -1)
    for cur in range(nr):
        spc = np.full(nc, np.inf)  # shortest path cost to each column
        remaining = np.arange(nc - 1, -1, -1)
        seen_rows, seen_cols = np.zeros(nr, bool), np.zeros(nc, bool)
        i, min_val, left = cur, 0.0, nc
        while True:
            seen_rows[i] = True
            rem = remaining[:left]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            shorter = r < spc[rem]
            path[rem[shorter]] = i
            spc[rem[shorter]] = r[shorter]
            reach = spc[rem]
            min_val = reach.min()
            ties = np.flatnonzero(reach == min_val)
            free = ties[row4col[rem[ties]] < 0]  # a tie goes to the last free column
            index = free[-1] if len(free) else ties[0]
            j = rem[index]
            seen_cols[j] = True
            left -= 1
            remaining[index] = remaining[left]
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        seen_rows[cur] = False
        u[seen_rows] += min_val - spc[col4row[seen_rows]]
        v[seen_cols] -= min_val - spc[seen_cols]
        while True:  # flip the path that ends at the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = zip(col4row, range(nr)) if transpose else zip(range(nr), col4row)
    return sorted((int(a), int(b)) for a, b in pairs)


def match_tokens(
    hidden_a: Sequence[np.ndarray], hidden_b: Sequence[np.ndarray]
) -> list[tuple[int, int]]:
    """Exact maximum-weight full matching of token positions, as sorted (i, j) pairs.

    The complete bipartite graph's edge (i, j) is weighted by the mean across
    layers of the cosine between the two tokens' hidden states; every position
    of the shorter sequence is matched injectively into the longer one, by
    shortest augmenting paths in O(n**2 * m) for n <= m positions (the module
    docstring gives measured costs). A weight matrix with one optimum gets the
    pairs of SciPy's ``linear_sum_assignment``. Cosines are float64 for any dtype of
    state, a zero row scores 0, and a non-finite hidden state raises AlignmentError.
    """
    ta, tb = hidden_a[0].shape[0], hidden_b[0].shape[0]
    if ta == 0 or tb == 0:
        raise AlignmentError("cannot match empty sequences")
    weights = np.zeros((ta, tb))
    for ha, hb in zip(hidden_a, hidden_b):
        (a, na), (b, nb) = _rows_and_norms(ha), _rows_and_norms(hb)
        weights += (a / np.maximum(na, 1e-300)[:, None]) @ (b / np.maximum(nb, 1e-300)[:, None]).T
    weights /= len(hidden_a)
    return _max_weight_matching(weights)


@checked_args(AlignmentError)
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
    _check_pair(state, pair)
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


def gradient_similarity(state: ModelState, pair: ParallelPair,
                        vocab_groups: VocabGroups | None = None) -> GradientSimilarity:
    """Cosine of full-sequence loss gradients (batch of 1 per language),
    per component group. The macro average spans transformer-block, final-norm
    and untied-head groups; embedding groups are reported separately (note a
    tied head folds head gradients into the embedding group). Zero-norm groups
    are reported only in ``undefined_groups``. ``vocab_groups`` is passed to
    :func:`~xlab.model.loss_and_grads`; with a clone layout's ``language_slices()``
    the cosines of every group but the token embedding are bitwise the same when
    two clones swap their ids and their embedding rows."""
    _check_pair(state, pair)
    grads = []
    for seq in (pair.seq_a, pair.seq_b):
        if len(seq) < 2:
            raise AlignmentError("sequences need at least 2 tokens for a loss")
        _, g = loss_and_grads(state, seq[:-1], seq[1:], vocab_groups)
        grads.append(_group_vectors(g))
    per_group: dict[str, float] = {}
    embedding: dict[str, float] = {}
    undefined: list[str] = []
    for group in grads[0]:
        va, vb = grads[0][group], grads[1][group]
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0 or nb == 0:
            undefined.append(group)
            continue
        cos = float(va @ vb / (na * nb))
        if group in EMBEDDING_GROUPS:
            embedding[group] = cos
        else:
            per_group[group] = cos
    macro = float(np.mean(list(per_group.values()))) if per_group else float("nan")
    return GradientSimilarity(per_group=per_group, macro_average=macro, embedding_groups=embedding,
                              undefined_groups=tuple(undefined))
