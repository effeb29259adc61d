"""Sliding-window test perplexity.

Context never crosses document boundaries. Within one document of n tokens
the window layout is:

* first window starts at 0 and scores every predictable token it covers;
* each later window advances by ``stride`` (below ``window``) and scores only
  its trailing ``stride`` targets;
* if a tail remains, one final window is right-aligned to the document end
  and scores exactly the not-yet-scored targets (their context is therefore
  at least ``window - stride`` tokens).

Windows are scored in stacks of equal length by :func:`xlab.model.scored_logprobs`,
whose float64 log-softmax runs only on each window's scored rows. Every
predictable token of every document is scored exactly once, and the total
negative log-likelihood is accumulated with exact (fsum) 64-bit summation, so
the perplexity is invariant under document order permutation. Under a clone
layout's ``vocab_groups``, exact-equivalent clones score bitwise alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import TokenStream
# perfbench/drive.py traces ``evaluator.forward`` by name; the windows reach
# ``forward`` through ``scored_logprobs``, so it is imported but not called
from .model import ModelState, VocabGroups, forward, scored_logprobs  # noqa: F401
from .tokenizer import IdLayout
from .util import checked_args, checked_ids


# windows scored per scored_logprobs call
BATCH_WINDOWS = 8


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class EvalResult:
    ppl: float
    tokens_scored: int
    window: int
    stride: int


@checked_args(EvalError)
def window_spans(n: int, window: int, stride: int) -> list[tuple[int, int, int]]:
    """(window_start, first_scored_target, scored_end) spans for a document of
    n tokens; target p means predicting token p from tokens [start, p)."""
    if not 1 <= stride < window:
        raise EvalError(
            f"stride {stride} must be in [1, window {window}): a later window's "
            "first token has no context to be scored from"
        )
    if n < 2:
        return []
    if n <= window:
        return [(0, 1, n)]
    spans = [(0, 1, window)]
    s = stride
    while s + window <= n:
        spans.append((s, s + window - stride, s + window))
        s += stride
    if spans[-1][2] < n:
        spans.append((n - window, spans[-1][2], n))
    return spans


@checked_args(EvalError)
def sliding_logprobs(state: ModelState, doc_ids: np.ndarray, window: int = 512, stride: int = 128,
                     vocab_groups: VocabGroups | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-token log-probabilities for one document under the sliding layout.

    Returns (target_positions, logprobs); position p is the index of the
    scored token within the document. Each predictable token appears once.
    """
    ids = checked_ids(doc_ids, state.config.vocab_size, EvalError, "token ids", " of the model")
    spans, length = window_spans(len(ids), window, stride), min(window, len(ids))
    if window > (limit := state.config.max_seq_len):
        raise EvalError(f"window {window} exceeds the model's max_seq_len {limit}")
    positions: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for i in range(0, len(spans), BATCH_WINDOWS):
        chunk = spans[i : i + BATCH_WINDOWS]
        stack = np.stack([ids[ws : ws + length] for ws, _, _ in chunk])
        ws, first, end = np.array(chunk).T
        values.append(scored_logprobs(state, stack, first - ws - 1, end - ws - 1, vocab_groups))
        positions.extend(np.arange(first, end) for _, first, end in chunk)
    if not positions:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(positions), np.concatenate(values)


@checked_args(EvalError)
def sliding_ppl(state: ModelState, stream: TokenStream, window: int = 512, stride: int = 128,
                vocab_groups: VocabGroups | None = None) -> EvalResult:
    """exp(mean negative log-likelihood) over every predictable token of every
    document, each document evaluated independently."""
    if len(stream) == 0:
        raise EvalError("cannot evaluate an empty token stream")
    nll_terms: list[float] = []
    for i in range(stream.n_documents):
        _, lp = sliding_logprobs(state, stream.document(i), window, stride, vocab_groups)
        nll_terms.extend((-lp).tolist())
    scored = len(nll_terms)
    if scored == 0:
        raise EvalError("stream has no predictable tokens (all documents < 2 tokens)")
    ppl = math.exp(math.fsum(nll_terms) / scored)
    return EvalResult(ppl=ppl, tokens_scored=scored, window=window, stride=stride)


@checked_args(EvalError)
def per_language_eval(
    state: ModelState,
    layout: IdLayout,
    test: TokenStream | Sequence[TokenStream],
    window: int = 512,
    stride: int = 128,
) -> dict[int, EvalResult]:
    """Per-language test perplexity.

    ``test`` is one stream of base ids, scored once in every language of a
    clone layout under its ``language_slices``, so that clones, exact equivalents,
    score bitwise alike; or one stream per language, each scored in its own
    language's ids with the vocabulary as one block.
    """
    groups = layout.language_slices() if isinstance(test, TokenStream) else None
    streams = [test] * layout.n_languages if groups else list(test)
    if len(streams) != layout.n_languages:
        raise EvalError(f"{len(streams)} test streams for {layout.n_languages} languages")
    return {n: sliding_ppl(state, replace(stream, ids=layout.map_ids(stream.ids, n)),
                           window, stride, groups) for n, stream in enumerate(streams)}
