"""BPE vocabularies and the id layouts of this lab.

An :class:`IdLayout` says where each language's source ids sit in the one id
space a model sees. It is built by cloning a base vocabulary (full or
partial, i.e. anchored), by role relabelling of a layout, by placing
independently trained vocabularies side by side, or by merging them so that
shared surface forms get one id.

Pretokenization splits text on whitespace and prefixes every pretoken with a
word-begin marker character. There is no byte fallback: a character never seen
in training encodes to exactly one unk id. Vocabulary objects are immutable
after training and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import DocumentStore, TokenStream

MARKER = "▁"  # word-begin marker, prefixed to every pretoken
UNK_PIECE = "<unk>"
VOCAB_FORMAT_VERSION = 1
WORD_CACHE_SIZE = 1 << 16  # encoded words remembered per vocabulary


class TokenizerError(ValueError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """An ordered piece list plus the merge rules that produced it.

    Piece order defines ids: unk first, then the base alphabet in sorted
    order, then merge results in merge order. Every merge result is itself a
    piece, and ``merges[k]`` produced piece ``n_base + k``.
    """

    pieces: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    unk_id: int = 0
    marker: str = MARKER

    def __post_init__(self):
        if len(set(self.pieces)) != len(self.pieces):
            raise TokenizerError("vocabulary pieces must be unique")
        for left, right in self.merges:
            if left + right not in self._piece_to_id:
                raise TokenizerError(f"merge result {left + right!r} is not a piece")

    def __len__(self) -> int:
        return len(self.pieces)

    @cached_property
    def _piece_to_id(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.pieces)}

    @cached_property
    def _merge_rank(self) -> dict[tuple[str, str], int]:
        return {pair: r for r, pair in enumerate(self.merges)}

    @cached_property
    def _word_encoder(self):
        """Encodes one pretoken, remembering the last WORD_CACHE_SIZE
        distinct words. It holds this vocabulary's tables, not the
        vocabulary, so no reference cycle keeps a dropped vocabulary and its
        cache alive until the cyclic garbage collector runs."""
        return lru_cache(maxsize=WORD_CACHE_SIZE)(
            partial(_encode_word, self.merges, self._merge_rank, self._piece_to_id, self.unk_id)
        )


def _pretokenize(text: str, marker: str) -> list[str]:
    return [marker + w for w in text.split()]


def _merge_symbols(syms: list[str], left: str, right: str) -> list[str]:
    """Replace non-overlapping (left, right) adjacencies left-to-right."""
    out = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _count_pairs(syms: Sequence[str]) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for pair in zip(syms, syms[1:]):
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def train_bpe(store: DocumentStore, vocab_size: int) -> Vocabulary:
    """Train a BPE vocabulary of exactly ``vocab_size`` pieces.

    Merges are selected by descending adjacent-pair frequency at selection
    time, with a lexicographic (left, right) tie-break so training is
    bit-identical across platforms. The base symbol set counts the unk piece
    and the word-begin marker alongside the corpus alphabet, so the smallest
    legal vocab_size is ``2 + len(alphabet)``.
    """
    word_counts: dict[str, int] = {}
    for doc in store.documents:
        for w in _pretokenize(doc, MARKER):
            word_counts[w] = word_counts.get(w, 0) + 1

    alphabet = sorted({c for w in word_counts for c in w} | {MARKER})
    n_base = 1 + len(alphabet)  # unk + alphabet
    if vocab_size < n_base:
        raise TokenizerError(
            f"vocab_size {vocab_size} is smaller than the base symbol count "
            f"{n_base} (unk + marker + corpus alphabet)"
        )
    pieces: list[str] = [UNK_PIECE] + alphabet
    merges: list[tuple[str, str]] = []

    words = list(word_counts)
    freqs = [word_counts[w] for w in words]
    symbol_lists = [list(w) for w in words]

    # Pair bookkeeping: global counts, the words containing each pair, and a
    # lazy max-heap keyed (-count, left, right) so ties pop lexicographically.
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, syms in enumerate(symbol_lists):
        for pair, c in _count_pairs(syms).items():
            pair_counts[pair] = pair_counts.get(pair, 0) + c * freqs[wi]
            pair_words.setdefault(pair, set()).add(wi)
    heap = [(-c, p[0], p[1]) for p, c in pair_counts.items()]
    heapq.heapify(heap)

    def push(pair: tuple[str, str]) -> None:
        heapq.heappush(heap, (-pair_counts[pair], pair[0], pair[1]))

    while len(pieces) < vocab_size:
        best = None
        while heap:
            negc, left, right = heapq.heappop(heap)
            if pair_counts.get((left, right), 0) == -negc and negc < 0:
                best = (left, right)
                break
        if best is None:
            raise TokenizerError(
                f"corpus exhausted after {len(merges)} merges; "
                f"cannot reach vocab_size {vocab_size}"
            )
        left, right = best
        merges.append(best)
        pieces.append(left + right)

        touched: set[tuple[str, str]] = set()
        for wi in sorted(pair_words.get(best, ())):
            syms = symbol_lists[wi]
            before = _count_pairs(syms)
            new_syms = _merge_symbols(syms, left, right)
            after = _count_pairs(new_syms)
            symbol_lists[wi] = new_syms
            f = freqs[wi]
            for pair in before.keys() | after.keys():
                delta = after.get(pair, 0) - before.get(pair, 0)
                if delta:
                    pair_counts[pair] = pair_counts.get(pair, 0) + delta * f
                    touched.add(pair)
                if after.get(pair, 0):
                    pair_words.setdefault(pair, set()).add(wi)
                elif pair in pair_words:
                    pair_words[pair].discard(wi)
        pair_counts.pop(best, None)
        pair_words.pop(best, None)
        for pair in touched:
            if pair_counts.get(pair, 0) <= 0:
                pair_counts.pop(pair, None)
            else:
                push(pair)

    return Vocabulary(pieces=tuple(pieces), merges=tuple(merges))


def _encode_word(merges, rank, piece_to_id, unk_id, word: str) -> tuple[int, ...]:
    syms = list(word)
    while len(syms) > 1:
        best_rank = None
        for pair in zip(syms, syms[1:]):
            r = rank.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
        if best_rank is None:
            break
        left, right = merges[best_rank]
        syms = _merge_symbols(syms, left, right)
    # a tuple, so the cached result cannot be changed by a caller
    return tuple([piece_to_id.get(s, unk_id) for s in syms])


def encode(vocab: Vocabulary, text: str) -> list[int]:
    """Greedy BPE encoding: merges apply in training order within each
    marker-prefixed pretoken; unseen characters map to unk, one id each."""
    ids: list[int] = []
    for word in _pretokenize(text, vocab.marker):
        ids.extend(vocab._word_encoder(word))
    return ids


def decode(vocab: Vocabulary, ids: Sequence[int]) -> str:
    """Inverse of encode on trained-domain text (up to unk substitution and
    whitespace normalisation: pretokens rejoin with single spaces)."""
    n = len(vocab.pieces)
    out = []
    for i in ids:
        if not 0 <= int(i) < n:
            raise TokenizerError(f"id {i} out of range for vocabulary of size {n}")
        out.append(vocab.pieces[int(i)])
    return "".join(out).replace(vocab.marker, " ").lstrip(" ")


def vocab_digest(vocab: Vocabulary) -> str:
    return hashlib.sha256(_serialize_vocab(vocab).encode("utf-8")).hexdigest()


def tokenize_store(vocab: Vocabulary, store: DocumentStore) -> TokenStream:
    """Encode every document; boundaries record each document's end offset."""
    ids: list[int] = []
    bounds: list[int] = []
    for doc in store.documents:
        ids.extend(encode(vocab, doc))
        bounds.append(len(ids))
    return TokenStream(
        ids=np.asarray(ids, dtype=np.uint32),
        doc_boundaries=np.asarray(bounds, dtype=np.uint64),
        vocab_digest=vocab_digest(vocab),
    )


def _serialize_vocab(vocab: Vocabulary) -> str:
    lines = [
        f"xlab-vocab version={VOCAB_FORMAT_VERSION} marker={vocab.marker} "
        f"unk={vocab.unk_id} pieces={len(vocab.pieces)} merges={len(vocab.merges)}"
    ]
    lines.extend(vocab.pieces)
    lines.extend(f"{l}\t{r}" for l, r in vocab.merges)
    return "\n".join(lines) + "\n"


def save_vocab(path: str | Path, vocab: Vocabulary) -> None:
    Path(path).write_text(_serialize_vocab(vocab), encoding="utf-8")


def load_vocab(path: str | Path) -> Vocabulary:
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    try:
        header = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
        version, n_pieces, n_merges, unk = (
            int(header[k]) for k in ("version", "pieces", "merges", "unk")
        )
        marker = header["marker"]
    except KeyError as e:
        raise TokenizerError(f"{path}: vocabulary header lacks field {e}") from e
    except ValueError as e:
        raise TokenizerError(f"{path}: malformed vocabulary header ({e})") from e
    if version != VOCAB_FORMAT_VERSION:
        raise TokenizerError(f"{path}: unsupported vocabulary version {version}")
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    if len(body) != n_pieces + n_merges:
        raise TokenizerError(
            f"{path}: {len(body)} piece and merge lines, but the header declares "
            f"{n_pieces} pieces and {n_merges} merges"
        )
    pieces = tuple(body[:n_pieces])
    merges = tuple(tuple(l.split("\t", 1)) for l in body[n_pieces:])
    for k, merge in enumerate(merges):
        if len(merge) != 2:
            raise TokenizerError(f"{path}: merge {k} {merge[0]!r} is not two tab-separated pieces")
    return Vocabulary(pieces=pieces, merges=merges, unk_id=unk, marker=marker)


# ---------------------------------------------------------------------------
# Id layouts: where each language's source ids sit in the model id space


@dataclass(frozen=True)
class IdLayout:
    """Per-language lookup tables into one model id space.

    ``luts[n][t]`` is the model id of language n's source id t. A clone
    layout (:func:`clone_vocab`, :func:`relabel`) replicates one base
    vocabulary: anchored base ids are shared by all languages and occupy ids
    [0, A) ordered by base id; duplicated base ids get one copy per language,
    the copy of duplicated index j in language n sitting at ``A + n*D + j``
    where D = |base| - A. A real layout (:func:`disjoint_layout`,
    ``merge_vocabs(...).layout``) maps separately trained vocabularies and has
    no ``anchor_ids``.
    """

    luts: tuple[np.ndarray, ...]  # int64, one per language
    total_size: int
    anchor_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_languages(self) -> int:
        return len(self.luts)

    def map_ids(self, ids: np.ndarray, language: int) -> np.ndarray:
        """Remap a source-id sequence into the given language's model ids."""
        if not 0 <= language < self.n_languages:
            raise TokenizerError(f"language {language} out of range")
        return self.luts[language][np.asarray(ids, dtype=np.int64)]

    @cached_property
    def _inverse(self) -> np.ndarray:
        inv = np.empty(self.total_size, dtype=np.int64)
        for lut in self.luts:
            inv[lut] = np.arange(len(lut))
        return inv

    def to_base(self, ids: np.ndarray) -> np.ndarray:
        """Project model ids back to base ids (any language). Clone layouts
        only; the inverse table is built on the first call."""
        return self._inverse[np.asarray(ids, dtype=np.int64)]

    def map_language(self, ids: np.ndarray, to_language: int) -> np.ndarray:
        """Re-express a sequence in another language; anchors are unchanged.
        Clone layouts only."""
        return self.map_ids(self.to_base(ids), to_language)

    def duplicated_base_ids(self) -> np.ndarray:
        """Base ids that are not anchors. Clone layouts only."""
        mask = np.ones(len(self.luts[0]), dtype=bool)
        mask[self.anchor_ids] = False
        return np.nonzero(mask)[0]

    def language_slices(self) -> tuple[slice, list[slice]]:
        """(anchor block, per-language duplicated blocks) of the model id
        space; used for clone-permutation-invariant reductions. Clone layouts
        only."""
        a = len(self.anchor_ids)
        d = len(self.luts[0]) - a
        return slice(0, a), [slice(a + n * d, a + (n + 1) * d) for n in range(self.n_languages)]


# perfbench/drive.py traces ``ClonedVocabulary.to_base`` by this name
ClonedVocabulary = IdLayout


def clone_vocab(
    vocab: Vocabulary,
    n_languages: int,
    anchor_fraction: float = 0.0,
    seed: int = 0,
    selection: str = "uniform",
    counts: np.ndarray | None = None,
) -> IdLayout:
    """Clone a vocabulary into ``n_languages`` blocks sharing
    ``floor(anchor_fraction * |base|)`` anchors.

    Anchors are chosen uniformly at random (seeded) by default;
    ``selection="frequency"`` instead anchors the most frequent base ids and
    requires per-id ``counts``.
    """
    if n_languages < 1:
        raise TokenizerError("n_languages must be >= 1")
    if not 0 <= anchor_fraction <= 1:
        raise TokenizerError(f"anchor_fraction must be in [0, 1], got {anchor_fraction}")
    n_base = len(vocab)
    n_anchor = int(np.floor(anchor_fraction * n_base))
    if selection == "uniform":
        rng = np.random.default_rng(seed)
        anchor_ids = np.sort(rng.choice(n_base, size=n_anchor, replace=False))
    elif selection == "frequency":
        if counts is None:
            raise TokenizerError("frequency-stratified selection requires counts")
        order = np.lexsort((np.arange(n_base), -np.asarray(counts)))
        anchor_ids = np.sort(order[:n_anchor])
    else:
        raise TokenizerError(f"unknown anchor selection {selection!r}")
    dup_ids = np.setdiff1d(np.arange(n_base), anchor_ids)
    a, d = len(anchor_ids), len(dup_ids)
    lut = np.empty((n_languages, n_base), dtype=np.int64)
    lut[:, anchor_ids] = np.arange(a)
    for n in range(n_languages):
        lut[n, dup_ids] = a + n * d + np.arange(d)
    return IdLayout(
        luts=tuple(lut), total_size=a + n_languages * d, anchor_ids=anchor_ids.astype(np.int64)
    )


def relabel(layout: IdLayout, permutation: Sequence[int]) -> IdLayout:
    """Permute language roles: the relabelled layout maps language n the way
    the original mapped ``permutation[n]``. Anchors are unchanged."""
    perm = [int(p) for p in permutation]
    if sorted(perm) != list(range(layout.n_languages)):
        raise TokenizerError(
            f"permutation {permutation!r} is not a bijection over "
            f"{{0..{layout.n_languages - 1}}}"
        )
    return replace(layout, luts=tuple(layout.luts[p] for p in perm))


def disjoint_layout(sizes: Sequence[int]) -> IdLayout:
    """Separately trained vocabularies side by side: language n's ids are
    offset by the sizes of the languages before it."""
    luts, offset = [], 0
    for size in sizes:
        luts.append(np.arange(offset, offset + size, dtype=np.int64))
        offset += size
    return IdLayout(luts=tuple(luts), total_size=offset)


# ---------------------------------------------------------------------------
# Merged vocabularies (real bilingual, anchored setting)


@dataclass(frozen=True)
class MergedVocabulary:
    """Union of two vocabularies where shared surface forms get one id.

    Model ids: all of A's pieces keep their order in [0, |A|), then B's
    non-shared pieces follow in B order. ``layout`` translates each source id
    space into the merged one.
    """

    shared: frozenset[str]
    pieces: tuple[str, ...]
    layout: IdLayout


def merge_vocabs(vocab_a: Vocabulary, vocab_b: Vocabulary) -> MergedVocabulary:
    if vocab_a.marker != vocab_b.marker:
        raise TokenizerError(
            f"incompatible word-begin markers: {vocab_a.marker!r} vs {vocab_b.marker!r}"
        )
    shared = frozenset(vocab_a.pieces) & frozenset(vocab_b.pieces)
    pieces = list(vocab_a.pieces)
    index = {p: i for i, p in enumerate(pieces)}
    for p in vocab_b.pieces:
        if p not in index:
            index[p] = len(pieces)
            pieces.append(p)
    luts = (
        np.arange(len(vocab_a.pieces), dtype=np.int64),
        np.asarray([index[p] for p in vocab_b.pieces], dtype=np.int64),
    )
    return MergedVocabulary(
        shared=shared, pieces=tuple(pieces), layout=IdLayout(luts=luts, total_size=len(pieces))
    )
