"""BPE vocabularies and the id layouts of this lab.

An :class:`IdLayout` says where each language's source ids sit in the one id
space a model sees. It is built by cloning a base vocabulary (with or
without shared anchor ids), by role relabelling of a layout, by placing
independently trained vocabularies side by side, or by merging them so that
shared surface forms get one id.

Pretokenization splits text on whitespace and prefixes every pretoken with a
word-begin marker character. BPE (Sennrich et al., arXiv:1508.07909) works on
piece ids in training and in encoding alike: a word is a list of ids, and a
pair of ids is the key ``left * len(pieces) + right``. There is no byte
fallback: a character that is not a piece encodes to exactly one unk id, and
no merge may be over the unk piece, so an unk id never merges. Vocabulary
objects are immutable after training and safe to share across threads.

A vocabulary caches the ids of pretokens. :func:`train_bpe` seeds the cache
with its own final segmentation of each training word, up to
``WORD_CACHE_SIZE`` words, so tokenizing the training split runs no merge
loop. Seeded words are never evicted. A word that misses is encoded and kept;
once ``WORD_CACHE_SIZE`` such words are kept, the next miss drops all of them
and no seeded word. The seeded ids are the encoder's: encoding applies the
merges that apply in increasing merge order, as training did, because the
piece merge j makes is in no earlier merge, so no merge becomes applicable
after a later one.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .corpus import DocumentStore, TokenStream
from .util import (check_fields, checked_args, checked_ids, from_fields, json_digest,
                   read_arrays, seeded_rng, write_arrays)

MARKER = "▁"  # word-begin marker, prefixed to every pretoken
UNK_PIECE = "<unk>"
VOCAB_MAGIC = b"XLVB"
VOCAB_VERSION = 2
WORD_CACHE_SIZE = 1 << 16  # per vocabulary: the most words seeded, and the most misses kept


class TokenizerError(ValueError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """An ordered piece list plus the merge rules that produced it.

    Piece order defines ids: the unk piece first (``unk_id`` is 0 for every
    vocabulary), then the base alphabet in sorted order, then merge results in
    merge order. Every merge result is itself a piece, and ``merges[k]``
    produced piece ``n_base + k``. Both sides of a merge are pieces, and
    neither is the unk piece. Every pretoken begins with ``marker``. The
    constructor checks each field's type (:func:`~xlab.util.check_fields`).
    """

    pieces: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    unk_id: ClassVar[int] = 0
    marker: ClassVar[str] = MARKER

    def __post_init__(self):
        check_fields(self, TokenizerError)
        pieces = set(self.pieces)
        if not pieces or len(pieces) != len(self.pieces):
            raise TokenizerError("vocabulary pieces must be unique and begin with the unk piece")
        unk = self.pieces[self.unk_id]
        n_base = len(self.pieces) - len(self.merges)
        sides = set(chain.from_iterable(self.merges))
        if (n_base >= 0 and tuple(map("".join, self.merges)) == self.pieces[n_base:]
                and unk not in sides and sides <= pieces):
            return
        for k, (left, right) in enumerate(self.merges):  # only to name the first bad merge
            if n_base < 0 or self.pieces[n_base + k] != left + right:
                raise TokenizerError(f"merge {k} {(left, right)!r} did not produce piece "
                                     f"{n_base + k}")
            if unk in (left, right) or not {left, right} <= pieces:
                raise TokenizerError(f"merge {k} {(left, right)!r} is over a string that is "
                                     f"not a piece or is the unk piece {unk!r}")

    def __len__(self) -> int:
        return len(self.pieces)

    @cached_property
    def _piece_to_id(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.pieces)}

    @cached_property
    def _merged(self) -> dict[int, int]:
        """Each merge's pair key, as training keys it, to the id of the piece
        the merge produced; a smaller produced id is an earlier merge."""
        ids, n = self._piece_to_id, len(self.pieces)
        n_base = n - len(self.merges)
        return {ids[left] * n + ids[right]: n_base + k
                for k, (left, right) in enumerate(self.merges)}

    @cached_property
    def _word_ids(self) -> _WordCache:
        return _WordCache(self._merged, len(self.pieces), self._piece_to_id, self.unk_id)


class _WordCache(dict):
    """A pretoken, without its marker, to its ids. A hit is one dict lookup.
    Words put in by :func:`train_bpe` stay. A miss encodes the word and keeps
    it, after dropping every word earlier misses kept if there are
    WORD_CACHE_SIZE of them, so misses never hold more than that. It holds the
    vocabulary's tables, not the vocabulary, so no reference cycle keeps a
    dropped vocabulary and its cache alive until the cyclic garbage collector
    runs."""

    __slots__ = ("tables", "missed")

    def __init__(self, *tables):
        super().__init__()
        self.tables = tables
        self.missed: list[str] = []  # the words misses added, in order

    def __missing__(self, word: str) -> tuple[int, ...]:
        if len(self.missed) >= WORD_CACHE_SIZE:
            # swap, then pop with a default: two threads that drop at once both succeed
            missed, self.missed = self.missed, []
            for w in missed:
                self.pop(w, None)
        ids = self[word] = _encode_word(*self.tables, MARKER + word)
        self.missed.append(word)
        return ids


@checked_args(TokenizerError)
def train_bpe(store: DocumentStore, vocab_size: int) -> Vocabulary:
    """Train a BPE vocabulary of exactly ``vocab_size`` pieces.

    Merges are selected by descending adjacent-pair frequency at selection
    time, with a lexicographic (left, right) tie-break on the piece strings so
    training is bit-identical across platforms. The base symbol set counts the
    unk piece and the word-begin marker alongside the corpus alphabet, so the
    smallest legal vocab_size is ``2 + len(alphabet)``. A corpus with
    too few distinct pairs to reach ``vocab_size`` raises TokenizerError.

    Training is incremental, as in Sennrich et al. (arXiv:1508.07909). Each
    distinct pretoken is held once, as a list of piece ids, with its count. A
    pair of ids is the key ``left * vocab_size + right``; one table holds every
    pair's corpus count, another the words that may hold the pair. A merge
    visits only the words indexed under its pair. ``list.count`` skips a word
    without the left symbol, and ``list.index`` finds each left symbol in turn,
    the search resuming just past a merged site, so a run such as ``aaaaa``
    merges left to right without overlap, as encoding does. At each merge site
    the word's count moves from ``(prev, left)`` to ``(prev, new)`` and from
    ``(right, next)`` to ``(new, next)``, and the word is indexed under the new
    pairs. An index lists a word once each time the word is indexed, and keeps
    a word that no longer holds the pair; a visit then finds no site in it. So
    one merge costs time in proportion to the words indexed under its pair and
    the sites it rewrites, not to the corpus.

    Only the merge that makes a pair raises its count; after that it can only
    fall, so the best count never rises. A lazy max-heap holds one entry per
    queued pair, at the pair's count or at one it had; a popped entry whose
    count has fallen is queued again at its count. A pair whose count is below
    ``floor``, a power of two, waits outside the heap in a bucket by the bit
    length of its count. When no entry reaches ``floor``, it halves and the
    pairs of the next bucket are queued, so a pair below the last merge's count
    is never queued.

    Each training word's final segmentation is its encoding (see the module
    docstring), so the returned vocabulary's word cache starts with them, and
    keeps them: all of them, or the ``WORD_CACHE_SIZE`` most frequent.
    """
    word_counts: Counter[str] = Counter()
    for doc in store.documents:
        word_counts.update(doc.split())

    alphabet = sorted({c for w in word_counts for c in w} | {MARKER})
    n_base = 1 + len(alphabet)  # unk + alphabet
    if vocab_size < n_base:
        raise TokenizerError(
            f"vocab_size {vocab_size} is smaller than the base symbol count "
            f"{n_base} (unk + marker + corpus alphabet)"
        )
    pieces: list[str] = [UNK_PIECE] + alphabet
    merges: list[tuple[str, str]] = []
    piece_id = {p: i for i, p in enumerate(pieces)}
    words = [list(map(piece_id.__getitem__, MARKER + w)) for w in word_counts]
    freqs = list(word_counts.values())

    V = vocab_size
    pair_counts: defaultdict[int, int] = defaultdict(int)
    pair_words: defaultdict[int, list[int]] = defaultdict(list)
    for wi, (syms, f) in enumerate(zip(words, freqs)):
        for a, b in zip(syms, syms[1:]):
            key = a * V + b
            pair_counts[key] += f
            pair_words[key].append(wi)
    waiting: defaultdict[int, list[int]] = defaultdict(list)  # count bit length: pairs
    for key, count in pair_counts.items():
        waiting[count.bit_length()].append(key)
    floor = 1 << max(waiting, default=0)
    heap: list[tuple[int, str, str, int]] = []  # ties pop lexicographically on the strings

    while len(pieces) < vocab_size:
        while True:
            if not heap or -heap[0][0] < floor:  # a waiting pair may outrank every entry
                if floor == 1:  # none waits
                    raise TokenizerError(
                        f"corpus exhausted after {len(merges)} merges; "
                        f"cannot reach vocab_size {vocab_size}"
                    )
                floor >>= 1
                for key in waiting.pop(floor.bit_length(), ()):
                    if count := pair_counts[key]:
                        heapq.heappush(heap, (-count, pieces[key // V], pieces[key % V], key))
                    else:
                        del pair_counts[key], pair_words[key]
                continue
            negc, left_piece, right_piece, best = heapq.heappop(heap)
            if (count := pair_counts[best]) == -negc:
                break
            if count:  # it fell since the entry was pushed
                heapq.heappush(heap, (-count, left_piece, right_piece, best))
            else:
                del pair_counts[best], pair_words[best]
        left, right = divmod(best, V)
        new = len(pieces)
        same, right_key, new_key = left == right, right * V, new * V
        merges.append((left_piece, right_piece))
        pieces.append(left_piece + right_piece)

        born: defaultdict[int, list[int]] = defaultdict(list)  # pairs made, and words
        for wi in pair_words.pop(best):
            syms = words[wi]
            n = syms.count(left)  # the left symbols not yet searched
            if not n:
                continue
            f, i, last = freqs[wi], -1, len(syms) - 1
            while n:
                i = syms.index(left, i + 1)
                n -= 1
                if i == last or syms[i + 1] != right:
                    continue
                n -= same
                if i:
                    prev_key = syms[i - 1] * V
                    pair_counts[prev_key + left] -= f
                    key = prev_key + new
                    pair_counts[key] += f
                    born[key].append(wi)
                if i + 1 < last:
                    nxt = syms[i + 2]
                    pair_counts[right_key + nxt] -= f
                    key = new_key + nxt
                    pair_counts[key] += f
                    born[key].append(wi)
                syms[i] = new
                del syms[i + 1]
                last -= 1

        del pair_counts[best]
        for key, wis in born.items():
            if count := pair_counts[key]:
                pair_words[key] = wis
                if count < floor:
                    waiting[count.bit_length()].append(key)
                else:
                    heapq.heappush(heap, (-count, pieces[key // V], pieces[key % V], key))
            else:
                del pair_counts[key]

    heap.clear()  # the pair tables are dead; free them before the cache grows
    waiting.clear()
    pair_words.clear()
    pair_counts.clear()
    vocab = Vocabulary(pieces=tuple(pieces), merges=tuple(merges))
    seeds = zip(word_counts, map(tuple, words))
    if len(words) > WORD_CACHE_SIZE:
        seeds = heapq.nlargest(WORD_CACHE_SIZE, seeds, key=lambda seed: word_counts[seed[0]])
    vocab._word_ids.update(seeds)
    return vocab


def _encode_word(merged, n, piece_to_id, unk_id, word: str) -> tuple[int, ...]:
    """While a merge applies, merge the present pair of the smallest produced
    id, left to right without overlap."""
    syms = [piece_to_id.get(c, unk_id) for c in word]
    while len(syms) > 1:
        best = None
        for a, b in zip(syms, syms[1:]):
            new = merged.get(a * n + b)
            if new is not None and (best is None or new < best):
                best, left, right = new, a, b
        if best is None:
            break
        i = 0
        while i < len(syms) - 1:
            if syms[i] == left and syms[i + 1] == right:
                syms[i : i + 2] = [best]
            i += 1
    # a tuple, so the cached result cannot be changed by a caller
    return tuple(syms)


@checked_args(TokenizerError)
def encode(vocab: Vocabulary, text: str) -> list[int]:
    """Greedy BPE encoding: merges apply in training order within each
    marker-prefixed pretoken; unseen characters map to unk, one id each. A
    pretoken in the vocabulary's word cache, as every training word of a
    vocabulary fresh from :func:`train_bpe` is, costs one lookup."""
    return list(chain.from_iterable(map(vocab._word_ids.__getitem__, text.split())))


def decode(vocab: Vocabulary, ids: Sequence[int]) -> str:
    """Inverse of encode on trained-domain text (up to unk substitution and
    whitespace normalisation: pretokens rejoin with single spaces)."""
    ids = checked_ids(ids, len(vocab), TokenizerError, "ids", " of the vocabulary")
    return "".join(vocab.pieces[i] for i in ids.tolist()).replace(MARKER, " ").lstrip(" ")


def _vocab_fields(vocab: Vocabulary) -> dict:
    # with the constants unk_id and marker, so digests and files keep their bytes
    return {"pieces": vocab.pieces, "merges": vocab.merges, "unk_id": vocab.unk_id,
            "marker": vocab.marker}


def vocab_digest(vocab: Vocabulary) -> str:
    return json_digest(_vocab_fields(vocab))


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


def save_vocab(path: str | Path, vocab: Vocabulary) -> None:
    """An XLVB file (:func:`~xlab.util.write_arrays`): the four fields, no arrays."""
    write_arrays(path, VOCAB_MAGIC, VOCAB_VERSION, _vocab_fields(vocab))


def load_vocab(path: str | Path) -> Vocabulary:
    """TokenizerError naming the file unless it matches its digest and holds a vocabulary."""
    header, _ = read_arrays(path, VOCAB_MAGIC, VOCAB_VERSION, TokenizerError)
    # the constants, written for the digest's sake; a JSON false is no 0
    unk_id, marker = header.pop("unk_id", None), header.pop("marker", None)
    if (type(unk_id), unk_id, marker) != (int, Vocabulary.unk_id, Vocabulary.marker):
        raise TokenizerError(f"{path}: unk_id {unk_id!r} and marker {marker!r} are not "
                             f"{Vocabulary.unk_id} and {Vocabulary.marker!r}")
    return from_fields(Vocabulary, header, TokenizerError, f"{path}: ")


# ---------------------------------------------------------------------------
# Id layouts: where each language's source ids sit in the model id space


@dataclass(frozen=True, eq=False)
class IdLayout:
    """Per-language lookup tables into one model id space.

    ``luts[n][t]`` is the model id of language n's source id t. A clone
    layout (:func:`clone_vocab`, :func:`relabel`) replicates one base
    vocabulary: anchored base ids are shared by all languages and occupy ids
    [0, A) ordered by base id; duplicated base ids get one copy per language,
    the copy of duplicated index j in language n sitting at ``A + n*D + j``
    where D = |base| - A. A real layout (:func:`disjoint_layout`,
    ``merge_vocabs(...).layout``) maps separately trained vocabularies and has
    no ``anchor_ids``. ``total_size``, the size of the model id space, is one
    past the largest id of any table. Layouts (one language or more) compare by identity.
    Each table and ``anchor_ids`` (base ids, below the first table's length) must hold
    1-d integer ids >= 0, stored as contiguous int64 arrays; TokenizerError otherwise.
    """

    luts: tuple[np.ndarray, ...]  # int64, one per language
    anchor_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        if not isinstance(self.luts, (list, tuple)) or not self.luts:
            raise TokenizerError(f"a layout needs at least one language, got {self.luts!r}")
        luts = tuple(checked_ids(lut, 2**63, TokenizerError, "ids", f" in language {n}'s table")
                     for n, lut in enumerate(self.luts))
        if any(lut.ndim != 1 for lut in luts) or np.ndim(self.anchor_ids) != 1:
            raise TokenizerError("each language's table and anchor_ids must be 1-d")
        anchors = checked_ids(self.anchor_ids, len(luts[0]), TokenizerError, "anchor_ids")
        object.__setattr__(self, "luts", luts)
        object.__setattr__(self, "anchor_ids", anchors)

    @property
    def n_languages(self) -> int:
        return len(self.luts)

    @cached_property
    def total_size(self) -> int:
        return max((int(lut.max()) + 1 for lut in self.luts if lut.size), default=0)

    @checked_args(TokenizerError)
    def map_ids(self, ids: np.ndarray, language: int) -> np.ndarray:
        """Remap a source-id sequence into the given language's model ids."""
        if not 0 <= language < self.n_languages:
            raise TokenizerError(f"language {language} out of range")
        lut = self.luts[language]
        return lut[checked_ids(ids, len(lut), TokenizerError, "source ids",
                               f" of language {language}")]

    @cached_property
    def _inverse(self) -> np.ndarray:
        self.language_slices()  # a clone layout's tables tile the id space
        inv = np.empty(self.total_size, dtype=np.int64)
        for lut in self.luts:
            inv[lut] = np.arange(len(lut))
        return inv

    def to_base(self, ids: np.ndarray) -> np.ndarray:
        """Project model ids back to base ids (any language). Clone layouts
        only: the first call checks the layout as :meth:`language_slices`
        does and builds the inverse table."""
        return self._inverse[checked_ids(ids, self.total_size, TokenizerError, "model ids",
                                         " of the layout")]

    def duplicated_base_ids(self) -> np.ndarray:
        """Base ids that are not anchors. Clone layouts only (:meth:`language_slices`)."""
        self.language_slices()
        mask = np.ones(len(self.luts[0]), dtype=bool)
        mask[self.anchor_ids] = False
        return np.nonzero(mask)[0]

    def language_slices(self) -> tuple[slice, list[slice]]:
        """(anchor block, per-language duplicated blocks) of the model id
        space; used for clone-permutation-invariant reductions. Raises
        TokenizerError unless the blocks, equal in size, tile the id space."""
        a, sizes = len(self.anchor_ids), [len(lut) for lut in self.luts]
        d = sizes[0] - a
        if set(sizes) != {a + d} or a + self.n_languages * d != self.total_size:
            raise TokenizerError(f"not a clone layout: languages of {sizes} ids with {a} "
                                 f"anchors do not tile {self.total_size} ids in equal blocks")
        return slice(0, a), [slice(a + n * d, a + (n + 1) * d) for n in range(self.n_languages)]


# perfbench/drive.py traces ``ClonedVocabulary.to_base`` by this name
ClonedVocabulary = IdLayout


@checked_args(TokenizerError)
def clone_vocab(
    vocab: Vocabulary,
    n_languages: int,
    anchor_fraction: float = 0.0,
    seed: int = 0,
) -> IdLayout:
    """Clone a vocabulary into ``n_languages`` blocks sharing
    ``floor(anchor_fraction * |base|)`` anchors, chosen uniformly at random
    under ``seed``."""
    if n_languages < 1:
        raise TokenizerError("n_languages must be >= 1")
    if not 0 <= anchor_fraction <= 1:
        raise TokenizerError(f"anchor_fraction must be in [0, 1], got {anchor_fraction!r}")
    n_base = len(vocab)
    n_anchor = int(np.floor(anchor_fraction * n_base))
    rng = seeded_rng(seed, TokenizerError)
    anchor_ids = np.sort(rng.choice(n_base, size=n_anchor, replace=False))
    dup_ids = np.setdiff1d(np.arange(n_base), anchor_ids)
    a, d = len(anchor_ids), len(dup_ids)
    lut = np.empty((n_languages, n_base), dtype=np.int64)
    lut[:, anchor_ids] = np.arange(a)
    for n in range(n_languages):
        lut[n, dup_ids] = a + n * d + np.arange(d)
    return IdLayout(luts=tuple(lut), anchor_ids=anchor_ids)


def relabel(layout: IdLayout, permutation: Sequence[int]) -> IdLayout:
    """Permute language roles: the relabelled layout maps language n the way
    the original mapped ``permutation[n]``. Anchors are unchanged."""
    perm = checked_ids(permutation, layout.n_languages, TokenizerError, "permutation").tolist()
    if sorted(perm) != list(range(layout.n_languages)):
        raise TokenizerError(
            f"permutation {permutation!r} is not a bijection over "
            f"{{0..{layout.n_languages - 1}}}"
        )
    return replace(layout, luts=tuple(layout.luts[p] for p in perm))


def disjoint_layout(sizes: Sequence[int]) -> IdLayout:
    """Separately trained vocabularies side by side: language n's ids are
    offset by the sizes of the languages before it. Sizes are ints >= 0;
    TokenizerError otherwise."""
    sizes = checked_ids(sizes, 2**63, TokenizerError, "sizes")
    offsets = np.cumsum([0, *sizes])
    return IdLayout(tuple(np.arange(o, o + n, dtype=np.int64) for o, n in zip(offsets, sizes)))


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
    return MergedVocabulary(shared=shared, pieces=tuple(pieces), layout=IdLayout(luts=luts))
