from collections import Counter

import numpy as np
import pytest

from xlab import corpus, model, tokenizer, util


@pytest.fixture(scope="session")
def tiny_store() -> corpus.DocumentStore:
    docs = [
        "the cat sat on the mat and the dog ran to the cat " * 12,
        "a bird flew over the old barn while the cat slept " * 12,
        "the dog dug under the fence near the tall green tree " * 12,
    ]
    return corpus.DocumentStore(docs)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_store) -> tokenizer.Vocabulary:
    return tokenizer.train_bpe(tiny_store, vocab_size=60)


@pytest.fixture(scope="session")
def tiny_stream(tiny_vocab, tiny_store) -> corpus.TokenStream:
    return tokenizer.tokenize_store(tiny_vocab, tiny_store)


def oracle_bpe_merges(word_counts: dict[str, int], n_merges: int):
    """Exhaustive pair-frequency recount after every merge; ties broken
    lexicographically. Independent of the incremental trainer."""
    words = {w: list(w) for w in word_counts}
    merges = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for w, syms in words.items():
            for pair in zip(syms, syms[1:]):
                counts[pair] = counts.get(pair, 0) + word_counts[w]
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        merges.append(best)
        for w in words:
            syms, out, i = words[w], [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best:
                    out.append(best[0] + best[1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    return merges


def pretoken_counts(documents) -> dict[str, int]:
    """The marker-prefixed pretokens of the documents and their counts, the
    oracle's input."""
    return dict(Counter(tokenizer.MARKER + w for doc in documents for w in doc.split()))


def merge_symbols(syms: list[str], left: str, right: str) -> list[str]:
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


def reference_encode(vocab: tokenizer.Vocabulary, text: str) -> list[int]:
    """BPE encoding on piece strings, independent of the id encoder: within
    each pretoken the present merge of the lowest rank joins its strings, and
    the final strings map to ids, unk for one that is not a piece."""
    rank = {pair: r for r, pair in enumerate(vocab.merges)}
    piece_to_id = {p: i for i, p in enumerate(vocab.pieces)}
    ids = []
    for word in text.split():
        syms = list(vocab.marker + word)
        while len(syms) > 1:
            best_rank = None
            for pair in zip(syms, syms[1:]):
                r = rank.get(pair)
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank = r
            if best_rank is None:
                break
            left, right = vocab.merges[best_rank]
            syms = merge_symbols(syms, left, right)
        ids.extend(piece_to_id.get(s, vocab.unk_id) for s in syms)
    return ids


def make_vocab(n_pieces: int) -> tokenizer.Vocabulary:
    """A synthetic vocabulary of n unique single/multi-char pieces, no merges."""
    pieces = ["<unk>"] + [f"p{i}" for i in range(n_pieces - 1)]
    return tokenizer.Vocabulary(pieces=tuple(pieces), merges=())


def unequal_merged_layout() -> tokenizer.IdLayout:
    """Two 4-piece vocabularies sharing ``<unk>`` and ``y``: 6 model ids, no clone
    layout. Model id 2 is language A's ``y``, whose source id is 2; in B it is 1."""
    return tokenizer.merge_vocabs(
        tokenizer.Vocabulary(("<unk>", "x", "y", "xy"), (("x", "y"),)),
        tokenizer.Vocabulary(("<unk>", "y", "z", "yz"), (("y", "z"),))).layout


def make_model(
    n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=23, max_seq_len=12,
    tie_embeddings=True, dtype="float64", seed=0,
) -> model.ModelState:
    cfg = model.ModelConfig(
        n_layers=n_layers, d_model=d_model, n_heads=n_heads, d_ff=d_ff,
        vocab_size=vocab_size, max_seq_len=max_seq_len,
        tie_embeddings=tie_embeddings, dtype=dtype,
    )
    return model.init(cfg, seed=seed)


def markov_stream(
    n_tokens: int, vocab_size: int, seed: int, peak: float = 0.85
) -> tuple[corpus.TokenStream, np.ndarray]:
    """A first-order Markov token stream with strongly peaked transitions, and
    its stationary unigram distribution (for baseline-loss oracles)."""
    rng = np.random.default_rng(seed)
    trans = np.full((vocab_size, vocab_size), (1 - peak) / (vocab_size - 1))
    nxt = rng.permutation(vocab_size)
    trans[np.arange(vocab_size), nxt] = peak
    ids = np.empty(n_tokens, dtype=np.uint32)
    s = 0
    for i in range(n_tokens):
        ids[i] = s
        s = int(rng.choice(vocab_size, p=trans[s]))
    # stationary distribution via power iteration
    pi = np.full(vocab_size, 1.0 / vocab_size)
    for _ in range(200):
        pi = pi @ trans
    stream = corpus.TokenStream(
        ids=ids,
        doc_boundaries=np.array([n_tokens], dtype=np.uint64),
        vocab_digest="0" * 64,
    )
    return stream, pi


def edit_array_file(path, edit, version=None):
    """Apply ``edit(header, arrays)`` to an array file and write it back through
    ``util.write_arrays``, under a valid digest and as ``version`` if one is given,
    so a loader's own field checks see the edit. Apart from the checkpoint-bytes
    test, this is the one place in the tests that knows where the magic and the
    version sit in a file."""
    raw = path.read_bytes()
    magic, old_version = raw[:4], raw[4]
    header, arrays = util.read_arrays(path, magic, old_version, ValueError)
    edit(header, arrays)
    util.write_arrays(path, magic, old_version if version is None else version, header, arrays)
