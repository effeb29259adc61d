"""Workload driver: every call the benchmark makes into ``xlab`` is in this
module, including the table of functions the traced run rebinds.

Each workload has a ``setup`` that builds its inputs from the seed, a
``run_pass`` that performs one closed-loop pass of the lab's stages and
checks the outputs, and a ``summary`` that turns the passes of one run into
the workload's end-to-end figures. Only entry points that the roadmap keeps are used: no
``resume()``, ``assign_and_encode`` or ``bilingual_sample``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from xlab import alignment, corpus, evaluator, mixer, model, scaling, tokenizer, trainer

from spans import Target

# float64 tolerance for sliding_logprobs against sequence_logprobs on a
# document no longer than the window: both score the same (1, n) forward
LOGPROB_ATOL = 1e-9
# relative tolerance for recovering the seeded (a, b, c) of a noise-free curve
FIT_RTOL = 1e-3

# the train and eval workloads share one model shape (ModelConfig default
# dtype, float32); only the sizes below differ between presets
SIZES = {
    "full": dict(
        base_vocab=2048, n_layers=4, d_model=128, n_heads=4, d_ff=512, max_seq_len=128,
        train_stream_tokens=60_000, batch=8, seq_len=64, steps=12, checkpoint_every=3,
        eval_docs=6, eval_doc_len=(150, 330), short_doc_len=100, window=128, stride=32,
        n_pairs=3, pair_len=48, n_curves=4, curve_points=10,
        prep_words=8000, prep_docs=40, prep_doc_words=(2500, 2500), prep_vocab=2048,
        prep_shards=4, cursor_seq_len=128,
    ),
    "tiny": dict(
        base_vocab=64, n_layers=1, d_model=16, n_heads=2, d_ff=32, max_seq_len=16,
        train_stream_tokens=2_000, batch=4, seq_len=16, steps=8, checkpoint_every=2,
        eval_docs=2, eval_doc_len=(20, 40), short_doc_len=12, window=16, stride=4,
        n_pairs=1, pair_len=8, n_curves=1, curve_points=5,
        prep_words=200, prep_docs=6, prep_doc_words=(150, 150), prep_vocab=120,
        prep_shards=2, cursor_seq_len=16,
    ),
}

SEPARATOR_ID = 1  # base id 0 is unk, 1 separates documents in the base stream


# ---------------------------------------------------------------------------
# Seeded inputs (pure numpy; the program only ever sees what these return)


def _zipf(n: int, s: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -s
    return p / p.sum()


def _base_docs(rng, n_docs: int, lengths: tuple[int, int], vocab: int) -> list[np.ndarray]:
    """Documents of base ids: Zipfian draws of short multi-id "words" over ids
    [2, vocab), so next-token structure is learnable within a word."""
    n_words = max(8, vocab // 3)
    word_len = 1 + rng.integers(0, 4, size=n_words)
    word_ids = [2 + rng.choice(vocab - 2, size=k, p=_zipf(vocab - 2, 1.05)) for k in word_len]
    docs = []
    # lengths are fixed by the size, so every seed does the same amount of work
    for length in np.linspace(lengths[0], lengths[1], n_docs).astype(int):
        picks = rng.choice(n_words, size=int(length), p=_zipf(n_words, 1.1))
        docs.append(np.concatenate([word_ids[i] for i in picks])[:length])
    return docs


def _base_vocabulary(n: int):
    return tokenizer.Vocabulary(
        pieces=("<unk>", "<sep>") + tuple(f"b{i}" for i in range(2, n)), merges=()
    )


def _token_stream(docs: list[np.ndarray]):
    return corpus.TokenStream(
        ids=np.concatenate(docs).astype(np.uint32),
        doc_boundaries=np.cumsum([len(d) for d in docs]).astype(np.uint64),
        vocab_digest="0" * 64,
    )


ALPHABETS = ("abcdefghijklmnopqrstuvwxyz", "абвгдежзийклмнопрстуфхцчшщыьэюя")


def _lexicon(rng, alphabet: str, n_words: int) -> list[str]:
    letters = np.array(list(alphabet))
    p = _zipf(len(alphabet), 0.9)
    words: dict[str, None] = {}
    while len(words) < n_words:
        lengths = 2 + rng.poisson(3.0, size=n_words)
        chars = rng.choice(letters, size=int(lengths.sum()), p=p)
        ends = np.cumsum(lengths)
        for start, end in zip(ends - lengths, ends):
            words.setdefault("".join(chars[start:end]), None)
    return list(words)[:n_words]


def _corpus_docs(rng, alphabet: str, size: dict) -> list[str]:
    """Zipfian-frequency text over a seeded lexicon, 12 words to a line."""
    lexicon = np.array(_lexicon(rng, alphabet, size["prep_words"]), dtype=object)
    p = _zipf(len(lexicon), 1.0)
    lo, hi = size["prep_doc_words"]
    docs = []
    for n in np.linspace(lo, hi, size["prep_docs"]).astype(int):
        words = lexicon[rng.choice(len(lexicon), size=int(n), p=p)]
        docs.append("\n".join(" ".join(words[i : i + 12]) for i in range(0, len(words), 12)))
    return docs


def _model_config(size: dict, vocab_size: int):
    return model.ModelConfig(
        n_layers=size["n_layers"], d_model=size["d_model"], n_heads=size["n_heads"],
        d_ff=size["d_ff"], vocab_size=vocab_size, max_seq_len=size["max_seq_len"],
    )


def _same_params(a, b) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a
    )


def _median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64)))


def _throughput(passes: list[dict], *stages: str) -> float:
    """Tokens over the time of the named stages, summed over all passes of
    the run: a throughput is work over time, so it is not a median."""
    return sum(p["tokens"] for p in passes) / sum(p["stages"][s] for p in passes for s in stages)


# ---------------------------------------------------------------------------
# train-cloned-90v10


@dataclass
class TrainInputs:
    size: dict
    seed: int
    stream: object
    cv: object
    groups: object
    model_config: object
    train_config: object


def train_setup(size: dict, seed: int, workdir: Path) -> TrainInputs:
    rng = np.random.default_rng(seed)
    n_docs = max(2, size["train_stream_tokens"] // 500)
    per_doc = size["train_stream_tokens"] // n_docs
    stream = _token_stream(_base_docs(rng, n_docs, (per_doc, per_doc), size["base_vocab"]))
    cv = tokenizer.clone_vocab(_base_vocabulary(size["base_vocab"]), 2)
    mcfg = _model_config(size, cv.total_size)
    steps = size["steps"]
    tcfg = trainer.TrainConfig(
        total_steps=steps, batch_size=size["batch"], seq_len=size["seq_len"],
        lr_max=3e-3, lr_min=3e-4, warmup_steps=max(1, steps // 6), seed=seed,
        checkpoint_every=size["checkpoint_every"],
    )
    # one forward/backward at the training shape, so BLAS and allocator
    # warm-up is paid here, as a user pays it once per process
    ids = np.zeros((size["batch"], size["seq_len"]), dtype=np.int64)
    model.loss_and_grads(model.init(mcfg, seed), ids, ids, cv.language_slices())
    return TrainInputs(size, seed, stream, cv, cv.language_slices(), mcfg, tcfg)


def _train_run(inp: TrainInputs, out_dir: Path, step_times: list, resume_from=None, first=0):
    """One call of ``trainer.train`` (resuming at step ``first`` from
    ``resume_from``); an eval hook on every step timestamps the step
    boundaries from outside."""
    cfg = inp.train_config
    source = trainer.ClonedMixtureSource(
        mixer.StreamCursor(inp.stream, cfg.seq_len, separator_id=SEPARATOR_ID),
        inp.cv, mixer.parse_policy("90v10", n_languages=2), cfg.batch_size, inp.seed,
    )
    marks = [0.0]

    def hook(state, steps_done, record):
        marks.append(perf_counter())

    hooks = [(k, hook) for k in range(first + 1, cfg.total_steps + 1)]
    state = model.init(inp.model_config, inp.seed)
    marks[0] = perf_counter()
    state, record = trainer.train(
        state, source, cfg, vocab_groups=inp.groups, eval_hooks=hooks,
        out_dir=out_dir, resume_from=resume_from,
    )
    step_times.extend(np.diff(marks).tolist())
    return state, record


def train_pass(inp: TrainInputs, ctx) -> dict:
    cfg = inp.train_config
    mid = cfg.total_steps // 2
    step_times: list[float] = []
    full_dir, resumed_dir = ctx.fresh_dir("full"), ctx.fresh_dir("resumed")
    with ctx.stage("train"):
        state, record = _train_run(inp, full_dir, step_times)
    with ctx.stage("resume"):
        checkpoint = full_dir / f"checkpoint_{mid:07d}.xlck"
        resumed, resumed_record = _train_run(inp, resumed_dir, step_times, checkpoint, mid)
    losses = record.losses
    ctx.check("losses finite", all(math.isfinite(x) for x in losses))
    ctx.check("last loss below first", losses[-1] < losses[0])
    ctx.check(
        "token counts sum to steps x batch x seq_len",
        sum(record.lang_token_counts) == cfg.total_steps * cfg.batch_size * cfg.seq_len,
    )
    ctx.check("resumed losses bit-identical", resumed_record.losses == losses)
    ctx.check("resumed params bit-identical", _same_params(resumed.params, state.params))
    tokens = (2 * cfg.total_steps - mid) * cfg.batch_size * cfg.seq_len
    return {"fingerprint": tuple(losses), "tokens": tokens, "step_s": step_times}


def train_summary(passes: list[dict]) -> dict:
    steps = np.concatenate([p["step_s"] for p in passes])
    return {
        "train_tok_s": _throughput(passes, "train", "resume"),
        "step_s_p50": float(np.percentile(steps, 50)),
        "step_s_p90": float(np.percentile(steps, 90)),
        "step_samples": len(steps),
    }


# ---------------------------------------------------------------------------
# eval-cloned


@dataclass
class EvalInputs:
    size: dict
    seed: int
    checkpoint: Path
    cv: object
    test: object
    short_doc: np.ndarray
    freq: np.ndarray
    pairs: list
    real_pairs: list
    curves: list


def eval_setup(size: dict, seed: int, workdir: Path) -> EvalInputs:
    rng = np.random.default_rng(seed)
    v = size["base_vocab"]
    cv = tokenizer.clone_vocab(_base_vocabulary(v), 2)
    docs = _base_docs(rng, size["eval_docs"], size["eval_doc_len"], v)
    short = _base_docs(rng, 1, (size["short_doc_len"],) * 2, v)[0]
    test = _token_stream(docs + [short])
    freq = np.bincount(test.ids.astype(np.int64), minlength=v)
    pairs, real_pairs = [], []
    for base in _base_docs(rng, size["n_pairs"], (size["pair_len"],) * 2, v):
        a, b = cv.map_ids(base, 0), cv.map_ids(base, 1)
        pairs.append(alignment.ParallelPair(a, b, mode="cloned"))
        # unequal lengths, so max_weight matching is a true injection
        real_pairs.append(alignment.ParallelPair(a, b[: len(b) - len(b) // 4], mode="real"))
    curves = []
    for _ in range(size["n_curves"]):
        b = rng.uniform(0.25, 0.5)
        t = np.logspace(6, 9, size["curve_points"])
        a = rng.uniform(200.0, 600.0) * t[0] ** b
        c = rng.uniform(2.0, 6.0)
        curves.append(((a, b, c), [(float(x), float(a * x**-b + c)) for x in t]))
    state = model.init(_model_config(size, cv.total_size), seed)
    checkpoint = workdir / "eval.xlck"
    model.save_checkpoint(checkpoint, state, step=0)
    # warm-up forward at the evaluation shape (see train_setup)
    model.forward(state, np.zeros((8, size["window"]), dtype=np.int64))
    return EvalInputs(size, seed, checkpoint, cv, test, short, freq, pairs, real_pairs, curves)


def eval_pass(inp: EvalInputs, ctx) -> dict:
    size = inp.size
    with ctx.stage("load"):
        state = model.load_checkpoint(inp.checkpoint)[0]
    with ctx.stage("eval"):
        results = evaluator.per_language_eval(
            state, inp.cv, inp.test, window=size["window"], stride=size["stride"]
        )
    expected = sum(len(inp.test.document(i)) - 1 for i in range(inp.test.n_documents))
    for lang, res in sorted(results.items()):
        ctx.check(f"lang {lang} tokens_scored", res.tokens_scored == expected)
        ctx.check(f"lang {lang} ppl finite and > 1", math.isfinite(res.ppl) and res.ppl > 1)
    with ctx.stage("check"):
        doc = inp.cv.map_ids(inp.short_doc, 1)
        _, sliding = evaluator.sliding_logprobs(state, doc, size["window"], size["stride"])
        reference = model.sequence_logprobs(state, doc)
    ctx.check(
        "sliding equals sequence logprobs on a short document",
        sliding.shape == reference.shape
        and bool(np.allclose(sliding, reference, rtol=0.0, atol=LOGPROB_ATOL)),
    )

    with ctx.stage("align"):
        for pair in inp.pairs:
            pair.validate_cloned(inp.cv)
        emb = alignment.embedding_similarity(state, inp.cv, freq=inp.freq, seed=inp.seed)
        hidden = []
        for pair, real in zip(inp.pairs, inp.real_pairs):
            hidden.append(alignment.hidden_similarity(state, pair, "positional"))
            hidden.append(alignment.hidden_similarity(state, real, "max_weight"))
            hidden.append(alignment.gradient_similarity(state, pair).macro_average)
    with ctx.stage("check"):
        real = inp.real_pairs[0]
        ha = model.forward(state, real.seq_a).hidden_states[1:]
        hb = model.forward(state, real.seq_b).hidden_states[1:]
        matching = alignment.match_tokens(ha, hb)
    rows, cols = [i for i, _ in matching], [j for _, j in matching]
    ctx.check(
        "max_weight matching is injective with min(len) pairs",
        len(matching) == min(len(real.seq_a), len(real.seq_b))
        and len(set(rows)) == len(rows) and len(set(cols)) == len(cols),
    )

    with ctx.stage("fit"):
        fits = [scaling.fit_power_law(points) for _, points in inp.curves]
        reports = []
        for fit, (_, points) in zip(fits, inp.curves):
            t_mid = points[len(points) // 2][0]
            per_language = {n: (t_mid, fit.predict(t_mid * (0.5 + n))) for n in (0, 1)}
            reports.append(scaling.efficiency_report(fit, per_language))
    for k, (fit, ((a, b, c), _)) in enumerate(zip(fits, inp.curves)):
        ctx.check(
            f"fit {k} recovers (a, b, c)",
            all(abs(got - want) <= FIT_RTOL * want
                for got, want in ((fit.a, a), (fit.b, b), (fit.c, c))),
        )

    fingerprint = (
        tuple(r.ppl for _, r in sorted(results.items())),
        emb.mean, tuple(np.concatenate([np.atleast_1d(h) for h in hidden]).tolist()),
        tuple((f.a, f.b, f.c) for f in fits),
        tuple(tuple(row.teff for row in rows) for rows in reports),
    )
    return {"fingerprint": fingerprint, "tokens": sum(r.tokens_scored for r in results.values())}


def eval_summary(passes: list[dict]) -> dict:
    return {
        "eval_tok_s": _throughput(passes, "eval"),
        "align_s": _median([p["stages"]["align"] for p in passes]),
        "fit_s": _median([p["stages"]["fit"] for p in passes]),
    }


# ---------------------------------------------------------------------------
# prep-bilingual


@dataclass
class PrepInputs:
    size: dict
    seed: int
    paths: tuple[list[Path], list[Path]]


def prep_setup(size: dict, seed: int, workdir: Path) -> PrepInputs:
    rng = np.random.default_rng(seed)
    paths: list[list[Path]] = []
    for lang, alphabet in enumerate(ALPHABETS):
        docs = _corpus_docs(rng, alphabet, size)
        shards = []
        for k in range(size["prep_shards"]):
            path = workdir / f"lang{lang}-{k:02d}.txt"
            path.write_text("\n\n".join(docs[k :: size["prep_shards"]]) + "\n", encoding="utf-8")
            shards.append(path)
        paths.append(shards)
    return PrepInputs(size, seed, (paths[0], paths[1]))


def prep_pass(inp: PrepInputs, ctx) -> dict:
    size = inp.size
    with ctx.stage("corpus"):
        splits = [
            corpus.split(corpus.ingest(p, doc_separator="\n\n"), 0.1, inp.seed)
            for p in inp.paths
        ]
    with ctx.stage("bpe"):
        vocabs = [tokenizer.train_bpe(train, size["prep_vocab"]) for train, _ in splits]
    with ctx.stage("merge"):
        tokenizer.merge_vocabs(*vocabs)
    with ctx.stage("tokenize"):
        streams = [tokenizer.tokenize_store(v, train) for v, (train, _) in zip(vocabs, splits)]
    with ctx.stage("corpus"):
        back = []
        for lang, stream in enumerate(streams):
            path = ctx.fresh_dir("streams") / f"lang{lang}.xlts"
            corpus.write_token_stream(path, stream)
            back.append(corpus.read_token_stream(path))
    with ctx.stage("clone"):
        tokenizer.clone_vocab(vocabs[0], 2, anchor_fraction=0.1, seed=inp.seed)
        for v, stream in zip(vocabs, streams):
            mixer.StreamCursor(stream, size["cursor_seq_len"], separator_id=v.unk_id)
    for lang, v in enumerate(vocabs):
        ctx.check(f"lang {lang} vocabulary size", len(v) == size["prep_vocab"])
    with ctx.stage("check"):
        roundtrip = all(
            tokenizer.decode(v, tokenizer.encode(v, doc)) == " ".join(doc.split())
            for v, (_, test) in zip(vocabs, splits) for doc in test.documents
        )
    ctx.check("decode(encode(doc)) on test documents", roundtrip)
    for lang, (a, b) in enumerate(zip(streams, back)):
        ctx.check(
            f"lang {lang} token stream round trip",
            a.vocab_digest == b.vocab_digest
            and np.array_equal(a.ids, b.ids)
            and np.array_equal(a.doc_boundaries, b.doc_boundaries),
        )
    fingerprint = tuple(tokenizer.vocab_digest(v) for v in vocabs) + tuple(
        (len(s), int(s.ids.astype(np.int64).sum())) for s in streams
    )
    return {"fingerprint": fingerprint, "tokens": sum(len(s) for s in streams)}


def prep_summary(passes: list[dict]) -> dict:
    return {
        "bpe_s": _median([p["stages"]["bpe"] for p in passes]),
        "tokenize_tok_s": _throughput(passes, "tokenize"),
        "corpus_s": _median([p["stages"]["corpus"] for p in passes]),
    }


def prep_layer_extras(inp: PrepInputs) -> dict:
    """``tokenizer.word_repeat_share``: 1 - distinct pretokens / pretokens
    over both corpora, the share of encode work a per-word cache can skip."""
    total, distinct = 0, set()
    for lang, shards in enumerate(inp.paths):
        for path in shards:
            words = path.read_text(encoding="utf-8").split()
            total += len(words)
            distinct.update((lang, w) for w in words)
    return {"tokenizer.word_repeat_share": 1.0 - len(distinct) / total}


# ---------------------------------------------------------------------------
# Traced run: the functions rebound, where their callers look them up


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _gemm_gflop(args, kwargs, result) -> dict:
    """Matmul GFLOP of one forward plus backward, from config and batch shape:
    forward 2*b*t*(L*(4d^2 + 2*d*f) + d*V) + 4*L*b*t^2*d, backward twice that."""
    c = _arg(args, kwargs, 0, "state").config
    ids = np.asarray(_arg(args, kwargs, 1, "ids"))
    b, t = (1, ids.shape[0]) if ids.ndim == 1 else ids.shape
    d, f = c.d_model, c.d_ff
    fwd = 2 * b * t * (c.n_layers * (4 * d * d + 2 * d * f) + d * c.vocab_size)
    fwd += 4 * c.n_layers * b * t * t * d
    return {"gflop": 3 * fwd / 1e9}


def _forward_info(args, kwargs, result) -> dict:
    ids = np.asarray(_arg(args, kwargs, 1, "ids"))
    return {
        "rows": 1 if ids.ndim == 1 else ids.shape[0],
        "positions": int(ids.size),
        "itemsize": result.logits.dtype.itemsize,
    }


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


TRACE_TARGETS = [
    Target("model.loss_and_grads", "xlab.trainer", "loss_and_grads", _gemm_gflop),
    Target("model.loss_and_grads", "xlab.alignment", "loss_and_grads", _gemm_gflop),
    Target("model.softmax_xent", "xlab.model", "softmax_xent"),
    Target("model.grouped_vocab_reduce", "xlab.model", "grouped_vocab_reduce"),
    Target("model.grouped_sumsq", "xlab.trainer", "grouped_sumsq"),
    Target("model.forward", "xlab.model", "forward", _forward_info),
    Target("model.forward", "xlab.evaluator", "forward", _forward_info),
    Target("model.forward", "xlab.alignment", "forward", _forward_info),
    Target("model.save_checkpoint", "xlab.trainer", "save_checkpoint", _file_bytes),
    Target("model.load_checkpoint", "xlab.trainer", "load_checkpoint"),
    Target("model.load_checkpoint", "xlab.model", "load_checkpoint"),
    Target("trainer.train", "xlab.trainer", "train"),
    Target("trainer.Adam.step", "xlab.trainer", "Adam.step"),
    Target("trainer.next_batch", "xlab.trainer", "ClonedMixtureSource.next_batch"),
    Target("mixer.sample_language", "xlab.trainer", "sample_language"),
    Target("mixer.StreamCursor.next", "xlab.mixer", "StreamCursor.next"),
    Target("evaluator.sliding_logprobs", "xlab.evaluator", "sliding_logprobs",
           lambda a, k, r: {"scored": len(r[1])}),
    Target("alignment.embedding_similarity", "xlab.alignment", "embedding_similarity"),
    Target("alignment.hidden_similarity", "xlab.alignment", "hidden_similarity"),
    Target("alignment.match_tokens", "xlab.alignment", "match_tokens"),
    Target("alignment.gradient_similarity", "xlab.alignment", "gradient_similarity"),
    Target("tokenizer.to_base", "xlab.tokenizer", "ClonedVocabulary.to_base"),
    Target("scaling.fit_power_law", "xlab.scaling", "fit_power_law"),
    Target("scaling.efficiency_report", "xlab.scaling", "efficiency_report"),
    Target("tokenizer.train_bpe", "xlab.tokenizer", "train_bpe",
           lambda a, k, r: {"merges": len(r.merges)}),
    Target("tokenizer.tokenize_store", "xlab.tokenizer", "tokenize_store",
           lambda a, k, r: {"tokens": len(r)}),
    Target("tokenizer.encode", "xlab.tokenizer", "encode"),
    Target("tokenizer.merge_vocabs", "xlab.tokenizer", "merge_vocabs"),
    Target("corpus.ingest", "xlab.corpus", "ingest",
           lambda a, k, r: {"bytes": sum(os.path.getsize(p) for p in _arg(a, k, 0, "paths"))}),
    Target("corpus.split", "xlab.corpus", "split"),
    Target("corpus.write_token_stream", "xlab.corpus", "write_token_stream"),
    Target("corpus.read_token_stream", "xlab.corpus", "read_token_stream"),
]


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    summary: object
    layer_extras: object = lambda inputs: {}  # per-layer values not taken from spans


WORKLOADS = {
    "train-cloned-90v10": Workload(train_setup, train_pass, train_summary),
    "eval-cloned": Workload(eval_setup, eval_pass, eval_summary),
    "prep-bilingual": Workload(prep_setup, prep_pass, prep_summary, prep_layer_extras),
}

