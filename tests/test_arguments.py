"""The argument rule of ``xlab.util`` over every scalar parameter that ``tools/size.py``
lists (``scalar_parameters``). Each function has one valid call in ``CALLS``; each of
its parameters, given 1.5, 2.0, True, "x", a NaN, an infinity or None where the rule
refuses it, raises the function's own module error, which names the parameter."""

from __future__ import annotations

import inspect
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from xlab import alignment, corpus, evaluator, mixer, model, scaling, tokenizer, trainer, util

from conftest import make_model, make_vocab

ROOT = Path(__file__).resolve().parents[1]
PARAMETERS = runpy.run_path(str(ROOT / "tools" / "size.py"))["ledger"](ROOT)["scalar_parameters"]
PROBES = (1.5, 2.0, True, "x", math.nan, math.inf, None)


def _stream():
    return corpus.TokenStream(np.arange(1, 9), [4, 8], "0" * 64)


def _fit():
    return scaling.ScalingFit(a=10.0, b=0.5, c=1.0, residual=0.0, t_min=1.0, t_max=100.0)


def _source():
    return trainer.MixtureSource(mixer.StreamCursor(_stream(), 2),
                                 tokenizer.clone_vocab(make_vocab(10), 2),
                                 mixer.parse_policy("50/50"), 1, 0)


def _written(path):
    util.write_arrays(path, b"XLTT", 1, {})
    return path


def _adam():
    return trainer.Adam({"w": np.zeros(2)})


# each function: (a valid call as (callable, positional args), built in a tmp_path; the
# error class of its module)
CALLS = {
    "alignment.embedding_similarity": (lambda tmp: (alignment.embedding_similarity, (
        make_model(), tokenizer.clone_vocab(make_vocab(11), 2), None, 0)),
        alignment.AlignmentError),
    "alignment.hidden_similarity": (lambda tmp: (alignment.hidden_similarity, (
        make_model(), alignment.ParallelPair([1, 2, 3], [1, 2, 3], "cloned"), "positional")),
        alignment.AlignmentError),
    "corpus.ingest": (lambda tmp: (corpus.ingest, ([], "\n\n")), corpus.CorpusError),
    "corpus.split": (lambda tmp: (corpus.split, (corpus.DocumentStore(["a", "b"]), 0.5, 1)),
                     corpus.CorpusError),
    "corpus.TokenStream.document": (lambda tmp: (_stream().document, (1,)), corpus.CorpusError),
    "evaluator.window_spans": (lambda tmp: (evaluator.window_spans, (10, 4, 2)),
                               evaluator.EvalError),
    "evaluator.sliding_logprobs": (lambda tmp: (evaluator.sliding_logprobs, (
        make_model(), [1, 2, 3, 4, 5], 4, 2)), evaluator.EvalError),
    "evaluator.sliding_ppl": (lambda tmp: (evaluator.sliding_ppl, (make_model(), _stream(), 4, 2)),
                              evaluator.EvalError),
    "evaluator.per_language_eval": (lambda tmp: (evaluator.per_language_eval, (
        make_model(), tokenizer.clone_vocab(make_vocab(10), 2), _stream(), 4, 2)),
        evaluator.EvalError),
    "mixer.parse_policy": (lambda tmp: (mixer.parse_policy, ("50/50", 2)), mixer.PolicyError),
    "mixer.probs_at": (lambda tmp: (mixer.probs_at, (mixer.parse_policy("90v10"), 3, 10)),
                       mixer.PolicyError),
    "mixer.sample_language": (lambda tmp: (mixer.sample_language, (
        mixer.parse_policy("90v10"), 3, 10, np.random.default_rng(0))), mixer.PolicyError),
    "mixer.StreamCursor.__init__": (lambda tmp: (mixer.StreamCursor, (_stream(), 2, 0)),
                                    corpus.CorpusError),
    "mixer.concat_with_separator": (lambda tmp: (mixer.concat_with_separator, (_stream(), 0)),
                                    corpus.CorpusError),
    "model.group_of": (lambda tmp: (model.group_of, ("layers.0.attn_qkv.weight",)), ValueError),
    "model.init": (lambda tmp: (model.init, (make_model().config, 0)), ValueError),
    "model.save_checkpoint": (lambda tmp: (model.save_checkpoint, (
        tmp / "c.xlck", make_model(), 3)), model.CheckpointError),
    "scaling.ScalingFit.in_domain": (lambda tmp: (_fit().in_domain, (5.0,)), scaling.FitError),
    "scaling.mlte": (lambda tmp: (scaling.mlte, (_fit(), 3.0)), scaling.FitError),
    "scaling.mlpe": (lambda tmp: (scaling.mlpe, (_fit(), 5.0)), scaling.FitError),
    "scaling.teff": (lambda tmp: (scaling.teff, (5.0, 4.0)), scaling.FitError),
    "tokenizer.train_bpe": (lambda tmp: (tokenizer.train_bpe, (
        corpus.DocumentStore(["ab ab"]), 6)), tokenizer.TokenizerError),
    "tokenizer.encode": (lambda tmp: (tokenizer.encode, (make_vocab(10), "p1 p2")),
                         tokenizer.TokenizerError),
    "tokenizer.IdLayout.map_ids": (lambda tmp: (
        tokenizer.clone_vocab(make_vocab(10), 2).map_ids, ([1, 2], 1)), tokenizer.TokenizerError),
    "tokenizer.clone_vocab": (lambda tmp: (tokenizer.clone_vocab, (make_vocab(10), 2, 0.5, 1)),
                              tokenizer.TokenizerError),
    "trainer.TrainAbortError.__init__": (lambda tmp: (trainer.TrainAbortError, ("stop", None)),
                                         ValueError),
    "trainer.lr_at": (lambda tmp: (trainer.lr_at, (
        trainer.TrainConfig(10, 1, 8, warmup_steps=2), 3)), ValueError),
    "trainer.Adam.step": (lambda tmp: (_adam().step, (
        {"w": np.zeros(2)}, {"w": np.ones(2)}, 0.1)), ValueError),
    "trainer.Adam.restore": (lambda tmp: (_adam().restore, (_adam().tensors(), 0)), ValueError),
    "trainer.MixtureSource.__init__": (lambda tmp: (trainer.MixtureSource, (
        mixer.StreamCursor(_stream(), 2), tokenizer.clone_vocab(make_vocab(10), 2),
        mixer.parse_policy("50/50"), 1, 0)), ValueError),
    "trainer.MixtureSource.next_batch": (lambda tmp: (_source().next_batch, (0, 10)), ValueError),
    "util.check_type": (lambda tmp: (util.check_type, (1, int, KeyError, "n")), TypeError),
    "util.from_fields": (lambda tmp: (util.from_fields, (
        scaling.ScalingFit, dict(a=1.0, b=1.0, c=1.0, residual=0.0, t_min=1.0, t_max=2.0),
        KeyError, "fit: ")), TypeError),
    "util.checked_ids": (lambda tmp: (util.checked_ids, ([1], 5, KeyError, "ids", " here")),
                         TypeError),
    "util.write_arrays": (lambda tmp: (util.write_arrays, (tmp / "a", b"XLTT", 1, {})),
                          TypeError),
    "util.read_arrays": (lambda tmp: (util.read_arrays, (_written(tmp / "a"), b"XLTT", 1,
                                                         KeyError)), TypeError),
}


def _refused(annotation: str, probe) -> bool:
    """Whether the rule refuses ``probe`` for a parameter annotated ``annotation``."""
    kind, *optional = annotation.split(" | ")
    if probe is None:
        return not optional
    return not {"float": probe in (1.5, 2.0), "str": probe == "x", "bool": probe is True}.get(kind)


def test_every_function_with_a_scalar_parameter_has_one_valid_call():
    functions = {re.sub(r"\(\w+\)$", "", p) for p in PARAMETERS}
    assert sorted(functions - CALLS.keys()) == [], "give each a valid call in CALLS"
    assert sorted(CALLS.keys() - functions) == [], "a listed function is gone"


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_a_wrong_type_raises_the_module_error_naming_the_parameter(parameter, tmp_path):
    function, name = re.fullmatch(r"(.+)\((\w+)\)", parameter).groups()
    assert function in CALLS, f"give {function} a valid call in CALLS"
    make, error = CALLS[function]
    fn, args = make(tmp_path)
    signature = inspect.signature(fn)
    fn(*args)
    match = rf"^{name} must be (an int|a number|a str|a bool), got "
    refused = [p for p in PROBES if _refused(signature.parameters[name].annotation, p)]
    assert refused
    for probe in refused:
        call = signature.bind(*args)
        call.apply_defaults()
        call.arguments[name] = probe
        with pytest.raises(error, match=match) as e:
            fn(*call.args, **call.kwargs)
        assert type(e.value) is error, probe


# wrong types that passed or raised another error before the rule
EXAMPLES = {
    "probs_at step 1.5": (lambda: mixer.probs_at(mixer.parse_policy("90v10"), 1.5, 10),
                          mixer.PolicyError, "step must be an int, got 1.5"),
    "sample_language step True": (lambda: mixer.sample_language(
        mixer.parse_policy("90v10"), True, 10, np.random.default_rng(0)),
        mixer.PolicyError, "step must be an int, got True"),
    "next_batch step 1.5": (lambda: _source().next_batch(1.5, 10), ValueError,
                            "step must be an int, got 1.5"),
    "encode bytes": (lambda: tokenizer.encode(make_vocab(10), b"ab"), tokenizer.TokenizerError,
                     "text must be a str, got b'ab'"),
    "group_of 3": (lambda: model.group_of(3), ValueError, "param_name must be a str, got 3"),
    "mlte '3'": (lambda: scaling.mlte(_fit(), "3"), scaling.FitError,
                 "ppl must be a number, got '3'"),
    "clone_vocab anchor_fraction True": (
        lambda: tokenizer.clone_vocab(make_vocab(10), 2, anchor_fraction=True),
        tokenizer.TokenizerError, "anchor_fraction must be a number, got True"),
    "ingest doc_separator 1": (lambda: corpus.ingest([], doc_separator=1), corpus.CorpusError,
                               "doc_separator must be a str, got 1"),
}


@pytest.mark.parametrize("example", EXAMPLES)
def test_a_named_wrong_type_raises_the_module_error(example):
    run, error, match = EXAMPLES[example]
    with pytest.raises(error, match=re.escape(match)) as e:
        run()
    assert type(e.value) is error


def test_an_argument_reaches_the_function_as_a_python_int_or_float():
    @util.checked_args(KeyError)
    def echo(n: int, x: float, s: str | None = None, *, flag: bool = False):
        return n, x, s, flag

    got = echo(np.int64(3), np.float32(0.5), flag=True)
    assert got == (3, 0.5, None, True) and list(map(type, got[:2])) == [int, float]
    assert type(echo(1, 2)[1]) is float
    for bad, match in [({"x": 10**400}, "x must be a number"),
                       ({"n": np.bool_(True)}, "n must be an int"),
                       ({"s": b"s"}, "s must be a str"), ({"flag": 1}, "flag must be a bool")]:
        with pytest.raises(KeyError, match=match):
            echo(**{"n": 1, "x": 1.0, **bad})
