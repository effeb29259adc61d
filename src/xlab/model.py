"""GPT-2-style decoder-only transformer in numpy, with hand-written
reverse-mode backward passes.

Conventions: pre-norm residual blocks, a final layer norm, learned absolute
positional embeddings, tanh-approximated GELU, weight tying on by default.
Hidden states are captured after every block's residual sum (before the next
norm), plus the embedding output, so a trace has n_layers + 1 entries.

Each block component is one module-level pair, ``_linear``, ``_attention``,
``_layer_norm`` or ``_gelu`` and its ``_backward``; ``_block`` and
``_block_backward`` are built from them and take a layer's parameters under
their short names (``ln1.gain``, ...). Forward and backward passes call them
once per layer by module-global name, so a tracer that rebinds
``model._attention`` or any other pair sees every call.

Training and evaluation share the head, :func:`_head_logits`, and the
log-softmax, :func:`_log_softmax_at`, which take ``vocab_groups`` (an anchor
slice plus one slice per language block; ``None`` means one block). Every
reduction over the vocabulary axis is computed per block and combined in a
value-sorted order, which makes the loss, the gradients and every scored
log-probability bit-exactly equivariant under permutations of clone roles; see
:func:`grouped_vocab_reduce`.

Dtype contract: a model computes in ``config.dtype`` end to end. Parameters,
hidden states, layer caches, logits, ``softmax_xent`` outputs and every
gradient of :func:`loss_and_grads` are in that dtype; scalar constants are
Python floats so that NumPy's promotion rules (NEP 50) never widen float32
work. Float64 is used on purpose in three places only:

* :func:`grouped_sumsq`, the sum of squares behind the gradient-clipping norm;
* the scored rows of :func:`scored_logprobs` (the evaluator's sliding windows
  and :func:`sequence_logprobs`), cast to float64 before the log-softmax;
* the evaluator's ``fsum`` of the negative log-likelihood.

The training step allocates what it keeps: one (n, V) logits buffer becomes
``dlogits`` in place, and layer norm, attention and GELU work in place, each in
the operation order of the expression it computes, so bitwise.

Checkpoints store every tensor in its own dtype, so a resumed run matches the
uninterrupted one bit for bit in float32 and in float64.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .util import (check_fields, checked_args, checked_ids, from_fields, read_arrays, seeded_rng,
                   write_arrays)

CHECKPOINT_MAGIC = b"XLCK"
CHECKPOINT_VERSION = 3
LN_EPS = 1e-5

# one anchor slice + one slice per language over the final id space
VocabGroups = tuple[slice, list[slice]]


class NumericError(FloatingPointError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab_size: int
    max_seq_len: int
    tie_embeddings: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.n_layers < 0 or min(self.d_model, self.n_heads, self.d_ff, self.vocab_size,
                                    self.max_seq_len) < 1:
            raise ValueError(f"need n_layers >= 0 and every other size >= 1: {self}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


@checked_args(ValueError)
def group_of(param_name: str) -> str:
    """Component group a parameter belongs to (e.g. layers.0.attn_qkv)."""
    if param_name in ("token_embedding", "position_embedding"):
        return param_name
    return param_name.rsplit(".", 1)[0]


@dataclass
class ModelState:
    """Named parameter tensors for one model; single-writer, snapshot to share."""

    config: ModelConfig
    params: dict[str, np.ndarray]

    def copy(self) -> "ModelState":
        return ModelState(self.config, {k: v.copy() for k, v in self.params.items()})

    def head_weight(self) -> np.ndarray:
        if self.config.tie_embeddings:
            return self.params["token_embedding"]
        return self.params["output_head.weight"]


@dataclass
class ForwardTrace:
    logits: np.ndarray  # (..., seq, vocab)
    hidden_states: list[np.ndarray]  # n_layers + 1 entries of (..., seq, d_model)


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    c = config
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (c.vocab_size, c.d_model),
        "position_embedding": (c.max_seq_len, c.d_model),
    }
    d, f = c.d_model, c.d_ff
    block = {  # one block's parameters under their short names
        "ln1.gain": (d,), "ln1.offset": (d,),
        "attn_qkv.weight": (d, 3 * d), "attn_qkv.bias": (3 * d,),
        "attn_proj.weight": (d, d), "attn_proj.bias": (d,),
        "ln2.gain": (d,), "ln2.offset": (d,),
        "mlp_fc1.weight": (d, f), "mlp_fc1.bias": (f,),
        "mlp_fc2.weight": (f, d), "mlp_fc2.bias": (d,),
    }
    for i in range(c.n_layers):
        shapes.update({f"layers.{i}.{k}": s for k, s in block.items()})
    shapes["final_ln.gain"] = (c.d_model,)
    shapes["final_ln.offset"] = (c.d_model,)
    if not c.tie_embeddings:
        shapes["output_head.weight"] = (c.vocab_size, c.d_model)
    return shapes


def _layer_params(params: dict[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    """Layer ``i``'s parameters under their short names (``ln1.gain``, ...)."""
    pre = f"layers.{i}."
    return {k[len(pre):]: v for k, v in params.items() if k.startswith(pre)}


@checked_args(ValueError)
def init(config: ModelConfig, seed: int) -> ModelState:
    """Deterministic initialization: N(0, 0.02) for embeddings and weights,
    residual-output projections scaled down by 1/sqrt(2*n_layers), ones for
    norm gains, zeros for biases and offsets. ``seed`` is at least 0; ValueError
    otherwise."""
    rng = seeded_rng(seed, ValueError)
    dt = config.np_dtype
    resid_scale = 1.0 / np.sqrt(max(1, 2 * config.n_layers))
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            params[name] = np.ones(shape, dtype=dt)
        elif leaf in ("offset", "bias"):
            params[name] = np.zeros(shape, dtype=dt)
        else:
            std = 0.02
            if name.endswith(("attn_proj.weight", "mlp_fc2.weight")):
                std *= resid_scale
            params[name] = (rng.standard_normal(shape) * std).astype(dt)
    return ModelState(config=config, params=params)


# ---------------------------------------------------------------------------
# Permutation-exact grouped reductions over the vocabulary axis


def _as_groups(vocab_groups: VocabGroups | None, size: int) -> VocabGroups:
    """``None`` is the one-block grouping: no anchor, one block of ``size``."""
    return vocab_groups or (slice(0, 0), [slice(0, size)])


def grouped_vocab_reduce(parts_by_group: list[np.ndarray], anchor_part: np.ndarray | None):
    """Combine per-language partial results into a total that is bit-exactly
    invariant under any permutation of the language blocks.

    The per-language partials are sorted element-wise before pairwise
    summation (equal arrays in a different block order sort identically), and
    the anchor partial, which permutations never move, is added last.
    """
    if len(parts_by_group) == 1:
        total = parts_by_group[0]
    elif len(parts_by_group) == 2:
        # bitwise the sorted sum (numpy's +0.0 + min + max): addition commutes
        total = parts_by_group[0] + parts_by_group[1] + 0.0
    else:
        total = np.sort(np.stack(parts_by_group, axis=0), axis=0).sum(axis=0)
    if anchor_part is not None:
        total = total + anchor_part
    return total


def _reduce_blocks(part, vocab_groups: VocabGroups):
    """``part(s)`` of the anchor and of every language block, combined by
    :func:`grouped_vocab_reduce`; an empty anchor contributes nothing."""
    anchor, blocks = vocab_groups
    anchor_part = part(anchor) if anchor.stop > anchor.start else None
    return grouped_vocab_reduce([part(b) for b in blocks], anchor_part)


def _log_softmax_at(logits: np.ndarray, targets: np.ndarray, vocab_groups: VocabGroups | None):
    """Each row's log-softmax at its target, and the row's denominator. The row
    max is subtracted and the rows exponentiated in ``logits``, in place; the
    denominator is the grouped permutation-exact sum of :func:`_reduce_blocks`."""
    picked = logits[np.arange(len(targets)), targets]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(np.subtract(logits, m, out=logits), out=logits)
    denom = _reduce_blocks(lambda s: e[:, s].sum(axis=1), _as_groups(vocab_groups, e.shape[1]))
    return (picked - m[:, 0]) - np.log(denom), denom


def softmax_xent(
    logits: np.ndarray,
    targets: np.ndarray,
    vocab_groups: VocabGroups | None = None,
):
    """Mean token cross-entropy with max-subtracted softmax.

    Returns (loss, dlogits, per-token log-probabilities), the log-probabilities
    from :func:`_log_softmax_at`. The (n, V) ``logits`` buffer is consumed:
    ``dlogits`` is computed in it, in place.
    """
    logp, denom = _log_softmax_at(logits, targets, vocab_groups)
    loss = -logp.mean()
    logits /= denom[:, None]
    logits[np.arange(len(logits)), targets] -= 1.0
    logits /= len(logits)
    return loss, logits, logp


def _head_logits(x2d: np.ndarray, w: np.ndarray, vocab_groups: VocabGroups | None):
    """x2d @ w.T, one GEMM per vocab block, so a block's logits depend only
    on that block's rows (identical GEMM shapes per block)."""
    logits = np.empty((x2d.shape[0], w.shape[0]), dtype=x2d.dtype)
    anchor, blocks = _as_groups(vocab_groups, len(w))
    for s in (anchor, *blocks):
        np.matmul(x2d, w[s].T, out=logits[:, s])
    return logits


def _head_backward(dlogits: np.ndarray, x2d: np.ndarray, w: np.ndarray,
                   vocab_groups: VocabGroups):
    """Gradients through logits = x @ w.T: returns (dx, dw). dw is computed
    block-wise and dx is the permutation-exact sum of the blocks' parts."""
    dw = np.empty_like(w)

    def part(s):
        np.matmul(dlogits[:, s].T, x2d, out=dw[s])
        return dlogits[:, s] @ w[s]

    return _reduce_blocks(part, vocab_groups), dw


def grouped_sumsq(a: np.ndarray, vocab_groups: VocabGroups | None) -> float:
    """Sum of squares of a vocab-indexed tensor in float64, permutation-exact
    over the groups (used by global-norm gradient clipping)."""
    a64 = np.square(a, dtype=np.float64)
    total = _reduce_blocks(lambda s: np.array([a64[s].sum()]),
                           _as_groups(vocab_groups, len(a)))
    return float(total[0])


# ---------------------------------------------------------------------------
# Forward / backward


def _layer_norm(x, gain, offset):
    """``xhat * gain + offset`` with ``xhat = (x - mu) * rstd``, ``rstd = 1.0 /
    sqrt(mean((x - mu) ** 2) + LN_EPS)``, in place in that order; writes no input."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = xhat * xhat
    rstd = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= rstd
    return np.add(np.multiply(xhat, gain, out=y), offset, out=y), (xhat, rstd)


def _layer_norm_backward(dy, cache, gain):
    """``dx = rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))`` with
    ``dxhat = dy * gain``, in place in that order; writes no input."""
    xhat, rstd = cache
    dxhat = dy * xhat
    dgain = dxhat.sum(axis=tuple(range(dy.ndim - 1)))
    doffset = dy.sum(axis=tuple(range(dy.ndim - 1)))
    np.multiply(dy, gain, out=dxhat)
    dx = dxhat * xhat
    np.multiply(xhat, dx.mean(axis=-1, keepdims=True), out=dx)
    dxhat -= dxhat.mean(axis=-1, keepdims=True)
    np.subtract(dxhat, dx, out=dx)
    dx *= rstd
    return dx, dgain, doffset


# Python floats, not NumPy scalars: under NEP 50 a Python float takes the
# array's dtype, where an np.float64 would promote float32 work to float64.
_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(x):
    """``0.5 * x * (1.0 + t)`` and ``t = tanh(_GELU_C * (x + 0.044715 * (x * x * x)))``,
    computed in place in that operation order, so bitwise; ``x`` is not written."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * x
    y *= 1.0 + t
    return y, t


def _gelu_backward(dy, x, t):
    """``dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)`` with ``du = _GELU_C
    * (1.0 + 3 * 0.044715 * x * x)``, in place in that order; writes no input."""
    du = 3 * 0.044715 * x
    du *= x
    du += 1.0
    du *= _GELU_C
    s = t * t
    g = 0.5 * x
    g *= np.subtract(1.0, s, out=s)
    g *= du
    np.add(1.0, t, out=s)
    s *= 0.5
    s += g
    s *= dy
    return s


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _linear(x, w, bias):
    """``x @ w + bias`` as one GEMM over the rows of every leading axis."""
    return (x.reshape(-1, x.shape[-1]) @ w + bias).reshape(*x.shape[:-1], w.shape[1])


def _linear_backward(dy, x, w):
    """Gradients through :func:`_linear`: returns (dx, dw, dbias)."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    return (dy2 @ w.T).reshape(x.shape), x.reshape(-1, x.shape[-1]).T @ dy2, dy2.sum(axis=0)


def _attention(qkv, n_heads):
    """Causal softmax attention over the packed ``(b, t, 3d)`` q, k, v; returns
    the ``(b, t, d)`` output and the cache (q, k, v, probs). The scores are
    scaled, masked, max-subtracted, exponentiated and normalised in place."""
    t, d = qkv.shape[1], qkv.shape[2] // 3
    q, k, v = (_split_heads(qkv[..., j * d : (j + 1) * d], n_heads) for j in range(3))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores *= 1.0 / math.sqrt(d // n_heads)  # Python float: see _GELU_C
    scores += np.triu(np.full((t, t), -np.inf, dtype=qkv.dtype), k=1)
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return _merge_heads(np.matmul(probs, v)), (q, k, v, probs)


def _attention_backward(datt, cache):
    """Gradient through :func:`_attention`: the packed ``(b, t, 3d)`` dqkv, with
    ``dscores = probs * (dprobs - sum(dprobs * probs))`` in place; writes no input."""
    q, k, v, probs = cache
    scale = 1.0 / math.sqrt(q.shape[-1])
    datt_h = _split_heads(datt, q.shape[1])
    dprobs = np.matmul(datt_h, v.transpose(0, 1, 3, 2))
    dv = np.matmul(probs.transpose(0, 1, 3, 2), datt_h)
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dscores = np.multiply(probs, dprobs, out=dprobs)
    dq, dk = np.matmul(dscores, k), np.matmul(dscores.transpose(0, 1, 3, 2), q)
    dq *= scale
    dk *= scale
    return np.concatenate([_merge_heads(dq), _merge_heads(dk), _merge_heads(dv)], axis=-1)


def _block(x, p, n_heads):
    """One pre-norm residual block, ``x + attention(ln1(x))`` and then ``+
    mlp(ln2(.))``, with ``p`` the layer's parameters under their short names.
    Returns the block output and the cache of :func:`_block_backward`."""
    a, ln1 = _layer_norm(x, p["ln1.gain"], p["ln1.offset"])
    att, attn = _attention(_linear(a, p["attn_qkv.weight"], p["attn_qkv.bias"]), n_heads)
    x = x + _linear(att, p["attn_proj.weight"], p["attn_proj.bias"])
    h2, ln2 = _layer_norm(x, p["ln2.gain"], p["ln2.offset"])
    f1 = _linear(h2, p["mlp_fc1.weight"], p["mlp_fc1.bias"])
    g, tanh = _gelu(f1)
    x = x + _linear(g, p["mlp_fc2.weight"], p["mlp_fc2.bias"])
    return x, (a, ln1, att, attn, h2, ln2, f1, g, tanh)


def _block_backward(dy, cache, p):
    """Gradient through :func:`_block`: returns dx and the layer's parameter
    gradients under their short names. The residual sums are added into ``dy``,
    in place, so ``dx`` is ``dy``."""
    a, ln1, att, attn, h2, ln2, f1, g, tanh = cache
    grads = {}
    dg, grads["mlp_fc2.weight"], grads["mlp_fc2.bias"] = _linear_backward(
        dy, g, p["mlp_fc2.weight"])
    dh2, grads["mlp_fc1.weight"], grads["mlp_fc1.bias"] = _linear_backward(
        _gelu_backward(dg, f1, tanh), h2, p["mlp_fc1.weight"])
    dx, grads["ln2.gain"], grads["ln2.offset"] = _layer_norm_backward(dh2, ln2, p["ln2.gain"])
    dy += dx  # residual
    datt, grads["attn_proj.weight"], grads["attn_proj.bias"] = _linear_backward(
        dy, att, p["attn_proj.weight"])
    da, grads["attn_qkv.weight"], grads["attn_qkv.bias"] = _linear_backward(
        _attention_backward(datt, attn), a, p["attn_qkv.weight"])
    dx, grads["ln1.gain"], grads["ln1.offset"] = _layer_norm_backward(da, ln1, p["ln1.gain"])
    dy += dx  # residual
    return dy, grads


def _forward_core(state: ModelState, ids: np.ndarray, keep_cache: bool):
    c = state.config
    p = state.params
    ids = checked_ids(ids, c.vocab_size, ValueError, "token ids", " of the model vocabulary")
    squeeze = ids.ndim == 1
    ids2 = ids[None] if squeeze else ids
    t = ids2.shape[1]
    if t > c.max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {c.max_seq_len}")

    x = p["token_embedding"][ids2] + p["position_embedding"][:t]
    hiddens = [x]
    caches = []
    for i in range(c.n_layers):
        x, cache = _block(x, _layer_params(p, i), c.n_heads)
        hiddens.append(x)
        if keep_cache:
            caches.append(cache)
        del cache  # else a cache not kept lives through the next block
    xf, lnf_cache = _layer_norm(x, p["final_ln.gain"], p["final_ln.offset"])
    return dict(ids=ids2, hiddens=[h[0] for h in hiddens] if squeeze else hiddens,
                layer_caches=caches, xf=xf, lnf=lnf_cache)


def forward(state: ModelState, ids: np.ndarray,
            vocab_groups: VocabGroups | None = None) -> ForwardTrace:
    """Causal logits from the head of :func:`loss_and_grads`, plus per-layer hidden
    states (read-only; snapshots of a state may be evaluated concurrently)."""
    cache = _forward_core(state, ids, keep_cache=False)
    xf2 = cache["xf"].reshape(-1, state.config.d_model)
    logits = _head_logits(xf2, state.head_weight(), vocab_groups)
    return ForwardTrace(logits=logits.reshape(*np.shape(ids), -1), hidden_states=cache["hiddens"])


def hidden_states(state: ModelState, ids: np.ndarray) -> list[np.ndarray]:
    """The hidden states of :func:`forward`, without the head."""
    return _forward_core(state, ids, keep_cache=False)["hiddens"]


def scored_logprobs(state: ModelState, ids: np.ndarray, lo, hi,
                    vocab_groups: VocabGroups | None = None) -> np.ndarray:
    """log p(ids[r, j+1] | ids[r, :j+1]) in float64 for j in [lo[r], hi[r]), row
    r after row r of a (k, t) stack (a scalar bound holds for every row). Only
    these rows reach the log-softmax of training, in float64; the head GEMM covers
    every row, as a BLAS may round a row differently in a GEMM over fewer rows.
    Under a clone layout's ``vocab_groups``, clones score bitwise alike."""
    ids2 = np.atleast_2d(ids)
    k, t = ids2.shape
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    if np.any(lo < 0) or np.any(hi > t - 1):
        raise ValueError(f"scored positions must lie in [0, {t - 1}) for sequences of {t}")
    j = np.arange(t)
    rows = np.flatnonzero(np.broadcast_to((j >= lo) & (j < hi), (k, t)))
    logits = forward(state, ids2, vocab_groups).logits.reshape(k * t, -1)[rows]
    targets = ids2.reshape(-1)[rows + 1]
    return _log_softmax_at(logits.astype(np.float64, copy=False), targets, vocab_groups)[0]


def sequence_logprobs(state: ModelState, ids: np.ndarray,
                      vocab_groups: VocabGroups | None = None) -> np.ndarray:
    """log p(ids[..., t+1] | ids[..., :t+1]) in float64 for every next-token
    position of a (t,) sequence or a (k, t) stack of sequences; the result is
    (t-1,) or (k, t-1)."""
    *k, t = np.shape(ids)
    return scored_logprobs(state, ids, 0, t - 1, vocab_groups).reshape(*k, t - 1)


def loss_and_grads(
    state: ModelState,
    ids: np.ndarray,
    targets: np.ndarray,
    vocab_groups: VocabGroups | None = None,
):
    """Mean token-level cross-entropy and gradients for every parameter.

    ``ids`` and ``targets`` are (batch, seq) or (seq,) and must have equal
    shape. Every gradient is a new array, keyed in parameter order. Raises
    NumericError on a non-finite loss.
    """
    c = state.config
    p = state.params
    targets = checked_ids(targets, c.vocab_size, ValueError, "targets", " of the model vocabulary")
    if np.shape(ids) != targets.shape:
        raise ValueError(f"ids shape {np.shape(ids)} != targets shape {targets.shape}")
    groups = _as_groups(vocab_groups, c.vocab_size)
    cache = _forward_core(state, ids, keep_cache=True)
    b, t = cache["ids"].shape
    xf2 = cache["xf"].reshape(b * t, c.d_model)
    w = state.head_weight()
    logits = _head_logits(xf2, w, groups)
    loss, dlogits, _ = softmax_xent(logits, targets.reshape(-1), groups)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss!r} (batch {b}x{t})")

    grads: dict[str, np.ndarray] = {}
    dxf2, dw_head = _head_backward(dlogits, xf2, w, groups)
    del logits, dlogits  # one buffer, (n, V): free it before the layer backward
    grads["token_embedding" if c.tie_embeddings else "output_head.weight"] = dw_head

    dx, grads["final_ln.gain"], grads["final_ln.offset"] = _layer_norm_backward(
        dxf2.reshape(b, t, c.d_model), cache["lnf"], p["final_ln.gain"]
    )
    for i in reversed(range(c.n_layers)):  # popped: a cache dies after its backward
        dx, layer_grads = _block_backward(dx, cache["layer_caches"].pop(), _layer_params(p, i))
        grads.update((f"layers.{i}.{k}", g) for k, g in layer_grads.items())

    # the rows that no position or id of this batch touches stay zero
    grads["position_embedding"] = np.zeros_like(p["position_embedding"])
    grads["position_embedding"][:t] += dx.sum(axis=0)
    if not c.tie_embeddings:
        grads["token_embedding"] = np.zeros_like(p["token_embedding"])
    np.add.at(grads["token_embedding"], cache["ids"].reshape(-1), dx.reshape(-1, c.d_model))
    return float(loss), {name: grads[name] for name in p}


# ---------------------------------------------------------------------------
# Checkpoints: config, step and extra in the header of an array file
# (:func:`~xlab.util.write_arrays`), the parameters, then the optimizer tensors.


@checked_args(CheckpointError)
def save_checkpoint(
    path: str | Path,
    state: ModelState,
    step: int,
    opt_tensors: dict[str, np.ndarray] | None = None,
    extra: dict | None = None,
) -> None:
    """Write the parameters, then the optimizer tensors, so that
    load_checkpoint returns them bit for bit and in the same dtypes. The write
    is atomic (:func:`~xlab.util.write_arrays`); CheckpointError, before anything
    is written, for a negative ``step``."""
    if step < 0:
        raise CheckpointError(f"step must be >= 0, got {step}")
    tensors = {n: state.params[n] for n in _param_shapes(state.config)}
    tensors.update((n, opt_tensors[n]) for n in sorted(opt_tensors or ()))
    header = {"config": asdict(state.config), "step": step, "extra": extra or {}}
    write_arrays(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, tensors)


def load_checkpoint(path: str | Path):
    """Returns (state, step, opt_tensors, extra), every tensor in the dtype it
    was saved in; the header holds the model ``config``, the ``step`` and the
    caller's ``extra``. Raises CheckpointError, and loads nothing, on a bad file
    or header."""
    header, tensors = read_arrays(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError)
    config = from_fields(ModelConfig, header.get("config"), CheckpointError, f"{path}: config: ")
    step = header.get("step")
    if type(step) is not int or step < 0:
        raise CheckpointError(f"{path}: checkpoint step {step!r} is not a step count")
    shapes = _param_shapes(config)  # the parameters, in order and in the config dtype, lead
    if ([(n, a.shape, a.dtype) for n, a in list(tensors.items())[:len(shapes)]]
            != [(n, shape, config.np_dtype) for n, shape in shapes.items()]):
        raise CheckpointError(f"{path}: parameter tensors do not match the model config")
    params = {n: tensors.pop(n) for n in shapes}
    if any(a.dtype.kind != "f" for a in tensors.values()):
        raise CheckpointError(f"{path}: optimizer tensors must be floating point")
    return ModelState(config=config, params=params), step, tensors, header.get("extra", {})
