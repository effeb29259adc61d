"""GPT-2-style decoder-only transformer in numpy, with hand-written
reverse-mode backward passes.

Conventions: pre-norm residual blocks, a final layer norm, learned absolute
positional embeddings, tanh-approximated GELU, weight tying on by default.
Hidden states are captured after every block's residual sum (before the next
norm), plus the embedding output, so a trace has n_layers + 1 entries.

Cross-entropy and the head matmuls take ``vocab_groups`` (an anchor slice
plus one slice per language block); ``None`` means no anchor and one block
over the whole vocabulary. Every reduction over the vocabulary axis is
computed per block and combined in a value-sorted order, which makes training
bit-exactly equivariant under permutations of clone roles; see
:func:`grouped_vocab_reduce`.

Dtype contract: a model computes in ``config.dtype`` end to end. Parameters,
hidden states, layer caches, logits, ``softmax_xent`` outputs and every
gradient of :func:`loss_and_grads` are in that dtype; scalar constants are
Python floats so that NumPy's promotion rules (NEP 50) never widen float32
work. Float64 is used on purpose in three places only:

* :func:`grouped_sumsq`, the sum of squares behind the gradient-clipping norm;
* the log-softmax of :func:`scored_logprobs`, which scores the evaluator's
  sliding windows and :func:`sequence_logprobs`;
* the evaluator's ``fsum`` of the negative log-likelihood.

Checkpoints store every tensor in its own dtype, so a resumed run matches the
uninterrupted one bit for bit in float32 and in float64.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .util import atomic_write

CHECKPOINT_MAGIC = b"XLCK"
CHECKPOINT_VERSION = 2
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
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        for name in ("d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
    for i in range(c.n_layers):
        p = f"layers.{i}."
        shapes[p + "ln1.gain"] = (c.d_model,)
        shapes[p + "ln1.offset"] = (c.d_model,)
        shapes[p + "attn_qkv.weight"] = (c.d_model, 3 * c.d_model)
        shapes[p + "attn_qkv.bias"] = (3 * c.d_model,)
        shapes[p + "attn_proj.weight"] = (c.d_model, c.d_model)
        shapes[p + "attn_proj.bias"] = (c.d_model,)
        shapes[p + "ln2.gain"] = (c.d_model,)
        shapes[p + "ln2.offset"] = (c.d_model,)
        shapes[p + "mlp_fc1.weight"] = (c.d_model, c.d_ff)
        shapes[p + "mlp_fc1.bias"] = (c.d_ff,)
        shapes[p + "mlp_fc2.weight"] = (c.d_ff, c.d_model)
        shapes[p + "mlp_fc2.bias"] = (c.d_model,)
    shapes["final_ln.gain"] = (c.d_model,)
    shapes["final_ln.offset"] = (c.d_model,)
    if not c.tie_embeddings:
        shapes["output_head.weight"] = (c.vocab_size, c.d_model)
    return shapes


def init(config: ModelConfig, seed: int) -> ModelState:
    """Deterministic initialization: N(0, 0.02) for embeddings and weights,
    residual-output projections scaled down by 1/sqrt(2*n_layers), ones for
    norm gains, zeros for biases and offsets."""
    rng = np.random.default_rng(seed)
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


def softmax_xent(
    logits: np.ndarray,
    targets: np.ndarray,
    vocab_groups: VocabGroups | None = None,
):
    """Mean token cross-entropy with max-subtracted softmax.

    Returns (loss, dlogits, per-token log-probabilities). The log-sum-exp
    denominator uses the grouped permutation-exact reduction.
    """
    n, v = logits.shape
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    denom = _reduce_blocks(lambda s: e[:, s].sum(axis=1), _as_groups(vocab_groups, v))
    idx = np.arange(n)
    logp = (logits[idx, targets] - m[:, 0]) - np.log(denom)
    loss = -logp.mean()
    dlogits = e / denom[:, None]
    dlogits[idx, targets] -= 1.0
    dlogits /= n
    return loss, dlogits, logp


def _head_logits(x2d: np.ndarray, w: np.ndarray, vocab_groups: VocabGroups):
    """x2d @ w.T, one GEMM per vocab block, so a block's logits depend only
    on that block's rows (identical GEMM shapes per block)."""
    logits = np.empty((x2d.shape[0], w.shape[0]), dtype=x2d.dtype)
    anchor, blocks = vocab_groups
    for s in (anchor, *blocks):
        logits[:, s] = x2d @ w[s].T
    return logits


def _head_backward(dlogits: np.ndarray, x2d: np.ndarray, w: np.ndarray,
                   vocab_groups: VocabGroups):
    """Gradients through logits = x @ w.T: returns (dx, dw). dw is computed
    block-wise and dx is the permutation-exact sum of the blocks' parts."""
    dw = np.empty_like(w)

    def part(s):
        ds = np.ascontiguousarray(dlogits[:, s])
        dw[s] = ds.T @ x2d
        return ds @ w[s]

    return _reduce_blocks(part, vocab_groups), dw


def grouped_sumsq(a: np.ndarray, vocab_groups: VocabGroups | None) -> float:
    """Sum of squares of a vocab-indexed tensor in float64, permutation-exact
    over the groups (used by global-norm gradient clipping)."""
    a64 = a.astype(np.float64)
    total = _reduce_blocks(lambda s: np.array([(a64[s] ** 2).sum()]),
                           _as_groups(vocab_groups, len(a)))
    return float(total[0])


# ---------------------------------------------------------------------------
# Forward / backward


def _layer_norm(x, gain, offset):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * rstd
    return xhat * gain + offset, (xhat, rstd)


def _layer_norm_backward(dy, cache, gain):
    xhat, rstd = cache
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    doffset = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    dx = rstd * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
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


def _forward_core(state: ModelState, ids: np.ndarray, keep_cache: bool):
    c = state.config
    p = state.params
    ids = np.asarray(ids)
    squeeze = ids.ndim == 1
    ids2 = ids[None] if squeeze else ids
    b, t = ids2.shape
    if t > c.max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {c.max_seq_len}")
    if ids2.size and (ids2.min() < 0 or ids2.max() >= c.vocab_size):
        raise ValueError("token id out of range for the model vocabulary")

    x = p["token_embedding"][ids2] + p["position_embedding"][:t]
    hiddens = [x]
    mask = np.triu(np.full((t, t), -np.inf, dtype=x.dtype), k=1)
    scale = 1.0 / math.sqrt(c.d_model // c.n_heads)  # Python float: see _GELU_C
    caches = []
    for i in range(c.n_layers):
        pre = f"layers.{i}."
        a, ln1_cache = _layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.offset"])
        qkv = a.reshape(b * t, -1) @ p[pre + "attn_qkv.weight"] + p[pre + "attn_qkv.bias"]
        qkv = qkv.reshape(b, t, 3 * c.d_model)
        q, k, v = (
            _split_heads(qkv[..., j * c.d_model : (j + 1) * c.d_model], c.n_heads)
            for j in range(3)
        )
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale + mask
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        att = _merge_heads(np.matmul(probs, v))
        proj = att.reshape(b * t, -1) @ p[pre + "attn_proj.weight"] + p[pre + "attn_proj.bias"]
        x = x + proj.reshape(b, t, c.d_model)
        x_mid = x
        h2, ln2_cache = _layer_norm(x, p[pre + "ln2.gain"], p[pre + "ln2.offset"])
        f1 = h2.reshape(b * t, -1) @ p[pre + "mlp_fc1.weight"] + p[pre + "mlp_fc1.bias"]
        g, tanh_cache = _gelu(f1)
        f2 = g @ p[pre + "mlp_fc2.weight"] + p[pre + "mlp_fc2.bias"]
        x = x + f2.reshape(b, t, c.d_model)
        hiddens.append(x)
        if keep_cache:
            caches.append(
                dict(a=a, ln1=ln1_cache, q=q, k=k, v=v, probs=probs, att=att,
                     x_mid=x_mid, h2=h2, ln2=ln2_cache, f1=f1, g=g, tanh=tanh_cache)
            )
    xf, lnf_cache = _layer_norm(x, p["final_ln.gain"], p["final_ln.offset"])
    cache = dict(
        ids=ids2, hiddens=[h[0] for h in hiddens] if squeeze else hiddens,
        layer_caches=caches, xf=xf, lnf=lnf_cache, b=b, t=t, scale=scale,
    )
    return cache


def forward(state: ModelState, ids: np.ndarray) -> ForwardTrace:
    """Causal logits plus per-layer hidden states (read-only; snapshots of a
    state may be evaluated concurrently)."""
    cache = _forward_core(state, ids, keep_cache=False)
    logits = cache["xf"].reshape(-1, state.config.d_model) @ state.head_weight().T
    return ForwardTrace(logits=logits.reshape(*np.shape(ids), -1), hidden_states=cache["hiddens"])


def hidden_states(state: ModelState, ids: np.ndarray) -> list[np.ndarray]:
    """The hidden states of :func:`forward`, without the head."""
    return _forward_core(state, ids, keep_cache=False)["hiddens"]


def scored_logprobs(state: ModelState, ids: np.ndarray, lo, hi) -> np.ndarray:
    """log p(ids[r, j+1] | ids[r, :j+1]) in float64 for j in [lo[r], hi[r]), row
    r after row r of a (k, t) stack (a scalar bound holds for every row). Only
    these rows reach the float64 log-softmax; the head GEMM covers every row,
    as a BLAS may round a row differently in a GEMM over fewer rows."""
    ids2 = np.atleast_2d(ids)
    k, t = ids2.shape
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    if np.any(lo < 0) or np.any(hi > t - 1):
        raise ValueError(f"scored positions must lie in [0, {t - 1}) for sequences of {t}")
    j = np.arange(t)
    rows = np.flatnonzero(np.broadcast_to((j >= lo) & (j < hi), (k, t)))
    logits = forward(state, ids2).logits.reshape(k * t, -1)[rows].astype(np.float64)
    m = logits.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=-1))
    picked = logits[np.arange(len(rows)), ids2.reshape(-1)[rows + 1]]
    return picked - lse


def sequence_logprobs(state: ModelState, ids: np.ndarray) -> np.ndarray:
    """log p(ids[..., t+1] | ids[..., :t+1]) in float64 for every next-token
    position of a (t,) sequence or a (k, t) stack of sequences; the result is
    (t-1,) or (k, t-1)."""
    *k, t = np.shape(ids)
    return scored_logprobs(state, ids, 0, t - 1).reshape(*k, t - 1)


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
    ids = np.asarray(ids)
    targets = np.asarray(targets)
    if ids.shape != targets.shape:
        raise ValueError(f"ids shape {ids.shape} != targets shape {targets.shape}")
    groups = _as_groups(vocab_groups, c.vocab_size)
    cache = _forward_core(state, ids, keep_cache=True)
    b, t = cache["b"], cache["t"]
    xf2 = cache["xf"].reshape(b * t, c.d_model)
    w = state.head_weight()
    logits = _head_logits(xf2, w, groups)
    loss, dlogits, _ = softmax_xent(logits, targets.reshape(-1), groups)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss!r} (batch {b}x{t})")

    grads: dict[str, np.ndarray] = {}
    dxf2, dw_head = _head_backward(dlogits, xf2, w, groups)
    grads["token_embedding" if c.tie_embeddings else "output_head.weight"] = dw_head

    dx, grads["final_ln.gain"], grads["final_ln.offset"] = _layer_norm_backward(
        dxf2.reshape(b, t, c.d_model), cache["lnf"], p["final_ln.gain"]
    )

    for i in reversed(range(c.n_layers)):
        pre = f"layers.{i}."
        lc = cache["layer_caches"][i]
        # MLP branch
        df2 = dx.reshape(b * t, c.d_model)
        grads[pre + "mlp_fc2.weight"] = lc["g"].T @ df2
        grads[pre + "mlp_fc2.bias"] = df2.sum(axis=0)
        dg_ = df2 @ p[pre + "mlp_fc2.weight"].T
        df1 = _gelu_backward(dg_, lc["f1"], lc["tanh"])
        h2_2d = lc["h2"].reshape(b * t, c.d_model)
        grads[pre + "mlp_fc1.weight"] = h2_2d.T @ df1
        grads[pre + "mlp_fc1.bias"] = df1.sum(axis=0)
        dh2 = (df1 @ p[pre + "mlp_fc1.weight"].T).reshape(b, t, c.d_model)
        dx_mid, grads[pre + "ln2.gain"], grads[pre + "ln2.offset"] = _layer_norm_backward(
            dh2, lc["ln2"], p[pre + "ln2.gain"]
        )
        dx = dx + dx_mid  # residual

        # attention branch
        dproj = dx.reshape(b * t, c.d_model)
        att2d = lc["att"].reshape(b * t, c.d_model)
        grads[pre + "attn_proj.weight"] = att2d.T @ dproj
        grads[pre + "attn_proj.bias"] = dproj.sum(axis=0)
        datt = (dproj @ p[pre + "attn_proj.weight"].T).reshape(b, t, c.d_model)
        datt_h = _split_heads(datt, c.n_heads)
        probs, q, k, v = lc["probs"], lc["q"], lc["k"], lc["v"]
        dprobs = np.matmul(datt_h, v.transpose(0, 1, 3, 2))
        dv = np.matmul(probs.transpose(0, 1, 3, 2), datt_h)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = np.matmul(dscores, k) * cache["scale"]
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), q) * cache["scale"]
        dqkv = np.concatenate(
            [_merge_heads(dq), _merge_heads(dk), _merge_heads(dv)], axis=-1
        ).reshape(b * t, 3 * c.d_model)
        a2d = lc["a"].reshape(b * t, c.d_model)
        grads[pre + "attn_qkv.weight"] = a2d.T @ dqkv
        grads[pre + "attn_qkv.bias"] = dqkv.sum(axis=0)
        da = (dqkv @ p[pre + "attn_qkv.weight"].T).reshape(b, t, c.d_model)
        dx_in, grads[pre + "ln1.gain"], grads[pre + "ln1.offset"] = _layer_norm_backward(
            da, lc["ln1"], p[pre + "ln1.gain"]
        )
        dx = dx + dx_in  # residual

    # the rows that no position or id of this batch touches stay zero
    grads["position_embedding"] = np.zeros_like(p["position_embedding"])
    grads["position_embedding"][:t] += dx.sum(axis=0)
    if not c.tie_embeddings:
        grads["token_embedding"] = np.zeros_like(p["token_embedding"])
    np.add.at(grads["token_embedding"], cache["ids"].reshape(-1), dx.reshape(-1, c.d_model))
    return float(loss), {name: grads[name] for name in p}


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, header JSON, then the named tensors, each in
# its own dtype, little-endian. The header records every tensor's name, shape
# and dtype, and the SHA-256 of the payload.


def save_checkpoint(
    path: str | Path,
    state: ModelState,
    step: int,
    opt_tensors: dict[str, np.ndarray] | None = None,
    extra: dict | None = None,
) -> None:
    """Write the parameters, then the optimizer tensors, so that
    load_checkpoint returns them bit for bit and in the same dtypes. The write
    is atomic (:func:`~xlab.util.atomic_write`)."""
    tensors = [(n, state.params[n]) for n in _param_shapes(state.config)]
    if opt_tensors:
        tensors += [(n, opt_tensors[n]) for n in sorted(opt_tensors)]
    arrays = [np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")) for _, a in tensors]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    header = {
        "config": state.config.to_dict(),
        "step": step,
        "extra": extra or {},
        "tensors": [[n, list(a.shape), a.dtype.str] for (n, _), a in zip(tensors, arrays)],
        "payload_sha256": digest.hexdigest(),
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<BI", CHECKPOINT_VERSION, len(raw)))
        f.write(raw)
        for a in arrays:
            f.write(a)


# other header fields are ignored, so headers that still carry n_params and
# config_digest load
_HEADER_FIELDS = ("config", "payload_sha256", "step", "tensors")


def _parse_header(raw: bytes, path) -> tuple[dict, ModelConfig, list, int]:
    """Decode and validate a checkpoint header; returns (header, config,
    [(name, shape, dtype)], n_params). The first n_params entries must be
    the config's parameters, in order and in the config's dtype; the rest are
    optimizer tensors."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as e:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from e
    missing = [k for k in _HEADER_FIELDS if not isinstance(header, dict) or k not in header]
    if missing:
        raise CheckpointError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    try:
        config = ModelConfig.from_dict(header["config"])
        specs = [(str(n), tuple(int(d) for d in shape), np.dtype(dt))
                 for n, shape, dt in header["tensors"]]
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad checkpoint header ({e})") from e
    if type(header["step"]) is not int or header["step"] < 0:
        raise CheckpointError(f"{path}: checkpoint step {header['step']!r} is not a step count")
    expected = [(n, shape, config.np_dtype) for n, shape in _param_shapes(config).items()]
    n_params = len(expected)
    if specs[:n_params] != expected:
        raise CheckpointError(f"{path}: parameter tensors do not match the model config")
    for name, shape, dt in specs[n_params:]:
        if dt.kind != "f" or min(shape, default=0) < 0:
            raise CheckpointError(f"{path}: tensor {name} has bad shape or dtype")
    return header, config, specs, n_params


def load_checkpoint(path: str | Path):
    """Returns (state, step, opt_tensors, extra), every tensor in
    the dtype it was saved in. Raises CheckpointError, and loads nothing, on a
    bad magic, version, header or payload digest."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
        prefix = f.read(5)
        if len(prefix) != 5:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<BI", prefix)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version} "
                f"(this xlab reads version {CHECKPOINT_VERSION})"
            )
        header, config, specs, n_params = _parse_header(f.read(hlen), path)
        digest = hashlib.sha256()
        tensors: dict[str, np.ndarray] = {}
        for name, shape, dt in specs:
            buf = bytearray(dt.itemsize * math.prod(shape))
            if f.readinto(buf) != len(buf):
                raise CheckpointError(f"{path}: checkpoint payload truncated at {name}")
            digest.update(buf)
            tensors[name] = np.frombuffer(buf, dtype=dt).reshape(shape)
        if f.read(1) or digest.hexdigest() != header["payload_sha256"]:
            raise CheckpointError(f"{path}: checkpoint payload digest mismatch")
    state = ModelState(config=config, params={n: tensors[n] for n, _, _ in specs[:n_params]})
    opt = {n: tensors[n] for n, _, _ in specs[n_params:]}
    return state, header["step"], opt, header.get("extra", {})
