import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from xlab import model, util

from conftest import edit_array_file, make_model


def cleanroom_forward(state: model.ModelState, ids: np.ndarray) -> np.ndarray:
    """Independent straight-line forward pass written directly from the block
    equations (per-head loops, no shared helpers); float64."""
    cfg = state.config
    p = {k: v.astype(np.float64) for k, v in state.params.items()}
    T = len(ids)
    d, H = cfg.d_model, cfg.n_heads
    hd = d // H

    def ln(x, g, b):
        out = np.empty_like(x)
        for t in range(x.shape[0]):
            mu = x[t].mean()
            var = ((x[t] - mu) ** 2).mean()
            out[t] = (x[t] - mu) / math.sqrt(var + 1e-5) * g + b
        return out

    def gelu(v):
        return 0.5 * v * (1 + np.tanh(math.sqrt(2 / math.pi) * (v + 0.044715 * v**3)))

    x = np.array([p["token_embedding"][i] + p["position_embedding"][t] for t, i in enumerate(ids)])
    for l in range(cfg.n_layers):
        pre = f"layers.{l}."
        a = ln(x, p[pre + "ln1.gain"], p[pre + "ln1.offset"])
        qkv = a @ p[pre + "attn_qkv.weight"] + p[pre + "attn_qkv.bias"]
        q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]
        att_out = np.zeros((T, d))
        for h in range(H):
            qh = q[:, h * hd : (h + 1) * hd]
            kh = k[:, h * hd : (h + 1) * hd]
            vh = v[:, h * hd : (h + 1) * hd]
            for t in range(T):
                scores = np.array([qh[t] @ kh[j] / math.sqrt(hd) for j in range(t + 1)])
                w = np.exp(scores - scores.max())
                w /= w.sum()
                att_out[t, h * hd : (h + 1) * hd] = sum(w[j] * vh[j] for j in range(t + 1))
        x = x + att_out @ p[pre + "attn_proj.weight"] + p[pre + "attn_proj.bias"]
        h2 = ln(x, p[pre + "ln2.gain"], p[pre + "ln2.offset"])
        f = gelu(h2 @ p[pre + "mlp_fc1.weight"] + p[pre + "mlp_fc1.bias"])
        x = x + f @ p[pre + "mlp_fc2.weight"] + p[pre + "mlp_fc2.bias"]
    xf = ln(x, p["final_ln.gain"], p["final_ln.offset"])
    w = p["token_embedding"] if cfg.tie_embeddings else p["output_head.weight"]
    return xf @ w.T


def test_init_deterministic():
    a = make_model(seed=42)
    b = make_model(seed=42)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_init_tied_head_aliases_embedding():
    st = make_model(tie_embeddings=True)
    assert st.head_weight() is st.params["token_embedding"]
    st2 = make_model(tie_embeddings=False)
    assert st2.head_weight() is st2.params["output_head.weight"]


def test_init_embedding_std():
    st = make_model(vocab_size=200, d_model=768, n_layers=0, n_heads=1, d_ff=8)
    emb = st.params["token_embedding"]
    assert emb.size >= 1e5
    assert abs(emb.std() - 0.02) / 0.02 < 0.05


def test_causality():
    st = make_model(seed=3)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 23, size=10)
    logits_full = model.forward(st, ids).logits
    ids2 = ids.copy()
    ids2[7:] = (ids2[7:] + 5) % 23
    logits_cut = model.forward(st, ids2).logits
    assert np.array_equal(logits_full[:7], logits_cut[:7])
    assert not np.array_equal(logits_full[7:], logits_cut[7:])


def test_zero_layer_logits():
    st = make_model(n_layers=0, seed=1)
    ids = np.arange(5)
    got = model.forward(st, ids).logits
    x = st.params["token_embedding"][ids] + st.params["position_embedding"][:5]
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    xf = (x - mu) / np.sqrt(var + 1e-5) * st.params["final_ln.gain"] + st.params["final_ln.offset"]
    assert np.allclose(got, xf @ st.head_weight().T, atol=1e-12)


def test_forward_matches_cleanroom_oracle():
    st = make_model(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=11,
                    max_seq_len=9, seed=7)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 11, size=9)
    got = model.forward(st, ids).logits
    want = cleanroom_forward(st, ids)
    assert np.max(np.abs(got - want)) < 1e-10


def test_forward_matches_cleanroom_oracle_deeper_untied():
    st = make_model(n_layers=3, d_model=12, n_heads=3, d_ff=20, vocab_size=17,
                    max_seq_len=8, tie_embeddings=False, seed=11)
    ids = np.random.default_rng(8).integers(0, 17, size=8)
    assert np.max(np.abs(model.forward(st, ids).logits - cleanroom_forward(st, ids))) < 1e-10


def test_forward_float32_matches_cleanroom_oracle():
    # float32 rounding of logits of order 0.1 through 2 layers: 1e-4 absolute
    # is ~100x the expected error and far below any formula mistake
    st = make_model(n_layers=2, d_model=12, n_heads=3, d_ff=20, vocab_size=17,
                    max_seq_len=8, dtype="float32", seed=12)
    ids = np.random.default_rng(9).integers(0, 17, size=8)
    got = model.forward(st, ids).logits
    assert got.dtype == np.float32
    assert np.max(np.abs(got - cleanroom_forward(st, ids))) < 1e-4


# ---------------------------------------------------------------------------
# Dtype contract: a model computes in config.dtype end to end


def _arrays(obj):
    """Every ndarray inside nested dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_dtype_contract(dtype):
    st = make_model(n_layers=2, d_model=16, n_heads=2, d_ff=24, dtype=dtype, seed=4)
    ids = np.random.default_rng(0).integers(0, 23, size=(2, 7))
    trace = model.forward(st, ids)
    assert trace.logits.dtype == dtype
    assert [h.dtype for h in trace.hidden_states] == [np.dtype(dtype)] * 3
    cache = model._forward_core(st, ids, keep_cache=True)
    assert len(cache["layer_caches"]) == 2
    floats = [a for a in _arrays(cache) if a.dtype.kind == "f"]
    assert len(floats) > 2 * 13
    assert all(a.dtype == dtype for a in floats), sorted({str(a.dtype) for a in floats})
    for layer_cache in cache["layer_caches"]:
        # a, ln1 (xhat, rstd), att, attention (q, k, v, probs), h2, ln2, f1, g, tanh
        floats = [a for a in _arrays(layer_cache) if a.dtype.kind == "f"]
        assert len(floats) == 14
        assert all(a.dtype == dtype for a in floats), sorted({str(a.dtype) for a in floats})


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gradient_dtype_contract(dtype, grouped):
    groups = (slice(0, 3), [slice(3, 13), slice(13, 23)]) if grouped else None
    for tie in (True, False):
        st = make_model(n_layers=2, d_model=16, n_heads=2, d_ff=24, dtype=dtype,
                        tie_embeddings=tie, seed=6)
        rng = np.random.default_rng(1)
        ids, targets = rng.integers(0, 23, size=(2, 2, 7))
        loss, grads = model.loss_and_grads(st, ids, targets, vocab_groups=groups)
        assert np.isfinite(loss)
        assert grads.keys() == st.params.keys()
        for name, g in grads.items():
            assert g.dtype == dtype, name
        logits = model.forward(st, ids).logits.reshape(-1, 23)
        _, dlogits, logp = model.softmax_xent(logits, targets.reshape(-1), groups)
        assert dlogits.dtype == dtype and logp.dtype == dtype


def test_hidden_state_count_and_finiteness():
    st = make_model(n_layers=2, seed=2)
    trace = model.forward(st, np.arange(6))
    assert len(trace.hidden_states) == 3
    for h in trace.hidden_states:
        assert h.shape == (6, 16)
        assert np.all(np.isfinite(h))
    for got, want in zip(model.hidden_states(st, np.arange(6)), trace.hidden_states):
        assert np.array_equal(got, want)


def gelu_reference(x):
    """Textbook tanh-GELU and the tanh it caches."""
    t = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_backward_reference(dy, x, t):
    du = math.sqrt(2.0 / math.pi) * (1.0 + 3 * 0.044715 * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gelu_pair_is_bitwise_the_reference_and_writes_no_input(dtype):
    rng = np.random.default_rng(0)
    x = (rng.standard_normal((64, 48)) * 4).astype(dtype)
    x[0, :6] = [0.0, -0.0, 1e-30, -1e-30, 30.0, -30.0]
    dy = rng.standard_normal(x.shape).astype(dtype)
    x_before, dy_before = x.copy(), dy.copy()

    y, t = model._gelu(x)
    want_y, want_t = gelu_reference(x)
    assert y.dtype == t.dtype == dtype
    assert y.tobytes() == want_y.tobytes() and t.tobytes() == want_t.tobytes()
    assert not np.shares_memory(y, t)

    t_before = t.copy()
    dx = model._gelu_backward(dy, x, t)
    assert dx.dtype == dtype
    assert dx.tobytes() == gelu_backward_reference(dy, x, t).tobytes()
    for arr, before in ((x, x_before), (t, t_before), (dy, dy_before)):
        assert arr.tobytes() == before.tobytes()


def layer_norm_reference(x, gain, offset):
    """Textbook layer norm and the (xhat, rstd) it caches."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + model.LN_EPS)
    xhat = xc * rstd
    return xhat * gain + offset, xhat, rstd


def layer_norm_backward_reference(dy, xhat, rstd, gain):
    dgain = (dy * xhat).sum(axis=(0, 1))
    doffset = dy.sum(axis=(0, 1))
    dxhat = dy * gain
    dx = rstd * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, doffset


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_layer_norm_pair_is_bitwise_the_reference_and_writes_no_input(dtype):
    rng = np.random.default_rng(1)
    x = (rng.standard_normal((3, 17, 48)) * 5 + 2).astype(dtype)
    x[0, 0] = 0.0  # a constant row: rstd = 1 / sqrt(LN_EPS)
    gain, offset, dy = (rng.standard_normal(s).astype(dtype) for s in (48, 48, x.shape))
    inputs = (x, gain, offset, dy)
    before = [a.copy() for a in inputs]

    y, (xhat, rstd) = model._layer_norm(x, gain, offset)
    want = layer_norm_reference(x, gain, offset)
    for got, ref in zip((y, xhat, rstd), want):
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()
    cache_before = xhat.copy(), rstd.copy()

    got = model._layer_norm_backward(dy, (xhat, rstd), gain)
    for g, ref in zip(got, layer_norm_backward_reference(dy, xhat, rstd, gain)):
        assert g.dtype == dtype and g.tobytes() == ref.tobytes()
    for arr, b in zip((*inputs, xhat, rstd), (*before, *cache_before)):
        assert arr.tobytes() == b.tobytes()


def attention_reference(qkv, n_heads):
    """Textbook causal attention over packed q, k, v, each step into a new array,
    and the (q, k, v, probs) it caches."""
    b, t, d3 = qkv.shape
    d = d3 // 3
    q, k, v = (qkv[..., j * d : (j + 1) * d].reshape(b, t, n_heads, d // n_heads)
               .transpose(0, 2, 1, 3) for j in range(3))
    scores = q @ k.transpose(0, 1, 3, 2) * (1.0 / math.sqrt(d // n_heads))
    scores = scores + np.triu(np.full((t, t), -np.inf, dtype=qkv.dtype), k=1)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return (probs @ v).transpose(0, 2, 1, 3).reshape(b, t, d), (q, k, v, probs)


def attention_backward_reference(datt, q, k, v, probs):
    b, h, t, hd = q.shape
    scale = 1.0 / math.sqrt(hd)
    datt_h = datt.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
    dprobs = datt_h @ v.transpose(0, 1, 3, 2)
    dv = probs.transpose(0, 1, 3, 2) @ datt_h
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dq, dk = (dscores @ k) * scale, (dscores.transpose(0, 1, 3, 2) @ q) * scale
    return np.concatenate(
        [g.transpose(0, 2, 1, 3).reshape(b, t, h * hd) for g in (dq, dk, dv)], axis=-1)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_attention_pair_is_bitwise_the_reference_and_writes_no_input(dtype):
    rng = np.random.default_rng(3)
    qkv = (rng.standard_normal((2, 9, 3 * 24)) * 2).astype(dtype)
    datt = rng.standard_normal((2, 9, 24)).astype(dtype)
    before = qkv.copy(), datt.copy()

    att, cache = model._attention(qkv, 4)
    want_att, want_cache = attention_reference(qkv, 4)
    for got, ref in zip((att, *cache), (want_att, *want_cache)):
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()
    cache_before = [a.copy() for a in cache]

    dqkv = model._attention_backward(datt, cache)
    assert dqkv.dtype == dtype and dqkv.shape == qkv.shape
    assert dqkv.tobytes() == attention_backward_reference(datt, *cache).tobytes()
    for arr, b in zip((qkv, datt, *cache), (*before, *cache_before)):
        assert arr.tobytes() == b.tobytes()


def test_components_are_called_by_module_global_name(monkeypatch):
    # a tracer rebinds these names; calls through any other reference escape it
    calls = {}
    for name in ("_block", "_attention", "_block_backward"):
        def counting(*args, _real=getattr(model, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(model, name, counting)
    st = make_model(n_layers=3, seed=5)
    ids = np.arange(8).reshape(2, 4)
    model.forward(st, ids)
    assert calls == {"_block": 3, "_attention": 3}
    calls.clear()
    model.loss_and_grads(st, ids, ids[:, ::-1])
    assert calls == {"_block": 3, "_attention": 3, "_block_backward": 3}


def softmax_xent_reference(logits, targets, groups):
    """The cross-entropy expressions, each step into a new array."""
    n, v = logits.shape
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    denom = model._reduce_blocks(lambda s: e[:, s].sum(axis=1), model._as_groups(groups, v))
    idx = np.arange(n)
    logp = (logits[idx, targets] - m[:, 0]) - np.log(denom)
    dlogits = e / denom[:, None]
    dlogits[idx, targets] -= 1.0
    dlogits /= n
    return -logp.mean(), dlogits, logp


@pytest.mark.parametrize("groups", [None, (slice(0, 5), [slice(5, 30), slice(30, 55)])])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_softmax_xent_returns_dlogits_in_its_input_buffer(dtype, groups):
    rng = np.random.default_rng(2)
    logits = (rng.standard_normal((40, 55)) * 6).astype(dtype)
    targets = rng.integers(0, 55, size=40)
    want = softmax_xent_reference(logits.copy(), targets, groups)

    buf = logits.copy()
    got = model.softmax_xent(buf, targets, groups)
    assert np.shares_memory(got[1], buf)
    for g, ref in zip(got, want):
        assert np.asarray(g).dtype == dtype and np.asarray(g).tobytes() == ref.tobytes()


def _peak_traced_bytes(vocab_size: int, n_rows: int) -> int:
    st = make_model(n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=vocab_size,
                    max_seq_len=64, dtype="float32", seed=4)
    rng = np.random.default_rng(4)
    ids, targets = rng.integers(0, vocab_size, size=(2, n_rows // 64, 64))
    half = vocab_size // 2
    groups = (slice(0, 0), [slice(0, half), slice(half, vocab_size)])
    tracemalloc.start()
    try:
        model.loss_and_grads(st, ids, targets, vocab_groups=groups)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_head_and_cross_entropy_hold_one_logits_buffer():
    # one (n, V) buffer carries logits and dlogits; the tied head's (V, d)
    # gradient adds d/n = 1/32 of a buffer per vocabulary column
    n, itemsize = 512, 4
    v_small, v_large = 1024, 3072
    growth = _peak_traced_bytes(v_large, n) - _peak_traced_bytes(v_small, n)
    per_column = growth / ((v_large - v_small) * n * itemsize)
    assert per_column <= 1.25, f"peak grows by {per_column:.2f} n*itemsize per vocab column"


def test_loss_and_grads_frees_the_logits_before_the_layer_backward(monkeypatch):
    refs = []
    head_logits, block_backward = model._head_logits, model._block_backward

    def keep_a_weakref(*args):
        logits = head_logits(*args)
        refs.append(weakref.ref(logits))
        return logits

    def logits_are_dead(*args):
        assert refs[0]() is None, "the (n, V) logits buffer lives through the layer backward"
        return block_backward(*args)

    monkeypatch.setattr(model, "_head_logits", keep_a_weakref)
    monkeypatch.setattr(model, "_block_backward", logits_are_dead)
    st = make_model(n_layers=2, dtype="float32", seed=6)
    ids = np.arange(12).reshape(2, 6)
    model.loss_and_grads(st, ids, ids[:, ::-1])
    assert len(refs) == 1


def test_forward_keeps_no_layer_cache_through_the_next_block():
    # hidden_states keeps one (b, t, d) state per layer by design; a layer's
    # cache (q, k, v, the probabilities, the MLP activations) must die before
    # the next block runs, so two more layers add about two states to the peak
    def peak(n_layers):
        st = make_model(n_layers=n_layers, d_model=16, n_heads=2, d_ff=64,
                        max_seq_len=64, dtype="float32", seed=0)
        ids = np.random.default_rng(0).integers(0, 23, size=(4, 64))
        tracemalloc.start()
        try:
            model.hidden_states(st, ids)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    state_bytes = 4 * 64 * 16 * 4
    growth = (peak(3) - peak(1)) / state_bytes
    assert growth <= 3, f"two more layers add {growth:.1f} hidden states to the peak"


def test_uniform_logit_loss_is_log_vocab():
    st = make_model(seed=0)
    st.params["token_embedding"][:] = 0.0  # tied head -> all logits zero
    ids = np.arange(8)
    targets = (ids + 1) % 23
    loss, _ = model.loss_and_grads(st, ids, targets)
    assert abs(loss - math.log(23)) < 1e-12


def test_oversized_sequence_rejected():
    st = make_model(max_seq_len=4)
    with pytest.raises(ValueError, match="max_seq_len"):
        model.forward(st, np.arange(5) % 23)


def test_id_out_of_range_rejected():
    st = make_model(vocab_size=10)
    with pytest.raises(ValueError, match=r"token ids 0..10 are outside \[0, 10\)"):
        model.forward(st, np.array([0, 10]))


def relative_gradient_errors(state, ids, targets, h=1e-5):
    """Central finite differences over every parameter entry."""
    loss0, grads = model.loss_and_grads(state, ids, targets)
    errs = {}
    for name, p in state.params.items():
        if state.config.tie_embeddings and name == "output_head.weight":
            continue
        g = grads[name]
        num = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = model.loss_and_grads(state, ids, targets)
            p[idx] = orig - h
            lm, _ = model.loss_and_grads(state, ids, targets)
            p[idx] = orig
            num[idx] = (lp - lm) / (2 * h)
            it.iternext()
        denom = np.maximum(np.maximum(np.abs(g), np.abs(num)), 1e-6)
        errs[name] = float(np.max(np.abs(g - num) / denom))
    return errs


def test_gradients_match_finite_differences_small():
    st = make_model(n_layers=1, d_model=8, n_heads=2, d_ff=12, vocab_size=13,
                    max_seq_len=6, dtype="float64", seed=5)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 13, size=(2, 6))
    targets = rng.integers(0, 13, size=(2, 6))
    errs = relative_gradient_errors(st, ids, targets)
    worst = max(errs.values())
    assert worst < 1e-3, f"worst relative gradient error {worst}: {errs}"


def test_batch_duplication_matches_single():
    st = make_model(seed=9)
    rng = np.random.default_rng(1)
    ids = rng.integers(0, 23, size=(1, 10))
    targets = rng.integers(0, 23, size=(1, 10))
    loss1, g1 = model.loss_and_grads(st, ids, targets)
    loss2, g2 = model.loss_and_grads(st, np.repeat(ids, 2, 0), np.repeat(targets, 2, 0))
    assert abs(loss1 - loss2) < 1e-12
    for k in g1:
        assert np.allclose(g1[k], g2[k], atol=1e-12)


def test_non_finite_loss_raises():
    st = make_model(seed=0)
    st.params["token_embedding"][0, 0] = np.nan
    with pytest.raises(model.NumericError):
        model.loss_and_grads(st, np.arange(4), np.arange(4))


# ---------------------------------------------------------------------------
# Exact clone-permutation equivariance of one training-step computation


def _block_swap_permutation(n_anchor, n_dup, total):
    """Final-id permutation exchanging language blocks 0 and 1."""
    perm = np.arange(total)
    b0 = slice(n_anchor, n_anchor + n_dup)
    b1 = slice(n_anchor + n_dup, n_anchor + 2 * n_dup)
    perm[b0], perm[b1] = np.arange(total)[b1], np.arange(total)[b0]
    return perm


@pytest.mark.parametrize("n_anchor", [0, 3])
def test_loss_and_grads_bitwise_equivariant_under_block_swap(n_anchor):
    n_dup = 9
    total = n_anchor + 2 * n_dup
    groups = (
        slice(0, n_anchor),
        [slice(n_anchor, n_anchor + n_dup), slice(n_anchor + n_dup, total)],
    )
    st = make_model(n_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=total,
                    max_seq_len=8, dtype="float32", seed=13)
    perm = _block_swap_permutation(n_anchor, n_dup, total)

    st_swapped = st.copy()
    st_swapped.params["token_embedding"] = st.params["token_embedding"][perm]

    rng = np.random.default_rng(3)
    ids = rng.integers(0, total, size=(3, 8))
    targets = rng.integers(0, total, size=(3, 8))

    loss_a, grads_a = model.loss_and_grads(st, ids, targets, vocab_groups=groups)
    loss_b, grads_b = model.loss_and_grads(
        st_swapped, perm[ids], perm[targets], vocab_groups=groups
    )
    assert loss_a == loss_b  # bitwise
    for name in grads_a:
        if name == "token_embedding":
            assert np.array_equal(grads_a[name][perm], grads_b[name])
        else:
            assert np.array_equal(grads_a[name], grads_b[name]), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_two_block_reduce_is_bitwise_the_sorted_sum(dtype):
    # every ordered pair of these values, signed zeros and infinities included
    vals = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.5, 1e-40, 3e38], dtype=dtype)
    a, b = (g.ravel() for g in np.meshgrid(vals, vals))
    anchor = np.full_like(a, -0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for anchor_part in (None, anchor):
            got = model.grouped_vocab_reduce([a, b], anchor_part)
            want = np.sort(np.stack([a, b]), axis=0).sum(axis=0)
            if anchor_part is not None:
                want = want + anchor_part
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_checkpoint_roundtrip(tmp_path):
    st = make_model(dtype="float32", seed=21)
    opt = {"adam_m.x": np.ones(3, dtype=np.float32)}
    model.save_checkpoint(tmp_path / "c.xlck", st, step=5, opt_tensors=opt, extra={"e": 2})
    st2, step, opt2, extra = model.load_checkpoint(tmp_path / "c.xlck")
    assert step == 5 and extra == {"e": 2}
    for k in st.params:
        assert np.array_equal(st.params[k], st2.params[k])
    assert np.array_equal(opt2["adam_m.x"], opt["adam_m.x"])


def test_checkpoint_bytes_are_magic_prefix_sorted_json_and_little_endian_arrays(tmp_path):
    st = make_model(dtype="float32", seed=8)
    opt = {"adam_v.b": np.arange(6, dtype=np.float32).reshape(2, 3),
           "adam_m.a": np.ones(2, dtype=np.float32)}
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, st, step=4, opt_tensors=opt, extra={"note": [1, "x"]})

    tensors = [*st.params.items(), ("adam_m.a", opt["adam_m.a"]), ("adam_v.b", opt["adam_v.b"])]
    payload = b"".join(a.astype("<f4").tobytes() for _, a in tensors)
    header = {
        "config": dataclasses.asdict(st.config),
        "step": 4,
        "extra": {"note": [1, "x"]},
        "tensors": [[name, list(a.shape), "<f4"] for name, a in tensors],
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(raw + payload).digest()  # over the header bytes, then the payload
    assert path.read_bytes() == (b"XLCK" + struct.pack("<BI", 3, len(raw)) + digest + raw
                                 + payload)


def test_checkpoint_corruption_detected(tmp_path):
    st = make_model(dtype="float32")
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, st, step=0)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(model.CheckpointError, match="digest"):
        model.load_checkpoint(path)


def test_failed_checkpoint_save_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, make_model(dtype="float32", seed=1), step=1)
    before = path.read_bytes()

    class DiskFullAfterHeader:
        """A file whose fifth write fails, after magic, prefix, digest and header."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 5:
                raise OSError("no space left on device")
            return self.f.write(data)

    monkeypatch.setattr(util, "open", lambda p, mode: DiskFullAfterHeader(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space left"):
        model.save_checkpoint(path, make_model(dtype="float32", seed=2), step=2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.xlck"]
    assert model.load_checkpoint(path)[1] == 1


@pytest.mark.parametrize("step, match", [
    (-1, "step must be >= 0, got -1"),
    (1.5, "step must be an int, got 1.5"),
    (True, "step must be an int, got True"),
])
def test_a_bad_step_is_refused_before_anything_is_written(tmp_path, step, match):
    # each was written, and then refused by load_checkpoint as "not a step count"
    with pytest.raises(model.CheckpointError, match=match):
        model.save_checkpoint(tmp_path / "c.xlck", make_model(), step=step)
    assert list(tmp_path.iterdir()) == []


def test_a_numpy_integer_step_round_trips(tmp_path):
    # json refused np.int64 with a bare TypeError
    model.save_checkpoint(tmp_path / "c.xlck", make_model(), step=np.int64(3))
    step = model.load_checkpoint(tmp_path / "c.xlck")[1]
    assert (type(step), step) == (int, 3)


def test_checkpoint_float64_roundtrip_keeps_dtype_and_bits(tmp_path):
    st = make_model(dtype="float64", seed=22)
    opt = {"adam_v.x": np.random.default_rng(0).standard_normal(5)}
    model.save_checkpoint(tmp_path / "c.xlck", st, step=1, opt_tensors=opt)
    st2, _, opt2, _ = model.load_checkpoint(tmp_path / "c.xlck")
    for k in st.params:
        assert st2.params[k].dtype == np.float64
        assert np.array_equal(st.params[k], st2.params[k]), k
    assert opt2["adam_v.x"].dtype == np.float64
    assert np.array_equal(opt2["adam_v.x"], opt["adam_v.x"])


def test_checkpoint_float32_payload_is_four_bytes_per_value(tmp_path):
    st = make_model(dtype="float32", seed=3)
    opt = {"adam_m.x": np.ones(7, dtype=np.float32)}
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, st, step=0, opt_tensors=opt)
    header, tensors = util.read_arrays(path, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION,
                                      model.CheckpointError)
    n_values = sum(a.size for a in st.params.values()) + 7
    assert sum(a.nbytes for a in tensors.values()) == 4 * n_values
    assert {a.dtype.str for a in tensors.values()} == {"<f4"}
    assert "payload_crc32" not in header


def test_checkpoint_rejects_version_1(tmp_path):
    st = make_model(dtype="float32")
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, st, step=0)
    edit_array_file(path, lambda header, tensors: None, version=1)
    with pytest.raises(model.CheckpointError, match="version 1"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("field", ["tensors", "step", "config"])
def test_checkpoint_header_missing_field_is_checkpoint_error(tmp_path, field):
    st = make_model(dtype="float32")
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, st, step=0)
    # the writer lists the arrays it writes, so a file without tensors has no arrays
    edit_array_file(path, lambda h, a: a.clear() if field == "tensors" else h.pop(field))
    with pytest.raises(model.CheckpointError, match=field):
        model.load_checkpoint(path)


@pytest.mark.parametrize("step", ["3", -5, 2.5, None, True])
def test_checkpoint_header_bad_step_is_checkpoint_error(tmp_path, step):
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, make_model(dtype="float32"), step=3)
    edit_array_file(path, lambda header, tensors: header.update(step=step))
    with pytest.raises(model.CheckpointError, match="not a step count"):
        model.load_checkpoint(path)


def test_checkpoint_header_with_dropped_fields_loads(tmp_path):
    """Files whose headers still carry ``n_params`` and ``config_digest`` load."""
    st = make_model(dtype="float32", seed=4)
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, st, step=3, opt_tensors={"adam_m.x": np.ones(2, np.float32)})
    edit_array_file(path, lambda header, tensors: header.update(n_params=len(st.params),
                                                                config_digest="0" * 64))
    st2, step, opt, _ = model.load_checkpoint(path)
    assert step == 3 and list(opt) == ["adam_m.x"]
    for k in st.params:
        assert np.array_equal(st.params[k], st2.params[k]), k


_GOOD_CONFIG = dict(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=5, max_seq_len=4)


@pytest.mark.parametrize("field, value", [
    ("dtype", "int64"), ("dtype", "float16"), ("n_layers", -1), ("d_model", 0),
    ("n_heads", 0), ("d_ff", 0), ("vocab_size", 0), ("max_seq_len", 0),
    # a float size used to load and fail in forward, "false" to load as a tied model
    ("d_model", 16.0), ("n_layers", True), ("vocab_size", "5"), ("max_seq_len", None),
    ("tie_embeddings", "false"), ("tie_embeddings", 0),
])
def test_config_rejects_what_it_cannot_run(tmp_path, field, value):
    with pytest.raises(ValueError, match=field):
        model.ModelConfig(**{**_GOOD_CONFIG, field: value})
    # a checkpoint header carrying such a config is a CheckpointError
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, model.init(model.ModelConfig(**_GOOD_CONFIG), seed=0), step=0)
    edit_array_file(path, lambda header, tensors: header["config"].update({field: value}))
    with pytest.raises(model.CheckpointError, match=field):
        model.load_checkpoint(path)


def test_checkpoint_truncated_or_mismatched_is_checkpoint_error(tmp_path):
    st = make_model(dtype="float32")
    path = tmp_path / "c.xlck"
    model.save_checkpoint(path, st, step=0)
    raw = path.read_bytes()
    for cut_or_padded in (raw[:-4], raw + b"\0"):  # the digest covers the payload's length
        path.write_bytes(cut_or_padded)
        with pytest.raises(model.CheckpointError, match=f"{path.name}: digest mismatch"):
            model.load_checkpoint(path)
    path.write_bytes(raw)
    edit_array_file(path, lambda header, tensors: tensors.update(  # not the config's dtype
        token_embedding=tensors["token_embedding"].astype("<f8")))
    with pytest.raises(model.CheckpointError, match="do not match"):
        model.load_checkpoint(path)
