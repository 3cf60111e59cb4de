"""The generic tape ops the fused model ops replaced, kept as a reference.

``pelt.tensor.linear``, ``attention``, ``tied_cross_entropy``, the
flat-row ``gather_rows`` and ``layer_norm`` with a residual must equal, bit
for bit, the compositions below of matmul (2-D or batched), add, reshape,
transpose, scalar and elementwise mul, softmax, softmax cross entropy, the
2-D row gather and the residual-free layer_norm, the ops the model was built
from before; the tests compare the two forward and backward.
The numpy expressions of the in-place kernels and of per-parameter Adam that
the library used before are kept here for the same purpose.
``hidden_states`` is the full pre-head encoder pass, no row pruned, that
tests of the encoder's input side read.
"""

import numpy as np

from pelt import tensor
from pelt.model import _encoder
from pelt.tensor import Tensor, _accum, _check_same_dtype, _result, no_grad


def matmul(a, b):
    """Matrix product; 2-D weights or fully batched operands."""
    _check_same_dtype(a, b)
    if b.ndim == 2:
        data = a.data @ b.data
    else:
        assert a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]
        data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if b.ndim == 2:
                ga = a.data.reshape(-1, a.data.shape[-1])
                _accum(b, ga.T @ g.reshape(-1, g.shape[-1]))
            else:
                _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _result(data, (a, b), backward)


def add(a, b):
    """a + b for a Tensor b of a's shape or of its trailing dims (a bias)."""
    _check_same_dtype(a, b)
    assert b.shape == a.shape or a.shape[a.ndim - b.ndim:] == b.shape
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g, owned=False)
        if b.requires_grad:
            gb = g
            while gb.ndim > b.ndim:
                gb = gb.sum(axis=0)
            _accum(b, gb, owned=gb is not g)

    return _result(data, (a, b), backward)


def reshape(a, shape):
    data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape), owned=False)

    return _result(data, (a,), backward)


def transpose(a, axes=None):
    data = a.data.transpose(axes)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inv), owned=False)

    return _result(data, (a,), backward)


def add_constant(a, c):
    """a + c for a constant array c that broadcasts into a's shape."""
    data = a.data + np.asarray(c, dtype=a.data.dtype)
    return _result(data, (a,), lambda g: _accum(a, g, owned=False))


def softmax_cross_entropy(logits, target):
    """Mean negative log-softmax probability of N targets over (N, V) logits."""
    lg = logits.data
    tg = np.atleast_1d(np.asarray(target, dtype=np.int64))
    n = lg.shape[0]
    m = lg.max(axis=1, keepdims=True)
    shifted = lg - m
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(n)
    losses = lse - shifted[rows, tg]
    data = np.asarray(losses.mean(), dtype=lg.dtype)

    def backward(g):
        if logits.requires_grad:
            sm = np.exp(shifted)
            sm /= sm.sum(axis=1, keepdims=True)
            sm[rows, tg] -= 1.0
            _accum(logits, (float(g) / n) * sm)

    return _result(data, (logits,), backward)


def mul(a, b):
    """Elementwise product with a same-shape Tensor or a python scalar."""
    if not isinstance(b, Tensor):
        c = float(b)
        return _result(a.data * c, (a,), lambda g: _accum(a, g * c))
    _check_same_dtype(a, b)
    assert a.shape == b.shape
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _result(data, (a, b), backward)


def softmax(a, axis=-1):
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        gs = g * s
        _accum(a, gs - s * gs.sum(axis=axis, keepdims=True))

    return _result(s, (a,), backward)


def linear(x, w, b):
    return add(matmul(x, w), b)


def tied_cross_entropy(r, emb, targets):
    return softmax_cross_entropy(matmul(r, transpose(emb)), targets)


def gather_rows(table, indices):
    """Row lookup in a 2-D table, after a reshape for a larger one."""
    if table.ndim > 2:
        table = reshape(table, (-1, table.shape[-1]))
    idx = np.asarray(indices)
    data = table.data[idx]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accum(table, acc)

    return _result(data, (table,), backward)


def attention(q, k, v, heads, bias=None):
    bsz, n, d = q.shape
    hd = d // heads
    qh, kh, vh = (transpose(reshape(t, (bsz, n, heads, hd)), (0, 2, 1, 3)) for t in (q, k, v))
    scores = mul(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    if bias is not None:
        scores = add_constant(scores, bias)
    weights = softmax(scores, axis=-1)
    return reshape(transpose(matmul(weights, vh), (0, 2, 1, 3)), (bsz, n, d))


def layer_norm(x, gain, bias, epsilon, residual=None):
    """The generic add, then the residual-free layer_norm, in the operand
    order the encoder used: add(h, sublayer) for a residual of x's shape,
    add(x, pos) for position rows over a batch."""
    if residual is not None:
        x = add(residual, x) if residual.shape == x.shape else add(x, residual)
    return tensor.layer_norm(x, gain, bias, epsilon)


def layer_norm_arrays(x, gain, bias, epsilon, g):
    """Forward output and (x, gain, bias) gradients for upstream g."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = xc * inv
    out = xhat * gain + bias
    dxhat = g * gain
    term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (out, inv * term, (g * xhat).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


def gelu_arrays(x, g):
    """Forward output and input gradient for upstream g."""
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0, dtype=x.dtype)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return x * cdf, g * (cdf + x * pdf).astype(x.dtype)


def adam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update per parameter array, in place; t counts from 1."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * (g * g)
        p -= lr * ((mm / bc1) / (np.sqrt(vv / bc2) + eps))


def weighted_sum(a, w):
    """sum(a * w) for a constant array w: a scalar whose gradient is w."""
    data = np.asarray((a.data * w).sum())

    def backward(g):
        _accum(a, float(g) * w)

    return _result(data, (a,), backward)


def tape_ops(root):
    """Number of op nodes reachable from root (leaves not counted)."""
    seen, stack, ops = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += bool(node._parents)
            stack.extend(node._parents)
    return ops


def hidden_states(ckpt, slots):
    """Pre-head encoder states (n, D) of one slot sequence (token ids or
    (D,) vectors), every row: one no-grad ``_encoder`` pass, no row pruned."""
    emb = ckpt.params["emb.word"].data
    x = np.stack([emb[s] if isinstance(s, (int, np.integer)) else np.asarray(s, emb.dtype)
                  for s in slots])
    with no_grad():
        return _encoder(ckpt.params, ckpt.config, Tensor(x[None]), None).data[0]
