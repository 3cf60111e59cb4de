"""numpy-backed dense tensors with reverse-mode automatic differentiation.

Each operation links its result to its inputs through a backward closure;
``Tensor.backward()`` replays the closures in reverse topological order, so
one forward pass builds exactly one tape. float32 is the training dtype,
float64 the test / gradient-check dtype; dtypes never mix inside a graph.
Broadcasting is restricted to trailing-dimension (bias style) addition to
keep the kernel auditable. The module holds only the ops the model runs; it
has no add op, as ``layer_norm`` adds its residual ("Add & Norm"). The
fused ``linear``, ``attention``, ``tied_cross_entropy`` and ``layer_norm``
make the numpy calls of the generic matmul/add/reshape/transpose/softmax
composition they replace, on the same operand layouts, so their bits are
the composition's; ``gelu`` (on every row, or on chosen rows only) and
``layer_norm`` work in place. The exact attention row max reduces a
key-major copy: numpy's max over a short last axis costs ~50 ns a row.
gather_rows' backward adds at flat row * D + col: np.add.at's fast 1-D path.
"""

import contextlib
import math

import numpy as np

from pelt.errors import ContractError, ShapeError

_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))
_SQRT2 = {dt: np.sqrt(2.0, dtype=dt) for dt in _ALLOWED}  # gelu's divisor, rounded in each dtype

_grad_enabled = True
_erf = None  # scipy.special.erf, most of pelt's import time: the first gelu imports it


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block, in every thread (masked_outputs' helpers too)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense row-major array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _ALLOWED:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def backward(self):
        """Accumulate gradients of this scalar into every reachable input."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _accum(t, g, owned=True):
    """Add g into t.grad; an ``owned`` g (computed by the op for t alone) is
    kept as it is, any other first g is copied."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    else:
        t.grad = g if owned and g.dtype == t.data.dtype else g.astype(t.data.dtype)


def _result(data, parents, backward):
    """An op's output around its own ndarray ``data`` (no Tensor.__init__ coercion)."""
    out = Tensor.__new__(Tensor)
    taped = _grad_enabled and any(p.requires_grad for p in parents)
    out.data, out.grad, out.requires_grad = data, None, taped
    out._parents, out._backward = (tuple(parents), backward) if taped else ((), None)
    return out


def _check_same_dtype(*tensors):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed dtypes in one graph: {dt} vs {t.data.dtype}")
    return dt


def linear(x, w, b):
    """x @ w + b for (..., D) rows, a (D, N) weight and an (N,) bias."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.dtype != wd.dtype or bd.dtype != wd.dtype:
        _check_same_dtype(x, w, b)
    if wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b.shape} do not line up")
    data = xd @ wd
    data += bd

    def backward(g):
        if b.requires_grad:
            gb = g
            while gb.ndim > 1:
                gb = gb.sum(axis=0)
            _accum(b, gb, owned=gb is not g)
        if x.requires_grad:
            _accum(x, g @ wd.T)
        if w.requires_grad:
            _accum(w, xd.reshape(-1, wd.shape[0]).T @ g.reshape(-1, g.shape[-1]))

    return _result(data, (x, w, b), backward)


def attention(q, k, v, heads, bias=None):
    """softmax(q k^T / sqrt(D / heads) + bias) v per head of (B, n, D)
    projections, as one tape node; ``bias`` is None or a (B, 1, 1, n) key mask."""
    qd, kd, vd = q.data, k.data, v.data
    if kd.dtype != qd.dtype or vd.dtype != qd.dtype:
        _check_same_dtype(q, k, v)
    b, n, d = qd.shape
    if kd.shape != qd.shape or vd.shape != qd.shape or d % heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    hd = d // heads
    c = 1.0 / math.sqrt(hd)
    qh, kh, vh = (a.reshape(b, n, heads, hd).transpose(0, 2, 1, 3) for a in (qd, kd, vd))
    s = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    s *= c
    if bias is not None:
        s += bias
    s -= np.maximum.reduce(s.transpose(3, 0, 1, 2).copy(), axis=0)[..., None]
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    data = np.matmul(s, vh).transpose(0, 2, 1, 3).reshape(b, n, d)

    def backward(g):
        gc = np.ascontiguousarray(g.reshape(b, n, heads, hd).transpose(0, 2, 1, 3))
        gs = gc @ np.swapaxes(vh, -1, -2)
        gv = np.matmul(np.swapaxes(s, -1, -2), gc)
        gs *= s
        gs -= s * gs.sum(axis=-1, keepdims=True)
        gs *= c
        _accum(q, (gs @ kh).transpose(0, 2, 1, 3).reshape(b, n, d))
        _accum(k, np.matmul(np.swapaxes(qh, -1, -2), gs).transpose(0, 3, 1, 2).reshape(b, n, d))
        _accum(v, gv.transpose(0, 2, 1, 3).reshape(b, n, d))

    return _result(data, (q, k, v), backward)


def gather_rows(table, indices):
    """Rows of a 2-D or larger table at flat indices over its leading axes;
    backward scatter-adds into the table."""
    idx, td = np.asarray(indices), table.data
    if td.ndim < 2:
        raise ShapeError(f"gather_rows: table must be 2-D or larger, got {table.shape}")
    rows = td.reshape(-1, td.shape[-1])
    m, d = rows.shape
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise IndexError(f"gather_rows: index out of range for table with {m} rows")
    data = rows[idx]

    def backward(g):
        if table.requires_grad:
            acc = np.zeros_like(td)
            flat = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
            np.add.at(acc.reshape(-1), flat, g.reshape(-1))
            _accum(table, acc)

    return _result(data, (table,), backward)


def _scatter(part, rows, shape):
    out = np.zeros(shape, dtype=part.dtype)
    out.reshape(-1, shape[-1])[rows] = part
    return out


def gelu(a, rows=None):
    """Exact (erf) GELU; with flat leading-axes ``rows``, on those rows only (zero elsewhere)."""
    global _erf
    if _erf is None:
        from scipy.special import erf as _erf
    ad = a.data
    x = ad if rows is None else ad.reshape(-1, ad.shape[-1])[rows]
    cdf = x / _SQRT2[x.dtype]
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf if rows is None else _scatter(x * cdf, rows, ad.shape)

    def backward(g):
        d = x * -0.5
        d *= x
        np.exp(d, out=d)
        # sqrt(2 pi) is a float64 scalar, so cdf + x * pdf is evaluated in
        # float64 and rounded once to the input dtype
        d = d / np.sqrt(2.0 * np.pi)
        d *= x
        d += cdf
        d = d.astype(x.dtype, copy=False)
        d *= g if rows is None else g.reshape(-1, g.shape[-1])[rows]
        _accum(a, d if rows is None else _scatter(d, rows, ad.shape))

    return _result(data, (a,), backward)


def _mean(a):
    """a.mean(axis=-1, keepdims=True): the same sum and the same division by
    an intp count, without ndarray.mean's Python wrapper."""
    s = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")


def layer_norm(x, gain, bias, epsilon, residual=None):
    """Add & Norm: zero-mean / unit-variance normalization of ``residual + x``
    over the last axis, then affine; ``residual`` is None, of x's shape, or of
    x's trailing dims (its gradient then sums over the leading axes).

    Variance is the population variance over the feature axis; with gain=1,
    bias=0 and epsilon=0 every output row has Euclidean norm sqrt(D).
    """
    if epsilon < 0:
        raise ValueError(f"layer_norm: epsilon must be >= 0, got {epsilon}")
    xd, gd, bd = x.data, gain.data, bias.data
    d = xd.shape[-1]
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} "
                         f"do not match feature size {d}")
    if gd.dtype != xd.dtype or bd.dtype != xd.dtype:
        _check_same_dtype(x, gain, bias)
    parents = (x, gain, bias)
    if residual is not None:
        rd = residual.data
        if rd.dtype != xd.dtype:
            _check_same_dtype(x, residual)
        if rd.shape != xd.shape[xd.ndim - rd.ndim:]:
            raise ShapeError(f"layer_norm: residual {residual.shape} does not fit input {x.shape}")
        xd, parents = rd + xd, parents + (residual,)
    xhat = xd - _mean(xd)
    buf = xhat * xhat
    inv = 1.0 / np.sqrt(_mean(buf) + epsilon)
    xhat *= inv
    data = np.multiply(xhat, gd, out=buf)
    data += bd

    def backward(g):
        buf = g * xhat
        if gain.requires_grad:
            _accum(gain, buf.reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad or residual is not None:
            dxhat = g * gd
            m1 = _mean(dxhat)
            np.multiply(dxhat, xhat, out=buf)
            np.multiply(xhat, _mean(buf), out=buf)
            dxhat -= m1
            dxhat -= buf
            dxhat *= inv
            if residual is not None:
                gr = dxhat
                while gr.ndim > residual.ndim:
                    gr = gr.sum(axis=0)
                _accum(residual, gr, owned=gr is not dxhat)
            _accum(x, dxhat)

    return _result(data, parents, backward)


def tied_cross_entropy(r, emb, targets):
    """Mean cross entropy of softmax(r @ emb^T) at the target ids.

    r is (N, D) output representations, emb the (V, D) embedding matrix the
    logits are tied to, targets N ids in [0, V). The logits' gradient is
    (softmax - one_hot) / N; r's is that times emb, emb's its transpose times r.
    """
    _check_same_dtype(r, emb)
    tg = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if r.ndim != 2 or emb.ndim != 2 or r.shape[1] != emb.shape[1] or tg.shape != r.shape[:1]:
        raise ShapeError(f"tied_cross_entropy: r {r.shape}, emb {emb.shape} "
                         f"and {tg.size} targets do not line up")
    n, v = r.shape[0], emb.shape[0]
    if tg.size and (tg.min() < 0 or tg.max() >= v):
        raise IndexError(f"tied_cross_entropy: target out of range for vocabulary of {v}")
    lg = r.data @ emb.data.T
    shifted = lg - lg.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(n)
    data = np.asarray((lse - shifted[rows, tg]).mean(), dtype=lg.dtype)

    def backward(g):
        gl = np.exp(shifted)
        gl /= gl.sum(axis=1, keepdims=True)
        gl[rows, tg] -= 1.0
        gl = (float(g) / n) * gl
        if r.requires_grad:
            _accum(r, gl @ emb.data)
        if emb.requires_grad:
            _accum(emb, (r.data.T @ gl).T, owned=False)

    return _result(data, (r, emb), backward)


class ParamStore:
    """Ordered, uniquely named collection of trainable tensors."""

    def __init__(self):
        self._params = {}

    def add(self, name, data):
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = data if isinstance(data, Tensor) else Tensor(data)
        t.requires_grad = True
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None
