"""Tensor engine: op semantics, gradients, Adam, and the checker itself."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelt.errors import ContractError, ShapeError
from pelt.gradcheck import grad_check
from pelt.model import mlm_loss
from pelt.optim import Adam
from pelt.synth import synthetic_checkpoint, synthetic_mlm_batch
from pelt.tensor import (ParamStore, Tensor, _accum, _result, attention,
                         gather_rows, gelu, layer_norm, linear, no_grad,
                         tied_cross_entropy)

import reference_ops as ref
from reference_ops import add, matmul, mul, reshape, softmax, transpose, weighted_sum


def tsum(a):
    """Sum of every entry: the scalar these tests differentiate."""
    data = np.asarray(a.data.sum())

    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _result(data, (a,), backward)


def tmean(a):
    n = a.data.size
    data = np.asarray(a.data.sum() / n)

    def backward(g):
        _accum(a, np.full_like(a.data, float(g) / n))

    return _result(data, (a,), backward)


def t64(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    """The reference matmul the fused ops are compared against."""

    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = matmul(t64(np.eye(3)), t64(m))
        npt.assert_array_equal(out.data, m)

    def test_hand_example(self):
        out = matmul(t64([[1, 2], [3, 4]]), t64([[1], [1]]))
        npt.assert_array_equal(out.data, [[3], [7]])

    def test_grad_of_sum_against_ones_bt(self):
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(3, 4)), grad=True)
        b = t64(rng.normal(size=(4, 2)))
        tsum(matmul(a, b)).backward()
        npt.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        a = store.add("a", rng.normal(size=(3, 4)))
        b = store.add("b", rng.normal(size=(4, 2)))
        err = grad_check(lambda: tsum(mul(matmul(a, b), matmul(a, b))), store,
                         h=1e-5, samples=20)
        assert err < 1e-4

    def test_batched_backward(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        a = store.add("a", rng.normal(size=(2, 3, 4)))
        b = store.add("b", rng.normal(size=(2, 4, 3)))
        err = grad_check(lambda: tsum(matmul(a, b)), store, h=1e-5, samples=20)
        assert err < 1e-4


class TestLayerNorm:
    def test_hand_example_and_sqrt_d_norm(self):
        x = t64([[1.0, 2.0, 3.0]])
        out = layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)), 0.0)
        npt.assert_allclose(out.data[0], [-1.224744871, 0.0, 1.224744871], atol=1e-9)
        assert abs(np.linalg.norm(out.data[0]) - np.sqrt(3)) < 1e-9

    def test_constant_vector_with_eps(self):
        x = t64([[5.0, 5.0, 5.0, 5.0]])
        bias = t64([1.0, 2.0, 3.0, 4.0])
        out = layer_norm(x, t64(np.ones(4)), bias, 1e-5)
        npt.assert_allclose(out.data[0], bias.data, atol=1e-12)

    @given(st.integers(2, 16), st.sampled_from([0.1, 1.0, 7.0, 10.0]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, d, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (1, d))
        if np.std(x) < 1e-3:
            return
        g, b = t64(np.ones(d)), t64(np.zeros(d))
        base = layer_norm(t64(x), g, b, 0.0).data
        scaled = layer_norm(t64(c * x), g, b, 0.0).data
        npt.assert_allclose(scaled, base, atol=1e-12)

    @given(st.integers(2, 32), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_norm_is_sqrt_d(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (3, d))
        if (np.std(x, axis=-1) < 1e-3).any():
            return
        out = layer_norm(t64(x), t64(np.ones(d)), t64(np.zeros(d)), 0.0)
        npt.assert_allclose(np.linalg.norm(out.data, axis=-1),
                            np.full(3, np.sqrt(d)), atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError, match="feature size"):
            layer_norm(t64(np.zeros((2, 4))), t64(np.ones(3)), t64(np.zeros(3)), 0.0)
        for shape in [(3, 4), (2, 3), (1, 2, 4)]:
            with pytest.raises(ShapeError, match="residual"):
                layer_norm(t64(np.zeros((2, 4))), t64(np.ones(4)), t64(np.zeros(4)), 0.0,
                           residual=t64(np.zeros(shape)))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(t64(np.zeros((1, 3))), t64(np.ones(3)), t64(np.zeros(3)), -1.0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(4, 8)))
        g = store.add("g", rng.normal(1.0, 0.1, size=8))
        b = store.add("b", rng.normal(size=8))
        err = grad_check(lambda: tsum(mul(layer_norm(x, g, b, 1e-5),
                                          layer_norm(x, g, b, 1e-5))),
                         store, h=1e-5, samples=40)
        assert err < 1e-4

    @pytest.mark.parametrize("residual_shape", [(2, 3, 8), (3, 8)])
    def test_residual_grad_matches_finite_differences(self, residual_shape):
        # a residual of the input's shape (a sublayer's) or of its trailing
        # dims (position rows shared across the batch)
        rng = np.random.default_rng(len(residual_shape))
        store = ParamStore()
        x = store.add("x", rng.normal(size=(2, 3, 8)))
        r = store.add("r", rng.normal(size=residual_shape))
        g = store.add("g", rng.normal(1.0, 0.1, size=8))
        b = store.add("b", rng.normal(size=8))
        w = rng.normal(size=(2, 3, 8))
        err = grad_check(lambda: weighted_sum(mul(layer_norm(x, g, b, 1e-5, residual=r),
                                                  layer_norm(x, g, b, 1e-5, residual=r)), w),
                         store, h=1e-5, samples=60)
        assert err < 1e-4


def cross_entropy(logits, targets):
    """tied_cross_entropy over rows that are the logits themselves: emb = I."""
    return tied_cross_entropy(logits, t64(np.eye(logits.shape[1])), targets)


class TestTiedCrossEntropy:
    def test_uniform_two_way(self):
        loss = cross_entropy(t64([[0.0, 0.0]]), [0])
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_confident_logit(self):
        loss = cross_entropy(t64([[10.0, 0.0, 0.0]]), [0])
        expected = -np.log(np.exp(10.0) / (np.exp(10.0) + 2.0))
        assert abs(loss.item() - expected) < 1e-12
        assert abs(loss.item() - 9.08e-5) < 1e-7

    def test_gradient_sums_to_zero(self):
        logits = t64([[1.0, -2.0, 0.5, 3.0]], grad=True)
        cross_entropy(logits, [2]).backward()
        assert abs(logits.grad.sum()) < 1e-14

    def test_target_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            cross_entropy(t64([[0.0, 0.0]]), [2])

    def test_batch_mean(self):
        one = cross_entropy(t64([[1.0, 2.0]]), [1]).item()
        two = cross_entropy(t64([[3.0, -1.0]]), [0]).item()
        both = cross_entropy(t64([[1.0, 2.0], [3.0, -1.0]]), [1, 0]).item()
        assert abs(both - (one + two) / 2) < 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        logits = store.add("logits", rng.normal(size=(5, 7)))
        targets = rng.integers(0, 7, size=5)
        err = grad_check(lambda: cross_entropy(logits, targets), store,
                         h=1e-5, samples=35)
        assert err < 1e-4

    def test_grad_of_rows_and_embedding_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        store = ParamStore()
        r = store.add("r", rng.normal(size=(6, 5)))
        emb = store.add("emb", rng.normal(size=(9, 5)))
        targets = rng.integers(0, 9, size=6)
        err = grad_check(lambda: tied_cross_entropy(r, emb, targets), store,
                         h=1e-5, samples=75)
        assert err < 1e-6

    def test_shape_errors(self):
        for r, emb, targets in (((2, 3), (5, 4), [0, 1]), ((2, 3), (5, 3), [0]),
                                ((2, 1, 3), (5, 3), [0, 1])):
            with pytest.raises(ShapeError, match="tied_cross_entropy"):
                tied_cross_entropy(t64(np.zeros(r)), t64(np.zeros(emb)), targets)


class TestSoftmax:
    @given(st.integers(2, 20), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        s = softmax(t64(rng.normal(0, 3, (2, n))), axis=-1)
        npt.assert_allclose(s.data.sum(axis=-1), np.ones(2), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(3, 6)))
        w = Tensor(rng.normal(size=(3, 6)))
        err = grad_check(lambda: tsum(mul(softmax(x, -1), w)), store,
                         h=1e-5, samples=18)
        assert err < 1e-4


class TestElementwiseOps:
    def test_gelu_known_values(self):
        out = gelu(t64([0.0, 100.0, -100.0]))
        npt.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-12)

    def test_gelu_grad(self):
        rng = np.random.default_rng(6)
        store = ParamStore()
        x = store.add("x", rng.normal(size=12))
        err = grad_check(lambda: tsum(gelu(x)), store, h=1e-5, samples=12)
        assert err < 1e-4

    def test_add_bias_broadcast_grad(self):
        rng = np.random.default_rng(7)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(3, 4)))
        b = store.add("b", rng.normal(size=4))
        err = grad_check(lambda: tsum(mul(add(x, b), add(x, b))), store,
                         h=1e-5, samples=16)
        assert err < 1e-4

    def test_gather_reshape_transpose_grads(self):
        rng = np.random.default_rng(8)
        store = ParamStore()
        table = store.add("table", rng.normal(size=(6, 4)))
        idx = np.array([0, 3, 3, 5])

        def loss():
            g = gather_rows(table, idx)
            r = reshape(transpose(g, (1, 0)), (16,))
            return tmean(mul(r, r))

        err = grad_check(loss, store, h=1e-5, samples=24)
        assert err < 1e-4

    def test_gather_flat_rows_of_a_3d_table_grads(self):
        rng = np.random.default_rng(9)
        store = ParamStore()
        table = store.add("table", rng.normal(size=(2, 3, 4)))
        idx = np.array([[0, 5], [5, 2], [3, 3]])
        out = gather_rows(table, idx)
        npt.assert_array_equal(out.data, table.data.reshape(6, 4)[idx])
        err = grad_check(lambda: tmean(mul(gather_rows(table, idx), gather_rows(table, idx))),
                         store, h=1e-5, samples=24)
        assert err < 1e-4

    def test_gather_range_and_rank_errors(self):
        with pytest.raises(IndexError, match="6 rows"):
            gather_rows(t64(np.zeros((2, 3, 4))), [6])
        with pytest.raises(ShapeError, match="2-D or larger"):
            gather_rows(t64(np.zeros(4)), [0])

    def test_mixed_dtype_rejected(self):
        a, g, b = (Tensor(np.full(3, v, dtype=np.float32)) for v in (0.0, 1.0, 0.0))
        with pytest.raises(ShapeError, match="mixed dtypes"):
            layer_norm(a, g, b, 0.0, residual=Tensor(np.zeros(3, dtype=np.float64)))

    def test_no_grad_suppresses_tape(self):
        x = t64([1.0, 2.0], grad=True)
        with no_grad():
            y = tsum(mul(x, x))
        assert y._backward is None and not y.requires_grad


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        store = ParamStore()
        p = store.add("p", np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        Adam(store, lr=0.1).step()
        npt.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_by_lr(self):
        store = ParamStore()
        p = store.add("p", np.array([0.5]))
        p.grad = np.array([1.0])
        Adam(store, lr=0.01).step()
        assert abs((0.5 - p.data[0]) - 0.01) < 1e-6

    def test_moment_accumulation_without_zeroing(self):
        def run(n_steps):
            store = ParamStore()
            p = store.add("p", np.array([0.0]))
            opt = Adam(store, lr=0.1)
            p.grad = np.array([1.0])
            for _ in range(n_steps):
                opt.step()  # grads intentionally not re-zeroed
            return p.data[0]

        assert run(2) != run(1)

    def test_missing_gradient_raises(self):
        store = ParamStore()
        store.add("p", np.array([1.0]))
        with pytest.raises(ContractError, match="no gradient"):
            Adam(store, lr=0.1).step()


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        rng = np.random.default_rng(10)
        store = ParamStore()
        theta = store.add("theta", rng.normal(size=8))
        err = grad_check(lambda: tsum(mul(theta, theta)), store, h=1e-5, samples=8)
        assert err < 1e-9

    def test_zero_h_rejected(self):
        store = ParamStore()
        store.add("p", np.ones(2))
        for h in (0.0, -1e-5, float("nan")):
            with pytest.raises(ContractError, match="h > 0"):
                grad_check(lambda: tsum(store["p"]), store, h=h)

    def test_no_samples_rejected(self):
        store = ParamStore()
        store.add("p", np.ones(2))
        for samples in (0, -1):
            with pytest.raises(ContractError, match="samples >= 1"):
                grad_check(lambda: tsum(store["p"]), store, samples=samples)

    def test_float32_params_rejected(self):
        store = ParamStore()
        store.add("p", np.ones(2, dtype=np.float32))
        with pytest.raises(ContractError, match="float64"):
            grad_check(lambda: tsum(store["p"]), store)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("p", np.ones(1))
        with pytest.raises(ContractError, match="duplicate"):
            store.add("p", np.ones(1))

    def test_iteration_order_is_insertion_order(self):
        store = ParamStore()
        for name in ("zz", "aa", "mm"):
            store.add(name, np.ones(1))
        assert store.names() == ["zz", "aa", "mm"]


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes(), f"max |diff| {np.abs(a - b).max():.3e}"


def _padding_bias(b, n, dtype):
    pad = np.zeros((b, n), dtype=bool)
    pad[1, max(1, n - 2):] = True
    pad[2, max(1, n - 1):] = True
    return np.where(pad, -1e9, 0.0).astype(dtype)[:, None, None, :]


class TestFusedOps:
    """linear and attention against the composition they replace, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [16, 48, 64])
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5)])
    def test_linear_equals_matmul_plus_bias(self, dtype, d, shape):
        rng = np.random.default_rng(d + len(shape))
        arrays = {"x": rng.normal(size=shape + (d,)), "w": rng.normal(0, 0.2, (d, 4 * d)),
                  "b": rng.normal(size=4 * d)}
        upstream = rng.normal(size=shape + (4 * d,)).astype(dtype)

        def run(op):
            store = ParamStore()
            t = {name: store.add(name, a.astype(dtype)) for name, a in arrays.items()}
            out = op(t["x"], t["w"], t["b"])
            weighted_sum(out, upstream).backward()
            return [out.data] + [p.grad for _, p in store.items()]

        for got, want in zip(run(linear), run(ref.linear)):
            assert_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [16, 48, 64])
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("padded", [False, True])
    def test_attention_block_equals_composition(self, dtype, d, n, heads, padded):
        # q, k, v and output projections of one input, then the Add & Norm of
        # that input as the residual, so it collects four gradients in the
        # encoder's order
        rng = np.random.default_rng(d * 100 + n * 10 + heads)
        b = 3
        arrays = {"x": rng.normal(size=(b, n, d))}
        for c in "qkvo":
            arrays["w" + c] = rng.normal(0, 0.3, (d, d))
            arrays["b" + c] = rng.normal(0, 0.1, d)
        arrays["ln.g"], arrays["ln.b"] = rng.normal(1.0, 0.1, d), rng.normal(0, 0.1, d)
        bias = _padding_bias(b, n, dtype) if padded else None
        upstream = rng.normal(size=(b, n, d)).astype(dtype)

        def run(lin, att, ln):
            store = ParamStore()
            t = {name: store.add(name, a.astype(dtype)) for name, a in arrays.items()}
            q, k, v = (lin(t["x"], t["w" + c], t["b" + c]) for c in "qkv")
            ctx = att(q, k, v, heads, bias)
            out = ln(lin(ctx, t["wo"], t["bo"]), t["ln.g"], t["ln.b"], 1e-5, residual=t["x"])
            weighted_sum(out, upstream).backward()
            return [ctx.data, out.data] + [p.grad for _, p in store.items()]

        for got, want in zip(run(linear, attention, layer_norm),
                             run(ref.linear, ref.attention, ref.layer_norm)):
            assert_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("residual_shape", [(3, 5, 16), (5, 16)])
    def test_layer_norm_residual_equals_add_then_layer_norm(self, dtype, residual_shape):
        # a sublayer's residual of the input's shape, and position rows
        # shared across the batch: output and both input gradients
        rng = np.random.default_rng(len(residual_shape))
        arrays = {"x": rng.normal(size=(3, 5, 16)), "r": rng.normal(size=residual_shape),
                  "g": rng.normal(1.0, 0.1, 16), "b": rng.normal(0, 0.1, 16)}
        upstream = rng.normal(size=(3, 5, 16)).astype(dtype)

        def run(ln):
            store = ParamStore()
            t = {name: store.add(name, a.astype(dtype)) for name, a in arrays.items()}
            out = ln(t["x"], t["g"], t["b"], 1e-5, residual=t["r"])
            weighted_sum(out, upstream).backward()
            return [out.data] + [p.grad for _, p in store.items()]

        for got, want in zip(run(layer_norm), run(ref.layer_norm)):
            assert_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [16, 48, 64])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_tied_cross_entropy_equals_matmul_transpose_softmax_ce(self, dtype, d, n):
        # the embedding also feeds the rows through a gather, as in the model,
        # so it collects the head's gradient and the lookup's
        rng = np.random.default_rng(d + n)
        arrays = {"emb": rng.normal(0, 0.5, (40, d)), "w": rng.normal(0, 0.3, (d, d))}
        tokens, targets = rng.integers(40, size=n), rng.integers(40, size=n)

        def run(ce):
            store = ParamStore()
            t = {name: store.add(name, a.astype(dtype)) for name, a in arrays.items()}
            r = layer_norm(linear(gather_rows(t["emb"], tokens), t["w"], Tensor(np.zeros(d, dtype))),
                           Tensor(np.ones(d, dtype)), Tensor(np.zeros(d, dtype)), 1e-5)
            loss = ce(r, t["emb"], targets)
            loss.backward()
            return [loss.data] + [p.grad for _, p in store.items()]

        for got, want in zip(run(tied_cross_entropy), run(ref.tied_cross_entropy)):
            assert_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 16), (3, 5, 16), (2, 3, 4, 8)])
    @pytest.mark.parametrize("rows", [[0], [4, 1, 4, 2], [[0, 5], [5, 5]]])
    def test_gather_rows_equals_reshape_then_gather(self, dtype, shape, rows):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape).astype(dtype)
        upstream = rng.normal(size=np.shape(rows) + shape[-1:]).astype(dtype)

        def run(gather):
            xt = Tensor(x.copy(), requires_grad=True)
            out = gather(xt, rows)
            weighted_sum(out, upstream).backward()
            return out.data, xt.grad

        for got, want in zip(run(gather_rows), run(ref.gather_rows)):
            assert_bits(got, want)

    def test_linear_grad_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(2, 3, 6)))
        w = store.add("w", rng.normal(size=(6, 5)))
        b = store.add("b", rng.normal(size=5))
        err = grad_check(lambda: tsum(mul(linear(x, w, b), linear(x, w, b))), store,
                         h=1e-5, samples=60)
        assert err < 1e-4

    @pytest.mark.parametrize("padded", [False, True])
    def test_attention_grad_matches_finite_differences(self, padded):
        rng = np.random.default_rng(14)
        store = ParamStore()
        q, k, v = (store.add(name, rng.normal(size=(3, 5, 8))) for name in "qkv")
        bias = _padding_bias(3, 5, np.float64) if padded else None
        w = Tensor(rng.normal(size=(3, 5, 8)))
        err = grad_check(lambda: tsum(mul(attention(q, k, v, 2, bias),
                                          add(attention(q, k, v, 2, bias), w))),
                         store, h=1e-5, samples=120)
        assert err < 1e-4

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="linear"):
            linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))), t64(np.zeros(5)))
        with pytest.raises(ShapeError, match="linear"):
            linear(t64(np.zeros((2, 3))), t64(np.zeros((3, 5))), t64(np.zeros(4)))
        with pytest.raises(ShapeError, match="attention"):
            x = t64(np.zeros((1, 2, 6)))
            attention(x, x, x, 4)


class TestFastPaths:
    """attention's key-major row max and gather_rows' flat scatter-add against
    the generic softmax and the 2-D np.add.at, bit for bit."""

    @staticmethod
    def _attention_pair(arrays, heads, bias, upstream):
        def run(att):
            store = ParamStore()
            t = {name: store.add(name, a.copy()) for name, a in arrays.items()}
            out = att(t["q"], t["k"], t["v"], heads, bias)
            weighted_sum(out, upstream).backward()
            return [out.data] + [p.grad for _, p in store.items()]

        return run(attention), run(ref.attention)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 2, 32])
    @pytest.mark.parametrize("n", [1, 2, 10, 16, 40])
    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_equals_generic_softmax(self, dtype, b, n, masked):
        rng = np.random.default_rng(b * 100 + n)
        arrays = {c: rng.normal(0, 1.5, (b, n, 16)).astype(dtype) for c in "qkv"}
        arrays["q"][0, 0] = 0.0  # every score of this query row is equal
        bias = None
        if masked:
            pad = rng.random((b, n)) < 0.3
            pad[:, 0] = False
            bias = np.where(pad, -1e9, 0.0).astype(dtype)[:, None, None, :]
        upstream = rng.normal(size=(b, n, 16)).astype(dtype)
        got, want = self._attention_pair(arrays, 4, bias, upstream)
        for g, w in zip(got, want):
            assert_bits(g, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_nonfinite_rows_propagate_as_before(self, dtype):
        rng = np.random.default_rng(7)
        b, n = 3, 10
        arrays = {c: rng.normal(size=(b, n, 16)).astype(dtype) for c in "qkv"}
        arrays["q"][1, 2, :4] = np.nan  # one query row of head 0 scores nan
        bias = np.zeros((b, 1, 1, n), dtype=dtype)
        bias[2] = -np.inf  # every key of sequence 2 masked: -inf - -inf rows
        upstream = rng.normal(size=(b, n, 16)).astype(dtype)
        with np.errstate(invalid="ignore"):
            got, want = self._attention_pair(arrays, 4, bias, upstream)
        assert np.isnan(got[0][1, 2]).any() and np.isnan(got[0][2]).all()
        assert np.isfinite(got[0][0]).all()
        for g, w in zip(got, want):
            assert_bits(g, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(9, 8), (3, 4, 8)])
    @pytest.mark.parametrize("rows", [[4, 1, 4, 2, 4, 1], [3] * 7, [[0, 5], [5, 0]], []])
    def test_gather_rows_grad_equals_2d_add_at(self, dtype, shape, rows):
        rng = np.random.default_rng(len(rows))
        idx = np.asarray(rows, dtype=np.int64)
        upstream = rng.normal(size=idx.shape + shape[-1:]).astype(dtype)
        flat = upstream.reshape(-1, shape[-1])
        flat[::2, 0] = -0.0
        if len(flat) > 1:
            flat[1] = -flat[0]  # duplicate rows whose contributions cancel to zero
        xt = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        weighted_sum(gather_rows(xt, idx), upstream).backward()
        want = np.zeros((xt.data.size // shape[-1], shape[-1]), dtype=dtype)
        np.add.at(want, idx.reshape(-1), flat)
        assert_bits(xt.grad, want.reshape(shape))
        assert (np.signbit(xt.grad) == np.signbit(want.reshape(shape))).all()


class TestInPlaceKernels:
    """The in-place gelu and layer_norm against the expressions they replace."""

    @given(st.sampled_from([16, 48, 64, 256]), st.sampled_from([np.float32, np.float64]),
           st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_layer_norm_equals_mean_expression(self, d, dtype, rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(rng.normal(0, 3), rng.uniform(0.1, 5), (2, rows, d)).astype(dtype)
        gain = rng.normal(1.0, 0.1, d).astype(dtype)
        bias = rng.normal(0.0, 0.1, d).astype(dtype)
        upstream = rng.normal(size=(2, rows, d)).astype(dtype)
        store = ParamStore()
        xt, gt, bt = (store.add(n, a.copy()) for n, a in (("x", x), ("g", gain), ("b", bias)))
        out = layer_norm(xt, gt, bt, 1e-5)
        weighted_sum(out, upstream).backward()
        want = ref.layer_norm_arrays(x, gain, bias, 1e-5, upstream)
        for got, expected in zip((out.data, xt.grad, gt.grad, bt.grad), want):
            assert_bits(got, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_equals_reference_expression(self, dtype):
        rng = np.random.default_rng(15)
        x = np.concatenate([rng.normal(0, s, 4000) for s in (0.1, 1.0, 4.0, 30.0)]).astype(dtype)
        upstream = rng.normal(size=x.shape).astype(dtype)
        xt = Tensor(x.copy(), requires_grad=True)
        out = gelu(xt)
        weighted_sum(out, upstream).backward()
        want_out, want_grad = ref.gelu_arrays(x, upstream)
        assert_bits(out.data, want_out)
        assert_bits(xt.grad, want_grad)
        assert_bits(xt.data, x)  # the input is not overwritten

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [16, 48, 64])
    @pytest.mark.parametrize("rows", [[], [7], [0, 4, 5, 11, 14], list(range(15))],
                             ids=["none", "one", "some", "all"])
    def test_gelu_on_rows_is_full_gelu_there_and_zero_elsewhere(self, dtype, d, rows):
        rng = np.random.default_rng(d)
        x = rng.normal(0, 2, (3, 5, d)).astype(dtype)
        upstream = rng.normal(size=x.shape).astype(dtype)
        live = np.zeros((3, 5), dtype=bool)
        live.reshape(-1)[rows] = True
        full_t, xt = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        full, out = gelu(full_t), gelu(xt, np.asarray(rows, dtype=np.intp))
        weighted_sum(full, upstream).backward()
        weighted_sum(out, upstream).backward()
        for got, want in ((out.data, full.data), (xt.grad, full_t.grad)):
            assert_bits(got[live], want[live])
            assert got.dtype == dtype and got.shape == x.shape
            assert_bits(got[~live], np.zeros_like(got[~live]))
        assert_bits(xt.data, x)


class TestFlatAdam:
    def test_five_steps_equal_per_parameter_adam(self):
        rng = np.random.default_rng(16)
        shapes = [(6, 4), (4,), (9,), (3, 5), (1,)]
        init = [rng.normal(size=s).astype(np.float32) for s in shapes]
        store = ParamStore()
        params = [store.add(f"p{i}", a.copy()) for i, a in enumerate(init)]
        opt = Adam(store, lr=0.05)
        assert all(p.data.base is params[0].data.base for p in params)
        want = [a.copy() for a in init]
        m = [np.zeros_like(a) for a in init]
        v = [np.zeros_like(a) for a in init]
        for t in range(1, 6):
            grads = [rng.normal(size=s).astype(np.float32) for s in shapes]
            store.zero_grad()
            for p, g in zip(params, grads):
                _accum(p, g)
            opt.step(lr=0.05 * t / 5)
            ref.adam_step(want, grads, m, v, t, 0.05 * t / 5)
        for p, w in zip(params, want):
            assert_bits(p.data, w)

    def test_tape_gradients_share_no_memory(self):
        ckpt = synthetic_checkpoint(dim=16, layers=2, heads=2, vocab_size=40,
                                    max_len=16, seed=5, dtype=np.float32)
        Adam(ckpt.params)
        tokens, targets = synthetic_mlm_batch(40, batch=3, length=8, seed=1)
        mlm_loss(ckpt.params, ckpt.config, tokens, targets).backward()
        params = [p for _, p in ckpt.params.items()]
        assert all(p.grad is not None and p.grad.dtype == np.float32 for p in params)
        for i, p in enumerate(params):
            assert not any(np.shares_memory(p.grad, q.grad) for q in params[i + 1:])
            assert not any(np.shares_memory(p.grad, q.data) for q in params)

    def test_accum_never_writes_into_a_borrowed_gradient(self):
        store = ParamStore()
        p = store.add("p", np.zeros(3))
        Adam(store)
        g = np.array([1.0, 2.0, 3.0])
        _accum(p, g, owned=False)
        assert p.grad is not g
        _accum(p, g)
        npt.assert_array_equal(p.grad, 2 * g)
        npt.assert_array_equal(g, [1.0, 2.0, 3.0])
        store.zero_grad()
        assert p.grad is None

    def test_gradient_set_by_hand_is_what_step_applies(self):
        rng = np.random.default_rng(17)
        shapes = [(3, 5), (4,)]
        init = [rng.normal(size=s).astype(np.float32) for s in shapes]
        store = ParamStore()
        params = [store.add(f"p{i}", a.copy()) for i, a in enumerate(init)]
        opt = Adam(store, lr=0.1)
        want = [a.copy() for a in init]
        m = [np.zeros_like(a) for a in init]
        v = [np.zeros_like(a) for a in init]
        for t in range(1, 3):
            # a transposed (non-contiguous) view and a plain array, set outside the tape
            grads = [rng.normal(size=(5, 3)).astype(np.float32).T,
                     rng.normal(size=4).astype(np.float32)]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            ref.adam_step(want, grads, m, v, t, 0.1)
        for p, w in zip(params, want):
            assert_bits(p.data, w)

    def test_mixed_dtypes_not_packed(self):
        store = ParamStore()
        store.add("a", np.ones(2, dtype=np.float32))
        store.add("b", np.ones(2, dtype=np.float64))
        with pytest.raises(ContractError, match="mixed dtypes"):
            Adam(store)
