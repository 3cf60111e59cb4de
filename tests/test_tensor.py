"""Tensor engine: op semantics, gradients, Adam, and the checker itself."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelt.errors import ContractError, ShapeError
from pelt.gradcheck import grad_check
from pelt.optim import Adam
from pelt.tensor import (ParamStore, Tensor, _accum, _result, add, dot,
                         gather_rows, gelu, layer_norm, matmul, mul, no_grad,
                         reshape, softmax, softmax_cross_entropy, transpose)


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
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = matmul(t64(np.eye(3)), t64(m))
        npt.assert_array_equal(out.data, m)

    def test_hand_example(self):
        out = matmul(t64([[1, 2], [3, 4]]), t64([[1], [1]]))
        npt.assert_array_equal(out.data, [[3], [7]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))

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


class TestSoftmaxCrossEntropy:
    def test_uniform_two_way(self):
        loss = softmax_cross_entropy(t64([[0.0, 0.0]]), [0])
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_confident_logit(self):
        loss = softmax_cross_entropy(t64([[10.0, 0.0, 0.0]]), [0])
        expected = -np.log(np.exp(10.0) / (np.exp(10.0) + 2.0))
        assert abs(loss.item() - expected) < 1e-12
        assert abs(loss.item() - 9.08e-5) < 1e-7

    def test_gradient_sums_to_zero(self):
        logits = t64([[1.0, -2.0, 0.5, 3.0]], grad=True)
        softmax_cross_entropy(logits, [2]).backward()
        assert abs(logits.grad.sum()) < 1e-14

    def test_target_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            softmax_cross_entropy(t64([[0.0, 0.0]]), [2])

    def test_batch_mean(self):
        one = softmax_cross_entropy(t64([[1.0, 2.0]]), [1]).item()
        two = softmax_cross_entropy(t64([[3.0, -1.0]]), [0]).item()
        both = softmax_cross_entropy(t64([[1.0, 2.0], [3.0, -1.0]]), [1, 0]).item()
        assert abs(both - (one + two) / 2) < 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        logits = store.add("logits", rng.normal(size=(5, 7)))
        targets = rng.integers(0, 7, size=5)
        err = grad_check(lambda: softmax_cross_entropy(logits, targets), store,
                         h=1e-5, samples=35)
        assert err < 1e-4


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

    def test_add_constant_shape_guard(self):
        with pytest.raises(ShapeError):
            add(t64(np.zeros(3)), np.zeros((2, 3)))

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

    def test_dot_grad(self):
        rng = np.random.default_rng(9)
        store = ParamStore()
        a = store.add("a", rng.normal(size=5))
        b = store.add("b", rng.normal(size=5))
        err = grad_check(lambda: dot(a, b), store, h=1e-5, samples=10)
        assert err < 1e-4

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.zeros(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(ShapeError, match="mixed dtypes"):
            add(a, b)

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
