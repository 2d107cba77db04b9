"""Tensor engine: op examples, gradient oracles, graph contracts."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import autodiff as ad
from paeff.autodiff import Tensor
from paeff.errors import ContractError, DimensionError, IndexOutOfRangeError, NumericError
from paeff.gradcheck import check_gradients


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


class TestMatmul:
    def test_identity(self):
        a = rand((2, 2), 1)
        out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.numpy(), a)

    def test_hand_oracle(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.numpy(), [[3.0], [7.0]])

    def test_zero(self):
        a = rand((3, 3), 2)
        out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(a))
        np.testing.assert_array_equal(out.numpy(), np.zeros((2, 3)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients(self):
        check_gradients(lambda a, b: ad.matmul(a, b).sum(), [rand((2, 3), 3), rand((3, 4), 4)])


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_relu(self):
        out = ad.relu(Tensor([-3.0, 2.0]))
        np.testing.assert_array_equal(out.numpy(), [0.0, 2.0])

    def test_tanh_against_stdlib(self):
        assert ad.tanh(Tensor(0.5)).item() == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert ad.tanh(Tensor(0.5)).item() == pytest.approx(0.46211715726000974, abs=1e-15)

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2))) + Tensor(np.ones((3, 2)))

    def test_scalar_broadcast(self):
        out = Tensor([[1.0, 2.0]]) * Tensor(3.0)
        np.testing.assert_array_equal(out.numpy(), [[3.0, 6.0]])

    def test_scalar_broadcast_gradient(self):
        check_gradients(lambda a, s: (a * s).sum(), [rand((3, 2), 5), np.array(0.7)])

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: ad.tanh(x).sum(),
            lambda x: ad.sigmoid(x).sum(),
            lambda x: ad.relu(x + 0.05).sum(),
            lambda x: ad.exp(x).sum(),
            lambda x: (-x).sum(),
            lambda x: (x * 2.5).sum(),
            lambda x: (x * x).sum(),
            lambda x: (x / 3.0).sum(),
            lambda x: ad.absolute(x + 0.1).sum(),
            lambda x: ad.clamp_min(x, -0.2).sum(),
            lambda x: ad.clamp_max(x, 0.2).sum(),
        ],
    )
    def test_unary_gradients(self, fn):
        check_gradients(fn, [rand((3, 4), 6, 0.8)])

    def test_log_and_sqrt_gradients(self):
        check_gradients(lambda x: ad.sqrt(x).sum(), [np.abs(rand((3, 3), 8)) + 0.5])
        check_gradients(lambda x: ad.artanh(x).sum(), [rand((3, 3), 9, 0.4)])

    def test_domain_errors(self):
        with pytest.raises(NumericError):
            ad.sqrt(Tensor([-1.0]))
        with pytest.raises(NumericError):
            ad.artanh(Tensor([1.0]))


class TestReductions:
    def test_sum(self):
        assert Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0

    def test_norm2_pythagorean(self):
        assert Tensor([3.0, 4.0]).norm2().item() == 5.0

    def test_axis_out_of_range(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2))).sum(axis=2)

    def test_norm2_gradient_at_zero_is_zero(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        t.norm2().backward()
        np.testing.assert_array_equal(t.grad, np.zeros(3))

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_reduction_gradients(self, axis, keepdims):
        check_gradients(lambda x: x.sum(axis=axis, keepdims=keepdims).norm2(), [rand((3, 4), 10)])
        check_gradients(
            lambda x: x.norm2(axis=axis, keepdims=keepdims).sum(), [rand((3, 4), 12) + 0.3]
        )


class TestStructuralOps:
    def test_structural_gradients(self):
        check_gradients(lambda a, b: ad.concat_cols(a, b).norm2(), [rand((2, 3), 13), rand((2, 2), 14)])
        check_gradients(lambda a: a.reshape(6).norm2(), [rand((2, 3), 18)])
        check_gradients(lambda a: a.transpose().norm2(), [rand((2, 3), 19)])


class TestBroadcasting:
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    @pytest.mark.parametrize("shape", [(1, 4), (3, 1)], ids=["row", "column"])
    def test_gradients(self, op, shape):
        # magnitudes kept >= 0.5 so either side can be a divisor
        a = np.abs(rand((3, 4), 15)) + 0.5
        b = np.abs(rand(shape, 16)) + 0.5
        check_gradients(lambda x, y: op(x, y).norm2(), [a, b])
        check_gradients(lambda x, y: op(y, x).norm2(), [a, b])

    def test_both_sides_broadcast_gradient(self):
        check_gradients(lambda a, b: (a + b).norm2(), [rand((3, 1), 17), rand((1, 3), 18)])

    def test_layout(self):
        col = Tensor([[1.0], [2.0]])
        row = Tensor([[10.0, 20.0, 30.0]])
        np.testing.assert_array_equal((col * row).numpy(), [[10, 20, 30], [20, 40, 60]])
        np.testing.assert_array_equal(
            (Tensor(np.zeros((2, 3))) + row - col).numpy(), [[9, 19, 29], [8, 18, 28]]
        )

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((3,), (3, 1)), ((1, 1), (3,))])
    def test_incompatible_shapes_rejected(self, shapes):
        a, b = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(DimensionError):
            a + b


class TestLogSoftmaxNll:
    def test_uniform_logits(self):
        loss = ad.log_softmax_nll(Tensor(np.zeros((1, 4))), np.array([2]))
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct(self):
        # direct formula: -log(e^10 / (e^10 + e^-10)) = log(1 + e^-20)
        loss = ad.log_softmax_nll(Tensor([[10.0, -10.0]]), np.array([0]))
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
        assert loss.item() == pytest.approx(2.061e-9, rel=1e-3)

    def test_identical_rows_mean_equals_single(self):
        row = rand((1, 5), 20)
        single = ad.log_softmax_nll(Tensor(row), np.array([3])).item()
        double = ad.log_softmax_nll(Tensor(np.vstack([row, row])), np.array([3, 3])).item()
        assert double == pytest.approx(single, abs=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            ad.log_softmax_nll(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient(self):
        check_gradients(lambda x: ad.log_softmax_nll(x, np.array([1, 0, 2])), [rand((3, 4), 21)])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(rand((2, 3), 22), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        data = rand((4,), 23)
        x = Tensor(data, requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * data, atol=1e-15)

    def test_non_scalar_root_rejected(self):
        x = Tensor(rand((2, 2), 24), requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_repeated_backward_rejected(self):
        x = Tensor(rand((3,), 25), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(ContractError):
            loss.backward()

    def test_separate_roots_accumulate(self):
        data = rand((3,), 26)
        x = Tensor(data, requires_grad=True)
        ad.tanh(x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, first + 2 * data, atol=1e-15)

    def test_linearity_of_gradients(self):
        data = rand((3, 3), 27)

        def grad_of(f):
            t = Tensor(data, requires_grad=True)
            f(t).backward()
            return t.grad

        combined = grad_of(lambda t: ad.sigmoid(t).sum() + (t * t).sum())
        separate = grad_of(lambda t: ad.sigmoid(t).sum()) + grad_of(lambda t: (t * t).sum())
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_shared_subexpression(self):
        # y appears twice in the graph; its gradient must accumulate once per use
        data = rand((3,), 28)
        x = Tensor(data, requires_grad=True)
        y = ad.tanh(x)
        (y * y).sum().backward()
        t = np.tanh(data)
        np.testing.assert_allclose(x.grad, 2 * t * (1 - t * t), atol=1e-14)

    def test_determinism(self):
        def build():
            x = Tensor(rand((4, 4), 29), requires_grad=True)
            loss = ad.log_softmax_nll(ad.matmul(ad.tanh(x), rand((4, 3), 30)), np.array([0, 1, 2, 0]))
            loss.backward()
            return loss.item(), x.grad.copy()

        l1, g1 = build()
        l2, g2 = build()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_composite_graph_matches_finite_differences(rows, cols, seed):
    """Random composite graphs agree with central differences (<= 1e-4 relative)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols)) * 0.8
    w = rng.normal(size=(cols, 3)) * 0.8

    def f(a, b):
        h = ad.tanh(ad.matmul(a, b))
        return (ad.sigmoid(h) * h).sum() + h.norm2() * 0.1

    worst = check_gradients(f, [x, w], step=1e-6, tol=1e-4)
    assert worst <= 1e-4
