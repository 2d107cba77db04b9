"""Tensor engine: op examples, gradient oracles, graph contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import autodiff as ad
from paeff import losses
from paeff.autodiff import Tensor
from paeff.errors import ContractError

from chain_check import (
    absolute, add, artanh, assert_matches_chain, axis_sum, clamp_max, clamp_min, concat_cols, div, exp, matmul, mul,
    norm2, relu, reshape, sigmoid, sqrt, sub, tanh, transpose,
)
from gradcheck import check_gradients


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


class TestMatmul:
    """The chains' matrix product."""

    def test_identity(self):
        a = rand((2, 2), 1)
        out = matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.numpy(), a)

    def test_hand_oracle(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.numpy(), [[3.0], [7.0]])

    def test_zero(self):
        a = rand((3, 3), 2)
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(a))
        np.testing.assert_array_equal(out.numpy(), np.zeros((2, 3)))

    def test_gradients(self):
        check_gradients(lambda a, b: matmul(a, b).sum(), [rand((2, 3), 3), rand((3, 4), 4)])


class TestElementwise:
    def test_relu(self):
        out = relu(Tensor([-3.0, 2.0]))
        np.testing.assert_array_equal(out.numpy(), [0.0, 2.0])

    def test_tanh_against_stdlib(self):
        assert tanh(Tensor(0.5)).item() == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert tanh(Tensor(0.5)).item() == pytest.approx(0.46211715726000974, abs=1e-15)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ContractError, match=r"add: operand shapes \(2, 2\) and \(3, 2\) differ"):
            Tensor(np.ones((2, 2))) + Tensor(np.ones((3, 2)))

    def test_scalar_broadcast(self):
        out = Tensor([[1.0, 2.0]]) * Tensor(3.0)
        np.testing.assert_array_equal(out.numpy(), [[3.0, 6.0]])

    def test_scalar_broadcast_gradient(self):
        check_gradients(lambda a, s: (a * s).sum(), [rand((3, 2), 5), np.array(0.7)])

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: tanh(x).sum(),
            lambda x: sigmoid(x).sum(),
            lambda x: relu(x + 0.05).sum(),
            lambda x: exp(x).sum(),
            lambda x: (x * -1.0).sum(),
            lambda x: (x * 2.5).sum(),
            lambda x: (x * x).sum(),
            lambda x: div(x, 3.0).sum(),
            lambda x: absolute(x + 0.1).sum(),
            lambda x: clamp_min(x, -0.2).sum(),
            lambda x: clamp_max(x, 0.2).sum(),
        ],
    )
    def test_unary_gradients(self, fn):
        check_gradients(fn, [rand((3, 4), 6, 0.8)])

    def test_log_and_sqrt_gradients(self):
        check_gradients(lambda x: sqrt(x).sum(), [np.abs(rand((3, 3), 8)) + 0.5])
        check_gradients(lambda x: artanh(x).sum(), [rand((3, 3), 9, 0.4)])


class TestReductions:
    def test_sum(self):
        assert Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0

    def test_scalars_stay_0d(self):
        assert Tensor(0.5).shape == ()
        assert Tensor([1.0, 2.0]).sum().shape == ()
        assert Tensor([0.5]).shape == (1,)
        t = Tensor(np.arange(6.0).reshape(3, 2).T)
        assert t.data.flags.c_contiguous

    def test_norm2_pythagorean(self):
        assert norm2(Tensor([3.0, 4.0])).item() == 5.0

    def test_norm2_gradient_at_zero_is_zero(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        norm2(t).backward()
        np.testing.assert_array_equal(t.grad, np.zeros(3))

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_reduction_gradients(self, axis, keepdims):
        check_gradients(lambda x: norm2(axis_sum(x, axis, keepdims)), [rand((3, 4), 10)])
        check_gradients(lambda x: norm2(x, axis, keepdims).sum(), [rand((3, 4), 12) + 0.3])


class TestDtype:
    @pytest.mark.parametrize("value, dtype", [
        (np.ones(3, dtype=np.float32), np.float32), (np.float32(2.0), np.float32), (np.ones(3), np.float64),
        ([1, 2], np.float64), (np.ones(3, dtype=np.float16), np.float64), (np.array([True]), np.float64),
        (0.5, np.float64),
    ])
    def test_float32_kept_anything_else_float64(self, value, dtype):
        assert Tensor(value).data.dtype == dtype

    def test_float32_graph_computes_and_backpropagates_in_float32(self):
        x = Tensor(rand((3, 4), 20).astype(np.float32), requires_grad=True)
        w = Tensor(rand((4, 2), 21).astype(np.float32), requires_grad=True)
        y = ad.affine(x, w, Tensor(np.zeros(2, dtype=np.float32)))
        out = y * 2.0 + y * y
        assert (y.data.dtype, out.data.dtype) == (np.float32, np.float32)
        out.sum().backward()
        assert (x.grad.dtype, w.grad.dtype) == (np.float32, np.float32)


class TestStructuralOps:
    def test_structural_gradients(self):
        check_gradients(lambda a, b: norm2(concat_cols(a, b)), [rand((2, 3), 13), rand((2, 2), 14)])
        check_gradients(lambda a: norm2(reshape(a, 6)), [rand((2, 3), 18)])
        check_gradients(lambda a: norm2(transpose(a)), [rand((2, 3), 19)])


class TestBroadcasting:
    """The chains' binary ops broadcast size-1 axes; the engine's take equal shapes or a scalar."""

    @pytest.mark.parametrize("op", [add, sub, mul, div], ids=["add", "sub", "mul", "truediv"])
    @pytest.mark.parametrize("shape", [(1, 4), (3, 1)], ids=["row", "column"])
    def test_gradients(self, op, shape):
        # magnitudes kept >= 0.5 so either side can be a divisor
        a = np.abs(rand((3, 4), 15)) + 0.5
        b = np.abs(rand(shape, 16)) + 0.5
        check_gradients(lambda x, y: norm2(op(x, y)), [a, b])
        check_gradients(lambda x, y: norm2(op(y, x)), [a, b])

    def test_both_sides_broadcast_gradient(self):
        check_gradients(lambda a, b: norm2(add(a, b)), [rand((3, 1), 17), rand((1, 3), 18)])

    def test_layout(self):
        col = Tensor([[1.0], [2.0]])
        row = Tensor([[10.0, 20.0, 30.0]])
        np.testing.assert_array_equal(mul(col, row).numpy(), [[10, 20, 30], [20, 40, 60]])
        np.testing.assert_array_equal(sub(add(Tensor(np.zeros((2, 3))), row), col).numpy(), [[9, 19, 29], [8, 18, 28]])

    @pytest.mark.parametrize(
        "shapes", [((2, 3), (3, 2)), ((3,), (3, 1)), ((1, 1), (3,)), ((3, 4), (3, 1)), ((3, 1), (1, 3))]
    )
    def test_incompatible_shapes_rejected(self, shapes):
        a, b = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ContractError, match="add: operand shapes .* differ"):
            a + b
        with pytest.raises(ContractError, match="mul: operand shapes .* differ"):
            b * a

    # The last pair is of equal shape, the engine's other binary case.
    @pytest.mark.parametrize(
        "shapes", [((3, 4), ()), ((), (3, 4)), ((3, 4), (1, 1)), ((1,), (2, 2)), ((3, 4), (3, 4))]
    )
    def test_scalar_operand_gradients(self, shapes):
        a, b = (rand(s, 19) + 0.5 for s in shapes)
        check_gradients(lambda x, y: ((x + y) * (x * y)).sum(), [a, b])


def shrink(n):
    """Radius function phi(n) = 1 / (1 + n)."""
    return 1.0 / (1.0 + n), -1.0 / (1.0 + n) ** 2


def grow(n):
    """Radius function phi(n) = 1 + n^2, whose phi' / n stays finite at 0."""
    return 1.0 + n * n, 2.0 * n


class TestRadial:
    ROWS = np.vstack([rand((3, 4), 31), np.zeros((1, 4))])

    def test_one_map_matches_chain(self):
        assert_matches_chain(
            lambda x: ad.radial(x, shrink), lambda x: div(x, norm2(x, 1, True) + 1.0), [self.ROWS]
        )

    def test_maps_compose_in_order(self):
        def chain(x):
            y = div(x, norm2(x, 1, True) + 1.0)
            n = norm2(y, 1, True)
            return mul(y, n * n + 1.0)

        assert_matches_chain(lambda x: ad.radial(x, shrink, grow), chain, [self.ROWS])

    def test_gradients(self):
        check_gradients(lambda x: norm2(ad.radial(x, shrink, grow)), [self.ROWS])

    def test_zero_row_passes_gradient_times_phi0(self):
        x = Tensor(np.zeros((1, 3)), requires_grad=True)
        (ad.radial(x, grow) * Tensor([[1.0, -2.0, 0.5]])).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, -2.0, 0.5]])

    def test_rows_only(self):
        with pytest.raises(ContractError, match=r"radial needs \[B x D\] rows, got shape \(3,\)"):
            ad.radial(Tensor([0.1, 0.2, 0.3]), shrink)


class TestAffine:
    def test_matches_chain(self):
        arrays = [rand((3, 2), 32), rand((2, 4), 33), rand((4,), 34)]
        assert_matches_chain(ad.affine, lambda x, w, b: add(matmul(x, w), reshape(b, 1, 4)), arrays)

    def test_gradients(self):
        arrays = [rand((3, 2), 35), rand((2, 4), 36), rand((4,), 37)]
        check_gradients(lambda x, w, b: norm2(ad.affine(x, w, b)), arrays)

    @pytest.mark.parametrize("shapes", [((3, 2), (3, 4), (4,)), ((3, 2), (2, 4), (3,)), ((2,), (2, 4), (4,))])
    def test_shape_mismatch(self, shapes):
        x, w, b = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ContractError, match="affine: incompatible shapes"):
            ad.affine(x, w, b)

    def test_input_without_grad_is_no_parent(self):
        w, b = Tensor(rand((2, 4), 38), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        out = ad.affine(Tensor(rand((3, 2), 39)), w, b)
        assert out._parents == (w, b)


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

    def test_interior_nodes_are_consumed(self):
        data = rand((3,), 44)
        x = Tensor(data, requires_grad=True)
        y = tanh(x)
        (y * y).sum().backward()
        assert y.grad is None and y._parents == () and y._vjps == ()
        np.testing.assert_allclose(x.grad, 2 * np.tanh(data) * (1 - np.tanh(data) ** 2), atol=1e-14)

    def test_backward_through_consumed_node_rejected(self):
        x = Tensor(rand((3,), 45), requires_grad=True)
        y = tanh(x)
        y.sum().backward()
        with pytest.raises(ContractError, match="consumed"):
            (y * 2.0).sum().backward()

    def test_separate_roots_accumulate(self):
        data = rand((3,), 26)
        x = Tensor(data, requires_grad=True)
        tanh(x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, first + 2 * data, atol=1e-15)

    def test_linearity_of_gradients(self):
        data = rand((3, 3), 27)

        def grad_of(f):
            t = Tensor(data, requires_grad=True)
            f(t).backward()
            return t.grad

        combined = grad_of(lambda t: sigmoid(t).sum() + (t * t).sum())
        separate = grad_of(lambda t: sigmoid(t).sum()) + grad_of(lambda t: (t * t).sum())
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_shared_subexpression(self):
        # y appears twice in the graph; its gradient must accumulate once per use
        data = rand((3,), 28)
        x = Tensor(data, requires_grad=True)
        y = tanh(x)
        (y * y).sum().backward()
        t = np.tanh(data)
        np.testing.assert_allclose(x.grad, 2 * t * (1 - t * t), atol=1e-14)

    def test_determinism(self):
        def build():
            x = Tensor(rand((4, 4), 29), requires_grad=True)
            loss = losses.cross_entropy_loss(matmul(tanh(x), Tensor(rand((4, 3), 30))), np.array([0, 1, 2, 0]))
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
        h = tanh(matmul(a, b))
        return (sigmoid(h) * h).sum() + norm2(h) * 0.1

    worst = check_gradients(f, [x, w], step=1e-6, tol=1e-4)
    assert worst <= 1e-4
