"""Poincare-ball geometry: closed-form oracles, group laws, metric axioms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import autodiff as ad
from paeff import hyperbolic as hyp
from paeff.autodiff import Tensor
from paeff.errors import ContractError, DimensionError, NumericError
from paeff.gradcheck import check_gradients

CFG = hyp.BallConfig()


def ball_points(seed, n=8, d=4, scale=0.5):
    rng = np.random.default_rng(seed)
    return hyp.project_to_ball(Tensor(rng.normal(size=(n, d)) * scale), CFG)


class TestBallConfig:
    def test_invalid_curvature(self):
        with pytest.raises(ContractError):
            hyp.BallConfig(curvature=0.0)

    def test_invalid_eps(self):
        with pytest.raises(ContractError):
            hyp.BallConfig(boundary_eps=1.5)


class TestProjectToBall:
    def test_zero_fixed(self):
        out = hyp.project_to_ball(Tensor(np.zeros((1, 3))), CFG)
        np.testing.assert_array_equal(out.numpy(), np.zeros((1, 3)))

    def test_inside_unchanged(self):
        v = np.array([[0.3, 0.4]])  # norm 0.5
        out = hyp.project_to_ball(Tensor(v), CFG)
        np.testing.assert_array_equal(out.numpy(), v)

    def test_outside_rescaled(self):
        v = np.array([[2.0, 0.0]])
        out = hyp.project_to_ball(Tensor(v), CFG)
        # rescale oracle: norm becomes (1 - eps) / sqrt(c)
        assert np.linalg.norm(out.numpy()) == pytest.approx(1.0 - 1e-5, abs=1e-15)
        np.testing.assert_allclose(out.numpy(), [[1.0 - 1e-5, 0.0]], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            hyp.project_to_ball(Tensor([[np.inf, 0.0]]), CFG)

    def test_identity_region_gradient(self):
        check_gradients(
            lambda v: hyp.project_to_ball(v, CFG).vector.sum(),
            [np.array([[0.1, 0.2], [0.05, -0.1]])],
        )


class TestExpLogMaps:
    def test_exp_at_zero(self):
        out = hyp.exp_map_origin(Tensor(np.zeros((1, 4))), CFG)
        np.testing.assert_array_equal(out.numpy(), np.zeros((1, 4)))

    def test_exp_closed_form(self):
        out = hyp.exp_map_origin(Tensor([[0.5, 0.0]]), CFG)
        np.testing.assert_allclose(out.numpy(), [[np.tanh(0.5), 0.0]], atol=1e-15)

    def test_log_at_origin(self):
        p = hyp.PoincarePoint(Tensor(np.zeros((1, 4))), CFG)
        np.testing.assert_array_equal(hyp.log_map_origin(p).numpy(), np.zeros((1, 4)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), norm=st.floats(1e-6, 3.0))
    def test_inverse_pair(self, seed, norm):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(1, 5))
        v = v / np.linalg.norm(v) * norm
        back = hyp.log_map_origin(hyp.exp_map_origin(Tensor(v), CFG)).numpy()
        assert np.max(np.abs(back - v)) <= 1e-9

    def test_log_rejects_boundary(self):
        p = hyp.PoincarePoint(Tensor([[1.0, 0.0]]), CFG)
        with pytest.raises(NumericError):
            hyp.log_map_origin(p)

    def test_exp_map_gradient(self):
        check_gradients(
            lambda v: hyp.exp_map_origin(v, CFG).vector.norm2(),
            [np.array([[0.4, -0.2, 0.1], [0.05, 0.3, -0.4]])],
        )


class TestMobiusAdd:
    def test_identity_element(self):
        x = ball_points(1)
        zero = hyp.PoincarePoint(Tensor(np.zeros(x.numpy().shape)), CFG)
        np.testing.assert_allclose(hyp.mobius_add(x, zero).numpy(), x.numpy(), atol=1e-12)

    def test_inverse_element(self):
        x = ball_points(2)
        neg = hyp.PoincarePoint(-x.vector, CFG)
        assert np.max(np.abs(hyp.mobius_add(neg, x).numpy())) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_closure(self, seed):
        rng = np.random.default_rng(seed)
        x = hyp.project_to_ball(Tensor(rng.normal(size=(4, 3))), CFG)
        y = hyp.project_to_ball(Tensor(rng.normal(size=(4, 3))), CFG)
        out = hyp.mobius_add(x, y)
        assert np.all(np.linalg.norm(out.numpy(), axis=1) < 1.0)

    def test_config_mismatch(self):
        x = hyp.PoincarePoint(Tensor([[0.1, 0.0]]), CFG)
        y = hyp.PoincarePoint(Tensor([[0.1, 0.0]]), hyp.BallConfig(curvature=2.0))
        with pytest.raises(ContractError):
            hyp.mobius_add(x, y)


class TestDistance:
    def test_self_distance_zero(self):
        x = ball_points(3)
        np.testing.assert_array_equal(hyp.poincare_distance(x, x).numpy(), np.zeros(8))

    def test_closed_form_from_origin(self):
        x = hyp.PoincarePoint(Tensor([[0.0, 0.0]]), CFG)
        y = hyp.PoincarePoint(Tensor([[0.5, 0.0]]), CFG)
        d = hyp.poincare_distance(x, y)
        assert d.shape == (1,)
        assert d.item() == pytest.approx(2.0 * np.arctanh(0.5), abs=1e-15)
        assert d.item() == pytest.approx(1.0986122886681098, abs=1e-12)

    def test_small_distance_euclidean_limit(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(1, 3)) * 1e-3 / 2
        b = rng.normal(size=(1, 3)) * 1e-3 / 2
        d = hyp.poincare_distance(
            hyp.PoincarePoint(Tensor(a), CFG), hyp.PoincarePoint(Tensor(b), CFG)
        ).item()
        assert d == pytest.approx(2.0 * np.linalg.norm(a - b), rel=1e-3)

    def test_symmetry_as_computed(self):
        x = ball_points(5, n=64, scale=0.9)
        y = ball_points(6, n=64, scale=0.9)
        dxy = hyp.poincare_distance(x, y).numpy()
        dyx = hyp.poincare_distance(y, x).numpy()
        assert np.max(np.abs(dxy - dyx)) <= 1e-12

    def test_agrees_with_mobius_route(self):
        # independent route: materialise (-x) (+) y and apply the artanh formula
        x = ball_points(7, n=16, scale=0.4)
        y = ball_points(8, n=16, scale=0.4)
        neg = hyp.PoincarePoint(-x.vector, CFG)
        norms = np.linalg.norm(hyp.mobius_add(neg, y).numpy(), axis=1)
        via_mobius = 2.0 * np.arctanh(np.minimum(norms, 1.0 - CFG.boundary_eps))
        np.testing.assert_allclose(hyp.poincare_distance(x, y).numpy(), via_mobius, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        pts = [
            hyp.exp_map_origin(Tensor(rng.normal(size=(16, 4))), CFG) for _ in range(3)
        ]
        x, y, z = pts
        dxz = hyp.poincare_distance(x, z).numpy()
        dxy = hyp.poincare_distance(x, y).numpy()
        dyz = hyp.poincare_distance(y, z).numpy()
        assert np.all(dxz <= dxy + dyz + 1e-9)

    def test_distance_gradient_away_from_origin(self):
        rng = np.random.default_rng(9)

        def f(u, w):
            return hyp.poincare_distance(
                hyp.exp_map_origin(u, CFG), hyp.exp_map_origin(w, CFG)
            ).sum()

        u = rng.normal(size=(3, 4)) * 0.6
        w = rng.normal(size=(3, 4)) * 0.6
        u[np.linalg.norm(u, axis=1) < 1e-3] += 0.1  # keep away from the origin
        check_gradients(f, [u, w])


class TestBallInvariant:
    def test_all_outputs_inside(self):
        rng = np.random.default_rng(10)
        big = Tensor(rng.normal(size=(128, 6)) * 10.0)
        for point in (
            hyp.exp_map_origin(big, CFG),
            hyp.project_to_ball(big, CFG),
            hyp.mobius_add(ball_points(11, 128, 6, 0.9), ball_points(12, 128, 6, 0.9)),
        ):
            norms = np.linalg.norm(point.numpy(), axis=1)
            assert np.all(CFG.sqrt_c * norms <= 1.0 - CFG.boundary_eps + 1e-15)


def as_point(v):
    return hyp.PoincarePoint(v, CFG)


ROWS_ONLY = {
    "PoincarePoint": as_point,
    "clip_norm": lambda v: hyp.clip_norm(v, 1.0),
    "project_to_ball": lambda v: hyp.project_to_ball(v, CFG),
    "exp_map_origin": lambda v: hyp.exp_map_origin(v, CFG),
    "log_map_origin": lambda v: hyp.log_map_origin(as_point(v)),
    "mobius_add": lambda v: hyp.mobius_add(as_point(v), as_point(v)),
    "poincare_distance": lambda v: hyp.poincare_distance(as_point(v), as_point(v)),
    "pairwise_distances": lambda v: hyp.pairwise_distances(as_point(v), as_point(v)),
}


@pytest.mark.parametrize("name", list(ROWS_ONLY))
def test_single_vector_rejected_naming_its_shape(name):
    with pytest.raises((ContractError, DimensionError), match=r"\(3,\)"):
        ROWS_ONLY[name](Tensor([0.1, 0.2, 0.3]))


class TestClipNorm:
    def test_inside_untouched(self):
        v = np.array([[0.2, 0.1]])
        np.testing.assert_array_equal(hyp.clip_norm(Tensor(v), 1.0).numpy(), v)

    def test_outside_rescaled_to_radius(self):
        out = hyp.clip_norm(Tensor([[3.0, 4.0]]), 2.0).numpy()
        assert np.linalg.norm(out) == pytest.approx(2.0, abs=1e-12)

    def test_gradient_through_clip(self):
        check_gradients(
            lambda v: hyp.clip_norm(v, 0.5).norm2(), [np.array([[0.9, 1.2], [0.1, 0.05]])]
        )


EPS = np.finfo(np.float64).eps


def rowwise_table(x, y):
    """Oracle: row-wise poincare_distance over every (i, j) pair, as a [B x N] table."""
    b, n = x.shape[0], y.shape[0]
    flat = hyp.poincare_distance(
        hyp.PoincarePoint(Tensor(np.repeat(x, n, axis=0)), CFG),
        hyp.PoincarePoint(Tensor(np.tile(y, (b, 1))), CFG),
    )
    return flat.numpy().reshape(b, n)


def gram_error_bound(x, y, d_row):
    """Largest |pairwise - rowwise| that float64 rounding allows (c = 1).

    The floor delta and float64 eps move the artanh argument by at most
    sqrt(delta / den) + 4 eps, and artanh' is largest at the upper end s_hi
    of that interval. Pairs whose value the floor decides come within 1e-4
    of that 1x bound, so the leading factor 2 is the margin.
    """
    d = x.shape[1]
    x2 = np.sum(x * x, axis=1)[:, None]
    y2 = np.sum(y * y, axis=1)[None, :]
    delta = 16.0 * (d + 1) * EPS * (x2 + y2)
    den = 1.0 - 2.0 * (x @ y.T) + x2 * y2
    shift = np.sqrt(delta / den)
    s_hi = np.minimum(np.tanh(d_row / 2.0) + shift, 1.0 - CFG.boundary_eps)
    return 2.0 * 2.0 * (shift + 4.0 * EPS) / (1.0 - s_hi**2)


def sample_pairs(seed, dim, radius, sep, b=6):
    """Rows at mid-radius or at the rim; ``sep`` > 0 makes y_i a near-duplicate of x_i."""
    rng = np.random.default_rng(seed)

    def on_sphere(n):
        u = rng.normal(size=(n, dim))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    def radii(n):
        if radius == "mid":
            return rng.uniform(0.3, 0.7, size=(n, 1))
        return CFG.max_norm * (1.0 - rng.uniform(0.0, 1e-6, size=(n, 1)))

    x = on_sphere(b) * radii(b)
    y = x + sep * on_sphere(b) if sep > 0.0 else on_sphere(b) * radii(b)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    return x, y * np.minimum(1.0, CFG.max_norm / norms)


pair_cases = dict(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 128),
    radius=st.sampled_from(["mid", "rim"]),
    sep=st.one_of(st.just(0.0), st.floats(-12.0, -1.0).map(lambda e: 10.0**e)),
)


class TestPairwiseGramForm:
    @settings(max_examples=150, deadline=None)
    @given(**pair_cases)
    def test_value_within_rounding_bound(self, seed, dim, radius, sep):
        x, y = sample_pairs(seed, dim, radius, sep)
        got = hyp.pairwise_distances(hyp.PoincarePoint(Tensor(x), CFG), hyp.PoincarePoint(Tensor(y), CFG))
        d_row = rowwise_table(x, y)
        assert np.all(np.abs(got.numpy() - d_row) <= gram_error_bound(x, y, d_row))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        dim=st.integers(2, 128),
        radius=st.sampled_from(["mid", "rim"]),
        sep=st.floats(-12.0, -6.0).map(lambda e: 10.0**e),
    )
    def test_gradient_near_diagonal_within_lipschitz_bound(self, seed, dim, radius, sep):
        x, y = sample_pairs(seed, dim, radius, sep)
        xt = Tensor(x, requires_grad=True)
        table = hyp.pairwise_distances(hyp.PoincarePoint(xt, CFG), hyp.PoincarePoint(Tensor(y), CFG))
        # row i of the gradient is the gradient of d(x_i, y_i) alone
        (table * Tensor(np.eye(x.shape[0]))).sum().backward()
        lam = 2.0 / (1.0 - np.sum(x * x, axis=1))
        assert np.all(np.linalg.norm(xt.grad, axis=1) <= 1.05 * lam)

    def test_tape_holds_no_b_squared_d_node(self):
        b, d = 64, 128
        x, y = sample_pairs(15, d, "mid", 0.0, b=b)
        root = hyp.pairwise_distances(
            hyp.PoincarePoint(Tensor(x, requires_grad=True), CFG),
            hyp.PoincarePoint(Tensor(y, requires_grad=True), CFG),
        )
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                assert node.size <= max(b * b, b * d)
                stack.extend(node._parents)
        assert len(seen) > 2


def test_pairwise_matches_rowwise():
    a = ball_points(13, n=5, d=3)
    b = ball_points(14, n=4, d=3)
    table = hyp.pairwise_distances(a, b).numpy()
    bound = gram_error_bound(a.numpy(), b.numpy(), rowwise_table(a.numpy(), b.numpy()))
    for i in range(5):
        for j in range(4):
            single = hyp.poincare_distance(
                hyp.PoincarePoint(Tensor(a.numpy()[i : i + 1]), CFG),
                hyp.PoincarePoint(Tensor(b.numpy()[j : j + 1]), CFG),
            ).item()
            assert abs(table[i, j] - single) <= bound[i, j]
