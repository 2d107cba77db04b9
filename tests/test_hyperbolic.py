"""Poincare-ball geometry: closed-form oracles, metric axioms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import autodiff as ad
from paeff import hyperbolic as hyp
from paeff import evaluation, model
from paeff.autodiff import Tensor
from paeff.errors import ContractError, NumericError

from chain_check import (
    add, artanh, assert_matches_chain, axis_sum, clamp_max, clamp_min, div, log1p, matmul, mul, norm2, sqrt, sub,
    tanh, transpose,
)
from gradcheck import check_gradients

CFG = hyp.BallConfig()


def ball_points(seed, n=8, d=4, scale=0.5):
    rng = np.random.default_rng(seed)
    return hyp.ball_map(Tensor(rng.normal(size=(n, d)) * scale), CFG)


class TestBallConfig:
    def test_invalid_curvature(self):
        with pytest.raises(ContractError):
            hyp.BallConfig(curvature=0.0)

    def test_invalid_eps(self):
        with pytest.raises(ContractError):
            hyp.BallConfig(boundary_eps=1.5)


class TestBallClamp:
    def test_zero_fixed(self):
        out = hyp.ball_map(Tensor(np.zeros((1, 3))), CFG)
        np.testing.assert_array_equal(out.numpy(), np.zeros((1, 3)))

    def test_inside_unchanged(self):
        v = np.array([[0.3, 0.4]])  # norm 0.5
        out = hyp.ball_map(Tensor(v), CFG)
        np.testing.assert_array_equal(out.numpy(), v)

    def test_outside_rescaled(self):
        v = np.array([[2.0, 0.0]])
        out = hyp.ball_map(Tensor(v), CFG)
        # rescale oracle: norm becomes (1 - eps) / sqrt(c)
        assert np.linalg.norm(out.numpy()) == pytest.approx(1.0 - 1e-5, abs=1e-15)
        np.testing.assert_allclose(out.numpy(), [[1.0 - 1e-5, 0.0]], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            hyp.ball_map(Tensor([[np.inf, 0.0]]), CFG)

    def test_identity_region_gradient(self):
        check_gradients(
            lambda v: hyp.ball_map(v, CFG).vector.sum(),
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
            lambda v: norm2(hyp.exp_map_origin(v, CFG).vector),
            [np.array([[0.4, -0.2, 0.1], [0.05, 0.3, -0.4]])],
        )


class TestDistance:
    def test_self_distance_zero(self):
        x = ball_points(3)
        np.testing.assert_array_equal(hyp.poincare_distance(x, x), np.zeros(8))

    def test_closed_form_from_origin(self):
        x = hyp.PoincarePoint(Tensor([[0.0, 0.0]]), CFG)
        y = hyp.PoincarePoint(Tensor([[0.5, 0.0]]), CFG)
        d = hyp.poincare_distance(x, y)
        assert isinstance(d, np.ndarray) and d.shape == (1,)
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
        dxy = hyp.poincare_distance(x, y)
        dyx = hyp.poincare_distance(y, x)
        assert np.max(np.abs(dxy - dyx)) <= 1e-12

    def test_agrees_with_mobius_route(self):
        # independent route: materialise (-x) (+) y (c = 1) and apply the artanh formula
        x = ball_points(7, n=16, scale=0.4)
        y = ball_points(8, n=16, scale=0.4)
        a, b = -x.numpy(), y.numpy()
        ab = np.sum(a * b, axis=1, keepdims=True)
        a2, b2 = np.sum(a * a, axis=1, keepdims=True), np.sum(b * b, axis=1, keepdims=True)
        mobius = ((1.0 + 2.0 * ab + b2) * a + (1.0 - a2) * b) / (1.0 + 2.0 * ab + a2 * b2)
        norms = np.linalg.norm(mobius, axis=1)
        via_mobius = 2.0 * np.arctanh(np.minimum(norms, 1.0 - CFG.boundary_eps))
        np.testing.assert_allclose(hyp.poincare_distance(x, y), via_mobius, atol=1e-9)

    def test_config_mismatch(self):
        x = hyp.PoincarePoint(Tensor([[0.1, 0.0]]), CFG)
        y = hyp.PoincarePoint(Tensor([[0.1, 0.0]]), hyp.BallConfig(curvature=2.0))
        for distance in (hyp.poincare_distance, hyp.pairwise_distances):
            with pytest.raises(ContractError):
                distance(x, y)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        pts = [
            hyp.exp_map_origin(Tensor(rng.normal(size=(40, 4))), CFG) for _ in range(3)
        ]
        x, y, z = pts
        dxz = hyp.poincare_distance(x, z)
        dxy = hyp.poincare_distance(x, y)
        dyz = hyp.poincare_distance(y, z)
        assert np.all(dxz <= dxy + dyz + 1e-9)


class TestBallInvariant:
    def test_all_outputs_inside(self):
        rng = np.random.default_rng(10)
        big = Tensor(rng.normal(size=(256, 6)) * 10.0)
        for point in (
            hyp.exp_map_origin(big, CFG),
            hyp.ball_map(big, CFG),
        ):
            norms = np.linalg.norm(point.numpy(), axis=1)
            assert np.all(CFG.sqrt_c * norms <= 1.0 - CFG.boundary_eps + 1e-15)


def as_point(v):
    return hyp.PoincarePoint(v, CFG)


ROWS_ONLY = {
    "PoincarePoint": as_point,
    "ball_map": lambda v: hyp.ball_map(v, CFG),
    "exp_map_origin": lambda v: hyp.exp_map_origin(v, CFG),
    "log_map_origin": lambda v: hyp.log_map_origin(as_point(v)),
    "poincare_distance": lambda v: hyp.poincare_distance(as_point(v), as_point(v)),
    "pairwise_distances": lambda v: hyp.pairwise_distances(as_point(v), as_point(v)),
}


@pytest.mark.parametrize("name", list(ROWS_ONLY))
def test_single_vector_rejected_naming_its_shape(name):
    with pytest.raises(ContractError, match=r"\(3,\)"):
        ROWS_ONLY[name](Tensor([0.1, 0.2, 0.3]))


class TestClipNorm:
    def test_inside_untouched(self):
        v = np.array([[0.2, 0.1]])
        np.testing.assert_array_equal(ad.radial(Tensor(v), hyp.clip_radius(1.0)).numpy(), v)

    def test_outside_rescaled_to_radius(self):
        out = ad.radial(Tensor([[3.0, 4.0]]), hyp.clip_radius(2.0)).numpy()
        assert np.linalg.norm(out) == pytest.approx(2.0, abs=1e-12)

    def test_gradient_through_clip(self):
        check_gradients(
            lambda v: norm2(ad.radial(v, hyp.clip_radius(0.5))), [np.array([[0.9, 1.2], [0.1, 0.05]])]
        )


EPS = np.finfo(np.float64).eps


def rowwise_table(x, y):
    """Oracle: row-wise poincare_distance over every (i, j) pair, as a [B x N] table."""
    b, n = x.shape[0], y.shape[0]
    flat = hyp.poincare_distance(
        hyp.PoincarePoint(Tensor(np.repeat(x, n, axis=0)), CFG),
        hyp.PoincarePoint(Tensor(np.tile(y, (b, 1))), CFG),
    )
    return flat.reshape(b, n)


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


# The generic-op chains that the radial maps and the Gram-distance node replace.


def chain_clip(v, max_norm):
    return mul(v, clamp_max(div(max_norm, clamp_min(norm2(v, 1, True), 1e-12)), 1.0))


def chain_exp(v):
    sn = clamp_min(norm2(v, 1, True) * CFG.sqrt_c, 1e-12)
    return chain_clip(mul(v, div(tanh(sn), sn)), CFG.max_norm)


def chain_log(p):
    safe = clamp_min(norm2(p, 1, True) * CFG.sqrt_c, 1e-12)
    return mul(p, div(artanh(clamp_max(safe, 1.0 - CFG.boundary_eps)), safe))


def chain_pairwise(x, y):
    """The arccosh form (c = 1): arccosh(1 + z), z = 2 ||x - y||^2 / ((1 - ||x||^2)(1 - ||y||^2))."""
    gram = matmul(x, transpose(y))
    x2 = axis_sum(x * x, 1, True)
    y2 = transpose(axis_sum(y * y, 1, True))
    delta = (16.0 * (x.shape[1] + 1) * EPS) * (x2.data + y2.data)
    d2 = clamp_min(sub(add(x2, y2), gram * 2.0), delta)
    top = 1.0 - CFG.boundary_eps
    z = clamp_max(div(d2 * 2.0, mul(sub(1.0, x2), sub(1.0, y2))), 2.0 * top * top / ((1.0 - top) * (1.0 + top)))
    return log1p(z + sqrt(z * (z + 2.0)))


def rows_with_norms(seed, norms, d=4):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(len(norms), d))
    return u / np.linalg.norm(u, axis=1, keepdims=True) * np.asarray(norms)[:, None]


LIFT_CASES = {
    # name: (tangent clip radius, row norms); a zero row rides along in each
    "clip_on": (0.5, [0.0, 0.2, 1.5, 3.0]),
    "clip_off": (10.0, [0.0, 0.1, 0.4, 0.9]),
    "ball_clamp": (20.0, [0.0, 0.3, 8.0, 15.0]),
}


class TestRadialBallMaps:
    @pytest.mark.parametrize("case", list(LIFT_CASES))
    def test_clip_exp_clamp_matches_chain(self, case):
        radius, norms = LIFT_CASES[case]
        fused = lambda v: hyp.ball_map(v, CFG, hyp.clip_radius(radius), hyp.exp_radius(CFG)).vector  # noqa: E731
        assert_matches_chain(fused, lambda v: chain_exp(chain_clip(v, radius)), [rows_with_norms(30, norms)])

    @pytest.mark.parametrize("case", list(LIFT_CASES))
    def test_clip_exp_clamp_gradients(self, case):
        radius, norms = LIFT_CASES[case]
        lift = lambda t: hyp.ball_map(t, CFG, hyp.clip_radius(radius), hyp.exp_radius(CFG)).vector  # noqa: E731
        check_gradients(lambda t: norm2(lift(t)), [rows_with_norms(31, norms)])

    def test_ball_clamp_fires(self):
        out = hyp.exp_map_origin(Tensor(rows_with_norms(32, [8.0, 15.0])), CFG).numpy()
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), CFG.max_norm, rtol=1e-15)

    # mid-radius, a zero row, and two rows past the boundary clamp at sqrt(c)||p|| = 1 - eps
    LOG_NORMS = [0.0, 0.5, 1.0 - 5e-6, 1.0 - 3e-6]

    def test_log_map_matches_chain_at_the_boundary_clamp(self):
        assert_matches_chain(
            lambda p: hyp.log_map_origin(as_point(p)), chain_log, [rows_with_norms(33, self.LOG_NORMS)]
        )

    def test_log_map_gradients_at_the_boundary_clamp(self):
        check_gradients(lambda p: norm2(hyp.log_map_origin(as_point(p))), [rows_with_norms(34, self.LOG_NORMS)])

    def test_log_map_clamps_to_artanh_of_the_bound(self):
        p = rows_with_norms(35, [1.0 - 3e-6])
        out = hyp.log_map_origin(as_point(Tensor(p))).numpy()
        np.testing.assert_allclose(out, p / np.linalg.norm(p) * np.arctanh(1.0 - CFG.boundary_eps), rtol=1e-14)


class TestGramDistanceNode:
    # Between the delta floor and about 1e-4, the gradient of d(x_i, y_i) is a
    # difference of terms of size 1 / sep, so any change in rounding order moves
    # it by about eps / sep; TestPairwiseGramForm bounds it there instead.
    @pytest.mark.parametrize("radius", ["mid", "rim"])
    @pytest.mark.parametrize("sep", [0.0, 1e-2, 1e-12])
    def test_pairwise_matches_chain(self, radius, sep):
        x, y = sample_pairs(40, 8, radius, sep)
        assert_matches_chain(lambda a, b: hyp.pairwise_distances(as_point(a), as_point(b)), chain_pairwise, [x, y])

    def test_scored_entries_match_chain_entries(self):
        # Trial scores gather the same near-duplicate-safe table that the chain builds.
        x, y = sample_pairs(41, 8, "mid", 1e-9)
        i, j = np.array([0, 1, 1, 5, 2]), np.array([0, 1, 3, 5, 2])
        cfg = model.ModelConfig(8, 8, num_identities=2)
        got = -evaluation._pair_scores(as_point(Tensor(x)), as_point(Tensor(y)), i, j, cfg)
        want = chain_pairwise(Tensor(x), Tensor(y)).numpy()[i, j]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_off_ball_row_rejected(self):
        inside = as_point(Tensor([[0.1, 0.2], [0.3, 0.0]]))
        outside = as_point(Tensor([[0.1, 0.2], [0.8, 0.8]]))  # sqrt(c) ||x|| > 1
        for x, y in ((outside, inside), (inside, outside)):
            with pytest.raises(NumericError, match="outside the unit ball"):
                hyp.pairwise_distances(x, y)
            with pytest.raises(NumericError, match="outside the unit ball"):
                hyp.distance_table(x.numpy(), y.numpy(), CFG)

    def test_float32_rejects_the_same_off_ball_rows(self):
        # Rows float32 holds exactly, with norms within a few float32 ulps of the rim: both dtypes take
        # the squared norms in float64, so a row is off the ball in one exactly when it is in the other.
        rng = np.random.default_rng(45)
        direction = rng.normal(size=(200, 8))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        rows = (direction * (1.0 + rng.uniform(-3e-7, 3e-7, size=(200, 1)))).astype(np.float32)
        inside = np.full((1, 8), 0.1, dtype=np.float32)
        rejected = {}
        for dtype in (np.float64, np.float32):
            rejected[dtype] = []
            for row in rows.astype(dtype):
                try:
                    hyp.distance_table(row[None, :], inside.astype(dtype), CFG)
                    hyp.distance_table(inside.astype(dtype), row[None, :], CFG)
                    rejected[dtype].append(False)
                except NumericError as e:
                    assert "outside the unit ball" in str(e)
                    rejected[dtype].append(True)
        assert rejected[np.float32] == rejected[np.float64]
        assert 0 < sum(rejected[np.float64]) < len(rows)

    def test_float32_caps_the_same_pairs(self):
        # Mid-radius rows, rim rows and rim rows 1e-3 from them: rim pairs far apart are beyond the cap,
        # every other pair well below it.
        rng = np.random.default_rng(46)
        direction = rng.normal(size=(24, 8))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        near = direction[:8] + 1e-3 * rng.normal(size=(8, 8)) / np.sqrt(8.0)
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        rows = np.concatenate([direction[8:] * 0.5, direction[:8], near]).astype(np.float32)
        rows[8:] *= np.float32(1.0 - 1e-4)
        x, y = rows[:16], rows[8:]
        capped = {}
        for dtype in (np.float64, np.float32):
            d = hyp.distance_table(x.astype(dtype), y.astype(dtype), CFG)[0]
            assert d.dtype == dtype
            capped[dtype] = d == d.max()
        np.testing.assert_array_equal(capped[np.float32], capped[np.float64])
        assert 0 < np.count_nonzero(capped[np.float64]) < capped[np.float64].size

    @pytest.mark.parametrize("sep", [1e-11, 1e-12])
    def test_gradients_with_near_duplicates_inside_the_floor(self, sep):
        # y_i sits sep from x_i, so the delta floor decides d(x_i, y_i) and its gradient is 0; the
        # central difference agrees up to sep / step.
        x, y = sample_pairs(42, 4, "mid", sep, b=3)
        check_gradients(lambda a, b: hyp.pairwise_distances(as_point(a), as_point(b)).sum(), [x, y])

    def test_gradients(self):
        x, y = sample_pairs(43, 4, "mid", 1e-2, b=3)
        check_gradients(lambda a, b: norm2(hyp.pairwise_distances(as_point(a), as_point(b))), [x, y])

    def test_one_node_over_the_rows(self):
        x, y = (Tensor(a, requires_grad=True) for a in sample_pairs(44, 4, "mid", 1e-2, b=3))
        d = hyp.pairwise_distances(as_point(x), as_point(y))
        assert d._parents == (x, y)
