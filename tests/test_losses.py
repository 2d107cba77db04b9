"""Objectives: alignment CE, orthogonal projection, weighted total."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import autodiff as ad
from paeff import hyperbolic as hyp
from paeff import losses
from paeff.autodiff import Tensor
from paeff.errors import ContractError, NumericError
from paeff.gradcheck import check_gradients
from paeff.hyperbolic import BallConfig, PoincarePoint

CFG = BallConfig()


def lifted(data):
    return hyp.exp_map_origin(Tensor(np.asarray(data, dtype=np.float64)), CFG)


def brute_force_symmetric_ce(sims, scale, labels=None):
    """Naive-summation oracle for the symmetric alignment loss.

    With ``labels``, the other columns of a row's own label are left out of
    its softmax.
    """
    logits = np.exp(scale) * sims
    b = logits.shape[0]

    def ce(mat):
        total = 0.0
        for i in range(b):
            row = [mat[i][j] for j in range(b) if j == i or labels is None or labels[j] != labels[i]]
            m = max(row)
            total += -(mat[i][i] - m - math.log(sum(math.exp(v - m) for v in row)))
        return total / b

    return 0.5 * (ce(logits) + ce(logits.T))


def brute_force_op_loss(fused, labels, inter_weight=1.0):
    """O(B^2) pairwise-cosine oracle."""
    b = fused.shape[0]
    unit = fused / np.linalg.norm(fused, axis=1, keepdims=True)
    same, diff = [], []
    for i in range(b):
        for j in range(b):
            if i == j:
                continue
            cos = float(unit[i] @ unit[j])
            (same if labels[i] == labels[j] else diff).append(cos)
    loss = 0.0
    if same:
        loss += 1.0 - sum(same) / len(same)
    if diff:
        loss += inter_weight * sum(abs(c) for c in diff) / len(diff)
    return loss


class TestAlignmentLoss:
    def test_perfectly_aligned_limit(self):
        # S = [[1, -1], [-1, 1]] scaled by 10: diagonal +10, off-diagonal -10
        face = Tensor([[1.0, 0.0], [-1.0, 0.0]])
        voice = Tensor([[1.0, 0.0], [-1.0, 0.0]])
        loss = losses.alignment_loss(face, voice, Tensor(math.log(10.0)), "cosine")
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
        assert loss.item() <= 1e-8

    def test_uniform_similarities_give_log_b(self):
        row = np.array([0.3, 0.2, 0.0, -0.1])
        face = Tensor(np.tile(row, (4, 1)))
        loss = losses.alignment_loss(face, Tensor(np.tile(row, (4, 1))), Tensor(1.3), "cosine")
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_matches_brute_force_oracle_cosine(self):
        rng = np.random.default_rng(0)
        f, v = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        scale = 0.8
        fu = f / np.linalg.norm(f, axis=1, keepdims=True)
        vu = v / np.linalg.norm(v, axis=1, keepdims=True)
        expected = brute_force_symmetric_ce(fu @ vu.T, scale)
        got = losses.alignment_loss(Tensor(f), Tensor(v), Tensor(scale), "cosine").item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_oracle_hyperbolic(self):
        rng = np.random.default_rng(1)
        f, v = lifted(rng.normal(size=(4, 3)) * 0.5), lifted(rng.normal(size=(4, 3)) * 0.5)
        sims = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                sims[i, j] = -hyp.poincare_distance(
                    PoincarePoint(Tensor(f.numpy()[i : i + 1]), CFG),
                    PoincarePoint(Tensor(v.numpy()[j : j + 1]), CFG),
                ).item()
        expected = brute_force_symmetric_ce(sims, 0.5)
        got = losses.alignment_loss(f, v, Tensor(0.5), "neg_hyperbolic_distance").item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_duplicate_labels_match_masked_oracle(self):
        rng = np.random.default_rng(5)
        f, v = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        labels = [0, 0, 1, 2, 1]
        fu = f / np.linalg.norm(f, axis=1, keepdims=True)
        vu = v / np.linalg.norm(v, axis=1, keepdims=True)
        expected = brute_force_symmetric_ce(fu @ vu.T, 0.8, labels)
        got = losses.alignment_loss(Tensor(f), Tensor(v), Tensor(0.8), "cosine", labels).item()
        assert got == pytest.approx(expected, abs=1e-12)
        assert abs(got - brute_force_symmetric_ce(fu @ vu.T, 0.8)) > 1e-3

    @pytest.mark.parametrize("mode", ["cosine", "neg_hyperbolic_distance"])
    def test_unique_labels_change_nothing(self, mode):
        rng = np.random.default_rng(6)
        f, v = rng.normal(size=(5, 4)) * 0.5, rng.normal(size=(5, 4)) * 0.5

        def run(labels):
            a, b, s = Tensor(f, requires_grad=True), Tensor(v, requires_grad=True), Tensor(0.9, requires_grad=True)
            aligned = (a, b) if mode == "cosine" else (hyp.exp_map_origin(a, CFG), hyp.exp_map_origin(b, CFG))
            loss = losses.alignment_loss(*aligned, s, mode, labels)
            loss.backward()
            return [loss.data, a.grad, b.grad, s.grad]

        for labelled, plain in zip(run([3, 1, 4, 0, 2]), run(None)):
            np.testing.assert_array_equal(labelled, plain)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_invariant_under_joint_permutation(self, seed):
        rng = np.random.default_rng(seed)
        f, v = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        perm = rng.permutation(5)
        base = losses.alignment_loss(Tensor(f), Tensor(v), Tensor(1.0), "cosine").item()
        permuted = losses.alignment_loss(
            Tensor(f[perm]), Tensor(v[perm]), Tensor(1.0), "cosine"
        ).item()
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_symmetric_in_modalities(self):
        rng = np.random.default_rng(2)
        f, v = lifted(rng.normal(size=(4, 3)) * 0.4), lifted(rng.normal(size=(4, 3)) * 0.4)
        ab = losses.alignment_loss(f, v, Tensor(1.0), "neg_hyperbolic_distance").item()
        ba = losses.alignment_loss(v, f, Tensor(1.0), "neg_hyperbolic_distance").item()
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_nonnegative_and_bounded_at_uniform(self):
        rng = np.random.default_rng(3)
        f, v = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        loss = losses.alignment_loss(Tensor(f), Tensor(v), Tensor(0.0), "cosine").item()
        assert loss >= 0.0

    def test_batch_of_one_rejected(self):
        with pytest.raises(ContractError):
            losses.alignment_loss(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]), Tensor(0.0), "cosine")

    def test_hyperbolic_mode_requires_ball_points(self):
        with pytest.raises(ContractError):
            losses.alignment_loss(
                Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))), Tensor(0.0),
                "neg_hyperbolic_distance",
            )

    def test_gradients(self):
        rng = np.random.default_rng(4)

        def f(a, b, s):
            return losses.alignment_loss(
                hyp.exp_map_origin(a, CFG), hyp.exp_map_origin(b, CFG), s,
                "neg_hyperbolic_distance",
            )

        check_gradients(f, [rng.normal(size=(3, 4)) * 0.5, rng.normal(size=(3, 4)) * 0.5, np.array(0.9)])

        def g(a, b, s):
            return losses.alignment_loss(a, b, s, "cosine")

        check_gradients(g, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), np.array(0.9)])

    def test_gradients_with_duplicate_labels(self):
        rng = np.random.default_rng(7)
        labels = [0, 0, 1, 2, 1]

        def f(a, b, s):
            return losses.alignment_loss(
                hyp.exp_map_origin(a, CFG), hyp.exp_map_origin(b, CFG), s,
                "neg_hyperbolic_distance", labels,
            )

        check_gradients(f, [rng.normal(size=(5, 4)) * 0.5, rng.normal(size=(5, 4)) * 0.5, np.array(0.9)])

        def g(a, b, s):
            return losses.alignment_loss(a, b, s, "cosine", labels)

        check_gradients(g, [rng.normal(size=(5, 4)), rng.normal(size=(5, 4)), np.array(0.9)])


class TestOrthogonalProjectionLoss:
    def test_identical_same_label_is_zero(self):
        v = np.array([[0.6, 0.8], [0.6, 0.8]])
        loss = losses.orthogonal_projection_loss(Tensor(v), np.array([0, 0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_different_labels_is_zero(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = losses.orthogonal_projection_loss(Tensor(v), np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        fused = rng.normal(size=(4, 6))
        labels = np.array([0, 1, 0, 2])
        got = losses.orthogonal_projection_loss(Tensor(fused), labels).item()
        assert got == pytest.approx(brute_force_op_loss(fused, labels), abs=1e-12)

    def test_inter_weight(self):
        rng = np.random.default_rng(6)
        fused = rng.normal(size=(4, 3))
        labels = np.array([0, 0, 1, 1])
        got = losses.orthogonal_projection_loss(Tensor(fused), labels, inter_weight=0.5).item()
        assert got == pytest.approx(brute_force_op_loss(fused, labels, 0.5), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), row=st.integers(0, 3), factor=st.floats(0.1, 40.0))
    def test_invariant_to_positive_row_rescaling(self, seed, row, factor):
        rng = np.random.default_rng(seed)
        fused = rng.normal(size=(4, 5))
        labels = np.array([0, 1, 1, 0])
        base = losses.orthogonal_projection_loss(Tensor(fused), labels).item()
        scaled = fused.copy()
        scaled[row] *= factor
        rescaled = losses.orthogonal_projection_loss(Tensor(scaled), labels).item()
        assert rescaled == pytest.approx(base, abs=1e-9)

    def test_all_same_label_drops_inter_term(self):
        rng = np.random.default_rng(7)
        fused = rng.normal(size=(3, 4))
        labels = np.array([1, 1, 1])
        got = losses.orthogonal_projection_loss(Tensor(fused), labels).item()
        assert got == pytest.approx(brute_force_op_loss(fused, labels), abs=1e-12)

    def test_all_distinct_labels_drops_intra_term(self):
        rng = np.random.default_rng(8)
        fused = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 2])
        got = losses.orthogonal_projection_loss(Tensor(fused), labels).item()
        assert got == pytest.approx(brute_force_op_loss(fused, labels), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            fused = rng.normal(size=(5, 3))
            labels = rng.integers(0, 3, size=5)
            loss = losses.orthogonal_projection_loss(Tensor(fused), labels).item()
            assert 0.0 <= loss <= 3.0

    def test_batch_of_one_rejected(self):
        with pytest.raises(ContractError):
            losses.orthogonal_projection_loss(Tensor(np.ones((1, 3))), np.array([0]))

    def test_gradients(self):
        rng = np.random.default_rng(10)
        labels = np.array([0, 1, 0])
        check_gradients(
            lambda f: losses.orthogonal_projection_loss(f, labels), [rng.normal(size=(3, 4))]
        )


class TestTotalLoss:
    def test_paper_weights_unit_components(self):
        b = losses.total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), losses.LossWeights())
        assert b.total.item() == pytest.approx(1.0, abs=1e-15)

    def test_align_only(self):
        w = losses.LossWeights(alpha1=1.0, alpha2=0.0, alpha3=0.0)
        b = losses.total_loss(Tensor(2.5), Tensor(9.0), Tensor(4.0), w)
        assert b.total.item() == 2.5

    def test_arithmetic_oracle(self):
        b = losses.total_loss(Tensor(2.0), Tensor(4.0), Tensor(6.0), losses.LossWeights())
        assert b.total.item() == pytest.approx(0.6 + 1.4 + 2.1, abs=1e-12)
        assert b.total.item() == pytest.approx(4.1, abs=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, o, c = rng.uniform(0, 5, size=3)
            w = losses.LossWeights()
            b = losses.total_loss(Tensor(a), Tensor(o), Tensor(c), w)
            expected = w.alpha1 * a + w.alpha2 * o + w.alpha3 * c
            assert abs(b.total.item() - expected) <= 1e-12

    def test_non_finite_named(self):
        with pytest.raises(NumericError, match="l_op"):
            losses.total_loss(Tensor(1.0), Tensor(np.nan), Tensor(1.0), losses.LossWeights())

    def test_weight_validation(self):
        with pytest.raises(ContractError):
            losses.LossWeights(alpha1=-0.1)
        with pytest.raises(ContractError):
            losses.LossWeights(alpha1=0.0, alpha2=0.0, alpha3=0.0)

    def test_total_backpropagates_to_all_components(self):
        a = Tensor(1.0, requires_grad=True)
        o = Tensor(2.0, requires_grad=True)
        c = Tensor(3.0, requires_grad=True)
        losses.total_loss(a, o, c, losses.LossWeights()).total.backward()
        assert a.grad == pytest.approx(0.3)
        assert o.grad == pytest.approx(0.35)
        assert c.grad == pytest.approx(0.35)
