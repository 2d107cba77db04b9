"""Objectives: alignment CE, orthogonal projection, cross-entropy, weighted total."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import hyperbolic as hyp
from paeff import losses
from paeff.autodiff import Tensor
from paeff.errors import ContractError, NumericError
from paeff.hyperbolic import BallConfig, PoincarePoint

from chain_check import (
    absolute, assert_matches_chain, concat_cols, div, exp, log_softmax_nll, pairwise_cosine, reshape, sub,
    symmetric_nll, symmetric_nll_grad, transpose,
)
from gradcheck import check_gradients

CFG = BallConfig()
PAPER_WEIGHTS = (0.3, 0.35, 0.35)  # alpha1..3, TrainConfig's defaults


def lifted(data):
    return hyp.exp_map_origin(Tensor(np.asarray(data, dtype=np.float64)), CFG)


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


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


def brute_force_op_loss(fused, labels):
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
        loss += sum(abs(c) for c in diff) / len(diff)
    return loss


class TestAlignmentLoss:
    def test_perfectly_aligned_limit(self):
        # S = [[1, -1], [-1, 1]] scaled by 10: diagonal +10, off-diagonal -10
        face = Tensor([[1.0, 0.0], [-1.0, 0.0]])
        voice = Tensor([[1.0, 0.0], [-1.0, 0.0]])
        loss = losses.alignment_loss(face, voice, Tensor(math.log(10.0)), "cosine")
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
        assert loss.item() <= 1e-8

    @pytest.mark.parametrize("mode", ["cosine", "neg_hyperbolic_distance"])
    def test_uniform_similarities_rejected(self, mode):
        # Every row at one point: every similarity ties, so no pair is ranked.
        row = np.tile(np.array([0.3, 0.2, 0.0, -0.1]), (4, 1))
        face, voice = (PoincarePoint(Tensor(row), CFG) if mode != "cosine" else Tensor(row) for _ in range(2))
        with pytest.raises(NumericError, match="all 16 similarities equal"):
            losses.alignment_loss(face, voice, Tensor(1.3), mode)

    def test_pairs_at_the_distance_cap_rejected(self):
        # Rows 1e-6 inside the admissible rim and far apart: every distance is capped, so all tie.
        with pytest.raises(NumericError, match="cannot rank the pairs"):
            losses.alignment_loss(PoincarePoint(Tensor(ball_rows(70, 4, 3, "rim")), CFG),
                                  PoincarePoint(Tensor(ball_rows(71, 4, 3, "rim")), CFG), Tensor(0.0))

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

    @pytest.mark.parametrize("mode", ["cosine", "neg_hyperbolic_distance"])
    def test_width_mismatch_rejected(self, mode):
        f, v = Tensor(ball_rows(80, 3, 2, "mid")), Tensor(ball_rows(81, 3, 4, "mid"))
        if mode != "cosine":
            f, v = PoincarePoint(f, CFG), PoincarePoint(v, CFG)
        with pytest.raises(ContractError, match="face and voice widths differ: 2 vs 4"):
            losses.alignment_loss(f, v, Tensor(0.0), mode)

    def test_ball_configs_must_agree(self):
        x = Tensor(ball_rows(82, 3, 2, "mid"))
        with pytest.raises(ContractError, match="ball configs differ"):
            losses.alignment_loss(PoincarePoint(x, CFG), PoincarePoint(x, BallConfig(curvature=2.0)), Tensor(0.0))

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


def ball_rows(seed, b, d, radius):
    """[B x D] rows at mid-radius, or within 1e-6 of the admissible rim."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(b, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if radius == "mid":
        return u * rng.uniform(0.3, 0.7, size=(b, 1))
    return u * CFG.max_norm * (1.0 - rng.uniform(0.0, 1e-6, size=(b, 1)))


def label_mask(labels):
    y = None if labels is None else np.asarray(labels)
    return None if y is None else (y[:, None] == y[None, :]) & ~np.eye(len(y), dtype=bool)


def chain_alignment(face, voice, s, labels):
    """The hyperbolic arm as the chain the fused node replaces: -d * exp(s), then the symmetric NLL."""
    logits = hyp.pairwise_distances(PoincarePoint(face, CFG), PoincarePoint(voice, CFG)) * (exp(s) * -1.0)
    return symmetric_nll(logits, label_mask(labels))


def chain_cosine_alignment(face, voice, s, labels):
    """The cosine arm as the chain the fused node replaces: cos * exp(s), then the symmetric NLL."""
    return symmetric_nll(pairwise_cosine(face, voice) * exp(s), label_mask(labels))


class TestCrossEntropyLoss:
    def test_uniform_logits(self):
        loss = losses.cross_entropy_loss(Tensor(np.zeros((1, 4))), np.array([2]))
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct(self):
        # direct formula: -log(e^10 / (e^10 + e^-10)) = log(1 + e^-20)
        loss = losses.cross_entropy_loss(Tensor([[10.0, -10.0]]), np.array([0]))
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
        assert loss.item() == pytest.approx(2.061e-9, rel=1e-3)

    def test_identical_rows_mean_equals_single(self):
        row = rand((1, 5), 20)
        single = losses.cross_entropy_loss(Tensor(row), np.array([3])).item()
        double = losses.cross_entropy_loss(Tensor(np.vstack([row, row])), np.array([3, 3])).item()
        assert double == pytest.approx(single, abs=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(ContractError, match="target index out of range for 3 classes"):
            losses.cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient(self):
        check_gradients(lambda x: losses.cross_entropy_loss(x, np.array([1, 0, 2])), [rand((3, 4), 21)])

    @pytest.mark.parametrize("labels", [[0.5, 2.9], [0.0, 2.0], [True, False]])
    def test_non_integer_labels_rejected(self, labels):
        # A cast would truncate [0.5, 2.9] to [0, 2] and return that loss.
        with pytest.raises(ContractError, match="integer class labels"):
            losses.cross_entropy_loss(Tensor(np.log([[1.0, 2.0, 4.0]] * 2)), np.array(labels))


def contrastive_nll_node(z, mask=None):
    """``losses.contrastive_nll`` as a node over its logits."""
    loss, grad = losses.contrastive_nll(z.data.copy(), mask)
    return Tensor.from_op(np.asarray(loss), (z,), (lambda g: float(g) * grad,))


class TestContrastiveNll:
    @pytest.mark.parametrize("labels", [None, [0, 1, 0, 2, 1]], ids=["unique", "repeated"])
    def test_matches_chain(self, labels):
        mask = label_mask(labels)
        assert_matches_chain(
            lambda z: contrastive_nll_node(z, mask), lambda z: symmetric_nll(z, mask), [rand((5, 5), 45, 3.0)]
        )

    @pytest.mark.parametrize("labels", [None, [0, 1, 0, 2, 1]], ids=["unique", "repeated"])
    def test_gradients(self, labels):
        mask = label_mask(labels)
        check_gradients(lambda z: contrastive_nll_node(z, mask), [rand((5, 5), 46)])

    def test_uniform_logits_give_log_b(self):
        loss, _ = losses.contrastive_nll(np.zeros((4, 4)))
        assert loss == pytest.approx(math.log(4.0), abs=1e-15)

    def test_masked_entries_get_no_gradient(self):
        mask = label_mask([0, 0, 1])
        _, grad = losses.contrastive_nll(rand((3, 3), 47), mask)
        np.testing.assert_array_equal(grad[mask], 0.0)


@pytest.mark.parametrize("repeated", [False, True], ids=["unique", "repeated"])
@pytest.mark.parametrize("b", [2, 7, 64, 256])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
class TestSoftmaxKernelKeepsTheBits:
    """Both softmax losses on the one kernel equal, bit for bit, the two functions they replace (``chain_check``)."""

    @staticmethod
    def labels(b, repeated, rng):
        y = rng.choice(512, size=b, replace=False)
        if repeated:
            y[-1] = y[0]
        return y

    def test_cross_entropy(self, dtype, b, repeated):
        rng = np.random.default_rng(b)
        logits, labels = (rng.normal(size=(b, 512)) * 4.0).astype(dtype), self.labels(b, repeated, rng)
        results = []
        for loss_of in (losses.cross_entropy_loss, log_softmax_nll):
            x = Tensor(logits, requires_grad=True)
            loss = loss_of(x, labels)
            loss.backward()
            results.append((loss.data, x.grad))
        (got, got_grad), (want, want_grad) = results
        assert got.dtype == want.dtype == dtype and got_grad.dtype == want_grad.dtype == dtype
        assert np.array_equal(got, want) and np.array_equal(got_grad, want_grad)

    def test_contrastive_nll(self, dtype, b, repeated):
        rng = np.random.default_rng(b)
        z, labels = (rng.normal(size=(b, b)) * 4.0).astype(dtype), self.labels(b, repeated, rng)
        mask = label_mask(labels) if repeated else None
        got, got_grad = losses.contrastive_nll(z.copy(), mask)
        want, want_grad = symmetric_nll_grad(z.copy(), mask)
        assert got == want
        assert got_grad.dtype == want_grad.dtype == dtype and np.array_equal(got_grad, want_grad)


class TestHyperbolicAlignmentNode:
    LABELS = {"unique": None, "repeated": [0, 1, 0, 2, 1, 3]}

    @pytest.mark.parametrize("radius", ["mid", "rim"])
    @pytest.mark.parametrize("labels", list(LABELS))
    def test_matches_chain(self, radius, labels):
        labels = self.LABELS[labels]

        def fused(a, b, s):
            return losses.alignment_loss(PoincarePoint(a, CFG), PoincarePoint(b, CFG), s, labels=labels)

        x, y = ball_rows(60, 6, 5, radius), ball_rows(61, 6, 5, radius)
        y[2] = x[2] + 1e-3 * (ball_rows(62, 1, 5, "mid")[0])  # one close pair
        assert_matches_chain(fused, lambda a, b, s: chain_alignment(a, b, s, labels), [x, y, np.array(0.7)])

    def test_is_one_tape_node(self):
        x, y = Tensor(ball_rows(63, 4, 3, "mid"), requires_grad=True), Tensor(ball_rows(64, 4, 3, "mid"))
        s = Tensor(0.4, requires_grad=True)
        loss = losses.alignment_loss(PoincarePoint(x, CFG), PoincarePoint(y, CFG), s, labels=[0, 1, 0, 2])
        assert loss._parents[0] is x and loss._parents[2] is s and len(loss._parents) == 3

    @pytest.mark.parametrize("labels", list(LABELS))
    def test_gradients(self, labels):
        labels = self.LABELS[labels]

        def f(a, b, s):
            return losses.alignment_loss(PoincarePoint(a, CFG), PoincarePoint(b, CFG), s, labels=labels)

        check_gradients(f, [ball_rows(65, 6, 4, "mid"), ball_rows(66, 6, 4, "mid"), np.array(1.1)])

    def test_off_ball_row_rejected(self):
        inside = PoincarePoint(Tensor(ball_rows(67, 3, 2, "mid")), CFG)
        outside = PoincarePoint(Tensor([[0.1, 0.0], [1.0, 0.0], [0.0, 0.2]]), CFG)
        for face, voice in ((outside, inside), (inside, outside)):
            with pytest.raises(NumericError, match="outside the unit ball"):
                losses.alignment_loss(face, voice, Tensor(0.0))

    def test_contract_errors(self):
        three, four = (PoincarePoint(Tensor(ball_rows(68, n, 2, "mid")), CFG) for n in (3, 4))
        one = PoincarePoint(Tensor(ball_rows(69, 1, 2, "mid")), CFG)
        with pytest.raises(ContractError, match="at least 2 pairs"):
            losses.alignment_loss(one, one, Tensor(0.0))
        with pytest.raises(ContractError, match=r"matched batches, got \(3, 4\)"):
            losses.alignment_loss(three, four, Tensor(0.0))
        with pytest.raises(ContractError, match="labels shape"):
            losses.alignment_loss(three, three, Tensor(0.0), labels=[0, 1])
        with pytest.raises(ContractError, match=r"matched batches, got \(3, 4\)"):
            losses.alignment_loss(three, four, Tensor(0.0), "cosine")
        with pytest.raises(ContractError, match="lifted"):
            losses.alignment_loss(three.vector, three.vector, Tensor(0.0))
        with pytest.raises(ContractError, match="unknown similarity mode"):
            losses.alignment_loss(three, three, Tensor(0.0), "dot")


def with_zero_row(x):
    x = x.copy()
    x[1] = 0.0
    return x


class TestCosineAlignmentNode:
    CASES = {
        # name: (labels, face rows, voice rows)
        "unique": (None, np.random.default_rng(70).normal(size=(6, 5)), np.random.default_rng(71).normal(size=(6, 5))),
        "repeated": ([0, 1, 0, 2, 1, 3], np.random.default_rng(72).normal(size=(6, 5)),
                     np.random.default_rng(73).normal(size=(6, 5))),
        "zero_row": ([0, 1, 0, 2, 1, 3], with_zero_row(np.random.default_rng(74).normal(size=(6, 5))),
                     with_zero_row(np.random.default_rng(75).normal(size=(6, 5)))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_chain(self, case):
        labels, x, y = self.CASES[case]

        def fused(a, b, s):
            return losses.alignment_loss(a, b, s, "cosine", labels)

        assert_matches_chain(fused, lambda a, b, s: chain_cosine_alignment(a, b, s, labels), [x, y, np.array(0.7)])

    @pytest.mark.parametrize("case", ["unique", "repeated"])
    def test_gradients(self, case):
        labels, x, y = self.CASES[case]
        check_gradients(lambda a, b, s: losses.alignment_loss(a, b, s, "cosine", labels), [x, y, np.array(1.1)])

    def test_is_one_tape_node(self):
        x, y = Tensor(ball_rows(76, 4, 3, "mid"), requires_grad=True), Tensor(ball_rows(77, 4, 3, "mid"))
        s = Tensor(0.4, requires_grad=True)
        loss = losses.alignment_loss(x, y, s, "cosine", labels=[0, 1, 0, 2])
        assert loss._parents[0] is x and loss._parents[2] is s and len(loss._parents) == 3


class TestSimilarityArm:
    """The arm chooser that the alignment node and the evaluation scorer share."""

    @pytest.mark.parametrize("mode", ["neg_hyperbolic_distance", "cosine"])
    def test_signed_table_is_the_arms_similarity(self, mode):
        rng = np.random.default_rng(7)
        f, v = lifted(rng.normal(size=(5, 4)) * 0.5), lifted(rng.normal(size=(6, 4)) * 0.5)
        table_of, sign = losses.similarity_arm(f, v, mode)
        table, _ = table_of(f.vector.numpy(), v.vector.numpy())
        if mode == "cosine":
            want = pairwise_cosine(f.vector, v.vector).numpy()
        else:
            want = -hyp.pairwise_distances(f, v).numpy()
        assert sign == (1.0 if mode == "cosine" else -1.0)
        np.testing.assert_allclose(sign * table, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("lifted_side", ["face", "voice", "neither"])
    def test_hyperbolic_mode_requires_ball_points(self, lifted_side):
        ball, flat = lifted(np.full((2, 3), 0.1)), Tensor(np.full((2, 3), 0.1))
        face = ball if lifted_side == "face" else flat
        voice = ball if lifted_side == "voice" else flat
        with pytest.raises(ContractError, match="lifted"):
            losses.similarity_arm(face, voice, "neg_hyperbolic_distance")

    def test_unknown_mode_rejected(self):
        x = lifted(np.full((2, 3), 0.1))
        with pytest.raises(ContractError, match="unknown similarity mode 'dot'"):
            losses.similarity_arm(x, x, "dot")


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

    @pytest.mark.parametrize("labels", [None, [0, 1]])
    def test_labels_must_match_the_batch(self, labels):
        with pytest.raises(ContractError, match="labels shape"):
            losses.orthogonal_projection_loss(Tensor(np.ones((3, 2))), labels)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        labels = np.array([0, 1, 0])
        check_gradients(
            lambda f: losses.orthogonal_projection_loss(f, labels), [rng.normal(size=(3, 4))]
        )


def chain_op_loss(fused, labels):
    """The orthogonal projection loss as a chain of generic ops: the graph the fused node replaces."""
    y = np.asarray(labels)
    gram = pairwise_cosine(fused, fused)
    same = (y[:, None] == y[None, :]) & ~np.eye(len(y), dtype=bool)
    diff = y[:, None] != y[None, :]
    terms = []
    if same.any():
        terms.append(sub(1.0, div((gram * Tensor(same.astype(np.float64))).sum(), float(same.sum()))))
    if diff.any():
        terms.append(div((absolute(gram) * Tensor(diff.astype(np.float64))).sum(), float(diff.sum())))
    return terms[0] if len(terms) == 1 else terms[0] + terms[1]


OP_CASES = {
    # name: (labels, rows)
    "mixed": ([0, 1, 0, 2], np.random.default_rng(11).normal(size=(4, 5))),
    "no_same_label_pairs": ([0, 1, 2, 3], np.random.default_rng(12).normal(size=(4, 5))),
    "no_different_label_pairs": ([1, 1, 1, 1], np.random.default_rng(13).normal(size=(4, 5))),
    "zero_row": ([0, 1, 0, 1], with_zero_row(np.random.default_rng(14).normal(size=(4, 5)))),
}


class TestOrthogonalProjectionNode:
    @pytest.mark.parametrize("case", list(OP_CASES))
    def test_matches_chain(self, case):
        labels, x = OP_CASES[case]
        assert_matches_chain(
            lambda f: losses.orthogonal_projection_loss(f, labels), lambda f: chain_op_loss(f, labels), [x]
        )

    @pytest.mark.parametrize("case", ["mixed", "no_same_label_pairs", "no_different_label_pairs"])
    def test_gradients(self, case):
        labels, x = OP_CASES[case]
        check_gradients(lambda f: losses.orthogonal_projection_loss(f, labels), [x])

    def test_zero_row_gradient_goes_through_the_norm_floor(self):
        # Below the 1e-12 floor a row is scaled by 1e12, linearly. A step of 1e-6 leaves that
        # regime (the row becomes a unit vector); a step of 1e-15 stays in it.
        labels, x = OP_CASES["zero_row"]
        rest = Tensor(np.delete(x, 1, axis=0))

        def f(row):
            rows = transpose(concat_cols(transpose(rest), reshape(row, 5, 1)))
            return losses.orthogonal_projection_loss(rows, np.array(labels)[[0, 2, 3, 1]])

        check_gradients(f, [np.zeros(5)], step=1e-15)


def former_op_loss(x, labels):
    """The OP loss value and gradient as the fused node computed them before it kept one buffer."""
    y = np.asarray(labels)
    b = x.shape[0]
    n = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    floored = np.maximum(n, 1e-12)
    unit = x / floored
    gram = unit @ unit.T
    same = (y[:, None] == y[None, :]) & ~np.eye(b, dtype=bool)
    diff = y[:, None] != y[None, :]
    terms, d_gram = [], np.zeros((b, b))
    if same.any():
        terms.append(1.0 - np.sum(gram * same) / float(same.sum()))
        d_gram -= same / float(same.sum())
    if diff.any():
        terms.append(np.sum(np.abs(gram) * diff) / float(diff.sum()))
        d_gram += np.sign(gram) * diff / float(diff.sum())
    d_gram += d_gram.T
    radial = np.divide(1.0, floored * floored * n, out=np.zeros_like(n), where=n >= 1e-12)
    d_unit = d_gram @ unit
    return sum(terms), d_unit / floored - x * (radial * np.sum(d_unit * x, axis=1, keepdims=True))


@pytest.mark.parametrize("labels", [[0, 1, 0, 2, 1], [0, 1, 2, 3, 4], [2, 2, 2, 2, 2]], ids=["repeated", "unique", "one"])
def test_one_buffer_op_loss_matches_former_formula(labels):
    x = with_zero_row(np.random.default_rng(15).normal(size=(5, 6)))
    t = Tensor(x, requires_grad=True)
    loss = losses.orthogonal_projection_loss(t, labels)
    loss.backward()
    want, want_grad = former_op_loss(x, labels)
    assert loss.item() == pytest.approx(want, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(t.grad, want_grad, rtol=1e-12, atol=1e-12)


class TestTotalLoss:
    def test_paper_weights_unit_components(self):
        b = losses.total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), PAPER_WEIGHTS)
        assert b.total.item() == pytest.approx(1.0, abs=1e-15)

    def test_align_only(self):
        w = (1.0, 0.0, 0.0)
        b = losses.total_loss(Tensor(2.5), Tensor(9.0), Tensor(4.0), w)
        assert b.total.item() == 2.5

    def test_arithmetic_oracle(self):
        b = losses.total_loss(Tensor(2.0), Tensor(4.0), Tensor(6.0), PAPER_WEIGHTS)
        assert b.total.item() == pytest.approx(0.6 + 1.4 + 2.1, abs=1e-12)
        assert b.total.item() == pytest.approx(4.1, abs=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, o, c = rng.uniform(0, 5, size=3)
            a1, a2, a3 = PAPER_WEIGHTS
            b = losses.total_loss(Tensor(a), Tensor(o), Tensor(c), PAPER_WEIGHTS)
            expected = a1 * a + a2 * o + a3 * c
            assert abs(b.total.item() - expected) <= 1e-12

    def test_non_finite_named(self):
        with pytest.raises(NumericError, match="l_op"):
            losses.total_loss(Tensor(1.0), Tensor(np.nan), Tensor(1.0), PAPER_WEIGHTS)

    def test_total_backpropagates_to_all_components(self):
        a = Tensor(1.0, requires_grad=True)
        o = Tensor(2.0, requires_grad=True)
        c = Tensor(3.0, requires_grad=True)
        losses.total_loss(a, o, c, PAPER_WEIGHTS).total.backward()
        assert a.grad == pytest.approx(0.3)
        assert o.grad == pytest.approx(0.35)
        assert c.grad == pytest.approx(0.35)


def test_every_loss_is_a_0d_tensor():
    from paeff import model, trainer

    cfg = model.ModelConfig(face_dim=5, voice_dim=6, num_identities=3, proj_dim=4)
    params = model.init_params(cfg, seed=0)
    rng = np.random.default_rng(12)
    faces, voices = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(4, 6)))
    for use_hyperbolic in (True, False):
        step = trainer.step_losses(faces, voices, np.array([0, 1, 2, 0]), params,
                                   dataclasses.replace(cfg, use_hyperbolic=use_hyperbolic), PAPER_WEIGHTS)
        assert [t.shape for t in (step.l_align, step.l_op, step.l_ce, step.total)] == [()] * 4
    assert params.logit_scale.shape == (1,)
