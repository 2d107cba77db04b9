"""Objectives: alignment CE, orthogonal projection, weighted total."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import autodiff as ad
from paeff import hyperbolic as hyp
from paeff import losses
from paeff.autodiff import Tensor
from paeff.errors import ContractError, DimensionError, IndexOutOfRangeError, NumericError
from paeff.gradcheck import check_gradients
from paeff.hyperbolic import BallConfig, PoincarePoint

from chain_check import (
    absolute, assert_matches_chain, div, exp, pairwise_cosine, reshape, sub, symmetric_nll, transpose,
)

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


class TestPairSimilarity:
    """Entries of the alignment's own similarity tables, for both modes."""

    @pytest.mark.parametrize("mode", ["neg_hyperbolic_distance", "cosine"])
    def test_entries_of_similarity_matrix(self, mode):
        rng = np.random.default_rng(7)
        f, v = lifted(rng.normal(size=(5, 4)) * 0.5), lifted(rng.normal(size=(6, 4)) * 0.5)
        i, j = rng.integers(5, size=30), rng.integers(6, size=30)
        got = losses.pair_similarity(f, v, i, j, mode)
        if mode == "cosine":
            table = pairwise_cosine(f.vector, v.vector).numpy()
        else:
            table = -hyp.pairwise_distances(f, v).numpy()
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, table[i, j], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["neg_hyperbolic_distance", "cosine"])
    def test_score_independent_of_pair_position(self, mode):
        # Repeated pairs, in any order, score bit-identically: each is one entry of the table.
        rng = np.random.default_rng(10)
        f, v = lifted(rng.normal(size=(4, 6)) * 0.5), lifted(rng.normal(size=(5, 6)) * 0.5)
        n = 500
        i, j = rng.integers(4, size=n), rng.integers(5, size=n)
        got = losses.pair_similarity(f, v, i, j, mode)
        perm = rng.permutation(n)
        np.testing.assert_array_equal(losses.pair_similarity(f, v, i[perm], j[perm], mode), got[perm])
        first = {}
        for k, pair in enumerate(zip(i.tolist(), j.tolist())):
            assert got[k] == got[first.setdefault(pair, k)]

    @pytest.mark.parametrize("mode", ["neg_hyperbolic_distance", "cosine"])
    @pytest.mark.parametrize("rows,error", [
        ([0, 4], IndexOutOfRangeError),
        ([-1], IndexOutOfRangeError),
        ([[0, 1]], DimensionError),
        ([0.0, 1.0], DimensionError),
    ])
    def test_bad_rows_rejected(self, mode, rows, error):
        f, v = lifted(np.full((4, 3), 0.1)), lifted(np.full((3, 3), 0.2))
        rows = np.asarray(rows)
        valid = np.zeros(rows.size, dtype=np.int64)
        with pytest.raises(error):
            losses.pair_similarity(f, v, rows, valid, mode)
        with pytest.raises(error):
            losses.pair_similarity(v, f, valid, rows, mode)

    @pytest.mark.parametrize("mode", ["neg_hyperbolic_distance", "cosine"])
    def test_mismatched_rows_rejected(self, mode):
        f = lifted(np.full((4, 3), 0.1))
        with pytest.raises(ContractError, match="2 face rows vs 1 voice rows"):
            losses.pair_similarity(f, f, np.array([0, 1]), np.array([0]), mode)

    @pytest.mark.parametrize("mode", ["neg_hyperbolic_distance", "cosine"])
    @pytest.mark.parametrize("entries", [4, 13], ids=["one-row-blocks", "two-row-blocks"])
    def test_blocks_match_per_pair_reference(self, mode, entries, monkeypatch):
        # With 6 voice rows, 13 entries make blocks of 2 face rows (the last one short), and 4 entries
        # still make blocks of one row.
        monkeypatch.setattr(losses, "_TABLE_ENTRIES", entries)
        rng = np.random.default_rng(12)
        x, y = ball_rows(13, 11, 5, "mid"), ball_rows(14, 6, 5, "mid")
        i, j = rng.integers(11, size=200), rng.integers(6, size=200)
        f, v = PoincarePoint(Tensor(x), CFG), PoincarePoint(Tensor(y), CFG)
        got = losses.pair_similarity(f, v, i, j, mode)
        if mode == "cosine":
            unit_x, unit_y = (r / np.linalg.norm(r, axis=1, keepdims=True) for r in (x, y))
            want = np.sum(unit_x[i] * unit_y[j], axis=1)
        else:
            want = -hyp.poincare_distance(PoincarePoint(Tensor(x[i]), CFG), PoincarePoint(Tensor(y[j]), CFG))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["neg_hyperbolic_distance", "cosine"])
    def test_transient_memory_bounded_by_table_blocks(self, mode):
        # 20 000 pairs over 2 000 x 2 000 distinct rows at D = 128: one whole table is a 32 MB array,
        # and the hyperbolic one takes several while it is built.
        n, rows, d = 20_000, 2_000, 128
        rng = np.random.default_rng(41)
        f = PoincarePoint(Tensor(ball_rows(42, rows, d, "mid")), CFG)
        v = PoincarePoint(Tensor(ball_rows(43, rows, d, "mid")), CFG)
        i, j = rng.integers(rows, size=n), rng.integers(rows, size=n)
        tracemalloc.start()
        try:
            losses.pair_similarity(f, v, i, j, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * rows * 8 // 2

    def test_hyperbolic_mode_requires_ball_points(self):
        with pytest.raises(ContractError, match="lifted"):
            losses.pair_similarity(
                Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), [0], [1], "neg_hyperbolic_distance"
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match="unknown similarity mode"):
            losses.pair_similarity(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), [0], [1], "dot")


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


def chain_op_loss(fused, labels, inter_weight=1.0):
    """The orthogonal projection loss as a chain of generic ops: the graph the fused node replaces."""
    y = np.asarray(labels)
    gram = pairwise_cosine(fused, fused)
    same = (y[:, None] == y[None, :]) & ~np.eye(len(y), dtype=bool)
    diff = y[:, None] != y[None, :]
    terms = []
    if same.any():
        terms.append(sub(1.0, div((gram * Tensor(same.astype(np.float64))).sum(), float(same.sum()))))
    if diff.any():
        terms.append(div((absolute(gram) * Tensor(diff.astype(np.float64))).sum(), float(diff.sum())) * inter_weight)
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
        for w in (1.0, 0.5):
            assert_matches_chain(
                lambda f: losses.orthogonal_projection_loss(f, labels, w), lambda f: chain_op_loss(f, labels, w), [x]
            )

    @pytest.mark.parametrize("case", ["mixed", "no_same_label_pairs", "no_different_label_pairs"])
    def test_gradients(self, case):
        labels, x = OP_CASES[case]
        check_gradients(lambda f: losses.orthogonal_projection_loss(f, labels, 0.7), [x])

    def test_zero_row_gradient_goes_through_the_norm_floor(self):
        # Below the 1e-12 floor a row is scaled by 1e12, linearly. A step of 1e-6 leaves that
        # regime (the row becomes a unit vector); a step of 1e-15 stays in it.
        labels, x = OP_CASES["zero_row"]
        rest = Tensor(np.delete(x, 1, axis=0))

        def f(row):
            rows = transpose(ad.concat_cols(transpose(rest), reshape(row, 5, 1)))
            return losses.orthogonal_projection_loss(rows, np.array(labels)[[0, 2, 3, 1]])

        check_gradients(f, [np.zeros(5)], step=1e-15)


def former_op_loss(x, labels, inter_weight):
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
        terms.append(np.sum(np.abs(gram) * diff) / float(diff.sum()) * inter_weight)
        d_gram += np.sign(gram) * diff * (inter_weight / float(diff.sum()))
    d_gram += d_gram.T
    radial = np.divide(1.0, floored * floored * n, out=np.zeros_like(n), where=n >= 1e-12)
    d_unit = d_gram @ unit
    return sum(terms), d_unit / floored - x * (radial * np.sum(d_unit * x, axis=1, keepdims=True))


@pytest.mark.parametrize("labels", [[0, 1, 0, 2, 1], [0, 1, 2, 3, 4], [2, 2, 2, 2, 2]], ids=["repeated", "unique", "one"])
def test_one_buffer_op_loss_matches_former_formula(labels):
    x = with_zero_row(np.random.default_rng(15).normal(size=(5, 6)))
    for w in (1.0, 0.3):
        t = Tensor(x, requires_grad=True)
        loss = losses.orthogonal_projection_loss(t, labels, w)
        loss.backward()
        want, want_grad = former_op_loss(x, labels, w)
        assert loss.item() == pytest.approx(want, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(t.grad, want_grad, rtol=1e-12, atol=1e-12)


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


def test_every_loss_is_a_0d_tensor():
    from paeff import model, trainer

    cfg = model.ModelConfig(face_dim=5, voice_dim=6, num_identities=3, proj_dim=4)
    params = model.init_params(cfg, seed=0)
    rng = np.random.default_rng(12)
    faces, voices = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(4, 6)))
    for use_hyperbolic in (True, False):
        step = trainer.step_losses(faces, voices, np.array([0, 1, 2, 0]), params,
                                   dataclasses.replace(cfg, use_hyperbolic=use_hyperbolic), losses.LossWeights())
        assert [t.shape for t in (step.l_align, step.l_op, step.l_ce, step.total)] == [()] * 4
    assert params.logit_scale.shape == (1,)
