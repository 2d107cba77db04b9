"""Verification and matching metrics against brute-force oracles."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as ref
import record_walk as walk
from chain_check import pairwise_cosine
from paeff import data, evaluation, hyperbolic as hyp, model
from paeff.autodiff import Tensor
from paeff.data import SplitSpec
from paeff.errors import ContractError, DataError, NumericError
from paeff.evaluation import VerificationTrial

trapezoid = getattr(np, "trapezoid", None) or np.trapz

# -- independent oracles -------------------------------------------------------


def oracle_eer(scores, labels):
    """Naive threshold sweep with linear interpolation at the crossing."""
    thresholds = sorted(set(scores)) + [max(scores) + 1.0]
    points = [
        (np.mean(scores[~labels] >= t), np.mean(scores[labels] < t)) for t in thresholds
    ]
    for (f0, r0), (f1, r1) in zip(points, points[1:]):
        d0, d1 = f0 - r0, f1 - r1
        if d0 >= 0.0 >= d1:
            lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
            return float(f0 + lam * (f1 - f0))
    return float(points[0][0])


def oracle_auc(scores, labels):
    """Direct concordant/tied pair counting."""
    pos, neg = scores[labels], scores[~labels]
    concordant = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (concordant + 0.5 * ties) / (len(pos) * len(neg))


def oracle_roc(scores, labels):
    """[2 x T+1] FPR and TPR from (0, 0), at each distinct threshold swept down from the top score."""
    points = [(0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        points.append((np.mean(scores[~labels] >= t), np.mean(scores[labels] >= t)))
    return np.array(points).T


def trials_from(scores, labels):
    return [VerificationTrial(score=float(s), is_match=bool(m)) for s, m in zip(scores, labels)]


class TestEer:
    def test_separable(self):
        t = trials_from([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        eer, _ = evaluation.compute_eer(t)
        assert eer == 0.0

    def test_single_crossing_at_half(self):
        t = trials_from([0.9, 0.1, 0.8, 0.2], [True, True, False, False])
        eer, _ = evaluation.compute_eer(t)
        assert eer == pytest.approx(0.5, abs=1e-12)
        assert eer == pytest.approx(oracle_eer(np.array([0.9, 0.1, 0.8, 0.2]), np.array([True, True, False, False])))

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=30)
        labels = rng.uniform(size=30) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        eer, _ = evaluation.compute_eer(trials_from(scores, labels))
        flipped, _ = evaluation.compute_eer(trials_from(scores, ~labels))
        assert flipped == pytest.approx(1.0 - eer, abs=1e-9)

    def test_threshold_balances_rates(self):
        rng = np.random.default_rng(1)
        scores = np.concatenate([rng.normal(1.0, 1.0, 50), rng.normal(-1.0, 1.0, 50)])
        labels = np.array([True] * 50 + [False] * 50)
        eer, threshold = evaluation.compute_eer(trials_from(scores, labels))
        far = np.mean(scores[~labels] >= threshold)
        frr = np.mean(scores[labels] < threshold)
        # at the interpolated threshold the two rates differ by at most one step
        assert abs(far - frr) <= 1.0 / 50 + 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            evaluation.compute_eer(trials_from([0.1, 0.2], [True, True]))

    def test_unscored_rejected(self):
        with pytest.raises(ContractError):
            evaluation.compute_eer([VerificationTrial(score=None, is_match=True),
                                    VerificationTrial(score=0.1, is_match=False)])

    @pytest.mark.parametrize("metric", [evaluation.compute_eer, evaluation.compute_auc])
    def test_nan_score_rejected(self, metric):
        t = trials_from([0.9, np.nan, 0.1, 0.3, np.nan, 0.2], [True] * 3 + [False] * 3)
        with pytest.raises(NumericError):
            metric(t)


class TestScoreRules:
    """The array metrics and the trial metrics reject the same faults, a trial list's in one order."""

    ARRAY_METRICS = [evaluation.eer_from_scores, evaluation.auc_from_scores, evaluation.roc_points]
    TRIAL_METRICS = [evaluation.compute_eer, evaluation.compute_auc, evaluation.compute_roc]

    @pytest.mark.parametrize("metric", ARRAY_METRICS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, metric, bad):
        scores = np.array([0.9, bad, 0.1, 0.3, bad, 0.2])
        with pytest.raises(NumericError, match="2 trial scores are not finite"):
            metric(scores, np.array([True] * 3 + [False] * 3))

    @pytest.mark.parametrize("metric", ARRAY_METRICS)
    @pytest.mark.parametrize("is_match", [True, False])
    def test_one_class_rejected(self, metric, is_match):
        with pytest.raises(ContractError, match="need at least one match and one non-match trial"):
            metric(np.array([0.1, 0.2, 0.3]), np.full(3, is_match))

    @pytest.mark.parametrize("metric", TRIAL_METRICS)
    def test_trial_checks_run_scored_finite_tie_classes(self, metric):
        # Each list breaks the rule it names and every rule after it, all of one class.
        cases = [
            ([None, np.inf, np.inf], ContractError, "must be scored"),
            ([np.inf, np.inf, np.inf], NumericError, "3 trial scores are not finite"),
            ([0.5, 0.5, 0.5], NumericError, "cannot rank"),
            ([0.1, 0.2, 0.3], ContractError, "one match and one non-match"),
        ]
        for scores, error, message in cases:
            with pytest.raises(error, match=message):
                metric([VerificationTrial(s, True) for s in scores])


class TestAuc:
    def test_perfect_separation(self):
        t = trials_from([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert evaluation.compute_auc(t) == 1.0

    def test_three_of_four_concordant(self):
        t = trials_from([0.8, 0.4, 0.6, 0.2], [True, True, False, False])
        assert evaluation.compute_auc(t) == pytest.approx(0.75, abs=1e-15)

    def test_all_ties_give_half(self):
        labels = np.array([True, True, True, False, False, False])
        assert evaluation.auc_from_scores(np.full(6, 0.5), labels) == 0.5

    @pytest.mark.parametrize("metric", [evaluation.compute_auc, evaluation.compute_eer])
    def test_trials_whose_scores_all_tie_are_rejected(self, metric):
        # One distinct score cannot rank the trials; an EER of 0.5 read off it would hide that.
        t = trials_from([-12.2061] * 6, [True, True, True, False, False, False])
        with pytest.raises(NumericError, match="all 6 trial scores equal"):
            metric(t)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=25)
        labels = rng.uniform(size=25) < 0.4
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        base = evaluation.auc_from_scores(scores, labels)
        warped = evaluation.auc_from_scores(np.exp(scores * 0.5) + 3.0, labels)
        assert warped == pytest.approx(base, abs=1e-15)

    def test_rank_statistic_matches_trapezoid_without_ties(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=60)
        assert len(np.unique(scores)) == 60
        labels = rng.uniform(size=60) < 0.5
        labels[0], labels[1] = True, False
        auc = evaluation.auc_from_scores(scores, labels)
        fpr, tpr = evaluation.roc_points(scores, labels)
        assert auc == pytest.approx(trapezoid(tpr, fpr), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 80), rounded=st.booleans())
def test_metrics_match_oracles_exactly(seed, n, rounded):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if rounded:
        scores = np.round(scores, 1)  # force tied scores
    labels = rng.uniform(size=n) < 0.5
    if labels.all() or not labels.any():
        labels[0] = ~labels[0]
    eer, _ = evaluation.eer_from_scores(scores, labels)
    assert eer == pytest.approx(oracle_eer(scores, labels), abs=1e-12)
    assert evaluation.auc_from_scores(scores, labels) == pytest.approx(
        oracle_auc(scores, labels), abs=1e-12
    )
    roc, want = np.array(evaluation.roc_points(scores, labels)), oracle_roc(scores, labels)
    assert roc.shape == want.shape and np.abs(roc - want).max() < 1e-12


# -- model-backed scoring ---------------------------------------------------------


def small_setup(rho=1.0, seed=3, face_dim=10, voice_dim=9):
    ds = data.synth_generate(8, 4, face_dim, voice_dim, rho, 0.1, seed=seed, latent_dim=4)
    split = data.make_unseen_split(ds, n_val=2, n_test=3, seed=seed)
    cfg = model.ModelConfig(face_dim=face_dim, voice_dim=voice_dim, num_identities=3, proj_dim=6)
    params = model.init_params(cfg, seed=seed)
    return ds, split, cfg, params


def score_alone(face, voice, params, cfg):
    """The score of one face record against one voice record, scored as a trial list of its own."""
    (trial,) = evaluation.score_trials([VerificationTrial(None, False, face, voice)], params, cfg)
    return trial.score


class TestScoring:
    def test_identical_aligned_embeddings_score_zero_distance(self):
        ds, split, cfg, params = small_setup()
        rec = ds.records[0]
        # craft a voice embedding whose projection matches the face projection exactly
        face = rec.vector[None, :]
        f_pt = model.encode_modality(Tensor(face), "face", params, cfg)
        # same-point score is the max possible score (0 = -distance of 0)
        self_score = -hyp.poincare_distance(f_pt, f_pt).item()
        assert self_score == 0.0

    def test_one_row_score_matches_independent_distance(self):
        ds, split, cfg, params = small_setup()
        face_rec = next(r for r in ds.records if r.modality == "face")
        voice_rec = next(r for r in ds.records if r.modality == "voice")
        face, voice = face_rec.vector, voice_rec.vector
        got = score_alone(face_rec, voice_rec, params, cfg)
        f = model.encode_modality(Tensor(face[None, :]), "face", params, cfg)
        v = model.encode_modality(Tensor(voice[None, :]), "voice", params, cfg)
        expected = -hyp.poincare_distance(
            hyp.PoincarePoint(Tensor(f.numpy()[0:1]), cfg.ball),
            hyp.PoincarePoint(Tensor(v.numpy()[0:1]), cfg.ball),
        ).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_cosine_arm_matches_independent_cosine(self):
        ds, split, cfg, params = small_setup()
        cfg = dataclasses.replace(cfg, use_hyperbolic=False)
        face_recs = [r for r in ds.records if r.modality == "face"][:6]
        voice_recs = [r for r in ds.records if r.modality == "voice"][:6]
        trials = [VerificationTrial(None, False, f, v) for f, v in zip(face_recs, voice_recs)]
        got = [t.score for t in evaluation.score_trials(trials, params, cfg)]
        faces, voices = np.stack([r.vector for r in face_recs]), np.stack([r.vector for r in voice_recs])
        pf = faces @ params.face_weight.data + params.face_bias.data
        pv = voices @ params.voice_weight.data + params.voice_bias.data
        expected = np.sum(pf * pv, axis=1) / (np.linalg.norm(pf, axis=1) * np.linalg.norm(pv, axis=1))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_every_row_clipped_orders_trials_as_cosine(self):
        # With every projection longer than the tangent clip, as trained projections are at the defaults,
        # the lifted rows share one radius. There the Poincare distance is a monotone function of the
        # rows' cosine, so both arms rank trials alike.
        ds, split, cfg, params = small_setup()
        params.face_weight.data *= 4.0
        params.voice_weight.data *= 4.0
        trials = evaluation.build_verification_trials(ds, split, 200, seed=1)
        for which in ("face", "voice"):
            rows = np.stack([getattr(t, which).vector for t in trials])
            proj = model.project_modality(Tensor(rows), which, params, cfg).numpy()
            assert np.linalg.norm(proj, axis=1).min() > cfg.tangent_clip
        hyperbolic = np.array([t.score for t in evaluation.score_trials(trials, params, cfg)])
        cosine = np.array([t.score for t in evaluation.score_trials(trials, params, cosine_arm(cfg))])
        assert np.unique(cosine).size > 50
        np.testing.assert_array_equal(np.sign(np.subtract.outer(hyperbolic, hyperbolic)),
                                      np.sign(np.subtract.outer(cosine, cosine)))

    def test_trial_scoring_order_invariant(self):
        ds, split, cfg, params = small_setup()
        trials = evaluation.build_verification_trials(ds, split, 40, seed=1)
        evaluation.score_trials(trials, params, cfg)
        forward = [t.score for t in trials]
        reversed_trials = list(reversed(trials))
        for t in reversed_trials:
            t.score = None
        evaluation.score_trials(reversed_trials, params, cfg)
        assert [t.score for t in reversed(reversed_trials)] == pytest.approx(forward, abs=1e-12)


class TestMatching:
    def test_exact_match_wins(self):
        ds, split, cfg, params = small_setup()
        rec_f = next(r for r in ds.records if r.modality == "face")
        probe = next(r for r in ds.records if r.modality == "voice" and r.identity_id == rec_f.identity_id)
        gallery = [rec_f] + [
            data.EmbeddingRecord("other", "face", f"o{i}", rec_f.vector + 50.0 * np.eye(10)[i])
            for i in range(3)
        ]
        trial = evaluation.MatchingTrial(probe, gallery, 0)
        # score the true matched face far closer than the shifted distractors
        match_score = score_alone(rec_f, probe, params, cfg)
        result = evaluation.matching_accuracy([trial], params, cfg)
        others = [score_alone(g, probe, params, cfg) for g in gallery[1:]]
        if match_score > max(others):
            assert result.accuracy == 1.0

    def test_chance_level_untrained(self):
        # untrained model on uncoupled data: accuracy ~ 1/n_c
        ds = data.synth_generate(40, 3, 8, 8, 0.0, 1.0, seed=4, latent_dim=4)
        ids = ds.identity_ids
        split = SplitSpec("unseen_unheard", frozenset(ids[:8]), frozenset(ids[8:12]), frozenset(ids[12:]))
        cfg = model.ModelConfig(face_dim=8, voice_dim=8, num_identities=8, proj_dim=6)
        params = model.init_params(cfg, seed=5)
        trials = evaluation.build_matching_trials(ds, split, n_c=4, n_trials=1000, seed=6)
        result = evaluation.matching_accuracy(trials, params, cfg)
        # 3 sigma binomial window around 1/4, widened for identity clustering
        assert abs(result.accuracy - 0.25) <= 0.1

    def test_nc2_reduces_to_forced_choice(self):
        ds, split, cfg, params = small_setup()
        trials = evaluation.build_matching_trials(ds, split, n_c=2, n_trials=60, seed=7)
        result = evaluation.matching_accuracy(trials, params, cfg)
        wins = 0
        for t in trials:
            scores = [score_alone(g, t.probe, params, cfg) for g in t.gallery]
            if int(np.argmax(scores)) == t.correct_index:
                wins += 1
        assert result.accuracy == pytest.approx(wins / len(trials), abs=1e-12)

    def test_gallery_permutation_invariance(self):
        ds, split, cfg, params = small_setup()
        trials = evaluation.build_matching_trials(ds, split, n_c=4, n_trials=30, seed=8)
        base = evaluation.matching_accuracy(trials, params, cfg)
        rng = np.random.default_rng(9)
        permuted = []
        for t in trials:
            perm = rng.permutation(len(t.gallery))
            gallery = [t.gallery[i] for i in perm]
            correct = int(np.where(perm == t.correct_index)[0][0])
            permuted.append(evaluation.MatchingTrial(t.probe, gallery, correct))
        assert evaluation.matching_accuracy(permuted, params, cfg).accuracy == base.accuracy

    def test_mixed_gallery_sizes_rejected(self):
        ds, split, cfg, params = small_setup()
        t2 = evaluation.build_matching_trials(ds, split, 2, 2, seed=10)
        t3 = evaluation.build_matching_trials(ds, split, 3, 2, seed=10)
        with pytest.raises(ContractError):
            evaluation.matching_accuracy(t2 + t3, params, cfg)

    def test_empty_rejected(self):
        ds, split, cfg, params = small_setup()
        with pytest.raises(ContractError):
            evaluation.matching_accuracy([], params, cfg)

    @pytest.mark.parametrize("face_dim", [9, 10])  # equal dims would swap the encoders silently
    def test_mixed_probe_modalities_rejected(self, face_dim):
        ds, split, cfg, params = small_setup(face_dim=face_dim, voice_dim=9)
        voice = evaluation.build_matching_trials(ds, split, 4, 20, seed=22, probe_modality="voice")
        face = evaluation.build_matching_trials(ds, split, 4, 20, seed=22, probe_modality="face")
        # The first trial's probe sets the modality; the first face probe after it is refused.
        clip = face[0].probe.clip_id
        with pytest.raises(ContractError, match=f"trial probe slot holds face clip '{clip}'; it takes voice records"):
            evaluation.matching_accuracy(voice + face, params, cfg)

    def test_tie_counting(self):
        ds, split, cfg, params = small_setup()
        rec_f = next(r for r in ds.records if r.modality == "face")
        probe = next(r for r in ds.records if r.modality == "voice")
        twin = data.EmbeddingRecord("twin", "face", "twin0", rec_f.vector.copy())
        trial = evaluation.MatchingTrial(probe, [rec_f, twin], 0)
        result = evaluation.matching_accuracy([trial], params, cfg)
        assert result.tie_count == 1
        assert result.accuracy == 1.0  # lowest index wins the tie


def cosine_arm(cfg):
    return dataclasses.replace(cfg, use_hyperbolic=False)


ARMS = {"hyperbolic": lambda cfg: cfg, "cosine": cosine_arm}


def captured_similarity(monkeypatch):
    """Record every score vector evaluation computes from encoded rows."""
    seen = []
    original = evaluation._pair_scores

    def spy(f, v, f_rows, v_rows, cfg):
        out = original(f, v, f_rows, v_rows, cfg)
        seen.append(out)
        return out

    monkeypatch.setattr(evaluation, "_pair_scores", spy)
    return seen


BALL = hyp.BallConfig()
ARM_CFGS = {arm: make(model.ModelConfig(4, 4, num_identities=2)) for arm, make in ARMS.items()}


def ball_rows(seed, b, d):
    """[B x D] rows at radius 0.3 to 0.7 of the ball."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(b, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True) * rng.uniform(0.3, 0.7, size=(b, 1))


def lifted(x):
    return hyp.exp_map_origin(Tensor(np.asarray(x, dtype=np.float64)), BALL)


class TestPairScores:
    """The scorer gathers entries of the alignment's own similarity table, for both arms."""

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_entries_of_the_arms_table(self, arm):
        rng = np.random.default_rng(7)
        f, v = lifted(rng.normal(size=(5, 4)) * 0.5), lifted(rng.normal(size=(6, 4)) * 0.5)
        i, j = rng.integers(5, size=30), rng.integers(6, size=30)
        got = evaluation._pair_scores(f, v, i, j, ARM_CFGS[arm])
        if arm == "cosine":
            table = pairwise_cosine(f.vector, v.vector).numpy()
        else:
            table = -hyp.pairwise_distances(f, v).numpy()
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, table[i, j], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_repeats_score_bit_identically_in_any_order(self, arm):
        # Each pair is one entry of the table, wherever and however often it appears.
        rng = np.random.default_rng(10)
        f, v = lifted(rng.normal(size=(4, 6)) * 0.5), lifted(rng.normal(size=(5, 6)) * 0.5)
        n = 500
        i, j = rng.integers(4, size=n), rng.integers(5, size=n)
        got = evaluation._pair_scores(f, v, i, j, ARM_CFGS[arm])
        perm = rng.permutation(n)
        np.testing.assert_array_equal(evaluation._pair_scores(f, v, i[perm], j[perm], ARM_CFGS[arm]), got[perm])
        first = {}
        for k, pair in enumerate(zip(i.tolist(), j.tolist())):
            assert got[k] == got[first.setdefault(pair, k)]

    @pytest.mark.parametrize("arm", sorted(ARMS))
    @pytest.mark.parametrize("entries", [4, 13], ids=["one-row-blocks", "two-row-blocks"])
    def test_blocks_match_per_pair_reference(self, arm, entries, monkeypatch):
        # With 6 voice rows, 13 entries make blocks of 2 face rows (the last one short), and 4 entries
        # still make blocks of one row.
        monkeypatch.setattr(evaluation, "_TABLE_ENTRIES", entries)
        rng = np.random.default_rng(12)
        x, y = ball_rows(13, 11, 5), ball_rows(14, 6, 5)
        i, j = rng.integers(11, size=200), rng.integers(6, size=200)
        f, v = hyp.PoincarePoint(Tensor(x), BALL), hyp.PoincarePoint(Tensor(y), BALL)
        got = evaluation._pair_scores(f, v, i, j, ARM_CFGS[arm])
        if arm == "cosine":
            unit_x, unit_y = (r / np.linalg.norm(r, axis=1, keepdims=True) for r in (x, y))
            want = np.sum(unit_x[i] * unit_y[j], axis=1)
        else:
            want = -hyp.poincare_distance(*(hyp.PoincarePoint(Tensor(r), BALL) for r in (x[i], y[j])))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_transient_memory_bounded_by_table_blocks(self, arm):
        # 20 000 pairs over 2 000 x 2 000 distinct rows at D = 128: one whole table is a 32 MB array,
        # and the hyperbolic one takes several while it is built.
        n, rows, d = 20_000, 2_000, 128
        rng = np.random.default_rng(41)
        f = hyp.PoincarePoint(Tensor(ball_rows(42, rows, d)), BALL)
        v = hyp.PoincarePoint(Tensor(ball_rows(43, rows, d)), BALL)
        i, j = rng.integers(rows, size=n), rng.integers(rows, size=n)
        tracemalloc.start()
        try:
            evaluation._pair_scores(f, v, i, j, ARM_CFGS[arm])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * rows * 8 // 2


class TestScoringByIndex:
    """Trial scoring encodes distinct records once and must equal scoring each trial alone."""

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_score_trials_equals_per_trial_scores(self, arm):
        ds, split, cfg, params = small_setup()
        cfg = ARMS[arm](cfg)
        trials = evaluation.build_verification_trials(ds, split, 60, seed=17)
        assert len({id(t.face) for t in trials}) < len(trials)  # records are reused
        evaluation.score_trials(trials, params, cfg)
        expected = [score_alone(t.face, t.voice, params, cfg) for t in trials]
        np.testing.assert_allclose([t.score for t in trials], expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("arm", sorted(ARMS))
    @pytest.mark.parametrize("probe_modality", ["voice", "face"])
    def test_matching_equals_per_trial_scores(self, arm, probe_modality, monkeypatch):
        ds, split, cfg, params = small_setup()
        cfg = ARMS[arm](cfg)
        trials = evaluation.build_matching_trials(
            ds, split, n_c=3, n_trials=40, seed=18, probe_modality=probe_modality
        )
        assert len({id(t.probe) for t in trials}) < len(trials)
        seen = captured_similarity(monkeypatch)
        result = evaluation.matching_accuracy(trials, params, cfg)
        (got,) = seen
        expected = []
        for t in trials:
            for g in t.gallery:
                pair = (g, t.probe) if probe_modality == "voice" else (t.probe, g)
                expected.append(score_alone(*pair, params, cfg))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
        expected = np.reshape(expected, (len(trials), 3))
        hits = np.argmax(expected, axis=1) == [t.correct_index for t in trials]
        assert result.accuracy == hits.mean()

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_encoder_sees_each_distinct_record_once(self, arm, monkeypatch):
        ds, split, cfg, params = small_setup()
        cfg = ARMS[arm](cfg)
        rows = []
        original = evaluation.encode_modality

        def counting(x, which, p, c):
            rows.append(x.shape[0])
            return original(x, which, p, c)

        monkeypatch.setattr(evaluation, "encode_modality", counting)
        trials = evaluation.build_verification_trials(ds, split, 60, seed=19)
        evaluation.score_trials(trials, params, cfg)
        assert sum(rows) == len({id(t.face) for t in trials}) + len({id(t.voice) for t in trials})
        rows.clear()
        m_trials = evaluation.build_matching_trials(ds, split, n_c=4, n_trials=40, seed=20)
        evaluation.matching_accuracy(m_trials, params, cfg)
        assert sum(rows) == len({id(t.probe) for t in m_trials}) + len(
            {id(g) for t in m_trials for g in t.gallery}
        )

    def test_non_finite_matching_score_raises_in_cosine_arm(self):
        ds, split, cfg, params = small_setup()
        params.voice_weight.data[0, 0] = np.nan
        trials = evaluation.build_matching_trials(ds, split, n_c=2, n_trials=20, seed=21)
        with pytest.raises(NumericError):
            evaluation.matching_accuracy(trials, params, cosine_arm(cfg))


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_scoring_records_no_tape(arm, monkeypatch):
    """Encodings come from parameter tensors that require no gradient, and scores are plain arrays."""
    ds, split, cfg, params = small_setup()
    cfg = ARMS[arm](cfg)
    outputs = {"encode_modality": [], "_pair_scores": []}
    for name in outputs:
        original = getattr(evaluation, name)

        def spy(*args, original=original, seen=outputs[name]):
            out = original(*args)
            seen.append(out.vector if isinstance(out, hyp.PoincarePoint) else out)
            return out

        monkeypatch.setattr(evaluation, name, spy)
    trials = evaluation.build_verification_trials(ds, split, 20, seed=26)
    evaluation.score_trials(trials, params, cfg)
    evaluation.matching_accuracy(evaluation.build_matching_trials(ds, split, 3, 10, seed=27), params, cfg)
    assert len(outputs["encode_modality"]) == 4 and len(outputs["_pair_scores"]) == 2
    assert all(not t.requires_grad and t._parents == () for t in outputs["encode_modality"])
    assert all(isinstance(s, np.ndarray) for s in outputs["_pair_scores"])
    assert all(t.requires_grad for _, t in params.named())


class TestTrialSlots:
    """A record in the wrong modality slot is refused, whether or not the dims let it through."""

    @pytest.mark.parametrize("face_dim", [9, 10])
    def test_voice_record_in_face_slot(self, face_dim):
        ds, split, cfg, params = small_setup(face_dim=face_dim, voice_dim=9)
        trials = evaluation.build_verification_trials(ds, split, 20, seed=25)
        trials[3] = VerificationTrial(None, False, face=trials[5].voice, voice=trials[3].voice)
        clip = trials[5].voice.clip_id
        with pytest.raises(ContractError, match=f"trial face slot holds voice clip '{clip}'"):
            evaluation.score_trials(trials, params, cfg)

    @pytest.mark.parametrize("face_dim", [9, 10])
    def test_voice_gallery_for_voice_probe(self, face_dim):
        ds, split, cfg, params = small_setup(face_dim=face_dim, voice_dim=9)
        voices = [r for r in walk.part_records(ds, split, "test") if r.modality == "voice"]
        trial = evaluation.MatchingTrial(voices[0], voices[1:4], 0)
        with pytest.raises(ContractError, match=f"trial gallery slot holds voice clip '{voices[1].clip_id}'"):
            evaluation.matching_accuracy([trial], params, cfg)

    def test_face_in_probe_slot_of_voice_probe(self):
        ds, split, cfg, params = small_setup(face_dim=9, voice_dim=9)
        trials = evaluation.build_matching_trials(ds, split, 3, 10, seed=26)
        bad = trials[4].gallery[0]
        trials[4] = evaluation.MatchingTrial(bad, trials[4].gallery, trials[4].correct_index)
        with pytest.raises(ContractError, match=f"trial probe slot holds face clip '{bad.clip_id}'"):
            evaluation.matching_accuracy(trials, params, cfg)


def verification_clips(trials):
    return [(t.face.clip_id, t.voice.clip_id, t.is_match) for t in trials]


def matching_clips(trials):
    return [(t.probe.clip_id, [g.clip_id for g in t.gallery], t.correct_index) for t in trials]


def oracle_matching_trials(dataset, split, n_c, n_trials, seed, probe_modality):
    """Matching trials built one at a time from a fresh distractor pool per trial, as summarised tuples.

    Every pool is walked in ``PartRows`` order (``record_walk``): identities
    sorted, each identity's records in record order.

    The random values are the builder's documented arrays, drawn in its
    order; each trial then picks its k = n_c - 1 distractors by Floyd's
    algorithm with a set: for j from N - k to N - 1, take the drawn t in
    [0, j], or j if t is already taken.
    """
    gallery_modality = "face" if probe_modality == "voice" else "voice"
    by_id = walk.group_by_identity(walk.part_records(dataset, split, "test"))
    eligible = sorted(i for i, pool in by_id.items() if pool[probe_modality] and pool[gallery_modality])
    k = n_c - 1
    rng = np.random.default_rng(seed)
    identities = [eligible[w] for w in rng.integers(len(eligible), size=n_trials)]
    pools = [[r for i in by_id if i != identity for r in by_id[i][gallery_modality]] for identity in identities]
    for pool in pools:
        if len(pool) < k:
            raise ContractError(f"not enough distractor records ({len(pool)}) for gallery size {n_c}")
    probe_draws = rng.integers([len(by_id[i][probe_modality]) for i in identities])
    match_draws = rng.integers([len(by_id[i][gallery_modality]) for i in identities])
    correct_draws = rng.integers(n_c, size=n_trials)
    columns = [rng.integers([len(pool) - k + m + 1 for pool in pools]) for m in range(k)]
    out = []
    for t, identity in enumerate(identities):
        probe = by_id[identity][probe_modality][probe_draws[t]]
        match = by_id[identity][gallery_modality][match_draws[t]]
        taken, picks = set(), []
        for m in range(k):
            j = len(pools[t]) - k + m
            pick = j if columns[m][t] in taken else int(columns[m][t])
            taken.add(pick)
            picks.append(pick)
        gallery = [pools[t][p] for p in picks]
        correct = int(correct_draws[t])
        gallery.insert(correct, match)
        out.append((probe.clip_id, [g.clip_id for g in gallery], correct))
    return out


def chi_square_critical(df, z=3.09):
    """The chi-square quantile at upper tail 1e-3 (z = 3.09), by the Wilson-Hilferty approximation."""
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


def uneven_setup():
    """Test identities with unequal record counts, one of them without any face."""
    ds = data.synth_generate(10, 5, 6, 5, 1.0, 0.1, seed=22, latent_dim=3)
    ids = ds.identity_ids
    split = SplitSpec("unseen_unheard", frozenset(ids[:4]), frozenset(ids[4:5]), frozenset(ids[5:]))
    kept = [
        r
        for k, r in enumerate(ds.records)
        if k % 7 != 3 and not (r.identity_id == ids[6] and r.modality == "face")
    ]
    return data.Dataset(kept, ds.face_dim, ds.voice_dim), split


class TestMatchingTrialOracle:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_c", [2, 5])
    @pytest.mark.parametrize("probe_modality", ["voice", "face"])
    def test_same_trials_as_per_trial_pool(self, seed, n_c, probe_modality):
        ds, split = uneven_setup()
        trials = evaluation.build_matching_trials(ds, split, n_c, 30, seed, probe_modality)
        assert matching_clips(trials) == oracle_matching_trials(ds, split, n_c, 30, seed, probe_modality)

    @pytest.mark.parametrize("probe_modality", ["voice", "face"])
    def test_same_shortfall_reported(self, probe_modality):
        ds, split = uneven_setup()
        with pytest.raises(ContractError, match="not enough distractor records") as expected:
            oracle_matching_trials(ds, split, 30, 5, 0, probe_modality)
        with pytest.raises(ContractError) as got:
            evaluation.build_matching_trials(ds, split, 30, 5, 0, probe_modality)
        assert str(got.value) == str(expected.value)


class TestMatchingTrialContract:
    """Fixed seeds: the array draw keeps the contract of uniform, distinct, other-identity distractors."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_c", [2, 6, 10])
    @pytest.mark.parametrize("probe_modality", ["voice", "face"])
    def test_distractors_distinct_and_of_other_identities(self, seed, n_c, probe_modality):
        ds, split = uneven_setup()
        gallery_modality = "face" if probe_modality == "voice" else "voice"
        for t in evaluation.build_matching_trials(ds, split, n_c, 200, seed, probe_modality):
            assert len(t.gallery) == n_c and len({g.clip_id for g in t.gallery}) == n_c
            assert all(g.modality == gallery_modality for g in t.gallery)
            same = [j for j, g in enumerate(t.gallery) if g.identity_id == t.probe.identity_id]
            assert same == [t.correct_index]

    def test_correct_index_uniform(self):
        ds, split = uneven_setup()
        n_c, n = 6, 3000
        trials = evaluation.build_matching_trials(ds, split, n_c, n, seed=5)
        counts = np.bincount([t.correct_index for t in trials], minlength=n_c)
        expected = n / n_c
        assert np.sum((counts - expected) ** 2 / expected) < chi_square_critical(n_c - 1)

    @pytest.mark.parametrize("n_c", [3, 8])
    def test_distractor_records_uniform_given_the_identity(self, n_c):
        # Given its identity, a trial takes each other identity's record with chance k / N.
        ds, split = uneven_setup()
        trials = evaluation.build_matching_trials(ds, split, n_c, 3000, seed=6)
        pool = [r for r in walk.part_records(ds, split, "test") if r.modality == "face"]
        observed = dict.fromkeys((r.clip_id for r in pool), 0)
        expected = dict.fromkeys(observed, 0.0)
        for t in trials:
            others = [r.clip_id for r in pool if r.identity_id != t.probe.identity_id]
            for clip in others:
                expected[clip] += (n_c - 1) / len(others)
            for j, g in enumerate(t.gallery):
                if j != t.correct_index:
                    observed[g.clip_id] += 1
        o, e = np.array(list(observed.values())), np.array(list(expected.values()))
        assert o.sum() == pytest.approx(e.sum())
        assert np.sum((o - e) ** 2 / e) < chi_square_critical(len(o) - 1)


def test_array_bounds_draw_as_scalar_calls():
    """``Generator.integers`` over an array of bounds equals one scalar call per bound, in order.

    Training batches and the non-match verification trials draw this way
    and equal the per-row scalar draws only while the values and the state
    left behind agree, for bound 1 (which draws nothing), small bounds and
    bounds past 2**31.
    """
    for seed in range(20):
        small = np.random.default_rng(1000 + seed).integers(1, 9, size=24).tolist()
        bounds = small + [1, 2**31 + 11, 1, 2**33 + 3, 2**62, 3]
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [int(scalar.integers(b)) for b in bounds]
        assert batched.integers(np.array(bounds)).tolist() == want, seed
        assert scalar.bit_generator.state == batched.bit_generator.state, seed


class TestVerificationTrialOracle:
    """The chunked non-match draw gives the per-pair scalar loop's trials."""

    @staticmethod
    def scalar_loop(dataset, split, max_trials, seed, part):
        """The builder's trials one scalar draw at a time, from pools walked in ``PartRows`` order."""
        by_id = walk.group_by_identity(walk.part_records(dataset, split, part))
        faces, voices = ([r for pools in by_id.values() for r in pools[m]] for m in data.MODALITIES)
        paired = [(pools["face"], pools["voice"]) for pools in by_id.values() if pools["face"] and pools["voice"]]
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(max_trials // 2):
            face_pool, voice_pool = paired[rng.integers(len(paired))]
            f = face_pool[rng.integers(len(face_pool))]
            v = voice_pool[rng.integers(len(voice_pool))]
            out.append((f.clip_id, v.clip_id, True))
        for _ in range(max_trials // 2):
            while True:
                f = faces[rng.integers(len(faces))]
                v = voices[rng.integers(len(voices))]
                if f.identity_id != v.identity_id:
                    break
            out.append((f.clip_id, v.clip_id, False))
        return out

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_trials", [2, 57, 400])
    def test_uneven_pools(self, seed, max_trials):
        ds, split = uneven_setup()
        got = evaluation.build_verification_trials(ds, split, max_trials, seed)
        assert verification_clips(got) == self.scalar_loop(ds, split, max_trials, seed, "test")

    @pytest.mark.parametrize("seed", range(4))
    def test_two_identities_most_draws_rejected(self, seed):
        # b keeps one face and one voice against a's 12 each: 86 % of non-match draws pair a with a.
        ds = data.synth_generate(2, 12, 4, 4, 1.0, 0.1, seed=23, latent_dim=2)
        a, b = ds.identity_ids
        b_pools = walk.group_by_identity(ds.records)[b]
        kept = [r for r in ds.records if r.identity_id == a or r in (b_pools["face"][0], b_pools["voice"][0])]
        ds = data.Dataset(kept, ds.face_dim, ds.voice_dim)
        split = SplitSpec("unseen_unheard", frozenset(), frozenset(), frozenset([a, b]))
        got = evaluation.build_verification_trials(ds, split, 301, seed)
        assert verification_clips(got) == self.scalar_loop(ds, split, 301, seed, "test")

    @pytest.mark.parametrize("seed", range(3))
    def test_val_part(self, seed):
        ds = data.synth_generate(30, 3, 6, 5, 1.0, 0.1, seed=24, latent_dim=3)
        split = data.make_unseen_split(ds, n_val=5, n_test=5, seed=seed)
        got = evaluation.build_verification_trials(ds, split, 99, seed, part="val")
        assert verification_clips(got) == self.scalar_loop(ds, split, 99, seed, "val")


class TestShuffledRecords:
    """On records in no identity or modality order, every draw follows ``PartRows`` order.

    Every reference walks ``dataset.records`` (``record_walk``) into pools
    of sorted identities, each identity's records in record order, so a
    trial equal to it draws the paired identities, the non-match faces and
    voices and the matching pool in that order, and never in record order.
    """

    @staticmethod
    def dataset_and_split(seed, mode):
        ds = walk.shuffled_dataset(seed)
        if mode == "seen_heard":
            return ds, data.make_seen_split(ds, val_frac=0.25, test_frac=0.3, seed=seed)
        ids = ds.identity_ids
        test, val = {ids[k] for k in (0, 1, 5, 9, -4, -2)}, {ids[k] for k in (3, 7, -1)}
        return ds, SplitSpec("unseen_unheard", frozenset(ids) - test - val, frozenset(val), frozenset(test))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", data.SPLIT_MODES)
    def test_records_follow_no_order(self, seed, mode):
        ds, split = self.dataset_and_split(seed, mode)
        walked = walk.part_records(ds, split, "test")
        first_seen = list(dict.fromkeys(r.identity_id for r in walked))
        assert first_seen != sorted(first_seen)
        modalities = [r.modality for r in walked]
        assert modalities != sorted(modalities) and modalities != sorted(modalities, reverse=True)
        sizes = {len(p[m]) for p in walk.group_by_identity(ds.records).values() for m in data.MODALITIES}
        assert 0 in sizes and len(sizes) >= 4

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", data.SPLIT_MODES)
    @pytest.mark.parametrize("part", ["test", "val"])
    def test_verification_trials(self, seed, mode, part):
        ds, split = self.dataset_and_split(seed, mode)
        got = evaluation.build_verification_trials(ds, split, 301, seed, part=part)
        assert verification_clips(got) == TestVerificationTrialOracle.scalar_loop(ds, split, 301, seed, part)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", data.SPLIT_MODES)
    @pytest.mark.parametrize("n_c", [2, 6])
    @pytest.mark.parametrize("probe_modality", ["voice", "face"])
    def test_matching_trials(self, seed, mode, n_c, probe_modality):
        ds, split = self.dataset_and_split(seed, mode)
        trials = evaluation.build_matching_trials(ds, split, n_c, 200, seed, probe_modality)
        assert matching_clips(trials) == oracle_matching_trials(ds, split, n_c, 200, seed, probe_modality)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", data.SPLIT_MODES)
    def test_trials_as_on_records_sorted_by_identity(self, seed, mode):
        # A stable sort keeps each identity's records in order, which is all a draw reads of record order.
        ds, split = self.dataset_and_split(seed, mode)
        grouped = data.Dataset(sorted(ds.records, key=lambda r: r.identity_id), ds.face_dim, ds.voice_dim)
        for part in ("test", "val"):
            got, want = (verification_clips(evaluation.build_verification_trials(d, split, 301, seed, part=part))
                         for d in (ds, grouped))
            assert got == want
        for n_c, probe_modality in itertools.product((2, 6), ("voice", "face")):
            got, want = (matching_clips(evaluation.build_matching_trials(d, split, n_c, 200, seed, probe_modality))
                         for d in (ds, grouped))
            assert got == want

    @pytest.mark.parametrize("seed", range(3))
    def test_seen_split(self, seed):
        ds = walk.shuffled_dataset(seed)
        split = data.make_seen_split(ds, val_frac=0.25, test_frac=0.3, seed=seed)
        assert (split.train_ids, split.val_ids, split.test_ids) == walk.seen_split(ds, 0.25, 0.3, seed)


class TestTrialConstruction:
    def test_balance_and_determinism(self):
        ds, split, cfg, params = small_setup()
        trials = evaluation.build_verification_trials(ds, split, 100, seed=11)
        assert sum(t.is_match for t in trials) == 50
        assert sum(not t.is_match for t in trials) == 50
        again = evaluation.build_verification_trials(ds, split, 100, seed=11)
        assert verification_clips(trials) == verification_clips(again)

    def test_trials_use_requested_part(self):
        ds, split, cfg, params = small_setup()
        test_ids = split.test_ids
        for t in evaluation.build_verification_trials(ds, split, 60, seed=12):
            assert t.face.identity_id in test_ids and t.voice.identity_id in test_ids

    def test_impossible_balance_rejected(self):
        ds = data.synth_generate(2, 2, 4, 4, 1.0, 0.0, seed=13, latent_dim=2)
        only = frozenset([ds.identity_ids[0]])
        split = SplitSpec("unseen_unheard", frozenset([ds.identity_ids[1]]), frozenset(), only)
        with pytest.raises(DataError, match=r"test split cannot build balanced trials \(identities=1,"):
            evaluation.build_verification_trials(ds, split, 10, seed=0)
        with pytest.raises(DataError, match="matching trials need at least 2 identities with both modalities"):
            evaluation.build_matching_trials(ds, split, 2, 10, seed=0)

    def test_external_trial_list_round_trip(self, tmp_path):
        ds, split, cfg, params = small_setup()
        trials = evaluation.build_verification_trials(ds, split, 20, seed=14)
        path = tmp_path / "trials.tsv"
        path.write_text("".join(f"{t.face.clip_id}\t{t.voice.clip_id}\t{int(t.is_match)}\n" for t in trials))
        loaded = evaluation.load_trial_list(path, ds)
        assert verification_clips(loaded) == verification_clips(trials)

    def test_bad_trial_list_rejected(self, tmp_path):
        ds, *_ = small_setup()
        path = tmp_path / "bad.tsv"
        path.write_text("clip_a\tclip_b\t2\n")
        with pytest.raises(DataError, match=":1"):
            evaluation.load_trial_list(path, ds)

    @pytest.mark.parametrize("lines, where, message", [
        (["nope\t{voice}\t1"], 1, "no face record with clip id 'nope'"),
        (["{face}\t{voice}\t1", "{face}\tnope\t0"], 2, "no voice record with clip id 'nope'"),
    ], ids=["face-line-1", "voice-line-2"])
    def test_unknown_clip_rejected(self, tmp_path, lines, where, message):
        ds, *_ = small_setup()
        path = tmp_path / "missing.tsv"
        clips = {m: ds.block_records[m][0].clip_id for m in data.MODALITIES}
        path.write_text("".join(line.format(**clips) + "\n" for line in lines))
        with pytest.raises(DataError) as e:
            evaluation.load_trial_list(path, ds)
        assert str(e.value) == f"{path}:{where}: {message}"


def scored_trials_with_tags(pairs):
    trials = []
    for score, is_match, face_tags, voice_tags in pairs:
        face = data.EmbeddingRecord("fid", "face", "fc", np.array([1.0]), *face_tags)
        voice = data.EmbeddingRecord("vid", "voice", "vc", np.array([1.0]), *voice_tags)
        trials.append(VerificationTrial(score=score, is_match=is_match, face=face, voice=voice))
    return trials


class TestStrata:
    def test_uniform_gender_equals_random(self):
        rng = np.random.default_rng(15)
        pairs = [
            (float(rng.normal()), bool(i % 2), ("f", "UK", "adult"), ("f", "IT", "young"))
            for i in range(40)
        ]
        trials = scored_trials_with_tags(pairs)
        rows = evaluation.stratified_report(trials, ("random", "G"))
        by = {r.stratum: r for r in rows}
        assert by["G"].n_trials == by["random"].n_trials
        assert by["G"].auc == by["random"].auc
        assert by["G"].eer == by["random"].eer

    def test_degenerate_stratum_absent(self):
        # every non-match crosses gender: G keeps no negatives and is omitted
        pairs = [
            (0.9, True, ("f", "UK", "adult"), ("f", "UK", "adult")),
            (0.8, True, ("m", "UK", "adult"), ("m", "UK", "adult")),
            (0.2, False, ("f", "UK", "adult"), ("m", "UK", "adult")),
            (0.1, False, ("m", "UK", "adult"), ("f", "UK", "adult")),
        ]
        rows = evaluation.stratified_report(scored_trials_with_tags(pairs), ("random", "G"))
        assert [r.stratum for r in rows] == ["random"]

    def test_two_gender_counts_match_enumeration(self):
        rng = np.random.default_rng(16)
        genders = ["f", "m"]
        pairs = []
        for i in range(60):
            fg = genders[rng.integers(2)]
            vg = genders[rng.integers(2)]
            pairs.append((float(rng.normal()), bool(i < 20), (fg, "UK", "adult"), (vg, "UK", "adult")))
        trials = scored_trials_with_tags(pairs)
        rows = evaluation.stratified_report(trials, ("G",))
        expected = sum(
            1 for t in trials if t.is_match or t.face.gender == t.voice.gender
        )
        assert rows[0].n_trials == expected

    def test_gna_requires_all_three(self):
        pairs = [
            (0.9, True, ("f", "UK", "adult"), ("f", "UK", "adult")),
            (0.5, False, ("f", "UK", "adult"), ("f", "UK", "young")),
            (0.4, False, ("f", "UK", "adult"), ("f", "UK", "adult")),
        ]
        rows = evaluation.stratified_report(scored_trials_with_tags(pairs), ("GNA",))
        assert rows[0].n_trials == 2  # the age-mismatched non-match drops

    def test_untagged_match_trial_still_reports(self):
        # match trials always qualify, so their missing tags are never read
        pairs = [
            (0.9, True, (None, None, None), (None, None, None)),
            (0.2, False, ("f", "UK", "adult"), ("f", "UK", "adult")),
            (0.1, False, ("f", "UK", "adult"), ("m", "UK", "adult")),
        ]
        rows = evaluation.stratified_report(scored_trials_with_tags(pairs), ("random", "G", "GNA"))
        assert [(r.stratum, r.n_trials) for r in rows] == [("random", 3), ("G", 2), ("GNA", 2)]

    def test_masked_metrics_equal_metrics_of_kept_trials(self):
        rng = np.random.default_rng(23)
        tags = [("f", "UK", "adult"), ("m", "IT", "young")]
        pairs = [
            (float(rng.normal()), bool(i % 3 == 0), tags[rng.integers(2)], tags[rng.integers(2)])
            for i in range(50)
        ]
        trials = scored_trials_with_tags(pairs)
        for row in evaluation.stratified_report(trials, ("G", "GNA")):
            kept = [t for t in trials if t.is_match or t.face.gender == t.voice.gender]
            assert row.n_trials == len(kept)
            assert row.eer == evaluation.compute_eer(kept)[0]
            assert row.auc == evaluation.compute_auc(kept)

    def test_missing_tags_named(self):
        pairs = [
            (0.9, True, (None, None, None), (None, None, None)),
            (0.1, False, (None, None, None), (None, None, None)),
        ]
        with pytest.raises(DataError, match="stratum G"):
            evaluation.stratified_report(scored_trials_with_tags(pairs), ("G",))


def oracle_stratified_report(trials, strata):
    """Per-trial walk: a non-match trial's attributes in stratum order; untagged raises, unequal drops.

    Scores that all tie cannot rank the trials, so they raise before any stratum is walked.
    """
    if len({t.score for t in trials}) == 1:
        raise NumericError(f"all {len(trials)} trial scores equal {trials[0].score:.6g}, so they cannot rank the trials")
    rows = []
    for stratum in strata:
        kept = []
        for t in trials:
            shares = True
            for attr in "" if stratum == "random" else stratum:
                a, b = t.face.demographic(attr), t.voice.demographic(attr)
                if not t.is_match and (a is None or b is None):
                    raise DataError(
                        f"stratum {stratum}: trial lacks demographic tag {attr!r} "
                        f"({t.face.clip_id} / {t.voice.clip_id})"
                    )
                if a != b:
                    shares = False
                    break
            if t.is_match or shares:
                kept.append(t)
        scores = np.array([t.score for t in kept])
        labels = np.array([t.is_match for t in kept])
        if labels.all() or not labels.any():
            continue
        rows.append((stratum, len(kept), oracle_eer(scores, labels), oracle_auc(scores, labels)))
    return rows


class TestStrataOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 120),
        p_none=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
        strata=st.lists(st.sampled_from(evaluation.STRATA), min_size=1, max_size=5),
    )
    def test_same_rows_or_error_as_per_trial_walk(self, seed, n, p_none, strata):
        rng = np.random.default_rng(seed)

        def records(modality):
            out = []
            for k in range(6):
                tags = [None if rng.random() < p_none else str(rng.integers(2)) for _ in range(3)]
                out.append(data.EmbeddingRecord(f"id{k}", modality, f"{modality}{k}", np.ones(1), *tags))
            return out

        faces, voices = records("face"), records("voice")  # each record sits in many trials
        trials = [
            VerificationTrial(round(float(rng.normal()), 1), bool(rng.random() < 0.4),
                              faces[rng.integers(6)], voices[rng.integers(6)])
            for _ in range(n)
        ]
        try:
            expected = oracle_stratified_report(trials, strata)
        except (DataError, NumericError) as e:
            with pytest.raises(type(e)) as got:
                evaluation.stratified_report(trials, strata)
            assert str(got.value) == str(e)
            return
        got = [(r.stratum, r.n_trials, r.eer, r.auc) for r in evaluation.stratified_report(trials, strata)]
        assert [g[:2] for g in got] == [e[:2] for e in expected]
        np.testing.assert_allclose([g[2:] for g in got], [e[2:] for e in expected], rtol=0.0, atol=1e-12)


class TestCountsTable:
    """EER, AUC, ROC and every stratum row, read from the counts table, equal the sorted-copy references bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 120), levels=st.integers(1, 12))
    def test_equal_the_references_bit_for_bit(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=levels)[rng.integers(levels, size=n)]  # a few values, heavily tied
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        p_same = rng.uniform(0.2, 0.9, size=3)  # how often a face and a voice tag agree, per attribute

        def tags():
            return tuple(str(int(rng.random() < p)) for p in p_same)

        trials = scored_trials_with_tags([(float(s), bool(m), tags(), tags()) for s, m in zip(scores, labels)])
        want = []
        for stratum in evaluation.STRATA:
            attributes = "" if stratum == "random" else stratum
            keep = np.array([t.is_match or all(t.face.demographic(a) == t.voice.demographic(a) for a in attributes)
                             for t in trials])
            row = ref.stratum_row(scores, labels, keep)
            if row is None:
                continue
            want.append((stratum, *row))
            s, lab = scores[keep], labels[keep]
            assert evaluation.eer_from_scores(s, lab) == ref.eer_from_scores(s, lab)
            assert evaluation.auc_from_scores(s, lab) == ref.auc_from_scores(s, lab)
            for got, expected in zip(evaluation.roc_points(s, lab), ref.roc_points(s, lab)):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        if levels == 1 or np.unique(scores).size == 1:
            with pytest.raises(NumericError, match="cannot rank"):
                evaluation.stratified_report(trials, evaluation.STRATA)
            return
        got = [dataclasses.astuple(r) for r in evaluation.stratified_report(trials, evaluation.STRATA)]
        assert got == want

    def test_tied_share_and_threshold(self):
        # Scores 0.1 (match), 0.1 (non-match), 0.2, 0.3, 0.3: four of five trials share a score.
        pairs = [(0.1, True), (0.1, False), (0.2, False), (0.3, True), (0.3, True)]
        tags = ("f", "UK", "adult")
        trials = scored_trials_with_tags([(s, m, tags, tags) for s, m in pairs])
        row, = evaluation.stratified_report(trials, ("random",))
        assert row.tied_share == 0.8
        assert (row.eer, row.threshold) == evaluation.eer_from_scores(np.array([p[0] for p in pairs]),
                                                                      np.array([p[1] for p in pairs]))


class TestReports:
    def test_deterministic_bytes(self, tmp_path):
        rows = [evaluation.StratumMetrics("random", 100, 0.125, 0.9375, 0.5, 0.25)]
        matches = [evaluation.MatchingResult(2, 50, 0.84, 1)]
        for i in (1, 2):
            evaluation.write_verification_report(
                tmp_path / f"v{i}.csv", tmp_path / f"v{i}.json", "unseen_unheard", rows
            )
            evaluation.write_matching_report(
                tmp_path / f"m{i}.csv", tmp_path / f"m{i}.json", "unseen_unheard", matches
            )
        assert (tmp_path / "v1.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()
        assert (tmp_path / "v1.json").read_bytes() == (tmp_path / "v2.json").read_bytes()
        assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_verification_report_bytes(self, tmp_path):
        rows = [evaluation.StratumMetrics("random", 40, 0.25, 0.8125, -0.375, 0.05),
                evaluation.StratumMetrics("G", 12, 0.1, 1.0, 0.5, 0.0)]
        evaluation.write_verification_report(tmp_path / "v.csv", tmp_path / "v.json", "seen_heard", rows)
        assert (tmp_path / "v.csv").read_bytes() == (
            b"split,stratum,n_trials,eer,auc,threshold,tied_share\r\n"
            b"seen_heard,random,40,0.25,0.8125,-0.375,0.05\r\nseen_heard,G,12,0.1,1.0,0.5,0.0\r\n"
        )
        assert (tmp_path / "v.json").read_text() == (
            '[\n  {\n    "auc": 0.8125,\n    "eer": 0.25,\n    "n_trials": 40,\n    "split": "seen_heard",\n'
            '    "stratum": "random",\n    "threshold": -0.375,\n    "tied_share": 0.05\n  },\n'
            '  {\n    "auc": 1.0,\n    "eer": 0.1,\n    "n_trials": 12,\n'
            '    "split": "seen_heard",\n    "stratum": "G",\n    "threshold": 0.5,\n    "tied_share": 0.0\n  }\n]\n'
        )

    def test_matching_report_bytes(self, tmp_path):
        rows = [evaluation.MatchingResult(n_c=2, n_trials=30, accuracy=0.6, tie_count=1)]
        evaluation.write_matching_report(tmp_path / "m.csv", tmp_path / "m.json", "unseen_unheard", rows)
        assert (tmp_path / "m.csv").read_bytes() == (
            b"split,n_c,n_trials,accuracy,ties\r\nunseen_unheard,2,30,0.6,1\r\n"
        )
        assert (tmp_path / "m.json").read_text() == (
            '[\n  {\n    "accuracy": 0.6,\n    "n_c": 2,\n    "n_trials": 30,\n    "split": "unseen_unheard",\n'
            '    "ties": 1\n  }\n]\n'
        )

    def test_empty_reports(self, tmp_path):
        evaluation.write_matching_report(tmp_path / "m.csv", tmp_path / "m.json", "unseen_unheard", [])
        assert (tmp_path / "m.csv").read_bytes() == b"split,n_c,n_trials,accuracy,ties\r\n"
        assert (tmp_path / "m.json").read_text() == "[]\n"
