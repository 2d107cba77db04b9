"""Verification and matching metrics against brute-force oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import data, evaluation, hyperbolic as hyp, model
from paeff.autodiff import Tensor
from paeff.data import SplitSpec
from paeff.errors import ContractError, DataError, NumericError, ParseError
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


class TestAuc:
    def test_perfect_separation(self):
        t = trials_from([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert evaluation.compute_auc(t) == 1.0

    def test_three_of_four_concordant(self):
        t = trials_from([0.8, 0.4, 0.6, 0.2], [True, True, False, False])
        assert evaluation.compute_auc(t) == pytest.approx(0.75, abs=1e-15)

    def test_all_ties_give_half(self):
        t = trials_from([0.5] * 6, [True, True, True, False, False, False])
        assert evaluation.compute_auc(t) == 0.5

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


# -- model-backed scoring ---------------------------------------------------------


def small_setup(rho=1.0, seed=3):
    ds = data.synth_generate(8, 4, 10, 9, rho, 0.1, seed=seed, latent_dim=4)
    split = data.make_unseen_split(ds, n_val=2, n_test=3, seed=seed)
    cfg = model.ModelConfig(face_dim=10, voice_dim=9, num_identities=3, proj_dim=6)
    params = model.init_params(cfg, seed=seed)
    return ds, split, cfg, params


class TestScoring:
    def test_identical_aligned_embeddings_score_zero_distance(self):
        ds, split, cfg, params = small_setup()
        rec = ds.records[0]
        # craft a voice embedding whose projection matches the face projection exactly
        face = rec.vector[None, :]
        f_pt = model.encode_modality(Tensor(face), "face", params, cfg)
        score = evaluation.score_pairs(face, face @ np.zeros((10, 9)), params, cfg)
        # same-point score is the max possible score (0 = -distance of 0)
        self_score = -hyp.poincare_distance(f_pt, f_pt).item()
        assert self_score == 0.0

    def test_one_row_score_matches_independent_distance(self):
        ds, split, cfg, params = small_setup()
        face = ds.records[0].vector
        voice = ds.records[1].vector
        (got,) = evaluation.score_pairs(face[None, :], voice[None, :], params, cfg)
        f = model.encode_modality(Tensor(face[None, :]), "face", params, cfg)
        v = model.encode_modality(Tensor(voice[None, :]), "voice", params, cfg)
        expected = -hyp.poincare_distance(
            hyp.PoincarePoint(Tensor(f.numpy()[0:1]), cfg.ball),
            hyp.PoincarePoint(Tensor(v.numpy()[0:1]), cfg.ball),
        ).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_cosine_arm_matches_independent_cosine(self):
        ds, split, cfg, params = small_setup()
        cfg = dataclasses.replace(cfg, use_hyperbolic=False, similarity="cosine")
        faces = np.stack([r.vector for r in ds.records if r.modality == "face"][:6])
        voices = np.stack([r.vector for r in ds.records if r.modality == "voice"][:6])
        got = evaluation.score_pairs(faces, voices, params, cfg)
        pf = faces @ params.face_weight.data + params.face_bias.data
        pv = voices @ params.voice_weight.data + params.voice_bias.data
        expected = np.sum(pf * pv, axis=1) / (np.linalg.norm(pf, axis=1) * np.linalg.norm(pv, axis=1))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

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
        trial = evaluation.MatchingTrial("voice", probe, gallery, 0)
        # score the true matched face far closer than the shifted distractors
        probe_emb = probe.vector[None, :]
        match_score = evaluation.score_pairs(rec_f.vector[None, :], probe_emb, params, cfg)[0]
        result = evaluation.matching_accuracy([trial], params, cfg)
        others = [
            evaluation.score_pairs(g.vector[None, :], probe_emb, params, cfg)[0]
            for g in gallery[1:]
        ]
        if match_score > max(others):
            assert result.accuracy == 1.0

    def test_chance_level_untrained(self):
        # untrained model on uncoupled data: accuracy ~ 1/n_c
        ds = data.synth_generate(40, 3, 8, 8, 0.0, 1.0, seed=4, latent_dim=4)
        ids = ds.identities()
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
            probe = t.probe.vector[None, :]
            scores = [
                evaluation.score_pairs(g.vector[None, :], probe, params, cfg)[0] for g in t.gallery
            ]
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
            permuted.append(evaluation.MatchingTrial(t.probe_modality, t.probe, gallery, correct))
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

    def test_tie_counting(self):
        ds, split, cfg, params = small_setup()
        rec_f = next(r for r in ds.records if r.modality == "face")
        probe = next(r for r in ds.records if r.modality == "voice")
        twin = data.EmbeddingRecord("twin", "face", "twin0", rec_f.vector.copy())
        trial = evaluation.MatchingTrial("voice", probe, [rec_f, twin], 0)
        result = evaluation.matching_accuracy([trial], params, cfg)
        assert result.tie_count == 1
        assert result.accuracy == 1.0  # lowest index wins the tie


class TestTrialConstruction:
    def test_balance_and_determinism(self):
        ds, split, cfg, params = small_setup()
        trials = evaluation.build_verification_trials(ds, split, 100, seed=11)
        assert sum(t.is_match for t in trials) == 50
        assert sum(not t.is_match for t in trials) == 50
        again = evaluation.build_verification_trials(ds, split, 100, seed=11)
        assert [(t.face.clip_id, t.voice.clip_id, t.is_match) for t in trials] == [
            (t.face.clip_id, t.voice.clip_id, t.is_match) for t in again
        ]

    def test_trials_use_requested_part(self):
        ds, split, cfg, params = small_setup()
        test_ids = split.test_ids
        for t in evaluation.build_verification_trials(ds, split, 60, seed=12):
            assert t.face.identity_id in test_ids and t.voice.identity_id in test_ids

    def test_impossible_balance_rejected(self):
        ds = data.synth_generate(2, 2, 4, 4, 1.0, 0.0, seed=13, latent_dim=2)
        only = frozenset([ds.identities()[0]])
        split = SplitSpec("unseen_unheard", frozenset([ds.identities()[1]]), frozenset(), only)
        with pytest.raises(ContractError):
            evaluation.build_verification_trials(ds, split, 10, seed=0)

    def test_external_trial_list_round_trip(self, tmp_path):
        ds, split, cfg, params = small_setup()
        trials = evaluation.build_verification_trials(ds, split, 20, seed=14)
        path = tmp_path / "trials.tsv"
        evaluation.write_trial_list(path, trials)
        loaded = evaluation.load_trial_list(path, ds)
        assert [(t.face.clip_id, t.voice.clip_id, t.is_match) for t in loaded] == [
            (t.face.clip_id, t.voice.clip_id, t.is_match) for t in trials
        ]
        evaluation.write_trial_list(tmp_path / "again.tsv", loaded)
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_bad_trial_list_rejected(self, tmp_path):
        ds, *_ = small_setup()
        path = tmp_path / "bad.tsv"
        path.write_text("clip_a\tclip_b\t2\n")
        with pytest.raises(ParseError, match=":1"):
            evaluation.load_trial_list(path, ds)

    def test_unknown_clip_rejected(self, tmp_path):
        ds, *_ = small_setup()
        path = tmp_path / "missing.tsv"
        path.write_text("nope\talso_nope\t1\n")
        with pytest.raises(DataError):
            evaluation.load_trial_list(path, ds)


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

    def test_missing_tags_named(self):
        pairs = [
            (0.9, True, (None, None, None), (None, None, None)),
            (0.1, False, (None, None, None), (None, None, None)),
        ]
        with pytest.raises(DataError, match="stratum G"):
            evaluation.stratified_report(scored_trials_with_tags(pairs), ("G",))


class TestReports:
    def test_deterministic_bytes(self, tmp_path):
        rows = [evaluation.StratumMetrics("random", 100, 0.125, 0.9375)]
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
