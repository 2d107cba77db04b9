"""The benchmark's oracles accept the program's true outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py
"""

import copy
import dataclasses

import numpy as np
import pytest

import oracles
import workload
from paeff import config, data, evaluation, model

SPEC = dataclasses.replace(workload.SPECS["train-b64"], verification_trials=400, matching_trials=50)


@pytest.fixture(scope="module")
def outputs():
    """An untrained model's test evaluation, as the program reports it."""
    ds = data.synth_generate(40, 4, 24, 16, 0.8, 0.5, seed=0, latent_dim=8)
    split = data.make_unseen_split(ds, n_val=4, n_test=16, seed=0)
    cfg = model.ModelConfig(24, 16, num_identities=20)
    params = model.init_params(cfg, seed=0)
    trials = evaluation.score_trials(evaluation.build_verification_trials(ds, split, 400, seed=0), params, cfg)
    rows = [dataclasses.asdict(r) for r in evaluation.stratified_report(trials, workload.STRATA)]
    matching = []
    for n_c in workload.NC_LIST:
        m = evaluation.build_matching_trials(ds, split, n_c, 50, seed=0)
        matching.append((m, dataclasses.asdict(evaluation.matching_accuracy(m, params, cfg))))
    weights = {name: t.data for name, t in params.named()}
    return {"weights": weights, "test_ids": split.test_ids, "trials": trials,
            "scores": [t.score for t in trials], "reported": rows, "matching": matching}


def failures(o) -> list[str]:
    checks = oracles.Checks()
    workload.check_evaluation(checks, SPEC, o["weights"], o["test_ids"], o["trials"], o["scores"],
                              o["reported"], o["matching"])
    return [f.split(":")[0] for f in checks.failures]


def test_true_outputs_pass_except_quality(outputs):
    # Untrained weights: every value agrees with its oracle, and the quality gate fails.
    assert failures(outputs) == ["quality.eer", "quality.auc"]


def test_corrupted_score_vector_is_rejected(outputs):
    o = dict(outputs, scores=list(outputs["scores"]))
    o["scores"][7] += 1e-6
    assert "verification.scores" in failures(o)


def test_nan_score_is_rejected(outputs):
    o = dict(outputs, scores=list(outputs["scores"]))
    o["scores"][0] = float("nan")
    assert "verification.scores" in failures(o)


def test_flipped_labels_are_rejected(outputs):
    trials = copy.copy(outputs["trials"])
    trials[3] = dataclasses.replace(trials[3], is_match=not trials[3].is_match)
    got = failures(dict(outputs, trials=trials))
    assert {"verification.labels", "verification.balanced", "strata.random.eer"} <= set(got)


def test_metrics_from_flipped_labels_are_rejected(outputs):
    scores = np.array(outputs["scores"])
    labels = np.array([t.is_match for t in outputs["trials"]])
    labels[:20] = ~labels[:20]
    eer, _ = evaluation.eer_from_scores(scores, labels)
    reported = copy.deepcopy(outputs["reported"])
    reported[0].update(eer=eer, auc=evaluation.auc_from_scores(scores, labels))
    assert {"strata.random.eer", "strata.random.auc"} <= set(failures(dict(outputs, reported=reported)))


def test_wrong_stratum_count_is_rejected(outputs):
    reported = copy.deepcopy(outputs["reported"])
    gna = next(r for r in reported if r["stratum"] == "GNA")
    gna["n_trials"] += 1
    assert "strata.GNA.n_trials" in failures(dict(outputs, reported=reported))


def test_missing_stratum_is_rejected(outputs):
    reported = [r for r in outputs["reported"] if r["stratum"] != "A"]
    assert {"strata.reported", "strata.A.n_trials"} <= set(failures(dict(outputs, reported=reported)))


def test_wrong_matching_accuracy_is_rejected(outputs):
    matching = copy.deepcopy(outputs["matching"])
    matching[2][1]["accuracy"] += 1.0 / SPEC.matching_trials
    assert "matching.6.accuracy" in failures(dict(outputs, matching=matching))


@pytest.mark.parametrize("seed", range(5))
def test_brute_force_metrics_match_the_program_with_ties(seed):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=300), 1)  # many ties
    labels = rng.uniform(size=300) < 0.4
    assert oracles.eer(scores, labels) == pytest.approx(evaluation.eer_from_scores(scores, labels)[0], abs=1e-12)
    assert oracles.auc(scores, labels) == pytest.approx(evaluation.auc_from_scores(scores, labels), abs=1e-12)


def test_readers_match_the_program_formats(tmp_path):
    ds = data.synth_generate(6, 2, 8, 4, 0.8, 0.5, seed=1, latent_dim=2)
    data.write_dataset(tmp_path / "d.fve", ds)
    got = oracles.read_fve(tmp_path / "d.fve", frozenset({"id0001", "id0004"}))
    want = [r for r in ds.records if r.identity_id in {"id0001", "id0004"}]
    assert [(r["clip"], r["gender"]) for r in got] == [(r.clip_id, r.gender) for r in want]
    assert all(np.array_equal(g["vector"], w.vector) for g, w in zip(got, want))
    assert oracles.sha256(tmp_path / "d.fve") == config.sha256_file(tmp_path / "d.fve")

    params = model.init_params(model.ModelConfig(8, 4, num_identities=3), seed=2)
    model.save_checkpoint(tmp_path / "c.paef", params)
    arrays = oracles.read_checkpoint(tmp_path / "c.paef")
    assert set(arrays) == {n for n, _ in params.named()}
    assert all(np.array_equal(arrays[n], t.data) for n, t in params.named())
