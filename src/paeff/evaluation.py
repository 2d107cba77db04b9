"""Cross-modal verification and matching evaluation.

Verification: score face/voice pairs, sweep thresholds for EER, count
concordant pairs for AUC. Matching: pick the one gallery item of the
other modality that shares the probe's identity. Both metrics also run
per demographic stratum, where non-match trials are restricted to pairs
sharing the stratum attributes.

Each trial builder draws from its own ``default_rng(seed)`` stream, in
the order its docstring gives. Verification trials, and with them the
validation trials that pick the best epoch, are the ones the earlier
per-trial loop drew for the same seed. Matching trials are drawn as
arrays over all trials, the distractors by Floyd's sampling without
replacement, and differ from the earlier per-trial draw.

Many trials share one record, so scoring collects the distinct record
objects of each trial slot, encodes each once, and scores every trial as
one index pair into those encodings through ``losses.pair_similarity``:
the entry of the alignment's own similarity table (the negated
``hyperbolic.distance_table`` or the cosine) over the distinct faces and
voices, taken a bounded block of face rows at a time. Scoring reads the
parameters through ``ModelParams.detached``, so encoding records no tape,
and the scores themselves are computed in plain numpy. A record whose
modality does not fit its slot is a ``ContractError``. Scores that are
not finite, or that all tie and so cannot rank the trials, are a
``NumericError``. Stratified reports read the non-match trials'
demographic tags once into arrays and mask them per stratum.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import read_text
from .data import Dataset, EmbeddingRecord, SplitSpec, group_by_identity
from .errors import ContractError, DataError, NumericError, ParseError
from .losses import pair_similarity
from .model import ModelConfig, ModelParams, encode_modality

STRATA = ("random", "G", "N", "A", "GNA")

_STRATUM_ATTRIBUTES = {"random": "", "G": "G", "N": "N", "A": "A", "GNA": "GNA"}


@dataclass
class VerificationTrial:
    score: float | None
    is_match: bool
    face: EmbeddingRecord | None = None
    voice: EmbeddingRecord | None = None


@dataclass
class MatchingTrial:
    probe_modality: str
    probe: EmbeddingRecord
    gallery: list[EmbeddingRecord]
    correct_index: int

    def __post_init__(self):
        if len(self.gallery) < 2:
            raise ContractError("matching trial needs a gallery of at least 2")
        if not 0 <= self.correct_index < len(self.gallery):
            raise ContractError("correct_index out of gallery range")


@dataclass
class EvalConfig:
    nc_list: tuple[int, ...] = (2, 4, 6, 8, 10)
    strata: tuple[str, ...] = ("random",)
    max_trials: int = 1000
    matching_trials: int = 500
    probe_modality: str = "voice"
    seed: int = 0

    def __post_init__(self):
        for s in self.strata:
            if s not in STRATA:
                raise ContractError(f"unknown stratum {s!r}; expected one of {STRATA}")
        if any(nc < 2 for nc in self.nc_list):
            raise ContractError(f"nc_list gallery sizes must be at least 2, got {self.nc_list}")
        if self.max_trials < 2:
            raise ContractError(f"max_trials must be at least 2, got {self.max_trials}")
        if self.matching_trials < 1:
            raise ContractError(f"matching_trials must be at least 1, got {self.matching_trials}")
        if self.probe_modality not in ("face", "voice"):
            raise ContractError(f"probe_modality must be face or voice, got {self.probe_modality!r}")


# -- scoring -------------------------------------------------------------------


def _distinct(records: list) -> tuple[list, np.ndarray]:
    """The distinct objects of ``records`` in first-appearance order, and each record's row among them."""
    keys = list(map(id, records))
    distinct = dict(zip(keys, records))
    row = dict(zip(distinct, range(len(distinct))))
    return list(distinct.values()), np.fromiter(map(row.__getitem__, keys), np.intp, len(keys))


def _encode_records(
    records: list[EmbeddingRecord], which: str, slot: str, params: ModelParams, cfg: ModelConfig
):
    """Encodings of the distinct records, each encoded once, and each record's row among them.

    A record that is not a ``which`` record is a ``ContractError`` naming
    the trial ``slot`` it sits in.
    """
    distinct, index = _distinct(records)
    for r in distinct:
        if r.modality != which:
            raise ContractError(
                f"trial {slot} slot holds {r.modality} clip {r.clip_id!r}; it takes {which} records"
            )
    enc = encode_modality(Tensor(np.stack([r.vector for r in distinct])), which, params, cfg)
    return enc, index


def score_trials(
    trials: list[VerificationTrial], params: ModelParams, cfg: ModelConfig
) -> list[VerificationTrial]:
    """Fill in trial scores (in place); returns the list for chaining.

    Each distinct face and voice record is encoded once, however many
    trials share it, and each trial is scored as one index pair.
    """
    if not trials:
        return trials
    params = params.detached()
    f, f_rows = _encode_records([t.face for t in trials], "face", "face", params, cfg)
    v, v_rows = _encode_records([t.voice for t in trials], "voice", "voice", params, cfg)
    scores = pair_similarity(f, v, f_rows, v_rows, cfg.effective_similarity())
    for trial, s in zip(trials, scores.tolist()):
        trial.score = s
    return trials


# -- verification metrics -------------------------------------------------------


def _trial_scores(trials: list[VerificationTrial]) -> np.ndarray:
    if any(t.score is None for t in trials):
        raise ContractError("trials must be scored before computing metrics")
    scores = np.array([t.score for t in trials], dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericError(f"{np.count_nonzero(~np.isfinite(scores))} trial scores are not finite")
    if scores.size and scores.min() == scores.max():
        raise NumericError(f"all {scores.size} trial scores equal {scores[0]:.6g}, so they cannot rank the trials")
    return scores


def _scores_labels(trials: list[VerificationTrial]) -> tuple[np.ndarray, np.ndarray]:
    scores = _trial_scores(trials)
    labels = np.array([t.is_match for t in trials], dtype=bool)
    if labels.all() or not labels.any():
        raise ContractError("need at least one match and one non-match trial")
    return scores, labels


def eer_from_scores(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """EER by threshold sweep; accept iff score >= threshold (ties accept).

    FAR falls and FRR rises as the threshold sweeps up through the distinct
    scores; the crossing is linearly interpolated between the two adjacent
    operating points.
    """
    pos = np.sort(scores[labels])
    neg = np.sort(scores[~labels])
    thresholds = np.unique(scores)
    # searchsorted(left) counts strictly-below; ties at the threshold accept.
    far = 1.0 - np.searchsorted(neg, thresholds, side="left") / neg.size
    frr = np.searchsorted(pos, thresholds, side="left") / pos.size
    # Sentinel above every score: accept nothing.
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)

    diff = far - frr
    idx = int(np.argmax(diff <= 0.0))  # first operating point past the crossing
    if idx == 0:
        return float(far[0]), float(thresholds[0])
    d0, d1 = diff[idx - 1], diff[idx]
    lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
    eer = far[idx - 1] + lam * (far[idx] - far[idx - 1])
    threshold = thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])
    return float(eer), float(threshold)


def compute_eer(trials: list[VerificationTrial]) -> tuple[float, float]:
    scores, labels = _scores_labels(trials)
    return eer_from_scores(scores, labels)


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC as the rank statistic (concordant + half ties) / (P * N)."""
    pos = scores[labels]
    neg = np.sort(scores[~labels])
    below = np.searchsorted(neg, pos, side="left").sum()
    ties = (np.searchsorted(neg, pos, side="right") - np.searchsorted(neg, pos, side="left")).sum()
    return float((below + 0.5 * ties) / (pos.size * neg.size))


def compute_auc(trials: list[VerificationTrial]) -> float:
    scores, labels = _scores_labels(trials)
    return auc_from_scores(scores, labels)


def roc_points(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ROC curve (FPR, TPR) swept over thresholds, for export/plotting."""
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(~sorted_labels)
    # Keep only the last point of each tied-score run.
    keep = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tpr = np.concatenate([[0.0], tp[keep] / tp[-1]])
    fpr = np.concatenate([[0.0], fp[keep] / fp[-1]])
    return fpr, tpr


# -- matching -------------------------------------------------------------------


@dataclass
class MatchingResult:
    n_c: int
    n_trials: int
    accuracy: float
    tie_count: int


def matching_accuracy(
    trials: list[MatchingTrial], params: ModelParams, cfg: ModelConfig
) -> MatchingResult:
    """Fraction of trials whose best-scoring gallery item is the true match.

    Ties resolve to the lowest gallery index and are counted separately.
    Each distinct probe and gallery record is encoded once, however many
    trials share it. A non-finite score raises ``NumericError``.
    """
    if not trials:
        raise ContractError("matching_accuracy needs at least one trial")
    n_c = len(trials[0].gallery)
    if any(len(t.gallery) != n_c for t in trials):
        raise ContractError("all matching trials must share the same gallery size")
    probe_modalities = sorted({t.probe_modality for t in trials})
    if len(probe_modalities) > 1:
        raise ContractError(f"all matching trials must share one probe modality, got {probe_modalities}")

    params = params.detached()
    probe_modality = trials[0].probe_modality
    gallery_modality = "face" if probe_modality == "voice" else "voice"
    probe, probe_rows = _encode_records([t.probe for t in trials], probe_modality, "probe", params, cfg)
    gallery, gallery_rows = _encode_records(
        [g for t in trials for g in t.gallery], gallery_modality, "gallery", params, cfg
    )
    probe_rows = np.repeat(probe_rows, n_c)
    if probe_modality == "voice":
        pairs = (gallery, probe, gallery_rows, probe_rows)
    else:
        pairs = (probe, gallery, probe_rows, gallery_rows)
    scores = pair_similarity(*pairs, cfg.effective_similarity()).reshape(len(trials), n_c)
    if not np.all(np.isfinite(scores)):
        raise NumericError(f"{np.count_nonzero(~np.isfinite(scores))} matching scores are not finite")

    best = np.argmax(scores, axis=1)  # argmax takes the lowest index on ties
    hits = int(np.count_nonzero(best == np.array([t.correct_index for t in trials])))
    ties = int(np.sum(np.sum(scores == scores.max(axis=1, keepdims=True), axis=1) > 1))
    return MatchingResult(
        n_c=n_c, n_trials=len(trials), accuracy=hits / len(trials), tie_count=ties
    )


# -- trial construction -----------------------------------------------------------


def build_verification_trials(
    dataset: Dataset,
    split: SplitSpec,
    max_trials: int,
    seed: int,
    part: str = "test",
) -> list[VerificationTrial]:
    """Balanced 50/50 match/non-match verification trials from one split part.

    Draw order, all on one ``default_rng(seed)`` stream: first the
    n = max_trials // 2 match trials, one at a time, each an identity
    uniform over those with both modalities (sorted), then a face and a
    voice uniform over that identity's records; then the non-match
    trials, each a face uniform over the part's faces and a voice uniform
    over its voices, kept when their identities differ and drawn again
    when they do not. The non-match pairs are drawn in chunks, one
    ``integers`` call per chunk with the bounds (faces, voices) repeated,
    which returns the values of the per-pair scalar calls in the same
    order (selfcheck ``rng.array_bounds`` checks this on the running
    numpy); the first n kept pairs are the trials. So the trials, and the
    validation trials that pick the best epoch (``part="val"``), are the
    ones the per-pair loop drew.
    """
    records = split.part_records(dataset, part)
    faces = [r for r in records if r.modality == "face"]
    voices = [r for r in records if r.modality == "voice"]
    by_id = group_by_identity(records)
    paired_ids = sorted(i for i, pool in by_id.items() if pool["face"] and pool["voice"])
    identities = sorted(by_id)
    if not paired_ids or len(identities) < 2:
        raise ContractError(
            f"{part} split cannot build balanced trials "
            f"(identities={len(identities)}, with both modalities={len(paired_ids)})"
        )
    n_each = max_trials // 2
    if n_each < 1:
        raise ContractError("max_trials must be at least 2")

    paired = [(by_id[i]["face"], by_id[i]["voice"]) for i in paired_ids]
    rng = np.random.default_rng(seed)
    trials: list[VerificationTrial] = []
    for _ in range(n_each):
        face_pool, voice_pool = paired[rng.integers(len(paired))]
        f = face_pool[rng.integers(len(face_pool))]
        v = voice_pool[rng.integers(len(voice_pool))]
        trials.append(VerificationTrial(score=None, is_match=True, face=f, voice=v))

    code = {identity: k for k, identity in enumerate(identities)}
    face_code = np.array([code[r.identity_id] for r in faces])
    voice_code = np.array([code[r.identity_id] for r in voices])
    bounds = np.array([len(faces), len(voices)])
    kept = []
    needed = n_each
    while needed:
        pairs = rng.integers(np.tile(bounds, needed)).reshape(needed, 2)
        kept.append(pairs[face_code[pairs[:, 0]] != voice_code[pairs[:, 1]]][:needed])
        needed -= len(kept[-1])
    for f, v in np.concatenate(kept).tolist():
        trials.append(VerificationTrial(score=None, is_match=False, face=faces[f], voice=voices[v]))
    return trials


def build_matching_trials(
    dataset: Dataset,
    split: SplitSpec,
    n_c: int,
    n_trials: int,
    seed: int,
    probe_modality: str = "voice",
    part: str = "test",
) -> list[MatchingTrial]:
    """Forced-choice trials: one true match among n_c gallery candidates.

    The n_c - 1 distractors are distinct records drawn without replacement
    from the other identities' gallery-modality records, so two distractors
    can share an identity.

    Draw order, all on one ``default_rng(seed)`` stream, each step one
    array over all trials: the identity, uniform over those with both
    modalities (sorted); the probe, uniform over that identity's
    probe-modality records; the match, uniform over its gallery-modality
    records; the correct index, uniform over n_c; then the k = n_c - 1
    distractors by Floyd's sampling without replacement (Bentley & Floyd,
    CACM 1987), one column at a time. Column m draws t uniform over
    [0, N - k + m], N being the trial's distractor count, and takes t, or
    N - k + m when an earlier column took t. Distractor values index the
    gallery-modality records without the identity's own. The trials of a
    seed differ from those of the per-trial ``rng.choice`` loop this
    replaced; the verification trials do not.
    """
    if probe_modality not in ("face", "voice"):
        raise ContractError(f"probe_modality must be face or voice, got {probe_modality!r}")
    if n_c < 2:
        raise ContractError(f"gallery size must be at least 2, got {n_c}")
    gallery_modality = "face" if probe_modality == "voice" else "voice"
    by_id = group_by_identity(split.part_records(dataset, part))
    eligible = sorted(
        i for i, pool in by_id.items() if pool[probe_modality] and pool[gallery_modality]
    )
    if len(by_id) < 2 or not eligible:
        raise ContractError("matching trials need at least 2 identities with both modalities")
    # Every identity's gallery-modality records, and where each identity's slice of them sits.
    pool: list[EmbeddingRecord] = []
    slices: dict[str, tuple[int, int]] = {}
    for i, recs in by_id.items():
        slices[i] = (len(pool), len(recs[gallery_modality]))
        pool.extend(recs[gallery_modality])
    slice_start, slice_len = np.array([slices[i] for i in eligible]).T
    probes = [r for i in eligible for r in by_id[i][probe_modality]]
    probe_count = np.array([len(by_id[i][probe_modality]) for i in eligible])
    probe_start = np.cumsum(probe_count) - probe_count

    k = n_c - 1
    rng = np.random.default_rng(seed)
    who = rng.integers(len(eligible), size=n_trials)
    start, own = slice_start[who], slice_len[who]
    n_distractors = len(pool) - own
    short = np.flatnonzero(n_distractors < k)
    if short.size:
        raise ContractError(
            f"not enough distractor records ({n_distractors[short[0]]}) for gallery size {n_c}"
        )
    probe = probe_start[who] + rng.integers(probe_count[who])
    match = start + rng.integers(own)
    correct = rng.integers(n_c, size=n_trials)
    picks = np.empty((n_trials, k), dtype=np.int64)
    for m in range(k):
        top = n_distractors - k + m
        t = rng.integers(top + 1)
        picks[:, m] = np.where((picks[:, :m] == t[:, None]).any(axis=1), top, t)
    # Step the picks past the identity's own slice of the pool.
    picks += np.where(picks >= start[:, None], own[:, None], 0)

    # Gallery slot j holds the match at j == correct, else pick j or j - 1.
    slot = np.arange(n_c)
    source = np.where(slot == correct[:, None], k, slot - (slot > correct[:, None]))
    gallery = np.take_along_axis(np.column_stack([picks, match]), source, axis=1)
    records = np.fromiter(pool, dtype=object, count=len(pool))
    return [
        MatchingTrial(probe_modality=probe_modality, probe=probes[p], gallery=g, correct_index=c)
        for p, g, c in zip(probe.tolist(), records[gallery].tolist(), correct.tolist())
    ]


# -- trial list files --------------------------------------------------------------


def load_trial_list(path, dataset: Dataset) -> list[VerificationTrial]:
    """Read an external trial list: clip_id_face \\t clip_id_voice \\t {0,1}.

    EER and ROC need both classes, so a list without a match line or
    without a non-match line is a ``ParseError``, as an empty one is.
    """
    trials: list[VerificationTrial] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: expected 'face_clip\\tvoice_clip\\t0|1'")
        face = dataset.by_clip("face", parts[0])
        voice = dataset.by_clip("voice", parts[1])
        trials.append(
            VerificationTrial(score=None, is_match=parts[2] == "1", face=face, voice=voice)
        )
    if not trials:
        raise ParseError(f"{path}: trial list is empty")
    if len({t.is_match for t in trials}) < 2:
        raise ParseError(f"{path}: trial list needs at least one match (1) and one non-match (0) line")
    return trials


# -- demographic strata --------------------------------------------------------------


@dataclass
class StratumMetrics:
    stratum: str
    n_trials: int
    eer: float
    auc: float


def _nonmatch_tags(trials: list[VerificationTrial], nonmatch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[N x 3] object arrays of the G, N, A tags of the non-match trials' faces and of their voices."""
    sides = []
    for side in ("face", "voice"):
        distinct, index = _distinct([getattr(trials[k], side) for k in nonmatch])
        tags = np.array([[r.demographic(a) for a in "GNA"] for r in distinct], dtype=object).reshape(-1, 3)
        sides.append(tags[index])
    return sides[0], sides[1]


def stratified_report(
    trials: list[VerificationTrial], strata: tuple[str, ...]
) -> list[StratumMetrics]:
    """Verification metrics per stratum.

    Non-match trials must share the stratum's demographic attributes;
    match trials always qualify. Strata left with no usable non-match
    trials are omitted from the report, never reported as zero.

    A non-match trial's attributes are compared in the stratum's order and
    the first that differs drops it; an untagged one before that is a
    ``DataError`` naming the first such trial in list order.
    """
    scores = _trial_scores(trials)
    labels = np.array([t.is_match for t in trials], dtype=bool)
    nonmatch = np.flatnonzero(~labels)
    tags = None
    out: list[StratumMetrics] = []
    for stratum in strata:
        if stratum not in STRATA:
            raise ContractError(f"unknown stratum {stratum!r}")
        attributes = _STRATUM_ATTRIBUTES[stratum]
        if attributes and tags is None:
            tags = _nonmatch_tags(trials, nonmatch)
        shares = np.ones(nonmatch.size, dtype=bool)  # shares every attribute compared so far
        untagged_at = np.full(nonmatch.size, -1)  # the attribute a trial lacks, if it counts
        for a, attr in enumerate(attributes):
            face, voice = (side[:, "GNA".index(attr)] for side in tags)
            untagged = shares & (np.equal(face, None) | np.equal(voice, None))
            untagged_at[untagged] = a
            shares &= ~untagged & (face == voice)
        bad = np.flatnonzero(untagged_at >= 0)
        if bad.size:
            trial = trials[nonmatch[bad[0]]]
            raise DataError(
                f"stratum {stratum}: trial lacks demographic tag {attributes[untagged_at[bad[0]]]!r} "
                f"({trial.face.clip_id} / {trial.voice.clip_id})"
            )
        keep = labels.copy()
        keep[nonmatch] = shares
        s, lab = scores[keep], labels[keep]
        if lab.all() or not lab.any():
            continue
        eer, _ = eer_from_scores(s, lab)
        out.append(StratumMetrics(stratum=stratum, n_trials=len(s), eer=eer, auc=auc_from_scores(s, lab)))
    return out


# -- report files -----------------------------------------------------------------


def _write_table(csv_path, json_path, header: tuple[str, ...], rows: list[tuple]) -> None:
    """``rows`` as a CSV table under ``header``, and as a JSON list of objects keyed by it."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    payload = [dict(zip(header, row)) for row in rows]
    Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_verification_report(
    csv_path, json_path, split_name: str, rows: list[StratumMetrics]
) -> None:
    _write_table(csv_path, json_path, ("split", "stratum", "n_trials", "eer", "auc"),
                 [(split_name, r.stratum, r.n_trials, r.eer, r.auc) for r in rows])


def write_matching_report(csv_path, json_path, split_name: str, rows: list[MatchingResult]) -> None:
    _write_table(csv_path, json_path, ("split", "n_c", "n_trials", "accuracy", "ties"),
                 [(split_name, r.n_c, r.n_trials, r.accuracy, r.tie_count) for r in rows])
