"""Cross-modal verification and matching evaluation.

Verification: score face/voice pairs, sweep thresholds for EER, count
concordant pairs for AUC. Matching: pick the one gallery item of the
other modality that shares the probe's identity. Both metrics also run
per demographic stratum, where non-match trials are restricted to pairs
sharing the stratum attributes.

Many trials share one record, so scoring encodes each distinct record
object once and compares encoded rows gathered by trial index.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hyperbolic as hyp
from .autodiff import Tensor
from .config import read_text
from .data import Dataset, EmbeddingRecord, SplitSpec, group_by_identity
from .errors import ContractError, DataError, DimensionError, NumericError, ParseError
from .losses import normalize_rows
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
            raise ContractError("gallery sizes must be at least 2")


# -- scoring -------------------------------------------------------------------


def score_pairs(
    faces: np.ndarray, voices: np.ndarray, params: ModelParams, cfg: ModelConfig
) -> np.ndarray:
    """Similarity of row-matched face/voice embeddings (higher = same identity)."""
    if faces.ndim != 2 or voices.ndim != 2 or faces.shape[0] != voices.shape[0]:
        raise DimensionError(f"score_pairs: incompatible shapes {faces.shape} / {voices.shape}")
    f = encode_modality(Tensor(faces), "face", params, cfg)
    v = encode_modality(Tensor(voices), "voice", params, cfg)
    return _similarity(f, v, cfg)


def _similarity(f, v, cfg: ModelConfig) -> np.ndarray:
    """Similarity of row-matched encoded faces and voices."""
    if cfg.effective_similarity() == "neg_hyperbolic_distance":
        return -hyp.poincare_distance(f, v).numpy()
    fv = f.vector if isinstance(f, hyp.PoincarePoint) else f
    vv = v.vector if isinstance(v, hyp.PoincarePoint) else v
    return (normalize_rows(fv) * normalize_rows(vv)).sum(axis=1).numpy()


def _encode_records(records: list[EmbeddingRecord], which: str, params: ModelParams, cfg: ModelConfig):
    """Encoded rows in ``records`` order; each distinct record object is encoded once."""
    distinct = {id(r): r for r in records}
    row = {key: i for i, key in enumerate(distinct)}
    index = [row[id(r)] for r in records]
    enc = encode_modality(Tensor(np.stack([r.vector for r in distinct.values()])), which, params, cfg)
    if isinstance(enc, hyp.PoincarePoint):
        return hyp.PoincarePoint(Tensor(enc.numpy()[index]), enc.config)
    return Tensor(enc.data[index])


def _score_records(faces: list, voices: list, params: ModelParams, cfg: ModelConfig) -> np.ndarray:
    """:func:`score_pairs` of row-matched record lists, gathering encoded rows by index."""
    f = _encode_records(faces, "face", params, cfg)
    v = _encode_records(voices, "voice", params, cfg)
    return _similarity(f, v, cfg)


def score_trials(
    trials: list[VerificationTrial], params: ModelParams, cfg: ModelConfig
) -> list[VerificationTrial]:
    """Fill in trial scores (in place); returns the list for chaining.

    Each distinct face and voice record is encoded once, however many
    trials share it.
    """
    if not trials:
        return trials
    scores = _score_records([t.face for t in trials], [t.voice for t in trials], params, cfg)
    for trial, s in zip(trials, scores):
        trial.score = float(s)
    return trials


# -- verification metrics -------------------------------------------------------


def _trial_scores(trials: list[VerificationTrial]) -> np.ndarray:
    if any(t.score is None for t in trials):
        raise ContractError("trials must be scored before computing metrics")
    scores = np.array([t.score for t in trials], dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericError(f"{np.count_nonzero(~np.isfinite(scores))} trial scores are not finite")
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

    probes = [t.probe for t in trials for _ in range(n_c)]
    gallery = [g for t in trials for g in t.gallery]
    faces, voices = (gallery, probes) if trials[0].probe_modality == "voice" else (probes, gallery)
    scores = _score_records(faces, voices, params, cfg).reshape(len(trials), n_c)
    if not np.all(np.isfinite(scores)):
        raise NumericError(f"{np.count_nonzero(~np.isfinite(scores))} matching scores are not finite")

    best = np.argmax(scores, axis=1)  # argmax takes the lowest index on ties
    hits = sum(int(b == t.correct_index) for b, t in zip(best, trials))
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
    """Balanced 50/50 match/non-match verification trials from one split part."""
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

    rng = np.random.default_rng(seed)
    trials: list[VerificationTrial] = []
    for _ in range(n_each):
        identity = paired_ids[rng.integers(len(paired_ids))]
        f = by_id[identity]["face"][rng.integers(len(by_id[identity]["face"]))]
        v = by_id[identity]["voice"][rng.integers(len(by_id[identity]["voice"]))]
        trials.append(VerificationTrial(score=None, is_match=True, face=f, voice=v))
    for _ in range(n_each):
        while True:
            f = faces[rng.integers(len(faces))]
            v = voices[rng.integers(len(voices))]
            if f.identity_id != v.identity_id:
                break
        trials.append(VerificationTrial(score=None, is_match=False, face=f, voice=v))
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
    """
    if probe_modality not in ("face", "voice"):
        raise ContractError(f"probe_modality must be face or voice, got {probe_modality!r}")
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

    rng = np.random.default_rng(seed)
    trials: list[MatchingTrial] = []
    for _ in range(n_trials):
        identity = eligible[rng.integers(len(eligible))]
        probe_pool = by_id[identity][probe_modality]
        probe = probe_pool[rng.integers(len(probe_pool))]
        match_pool = by_id[identity][gallery_modality]
        match = match_pool[rng.integers(len(match_pool))]
        start, own = slices[identity]
        n_distractors = len(pool) - own
        if n_distractors < n_c - 1:
            raise ContractError(
                f"not enough distractor records ({n_distractors}) for gallery size {n_c}"
            )
        # Draw from the pool without the probe identity's slice, then step past that slice.
        picks = rng.choice(n_distractors, size=n_c - 1, replace=False)
        picks[picks >= start] += own
        gallery = [pool[i] for i in picks]
        correct = int(rng.integers(n_c))
        gallery.insert(correct, match)
        trials.append(
            MatchingTrial(
                probe_modality=probe_modality,
                probe=probe,
                gallery=gallery,
                correct_index=correct,
            )
        )
    return trials


# -- trial list files --------------------------------------------------------------


def load_trial_list(path, dataset: Dataset) -> list[VerificationTrial]:
    """Read an external trial list: clip_id_face \\t clip_id_voice \\t {0,1}."""
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
    return trials


def write_trial_list(path, trials: list[VerificationTrial]) -> None:
    lines = [
        f"{t.face.clip_id}\t{t.voice.clip_id}\t{1 if t.is_match else 0}" for t in trials
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- demographic strata --------------------------------------------------------------


@dataclass
class StratumMetrics:
    stratum: str
    n_trials: int
    eer: float
    auc: float


def _shares_attributes(trial: VerificationTrial, attributes: str, stratum: str) -> bool:
    for attr in attributes:
        a = trial.face.demographic(attr)
        b = trial.voice.demographic(attr)
        if a is None or b is None:
            raise DataError(
                f"stratum {stratum}: trial lacks demographic tag {attr!r} "
                f"({trial.face.clip_id} / {trial.voice.clip_id})"
            )
        if a != b:
            return False
    return True


def stratified_report(
    trials: list[VerificationTrial], strata: tuple[str, ...]
) -> list[StratumMetrics]:
    """Verification metrics per stratum.

    Non-match trials must share the stratum's demographic attributes;
    match trials always qualify. Strata left with no usable non-match
    trials are omitted from the report, never reported as zero.
    """
    scores = _trial_scores(trials)
    labels = np.array([t.is_match for t in trials], dtype=bool)
    out: list[StratumMetrics] = []
    for stratum in strata:
        if stratum not in STRATA:
            raise ContractError(f"unknown stratum {stratum!r}")
        attributes = _STRATUM_ATTRIBUTES[stratum]
        keep = np.array(
            [t.is_match or _shares_attributes(t, attributes, stratum) for t in trials], dtype=bool
        )
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
