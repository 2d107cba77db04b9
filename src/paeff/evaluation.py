"""Cross-modal verification and matching evaluation.

Verification: score face/voice pairs, sweep thresholds for EER, count
concordant pairs for AUC. Matching: pick the one gallery item of the
other modality that shares the probe's identity. Both metrics also run
per demographic stratum, where non-match trials are restricted to pairs
sharing the stratum attributes.

Each trial builder draws block rows of one split part from its own
``default_rng(seed)`` stream, in the order its docstring gives, and
fetches only the drawn rows' records (``Dataset.row_records``). Every
draw indexes the part's ``PartRows`` (``SplitSpec.part_rows``):
identities sorted, each identity's rows ascending. So the trials of a
seed depend on the records only through each identity's own records,
not on how identities interleave in the file. Matching trials are drawn
as arrays over all trials, the distractors by Floyd's sampling without
replacement.

Many trials share one record, so scoring collects the distinct record
objects of each trial slot, encodes each once, and scores every trial as
one index pair into those encodings: the entry of the alignment's own
similarity table (``losses.similarity_arm`` of the model's arm: the
negated ``hyperbolic.distance_table`` or the cosine) over the distinct
faces and voices, built a bounded block of face rows at a time
(``_pair_scores``, which ``score_trials`` and ``matching_accuracy``
share). Scoring reads the parameters through ``ModelParams.detached``, so
encoding records no tape and runs in float64 whatever the parameters'
dtype, and the scores themselves are computed in plain numpy. A record
whose modality does not fit its slot is a ``ContractError``; the first
matching trial's probe sets the probe modality. EER, AUC, the ROC and every
stratum read one table of match and non-match counts per distinct score,
``_score_counts``, the one check of finite scores (``NumericError``). The
array metrics reject one-class labels (``ContractError``); strata omit them.
Trial lists are checked scored, finite, not all tied (``NumericError``), classes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import read_text
from .data import MODALITIES, Dataset, EmbeddingRecord, SplitSpec
from .errors import ContractError, DataError, NumericError, check_rules
from .losses import similarity_arm
from .model import ModelConfig, ModelParams, encode_modality

STRATA = ("random", "G", "N", "A", "GNA")
# Most entries of one block of the similarity table that _pair_scores holds: 2 MB of float64.
_TABLE_ENTRIES = 2**18


@dataclass(slots=True)
class VerificationTrial:
    score: float | None
    is_match: bool
    face: EmbeddingRecord | None = None
    voice: EmbeddingRecord | None = None


@dataclass(slots=True)
class MatchingTrial:
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
        check_rules(self, (
            ("strata", 0 < len(self.strata) == len(set(self.strata)), "one or more distinct strata"),
            ("strata", set(self.strata) <= set(STRATA), f"drawn from {STRATA}"),
            ("nc_list", 0 < len(self.nc_list) == len(set(self.nc_list)) and min(self.nc_list) >= 2,
             "one or more distinct gallery sizes, each at least 2"),
            ("max_trials", self.max_trials >= 2, "at least 2"),
            ("matching_trials", self.matching_trials >= 1, "at least 1"),
            ("probe_modality", self.probe_modality in ("face", "voice"), "face or voice"),
            ("seed", self.seed >= 0, "at least 0"),
        ))


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


def _pair_scores(face, voice, face_rows: np.ndarray, voice_rows: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """s[k] = similarity of face ``face_rows[k]`` with voice ``voice_rows[k]``: [N], in numpy.

    The encodings' table under ``cfg``'s arm (``losses.similarity_arm``),
    built over a block of face rows at a time, at most ``_TABLE_ENTRIES``
    entries, and gathered at the index pairs. The pairs come from
    :func:`_distinct`, so every row is in range. A score needs no
    gradient, so nothing here records a node.
    """
    table_of, sign = similarity_arm(face, voice, cfg.effective_similarity())
    f, v = face.numpy(), voice.numpy()
    out = np.empty(face_rows.size)
    step = max(1, _TABLE_ENTRIES // v.shape[0])
    for s in range(0, f.shape[0], step):
        table = table_of(f[s : s + step], v)[0]
        k = np.flatnonzero((face_rows >= s) & (face_rows < s + step))
        out[k] = table[face_rows[k] - s, voice_rows[k]]
    return out * sign


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
    scores = _pair_scores(f, v, f_rows, v_rows, cfg)
    for trial, s in zip(trials, scores.tolist()):
        trial.score = s
    return trials


# -- verification metrics -------------------------------------------------------


def _trial_scores(trials: list[VerificationTrial]) -> tuple[np.ndarray, np.ndarray]:
    """The scores and labels of scored trials whose finite scores do not all tie; the counts table checks the rest."""
    if any(t.score is None for t in trials):
        raise ContractError("trials must be scored before computing metrics")
    scores = np.array([t.score for t in trials], dtype=np.float64)
    if scores.size and scores.min() == scores.max() and np.isfinite(scores[0]):
        raise NumericError(f"all {scores.size} trial scores equal {scores[0]:.6g}, so they cannot rank the trials")
    return scores, np.array([t.is_match for t in trials], dtype=bool)


def _score_counts(scores: np.ndarray, labels: np.ndarray):
    """The counts table: distinct scores ascending, the match and non-match trials at each, each trial's row."""
    finite = np.isfinite(scores)
    if not finite.all():
        raise NumericError(f"{np.count_nonzero(~finite)} trial scores are not finite")
    values, row = np.unique(scores, return_inverse=True)
    pos = np.bincount(row[labels], minlength=values.size)
    neg = np.bincount(row[~labels], minlength=values.size)
    return values, pos, neg, row


def _two_class_counts(scores: np.ndarray, labels: np.ndarray):
    """The counts table's values and match and non-match columns; labels of one class are a ``ContractError``."""
    values, pos, neg, _ = _score_counts(scores, labels)
    if not pos.any() or not neg.any():
        raise ContractError("need at least one match and one non-match trial")
    return values, pos, neg


def _eer(values: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> tuple[float, float]:
    """EER and its threshold from a counts table whose rows all hold a trial."""
    # A threshold rejects the trials strictly below it; one above every score accepts nothing.
    far = np.append(1.0 - (np.cumsum(neg) - neg) / neg.sum(), 0.0)
    frr = np.append((np.cumsum(pos) - pos) / pos.sum(), 1.0)
    thresholds = np.append(values, values[-1] + 1.0)
    diff = far - frr
    idx = int(np.argmax(diff <= 0.0))  # first operating point past the crossing
    if idx == 0:
        return float(far[0]), float(thresholds[0])
    d0, d1 = diff[idx - 1], diff[idx]
    lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
    eer = far[idx - 1] + lam * (far[idx] - far[idx - 1])
    threshold = thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])
    return float(eer), float(threshold)


def _auc(pos: np.ndarray, neg: np.ndarray) -> float:
    return float((pos @ (np.cumsum(neg) - neg) + 0.5 * (pos @ neg)) / (pos.sum() * neg.sum()))


def eer_from_scores(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """EER and its threshold; accept iff score >= threshold (ties accept).

    FAR falls and FRR rises as the threshold sweeps up through the counts
    table's distinct scores; the crossing is linearly interpolated between
    the two adjacent operating points.
    """
    return _eer(*_two_class_counts(scores, labels))


def compute_eer(trials: list[VerificationTrial]) -> tuple[float, float]:
    return eer_from_scores(*_trial_scores(trials))


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC as the rank statistic (concordant + half ties) / (P * N), read from the counts table."""
    return _auc(*_two_class_counts(scores, labels)[1:])


def compute_auc(trials: list[VerificationTrial]) -> float:
    return auc_from_scores(*_trial_scores(trials))


def roc_points(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ROC curve (FPR, TPR): the counts table's running sums from the top score down."""
    tp, fp = (np.cumsum(counts[::-1]) for counts in _two_class_counts(scores, labels)[1:])
    return np.concatenate([[0.0], fp / fp[-1]]), np.concatenate([[0.0], tp / tp[-1]])


def compute_roc(trials: list[VerificationTrial]) -> tuple[np.ndarray, np.ndarray]:
    return roc_points(*_trial_scores(trials))


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
    params = params.detached()
    probe_modality = trials[0].probe.modality
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
    scores = _pair_scores(*pairs, cfg).reshape(len(trials), n_c)
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

    Draw order, all on one ``default_rng(seed)`` stream, over the part's
    ``split.part_rows``, in its order (identities sorted, each identity's
    rows ascending): first the n = max_trials // 2 match trials, one at a
    time, each an identity uniform over those with both modalities, then a
    face and a voice uniform over that identity's rows; then the non-match
    trials, each a face uniform over the part's face rows and a voice
    uniform over its voice rows, kept when their identities differ and
    drawn again when they do not. The non-match pairs are drawn in chunks,
    one ``integers`` call per chunk with the bounds (faces, voices)
    repeated, which returns the values of the per-pair scalar calls in the
    same order (``tests/test_evaluation.py::test_array_bounds_draw_as_scalar_calls``
    checks this on the installed numpy); the first n kept pairs are the
    trials. The validation trials that pick the best epoch are drawn the
    same way (``part="val"``).

    Both phases draw with replacement, so a (face, voice) pair can repeat:
    it then counts once per draw in EER and AUC, and its repeats share a
    score, so they count in a stratum's ``tied_share``.
    """
    rows = split.part_rows(dataset, part)
    counts = [rows.counts(m) for m in MODALITIES]
    paired = np.flatnonzero((counts[0] > 0) & (counts[1] > 0)).tolist()
    if not paired or len(rows.identities) < 2:
        raise DataError(
            f"{part} split cannot build balanced trials "
            f"(identities={len(rows.identities)}, with both modalities={len(paired)})"
        )
    n_each = max_trials // 2
    if n_each < 1:
        raise ContractError("max_trials must be at least 2")

    face_start, voice_start = (rows.offsets[m].tolist() for m in MODALITIES)
    face_count, voice_count = (c.tolist() for c in counts)
    rng = np.random.default_rng(seed)
    draw = rng.integers
    match = []  # each match trial's face and voice, as places in rows.rows[m]
    for _ in range(n_each):
        k = paired[draw(len(paired))]
        match.append((face_start[k] + draw(face_count[k]), voice_start[k] + draw(voice_count[k])))

    codes = [dataset.row_identity[m][rows.rows[m]] for m in MODALITIES]
    bounds = np.array([c.size for c in codes])
    kept = []
    needed = n_each
    while needed:
        pairs = rng.integers(np.tile(bounds, needed)).reshape(needed, 2)
        kept.append(pairs[codes[0][pairs[:, 0]] != codes[1][pairs[:, 1]]][:needed])
        needed -= len(kept[-1])
    places = np.concatenate([np.array(match), *kept])

    faces, voices = (dataset.row_records(m, rows.rows[m][places[:, j]]) for j, m in enumerate(MODALITIES))
    return [VerificationTrial(None, k < n_each, f, v) for k, (f, v) in enumerate(zip(faces, voices))]


def build_matching_trials(
    dataset: Dataset,
    split: SplitSpec,
    n_c: int,
    n_trials: int,
    seed: int,
    probe_modality: str = "voice",
) -> list[MatchingTrial]:
    """Forced-choice trials on the test part: one true match among n_c gallery candidates.

    The n_c - 1 distractors are distinct rows drawn without replacement
    from the other identities' gallery-modality rows, so two distractors
    can share an identity.

    Draw order, all on one ``default_rng(seed)`` stream over the part's
    ``split.part_rows``, in its order (identities sorted, each identity's
    rows ascending), each step one array over all trials: the identity,
    uniform over those with both modalities; the probe, uniform over that
    identity's probe-modality rows; the match, uniform over its
    gallery-modality rows; the correct index, uniform over n_c; then the
    k = n_c - 1 distractors by Floyd's sampling without replacement
    (Bentley & Floyd, CACM 1987), one column at a time. Column m draws t
    uniform over [0, N - k + m], N being the trial's distractor count, and
    takes t, or N - k + m when an earlier column took t. Distractor values
    index the part's gallery-modality rows, in ``PartRows`` order, without
    the identity's own.
    """
    if probe_modality not in ("face", "voice"):
        raise ContractError(f"probe_modality must be face or voice, got {probe_modality!r}")
    if n_c < 2:
        raise ContractError(f"gallery size must be at least 2, got {n_c}")
    gallery_modality = "face" if probe_modality == "voice" else "voice"
    rows = split.part_rows(dataset, "test")
    counts = {m: rows.counts(m) for m in MODALITIES}
    eligible = np.flatnonzero((counts[probe_modality] > 0) & (counts[gallery_modality] > 0))
    if len(rows.identities) < 2 or not eligible.size:
        raise DataError("matching trials need at least 2 identities with both modalities")
    pool = rows.rows[gallery_modality]

    k = n_c - 1
    rng = np.random.default_rng(seed)
    who = eligible[rng.integers(len(eligible), size=n_trials)]
    start, own = rows.offsets[gallery_modality][who], counts[gallery_modality][who]
    n_distractors = len(pool) - own
    short = np.flatnonzero(n_distractors < k)
    if short.size:
        raise ContractError(
            f"not enough distractor records ({n_distractors[short[0]]}) for gallery size {n_c}"
        )
    probe = rows.offsets[probe_modality][who] + rng.integers(counts[probe_modality][who])
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
    probes = dataset.row_records(probe_modality, rows.rows[probe_modality][probe])
    galleries = dataset.row_records(gallery_modality, pool[gallery.ravel()])
    return [
        MatchingTrial(r, galleries[t * n_c : (t + 1) * n_c], c)
        for t, (r, c) in enumerate(zip(probes, correct.tolist()))
    ]


# -- trial list files --------------------------------------------------------------


def load_trial_list(path, dataset: Dataset) -> list[VerificationTrial]:
    """Read an external trial list: clip_id_face \\t clip_id_voice \\t {0,1}.

    EER and ROC need both classes, so a list without a match line or
    without a non-match line is a ``DataError``, as an empty one is.
    """
    trials: list[VerificationTrial] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: expected 'face_clip\\tvoice_clip\\t0|1'")
        try:
            face = dataset.by_clip("face", parts[0])
            voice = dataset.by_clip("voice", parts[1])
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        trials.append(
            VerificationTrial(score=None, is_match=parts[2] == "1", face=face, voice=voice)
        )
    if len({t.is_match for t in trials}) < 2:  # an empty list too
        raise DataError(f"{path}: trial list needs at least one match (1) and one non-match (0) line")
    return trials


# -- demographic strata --------------------------------------------------------------


@dataclass
class StratumMetrics:
    stratum: str
    n_trials: int
    eer: float
    auc: float
    threshold: float
    tied_share: float


def _nonmatch_tags(trials: list[VerificationTrial], nonmatch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[N x 3] codes of the G, N, A tags of the non-match trials' faces and of their voices; -1 is untagged."""
    codes = {None: -1}
    sides = []
    for side in ("face", "voice"):
        distinct, index = _distinct([getattr(trials[k], side) for k in nonmatch])
        tags = [codes.setdefault(r.demographic(a), len(codes) - 1) for r in distinct for a in "GNA"]
        sides.append(np.array(tags, dtype=np.intp).reshape(-1, 3)[index])
    return sides[0], sides[1]


def stratified_report(
    trials: list[VerificationTrial], strata: tuple[str, ...]
) -> list[StratumMetrics]:
    """Verification metrics per stratum, all read from one counts table.

    Non-match trials must share the stratum's demographic attributes;
    match trials always qualify. Strata left with no usable non-match
    trials are omitted from the report, never reported as zero.

    A stratum recounts its non-match trials on the table's rows and drops
    the rows none of its trials hold. ``tied_share`` is the share of its
    trials whose score another of its trials also has.

    A non-match trial's attributes are compared in the stratum's order and
    the first that differs drops it; an untagged one before that is a
    ``DataError`` naming the first such trial in list order.
    """
    scores, labels = _trial_scores(trials)
    values, pos, _, row = _score_counts(scores, labels)
    nonmatch = np.flatnonzero(~labels)
    tags = None
    out: list[StratumMetrics] = []
    for stratum in strata:
        if stratum not in STRATA:
            raise ContractError(f"unknown stratum {stratum!r}")
        attributes = "" if stratum == "random" else stratum
        if attributes and tags is None:
            tags = _nonmatch_tags(trials, nonmatch)
        shares = np.ones(nonmatch.size, dtype=bool)  # shares every attribute compared so far
        untagged_at = np.full(nonmatch.size, -1)  # the attribute a trial lacks, if it counts
        for a, attr in enumerate(attributes):
            face, voice = (side[:, "GNA".index(attr)] for side in tags)
            untagged = shares & ((face < 0) | (voice < 0))
            untagged_at[untagged] = a
            shares &= ~untagged & (face == voice)
        bad = np.flatnonzero(untagged_at >= 0)
        if bad.size:
            trial = trials[nonmatch[bad[0]]]
            raise DataError(
                f"stratum {stratum}: trial lacks demographic tag {attributes[untagged_at[bad[0]]]!r} "
                f"({trial.face.clip_id} / {trial.voice.clip_id})"
            )
        neg = np.bincount(row[nonmatch[shares]], minlength=values.size)
        if not pos.any() or not neg.any():
            continue
        held = (pos + neg) > 0
        p, n, count = pos[held], neg[held], (pos + neg)[held]
        eer, threshold = _eer(values[held], p, n)
        tied_share = float(count[count > 1].sum() / count.sum())
        out.append(StratumMetrics(stratum, int(count.sum()), eer, _auc(p, n), threshold, tied_share))
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
    _write_table(csv_path, json_path, ("split", "stratum", "n_trials", "eer", "auc", "threshold", "tied_share"),
                 [(split_name, r.stratum, r.n_trials, r.eer, r.auc, r.threshold, r.tied_share) for r in rows])


def write_matching_report(csv_path, json_path, split_name: str, rows: list[MatchingResult]) -> None:
    _write_table(csv_path, json_path, ("split", "n_c", "n_trials", "accuracy", "ties"),
                 [(split_name, r.n_c, r.n_trials, r.accuracy, r.tie_count) for r in rows])
