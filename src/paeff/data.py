"""Embedding datasets: file format, row layout, splits, pair batching, synthesis.

Datasets are UTF-8 TSV files ("fve v1"): a header line that declares
each dim once, at least 1,

    #fve v1 face=<dim> voice=<dim>

followed by one record per line: identity_id, modality, clip_id, gender,
nationality, age_group (empty string when missing), then the vector as
decimal floats with 17 significant digits. 17 digits round-trips float64
exactly, so write -> load -> write is byte-identical.

Row layout. A ``Dataset`` keeps each modality's vectors as one block,
``blocks["face"]`` [Nf x F] and ``blocks["voice"]`` [Nv x V], whose rows
follow that modality's records in record order, and ``block_records[m]``
lists those records, one per row. A per-row array gives each row's
identity (``row_identity``, an index into the sorted ``identity_ids``),
and ``clip_row`` maps each modality's clip ids to their rows. Each
record's ``vector`` is a view of its row, so the blocks hold the only
copy of the vectors: ``synth_generate`` fills the blocks and builds its
records on them, ``load_dataset`` parses each line straight into its
row, and ``Dataset(records, ...)`` stacks the records' vectors once and
builds its own records on the rows.

Splits select rows, not records. ``SplitSpec.part_rows``, the only way
to select a part, derives its rows grouped by identity from the per-row
arrays on every call, and every draw from a part follows that
``PartRows`` order, so record order matters only to ``records`` and the
file. ``make_batches`` gathers each batch from the blocks with one fancy
index per modality, and the trial builders of ``evaluation`` draw rows
and fetch only the drawn rows' records (``Dataset.row_records``).

Synthesis. ``SynthConfig`` holds the options of ``paeff synth`` and
their rules; its ``draw`` generates the dataset with ``synth_generate``
and cuts the split.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import decode_text, read_text
from .errors import ContractError, DataError, NumericError, check_rules

MODALITIES = ("face", "voice")
SPLIT_MODES = ("seen_heard", "unseen_unheard")

_HEADER_PREFIX = "#fve v1 "


@dataclass(slots=True)
class EmbeddingRecord:
    identity_id: str
    modality: str
    clip_id: str
    vector: np.ndarray
    gender: str | None = None
    nationality: str | None = None
    age_group: str | None = None

    def demographic(self, attribute: str) -> str | None:
        return {"G": self.gender, "N": self.nationality, "A": self.age_group}[attribute]


class Dataset:
    """Embedding records over one face block and one voice block (see the module docstring).

    ``Dataset(records, face_dim, voice_dim)`` checks the records, stacks their
    vectors into the blocks once and holds a copy of each record whose
    ``vector`` views its row; the caller's records are left as they are.
    ``synth_generate`` and ``load_dataset`` pass ``blocks`` whose rows their
    records already view, in record order, and the dataset holds those
    records. ``records`` and ``block_records`` hold the same record objects,
    in record order and in block-row order. ``sha256`` is the digest of the
    bytes ``load_dataset`` parsed, and None for a dataset not read from a
    file.
    """

    def __init__(
        self, records: list[EmbeddingRecord], face_dim: int, voice_dim: int, *,
        blocks: dict[str, np.ndarray] | None = None,
    ):
        self.records = list(records)
        self.face_dim = face_dim
        self.voice_dim = voice_dim
        self.sha256: str | None = None
        dims = {"face": face_dim, "voice": voice_dim}
        by_modality: dict[str, list[EmbeddingRecord]] = {m: [] for m in MODALITIES}  # each block's records
        self.clip_row: dict[str, dict[str, int]] = {m: {} for m in MODALITIES}
        for rec in self.records:
            if rec.modality not in MODALITIES:
                raise DataError(f"unknown modality {rec.modality!r} on clip {rec.clip_id!r}")
            if blocks is None and (rec.vector.ndim != 1 or rec.vector.size != dims[rec.modality]):
                raise DataError(
                    f"clip {rec.clip_id!r}: vector length {rec.vector.size} does not match "
                    f"{rec.modality} dim {dims[rec.modality]}"
                )
            clip_row = self.clip_row[rec.modality]
            if rec.clip_id in clip_row:
                raise DataError(f"duplicate clip id {rec.clip_id!r} for modality {rec.modality}")
            clip_row[rec.clip_id] = len(clip_row)
            by_modality[rec.modality].append(rec)
        if blocks is None:
            blocks = {
                m: np.array([rec.vector for rec in recs], dtype=np.float64).reshape(-1, dims[m])
                for m, recs in by_modality.items()
            }
            rows = {m: iter(block) for m, block in blocks.items()}
            self.records = [replace(rec, vector=next(rows[rec.modality])) for rec in self.records]
            by_modality = {m: [rec for rec in self.records if rec.modality == m] for m in MODALITIES}
        for m, block in blocks.items():
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                clip = by_modality[m][int(np.argmin(finite))].clip_id
                raise NumericError(f"clip {clip!r}: vector contains non-finite values")
        self.blocks = blocks
        self.block_records = by_modality
        self.identity_ids = sorted({rec.identity_id for rec in self.records})
        code = {identity: k for k, identity in enumerate(self.identity_ids)}
        self.row_identity = {
            m: np.array([code[rec.identity_id] for rec in recs], dtype=np.intp) for m, recs in by_modality.items()
        }

    def by_clip(self, modality: str, clip_id: str) -> EmbeddingRecord:
        try:
            row = self.clip_row[modality][clip_id]
        except KeyError:
            raise DataError(f"no {modality} record with clip id {clip_id!r}") from None
        return self.block_records[modality][row]

    def row_records(self, modality: str, rows: np.ndarray) -> list[EmbeddingRecord]:
        """The records of ``blocks[modality]``'s ``rows``, in that order."""
        return list(map(self.block_records[modality].__getitem__, rows.tolist()))

    def __len__(self) -> int:
        return len(self.records)


def write_dataset(path, dataset: Dataset) -> None:
    lines = [f"#fve v1 face={dataset.face_dim} voice={dataset.voice_dim}"]
    # A row's format depends only on its vector's length, so there is one per modality.
    row_format = {dim: "\t".join(["%s"] * 6 + ["%.17g"] * dim) for dim in (dataset.face_dim, dataset.voice_dim)}
    for rec in dataset.records:
        lines.append(row_format[rec.vector.size] % (
            rec.identity_id, rec.modality, rec.clip_id, rec.gender or "", rec.nationality or "", rec.age_group or "",
            *rec.vector,
        ))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(path) -> Dataset:
    """Parse an fve file straight into the two blocks; the dataset's ``sha256`` digests the bytes parsed."""
    raw = Path(path).read_bytes()
    sha256 = hashlib.sha256(raw).hexdigest()
    text = decode_text(path, raw)
    del raw  # the bytes, the text and its lines are never all alive at once
    lines = text.splitlines()
    del text
    if not lines:
        raise DataError(f"{path}:1: empty file, expected '#fve v1' header")
    header = lines[0]
    if not header.startswith(_HEADER_PREFIX):
        raise DataError(f"{path}:1: expected header starting with {_HEADER_PREFIX!r}")
    dims: dict[str, int] = {}
    for part in header[len(_HEADER_PREFIX) :].split():
        key, _, value = part.partition("=")
        if key not in MODALITIES or not (value.isascii() and value.isdigit()):
            raise DataError(f"{path}:1: bad header field {part!r}")
        if key in dims:
            raise DataError(f"{path}:1: header declares the {key} dim twice")
        if int(value) < 1:
            raise DataError(f"{path}:1: {key} dim must be at least 1, got {value}")
        dims[key] = int(value)
    if set(dims) != set(MODALITIES):
        raise DataError(f"{path}:1: header must declare face and voice dims")

    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    # Each block is allocated once, at its modality's line count (the second field names the modality).
    sizes = Counter(fields[1] for fields in (line.split("\t", 2) for _, line in body) if len(fields) > 1)
    blocks = {m: np.empty((sizes[m], dims[m])) for m in MODALITIES}
    filled = dict.fromkeys(MODALITIES, 0)
    records: list[EmbeddingRecord] = []
    for lineno, line in body:
        fields = line.split("\t")
        if len(fields) < 7:
            raise DataError(f"{path}:{lineno}: expected at least 7 tab-separated fields")
        identity_id, modality, clip_id, gender, nationality, age_group = fields[:6]
        try:
            values = list(map(float, fields[6:]))
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad float in vector: {e}") from None
        if modality not in MODALITIES:
            raise DataError(f"{path}:{lineno}: unknown modality {modality!r} on clip {clip_id!r}")
        if len(values) != dims[modality]:
            raise DataError(
                f"{path}:{lineno}: clip {clip_id!r}: vector length {len(values)} does not match "
                f"{modality} dim {dims[modality]}"
            )
        vector = blocks[modality][filled[modality]]
        vector[:] = values
        if not np.isfinite(vector).all():
            raise NumericError(f"{path}:{lineno}: vector contains non-finite values")
        filled[modality] += 1
        records.append(
            EmbeddingRecord(
                identity_id=identity_id,
                modality=modality,
                clip_id=clip_id,
                vector=vector,
                gender=gender or None,
                nationality=nationality or None,
                age_group=age_group or None,
            )
        )
    try:
        dataset = Dataset(records, face_dim=dims["face"], voice_dim=dims["voice"], blocks=blocks)
    except (DataError, NumericError) as e:
        raise type(e)(f"{path}: {e}") from None
    dataset.sha256 = sha256
    return dataset


# -- splits ----------------------------------------------------------------


def check_split_mode(mode: str) -> str:
    """``mode``, which must be one of ``SPLIT_MODES``; any other is a ``ContractError``."""
    if mode not in SPLIT_MODES:
        raise ContractError(f"split mode must be one of {SPLIT_MODES}")
    return mode


@dataclass(frozen=True)
class SplitSpec:
    """Identity sets (unseen_unheard) or clip sets (seen_heard) per partition."""

    mode: str
    train_ids: frozenset[str]
    val_ids: frozenset[str]
    test_ids: frozenset[str]

    def __post_init__(self):
        check_split_mode(self.mode)

    def _parts(self) -> dict[str, frozenset[str]]:
        return {"train": self.train_ids, "val": self.val_ids, "test": self.test_ids}

    def validate(self, dataset: Dataset) -> None:
        """Raise ``DataError`` unless the split fits ``dataset``.

        The three parts must be pairwise disjoint, and every id must name an
        identity (unseen_unheard) or a clip (seen_heard) of ``dataset``. In
        a seen_heard split with a train part (eval's may hold only test),
        every identity of a record that val or test selects must also own a
        record that train selects.
        """
        parts = self._parts()
        kind = "identities" if self.mode == "unseen_unheard" else "clips"
        for a, b in itertools.combinations(sorted(parts), 2):
            if parts[a] & parts[b]:
                raise DataError(
                    f"{self.mode} split: {a} and {b} {kind} overlap: {sorted(parts[a] & parts[b])[:5]}"
                )
        if self.mode == "unseen_unheard":
            known = set(dataset.identity_ids)
        else:
            known = {clip for clip_row in dataset.clip_row.values() for clip in clip_row}
        for name, ids in parts.items():
            missing = ids - known
            if missing:
                raise DataError(f"{name} split references unknown {kind} {sorted(missing)[:5]}")
        if self.mode == "seen_heard" and self.train_ids:
            idents = {name: {k for codes, _ in self._selected(dataset, name).values() for k in codes.tolist()}
                      for name in parts}
            if not idents["train"] >= idents["val"] | idents["test"]:
                raise DataError("seen_heard split: val/test identities must all appear in train")

    def _selected(self, dataset: Dataset, part: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per modality, the block rows ``part`` selects (ascending), as (identity indices, row indices)."""
        ids = self._parts()[part]
        if self.mode == "unseen_unheard":
            chosen = np.fromiter(map(ids.__contains__, dataset.identity_ids), bool, len(dataset.identity_ids))
            rows = {m: np.flatnonzero(chosen[codes]) for m, codes in dataset.row_identity.items()}
        else:
            rows = {m: np.sort(np.array([clip_row[c] for c in ids if c in clip_row], dtype=np.intp))
                    for m, clip_row in dataset.clip_row.items()}
        return {m: (dataset.row_identity[m][r], r) for m, r in rows.items()}

    def part_rows(self, dataset: Dataset, part: str) -> PartRows:
        """The block rows ``part`` selects, grouped by identity.

        Derived from the dataset's per-row arrays on every call: nothing is
        cached on the dataset or the split.
        """
        selected = self._selected(dataset, part)
        counts = {m: np.bincount(codes, minlength=len(dataset.identity_ids)) for m, (codes, _) in selected.items()}
        present = np.flatnonzero(counts["face"] + counts["voice"])
        return PartRows(
            identities=[dataset.identity_ids[k] for k in present.tolist()],
            # A stable sort by identity index keeps each identity's rows in record order.
            rows={m: rows[np.argsort(codes, kind="stable")] for m, (codes, rows) in selected.items()},
            offsets={m: np.append(0, np.cumsum(c[present])) for m, c in counts.items()},
        )


@dataclass(frozen=True)
class PartRows:
    """One split part's block rows, grouped by identity: the order of every draw from the part.

    ``identities`` are the part's identity ids, sorted. In modality m,
    identity k owns rows ``rows[m][offsets[m][k] : offsets[m][k + 1]]`` of
    ``dataset.blocks[m]``, ascending, which is record order; an identity
    without a record of m owns none there. So ``rows[m]`` lists the part's
    m rows identity by identity in sorted-id order. The trial builders and
    ``make_batches`` index ``rows[m]`` and ``offsets[m]`` directly; on
    records that come grouped by identity in sorted-id order, as
    ``synth_generate`` writes them below 10 000 identities, this order is
    record order.
    """

    identities: list[str]
    rows: dict[str, np.ndarray]
    offsets: dict[str, np.ndarray]

    def counts(self, modality: str) -> np.ndarray:
        return np.diff(self.offsets[modality])


def write_split_file(path, ids) -> None:
    Path(path).write_text("\n".join(sorted(ids)) + "\n", encoding="utf-8")


def read_split_file(path) -> frozenset[str]:
    lines = read_text(path).splitlines()
    ids = frozenset(line.strip() for line in lines if line.strip())
    if not ids:
        raise DataError(f"{path}: split file lists no ids")
    return ids


def make_unseen_split(dataset: Dataset, n_val: int, n_test: int, seed: int) -> SplitSpec:
    """Random identity-disjoint split; train gets whatever val/test leave over."""
    ids = dataset.identity_ids
    for part, n in (("val", n_val), ("test", n_test)):
        if n < 1:
            raise ContractError(f"unseen_unheard split: the {part} part needs at least 1 identity, got {n}")
    if n_val + n_test >= len(ids):
        raise ContractError(f"cannot hold out {n_val}+{n_test} identities from a pool of {len(ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ids).tolist()
    return SplitSpec(
        mode="unseen_unheard",
        test_ids=frozenset(order[:n_test]),
        val_ids=frozenset(order[n_test : n_test + n_val]),
        train_ids=frozenset(order[n_test + n_val :]),
    )


def make_seen_split(dataset: Dataset, val_frac: float, test_frac: float, seed: int) -> SplitSpec:
    """Clip-disjoint split sharing all identities across partitions."""
    if not 0.0 < val_frac + test_frac < 1.0:
        raise ContractError("val_frac + test_frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train: set[str] = set()
    val: set[str] = set()
    test: set[str] = set()
    everyone = SplitSpec("unseen_unheard", frozenset(dataset.identity_ids), frozenset(), frozenset())
    rows = everyone.part_rows(dataset, "train")  # every identity's rows
    for k in range(len(rows.identities)):
        for modality in MODALITIES:
            own = rows.rows[modality][rows.offsets[modality][k] : rows.offsets[modality][k + 1]]
            clips = sorted(r.clip_id for r in dataset.row_records(modality, own))
            order = rng.permutation(clips).tolist()
            n = len(order)
            n_test = max(1, int(round(n * test_frac))) if n >= 3 else 0
            n_val = max(1, int(round(n * val_frac))) if n >= 3 else 0
            test.update(order[:n_test])
            val.update(order[n_test : n_test + n_val])
            train.update(order[n_test + n_val :])
    for part, clips in (("train", train), ("val", val), ("test", test)):
        if not clips:
            raise ContractError(f"seen_heard split: the {part} part is empty")
    return SplitSpec(
        mode="seen_heard",
        train_ids=frozenset(train),
        val_ids=frozenset(val),
        test_ids=frozenset(test),
    )


# -- pair batching -----------------------------------------------------------


@dataclass
class PairBatch:
    """B matched face/voice rows; row i of both tensors is the same identity."""

    faces: Tensor
    voices: Tensor
    labels: np.ndarray

    def __post_init__(self):
        if self.faces.shape[0] != self.voices.shape[0] or self.faces.shape[0] != len(self.labels):
            raise ContractError("faces, voices and labels must agree on batch size")
        if len(self.labels) < 2:
            raise ContractError("a pair batch needs at least 2 rows")


def make_batches(dataset: Dataset, split: SplitSpec, batch_size: int, seed: int) -> list[PairBatch]:
    """One epoch of matched-pair batches covering every train identity.

    Identities stream without replacement, reshuffling when the pool is
    exhausted, so every batch holds exactly ``batch_size`` rows. For each
    selected identity one face and one voice row are drawn uniformly from
    its rows of the train part (``split.part_rows``, derived on every call).
    The stream is of label indices into the sorted train identities, so
    ``rng.permutation(n)`` draws the same shuffle as permuting the sorted
    identity ids would. Each batch is gathered from the blocks with one
    fancy index per modality.
    """
    if batch_size < 2:
        raise ContractError("batch_size must be at least 2")
    part = split.part_rows(dataset, "train")
    counts = {m: part.counts(m) for m in MODALITIES}
    missing = [part.identities[k] for k in np.flatnonzero((counts["face"] == 0) | (counts["voice"] == 0))]
    if missing:
        raise DataError(f"train identities missing a modality: {missing[:10]}")
    n = len(part.identities)
    if not n:
        raise DataError("train split selects no identities")

    rng = np.random.default_rng(seed)
    # Successive permutations, each drawn only when the previous one is used up.
    stream = (label for _ in itertools.count() for label in rng.permutation(n).tolist())
    batches: list[PairBatch] = []
    for _ in range(-(-n // batch_size)):  # ceil
        chosen: list[int] = []
        in_batch: set[int] = set()
        while len(chosen) < batch_size:
            label = next(stream)
            # A repeat across a permutation boundary is skipped unless the pool
            # is smaller than the batch, where repeats are unavoidable.
            if label in in_batch and n >= batch_size:
                continue
            chosen.append(label)
            in_batch.add(label)
        labels = np.array(chosen, dtype=np.int64)
        rows = {}
        for m in MODALITIES:
            # One call per modality: an array of bounds returns the per-row scalar draws, in order.
            picks = rng.integers(counts[m][labels])
            rows[m] = dataset.blocks[m][part.rows[m][part.offsets[m][labels] + picks]]
        batches.append(PairBatch(faces=Tensor(rows["face"]), voices=Tensor(rows["voice"]), labels=labels))
    return batches


# -- synthetic data ------------------------------------------------------------

_GENDERS = ("f", "m")
_NATIONALITIES = ("IT", "PK", "UK", "US", "FR")
_AGE_GROUPS = ("young", "adult", "senior")


# The identities an unseen_unheard split holds out of each part when its count is auto.
UNSEEN_HELD_OUT = {"val": 4, "test": 8}


@dataclass(frozen=True)
class SynthConfig:
    """The options of ``paeff synth``: the draw of ``synth_generate`` and the split cut from it.

    ``val_identities`` and ``test_identities`` count the identities an
    unseen_unheard split holds out; None (``auto``) is the split mode's own
    count, ``UNSEEN_HELD_OUT`` under unseen_unheard. A seen_heard split
    holds out clips (0.15 val, 0.15 test of each identity's clips), so it
    takes neither count, only ``auto``, and needs 3 samples per identity to
    hold out a val and a test clip. The unseen_unheard part sizes are
    checked by ``held_out``, which ``draw`` reads before any vector is drawn.
    """

    identities: int = 32
    samples_per_id: int = 20
    face_dim: int = 96
    voice_dim: int = 80
    rho: float = 1.0
    sigma: float = 0.1
    latent_dim: int = 16
    seed: int = 0
    split_mode: str = "unseen_unheard"
    val_identities: int | None = None
    test_identities: int | None = None

    def __post_init__(self):
        seen_heard = check_split_mode(self.split_mode) == "seen_heard"
        auto = "auto under seen_heard, which holds out clips"
        check_rules(self, (
            ("identities", self.identities >= 2, "at least 2"),
            ("samples_per_id", self.samples_per_id >= 2, "at least 2"),
            ("face_dim", self.face_dim > 0, "positive"),
            ("voice_dim", self.voice_dim > 0, "positive"),
            ("rho", 0.0 <= self.rho <= 1.0, "in [0, 1]"),
            ("sigma", 0.0 <= self.sigma < np.inf, "finite and nonnegative"),
            ("latent_dim", 1 <= self.latent_dim <= min(self.face_dim, self.voice_dim),
             "in [1, min(face_dim, voice_dim)]"),
            ("seed", self.seed >= 0, "at least 0"),
            ("samples_per_id", not seen_heard or self.samples_per_id >= 3,
             "at least 3 under seen_heard, to hold out a val and a test clip"),
            ("val_identities", not seen_heard or self.val_identities is None, auto),
            ("test_identities", not seen_heard or self.test_identities is None, auto),
        ))

    @property
    def held_out(self) -> dict[str, int]:
        """The held-out identity counts by option name: val and test under unseen_unheard, none under seen_heard.

        Every unseen_unheard part, train too, needs 2 identities: one
        identity can neither train nor build trials.
        """
        if self.split_mode == "seen_heard":
            return {}
        val = UNSEEN_HELD_OUT["val"] if self.val_identities is None else self.val_identities
        test = UNSEEN_HELD_OUT["test"] if self.test_identities is None else self.test_identities
        for part, size in (("val", val), ("test", test), ("train", self.identities - val - test)):
            if size < 2:
                raise ContractError(f"unseen_unheard split: the {part} part needs at least 2 identities, got {size}")
        return {"val_identities": val, "test_identities": test}

    def draw(self) -> tuple[Dataset, SplitSpec]:
        """The dataset ``synth_generate`` draws and the split cut from it, once ``held_out`` holds."""
        held = self.held_out
        dataset = synth_generate(self.identities, self.samples_per_id, self.face_dim, self.voice_dim, self.rho,
                                 self.sigma, self.seed, self.latent_dim)
        if self.split_mode == "seen_heard":
            split = make_seen_split(dataset, 0.15, 0.15, self.seed)  # val and test clip fractions
        else:
            split = make_unseen_split(dataset, held["val_identities"], held["test_identities"], self.seed)
        split.validate(dataset)
        return dataset, split


def synth_generate(
    identities: int,
    samples_per_id: int,
    face_dim: int,
    voice_dim: int,
    rho: float,
    sigma: float,
    seed: int,
    latent_dim: int = 16,
) -> Dataset:
    """Generate a coupled two-modality dataset with a tunable association.

    Each identity draws a latent z; faces are a fixed orthonormal mixing of
    z, voices mix rho * z with (1 - rho) * z' for an independent
    per-identity z'. rho=1 couples the modalities deterministically, rho=0
    leaves them associated only within, never across, modalities. The
    arguments must pass ``SynthConfig``'s rules.
    """
    SynthConfig(identities, samples_per_id, face_dim, voice_dim, rho, sigma, latent_dim=latent_dim, seed=seed)
    rng = np.random.default_rng(seed)

    def mixing(out_dim: int) -> np.ndarray:
        # Orthonormal columns keep output scale equal to the latent scale.
        q, _ = np.linalg.qr(rng.normal(size=(out_dim, latent_dim)))
        return q

    a_face = mixing(face_dim)
    a_voice = mixing(voice_dim)

    # Each record's vector is a row view of one of these blocks, which the dataset takes over.
    faces = np.empty((identities * samples_per_id, face_dim))
    voices = np.empty((identities * samples_per_id, voice_dim))
    records: list[EmbeddingRecord] = []
    for k in range(identities):
        identity = f"id{k:04d}"
        z = rng.normal(size=latent_dim)
        z_prime = rng.normal(size=latent_dim)
        voice_latent = rho * z + (1.0 - rho) * z_prime
        tags = {
            "gender": _GENDERS[rng.integers(len(_GENDERS))],
            "nationality": _NATIONALITIES[rng.integers(len(_NATIONALITIES))],
            "age_group": _AGE_GROUPS[rng.integers(len(_AGE_GROUPS))],
        }
        # One draw per identity is the same stream as a face then a voice draw per sample.
        draws = rng.normal(size=(samples_per_id, face_dim + voice_dim))
        rows = slice(k * samples_per_id, (k + 1) * samples_per_id)
        faces[rows] = a_face @ z + sigma * draws[:, :face_dim]
        voices[rows] = a_voice @ voice_latent + sigma * draws[:, face_dim:]
        for s, pair in enumerate(zip(faces[rows], voices[rows])):
            for modality, vector in zip(MODALITIES, pair):
                records.append(EmbeddingRecord(identity_id=identity, modality=modality,
                                               clip_id=f"{identity}_{modality}_{s:03d}", vector=vector, **tags))
    return Dataset(records, face_dim=face_dim, voice_dim=voice_dim, blocks={"face": faces, "voice": voices})
