"""Embedding datasets: file format, splits, pair batching, synthesis.

Datasets are UTF-8 TSV files ("fve v1"): a header line

    #fve v1 face=<dim> voice=<dim>

followed by one record per line: identity_id, modality, clip_id, gender,
nationality, age_group (empty string when missing), then the vector as
decimal floats with 17 significant digits. 17 digits round-trips float64
exactly, so write -> load -> write is byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import read_text
from .errors import ContractError, DataError, NumericError, ParseError

MODALITIES = ("face", "voice")
SPLIT_MODES = ("seen_heard", "unseen_unheard")

_HEADER_PREFIX = "#fve v1 "


@dataclass
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
    """Immutable collection of embedding records with per-modality dims."""

    def __init__(self, records: list[EmbeddingRecord], face_dim: int, voice_dim: int):
        self.records = list(records)
        self.face_dim = face_dim
        self.voice_dim = voice_dim
        self._by_clip: dict[tuple[str, str], EmbeddingRecord] = {}
        for rec in self.records:
            self._validate(rec)
            key = (rec.modality, rec.clip_id)
            if key in self._by_clip:
                raise DataError(f"duplicate clip id {rec.clip_id!r} for modality {rec.modality}")
            self._by_clip[key] = rec

    def _validate(self, rec: EmbeddingRecord) -> None:
        if rec.modality not in MODALITIES:
            raise DataError(f"unknown modality {rec.modality!r} on clip {rec.clip_id!r}")
        expected = self.face_dim if rec.modality == "face" else self.voice_dim
        if rec.vector.ndim != 1 or rec.vector.size != expected:
            raise DataError(
                f"clip {rec.clip_id!r}: vector length {rec.vector.size} does not match "
                f"{rec.modality} dim {expected}"
            )
        if not np.all(np.isfinite(rec.vector)):
            raise NumericError(f"clip {rec.clip_id!r}: vector contains non-finite values")

    def identities(self) -> list[str]:
        return sorted({rec.identity_id for rec in self.records})

    def by_clip(self, modality: str, clip_id: str) -> EmbeddingRecord:
        try:
            return self._by_clip[(modality, clip_id)]
        except KeyError:
            raise DataError(f"no {modality} record with clip id {clip_id!r}") from None

    def __len__(self) -> int:
        return len(self.records)


def group_by_identity(records) -> dict[str, dict[str, list[EmbeddingRecord]]]:
    """Records grouped as ``{identity: {"face": [...], "voice": [...]}}``.

    Identities keep the order of their first record, and each list keeps
    the input order of its records. Trial construction draws by position in
    these lists, so the same records in the same order give the same trials.
    """
    groups: dict[str, dict[str, list[EmbeddingRecord]]] = {}
    for rec in records:
        groups.setdefault(rec.identity_id, {"face": [], "voice": []})[rec.modality].append(rec)
    return groups


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def write_dataset(path, dataset: Dataset) -> None:
    lines = [f"#fve v1 face={dataset.face_dim} voice={dataset.voice_dim}"]
    for rec in dataset.records:
        fields = [
            rec.identity_id,
            rec.modality,
            rec.clip_id,
            rec.gender or "",
            rec.nationality or "",
            rec.age_group or "",
        ]
        fields.extend(_format_float(v) for v in rec.vector)
        lines.append("\t".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(path) -> Dataset:
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file, expected '#fve v1' header")
    header = lines[0]
    if not header.startswith(_HEADER_PREFIX):
        raise ParseError(f"{path}:1: expected header starting with {_HEADER_PREFIX!r}")
    dims: dict[str, int] = {}
    for part in header[len(_HEADER_PREFIX) :].split():
        key, _, value = part.partition("=")
        if key not in MODALITIES or not (value.isascii() and value.isdigit()):
            raise ParseError(f"{path}:1: bad header field {part!r}")
        dims[key] = int(value)
    if set(dims) != set(MODALITIES):
        raise ParseError(f"{path}:1: header must declare face and voice dims")

    records: list[EmbeddingRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 7:
            raise ParseError(f"{path}:{lineno}: expected at least 7 tab-separated fields")
        identity_id, modality, clip_id, gender, nationality, age_group = fields[:6]
        try:
            vector = np.array([float(v) for v in fields[6:]], dtype=np.float64)
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: bad float in vector: {e}") from None
        if not np.all(np.isfinite(vector)):
            raise NumericError(f"{path}:{lineno}: vector contains non-finite values")
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
        return Dataset(records, face_dim=dims["face"], voice_dim=dims["voice"])
    except (DataError, NumericError) as e:
        raise type(e)(f"{path}: {e}") from None


# -- splits ----------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Identity sets (unseen_unheard) or clip sets (seen_heard) per partition."""

    mode: str
    train_ids: frozenset[str]
    val_ids: frozenset[str]
    test_ids: frozenset[str]

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ContractError(f"split mode must be one of {SPLIT_MODES}")

    def _parts(self) -> dict[str, frozenset[str]]:
        return {"train": self.train_ids, "val": self.val_ids, "test": self.test_ids}

    @property
    def _key(self):
        """The record field a part's ids name: the identity, or the clip."""
        return attrgetter("identity_id" if self.mode == "unseen_unheard" else "clip_id")

    def validate(self, dataset: Dataset) -> None:
        """Raise ``DataError`` unless the split fits ``dataset``.

        The three parts must be pairwise disjoint, and every id must name an
        identity (unseen_unheard) or a clip (seen_heard) of ``dataset``. In
        seen_heard, every identity of a record that val or test selects must
        also own a record that train selects.
        """
        parts = self._parts()
        kind = "identities" if self.mode == "unseen_unheard" else "clips"
        for a, b in itertools.combinations(sorted(parts), 2):
            if parts[a] & parts[b]:
                raise DataError(
                    f"{self.mode} split: {a} and {b} {kind} overlap: {sorted(parts[a] & parts[b])[:5]}"
                )
        known = set(map(self._key, dataset.records))
        for name, ids in parts.items():
            missing = ids - known
            if missing:
                raise DataError(f"{name} split references unknown {kind} {sorted(missing)[:5]}")
        if self.mode == "seen_heard":
            idents = {name: {r.identity_id for r in self.part_records(dataset, name)} for name in parts}
            if not idents["train"] >= idents["val"] | idents["test"]:
                raise DataError("seen_heard split: val/test identities must all appear in train")

    def part_records(self, dataset: Dataset, part: str) -> list[EmbeddingRecord]:
        ids, key = self._parts()[part], self._key
        return [rec for rec in dataset.records if key(rec) in ids]


def write_split_file(path, ids) -> None:
    Path(path).write_text("\n".join(sorted(ids)) + "\n", encoding="utf-8")


def read_split_file(path) -> frozenset[str]:
    lines = read_text(path).splitlines()
    ids = frozenset(line.strip() for line in lines if line.strip())
    if not ids:
        raise ParseError(f"{path}: split file lists no ids")
    return ids


def make_unseen_split(dataset: Dataset, n_val: int, n_test: int, seed: int) -> SplitSpec:
    """Random identity-disjoint split; train gets whatever val/test leave over."""
    ids = dataset.identities()
    if n_val + n_test >= len(ids):
        raise ContractError(
            f"cannot hold out {n_val}+{n_test} identities from a pool of {len(ids)}"
        )
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(ids))
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
    for _, pools in sorted(group_by_identity(dataset.records).items()):
        for modality in MODALITIES:
            clips = sorted(r.clip_id for r in pools[modality])
            order = list(rng.permutation(clips))
            n = len(order)
            n_test = max(1, int(round(n * test_frac))) if n >= 3 else 0
            n_val = max(1, int(round(n * val_frac))) if n >= 3 else 0
            test.update(order[:n_test])
            val.update(order[n_test : n_test + n_val])
            train.update(order[n_test + n_val :])
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


def make_batches(
    dataset: Dataset, split: SplitSpec, batch_size: int, seed: int
) -> list[PairBatch]:
    """One epoch of matched-pair batches covering every train identity.

    Identities stream without replacement, reshuffling when the pool is
    exhausted, so every batch holds exactly ``batch_size`` rows. For each
    selected identity one face and one voice record are drawn uniformly.
    """
    if batch_size < 2:
        raise ContractError("batch_size must be at least 2")
    pools = group_by_identity(split.part_records(dataset, "train"))
    missing = sorted(i for i, pool in pools.items() if not pool["face"] or not pool["voice"])
    if missing:
        raise DataError(f"train identities missing a modality: {missing[:10]}")
    identities = sorted(pools)
    if not identities:
        raise DataError("train split selects no identities")
    labels = {identity: i for i, identity in enumerate(identities)}

    rng = np.random.default_rng(seed)
    # Successive permutations, each drawn only when the previous one is used up.
    stream = (identity for _ in itertools.count() for identity in rng.permutation(identities))
    batches: list[PairBatch] = []
    for _ in range(-(-len(identities) // batch_size)):  # ceil
        chosen: list[str] = []
        in_batch: set[str] = set()
        while len(chosen) < batch_size:
            identity = next(stream)
            # A repeat across a permutation boundary is skipped unless the pool
            # is smaller than the batch, where repeats are unavoidable.
            if identity in in_batch and len(identities) >= batch_size:
                continue
            chosen.append(identity)
            in_batch.add(identity)
        faces, voices = (
            np.stack([pools[i][m][rng.integers(len(pools[i][m]))].vector for i in chosen])
            for m in MODALITIES
        )
        batches.append(
            PairBatch(
                faces=Tensor(faces),
                voices=Tensor(voices),
                labels=np.array([labels[i] for i in chosen], dtype=np.int64),
            )
        )
    return batches


# -- synthetic data ------------------------------------------------------------

_GENDERS = ("f", "m")
_NATIONALITIES = ("IT", "PK", "UK", "US", "FR")
_AGE_GROUPS = ("young", "adult", "senior")


def synth_generate(
    num_identities: int,
    samples_per_id: int,
    face_dim: int,
    voice_dim: int,
    cross_modal_coupling: float,
    noise: float,
    seed: int,
    latent_dim: int = 16,
    demographics: bool = True,
) -> Dataset:
    """Generate a coupled two-modality dataset with a tunable association.

    Each identity draws a latent z; faces are a fixed orthonormal mixing of
    z, voices mix rho * z with (1 - rho) * z' for an independent
    per-identity z'. rho=1 couples the modalities deterministically, rho=0
    leaves them associated only within, never across, modalities.
    """
    if num_identities < 2 or samples_per_id < 2:
        raise ContractError("need at least 2 identities and 2 samples per identity")
    if not 0.0 <= cross_modal_coupling <= 1.0:
        raise ContractError("cross_modal_coupling must lie in [0, 1]")
    if noise < 0.0:
        raise ContractError("noise must be nonnegative")
    if latent_dim < 1 or latent_dim > min(face_dim, voice_dim):
        raise ContractError("latent_dim must lie in [1, min(face_dim, voice_dim)]")

    rng = np.random.default_rng(seed)
    rho = cross_modal_coupling

    def mixing(out_dim: int) -> np.ndarray:
        # Orthonormal columns keep output scale equal to the latent scale.
        q, _ = np.linalg.qr(rng.normal(size=(out_dim, latent_dim)))
        return q

    a_face = mixing(face_dim)
    a_voice = mixing(voice_dim)

    records: list[EmbeddingRecord] = []
    for k in range(num_identities):
        identity = f"id{k:04d}"
        z = rng.normal(size=latent_dim)
        z_prime = rng.normal(size=latent_dim)
        voice_latent = rho * z + (1.0 - rho) * z_prime
        tags = {}
        if demographics:
            tags = {
                "gender": _GENDERS[rng.integers(len(_GENDERS))],
                "nationality": _NATIONALITIES[rng.integers(len(_NATIONALITIES))],
                "age_group": _AGE_GROUPS[rng.integers(len(_AGE_GROUPS))],
            }
        for s in range(samples_per_id):
            face = a_face @ z + noise * rng.normal(size=face_dim)
            voice = a_voice @ voice_latent + noise * rng.normal(size=voice_dim)
            records.append(
                EmbeddingRecord(
                    identity_id=identity,
                    modality="face",
                    clip_id=f"{identity}_face_{s:03d}",
                    vector=face,
                    **tags,
                )
            )
            records.append(
                EmbeddingRecord(
                    identity_id=identity,
                    modality="voice",
                    clip_id=f"{identity}_voice_{s:03d}",
                    vector=voice,
                    **tags,
                )
            )
    return Dataset(records, face_dim=face_dim, voice_dim=voice_dim)
