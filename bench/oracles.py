"""Reference computations the benchmark checks the program against.

Nothing here imports ``paeff``: each oracle is written from the method's
definition with plain numpy and the standard library, so a fault in the
program cannot also hide in its check.

- ``score``: affine projection, tangent-norm clip, exp map at the origin,
  ball clamp, then the closed-form Poincare distance
  d(x, y) = arccosh(1 + 2c|x - y|^2 / ((1 - c|x|^2)(1 - c|y|^2))) / sqrt(c).
- ``eer`` / ``auc``: brute force over every threshold and every
  positive/negative pair.
- ``matching_accuracy``: argmax over the oracle's own scores.
- ``stratum_mask``: trials kept by a stratum, from the demographic tags.
- ``read_fve`` / ``read_checkpoint`` / ``sha256``: the program's file
  formats and digests, parsed and computed independently.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

# Largest difference allowed between a program value and its oracle. Scores
# come from two float64 formulas for the same distance; 1e-9 is about a
# million ulps at distance 1, far above rounding and far below any fault.
SCORE_ATOL = 1e-9
METRIC_ATOL = 1e-9

STRATUM_TAGS = {"random": (), "G": ("gender",), "N": ("nationality",), "A": ("age_group",),
                "GNA": ("gender", "nationality", "age_group")}

_CHUNK = 1024


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def _lift(x: np.ndarray, curvature: float, tangent_clip: float, boundary_eps: float) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    x = x * np.minimum(1.0, tangent_clip / np.maximum(norms, 1e-300))
    sn = math.sqrt(curvature) * np.linalg.norm(x, axis=1, keepdims=True)
    ratio = np.ones_like(sn)
    nz = sn > 0.0
    ratio[nz] = np.tanh(sn[nz]) / sn[nz]
    p = x * ratio
    max_norm = (1.0 - boundary_eps) / math.sqrt(curvature)
    pn = np.linalg.norm(p, axis=1, keepdims=True)
    return p * np.minimum(1.0, max_norm / np.maximum(pn, 1e-300))


def score(faces: np.ndarray, voices: np.ndarray, weights: dict[str, np.ndarray], curvature: float,
          tangent_clip: float, boundary_eps: float) -> np.ndarray:
    """Negative Poincare distance between row-matched face and voice embeddings."""
    x = _lift(faces @ weights["face_weight"] + weights["face_bias"], curvature, tangent_clip, boundary_eps)
    y = _lift(voices @ weights["voice_weight"] + weights["voice_bias"], curvature, tangent_clip, boundary_eps)
    c = curvature
    num = 2.0 * c * np.sum((x - y) ** 2, axis=1)
    den = (1.0 - c * np.sum(x * x, axis=1)) * (1.0 - c * np.sum(y * y, axis=1))
    return -np.arccosh(1.0 + num / den) / math.sqrt(c)


def eer(scores: np.ndarray, labels: np.ndarray) -> float:
    """Equal error rate, accepting a trial iff its score >= the threshold.

    Every distinct score is tried as a threshold, plus one above them all;
    FAR and FRR are counted directly at each, and the crossing is
    interpolated linearly between the two operating points around it.
    """
    pos, neg = scores[labels], scores[~labels]
    thresholds = np.unique(scores)
    far = np.empty(thresholds.size + 1)
    frr = np.empty(thresholds.size + 1)
    for lo in range(0, thresholds.size, _CHUNK):
        hi = min(lo + _CHUNK, thresholds.size)
        t = thresholds[lo:hi, None]
        far[lo:hi] = np.count_nonzero(neg[None, :] >= t, axis=1) / neg.size
        frr[lo:hi] = np.count_nonzero(pos[None, :] < t, axis=1) / pos.size
    far[-1], frr[-1] = 0.0, 1.0
    gap = far - frr
    for i in range(gap.size):
        if gap[i] <= 0.0:
            if i == 0:
                return float(far[0])
            lam = 0.0 if gap[i - 1] == gap[i] else gap[i - 1] / (gap[i - 1] - gap[i])
            return float(far[i - 1] + lam * (far[i] - far[i - 1]))
    raise CheckFailed("eer: no crossing")  # unreachable: the last point has gap -1


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of positive/negative pairs ranked right, ties counting one half."""
    pos, neg = scores[labels], scores[~labels]
    wins = 0.0
    for lo in range(0, pos.size, _CHUNK):
        p = pos[lo:lo + _CHUNK, None]
        wins += np.count_nonzero(p > neg[None, :]) + 0.5 * np.count_nonzero(p == neg[None, :])
    return wins / (pos.size * neg.size)


def matching_accuracy(scores: np.ndarray, correct: np.ndarray) -> float:
    """Share of [trials x gallery] score rows whose first maximum is the true item."""
    hits = 0
    for row, c in zip(scores, correct):
        best = 0
        for j in range(1, row.size):
            if row[j] > row[best]:
                best = j
        hits += best == c
    return hits / len(correct)


def stratum_mask(pairs: list[tuple[dict, dict, bool]], stratum: str) -> np.ndarray:
    """Trials a stratum keeps: every match, and non-matches whose face and voice tags agree."""
    keys = STRATUM_TAGS[stratum]
    return np.array([match or all(face[k] == voice[k] for k in keys) for face, voice, match in pairs])


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_fve(path, identities: frozenset[str]) -> list[dict]:
    """Records of the given identities from an ``.fve`` text file, in file order."""
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#fve v1 "):
            raise CheckFailed(f"{path}: bad header {header[:40]!r}")
        for line in fh:
            identity, rest = line.split("\t", 1)
            if identity not in identities:
                continue
            modality, clip, gender, nationality, age, values = rest.rstrip("\n").split("\t", 5)
            out.append({"identity": identity, "modality": modality, "clip": clip, "gender": gender,
                        "nationality": nationality, "age_group": age,
                        "vector": np.array(values.split("\t"), dtype=np.float64)})
    return out


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Arrays of a ``PAEF`` v1 checkpoint: per entry a u32-prefixed name, rank, dims, f64 data."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"PAEF" or struct.unpack_from("<I", blob, 4)[0] != 1:
        raise CheckFailed(f"{path}: not a PAEF v1 checkpoint")
    pos, out = 8, {}
    while pos < len(blob):
        (n,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + n].decode("utf-8")
        pos += 4 + n
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank
        count = math.prod(dims)
        out[name] = np.frombuffer(blob, "<f8", count, pos).reshape(dims).copy()
        pos += 8 * count
    return out


class Checks:
    """Collects named comparisons; ``ok`` is true only if every one held."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, name: str, condition: bool, detail: str = "") -> None:
        self.count += 1
        if not condition:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def close(self, name: str, got: float, want: float, atol: float = METRIC_ATOL) -> None:
        self.expect(name, abs(got - want) <= atol, f"program {got!r} vs oracle {want!r}")

    def scores(self, name: str, got: np.ndarray, want: np.ndarray) -> None:
        worst = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
        self.expect(name, worst <= SCORE_ATOL, f"max |program - oracle| = {worst!r}")

    @property
    def ok(self) -> bool:
        return not self.failures
