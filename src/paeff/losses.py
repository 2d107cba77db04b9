"""Training objectives: alignment, orthogonal projection, classification.

The total objective is the weighted sum

    L = alpha1 * L_align + alpha2 * L_op + alpha3 * L_ce

with the weights defaulting to (0.3, 0.35, 0.35). Each loss is one tape
node with a hand-written VJP: the alignment, the orthogonal projection
loss and the cross-entropy; ``total_loss`` adds them up. The alignment's
two arms, hyperbolic and cosine, share that node and differ only in the
similarity table it is built on, which one helper picks. Evaluation
scores trials with ``pair_similarity``: entries of that same table, in
plain numpy, since a score needs no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import hyperbolic as hyp
from .autodiff import Tensor
from .errors import ContractError, DimensionError, IndexOutOfRangeError, NumericError
from .hyperbolic import PoincarePoint

_NORM_FLOOR = 1e-12
# Most entries of one block of the similarity table that pair_similarity holds: 2 MB of float64.
_TABLE_ENTRIES = 2**18


@dataclass(frozen=True)
class LossWeights:
    alpha1: float = 0.3
    alpha2: float = 0.35
    alpha3: float = 0.35

    def __post_init__(self):
        values = (self.alpha1, self.alpha2, self.alpha3)
        for name, a in zip(("alpha1", "alpha2", "alpha3"), values):
            if not (math.isfinite(a) and a >= 0.0):
                raise ContractError(f"loss weight {name} must be finite and nonnegative, got {a!r}")
        if not any(a > 0.0 for a in values):
            raise ContractError("at least one loss weight must be positive")


@dataclass
class LossBreakdown:
    """Scalar loss tensors for one step; ``total`` is the node to backpropagate."""

    l_align: Tensor
    l_op: Tensor
    l_ce: Tensor
    total: Tensor

    def values(self) -> dict[str, float]:
        return {
            "l_align": self.l_align.item(),
            "l_op": self.l_op.item(),
            "l_ce": self.l_ce.item(),
            "total": self.total.item(),
        }


def _unit_rows(x: np.ndarray):
    """Rows divided by their norms floored at 1e-12, and the VJP of that map.

    With n the row norms and n' = max(n, 1e-12), the VJP takes dU to

        dX = dU / n' - X * [n >= 1e-12] <dU, X> / (n'^2 n),

    whose radial term is 0 at a zero row.
    """
    n = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    floored = np.maximum(n, _NORM_FLOOR)

    def back(d_unit):
        radial = np.divide(1.0, floored * floored * n, out=np.zeros_like(n), where=n >= _NORM_FLOOR)
        return d_unit / floored - x * (radial * np.sum(d_unit * x, axis=1, keepdims=True))

    return x / floored, back


def pair_similarity(
    face: PoincarePoint | Tensor, voice: PoincarePoint | Tensor, face_rows, voice_rows, mode: str
) -> np.ndarray:
    """s[k] = similarity of face ``face_rows[k]`` with voice ``voice_rows[k]``: [N], in numpy.

    The entries of the alignment's own table (:func:`_similarity_arm`),
    taken over a block of face rows at a time, at most ``_TABLE_ENTRIES``
    entries, and gathered at the given pairs. The rows, two equal-length
    integer arrays, index the distinct encodings that evaluation scores.
    Scoring needs no gradient, so nothing here records a node.
    """
    table_of, sign = _similarity_arm(face, voice, mode)
    f, v = _rows(face).data, _rows(voice).data
    face_rows, voice_rows = _trial_rows(face_rows, f.shape[0]), _trial_rows(voice_rows, v.shape[0])
    if face_rows.size != voice_rows.size:
        raise ContractError(f"pair_similarity: {face_rows.size} face rows vs {voice_rows.size} voice rows")
    out = np.empty(face_rows.size)
    step = max(1, _TABLE_ENTRIES // v.shape[0])
    for s in range(0, f.shape[0], step):
        table = table_of(f[s : s + step], v)[0]
        k = np.flatnonzero((face_rows >= s) & (face_rows < s + step))
        out[k] = table[face_rows[k] - s, voice_rows[k]]
    return out * sign


def _trial_rows(rows, n: int) -> np.ndarray:
    """``rows`` as a 1-d integer array of indices into ``n`` rows.

    A face row outside the blocks would leave its score unset, so every
    row is checked before a block is built.
    """
    r = np.asarray(rows)
    if r.ndim != 1 or not np.issubdtype(r.dtype, np.integer):
        raise DimensionError(f"pair_similarity needs 1-d integer rows, got shape {r.shape} ({r.dtype})")
    if r.size and (r.min() < 0 or r.max() >= n):
        raise IndexOutOfRangeError(f"pair_similarity: row index out of range for {n} rows")
    return r


def _similarity_arm(face, voice, mode: str):
    """The table T of the alignment arm ``mode`` and its sign: similarity = sign * T.

    T is a function of the face and voice row arrays that returns the
    [B x N] table and its VJP ``back(g, scale)``: d(x_i, y_j) from
    ``hyperbolic.distance_table`` with sign -1, which needs lifted
    embeddings, or the cosine from :func:`_cosine_table` with +1.
    """
    if mode == "cosine":
        return _cosine_table, 1.0
    if mode != "neg_hyperbolic_distance":
        raise ContractError(f"unknown similarity mode {mode!r}")
    if not isinstance(face, PoincarePoint) or not isinstance(voice, PoincarePoint):
        raise ContractError("neg_hyperbolic_distance needs lifted (ball) embeddings")
    return partial(hyp.distance_table, cfg=hyp._same_config(face, voice)), -1.0


def _rows(x: PoincarePoint | Tensor) -> Tensor:
    """The [N x D] rows of an embedding batch, lifted or not."""
    return x.vector if isinstance(x, PoincarePoint) else x


def alignment_loss(
    face: PoincarePoint | Tensor,
    voice: PoincarePoint | Tensor,
    logit_scale: Tensor,
    mode: str = "neg_hyperbolic_distance",
    labels=None,
) -> Tensor:
    """Symmetric cross-entropy over in-batch pairs, as one tape node.

    Row i of both inputs must be the same identity's matched pair; every
    other row serves as a negative, except rows whose ``labels`` entry
    equals row i's: those logits are masked to -inf, so a batch that holds
    an identity twice does not push it away from itself. Temperatured
    logits are exp(logit_scale) * similarity, and the loss averages the
    face->voice and voice->face directions.

    The arms differ only in their table T and sign, similarity = sign * T
    (:func:`_similarity_arm`); ``back(g, scale)`` takes scale * g, a
    gradient of T, to the rows. With t = exp(logit_scale) and P the logit
    gradient (``autodiff.symmetric_nll_grad``), the rows get
    ``back(P, sign * t)`` and logit_scale gets <P, logits>, summed in the
    forward pass. The mask is built only when a label repeats.
    """
    table_of, sign = _similarity_arm(face, voice, mode)
    f, v = _rows(face), _rows(voice)
    b = f.shape[0]
    if b < 2:
        raise ContractError("alignment_loss needs a batch of at least 2 pairs")
    if v.shape[0] != b:
        raise ContractError(f"alignment_loss needs matched batches, got {(b, v.shape[0])}")
    if f.shape[1] != v.shape[1]:
        raise ContractError(f"alignment_loss: face and voice widths differ: {f.shape[1]} vs {v.shape[1]}")
    same = _repeated_label_mask(labels, b)
    table, back = table_of(f.data, v.data)
    scale = sign * math.exp(logit_scale.item())
    loss, grad = ad.symmetric_nll_grad(table * scale, same)
    d_scale = scale * float(np.vdot(grad, table))
    del table

    def vjp(g):
        g = float(g)
        return (*back(grad, scale * g), np.full(logit_scale.shape, d_scale * g))

    return Tensor.from_op(np.asarray(loss), (f, v, logit_scale), (vjp,))


def _cosine_table(x: np.ndarray, y: np.ndarray):
    """cos(x_i, y_j) = U V^T for the unit rows U, V of x and y (:func:`_unit_rows`), and its VJP.

    Returns the [B x N] table and ``back(g, scale)``, which takes scale * g,
    a gradient of the table, to dU = scale g V and dV = scale g^T U, and
    through the floored norms to the rows.
    """
    (u, u_back), (w, w_back) = _unit_rows(x), _unit_rows(y)

    def back(g, scale):
        scaled = g * scale
        return u_back(scaled @ w), w_back(scaled.T @ u)

    return u @ w.T, back


def _repeated_label_mask(labels, b: int):
    """[B x B], set where two different rows share a label; None when no label repeats (or no labels)."""
    if labels is None:
        return None
    y = np.asarray(labels)
    if y.shape != (b,):
        raise ContractError(f"labels shape {y.shape} does not match batch {b}")
    if np.unique(y).size == b:
        return None
    same = y[:, None] == y[None, :]
    np.fill_diagonal(same, False)
    return same


def orthogonal_projection_loss(
    fused: Tensor, labels, inter_weight: float = 1.0
) -> Tensor:
    """Pull same-identity embeddings together, push different ones orthogonal.

    With s = mean cosine over same-label pairs and d = mean |cosine| over
    different-label pairs (self-pairs excluded):

        loss = (1 - s) + inter_weight * d

    Whichever term has no qualifying pairs in the batch is dropped. One
    tape node: rows are normalised with norms floored at 1e-12
    (:func:`_unit_rows`, whose VJP carries dU back to the rows), the cosine
    Gram G = U U^T is taken, and dU = (dG + dG^T) U, with |.| having
    subgradient 0 at 0. G is symmetric, so dG + dG^T = 2 dG, and G becomes
    that in its own buffer, the one [B x B] array the node keeps. The
    same-label mask is built only when a label repeats; otherwise every
    off-diagonal pair is a different-label pair.
    """
    b = fused.shape[0]
    if b < 2:
        raise ContractError("orthogonal_projection_loss needs a batch of at least 2")
    same = _repeated_label_mask(np.asarray(labels), b)  # None labels fail its shape check

    unit, back = _unit_rows(fused.data)
    gram = unit @ unit.T
    np.fill_diagonal(gram, 0.0)
    n_same = 0 if same is None else int(np.count_nonzero(same))
    n_diff = b * b - b - n_same

    loss = 0.0
    if n_same:
        loss += 1.0 - float(np.sum(gram, where=same)) / n_same
        np.copyto(gram, 0.0, where=same)
    if n_diff:
        loss += float(np.sum(np.abs(gram))) / n_diff * inter_weight
    np.sign(gram, out=gram)
    gram *= 2.0 * inter_weight / n_diff if n_diff else 0.0
    if n_same:
        np.copyto(gram, -2.0 / n_same, where=same)

    def vjp(g):
        return back(float(g) * (gram @ unit))

    return Tensor.from_op(np.asarray(loss), (fused,), (vjp,))


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    return ad.log_softmax_nll(logits, labels)


def total_loss(l_align: Tensor, l_op: Tensor, l_ce: Tensor, weights: LossWeights) -> LossBreakdown:
    for name, t in (("l_align", l_align), ("l_op", l_op), ("l_ce", l_ce)):
        if not np.all(np.isfinite(t.data)):
            raise NumericError(f"total_loss: component {name} is non-finite")
    total = l_align * weights.alpha1 + l_op * weights.alpha2 + l_ce * weights.alpha3
    return LossBreakdown(l_align=l_align, l_op=l_op, l_ce=l_ce, total=total)
