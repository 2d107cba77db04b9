"""Training objectives: alignment, orthogonal projection, classification.

The total objective is the weighted sum

    L = alpha1 * L_align + alpha2 * L_op + alpha3 * L_ce

with the weights defaulting to (0.3, 0.35, 0.35). Each loss is one tape
node with a hand-written VJP: the alignment, the orthogonal projection
loss and the cross-entropy; ``total_loss`` adds them up. The alignment's
two arms, hyperbolic and cosine, share that node and differ only in the
similarity table it is built on. ``pair_similarity``, which evaluation
scores trials with, is plain numpy: a score needs no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import hyperbolic as hyp
from .autodiff import Tensor
from .errors import ContractError, NumericError
from .hyperbolic import PoincarePoint

_NORM_FLOOR = 1e-12


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

    The index-pair counterpart of the all-pairs similarity the alignment
    loss takes (-d(x_i, y_j) or the cosine of the rows): entry k equals its
    [face_rows[k], voice_rows[k]] entry up to the rounding of one dot
    product. Scoring needs no gradient, so nothing here records a node.
    """
    _check_mode(face, voice, mode)
    if mode == "cosine":
        f, v = _unit_rows(_rows(face).data)[0], _unit_rows(_rows(voice).data)[0]
        return ad.pair_dots(f, v, face_rows, voice_rows)
    return -hyp.pair_distances(face, voice, face_rows, voice_rows)


def _check_mode(face, voice, mode: str) -> None:
    """A known similarity mode, and lifted embeddings for the hyperbolic one."""
    if mode == "neg_hyperbolic_distance":
        if not isinstance(face, PoincarePoint) or not isinstance(voice, PoincarePoint):
            raise ContractError("neg_hyperbolic_distance needs lifted (ball) embeddings")
    elif mode != "cosine":
        raise ContractError(f"unknown similarity mode {mode!r}")


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

    The arms differ only in their table T and sign, similarity = sign * T:
    d(x_i, y_j) from ``hyperbolic.distance_table`` with sign -1, or the
    cosine from :func:`_cosine_table` with +1; ``back(g, scale)`` takes
    scale * g, a gradient of T, to the rows. With t = exp(logit_scale) and
    P the logit gradient (``autodiff.symmetric_nll_grad``), the rows get
    ``back(P, sign * t)`` and logit_scale gets <P, logits>, summed in the
    forward pass. The mask is built only when a label repeats.
    """
    _check_mode(face, voice, mode)
    f, v = _rows(face), _rows(voice)
    b = f.shape[0]
    if b < 2:
        raise ContractError("alignment_loss needs a batch of at least 2 pairs")
    if v.shape[0] != b:
        raise ContractError(f"alignment_loss needs matched batches, got {(b, v.shape[0])}")
    if f.shape[1] != v.shape[1]:
        raise ContractError(f"alignment_loss: face and voice widths differ: {f.shape[1]} vs {v.shape[1]}")
    same = _repeated_label_mask(labels, b)
    if mode == "cosine":
        (table, back), sign = _cosine_table(f.data, v.data), 1.0
    else:
        (table, back), sign = hyp.distance_table(f.data, v.data, hyp._same_config(face, voice)), -1.0
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
