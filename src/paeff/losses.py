"""Training objectives: alignment, orthogonal projection, classification.

The total objective is the weighted sum

    L = alpha1 * L_align + alpha2 * L_op + alpha3 * L_ce

with the weights ``trainer.TrainConfig.alpha1..3``, which checks them and
holds their defaults (0.3, 0.35, 0.35). Each loss is one tape node with a
hand-written VJP: the alignment, the orthogonal projection loss and the
cross-entropy, and ``total_loss`` weighs them in one more.
The alignment's two arms, hyperbolic and cosine, share that node and
differ only in the similarity table it is built on, which
``similarity_arm`` picks; evaluation scores trials on the same table.

One max-shifted softmax kernel, ``_softmax``, has three uses: the rows of
the classifier's logits in ``cross_entropy_loss``, and the rows and then
the columns of the alignment's [B x B] logits in ``contrastive_nll``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import hyperbolic as hyp
from .autodiff import Tensor
from .errors import ContractError, NumericError
from .hyperbolic import PoincarePoint

_NORM_FLOOR = 1e-12


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


def _softmax(z: np.ndarray, axis: int, out=None):
    """The softmax of ``z`` along ``axis``, max-shifted, and the max and the sum of exponentials it took.

    Returns (p, top, total), the last two with ``axis`` kept at size 1, so
    log p = z - top - log(total). ``p`` is written into ``out`` when given,
    which may be ``z`` itself, and into a new array otherwise.
    """
    top = np.max(z, axis=axis, keepdims=True)
    p = np.subtract(z, top, out=out)
    np.exp(p, out=p)
    total = np.sum(p, axis=axis, keepdims=True)
    p /= total
    return p, top, total


def similarity_arm(face, voice, mode: str):
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
    return partial(hyp.distance_table, cfg=hyp.same_config(face, voice)), -1.0


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
    (:func:`similarity_arm`); ``back(g, scale)`` takes scale * g, a
    gradient of T, to the rows. With t = exp(logit_scale) and P the logit
    gradient (:func:`contrastive_nll`), the rows get
    ``back(P, sign * t)`` and logit_scale gets <P, logits>, summed in the
    forward pass. The mask is built only when a label repeats. A table
    whose entries all tie, such as every pair at the distance cap, ranks
    no pair: it is a ``NumericError``, as tied scores are in evaluation.
    """
    table_of, sign = similarity_arm(face, voice, mode)
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
    if table.min() == table.max():
        raise NumericError(f"alignment_loss: all {b * b} similarities equal {sign * table[0, 0]:.6g}, "
                           "so they cannot rank the pairs")
    scale = sign * math.exp(logit_scale.item())
    loss, grad = contrastive_nll(table * scale, same)
    d_scale = scale * float(np.vdot(grad, table))
    del table

    def vjp(g):
        g = float(g)
        return (*back(grad, scale * g), np.full(logit_scale.shape, d_scale * g, dtype=logit_scale.data.dtype))

    return Tensor.from_op(np.asarray(loss), (f, v, logit_scale), (vjp,))


def contrastive_nll(z: np.ndarray, mask=None) -> tuple[float, np.ndarray]:
    """The symmetric contrastive loss of [B x B] logits ``z`` and its gradient.

    The loss is the mean of the row-wise and the column-wise softmax
    cross-entropy of the diagonal: row i's target is column i and column
    j's target is row j. Entries where the boolean ``mask`` is set count as
    -inf: zero softmax probability and zero gradient. This is the numpy
    core of the alignment node. ``z`` is overwritten and returned as the
    gradient ((softmax_rows + softmax_cols) / 2 - I) / B: the column
    softmax is taken in place, so the pass holds one more [B x B] array,
    for the row softmax, only while it runs. ``mask`` is trusted:
    [B x B] boolean with a clear diagonal.
    """
    b = z.shape[0]
    if mask is not None:
        np.copyto(z, -np.inf, where=mask)
    diag = z.diagonal().copy()
    rows, top_r, sum_r = _softmax(z, axis=1)
    _, top_c, sum_c = _softmax(z, axis=0, out=z)
    z += rows
    del rows
    z *= 0.5 / b
    z[np.diag_indices(b)] -= 1.0 / b
    nll = np.mean(np.log(sum_r).reshape(b) + top_r.reshape(b) - diag)
    nll += np.mean(np.log(sum_c).reshape(b) + top_c.reshape(b) - diag)
    return 0.5 * float(nll), z


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


def orthogonal_projection_loss(fused: Tensor, labels) -> Tensor:
    """Pull same-identity embeddings together, push different ones orthogonal.

    With s = mean cosine over same-label pairs and d = mean |cosine| over
    different-label pairs (self-pairs excluded):

        loss = (1 - s) + d

    Whichever term has no qualifying pairs in the batch is dropped. One
    tape node: rows are normalised with norms floored at 1e-12
    (:func:`_unit_rows`, whose VJP carries dU back to the rows), the cosine
    Gram G = U U^T is taken, and dU = (dG + dG^T) U, with |.| having
    subgradient 0 at 0. G is symmetric, so dG + dG^T = 2 dG, and the sign
    of G, the one [B x B] array the node keeps, goes into a new array:
    ``np.sign`` in place is 3 to 7 times slower. G is ``unit @ unit.T``,
    which OpenBLAS takes as an exactly symmetric syrk; a GEMM on a copy of
    ``unit.T`` is 1.7x faster at B = 1024, but differs from it in the last
    ulp on 13 of 72 shapes tried and is not symmetric on 8. The same-label
    mask is built only when a label repeats; otherwise every off-diagonal
    pair is a different-label pair.
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
        loss += float(np.sum(np.abs(gram))) / n_diff
    gram = np.sign(gram)
    gram *= 2.0 / n_diff if n_diff else 0.0
    if n_same:
        np.copyto(gram, -2.0 / n_same, where=same)

    def vjp(g):
        return back(float(g) * (gram @ unit))

    return Tensor.from_op(np.asarray(loss), (fused,), (vjp,))


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of each row's label class, as one tape node.

    With top_i the row max and total_i its sum of shifted exponentials
    (:func:`_softmax`), the loss is -mean(logits[i, t_i] - top_i - log(total_i))
    and the gradient is (softmax - onehot) / B. Labels of a non-integer
    dtype are a ``ContractError``, not truncated.
    """
    if logits.ndim != 2:
        raise ContractError(f"cross_entropy_loss expects [B x C] logits, got shape {logits.shape}")
    t = np.asarray(labels)
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise ContractError(f"cross_entropy_loss: labels shape {t.shape} does not match batch {logits.shape[0]}")
    if not np.issubdtype(t.dtype, np.integer):
        raise ContractError(f"cross_entropy_loss needs integer class labels, got dtype {t.dtype}")
    b, c = logits.shape
    if np.any(t < 0) or np.any(t >= c):
        raise ContractError(f"target index out of range for {c} classes")

    softmax, top, total = _softmax(logits.data, axis=1)
    target_z = logits.data[np.arange(b), t] - top.reshape(b)
    loss = -np.mean(target_z - np.log(total).reshape(b))

    def vjp(g):
        scale = float(g) / b
        grad = softmax * scale
        grad[np.arange(b), t] -= scale
        return grad

    return Tensor.from_op(np.asarray(loss), (logits,), (vjp,))


def total_loss(l_align: Tensor, l_op: Tensor, l_ce: Tensor, weights: tuple[float, float, float]) -> LossBreakdown:
    """(l_align a1 + l_op a2) + l_ce a3 for ``weights`` (a1, a2, a3) as one tape node; component i gets g * a_i.

    A non-finite component or total is a ``NumericError``: the one check of a training step's loss.
    """
    for name, t in (("l_align", l_align), ("l_op", l_op), ("l_ce", l_ce)):
        if not np.all(np.isfinite(t.data)):
            raise NumericError(f"total_loss: component {name} is non-finite")
    a1, a2, a3 = weights
    with np.errstate(over="ignore"):  # an overflow is the NumericError below, not a warning
        value = (l_align.data * a1 + l_op.data * a2) + l_ce.data * a3
    if not np.all(np.isfinite(value)):
        raise NumericError(f"total_loss: the total weighted by {weights} is non-finite")
    total = Tensor.from_op(value, (l_align, l_op, l_ce), (lambda g: g * a1, lambda g: g * a2, lambda g: g * a3))
    return LossBreakdown(l_align=l_align, l_op=l_op, l_ce=l_ce, total=total)
