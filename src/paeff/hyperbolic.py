"""Poincare-ball geometry for aligning face and voice embeddings.

All maps run through the autodiff engine, so distances taken on lifted
points are differentiable back to the Euclidean projections. Points live
strictly inside the ball: sqrt(c) * ||x|| <= 1 - boundary_eps.

Every function takes and returns batches of rows: a point or tangent
vector is a [B x D] tensor (B >= 1), and a distance is a [B] tensor. A
single [D] vector is rejected; pass it as one row, ``v.reshape(1, D)``.

Conventions (curvature -c, c > 0):

    exp_0(v)  = tanh(sqrt(c) ||v||) * v / (sqrt(c) ||v||)
    log_0(p)  = artanh(sqrt(c) ||p||) * p / (sqrt(c) ||p||)
    x (+) y   = ((1 + 2c<x,y> + c||y||^2) x + (1 - c||x||^2) y)
                / (1 + 2c<x,y> + c^2 ||x||^2 ||y||^2)
    d(x, y)   = (2 / sqrt(c)) * artanh(sqrt(c) ||(-x) (+) y||)

The ball maps are radial: each rescales a row v by a function of its
norm, v * phi(||v||). Each is written as a radius function,
n -> (phi(n), phi'(n)), and ``ad.radial`` applies one of them, or a chain,
as one tape node:

* ``clip_radius(r)``: phi = min(r / max(n, 1e-12), 1), the tangent clip
  and, at r = max_norm, the ball clamp;
* ``exp_radius(cfg)``: phi = tanh(s) / s with s = max(sqrt(c) n, 1e-12);
* ``log_radius(cfg)``: phi = artanh(min(s, 1 - eps)) / s, same s.

phi' keeps the subgradients of the clamps in these formulas: a clamp
passes the gradient at a tie, and below the 1e-12 floor phi' is 0.
``ball_map`` chains radius functions and ends with the ball clamp;
``project_to_ball`` and ``exp_map_origin`` are two such chains, and
``model.lift`` puts the tangent clip in front of the exp map.

Three functions take distances:

* ``poincare_distance(x, y)``: row i with row i, from the difference
  x - y; the reference the other two are tested against;
* ``pairwise_distances(x, y)``: every row of x with every row of y, as a
  [B x N] table; the alignment loss uses it;
* ``pair_distances(x, y, x_rows, y_rows)``: the pairs
  (x[x_rows[k]], y[y_rows[k]]); evaluation scores trials with it.

The last two share one closed form in the Gram entries <x, y> and the
squared norms, recorded as one tape node over (<x, y>, ||x||^2, ||y||^2),
so an all-pairs and an index-pair distance of the same two points differ
only by the rounding of their dot product. The backward of
``pairwise_distances`` is then the two [B x N] x [N x D] products of the
Gram matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericError

# Below this norm the exp/log maps switch to their linear limit.
_TINY = 1e-12


@dataclass(frozen=True)
class BallConfig:
    """Curvature and numerical boundary of the Poincare ball."""

    curvature: float = 1.0
    boundary_eps: float = 1e-5

    def __post_init__(self):
        if not self.curvature > 0.0:
            raise ContractError(f"curvature must be positive, got {self.curvature}")
        if not 0.0 < self.boundary_eps < 1.0:
            raise ContractError(f"boundary_eps must lie in (0, 1), got {self.boundary_eps}")

    @property
    def sqrt_c(self) -> float:
        return math.sqrt(self.curvature)

    @property
    def max_norm(self) -> float:
        """Largest admissible Euclidean norm of a ball point."""
        return (1.0 - self.boundary_eps) / self.sqrt_c


@dataclass
class PoincarePoint:
    """A batch of points ([B x D]) on the ball."""

    vector: Tensor
    config: BallConfig

    def __post_init__(self):
        if self.vector.ndim != 2:
            raise ContractError(f"PoincarePoint needs [B x D] rows, got shape {self.vector.shape}")

    def numpy(self) -> np.ndarray:
        return self.vector.numpy()


def _same_config(x: PoincarePoint, y: PoincarePoint) -> BallConfig:
    if x.config != y.config:
        raise ContractError(f"ball configs differ: {x.config} vs {y.config}")
    return x.config


def clip_radius(max_norm: float):
    """Radius function phi(n) = min(max_norm / max(n, 1e-12), 1): rows above ``max_norm`` go onto it."""
    if not max_norm > 0.0:
        raise ContractError(f"max_norm must be positive, got {max_norm}")

    def radius(n):
        safe = np.maximum(n, _TINY)
        ratio = max_norm / safe
        return np.minimum(ratio, 1.0), -ratio / safe * ((ratio <= 1.0) & (n >= _TINY))

    return radius


def exp_radius(cfg: BallConfig):
    """Radius function of the exp map: phi(n) = tanh(s) / s with s = max(sqrt(c) n, 1e-12).

    The floor realises the limit phi -> 1 as n -> 0 without a branch.
    """
    sqrt_c = cfg.sqrt_c

    def radius(n):
        raw = n * sqrt_c
        s = np.maximum(raw, _TINY)
        t = np.tanh(s)
        return t / s, sqrt_c * ((1.0 - t * t) / s - t / (s * s)) * (raw >= _TINY)

    return radius


def log_radius(cfg: BallConfig):
    """Radius function of the log map: phi(n) = artanh(min(s, 1 - eps)) / s, s = max(sqrt(c) n, 1e-12).

    A row with sqrt(c) n >= 1 is off the ball: ``NumericError``.
    """
    sqrt_c, top = cfg.sqrt_c, 1.0 - cfg.boundary_eps

    def radius(n):
        raw = n * sqrt_c
        if (raw >= 1.0).any():
            raise NumericError("log_map_origin: point on or outside the unit ball")
        s = np.maximum(raw, _TINY)
        t = np.minimum(s, top)
        a = np.arctanh(t)
        return a / s, sqrt_c * ((s <= top) / (1.0 - t * t) / s - a / (s * s)) * (raw >= _TINY)

    return radius


def ball_map(v: Tensor, cfg: BallConfig, *radii) -> PoincarePoint:
    """Rows of ``v`` through the radius functions in turn, then the ball clamp, as one tape node.

    The clamp rescales any row with sqrt(c)||v|| > 1 - eps back onto the
    admissible ball; rows already inside pass it unchanged.
    """
    if not np.all(np.isfinite(v.data)):
        raise NumericError("ball map: input contains non-finite values")
    return PoincarePoint(ad.radial(v, *radii, clip_radius(cfg.max_norm)), cfg)


def clip_norm(v: Tensor, max_norm: float) -> Tensor:
    """Rescale rows with Euclidean norm above ``max_norm`` back onto that radius.

    Applied to tangent vectors before the exp map, this bounds the lifted
    radius at tanh(sqrt(c) * max_norm) and keeps the contrastive geometry
    away from the rim, where distances degenerate and gradients explode.
    """
    return ad.radial(v, clip_radius(max_norm))


def project_to_ball(v: Tensor, cfg: BallConfig) -> PoincarePoint:
    """Rescale any row with sqrt(c)||v|| > 1 - eps back onto the admissible ball.

    Rows already inside pass through unchanged (identity gradient).
    """
    return ball_map(v, cfg)


def exp_map_origin(v: Tensor, cfg: BallConfig) -> PoincarePoint:
    """Lift tangent vectors at the origin onto the ball."""
    return ball_map(v, cfg, exp_radius(cfg))


def log_map_origin(p: PoincarePoint) -> Tensor:
    """Inverse of :func:`exp_map_origin`; maps ball points back to the tangent space."""
    return ad.radial(p.vector, log_radius(p.config))


def mobius_add(x: PoincarePoint, y: PoincarePoint) -> PoincarePoint:
    """Mobius addition x (+) y, re-projected onto the admissible ball."""
    cfg = _same_config(x, y)
    xr, yr = x.vector, y.vector
    if xr.shape != yr.shape:
        raise ContractError(f"mobius_add: point shapes differ: {xr.shape} vs {yr.shape}")
    c = cfg.curvature

    xy = (xr * yr).sum(axis=1, keepdims=True)
    x2 = (xr * xr).sum(axis=1, keepdims=True)
    y2 = (yr * yr).sum(axis=1, keepdims=True)

    coef_x = xy * (2.0 * c) + y2 * c + 1.0
    coef_y = 1.0 - x2 * c
    denom = ad.clamp_min(xy * (2.0 * c) + x2 * y2 * (c * c) + 1.0, _TINY)

    return project_to_ball((xr * coef_x + yr * coef_y) / denom, cfg)


def poincare_distance(x: PoincarePoint, y: PoincarePoint) -> Tensor:
    """Geodesic distance d(x, y) = (2/sqrt(c)) artanh(sqrt(c) ||(-x) (+) y||).

    The Mobius norm is evaluated through the equivalent closed form

        ||(-x) (+) y||^2 = ||x - y||^2 / (1 - 2c<x,y> + c^2 ||x||^2 ||y||^2),

    whose floating-point expression is exactly symmetric under swapping
    x and y; materialising (-x) (+) y would let artanh amplify rounding
    asymmetry near the boundary. Returns [B], one distance per row pair.
    """
    cfg = _same_config(x, y)
    xr, yr = x.vector, y.vector
    if xr.shape != yr.shape:
        raise ContractError(f"poincare_distance: point shapes differ: {xr.shape} vs {yr.shape}")
    c = cfg.curvature
    xy = (xr * yr).sum(axis=1, keepdims=True)
    x2 = (xr * xr).sum(axis=1, keepdims=True)
    y2 = (yr * yr).sum(axis=1, keepdims=True)
    d2 = ((xr - yr) * (xr - yr)).sum(axis=1, keepdims=True)
    denom = ad.clamp_min(1.0 - xy * (2.0 * c) + x2 * y2 * (c * c), _TINY)
    sn = ad.clamp_max(ad.sqrt(d2 / denom) * cfg.sqrt_c, 1.0 - cfg.boundary_eps)
    d = ad.artanh(sn) * (2.0 / cfg.sqrt_c)
    return d.reshape(xr.shape[0])


def pairwise_distances(x: PoincarePoint, y: PoincarePoint) -> Tensor:
    """All-pairs distance matrix D[i, j] = d(x_i, y_j) for two [B x D] batches.

    Gram form of :func:`poincare_distance`, building nothing larger than
    [B x B] or [B x D]: ||x_i - y_j||^2 = ||x_i||^2 + ||y_j||^2 - 2 <x_i, y_j>.
    That expansion cancels for near-equal points; its rounding error is at
    most (D + 1) * eps * (||x_i||^2 + ||y_j||^2). The squared distance is
    floored at delta_ij = 16 * (D + 1) * eps * (||x_i||^2 + ||y_j||^2), a
    constant: inside the floor the gradient is zero, and above it the error
    is under delta / 16, so the gradient norm stays within sqrt(17 / 16) of
    the exact 2 / (1 - c ||x_i||^2).
    """
    cfg = _same_config(x, y)
    xr, yr = x.vector, y.vector
    if xr.shape[1] != yr.shape[1]:
        raise ContractError(f"pairwise_distances: dims differ: {xr.shape} vs {yr.shape}")
    gram = ad.matmul(xr, yr.transpose())
    x2 = (xr * xr).sum(axis=1, keepdims=True)
    y2t = (yr * yr).sum(axis=1, keepdims=True).transpose()
    return _gram_distance(gram, x2, y2t, xr.shape[1], cfg)


def pair_distances(x: PoincarePoint, y: PoincarePoint, x_rows, y_rows) -> Tensor:
    """Distances d(x[x_rows[k]], y[y_rows[k]]) for two equal-length row-index arrays: [N].

    The closed form of :func:`pairwise_distances`, taken only at the given
    pairs: one dot product per pair (``autodiff.pair_dots``), and each
    row's squared norm once.
    """
    cfg = _same_config(x, y)
    xr, yr = x.vector, y.vector
    if xr.shape[1] != yr.shape[1]:
        raise ContractError(f"pair_distances: dims differ: {xr.shape} vs {yr.shape}")
    gram = ad.pair_dots(xr, yr, x_rows, y_rows)
    n = gram.shape[0]
    x2 = ad.take_rows((xr * xr).sum(axis=1, keepdims=True), x_rows)
    y2 = ad.take_rows((yr * yr).sum(axis=1, keepdims=True), y_rows)
    return _gram_distance(gram.reshape(n, 1), x2, y2, xr.shape[1], cfg).reshape(n)


def _gram_distance(gram: Tensor, x2: Tensor, y2: Tensor, dim: int, cfg: BallConfig) -> Tensor:
    """d from the Gram entries <x, y> and squared norms broadcast against them, as one tape node.

    The delta floor, the denominator clamp and the boundary clamp are
    explained at :func:`pairwise_distances`. The VJP keeps the subgradients
    of the generic chain: each clamp passes the gradient at a tie, and the
    square root has zero gradient at 0.
    """
    c, sqrt_c, top = cfg.curvature, cfg.sqrt_c, 1.0 - cfg.boundary_eps
    g_xy, a, b = gram.data, x2.data, y2.data
    norms = a + b
    delta = (16.0 * (dim + 1) * np.finfo(np.float64).eps) * norms
    d2_raw = norms - g_xy * 2.0
    d2 = np.maximum(d2_raw, delta)
    d2_passes = d2_raw >= delta
    den_raw = 1.0 - g_xy * (2.0 * c) + a * b * (c * c)
    den = np.maximum(den_raw, _TINY)
    den_passes = den_raw >= _TINY
    r = np.sqrt(d2 / den)

    def vjp(g):
        sn_raw = r * sqrt_c
        sn = np.minimum(sn_raw, top)
        g_r = (g * (2.0 / sqrt_c)) / (1.0 - sn * sn) * (sn_raw <= top) * sqrt_c
        g_q = g_r * (r != 0.0) / np.where(r == 0.0, 1.0, 2.0 * r)
        g_d2 = g_q / den * d2_passes
        g_den = -g_q * d2 / (den * den) * den_passes
        return (
            g_d2 * -2.0 + g_den * (-2.0 * c),
            ad.reduce_to(g_d2 + g_den * (b * (c * c)), a.shape),
            ad.reduce_to(g_d2 + g_den * (a * (c * c)), b.shape),
        )

    d = np.arctanh(np.minimum(r * sqrt_c, top)) * (2.0 / sqrt_c)
    return Tensor.from_op(d, (gram, x2, y2), (vjp,))
