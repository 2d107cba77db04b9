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


def _row_norms(rows: Tensor) -> Tensor:
    if rows.ndim != 2:
        raise ContractError(f"expected [B x D] rows, got shape {rows.shape}")
    return rows.norm2(axis=1, keepdims=True)


def clip_norm(v: Tensor, max_norm: float) -> Tensor:
    """Rescale rows with Euclidean norm above ``max_norm`` back onto that radius.

    Applied to tangent vectors before the exp map, this bounds the lifted
    radius at tanh(sqrt(c) * max_norm) and keeps the contrastive geometry
    away from the rim, where distances degenerate and gradients explode.
    """
    if not max_norm > 0.0:
        raise ContractError(f"max_norm must be positive, got {max_norm}")
    n = _row_norms(v)
    factor = ad.clamp_max(max_norm / ad.clamp_min(n, _TINY), 1.0)
    return v * factor


def project_to_ball(v: Tensor, cfg: BallConfig) -> PoincarePoint:
    """Rescale any row with sqrt(c)||v|| > 1 - eps back onto the admissible ball.

    Rows already inside pass through unchanged (identity gradient).
    """
    if not np.all(np.isfinite(v.data)):
        raise NumericError("project_to_ball: input contains non-finite values")
    return PoincarePoint(clip_norm(v, cfg.max_norm), cfg)


def exp_map_origin(v: Tensor, cfg: BallConfig) -> PoincarePoint:
    """Lift tangent vectors at the origin onto the ball.

    The ratio tanh(sqrt(c)||v||) / (sqrt(c)||v||) tends to 1 as v -> 0; the
    clamp below realises that limit without a branch.
    """
    if not np.all(np.isfinite(v.data)):
        raise NumericError("exp_map_origin: input contains non-finite values")
    sn = ad.clamp_min(_row_norms(v) * cfg.sqrt_c, _TINY)
    factor = ad.tanh(sn) / sn
    return project_to_ball(v * factor, cfg)


def log_map_origin(p: PoincarePoint) -> Tensor:
    """Inverse of :func:`exp_map_origin`; maps ball points back to the tangent space."""
    cfg = p.config
    sn = _row_norms(p.vector) * cfg.sqrt_c
    if np.any(sn.data >= 1.0):
        raise NumericError("log_map_origin: point on or outside the unit ball")
    safe = ad.clamp_min(sn, _TINY)
    factor = ad.artanh(ad.clamp_max(safe, 1.0 - cfg.boundary_eps)) / safe
    return p.vector * factor


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
    c = cfg.curvature
    gram = ad.matmul(xr, yr.transpose())
    x2 = (xr * xr).sum(axis=1, keepdims=True)
    y2t = (yr * yr).sum(axis=1, keepdims=True).transpose()
    delta = (16.0 * (xr.shape[1] + 1) * np.finfo(np.float64).eps) * (x2.data + y2t.data)
    d2 = ad.clamp_min(x2 + y2t - gram * 2.0, delta)
    denom = ad.clamp_min(1.0 - gram * (2.0 * c) + x2 * y2t * (c * c), _TINY)
    sn = ad.clamp_max(ad.sqrt(d2 / denom) * cfg.sqrt_c, 1.0 - cfg.boundary_eps)
    return ad.artanh(sn) * (2.0 / cfg.sqrt_c)
