"""Poincare-ball geometry for aligning face and voice embeddings.

The ball maps and the all-pairs distance carry their VJPs, so the
training loss is differentiable back to the Euclidean projections. The
row-wise reference distance is plain numpy: it needs no gradient. Points
live strictly inside the ball: sqrt(c) * ||x|| <= 1 - boundary_eps.

Every function takes and returns batches of rows: a point or tangent
vector is a [B x D] tensor (B >= 1), and a distance is a [B] array or a
[B x N] table. A single [D] vector is rejected; pass it as one row,
``v.reshape(1, D)``.

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
``ball_map(v, cfg)`` is the clamp alone, ``exp_map_origin`` is the exp map
then the clamp, and ``model.lift`` puts the tangent clip in front.

Distances take two forms. ``poincare_distance(x, y)`` pairs row i with
row i through the Mobius form above, in numpy; it is the reference the
other is tested against. ``distance_table(xd, yd, cfg)`` takes every row
of x with every row of y, a [B x N] array, with its VJP to the rows, in
the equal arccosh form (Nickel & Kiela, NeurIPS 2017)

    d(x, y)   = arccosh(1 + z) / sqrt(c),
    z         = 2c ||x - y||^2 / ((1 - c||x||^2)(1 - c||y||^2)),

with arccosh(1 + z) taken as log1p(z + sqrt(z (z + 2))), accurate at small
z. The denominator is the outer product of two per-row vectors, so it
needs no [B x N] array, no clamp and no mask, and its gradient into the
squared norms is a row or column sum. A row with 1 - c||x||^2 <= 0 is off
the ball: ``NumericError``. The per-row terms ||x||^2, 1 - c||x||^2 and
that check are taken in float64 for float32 rows as well, since float32
resolves points near the rim poorly (Mishne et al., ICML 2023); the
[B x N] arithmetic runs in the rows' dtype. ||x - y||^2 is expanded through
the Gram entry <x, y> and floored at a delta that bounds the expansion's
rounding in that dtype (see ``pairwise_distances``); the boundary clamp
sqrt(c)||(-x) (+) y|| <= 1 - eps becomes the cap
z <= 2 (1 - eps)^2 / (1 - (1 - eps)^2). ``losses`` builds the alignment
node on this table, ``evaluation`` scores trials by its entries, and
``pairwise_distances(x, y)`` records it as one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericError, check_rules

# Below this norm the exp/log maps switch to their linear limit.
_TINY = 1e-12


@dataclass(frozen=True)
class BallConfig:
    """Curvature and numerical boundary of the Poincare ball."""

    curvature: float = 1.0
    boundary_eps: float = 1e-5

    def __post_init__(self):
        check_rules(self, (
            ("curvature", math.isfinite(self.curvature) and self.curvature > 0.0, "finite and positive"),
            ("boundary_eps", 0.0 < self.boundary_eps < 1.0, "in (0, 1)"),
        ))

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


def same_config(x: PoincarePoint, y: PoincarePoint) -> BallConfig:
    """The ball config both point batches share; configs that differ are a ``ContractError``."""
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


def exp_map_origin(v: Tensor, cfg: BallConfig) -> PoincarePoint:
    """Lift tangent vectors at the origin onto the ball."""
    return ball_map(v, cfg, exp_radius(cfg))


def log_map_origin(p: PoincarePoint) -> Tensor:
    """Inverse of :func:`exp_map_origin`; maps ball points back to the tangent space."""
    return ad.radial(p.vector, log_radius(p.config))


def poincare_distance(x: PoincarePoint, y: PoincarePoint) -> np.ndarray:
    """Geodesic distance d(x, y) = (2/sqrt(c)) artanh(sqrt(c) ||(-x) (+) y||), in numpy.

    The Mobius norm is evaluated through the equivalent closed form

        ||(-x) (+) y||^2 = ||x - y||^2 / (1 - 2c<x,y> + c^2 ||x||^2 ||y||^2),

    whose floating-point expression is exactly symmetric under swapping
    x and y; materialising (-x) (+) y would let artanh amplify rounding
    asymmetry near the boundary. Returns [B], one distance per row pair.
    """
    cfg = same_config(x, y)
    xd, yd = x.numpy(), y.numpy()
    if xd.shape != yd.shape:
        raise ContractError(f"poincare_distance: point shapes differ: {xd.shape} vs {yd.shape}")
    c = cfg.curvature
    xy = np.sum(xd * yd, axis=1, keepdims=True)
    x2 = np.sum(xd * xd, axis=1, keepdims=True)
    y2 = np.sum(yd * yd, axis=1, keepdims=True)
    d2 = np.sum((xd - yd) * (xd - yd), axis=1, keepdims=True)
    denom = np.maximum(1.0 - xy * (2.0 * c) + x2 * y2 * (c * c), _TINY)
    sn = np.minimum(np.sqrt(d2 / denom) * cfg.sqrt_c, 1.0 - cfg.boundary_eps)
    return (np.arctanh(sn) * (2.0 / cfg.sqrt_c)).reshape(xd.shape[0])


def pairwise_distances(x: PoincarePoint, y: PoincarePoint) -> Tensor:
    """All-pairs distance matrix D[i, j] = d(x_i, y_j) for two [B x D] batches.

    The arccosh form of the module docstring in the Gram entries, building
    nothing larger than [B x B] or [B x D]:
    ||x_i - y_j||^2 = ||x_i||^2 + ||y_j||^2 - 2 <x_i, y_j>. That expansion
    cancels for near-equal points; its rounding error is at most
    (D + 1) * eps * (||x_i||^2 + ||y_j||^2), with eps that of the rows' dtype.
    The squared distance is floored at
    delta_ij = 16 * (D + 1) * eps * (||x_i||^2 + ||y_j||^2), a constant: inside
    the floor its gradient is zero, and above it the error is under delta / 16,
    so the gradient norm stays within sqrt(17 / 16) of the exact
    2 / (1 - c ||x_i||^2).
    """
    cfg = same_config(x, y)
    xr, yr = x.vector, y.vector
    if xr.shape[1] != yr.shape[1]:
        raise ContractError(f"pairwise_distances: dims differ: {xr.shape} vs {yr.shape}")
    d, back = distance_table(xr.data, yr.data, cfg)
    return Tensor.from_op(d, (xr, yr), (back,))


def distance_table(xd: np.ndarray, yd: np.ndarray, cfg: BallConfig):
    """d(x_i, y_j) for every row of x and of y, [B x N], in the arccosh form, and its VJP to the rows.

    The delta floor and the z cap are those of the module docstring; a row
    with 1 - c ||x||^2 <= 0 is off the ball: ``NumericError``. The squared
    norms, 1 - c ||x||^2 and that check are float64 whatever the rows'
    dtype, so float32 rows and their exact float64 copies are rejected
    alike; the rest runs in the rows' dtype, and so does the floor's eps:
    delta_ij = 16 (D + 1) eps (||x_i||^2 + ||y_j||^2) with eps = 2^-52 for
    float64 rows and 2^-23 for float32 rows (about 2.5e-4 (||x_i||^2 +
    ||y_j||^2) at D = 128).

    Returns d and ``back(g, scale=1.0)``, which takes scale * g, a gradient
    of d, to the gradients of x and y through the Gram entries:
    dx = G y + 2 g_a x and dy = G^T x + 2 g_b^T y, with G, g_a and g_b the
    gradients of <x_i, y_j>, ||x_i||^2 and ||y_j||^2. ``back`` keeps z and
    sqrt(z (z + 2)), the latter set to inf where the gradient is zero: at
    the cap (which passes a tie) and at z = 0, where the square root has
    zero gradient. Inside the floor only the path through ||x - y||^2 is cut.
    """
    c, sqrt_c, top = cfg.curvature, cfg.sqrt_c, 1.0 - cfg.boundary_eps
    dtype = xd.dtype
    a = np.sum(np.square(xd, dtype=np.float64), axis=1, keepdims=True)
    b = np.sum(np.square(yd, dtype=np.float64), axis=1, keepdims=True).T
    u, v = 1.0 - c * a, 1.0 - c * b
    if (u <= 0.0).any() or (v <= 0.0).any():
        raise NumericError("hyperbolic distance: point on or outside the unit ball")
    a, b, u, v = (t.astype(dtype, copy=False) for t in (a, b, u, v))
    floor = a + b
    z = xd @ yd.T
    z *= -2.0
    z += floor  # ||x - y||^2
    floor *= 16.0 * (xd.shape[1] + 1) * np.finfo(dtype).eps
    low = z < floor
    if low.any():
        np.maximum(z, floor, out=z)
    else:
        low = None
    del floor
    k = (2.0 * c) / u
    z *= k
    z /= v
    z_max = 2.0 * top * top / ((1.0 - top) * (1.0 + top))  # arccosh(1 + z_max) = 2 artanh(top)
    flat = (z > z_max) | (z == 0.0)
    np.minimum(z, z_max, out=z)
    root = z + 2.0
    root *= z
    np.sqrt(root, out=root)
    d = z + root
    np.log1p(d, out=d)
    d /= sqrt_c
    if flat.any():
        np.copyto(root, np.inf, where=flat)
    del flat

    def back(g, scale=1.0):
        g_z = g / root
        g_z *= scale / sqrt_c
        # z = 2c ||x - y||^2 / (u v) with u = 1 - c a: dz/da = c z / u through u, summed per row (and per column for b)
        t = g_z * z
        g_a = np.sum(t, axis=1, keepdims=True) * (c / u)
        g_b = np.sum(t, axis=0, keepdims=True) * (c / v)
        del t
        g_z *= k  # now the gradient of ||x - y||^2 = a + b - 2 <x, y>
        g_z /= v
        if low is not None:
            np.copyto(g_z, 0.0, where=low)
        g_a += np.sum(g_z, axis=1, keepdims=True)
        g_b += np.sum(g_z, axis=0, keepdims=True)
        g_z *= -2.0
        return g_z @ yd + (2.0 * g_a) * xd, g_z.T @ xd + (2.0 * g_b.T) * yd

    return d, back
