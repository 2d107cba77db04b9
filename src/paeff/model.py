"""The association head: per-modality projections, hyperbolic lift, gated fusion.

Forward layout (batch of matched face/voice rows):

    faces  -> linear -> [lift] --+
                                 +--> gated fusion -> linear -> class logits
    voices -> linear -> [lift] --+

The lifted points are what the alignment loss and verification scoring
compare; fusion itself runs on Euclidean coordinates (log map of the
lifted points, taken as the one clip it equals), because the gate's
convex combination has no meaning on the curved ball.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import autodiff as ad
from . import hyperbolic as hyp
from .autodiff import Tensor
from .errors import ContractError, DataError, NumericError, check_rules
from .hyperbolic import BallConfig, PoincarePoint

GATE_ACTIVATIONS = ("tanh", "relu")
ATTENTION_COMBINES = ("multiplication", "addition", "concatenation")
FUSIONS = ("egff", "linear")

CHECKPOINT_MAGIC = b"PAEF"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    face_dim: int
    voice_dim: int
    num_identities: int
    proj_dim: int = 128
    gate_activation: str = "tanh"
    attention_combine: str = "multiplication"
    use_hyperbolic: bool = True
    fusion: str = "egff"
    curvature: float = 1.0
    boundary_eps: float = 1e-5
    tangent_clip: float = 0.5

    def __post_init__(self):
        check_rules(self, (
            ("face_dim", self.face_dim > 0, "positive"),
            ("voice_dim", self.voice_dim > 0, "positive"),
            ("proj_dim", self.proj_dim > 0, "positive"),
            ("tangent_clip", math.isfinite(self.tangent_clip) and self.tangent_clip > 0.0, "finite and positive"),
            ("num_identities", self.num_identities >= 2, "at least 2"),
            ("gate_activation", self.gate_activation in GATE_ACTIVATIONS, f"one of {GATE_ACTIVATIONS}"),
            ("attention_combine", self.attention_combine in ATTENTION_COMBINES, f"one of {ATTENTION_COMBINES}"),
            ("fusion", self.fusion in FUSIONS, f"one of {FUSIONS}"),
        ))
        BallConfig(self.curvature, self.boundary_eps)  # its checks of curvature and boundary_eps, at construction

    @property
    def ball(self) -> BallConfig:
        return BallConfig(curvature=self.curvature, boundary_eps=self.boundary_eps)

    def effective_similarity(self) -> str:
        """The alignment similarity the lift decides: negated Poincare distance, or cosine without it.

        The lift is radial, so a cosine of lifted rows would equal the unlifted one.
        """
        return "neg_hyperbolic_distance" if self.use_hyperbolic else "cosine"


@dataclass
class ModelParams:
    """All learnable tensors. ``combine_*`` exist only for the concatenation arm."""

    face_weight: Tensor
    face_bias: Tensor
    voice_weight: Tensor
    voice_bias: Tensor
    gate_weight: Tensor
    gate_bias: Tensor
    fuse_weight: Tensor
    fuse_bias: Tensor
    cls_weight: Tensor
    cls_bias: Tensor
    logit_scale: Tensor
    combine_weight: Tensor | None = None
    combine_bias: Tensor | None = None

    def named(self) -> Iterator[tuple[str, Tensor]]:
        """(name, tensor) of each parameter present, in field order (the checkpoint order)."""
        for f in fields(self):
            t = getattr(self, f.name)
            if t is not None:
                yield f.name, t

    def __iter__(self) -> Iterator[tuple[str, Tensor]]:
        return self.named()

    def zero_grads(self) -> None:
        for _, t in self.named():
            t.zero_grad()

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, t in self.named():
            t.data[...] = values[name]

    def detached(self) -> "ModelParams":
        """The values as float64 tensors that record no tape, for scoring: float64
        arrays without a copy, float32 ones (``trainer.train``'s) widened exactly."""
        return ModelParams(**{name: Tensor(t.data.astype(np.float64, copy=False)) for name, t in self.named()})


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Deterministic init: weights uniform(+-1/sqrt(fan_in)), biases zero.

    ``logit_scale`` starts at ln(1/0.07), the usual contrastive temperature,
    as a [1] tensor, the shape the checkpoint records.
    """
    rng = np.random.default_rng(seed)
    d, c = cfg.proj_dim, cfg.num_identities

    def weight(fan_in: int, shape: tuple[int, ...]) -> Tensor:
        bound = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    def bias(shape: tuple[int, ...]) -> Tensor:
        return Tensor(np.zeros(shape), requires_grad=True)

    params = ModelParams(
        face_weight=weight(cfg.face_dim, (cfg.face_dim, d)),
        face_bias=bias((d,)),
        voice_weight=weight(cfg.voice_dim, (cfg.voice_dim, d)),
        voice_bias=bias((d,)),
        gate_weight=weight(1, (d,)),
        gate_bias=bias((d,)),
        fuse_weight=weight(d, (d, d)),
        fuse_bias=bias((d,)),
        cls_weight=weight(d, (d, c)),
        cls_bias=bias((c,)),
        logit_scale=Tensor([math.log(1.0 / 0.07)], requires_grad=True),
    )
    if cfg.attention_combine == "concatenation":
        params.combine_weight = weight(2 * d, (2 * d, d))
        params.combine_bias = bias((d,))
    return params


def project_modality(x: Tensor, which: str, params: ModelParams, cfg: ModelConfig) -> Tensor:
    if which == "face":
        expected, w, b = cfg.face_dim, params.face_weight, params.face_bias
    elif which == "voice":
        expected, w, b = cfg.voice_dim, params.voice_weight, params.voice_bias
    else:
        raise ContractError(f"unknown modality {which!r}")
    if x.ndim != 2 or x.shape[1] != expected:
        raise ContractError(f"{which} input shape {x.shape} does not match dim {expected}")
    return ad.affine(x, w, b)


def lift(x: Tensor, cfg: ModelConfig) -> PoincarePoint:
    """Clip tangent norms, then exp-map rows onto the ball: one radial tape node.

    Without the clip, unnormalized projections saturate near the rim and
    the alignment loss separates identities by radial blow-up instead of
    angle, which does not generalize to unseen identities.

    At the defaults every trained row is longer than the clip, so every
    lifted point lies on one sphere of radius tanh(sqrt(c) r) / sqrt(c).
    There the Poincare distance is a monotone function of the cosine of
    the rows: the arm is a cosine alignment whose logits are reshaped by
    a monotone map, and it ranks trials as the cosine arm of the same
    parameters does.
    """
    if not cfg.use_hyperbolic:
        raise ContractError("lift called with use_hyperbolic disabled")
    ball = cfg.ball
    return hyp.ball_map(x, ball, hyp.clip_radius(cfg.tangent_clip), hyp.exp_radius(ball))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable in both tails: factor through exp of the negative magnitude.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def egff_fuse(xf: Tensor, xv: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Gated fusion: a sigmoid gate picks, per feature, between the two modalities.

    With activated inputs f = act(xf), v = act(xv), act tanh or relu
    (subgradient 0 at 0):

        combined = f * v          (or f + v, or [f, v] @ combine_weight + combine_bias)
        gate     = sigmoid(gate_weight * combined + gate_bias)
        fused    = gate * f + (1 - gate) * v

    One tape node on every arm, with one hand-written VJP. For a cotangent
    g, the gate's input gets dz = (g f - g v) gate (1 - gate) and combined
    gets dz * gate_weight. Each activated input sums two terms, its share
    of the mix (g gate or g (1 - gate)) and its share of combined, before
    the activation's derivative.
    """
    if xf.shape != xv.shape:
        raise ContractError(f"egff_fuse: shapes differ: {xf.shape} vs {xv.shape}")
    act, combine, cw, cb = cfg.gate_activation, cfg.attention_combine, params.combine_weight, params.combine_bias
    concat = combine == "concatenation"
    if concat and (cw is None or cb is None):
        raise ContractError("concatenation combine requires combine_weight/combine_bias")
    if act == "tanh":
        f, v = np.tanh(xf.data), np.tanh(xv.data)
    else:
        f, v = np.where(xf.data > 0.0, xf.data, 0.0), np.where(xv.data > 0.0, xv.data, 0.0)
    if combine == "multiplication":
        combined = f * v
    elif combine == "addition":
        combined = f + v
    else:
        combined = np.concatenate([f, v], axis=1) @ cw.data
        combined += cb.data
    w = params.gate_weight.data
    s = _sigmoid(combined * w + params.gate_bias.data)

    def vjp(g):
        gate = (g * f - g * v) * (s * (1.0 - s))
        dc = gate * w
        if combine == "multiplication":
            dcf, dcv = dc * v, dc * f
        elif combine == "addition":
            dcf = dcv = dc
        else:
            dcat = dc @ cw.data.T
            dcf, dcv = dcat[:, : f.shape[1]], dcat[:, f.shape[1] :]
        df, dv = g * s + dcf, g * (1.0 - s) + dcv
        if act == "tanh":
            df, dv = df * (1.0 - f * f), dv * (1.0 - v * v)
        else:  # f > 0 exactly where xf > 0
            df, dv = df * (f > 0.0), dv * (v > 0.0)
        grads = (df, dv, np.sum(gate * combined, axis=0), np.sum(gate, axis=0))
        return grads + (np.concatenate([f, v], axis=1).T @ dc, np.sum(dc, axis=0)) if concat else grads

    parents = (xf, xv, params.gate_weight, params.gate_bias) + ((cw, cb) if concat else ())
    return Tensor.from_op(s * f + (1.0 - s) * v, parents, (vjp,))


def fuse_project(xm: Tensor, params: ModelParams) -> Tensor:
    return ad.affine(xm, params.fuse_weight, params.fuse_bias)


def classify(fused: Tensor, params: ModelParams) -> Tensor:
    return ad.affine(fused, params.cls_weight, params.cls_bias)


@dataclass
class ForwardResult:
    face_proj: Tensor
    voice_proj: Tensor
    face_aligned: PoincarePoint | Tensor
    voice_aligned: PoincarePoint | Tensor
    fused: Tensor
    embedding: Tensor
    logits: Tensor


def forward(faces: Tensor, voices: Tensor, params: ModelParams, cfg: ModelConfig) -> ForwardResult:
    """Full head: project, lift, fuse, project, classify.

    With the lift, fusion takes log_0(lift(x)) as the clip it equals: the
    exp map, the ball clamp and the log map leave a row's direction and
    take its norm n to min(n, artanh(1 - eps) / sqrt(c)), so after the
    tangent clip the radius is r* = min(tangent_clip, artanh(1 - eps) / sqrt(c)).
    """
    xf = project_modality(faces, "face", params, cfg)
    xv = project_modality(voices, "voice", params, cfg)

    if cfg.use_hyperbolic:
        face_aligned: PoincarePoint | Tensor = lift(xf, cfg)
        voice_aligned: PoincarePoint | Tensor = lift(xv, cfg)
        clip = hyp.clip_radius(min(cfg.tangent_clip, math.atanh(1.0 - cfg.boundary_eps) / math.sqrt(cfg.curvature)))
        fuse_f = ad.radial(xf, clip)
        fuse_v = ad.radial(xv, clip)
    else:
        face_aligned, voice_aligned = xf, xv
        fuse_f, fuse_v = xf, xv

    # The linear ablation arm fuses by plain addition.
    fused = egff_fuse(fuse_f, fuse_v, params, cfg) if cfg.fusion == "egff" else fuse_f + fuse_v

    embedding = fuse_project(fused, params)
    logits = classify(embedding, params)
    return ForwardResult(xf, xv, face_aligned, voice_aligned, fused, embedding, logits)


def encode_modality(x: Tensor, which: str, params: ModelParams, cfg: ModelConfig) -> PoincarePoint | Tensor:
    """Alignment-space representation of one modality (what scoring compares)."""
    proj = project_modality(x, which, params, cfg)
    return lift(proj, cfg) if cfg.use_hyperbolic else proj


# -- checkpoint io --------------------------------------------------------------
#
# Little-endian binary: magic "PAEF", version u32, then per parameter:
# name length u32, UTF-8 name, rank u32, dims u32 each, float64 values row-major.


def save_checkpoint(path, params: ModelParams) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, t in params.named():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", t.ndim))
            for dim in t.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(size: int, field: str) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise DataError(f"{path}: checkpoint truncated inside {field} at byte {offset}")
        offset += size
        return blob[offset - size : offset]

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a parameter checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4, "header"))
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: a parameter name is not UTF-8") from e
        if name in out:
            raise DataError(f"{path}: parameter {name!r} appears twice")
        (rank,) = struct.unpack("<I", take(4, f"{name} rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"{name} dims"))
        values = np.frombuffer(take(8 * math.prod(dims), f"{name} values"), dtype="<f8")
        out[name] = values.reshape(dims).astype(np.float64)
    return out


def load_checkpoint(path, cfg: ModelConfig) -> ModelParams:
    """Rebuild trainable parameters from a checkpoint written for ``cfg``."""
    arrays = load_checkpoint_arrays(path)
    reference = init_params(cfg, seed=0)
    expected = {name: t.shape for name, t in reference.named()}
    if set(arrays) != set(expected):
        raise DataError(
            f"{path}: parameter names {sorted(arrays)} do not match config {sorted(expected)}"
        )
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise DataError(f"{path}: {name} has shape {arrays[name].shape}, expected {shape}")
        if not np.isfinite(arrays[name]).all():
            raise NumericError(f"{path}: {name} holds non-finite values")
    kwargs = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return ModelParams(**kwargs)

