"""The association head: per-modality projections, hyperbolic lift, gated fusion.

Forward layout (batch of matched face/voice rows):

    faces  -> linear -> [lift] --+
                                 +--> gated fusion -> linear -> class logits
    voices -> linear -> [lift] --+

The lifted points are what the alignment loss and verification scoring
compare; fusion itself runs on Euclidean coordinates (log map of the
lifted points), because the gate's convex combination has no meaning on
the curved ball.
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
from .errors import ContractError, DataError, DimensionError
from .hyperbolic import BallConfig, PoincarePoint

GATE_ACTIVATIONS = ("tanh", "relu")
ATTENTION_COMBINES = ("multiplication", "addition", "concatenation")
SIMILARITIES = ("neg_hyperbolic_distance", "cosine")
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
    similarity: str = "neg_hyperbolic_distance"
    fusion: str = "egff"
    curvature: float = 1.0
    boundary_eps: float = 1e-5
    tangent_clip: float = 0.5

    def __post_init__(self):
        for name in ("face_dim", "voice_dim", "proj_dim"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if self.tangent_clip <= 0.0:
            raise ContractError("tangent_clip must be positive")
        if self.num_identities < 2:
            raise ContractError("num_identities must be at least 2")
        if self.gate_activation not in GATE_ACTIVATIONS:
            raise ContractError(f"gate_activation must be one of {GATE_ACTIVATIONS}")
        if self.attention_combine not in ATTENTION_COMBINES:
            raise ContractError(f"attention_combine must be one of {ATTENTION_COMBINES}")
        if self.similarity not in SIMILARITIES:
            raise ContractError(f"similarity must be one of {SIMILARITIES}")
        if self.fusion not in FUSIONS:
            raise ContractError(f"fusion must be one of {FUSIONS}")

    @property
    def ball(self) -> BallConfig:
        return BallConfig(curvature=self.curvature, boundary_eps=self.boundary_eps)

    def effective_similarity(self) -> str:
        """Hyperbolic distance needs the lift; without it scoring falls back to cosine."""
        return self.similarity if self.use_hyperbolic else "cosine"


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


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Deterministic init: weights uniform(+-1/sqrt(fan_in)), biases zero.

    ``logit_scale`` starts at ln(1/0.07), the usual contrastive temperature.
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
        logit_scale=Tensor(math.log(1.0 / 0.07), requires_grad=True),
    )
    if cfg.attention_combine == "concatenation":
        params.combine_weight = weight(2 * d, (2 * d, d))
        params.combine_bias = bias((d,))
    return params


def _affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    out = ad.matmul(x, w)
    return out + b.reshape(1, b.shape[0])


def project_modality(x: Tensor, which: str, params: ModelParams, cfg: ModelConfig) -> Tensor:
    if which == "face":
        expected, w, b = cfg.face_dim, params.face_weight, params.face_bias
    elif which == "voice":
        expected, w, b = cfg.voice_dim, params.voice_weight, params.voice_bias
    else:
        raise ContractError(f"unknown modality {which!r}")
    if x.ndim != 2 or x.shape[1] != expected:
        raise DimensionError(f"{which} input shape {x.shape} does not match dim {expected}")
    return _affine(x, w, b)


def lift(x: Tensor, cfg: ModelConfig) -> PoincarePoint:
    """Clip tangent norms, then exp-map rows onto the ball.

    Without the clip, unnormalized projections saturate near the rim and
    the alignment loss separates identities by radial blow-up instead of
    angle, which does not generalize to unseen identities.
    """
    if not cfg.use_hyperbolic:
        raise ContractError("lift called with use_hyperbolic disabled")
    return hyp.exp_map_origin(hyp.clip_norm(x, cfg.tangent_clip), cfg.ball)


def _activate(x: Tensor, kind: str) -> Tensor:
    return ad.tanh(x) if kind == "tanh" else ad.relu(x)


def egff_fuse(xf: Tensor, xv: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Gated fusion: a sigmoid gate picks, per feature, between the two modalities.

    With activated inputs f = act(xf), v = act(xv):

        combined = f * v          (or f + v, or concat -> affine back to D)
        gate     = sigmoid(gate_weight * combined + gate_bias)
        fused    = gate * f + (1 - gate) * v
    """
    if xf.shape != xv.shape:
        raise DimensionError(f"egff_fuse: shapes differ: {xf.shape} vs {xv.shape}")
    d = xf.shape[1]
    f_hat = _activate(xf, cfg.gate_activation)
    v_hat = _activate(xv, cfg.gate_activation)

    if cfg.attention_combine == "multiplication":
        combined = f_hat * v_hat
    elif cfg.attention_combine == "addition":
        combined = f_hat + v_hat
    else:
        if params.combine_weight is None or params.combine_bias is None:
            raise ContractError("concatenation combine requires combine_weight/combine_bias")
        combined = _affine(ad.concat_cols(f_hat, v_hat), params.combine_weight, params.combine_bias)

    pre_gate = combined * params.gate_weight.reshape(1, d) + params.gate_bias.reshape(1, d)
    gate = ad.sigmoid(pre_gate)
    return gate * f_hat + (1.0 - gate) * v_hat


def linear_fuse(xf: Tensor, xv: Tensor) -> Tensor:
    """Ablation arm: plain additive fusion of the two projections."""
    if xf.shape != xv.shape:
        raise DimensionError(f"linear_fuse: shapes differ: {xf.shape} vs {xv.shape}")
    return xf + xv


def fuse_project(xm: Tensor, params: ModelParams) -> Tensor:
    return _affine(xm, params.fuse_weight, params.fuse_bias)


def classify(fused: Tensor, params: ModelParams) -> Tensor:
    return _affine(fused, params.cls_weight, params.cls_bias)


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
    """Full head: project, lift, fuse, project, classify."""
    xf = project_modality(faces, "face", params, cfg)
    xv = project_modality(voices, "voice", params, cfg)

    if cfg.use_hyperbolic:
        face_aligned: PoincarePoint | Tensor = lift(xf, cfg)
        voice_aligned: PoincarePoint | Tensor = lift(xv, cfg)
        fuse_f = hyp.log_map_origin(face_aligned)
        fuse_v = hyp.log_map_origin(voice_aligned)
    else:
        face_aligned, voice_aligned = xf, xv
        fuse_f, fuse_v = xf, xv

    if cfg.fusion == "egff":
        fused = egff_fuse(fuse_f, fuse_v, params, cfg)
    else:
        fused = linear_fuse(fuse_f, fuse_v)

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
    kwargs = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return ModelParams(**kwargs)

