"""Optimization loop: AdamW with a cosine learning-rate schedule.

Each epoch draws matched-pair batches, optimizes the weighted sum of the
three losses, and scores a fixed validation trial set; the checkpoint
returned is the one with the best validation EER. Validation scores that
all tie cannot rank the trials, so they are a ``NumericError`` naming the
epoch, not an EER of 0.5.

Malloc policy. ``Tensor.backward`` frees each step's graph as it goes, and
by default glibc then trims the freed memory off the heap top, so the next
forward pass faults it back in page by page: about 8 000 minor faults per
``train`` call at B = 256 (512 face, 192 voice, D = 128, 2 epochs of 2
steps) and 5 000 to 8 000 per step at B = 1024. ``train`` therefore sets,
through ``mallopt``, an mmap threshold of 32 MiB (glibc's ceiling for its
dynamic threshold on 64-bit) and a trim threshold of -1 (never trim). A
repeated call then takes a few faults, and the numbers it computes do not
change. The policy is process-wide and glibc-only: it is skipped where
libc has no ``mallopt``. Freed heap memory stays resident until the
process exits, but the peak does not rise, since the steps reuse it.
Both values are set or neither: setting a trim threshold alone turns off
glibc's dynamic mmap threshold, so every array of 128 KB or more is
mmapped, and faults rise to 25 000 to 31 000 per B = 256 call and per
B = 1024 step. A 64 MiB trim threshold with the 32 MiB mmap threshold still
leaves about 6 000 faults per B = 1024 step. Two fixes in the program were
rejected: keeping the previous step's graph alive doubles the step peak
that ``test_training_step_peak_memory_at_the_paper_batch`` bounds, and
reusing buffers node by node would touch every node.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import evaluation, losses, model
from .autodiff import Tensor
from .data import Dataset, SplitSpec, group_by_identity, make_batches
from .errors import ContractError, DimensionError, NumericError
from .losses import LossWeights
from .model import ModelConfig, ModelParams

LOGIT_SCALE_MAX = math.log(100.0)

# Below this many formable train pairs the paper-scale batch default is
# replaced by a desk-scale one.
DESK_SCALE_PAIRS = 5000
BATCH_DEFAULT = 1024
BATCH_DESK = 64

# The malloc policy of the module docstring, as (mallopt parameter from malloc.h, value).
_M_MMAP_THRESHOLD = (-3, 32 * 1024 * 1024)  # glibc's ceiling for its dynamic threshold on 64-bit
_M_TRIM_THRESHOLD = (-1, -1)  # never give the heap top back to the system


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int | None = None  # None: 1024, dropping to 64 at desk scale
    lr0: float = 2e-5
    lr_min: float = 0.0
    weight_decay: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    loss_weights: LossWeights = field(default_factory=LossWeights)
    op_inter_weight: float = 1.0
    val_trials: int = 200

    def __post_init__(self):
        finite = math.isfinite
        rules = (
            ("epochs", self.epochs >= 1, "at least 1"),
            ("batch_size", self.batch_size is None or self.batch_size >= 2, "at least 2"),
            ("lr0", finite(self.lr0) and self.lr0 > 0.0, "finite and positive"),
            ("lr_min", 0.0 <= self.lr_min <= self.lr0, "in [0, lr0]"),
            ("weight_decay", finite(self.weight_decay) and self.weight_decay >= 0.0, "finite and nonnegative"),
            ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
            ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)"),
            ("adam_eps", finite(self.adam_eps) and self.adam_eps > 0.0, "finite and positive"),
            ("op_inter_weight", finite(self.op_inter_weight) and self.op_inter_weight >= 0.0, "finite and nonnegative"),
            ("val_trials", self.val_trials >= 2, "at least 2"),
        )
        for name, holds, rule in rules:
            if not holds:
                raise ContractError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def resolve_batch_size(cfg: TrainConfig, dataset: Dataset, split: SplitSpec) -> int:
    if cfg.batch_size is not None:
        return cfg.batch_size
    return _default_batch_size(group_by_identity(split.part_records(dataset, "train")))


def _default_batch_size(train_groups: dict) -> int:
    """The paper's batch, or the desk one below DESK_SCALE_PAIRS formable train pairs."""
    pairs = sum(min(len(g["face"]), len(g["voice"])) for g in train_groups.values())
    return BATCH_DEFAULT if pairs >= DESK_SCALE_PAIRS else BATCH_DESK


def _keep_step_memory() -> None:
    """Set the malloc policy of the module docstring; a no-op where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, value)


def cosine_lr(step: int, total_steps: int, lr0: float, lr_min: float = 0.0) -> float:
    """lr(t) = lr_min + (lr0 - lr_min) (1 + cos(pi t / T)) / 2, for 0 <= t <= T."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside schedule range [0, {total_steps}]")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: Iterable[tuple[str, Tensor]], state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update on every ``(name, tensor)`` parameter.

    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p

    The moments and the parameter are updated in place, through one
    temporary array per parameter; the step is taken in the equal form
    (lr * sqrt(1 - b2^t) / (1 - b1^t)) * m / (sqrt(v) + eps * sqrt(1 - b2^t)).
    """
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    root_bias2 = math.sqrt(1.0 - b2**t)
    step_size = lr * root_bias2 / (1.0 - b1**t)
    decay = 1.0 - lr * cfg.weight_decay
    for name, tensor in params:
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if grad.shape != tensor.data.shape:
            raise DimensionError(f"{name}: grad shape {grad.shape} != param shape {tensor.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m, v, p = state.m[name], state.v[name], tensor.data
        tmp = np.multiply(grad, 1.0 - b1, out=np.empty_like(p))
        m *= b1
        m += tmp
        np.multiply(grad, grad, out=tmp)
        tmp *= 1.0 - b2
        v *= b2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += cfg.adam_eps * root_bias2
        np.divide(m, tmp, out=tmp)
        tmp *= step_size
        p *= decay
        p -= tmp


@dataclass
class EpochLog:
    epoch: int
    l_align: float
    l_op: float
    l_ce: float
    total: float
    val_eer: float
    val_auc: float
    lr: float
    logit_scale: float  # at the end of the epoch
    logit_scale_clamped: bool  # whether the LOGIT_SCALE_MAX guard fired during the epoch

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    params: ModelParams  # best-by-validation-EER weights
    model_cfg: ModelConfig  # the configuration the params belong to
    history: list[EpochLog]
    best_epoch: int
    best_val_eer: float
    batch_size: int


def step_losses(
    batch_faces, batch_voices, batch_labels, params: ModelParams, cfg: ModelConfig,
    weights: LossWeights, op_inter_weight: float = 1.0,
) -> losses.LossBreakdown:
    """Forward pass plus the three-component objective for one batch."""
    result = model.forward(batch_faces, batch_voices, params, cfg)
    l_align = losses.alignment_loss(
        result.face_aligned, result.voice_aligned, params.logit_scale, cfg.effective_similarity(), batch_labels
    )
    l_op = losses.orthogonal_projection_loss(result.embedding, batch_labels, op_inter_weight)
    l_ce = losses.cross_entropy_loss(result.logits, batch_labels)
    return losses.total_loss(l_align, l_op, l_ce, weights)


def train(
    dataset: Dataset,
    split: SplitSpec,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Run the full optimization; deterministic given the config seed."""
    _keep_step_memory()
    split.validate(dataset)
    # The train part is selected and grouped once; every epoch batches from it.
    train_groups = group_by_identity(split.part_records(dataset, "train"))
    batch_size = train_cfg.batch_size
    if batch_size is None:
        batch_size = _default_batch_size(train_groups)

    params = model.init_params(model_cfg, train_cfg.seed)
    state = AdamState()
    val_trials = evaluation.build_verification_trials(
        dataset, split, max_trials=train_cfg.val_trials, seed=train_cfg.seed, part="val"
    )

    steps_per_epoch = -(-len(train_groups) // batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch

    history: list[EpochLog] = []
    best_eer = math.inf
    best_epoch = -1
    best_values = params.copy_values()
    step = 0
    for epoch in range(1, train_cfg.epochs + 1):
        batches = make_batches(
            dataset, split, batch_size, seed=train_cfg.seed + epoch, train_groups=train_groups
        )
        sums = {"l_align": 0.0, "l_op": 0.0, "l_ce": 0.0, "total": 0.0}
        lr = train_cfg.lr0
        clamped = False
        for k, batch in enumerate(batches):
            batches[k] = None  # a batch is freed once its step is done
            try:
                breakdown = step_losses(
                    batch.faces, batch.voices, batch.labels, params, model_cfg, train_cfg.loss_weights,
                    train_cfg.op_inter_weight,
                )
            except NumericError as e:
                raise NumericError(f"training diverged at step {step}: {e}") from None
            values = breakdown.values()
            if not all(math.isfinite(v) for v in values.values()):
                raise NumericError(
                    f"training diverged at step {step}: "
                    f"l_align={values['l_align']}, l_op={values['l_op']}, l_ce={values['l_ce']}"
                )
            for key in sums:
                sums[key] += values[key]
            breakdown.total.backward()
            del breakdown  # the next step builds its graph with none of this one alive
            lr = cosine_lr(step, total_steps, train_cfg.lr0, train_cfg.lr_min)
            adamw_step(params, state, lr, train_cfg)
            params.zero_grads()  # nor with this step's gradients
            # Contrastive temperature guard.
            if np.any(params.logit_scale.data > LOGIT_SCALE_MAX):
                params.logit_scale.data = np.minimum(params.logit_scale.data, LOGIT_SCALE_MAX)
                clamped = True
            step += 1

        try:
            evaluation.score_trials(val_trials, params, model_cfg)
        except NumericError as e:
            raise NumericError(f"training diverged at step {step}: {e}") from None
        try:
            val_eer, _ = evaluation.compute_eer(val_trials)
        except NumericError as e:
            raise NumericError(f"validation split, epoch {epoch}: {e}") from None
        val_auc = evaluation.compute_auc(val_trials)
        history.append(
            EpochLog(
                epoch=epoch,
                l_align=sums["l_align"] / len(batches),
                l_op=sums["l_op"] / len(batches),
                l_ce=sums["l_ce"] / len(batches),
                total=sums["total"] / len(batches),
                val_eer=val_eer,
                val_auc=val_auc,
                lr=lr,
                logit_scale=params.logit_scale.item(),
                logit_scale_clamped=clamped,
            )
        )
        if val_eer < best_eer:
            best_eer = val_eer
            best_epoch = epoch
            best_values = params.copy_values()

    params.load_values(best_values)
    return TrainResult(
        params=params,
        model_cfg=model_cfg,
        history=history,
        best_epoch=best_epoch,
        best_val_eer=best_eer,
        batch_size=batch_size,
    )


def write_history_jsonl(path, history: list[EpochLog]) -> None:
    lines = [json.dumps(log.as_dict(), sort_keys=True) for log in history]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
