"""Optimization loop: AdamW with a cosine learning-rate schedule.

Each epoch draws matched-pair batches, optimizes the weighted sum of the
three losses, and scores a fixed validation trial set; the checkpoint
returned is the one with the best validation EER.
"""

from __future__ import annotations

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
        if self.epochs < 1:
            raise ContractError("epochs must be at least 1")
        if self.lr0 <= 0.0:
            raise ContractError("lr0 must be positive")
        if self.batch_size is not None and self.batch_size < 2:
            raise ContractError("batch_size must be at least 2")


def resolve_batch_size(cfg: TrainConfig, dataset: Dataset, split: SplitSpec) -> int:
    if cfg.batch_size is not None:
        return cfg.batch_size
    groups = group_by_identity(split.part_records(dataset, "train")).values()
    pairs = sum(min(len(g["face"]), len(g["voice"])) for g in groups)
    return BATCH_DEFAULT if pairs >= DESK_SCALE_PAIRS else BATCH_DESK


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
    """
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, tensor in params:
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if grad.shape != tensor.data.shape:
            raise DimensionError(f"{name}: grad shape {grad.shape} != param shape {tensor.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + lr * cfg.weight_decay * tensor.data


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
    split.validate(dataset)
    batch_size = resolve_batch_size(train_cfg, dataset, split)

    params = model.init_params(model_cfg, train_cfg.seed)
    state = AdamState()
    val_trials = evaluation.build_verification_trials(
        dataset, split, max_trials=train_cfg.val_trials, seed=train_cfg.seed, part="val"
    )

    n_train_ids = len(group_by_identity(split.part_records(dataset, "train")))
    steps_per_epoch = -(-n_train_ids // batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch

    history: list[EpochLog] = []
    best_eer = math.inf
    best_epoch = -1
    best_values = params.copy_values()
    step = 0
    for epoch in range(1, train_cfg.epochs + 1):
        batches = make_batches(dataset, split, batch_size, seed=train_cfg.seed + epoch)
        sums = {"l_align": 0.0, "l_op": 0.0, "l_ce": 0.0, "total": 0.0}
        lr = train_cfg.lr0
        for batch in batches:
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
            params.zero_grads()
            breakdown.total.backward()
            lr = cosine_lr(step, total_steps, train_cfg.lr0, train_cfg.lr_min)
            adamw_step(params, state, lr, train_cfg)
            # Contrastive temperature guard.
            params.logit_scale.data = np.minimum(params.logit_scale.data, LOGIT_SCALE_MAX)
            step += 1

        try:
            evaluation.score_trials(val_trials, params, model_cfg)
        except NumericError as e:
            raise NumericError(f"training diverged at step {step}: {e}") from None
        val_eer, _ = evaluation.compute_eer(val_trials)
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
