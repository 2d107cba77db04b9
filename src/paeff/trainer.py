"""Optimization loop: AdamW with a cosine learning-rate schedule.

Each epoch draws matched-pair batches, optimizes the sum of the three
losses weighted by ``TrainConfig.alpha1..3`` (``loss_weights``, the tuple
``losses.total_loss`` takes), and scores a fixed set of ``VAL_TRIALS``
validation trials; the checkpoint returned is the one with the best
validation EER. No record is walked: the train part's rows
(``SplitSpec.part_rows``) are derived from the dataset's arrays by
``resolve_batch_size`` when the batch size is auto and by each epoch's
``make_batches``, and the val part's once, for the val trials. Nothing is
cached on the dataset or the split, so a repeated call repeats all of its
work. Validation scores that all tie cannot rank the trials, so they are a
``NumericError`` naming the epoch, not an EER of 0.5.

Precision. Training runs in float32 end to end, the usual AdamW state for
a float32 step (Loshchilov & Hutter, ICLR 2019): ``train`` casts the
float64 ``model.init_params`` draw to float32 leaves once
(``float32_params``) and trains them in place, so the step, the gradients,
``adamw_step`` with its moments, and the ``logit_scale`` guard are all
float32, and so are the returned parameters. Scoring stays float64
(``ModelParams.detached``), as do the ball's per-row terms
(``hyperbolic.distance_table``) and the checkpoint, which holds every
float32 value exactly. There is no option for a float64 run; the tests'
``gradcheck`` builds float64 leaves, so it runs the same layers in float64,
since a node computes in its inputs' dtype. A run repeats its bytes only
with the same BLAS build and thread count: 1 and 2 OpenBLAS threads gave
checkpoint values up to 2.6e-7 apart.

Malloc policy. ``Tensor.backward`` frees each step's graph as it goes, and
by default glibc then trims the freed memory off the heap top, so the next
forward pass faults it back in page by page. ``train`` therefore sets,
through ``mallopt``, an mmap threshold of 32 MiB (glibc's ceiling for its
dynamic threshold on 64-bit) and a trim threshold of -1 (never trim). The
numbers it computes do not change. Measured on the float32 step, one BLAS
thread, against a copy without the policy: on the bench's ``train-b64``
and ``train-b256`` inputs (512 face, 192 voice, D = 128) the gain is within
noise, 199 against 203 ms per ``train`` call with 4 against 672 minor
faults; at the paper's batch, B = 1024, a step takes 82.5 against 92.9 ms
with 0 against 3 687 faults. B = 1024 is why the policy stays. It is
process-wide and glibc-only: it is skipped where libc has no ``mallopt``.
Freed heap memory stays resident until the process exits, but the peak
does not rise, since the steps reuse it. Both values are set or neither:
setting a trim threshold alone turns off glibc's dynamic mmap threshold,
so every array of 128 KB or more is mmapped, and faults rose to 18 000 per
B = 1024 step when that step ran in float64. Two fixes in the program were
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
from .data import Dataset, SplitSpec, make_batches
from .errors import ContractError, NumericError, check_rules
from .model import ModelConfig, ModelParams

LOGIT_SCALE_MAX = math.log(100.0)
# Verification trials drawn once from the val part and scored after every epoch.
VAL_TRIALS = 200

# Below this many formable train pairs the paper-scale batch default is
# replaced by a desk-scale one.
DESK_SCALE_PAIRS = 5000
BATCH_DEFAULT = 1024
BATCH_DESK = 64

# The malloc policy of the module docstring, as (mallopt parameter from malloc.h, value).
_M_MMAP_THRESHOLD = (-3, 32 * 1024 * 1024)  # glibc's ceiling for its dynamic threshold on 64-bit
_M_TRIM_THRESHOLD = (-1, -1)  # never give the heap top back to the system

# AdamW's moment decays and denominator epsilon: Adam's defaults (Kingma & Ba, ICLR 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int | None = None  # None: 1024, dropping to 64 at desk scale
    lr0: float = 2e-5
    weight_decay: float = 1e-2
    seed: int = 0
    # The weights of losses.total_loss: alignment, orthogonal projection, cross-entropy.
    alpha1: float = 0.3
    alpha2: float = 0.35
    alpha3: float = 0.35

    def __post_init__(self):
        finite = math.isfinite
        check_rules(self, (
            ("epochs", self.epochs >= 1, "at least 1"),
            ("batch_size", self.batch_size is None or self.batch_size >= 2, "at least 2"),
            ("lr0", finite(self.lr0) and self.lr0 > 0.0, "finite and positive"),
            ("weight_decay", finite(self.weight_decay) and self.weight_decay >= 0.0, "finite and nonnegative"),
            ("seed", self.seed >= 0, "at least 0"),
            ("alpha1", finite(self.alpha1) and self.alpha1 >= 0.0, "finite and nonnegative"),
            ("alpha2", finite(self.alpha2) and self.alpha2 >= 0.0, "finite and nonnegative"),
            ("alpha3", finite(self.alpha3) and self.alpha3 >= 0.0, "finite and nonnegative"),
        ))
        if not any(a > 0.0 for a in self.loss_weights):
            raise ContractError("at least one loss weight must be positive")

    @property
    def loss_weights(self) -> tuple[float, float, float]:
        """(alpha1, alpha2, alpha3), as ``losses.total_loss`` takes them."""
        return self.alpha1, self.alpha2, self.alpha3


def resolve_batch_size(cfg: TrainConfig, dataset: Dataset, split: SplitSpec) -> int:
    """``cfg.batch_size``; if None, the paper's batch, or the desk one below DESK_SCALE_PAIRS formable train pairs."""
    if cfg.batch_size is not None:
        return cfg.batch_size
    train = split.part_rows(dataset, "train")
    pairs = int(np.minimum(train.counts("face"), train.counts("voice")).sum())
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


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """lr(t) = lr0 (1 + cos(pi t / T)) / 2, for 0 <= t <= T: it decays to 0."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside schedule range [0, {total_steps}]")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: Iterable[tuple[str, Tensor]], state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update on every ``(name, tensor)`` parameter.

    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p

    with wd = ``cfg.weight_decay`` and b1, b2, eps the module's ``ADAM_*``.
    The moments and the parameter are updated in place, through one
    temporary array per parameter; the step is taken in the equal form
    (lr * sqrt(1 - b2^t) / (1 - b1^t)) * m / (sqrt(v) + eps * sqrt(1 - b2^t)).

    The moments and the scalar factors take each parameter's dtype. In
    float32, as ``train`` runs it, the decay 1 - lr * wd rounds to a
    multiple of 2^-24: 1 - 1.79e-7 at lr = 2e-5, wd = 1e-2, not 1 - 2e-7.
    That is a change of dtype, not of layout: a flat buffer, 16 k chunks
    and a step workspace were each timed against this per-parameter loop
    in float64, and none was clearly faster.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_bias2 = math.sqrt(1.0 - b2**t)
    step_size = lr * root_bias2 / (1.0 - b1**t)
    decay = 1.0 - lr * cfg.weight_decay
    for name, tensor in params:
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if grad.shape != tensor.data.shape:
            raise ContractError(f"{name}: grad shape {grad.shape} != param shape {tensor.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m, v, p = state.m[name], state.v[name], tensor.data
        tmp = np.multiply(grad, 1.0 - b1, out=np.empty_like(p))
        m *= b1
        m += tmp
        np.square(grad, out=tmp)
        tmp *= 1.0 - b2
        v *= b2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += ADAM_EPS * root_bias2
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
    params: ModelParams  # best-by-validation-EER weights, float32
    model_cfg: ModelConfig  # the configuration the params belong to
    history: list[EpochLog]
    best_epoch: int
    best_val_eer: float
    batch_size: int


def step_losses(
    batch_faces, batch_voices, batch_labels, params: ModelParams, cfg: ModelConfig, weights: tuple[float, float, float]
) -> losses.LossBreakdown:
    """Forward pass plus the three-component objective for one batch, ``weights`` (alpha1, alpha2, alpha3)."""
    result = model.forward(batch_faces, batch_voices, params, cfg)
    l_align = losses.alignment_loss(
        result.face_aligned, result.voice_aligned, params.logit_scale, cfg.effective_similarity(), batch_labels
    )
    l_op = losses.orthogonal_projection_loss(result.embedding, batch_labels)
    l_ce = losses.cross_entropy_loss(result.logits, batch_labels)
    return losses.total_loss(l_align, l_op, l_ce, weights)


def float32_params(params: ModelParams) -> ModelParams:
    """``params`` cast to new float32 leaves; ``model.init_params`` draws nothing that overflows there.

    It draws |w| <= 1/sqrt(fan_in), zero biases and ln(1/0.07).
    """
    return ModelParams(**{name: Tensor(t.data.astype(np.float32), requires_grad=True) for name, t in params.named()})


def train_step(
    batch_faces: Tensor, batch_voices: Tensor, batch_labels, params: ModelParams, cfg: ModelConfig,
    weights: tuple[float, float, float],
) -> dict[str, float]:
    """One step's losses, with their gradients accumulated on ``params`` as ``.grad``.

    The step runs in the parameters' dtype, float32 in ``train``: the
    batch rows are cast to it, and ``step_losses`` and the backward pass
    run on ``params`` themselves, the leaves of this step's graph. A
    non-finite loss is a ``NumericError`` of ``losses.total_loss``.
    """
    dtype = params.logit_scale.data.dtype
    faces, voices = (Tensor(rows.data.astype(dtype, copy=False)) for rows in (batch_faces, batch_voices))
    breakdown = step_losses(faces, voices, batch_labels, params, cfg, weights)
    breakdown.total.backward()
    return breakdown.values()


def train(
    dataset: Dataset,
    split: SplitSpec,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Run the full optimization; deterministic given the config seed."""
    _keep_step_memory()
    split.validate(dataset)
    batch_size = resolve_batch_size(train_cfg, dataset, split)
    params = float32_params(model.init_params(model_cfg, train_cfg.seed))
    state = AdamState()
    val_trials = evaluation.build_verification_trials(
        dataset, split, max_trials=VAL_TRIALS, seed=train_cfg.seed, part="val"
    )
    weights = train_cfg.loss_weights

    history: list[EpochLog] = []
    best_eer = math.inf
    best_epoch = -1
    best_values = None  # epoch 1's val EER is finite, so it always sets this
    step = 0
    for epoch in range(1, train_cfg.epochs + 1):
        batches = make_batches(dataset, split, batch_size, seed=train_cfg.seed + epoch)
        total_steps = train_cfg.epochs * len(batches)  # every epoch has ceil(train identities / batch_size) batches
        sums = {"l_align": 0.0, "l_op": 0.0, "l_ce": 0.0, "total": 0.0}
        lr = train_cfg.lr0
        clamped = False
        for k, batch in enumerate(batches):
            batches[k] = None  # a batch is freed once its step is done
            try:
                values = train_step(batch.faces, batch.voices, batch.labels, params, model_cfg, weights)
            except NumericError as e:
                raise NumericError(f"training diverged at step {step}: {e}") from None
            for key in sums:
                sums[key] += values[key]
            lr = cosine_lr(step, total_steps, train_cfg.lr0)
            adamw_step(params, state, lr, train_cfg)
            params.zero_grads()  # the next step starts with none of this one's gradients
            # Contrastive temperature guard.
            if np.any(params.logit_scale.data > LOGIT_SCALE_MAX):
                np.minimum(params.logit_scale.data, LOGIT_SCALE_MAX, out=params.logit_scale.data)
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
