"""Built-in verification: gradient checks, geometry identities, metric oracles.

Each check is small, named, and independent; the CLI prints one line per
check. These run against the same public functions the model uses, so a
broken gradient or metric shows up here before it corrupts a training run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import evaluation, hyperbolic as hyp, losses, model, trainer
from .autodiff import Tensor
from .gradcheck import check_gradients
from .hyperbolic import BallConfig, PoincarePoint


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _expect(condition: bool, detail: str) -> None:
    if not condition:
        raise AssertionError(detail)


def check_autodiff_elementwise_gradients() -> None:
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    check_gradients(lambda a, b: (ad.tanh(a) * ad.sigmoid(b) + ad.relu(a) - b * 0.5).sum(), [x, y])
    check_gradients(lambda a: ad.absolute(a).sum(), [x + 0.3])


def check_autodiff_matmul_gradients() -> None:
    rng = np.random.default_rng(11)
    check_gradients(
        lambda a, b: ad.matmul(a, b).norm2(), [rng.normal(size=(4, 3)), rng.normal(size=(3, 5))]
    )


def check_autodiff_reduction_gradients() -> None:
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 5))
    check_gradients(lambda a: a.norm2(axis=1).sum(), [x])
    check_gradients(lambda a: a.sum(axis=0).norm2(), [x])


def check_autodiff_log_softmax_nll() -> None:
    logits = np.zeros((2, 4))
    loss = ad.log_softmax_nll(Tensor(logits), np.array([1, 2]))
    _expect(abs(loss.item() - math.log(4.0)) < 1e-12, "uniform logits must give ln(C)")
    rng = np.random.default_rng(13)
    check_gradients(lambda a: ad.log_softmax_nll(a, np.array([0, 2, 1])), [rng.normal(size=(3, 4))])


def check_autodiff_backward_linearity() -> None:
    rng = np.random.default_rng(14)
    xdata = rng.normal(size=(3, 3))

    def grad_of(f) -> np.ndarray:
        t = Tensor(xdata, requires_grad=True)
        f(t).backward()
        return t.grad.copy()

    combined = grad_of(lambda t: (ad.tanh(t)).sum() + (t * t).sum())
    separate = grad_of(lambda t: ad.tanh(t).sum()) + grad_of(lambda t: (t * t).sum())
    _expect(np.allclose(combined, separate, atol=1e-12), "gradient linearity violated")


def check_hyperbolic_exp_log_inverse() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(15)
    v = rng.normal(size=(64, 8))
    v *= (3.0 * rng.uniform(size=(64, 1))) / np.linalg.norm(v, axis=1, keepdims=True)
    back = hyp.log_map_origin(hyp.exp_map_origin(Tensor(v), cfg)).numpy()
    _expect(np.max(np.abs(back - v)) <= 1e-9, "log(exp(v)) != v")


def check_hyperbolic_mobius_laws() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(16)
    x = hyp.project_to_ball(Tensor(rng.normal(size=(32, 6)) * 0.4), cfg)
    zero = PoincarePoint(Tensor(np.zeros((32, 6))), cfg)
    _expect(
        np.max(np.abs(hyp.mobius_add(x, zero).numpy() - x.numpy())) <= 1e-9,
        "x (+) 0 != x",
    )
    neg = PoincarePoint(-x.vector, cfg)
    _expect(np.max(np.abs(hyp.mobius_add(neg, x).numpy())) <= 1e-9, "(-x) (+) x != 0")


def check_hyperbolic_distance_symmetry() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(17)
    x = hyp.exp_map_origin(Tensor(rng.normal(size=(64, 5))), cfg)
    y = hyp.exp_map_origin(Tensor(rng.normal(size=(64, 5))), cfg)
    dxy = hyp.poincare_distance(x, y).numpy()
    dyx = hyp.poincare_distance(y, x).numpy()
    _expect(np.max(np.abs(dxy - dyx)) <= 1e-12, "distance not symmetric")


def check_hyperbolic_triangle_inequality() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(18)
    n = 2000
    x = hyp.exp_map_origin(Tensor(rng.normal(size=(n, 4))), cfg)
    y = hyp.exp_map_origin(Tensor(rng.normal(size=(n, 4))), cfg)
    z = hyp.exp_map_origin(Tensor(rng.normal(size=(n, 4))), cfg)
    dxz = hyp.poincare_distance(x, z).numpy()
    dxy = hyp.poincare_distance(x, y).numpy()
    dyz = hyp.poincare_distance(y, z).numpy()
    _expect(np.all(dxz <= dxy + dyz + 1e-9), "triangle inequality violated")


def check_hyperbolic_ball_invariant() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(19)
    pts = hyp.exp_map_origin(Tensor(rng.normal(size=(256, 7)) * 5.0), cfg)
    norms = np.linalg.norm(pts.numpy(), axis=1)
    _expect(np.all(cfg.sqrt_c * norms <= 1.0 - cfg.boundary_eps + 1e-15), "point escaped the ball")


def check_hyperbolic_distance_gradients() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(20)

    def f(u, w):
        return hyp.poincare_distance(hyp.exp_map_origin(u, cfg), hyp.exp_map_origin(w, cfg)).sum()

    check_gradients(f, [rng.normal(size=(2, 4)) * 0.7 + 0.05, rng.normal(size=(2, 4)) * 0.7 + 0.05])


def check_model_forward_gradients() -> None:
    cfg = model.ModelConfig(face_dim=5, voice_dim=6, num_identities=3, proj_dim=4)
    params = model.init_params(cfg, seed=21)
    rng = np.random.default_rng(22)
    faces = rng.normal(size=(3, 5))
    voices = rng.normal(size=(3, 6))
    labels = np.array([0, 1, 2])
    weights = losses.LossWeights()

    def f(*tensors):
        names = [name for name, _ in params.named()]
        trial = model.ModelParams(**dict(zip(names, tensors)))
        return trainer.step_losses(Tensor(faces), Tensor(voices), labels, trial, cfg, weights).total

    check_gradients(f, [t.data for _, t in params.named()])


def check_egff_convexity() -> None:
    cfg = model.ModelConfig(face_dim=4, voice_dim=4, num_identities=2, proj_dim=6)
    params = model.init_params(cfg, seed=23)
    rng = np.random.default_rng(24)
    xf = Tensor(rng.normal(size=(5, 6)))
    xv = Tensor(rng.normal(size=(5, 6)))
    fused = model.egff_fuse(xf, xv, params, cfg).numpy()
    lo = np.minimum(np.tanh(xf.numpy()), np.tanh(xv.numpy()))
    hi = np.maximum(np.tanh(xf.numpy()), np.tanh(xv.numpy()))
    _expect(
        np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12),
        "EGFF output escaped the convex hull of its activated inputs",
    )


def check_alignment_loss_uniform_point() -> None:
    cfg = BallConfig()
    b, d = 4, 3
    same = np.tile(np.array([[0.2, 0.1, -0.1]]), (b, 1))
    pts = hyp.project_to_ball(Tensor(same), cfg)
    loss = losses.alignment_loss(pts, pts, Tensor(0.0), "neg_hyperbolic_distance")
    _expect(abs(loss.item() - math.log(b)) < 1e-9, "uniform similarities must give ln(B)")


def check_losses_gradients() -> None:
    rng = np.random.default_rng(25)
    labels = np.array([0, 1, 0])

    def op(fused):
        return losses.orthogonal_projection_loss(fused, labels)

    check_gradients(op, [rng.normal(size=(3, 4))])
    cfg = BallConfig()

    def align(f, v, s):
        return losses.alignment_loss(
            hyp.exp_map_origin(f, cfg), hyp.exp_map_origin(v, cfg), s, "neg_hyperbolic_distance"
        )

    check_gradients(align, [rng.normal(size=(3, 4)) * 0.5, rng.normal(size=(3, 4)) * 0.5, np.array(1.0)])


def check_metric_oracles() -> None:
    rng = np.random.default_rng(26)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.uniform(size=n) < 0.5
        if labels.all() or not labels.any():
            continue
        eer, _ = evaluation.eer_from_scores(scores, labels)
        auc = evaluation.auc_from_scores(scores, labels)
        oracle_eer = _brute_force_eer(scores, labels)
        oracle_auc = _brute_force_auc(scores, labels)
        _expect(abs(eer - oracle_eer) < 1e-12, f"EER {eer} != oracle {oracle_eer}")
        _expect(abs(auc - oracle_auc) < 1e-12, f"AUC {auc} != oracle {oracle_auc}")


def check_adamw_single_step() -> None:
    cfg = trainer.TrainConfig(lr0=0.1, weight_decay=0.01)
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])  # f(x) = x^2 at x = 1
    trainer.adamw_step([("p", p)], trainer.AdamState(), lr=0.1, cfg=cfg)
    m_hat = 2.0  # (0.1 * 2.0) / (1 - 0.9)
    v_hat = 4.0  # (0.001 * 4.0) / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + cfg.adam_eps) - 0.1 * 0.01 * 1.0
    _expect(abs(p.data[0] - expected) < 1e-12, f"AdamW step {p.data[0]} != {expected}")


def check_cosine_schedule() -> None:
    _expect(trainer.cosine_lr(0, 100, 2e-5) == 2e-5, "cosine_lr(0) != lr0")
    _expect(abs(trainer.cosine_lr(100, 100, 2e-5)) < 1e-20, "cosine_lr(T) != lr_min")
    _expect(abs(trainer.cosine_lr(50, 100, 2e-5) - 1e-5) < 1e-18, "cosine_lr(T/2) != midpoint")


def _brute_force_eer(scores: np.ndarray, labels: np.ndarray) -> float:
    thresholds = sorted(set(scores)) + [max(scores) + 1.0]
    points = []
    for t in thresholds:
        far = np.mean(scores[~labels] >= t)
        frr = np.mean(scores[labels] < t)
        points.append((far, frr))
    for (far0, frr0), (far1, frr1) in zip(points, points[1:]):
        d0, d1 = far0 - frr0, far1 - frr1
        if d0 >= 0.0 >= d1:
            lam = 0.0 if d0 == d1 else d0 / (d0 - d1)
            return float(far0 + lam * (far1 - far0))
    return float(points[0][0])


def _brute_force_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels]
    neg = scores[~labels]
    concordant = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                concordant += 1
            elif p == n:
                ties += 1
    return (concordant + 0.5 * ties) / (len(pos) * len(neg))


ALL_CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("autodiff.elementwise_gradients", check_autodiff_elementwise_gradients),
    ("autodiff.matmul_gradients", check_autodiff_matmul_gradients),
    ("autodiff.reduction_gradients", check_autodiff_reduction_gradients),
    ("autodiff.log_softmax_nll", check_autodiff_log_softmax_nll),
    ("autodiff.backward_linearity", check_autodiff_backward_linearity),
    ("hyperbolic.exp_log_inverse", check_hyperbolic_exp_log_inverse),
    ("hyperbolic.mobius_laws", check_hyperbolic_mobius_laws),
    ("hyperbolic.distance_symmetry", check_hyperbolic_distance_symmetry),
    ("hyperbolic.triangle_inequality", check_hyperbolic_triangle_inequality),
    ("hyperbolic.ball_invariant", check_hyperbolic_ball_invariant),
    ("hyperbolic.distance_gradients", check_hyperbolic_distance_gradients),
    ("model.forward_gradients", check_model_forward_gradients),
    ("model.egff_convexity", check_egff_convexity),
    ("losses.alignment_uniform_point", check_alignment_loss_uniform_point),
    ("losses.gradients", check_losses_gradients),
    ("metrics.oracle_agreement", check_metric_oracles),
    ("optimizer.adamw_single_step", check_adamw_single_step),
    ("optimizer.cosine_schedule", check_cosine_schedule),
]


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            fn()
            results.append(CheckResult(name=name, passed=True))
        except Exception as e:  # noqa: BLE001 - every failure becomes a report line
            results.append(CheckResult(name=name, passed=False, detail=str(e)))
    return results
