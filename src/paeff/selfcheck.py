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


def _contract(t: Tensor, seed: int = 0) -> Tensor:
    """<w, t> for a fixed random w: a scalar whose gradient reaches every entry of ``t``."""
    return (t * Tensor(np.random.default_rng(seed).normal(size=t.shape))).sum()


def check_autodiff_elementwise_gradients() -> None:
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    check_gradients(lambda a, b: (ad.tanh(a) * b + ad.relu(a) + b * -0.5).sum(), [x, y])
    check_gradients(lambda a, s: _contract(a * s + s), [x, np.array(0.7)])


def check_autodiff_fused_row_gradients() -> None:
    """``affine``, ``concat_cols`` and ``gated_mix`` against central differences."""
    rng = np.random.default_rng(11)
    check_gradients(
        lambda x, w, b: _contract(ad.affine(x, w, b)),
        [rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=5)],
    )
    check_gradients(lambda a, b: _contract(ad.concat_cols(a, b)), [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))])
    check_gradients(
        lambda *t: _contract(ad.gated_mix(*t)),
        [rng.normal(size=(3, 4)) for _ in range(3)] + [rng.normal(size=4), rng.normal(size=4)],
    )


def check_autodiff_log_softmax_nll() -> None:
    logits = np.zeros((2, 4))
    loss = ad.log_softmax_nll(Tensor(logits), np.array([1, 2]))
    _expect(abs(loss.item() - math.log(4.0)) < 1e-12, "uniform logits must give ln(C)")
    rng = np.random.default_rng(13)
    check_gradients(lambda a: ad.log_softmax_nll(a, np.array([0, 2, 1])), [rng.normal(size=(3, 4))])


def check_autodiff_symmetric_nll_grad() -> None:
    """The symmetric contrastive loss: ln(B) at uniform logits, and its gradient against central differences."""
    _expect(abs(ad.symmetric_nll_grad(np.zeros((3, 3)))[0] - math.log(3.0)) < 1e-12, "uniform logits must give ln(B)")
    rng = np.random.default_rng(27)
    labels = np.array([0, 1, 0, 2])
    mask = (labels[:, None] == labels[None, :]) & ~np.eye(4, dtype=bool)

    def node(z: Tensor) -> Tensor:
        loss, grad = ad.symmetric_nll_grad(z.data.copy(), mask)
        return Tensor.from_op(np.asarray(loss), (z,), (lambda g: float(g) * grad,))

    check_gradients(node, [rng.normal(size=(4, 4))])


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


def check_hyperbolic_distance_symmetry() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(17)
    x = hyp.exp_map_origin(Tensor(rng.normal(size=(64, 5))), cfg)
    y = hyp.exp_map_origin(Tensor(rng.normal(size=(64, 5))), cfg)
    dxy = hyp.poincare_distance(x, y)
    dyx = hyp.poincare_distance(y, x)
    _expect(np.max(np.abs(dxy - dyx)) <= 1e-12, "distance not symmetric")


def check_hyperbolic_triangle_inequality() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(18)
    n = 2000
    x = hyp.exp_map_origin(Tensor(rng.normal(size=(n, 4))), cfg)
    y = hyp.exp_map_origin(Tensor(rng.normal(size=(n, 4))), cfg)
    z = hyp.exp_map_origin(Tensor(rng.normal(size=(n, 4))), cfg)
    dxz = hyp.poincare_distance(x, z)
    dxy = hyp.poincare_distance(x, y)
    dyz = hyp.poincare_distance(y, z)
    _expect(np.all(dxz <= dxy + dyz + 1e-9), "triangle inequality violated")


def check_hyperbolic_ball_invariant() -> None:
    cfg = BallConfig()
    rng = np.random.default_rng(19)
    pts = hyp.exp_map_origin(Tensor(rng.normal(size=(256, 7)) * 5.0), cfg)
    norms = np.linalg.norm(pts.numpy(), axis=1)
    _expect(np.all(cfg.sqrt_c * norms <= 1.0 - cfg.boundary_eps + 1e-15), "point escaped the ball")


def check_hyperbolic_radial_maps() -> None:
    """Tangent clip, exp map and ball clamp as one radial node, and the log map, against central differences."""
    cfg = BallConfig()
    rng = np.random.default_rng(28)
    v = rng.normal(size=(4, 5)) * np.array([[0.1], [1.0], [8.0], [15.0]])  # clip off, on, and the clamp firing
    for clip in (0.5, 20.0):
        check_gradients(
            lambda t, clip=clip: _contract(hyp.ball_map(t, cfg, hyp.clip_radius(clip), hyp.exp_radius(cfg)).vector), [v]
        )
    p = v / np.linalg.norm(v, axis=1, keepdims=True) * np.array([[0.3], [0.9], [1.0 - 5e-6], [1.0 - 3e-6]])
    check_gradients(lambda t: _contract(hyp.log_map_origin(PoincarePoint(t, cfg))), [p])


def check_hyperbolic_gram_distance_gradients() -> None:
    """The all-pairs Gram-distance node against central differences, near-duplicates included."""
    cfg = BallConfig()
    rng = np.random.default_rng(29)
    x = hyp.exp_map_origin(Tensor(rng.normal(size=(3, 4)) * 0.5), cfg).numpy()
    y = x + 1e-12 * rng.normal(size=(3, 4))  # inside the delta floor: zero gradient for d(x_i, y_i)
    y[1] = hyp.exp_map_origin(Tensor(rng.normal(size=(1, 4)) * 0.5), cfg).numpy()

    def f(a, b):
        return _contract(hyp.pairwise_distances(PoincarePoint(a, cfg), PoincarePoint(b, cfg)))

    check_gradients(f, [x, y])


def check_hyperbolic_distance_table() -> None:
    """Entries of the Gram-form table stay within their rounding bound of the row-wise distance.

    The bound is the one the Gram form's delta floor allows (c = 1): the
    artanh argument moves by at most sqrt(delta / denominator) + 4 eps, and
    artanh' is taken at the top of that interval, with a factor 2 margin.
    """
    cfg = BallConfig()
    rng = np.random.default_rng(26)
    n, d = 16, 32
    x = hyp.exp_map_origin(Tensor(rng.normal(size=(n, d)) * 0.1), cfg).numpy()  # mid-radius
    # y holds near-duplicates of x, from 1e-2 down to 1e-12 apart, then independent points.
    near = x + 10.0 ** rng.uniform(-12.0, -2.0, size=(n, 1)) * rng.normal(size=(n, d)) / math.sqrt(d)
    y = hyp.ball_map(Tensor(np.concatenate([near, rng.normal(size=(n, d)) * 0.1])), cfg).numpy()
    i = rng.integers(n, size=200)
    j = np.where(np.arange(200) % 2 == 0, i, rng.integers(2 * n, size=200))
    got = hyp.distance_table(x, y, cfg)[0][i, j]
    xi, yj = x[i], y[j]
    want = hyp.poincare_distance(PoincarePoint(Tensor(xi), cfg), PoincarePoint(Tensor(yj), cfg))
    eps = np.finfo(np.float64).eps
    x2, y2 = np.sum(xi * xi, axis=1), np.sum(yj * yj, axis=1)
    shift = np.sqrt(16.0 * (d + 1) * eps * (x2 + y2) / (1.0 - 2.0 * np.sum(xi * yj, axis=1) + x2 * y2))
    s_hi = np.minimum(np.tanh(want / 2.0) + shift, 1.0 - cfg.boundary_eps)
    bound = 4.0 * (shift + 4.0 * eps) / (1.0 - s_hi**2)
    _expect(np.all(np.abs(got - want) <= bound), "distance table entry outside the rounding bound of row-wise")


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
    pts = hyp.ball_map(Tensor(same), cfg)
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


def check_alignment_node_gradients() -> None:
    """The fused hyperbolic alignment node against central differences, with and without a repeated label."""
    cfg = BallConfig()
    rng = np.random.default_rng(28)
    x = hyp.exp_map_origin(Tensor(rng.normal(size=(4, 3)) * 0.5), cfg).numpy()
    y = hyp.exp_map_origin(Tensor(rng.normal(size=(4, 3)) * 0.5), cfg).numpy()
    for labels in (None, np.array([0, 1, 0, 2])):

        def f(a, b, s, labels=labels):
            return losses.alignment_loss(PoincarePoint(a, cfg), PoincarePoint(b, cfg), s, labels=labels)

        check_gradients(f, [x, y, np.array(0.8)])


def check_cosine_alignment_node_gradients() -> None:
    """The fused cosine alignment node against central differences, with and without a repeated label."""
    rng = np.random.default_rng(30)
    x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    for labels in (None, np.array([0, 1, 0, 2])):

        def f(a, b, s, labels=labels):
            return losses.alignment_loss(a, b, s, "cosine", labels)

        check_gradients(f, [x, y, np.array(0.8)])


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


def check_rng_array_bounds() -> None:
    """``Generator.integers`` over an array of bounds equals one scalar call per bound, in order.

    Training batches and the non-match verification trials draw this way
    and equal the per-row scalar draws only while the values and the state
    left behind agree, for bound 1 (which draws nothing), small bounds and
    bounds past 2**31.
    """
    for seed in range(20):
        small = np.random.default_rng(1000 + seed).integers(1, 9, size=24).tolist()
        bounds = small + [1, 2**31 + 11, 1, 2**33 + 3, 2**62, 3]
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [int(scalar.integers(b)) for b in bounds]
        _expect(batched.integers(np.array(bounds)).tolist() == want, f"seed {seed}: array-bound draws differ")
        _expect(scalar.bit_generator.state == batched.bit_generator.state, f"seed {seed}: generator states differ")


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
    ("autodiff.fused_row_gradients", check_autodiff_fused_row_gradients),
    ("autodiff.log_softmax_nll", check_autodiff_log_softmax_nll),
    ("autodiff.symmetric_nll_grad", check_autodiff_symmetric_nll_grad),
    ("autodiff.backward_linearity", check_autodiff_backward_linearity),
    ("hyperbolic.exp_log_inverse", check_hyperbolic_exp_log_inverse),
    ("hyperbolic.distance_symmetry", check_hyperbolic_distance_symmetry),
    ("hyperbolic.triangle_inequality", check_hyperbolic_triangle_inequality),
    ("hyperbolic.ball_invariant", check_hyperbolic_ball_invariant),
    ("hyperbolic.radial_maps", check_hyperbolic_radial_maps),
    ("hyperbolic.gram_distance_gradients", check_hyperbolic_gram_distance_gradients),
    ("hyperbolic.distance_table", check_hyperbolic_distance_table),
    ("model.forward_gradients", check_model_forward_gradients),
    ("model.egff_convexity", check_egff_convexity),
    ("losses.alignment_uniform_point", check_alignment_loss_uniform_point),
    ("losses.gradients", check_losses_gradients),
    ("losses.alignment_node_gradients", check_alignment_node_gradients),
    ("losses.cosine_alignment_node_gradients", check_cosine_alignment_node_gradients),
    ("metrics.oracle_agreement", check_metric_oracles),
    ("optimizer.adamw_single_step", check_adamw_single_step),
    ("optimizer.cosine_schedule", check_cosine_schedule),
    ("rng.array_bounds", check_rng_array_bounds),
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
