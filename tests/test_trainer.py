"""Optimizer, schedule, batch-size resolution, and the training loop.

The ablation arms are flags of the command line (see ``paeff.cli``), tested
in ``test_cli.py``; the trainer trains exactly the configs it is given.
"""

import ctypes
import dataclasses
import json
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_walk as walk
from gradcheck import max_relative_error
from paeff import data, evaluation, losses, model, trainer
from paeff.autodiff import Tensor
from paeff.errors import ContractError, NumericError

WEIGHTS = trainer.TrainConfig().loss_weights


def desk_setup(rho=1.0, seed=21):
    ds = data.synth_generate(10, 4, 12, 10, rho, 0.1, seed=seed, latent_dim=4)
    split = data.make_unseen_split(ds, n_val=2, n_test=2, seed=seed)
    cfg = model.ModelConfig(face_dim=12, voice_dim=10, num_identities=6, proj_dim=8)
    return ds, split, cfg


class TestCosineSchedule:
    def test_start_is_lr0(self):
        assert trainer.cosine_lr(0, 100, 2e-5) == 2e-5

    def test_end_is_zero(self):
        assert trainer.cosine_lr(100, 100, 2e-5) == pytest.approx(0.0, abs=1e-20)

    def test_midpoint(self):
        assert trainer.cosine_lr(50, 100, 2e-5) == pytest.approx(1e-5, abs=1e-18)

    def test_beyond_schedule_rejected(self):
        with pytest.raises(ContractError):
            trainer.cosine_lr(101, 100, 2e-5)

    @settings(max_examples=20, deadline=None)
    @given(total=st.integers(1, 500))
    def test_monotone_nonincreasing(self, total):
        values = [trainer.cosine_lr(t, total, 1e-3) for t in range(total + 1)]
        assert all(a >= b - 1e-18 for a, b in zip(values, values[1:]))


class TestTrainConfigAlphas:
    def test_are_the_three_alphas_in_order(self):
        assert WEIGHTS == (0.3, 0.35, 0.35)
        assert trainer.TrainConfig(alpha1=0.1, alpha2=0.2, alpha3=0.7).loss_weights == (0.1, 0.2, 0.7)

    @pytest.mark.parametrize("alphas, message", [
        ({"alpha1": -0.1}, "alpha1 must be finite and nonnegative, got -0.1"),
        ({"alpha3": math.nan}, "alpha3 must be finite and nonnegative, got nan"),
        ({"alpha1": 0.0, "alpha2": 0.0, "alpha3": 0.0}, "at least one loss weight must be positive"),
    ], ids=["negative", "nan", "all-zero"])
    def test_validation(self, alphas, message):
        with pytest.raises(ContractError) as e:
            trainer.TrainConfig(**alphas)
        assert str(e.value) == message


class TestAdamw:
    def test_zero_grad_zero_decay_is_identity(self):
        cfg = trainer.TrainConfig(weight_decay=0.0)
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        trainer.adamw_step([("p", p)], trainer.AdamState(), lr=0.1, cfg=cfg)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_closed_form(self):
        # f(x) = x^2 at x = 1: grad 2; first-step m_hat = 2, v_hat = 4
        cfg = trainer.TrainConfig(weight_decay=0.01)
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        trainer.adamw_step([("p", p)], trainer.AdamState(), lr=0.1, cfg=cfg)
        expected = 1.0 - 0.1 * (2.0 / (math.sqrt(4.0) + trainer.ADAM_EPS)) - 0.1 * 0.01 * 1.0
        assert p.data[0] == pytest.approx(expected, abs=1e-15)

    def test_pure_decay_shrink(self):
        cfg = trainer.TrainConfig(weight_decay=0.5)
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        trainer.adamw_step([("p", p)], trainer.AdamState(), lr=0.1, cfg=cfg)
        assert p.data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-15)

    def test_two_steps_track_reference_formula(self):
        cfg = trainer.TrainConfig(weight_decay=0.0)
        p = Tensor(np.array([0.7]), requires_grad=True)
        state = trainer.AdamState()
        x, m, v = 0.7, 0.0, 0.0
        for t in (1, 2):
            g = 2.0 * x
            p.grad = np.array([g])
            trainer.adamw_step([("p", p)], state, lr=0.05, cfg=cfg)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x = x - 0.05 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + trainer.ADAM_EPS)
            assert p.data[0] == pytest.approx(x, abs=1e-14)


class TestBatchSizeResolution:
    def test_explicit_wins(self):
        ds, split, _ = desk_setup()
        cfg = trainer.TrainConfig(batch_size=7)
        assert trainer.resolve_batch_size(cfg, ds, split) == 7

    def test_desk_scale_default(self):
        ds, split, _ = desk_setup()
        cfg = trainer.TrainConfig()
        assert trainer.resolve_batch_size(cfg, ds, split) == 64

    def test_large_scale_default(self):
        ds = data.synth_generate(600, 10, 4, 4, 1.0, 0.1, seed=1, latent_dim=2)
        split = data.SplitSpec(
            "unseen_unheard", frozenset(ds.identity_ids), frozenset(), frozenset()
        )
        cfg = trainer.TrainConfig()
        assert trainer.resolve_batch_size(cfg, ds, split) == 1024


class TestTrainLoop:
    def test_single_epoch_logs_one_breakdown(self):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(epochs=1, batch_size=4, lr0=1e-3, seed=0, val_trials=20)
        result = trainer.train(ds, split, cfg, tc)
        assert len(result.history) == 1
        log = result.history[0]
        assert log.epoch == 1
        assert math.isfinite(log.total) and math.isfinite(log.val_eer)

    def test_seed_repeatability(self):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(epochs=3, batch_size=4, lr0=1e-3, seed=5, val_trials=20)
        a = trainer.train(ds, split, cfg, tc)
        b = trainer.train(ds, split, cfg, tc)
        assert [log.as_dict() for log in a.history] == [log.as_dict() for log in b.history]
        for (name, ta), (_, tb) in zip(a.params.named(), b.params.named()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_parts_selected_by_rows_once_per_run(self, batch_size, monkeypatch):
        """The train part's rows are derived once, and once more per epoch's batches; the val part's once.

        The val trials select their part by rows too, and no record is walked.
        """
        ds, split, cfg = desk_setup()
        ds.records = walk.CountedWalks(ds.records)
        derived = []
        part_rows = data.SplitSpec.part_rows

        def deriving(self, dataset, part):
            derived.append((sys._getframe(1).f_code.co_name, part))
            return part_rows(self, dataset, part)

        monkeypatch.setattr(data.SplitSpec, "part_rows", deriving)
        tc = trainer.TrainConfig(epochs=3, batch_size=batch_size, lr0=1e-3, seed=0, val_trials=20)
        trainer.train(ds, split, cfg, tc)
        assert derived == [("train", "train"), ("build_verification_trials", "val")] + [("make_batches", "train")] * 3
        assert ds.records.walks == 0

    def test_first_batch_total_matches_weighted_components(self):
        ds, split, cfg = desk_setup()
        batch = data.make_batches(ds, split, 4, seed=3)[0]
        params = model.init_params(cfg, seed=3)
        weights = WEIGHTS
        breakdown = trainer.step_losses(
            batch.faces, batch.voices, batch.labels, params, cfg, weights
        )
        expected = (
            weights[0] * breakdown.l_align.item()
            + weights[1] * breakdown.l_op.item()
            + weights[2] * breakdown.l_ce.item()
        )
        assert abs(breakdown.total.item() - expected) <= 1e-12

    def test_op_loss_weighs_its_two_terms_equally(self):
        ds, split, cfg = desk_setup()
        batch = data.make_batches(ds, split, 8, seed=3)[0]
        params = model.init_params(cfg, seed=3)
        l_op = trainer.step_losses(batch.faces, batch.voices, batch.labels, params, cfg, WEIGHTS).l_op.item()
        embedding = model.forward(batch.faces, batch.voices, params, cfg).embedding.data
        unit = embedding / np.linalg.norm(embedding, axis=1, keepdims=True)
        cos = unit @ unit.T
        labels = np.asarray(batch.labels)
        off_diagonal = ~np.eye(len(labels), dtype=bool)
        same = (labels[:, None] == labels[None, :]) & off_diagonal
        diff = labels[:, None] != labels[None, :]
        assert same.any() and diff.any()
        assert l_op == pytest.approx(1.0 - cos[same].mean() + np.abs(cos[diff]).mean(), abs=1e-12)

    def test_repeated_identity_is_not_its_own_negative(self):
        ds, split, cfg = desk_setup()
        batch = data.make_batches(ds, split, 8, seed=3)[0]  # 8 rows over 6 train identities
        params = model.init_params(cfg, seed=3)
        l_align = trainer.step_losses(
            batch.faces, batch.voices, batch.labels, params, cfg, WEIGHTS
        ).l_align.item()
        result = model.forward(batch.faces, batch.voices, params, cfg)
        aligned = (result.face_aligned, result.voice_aligned, params.logit_scale, cfg.effective_similarity())
        assert l_align == losses.alignment_loss(*aligned, batch.labels).item()
        assert l_align != losses.alignment_loss(*aligned).item()

    def test_classifier_only_loss_decreases(self):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(
            epochs=12, batch_size=4, lr0=5e-3, seed=1, val_trials=20,
            alpha1=0.0, alpha2=0.0, alpha3=1.0,
        )
        result = trainer.train(ds, split, cfg, tc)
        first, last = result.history[0].l_ce, result.history[-1].l_ce
        assert last < first

    def test_logit_scale_and_its_clamp_logged_per_epoch(self, monkeypatch):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(epochs=2, batch_size=4, lr0=1e-3, seed=2, val_trials=20)
        free = trainer.train(ds, split, cfg, tc).history
        assert not any(log.logit_scale_clamped for log in free)
        assert free[0].logit_scale != free[1].logit_scale
        # A cap below the initial ln(1 / 0.07) fires on the first step; on this data the scale then
        # falls, so the flag is set for the first epoch only.
        monkeypatch.setattr(trainer, "LOGIT_SCALE_MAX", 1.0)
        result = trainer.train(ds, split, cfg, tc)
        capped = result.history
        assert [log.logit_scale_clamped for log in capped] == [True, False]
        assert all(log.logit_scale <= 1.0 for log in capped)
        assert result.params.logit_scale.item() <= 1.0

    def test_divergence_aborts_with_step(self):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(epochs=30, batch_size=4, lr0=1e9, seed=3, val_trials=20)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="step"):
                trainer.train(ds, split, cfg, tc)

    def test_pairs_all_at_the_distance_cap_fail_at_step_0(self):
        # tangent_clip 4 at c = 1, with inputs at 100x: every projection is longer than the clip, every
        # lifted row sits at radius tanh(4) and every batch pair at the distance cap, so the alignment's
        # similarities tie. The first step fails, before validation.
        ds, split, cfg = desk_setup()
        for rec in ds.records:
            rec.vector *= 100.0
        tc = trainer.TrainConfig(epochs=2, batch_size=4, lr0=1e-3, seed=2, val_trials=20)
        with pytest.raises(NumericError) as caught:
            trainer.train(ds, split, dataclasses.replace(cfg, tangent_clip=4.0), tc)
        assert str(caught.value).startswith("training diverged at step 0: alignment_loss: all 16 similarities equal")
        assert "validation" not in str(caught.value)

    def test_best_checkpoint_selected_by_val_eer(self):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(epochs=5, batch_size=4, lr0=5e-3, seed=4, val_trials=40)
        result = trainer.train(ds, split, cfg, tc)
        best = min(result.history, key=lambda log: log.val_eer)
        assert result.best_val_eer == best.val_eer
        assert result.best_epoch == best.epoch

    def test_coupled_data_improves_val_auc(self):
        ds, split, cfg = desk_setup(rho=1.0)
        tc = trainer.TrainConfig(epochs=25, batch_size=4, lr0=5e-3, seed=6, val_trials=60)
        result = trainer.train(ds, split, cfg, tc)
        assert max(log.val_auc for log in result.history[1:]) > result.history[0].val_auc

    def test_history_jsonl_schema(self, tmp_path):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(epochs=2, batch_size=4, lr0=1e-3, seed=7, val_trials=20)
        result = trainer.train(ds, split, cfg, tc)
        path = tmp_path / "history.jsonl"
        trainer.write_history_jsonl(path, result.history)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {
            "epoch", "l_align", "l_op", "l_ce", "total", "val_eer", "val_auc", "lr", "logit_scale",
            "logit_scale_clamped",
        }
        assert record["logit_scale"] == result.history[0].logit_scale
        assert record["logit_scale_clamped"] is False

    def test_train_runs_where_libc_has_no_mallopt(self, monkeypatch):
        ds, split, cfg = desk_setup()
        tc = trainer.TrainConfig(epochs=2, batch_size=4, lr0=1e-3, seed=5, val_trials=20)
        want = trainer.train(ds, split, cfg, tc)
        opened = []
        monkeypatch.setattr(trainer.ctypes, "CDLL", lambda name: opened.append(name) or object())
        got = trainer.train(ds, split, cfg, tc)
        assert opened == [None]
        for (name, a), (_, b) in zip(want.params.named(), got.params.named()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_previous_step_graph_freed_before_next_forward(self, monkeypatch):
        ds, split, cfg = desk_setup()
        original = trainer.step_losses
        roots = []

        def watching(*args, **kwargs):
            breakdown = original(*args, **kwargs)
            # The previous step's loss root must be gone before this step's graph is handed back.
            assert all(root() is None for root in roots)
            roots.append(weakref.ref(breakdown.total))
            return breakdown

        monkeypatch.setattr(trainer, "step_losses", watching)
        tc = trainer.TrainConfig(epochs=2, batch_size=4, lr0=1e-3, seed=0, val_trials=20)
        trainer.train(ds, split, cfg, tc)
        assert len(roots) == 4  # 2 epochs x 2 batches over 6 train identities



# Tape nodes of one step, leaves included: 11 parameters and 13 nodes at the defaults (tanh,
# multiplication). The concatenation arm adds its two combine parameters; without the lift, the
# two lifts and the two fuse clips go; the linear arm adds its inputs in one node and leaves the
# gate unused.
TAPE_NODES = {
    **{
        f"{act}-{combine}": ({"gate_activation": act, "attention_combine": combine},
                             26 if combine == "concatenation" else 24)
        for act in model.GATE_ACTIVATIONS for combine in model.ATTENTION_COMBINES
    },
    "no_hyperbolic": ({"use_hyperbolic": False}, 20),
    "linear_fusion": ({"fusion": "linear"}, 22),
}


@pytest.mark.parametrize("arm", list(TAPE_NODES))
def test_training_step_tape_size(arm):
    """One step at B = 64 records the pinned number of tape nodes, none of them [B x B]."""
    b = 64
    overrides, want = TAPE_NODES[arm]
    cfg = model.ModelConfig(face_dim=32, voice_dim=24, num_identities=100, **overrides)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 40, size=b)  # repeated labels: the alignment mask is in play
    step = trainer.step_losses(
        Tensor(rng.normal(size=(b, 32))), Tensor(rng.normal(size=(b, 24))), labels,
        model.init_params(cfg, seed=0), cfg, WEIGHTS,
    )
    nodes, stack = {}, [step.total]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    assert len(nodes) == want
    assert not any(node.shape == (b, b) for node in nodes.values())


@pytest.mark.parametrize("arm", list(TAPE_NODES))
def test_training_runs_in_float32_and_scores_in_float64(arm, monkeypatch):
    """Every node and VJP output of a step, every weight, gradient and AdamW moment is float32; scoring is float64."""
    ds, split, cfg = desk_setup()
    cfg = dataclasses.replace(cfg, **TAPE_NODES[arm][0])
    wide, steps, updates, scoring = [], [], [], []
    step_losses, adamw_step = trainer.step_losses, trainer.adamw_step
    encode_modality, pair_scores = evaluation.encode_modality, evaluation._pair_scores

    def recording(vjp, node):
        def wrapped(g):
            out = vjp(g)
            for grad in out if isinstance(out, tuple) else (out,):
                if grad.size > 1:
                    wide.append((f"VJP of a {node.shape} node", grad.dtype))
            return out

        return wrapped

    def watching(faces, voices, labels, params, *args):
        wide.extend((f"input {x.shape}", x.data.dtype) for x in (faces, voices))
        breakdown = step_losses(faces, voices, labels, params, *args)
        seen, stack = set(), [breakdown.total]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.size > 1:
                wide.append((f"node {node.shape}", node.data.dtype))
            node._vjps = tuple(recording(vjp, node) for vjp in node._vjps)
            stack.extend(node._parents)
        steps.append(len(seen))
        return breakdown

    def checking(params, state, lr, cfg):
        graded = {name: t.grad.dtype for name, t in params if t.grad is not None}
        adamw_step(params, state, lr, cfg)
        for name, t in params:
            updates.append((name, t.data.dtype, graded.get(name), state.m[name].dtype, state.v[name].dtype))

    def encoding(x, which, params, cfg):
        enc = encode_modality(x, which, params, cfg)
        rows = enc.vector if cfg.use_hyperbolic else enc
        scoring.extend([x.data.dtype, rows.data.dtype] + [t.data.dtype for _, t in params.named()])
        return enc

    def similarity(*args):
        scores = pair_scores(*args)
        scoring.append(scores.dtype)
        return scores

    monkeypatch.setattr(trainer, "step_losses", watching)
    monkeypatch.setattr(trainer, "adamw_step", checking)
    monkeypatch.setattr(evaluation, "encode_modality", encoding)
    monkeypatch.setattr(evaluation, "_pair_scores", similarity)
    result = trainer.train(ds, split, cfg, trainer.TrainConfig(epochs=1, batch_size=4, lr0=1e-3, val_trials=20))
    assert steps == [TAPE_NODES[arm][1]] * 2
    assert {dtype for _, dtype in wide} == {np.dtype(np.float32)}, [w for w in wide if w[1] != np.float32]
    names = [name for name, _ in result.params.named()]
    no_grad = {"gate_weight", "gate_bias"} if cfg.fusion == "linear" else set()  # the linear arm has no gate
    f32 = np.dtype(np.float32)
    assert updates == [(n, f32, None if n in no_grad else f32, f32, f32) for n in names] * 2
    assert all(t.data.dtype == np.float32 for _, t in result.params.named())
    assert scoring and set(scoring) == {np.dtype(np.float64)}


@pytest.mark.parametrize("use_hyperbolic", [True, False], ids=["hyperbolic", "cosine"])
def test_float32_step_matches_the_float64_step(use_hyperbolic):
    """The float32 training step's losses and gradients against the float64 step's, on both alignment arms.

    The float32 step runs on the float32 cast of the float64 draw, as
    ``trainer.train`` casts it. The tolerance, 64 float32 eps in
    ``max_relative_error``'s measure, is about ten times the largest error
    seen on these inputs.
    """
    rng = np.random.default_rng(32)
    faces, voices = rng.normal(size=(8, 6)), rng.normal(size=(8, 5))
    labels = np.array([0, 1, 2, 3, 4, 5, 0, 6])  # a repeated label: the alignment and OP masks are in play
    tol = 64 * float(np.finfo(np.float32).eps)
    cfg = model.ModelConfig(6, 5, num_identities=7, proj_dim=4, use_hyperbolic=use_hyperbolic)
    params = model.init_params(cfg, seed=33)
    step = trainer.step_losses(Tensor(faces), Tensor(voices), labels, params, cfg, WEIGHTS)
    want = step.values()
    step.total.backward()
    want_grads = {name: t.grad for name, t in params.named()}
    params = trainer.float32_params(params)
    got = trainer.train_step(Tensor(faces), Tensor(voices), labels, params, cfg, WEIGHTS)
    for key, value in want.items():
        assert max_relative_error(np.array(got[key]), np.array(value)) <= tol, key
    for name, t in params.named():
        assert t.grad.dtype == np.float32, name
        assert max_relative_error(t.grad, want_grads[name]) <= tol, name


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(sys.platform != "linux" or not _has_mallopt(), reason="needs libc's mallopt")
def test_repeated_train_call_takes_no_page_faults():
    """Under the malloc policy train sets, a step reuses the memory the last one freed."""
    import resource

    ds = data.synth_generate(300, 2, 512, 192, 0.8, 0.5, seed=3, latent_dim=16)
    split = data.make_unseen_split(ds, n_val=8, n_test=8, seed=3)
    cfg = model.ModelConfig(512, 192, num_identities=len(split.train_ids))
    tc = trainer.TrainConfig(epochs=2, batch_size=256, lr0=3e-3, seed=3)
    trainer.train(ds, split, cfg, tc)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.train(ds, split, cfg, tc)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_training_step_peak_memory_at_the_paper_batch():
    """One step_losses + backward at B = 1024 peaks at no more than 11 [B x B] float64 arrays.

    Small feature dims keep the [B x D] arrays out of the count; the
    classifier still has B classes, so its logits are [B x B] as well.
    """
    b = 1024
    cfg = model.ModelConfig(face_dim=16, voice_dim=12, num_identities=b, proj_dim=16)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 700, size=b)  # repeated labels: both masks are in play
    faces, voices = Tensor(rng.normal(size=(b, 16))), Tensor(rng.normal(size=(b, 12)))
    params = model.init_params(cfg, seed=0)
    tracemalloc.start()
    try:
        trainer.step_losses(faces, voices, labels, params, cfg, WEIGHTS).total.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * b * b * 8


def test_production_step_peak_memory_at_the_paper_batch():
    """The float32 twin of the test above: ``train_step`` at B = 1024 peaks at 11 [B x B] float32 arrays or fewer."""
    b = 1024
    cfg = model.ModelConfig(face_dim=16, voice_dim=12, num_identities=b, proj_dim=16)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 700, size=b)
    faces, voices = Tensor(rng.normal(size=(b, 16))), Tensor(rng.normal(size=(b, 12)))
    params = trainer.float32_params(model.init_params(cfg, seed=0))
    tracemalloc.start()
    try:
        trainer.train_step(faces, voices, labels, params, cfg, WEIGHTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * b * b * 4


# Per-epoch val EER, best epoch and the sum of |parameter| of one fixed-seed
# run on each alignment arm; a change that moves training past the last bits
# of the parameters fails here.
PINNED_RUNS = {
    "hyperbolic": (True, [0.32, 0.24, 0.2, 0.18, 0.16], 5, 98.69820827245712),
    "cosine": (False, [0.32, 0.12, 0.14, 0.12, 0.1], 5, 98.93297225236893),
}


@pytest.mark.parametrize("arm", list(PINNED_RUNS))
def test_fixed_seed_run_is_pinned(arm):
    use_hyperbolic, val_eers, best_epoch, checksum = PINNED_RUNS[arm]
    ds = data.synth_generate(40, 4, 12, 10, 1.0, 0.2, seed=5, latent_dim=4)
    split = data.make_unseen_split(ds, n_val=8, n_test=2, seed=5)
    cfg = model.ModelConfig(face_dim=12, voice_dim=10, num_identities=30, proj_dim=8, use_hyperbolic=use_hyperbolic)
    result = trainer.train(ds, split, cfg, trainer.TrainConfig(epochs=5, batch_size=16, lr0=3e-2, seed=5,
                                                               val_trials=100))
    assert [h.val_eer for h in result.history] == pytest.approx(val_eers, rel=1e-9)
    assert result.best_epoch == best_epoch
    assert sum(float(np.sum(np.abs(t.data))) for _, t in result.params.named()) == pytest.approx(checksum, rel=1e-9)
