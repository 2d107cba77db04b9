"""Association head: projection oracles, gate limits, init, checkpoint format."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paeff import autodiff as ad
from paeff import hyperbolic as hyp
from paeff import model
from paeff.autodiff import Tensor
from paeff.errors import ContractError, DataError

from chain_check import add, concat_cols, matmul, mul, norm2, relu, reshape, sigmoid, sub, tanh, value_and_grads
from gradcheck import check_gradients

CFG = model.ModelConfig(face_dim=5, voice_dim=6, num_identities=3, proj_dim=4)


def params_for(cfg, seed=0):
    return model.init_params(cfg, seed)


class TestModelConfig:
    def test_validation(self):
        """Each rule's message names its field, the rule and the value it got."""
        for kwargs, message in (
            ({"face_dim": 0}, "face_dim must be positive, got 0"),
            ({"num_identities": 1}, "num_identities must be at least 2, got 1"),
            ({"gate_activation": "gelu"}, "gate_activation must be one of ('tanh', 'relu'), got 'gelu'"),
            ({"boundary_eps": 1.0}, "boundary_eps must be in (0, 1), got 1.0"),
        ):
            with pytest.raises(ContractError) as e:
                model.ModelConfig(**{"face_dim": 1, "voice_dim": 1, "num_identities": 2, **kwargs})
            assert str(e.value) == message

    def test_effective_similarity_falls_back_to_cosine(self):
        cfg = model.ModelConfig(face_dim=2, voice_dim=2, num_identities=2)
        assert cfg.effective_similarity() == "neg_hyperbolic_distance"
        assert dataclasses.replace(cfg, use_hyperbolic=False).effective_similarity() == "cosine"


class TestProjections:
    def test_identity_weights(self):
        cfg = model.ModelConfig(face_dim=4, voice_dim=4, num_identities=2, proj_dim=4)
        params = params_for(cfg)
        params.face_weight.data[...] = np.eye(4)
        params.face_bias.data[...] = 0.0
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = model.project_modality(Tensor(x), "face", params, cfg)
        np.testing.assert_array_equal(out.numpy(), x)

    def test_zero_input_gives_bias(self):
        params = params_for(CFG)
        params.voice_bias.data[...] = np.arange(4.0)
        out = model.project_modality(Tensor(np.zeros((2, 6))), "voice", params, CFG)
        np.testing.assert_array_equal(out.numpy(), np.tile(np.arange(4.0), (2, 1)))

    def test_matmul_oracle(self):
        params = params_for(CFG, seed=3)
        x = np.random.default_rng(1).normal(size=(3, 5))
        out = model.project_modality(Tensor(x), "face", params, CFG)
        expected = x @ params.face_weight.data + params.face_bias.data
        np.testing.assert_allclose(out.numpy(), expected, atol=1e-14)

    def test_dimension_error(self):
        params = params_for(CFG)
        with pytest.raises(ContractError, match=r"face input shape \(2, 7\) does not match dim"):
            model.project_modality(Tensor(np.ones((2, 7))), "face", params, CFG)

    def test_fuse_and_classify_oracle(self):
        params = params_for(CFG, seed=4)
        x = np.random.default_rng(2).normal(size=(2, 4))
        fused = model.fuse_project(Tensor(x), params)
        np.testing.assert_allclose(
            fused.numpy(), x @ params.fuse_weight.data + params.fuse_bias.data, atol=1e-14
        )
        logits = model.classify(Tensor(x), params)
        np.testing.assert_allclose(
            logits.numpy(), x @ params.cls_weight.data + params.cls_bias.data, atol=1e-14
        )
        assert logits.shape == (2, 3)


class TestEgff:
    def test_sigmoid_zero(self):
        assert model._sigmoid(np.array(0.0)) == 0.5

    def test_gate_saturated_high_returns_face(self):
        params = params_for(CFG, seed=5)
        params.gate_bias.data[...] = 30.0
        rng = np.random.default_rng(3)
        xf, xv = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        out = model.egff_fuse(Tensor(xf), Tensor(xv), params, CFG)
        np.testing.assert_allclose(out.numpy(), np.tanh(xf), atol=1e-9)

    def test_gate_saturated_low_returns_voice(self):
        params = params_for(CFG, seed=6)
        params.gate_bias.data[...] = -30.0
        rng = np.random.default_rng(4)
        xf, xv = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        out = model.egff_fuse(Tensor(xf), Tensor(xv), params, CFG)
        np.testing.assert_allclose(out.numpy(), np.tanh(xv), atol=1e-9)

    def test_equal_inputs_pass_through(self):
        params = params_for(CFG, seed=7)
        x = np.random.default_rng(5).normal(size=(3, 4))
        out = model.egff_fuse(Tensor(x), Tensor(x), params, CFG)
        np.testing.assert_allclose(out.numpy(), np.tanh(x), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_convex_combination_and_tanh_range(self, seed):
        rng = np.random.default_rng(seed)
        params = params_for(CFG, seed=seed % 100)
        xf, xv = rng.normal(size=(3, 4)) * 2, rng.normal(size=(3, 4)) * 2
        out = model.egff_fuse(Tensor(xf), Tensor(xv), params, CFG).numpy()
        lo = np.minimum(np.tanh(xf), np.tanh(xv))
        hi = np.maximum(np.tanh(xf), np.tanh(xv))
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
        assert np.all(np.abs(out) < 1.0)

    def test_swap_complementarity_multiplication(self):
        params = params_for(CFG, seed=8)
        rng = np.random.default_rng(6)
        xf, xv = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        fv = model.egff_fuse(Tensor(xf), Tensor(xv), params, CFG).numpy()
        vf = model.egff_fuse(Tensor(xv), Tensor(xf), params, CFG).numpy()
        np.testing.assert_allclose(fv + vf, np.tanh(xf) + np.tanh(xv), atol=1e-12)

    @pytest.mark.parametrize("combine", ["addition", "concatenation"])
    def test_other_combine_arms(self, combine):
        cfg = model.ModelConfig(
            face_dim=5, voice_dim=6, num_identities=3, proj_dim=4, attention_combine=combine
        )
        params = params_for(cfg, seed=9)
        rng = np.random.default_rng(7)
        out = model.egff_fuse(
            Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4))), params, cfg
        )
        assert out.shape == (3, 4)

    def test_relu_activation_arm(self):
        cfg = model.ModelConfig(
            face_dim=5, voice_dim=6, num_identities=3, proj_dim=4, gate_activation="relu"
        )
        params = params_for(cfg, seed=10)
        params.gate_bias.data[...] = 30.0
        x = np.random.default_rng(8).normal(size=(2, 4))
        out = model.egff_fuse(Tensor(x), Tensor(np.zeros((2, 4))), params, cfg)
        np.testing.assert_allclose(out.numpy(), np.maximum(x, 0.0), atol=1e-9)

    def test_shape_mismatch(self):
        params = params_for(CFG)
        with pytest.raises(ContractError, match="egff_fuse: shapes differ"):
            model.egff_fuse(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), params, CFG)


def chain_egff(xf, xv, params, cfg):
    """EGFF as a chain of generic ops: the graph the EGFF node replaces."""
    d = xf.shape[1]
    act = tanh if cfg.gate_activation == "tanh" else relu
    f, v = act(xf), act(xv)
    if cfg.attention_combine == "multiplication":
        combined = f * v
    elif cfg.attention_combine == "addition":
        combined = f + v
    else:
        combined = add(matmul(concat_cols(f, v), params.combine_weight), reshape(params.combine_bias, 1, d))
    gate = sigmoid(add(mul(combined, reshape(params.gate_weight, 1, d)), reshape(params.gate_bias, 1, d)))
    return gate * f + sub(1.0, gate) * v


EGFF_ARMS = [(act, combine) for act in ("tanh", "relu") for combine in ("multiplication", "addition", "concatenation")]
EGFF_PARAMS = ("gate_weight", "gate_bias", "combine_weight", "combine_bias")


def egff_arm(act, combine):
    cfg = model.ModelConfig(
        face_dim=5, voice_dim=6, num_identities=3, proj_dim=4, gate_activation=act, attention_combine=combine
    )
    params = params_for(cfg, seed=15)
    params.gate_bias.data[...] = np.random.default_rng(16).normal(size=4)  # a gate away from 1/2
    rng = np.random.default_rng(17)
    return cfg, params, rng.normal(size=(3, 4)), rng.normal(size=(3, 4))


class TestEgffArms:
    @pytest.mark.parametrize("act,combine", EGFF_ARMS)
    def test_matches_chain(self, act, combine):
        cfg, params, xf, xv = egff_arm(act, combine)
        w = np.random.default_rng(18).normal(size=(3, 4))

        def value_and_grads(fuse):
            params.zero_grads()
            f, v = Tensor(xf, requires_grad=True), Tensor(xv, requires_grad=True)
            out = fuse(f, v, params, cfg)
            (out * Tensor(w)).sum().backward()
            named = dict(params.named())
            return [out.numpy(), f.grad, v.grad] + [named[n].grad for n in EGFF_PARAMS if n in named]

        for got, want in zip(value_and_grads(model.egff_fuse), value_and_grads(chain_egff)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("act,combine", EGFF_ARMS)
    def test_gradients(self, act, combine):
        cfg, params, xf, xv = egff_arm(act, combine)
        names = [n for n in EGFF_PARAMS if getattr(params, n) is not None]

        def f(a, b, *tensors):
            trial = dataclasses.replace(params, **dict(zip(names, tensors)))
            return norm2(model.egff_fuse(a, b, trial, cfg))

        check_gradients(f, [xf, xv] + [getattr(params, n).data for n in names])


class TestLift:
    @pytest.mark.parametrize("tangent_clip", [0.5, 20.0], ids=["clip", "ball_clamp"])
    def test_matches_clip_then_exp_map(self, tangent_clip):
        cfg = dataclasses.replace(CFG, tangent_clip=tangent_clip)
        x = np.random.default_rng(19).normal(size=(4, 4)) * np.array([[0.1], [1.0], [8.0], [15.0]])
        w = np.random.default_rng(20).normal(size=(4, 4))

        def value_and_grad(lift):
            t = Tensor(x, requires_grad=True)
            out = lift(t).vector
            (out * Tensor(w)).sum().backward()
            return out.numpy(), t.grad

        got = value_and_grad(lambda t: model.lift(t, cfg))
        want = value_and_grad(lambda t: hyp.exp_map_origin(ad.radial(t, hyp.clip_radius(tangent_clip)), cfg.ball))
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestFuseInput:
    """With the lift, forward fuses the one clip that the log map of the lifted rows equals."""

    @settings(max_examples=60, deadline=None)
    @given(
        curvature=st.floats(0.05, 4.0),
        tangent_clip=st.floats(0.05, 40.0),
        boundary_eps=st.floats(1e-5, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_log_map_of_lift(self, curvature, tangent_clip, boundary_eps, seed):
        cfg = model.ModelConfig(face_dim=4, voice_dim=4, num_identities=3, proj_dim=4, fusion="linear",
                                curvature=curvature, boundary_eps=boundary_eps, tangent_clip=tangent_clip)
        params = model.init_params(cfg, seed=0)
        params.face_weight.data[...] = np.eye(4)
        params.voice_weight.data[...] = np.eye(4)
        # row norms across the tangent clip and across the ball clamp's tangent radius, and a zero row
        clamp = math.atanh(1.0 - boundary_eps) / math.sqrt(curvature)
        norms = [[0.0, 0.3 * tangent_clip, 0.999 * tangent_clip, 1.001 * tangent_clip, 3.0 * tangent_clip],
                 [0.3 * clamp, 0.999 * clamp, 1.001 * clamp, 3.0 * clamp, 0.5 * (tangent_clip + clamp)]]
        rng = np.random.default_rng(seed)
        faces, voices = (rng.normal(size=(5, 4)) for _ in range(2))
        faces *= np.asarray(norms[0])[:, None] / np.linalg.norm(faces, axis=1, keepdims=True)
        voices *= np.asarray(norms[1])[:, None] / np.linalg.norm(voices, axis=1, keepdims=True)

        def fused(f, v):
            return model.forward(f, v, params, cfg).fused

        def log_of_lift(f, v):
            return hyp.log_map_origin(model.lift(f, cfg)) + hyp.log_map_origin(model.lift(v, cfg))

        for got, want in zip(value_and_grads(fused, [faces, voices]), value_and_grads(log_of_lift, [faces, voices])):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestInitParams:
    def test_deterministic(self):
        a = model.init_params(CFG, seed=42)
        b = model.init_params(CFG, seed=42)
        for (name, ta), (_, tb) in zip(a.named(), b.named()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)

    def test_biases_zero(self):
        params = model.init_params(CFG, seed=1)
        for name in ("face_bias", "voice_bias", "gate_bias", "fuse_bias", "cls_bias"):
            np.testing.assert_array_equal(getattr(params, name).data, 0.0)

    def test_weight_bounds_per_fan_in(self):
        params = model.init_params(CFG, seed=2)
        bounds = {
            "face_weight": CFG.face_dim,
            "voice_weight": CFG.voice_dim,
            "fuse_weight": CFG.proj_dim,
            "cls_weight": CFG.proj_dim,
            "gate_weight": 1,
        }
        for name, fan_in in bounds.items():
            data = getattr(params, name).data
            assert np.max(np.abs(data)) <= 1.0 / math.sqrt(fan_in)

    def test_logit_scale_init(self):
        params = model.init_params(CFG, seed=3)
        assert params.logit_scale.item() == pytest.approx(math.log(1.0 / 0.07), abs=1e-15)

    def test_concat_arm_has_combine_params(self):
        cfg = model.ModelConfig(
            face_dim=5, voice_dim=6, num_identities=3, proj_dim=4,
            attention_combine="concatenation",
        )
        params = model.init_params(cfg, seed=4)
        assert params.combine_weight.shape == (8, 4)
        assert params.combine_bias.shape == (4,)


class TestForward:
    def test_shapes(self):
        params = params_for(CFG, seed=11)
        rng = np.random.default_rng(9)
        result = model.forward(
            Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=(3, 6))), params, CFG
        )
        assert result.logits.shape == (3, 3)
        assert result.embedding.shape == (3, 4)
        assert result.face_aligned.vector.shape == (3, 4)

    def test_euclidean_arm_skips_lift(self):
        cfg = model.ModelConfig(
            face_dim=5, voice_dim=6, num_identities=3, proj_dim=4, use_hyperbolic=False
        )
        params = params_for(cfg, seed=12)
        rng = np.random.default_rng(10)
        result = model.forward(
            Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 6))), params, cfg
        )
        assert isinstance(result.face_aligned, Tensor)
        np.testing.assert_array_equal(result.face_aligned.numpy(), result.face_proj.numpy())

    def test_lift_requires_hyperbolic(self):
        cfg = model.ModelConfig(
            face_dim=5, voice_dim=6, num_identities=3, proj_dim=4, use_hyperbolic=False
        )
        with pytest.raises(ContractError):
            model.lift(Tensor(np.zeros((2, 4))), cfg)

    # At tangent_clip 20, a face and a voice row at 10x input are bounded by the ball clamp, not the
    # tangent clip. The other rows keep some pairs below the distance cap, so the similarities do not all tie.
    @pytest.mark.parametrize("tangent_clip,big", [(0.5, 1.0), (20.0, 10.0)], ids=["clip", "ball_clamp"])
    def test_end_to_end_gradients(self, tangent_clip, big):
        # B=3, D=4, C=3 instance through project -> lift -> fuse -> classify -> loss
        from paeff import trainer

        cfg = dataclasses.replace(CFG, tangent_clip=tangent_clip)
        params = params_for(cfg, seed=13)
        rng = np.random.default_rng(11)
        faces, voices = rng.normal(size=(3, 5)), rng.normal(size=(3, 6))
        faces[0] *= big
        voices[2] *= big
        labels = np.array([0, 1, 2])
        names = [name for name, _ in params.named()]

        def f(*tensors):
            trial = model.ModelParams(**dict(zip(names, tensors)))
            return trainer.step_losses(
                Tensor(faces), Tensor(voices), labels, trial, cfg, trainer.TrainConfig().loss_weights
            ).total

        check_gradients(f, [t.data for _, t in params.named()])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        cfg = model.ModelConfig(
            face_dim=int(rng.integers(2, 9)),
            voice_dim=int(rng.integers(2, 9)),
            num_identities=int(rng.integers(2, 7)),
            proj_dim=int(rng.integers(2, 9)),
        )
        params = model.init_params(cfg, seed=int(rng.integers(1000)))
        path1 = tmp_path / "a.paef"
        path2 = tmp_path / "b.paef"
        model.save_checkpoint(path1, params)
        loaded = model.load_checkpoint(path1, cfg)
        model.save_checkpoint(path2, loaded)
        assert path1.read_bytes() == path2.read_bytes()
        for (name, ta), (_, tb) in zip(params.named(), loaded.named()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)

    def test_magic_and_version(self, tmp_path):
        params = model.init_params(CFG, seed=0)
        path = tmp_path / "c.paef"
        model.save_checkpoint(path, params)
        blob = path.read_bytes()
        assert blob[:4] == b"PAEF"
        assert int.from_bytes(blob[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.paef"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            model.load_checkpoint_arrays(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "t.paef"
        model.save_checkpoint(path, model.init_params(CFG, seed=0))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                model.load_checkpoint(path, CFG)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "u.paef"
        model.save_checkpoint(path, model.init_params(CFG, seed=0))
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF  # first byte of the first parameter name
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="UTF-8"):
            model.load_checkpoint_arrays(path)

    def test_logit_scale_written_with_rank_1(self, tmp_path):
        path = tmp_path / "s.paef"
        model.save_checkpoint(path, model.init_params(CFG, seed=0))
        assert model.load_checkpoint_arrays(path)["logit_scale"].shape == (1,)
        assert model.load_checkpoint(path, CFG).logit_scale.shape == (1,)

    def test_shape_mismatch_rejected(self, tmp_path):
        params = model.init_params(CFG, seed=0)
        path = tmp_path / "d.paef"
        model.save_checkpoint(path, params)
        other = model.ModelConfig(face_dim=5, voice_dim=6, num_identities=3, proj_dim=8)
        with pytest.raises(DataError):
            model.load_checkpoint(path, other)

