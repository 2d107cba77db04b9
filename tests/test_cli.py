"""Command line: option table, precedence, ablation arms, reruns and exit codes."""

import hashlib
import json
import math
import platform
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import paeff
import record_walk as walk
from paeff import cli, data, evaluation, model, trainer
from paeff.errors import PaeffError

SEEN_SYNTH = ["--identities", "10", "--samples-per-id", "3", "--face-dim", "6", "--voice-dim", "5",
              "--latent-dim", "4", "--split-mode", "seen_heard"]
SYNTH = SEEN_SYNTH[:-2] + ["--val-identities", "2", "--test-identities", "3"]

# Every model/train/eval/synth option with its kind and default, written out by hand.
OPTION_TABLE = {
    "model.proj_dim": ("int", 128),
    "model.gate_activation": ("str", "tanh"),
    "model.attention_combine": ("str", "multiplication"),
    "model.use_hyperbolic": ("bool", True),
    "model.fusion": ("str", "egff"),
    "model.curvature": ("float", 1.0),
    "model.boundary_eps": ("float", 1e-5),
    "model.tangent_clip": ("float", 0.5),
    "train.epochs": ("int", 50),
    "train.batch_size": ("int_or_auto", None),
    "train.lr0": ("float", 2e-5),
    "train.weight_decay": ("float", 1e-2),
    "train.seed": ("int", 0),
    "train.alpha1": ("float", 0.3),
    "train.alpha2": ("float", 0.35),
    "train.alpha3": ("float", 0.35),
    "eval.nc_list": ("ints", (2, 4, 6, 8, 10)),
    "eval.strata": ("strs", ("random",)),
    "eval.max_trials": ("int", 1000),
    "eval.matching_trials": ("int", 500),
    "eval.probe_modality": ("str", "voice"),
    "eval.seed": ("int", 0),
    "synth.identities": ("int", 32),
    "synth.samples_per_id": ("int", 20),
    "synth.face_dim": ("int", 96),
    "synth.voice_dim": ("int", 80),
    "synth.rho": ("float", 1.0),
    "synth.sigma": ("float", 0.1),
    "synth.latent_dim": ("int", 16),
    "synth.seed": ("int", 0),
    "synth.split_mode": ("str", "unseen_unheard"),
    "synth.val_identities": ("int_or_auto", None),
    "synth.test_identities": ("int_or_auto", None),
}

# Ablation arms and the train flags that give each.
ARMS = {
    "full": [],
    "baseline": ["--no-use-hyperbolic", "--fusion", "linear", "--alpha1", "0"],
    "egff": ["--no-use-hyperbolic", "--alpha1", "0"],
    "egff_fa": ["--no-use-hyperbolic"],
    "no_fa+linear_fusion": ["--alpha1", "0", "--fusion", "linear"],
}


def synth(root):
    assert cli.main(["synth", "--out", str(root), *SYNTH]) == 0
    return root


def splits(root):
    return ["--split-train", str(root / "train.ids"), "--split-val", str(root / "val.ids"),
            "--split-test", str(root / "test.ids")]


def train_argv(data_dir, out, *flags):
    return ["train", "--data", str(data_dir / "data.fve"), "--out", str(out), "--epochs", "2",
            "--proj-dim", "4", *splits(data_dir), *flags]


def train(data_dir, out, *flags):
    assert cli.main(train_argv(data_dir, out, *flags)) == 0
    return out


def eval_argv(data_dir, checkpoint, out, *flags):
    return ["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir / "data.fve"), "--out", str(out),
            "--max-trials", "20", "--matching-trials", "5", "--nc-list", "2", *splits(data_dir), *flags]


def recorded(out):
    """The config section of the manifest a command wrote to ``out``."""
    return json.loads((out / "manifest.json").read_text())["config"]


def checkpoint(run_dir):
    return (run_dir / "checkpoint.paef").read_bytes()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A synthetic dataset with its split files."""
    return synth(tmp_path_factory.mktemp("cli"))


@pytest.fixture(scope="module")
def run(world):
    """An eval runner over the synthetic dataset, and the checkpoint trained on it."""
    trained = train(world, world / "run")

    def evaluate(checkpoint_bytes: bytes) -> int:
        path = world / "candidate.paef"
        path.write_bytes(checkpoint_bytes)
        return cli.main(eval_argv(world, path, world / "eval", "--manifest", str(trained / "manifest.json")))

    return evaluate, checkpoint(trained)


@pytest.fixture(scope="module")
def arms(world):
    """Per ablation arm, the run trained with its flags."""
    return {arm: train(world, world / f"arm{i}", *flags) for i, (arm, flags) in enumerate(ARMS.items())}


def without(blob: bytes, name: str) -> bytes:
    """The checkpoint blob with one parameter's record cut out."""
    offset = 8
    while offset < len(blob):
        (n,) = struct.unpack_from("<I", blob, offset)
        key = blob[offset + 4 : offset + 4 + n].decode()
        (rank,) = struct.unpack_from("<I", blob, offset + 4 + n)
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 8 + n)
        end = offset + 8 + n + 4 * rank + 8 * math.prod(dims)
        if key == name:
            return blob[:offset] + blob[end:]
        offset = end
    raise KeyError(name)


# -- options and precedence ---------------------------------------------------------


@pytest.mark.parametrize("command, sections", [("train", ("model", "train")), ("eval", ("eval",)),
                                               ("synth", ("synth",))])
def test_option_table(command, sections):
    options = {opt.key: (opt.kind, opt.default) for opt in cli.COMMAND_OPTIONS[command]
               if opt.key.split(".")[0] in ("model", "train", "eval", "synth")}
    assert options == {key: row for key, row in OPTION_TABLE.items() if key.split(".")[0] in sections}


def test_train_precedence(world, tmp_path, monkeypatch):
    """flag > PAEFF_* environment > config file > default, read back from the train manifest."""
    config = tmp_path / "train.cfg"
    config.write_text("train.alpha2 = 0.2\n")
    argv = []
    assert recorded(train(world, tmp_path / "default", *argv))["train"]["alpha2"] == 0.35
    argv += ["--config", str(config)]
    assert recorded(train(world, tmp_path / "file", *argv))["train"]["alpha2"] == 0.2
    monkeypatch.setenv("PAEFF_TRAIN_ALPHA2", "0.15")
    assert recorded(train(world, tmp_path / "env", *argv))["train"]["alpha2"] == 0.15
    argv += ["--alpha2", "0.1"]
    assert recorded(train(world, tmp_path / "flag", *argv))["train"]["alpha2"] == 0.1


def test_eval_precedence(world, run, tmp_path, monkeypatch):
    """flag > PAEFF_* environment > config file > default, read back from the eval manifest."""
    config = tmp_path / "eval.cfg"
    config.write_text("eval.seed = 3\n")

    def seed(name, *argv):
        assert cli.main(eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / name, *argv)) == 0
        return recorded(tmp_path / name)["eval"]["seed"]

    argv = []
    assert seed("default", *argv) == 0
    argv += ["--config", str(config)]
    assert seed("file", *argv) == 3
    monkeypatch.setenv("PAEFF_EVAL_SEED", "4")
    assert seed("env", *argv) == 4
    argv += ["--seed", "5"]
    assert seed("flag", *argv) == 5


# Per option kind: an option of that kind, a valid value and what it parses to; "x" is malformed for the first four.
KINDS = {
    "int": ("train.epochs", "3", 3),
    "float": ("train.lr0", "0.5", 0.5),
    "int_or_auto": ("train.batch_size", "auto", None),
    "ints": ("eval.nc_list", "2,4", (2, 4)),
    "strs": ("eval.strata", "G,N", ("G", "N")),
    "str": ("model.gate_activation", "relu", "relu"),
    "bool": ("model.use_hyperbolic", "false", False),
}


def option(key):
    command = "eval" if key.startswith("eval.") else "train"
    return command, next(opt for opt in cli.COMMAND_OPTIONS[command] if opt.key == key)


@pytest.mark.parametrize("kind", list(KINDS))
def test_option_value_parses_one_way_from_every_source(tmp_path, capsys, monkeypatch, kind):
    """A value means the same as a flag, a PAEFF_* variable or a config line.

    Malformed, it is a usage error (exit 1) as a flag and a data error (exit 2) otherwise.
    """
    key, valid, expected = KINDS[kind]
    command, opt = option(key)
    assert opt.kind == kind
    config = tmp_path / "run.cfg"

    def argv(source, value):
        monkeypatch.delenv(opt.env_name, raising=False)
        if source == "env":
            monkeypatch.setenv(opt.env_name, value)
            return [command]
        if source == "config":
            config.write_text(f"{key} = {value}\n")
            return [command, "--config", str(config)]
        return [command, opt.flag.replace("--", "--no-")] if kind == "bool" else [command, opt.flag, value]

    for source in ("flag", "env", "config"):
        args = cli.build_parser().parse_args(argv(source, valid))
        assert cli._resolve(args, cli.COMMAND_OPTIONS[command])[key] == expected
        if kind in ("int", "float", "int_or_auto", "ints"):
            missing = ["--data", str(tmp_path / "missing.fve"), "--out", str(tmp_path / "out")]
            assert cli.main([*argv(source, "x"), *missing]) == (1 if source == "flag" else 2)
            err = capsys.readouterr().err
            assert err.startswith("usage error:" if source == "flag" else "data error:"), err
            assert f"bad value for {key}" in err


def test_auto_batch_size_flag_wins_over_the_environment(monkeypatch):
    monkeypatch.setenv("PAEFF_TRAIN_BATCH_SIZE", "8")
    options = cli.COMMAND_OPTIONS["train"]
    assert cli._resolve(cli.build_parser().parse_args(["train"]), options)["train.batch_size"] == 8
    args = cli.build_parser().parse_args(["train", "--batch-size", "auto"])
    assert cli._resolve(args, options)["train.batch_size"] is None


def test_eval_has_no_model_option(world, run, tmp_path, capsys):
    assert len(cli.COMMAND_OPTIONS["eval"]) == 15
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval")
    assert cli.main([*argv, "--proj-dim", "4"]) == 1
    assert "--proj-dim" in capsys.readouterr().err
    (tmp_path / "eval.cfg").write_text("model.proj_dim = 4\n")
    assert cli.main([*argv, "--config", str(tmp_path / "eval.cfg")]) == 2
    assert "unknown config key 'model.proj_dim'" in capsys.readouterr().err


# The removed options, per command, as each source names them.
REMOVED_OPTIONS = {
    "train": ["train.lr_min", "train.adam_beta1", "train.adam_beta2", "train.adam_eps", "train.op_inter_weight",
              "train.ablation", "train.val_trials"],
    "synth": ["synth.demographics", "synth.val_frac", "synth.test_frac"],
}
REMOVED = [(command, key) for command, keys in REMOVED_OPTIONS.items() for key in keys]


def removed_option_argv(world, tmp_path, command):
    return train_argv(world, tmp_path / "run") if command == "train" else ["synth", "--out", str(tmp_path / "run")]


@pytest.mark.parametrize("command, key", REMOVED, ids=[key for _, key in REMOVED])
def test_removed_flag_exits_1(world, tmp_path, capsys, command, key):
    flag = cli.Option(key, "float", None).flag
    assert cli.main([*removed_option_argv(world, tmp_path, command), flag, "0.5"]) == 1
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key", REMOVED, ids=[key for _, key in REMOVED])
def test_removed_config_key_exits_2(world, tmp_path, capsys, command, key):
    (tmp_path / "run.cfg").write_text(f"{key} = 0.5\n")
    assert cli.main([*removed_option_argv(world, tmp_path, command), "--config", str(tmp_path / "run.cfg")]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key", REMOVED, ids=[key for _, key in REMOVED])
def test_removed_env_variable_is_ignored(world, tmp_path, monkeypatch, command, key):
    # "x" is no float: the run would fail if the variable were still read.
    monkeypatch.setenv(cli.Option(key, "float", None).env_name, "x")
    assert cli.main(removed_option_argv(world, tmp_path, command)) == 0


@pytest.mark.parametrize("command", list(REMOVED_OPTIONS))
def test_manifest_holds_no_removed_option(world, tmp_path, command):
    out = train(world, tmp_path / "run") if command == "train" else synth(tmp_path / "run")
    section = recorded(out)[command]
    assert section and not {key.split(".", 1)[1] for key in REMOVED_OPTIONS[command]} & set(section)


# -- ablation arms -------------------------------------------------------------------


def test_ablation_arms_differ(arms):
    assert len({checkpoint(run_dir) for run_dir in arms.values()}) == len(ARMS)


def test_pairs_all_at_the_distance_cap_exit_3_at_step_0(world, tmp_path, capsys):
    # At c = 100 with the tangent clip at 8, every lifted row sits at the ball's rim, so every batch
    # pair sits at the distance cap and the alignment's similarities tie: the first step fails,
    # before any validation.
    argv = train_argv(world, tmp_path / "run", "--curvature", "100", "--tangent-clip", "8")
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "training diverged at step 0: alignment_loss: all 4096 similarities equal -1.22061" in err
    assert "validation" not in err
    assert not (tmp_path / "run" / "checkpoint.paef").exists()


def test_master_weight_beyond_float32_exits_3_at_step_0(world, tmp_path, capsys, monkeypatch):
    # init_params draws no such value. Cast to float32 it is inf, which the first step's ball map rejects.
    init_params = model.init_params

    def huge(cfg, seed):
        params = init_params(cfg, seed)
        params.face_weight.data[0, 0] = 1e39
        return params

    monkeypatch.setattr(model, "init_params", huge)
    with pytest.warns(RuntimeWarning, match="overflow encountered in cast"):
        assert cli.main(train_argv(world, tmp_path / "run")) == 3
    err = capsys.readouterr().err
    assert "numeric/invariant error: training diverged at step 0: ball map: input contains non-finite values" in err
    assert not (tmp_path / "run" / "checkpoint.paef").exists()


def test_weighted_loss_beyond_range_exits_3_at_step_0(world, tmp_path, capsys):
    # Each loss is finite, but their weighted total overflows.
    assert cli.main(train_argv(world, tmp_path / "run", "--alpha1", "1e308", "--alpha2", "1e308")) == 3
    err = capsys.readouterr().err
    assert err == ("numeric/invariant error: training diverged at step 0: total_loss: the total weighted by "
                   "(1e+308, 1e+308, 0.35) is non-finite\n")
    assert not (tmp_path / "run" / "checkpoint.paef").exists()


# A malformed train option, and the config field its error names.
BAD_TRAIN_OPTIONS = [
    ("--lr0", "nan", "lr0"), ("--lr0", "inf", "lr0"), ("--lr0", "0", "lr0"),
    ("--weight-decay", "nan", "weight_decay"), ("--weight-decay", "-0.1", "weight_decay"),
    ("--weight-decay", "inf", "weight_decay"),
    ("--alpha1", "nan", "alpha1"), ("--alpha2", "inf", "alpha2"), ("--alpha3", "-1", "alpha3"),
    ("--tangent-clip", "nan", "tangent_clip"), ("--tangent-clip", "inf", "tangent_clip"),
    ("--tangent-clip", "0", "tangent_clip"),
    ("--curvature", "inf", "curvature"), ("--curvature", "nan", "curvature"), ("--curvature", "0", "curvature"),
    ("--boundary-eps", "nan", "boundary_eps"),
    ("--fusion", "foo", "fusion"), ("--gate-activation", "sin", "gate_activation"),
    ("--attention-combine", "x", "attention_combine"), ("--proj-dim", "0", "proj_dim"),
]
SOURCES = ["flag", "env", "config"]


def given_by(source, command, flag, value, tmp_path, monkeypatch) -> list[str]:
    """The arguments that set ``command``'s option ``flag`` to ``value`` from ``source``: its flag,
    its PAEFF_ variable or a line of a config file."""
    if source == "flag":
        return [flag, value]
    opt = next(opt for opt in cli.COMMAND_OPTIONS[command] if opt.flag == flag)
    if source == "env":
        monkeypatch.setenv(opt.env_name, value)
        return []
    (tmp_path / "options.cfg").write_text(f"{opt.key} = {value}\n", encoding="utf-8")
    return ["--config", str(tmp_path / "options.cfg")]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("flag, value, field", BAD_TRAIN_OPTIONS, ids=[f"{f[2:]}={v}" for f, v, _ in BAD_TRAIN_OPTIONS])
def test_malformed_train_option_exits_3_before_training(world, tmp_path, capsys, monkeypatch, flag, value, field,
                                                       source):
    monkeypatch.setattr(data, "load_dataset", lambda *a: pytest.fail("dataset read"))
    argv = train_argv(world, tmp_path / "run")
    if flag in argv:  # the base command's own flag would win over a variable or a config line
        del argv[argv.index(flag) : argv.index(flag) + 2]
    assert cli.main([*argv, *given_by(source, "train", flag, value, tmp_path, monkeypatch)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric/invariant error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize("source", SOURCES)
def test_all_loss_weights_zero_exits_3_before_training(world, tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(data, "load_dataset", lambda *a: pytest.fail("dataset read"))
    alphas = [opt for opt in cli.COMMAND_OPTIONS["train"] if opt.key.startswith("train.alpha")]
    given = [word for opt in alphas for word in (opt.flag, "0")] if source == "flag" else []
    if source == "env":
        for opt in alphas:
            monkeypatch.setenv(opt.env_name, "0")
    if source == "config":
        (tmp_path / "weights.cfg").write_text("".join(f"{opt.key} = 0\n" for opt in alphas), encoding="utf-8")
        given = ["--config", str(tmp_path / "weights.cfg")]
    assert cli.main(train_argv(world, tmp_path / "run", *given)) == 3
    assert capsys.readouterr().err == "numeric/invariant error: at least one loss weight must be positive\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--max-trials", "1", "max_trials"), ("--matching-trials", "0", "matching_trials"), ("--nc-list", "1", "nc_list"),
    ("--probe-modality", "x", "probe_modality"), ("--strata", "G,G", "strata"), ("--nc-list", "2,4,2", "nc_list"),
    ("--strata", ",", "strata"), ("--nc-list", ",", "nc_list"),
])
def test_malformed_eval_option_exits_3_before_loading(world, run, tmp_path, capsys, monkeypatch, flag, value, field):
    monkeypatch.setattr(model, "load_checkpoint", lambda *a: pytest.fail("checkpoint loaded"))
    assert cli.main(eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval", flag, value)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric/invariant error:") and field in err


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_negative_seed_exits_3_before_training_or_loading(world, run, tmp_path, capsys, monkeypatch, command, source):
    monkeypatch.setattr(trainer, "train", lambda *a: pytest.fail("training started"))
    monkeypatch.setattr(model, "load_checkpoint", lambda *a: pytest.fail("checkpoint loaded"))
    given = given_by(source, command, "--seed", "-1", tmp_path, monkeypatch)
    out = tmp_path / "out"
    argv = train_argv(world, out, *given) if command == "train" else eval_argv(
        world, world / "run" / "checkpoint.paef", out, *given)
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "numeric/invariant error: seed must be at least 0, got -1\n"
    assert not out.exists()


BAD_SYNTH_OPTIONS = [
    ("--identities", "1", "identities must be at least 2, got 1"),
    ("--samples-per-id", "1", "samples_per_id must be at least 2, got 1"),
    ("--face-dim", "0", "face_dim must be positive, got 0"),
    ("--voice-dim", "0", "voice_dim must be positive, got 0"),
    ("--rho", "2", "rho must be in [0, 1], got 2.0"),
    ("--rho", "nan", "rho must be in [0, 1], got nan"),
    ("--sigma", "nan", "sigma must be finite and nonnegative, got nan"),
    ("--sigma", "inf", "sigma must be finite and nonnegative, got inf"),
    ("--sigma", "-0.1", "sigma must be finite and nonnegative, got -0.1"),
    ("--latent-dim", "0", "latent_dim must be in [1, min(face_dim, voice_dim)], got 0"),
    ("--latent-dim", "6", "latent_dim must be in [1, min(face_dim, voice_dim)], got 6"),  # face 6, voice 5
    ("--seed", "-1", "seed must be at least 0, got -1"),
]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("flag, value, message", BAD_SYNTH_OPTIONS,
                         ids=[f"{f[2:]}={v}" for f, v, _ in BAD_SYNTH_OPTIONS])
def test_malformed_synth_option_exits_3_before_writing(tmp_path, capsys, monkeypatch, flag, value, message, source):
    monkeypatch.setattr(data, "synth_generate", lambda *a, **k: pytest.fail("vectors generated"))
    argv = ["synth", "--out", str(tmp_path / "out"), *SYNTH]
    if flag in argv:  # the base command's own flag would win over a variable or a config line
        del argv[argv.index(flag) : argv.index(flag) + 2]
    assert cli.main([*argv, *given_by(source, "synth", flag, value, tmp_path, monkeypatch)]) == 3
    assert capsys.readouterr().err == f"numeric/invariant error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_file_setting_a_key_twice_exits_2_before_training(world, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trainer, "train", lambda *a: pytest.fail("training started"))
    config = tmp_path / "train.cfg"
    config.write_text("train.epochs = 1\n# more epochs\ntrain.epochs = 3\n", encoding="utf-8")
    assert cli.main(train_argv(world, tmp_path / "run", "--config", str(config))) == 2
    assert capsys.readouterr().err == f"data error: {config}:3: config key 'train.epochs' is already set on line 1\n"


def test_ablation_manifests_describe_trained_model(world, arms, tmp_path):
    baseline = arms["baseline"]
    trained = recorded(baseline)
    assert set(trained) == {"model", "train"}
    assert trained["train"]["alpha1"] == 0.0
    argv = eval_argv(world, baseline / "checkpoint.paef", tmp_path / "eval",
                     "--manifest", str(baseline / "manifest.json"))
    assert cli.main(argv) == 0
    model = recorded(tmp_path / "eval")["model"]
    assert (model["use_hyperbolic"], model["fusion"]) == (False, "linear")
    assert "similarity" not in model


# -- the run manifest -----------------------------------------------------------------

# The inputs each command's manifest digests, with its default flags.
MANIFEST_INPUTS = {
    "synth": set(),
    "train": {"data", "split_train", "split_val", "split_test"},
    "eval": {"checkpoint", "data", "split_train", "split_val", "split_test", "train_manifest"},
}


def test_manifest_schema(tmp_path):
    """synth, train and eval manifests: their keys, the tool, each input's digest and every output."""
    root = synth(tmp_path / "data")
    train(root, root / "run")
    assert cli.main(eval_argv(root, root / "run" / "checkpoint.paef", root / "eval")) == 0
    for command, out in (("synth", root), ("train", root / "run"), ("eval", root / "eval")):
        manifest = json.loads((out / "manifest.json").read_text())
        extra = {"result"} if command == "train" else set()
        assert set(manifest) == {"command", "tool", "run", "seed", "config", "inputs", "outputs"} | extra
        assert manifest["command"] == command
        assert manifest["tool"] == {"name": "paeff", "version": paeff.__version__}
        assert manifest["run"]["python"] == platform.python_version()
        assert manifest["run"]["numpy"] == np.__version__
        assert set(manifest["inputs"]) == MANIFEST_INPUTS[command]
        for entry in manifest["inputs"].values():
            assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
        assert manifest["outputs"]["manifest"] == str(out / "manifest.json")
        assert all(Path(path).is_file() for path in manifest["outputs"].values())


# -- reruns ---------------------------------------------------------------------------


def test_rerun_is_byte_identical(tmp_path):
    files = ["data.fve", "run/checkpoint.paef", "run/history.jsonl", "eval/verification.csv",
             "eval/verification.json", "eval/matching.csv", "eval/matching.json", "eval/roc.csv"]
    outputs = []
    for name in ("a", "b"):
        root = synth(tmp_path / name)
        train(root, root / "run")
        assert cli.main(eval_argv(root, root / "run" / "checkpoint.paef", root / "eval")) == 0
        outputs.append({f: (root / f).read_bytes() for f in files})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", ["unseen_unheard", "seen_heard"])
def test_train_selects_each_part_by_rows_without_walking_records(tmp_path, monkeypatch, mode):
    """``paeff train`` derives each part's rows from the dataset's arrays, once per call that needs them.

    ``cmd_train`` derives the train part's rows for the model's identity
    count, ``trainer.resolve_batch_size`` once for the auto batch size,
    each epoch's ``make_batches`` once, and ``build_verification_trials`` the
    val part's once, for the val trials. The loaded dataset's records are
    never walked: the trials fetch only their own.
    """
    root = tmp_path / mode
    assert cli.main(["synth", "--out", str(root), *(SEEN_SYNTH if mode == "seen_heard" else SYNTH)]) == 0
    derived, loaded = [], []
    part_rows, load_dataset = data.SplitSpec.part_rows, data.load_dataset

    def deriving(self, dataset, part):
        derived.append((sys._getframe(1).f_code.co_name, part))
        return part_rows(self, dataset, part)

    def loading(path):
        dataset = load_dataset(path)
        dataset.records = walk.CountedWalks(dataset.records)
        loaded.append(dataset)
        return dataset

    monkeypatch.setattr(data.SplitSpec, "part_rows", deriving)
    monkeypatch.setattr(data, "load_dataset", loading)
    train(root, root / "run", "--split-mode", mode)
    assert derived == [
        ("cmd_train", "train"), ("resolve_batch_size", "train"), ("build_verification_trials", "val"),
    ] + [("make_batches", "train")] * 2  # 2 epochs
    assert len(loaded) == 1 and loaded[0].records.walks == 0
    dataset = load_dataset(root / "data.fve")
    split = data.SplitSpec(mode, *(data.read_split_file(root / f"{part}.ids") for part in ("train", "val", "test")))
    identities = {r.identity_id for r in walk.part_records(dataset, split, "train")}
    assert recorded(root / "run")["model"]["num_identities"] == len(identities)


# -- exit codes -----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["selfcheck", "nosuch"])
def test_unknown_command_exits_1(capsys, command):
    assert cli.main([command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"invalid choice: '{command}'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_missing_required_option_exits_1(world, capsys):
    assert cli.main(["train", "--data", str(world / "data.fve")]) == 1
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    ("train", "missing required option --split-train (config key io.split_train)"),
    ("eval", "eval needs --trials or --split-test"),
])
def test_required_options_are_checked_before_any_input_is_read(tmp_path, capsys, command, message):
    argv = [command, "--data", str(tmp_path / "missing.fve"), "--out", str(tmp_path / "out")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "missing.paef")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def forbid_reading_inputs(monkeypatch):
    """Make reading a manifest, checkpoint or dataset, or generating one, fail the test."""
    for module, name in ((cli.cfgmod, "read_manifest"), (model, "load_checkpoint"), (data, "load_dataset"),
                         (data, "synth_generate")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"called {name}"))


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
@pytest.mark.parametrize("command", ["train", "eval", "synth"])
def test_out_naming_an_existing_file_exits_2_before_any_input_is_read(world, run, tmp_path, capsys, monkeypatch,
                                                                     command, below):
    """An --out that cannot become a directory fails before any input is read or generated, and writes nothing."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    forbid_reading_inputs(monkeypatch)
    argv = {"train": train_argv(world, out), "eval": eval_argv(world, world / "run" / "checkpoint.paef", out),
            "synth": ["synth", "--out", str(out), *SYNTH]}[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"data error: --out {out}: {taken} exists and is not a directory\n"
    assert sorted(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"


def test_train_split_of_only_unknown_identities_exits_2(world, tmp_path, capsys):
    """The split is checked before the class count is taken from it, which would be 0 here and exit 3."""
    (tmp_path / "train.ids").write_text("nobody0\nnobody1\n")
    argv = train_argv(world, tmp_path / "run", "--split-train", str(tmp_path / "train.ids"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "train split references unknown identities" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, message", [
    (SYNTH + ["--test-identities", "0"], "the test part needs at least 2 identities, got 0"),
    (SYNTH + ["--val-identities", "0"], "the val part needs at least 2 identities, got 0"),
    (SYNTH + ["--test-identities", "-3"], "the test part needs at least 2 identities, got -3"),
    (SYNTH + ["--test-identities", "1"], "the test part needs at least 2 identities, got 1"),
    (SYNTH + ["--val-identities", "1"], "the val part needs at least 2 identities, got 1"),
    (SYNTH + ["--val-identities", "4", "--test-identities", "5"], "the train part needs at least 2 identities, got 1"),
    (SYNTH + ["--identities", "20", "--val-identities", "10", "--test-identities", "10"],
     "the train part needs at least 2 identities, got 0"),
    (SEEN_SYNTH[:-2] + ["--identities", "12"], "the train part needs at least 2 identities, got 0"),  # 4 + 8 held out
    (SEEN_SYNTH + ["--samples-per-id", "2"],
     "samples_per_id must be at least 3 under seen_heard, to hold out a val and a test clip, got 2"),
])
def test_synth_with_an_empty_part_exits_3_before_writing(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(data, "synth_generate", lambda *a, **k: pytest.fail("vectors generated"))
    assert cli.main(["synth", "--out", str(tmp_path / "out"), *flags]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("part", ["val", "test"])
def test_synth_seen_heard_rejects_a_held_out_identity_count(tmp_path, capsys, monkeypatch, part, source):
    """seen_heard holds out clips, so an identity count given to it from any source exits 3 before writing."""
    argv = ["synth", "--out", str(tmp_path / "out"), *SEEN_SYNTH]
    if source == "flag":
        argv += [f"--{part}-identities", "2"]
    elif source == "env":
        monkeypatch.setenv(f"PAEFF_SYNTH_{part.upper()}_IDENTITIES", "2")
    else:
        (tmp_path / "synth.cfg").write_text(f"synth.{part}_identities = 2\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "synth.cfg")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (f"numeric/invariant error: {part}_identities must be auto under seen_heard, "
                                       "which holds out clips, got 2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "synth"])
def test_unknown_split_mode_exits_3_before_any_input_is_read(world, run, tmp_path, capsys, monkeypatch, command):
    """eval checks the mode with --trials and no split file too, where the mode only labels the reports."""
    forbid_reading_inputs(monkeypatch)
    (tmp_path / "trials.txt").write_text(TRIAL_LIST, encoding="utf-8")
    out = tmp_path / "out"
    argv = {"train": train_argv(world, out),
            "eval": ["eval", "--checkpoint", str(world / "run" / "checkpoint.paef"), "--data",
                     str(world / "data.fve"), "--trials", str(tmp_path / "trials.txt"), "--out", str(out)],
            "synth": ["synth", "--out", str(out), *SYNTH]}[command]
    assert cli.main(argv + ["--split-mode", "foo"]) == 3
    assert capsys.readouterr().err == ("numeric/invariant error: split mode must be one of "
                                       "('seen_heard', 'unseen_unheard')\n")
    assert not out.exists()


@pytest.mark.parametrize("mode, counts", [("seen_heard", None), ("unseen_unheard", (4, 8))])
def test_synth_manifest_records_held_out_identity_counts_only_where_they_apply(tmp_path, mode, counts):
    argv = SEEN_SYNTH[:-1] + [mode, "--identities", "16"]  # unseen_unheard's defaults hold out 4 + 8
    assert cli.main(["synth", "--out", str(tmp_path), *argv]) == 0
    section = recorded(tmp_path)["synth"]
    recorded_counts = tuple(section.get(f"{part}_identities") for part in ("val", "test"))
    assert recorded_counts == (counts or (None, None))
    if counts:
        assert [len(data.read_split_file(tmp_path / f"{part}.ids")) for part in ("val", "test")] == list(counts)


@pytest.mark.parametrize("mode, held_out", [("unseen_unheard", [4, 8]), ("seen_heard", None)])
def test_synth_auto_held_out_identities_are_the_split_modes_own(tmp_path, mode, held_out):
    argv = SEEN_SYNTH[:-1] + [mode, "--identities", "16", "--val-identities", "auto", "--test-identities", "auto"]
    assert cli.main(["synth", "--out", str(tmp_path), *argv]) == 0
    if held_out:
        assert [len(data.read_split_file(tmp_path / f"{part}.ids")) for part in ("val", "test")] == held_out


def one_identity_part(world, tmp_path, part):
    """A split file holding only the first identity of ``world``'s ``part``."""
    path = tmp_path / f"{part}.ids"
    path.write_text(sorted(data.read_split_file(world / f"{part}.ids"))[0] + "\n")
    return str(path)


def test_train_with_a_one_identity_val_part_exits_2(world, tmp_path, capsys):
    argv = train_argv(world, tmp_path / "run", "--split-val", one_identity_part(world, tmp_path, "val"))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "data error: val split cannot build balanced trials (identities=1, with both modalities=1)\n")
    assert not (tmp_path / "run").exists()


TRIAL_LIST = "id0000_face_000\tid0000_voice_000\t1\nid0001_face_001\tid0002_voice_000\t0\n"


@pytest.mark.parametrize("trials, message", [
    (None, "test split cannot build balanced trials (identities=1, with both modalities=1)"),
    (TRIAL_LIST, "matching trials need at least 2 identities with both modalities"),
], ids=["verification", "matching"])
def test_eval_with_a_one_identity_test_part_exits_2(world, run, tmp_path, capsys, monkeypatch, trials, message):
    """Either trial builder rejects the part before ``score_trials`` runs, on a ``--trials`` list too."""
    scored = []
    monkeypatch.setattr(evaluation, "score_trials", lambda *a: scored.append(a))
    flags = ["--split-test", one_identity_part(world, tmp_path, "test")]
    if trials:
        (tmp_path / "trials.txt").write_text(trials, encoding="utf-8")
        flags += ["--trials", str(tmp_path / "trials.txt")]
    assert cli.main(eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval", *flags)) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert scored == []
    assert not (tmp_path / "eval").exists()


def test_eval_with_too_few_distractors_exits_3_before_scoring(world, run, tmp_path, capsys, monkeypatch):
    """The 3-identity test part has 6 distractor faces per voice probe, too few for a gallery of 10."""
    scored = []
    monkeypatch.setattr(evaluation, "score_trials", lambda *a: scored.append(a))
    (tmp_path / "trials.txt").write_text(TRIAL_LIST, encoding="utf-8")
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval", "--trials",
                     str(tmp_path / "trials.txt"), "--nc-list", "2,10")
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "numeric/invariant error: not enough distractor records (6) for gallery size 10\n"
    assert scored == []
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("flag, dim, dims", [("--face-dim", "7", "7/5"), ("--voice-dim", "6", "6/6")])
def test_eval_data_of_other_dims_than_the_model_exits_2_before_scoring(world, run, tmp_path, capsys, monkeypatch,
                                                                       flag, dim, dims):
    other = tmp_path / "other"
    assert cli.main(["synth", "--out", str(other), *SYNTH, flag, dim]) == 0
    monkeypatch.setattr(evaluation, "score_trials", lambda *a: pytest.fail("scored trials"))
    assert cli.main(eval_argv(other, world / "run" / "checkpoint.paef", tmp_path / "eval",
                              "--manifest", str(world / "run" / "manifest.json"))) == 2
    assert capsys.readouterr().err == (f"data error: {other / 'data.fve'}: face/voice dims {dims} differ from "
                                       f"the trained model's 6/5 in {world / 'run' / 'manifest.json'}\n")
    assert not (tmp_path / "eval").exists()


# Each error class's exit code and stderr prefix, written out by hand.
EXIT_CODES = {
    "DataError": (2, "data error:"),
    "ContractError": (3, "numeric/invariant error:"),
    "NumericError": (3, "numeric/invariant error:"),
}


def test_exit_code_table_names_every_error_class():
    assert sorted(c.__name__ for c in PaeffError.__subclasses__()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("error", PaeffError.__subclasses__(), ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code(monkeypatch, capsys, error):
    def failing(args):
        raise error("the fault")

    monkeypatch.setattr(cli, "cmd_synth", failing)
    code, prefix = EXIT_CODES[error.__name__]
    assert cli.main(["synth"]) == code
    assert capsys.readouterr().err == f"{prefix} the fault\n"


@pytest.mark.parametrize("error", [FileExistsError, PermissionError, IsADirectoryError], ids=lambda c: c.__name__)
def test_every_os_error_exits_2_as_a_data_error(monkeypatch, capsys, error):
    def failing(args):
        raise error("the fault")

    monkeypatch.setattr(cli, "cmd_synth", failing)
    assert cli.main(["synth"]) == 2
    assert capsys.readouterr().err == "data error: the fault\n"


def test_intact_checkpoint_evaluates(run):
    evaluate, checkpoint = run
    assert evaluate(checkpoint) == 0


@pytest.mark.parametrize("source", ["split", "trials"])
def test_eval_scores_all_tied_exit_3_naming_the_trials(world, run, tmp_path, capsys, source):
    # Zero projection weights give every face one encoding and every voice one: all scores tie.
    manifest = world / "run" / "manifest.json"
    cfg = cli._trained_model(str(manifest))
    params = model.load_checkpoint(world / "run" / "checkpoint.paef", cfg)
    params.face_weight.data[...] = 0.0
    params.voice_weight.data[...] = 0.0
    model.save_checkpoint(tmp_path / "zero.paef", params)
    flags = ["--manifest", str(manifest)]
    if source == "trials":
        (tmp_path / "trials.txt").write_text(
            "id0000_face_000\tid0000_voice_000\t1\nid0001_face_001\tid0002_voice_000\t0\n", encoding="utf-8")
        flags += ["--trials", str(tmp_path / "trials.txt")]
    assert cli.main(eval_argv(world, tmp_path / "zero.paef", tmp_path / "eval", *flags)) == 3
    err = capsys.readouterr().err
    where = f"trial list {tmp_path / 'trials.txt'}: all 2" if source == "trials" else "test split: all 20"
    assert f"numeric/invariant error: {where} trial scores equal" in err


@pytest.mark.parametrize("size", [6, 200])
def test_truncated_checkpoint_is_data_error(run, size):
    evaluate, checkpoint = run
    assert evaluate(checkpoint[:size]) == 2


@pytest.mark.parametrize("name", ["face_weight", "voice_weight", "cls_weight"])
def test_checkpoint_missing_weight_is_data_error(run, name):
    evaluate, checkpoint = run
    assert evaluate(without(checkpoint, name)) == 2


def test_checkpoint_repeating_a_parameter_is_data_error(world, run, capsys):
    # A second face_bias of 9s after the first: it would win if the loader kept the last copy.
    evaluate, checkpoint = run
    nines = np.full(model.load_checkpoint_arrays(world / "run" / "checkpoint.paef")["face_bias"].shape, 9.0)
    repeat = struct.pack("<I", 9) + b"face_bias" + struct.pack(f"<{nines.ndim + 1}I", nines.ndim, *nines.shape)
    assert evaluate(checkpoint + repeat + nines.astype("<f8").tobytes()) == 2
    assert "parameter 'face_bias' appears twice" in capsys.readouterr().err


def test_checkpoint_checked_before_dataset(world, run, tmp_path, capsys):
    _, checkpoint = run
    bad_checkpoint = tmp_path / "bad.paef"
    bad_checkpoint.write_bytes(checkpoint[:200])
    bad_data = tmp_path / "data.fve"
    bad_data.write_text("not an fve file\n")
    argv = ["eval", "--checkpoint", str(bad_checkpoint), "--manifest", str(world / "run" / "manifest.json"),
            "--data", str(bad_data), "--out", str(tmp_path / "eval"), *splits(world)]
    assert cli.main(argv) == 2
    assert str(bad_checkpoint) in capsys.readouterr().err


def test_checkpoint_of_non_finite_values_exits_3_before_dataset(world, run, tmp_path, capsys):
    _, checkpoint = run
    bias = model.load_checkpoint_arrays(world / "run" / "checkpoint.paef")["face_bias"]
    bias[0] = np.nan
    record = struct.pack("<I", 9) + b"face_bias" + struct.pack(f"<{bias.ndim + 1}I", bias.ndim, *bias.shape)
    bad_checkpoint = tmp_path / "nan.paef"
    bad_checkpoint.write_bytes(without(checkpoint, "face_bias") + record + bias.astype("<f8").tobytes())
    bad_data = tmp_path / "data.fve"
    bad_data.write_text("not an fve file\n")
    argv = ["eval", "--checkpoint", str(bad_checkpoint), "--manifest", str(world / "run" / "manifest.json"),
            "--data", str(bad_data), "--out", str(tmp_path / "eval"), *splits(world)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"numeric/invariant error: {bad_checkpoint}: face_bias holds non-finite values\n"


def test_seen_heard_eval_of_the_test_part_alone_writes_the_reports_of_all_three(tmp_path):
    """The coverage rule ties val and test to train; an eval given only the test part skips it."""
    seen = tmp_path / "seen"
    assert cli.main(["synth", "--out", str(seen), *SEEN_SYNTH]) == 0
    checkpoint_path = train(seen, seen / "run", "--split-mode", "seen_heard") / "checkpoint.paef"
    test_only = eval_argv(seen, checkpoint_path, tmp_path / "test_only", "--split-mode", "seen_heard")
    del test_only[test_only.index("--split-train"):test_only.index("--split-test")]
    assert cli.main(test_only) == 0
    assert cli.main(eval_argv(seen, checkpoint_path, tmp_path / "all", "--split-mode", "seen_heard")) == 0
    for name in ("verification.csv", "verification.json", "matching.csv", "matching.json", "roc.csv"):
        assert (tmp_path / "test_only" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


# -- the model eval scores with: the training manifest ----------------------------------


@pytest.mark.parametrize("flags", [ARMS["baseline"], ("--tangent-clip", "0.25"),
                                   ("--attention-combine", "concatenation")],
                         ids=["baseline", "tangent_clip", "concatenation"])
def test_eval_scores_with_the_trained_model(world, tmp_path, flags):
    """Without --manifest, eval reads the manifest train wrote next to the checkpoint."""
    trained = train(world, tmp_path / "run", *flags)
    assert cli.main(eval_argv(world, trained / "checkpoint.paef", tmp_path / "eval")) == 0
    assert recorded(tmp_path / "eval")["model"] == recorded(trained)["model"]
    inputs = json.loads((tmp_path / "eval" / "manifest.json").read_text())["inputs"]
    assert inputs["train_manifest"]["path"] == str(trained / "manifest.json")


def test_eval_of_the_checkpoint_scores_as_the_trained_params_do(world, tmp_path, monkeypatch):
    """The float32 weights train returns pass the float64 checkpoint exactly: eval's scores equal in-process ones."""
    results, scored = [], []
    train_fn, score_trials = trainer.train, evaluation.score_trials
    monkeypatch.setattr(trainer, "train", lambda *args: results.append(train_fn(*args)) or results[-1])
    trained = train(world, tmp_path / "run")

    def scoring(trials, params, cfg):
        scored.append((trials, params, cfg))
        return score_trials(trials, params, cfg)

    monkeypatch.setattr(evaluation, "score_trials", scoring)
    assert cli.main(eval_argv(world, trained / "checkpoint.paef", tmp_path / "eval")) == 0
    (result,), ((trials, loaded, cfg),) = results, scored
    assert {t.data.dtype for _, t in result.params.named()} == {np.dtype(np.float32)}
    assert {t.data.dtype for _, t in loaded.named()} == {np.dtype(np.float64)}
    fresh = [evaluation.VerificationTrial(None, t.is_match, t.face, t.voice) for t in trials]
    score_trials(fresh, result.params, cfg)
    assert np.array([t.score for t in fresh]).tobytes() == np.array([t.score for t in trials]).tobytes()


def test_eval_parses_the_checkpoint_once(world, run, tmp_path, monkeypatch):
    calls = []
    original = model.load_checkpoint_arrays

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(model, "load_checkpoint_arrays", counting)
    assert cli.main(eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval")) == 0
    assert calls == [str(world / "run" / "checkpoint.paef")]


def test_eval_reads_the_training_manifest_once(world, run, tmp_path, monkeypatch):
    reads = []
    original = cli.cfgmod.read_text

    def counting(path):
        reads.append(Path(path))
        return original(path)

    monkeypatch.setattr(cli.cfgmod, "read_text", counting)
    assert cli.main(eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval")) == 0
    assert reads.count(world / "run" / "manifest.json") == 1


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_digests_the_data_bytes_that_were_parsed(tmp_path, monkeypatch, command):
    """A ``--data`` file rewritten during the run is recorded with the digest of the bytes the run loaded."""
    root = synth(tmp_path / "data")
    path = root / "data.fve"
    parsed = hashlib.sha256(path.read_bytes()).hexdigest()
    if command == "eval":
        run_dir = train(root, tmp_path / "run")
    module, name = (trainer, "train") if command == "train" else (evaluation, "score_trials")
    original = getattr(module, name)

    def rewriting(*args, **kwargs):
        path.write_bytes(path.read_bytes() + b"\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, rewriting)
    out = tmp_path / "out"
    argv = train_argv(root, out) if command == "train" else eval_argv(root, run_dir / "checkpoint.paef", out)
    assert cli.main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() != parsed
    assert json.loads((out / "manifest.json").read_text())["inputs"]["data"]["sha256"] == parsed


def test_eval_without_a_manifest_exits_2(world, run, tmp_path, capsys):
    (tmp_path / "checkpoint.paef").write_bytes(run[1])
    assert cli.main(eval_argv(world, tmp_path / "checkpoint.paef", tmp_path / "eval")) == 2
    assert str(tmp_path / "manifest.json") in capsys.readouterr().err


@pytest.mark.parametrize("beside", ["nothing", "a synth manifest"])
def test_eval_of_a_missing_checkpoint_names_it(world, tmp_path, capsys, beside):
    """Without --manifest, the manifest is looked for next to the checkpoint, which must be there first."""
    missing = (tmp_path if beside == "nothing" else world) / "missing.paef"
    assert cli.main(eval_argv(world, missing, tmp_path / "eval")) == 2
    assert f"data error: {missing}: no checkpoint there" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("proj_dim", 99, "face_weight has shape (6, 4), expected (6, 99)"),
    ("attention_combine", "concatenation", "do not match config"),
])
def test_eval_manifest_disagreeing_with_checkpoint_exits_2(world, run, tmp_path, capsys, field, value, message):
    manifest = json.loads((world / "run" / "manifest.json").read_text())
    manifest["config"]["model"][field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval",
                     "--manifest", str(tmp_path / "manifest.json"))
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


# -- malformed text inputs --------------------------------------------------------------

def trained_manifest(**model_values) -> bytes:
    """A training manifest of the run in ``world``, with some config.model values replaced."""
    values = {**asdict(model.ModelConfig(6, 5, 5, proj_dim=4)), **model_values}
    return json.dumps({"command": "train", "config": {"model": values}}).encode()


# The eval option a malformed file is passed to, and the file's bytes.
MALFORMED = {
    "fve-not-utf8": ("--data", b"#fve v1 face=6 voice=5\np0\tface\tc\xff\t\t\t\t0.5\n"),
    "fve-superscript-dim": ("--data", "#fve v1 face=² voice=80\n".encode()),
    "split-not-utf8": ("--split-test", b"p0\np\xff1\n"),
    "trials-not-utf8": ("--trials", b"c\xff\tc1\t1\n"),
    "trials-only-match": ("--trials", b"id0000_face_000\tid0000_voice_000\t1\nid0001_face_001\tid0001_voice_002\t1\n"),
    "trials-empty": ("--trials", b"\n"),
    "trials-only-non-match": ("--trials", b"id0000_face_000\tid0001_voice_000\t0\nid0002_face_001\tid0003_voice_002\t0\n"),
    "config-not-utf8": ("--config", b"# \xff\neval.max_trials = 20\n"),
    "manifest-not-utf8": ("--manifest", trained_manifest(fusion="?").replace(b'"?"', b'"\xff"')),
    "manifest-not-json": ("--manifest", b"{"),
    "manifest-list": ("--manifest", b"[]"),
    "manifest-config-list": ("--manifest", b'{"config": []}'),
    "manifest-model-number": ("--manifest", b'{"config": {"model": 3}}'),
    "manifest-no-face-dim": ("--manifest", trained_manifest().replace(b'"face_dim": 6, ', b"")),
    "manifest-curvature-string": ("--manifest", trained_manifest(curvature="x")),
    "manifest-width-float": ("--manifest", trained_manifest(proj_dim=4.0)),
    "manifest-fusion-number": ("--manifest", trained_manifest(fusion=1)),
    "manifest-identities-bool": ("--manifest", trained_manifest(num_identities=True)),
    "manifest-unknown-fusion": ("--manifest", trained_manifest(fusion="sum")),
    "manifest-unknown-key": ("--manifest", trained_manifest(similarity="neg_hyperbolic_distance")),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_text_input_exits_2(world, run, tmp_path, capsys, case):
    flag, blob = MALFORMED[case]
    (tmp_path / "input").write_bytes(blob)
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval", flag, str(tmp_path / "input"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert str(tmp_path / "input") in err
