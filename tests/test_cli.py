"""Command line: option table, precedence, ablation presets, reruns and exit codes."""

import json
import math
import struct

import pytest

from paeff import cli

SYNTH = ["--identities", "10", "--samples-per-id", "3", "--face-dim", "6", "--voice-dim", "5",
         "--latent-dim", "4", "--val-identities", "2", "--test-identities", "3"]

# Every model/train/eval option with its kind and default, written out by hand.
OPTION_TABLE = {
    "model.proj_dim": ("int", 128),
    "model.gate_activation": ("str", "tanh"),
    "model.attention_combine": ("str", "multiplication"),
    "model.use_hyperbolic": ("bool", True),
    "model.similarity": ("str", "neg_hyperbolic_distance"),
    "model.fusion": ("str", "egff"),
    "model.curvature": ("float", 1.0),
    "model.boundary_eps": ("float", 1e-5),
    "model.tangent_clip": ("float", 0.5),
    "train.epochs": ("int", 50),
    "train.batch_size": ("int_or_auto", None),
    "train.lr0": ("float", 2e-5),
    "train.lr_min": ("float", 0.0),
    "train.weight_decay": ("float", 1e-2),
    "train.adam_beta1": ("float", 0.9),
    "train.adam_beta2": ("float", 0.999),
    "train.adam_eps": ("float", 1e-8),
    "train.seed": ("int", 0),
    "train.alpha1": ("float", 0.3),
    "train.alpha2": ("float", 0.35),
    "train.alpha3": ("float", 0.35),
    "train.ablation": ("str", "full"),
    "train.op_inter_weight": ("float", 1.0),
    "train.val_trials": ("int", 200),
    "eval.nc_list": ("ints", (2, 4, 6, 8, 10)),
    "eval.strata": ("strs", ("random",)),
    "eval.max_trials": ("int", 1000),
    "eval.matching_trials": ("int", 500),
    "eval.probe_modality": ("str", "voice"),
    "eval.seed": ("int", 0),
}

# Each --ablation spec next to the explicit flags it stands for.
ARMS = {
    "full": [],
    "baseline": ["--no-use-hyperbolic", "--similarity", "cosine", "--fusion", "linear", "--alpha1", "0"],
    "egff": ["--no-use-hyperbolic", "--similarity", "cosine", "--alpha1", "0"],
    "egff_fa": ["--no-use-hyperbolic", "--similarity", "cosine"],
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
            "--proj-dim", "4", "--val-trials", "10", *splits(data_dir), *flags]


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
        return cli.main(eval_argv(world, path, world / "eval"))

    return evaluate, checkpoint(trained)


@pytest.fixture(scope="module")
def arms(world):
    """Per ablation spec: the run trained with the preset and the run trained with its flags."""
    return {
        spec: (train(world, world / f"preset{i}", "--ablation", spec), train(world, world / f"flags{i}", *flags))
        for i, (spec, flags) in enumerate(ARMS.items())
    }


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


@pytest.mark.parametrize("command, sections", [("train", ("model", "train")), ("eval", ("model", "eval"))])
def test_option_table(command, sections):
    options = {opt.key: (opt.kind, opt.default) for opt in cli.COMMAND_OPTIONS[command]
               if opt.key.split(".")[0] in ("model", "train", "eval")}
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


def test_eval_precedence(world, tmp_path, monkeypatch):
    """flag > PAEFF_* environment > config file > --manifest > default, read back from the eval manifest."""
    trained = train(world, tmp_path / "run", "--tangent-clip", "0.25")
    config = tmp_path / "eval.cfg"
    config.write_text("model.tangent_clip = 0.3\n")

    def tangent_clip(name, *argv):
        assert cli.main(eval_argv(world, trained / "checkpoint.paef", tmp_path / name, *argv)) == 0
        return recorded(tmp_path / name)["model"]["tangent_clip"]

    argv = []
    assert tangent_clip("default", *argv) == 0.5
    argv += ["--manifest", str(trained / "manifest.json")]
    assert tangent_clip("manifest", *argv) == 0.25
    argv += ["--config", str(config)]
    assert tangent_clip("file", *argv) == 0.3
    monkeypatch.setenv("PAEFF_MODEL_TANGENT_CLIP", "0.35")
    assert tangent_clip("env", *argv) == 0.35
    argv += ["--tangent-clip", "0.4"]
    assert tangent_clip("flag", *argv) == 0.4


# -- ablation presets ---------------------------------------------------------------


@pytest.mark.parametrize("spec", list(ARMS))
def test_ablation_preset_equals_its_flags(arms, spec):
    preset, flags = arms[spec]
    assert checkpoint(preset) == checkpoint(flags)


def test_ablation_arms_differ(arms):
    assert len({checkpoint(preset) for preset, _ in arms.values()}) == len(ARMS)


def test_ablation_wins_over_explicit_flag(world, arms, tmp_path):
    run_dir = train(world, tmp_path / "run", "--ablation", "no_hyperbolic", "--use-hyperbolic")
    assert checkpoint(run_dir) == checkpoint(arms["egff_fa"][1])


def test_unknown_ablation_exits_3(world, tmp_path, capsys):
    assert cli.main(train_argv(world, tmp_path / "run", "--ablation", "nonsense")) == 3
    assert "unknown ablation 'nonsense'" in capsys.readouterr().err


def test_ablation_manifests_describe_trained_model(world, arms, tmp_path):
    preset, _ = arms["baseline"]
    trained = recorded(preset)
    assert set(trained) == {"model", "train"}
    assert trained["train"]["ablation"] == "baseline"
    assert trained["train"]["alpha1"] == 0.0
    argv = eval_argv(world, preset / "checkpoint.paef", tmp_path / "eval", "--manifest", str(preset / "manifest.json"))
    assert cli.main(argv) == 0
    model = recorded(tmp_path / "eval")["model"]
    assert (model["use_hyperbolic"], model["similarity"], model["fusion"]) == (False, "cosine", "linear")


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


# -- exit codes -----------------------------------------------------------------------


def test_missing_required_option_exits_1(world, capsys):
    assert cli.main(["train", "--data", str(world / "data.fve")]) == 1
    assert "--out" in capsys.readouterr().err


def test_intact_checkpoint_evaluates(run):
    evaluate, checkpoint = run
    assert evaluate(checkpoint) == 0


@pytest.mark.parametrize("size", [6, 200])
def test_truncated_checkpoint_is_data_error(run, size):
    evaluate, checkpoint = run
    assert evaluate(checkpoint[:size]) == 2


@pytest.mark.parametrize("name", ["face_weight", "voice_weight", "cls_weight"])
def test_checkpoint_missing_weight_is_data_error(run, name):
    evaluate, checkpoint = run
    assert evaluate(without(checkpoint, name)) == 2


def test_checkpoint_checked_before_dataset(world, run, tmp_path, capsys):
    _, checkpoint = run
    bad_checkpoint = tmp_path / "bad.paef"
    bad_checkpoint.write_bytes(checkpoint[:200])
    bad_data = tmp_path / "data.fve"
    bad_data.write_text("not an fve file\n")
    argv = ["eval", "--checkpoint", str(bad_checkpoint), "--data", str(bad_data), "--out", str(tmp_path / "eval"),
            *splits(world)]
    assert cli.main(argv) == 2
    assert str(bad_checkpoint) in capsys.readouterr().err


# -- the checkpoint's shape against the options -----------------------------------------


def test_eval_takes_width_and_combine_from_checkpoint(world, tmp_path):
    trained = train(world, tmp_path / "run", "--attention-combine", "concatenation")
    assert cli.main(eval_argv(world, trained / "checkpoint.paef", tmp_path / "eval")) == 0
    model = recorded(tmp_path / "eval")["model"]
    assert (model["proj_dim"], model["attention_combine"]) == (4, "concatenation")


@pytest.mark.parametrize("layer", ["flag", "env", "file", "manifest"])
def test_eval_width_disagreeing_with_checkpoint_exits_2(world, run, tmp_path, monkeypatch, capsys, layer):
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval")
    if layer == "flag":
        argv += ["--proj-dim", "99"]
    elif layer == "env":
        monkeypatch.setenv("PAEFF_MODEL_PROJ_DIM", "99")
    elif layer == "file":
        (tmp_path / "eval.cfg").write_text("model.proj_dim = 99\n")
        argv += ["--config", str(tmp_path / "eval.cfg")]
    else:
        manifest = json.loads((world / "run" / "manifest.json").read_text())
        manifest["config"]["model"]["proj_dim"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv += ["--manifest", str(tmp_path / "manifest.json")]
    assert cli.main(argv) == 2
    assert "face_weight has shape (6, 4), expected (6, 99)" in capsys.readouterr().err


def test_eval_combine_disagreeing_with_checkpoint_exits_2(world, run, tmp_path, capsys):
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval", "--attention-combine", "concatenation")
    assert cli.main(argv) == 2
    assert "do not match config" in capsys.readouterr().err


# -- malformed text inputs --------------------------------------------------------------

# The eval option a malformed file is passed to, and the file's bytes.
MALFORMED = {
    "fve-not-utf8": ("--data", b"#fve v1 face=6 voice=5\np0\tface\tc\xff\t\t\t\t0.5\n"),
    "fve-superscript-dim": ("--data", "#fve v1 face=² voice=80\n".encode()),
    "split-not-utf8": ("--split-test", b"p0\np\xff1\n"),
    "trials-not-utf8": ("--trials", b"c\xff\tc1\t1\n"),
    "config-not-utf8": ("--config", b"# \xff\neval.max_trials = 20\n"),
    "manifest-not-utf8": ("--manifest", b'{"config": {"model": {"fusion": "\xff"}}}'),
    "manifest-list": ("--manifest", b"[]"),
    "manifest-config-list": ("--manifest", b'{"config": []}'),
    "manifest-model-number": ("--manifest", b'{"config": {"model": 3}}'),
    "manifest-curvature-string": ("--manifest", b'{"config": {"model": {"curvature": "x"}}}'),
    "manifest-width-float": ("--manifest", b'{"config": {"model": {"proj_dim": 4.0}}}'),
    "manifest-fusion-number": ("--manifest", b'{"config": {"model": {"fusion": 1}}}'),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_text_input_exits_2(world, run, tmp_path, capsys, case):
    flag, blob = MALFORMED[case]
    (tmp_path / "input").write_bytes(blob)
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval", flag, str(tmp_path / "input"))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("data error:")
