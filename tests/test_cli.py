"""Command line: option table, precedence, ablation presets, reruns and exit codes."""

import json
import math
import struct
from dataclasses import asdict
from operator import attrgetter

import pytest

from paeff import cli, data, evaluation, model, trainer

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
        return cli.main(eval_argv(world, path, world / "eval", "--manifest", str(trained / "manifest.json")))

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


@pytest.mark.parametrize("command, sections", [("train", ("model", "train")), ("eval", ("eval",))])
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


def test_eval_has_no_model_option(world, run, tmp_path, capsys):
    assert len(cli.COMMAND_OPTIONS["eval"]) == 15
    argv = eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval")
    assert cli.main([*argv, "--proj-dim", "4"]) == 1
    assert "--proj-dim" in capsys.readouterr().err
    (tmp_path / "eval.cfg").write_text("model.proj_dim = 4\n")
    assert cli.main([*argv, "--config", str(tmp_path / "eval.cfg")]) == 2
    assert "unknown config key 'model.proj_dim'" in capsys.readouterr().err


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


def test_val_scores_all_at_the_distance_cap_exit_3(world, tmp_path, capsys):
    # At c = 100 with the tangent clip at 8, every lifted row sits at the ball's rim, so every val
    # pair sits at the distance cap and its scores tie: no EER can be read off them.
    argv = train_argv(world, tmp_path / "run", "--curvature", "100", "--tangent-clip", "8")
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "validation split, epoch 1: all 10 trial scores equal -1.22061" in err
    assert not (tmp_path / "run" / "checkpoint.paef").exists()


# A malformed train option, and the config field its error names.
BAD_TRAIN_OPTIONS = [
    ("--lr0", "nan", "lr0"), ("--lr0", "inf", "lr0"), ("--lr0", "0", "lr0"),
    ("--lr-min", "5", "lr_min"), ("--lr-min", "-0.001", "lr_min"), ("--lr-min", "nan", "lr_min"),
    ("--weight-decay", "nan", "weight_decay"), ("--weight-decay", "-0.1", "weight_decay"),
    ("--weight-decay", "inf", "weight_decay"),
    ("--adam-beta1", "1", "adam_beta1"), ("--adam-beta1", "2", "adam_beta1"), ("--adam-beta1", "-0.1", "adam_beta1"),
    ("--adam-beta1", "nan", "adam_beta1"), ("--adam-beta2", "1", "adam_beta2"),
    ("--adam-eps", "-1", "adam_eps"), ("--adam-eps", "0", "adam_eps"), ("--adam-eps", "nan", "adam_eps"),
    ("--adam-eps", "inf", "adam_eps"),
    ("--op-inter-weight", "nan", "op_inter_weight"), ("--op-inter-weight", "-1", "op_inter_weight"),
    ("--val-trials", "1", "val_trials"),
    ("--alpha1", "nan", "alpha1"), ("--alpha2", "inf", "alpha2"), ("--alpha3", "-1", "alpha3"),
    ("--tangent-clip", "nan", "tangent_clip"), ("--tangent-clip", "inf", "tangent_clip"),
    ("--tangent-clip", "0", "tangent_clip"),
    ("--curvature", "inf", "curvature"), ("--curvature", "nan", "curvature"), ("--curvature", "0", "curvature"),
    ("--boundary-eps", "nan", "boundary_eps"),
]


@pytest.mark.parametrize("flag, value, field", BAD_TRAIN_OPTIONS, ids=[f"{f[2:]}={v}" for f, v, _ in BAD_TRAIN_OPTIONS])
def test_malformed_train_option_exits_3_before_training(world, tmp_path, capsys, monkeypatch, flag, value, field):
    monkeypatch.setattr(trainer, "train", lambda *a: pytest.fail("training started"))
    assert cli.main(train_argv(world, tmp_path / "run", flag, value)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric/invariant error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, field", [
    ("--max-trials", "1", "max_trials"), ("--matching-trials", "0", "matching_trials"), ("--nc-list", "1", "nc_list"),
    ("--probe-modality", "x", "probe_modality"),
])
def test_malformed_eval_option_exits_3_before_loading(world, run, tmp_path, capsys, monkeypatch, flag, value, field):
    monkeypatch.setattr(model, "load_checkpoint", lambda *a: pytest.fail("checkpoint loaded"))
    assert cli.main(eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval", flag, value)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric/invariant error:") and field in err


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


@pytest.mark.parametrize("mode", ["unseen_unheard", "seen_heard"])
def test_train_groups_the_train_part_once(tmp_path, monkeypatch, mode):
    """One grouping of the train part (in the trainer) and one of val; the model still counts train identities."""
    root = tmp_path / mode
    assert cli.main(["synth", "--out", str(root), *SYNTH, "--split-mode", mode]) == 0
    dataset = data.load_dataset(root / "data.fve")
    split = data.SplitSpec(mode, *(data.read_split_file(root / f"{part}.ids") for part in ("train", "val", "test")))
    key = attrgetter("identity_id" if mode == "unseen_unheard" else "clip_id")  # what the split ids name
    grouped = []
    original = data.group_by_identity

    def counting(records):
        records = list(records)
        grouped.append(frozenset(map(key, records)))
        return original(records)

    for module in (data, trainer, evaluation, cli):
        monkeypatch.setattr(module, "group_by_identity", counting, raising=False)
    train(root, root / "run", "--split-mode", mode)
    assert sorted(grouped, key=sorted) == sorted([split.train_ids, split.val_ids], key=sorted)
    identities = {r.identity_id for r in split.part_records(dataset, "train")}
    assert recorded(root / "run")["model"]["num_identities"] == len(identities)


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
    argv = ["eval", "--checkpoint", str(bad_checkpoint), "--manifest", str(world / "run" / "manifest.json"),
            "--data", str(bad_data), "--out", str(tmp_path / "eval"), *splits(world)]
    assert cli.main(argv) == 2
    assert str(bad_checkpoint) in capsys.readouterr().err


# -- the model eval scores with: the training manifest ----------------------------------


@pytest.mark.parametrize("flags", [("--ablation", "baseline"), ("--tangent-clip", "0.25"),
                                   ("--attention-combine", "concatenation")],
                         ids=["baseline", "tangent_clip", "concatenation"])
def test_eval_scores_with_the_trained_model(world, tmp_path, flags):
    """Without --manifest, eval reads the manifest train wrote next to the checkpoint."""
    trained = train(world, tmp_path / "run", *flags)
    assert cli.main(eval_argv(world, trained / "checkpoint.paef", tmp_path / "eval")) == 0
    assert recorded(tmp_path / "eval")["model"] == recorded(trained)["model"]
    inputs = json.loads((tmp_path / "eval" / "manifest.json").read_text())["inputs"]
    assert inputs["train_manifest"]["path"] == str(trained / "manifest.json")


def test_eval_parses_the_checkpoint_once(world, run, tmp_path, monkeypatch):
    calls = []
    original = model.load_checkpoint_arrays

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(model, "load_checkpoint_arrays", counting)
    assert cli.main(eval_argv(world, world / "run" / "checkpoint.paef", tmp_path / "eval")) == 0
    assert calls == [str(world / "run" / "checkpoint.paef")]


def test_eval_without_a_manifest_exits_2(world, run, tmp_path, capsys):
    (tmp_path / "checkpoint.paef").write_bytes(run[1])
    assert cli.main(eval_argv(world, tmp_path / "checkpoint.paef", tmp_path / "eval")) == 2
    assert str(tmp_path / "manifest.json") in capsys.readouterr().err


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
