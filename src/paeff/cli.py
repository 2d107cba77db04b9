"""Command-line entry point: train, eval, synth.

Every flag has a dotted config-file key (``--lr0`` <-> ``train.lr0``) and
a ``PAEFF_`` environment variable (``PAEFF_TRAIN_LR0``); precedence is
flags > environment > config file > defaults. A value is parsed the same
way from each source (``config.parse_value``). Each run writes a manifest
sufficient to reproduce it byte-for-byte with the same BLAS build, which
the manifest records, and the same BLAS thread count, which it does not: 1
and 2 OpenBLAS threads sum in another order and gave checkpoint values up
to 2.6e-7 apart.

train builds its ``ModelConfig`` and ``TrainConfig`` before it reads the
dataset or a split file, as eval builds its ``EvalConfig`` before it reads
the checkpoint, so a malformed model.* or train.* option exits 3 first.

The model.*, train.*, eval.* and synth.* options are the defaulted fields
of four config classes, ``ModelConfig``, ``TrainConfig``, ``EvalConfig``
and ``data.SynthConfig``, with the dataclass defaults; every field of the
four is a flat value, and a field whose default is None takes ``auto``.
The paper's ablation arms are train flags over three of them:

    full           (the defaults)
    baseline       --no-use-hyperbolic --fusion linear --alpha1 0
    egff           --no-use-hyperbolic --alpha1 0
    egff_fa        --no-use-hyperbolic
    no_fa          --alpha1 0
    no_hyperbolic  --no-use-hyperbolic
    linear_fusion  --fusion linear

eval has no model option: it builds its ``ModelConfig`` from the training
manifest's ``config.model`` (``--manifest``, by default the
``manifest.json`` that train writes next to the checkpoint), so each
checkpoint is scored with the model that trained it; a ``config.model``
that lacks a ``ModelConfig`` field or holds any other key exits 2. Its
config file takes ``eval.*`` and ``io.*`` keys only.

AdamW's betas and epsilon, the cosine schedule's floor (0), the orthogonal
projection loss's inter-class weight (1), train's validation trials
(``trainer.VAL_TRIALS``, 200), synth's demographic tags (always written)
and its seen_heard clip fractions (0.15 val, 0.15 test) are constants.
The options that once set them are unknown like any other. synth checks
its options and split sizes by the rules of ``data.SynthConfig`` before
it generates a vector.

Exit codes (0 success, 1 usage, 2 data, 3 numeric or invariant) are one
table in ``paeff.errors``: each kind of fault, its source and the start
of its stderr line.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import Any

from . import __version__, config as cfgmod, data, evaluation, model, trainer
from .config import Option
from .errors import ContractError, DataError, NumericError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


# Help text of the options, which come from the config dataclasses.
HELP = {
    "model.proj_dim": "projection width D",
    "model.gate_activation": "gate activation: tanh|relu",
    "model.attention_combine": "attention-weight combination: multiplication|addition|concatenation",
    "model.use_hyperbolic": "lift projections onto the Poincare ball and align by its distance, not cosine",
    "model.fusion": "fusion arm: egff|linear",
    "model.curvature": "ball curvature c",
    "model.boundary_eps": "ball boundary epsilon",
    "model.tangent_clip": "tangent-norm clip radius before the exp map",
    "train.batch_size": "batch size; 'auto' picks 1024 or 64 at desk scale",
    "train.lr0": "initial learning rate",
    "train.alpha1": "alignment loss weight",
    "train.alpha2": "orthogonal projection loss weight",
    "train.alpha3": "cross entropy loss weight",
    "eval.nc_list": "matching gallery sizes",
    "eval.strata": "demographic strata: random,G,N,A,GNA",
    "eval.max_trials": "verification trials",
    "eval.matching_trials": "matching trials per gallery size",
    "eval.probe_modality": "matching probe modality: voice|face",
    "synth.rho": "cross-modal coupling in [0, 1]",
    "synth.sigma": "per-component noise",
    "synth.val_identities": "held-out val identities (unseen_unheard only); 'auto' holds out "
                            f"{data.UNSEEN_HELD_OUT['val']}",
    "synth.test_identities": "held-out test identities (unseen_unheard only); 'auto' holds out "
                             f"{data.UNSEEN_HELD_OUT['test']}",
}


def _defaults(cls) -> list[tuple[str, Any]]:
    """(name, default) of each field of a config dataclass that has a default."""
    return [(f.name, f.default) for f in fields(cls) if f.default is not MISSING]


def _kind(default: Any) -> str:
    if default is None:
        return "int_or_auto"
    if isinstance(default, tuple):
        return type(default[0]).__name__ + "s"  # ints | strs
    return type(default).__name__  # bool | int | float | str


def _config_options(section: str, cls) -> list[Option]:
    """One option per defaulted field."""
    return [Option(f"{section}.{name}", _kind(default), default, HELP.get(f"{section}.{name}", ""))
            for name, default in _defaults(cls)]


def _build(cls, section: str, resolved: dict, **given):
    """``cls`` from the resolved ``section.*`` keys; ``given`` holds the fields without a default."""
    return cls(**given, **{name: resolved[f"{section}.{name}"] for name, _ in _defaults(cls)})


MODEL_OPTIONS = _config_options("model", model.ModelConfig)
# Every ModelConfig field, as train's manifest records it under config.model.
MODEL_FIELDS = [Option(f"model.{name}", "int", None) for name in ("face_dim", "voice_dim", "num_identities")]
MODEL_FIELDS += MODEL_OPTIONS
TRAIN_OPTIONS = _config_options("train", trainer.TrainConfig)
EVAL_OPTIONS = _config_options("eval", evaluation.EvalConfig)

SPLIT_OPTIONS = [
    Option("io.split_mode", "str", "unseen_unheard", "unseen_unheard|seen_heard"),
    Option("io.split_train", "str", None, "train id-list file"),
    Option("io.split_val", "str", None, "val id-list file"),
    Option("io.split_test", "str", None, "test id-list file"),
]

COMMAND_OPTIONS = {
    "train": MODEL_OPTIONS + TRAIN_OPTIONS + SPLIT_OPTIONS + [
        Option("io.data", "str", None, "fve dataset path"),
        Option("io.out", "str", None, "output directory"),
    ],
    "eval": EVAL_OPTIONS + SPLIT_OPTIONS + [
        Option("io.checkpoint", "str", None, "parameter checkpoint"),
        Option("io.manifest", "str", None,
               "training manifest supplying the model config (default: manifest.json next to --checkpoint)"),
        Option("io.data", "str", None, "fve dataset path"),
        Option("io.trials", "str", None, "external verification trial list (TSV)"),
        Option("io.out", "str", None, "output directory"),
    ],
    "synth": _config_options("synth", data.SynthConfig) + [
        Option("io.out", "str", None, "output directory"),
    ],
}


def _flag_type(opt: Option):
    """argparse's ``type`` for ``opt``: ``parse_value``, whose DataError becomes a usage error."""

    def parse(raw: str):
        try:
            return cfgmod.parse_value(opt, raw)
        except DataError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


def _add_options(parser: argparse.ArgumentParser, options: list[Option]) -> None:
    parser.add_argument("--config", help="key = value config file", default=None)
    for opt in options:
        kind = {"action": argparse.BooleanOptionalAction} if opt.kind == "bool" else {"type": _flag_type(opt)}
        # An absent flag leaves no attribute, so a flag that parses to None ('auto') still wins.
        parser.add_argument(opt.flag, dest=opt.key, default=argparse.SUPPRESS, help=opt.help or None, **kind)


def _resolve(args: argparse.Namespace, options: list[Option]) -> dict:
    known = {opt.key: opt for opt in options}
    file_values = cfgmod.read_config_file(args.config, known) if args.config else {}
    flag_values = {key: value for key, value in vars(args).items() if key in known}
    return cfgmod.resolve(options, flag_values, dict(os.environ), file_values)


def _require(resolved: dict, *keys: str) -> None:
    """Raise a UsageError naming the first of ``keys`` that has no value."""
    for key in keys:
        if resolved[key] is None:
            raise UsageError(f"missing required option {Option(key, 'str', None).flag} (config key {key})")


def _out_dir(resolved: dict) -> Path:
    """The ``io.out`` directory; a path that cannot be one is a data error before any input is read."""
    out_dir = Path(resolved["io.out"])
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise DataError(f"--out {out_dir}: {existing} exists and is not a directory")
    return out_dir


def _split_paths(resolved: dict) -> dict[str, str | None]:
    """The split id-list files by input name; a part whose file is not given is None."""
    return {name: resolved[f"io.{name}"] for name in ("split_train", "split_val", "split_test")}


def _load_split(resolved: dict) -> data.SplitSpec:
    """The split files' ids; a part whose file is not given is empty."""
    return data.SplitSpec(resolved["io.split_mode"], *(
        data.read_split_file(path) if path is not None else frozenset() for path in _split_paths(resolved).values()
    ))


def _trained_model(manifest_path: str) -> model.ModelConfig:
    """The ``ModelConfig`` a training manifest records under ``config.model``."""
    if not Path(manifest_path).is_file():
        raise DataError(f"{manifest_path}: no training manifest there; pass --manifest")
    values = cfgmod.manifest_section(manifest_path, cfgmod.read_manifest(manifest_path), "model", MODEL_FIELDS)
    try:
        return model.ModelConfig(**values)
    except ContractError as e:
        raise DataError(f"{manifest_path}: {e}") from None


def _train_section(tc: trainer.TrainConfig, batch_size: int) -> dict:
    section = asdict(tc)
    section["batch_size"] = tc.batch_size if tc.batch_size is not None else "auto"
    section["batch_size_resolved"] = batch_size
    section["optimizer"] = "adamw"
    section["schedule"] = "cosine"
    return section


# -- commands --------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTIONS["train"])
    _require(resolved, "io.data", "io.out", "io.split_train", "io.split_val", "io.split_test")
    data_path, out_dir = resolved["io.data"], _out_dir(resolved)
    data.check_split_mode(resolved["io.split_mode"])
    train_cfg = _build(trainer.TrainConfig, "train", resolved)
    # Placeholder data fields, so the options are checked before the dataset is read.
    model_cfg = _build(model.ModelConfig, "model", resolved, face_dim=1, voice_dim=1, num_identities=2)

    dataset = data.load_dataset(data_path)
    split = _load_split(resolved)
    split.validate(dataset)  # before the class count: unknown train ids are a data error (2), not a config one (3)
    model_cfg = replace(model_cfg, face_dim=dataset.face_dim, voice_dim=dataset.voice_dim,
                        num_identities=len(split.part_rows(dataset, "train").identities))

    result = trainer.train(dataset, split, model_cfg, train_cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.paef"
    history_path = out_dir / "history.jsonl"
    model.save_checkpoint(checkpoint_path, result.params)
    trainer.write_history_jsonl(history_path, result.history)

    cfgmod.write_manifest(
        out_dir / "manifest.json", "train", train_cfg.seed,
        {"model": asdict(model_cfg), "train": _train_section(train_cfg, result.batch_size)},
        {"data": data_path, **_split_paths(resolved)},
        {"checkpoint": checkpoint_path, "history": history_path},
        digests={"data": dataset.sha256},
        result={"best_epoch": result.best_epoch, "best_val_eer": result.best_val_eer},
    )
    print(f"trained {train_cfg.epochs} epochs; best val EER {result.best_val_eer:.4f} "
          f"at epoch {result.best_epoch}; checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTIONS["eval"])
    _require(resolved, "io.checkpoint", "io.data", "io.out")
    if not resolved["io.trials"] and resolved["io.split_test"] is None:
        raise UsageError("eval needs --trials or --split-test")
    checkpoint_path, data_path, out_dir = resolved["io.checkpoint"], resolved["io.data"], _out_dir(resolved)
    split_name = data.check_split_mode(resolved["io.split_mode"])
    manifest_path = resolved["io.manifest"] or str(Path(checkpoint_path).parent / "manifest.json")
    eval_cfg = _build(evaluation.EvalConfig, "eval", resolved)
    if not Path(checkpoint_path).is_file():  # before the manifest, which is found next to it by default
        raise DataError(f"{checkpoint_path}: no checkpoint there")
    model_cfg = _trained_model(manifest_path)
    params = model.load_checkpoint(checkpoint_path, model_cfg)

    dataset = data.load_dataset(data_path)
    if (dataset.face_dim, dataset.voice_dim) != (model_cfg.face_dim, model_cfg.voice_dim):
        raise DataError(f"{data_path}: face/voice dims {dataset.face_dim}/{dataset.voice_dim} differ from the "
                        f"trained model's {model_cfg.face_dim}/{model_cfg.voice_dim} in {manifest_path}")
    split = None
    if resolved["io.split_test"] is not None:
        split = _load_split(resolved)
        split.validate(dataset)
    if resolved["io.trials"]:
        trials = evaluation.load_trial_list(resolved["io.trials"], dataset)
    else:
        trials = evaluation.build_verification_trials(
            dataset, split, max_trials=eval_cfg.max_trials, seed=eval_cfg.seed
        )

    # Every trial is drawn before any is scored, so a test part too small to match on fails first.
    matching_trials = [] if split is None else [
        evaluation.build_matching_trials(dataset, split, n_c=n_c, n_trials=eval_cfg.matching_trials,
                                         seed=eval_cfg.seed, probe_modality=eval_cfg.probe_modality)
        for n_c in eval_cfg.nc_list
    ]

    evaluation.score_trials(trials, params, model_cfg)
    try:
        strata_rows = evaluation.stratified_report(trials, eval_cfg.strata)
    except NumericError as e:
        where = f"trial list {resolved['io.trials']}" if resolved["io.trials"] else "test split"
        raise NumericError(f"{where}: {e}") from None
    matching_rows = [evaluation.matching_accuracy(m_trials, params, model_cfg) for m_trials in matching_trials]

    out_dir.mkdir(parents=True, exist_ok=True)
    reports = {name: out_dir / name.replace("_", ".") for name in (
        "verification_csv", "verification_json", "matching_csv", "matching_json", "roc_csv")}
    evaluation.write_verification_report(
        reports["verification_csv"], reports["verification_json"], split_name, strata_rows
    )
    evaluation.write_matching_report(reports["matching_csv"], reports["matching_json"], split_name, matching_rows)
    fpr, tpr = evaluation.compute_roc(trials)
    roc_lines = ["fpr,tpr"] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(fpr, tpr)]
    reports["roc_csv"].write_text("\n".join(roc_lines) + "\n", encoding="utf-8")

    cfgmod.write_manifest(
        out_dir / "manifest.json", "eval", eval_cfg.seed, {"model": asdict(model_cfg), "eval": asdict(eval_cfg)},
        {"checkpoint": checkpoint_path, "data": data_path, "trials": resolved["io.trials"],
         "train_manifest": manifest_path, **_split_paths(resolved)},
        reports,
        digests={"data": dataset.sha256},
    )
    for row in strata_rows:
        print(f"verification[{row.stratum}]: n={row.n_trials} EER={row.eer:.4f} AUC={row.auc:.4f}")
    for row in matching_rows:
        print(f"matching[n_c={row.n_c}]: n={row.n_trials} accuracy={row.accuracy:.4f} ties={row.tie_count}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTIONS["synth"])
    _require(resolved, "io.out")
    out_dir = _out_dir(resolved)

    synth_cfg = _build(data.SynthConfig, "synth", resolved)
    dataset, split = synth_cfg.draw()

    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.fve"
    data.write_dataset(data_path, dataset)
    data.write_split_file(out_dir / "train.ids", split.train_ids)
    data.write_split_file(out_dir / "val.ids", split.val_ids)
    data.write_split_file(out_dir / "test.ids", split.test_ids)

    cfgmod.write_manifest(
        out_dir / "manifest.json", "synth", synth_cfg.seed,
        {"synth": {**{k: v for k, v in asdict(synth_cfg).items() if v is not None}, **synth_cfg.held_out}},
        {},
        {"data": data_path, "split_train": out_dir / "train.ids", "split_val": out_dir / "val.ids",
         "split_test": out_dir / "test.ids"},
    )
    print(f"wrote {len(dataset)} records to {data_path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="paeff", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"paeff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(name, help=f"{name} subcommand")
        _add_options(p, options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        handler = {
            "train": cmd_train,
            "eval": cmd_eval,
            "synth": cmd_synth,
        }[args.command]
        return handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericError, ContractError) as e:
        print(f"numeric/invariant error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
