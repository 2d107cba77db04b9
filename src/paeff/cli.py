"""Command-line entry point: train, eval, synth, selfcheck.

Every flag has a dotted config-file key (``--lr0`` <-> ``train.lr0``) and
a ``PAEFF_`` environment variable (``PAEFF_TRAIN_LR0``); precedence is
flags > environment > config file > defaults. Each run writes a manifest
sufficient to reproduce it byte-for-byte.

The model.*, train.* and eval.* options are the defaulted fields of
``ModelConfig``, ``TrainConfig`` (its ``LossWeights`` flattened to
``alpha1..3``) and ``EvalConfig``, with the dataclass defaults. ``--ablation``
is a preset over them: once options are resolved it overwrites
``use_hyperbolic``, ``similarity``, ``fusion`` and ``alpha1``, so the
manifest's config describes the model that was trained.

For eval, a ``--manifest``'s model values and then the checkpoint's own
shapes (``proj_dim``, and ``concatenation`` when it holds ``combine_weight``)
stand between the config file and the defaults; an option that disagrees
with the checkpoint exits 2.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric/invariant
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from . import __version__, config as cfgmod, data, evaluation, model, selfcheck, trainer
from .config import Option
from .errors import (
    ContractError,
    DataError,
    DimensionError,
    IndexOutOfRangeError,
    NumericError,
    PaeffError,
    ParseError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


# Help text of the model/train/eval options, which come from the config dataclasses.
HELP = {
    "model.proj_dim": "projection width D",
    "model.gate_activation": "gate activation: tanh|relu",
    "model.attention_combine": "attention-weight combination: multiplication|addition|concatenation",
    "model.use_hyperbolic": "lift projections onto the Poincare ball",
    "model.similarity": "alignment similarity: neg_hyperbolic_distance|cosine",
    "model.fusion": "fusion arm: egff|linear",
    "model.curvature": "ball curvature c",
    "model.boundary_eps": "ball boundary epsilon",
    "model.tangent_clip": "tangent-norm clip radius before the exp map",
    "train.batch_size": "batch size; 'auto' picks 1024 or 64 at desk scale",
    "train.lr0": "initial learning rate",
    "train.alpha1": "alignment loss weight",
    "train.alpha2": "orthogonal projection loss weight",
    "train.alpha3": "cross entropy loss weight",
    "train.op_inter_weight": "weight of the inter-class |cos| term",
    "train.val_trials": "validation verification trials per epoch",
    "eval.nc_list": "matching gallery sizes",
    "eval.strata": "demographic strata: random,G,N,A,GNA",
    "eval.max_trials": "verification trials",
    "eval.matching_trials": "matching trials per gallery size",
    "eval.probe_modality": "matching probe modality: voice|face",
}


def _defaults(cls) -> Iterator[tuple[str, Any]]:
    """(name, default) of each field of a config dataclass that has a default."""
    for f in fields(cls):
        if f.default is not MISSING:
            yield f.name, f.default
        elif f.default_factory is not MISSING:
            yield f.name, f.default_factory()


def _kind(default: Any) -> str:
    if default is None:
        return "int_or_auto"
    if isinstance(default, tuple):
        return type(default[0]).__name__ + "s"  # ints | strs
    return type(default).__name__  # bool | int | float | str


def _config_options(section: str, cls) -> list[Option]:
    """One option per defaulted field; a nested config's fields join the section flat."""
    options = []
    for name, default in _defaults(cls):
        if is_dataclass(default):
            options += _config_options(section, type(default))
        else:
            key = f"{section}.{name}"
            options.append(Option(key, _kind(default), default, HELP.get(key, "")))
    return options


def _build(cls, section: str, resolved: dict, **given):
    """``cls`` from the resolved ``section.*`` keys; ``given`` holds the fields without a default."""
    for name, default in _defaults(cls):
        given[name] = (
            _build(type(default), section, resolved) if is_dataclass(default) else resolved[f"{section}.{name}"]
        )
    return cls(**given)


MODEL_OPTIONS = _config_options("model", model.ModelConfig)
TRAIN_OPTIONS = _config_options("train", trainer.TrainConfig) + [
    Option("train.ablation", "str", "full",
           "full|baseline|egff|egff_fa or '+'-joined flags (no_fa, no_hyperbolic, linear_fusion)"),
]
EVAL_OPTIONS = _config_options("eval", evaluation.EvalConfig)

# What each --ablation flag overwrites once options are resolved, so an
# ablation wins over an explicit flag.
ABLATION_FLAGS = {
    "no_fa": {"train.alpha1": 0.0},
    "no_hyperbolic": {"model.use_hyperbolic": False, "model.similarity": "cosine"},
    "linear_fusion": {"model.fusion": "linear"},
}
ABLATION_ALIASES = {
    "full": (),
    "baseline": tuple(ABLATION_FLAGS),
    "egff": ("no_fa", "no_hyperbolic"),
    "egff_fa": ("no_hyperbolic",),
}

SPLIT_OPTIONS = [
    Option("io.split_mode", "str", "unseen_unheard", "unseen_unheard|seen_heard"),
    Option("io.split_train", "str", None, "train id-list file"),
    Option("io.split_val", "str", None, "val id-list file"),
    Option("io.split_test", "str", None, "test id-list file"),
]

SYNTH_OPTIONS = [
    Option("synth.identities", "int", 32),
    Option("synth.samples_per_id", "int", 20),
    Option("synth.face_dim", "int", 96),
    Option("synth.voice_dim", "int", 80),
    Option("synth.rho", "float", 1.0, "cross-modal coupling in [0, 1]"),
    Option("synth.sigma", "float", 0.1, "per-component noise"),
    Option("synth.latent_dim", "int", 16),
    Option("synth.seed", "int", 0),
    Option("synth.demographics", "bool", True, "attach synthetic demographic tags"),
    Option("synth.split_mode", "str", "unseen_unheard"),
    Option("synth.val_identities", "int", 4, "held-out val identities (unseen_unheard)"),
    Option("synth.test_identities", "int", 8, "held-out test identities (unseen_unheard)"),
    Option("synth.val_frac", "float", 0.15, "val clip fraction (seen_heard)"),
    Option("synth.test_frac", "float", 0.15, "test clip fraction (seen_heard)"),
]

COMMAND_OPTIONS = {
    "train": MODEL_OPTIONS + TRAIN_OPTIONS + SPLIT_OPTIONS + [
        Option("io.data", "str", None, "fve dataset path"),
        Option("io.out", "str", None, "output directory"),
    ],
    "eval": MODEL_OPTIONS + EVAL_OPTIONS + SPLIT_OPTIONS + [
        Option("io.checkpoint", "str", None, "parameter checkpoint"),
        Option("io.manifest", "str", None, "training manifest supplying model config"),
        Option("io.data", "str", None, "fve dataset path"),
        Option("io.trials", "str", None, "external verification trial list (TSV)"),
        Option("io.out", "str", None, "output directory"),
    ],
    "synth": SYNTH_OPTIONS + [
        Option("io.out", "str", None, "output directory"),
    ],
    "selfcheck": [],
}


def _add_options(parser: argparse.ArgumentParser, options: list[Option]) -> None:
    parser.add_argument("--config", help="key = value config file", default=None)
    for opt in options:
        kwargs: dict = {"dest": opt.key, "default": None, "help": opt.help or None}
        if opt.kind == "int":
            kwargs["type"] = int
        elif opt.kind == "float":
            kwargs["type"] = float
        elif opt.kind == "bool":
            kwargs["action"] = argparse.BooleanOptionalAction
        else:  # str, ints, strs, int_or_auto arrive as raw strings
            kwargs["type"] = str
        parser.add_argument(opt.flag, **kwargs)


def _resolve(args: argparse.Namespace, options: list[Option], fallback: dict | None = None) -> dict:
    known = {opt.key: opt for opt in options}
    file_values = cfgmod.read_config_file(args.config, known) if args.config else {}
    flag_values = {}
    for opt in options:
        raw = getattr(args, opt.key, None)
        if raw is None:
            continue
        flag_values[opt.key] = (
            cfgmod.parse_value(opt, raw) if opt.kind in ("ints", "strs", "int_or_auto") and isinstance(raw, str) else raw
        )
    return cfgmod.resolve(options, flag_values, dict(os.environ), file_values, fallback)


def _require(resolved: dict, key: str) -> str:
    value = resolved.get(key)
    if value is None:
        flag = "--" + key.split(".", 1)[1].replace("_", "-")
        raise UsageError(f"missing required option {flag} (config key {key})")
    return value


def _load_split(resolved: dict, require_train: bool = True) -> data.SplitSpec:
    def ids(key: str, required: bool) -> frozenset[str]:
        path = resolved.get(key)
        if path is None:
            if required:
                raise UsageError(f"missing required option --{key.split('.', 1)[1].replace('_', '-')}")
            return frozenset()
        return data.read_split_file(path)

    return data.SplitSpec(
        mode=resolved["io.split_mode"],
        train_ids=ids("io.split_train", require_train),
        val_ids=ids("io.split_val", require_train),
        test_ids=ids("io.split_test", True),
    )


def _apply_ablation(resolved: dict) -> None:
    """Overwrite the options an ablation spec ('baseline', 'no_fa+linear_fusion', ...) stands for."""
    spec = resolved["train.ablation"].strip()
    tokens = ABLATION_ALIASES[spec] if spec in ABLATION_ALIASES else [t.strip() for t in spec.split("+")]
    for token in tokens:
        if token not in ABLATION_FLAGS:
            raise ContractError(
                f"unknown ablation {token!r}; use {sorted(ABLATION_ALIASES)} or "
                f"'+'-joined flags from {tuple(ABLATION_FLAGS)}"
            )
        resolved.update(ABLATION_FLAGS[token])


def _digest_inputs(paths: dict[str, str | None]) -> dict[str, dict[str, str]]:
    return {
        name: {"path": str(p), "sha256": cfgmod.sha256_file(p)}
        for name, p in paths.items()
        if p is not None
    }


def _train_section(tc: trainer.TrainConfig, batch_size: int, ablation: str) -> dict:
    section = asdict(tc)
    weights = section.pop("loss_weights")
    section.update(weights)
    section["ablation"] = ablation
    section["batch_size"] = tc.batch_size if tc.batch_size is not None else "auto"
    section["batch_size_resolved"] = batch_size
    section["optimizer"] = "adamw"
    section["schedule"] = "cosine"
    return section


# -- commands --------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTIONS["train"])
    _apply_ablation(resolved)
    data_path = _require(resolved, "io.data")
    out_dir = Path(_require(resolved, "io.out"))

    dataset = data.load_dataset(data_path)
    split = _load_split(resolved)
    split.validate(dataset)
    num_identities = len(data.group_by_identity(split.part_records(dataset, "train")))
    model_cfg = _build(model.ModelConfig, "model", resolved, face_dim=dataset.face_dim,
                       voice_dim=dataset.voice_dim, num_identities=num_identities)
    train_cfg = _build(trainer.TrainConfig, "train", resolved)

    result = trainer.train(dataset, split, model_cfg, train_cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.paef"
    history_path = out_dir / "history.jsonl"
    manifest_path = out_dir / "manifest.json"
    model.save_checkpoint(checkpoint_path, result.params)
    trainer.write_history_jsonl(history_path, result.history)

    manifest = {
        "command": "train",
        "tool": {"name": "paeff", "version": __version__},
        "seed": train_cfg.seed,
        "config": {
            "model": asdict(model_cfg),
            "train": _train_section(train_cfg, result.batch_size, resolved["train.ablation"]),
        },
        "inputs": _digest_inputs(
            {
                "data": data_path,
                "split_train": resolved["io.split_train"],
                "split_val": resolved["io.split_val"],
                "split_test": resolved["io.split_test"],
            }
        ),
        "outputs": {
            "checkpoint": str(checkpoint_path),
            "history": str(history_path),
            "manifest": str(manifest_path),
        },
        "result": {
            "best_epoch": result.best_epoch,
            "best_val_eer": result.best_val_eer,
        },
    }
    cfgmod.write_manifest(manifest_path, manifest)
    print(f"trained {train_cfg.epochs} epochs; best val EER {result.best_val_eer:.4f} "
          f"at epoch {result.best_epoch}; checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    pre = _resolve(args, COMMAND_OPTIONS["eval"])
    checkpoint_path = _require(pre, "io.checkpoint")
    arrays = model.load_checkpoint_arrays(checkpoint_path)
    for name in ("face_weight", "voice_weight", "cls_weight"):
        if name not in arrays or arrays[name].ndim != 2:
            raise DataError(f"{checkpoint_path}: checkpoint has no {name} matrix")
    face_dim, proj_dim = arrays["face_weight"].shape
    voice_dim = arrays["voice_weight"].shape[0]
    num_identities = arrays["cls_weight"].shape[1]

    # Below flags/env/config in precedence: the manifest, then what the
    # checkpoint's shapes tell, then defaults. A higher layer that disagrees
    # with the checkpoint fails load_checkpoint's name or shape check.
    fallback = {"model.proj_dim": proj_dim}
    if "combine_weight" in arrays:
        fallback["model.attention_combine"] = "concatenation"
    if pre["io.manifest"]:
        known = {opt.key: opt for opt in MODEL_OPTIONS}
        fallback.update(cfgmod.read_manifest_section(pre["io.manifest"], "model", known))
    resolved = _resolve(args, COMMAND_OPTIONS["eval"], fallback)

    data_path = _require(resolved, "io.data")
    out_dir = Path(_require(resolved, "io.out"))
    eval_cfg = _build(evaluation.EvalConfig, "eval", resolved)
    model_cfg = _build(model.ModelConfig, "model", resolved, face_dim=face_dim, voice_dim=voice_dim,
                       num_identities=num_identities)
    params = model.load_checkpoint(checkpoint_path, model_cfg)

    dataset = data.load_dataset(data_path)
    split = None
    if resolved["io.split_test"] is not None:
        split = _load_split(resolved, require_train=False)
        split.validate(dataset)
    if resolved["io.trials"]:
        trials = evaluation.load_trial_list(resolved["io.trials"], dataset)
    elif split is not None:
        trials = evaluation.build_verification_trials(
            dataset, split, max_trials=eval_cfg.max_trials, seed=eval_cfg.seed
        )
    else:
        raise UsageError("eval needs --trials or --split-test")

    evaluation.score_trials(trials, params, model_cfg)
    strata_rows = evaluation.stratified_report(trials, eval_cfg.strata)

    matching_rows = []
    if split is not None:
        for n_c in eval_cfg.nc_list:
            m_trials = evaluation.build_matching_trials(
                dataset, split, n_c=n_c, n_trials=eval_cfg.matching_trials,
                seed=eval_cfg.seed, probe_modality=eval_cfg.probe_modality,
            )
            matching_rows.append(evaluation.matching_accuracy(m_trials, params, model_cfg))

    out_dir.mkdir(parents=True, exist_ok=True)
    split_name = resolved["io.split_mode"]
    evaluation.write_verification_report(
        out_dir / "verification.csv", out_dir / "verification.json", split_name, strata_rows
    )
    evaluation.write_matching_report(
        out_dir / "matching.csv", out_dir / "matching.json", split_name, matching_rows
    )
    scores = np.array([t.score for t in trials])
    labels = np.array([t.is_match for t in trials], dtype=bool)
    fpr, tpr = evaluation.roc_points(scores, labels)
    roc_lines = ["fpr,tpr"] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(fpr, tpr)]
    (out_dir / "roc.csv").write_text("\n".join(roc_lines) + "\n", encoding="utf-8")

    manifest = {
        "command": "eval",
        "tool": {"name": "paeff", "version": __version__},
        "seed": eval_cfg.seed,
        "config": {"model": asdict(model_cfg), "eval": asdict(eval_cfg)},
        "inputs": _digest_inputs(
            {
                "checkpoint": checkpoint_path,
                "data": data_path,
                "trials": resolved["io.trials"],
                "split_train": resolved["io.split_train"],
                "split_val": resolved["io.split_val"],
                "split_test": resolved["io.split_test"],
                "train_manifest": resolved["io.manifest"],
            }
        ),
        "outputs": {
            "verification_csv": str(out_dir / "verification.csv"),
            "verification_json": str(out_dir / "verification.json"),
            "matching_csv": str(out_dir / "matching.csv"),
            "matching_json": str(out_dir / "matching.json"),
            "roc_csv": str(out_dir / "roc.csv"),
            "manifest": str(out_dir / "manifest.json"),
        },
    }
    cfgmod.write_manifest(out_dir / "manifest.json", manifest)
    for row in strata_rows:
        print(f"verification[{row.stratum}]: n={row.n_trials} EER={row.eer:.4f} AUC={row.auc:.4f}")
    for row in matching_rows:
        print(f"matching[n_c={row.n_c}]: n={row.n_trials} accuracy={row.accuracy:.4f} ties={row.tie_count}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTIONS["synth"])
    out_dir = Path(_require(resolved, "io.out"))

    dataset = data.synth_generate(
        num_identities=resolved["synth.identities"],
        samples_per_id=resolved["synth.samples_per_id"],
        face_dim=resolved["synth.face_dim"],
        voice_dim=resolved["synth.voice_dim"],
        cross_modal_coupling=resolved["synth.rho"],
        noise=resolved["synth.sigma"],
        seed=resolved["synth.seed"],
        latent_dim=resolved["synth.latent_dim"],
        demographics=resolved["synth.demographics"],
    )
    if resolved["synth.split_mode"] == "seen_heard":
        split = data.make_seen_split(
            dataset, resolved["synth.val_frac"], resolved["synth.test_frac"], resolved["synth.seed"]
        )
    else:
        split = data.make_unseen_split(
            dataset,
            n_val=resolved["synth.val_identities"],
            n_test=resolved["synth.test_identities"],
            seed=resolved["synth.seed"],
        )
    split.validate(dataset)

    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.fve"
    data.write_dataset(data_path, dataset)
    data.write_split_file(out_dir / "train.ids", split.train_ids)
    data.write_split_file(out_dir / "val.ids", split.val_ids)
    data.write_split_file(out_dir / "test.ids", split.test_ids)

    manifest = {
        "command": "synth",
        "tool": {"name": "paeff", "version": __version__},
        "seed": resolved["synth.seed"],
        "config": {"synth": {k.split(".", 1)[1]: v for k, v in resolved.items() if k.startswith("synth.")}},
        "inputs": {},
        "outputs": {
            "data": str(data_path),
            "split_train": str(out_dir / "train.ids"),
            "split_val": str(out_dir / "val.ids"),
            "split_test": str(out_dir / "test.ids"),
            "manifest": str(out_dir / "manifest.json"),
        },
    }
    cfgmod.write_manifest(out_dir / "manifest.json", manifest)
    print(f"wrote {len(dataset)} records to {data_path}")
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    results = selfcheck.run_all()
    for r in results:
        line = f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}"
        print(line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants hold")
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="paeff", description=__doc__)
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
            "selfcheck": cmd_selfcheck,
        }[args.command]
        return handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ParseError, DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericError, ContractError, DimensionError, IndexOutOfRangeError) as e:
        print(f"numeric/invariant error: {e}", file=sys.stderr)
        return 3
    except PaeffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
