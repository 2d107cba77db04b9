"""Layered run configuration and the run manifest.

Every CLI flag has a dotted config-file key and a PAEFF_ environment
variable; precedence is flags > environment > config file > built-in
defaults. ``write_manifest`` writes the record a run is reproduced from,
and ``read_manifest`` with ``manifest_section`` read a section of its
``config`` back: each of its options, checked against the option's kind,
and no other key.

The config file is a flat key = value format: comments start with '#',
lists are comma-separated, strings may be double-quoted. Text that is not
UTF-8, a key set twice and a manifest value of the wrong kind are a DataError.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .errors import DataError


@dataclass(frozen=True)
class Option:
    key: str  # dotted config key, e.g. "train.lr0"
    kind: str  # int | int_or_auto | float | str | bool | ints | strs
    default: Any
    help: str = ""

    @property
    def env_name(self) -> str:
        return "PAEFF_" + self.key.upper().replace(".", "_")

    @property
    def flag(self) -> str:
        return "--" + self.key.split(".", 1)[1].replace("_", "-").replace(".", "-")


def parse_value(option: Option, raw: str) -> Any:
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        raw = raw[1:-1]
    try:
        if option.kind == "int":
            return int(raw)
        if option.kind == "int_or_auto":
            return None if raw.lower() == "auto" else int(raw)
        if option.kind == "float":
            return float(raw)
        if option.kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if option.kind == "ints":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if option.kind == "strs":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        return raw
    except ValueError as e:
        raise DataError(f"bad value for {option.key}: {e}") from None


def parse_json_value(option: Option, value: Any) -> Any:
    """A value read from a JSON manifest, checked against ``option.kind``.

    Only a "str" option takes a JSON string; the other kinds take the JSON
    scalar that spells them (``4``, ``0.5``, ``true``).
    """
    if isinstance(value, (list, dict)) or value is None or isinstance(value, str) != (option.kind == "str"):
        raise DataError(f"bad value for {option.key}: {value!r} is not a {option.kind}")
    return parse_value(option, value if isinstance(value, str) else json.dumps(value))


def read_text(path) -> str:
    """The UTF-8 text of ``path``; bytes that are not UTF-8 are a DataError."""
    return decode_text(path, Path(path).read_bytes())


def decode_text(path, raw: bytes) -> str:
    """``raw``, the bytes read from ``path``, as UTF-8 text; bytes that are not UTF-8 are a DataError."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from None


def read_config_file(path, known: dict[str, Option]) -> dict[str, Any]:
    values: dict[str, tuple[int, Any]] = {}  # each key's line and value
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in known:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise DataError(f"{path}:{lineno}: config key {key!r} is already set on line {values[key][0]}")
        values[key] = (lineno, parse_value(known[key], raw))
    return {key: value for key, (_, value) in values.items()}


def resolve(
    options: list[Option],
    flag_values: dict[str, Any],
    environ: dict[str, str],
    file_values: dict[str, Any],
) -> dict[str, Any]:
    """Layered lookup per option; a flag given (a key of ``flag_values``) wins,
    then env, then config file, then the built-in default."""
    resolved: dict[str, Any] = {}
    for opt in options:
        if opt.key in flag_values:
            resolved[opt.key] = flag_values[opt.key]
        elif opt.env_name in environ:
            resolved[opt.key] = parse_value(opt, environ[opt.env_name])
        elif opt.key in file_values:
            resolved[opt.key] = file_values[opt.key]
        else:
            resolved[opt.key] = opt.default
    return resolved


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_versions() -> dict[str, Any]:
    """The Python, numpy and BLAS a run used; ``blas`` is None where numpy cannot name it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def write_manifest(
    path, command: str, seed: int, config: dict, inputs: dict, outputs: dict, *, digests: dict | None = None,
    **extra,
) -> None:
    """Write the manifest of one ``command`` run to ``path`` as sorted, indented JSON.

    ``inputs`` and ``outputs`` map a name to a path. Each input that is not
    None is recorded with its sha256: the one ``digests`` gives for that
    name (the digest of the bytes the run parsed), or else that of the
    file as it is now. The manifest's own path joins the outputs.
    ``extra`` keys (train's ``result``) join the top level.
    """
    digests = digests or {}
    manifest = {
        "command": command,
        "tool": {"name": "paeff", "version": __version__},
        "run": _run_versions(),
        "seed": seed,
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": digests.get(name) or sha256_file(p)}
            for name, p in inputs.items() if p is not None
        },
        "outputs": {name: str(p) for name, p in {**outputs, "manifest": path}.items()},
        **extra,
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    """The decoded manifest at ``path``; text that is not a JSON object is a DataError."""
    try:
        manifest = json.loads(read_text(path))
    except ValueError as e:
        raise DataError(f"{path}: not a valid manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: a manifest must be a JSON object")
    return manifest


def manifest_section(path, manifest: dict, section: str, options: list[Option]) -> dict[str, Any]:
    """The ``config.<section>`` value of each option in ``manifest``, read from ``path``, keyed by field name.

    Each option must be present and of its kind, and no other key may be.
    Every fault is a DataError that names ``path``.
    """
    config = manifest.get("config", {})
    values = config.get(section, {}) if isinstance(config, dict) else None
    if not isinstance(values, dict):
        raise DataError(f"{path}: config.{section} must be a JSON object")
    out = {}
    for opt in options:
        name = opt.key.split(".", 1)[1]
        if name not in values:
            raise DataError(f"{path}: config.{section} has no {name}")
        try:
            out[name] = parse_json_value(opt, values[name])
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
    unknown = sorted(values.keys() - out.keys())
    if unknown:
        raise DataError(f"{path}: config.{section} has unknown key {unknown[0]!r}")
    return out
