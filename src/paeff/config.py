"""Layered run configuration and the run manifest.

Every CLI flag has a dotted config-file key and a PAEFF_ environment
variable; precedence is flags > environment > config file > (manifest,
for eval) > built-in defaults. The config file is a flat key = value
format: comments start with '#', lists are comma-separated, strings may
be double-quoted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ParseError


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
        raise ParseError(f"bad value for {option.key}: {e}") from None


def read_config_file(path, known: dict[str, Option]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in known:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = parse_value(known[key], raw)
    return values


def resolve(
    options: list[Option],
    flag_values: dict[str, Any],
    environ: dict[str, str],
    file_values: dict[str, Any],
    fallback_values: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Layered lookup per option; flag (if explicitly set) wins, then env,
    then config file, then an optional fallback layer (eval manifests),
    then the built-in default."""
    resolved: dict[str, Any] = {}
    fallback_values = fallback_values or {}
    for opt in options:
        if opt.key in flag_values and flag_values[opt.key] is not None:
            resolved[opt.key] = flag_values[opt.key]
        elif opt.env_name in environ:
            resolved[opt.key] = parse_value(opt, environ[opt.env_name])
        elif opt.key in file_values:
            resolved[opt.key] = file_values[opt.key]
        elif opt.key in fallback_values:
            resolved[opt.key] = fallback_values[opt.key]
        else:
            resolved[opt.key] = opt.default
    return resolved


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not a valid manifest: {e}") from None
