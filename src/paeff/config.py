"""Layered run configuration and the run manifest.

Every CLI flag has a dotted config-file key and a PAEFF_ environment
variable; precedence is flags > environment > config file > (for eval,
the training manifest, then the checkpoint's shapes) > built-in defaults.
The config file is a flat key = value format: comments start with '#',
lists are comma-separated, strings may be double-quoted. Text that is not
UTF-8, and a manifest value of the wrong kind, are a ParseError.
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


def parse_json_value(option: Option, value: Any) -> Any:
    """A value read from a JSON manifest, checked against ``option.kind``.

    Only a "str" option takes a JSON string; the other kinds take the JSON
    scalar that spells them (``4``, ``0.5``, ``true``).
    """
    if isinstance(value, (list, dict)) or value is None or isinstance(value, str) != (option.kind == "str"):
        raise ParseError(f"bad value for {option.key}: {value!r} is not a {option.kind}")
    return parse_value(option, value if isinstance(value, str) else json.dumps(value))


def read_text(path) -> str:
    """The UTF-8 text of ``path``; bytes that are not UTF-8 are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None


def read_config_file(path, known: dict[str, Option]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
    then config file, then an optional fallback layer (for eval, the
    manifest over the checkpoint's shapes), then the built-in default."""
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


def read_manifest_section(path, section: str, known: dict[str, Option]) -> dict[str, Any]:
    """The manifest's ``config.<section>`` values that name a known option, keyed ``section.name``.

    Other keys (``model.face_dim``, say) are skipped; each kept value is
    checked against its option's kind.
    """
    try:
        manifest = json.loads(read_text(path))
    except ValueError as e:
        raise ParseError(f"{path}: not a valid manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: a manifest must be a JSON object")
    config = manifest.get("config", {})
    values = config.get(section, {}) if isinstance(config, dict) else None
    if not isinstance(values, dict):
        raise ParseError(f"{path}: config.{section} must be a JSON object")
    out = {}
    for name, value in values.items():
        key = f"{section}.{name}"
        if key in known:
            out[key] = parse_json_value(known[key], value)
    return out
