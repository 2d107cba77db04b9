"""Exception taxonomy shared across the package: one class per kind of fault, with its CLI exit code.

- ``DataError``, exit 2: an input does not parse (a config key set twice),
  or its content breaks an invariant (a split id the dataset lacks, an
  identity missing a modality, a part too small for its trials, dims that
  differ from the trained model's). The CLI gives any ``OSError`` the same code.
- ``ContractError``, exit 3: a caller broke a documented precondition (a
  shape, an index range, a dtype, an option value such as a negative seed).
- ``NumericError``, exit 3: a value is non-finite or outside its domain; kept
  apart so that a caller can label it with its input (a ``.fve`` line, a checkpoint).

``PaeffError`` is their base, never raised itself; usage errors exit 1.
``check_rules`` checks a config dataclass against its table of rules.
"""


class PaeffError(Exception):
    """Base class for all package errors."""


class ContractError(PaeffError):
    """A documented precondition was violated by the caller."""


class NumericError(PaeffError):
    """A value is non-finite or outside its numeric domain."""


class DataError(PaeffError):
    """An input does not parse or breaks an invariant; a parse fault's message carries the line number."""


def check_rules(config, rules) -> None:
    """Raise a ContractError "<field> must be <rule>, got <value>" at the first ``(field, holds, rule)`` that fails."""
    for name, holds, rule in rules:
        if not holds:
            raise ContractError(f"{name} must be {rule}, got {getattr(config, name)!r}")
