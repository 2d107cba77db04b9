"""Exception taxonomy shared across the package, with the CLI's exit codes.

``ParseError`` (a file does not parse) and ``DataError`` (split or dataset
content breaks an invariant: an identity missing a modality, a part too
small for its trials, dims that differ from the trained model's) exit 2.
``ContractError`` (a caller broke a documented precondition: a shape, an
index range, a dtype, an option value) and ``NumericError`` exit 3.
``PaeffError`` is their base, never raised itself; usage errors exit 1.
"""


class PaeffError(Exception):
    """Base class for all package errors."""


class ContractError(PaeffError):
    """A documented precondition was violated by the caller."""


class NumericError(PaeffError):
    """A value is non-finite or outside its numeric domain."""


class DataError(PaeffError):
    """Dataset or split content violates an invariant (missing modality, bad dims)."""


class ParseError(PaeffError):
    """A file could not be parsed; message carries the line number."""
