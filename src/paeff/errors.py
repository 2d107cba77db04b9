"""Exception taxonomy shared across the package: one class per kind of fault, with its CLI exit code.

``PaeffError`` is the base of the three classes, never raised itself;
``check_rules`` checks a config dataclass against its table of rules. The
table below is the exit-code contract of ``paeff``. ``cli.main`` has one
``except`` clause per code and prints one stderr line, "<kind> error:
<message>": 1 is a ``cli.UsageError`` ("usage error:"), 2 a ``DataError``
or ``OSError`` ("data error:"), 3 a ``ContractError`` or ``NumericError``
("numeric/invariant error:"). A run that succeeds exits 0.

====  ===============================================  =====================  ===================================
exit  fault                                            source                 message starts with
====  ===============================================  =====================  ===================================
1     unknown flag, a removed option's too             command line           unrecognized arguments
1     flag value that does not parse                   command line           argument --<flag>
1     required option that no source gives             any                    missing required option, eval needs
2     value that does not parse                        PAEFF_ variable, file  bad value for <key>
2     unknown or repeated key, a removed option's too  config file            <path>:<line>:
2     bytes that do not parse, a truncated or foreign  any input file         <path>: (<path>:<line>: on a line)
      checkpoint, a manifest that is no JSON object
2     a split id the dataset lacks, a train identity   split, dataset,        (varies)
      missing a modality, a part too small for its     manifest
      trials, dims or a model unlike the trained one
2     path that cannot be read or written              any path, --out        (varies)
3     option value outside its rule                    any                    <field> must be <rule>, mostly
3     non-finite vector or parameter                   .fve, checkpoint       <path>:
3     non-finite step loss or lifted input, tied       training               training diverged at step <n>:
      alignment similarities
3     tied validation scores                           training               validation split, epoch <n>:
3     tied or non-finite test scores                   eval                   test split: or trial list <path>:
====  ===============================================  =====================  ===================================

A ``PAEFF_`` variable that names no option is never read. Options are
checked before the dataset, a split file or a checkpoint is read.
"""


class PaeffError(Exception):
    """Base class for all package errors."""


class ContractError(PaeffError):
    """A documented precondition was violated by the caller."""


class NumericError(PaeffError):
    """A value is non-finite or outside its numeric domain; a caller can label it with its input."""


class DataError(PaeffError):
    """An input does not parse or breaks an invariant; a parse fault's message carries the line number."""


def check_rules(config, rules) -> None:
    """Raise a ContractError "<field> must be <rule>, got <value>" at the first ``(field, holds, rule)`` that fails."""
    for name, holds, rule in rules:
        if not holds:
            raise ContractError(f"{name} must be {rule}, got {getattr(config, name)!r}")
