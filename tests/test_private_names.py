"""No module of ``paeff`` imports or reads another module's private (``_``-prefixed) name.

A source scan of ``src/paeff``, with the alias handling of
``test_autodiff_callers``: a private name counts when a module imports it
from another paeff module (``from .hyperbolic import _x``) or reads it as
an attribute of a paeff module it imported (``hyp._x`` after
``from . import hyperbolic as hyp``). Dunder names, such as
``__version__``, are not private.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "paeff"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(tree: ast.Module) -> list[str]:
    """``module.name`` of each private name that ``tree`` imports from, or reads off, another paeff module."""
    modules, found = {}, []  # the name an import binds to a paeff module, and that module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "paeff"):
            source = (node.module or "paeff").split(".")[-1]
            for a in node.names:
                if source == "paeff":  # from . import hyperbolic as hyp
                    modules[a.asname or a.name] = a.name
                elif is_private(a.name):  # from .hyperbolic import _x
                    found.append(f"{source}.{a.name}")
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name.split(".")[-1]) for a in node.names
                           if a.name.startswith("paeff.") and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if is_private(node.attr):
                found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_name():
    reads = {p.name: private_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_scan_finds_every_form_of_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import paeff.model as pm\n"
        "from . import __version__, hyperbolic as hyp\n"
        "from paeff import data\n"
        "from .losses import _softmax, similarity_arm\n"
        "cfg = hyp._same_config(a, b)\n"
        "rows, table = data._selected, hyp.distance_table\n"
        "pm._private(x.__class__, x._own)\n"
    )
    assert sorted(private_reads(tree)) == ["data._selected", "hyperbolic._same_config", "losses._softmax",
                                           "model._private"]
