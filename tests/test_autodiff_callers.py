"""Every public name of ``paeff.autodiff`` has a caller in the program or the benchmark.

A source scan: a name counts as used when a module of ``src/paeff`` other
than ``autodiff`` and ``selfcheck``, or a module of ``bench/``, reads it as
an attribute of the imported ``autodiff`` module or imports it from there.
An op that only tests and selfcheck call belongs in the tests.
"""

import ast
from pathlib import Path

from paeff import autodiff

ROOT = Path(__file__).resolve().parent.parent
NOT_CALLERS = {"autodiff.py", "selfcheck.py"}


def autodiff_names_used(path: Path) -> set[str]:
    """Names ``path`` takes from ``autodiff``: ``from .autodiff import x`` and ``ad.x`` after ``import ... as ad``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "autodiff":
                used.update(a.name for a in node.names)
            else:
                aliases.update(a.asname or a.name for a in node.names if a.name == "autodiff")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name.split(".")[-1] == "autodiff" and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            used.add(node.attr)
    return used


def test_every_public_autodiff_name_has_a_caller():
    sources = [p for p in sorted((ROOT / "src" / "paeff").glob("*.py")) if p.name not in NOT_CALLERS]
    sources += sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(autodiff_names_used(p) for p in sources))
    assert sorted(set(autodiff.__all__) - used) == []
