"""Lines of each ``src/paeff`` and ``tests`` module by kind, at a git revision and in the working tree.

    python tests/loc.py REV

Prints one table per directory, ``src/paeff`` and then ``tests``: for
each module, its code, docstring/comment and blank lines at REV (read
with ``git show``) and in the working tree, then their difference, and
the totals of all three.

A line is code when it holds a token that is neither a comment nor part
of a docstring (the string that opens a module, class or function body).
It is a docstring/comment line when it lies in a docstring, blank lines
of one included, or holds a comment and no code. Every other line is
blank. A module on one side only counts as 0 lines on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
KINDS = ("code", "doc", "blank", "total")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The code, docstring/comment and blank lines of one module's source, and their total."""
    spans = [(node.body[0].lineno, node.body[0].col_offset, node.body[0].end_lineno, node.body[0].end_col_offset)
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
             and ast.get_docstring(node, clean=False) is not None]
    doc = {line for start, _, end, _ in spans for line in range(start, end + 1)}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            doc.add(tok.start[0])
        elif tok.type not in _LAYOUT and not any((l0, c0) <= tok.start and tok.end <= (l1, c1)
                                                  for l0, c0, l1, c1 in spans):
            code.update(range(tok.start[0], tok.end[0] + 1))
    total = len(source.splitlines())
    n_doc = len(doc - code)
    return {"code": len(code), "doc": n_doc, "blank": total - len(code) - n_doc, "total": total}


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True, check=True).stdout


def counts_at(rev: str, directory: str, repo: Path = REPO) -> dict[str, dict[str, int]]:
    """:func:`count_lines` of every module of ``directory`` at ``rev``, keyed by file name."""
    names = _git(repo, "ls-tree", "--name-only", rev, f"{directory}/").split()
    return {Path(n).name: count_lines(_git(repo, "show", f"{rev}:{n}")) for n in names if n.endswith(".py")}


def counts_in_tree(directory: str, repo: Path = REPO) -> dict[str, dict[str, int]]:
    """:func:`count_lines` of every module of ``directory`` in the working tree, keyed by file name."""
    return {p.name: count_lines(p.read_text(encoding="utf-8")) for p in sorted((repo / directory).glob("*.py"))}


def table(rev: str, directory: str, repo: Path = REPO) -> list[str]:
    """Per module of ``directory`` and in total: the counts at ``rev``, in the working tree, and the change."""
    before = counts_at(rev, directory, repo)
    after = counts_in_tree(directory, repo)
    zero = dict.fromkeys(KINDS, 0)
    rows = {name: (before.get(name, zero), after.get(name, zero)) for name in sorted(before.keys() | after.keys())}
    rows["total"] = tuple({k: sum(c[k] for c in side.values()) for k in KINDS} for side in (before, after))
    width = max(map(len, [directory, *rows]))
    sides = (rev, "working tree", "difference")
    kinds = "".join(f"{k:>6}" for k in KINDS)
    lines = [f"{'':<{width}}" + "".join(f"   {side:>{len(kinds)}}" for side in sides),
             f"{directory:<{width}}" + f"   {kinds}" * len(sides)]
    for name, (a, b) in rows.items():
        change = "".join(f"{b[k] - a[k]:>+6d}" if b[k] != a[k] else f"{0:>6}" for k in KINDS)
        counts = ["".join(f"{c[k]:>6}" for k in KINDS) for c in (a, b)]
        lines.append(f"{name:<{width}}" + "".join(f"   {cell}" for cell in (*counts, change)))
    return lines


def report(rev: str, repo: Path = REPO) -> list[str]:
    """The ``src/paeff`` table, a blank line, then the ``tests`` table."""
    return table(rev, "src/paeff", repo) + [""] + table(rev, "tests", repo)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to count at")
    args = parser.parse_args(argv)
    try:
        print("\n".join(report(args.rev)))
    except subprocess.CalledProcessError as e:
        print(e.stderr.strip(), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
