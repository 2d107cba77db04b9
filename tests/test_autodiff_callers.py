"""Every public name of ``paeff.autodiff`` and of its ``Tensor`` has a caller in the program or the benchmark.

A source scan over the modules of ``src/paeff`` other than ``autodiff``,
and the modules of ``bench/``. An op that only tests call belongs in the
tests.

* A module-level name counts as used when a module reads it as an
  attribute of the imported ``autodiff`` module or imports it from there.
* A public ``Tensor`` method or property counts as used when a module
  reads an attribute of that name from anything but an imported module
  (``np.sum`` does not count for ``Tensor.sum``; ``Tensor.from_op`` does
  count for ``from_op``).
* An operator dunder counts as used when its operator takes a ``Tensor``
  operand, as far as annotations tell (see ``tensor_members_used``); a
  reflected one, such as ``__rmul__``, only with a number on its left.

The scan reads names and annotations, not types, so a method counts as
used whenever some receiver could be a ``Tensor``.
"""

import ast
import builtins
import inspect
from pathlib import Path

from paeff import autodiff
from paeff.autodiff import Tensor

ROOT = Path(__file__).resolve().parent.parent
NOT_CALLERS = {"autodiff.py"}

OPERATORS = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "truediv", ast.FloorDiv: "floordiv",
    ast.Mod: "mod", ast.Pow: "pow", ast.MatMult: "matmul", ast.USub: "neg", ast.UAdd: "pos",
}
OPERATOR_DUNDERS = {f"__{n}__" for n in OPERATORS.values()} | {f"__r{n}__" for n in OPERATORS.values()}


def sources() -> list[Path]:
    paths = [p for p in sorted((ROOT / "src" / "paeff").glob("*.py")) if p.name not in NOT_CALLERS]
    return paths + sorted((ROOT / "bench").glob("*.py"))


def autodiff_names_used(tree: ast.Module) -> set[str]:
    """Names a module takes from ``autodiff``: ``from .autodiff import x`` and ``ad.x`` after ``import ... as ad``."""
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


def returns_tensor(tree: ast.Module) -> set[str]:
    """Names of the functions a module defines with a return annotation that mentions ``Tensor``."""
    return {
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.returns is not None and "Tensor" in ast.unparse(fn.returns)
    }


def tensor_members_used(tree: ast.Module, makers: set[str]) -> set[str]:
    """Attribute names read from non-modules, and the operator dunders applied to ``Tensor`` expressions.

    Within a function, an expression is a ``Tensor`` when it is a
    parameter annotated as one, a name assigned from such an expression
    (alone, or at its place in a tuple assigned from a tuple of equal length),
    a call of ``Tensor`` or of a function in ``makers`` (defined here, in
    a paeff module, or as a method of a ``Tensor`` expression), or an
    arithmetic expression with such an operand.
    """
    modules, ours = set(), set()  # names that imports bind to modules, and which of those are paeff's
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            source = getattr(node, "module", None) or ""
            for a in node.names:
                if isinstance(node, ast.ImportFrom) and a.name[:1].isupper():
                    continue  # a class, such as Tensor
                bound = (a.asname or a.name).split(".")[0]
                modules.add(bound)
                if getattr(node, "level", 0) or (source or a.name).startswith("paeff"):
                    ours.add(bound)
    used = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    }
    makers = makers | {"Tensor"}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = {a.arg for a in fn.args.args + fn.args.kwonlyargs if a.annotation and "Tensor" in ast.unparse(a.annotation)}

        def is_tensor(e) -> bool:
            if isinstance(e, ast.Name):
                return e.id in names
            if isinstance(e, ast.BinOp):
                return is_tensor(e.left) or is_tensor(e.right)
            if isinstance(e, ast.UnaryOp):
                return is_tensor(e.operand)
            if isinstance(e, ast.Call) and isinstance(e.func, ast.Name):
                return e.func.id in makers and not hasattr(builtins, e.func.id)
            if isinstance(e, ast.Call) and isinstance(e.func, ast.Attribute) and e.func.attr in makers:
                owner = e.func.value  # a paeff module, or a Tensor receiver
                return owner.id in ours if isinstance(owner, ast.Name) and owner.id in modules else is_tensor(owner)
            return False

        binds = []  # (target, value) of each single-target assignment; a tuple of a tuple element by element
        for n in ast.walk(fn):
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                target, value = n.targets[0], n.value
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
                    binds += zip(target.elts, value.elts)
                else:
                    binds.append((target, value))
        for _ in binds:  # to a fixed point, whatever the order of the assignments
            names |= {t.id for t, v in binds if isinstance(t, ast.Name) and is_tensor(v)}
        for node in ast.walk(fn):
            name = OPERATORS.get(type(getattr(node, "op", None)))
            if isinstance(node, ast.BinOp) and name and (is_tensor(node.left) or is_tensor(node.right)):
                used.add(f"__r{name}__" if isinstance(node.left, ast.Constant) else f"__{name}__")
            elif isinstance(node, ast.UnaryOp) and name and is_tensor(node.operand):
                used.add(f"__{name}__")
    return used


def tensor_api() -> set[str]:
    """``Tensor``'s public methods and properties, and the operator dunders it defines."""
    return {
        name for name, value in vars(Tensor).items()
        if name in OPERATOR_DUNDERS
        or (not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, (property, staticmethod))))
    }


def test_every_public_autodiff_name_has_a_caller():
    used = set().union(*(autodiff_names_used(ast.parse(p.read_text(encoding="utf-8"))) for p in sources()))
    assert sorted(set(autodiff.__all__) - used) == []


def test_every_public_tensor_method_and_operator_has_a_caller():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sources()]
    makers = set().union(*map(returns_tensor, trees), returns_tensor(ast.parse(Path(autodiff.__file__).read_text())))
    used = set().union(*(tensor_members_used(tree, makers) for tree in trees))
    api = tensor_api()
    assert {"__add__", "__mul__", "sum", "backward", "from_op", "shape"} <= api
    assert sorted(api - used) == []


def test_tuple_assignment_binds_each_element():
    tree = ast.parse(
        "from paeff import autodiff as ad\n"
        "def fuse(x, y, r):\n"
        "    a, b = ad.radial(x, r), ad.radial(y, r)\n"
        "    c, d = ad.radial(x, r)\n"  # unpacks one value: neither name is known to be a Tensor
        "    return a + b, c * d\n"
    )
    used = tensor_members_used(tree, {"radial"})
    assert "__add__" in used and "__mul__" not in used
