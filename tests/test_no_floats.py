"""The library holds no floating-point number: outside
``ExactNumber.__float__``, which exists for display, no module of
``src/exactlab`` writes a float literal, names ``float`` or calls a float
function of ``math``.  Checked on the syntax tree of every module.
"""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exactlab"

# the functions of math that take and give integers exactly
INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}
FLOAT_MATH = set(dir(math)) - INT_MATH - {
    name for name in dir(math) if name.startswith("_")}


def _float_uses(tree: ast.AST) -> list[str]:
    """Every float literal, name ``float`` and float function of ``math``
    in the tree, outside ``ExactNumber.__float__``, as "line: what"."""
    math_names, math_modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                math_names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            math_modules.update(alias.asname or alias.name
                                for alias in node.names
                                if alias.name == "math")
    hits = []

    def visit(node, where):
        if isinstance(node, ast.ClassDef):
            where = node.name
        elif isinstance(node, ast.FunctionDef) and \
                (where, node.name) == ("ExactNumber", "__float__"):
            return
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            hits.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and (
                node.id == "float" or math_names.get(node.id) in FLOAT_MATH):
            hits.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in math_modules and node.attr in FLOAT_MATH:
            hits.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and \
                any(alias.name == "*" for alias in node.names):
            hits.append(f"{node.lineno}: from math import *")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return hits


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_float_outside_float_conversion(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _float_uses(tree) == []


def test_the_check_sees_each_kind_of_float():
    source = (
        "import math as m\n"
        "from math import gcd, ldexp as scale\n"
        "class ExactNumber:\n"
        "    def __float__(self) -> float:\n"
        "        return scale(0.5, 1)\n"
        "    def half(self):\n"
        "        return 0.5 + gcd(4, 6)\n"
        "def size(x):\n"
        "    return float(x) + m.sqrt(2) + m.isqrt(4) + scale(1, 2)\n")
    assert _float_uses(ast.parse(source)) == [
        "7: literal 0.5", "9: float", "9: math.sqrt", "9: scale"]
