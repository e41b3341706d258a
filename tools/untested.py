"""Which library statements no in-process test runs.

Runs pytest in this process under a line trace that starts before
exactlab is first imported, so the statements a module runs at import
count too.  With no arguments it runs the tier-1 suite (``tests/``, with
``--continue-on-collection-errors``); any arguments are passed to pytest
in its place.  After pytest's own output it prints one line per module of
the package, ``exactlab.<module>: <run> of <total> statements run``, each
followed by the statements no test executes, one per line, indented, as
``<line>: <source>``.

A statement is a node of the module's syntax tree that compiles to code;
docstrings do not count.  A compound statement (``if``, ``for``, ``def``
and so on) counts as run when a line of its header runs, its body being
statements of their own.  Tests that run exactlab in a subprocess
(``tests/fresh.py``, the demos) are not traced, so what only they reach
is listed.  A full run of the tier-1 suite takes about 8 minutes on a
2-vCPU machine.

    python3 tools/untested.py [pytest arguments]

Run it from anywhere in a source checkout; it imports exactlab from
``src/``.  It uses the standard library and pytest alone, and exits with
pytest's status.
"""

import ast
import inspect
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "exactlab"


def _is_docstring(node, parent) -> bool:
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
            and parent.body[0] is node)


def _code_lines(code) -> set[int]:
    """The lines that hold an instruction of ``code`` or of a code object
    defined inside it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path, source: str) -> dict[int, set[int]]:
    """first line -> the lines of its header that hold code, for each
    statement of the module at ``path`` that compiles to code."""
    tree = ast.parse(source)
    code = _code_lines(compile(tree, str(path), "exec"))
    found = {}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            inner = [child.lineno for child in ast.iter_child_nodes(node)
                     if isinstance(child, (ast.stmt, ast.excepthandler))]
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            last = max(min(inner) - 1, node.lineno) if inner \
                else node.end_lineno
            lines = code.intersection(range(first, last + 1))
            if lines:
                found[node.lineno] = lines
    return found


def main(args: list[str]) -> int:
    # read before the run, so the map is of the code the tests import
    sources = {path: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or [str(ROOT / "tests"),
                                      "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, source in sources.items():
        statements = _statements(path, source)
        lines = ran.get(str(path), set())
        missed = sorted(first for first, header in statements.items()
                        if not header & lines)
        name = "exactlab" if path.stem == "__init__" \
            else f"exactlab.{path.stem}"
        print(f"{name}: {len(statements) - len(missed)} of "
              f"{len(statements)} statements run")
        text = source.splitlines()
        for first in missed:
            print(f"    {first}: {text[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
