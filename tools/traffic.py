"""Which library functions the benchmark never reaches.

Runs every op of the benchmark's finite universe (``perfbench/workloads.py``,
loaded by path and only read) through ``exactlab.cli.run`` under a trace
function that records each code object entered.  Prints the number of
ops, then one line per module of the package, ``exactlab.<module>:
<reached> of <total> functions reached``, each followed by the qualified
names of the module's functions and methods that no op enters, one per
line, indented.  A function defined inside another is named
``outer.<locals>.inner:<line>``; lambdas and comprehensions are not
counted.

    python3 tools/traffic.py

Run it from anywhere in a source checkout; it imports exactlab from
``src/``.  It uses the standard library alone.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _nested(name, code, found):
    """Add to ``found`` the functions defined inside ``code``, named by
    their line too, as one function may define two of one name; lambdas
    and comprehensions are left out."""
    for const in code.co_consts:
        if inspect.iscode(const) and not const.co_name.startswith("<"):
            inner = f"{name}.<locals>.{const.co_name}:{const.co_firstlineno}"
            found[inner] = const
            _nested(inner, const, found)


def _functions(module):
    """qualified name -> code object, for the functions written in the
    module's file: its own, the methods, static and class methods and
    properties of its classes (not those a dataclass generates), and the
    functions defined inside any of them."""
    found = {}

    def add(name, obj):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            for part in (obj.fget, obj.fset, obj.fdel):
                add(name, part)
        elif (inspect.isfunction(obj)
              and obj.__code__.co_filename == module.__file__):
            found[name] = obj.__code__
            _nested(name, obj.__code__, found)

    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                add(f"{name}.{attr}", member)
        else:
            add(name, obj)
    return found


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import exactlab
    from exactlab import cli

    modules = [importlib.import_module(f"exactlab.{info.name}")
               for info in pkgutil.iter_modules(exactlab.__path__)]
    ops = _load_workloads().universe()
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)   # a call event; no line events needed

    sys.settrace(trace)
    try:
        for argv in ops:
            cli.run(list(argv))
    finally:
        sys.settrace(None)
    print(f"{len(ops)} ops")
    for module in modules:
        functions = _functions(module)
        missed = sorted(name for name, code in functions.items()
                        if code not in entered)
        print(f"{module.__name__}: {len(functions) - len(missed)} of "
              f"{len(functions)} functions reached")
        for name in missed:
            print(f"    {name}")


if __name__ == "__main__":
    main()
