"""``tools/untested.py`` runs tests under a line trace and maps the
library statements they never run."""

import re
from pathlib import Path

import exactlab
from fresh import run_python

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "untested.py"


def test_the_test_reach_map_lists_every_module_with_its_missed_statements():
    done = run_python(str(TOOL), str(ROOT / "tests" / "test_coding.py"),
                      "-q", "-p", "no:cacheprovider")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    heads = [i for i, line in enumerate(lines)
             if re.fullmatch(r"exactlab(\.\w+)?: \d+ of \d+ statements run",
                             line)]
    assert heads, done.stdout
    counts, missed = {}, {}
    for line in lines[heads[0]:]:
        head = re.fullmatch(r"(exactlab(?:\.\w+)?): (\d+) of (\d+) "
                            r"statements run", line)
        if head:
            module, run, total = head[1], int(head[2]), int(head[3])
            assert 0 <= run <= total
            counts[module] = total - run
            missed[module] = []
        else:
            found = re.fullmatch(r"    (\d+): (.+)", line)
            assert found, line
            missed[module].append(int(found[1]))
    package = Path(exactlab.__file__).parent
    assert sorted(counts) == sorted(
        "exactlab" if path.stem == "__init__" else f"exactlab.{path.stem}"
        for path in package.glob("*.py"))
    # each module lists exactly the statements its count leaves out, in
    # line order
    assert {m: len(found) for m, found in missed.items()} == counts
    assert all(found == sorted(set(found)) for found in missed.values())
    # the trace starts before the import, so a def statement, which runs
    # at import, counts as run
    source = (package / "coding.py").read_text().splitlines()
    define = source.index("def cf_digits(a, upto: int) -> list[int]:") + 1
    assert define not in missed["exactlab.coding"]
    assert counts["exactlab.coding"] < 20
