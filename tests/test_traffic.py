"""``tools/traffic.py`` runs the benchmark's op universe and maps the
functions it never reaches."""

import re
from pathlib import Path

import exactlab
from fresh import run_python

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"


def test_the_traffic_map_names_every_module_and_finds_the_engine_reached():
    done = run_python(str(TOOL))
    assert done.returncode == 0, done.stderr
    first, *lines = done.stdout.splitlines()
    assert re.fullmatch(r"\d+ ops", first)
    counts, missed = {}, {}
    for line in lines:
        head = re.fullmatch(r"(exactlab\.\w+): (\d+) of (\d+) functions "
                            r"reached", line)
        if head:
            module = head[1]
            counts[module] = int(head[3]) - int(head[2])
            missed[module] = []
        else:
            assert line.startswith("    "), line
            missed[module].append(line.strip())
    package = Path(exactlab.__file__).parent
    assert sorted(counts) == sorted(f"exactlab.{path.stem}"
                                    for path in package.glob("*.py")
                                    if path.stem != "__init__")
    # each module lists exactly the functions its count leaves out
    assert {m: len(names) for m, names in missed.items()} == counts
    assert not {"Orbit.second_hit", "Orbit.widest_gap"} & \
        set(missed["exactlab.orbit"])
