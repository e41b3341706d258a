"""Record the golden outcome of every op any seed can draw.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: for each op (its argv joined by U+001F),
the exit status and the SHA-256 of its report lines.  Run it only on a
commit whose outputs are known good; the benchmark compares every later run
against these records.  It refuses to write when an op exits with a status
other than 0, or 3 for the budget-exhaustion ops.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from exactlab import cli

    records = {}
    bad = []
    for argv in workloads.universe():
        status, lines = cli.run(list(argv))
        if status != workloads.expected_status(argv):
            bad.append(f"{' '.join(argv)}: exit {status}: {lines[:1]}")
        records[workloads.op_key(argv)] = [status, workloads.digest(lines)]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    run.GOLDEN.write_text(json.dumps(records, indent=0, sort_keys=True) + "\n")
    print(f"{len(records)} records written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
