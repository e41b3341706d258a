"""Every ``exactlab ...`` command in the README's ``sh`` blocks runs.

Continuation lines are joined, each command is split with ``shlex`` and run
in-process through ``cli.run``; it must exit 0 and print the same report on
a second run.
"""

import re
import shlex
from pathlib import Path

import pytest

from exactlab.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                            re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "exactlab":
                commands.append(argv[1:])
    return commands


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv):
    first = run(argv)
    assert first[0] == 0, first
    assert run(argv) == first
