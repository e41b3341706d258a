"""Run Python in a new interpreter that imports exactlab from the same place
as the test process, so a test can see what a cold start loads."""

import os
import subprocess
import sys
from pathlib import Path

import exactlab

SRC = str(Path(exactlab.__file__).resolve().parents[1])


def python_env() -> dict[str, str]:
    """The environment with exactlab's source directory first on the path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_python(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """``python *args`` with exactlab's source directory first on the path;
    standard output and error are captured."""
    return subprocess.run([sys.executable, *args], env=python_env(),
                          capture_output=True, text=text, timeout=120)


def run_code(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` as sys.argv[1:]; it must exit 0.  Returns
    its standard output."""
    done = run_python("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout
