"""Every README command, and a set of inputs that fail, prints the same bytes
and exits with the same status through both entry points, in a new
interpreter each, so each command loads its modules cold.

The entry points are ``python -m exactlab.cli`` and the ``exactlab``
console script, ``exactlab.cli:main``.  The pins are SHA-256 digests of
standard output and standard error, recorded when the package still ran
every module at import.  No input may end in a traceback.
"""

import hashlib

import pytest

from fresh import run_python
from test_readme import readme_commands

ENTRY_POINTS = {
    "module": ["-m", "exactlab.cli"],
    "script": ["-c", "import sys; from exactlab.cli import main; sys.exit(main())"],
}

# inputs the library rejects: exit 2 (precondition or parse error) or 3
# (budget exhausted), with a one-line message on standard error
FAILING = [
    ["extract", "--oracle", "rot(phi)", "--n", "4", "--eps", "1/4"],
    ["extract", "--oracle", "rot(1/2)", "--n", "2", "--eps", "1/4"],
    ["approx", "--oracle", "bogus", "--cut", "1/2", "--bound", "4"],
    ["code", "pair", "1"],
    ["code", "cf", "sqrt2", "10", "--budget", "5"],
    ["sun", "--fn", "no/such/file"],
    ["dini", "--fn", "cantor:30", "--x", "1/3", "--budget", "1024"],
    ["measure", "subadd", "(0"],
    ["measure", "localnull"],
    ["hpcheck", "--order", "6000"],
]

EMPTY = "e3b0c44298fc1c14"  # the digest of no output

# " ".join(argv) -> [exit status, stdout digest, stderr digest]; a README
# command without a pin fails
PINNED = {
    "extract --oracle rot(phi) --n 3 --eps 1/4 --budget 1000000":
        [0, "7d5c4a9029376598", EMPTY],
    "approx --oracle rot(phi) --cut 1/2 --bound 4":
        [0, "82a64dd218dbb7cc", EMPTY],
    "yfam --oracle rot(phi) --a=-10/21+10/21*sqrt(5) --b=-10/21+10/21*sqrt(5) --d 1":
        [0, "f1f767fbb9e2616b", EMPTY],
    "code cf sqrt2 10":
        [0, "ee76703a61d6aaa8", EMPTY],
    "code cf phi 30 --budget 100":
        [0, "a5d757fd88bf630c", EMPTY],
    "code beta-encode 3,1,4":
        [0, "1fec8c7492a13e59", EMPTY],
    "sun --fn worked3":
        [0, "53ba9a04db4fc9c4", EMPTY],
    "sun --fn cantor:5 --c 2":
        [0, "50b20bc73db33c5c", EMPTY],
    # the depth-18 report equals the depth-5 one: the 8 components stop
    # changing at depth 5
    "sun --fn cantor:18 --c 2":
        [0, "50b20bc73db33c5c", EMPTY],
    "dini --fn worked3 --x 1":
        [0, "9eaf215d0ce19b88", EMPTY],
    "dini --fn cantor:9 --x 1/3 --budget 1024":
        [0, "c5c9e7ee20d41a3a", EMPTY],
    "measure subadd (0,2/3) (1/3,1)":
        [0, "b651cd7d8492dbbc", EMPTY],
    "diffreport --fn cantor:6 --mesh 1/64 --budget 100000":
        [0, "eb6956cd3de0c6db", EMPTY],
    "hpcheck --order 50":
        [0, "aedb27a94851a73f", EMPTY],
    "approx --oracle rot(phi) --cut 1/2 --bound 1000000000000000000000000000000 --budget 10000000000000000000000000000000":
        [0, "a3a9382e5a81088c", EMPTY],
    "extract --oracle rot(phi) --n 5 --eps 1/4 --budget 100000000000000000000":
        [0, "57598e2075cd4035", EMPTY],
    "extract --oracle rot(phi) --n 4 --eps 1/4":
        [3, EMPTY, "b75f29241ca7e1b3"],
    "extract --oracle rot(1/2) --n 2 --eps 1/4":
        [2, EMPTY, "8d95f4dc38c7dd1f"],
    "approx --oracle bogus --cut 1/2 --bound 4":
        [2, EMPTY, "760b45c0e1de8743"],
    "code pair 1":
        [2, EMPTY, "94e4d94dde877684"],
    "code cf sqrt2 10 --budget 5":
        [3, EMPTY, "dacfbaf3d885d5d3"],
    "sun --fn no/such/file":
        [2, EMPTY, "70e7ffdd3c3b162c"],
    "dini --fn cantor:30 --x 1/3 --budget 1024":
        [3, EMPTY, "7e8ac9eb36afa21f"],
    "measure subadd (0":
        [2, EMPTY, "aae9aab56529136d"],
    "measure localnull":
        [2, EMPTY, "eef4df9f5eddf537"],
    "hpcheck --order 6000":
        [3, EMPTY, "4d10f6c0eb168d32"],
}

# argparse's own exits; its wording varies between Python versions, so
# only the status is pinned
USAGE = [(["--help"], 0), (["nosuchcommand"], 2),
         (["extract", "--n", "3"], 2)]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv", readme_commands() + FAILING, ids=" ".join)
def test_report_matches_its_pin(argv, entry):
    done = run_python(*ENTRY_POINTS[entry], *argv, text=False)
    assert b"Traceback" not in done.stderr, done.stderr.decode()
    assert [done.returncode, _digest(done.stdout),
            _digest(done.stderr)] == PINNED[" ".join(argv)]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv, status", USAGE,
                         ids=["help", "unknown command", "missing option"])
def test_usage_exits_without_a_traceback(argv, status, entry):
    done = run_python(*ENTRY_POINTS[entry], *argv)
    assert done.returncode == status
    assert "usage: exactlab" in done.stdout + done.stderr
    assert "Traceback" not in done.stderr
