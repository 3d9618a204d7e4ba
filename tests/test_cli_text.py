"""Help, usage and error text of the CLI, byte for byte.

argparse's text can change between Python minors (3.13 wraps long usage
lines differently from 3.10 and 3.11), so there is one golden file per
minor, tests/golden/cli_text_<major>.<minor>.json; a minor without one is
skipped.  To record the golden of the running minor:

    PYTHONPATH=src python tests/test_cli_text.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from qsc.cli import main

GOLDEN = (Path(__file__).resolve().parent / "golden"
          / "cli_text_{}.{}.json".format(*sys.version_info[:2]))

# The help of every command path, the usage errors of each level, and
# an error from each kind of argparse check.
COMMAND_PATHS = [
    [], ["expand"], ["demo"], ["enumerate"], ["tree"], ["verify"], ["conjectures"],
    ["demo", "insert"], ["demo", "rapture"], ["demo", "word"],
    ["enumerate", "tableaux"], ["enumerate", "dirts"],
]
CASES = [path + ["--help"] for path in COMMAND_PATHS] + [
    [],
    ["bogus"],
    ["demo"],
    ["demo", "bogus"],
    ["verify", "--suite", "nope"],
    ["conjectures", "--n", "7", "--bogus"],
    ["enumerate", "tableaux", "--shape", "1"],
    ["demo", "insert", "--tableau", "1", "--k", "2", "--bogus"],
    ["enumerate", "tableaux", "--shape", "1", "--kind", "ssyct",
     "--standard", "--max-entry", "2"],
    ["verify", "--suite", "symmetry", "--max-n", "x"],
]


def capture(argv):
    """stdout, stderr and exit code of main(argv), at a fixed width."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_cli_text_matches_the_golden(monkeypatch):
    if not GOLDEN.is_file():
        pytest.skip(f"no golden for Python {sys.version_info[0]}.{sys.version_info[1]}")
    # argparse wraps help to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in golden] == CASES
    for case in golden:
        assert capture(case["argv"]) == case, case["argv"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(json.dumps([capture(argv) for argv in CASES], indent=1) + "\n")
    print(f"wrote {GOLDEN}")
