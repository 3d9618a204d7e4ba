"""Writes reference.json: each workload's exit code, stdout size and sha256,
and, for the verify suites, the case count the suite reports.

    python3 perfbench/record.py

The references in the repository were recorded from commit 61c8b97, the
code this benchmark was written against.  qsc promises byte-identical
output, so they are not re-recorded when the code changes: a change that
alters any workload's stdout is a failed run.
"""

import hashlib
import json
import os
import subprocess
import sys

from run import CASES, HERE, ROOT, WORKLOADS


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = {}
    for name, argv in WORKLOADS.items():
        proc = subprocess.run([sys.executable, "-m", "qsc.cli", *argv], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, check=False)
        found = CASES.search(proc.stdout)
        out[name] = {
            "argv": argv,
            "exit_code": proc.returncode,
            "stdout_bytes": len(proc.stdout),
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "cases": int(found.group(1)) if found else None,
        }
        print(name, out[name], file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
