"""One measured qsc process, started by run.py.

    python3 child.py setup
    python3 child.py run <qsc arguments...>
    python3 child.py trace <qsc arguments...>

qsc.cli is imported first, so the time from interpreter start to the end
of that import is what a user of the console script waits before any work.
The CLI's stdout goes to this process's stdout untouched.  The last line
of stderr is the report: "PERFBENCH " followed by a JSON object.
"""

import time

import qsc.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

MARKER = "PERFBENCH "


def _cpu() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _call_main(main, argv) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code if isinstance(code, int) else 1


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    report: dict = {"imported": IMPORTED}
    traced = None
    if mode == "trace":
        from layers import TracedRun

        traced = TracedRun()
    if mode != "setup":
        cpu0 = _cpu()
        wall0 = time.perf_counter()
        report["exit_code"] = _call_main(qsc.cli.main, argv)
        report["wall_s"] = time.perf_counter() - wall0
        report["cpu_s"] = _cpu() - cpu0
        sys.stdout.flush()
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced is not None:
        report["layers"] = traced.metrics()
    print(MARKER + json.dumps(report), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
