"""The qsc benchmark: the CLI commands people run, each in a fresh process.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

With --trace 0 it starts untraced `qsc` processes one after another until
--seconds have passed (at least one), checks each one's exit code and the
sha256 of its stdout against reference.json, and reports the median
wall_s, cpu_s and peak_rss_mib, plus setup_s from extra import-only
processes.  With --trace 1 it alternates traced and untraced processes and
reports the per-layer metrics of layers.py, the tracing overhead, and any
exact count that differs from baseline.json.

Host speed.  On a shared machine the same process can run 1.5 to 2 times
slower while another tenant loads the core, and that state changes within
a second.  So this process and every child it starts are pinned to one
CPU, and while a child runs, this process times a fixed slice of
interpreter work (probe) every PROBE_INTERVAL_S on that CPU.  Every time
reported (wall_s, cpu_s, setup_s, the per-layer seconds) is the child's
measured time scaled by REFERENCE_PROBE_S / the mean probe time over that
child's life: seconds at the host speed where the probe takes
REFERENCE_PROBE_S.  The probe is stdlib code in this file, so no change to
qsc can change it.

Workload inputs are fixed and exhaustive, so --seed only sets the order:
whether the import-only processes run before or after the workload, and
which of each traced/untraced pair runs first.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  Only the standard library is used; Linux is required for
CPU pinning and resource.getrusage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Why each workload is here, and which layers it stresses, is in
# BENCHMARK.json and baseline.json.
WORKLOADS = {
    "survey": ["conjectures", "--n", "7"],
    "sweep-insertion": ["verify", "--suite", "inverse", "--max-n", "8"],
    "sweep-records": ["verify", "--suite", "triple-agreement", "--max-n", "9"],
    "products": ["verify", "--suite", "positivity", "--max-n", "7"],
}

# Import-only processes per untraced run; setup_s is their median.
SETUP_PROCESSES = 9
# Every process must end before the run's own 180-second limit.
RUN_LIMIT_S = 170.0
PROBE_INTERVAL_S = 0.01
# A fixed scale: roughly the probe's CPU time on an unloaded core of the
# 2-vCPU x86_64 VM the numbers in baseline.json were recorded on.
REFERENCE_PROBE_S = 1.2e-4
MARKER = "PERFBENCH "
CASES = re.compile(rb"\((\d+) cases")


def _now() -> float:
    # The clock child.py stamps after its import: one clock for both sides.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> float:
    """CPU seconds this thread takes for a fixed slice of the interpreter
    work qsc does: small tuples, sorting, dict counting and Fractions."""
    start = time.thread_time()
    rows = [tuple(range(i % 7, i % 7 + 5)) for i in range(40)]
    seen: dict = {}
    for row in rows:
        key = tuple(sorted(row, reverse=True))
        seen[key] = seen.get(key, 0) + len(set(row))
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, i + 1)
    return time.thread_time() - start


class Runner:
    """Starts child.py processes and checks them against the reference."""

    def __init__(self, workload: str, reference: dict, started: float):
        self.argv = WORKLOADS[workload]
        if reference["argv"] != self.argv:
            raise SystemExit(f"reference.json records {reference['argv']}, not {self.argv}")
        self.reference = reference
        self.started = started
        # Interpreter settings from the caller's environment (unbuffered
        # output, no bytecode cache, ...) would change what is measured.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str) -> tuple[dict | None, bytes]:
        """One child process: its report, with times scaled to the reference
        host speed (None when it failed), and its stdout."""
        self.attempted += 1
        deadline = self.started + RUN_LIMIT_S
        spawned = _now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode,
             *(self.argv if mode != "setup" else ())],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        probes = []
        try:
            while True:
                probes.append(probe())
                try:
                    stdout, stderr = proc.communicate(timeout=PROBE_INTERVAL_S)
                    break
                except subprocess.TimeoutExpired:
                    if _now() > deadline:
                        self.fail(f"{mode} process killed after {RUN_LIMIT_S:.0f} s")
                        return None, b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        lines = stderr.decode(errors="replace").splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith(MARKER):
            tail = "\n".join(lines[-5:])
            self.fail(f"{mode} process exited {proc.returncode}:\n{tail}")
            return None, b""
        report = json.loads(lines[-1][len(MARKER):])
        report["speed"] = REFERENCE_PROBE_S / statistics.fmean(probes)
        report["setup_s"] = (report["imported"] - spawned) * report["speed"]
        if mode != "setup":
            report["wall_s"] *= report["speed"]
            report["cpu_s"] *= report["speed"]
            problem = self._check(report["exit_code"], stdout)
            if problem:
                self.fail(f"{mode} process: {problem}")
                return None, stdout
        return report, stdout

    def _check(self, exit_code: int, stdout: bytes) -> str | None:
        ref = self.reference
        if exit_code != ref["exit_code"]:
            return f"exit code {exit_code}, reference {ref['exit_code']}"
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != ref["stdout_sha256"]:
            found = CASES.search(stdout)
            cases = int(found.group(1)) if found else None
            return (f"stdout sha256 {digest} ({len(stdout)} bytes, cases {cases})"
                    f" differs from reference {ref['stdout_sha256']}"
                    f" ({ref['stdout_bytes']} bytes, cases {ref['cases']})")
        return None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: {message}", file=sys.stderr)


def _until(deadline: float, step) -> None:
    """Calls step() until the next call would likely end past the deadline;
    always at least once."""
    longest = 0.0
    while True:
        t0 = _now()
        step()
        longest = max(longest, _now() - t0)
        if _now() + longest > deadline:
            return


def run_untraced(runner: Runner, rng: random.Random, seconds: float) -> dict:
    reports: list[dict] = []
    setups: list[float] = []

    def measure_setup():
        for _ in range(SETUP_PROCESSES):
            report, _ = runner.spawn("setup")
            if report:
                setups.append(report["setup_s"])

    def invoke():
        report, _ = runner.spawn("run")
        if report:
            reports.append(report)

    setup_first = rng.random() < 0.5
    if setup_first:
        measure_setup()
    _until(runner.started + seconds, invoke)
    if not setup_first:
        measure_setup()
    if not reports or not setups:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "cpu_s": statistics.median(r["cpu_s"] for r in reports),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reports),
    }


def run_traced(runner: Runner, rng: random.Random, seconds: float,
               exact: set[str]) -> dict:
    traced: list[dict] = []
    untraced: list[float] = []
    stdout_bytes: list[int] = []

    def pair():
        for mode in ("trace", "run") if rng.random() < 0.5 else ("run", "trace"):
            report, stdout = runner.spawn(mode)
            if report and mode == "trace":
                traced.append(report)
                stdout_bytes.append(len(stdout))
            elif report:
                untraced.append(report["wall_s"])

    _until(runner.started + seconds, pair)
    if not traced or not untraced:
        return {}
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name in exact:
            if len(set(values)) > 1:
                runner.fail(f"exact count {name} differs between traced runs: {values}")
            out[name] = values[0]
            continue
        if name.endswith("_s"):
            values = [v * r["speed"] for v, r in zip(values, traced)]
        out[name] = statistics.median(values)
    out["cli.stdout_bytes"] = stdout_bytes[0]
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(untraced))
    return out


def report_count_changes(workload: str, metrics: dict, exact: set[str]) -> None:
    """Prints every exact count that differs from baseline.json."""
    baseline = json.loads((HERE / "baseline.json").read_text())
    counts = baseline["workloads"].get(workload, {}).get("counts", {})
    for name in sorted(exact & metrics.keys() & counts.keys()):
        if metrics[name] != counts[name]:
            print(f"perfbench: {workload} {name} is {metrics[name]},"
                  f" baseline {counts[name]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = _now()

    if not (ROOT / "src" / "qsc" / "cli.py").is_file():
        print(f"perfbench: no qsc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    # On SIGTERM, unwind so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Children inherit the pinning, so they and the probe share one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args.workload, reference, started)
    # Compiles the bytecode cache before anything is timed.
    runner.spawn("setup")
    rng = random.Random(args.seed)
    if args.trace:
        values = run_traced(runner, rng, args.seconds, exact)
        report_count_changes(args.workload, values, exact)
    else:
        values = run_untraced(runner, rng, args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and missing:
        runner.fail(f"metrics not measured: {missing}")
    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
