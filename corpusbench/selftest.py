#!/usr/bin/env python3
"""Self-test of the corpus benchmark.

Usage, from the root of a checkout::

    python3 corpusbench/selftest.py

Runs every workload of ``workloads.json`` at reduced size (the first two
kernels and stream programs, one timed pass) with tracing off and on,
and checks that

* each run exits 0 and ends with the result object;
* the metrics are exactly those ``BENCHMARK.json`` declares, each with
  its declared unit, and every name matches ``[A-Za-z0-9_.-]+``;
* the correctness counters are 0;
* the traced layer self times plus ``trace.untraced_s`` add up to
  ``trace.wall_s``;
* in a directory that holds only the benchmark, the command exits
  non-zero without printing a result.

Exits 1 on the first failed expectation.
"""
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TIMEOUT_S = 600


def expect(cond, message) -> None:
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(cwd, command, workload, trace):
    args = command + ["--workload", workload, "--seed", "1",
                      "--seconds", "0", "--trace", str(trace)]
    if cwd == ROOT:
        args += ["--limit", "2"]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def printed_counters(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            out[parts[0]] = float(parts[1])
    return out


def check_workload(bench, workload) -> None:
    for trace, declared in ((0, bench["end_to_end"]),
                            (1, bench["per_layer"])):
        proc = run(ROOT, bench["command"], workload, trace)
        label = f"{workload} --trace {trace}"
        expect(proc.returncode == 0,
               f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
               f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed",
                               "metrics"}, f"{label}: result keys")
        expect(result["correct"] is True and result["failed"] == 0
               and result["attempted"] >= 1, f"{label}: {result}")
        metrics = result["metrics"]
        expect(set(metrics) == {m["name"] for m in declared},
               f"{label}: metric names {sorted(metrics)}")
        for m in declared:
            got = metrics[m["name"]]
            expect(NAME.fullmatch(m["name"]), f"bad name {m['name']!r}")
            expect(got["unit"] == m["unit"],
                   f"{label}: {m['name']} unit {got['unit']}")
            expect(isinstance(got["value"], (int, float)),
                   f"{label}: {m['name']} value {got['value']!r}")
        counters = printed_counters(proc.stdout)
        for name in ("failed_share", "verdict_mismatches",
                     "witness_replay_failures"):
            expect(counters.get(name) == 0, f"{label}: {name} "
                                            f"{counters.get(name)}")
        if trace:
            import spans
            total = sum(metrics[k]["value"] for k in spans.SELF_TIME) \
                + metrics["trace.untraced_s"]["value"]
            wall = metrics["trace.wall_s"]["value"]
            expect(abs(total - wall) <= 1e-9 * max(1.0, wall),
                   f"{label}: layers sum to {total}, wall {wall}")
        print(f"ok {label}")


def check_bare_directory(bench) -> None:
    out = ROOT / ".corpusbench-out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["command"],
                   bench["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, "
               f"stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    for workload in json.loads((BENCH_DIR / "workloads.json").read_text()):
        check_workload(bench, workload)
    check_bare_directory(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
