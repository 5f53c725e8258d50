#!/usr/bin/env python3
"""Corpus time-to-verdict benchmark.

Usage, from the root of a checkout::

    python3 corpusbench/run.py --workload solver-escalated --seed 1 \
        --seconds 20 --trace 0

One process, one client, one check at a time (a closed loop, no
threads); set-up is also timed, nine times, in fresh interpreters.
A *pass* checks every input of the workload's frozen list
(``workloads.json``) once, in an order shuffled by ``--seed``; passes
repeat until ``--seconds`` have been measured. Timings are scaled to a
fixed host speed (see ``HostSpeed``). Every verdict goes through the
oracle in ``checks.py``; any mismatch or witness that fails replay
makes the run exit 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split of the
traced ones (see ``spans.py``). Human-readable ``name value unit``
lines come first; the last line is one JSON object.
"""
import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".corpusbench-out"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "check_s.p50": "s",
              "check_s.p90": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: correctness counters: printed by name, and gating ``correct``/exit
#: status rather than carried as metrics (they are 0 on a good run)
COUNTERS = {"failed_share": "ratio", "verdict_mismatches": "count",
            "witness_replay_failures": "count", "check_s.n": "count"}
#: set-up is repeated this often, each time in a fresh interpreter, and
#: its median reported
SETUP_REPEATS = 9
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
               "run.setup_probe(sys.argv[3], sys.argv[4])")
#: reference-loop samples taken on each side of one timed set-up
SETUP_SAMPLES = 10
#: cold passes of a warm workload, each filling fresh stores; the median
#: counts in set-up, and the warm passes read the last one's stores
COLD_FILLS = 3
#: a typical time of ``reference_s`` on the benchmark host; scaled
#: timings read as seconds on the host running at that speed
REF_S = 0.005
SAMPLE_EVERY_S = 0.05
#: a small kernel and stream program that pay lazy imports and first-call
#: costs before timing
WARMUP = {"kernels": ["vectorAdd"], "streams": ["pipeline_sync"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None,
                   help="check only the first N kernels and N stream "
                        "programs of the workload (self-test)")
    return p.parse_args(argv)


def reference_s() -> tuple:
    """One sample of the host's current speed: the wall and CPU time of
    a fixed pure-Python loop, run in the benchmark's own process."""
    t0, c0 = time.perf_counter(), time.process_time()
    d = {}
    for i in range(20000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    return time.perf_counter() - t0, time.process_time() - c0


class HostSpeed:
    """Scales timings to a fixed host speed.

    The benchmark host is a shared VM whose speed drifts by a quarter
    and more over minutes, for the checker and any other Python code
    alike. Between checks, the benchmark times a fixed reference loop,
    one sample per ``SAMPLE_EVERY_S`` of checking; the wall times of a
    pass are multiplied by ``REF_S`` over the loop's mean wall time in
    that pass, and its CPU times by ``REF_S`` over the loop's mean CPU
    time, so time the host takes from the VM, which stalls the wall
    clock but not the process's CPU clock, does not leak into CPU
    figures. This cancels the drift and leaves the program's own cost
    as measured.
    """

    def __init__(self) -> None:
        self._samples = [reference_s() for _ in range(5)]
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        """Sample after *seconds* of checking, if enough has built up."""
        self._owed += seconds
        reps = int(self._owed / SAMPLE_EVERY_S)
        self._owed -= reps * SAMPLE_EVERY_S
        self._samples += [reference_s() for _ in range(min(reps, 50))]

    def scale(self) -> tuple:
        """The wall-time and CPU-time factors for the timings since the
        previous call."""
        if not self._samples:
            self._samples.append(reference_s())
        walls, cpus = zip(*self._samples)
        self._samples = []
        return REF_S / statistics.mean(walls), REF_S / statistics.mean(cpus)


class Tally:
    """Per-input latencies and oracle counters over the timed passes."""

    def __init__(self) -> None:
        self.latencies = {}
        self.attempted = self.failed = 0
        self.mismatches = self.witness_failures = self.skipped = 0

    def add(self, name, outcome, scale: float) -> None:
        self.attempted += 1
        self.latencies.setdefault(name, []).append(outcome.seconds * scale)
        self.failed += outcome.failed
        self.mismatches += outcome.mismatch
        self.witness_failures += outcome.witness_failures
        self.skipped += outcome.witnesses_skipped
        if outcome.failed or outcome.mismatch or outcome.witness_failures:
            print(f"# {name}: failed={outcome.failed} "
                  f"mismatch={outcome.mismatch} "
                  f"witness_failures={outcome.witness_failures} "
                  f"({outcome.detail})", flush=True)


def run_pass(checks, rng, cache_dir, host, tally):
    """Check every input once: ``(wall_s, cpu_s, (wall_scale,
    cpu_scale))``, the unscaled times summed over the checks (so the
    oracle's work is left out) and the pass's host-speed factors."""
    order = list(checks)
    rng.shuffle(order)
    outcomes = []
    for check in order:
        outcome = check.run(cache_dir)
        host.after(outcome.seconds)
        outcomes.append((check.name, outcome))
    scale = host.scale()
    for name, outcome in outcomes:
        tally.add(name, outcome, scale[0])
    return (sum(o.seconds for _, o in outcomes),
            sum(o.cpu_seconds for _, o in outcomes), scale)


def quantile(values, p):
    """Harrell-Davis estimate of the *p*-quantile: a beta-weighted mean of
    all order statistics. The inputs of a workload differ in cost by
    orders of magnitude, so one order statistic, or two interpolated as
    ``statistics.quantiles`` does, follows the noise of the one or two
    inputs next to the quantile; the weighted mean averages the inputs
    around it. On the same runs it halved the spread of ``check_s.p50``
    (see the README)."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # the beta(a, b) mass of each interval [(i-1)/n, i/n], midpoint rule
    steps = 64
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def load_specs() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text())


def set_up(spec, limit):
    """The set-up of a fresh benchmark process: import the checker, build
    the inputs and warm up. Returns ``(checks module, checks, seconds)``."""
    t0 = time.perf_counter()
    import checks as C
    checks = C.build_checks(spec, limit)
    for check in C.build_checks(WARMUP):
        check.run(None)
    return C, checks, time.perf_counter() - t0


def setup_probe(workload: str, limit: str) -> None:
    """Run in a fresh interpreter: time one set-up and print its unscaled
    and scaled seconds, scaled by reference-loop samples taken right
    before and after it in the same process."""
    spec = load_specs()[workload]
    samples = [reference_s()[0] for _ in range(SETUP_SAMPLES)]
    seconds = set_up(spec, int(limit) if limit else None)[2]
    samples += [reference_s()[0] for _ in range(SETUP_SAMPLES)]
    print(seconds, seconds * REF_S / statistics.mean(samples))


def setup_seconds(args) -> tuple:
    """``(unscaled, scaled)`` seconds of one set-up in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"),
         str(BENCH_DIR), args.workload,
         "" if args.limit is None else str(args.limit)],
        capture_output=True, text=True, check=True, timeout=120)
    raw, scaled = proc.stdout.split()
    return float(raw), float(scaled)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    specs = load_specs()
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r} (expected one "
              f"of {', '.join(specs)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    OUT_DIR.mkdir(exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="stores-", dir=OUT_DIR)
    try:
        return measure(args, specs[args.workload], cache_root)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


def measure(args, spec, cache_root) -> int:
    rng = random.Random(args.seed)
    C, checks, _ = set_up(spec, args.limit)
    host = HostSpeed()
    # fresh interpreters, each scaled to the host speed of its own moment
    probes = [setup_seconds(args) for _ in range(SETUP_REPEATS)]
    raw_setup = statistics.median(raw for raw, _ in probes)
    setup_s = statistics.median(scaled for _, scaled in probes)
    print(f"# setup: {' '.join(f'{raw:.3f}' for raw, _ in probes)}")

    cache_dir = None
    cold = Tally()
    if spec["warm"]:
        # a cold pass fills a solver artifact store and a result cache;
        # it is set-up, and its verdicts are checked too
        fills = []
        for i in range(COLD_FILLS):
            cache_dir = os.path.join(cache_root, f"store{i}")
            wall, _, scale = run_pass(checks, rng, cache_dir, host, cold)
            fills.append((wall, wall * scale[0]))
        raw_setup += statistics.median(raw for raw, _ in fills)
        setup_s += statistics.median(scaled for _, scaled in fills)
        print(f"# cold passes: {' '.join(f'{raw:.3f}' for raw, _ in fills)}"
              f" (scaled {' '.join(f'{sc:.3f}' for _, sc in fills)})")

    tally = Tally()
    walls, cpus, raw_walls, raw_cpus, traced_walls = [], [], [], [], []
    rss = None
    recorder = None
    if args.trace:
        import spans as S
        recorder = S.Recorder()
    start = time.perf_counter()
    while True:
        if recorder is not None and len(raw_walls) > len(traced_walls):
            with recorder.installed():
                wall, _, _ = run_pass(checks, rng, cache_dir, host, tally)
            traced_walls.append(wall)
        else:
            wall, cpu, scale = run_pass(checks, rng, cache_dir, host, tally)
            raw_walls.append(wall)
            raw_cpus.append(cpu)
            walls.append(wall * scale[0])
            cpus.append(cpu * scale[1])
        if rss is None:
            rss = peak_rss_mb()
        if time.perf_counter() - start >= args.seconds \
                and (recorder is None or traced_walls):
            break

    failed = tally.failed + cold.failed
    attempted = tally.attempted + cold.attempted
    mismatches = tally.mismatches + cold.mismatches
    witness_failures = tally.witness_failures + cold.witness_failures
    # each input's mean over the passes: the latency distribution over
    # inputs, without the per-check noise of a shared host
    lat = [statistics.mean(v) for v in tally.latencies.values()]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "check_s.p50": quantile(lat, 0.5),
        "check_s.p90": quantile(lat, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    counters = {"failed_share": failed / attempted,
                "verdict_mismatches": mismatches,
                "witness_replay_failures": witness_failures,
                "check_s.n": len(lat)}
    for name, value in end_to_end.items():
        print(f"{name} {value:.6f} {END_TO_END[name]}")
    for name, value in counters.items():
        print(f"{name} {value} {COUNTERS[name]}")
    print(f"# unscaled: wall_s {statistics.median(raw_walls):.6f} s, "
          f"setup_s {raw_setup:.6f} s, "
          f"cpu_s {statistics.median(raw_cpus):.6f} s; pass walls "
          f"{' '.join(f'{w:.3f}' for w in raw_walls)}; traced "
          f"{' '.join(f'{w:.3f}' for w in traced_walls)}")
    print(f"# witnesses skipped (uninterpretable): "
          f"{tally.skipped + cold.skipped}")

    if recorder is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end.items()}
    else:
        layers = S.layer_metrics(recorder.spans, sum(traced_walls),
                                 len(traced_walls))
        layers["trace.overhead_s"] = layers["trace.wall_s"] \
            - statistics.median(raw_walls)
        metrics = {k: {"value": v, "unit": S.unit_of(k)}
                   for k, v in layers.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6f} {m['unit']}")
        recorder.write(str(OUT_DIR / f"spans-{args.workload}-"
                                     f"seed{args.seed}.jsonl"))

    correct = mismatches == 0 and witness_failures == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
