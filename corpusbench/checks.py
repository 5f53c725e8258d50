"""The benchmark's inputs and its correctness oracle.

A *check* is one call into the public checking API: a kernel compiled
from source with ``SESA.from_source(...).check(...)`` at its paper
launch configuration, or a stream program through
``repro.streams.check_stream``. Every verdict is judged against the
hand-written expectations that ship with the corpus
(``Kernel.expected_issues`` and ``StreamCase.expected_racy``), never
against a signature recorded from this tool, and every reported race
or OOB witness of a kernel is replayed concretely with
``repro.smt.evaluate``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core import SESA
from repro.kernels import ALL_KERNELS, Kernel
from repro.kernels.lonestar import attach_concrete_graph
from repro.kernels.streams import StreamCase, get_stream_case
from repro.service.cache import ResultCache
from repro.smt import EvaluationError, evaluate
from repro.streams import check_stream


@dataclass
class Outcome:
    """One check's timing and its standing against the oracle."""

    seconds: float
    cpu_seconds: float
    #: raised or timed out: no verdict
    failed: bool = False
    #: verdict disagrees with the hand-written expectation
    mismatch: bool = False
    #: witnesses whose concrete re-evaluation contradicts the report
    witness_failures: int = 0
    #: witnesses over havocked or summarised values: nothing to replay
    witnesses_skipped: int = 0
    detail: str = ""


@dataclass
class Check:
    """One input of a workload; ``run(cache_dir)`` performs the check."""

    name: str
    run: Callable[[Optional[str]], Outcome]


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def kind_closure(kinds) -> set:
    """The test suite's matching rule: RW covers WR, and a benign
    annotation matches its base kind."""
    out = set()
    for k in kinds:
        out.add(k)
        out.add(k.replace(" (Benign)", ""))
        if k == "RW":
            out.add("WR")
    return out


def kernel_verdict_matches(kernel: Kernel, found: set) -> bool:
    """A racy kernel must report one of its expected kinds; a clean
    kernel may report only benign issues."""
    expected = set(kernel.expected_issues)
    if expected:
        return bool(found & kind_closure(expected))
    return not {f for f in found if "Benign" not in f}


def _thread_env(coords, blocks, inputs) -> dict:
    env = {"tid.x": coords[0], "tid.y": coords[1], "tid.z": coords[2],
           "bid.x": blocks[0], "bid.y": blocks[1], "bid.z": blocks[2]}
    env.update(inputs)
    return env


def _in_launch(config, *threads) -> bool:
    return all(0 <= c < d
               for coords, blocks in threads
               for c, d in zip(tuple(coords) + tuple(blocks),
                               tuple(config.block_dim)
                               + tuple(config.grid_dim)))


def replay_witnesses(report, config) -> tuple:
    """``(failures, skipped)`` over the report's race and OOB witnesses.

    Every witness thread must lie inside the launch. A race witness must
    satisfy both access guards at overlapping byte ranges; an OOB
    witness must satisfy the guard at an address past the object's end.
    Witnesses over values the evaluator cannot interpret are skipped, as
    in ``tests/test_witness_validity.py``.
    """
    failures = skipped = 0
    for race in report.races:
        w = race.witness
        if w is None or not _in_launch(config, (w.thread1, w.block1),
                                       (w.thread2, w.block2)):
            failures += 1
            continue
        inputs = dict(w.inputs)
        env1 = _thread_env(w.thread1, w.block1, inputs)
        env2 = _thread_env(w.thread2, w.block2, inputs)
        try:
            cond1 = evaluate(race.access1.cond, env1)
            cond2 = evaluate(race.access2.cond, env2)
            addr1 = evaluate(race.access1.offset, env1)
            addr2 = evaluate(race.access2.offset, env2)
        except EvaluationError:
            skipped += 1
            continue
        overlap = (addr1 < addr2 + race.access2.size
                   and addr2 < addr1 + race.access1.size)
        if not (cond1 and cond2 and overlap):
            failures += 1
    for oob in report.oobs:
        w = oob.witness
        if w is None or not _in_launch(config, (w.thread1, w.block1)):
            failures += 1
            continue
        env = _thread_env(w.thread1, w.block1, dict(w.inputs))
        try:
            cond = evaluate(oob.access.cond, env)
            addr = evaluate(oob.access.offset, env)
        except EvaluationError:
            skipped += 1
            continue
        if not (cond and addr + oob.access.size > oob.size_bytes):
            failures += 1
    return failures, skipped


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _timed(check, cache_dir: Optional[str]):
    """``(report, outcome)`` of one check, the report ``None`` when it
    raised. Only the call itself is timed, never the oracle."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    report, detail = None, "timed out"
    try:
        report = check(cache_dir)
    except Exception as exc:  # a failed check is counted, not fatal
        detail = f"{type(exc).__name__}: {exc}"
    outcome = Outcome(time.perf_counter() - wall0,
                      time.process_time() - cpu0, detail=detail)
    return report, outcome


def _kernel_check(kernel: Kernel) -> Check:
    def check(cache_dir: Optional[str]):
        config = kernel.launch_config(solver_cache_dir=cache_dir)
        if kernel.table.startswith("Table III") \
                or kernel.name == "parboil_bfs":
            attach_concrete_graph(config)
        return SESA.from_source(kernel.source,
                                kernel.kernel_name).check(config)

    def run(cache_dir: Optional[str]) -> Outcome:
        report, outcome = _timed(check, cache_dir)
        if report is None or report.timed_out:
            outcome.failed = True
            return outcome
        found = set(report.race_kinds()) | ({"OOB"} if report.oobs
                                           else set())
        outcome.mismatch = not kernel_verdict_matches(kernel, found)
        outcome.witness_failures, outcome.witnesses_skipped = \
            replay_witnesses(report, report.execution.config)
        outcome.detail = (f"found {sorted(found)}, expected "
                          f"{kernel.expected_issues}")
        return outcome
    return Check(kernel.name, run)


def _stream_check(case: StreamCase) -> Check:
    def check(cache_dir: Optional[str]):
        if cache_dir is None:
            return check_stream(case.program)
        return check_stream(case.program, cache=ResultCache(cache_dir),
                            solver_cache_dir=cache_dir)

    def run(cache_dir: Optional[str]) -> Outcome:
        report, outcome = _timed(check, cache_dir)
        if report is None or report.to_dict()["timed_out"]:
            outcome.failed = True
            return outcome
        outcome.mismatch = report.has_issues != case.expected_racy
        outcome.detail = (f"racy={report.has_issues}, expected "
                          f"{case.expected_racy}")
        return outcome
    return Check(f"stream:{case.name}", run)


def build_checks(spec: dict, limit: Optional[int] = None) -> List[Check]:
    """The workload's frozen input list, optionally cut to the first
    *limit* kernels and *limit* stream programs."""
    kernels = spec["kernels"][:limit]
    streams = spec["streams"][:limit]
    return ([_kernel_check(ALL_KERNELS[name]) for name in kernels]
            + [_stream_check(get_stream_case(name)) for name in streams])
