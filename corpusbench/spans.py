"""Span recorder for the traced run, and the per-layer split it yields.

The recorder wraps the program's public entry points from outside —
nothing under ``src/`` is changed — and only while a traced pass runs.
Each span keeps its name, start, end and parent; spans stay in memory
and are written out when the benchmark ends. A span's *self time* is
its duration minus that of its direct children, so the self times of
all spans add up exactly to the time the outermost spans cover, and
``trace.untraced_s`` is the rest of the pass.

Attribution rules:

* everything under ``static.tier`` (the single-flow walk is an
  ``Executor.run``) is tier-0 time;
* a solver span (``Solver.check`` / ``SolverSession.check``) under
  ``Executor.run`` is flow-split feasibility; any other (under
  ``RaceChecker.check`` or ``StreamChecker.check``) is race solving. A
  solver span nested in another solver span belongs to the outer one.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.frontend import compile_source
from repro.passes import analyze_taint
from repro.passes.manager import PassManager
from repro.smt import CheckResult, Solver, SolverArtifactStore, \
    SolverSession
from repro.static import run_static_tier
from repro.streams import StreamChecker
from repro.sym import Executor, RaceChecker

SOLVE = ("smt.oneshot", "smt.session")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float,
                 parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, object] = {}

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


def _solver_attrs(_args, result) -> dict:
    return {"result": result}


def _tier_attrs(_args, outcome) -> dict:
    return {"resolved": bool(outcome.resolved)}


def _race_attrs(_args, checker) -> dict:
    s = checker.stats
    return {"pairs_considered": s.pairs_considered,
            "queries": s.queries,
            "sessions_created": s.sessions_created,
            "warm_pair_hits": s.warm_pair_hits}


def _stream_attrs(_args, report) -> dict:
    s = report.stats
    return {"launch_cache_hits": s.launch_cache_hits,
            "unordered_pairs": s.unordered_pairs,
            "sessions_created": s.sessions_created}


#: (span name, owner, attribute, attrs hook). An owner that is a class is
#: patched on the class; a function is re-bound in every ``repro``
#: module that imported it, since callers hold their own reference.
ENTRY_POINTS = [
    ("frontend.compile", None, compile_source, None),
    ("passes.pipeline", PassManager, "run", None),
    ("passes.taint", None, analyze_taint, None),
    ("static.tier", None, run_static_tier, _tier_attrs),
    ("sym.execute", Executor, "run", None),
    ("sym.race_check", RaceChecker, "check", _race_attrs),
    ("smt.oneshot", Solver, "check", _solver_attrs),
    ("smt.session", SolverSession, "check", _solver_attrs),
    ("smt.persist_load", SolverArtifactStore, "load", None),
    ("smt.persist_save", SolverArtifactStore, "save", None),
    ("streams.check", StreamChecker, "check", _stream_attrs),
]


class Recorder:
    """Collects spans from the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo = []
        try:
            for name, owner, attr, hook in ENTRY_POINTS:
                if owner is not None:
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(name, original, hook))
                    undo.append((owner, attr, original))
                    continue
                wrapped = self._wrap(name, attr, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is attr:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, attr))
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

#: the disjoint self-time buckets; with ``trace.untraced_s`` they add
#: up to the traced wall clock
SELF_TIME = ["frontend.compile_s", "passes.pipeline_s", "passes.taint_s",
             "static.tier_s", "sym.execute_self_s", "sym.feasibility_s",
             "sym.race_check_self_s", "smt.race_solve_s",
             "smt.persist_load_s", "smt.persist_save_s",
             "streams.check_self_s"]

_DIRECT = {"frontend.compile": "frontend.compile_s",
           "passes.pipeline": "passes.pipeline_s",
           "passes.taint": "passes.taint_s",
           "sym.execute": "sym.execute_self_s",
           "sym.race_check": "sym.race_check_self_s",
           "smt.persist_load": "smt.persist_load_s",
           "smt.persist_save": "smt.persist_save_s",
           "streams.check": "streams.check_self_s"}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(spans: List[Span], wall_s: float,
                  passes: int) -> Dict[str, float]:
    """Per-pass layer figures over *spans*, recorded during *passes*
    traced passes whose wall clocks add up to *wall_s*."""
    m: Dict[str, float] = {k: 0.0 for k in SELF_TIME}
    # counters, and sub-totals that overlap the self-time partition
    counts = dict.fromkeys(
        ["static.resolved", "static.escalated", "static.escalated_s",
         "sym.feasibility_calls", "sym.feasibility_unknown",
         "sym.pairs_considered", "race_check_solves", "smt.race_queries",
         "smt.session_checks", "smt.oneshot_checks", "smt.race_unknown",
         "smt.sessions_created", "smt.warm_pair_hits",
         "streams.cross_solve_s", "streams.launch_cache_hits",
         "streams.unordered_pairs"], 0.0)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    # each span's ancestry decides the bucket its self time goes to
    for i, span in enumerate(spans):
        duration = span.end - span.start
        self_s = duration - child_time[i]
        in_tier = outer_solve = False
        owner = None      # nearest execute / race-check / stream ancestor
        p = span.parent
        while p is not None:
            name = spans[p].name
            if name == "static.tier":
                in_tier = True
            elif name in SOLVE:
                outer_solve = True
            elif owner is None and name in ("sym.execute",
                                            "sym.race_check",
                                            "streams.check"):
                owner = name
            p = spans[p].parent
        if in_tier or span.name == "static.tier":
            m["static.tier_s"] += self_s
            if span.name == "static.tier":
                resolved = span.attrs.get("resolved", False)
                counts["static.resolved" if resolved
                       else "static.escalated"] += 1
                if not resolved:
                    counts["static.escalated_s"] += duration
            continue
        if span.name in SOLVE:
            bucket = "sym.feasibility_s" if owner == "sym.execute" \
                else "smt.race_solve_s"
            m[bucket] += self_s
            if outer_solve:
                continue
            counts["smt.session_checks" if span.name == "smt.session"
                   else "smt.oneshot_checks"] += 1
            unknown = span.attrs.get("result") == CheckResult.UNKNOWN
            if owner == "sym.execute":
                counts["sym.feasibility_calls"] += 1
                counts["sym.feasibility_unknown"] += unknown
            else:
                counts["smt.race_queries"] += 1
                counts["smt.race_unknown"] += unknown
                if owner == "sym.race_check":
                    counts["race_check_solves"] += 1
                elif owner == "streams.check":
                    counts["streams.cross_solve_s"] += duration
            continue
        m[_DIRECT[span.name]] += self_s
        # a call that raised left no attributes: it counts for nothing
        a = span.attrs
        if span.name == "sym.race_check":
            counts["sym.pairs_considered"] += a.get("pairs_considered", 0)
            counts["smt.sessions_created"] += a.get("sessions_created", 0)
            counts["smt.warm_pair_hits"] += a.get("warm_pair_hits", 0)
        elif span.name == "streams.check":
            counts["smt.sessions_created"] += a.get("sessions_created", 0)
            counts["streams.launch_cache_hits"] += \
                a.get("launch_cache_hits", 0)
            counts["streams.unordered_pairs"] += a.get("unordered_pairs", 0)

    m.update(counts)
    m["trace.wall_s"] = wall_s
    m["trace.untraced_s"] = wall_s - sum(m[k] for k in SELF_TIME)
    solves = m.pop("race_check_solves")
    out = {k: v / passes for k, v in m.items()}
    attempts = counts["static.resolved"] + counts["static.escalated"]
    pairs = counts["sym.pairs_considered"]
    out["static.resolve_ratio"] = \
        counts["static.resolved"] / attempts if attempts else 0.0
    out["sym.pairs_to_solver_ratio"] = solves / pairs if pairs else 0.0
    out["smt.warm_hit_ratio"] = \
        counts["smt.warm_pair_hits"] / pairs if pairs else 0.0
    return out
