"""Spans around the library's layer boundaries, and the per-layer metrics.

`traced(lib, tracer)` replaces the public functions of `ceg`, `learner`,
`encoder`, `sat`, `synth` and `checker` by wrappers, through their module
or class attributes, and puts the originals back on exit.  The library
calls its layers through those attributes (`learner.infer_candidate`,
`encoder.build_instance`, `backend.solve`, `checker.holds`, ...), so every
call between layers opens a span.  Nothing in the library changes.

A span is [id, parent id, name, start, end, attributes].  Spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the durations of its children; calls are nested and single-threaded,
so children never overlap.
"""

from __future__ import annotations

import contextlib
import time
from types import SimpleNamespace
from typing import Any, Callable, Iterator

ID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    def _begin(self, name: str, attrs: dict[str, Any]) -> list[Any]:
        parent = self._open[-1] if self._open else -1
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0,
                attrs]
        self.spans.append(span)
        self._open.append(span[ID])
        return span

    def _end(self, span: list[Any]) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def task(self, task_id: str) -> Iterator[None]:
        """Root span of one task; every span of the task descends from it."""
        span = self._begin("task", {"task": task_id})
        try:
            yield
        finally:
            self._end(span)

    def wrap(self, name: str, fn: Callable[..., Any],
             describe: Callable[[Any], dict[str, Any]] | None = None,
             ) -> Callable[..., Any]:
        """`fn` inside a span; `describe(result)` gives its attributes."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._begin(name, {})
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    span[ATTRS] = describe(result)
                return result
            except BaseException as exc:
                span[ATTRS] = {"raised": type(exc).__name__}
                raise
            finally:
                self._end(span)

        return wrapper

    def wrap_solve(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """`CdclSolver.solve`, recording the verdict and how many clauses
        the call added (the solver never deletes learned clauses)."""

        def solve(solver: Any, *args: Any, **kwargs: Any) -> Any:
            before = solver.num_clauses
            span = self._begin("sat.solve", {})
            try:
                result = fn(solver, *args, **kwargs)
                span[ATTRS] = {"sat": bool(result),
                               "learned": solver.num_clauses - before}
                return result
            finally:
                self._end(span)

        return solve


def _instance_size(instance: Any) -> dict[str, Any]:
    return {"vars": instance.num_vars, "clauses": instance.num_clauses}


def _report_cases(report: Any) -> dict[str, Any]:
    cases = [entry.case for entry in report.trace]
    return {"iterations": report.iterations,
            "case1": cases.count(1), "case2": cases.count(2),
            "case3": cases.count(3)}


def _found(result: Any) -> dict[str, Any]:
    return {"found": result is not None}


@contextlib.contextmanager
def traced(lib: SimpleNamespace, tracer: Tracer) -> Iterator[None]:
    """Install the wrappers for the duration of the block."""
    targets = [
        (lib.ceg, "infer", "ceg.infer", _report_cases),
        (lib.learner, "learn_minimal", "learner.learn_minimal", _found),
        (lib.learner, "infer_candidate", "learner.infer_candidate", _found),
        (lib.encoder, "build_instance", "encoder.build_instance",
         _instance_size),
        (lib.encoder, "load_backend", "encoder.load_backend", None),
        (lib.encoder, "decode_with_literals", "encoder.decode", None),
        (lib.synth, "synthesize", "synth.synthesize", _found),
        (lib.synth, "implies", "synth.implies", _found),
        (lib.checker, "holds", "checker.holds", None),
    ]
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _, _ in targets]
    saved.append((lib.sat.CdclSolver, "solve", lib.sat.CdclSolver.solve))
    try:
        for owner, attr, name, describe in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                             describe))
        lib.sat.CdclSolver.solve = tracer.wrap_solve(
            lib.sat.CdclSolver.solve)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# Metrics that must repeat exactly between two traced passes of one seed.
COUNTS = ("ceg.iterations", "ceg.case1", "ceg.case2", "ceg.case3",
          "learner.calls", "learner.budgets", "encoder.vars",
          "encoder.clauses", "sat.solve_calls", "sat.sat_calls",
          "sat.unsat_calls", "sat.learned_clauses", "synth.calls",
          "synth.implies_calls", "synth.states_tried", "synth.unsat_proofs",
          "synth.models", "checker.calls")

UNITS = {name: "count" for name in COUNTS}
UNITS.update({name: "ratio" for name in ("ceg.case1_share",
                                         "learner.decode_hit_ratio")})
UNITS.update({name: "s" for name in (
    "ceg.self_s", "learner.self_s", "encoder.build_s", "encoder.load_s",
    "encoder.decode_s", "sat.learner_solve_s", "sat.synth_solve_s",
    "synth.self_s", "synth.unsat_s", "synth.sat_s", "checker.s",
    "trace.overhead_s")})


def layer_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (all but
    `trace.overhead_s`, which compares passes)."""
    children_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children_time[span[PARENT]] += span[END] - span[START]
    by_name: dict[str, list[list[Any]]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def named(name: str) -> list[list[Any]]:
        return by_name.get(name, [])

    def self_s(*names: str) -> float:
        return sum(s[END] - s[START] - children_time[s[ID]]
                   for name in names for s in named(name))

    def total_s(group: list[list[Any]]) -> float:
        return sum(s[END] - s[START] for s in group)

    def attr_sum(name: str, key: str) -> int:
        return sum(s[ATTRS].get(key, 0) for s in named(name))

    def parent_name(span: list[Any]) -> str:
        return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""

    def parent_layer(span: list[Any]) -> str:
        return parent_name(span).split(".")[0]

    learners = named("learner.learn_minimal") + named("learner.infer_candidate")
    solves = named("sat.solve")
    synths = named("synth.synthesize")
    iterations = attr_sum("ceg.infer", "iterations")
    decodes = len(named("encoder.decode"))
    hits = sum(1 for s in learners if s[ATTRS].get("found"))
    return {
        "ceg.iterations": iterations,
        "ceg.case1": attr_sum("ceg.infer", "case1"),
        "ceg.case2": attr_sum("ceg.infer", "case2"),
        "ceg.case3": attr_sum("ceg.infer", "case3"),
        "ceg.case1_share": (attr_sum("ceg.infer", "case1") / iterations
                            if iterations else 0.0),
        "ceg.self_s": self_s("ceg.infer"),
        "learner.calls": len(learners),
        "learner.budgets": len(named("encoder.build_instance")),
        "learner.self_s": self_s("learner.learn_minimal",
                                 "learner.infer_candidate"),
        "learner.decode_hit_ratio": hits / decodes if decodes else 0.0,
        "encoder.build_s": self_s("encoder.build_instance"),
        "encoder.load_s": self_s("encoder.load_backend"),
        "encoder.decode_s": self_s("encoder.decode"),
        "encoder.vars": attr_sum("encoder.build_instance", "vars"),
        "encoder.clauses": attr_sum("encoder.build_instance", "clauses"),
        "sat.solve_calls": len(solves),
        "sat.sat_calls": sum(1 for s in solves if s[ATTRS].get("sat")),
        "sat.unsat_calls": sum(1 for s in solves
                               if s[ATTRS].get("sat") is False),
        "sat.learner_solve_s": total_s([s for s in solves
                                        if parent_layer(s) == "learner"]),
        "sat.synth_solve_s": total_s([s for s in solves
                                      if parent_layer(s) == "synth"]),
        "sat.learned_clauses": attr_sum("sat.solve", "learned"),
        "synth.calls": len(synths),
        "synth.implies_calls": len(named("synth.implies")),
        "synth.self_s": self_s("synth.synthesize", "synth.implies"),
        "synth.states_tried": sum(1 for s in solves
                                  if parent_name(s) == "synth.synthesize"),
        "synth.unsat_proofs": sum(1 for s in synths
                                  if s[ATTRS].get("found") is False),
        "synth.models": sum(1 for s in synths if s[ATTRS].get("found")),
        "synth.unsat_s": total_s([s for s in synths
                                  if s[ATTRS].get("found") is False]),
        "synth.sat_s": total_s([s for s in synths if s[ATTRS].get("found")]),
        "checker.calls": len(named("checker.holds")),
        "checker.s": total_s(named("checker.holds")),
    }
