"""The benchmark workloads: inputs from a seed, one pass, answer checks.

Every workload is a list of tasks.  `prepare` builds the tasks from the
seed (the set-up the benchmark times as `setup_s`), `run` calls the
library's public API once per task and returns the answer, `describe`
renders an answer, and `check` judges the answers of one pass against the
test suite's independent oracles, outside any timed region.

* `infer_fixtures` - `ceg.infer` on every fixture at bounds 2 and 3 with a
  5-state synthesis budget (at the default 6 states one pass takes over a
  minute).  The solver runs unseeded, the library's default, so every seed does the
  same work and the seed only sets the task order: a seeded solver changes
  the iteration counts, and with them the pass time, from seed to seed.
* `synth_implies` - `synth.implies` on fixed pairs whose verdicts are argued
  by hand below; the seed sets the task order.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

INFER_BOUNDS = (2, 3)
INFER_SYNTH_STATES = 5

SYNTH_ALPHABET = ("p", "q")

# (f, g, state budget, expected state count of the countermodel of f -> g,
# or None for a valid implication).  The arguments are in the comments.
SYNTH_PAIRS: tuple[tuple[str, str, int, int | None], ...] = (
    # E[p U EG p] and EG p are equivalent: EG p is the until's own goal,
    # and a path along p-states into an EG p state is itself an EG p path.
    ("E[p U EG p]", "EG p", 5, None),
    ("EG p", "E[p U EG p]", 5, None),
    # EG is idempotent: EG p holds on every state of its own witness path.
    ("EG EG p", "EG p", 5, None),
    ("EG p", "EG EG p", 5, None),
    # p & p is p.
    ("EG (p & p)", "EG p", 5, None),
    # E[p U p] holds exactly where p does (its goal already holds there).
    ("E[p U p]", "p", 5, None),
    # AF !p fails on the all-p path that EG p provides.
    ("EG p", "!AF !p", 5, None),
    # The goal q is reached along the until path, so EF q.
    ("E[p U q]", "EF q", 6, None),
    ("EG p", "!AF !p", 6, None),
    # Invalid.  With one state EX, EF and EG coincide with AX, AF and AG
    # (s0 is its own only successor), so every countermodel below needs
    # at least two states.  s0 (p) -> {s0, s1}, s1 () -> s1 has two.
    ("EX p", "AX p", 5, 2),
    # s0 () -> {s0, s1}, s1 (p) -> s1: the s0 self-loop avoids p forever.
    ("EF p", "AF p", 5, 2),
    # s0 (p) -> {s0, s1}, s1 () -> s1: the s0 loop keeps p in reach, the
    # trap s1 does not.
    ("EG EF p", "AG EF p", 5, 2),
    # The four successors of s0 carry pairwise different labellings, so
    # four states are needed; s0 may be one of them (a self-loop), so
    # four suffice.
    ("EX (p & q) & EX (p & !q) & EX (!p & q) & EX (!p & !q)", "false",
     4, 4),
    # Depth 4: levels 0..3 carry the four different labellings, so four
    # states are needed; level 4 asks for the labelling of s0, so the
    # cycle s0 -> s1 -> s2 -> s3 -> s0 suffices.
    ("p & q & AX (p & !q & EX (!p & q & AX (!p & !q & EX (p & q))))",
     "false", 5, 4),
)


class MissingLibrary(RuntimeError):
    """The checkout has no importable `ctlinfer` under `src/`."""


def import_library() -> SimpleNamespace:
    """Import the library from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ctlinfer" / "__init__.py").is_file():
        raise MissingLibrary(f"no ctlinfer package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from ctlinfer import (ceg, checker, ctl, encoder, kripke, learner, sat,
                          synth)
    if not Path(ctl.__file__).resolve().is_relative_to(src):
        raise MissingLibrary(f"ctlinfer was imported from {ctl.__file__}")
    return SimpleNamespace(ceg=ceg, checker=checker, ctl=ctl, encoder=encoder,
                           kripke=kripke, learner=learner, sat=sat,
                           synth=synth)


def import_oracles() -> ModuleType:
    """The independent oracles of the test suite (`tests/helpers.py`)."""
    path = ROOT / "tests" / "helpers.py"
    spec = importlib.util.spec_from_file_location("ctlinfer_test_oracles",
                                                  path)
    if spec is None or spec.loader is None:
        raise MissingLibrary(f"no test oracles at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Task:
    task_id: str
    args: tuple


class Workload:
    """One workload: `prepare` makes the tasks, `run` answers one task,
    `describe` renders an answer (equal strings mean equal answers) and
    `check` returns, per task, None or the reason its answer is wrong."""

    name = ""
    # Seconds one pass took on the baseline host, with the reference
    # computation after every task (`speed.Meter`); sets the pass count.
    nominal_pass_s = 1.0

    def prepare(self, lib: SimpleNamespace, seed: int) -> list[Task]:
        raise NotImplementedError

    def run(self, lib: SimpleNamespace, task: Task) -> Any:
        raise NotImplementedError

    def describe(self, lib: SimpleNamespace, answer: Any) -> str:
        raise NotImplementedError

    def check(self, lib: SimpleNamespace, oracles: ModuleType,
              tasks: list[Task], answers: list[Any]) -> list[str | None]:
        raise NotImplementedError


class InferFixtures(Workload):
    name = "infer_fixtures"
    nominal_pass_s = 8.5

    def prepare(self, lib, seed):
        tasks = []
        for bound in INFER_BOUNDS:
            for path in sorted((ROOT / "fixtures").glob("*.kripke")):
                model = lib.kripke.parse_kripke(path.read_text())
                tasks.append(Task(f"{path.stem}@{bound}", (model, bound)))
        random.Random(seed).shuffle(tasks)
        return tasks

    def run(self, lib, task):
        model, bound = task.args
        return lib.ceg.infer(model, bound, synth_states=INFER_SYNTH_STATES)

    def describe(self, lib, report):
        return (f"{lib.ctl.print_ctl(report.formula)} "
                f"[{report.iterations} iterations]")

    def check(self, lib, oracles, tasks, reports):
        verdicts = []
        for task, report in zip(tasks, reports):
            model, bound = task.args
            try:
                lib.ceg.verify_solution(model, bound, report)
            except (lib.ceg.CertificationFailure,
                    lib.synth.SynthesisInconsistency) as exc:
                verdicts.append(f"verify_solution: {exc}")
                continue
            if not oracles.naive_holds(model, report.formula):
                verdicts.append("the naive checker rejects the result")
            else:
                verdicts.append(None)
        return verdicts


class SynthImplies(Workload):
    name = "synth_implies"
    nominal_pass_s = 5.2

    def prepare(self, lib, seed):
        tasks = [Task(f"{f} -> {g} @{states}",
                      (lib.ctl.parse_ctl(f), lib.ctl.parse_ctl(g), states,
                       expected))
                 for f, g, states, expected in SYNTH_PAIRS]
        random.Random(seed).shuffle(tasks)
        return tasks

    def run(self, lib, task):
        f, g, states, _ = task.args
        return lib.synth.implies(f, g, states, SYNTH_ALPHABET)

    def describe(self, lib, witness):
        if witness is None:
            return "valid"
        return f"countermodel {lib.kripke.inline_kripke(witness)}"

    def check(self, lib, oracles, tasks, witnesses):
        verdicts = []
        for task, witness in zip(tasks, witnesses):
            f, g, _, expected = task.args
            if expected is None:
                verdicts.append(None if witness is None else
                                "countermodel to a valid implication")
            elif witness is None:
                verdicts.append("no countermodel to an invalid implication")
            elif witness.size != expected:
                verdicts.append(f"countermodel has {witness.size} states, "
                                f"expected {expected}")
            elif not oracles.naive_holds(witness, f) or \
                    oracles.naive_holds(witness, g):
                verdicts.append("the countermodel does not separate f from g")
            else:
                verdicts.append(None)
        return verdicts


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (InferFixtures(), SynthImplies())}
