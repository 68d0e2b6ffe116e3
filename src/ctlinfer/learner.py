"""Passive learning of minimal consistent ENF formulas from samples.

`learn_minimal` searches size budgets 1..B in order and returns the first
formula consistent with the sample: true on every initial state of every
positive structure, false on some initial state of every negative one.
Because budgets are tried bottom-up, the result has minimal size.

`infer_candidate` is the inner search of the counterexample-guided loop:
one distinguished positive structure, accumulated negative structures,
and a discard set D of formulas that must not be proposed again.  Each
member of D is excluded by a blocking clause at the budget matching its
size; renumbered embeddings of discarded formulas inside larger budgets
(possible when filler nodes are unreachable from the root) are caught by
re-checking every decoded formula against D and blocking that embedding
before re-solving, so no discarded formula is ever returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from . import ctl, encoder
from .ctl import CtlFormula
from .kripke import KripkeStructure, bisimulation_classes
from .sat import BackendFailure, CdclSolver

__all__ = ["Sample", "BudgetTrace", "LearnResult", "AlphabetMismatch",
           "NoConsistentFormula", "learn_minimal", "infer_candidate"]


class AlphabetMismatch(ValueError):
    """Sample structures must agree on one proposition alphabet."""


class NoConsistentFormula(Exception):
    """No formula within the size budget separates the sample.

    Carries the per-budget solver trace; it is empty when the sample was
    rejected outright because some negative structure is bisimilar, on
    its initial states, to the positives (see `Sample.has_conflict`): no
    formula of any size separates such a sample.
    """

    def __init__(self, budgets: list["BudgetTrace"]):
        super().__init__("no consistent formula within the size budget")
        self.budgets = budgets


@dataclass(frozen=True)
class Sample:
    """Positive and negative structures over a shared alphabet."""

    positives: tuple[KripkeStructure, ...]
    negatives: tuple[KripkeStructure, ...] = ()

    def __post_init__(self) -> None:
        if not self.positives and not self.negatives:
            raise ValueError("sample must contain at least one structure")
        alphabet = self.structures[0].alphabet
        for struct in self.structures:
            if struct.alphabet != alphabet:
                raise AlphabetMismatch(
                    f"expected alphabet {alphabet}, got {struct.alphabet}")

    @property
    def structures(self) -> tuple[KripkeStructure, ...]:
        return self.positives + self.negatives

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.structures[0].alphabet

    def has_conflict(self) -> bool:
        """True iff every initial state of some negative is bisimilar to
        some positive initial state.

        This is exactly when no CTL formula of any size separates the
        sample.  CTL holds equally on bisimilar states (Browne, Clarke &
        Grumberg 1988), so a formula true on every positive initial state
        is then true on every initial state of that negative.  Conversely,
        if every negative N has an initial state n bisimilar to no
        positive initial state, then for each positive initial state p
        some formula holds at p and fails at n (on finite structures,
        bisimilar means agreeing on every formula built from
        propositions, !, & and EX).  Their disjunction over the finitely
        many p holds on all positives and fails at n, and the conjunction
        of these over all N separates the sample.
        """
        classes = bisimulation_classes(self.structures)
        pos_classes = {cls[s] for m, cls in zip(self.positives, classes)
                       for s in m.initial}
        neg_classes = classes[len(self.positives):]
        return any(all(cls[s] in pos_classes for s in m.initial)
                   for m, cls in zip(self.negatives, neg_classes))


@dataclass(frozen=True)
class BudgetTrace:
    """Outcome of one size budget: SAT/UNSAT plus solver statistics."""

    size: int
    satisfiable: bool
    variables: int
    clauses: int
    millis: float

    def describe(self) -> str:
        """One deterministic line; the wall-clock `millis` is left off, so
        identical seeded runs print identical output."""
        verdict = "SAT" if self.satisfiable else "UNSAT"
        return (f"budget {self.size}: {verdict} (vars={self.variables}, "
                f"clauses={self.clauses})")


@dataclass(frozen=True)
class LearnResult:
    formula: CtlFormula
    size: int
    budgets: tuple[BudgetTrace, ...]


def _search(sample: Sample, max_size: int, discarded: Sequence[CtlFormula],
            seed: int | None) -> tuple[LearnResult | None, list[BudgetTrace]]:
    budgets: list[BudgetTrace] = []
    blocked_dags = [ctl.to_dag(f) for f in discarded]
    for n in range(1, max_size + 1):
        instance = encoder.build_instance(n, sample.positives,
                                          sample.negatives, blocked_dags)
        backend = CdclSolver(seed=seed)
        encoder.load_backend(instance, backend)
        started = time.perf_counter()
        while backend.solve():
            formula, lits = encoder.decode_with_literals(backend.model(),
                                                         instance)
            if formula in discarded:
                # A renumbered embedding of a discarded formula: exclude
                # this embedding and look for a different assignment.
                backend.add_clause([-lit for lit in lits])
                continue
            millis = (time.perf_counter() - started) * 1000.0
            budgets.append(BudgetTrace(n, True, instance.num_vars,
                                       instance.num_clauses, millis))
            if ctl.size(formula) != n:
                raise BackendFailure(
                    f"decoded formula {ctl.print_ctl(formula)} has size "
                    f"{ctl.size(formula)} at budget {n}; a smaller budget "
                    "should have found it")
            return LearnResult(formula, n, tuple(budgets)), budgets
        millis = (time.perf_counter() - started) * 1000.0
        budgets.append(BudgetTrace(n, False, instance.num_vars,
                                   instance.num_clauses, millis))
    return None, budgets


def learn_minimal(sample: Sample, max_size: int,
                  seed: int | None = None) -> LearnResult:
    """Minimal-size formula consistent with the sample.

    Tries budgets 1..max_size in order and returns at the first
    satisfiable one, so the result's size is the minimum over all
    consistent formulas.  Raises `NoConsistentFormula` when every budget
    is unsatisfiable (immediately when the sample is self-contradictory).
    """
    if max_size < 1:
        raise ValueError("size budget must be at least 1")
    if sample.has_conflict():
        raise NoConsistentFormula([])
    result, budgets = _search(sample, max_size, (), seed)
    if result is None:
        raise NoConsistentFormula(budgets)
    return result


def infer_candidate(model: KripkeStructure, bound: int,
                    negatives: Sequence[KripkeStructure] = (),
                    discarded: Sequence[CtlFormula] = (),
                    seed: int | None = None) -> LearnResult | None:
    """Smallest formula holding on `model`, failing every structure in
    `negatives`, and syntactically different from everything in
    `discarded`; None when no such formula of size <= bound exists."""
    if bound < 1:
        raise ValueError("size budget must be at least 1")
    sample = Sample((model,), tuple(negatives))
    if sample.has_conflict():
        return None
    result, _ = _search(sample, bound, tuple(discarded), seed)
    return result
