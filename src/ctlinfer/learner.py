"""Passive learning of minimal consistent ENF formulas from samples.

`learn_minimal` searches size budgets 1..B in order, each on a fresh
solver, and returns the first formula consistent with the sample: true on
every initial state of every positive structure, false on some initial
state of every negative one.  The encoding admits only normal-form DAGs
(`encoder.build_normal_form`), each of exactly its budget's size, and
every formula has an admitted equivalent of no larger size; because
budgets are tried bottom-up, the result has minimal size.

`infer_candidate` is the inner search of the counterexample-guided loop:
one distinguished positive structure, accumulated negative structures,
and a discard set D of formulas that must not be proposed again.  Its
state, a `CandidateSearch`, lives for the whole loop: negatives and D
only grow, so each size budget keeps one solver that later negatives and
blocks are appended to, and a budget proven UNSAT is never solved again
(the floor; `infer_candidate` gives the soundness argument).  Each member
of D is excluded by a blocking clause on its admitted DAG
(`encoder.normal_dag`) at the budget matching its size.  A formula can
still be admitted under another numbering of its operator nodes; such a
renumbering is caught by re-checking every decoded formula against D and
blocking that numbering before re-solving, so no discarded formula is
ever returned.  Both searches share that decode loop (`_solve_budget`)
and one encoding (`encoder.build_instance`, with `encoder.add_structure`
appending later negatives).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Container, Sequence

from . import ctl, encoder
from .ctl import CtlFormula, SyntaxDag
from .kripke import KripkeStructure, bisimulation_classes
from .sat import BackendFailure, CdclSolver

__all__ = ["Sample", "BudgetTrace", "LearnResult", "AlphabetMismatch",
           "NoConsistentFormula", "CandidateSearch", "learn_minimal",
           "infer_candidate"]


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


def _solve_budget(instance: encoder.EncodingInstance, backend: CdclSolver,
                  discarded: Container[CtlFormula],
                  ) -> tuple[CtlFormula | None, BudgetTrace]:
    """Solve, decode and re-block until the budget yields a formula not in
    `discarded` (None once the budget has no model left), with its trace.

    Every admitted DAG has exactly n nodes, so a discarded formula decoded
    here is a renumbering of its blocked DAG; any other size is a broken
    encoding."""
    n = instance.size_budget
    started = time.perf_counter()
    formula = None
    while backend.solve():
        formula, lits = encoder.decode_with_literals(backend.model(),
                                                     instance)
        if formula not in discarded:
            break
        # A discarded formula under another numbering of its operator
        # nodes: exclude this numbering and look for a different one.
        backend.add_clause([-lit for lit in lits])
        formula = None
    millis = (time.perf_counter() - started) * 1000.0
    if formula is not None and ctl.size(formula) != n:
        raise BackendFailure(
            f"decoded formula {ctl.print_ctl(formula)} has size "
            f"{ctl.size(formula)} at budget {n}; the normal form admits "
            "only DAGs of the budget's size")
    return formula, BudgetTrace(n, formula is not None, instance.num_vars,
                                instance.num_clauses, millis)


def learn_minimal(sample: Sample, max_size: int,
                  seed: int | None = None) -> LearnResult:
    """Minimal-size formula consistent with the sample.

    Tries budgets 1..max_size in order, each on a fresh solver, and
    returns at the first satisfiable one, so the result's size is the
    minimum over all consistent formulas.  Raises `NoConsistentFormula`
    when every budget is unsatisfiable (immediately when the sample is
    self-contradictory).
    """
    if max_size < 1:
        raise ValueError("size budget must be at least 1")
    if sample.has_conflict():
        raise NoConsistentFormula([])
    budgets: list[BudgetTrace] = []
    for n in range(1, max_size + 1):
        instance = encoder.build_instance(n, sample.positives,
                                          sample.negatives)
        backend = encoder.load_backend(instance, CdclSolver(seed=seed))
        formula, trace = _solve_budget(instance, backend, ())
        budgets.append(trace)
        if formula is not None:
            return LearnResult(formula, n, tuple(budgets))
    raise NoConsistentFormula(budgets)


class CandidateSearch:
    """The state `infer_candidate` keeps across one CEG run: the model,
    the size bound and the solver seed; the negatives and discarded
    formulas seen so far; whether some negative conflicts with the model
    (`Sample.has_conflict`); the floor, below which every budget is
    UNSAT; and the floor budget's instance and solver once created."""

    def __init__(self, model: KripkeStructure, bound: int,
                 seed: int | None = None):
        if bound < 1:
            raise ValueError("size budget must be at least 1")
        self.model = model
        self.bound = bound
        self.seed = seed
        self._negatives: list[KripkeStructure] = []
        self._discarded: list[CtlFormula] = []
        self._discarded_set: set[CtlFormula] = set()
        self._dags: list[SyntaxDag] = []
        self._conflict = False
        self._floor = 1
        self._live: tuple[encoder.EncodingInstance, CdclSolver] | None = None
        self._encoded = 0   # negatives in the live instance
        self._blocked = 0   # DAGs the live instance has blocks for

    def _update(self, negatives: Sequence[KripkeStructure],
                discarded: Sequence[CtlFormula]) -> None:
        if list(negatives[:len(self._negatives)]) != self._negatives:
            raise ValueError("negatives must extend the ones already seen")
        if list(discarded[:len(self._discarded)]) != self._discarded:
            raise ValueError(
                "discarded formulas must extend the ones already seen")
        new = negatives[len(self._negatives):]
        conflicts = [Sample((self.model,), (struct,)).has_conflict()
                     for struct in new]
        self._conflict = self._conflict or any(conflicts)
        self._negatives.extend(new)
        for formula in discarded[len(self._discarded):]:
            self._discarded.append(formula)
            self._discarded_set.add(formula)
            dag = encoder.normal_dag(formula, self.model.alphabet)
            if dag is not None:  # otherwise no budget admits it
                self._dags.append(dag)

    def _live_budget(self) -> tuple[encoder.EncodingInstance, CdclSolver]:
        """The floor budget's instance and solver, created on first use
        and brought up to date with the negatives and discards seen."""
        n = self._floor
        if self._live is None:
            instance = encoder.build_instance(n, (self.model,),
                                              self._negatives, self._dags)
            backend = encoder.load_backend(instance,
                                           CdclSolver(seed=self.seed))
            self._live = instance, backend
        else:
            instance, backend = self._live
            for struct in self._negatives[self._encoded:]:
                backend.add_clauses(
                    encoder.add_structure(instance, struct, negative=True))
            blocks = encoder.build_block(instance.pool, n,
                                         self._dags[self._blocked:])
            instance.clauses += blocks
            backend.add_clauses(blocks)
            backend.reserve(instance.num_vars)
        self._encoded = len(self._negatives)
        self._blocked = len(self._dags)
        return instance, backend


def infer_candidate(search: CandidateSearch,
                    negatives: Sequence[KripkeStructure] = (),
                    discarded: Sequence[CtlFormula] = (),
                    ) -> LearnResult | None:
    """Smallest normal-form formula (`encoder.build_normal_form`) holding
    on `search.model`, failing every structure in `negatives`, and
    syntactically different from everything in `discarded`; None when no
    such formula of size <= `search.bound` exists.  Every formula has a
    normal-form equivalent of no larger size, but discarding a formula
    discards none of its equivalents.

    The search persists across calls.  `negatives` and `discarded` must
    extend the sequences of the previous call on the same search (raises
    `ValueError` otherwise).  Each budget's clause set then only grows:
    a new negative appends its variables, semantic clauses and
    consistency clause; a new discard of the budget's own size appends its
    blocking clause; and a decoded renumbering of a discarded formula is
    blocked for good, since that formula stays discarded.  The formulas a
    budget admits (consistent and not discarded) only shrink, so a budget
    that was UNSAT stays UNSAT: it is dropped for good, and the search
    resumes at the floor, the first budget not yet proven UNSAT.  No
    budget below the floor admits a formula, so the first SAT budget is
    still the minimum size, and a decoded formula of another size is a
    `BackendFailure`.  The floor budget's solver lives from its first use
    until it answers UNSAT, so at most one solver is alive at a time.

    A new negative whose every initial state is bisimilar to an initial
    state of the model (`Sample.has_conflict`) leaves no separating
    formula of any size.  That is decided once per negative, and from
    then on the search answers None without solving.  The `budgets` of
    the result trace the budgets solved by this call.
    """
    search._update(negatives, discarded)
    if search._conflict:
        return None
    budgets: list[BudgetTrace] = []
    while search._floor <= search.bound:
        instance, backend = search._live_budget()
        formula, trace = _solve_budget(instance, backend,
                                       search._discarded_set)
        budgets.append(trace)
        if formula is not None:
            return LearnResult(formula, instance.size_budget, tuple(budgets))
        search._live = None
        search._floor += 1
    return None
