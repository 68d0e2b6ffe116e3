"""Passive learning of minimal consistent ENF formulas from samples.

A formula is consistent with a sample when it holds on every initial
state of every positive structure and fails on some initial state of
every negative one.  The search admits only normal-form DAGs
(`encoder.build_normal_form`), each of exactly its budget's size, and
every formula has an admitted equivalent of no larger size; because
budgets are tried bottom-up, the first formula found has minimal size.

Both entry points run one search.  A `CandidateSearch` owns a growing
sample and the record P of every formula it has returned, and tries the
budgets 1..B in order (`CandidateSearch._next`), never returning a
formula of P.  The budgets up to `CHECK_CAP` admit few formulas, so the
search decides them with the checker, trying each formula the normal form
admits there (`encoder.normal_form_formulas`) on the sample in a fixed
order; from the budget above on it builds a CNF instance per budget and
solves it.  `learn_minimal` runs the search once on a fixed sample.  The
counterexample-guided loop keeps one search for the whole run and calls
`infer_candidate` on it, handing it each new negative once.  The checked
budgets read the sample and P from the search's own record, on masks
kept per sample structure (`checker.evaluator`); the floor budget's
instance appends each negative as clauses, and its solver loads them
before its next solve.  A budget proven UNSAT is never decided again.
The loop also hands it rooted negatives, states at which every answer
must fail (`ceg`, `encoder.add_rooted`).  P appends no clause: every
formula a solve decodes is re-checked against P, and a hit has the
numbering it was decoded with blocked before the budget is solved again
(`_solve_budget`).
"""

from __future__ import annotations

import time
from typing import Callable, Container, Iterable, NamedTuple

from . import checker, ctl, encoder
from .ctl import CtlFormula, FrozenRecord
from .kripke import KripkeError, KripkeStructure, bisimulation_classes
from .sat import BackendFailure

__all__ = ["CHECK_CAP", "Sample", "BudgetTrace", "LearnResult",
           "AlphabetMismatch", "NoConsistentFormula", "CandidateSearch",
           "learn_minimal", "infer_candidate"]

# The largest budget decided by the checker rather than by a CNF instance:
# the check tries each formula of `encoder.normal_form_formulas`, k, 3k and
# 2k^2 + 13k of them at budgets 1 to 3 over k propositions, and
# `CandidateSearch._next` argues it equal to solving the instance.  Timed
# with CPython 3.11 on a shared 2-core x86-64 host, an `infer_fixtures`
# pass of perfbench (11 fixtures at bounds 2 and 3) then builds no CNF
# instance and runs no learner solve, and its median wall time fell by 60%
# and 59% in two sets of 12 alternating pairs of runs, 12 of 12 each
# (`BENCH_checked3.json`; budgets 1 and 2 alone: `BENCH_checked.json`).  The cap stops at 3: budget 4 admits
# about 10 times as many formulas (256 over 2 propositions, 696 over 4,
# 2128 over 8), listed in 29, 79 and 285 ms on that host, a cost each
# process pays once per alphabet.  A cap of 4 did run unseeded bound 5 on
# the fixtures faster there (0.78 s against 0.89 s, medians of 10 runs),
# which ROADMAP keeps as an open lead.
CHECK_CAP = 3


class AlphabetMismatch(KripkeError):
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


class Sample(FrozenRecord):
    """Positive and negative structures over a shared alphabet, each kept
    as a tuple whatever iterable it is given as."""

    __slots__ = __match_args__ = ("positives", "negatives")

    def __init__(self, positives: Iterable[KripkeStructure],
                 negatives: Iterable[KripkeStructure] = ()) -> None:
        self._fill(tuple(positives), tuple(negatives))
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

        A sample without negatives has no conflict, so it is answered
        without the bisimulation pass; every `ceg.infer` starts from one.
        """
        if not self.negatives:
            return False
        classes = bisimulation_classes(self.structures)
        pos_classes = {cls[s] for m, cls in zip(self.positives, classes)
                       for s in m.initial}
        neg_classes = classes[len(self.positives):]
        return any(all(cls[s] in pos_classes for s in m.initial)
                   for m, cls in zip(self.negatives, neg_classes))


class BudgetTrace(NamedTuple):
    """Outcome of one size budget: SAT/UNSAT plus solver statistics.

    For a budget solved with a CNF instance, `variables` and `clauses`
    count the instance's whole clause stream, which `cnf-dump` writes,
    with the clauses the solver drops on loading as satisfied at the
    root, and `millis` times loading the clauses not yet loaded and every
    solve, decode and re-block of the budget's call.  A budget decided by
    the checker builds no CNF, so both counts are 0 (every instance has
    variables), and `millis` times the check."""

    size: int
    satisfiable: bool
    variables: int
    clauses: int
    millis: float

    def describe(self) -> str:
        """One deterministic line; the wall-clock `millis` is left off, so
        identical seeded runs print identical output."""
        verdict = "SAT" if self.satisfiable else "UNSAT"
        if not self.variables:
            return f"budget {self.size}: {verdict} (enumerated)"
        return (f"budget {self.size}: {verdict} (vars={self.variables}, "
                f"clauses={self.clauses})")


class LearnResult(NamedTuple):
    formula: CtlFormula
    size: int
    budgets: tuple[BudgetTrace, ...]


def _solve_budget(instance: encoder.EncodingInstance,
                  proposed: Container[CtlFormula],
                  ) -> tuple[CtlFormula | None, BudgetTrace]:
    """Load the instance's solver, solve, decode and re-block until the
    budget yields a formula not in `proposed` (None once the budget has
    no model left), with the budget's trace.  Every solve is preceded by
    `encoder.load_backend`, so it sees every clause appended so far.

    This is the one place a formula already returned is blocked: a
    decoded formula in `proposed` has the literals it was decoded with
    negated (`encoder.add_block`) before the next solve.  A block reads
    only x/l/r variables, so it excludes exactly that numbered DAG, which
    decodes to a formula that stays in `proposed`.  Every admitted DAG
    has exactly n nodes, so any other size is a broken encoding."""
    n = instance.size_budget
    started = time.perf_counter()
    formula = None
    while (solver := encoder.load_backend(instance)).solve():
        formula, lits = encoder.decode_with_literals(solver.values(),
                                                     instance)
        if formula not in proposed:
            break
        encoder.add_block(instance, lits)
        formula = None
    millis = (time.perf_counter() - started) * 1000.0
    if formula is not None and ctl.size(formula) != n:
        raise BackendFailure(
            f"decoded formula {ctl.print_ctl(formula)} has size "
            f"{ctl.size(formula)} at budget {n}; the normal form admits "
            "only DAGs of the budget's size")
    return formula, BudgetTrace(n, formula is not None, instance.num_vars,
                                instance.num_clauses, millis)


class CandidateSearch:
    """A growing sample and the size budgets 1..`bound` searched on it.

    Negatives enter one at a time through `add_negative` and rooted
    negatives through `add_rooted`; every formula `_next` returns enters
    the search's record of proposed formulas, and is never returned
    again.  The budgets up to `CHECK_CAP` read them where the search
    keeps them: the sample, `rooted` and that record.  A negative or
    rooted negative is appended at once to the live instance of the
    floor budget, if there is one, and every later budget's instance
    replays them, the rooted ones right after the structures; a returned
    formula appends nothing, and `_solve_budget` blocks its numbering
    when a solve decodes it again.  The live solver loads what was
    appended before each solve.  So the formulas each budget admits only
    shrink, a budget that was UNSAT stays UNSAT, and `_next` never
    decides it again.  Rooted negatives are argued in `ceg` and
    `encoder.add_rooted`.

    The search is the one record of rooted negatives: `rooted` keeps each
    (structure number, state) pair once, in the order added, and
    `add_rooted` ignores a pair it holds, so each instance is handed each
    pair once, as the one unit clause the encoder emits for it.
    """

    def __init__(self, sample: Sample, bound: int, seed: int | None = None):
        if bound < 1:
            raise ValueError("size budget must be at least 1")
        self.sample = sample
        self.bound = bound
        self.seed = seed
        self._proposed: set[CtlFormula] = set()
        self._floor = bound + 1 if sample.has_conflict() else 1
        self._live: encoder.EncodingInstance | None = None
        self.rooted: dict[tuple[int, int], None] = {}
        # Per structure of `sample.structures`, its checker masks and the
        # mask of its initial states, for the budgets up to `CHECK_CAP`.
        self._masks = [_masks_of(struct) for struct in sample.structures]

    def add_negative(self, struct: KripkeStructure) -> None:
        """Add a negative structure; from now on every answer fails it.

        Unlike `__init__`, this runs no `Sample.has_conflict` check: the
        counterexample-guided loop, its one caller, cannot hand over a
        conflicting negative.  A case-3 witness satisfies !hypothesis and
        a case-2 witness satisfies !candidate, while both formulas hold on
        every initial state of the model, the one positive.  CTL holds
        equally on bisimilar states, so the witness's initial state s0 is
        bisimilar to none of the model's.  For any other caller, a
        negative bisimilar to the positives makes every budget's instance
        UNSAT, so the search reaches the same None, only without the
        shortcut.
        """
        self.sample = Sample(self.sample.positives,
                             self.sample.negatives + (struct,))
        self._masks.append(_masks_of(struct))
        if self._live is not None:
            encoder.add_structure(self._live, struct, negative=True)

    def add_rooted(self, m: int, s: int) -> bool:
        """Add a rooted negative: from now on every answer fails at state
        s of structure number m of `sample.structures`.  A pair already
        held adds nothing.  Returns whether the pair is new."""
        if (m, s) in self.rooted:
            return False
        self.rooted[m, s] = None
        if self._live is not None:
            encoder.add_rooted(self._live, m, s)
        return True

    def _next(self) -> tuple[LearnResult | None, list[BudgetTrace]]:
        """Smallest normal-form formula consistent with the sample and not
        returned before (None when no such formula of size <= `bound`
        exists), with the traces of the budgets decided to find it; the
        formula found enters the record of proposed formulas.

        A budget up to `CHECK_CAP` is decided by the checker (`_check`),
        any other one by solving its CNF instance.  Soundness of the
        check: its candidates (`encoder.normal_form_formulas`) are the
        decoded models of the sample-free clauses, structural and
        normal-form, that every instance of the budget starts from.  The
        semantic clauses force the evaluation variables to the checker's
        sets (`encoder.build_semantic`), the consistency clauses and
        rooted units read them, and `_solve_budget` re-checks the record.
        So a budget is SAT exactly when `_admits` accepts a candidate not
        yet returned.  The formula found is the first in a fixed order,
        not a solver's pick, so `seed` only matters from budget
        `CHECK_CAP + 1` on.

        Soundness of the floor: the formulas a budget admits (consistent
        and not yet returned) only shrink, since the sample, the rooted
        negatives and the record only grow, its clause set only grows and
        a block excludes only a numbering of a formula that stays in the
        record (`_solve_budget`).  So a budget that was UNSAT stays
        UNSAT: it is dropped for good, and the search resumes at the
        floor, the first budget not yet proven UNSAT.  No budget
        below the floor admits a formula, so the first SAT budget is
        still the minimum size, and a decoded formula of another size is
        a `BackendFailure`.  The floor budget's solver lives from its
        first use until it answers UNSAT, so at most one solver is alive
        at a time, and none below `CHECK_CAP + 1`.

        A negative whose every initial state is bisimilar to an initial
        state of a positive (`Sample.has_conflict`) leaves no separating
        formula of any size.  That is decided once, on the sample the
        search starts from: a search that starts conflicting starts with
        its floor above `bound`, so it answers None without solving.
        """
        budgets: list[BudgetTrace] = []
        while self._floor <= self.bound:
            n = self._floor
            if n <= CHECK_CAP:
                formula, trace = self._check(n)
            else:
                if self._live is None:
                    self._live = encoder.build_instance(
                        n, self.sample.positives, self.sample.negatives,
                        seed=self.seed, rooted=self.rooted)
                formula, trace = _solve_budget(self._live, self._proposed)
            budgets.append(trace)
            if formula is not None:
                self._proposed.add(formula)
                return LearnResult(formula, n, tuple(budgets)), budgets
            self._live = None
            self._floor += 1
        return None, budgets

    def _check(self, n: int) -> tuple[CtlFormula | None, BudgetTrace]:
        """The first formula of `encoder.normal_form_formulas(n)` that
        `_admits` and that was not returned before (None when there is
        none), with the budget's trace."""
        started = time.perf_counter()
        alphabet = self.sample.structures[0].alphabet
        found = next((f for f in encoder.normal_form_formulas(n, alphabet)
                      if f not in self._proposed and self._admits(f)),
                     None)
        millis = (time.perf_counter() - started) * 1000.0
        return found, BudgetTrace(n, found is not None, 0, 0, millis)

    def mask(self, m: int, formula: CtlFormula) -> int:
        """The satisfaction set of the ENF formula `formula` on structure
        number m of `sample.structures`, as a bitmask with state s at bit
        s, read through the structure's kept `checker.evaluator`."""
        return self._masks[m][0](formula)

    def _admits(self, formula: CtlFormula) -> bool:
        """Whether `formula` holds at every initial state of every
        positive, fails at some initial state of every negative and fails
        at every rooted negative.  Each structure's masks are kept, so a
        formula is evaluated on a structure at most once per search."""
        positives = len(self.sample.positives)
        for m, (mask_of, initial) in enumerate(self._masks):
            hit = mask_of(formula) & initial
            if (hit != initial) if m < positives else (hit == initial):
                return False
        return not any(self.mask(m, formula) >> s & 1
                       for m, s in self.rooted)


def _masks_of(struct: KripkeStructure,
              ) -> tuple[Callable[[CtlFormula], int], int]:
    """A structure's `checker.evaluator` and the mask of its initial
    states."""
    initial = 0
    for s in struct.initial:
        initial |= 1 << s
    return checker.evaluator(struct), initial


def learn_minimal(sample: Sample, max_size: int,
                  seed: int | None = None) -> LearnResult:
    """Minimal-size formula consistent with the sample.

    Tries budgets 1..max_size in order, those up to `CHECK_CAP` with the
    checker and each later one on a fresh solver, and returns at the
    first satisfiable one, so the result's size is the minimum over all
    consistent formulas.  Raises `NoConsistentFormula` when every budget
    is unsatisfiable (immediately when the sample is self-contradictory).
    """
    found, budgets = CandidateSearch(sample, max_size, seed)._next()
    if found is None:
        raise NoConsistentFormula(budgets)
    return found


def infer_candidate(search: CandidateSearch) -> LearnResult | None:
    """The next candidate of the counterexample-guided loop: the smallest
    normal-form formula (`encoder.build_normal_form`) consistent with
    `search.sample` and syntactically different from every formula the
    search returned before, or None when no such formula of size <=
    `search.bound` exists.  Every formula has a normal-form equivalent of
    no larger size, but a returned formula excludes none of its
    equivalents.  The `budgets` of the result trace the budgets decided
    by this call.
    """
    return search._next()[0]
