"""Counterexample-guided inference of concise, language-minimal formulas.

Starting from the trivial hypothesis `true`, the loop repeatedly asks the
passive learner for the smallest formula that holds on the input
structure, fails every accumulated negative structure, and differs from
every earlier candidate.  The learner is not asked afresh: one
`learner.CandidateSearch` serves the whole run and is handed each new
negative once, so it keeps its solver and every budget already proven
UNSAT between iterations, and it never proposes a formula twice.  Each
candidate is compared with the current hypothesis by at most two
`synth.implies` calls, i.e. bounded countermodel synthesis, first
"candidate implies hypothesis", then "hypothesis implies candidate"; the
trivial hypothesis takes the same path, since `synth.implies` settles
"candidate implies true" without a solver:

* case 1 - the two imply each other within the state budget (both calls
  answer None): keep searching.  `synthesize` decides one and two states
  of each direction, by their families under `synth.FAMILY_CAP` (two
  states up to 6 propositions) and by the solver above, then refutes it
  with its tableau before any larger size, so a case 1 costs no sweep
  above two states whenever the two are equivalent outright.
  The normal form already leaves out every candidate with a subterm that
  a rewrite rule (`encoder.REWRITE_RULES`) shrinks, so the equivalent
  candidates left are those no rule of at most 4 nodes names;
* case 2 - the candidate strictly strengthens the hypothesis (it implies
  the hypothesis, and the second call's witness satisfies the hypothesis
  but not the candidate): the witness becomes a negative structure and
  the candidate becomes the new hypothesis;
* case 3 - the candidate does not imply the hypothesis: the first call's
  witness (satisfying the candidate, falsifying the hypothesis) becomes a
  negative structure, which eliminates the candidate from future
  searches.  Every candidate that holds at a state where the hypothesis
  fails is a case 3, and the rooted negatives below prune those the
  loop already knows such a state for.

The search records every candidate it returns and never returns one
again (`learner.CandidateSearch._next`).  That record is all a case 1 or
a case 2 needs: a case-1 candidate is equivalent to the hypothesis within
the budget, and a case-2 candidate is the hypothesis.  A case-3 candidate
in the record excludes nothing more: it satisfies the new negative, so
it is no longer consistent with the sample, and recording it changes no
later answer, budget trace or clause.  The record only grows, so the
learner's floor argument holds.

Rooted negatives.  After every case 2 the loop reads the new
hypothesis h's satisfaction set on every structure, the model and every
negative, to find the states where h fails; after every case 3 it reads
it on the new negative.  It reads them from the search
(`learner.CandidateSearch.mask`), whose evaluator per structure has
usually met h already, as a candidate.  Each such state s, except a
negative's own initial states, goes to the search as a rooted negative
(structure index, state): every later candidate must fail at s
(`learner.CandidateSearch.add_rooted`).  The search is the one record of
them: it holds each pair once and replays it into every later budget,
and the pass hands over only pairs it does not hold, so each appears in
the trace once.  Soundness: a formula true at s does not imply h, and the structure re-rooted at s, cut to the states
reachable from s, is the witness; it has no more states than the
synthesis budget, since the pass skips structures larger than that.
Every later hypothesis fails at s too, being a later candidate, so the
formula implies none of them: it could only ever be a case 3, and it
never strictly implies the answer.  Each budget's clause set only
grows, so the learner's floor argument holds.
A candidate pruned this way costs no iteration, no learner solve and no
`synth.implies` call, and adds no negative structure, only one unit
clause (`encoder.add_rooted`).  Each trace entry records the rooted
negatives its iteration added, and `verify_solution` checks that the
result fails at every one of them.

The learner returns only formulas of size <= bound, and never one twice,
so each iteration takes a new formula from the finite candidate space of
size <= bound and the loop terminates.  The loop does not rely on the
search for that: a candidate proposed twice raises `CegError`, a
termination guard of its own.  Since all
negative structures stay within the synthesis budget, every structure in
N keeps failing the current hypothesis across strengthenings, and a
violation raises `SynthesisInconsistency`.  The invariant is checked
where it can break, each time once: a new negative is checked by
`synth.synthesize`, which verifies its witness against the target of
`synth.implies` before returning it, so the witness falsifies the
hypothesis (case 3) or the candidate that becomes the hypothesis (case
2); after a case 2 the pass above checks every negative against the new
hypothesis, which re-verifies the learner's SAT answer with the checker;
a case 1 changes neither the hypothesis nor N.

The candidate space is the learner's normal form
(`encoder.build_normal_form`), in which every formula of size <= bound
has an equivalent of no larger size, the rewrite rules included: each
rule drops a node and adds none.  A formula holding on the model and
strictly implying the result would therefore have such an equivalent in
the space, which also holds and strictly implies it; so
language-minimality over the normal form implies it over all formulas.

Equivalence and implication verdicts are bounded by the synthesis state
budget, so "language-minimal" is certified relative to countermodels of
at most that size.  A run's one record is its `CegReport`: the answer,
the trace, and the size bound and synthesis budget it ran with, from
which the iteration count, the negatives and the rooted negatives are
read.  `verify_solution` certifies exactly that record, at the bound it
records: it re-derives the guarantees and, for bounds up to
`_AUDIT_LIMIT`, audits strict-implication minimality by exhaustive
formula enumeration, returning the number of candidates compared.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import checker, ctl, learner, synth
from .ctl import CtlFormula
from .kripke import KripkeStructure
from .synth import DEFAULT_MAX_STATES, SynthesisInconsistency

__all__ = ["CegTraceEntry", "CegReport", "CegError", "CertificationFailure",
           "SynthesisInconsistency", "infer", "verify_solution"]

# Largest size bound whose candidates `verify_solution` enumerates.
_AUDIT_LIMIT = 4


class CegError(RuntimeError):
    """An internal loop invariant broke (bug signal, not an input error)."""


class CertificationFailure(Exception):
    """The inference result fails one of its advertised guarantees."""

    def __init__(self, reason: str, violating: CtlFormula | None = None):
        if violating is not None:
            reason = f"{reason}: {ctl.print_ctl(violating)}"
        super().__init__(reason)
        self.violating = violating


class CegTraceEntry(NamedTuple):
    iteration: int
    candidate: CtlFormula
    case: int
    countermodel: KripkeStructure | None
    # The rooted negatives (structure index, state) the iteration added:
    # index 0 is the model, index k the k-th negative.
    rooted: tuple[tuple[int, int], ...] = ()


class CegReport(NamedTuple):
    """The one record of a run: its answer, its trace, and the size bound
    and synthesis budget it ran with; the counts are read off the trace."""

    formula: CtlFormula
    trace: tuple[CegTraceEntry, ...]
    bound: int
    synth_states: int

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def negatives(self) -> tuple[KripkeStructure, ...]:
        return tuple(e.countermodel for e in self.trace
                     if e.countermodel is not None)

    @property
    def rooted(self) -> tuple[tuple[int, int], ...]:
        return tuple(r for e in self.trace for r in e.rooted)


def infer(model: KripkeStructure, bound: int,
          synth_states: int = DEFAULT_MAX_STATES, seed: int | None = None,
          on_iteration: Callable[[CegTraceEntry], None] | None = None,
          ) -> CegReport:
    """Infer a concise formula holding on `model`, strengthened until no
    size-<= bound candidate strictly implies it (within the synthesis
    budget).

    The initial hypothesis is the constant true, which every candidate
    implies; it survives only if no formula of size <= bound holds on the
    model at all.  `on_iteration` observes each trace entry as it is
    produced.
    """
    if bound < 1:
        raise ValueError("size bound must be at least 1")
    if synth_states < 1:
        raise ValueError("synthesis budget must be at least 1")
    alphabet = model.alphabet
    hypothesis: CtlFormula = ctl.TRUE
    trace: list[CegTraceEntry] = []
    proposed: set[CtlFormula] = set()
    search = learner.CandidateSearch(learner.Sample((model,)), bound, seed)

    while True:
        found = learner.infer_candidate(search)
        if found is None:
            break
        candidate = found.formula
        if candidate in proposed:
            raise CegError(
                f"candidate {ctl.print_ctl(candidate)} proposed twice")
        proposed.add(candidate)

        # The structures from `first` on are searched for rooted
        # negatives: the new negative after a case 3, all after a case 2.
        first = len(search.sample.structures)
        countermodel = synth.implies(candidate, hypothesis, synth_states,
                                     alphabet, seed)
        if countermodel is not None:
            case = 3
            search.add_negative(countermodel)
        else:
            countermodel = synth.implies(hypothesis, candidate,
                                         synth_states, alphabet, seed)
            if countermodel is None:
                case = 1
            else:
                # `synthesize` verified that the witness fails the candidate;
                # the earlier negatives are checked against it below.
                case = 2
                search.add_negative(countermodel)
                hypothesis = candidate
                first = 0

        rooted = _root_failures(search, first, hypothesis, synth_states)
        entry = CegTraceEntry(len(trace) + 1, candidate, case, countermodel,
                              rooted)
        trace.append(entry)
        if on_iteration is not None:
            on_iteration(entry)

    return CegReport(formula=hypothesis, trace=tuple(trace), bound=bound,
                     synth_states=synth_states)


def _root_failures(search: learner.CandidateSearch, first: int,
                   hypothesis: CtlFormula, synth_states: int,
                   ) -> tuple[tuple[int, int], ...]:
    """Hand the search a rooted negative at every state where
    `hypothesis` fails, of each structure of `search.sample.structures`
    from number `first` on, that it does not have yet, and return those.

    Each structure's set is read through `search.mask`, so a subterm
    already evaluated there is not evaluated again.  A negative's own
    initial states are left out, since the negative already asks every
    answer to fail at one of them, and so are structures of more than
    `synth_states` states, where the re-rooted structure may exceed the
    synthesis budget (the soundness argument is in the module
    docstring).  A negative whose every initial state satisfies the
    hypothesis raises `SynthesisInconsistency`.
    """
    structures = search.sample.structures
    added = []
    for m in range(first, len(structures)):
        struct = structures[m]
        sat = search.mask(m, hypothesis)
        if m and all(sat >> s & 1 for s in struct.initial):
            raise SynthesisInconsistency(
                "a negative structure satisfies the hypothesis")
        if struct.size > synth_states:
            continue
        for s in range(struct.size):
            if (not sat >> s & 1 and s not in struct.initial
                    and search.add_rooted(m, s)):
                added.append((m, s))
    return tuple(added)


def verify_solution(model: KripkeStructure, bound: int,
                    result: CegReport) -> int | None:
    """Re-derive the guarantees of the inference result `result`, which
    `infer` produced on `model` at the size bound `bound`.

    Checks that the formula holds on the model, fits the size bound,
    fails on every recorded negative structure, and fails at the state of
    every recorded rooted negative, which must name a state of the model
    or of a recorded negative.  After those, when the bound is at
    most `_AUDIT_LIMIT`, it enumerates every ENF formula of
    size <= bound holding on the model and confirms, by `synth.implies`
    in both directions, that none strictly implies the result
    within the synthesis budget `result.synth_states` that `infer` ran
    with; the first violation raises `CertificationFailure` naming the
    violating formula.  Returns the number of candidates the audit
    compared, those holding on the model, or None above `_AUDIT_LIMIT`.
    A bound other than `result.bound`, or a budget below 1, raises
    `ValueError`.
    """
    if bound != result.bound:
        raise ValueError(f"bound {bound} is not the report's bound "
                         f"{result.bound}")
    synth_states = result.synth_states
    if synth_states < 1:
        raise ValueError("synthesis budget must be at least 1")
    formula = result.formula
    if not checker.holds(model, formula):
        raise CertificationFailure("result does not hold on the model",
                                   formula)
    if ctl.size(formula) > bound:
        raise CertificationFailure(
            f"result exceeds the size bound {bound}", formula)

    negatives = result.negatives
    for struct in negatives:
        if checker.holds(struct, formula):
            raise CertificationFailure(
                "a negative structure satisfies the result", formula)
    structures = (model,) + negatives
    sat_sets: dict[int, frozenset[int]] = {}
    for m, s in result.rooted:
        if not (0 <= m < len(structures) and 0 <= s < structures[m].size):
            raise CertificationFailure(
                f"rooted negative {(m, s)} is no state of the sample")
        if m not in sat_sets:
            sat_sets[m] = checker.sat_set(structures[m], ctl.enf(formula))
        if s in sat_sets[m]:
            raise CertificationFailure(
                "the result holds at a rooted negative state", formula)

    if bound > _AUDIT_LIMIT:
        return None
    audited = 0
    for candidate in ctl.enumerate_formulas(model.alphabet, bound):
        if not checker.holds(model, candidate):
            continue
        audited += 1
        if candidate == formula:
            continue
        if (synth.implies(candidate, formula, synth_states,
                          model.alphabet) is None
                and synth.implies(formula, candidate, synth_states,
                                  model.alphabet) is not None):
            raise CertificationFailure(
                "a candidate strictly implies the result", candidate)
    return audited
