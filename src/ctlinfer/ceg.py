"""Counterexample-guided inference of concise, language-minimal formulas.

Starting from the trivial hypothesis `true`, the loop repeatedly asks the
passive learner for the smallest formula that holds on the input
structure, fails every accumulated negative structure, and differs from
every discarded formula.  The learner is not asked afresh: one
`learner.CandidateSearch` serves the whole run and is handed each new
negative and discard once, so it keeps its solver and every budget
already proven UNSAT between iterations.  Each candidate is compared with
the current hypothesis by at most two `synth.implies` calls, i.e. bounded
countermodel synthesis, first "candidate implies hypothesis", then
"hypothesis implies candidate"; the trivial hypothesis takes the same
path, since `synth.implies` settles "candidate implies true" without a
solver:

* case 1 - the two imply each other within the state budget (both calls
  answer None): discard the candidate and keep searching.  `synthesize`
  evaluates the one- and two-state families of each direction, then
  refutes it with its tableau before any larger size, so a case 1 costs
  no sweep above two states whenever the two are equivalent outright.
  The normal form already leaves out every candidate with a subterm that
  a rewrite rule (`encoder.REWRITE_RULES`) shrinks, so the equivalent
  candidates left are those no rule of at most 4 nodes names;
* case 2 - the candidate strictly strengthens the hypothesis (it implies
  the hypothesis, and the second call's witness satisfies the hypothesis
  but not the candidate): the witness becomes a negative structure, the
  candidate is discarded from future searches and becomes the new
  hypothesis;
* case 3 - the candidate does not imply the hypothesis: the first call's
  witness (satisfying the candidate, falsifying the hypothesis) becomes a
  negative structure, which silently eliminates the candidate from future
  searches.

Every iteration removes at least one formula from the finite candidate
space of size <= bound, so the loop terminates; a hard cap derived from
that space size guards the invariant, and a candidate proposed twice
raises `CegError`.  Since all negative structures stay within the
synthesis budget, every structure in N keeps failing the current
hypothesis across strengthenings, and a violation raises
`SynthesisInconsistency`.  The invariant is checked where it can break,
each time once: a new negative is checked by `synth.implies` itself,
which verifies that its witness falsifies the hypothesis (case 3) or the
candidate that becomes the hypothesis (case 2) before returning it; after
a case 2 the loop checks every earlier negative against the new
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
at most that size; `verify_solution` re-derives the guarantees and, for
small bounds, audits strict-implication minimality by exhaustive formula
enumeration.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import checker, ctl, learner, synth
from .ctl import CtlFormula
from .kripke import KripkeStructure
from .synth import DEFAULT_MAX_STATES, SynthesisInconsistency

__all__ = ["CegTraceEntry", "CegReport", "Certification", "CegError",
           "CertificationFailure", "SynthesisInconsistency", "infer",
           "verify_solution", "formula_space_bound"]

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


class CegReport(NamedTuple):
    formula: CtlFormula
    iterations: int
    trace: tuple[CegTraceEntry, ...]
    bound: int
    synth_states: int
    certification: str

    @property
    def negatives(self) -> tuple[KripkeStructure, ...]:
        return tuple(e.countermodel for e in self.trace
                     if e.countermodel is not None)


class Certification(NamedTuple):
    formula: CtlFormula
    size: int
    bound: int
    synth_states: int
    negatives_checked: int
    audited: bool
    candidates_audited: int


def formula_space_bound(num_props: int, bound: int) -> int:
    """Upper bound on the number of syntax DAGs with at most `bound`
    nodes: node 1 picks a proposition, every later node a label and two
    children below it.  Loose, but finite; used as an iteration cap."""
    total = 0
    for n in range(1, bound + 1):
        count = num_props
        for i in range(2, n + 1):
            count *= (num_props + len(ctl.OPERATOR_LABELS)) * (i - 1) ** 2
        total += count
    return total


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
    cap = formula_space_bound(len(alphabet), bound) + 1
    search = learner.CandidateSearch(learner.Sample((model,)), bound, seed)

    while True:
        if len(trace) >= cap:
            raise CegError("iteration cap exceeded; candidates must be "
                           "eliminated monotonically")
        found = learner.infer_candidate(search)
        if found is None:
            break
        candidate = found.formula
        if any(entry.candidate == candidate for entry in trace):
            raise CegError(
                f"candidate {ctl.print_ctl(candidate)} proposed twice")

        recheck: tuple[KripkeStructure, ...] = ()
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
                search.discard(candidate)
            else:
                # `implies` verified that the witness fails the candidate;
                # the earlier negatives are checked against it below.
                case, recheck = 2, search.sample.negatives
                search.add_negative(countermodel)
                search.discard(candidate)
                hypothesis = candidate

        entry = CegTraceEntry(len(trace) + 1, candidate, case, countermodel)
        trace.append(entry)
        if on_iteration is not None:
            on_iteration(entry)
        for struct in recheck:
            if checker.holds(struct, hypothesis):
                raise SynthesisInconsistency(
                    "a negative structure satisfies the hypothesis")

    certification = (
        f"strictness certified against countermodels of at most "
        f"{synth_states} states; candidate space of size <= {bound} "
        f"exhausted in {len(trace)} iterations")
    return CegReport(formula=hypothesis, iterations=len(trace),
                     trace=tuple(trace), bound=bound,
                     synth_states=synth_states, certification=certification)


def verify_solution(model: KripkeStructure, bound: int,
                    result: CegReport) -> Certification:
    """Re-derive the guarantees of an inference result.

    Checks that the formula holds on the model, fits the size bound, and
    fails on every recorded negative structure.  When the bound is at
    most `_AUDIT_LIMIT` it additionally enumerates every ENF formula of
    size <= bound holding on the model and confirms, by `synth.implies`
    in both directions, that none strictly implies the result
    within the synthesis budget `result.synth_states` that `infer` ran
    with; the first violation raises `CertificationFailure` naming the
    violating formula.  A budget below 1 raises `ValueError`.
    """
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

    audited = False
    candidates_audited = 0
    if bound <= _AUDIT_LIMIT:
        audited = True
        for candidate in ctl.enumerate_formulas(model.alphabet, bound):
            if not checker.holds(model, candidate):
                continue
            candidates_audited += 1
            if candidate == formula:
                continue
            if (synth.implies(candidate, formula, synth_states,
                              model.alphabet) is None
                    and synth.implies(formula, candidate, synth_states,
                                      model.alphabet) is not None):
                raise CertificationFailure(
                    "a candidate strictly implies the result", candidate)

    negatives = result.negatives
    for struct in negatives:
        if checker.holds(struct, formula):
            raise CertificationFailure(
                "a negative structure satisfies the result", formula)
    return Certification(
        formula=formula, size=ctl.size(formula), bound=bound,
        synth_states=synth_states, negatives_checked=len(negatives),
        audited=audited, candidates_audited=candidates_audited)
