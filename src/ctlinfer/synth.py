"""Bounded synthesis of Kripke structures satisfying a CTL formula.

The dual of formula search: the formula is fixed (as its ENF syntax DAG)
and the structure is unknown.  For each state count m' = 2..max_states a
CNF instance over free transition and labeling variables is solved:

* `t(s, s')` and `lab(s, p)` describe the candidate structure, with a
  totality clause per state and a single fixed initial state s0;
* `h(i, s)` evaluates DAG node i in state s; successor disjunctions range
  over all states, each conjunct `t(s, s') & ...` introduced as a shared
  Tseitin product variable (full equivalence, numbered above the
  semantic variables);
* EU/EG fixed points unroll to m' approximants, with step variables
  `st(i, s, k)` for the inner ones, k = 2..m'-1.

Operators are lowered by `encoder.lower_node`, the single home of the
step semantics; only successors and propositions are symbolic here.

One state needs no CNF.  A total one-state structure must carry its
self-loop, so there is one per labelling, and `synthesize` first runs the
checker on the ENF formula over their disjoint union (`_self_loops`,
built once per proposition set).  Truth at a state of a disjoint union
depends only on that state's own component, so a state of the union
satisfies the formula iff its self-loop alone does: the union decides
the one-state case exactly, the sweep starts at 2 states, and the state
count returned is still the minimum.  The union ranges over the
formula's own propositions, not the whole alphabet: the others cannot
change its truth, so they stay false, which is also the lowest labelling
the whole alphabet's union would give.  A formula without propositions
takes one truth value at every state of every total structure (with
labels ignored, all of them are bisimilar), so the union of one
self-loop decides it outright.

Otherwise `synthesize` builds the ENF formula's syntax DAG once, and both
the tableau and every instance read it.  Before any instance is built,
`tableau.satisfiable` decides the formula exactly when it has at most
`tableau.MAX_ELEMENTARY` elementary formulas (and answers None,
undecided, above).  An unsatisfiable formula has no model of any size, so
none within the budget either, and the answer is None with no solver; any
other formula goes on to the state sweep.  Either way the returned
structure has the fewest states of any model within the budget; which
model of that size comes back is unspecified.

Every synthesized structure is verified with the explicit-state checker
before being returned; a verification failure is a hard internal error
(`SynthesisInconsistency`), never a silent wrong answer.  A None result
means "no model within the state budget" and is reported as such.  When
the tableau or the proposition-free union decided it, no model of any size
exists; otherwise it is not a proof that no larger model exists.

`implies` reduces bounded implication checking to synthesis of
countermodels for f & !g; the constant `true` on either side is settled
there, so the CEG loop compares its trivial hypothesis the same way as
every other.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from . import checker, ctl, tableau
from .ctl import And, CtlFormula, Not
from .encoder import VarPool, lower_node
from .kripke import KripkeStructure, check_alphabet
from .sat import CdclSolver, Clause, equiv_and, equiv_lit

__all__ = ["SynthesisInconsistency", "synthesize", "implies"]

DEFAULT_MAX_STATES = 6


class SynthesisInconsistency(RuntimeError):
    """A synthesized structure failed checker verification (internal bug)."""


@lru_cache(maxsize=64)
def _self_loops(props: tuple[str, ...]) -> KripkeStructure:
    """The disjoint union of the 2^|props| one-state self-loops: state i is
    labelled with the propositions props[k] whose bit k of i is set."""
    count = 1 << len(props)
    return KripkeStructure(
        alphabet=props, state_names=tuple(f"s{i}" for i in range(count)),
        initial=frozenset(range(count)),
        labels=tuple(frozenset(p for k, p in enumerate(props) if i >> k & 1)
                     for i in range(count)),
        successors=tuple(frozenset({i}) for i in range(count)))


def _decode_structure(assignment: dict[int, bool], pool: VarPool,
                      num_states: int,
                      alphabet: Sequence[str]) -> KripkeStructure:
    names = tuple(f"s{s}" for s in range(num_states))
    labels = tuple(
        frozenset(p for p in alphabet if assignment[pool.get("lab", s, p)])
        for s in range(num_states))
    successors = tuple(
        frozenset(t for t in range(num_states)
                  if assignment[pool.get("t", s, t)])
        for s in range(num_states))
    return KripkeStructure(alphabet=tuple(alphabet), state_names=names,
                           initial=frozenset({0}), labels=labels,
                           successors=successors)


def _encode(dag: ctl.SyntaxDag, num_states: int, alphabet: Sequence[str],
            ) -> tuple[VarPool, list[Clause]]:
    pool = VarPool()
    states = range(num_states)
    for s in states:
        for t in states:
            pool.var("t", s, t)
    for s in states:
        for p in alphabet:
            pool.var("lab", s, p)
    for i, _ in dag:
        for s in states:
            pool.var("h", i, s)
    for i, node in dag:
        if node.label in (ctl.EU_LABEL, ctl.EG_LABEL):
            for s in states:
                for k in range(2, num_states):
                    pool.var("st", i, s, k)

    clauses: list[Clause] = []
    for s in states:
        clauses.append(tuple(pool.get("t", s, t) for t in states))

    products: dict[tuple[int, int], int] = {}

    def product(a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        got = products.get(key)
        if got is None:
            got = pool.fresh()
            clauses.extend(equiv_and(got, [a, b]))
            products[key] = got
        return got

    def successors(s: int, lit: Callable[[int], int]) -> list[int]:
        # t(s, s') & lit(s'), one shared product per pair
        return [product(pool.get("t", s, t), lit(t)) for t in states]

    for i, node in dag:
        if node.left is None:
            for s in states:
                clauses.extend(equiv_lit(pool.get("h", i, s),
                                         pool.get("lab", s, node.label)))
            continue
        left = lambda s, j=node.left: pool.get("h", j, s)
        right = lambda s, j=node.right: pool.get("h", j, s)
        step = lambda s, k, i=i: pool.get("st", i, s, k)
        for s in states:
            lower_node(clauses, node.label, s, pool.get("h", i, s), left,
                       right, step, successors, num_states - 1)

    clauses.append((pool.get("h", dag.root, 0),))
    return pool, clauses


def _sweep(dag: ctl.SyntaxDag, max_states: int, alphabet: Sequence[str],
           seed: int | None) -> KripkeStructure | None:
    """A model of the formula of `dag` with 2..`max_states` states, fewest
    first, or None; the tableau refutes what it can before any solver."""
    if tableau.satisfiable(dag) is False:
        return None
    for num_states in range(2, max_states + 1):
        pool, clauses = _encode(dag, num_states, alphabet)
        backend = CdclSolver(seed=seed)
        backend.add_clauses(clauses)
        backend.reserve(pool.count)
        if backend.solve():
            return _decode_structure(backend.model(), pool, num_states,
                                     alphabet)
    return None


def synthesize(formula: CtlFormula, max_states: int = DEFAULT_MAX_STATES,
               alphabet: Sequence[str] | None = None,
               seed: int | None = None) -> KripkeStructure | None:
    """A structure satisfying `formula` with at most `max_states` states.

    State counts are tried in increasing order, one state by the checker
    and more by the sweep, so a returned structure has as few states as
    any model within the budget.  None means no model within the budget.
    It is exact (no model of any size) when the tableau refuted the
    formula or it has no propositions, and otherwise not a proof that none
    exists beyond the budget; callers report it as a bounded verdict
    either way.
    A given `alphabet` must pass `kripke.check_alphabet`, whether or not a
    model is found.
    """
    if max_states < 1:
        raise ValueError("state budget must be at least 1")
    props = tuple(sorted(ctl.propositions(formula)))
    if alphabet is None:
        alphabet = props
    else:
        alphabet = tuple(alphabet)
        check_alphabet(alphabet)
        missing = set(props) - set(alphabet)
        if missing:
            raise ValueError(f"alphabet is missing propositions {missing}")
    target = ctl.enf(formula, props)
    loops = _self_loops(props)
    looped = checker.sat_set(loops, target)
    if looped:
        model = KripkeStructure(
            alphabet=alphabet, state_names=("s0",), initial=frozenset({0}),
            labels=(loops.labels[min(looped)],),
            successors=(frozenset({0}),))
    elif props:
        model = _sweep(ctl.to_dag(target), max_states, alphabet, seed)
    else:
        return None
    if model is not None and not checker.holds(model, formula):
        raise SynthesisInconsistency(
            f"synthesized structure fails {ctl.print_ctl(formula)}")
    return model


def implies(f: CtlFormula, g: CtlFormula,
            max_states: int = DEFAULT_MAX_STATES,
            alphabet: Sequence[str] | None = None,
            seed: int | None = None) -> KripkeStructure | None:
    """Countermodel of f -> g within the state budget, or None.

    None means the implication holds on every structure with up to
    `max_states` states (a bounded verdict); when `synthesize`'s tableau
    refuted f & !g, the implication is valid outright.  A returned
    structure satisfies f and falsifies g, checker-verified; without an
    `alphabet` it is labelled over the propositions of f and g.

    When g is `true` the answer is None without a solver, which is sound
    because no structure falsifies `true`; when f is `true` the
    countermodel is a model of !g alone.
    """
    if g == ctl.TRUE:
        return None
    target = Not(g) if f == ctl.TRUE else And(f, Not(g))
    witness = synthesize(target, max_states, alphabet, seed)
    if witness is not None:
        if not checker.holds(witness, f) or checker.holds(witness, g):
            raise SynthesisInconsistency(
                f"countermodel of {ctl.print_ctl(f)} -> {ctl.print_ctl(g)} "
                "fails verification")
    return witness

