"""Bounded synthesis of Kripke structures satisfying a CTL formula.

The dual of formula search: the formula is fixed (as its ENF syntax DAG)
and the structure is unknown.  `synthesize` tries state counts upward and
decides each one exactly, in three stages:

1. One state, by the checker.  A total one-state structure must carry its
   self-loop, so there is one per labelling, and the checker runs once on
   the ENF formula over their disjoint union (`_self_loops`, built once
   per proposition set).  The union ranges over the formula's own
   propositions, not the whole alphabet: the others cannot change its
   truth, so they stay false, which is also the lowest labelling the whole
   alphabet's union would give.  A formula without propositions takes one
   truth value at every state of every total structure (with labels
   ignored, all of them are bisimilar), so the union of one self-loop
   decides it outright, constants included.
2. The tableau.  Otherwise the ENF formula's syntax DAG is built once, and
   every later stage reads it.  `tableau.satisfiable` decides the formula
   exactly when it has at most `tableau.MAX_ELEMENTARY` elementary
   formulas (and answers None, undecided, above).  An unsatisfiable
   formula has no model of any size, so none within the budget either,
   and the answer is None with no sweep.
3. The sweep, m = 2..max_states.  When the family of all total m-state
   structures over the formula's k propositions has at most `FAMILY_CAP`
   components, the DAG is evaluated once over their disjoint union
   (`_family_model`); otherwise a CNF instance over free transition and
   labelling variables is solved (`_solve`).

The family is bit-parallel.  Its structures are the components of one
disjoint union, (2^m - 1)^m successor shapes (one nonempty successor set
per state) times 2^(m*k) labellings, each with initial state 0.  A state
set is a list of m ints, where bit c of entry a means "state a of
component c"; `_family` builds the edge masks E[a][b] and label masks
P[a][p] once per (m, k), lazily.  `EX T` is `[OR_b E[a][b] & T[b] for a]`,
`!`, `&` and `|` act entry by entry, and EU and EG iterate to
stabilisation as in `checker`.  The root's entry 0 holds the components
whose initial state satisfies the formula; the lowest set bit picks one,
decoded into a `KripkeStructure`.  This is exact: every total m-state
structure with one initial state is isomorphic to some component (name
its initial state 0), and truth at a state of a disjoint union depends
only on that state's own component.

`FAMILY_CAP` = 2^16 components keeps the family where it beats the solve
it replaces.  Timed with CPython 3.11 on one core of a 2-core x86-64 host:
one bitwise operation on a 2^16-bit int takes about 0.6 us, so evaluating
a DAG of 20-odd nodes over a family under the cap takes 0.03-0.1 ms,
against 0.5-1.2 ms for the CDCL solve of the same size; the masks of the
largest families, (m, k) = (2, 6) and (3, 2), take 1-3 ms to build once,
and all the families under the cap hold about 140 KB.  Just above the cap
the two meet: at (2, 7) with 147,456 components and (3, 3) with 175,616,
an evaluation takes 0.5-1 ms, as long as the solve, and each family costs
30-45 ms to build; m = 4 starts at 810,000 components.  So the cap covers
m = 2 for k <= 6 and m = 3 for k <= 2, and never m >= 4.

The CNF of the SAT sweep:

* `t(s, s')` and `lab(s, p)` describe the candidate structure, with a
  totality clause per state and a single fixed initial state s0;
* `h(i, s)` evaluates DAG node i in state s; successor disjunctions range
  over all states, each conjunct `t(s, s') & ...` introduced as a shared
  Tseitin product variable (full equivalence, numbered above the
  semantic variables);
* EU/EG fixed points unroll to m' approximants, with step variables
  `st(i, s, k)` for the inner ones, k = 2..m'-1.

Operators are lowered by `encoder.lower_node`, the single home of the
step semantics; only successors and propositions are symbolic here.  The
solver's `seed` reaches only these instances, so it affects only the
sizes the SAT sweep handles.

Sizes are tried upward and each is decided exactly, so the returned
structure has the fewest states of any model within the budget; which
model of that size comes back is unspecified.  Every synthesized
structure is verified with the explicit-state checker before being
returned; a verification failure is a hard internal error
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
from operator import and_, itemgetter, or_
from typing import Callable, Sequence

from . import checker, ctl, tableau
from .ctl import (AND_LABEL, EG_LABEL, EU_LABEL, EX_LABEL, NOT_LABEL,
                  OR_LABEL, And, CtlFormula, Not)
from .encoder import VarPool, lower_node
from .kripke import KripkeStructure, check_alphabet
from .sat import CdclSolver, Clause, equiv_and, equiv_lit

__all__ = ["SynthesisInconsistency", "synthesize", "implies"]

DEFAULT_MAX_STATES = 6

# Most components a family the sweep evaluates may have (module docstring).
FAMILY_CAP = 1 << 16


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


def _rooted(alphabet: Sequence[str], labels: list[frozenset[str]],
            successors: list[frozenset[int]]) -> KripkeStructure:
    """The structure over `alphabet` whose states s0, s1, ... carry
    `labels` and `successors`, with s0 its initial state."""
    return KripkeStructure(
        alphabet=tuple(alphabet),
        state_names=tuple(f"s{s}" for s in range(len(labels))),
        initial=frozenset({0}), labels=tuple(labels),
        successors=tuple(successors))


def _components(num_states: int, num_props: int) -> int:
    """Size of the family of total `num_states`-state structures over
    `num_props` propositions: successor shapes times labellings."""
    return ((1 << num_states) - 1) ** num_states << (num_states * num_props)


def _repeat(block: int, period: int, total: int) -> int:
    """`block`, narrower than `period`, copied every `period` bits over the
    first `total` bits; `period` divides `total`."""
    return block * (((1 << total) - 1) // ((1 << period) - 1))


Masks = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)  # only the (m, k) under FAMILY_CAP are ever keys
def _family(num_states: int, num_props: int) -> tuple[Masks, Masks]:
    """Edge masks E[a][b] and label masks P[a][p] of the family of every
    total `num_states`-state structure over `num_props` propositions.

    Component c = shape + S * labelling, with S = (2^m - 1)^m shapes:
    digit a of `shape` in base 2^m - 1 is the successor set of state a
    (as a bitset over states) less one, so never empty, and bit a*k + p
    of `labelling` is proposition p at state a.
    """
    m, k = num_states, num_props
    base = (1 << m) - 1
    shapes = base ** m
    total = _components(m, k)
    edges = []
    for a in range(m):
        run = base ** a  # consecutive shapes sharing digit a
        row = []
        for b in range(m):
            block = 0
            for digit in range(base):
                if (digit + 1) >> b & 1:
                    block |= ((1 << run) - 1) << (digit * run)
            row.append(_repeat(block, run * base, total))
        edges.append(tuple(row))
    labels = []
    for a in range(m):
        row = []
        for p in range(k):
            run = shapes << (a * k + p)  # consecutive components sharing bit
            row.append(_repeat(((1 << run) - 1) << run, 2 * run, total))
        labels.append(tuple(row))
    return tuple(edges), tuple(labels)


def _family_ex(edges: Masks, target: list[int]) -> list[int]:
    """`EX target` over the family: entry a is OR_b E[a][b] & target[b]."""
    image = []
    for row in edges:
        mask = 0
        for edge, t in zip(row, target):
            mask |= edge & t
        image.append(mask)
    return image


def _family_model(dag: ctl.SyntaxDag, num_states: int, props: Sequence[str],
                  alphabet: Sequence[str]) -> KripkeStructure | None:
    """A model of the formula of `dag` with exactly `num_states` states
    over `props` (the others false), or None, by one evaluation of `dag`
    over the family (module docstring)."""
    edges, labels = _family(num_states, len(props))
    full = (1 << _components(num_states, len(props))) - 1
    value: list[list[int]] = [[]]  # by node; slot 0 stands for no node
    for _, node in dag:
        left, right = value[node.left or 0], value[node.right or 0]
        if node.left is None:
            current = list(map(itemgetter(props.index(node.label)), labels))
        elif node.label == NOT_LABEL:
            current = list(map(full.__xor__, left))
        elif node.label == AND_LABEL:
            current = list(map(and_, left, right))
        elif node.label == OR_LABEL:
            current = list(map(or_, left, right))
        elif node.label == EX_LABEL:
            current = _family_ex(edges, left)
        elif node.label == EU_LABEL:
            current = right
            while True:
                step = _family_ex(edges, current)
                grown = list(map(or_, right, map(and_, left, step)))
                if grown == current:
                    break
                current = grown
        else:
            current = left
            while True:
                shrunk = list(map(and_, left, _family_ex(edges, current)))
                if shrunk == current:
                    break
                current = shrunk
        value.append(current)

    found = value[dag.root][0]
    if not found:
        return None
    c = (found & -found).bit_length() - 1  # state a of component c is s<a>
    return _rooted(
        alphabet,
        [frozenset(p for p, mask in zip(props, row) if mask >> c & 1)
         for row in labels],
        [frozenset(b for b, mask in enumerate(row) if mask >> c & 1)
         for row in edges])


def _decode_structure(assignment: dict[int, bool], pool: VarPool,
                      num_states: int,
                      alphabet: Sequence[str]) -> KripkeStructure:
    states = range(num_states)
    return _rooted(
        alphabet,
        [frozenset(p for p in alphabet if assignment[pool.get("lab", s, p)])
         for s in states],
        [frozenset(t for t in states if assignment[pool.get("t", s, t)])
         for s in states])


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


def _solve(dag: ctl.SyntaxDag, num_states: int, alphabet: Sequence[str],
           seed: int | None) -> KripkeStructure | None:
    """A model of the formula of `dag` with exactly `num_states` states,
    or None, by one CDCL solve of its `_encode` instance."""
    pool, clauses = _encode(dag, num_states, alphabet)
    backend = CdclSolver(seed=seed)
    backend.add_clauses(clauses)
    backend.reserve(pool.count)
    if not backend.solve():
        return None
    return _decode_structure(backend.model(), pool, num_states, alphabet)


def _sweep(dag: ctl.SyntaxDag, max_states: int, props: Sequence[str],
           alphabet: Sequence[str],
           seed: int | None) -> KripkeStructure | None:
    """A model of the formula of `dag` with 2..`max_states` states, fewest
    first, or None; the tableau refutes what it can before any size, and
    each size goes to the family under its cap and to the solver above."""
    if tableau.satisfiable(dag) is False:
        return None
    for num_states in range(2, max_states + 1):
        if _components(num_states, len(props)) <= FAMILY_CAP:
            model = _family_model(dag, num_states, props, alphabet)
        else:
            model = _solve(dag, num_states, alphabet, seed)
        if model is not None:
            return model
    return None


def synthesize(formula: CtlFormula, max_states: int = DEFAULT_MAX_STATES,
               alphabet: Sequence[str] | None = None,
               seed: int | None = None) -> KripkeStructure | None:
    """A structure satisfying `formula` with at most `max_states` states.

    State counts are tried in increasing order, one state by the checker
    and more by the sweep, each decided exactly, so a returned structure
    has as few states as any model within the budget.  `seed` reaches only
    the solver, which the sweep runs on sizes above `FAMILY_CAP`.  None
    means no model within the budget.
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
        model = _rooted(alphabet, [loops.labels[min(looped)]],
                        [frozenset({0})])
    elif props:
        model = _sweep(ctl.to_dag(target), max_states, props, alphabet,
                       seed)
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

