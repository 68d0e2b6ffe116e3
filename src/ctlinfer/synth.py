"""Bounded synthesis of Kripke structures satisfying a CTL formula.

The dual of formula search: the formula is fixed (in ENF) and the
structure is unknown.  `synthesize` tries the state counts 1..max_states,
fewest first, and decides each one exactly by one rule: when the family
of all total m-state structures over the formula's k propositions has at
most `FAMILY_CAP` components, one evaluation over that family decides
size m (`_family_model`); above the cap a CNF instance over free
transition and labelling variables, built from the formula's syntax DAG,
is solved (`_solve`).  One state is no exception.  A total one-state
structure must carry its self-loop, so its family is the disjoint union
of one self-loop per labelling, 2^k components, and the solver takes
one state when k > 16.  Both range over the formula's own propositions,
not the whole alphabet: the others cannot change its truth, so they stay
false, which is also the lowest labelling the whole alphabet's family
would give.

Two facts end the sweep early.  A formula without propositions takes one
truth value at every state of every total structure (with labels
ignored, all of them are bisimilar), so one state decides it outright,
constants included.  And just before size 3, `tableau.satisfiable` runs
once on the ENF formula, constants included, whose syntax DAG it walks
by `ctl.subterms` as the SAT instance does (a node outside ENF raises
`ctl.NotInEnf`).  It decides the formula exactly when it has at most
`tableau.MAX_ELEMENTARY` elementary formulas (and answers None,
undecided, above).  An unsatisfiable formula has no model of any size,
so none within the budget either, and the answer is None with no further
sweep.  The tableau finds no model, only refutes, so it does not run
before sizes 1 and 2, where most satisfiable formulas the CEG loop asks
about have a model, nor at all when max_states <= 2.

A family is bit-parallel.  Its structures are the components of one
disjoint union, (2^m - 1)^m successor shapes (one nonempty successor set
per state) times 2^(m*k) labellings, each with initial state 0.  With C
components, a state set is one int, where bit a*C + c means "state a of
component c"; `_family` builds, once per (m, k) and lazily, one edge
mask E_d per shift d = b - a of an edge a -> b and one label mask per
proposition.  The formula is evaluated by `checker.evaluate`, the same
code that checks single structures, with `EX T` the OR over the 2m - 1
shifts of `shift(T, d*C) & E_d`.  The low C bits of the result hold the
components whose initial state satisfies the formula; the lowest set bit
picks one, decoded into a `KripkeStructure`.  This is exact: every total
m-state structure with one initial state is isomorphic to some component
(name its initial state 0), and truth at a state of a disjoint union
depends only on that state's own component.  At m = 1, component c is
the self-loop whose labelling has proposition p exactly when bit p of c
is set, so the first model is the self-loop with the lowest labelling.

`FAMILY_CAP` = 2^16 components keeps the family where it beats the solve
it replaces.  Timed with CPython 3.11 on a shared 2-core x86-64 host, on
ENF formulas of 24-44 DAG nodes with EX, EU and EG: evaluating a family
under the cap takes 0.03-0.4 ms, the most at (m, k) = (3, 2), against
0.7-5 ms for the CDCL solve of the same size; the masks of the largest
families, (2, 6) and (3, 2), take 1-3 ms to build once, and all the
families of m >= 2 under the cap hold about 310 KB.  The packed layout
evaluates as fast as one list of m ints per set up to (2, 2), and up to
1.6x slower at (3, 2), where each shift touches several times C bits.
Just above the cap the two meet: at (2, 7) with 147,456 components and
(3, 3) with 175,616, an evaluation takes 1.6-4 ms, as long as the solve,
and each family costs 35-55 ms to build; m = 4 starts at 810,000
components.  So the cap covers m = 2 for k <= 6 and m = 3 for k <= 2,
and never m >= 4.  At m = 1 the cap covers k <= 16: the masks of the
one-state family take 8 ms to build at k = 16, 30 ms at 17 and 115 ms
at 18, about 4x for each added proposition, while with cached masks its
evaluation takes 0.03-0.4 ms against 0.14-0.9 ms for the one-state solve
at k = 2..17 (conjunctions, disjunctions and EU over the propositions,
with EX and EG), 0.7-0.8 ms of it at k = 17, just above the cap.
Re-timed once the solver's CNF kept `h` only where read (the same host
and kind of formula, the fastest of five runs each): under the cap the
solve of m >= 2 takes 0.4-4.7 ms against 0.02-0.7 ms for the family;
at (2, 7) the family takes 0.4-1.4 ms and the solve 0.5-2.2 ms, at
(3, 3) 1.7-5.2 ms and 1.6-5.1 ms.  So the two still meet just above the
cap.  One state is unchanged, since every node is read at its one state.

The CNF of the SAT sweep:

* `t(s, s')` and `lab(s, p)` describe the candidate structure, with a
  totality clause per state and a single fixed initial state s0;
  `lab(s, p)` exists for the target's own propositions only, the others
  staying false as in the families, since they cannot change its truth;
* a node's literal at state s is folded where it can be, as in bounded
  model checking (Biere, Cimatti, Clarke & Zhu, TACAS 1999): a
  proposition p reads `lab(s, p)`, `!g` reads the negation of g's
  literal, and `true` and `false` read one variable `true` and its
  negation, fixed by a unit clause; none of them has a variable or a
  tie clause of its own;
* `h(g, s)` evaluates an `&`, `|`, EX, EU or EG node g in state s, only
  at the states where g is read: the root at s0, an operand of `!`, `&`
  or `|` where its reader is read, an operand of EX, EU or EG at every
  state, since the successors are symbolic, and a node with several
  readers at the union (always s0 alone or every state); successor
  disjunctions range over all states, each conjunct `t(s, s') & ...`
  introduced as a shared Tseitin product variable (numbered above the
  semantic variables) when a kept lowering first asks for it;
* EU/EG fixed points unroll to m' approximants, with step variables
  `st(g, s, k)` for the inner ones, k = 2..m'-1, at every state whether
  or not g is read there (`lower_node` with no `out`);
* the root's literal holds at s0, a unit clause.

Operators are lowered by `encoder.lower_node`, the single home of the
step semantics; only successors and propositions are symbolic here.
It reads each operand's literals as a per-state list over the states
where the operand is read, which cover those where its reader reads it,
and the approximants `st(g, ., k)` as one such list per step k; the
successor function it is handed makes each product variable the first
time a lowering asks for it, so products are numbered in lowering order.
Each operator is lowered with its node's polarity (`sat`'s clause form
after Plaisted & Greenbaum): the root's is +1, `!` flips it for its
operand, any other operator passes it on, and a node read in both signs
gets 0.  At +1 only `h -> definition` is emitted, at -1 only
`definition -> h`, at 0 both.  A product emits each direction once, the
first time a reader of that sign needs it.  The folded literals are
exact equalities (the `true` variable is fixed true), so folding them
changes no model projected on t/lab, and a `!` that reads `!h(g, s)`
reads g in the sign its flipped polarity serves.

Soundness: given a model of the CNF, take the structure its t/lab
variables describe.  By induction children first, a true literal of
node g at s at a +1 node means g holds at s, and a false one at a -1
node means g fails at s (both at a 0 node): a folded literal is exact,
`!h(g, s)` for `!g` at +1 is a false `h` at g's -1 and the converse, each
definition reads its operands, products and approximants in one sign,
the sign their own polarity serves, and the EU/EG approximants are
bounded as in `lower_node`'s unrolling argument.  The root is +1 and
its literal asserted at s0, so the structure is a model.  Conversely the
true valuation of every variable satisfies the two-sided CNF, and so
the one-sided one.  Reading only where read keeps both directions: a
kept `h(g, s)`'s definition reads only kept pairs (`&` and `|` read
their operands at their own state, as `!` does through its literal, EX,
EU and EG read theirs and the approximants at every state), and a
dropped variable occurs in no kept clause.  So the induction runs on the kept
clauses alone, and the models, projected on t/lab, are those of the CNF
with every `h(g, s)`: each size is still decided exactly, and the
checker still verifies every returned structure.
The solver's `seed` reaches only these instances, so it affects only the
sizes the SAT sweep handles.

Sizes are tried upward and each is decided exactly, so the returned
structure has the fewest states of any model within the budget; which
model of that size comes back is unspecified.  Every synthesized
structure is verified with the explicit-state checker before being
returned; a verification failure is a hard internal error
(`SynthesisInconsistency`), never a silent wrong answer.  A None result
means "no model within the state budget" and is reported as such.  When
the tableau refuted the formula, or it has no propositions, no model of
any size exists; otherwise it is not a proof that no larger model
exists.

`implies` reduces bounded implication checking to synthesis of
countermodels for f & !g, whose verified witness it returns as it is.
That target is built for every f, the constant `true` included, and
keeps its constants through `ctl.enf`, so the CEG loop compares its
trivial hypothesis the same way as every other.  Only g = `true`, which
no structure falsifies, is answered before synthesis, with None.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import checker, ctl, tableau
from .ctl import And, CtlFormula, Not
from .encoder import VarPool, lower_node
from .kripke import KripkeStructure, UnknownProposition, check_alphabet
from .sat import CdclSolver, Clause, equiv_and

__all__ = ["SynthesisInconsistency", "synthesize", "implies"]

DEFAULT_MAX_STATES = 6

# Most components a family the sweep evaluates may have (module docstring).
FAMILY_CAP = 1 << 16

# The operators whose successors are symbolic in the SAT sweep's CNF, and
# the nodes that have no h variable there (their literal is folded).
_TEMPORAL = (ctl.ExistsNext, ctl.ExistsUntil, ctl.ExistsGlobally)
_FOLDED = (ctl.Prop, Not, ctl.Const)


class SynthesisInconsistency(RuntimeError):
    """A synthesized structure failed checker verification (internal bug)."""


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


@lru_cache(maxsize=None)  # only the (m, k) under FAMILY_CAP
def _family(num_states: int,
            num_props: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Edge masks E_d, d = 1-m..m-1, and label masks L_p of the family of
    every total `num_states`-state structure over `num_props` propositions,
    packed with state a of component c at bit a*C + c: E_d holds it when
    c has the edge a -> a+d, and L_p when p labels it.

    Component c = shape + S * labelling, with S = (2^m - 1)^m shapes:
    digit a of `shape` in base 2^m - 1 is the successor set of state a
    (as a bitset over states) less one, so never empty, and bit a*k + p
    of `labelling` is proposition p at state a.
    """
    m, k = num_states, num_props
    base = (1 << m) - 1
    shapes = base ** m
    total = _components(m, k)
    edges = [0] * (2 * m - 1)
    labels = [0] * k
    for a in range(m):
        run = base ** a  # consecutive shapes sharing digit a
        for b in range(m):
            block = 0
            for digit in range(base):
                if (digit + 1) >> b & 1:
                    block |= ((1 << run) - 1) << (digit * run)
            edges[m - 1 + b - a] |= (_repeat(block, run * base, total)
                                     << a * total)
        for p in range(k):
            run = shapes << (a * k + p)  # consecutive components sharing bit
            labels[p] |= (_repeat(((1 << run) - 1) << run, 2 * run, total)
                          << a * total)
    return tuple(edges), tuple(labels)


def _family_model(f: CtlFormula, num_states: int, props: Sequence[str],
                  alphabet: Sequence[str]) -> KripkeStructure | None:
    """A model of the ENF formula `f` with exactly `num_states` states
    over `props` (the others false), or None, by one `checker.evaluate`
    over the family (module docstring)."""
    m, total = num_states, _components(num_states, len(props))
    edges, labels = _family(m, len(props))
    label = dict(zip(props, labels))
    stay = edges[m - 1]
    down = [(d * total, edges[m - 1 + d]) for d in range(1, m)]
    # an upward shift masks first, at the source, so it never widens T
    up = [(d * total, edges[m - 1 - d] >> d * total) for d in range(1, m)]

    def ex(target: int) -> int:
        image = target & stay
        for shift, edge in down:
            image |= target >> shift & edge
        for shift, edge in up:
            image |= (target & edge) << shift
        return image

    found = checker.evaluate(f, label.__getitem__, ex,
                             (1 << m * total) - 1, {})
    found &= (1 << total) - 1  # initial state 0
    if not found:
        return None
    c = (found & -found).bit_length() - 1  # state a of component c is s<a>
    return _rooted(
        alphabet,
        [frozenset(p for p in props if label[p] >> (a * total + c) & 1)
         for a in range(m)],
        [frozenset(b for b in range(m)
                   if edges[m - 1 + b - a] >> (a * total + c) & 1)
         for a in range(m)])


def _encode(f: CtlFormula, num_states: int, props: Sequence[str],
            ) -> tuple[VarPool, list[Clause]]:
    nodes = ctl.subterms(f)
    states = range(num_states)
    # Each node's polarity and reach, readers first: the root is +1 and
    # read at s0, `!` flips the polarity, and a node read in both signs
    # gets 0; EX, EU and EG read their operands at every state, the others
    # at their own.  Node g is read at the states 0 .. reach[g] - 1.
    polarity, reach = {f: 1}, {f: 1}
    for g in reversed(nodes):
        sign = -polarity[g] if isinstance(g, Not) else polarity[g]
        width = num_states if isinstance(g, _TEMPORAL) else reach[g]
        for child in ctl.children(g):
            polarity[child] = (sign if polarity.get(child, sign) == sign
                               else 0)
            reach[child] = max(reach.get(child, 0), width)

    pool = VarPool()
    for s in states:
        for t in states:
            pool.var("t", s, t)
    for s in states:
        for p in props:
            pool.var("lab", s, p)
    true = (pool.var("true") if any(isinstance(g, ctl.Const) for g in nodes)
            else None)
    for g in nodes:
        if not isinstance(g, _FOLDED):
            for s in range(reach[g]):
                pool.var("h", g, s)
    for g in nodes:
        if isinstance(g, (ctl.ExistsUntil, ctl.ExistsGlobally)):
            for s in states:
                for k in range(2, num_states):
                    pool.var("st", g, s, k)

    def literal(g: CtlFormula, s: int) -> int:
        """Node g's literal at state s: under its `!`s, each of which
        flips the sign bit, a proposition's `lab`, the `true` variable for
        a constant, or an operator's h."""
        negated = 0
        while isinstance(g, Not):
            g, negated = g.operand, negated ^ 1
        if isinstance(g, ctl.Prop):
            return pool.get("lab", s, g.name) ^ negated
        if isinstance(g, ctl.Const):
            return true ^ negated ^ (not g.value)
        return pool.get("h", g, s) ^ negated

    clauses: list[Clause] = []
    for s in states:
        clauses.append(tuple(pool.get("t", s, t) for t in states))
    if true is not None:
        clauses.append((true,))

    # (a, b) -> its product variable and the sides of it emitted so far
    products: dict[tuple[int, int], tuple[int, set[int]]] = {}

    def product(a: int, b: int, sign: int) -> int:
        key = (a, b) if a <= b else (b, a)
        got = products.get(key)
        if got is None:
            got = products[key] = (pool.fresh(), set())
        var, emitted = got
        for side in (1, -1):
            if sign != -side and side not in emitted:
                equiv_and(clauses, var, (a, b), (), side)
                emitted.add(side)
        return var

    for g in nodes:
        if isinstance(g, _FOLDED):
            continue
        sign, read = polarity[g], range(reach[g])

        def successors(s: int, lits: Sequence[int],
                       sign: int = sign) -> list[int]:
            # t(s, s') & lits[s'], one shared product per pair
            return [product(pool.get("t", s, t), lits[t], sign)
                    for t in states]

        # Each operand's literals at the states where it is read, which
        # cover those where g reads it; a unary node reads no `right`.
        rows = [[literal(j, s) for s in range(reach[j])]
                for j in ctl.children(g)]
        left, right = rows[0], rows[-1]
        steps = ([[pool.get("st", g, s, k) for s in states]
                  for k in range(2, num_states)]
                 if isinstance(g, (ctl.ExistsUntil, ctl.ExistsGlobally))
                 else ())
        for s in states:  # where g is not read, EU/EG approximants only
            out = pool.get("h", g, s) if s in read else None
            lower_node(clauses, type(g), s, out, left, right, steps,
                       successors, num_states - 1, (), sign)

    clauses.append((literal(f, 0),))
    return pool, clauses


def _solve(f: CtlFormula, num_states: int, props: Sequence[str],
           alphabet: Sequence[str],
           seed: int | None) -> KripkeStructure | None:
    """A model of the ENF formula `f` with exactly `num_states` states
    over `props` (the others false), or None, by one CDCL solve of its
    `_encode` instance."""
    pool, clauses = _encode(f, num_states, props)
    backend = CdclSolver(seed=seed)
    backend.load(clauses, pool.count)
    if not backend.solve():
        return None
    value = backend.values()
    states = range(num_states)
    return _rooted(
        alphabet,
        [frozenset(p for p in props
                   if value[pool.get("lab", s, p) >> 1] == 1)
         for s in states],
        [frozenset(t for t in states if value[pool.get("t", s, t) >> 1] == 1)
         for s in states])


def _sweep(target: CtlFormula, max_states: int, props: Sequence[str],
           alphabet: Sequence[str],
           seed: int | None) -> KripkeStructure | None:
    """A model of the ENF formula `target` with 1..`max_states` states,
    fewest first, or None: each size goes to its family under the cap and
    to the solver above; one state decides a formula without propositions
    outright, and the tableau refutes what it can before three."""
    for num_states in range(1, max_states + 1):
        if num_states == 3 and tableau.satisfiable(target) is False:
            return None
        if _components(num_states, len(props)) <= FAMILY_CAP:
            model = _family_model(target, num_states, props, alphabet)
        else:
            model = _solve(target, num_states, props, alphabet, seed)
        if model is not None or not props:
            return model
    return None


def synthesize(formula: CtlFormula, max_states: int = DEFAULT_MAX_STATES,
               alphabet: Sequence[str] | None = None,
               seed: int | None = None) -> KripkeStructure | None:
    """A structure satisfying `formula` with at most `max_states` states.

    State counts are tried in increasing order by the sweep, each decided
    exactly, so a returned structure has as few states as any model within
    the budget.  `seed` reaches only the solver, which the sweep runs on
    the sizes whose family is above `FAMILY_CAP`, one state included.
    None means no model within the budget.  It is exact (no model of any
    size) when the formula has no propositions or the tableau, which runs
    once before three states, refuted it, and otherwise not a proof that
    none exists beyond the budget; callers report it as a bounded verdict
    either way.
    A given `alphabet` must pass `kripke.check_alphabet`, whether or not a
    model is found, and contain the formula's propositions
    (`kripke.UnknownProposition` otherwise).
    """
    if max_states < 1:
        raise ValueError("state budget must be at least 1")
    props = tuple(sorted(ctl.propositions(formula)))
    if alphabet is None:
        alphabet = props
    else:
        alphabet = tuple(alphabet)
        check_alphabet(alphabet)
        for prop in props:
            if prop not in alphabet:
                raise UnknownProposition(prop)
    model = _sweep(ctl.enf(formula), max_states, props, alphabet, seed)
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
    refuted f & !g, the implication is valid outright.  Without an
    `alphabet` a countermodel is labelled over the propositions of f and g.

    The reduction is the whole check: None when g is `true`, which no
    structure falsifies, else `synthesize`'s answer for f & !g, whatever f
    is, `true` included.  `synthesize` checker-verifies what it returns
    against that target, and its structures have the one initial state s0,
    so a countermodel satisfies f and falsifies g with no second check.
    """
    if g == ctl.TRUE:
        return None
    return synthesize(And(f, Not(g)), max_states, alphabet, seed)
