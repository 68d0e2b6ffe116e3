"""SAT encoding of size-bounded ENF formula search over labeled structures.

An instance at size budget n describes the syntax DAGs with nodes 1..n
(children strictly below parents, node 1 a proposition, node n the root)
together with their evaluation on every structure of the sample:

* label variables `x(i, lab)` pick one label per node, a proposition's
  name or an ENF operator's class (`ctl.OPERATOR_LABELS`), from the
  node's domain `label_domain(n, i, alphabet)`: the labels node i can
  take in some normal-form DAG (propositions only at node 1, operators
  only at the root, no binary operator at node 2), so no other
  `x(i, lab)` exists;
* child variables `l(i, j)` / `r(i, j)` with j < i pick the children of
  every node i >= 2 (exactly one each, even where the arity ignores them);
* use variables `u(i, j)` with i < j say that node j reads node i;
* evaluation variables `y(m, i, s)` say that state s of structure m
  satisfies the subformula rooted at node i;
* step variables `ys(m, i, s, k)` with k in 2..|S|-1 are the inner
  approximants of the EU/EG fixed points of the operator nodes i >= 2,
  which `lower_node` unrolls to |S| approximants, the first read from
  the operand and the last written into `y`;
* operand-value variables `L(m, i, s)` / `R(m, i, s)` of the operator
  nodes i >= 2 equal the evaluation of the chosen left / right child;
  node 2 takes no binary label, so it has no `R`.

The structural clauses (`build_structural`) and the semantic ones
(`build_semantic`) describe every such DAG whose labels lie in the
domains.  A search instance admits only the normal-form DAGs of
`build_normal_form`: tight (every node is read), without duplicate
nodes, with the propositions first and the operands of `&` and `|`
ordered, and without an instance of a rewrite rule psi = phi of
`REWRITE_RULES`.  So every DAG it admits has exactly n distinct
subformulas.

The rule table holds every minimal schema psi of at most 4 DAG nodes,
over the metavariables a and b, that `tableau.satisfiable` proves
equivalent to a proper sub-DAG phi of itself (by refuting psi xor phi),
such as a & EG a = EG a, E[a U EG a] = EG a and !!a = a.  CTL validity
is closed under uniform substitution, so a rule proved for propositions
holds for every formula put in for a and b.  Rewriting psi to phi drops
psi's root and adds no node, so excluding the instances of psi keeps an
equivalent of every formula at no larger size (`build_normal_form`).
The domains are owned by that normal form: they leave out exactly the
labels no admitted DAG takes (the argument is in its docstring), so the
instance admits the same DAGs with fewer variables and clauses.

Semantic constraints are equivalences guarded by the label choice over
the operand values, and the operand values are tied to the children by
equivalences guarded by the child choice; so once the x/l/r variables
are fixed all L/R/y/ys values are forced, but a negative's root.  The
label part comes from `lower_node`, the single home of the EX/EU/EG
step semantics, which bounded synthesis (`synth`) also lowers its
symbolic structures with.  Consistency requires the root to hold in
every initial state of the positive structures and to fail in some
initial state of each negative one.  A rooted negative, a state at
which the root must fail, is one unit clause on the root's `y` there
(`add_rooted`).  So nothing reads a negative's root true, and its root
is lowered one-sided, in the polarity-based clause form of Plaisted &
Greenbaum (1986).

Variables are laid out per structure: the x/l/r variables of the DAG
first, then the u variables, then, for each structure in the order it
was added, which is its index m, its y, then its ys, then its L/R
variables.  Literals are in `sat`'s encoded form, and `VarPool` hands
out the positive ones.  Clauses enter an instance one way, appended to
its stream: `build_instance` appends the structural and normal-form
clauses, then each positive and negative's clauses as `add_structure`
appends them, then each rooted negative's unit clause as `add_rooted`
appends it.  Appending to a built instance (the learner's persistent
search) gives the clauses the build would have given, renumbers nothing,
and leaves every clause already appended valid.  Every instance owns one
solver, reached only through `load_backend`, which loads the clauses
appended since its last call; so each solve sees the whole stream, in
order.

A blocking clause (`add_block`) negates the defining literals of one
decoded DAG (`decode_with_literals`), excluding that numbering.  It reads
only x/l/r variables, so it can be appended at any time, before or after
further structures.

The builders, here and in `sat`'s shapes, fill their lists and clauses
with plain loops.  Most lists are short (a structure of one or two
states, a node's one or two successors), and on CPython 3.11 a
comprehension's own call then costs more than the work inside it
(`BENCH_lists.json` has the measurements).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import sat
from .ctl import (BINARY_LABELS, OPERATOR_LABELS, And, CtlFormula,
                  ExistsGlobally, ExistsNext, ExistsUntil, Not, Or, Prop,
                  children, parse_ctl, subterms)
from .kripke import KripkeStructure
from .sat import BackendFailure, CdclSolver, Clause

# How `lower_node` reads a successor disjunction: state s and per-state
# literals to the literals of the successors of s.
Successors = Callable[[int, Sequence[int]], list[int]]

__all__ = ["VarPool", "REWRITE_RULES", "lower_node", "add_structure",
           "add_rooted", "add_block", "build_normal_form", "build_instance",
           "load_backend", "decode_with_literals", "to_dimacs"]


class VarPool:
    """Interns tuple keys as contiguous variables 1, 2, .., `count`, and
    hands out each one's positive literal `2v` (the literal form of
    `sat`).

    Auxiliary variables (`fresh`) are always numbered above the semantic
    variables allocated before them, and never enter the key table, which
    so lists the semantic variables in index order.
    """

    def __init__(self) -> None:
        self._index: dict[tuple, int] = {}
        self.count = 0

    def var(self, *key) -> int:
        got = self._index.get(key)
        if got is None:
            self.count += 1
            got = self._index[key] = self.count << 1
        return got

    def get(self, *key) -> int:
        return self._index[key]

    def fresh(self) -> int:
        self.count += 1
        return self.count << 1

    def semantic_items(self) -> Iterable[tuple[tuple, int]]:
        return self._index.items()


class EncodingInstance:
    """A search instance: the budget, the clause stream over the pool's
    variables, and the solver of the given seed that the stream goes to.

    Clauses enter only by being appended to `clauses`, and the solver is
    reached only through `load_backend`, which loads the clauses it does
    not hold yet; `_loaded` counts the ones it holds.
    """

    __slots__ = ("size_budget", "alphabet", "pool", "clauses", "structures",
                 "negatives", "_solver", "_loaded")

    def __init__(self, size_budget: int, alphabet: tuple[str, ...],
                 pool: VarPool, clauses: list[Clause] | None = None,
                 seed: int | None = None) -> None:
        self.size_budget = size_budget
        self.alphabet = alphabet
        self.pool = pool
        self.clauses = [] if clauses is None else clauses
        # The structures in the order added (their index m), and how many
        # of them are negatives.
        self.structures: tuple[KripkeStructure, ...] = ()
        self.negatives = 0
        self._solver = CdclSolver(seed=seed)
        self._loaded = 0

    @property
    def num_vars(self) -> int:
        return self.pool.count

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


_UNARY_LABELS = (Not, ExistsNext, ExistsGlobally)


def label_domain(n: int, i: int, alphabet: Sequence[str],
                 ) -> tuple[str | type[CtlFormula], ...]:
    """The labels node i of a budget-n DAG can take in the normal form
    (`build_normal_form`), propositions first, in alphabet order.

    Node 1 is a proposition, and the root of a budget n >= 2 an operator.
    Node 2 reads node 1 only, so it is no `&`, `|` or `EU`.  Any other
    node i is an operator or one of `alphabet[i - 1:]`: propositions come
    first, in alphabet order.
    """
    props = () if 1 < i == n else tuple(alphabet[i - 1:])
    if i == 1:
        return props
    return props + (_UNARY_LABELS if i == 2 else OPERATOR_LABELS)


# The rewrite rules psi = phi of the normal form, in CTL text over the
# metavariables a and b, each phi a proper subterm of its psi.  Derived and
# proved by the tableau (module docstring); `_rule_clauses` parses them at
# first use.
REWRITE_RULES: tuple[str, ...] = (
    "E[a U a] = a",
    "!!a = a",
    "EG EG a = EG a",
    "a & EG a = EG a",
    "a | EG a = a",
    "E[a U EG a] = EG a",
    "E[EG a U a] = a",
    "EG EX EG a = EX EG a",
    "EX (a & !a) = a & !a",
    "EG (a & !a) = a & !a",
    "EX (a | !a) = a | !a",
    "EG (a | !a) = a | !a",
    "a & EX EG a = EG a",
    "a & (a & b) = a & b",
    "a | a & b = a",
    "a & (a | b) = a",
    "a | (a | b) = a | b",
    "E[a U a | b] = a | b",
    "E[a U E[a U b]] = E[a U b]",
    "E[a U a & !a] = a & !a",
    "E[a U a & EX a] = a & EX a",
    "a & E[b U a] = a",
    "a | E[b U a] = E[b U a]",
    "E[a U E[b U a]] = E[b U a]",
    "E[!a U a & !a] = a & !a",
    "EX a & E[EX a U a] = EX a",
    "EX a | E[EX a U a] = E[EX a U a]",
    "EG a & EX a = EG a",
    "EG a | EX a = EX a",
    "E[EG a U EX a] = EX a",
    "EG a & EX EG a = EG a",
    "EG a | EX EG a = EX EG a",
    "E[EG a U EX EG a] = EX EG a",
    "E[!EX a U a] = a",
    "E[EX EG a U EG a] = EX EG a",
    "E[a & b U a] = a",
    "E[E[a U b] U b] = E[a U b]",
    "E[a | EX a U a] = a | EX a",
)


def build_structural(pool: VarPool, n: int,
                     alphabet: Sequence[str]) -> list[Clause]:
    """Exactly-one label choice over each node's `label_domain`, and
    exactly-one child choices."""
    clauses: list[Clause] = []
    for i in range(1, n + 1):
        group = []
        for lab in label_domain(n, i, alphabet):
            group.append(pool.var("x", i, lab))
        sat.exactly_one(clauses, group)
    for i in range(2, n + 1):
        for kind in ("l", "r"):
            group = []
            for j in range(1, i):
                group.append(pool.var(kind, i, j))
            sat.exactly_one(clauses, group)
    return clauses


def build_normal_form(pool: VarPool, n: int,
                      alphabet: Sequence[str]) -> list[Clause]:
    """Clauses admitting only normal-form DAGs among those of
    `build_structural`:

    * propositions first, in alphabet order: a proposition node i >= 2
      follows a proposition node earlier in the alphabet;
    * ordered operands: `&` and `|` read l(i) < r(i);
    * no rule instance: no placement of the pattern psi of a rule psi =
      phi of `REWRITE_RULES` (`_rule_clauses`) is in the DAG.  Each
      placement gives one clause, which negates the labels and child
      choices it names.  One of them is E[a U a] = a, so `EU` reads
      l(i) != r(i);
    * no duplicate operator nodes: no two have the same label and the same
      children that the arity reads (the first bullet already keeps
      propositions apart);
    * tight: every node i < n is read by some later node j, as the left
      child of an operator or the right child of a binary one, which the
      use variable u(i, j) witnesses.

    Every admitted DAG has n distinct subformulas, since no node is
    unreachable from the root and no two nodes denote the same formula.

    The rules are every minimal schema psi of at most 4 DAG nodes over
    the metavariables a and b that is equivalent to a proper sub-DAG phi,
    proved by `tableau.satisfiable` refuting psi xor phi.  Minimal: no
    proper sub-DAG of psi is itself an instance of a rule, and no rule is
    a substitution instance of another (so !!EG a, say, is left to !!a).
    CTL validity is closed under uniform substitution, so psi = phi holds
    for every instance, whatever formulas a and b stand for.
    `tests/test_encoder.py` derives the table again and compares.

    Soundness: every formula of size <= n has an equivalent admitted
    formula of no larger size.  Rewrite x & x and x | x to x, and each
    instance of a rule psi to its instance of phi, at every occurrence
    at once (in the DAG: redirect the readers of psi's root to phi's node;
    psi's root is dropped and no node is added), merge duplicate nodes
    and drop unreachable ones.  Each step keeps the semantics and lowers
    the node count, so this terminates.  Then number the propositions
    first in alphabet order and the operator nodes in any order with
    children first, and swap the operands of every `&` or `|` node whose
    left child got the higher number.  A placement puts `&`/`|` operands
    in that order too, so the swaps make no new rule instance.  If they
    make two nodes equal, merge them and start again, with fewer nodes;
    otherwise the DAG is admitted.  So the guarantees of searching every
    formula carry over.  The learner's one search
    (`learner.CandidateSearch`) still finds the minimum size of a
    consistent formula, and its floor argument only needs the admitted
    set of a budget to shrink.  A formula strictly implying an answer of
    `ceg.infer` has an admitted equivalent that does too, so
    language-minimality over the admitted formulas is language-minimality
    over all of them.

    The clauses name only the labels of each node's `label_domain`, and
    the instance has no other label variable.  That admits the same DAGs
    as label variables for every proposition and operator at every node
    would, because no DAG meeting the bullets above takes a label left
    out:

    * an operator at node 1 would read a node below 1, and there is none;
    * a proposition at node i >= 2 follows one at node i - 1 earlier in
      the alphabet, so by induction node i carries `alphabet[a]` only for
      a >= i - 1;
    * a proposition at the root n >= 2 makes every node a proposition, so
      no operator reads node 1 and tightness fails;
    * node 2 can read node 1 only, so l(2) = r(2) = 1, which neither `&`
      and `|` (l < r) nor `EU` (the rule E[a U a] = a) allows.
    """
    var = pool.var
    domain = [()] + [label_domain(n, i, alphabet) for i in range(1, n + 1)]
    clauses: list[Clause] = []
    for i in range(2, n + 1):
        for a, p in enumerate(alphabet):
            if p in domain[i]:
                clause = [var("x", i, p) ^ 1]
                for q in alphabet[:a]:
                    if q in domain[i - 1]:
                        clause.append(var("x", i - 1, q))
                clauses.append(tuple(clause))
        for j in range(1, i):
            for lab in (And, Or):
                if lab in domain[i]:
                    clause = [var("x", i, lab) ^ 1, var("l", i, j) ^ 1]
                    for k in range(j + 1, i):
                        clause.append(var("r", i, k))
                    clauses.append(tuple(clause))
    for keys in _rule_clauses(n):
        clause = []
        for key in keys:
            clause.append(var(*key) ^ 1)
        clauses.append(tuple(clause))
    for i in range(2, n + 1):
        for i2 in range(i + 1, n + 1):
            for lab in domain[i]:
                if isinstance(lab, str) or lab not in domain[i2]:
                    continue
                for j in range(1, i):
                    same = (var("x", i, lab) ^ 1, var("x", i2, lab) ^ 1,
                            var("l", i, j) ^ 1, var("l", i2, j) ^ 1)
                    if lab not in BINARY_LABELS:
                        clauses.append(same)
                        continue
                    for j2 in range(1, i):
                        clauses.append(same + (var("r", i, j2) ^ 1,
                                               var("r", i2, j2) ^ 1))
    for i in range(1, n):
        clause = []
        for j in range(i + 1, n + 1):
            clause.append(var("u", i, j))
        clauses.append(tuple(clause))
        for j in range(i + 1, n + 1):
            unused = var("u", i, j) ^ 1
            ops = [unused]
            binary = [unused, var("l", j, i)]
            for lab in domain[j]:
                if not isinstance(lab, str):
                    ops.append(var("x", j, lab))
                    if lab in BINARY_LABELS:
                        binary.append(var("x", j, lab))
            clauses.append(tuple(ops))
            clauses.append(tuple(binary))
            clauses.append((unused, var("l", j, i), var("r", j, i)))
    return clauses


@lru_cache(maxsize=None)
def _rule_clauses(n: int) -> tuple[tuple[tuple, ...], ...]:
    """The clauses of `REWRITE_RULES` at budget n, one per placement of a
    rule's pattern psi, each as the keys of the label and child-choice
    variables it negates.

    The pattern is psi's syntax DAG, children first (`_patterns`),
    whose propositions are the metavariables.  A placement (`_extend`)
    puts the pattern's operator nodes on DAG nodes whose `label_domain`
    holds their classes.  A metavariable goes to any node, since it may
    stand for any formula, and an operator node to any node above its
    children that no other operator node of the placement holds.  Two
    operator nodes could share a DAG node only with one label and equal
    children, which takes two nodes of one label off one root path, each
    with its own child: five pattern nodes, and a rule has at most 4.  A
    metavariable that only one operand of a `!`, `EX`, `EG` or `EU` node
    reads is left open: every node below that one may take it, so its
    placements together exclude what the one without its child literal
    does.  A placement is left out when it names a label outside the
    domain (that variable does not exist) or an `&`/`|` that reads one
    node twice, which the operand order already excludes.

    A pattern holds no proposition of the alphabet, so its placements
    depend on the operator labels of each node's `label_domain` alone,
    and those on n and i alone; so the clauses are built once per budget
    and shared by every alphabet.
    """
    domain = [()] + [label_domain(n, i, ()) for i in range(1, n + 1)]
    clauses = []
    for pattern in _patterns():
        place = dict.fromkeys(pattern)
        for placed in _extend(pattern, n, domain, place, 0, []):
            keys: dict[tuple, None] = {}
            for i, (lab, *kids) in placed:
                keys[("x", i, lab)] = None
                for kind, j in zip("lr", kids):
                    if j is not None:
                        keys[(kind, i, j)] = None
            clauses.append(tuple(keys))
    return tuple(clauses)


@lru_cache(maxsize=None)
def _patterns() -> tuple[list[CtlFormula], ...]:
    """The psi of each rule of `REWRITE_RULES`, parsed at first use into
    its syntax DAG, children first (`ctl.subterms`)."""
    return tuple(subterms(parse_ctl(rule.partition(" = ")[0]))
                 for rule in REWRITE_RULES)


def _extend(pattern: Sequence[CtlFormula], n: int, domain: Sequence[tuple],
            place: dict[CtlFormula, int | None], k: int,
            placed: list[tuple[int, tuple]],
            ) -> Iterable[list[tuple[int, tuple]]]:
    """Each placement of the rule pattern `pattern` (`_rule_clauses`) in a
    budget-n DAG whose node i takes a label of `domain[i]` that extends
    `placed`, the operator nodes of `pattern[:k]` placed so far, root
    first, with `place[g]` the DAG node of each g of `pattern[:k]` (None
    if left open): the list of its operator nodes, root first, each DAG
    node i with its class and the DAG nodes it reads, `&`/`|` operands in
    the order the normal form numbers them, and None for a child left
    open."""
    if k == len(pattern):
        yield placed
        return
    g = pattern[k]
    if isinstance(g, Prop):  # a metavariable
        # The class of each operand read of g.
        reads = [type(h) for h in pattern for kid in children(h) if kid is g]
        if reads[1:] or reads[0] in (And, Or):
            for i in range(1, n + 1):
                place[g] = i
                yield from _extend(pattern, n, domain, place, k + 1, placed)
        else:
            yield from _extend(pattern, n, domain, place, k + 1, placed)
        return
    lab = type(g)
    below = [place[kid] for kid in children(g)]
    if lab in (And, Or):
        if below[0] == below[1]:
            return
        below.sort()
    for i in range(max(j or 1 for j in below) + 1, n + 1):
        if lab in domain[i] and all(i != j for j, _ in placed):
            place[g] = i
            yield from _extend(pattern, n, domain, place, k + 1,
                               [(i, (lab, *below))] + placed)


def lower_node(clauses: list[Clause], label: type[CtlFormula], s: int,
               out: int | None, left: Sequence[int], right: Sequence[int],
               steps: Sequence[Sequence[int]], successors: Successors,
               depth: int, pre: Clause = (), polarity: int = 0) -> None:
    """Append the semantics at state s of an operator node of class
    `label` (`ctl.OPERATOR_LABELS`) to `clauses`, the sink of the
    `sat.equiv_*` shapes it lowers to.

    The single CNF lowering of the CTL step semantics, for formula search
    (known structure) and bounded synthesis (symbolic structure).
    `left`/`right` list the child literals state by state (a list need
    only cover s for `!`, `&` and `|`), and `successors(s, lits)` lists
    literals whose disjunction says a successor t has `lits[t]`.  EU and
    EG unroll `depth` steps over the approximants X_1 .. X_{depth+1}:
    X_1 is the operand's list `base` (`right` for EU, `left` for EG),
    `steps[k - 2]` lists X_k state by state for k in 2..depth, and the
    last step is written into `out`.  At depth 0, `out <-> base`.  An
    `out` of None says the node has no variable at s: only the inner
    EU/EG groups, those writing X_2 .. X_depth, are lowered, for the
    states whose `out` reads them.

    `pre` and `polarity` are those of the `sat.equiv_*` shapes, the
    negated guards that prefix every clause and the direction kept, and
    every group takes them: +1 lowers out -> definition and X_k -> its
    step, -1 the converse, 0 both.  `lower_node` writes `out` and never
    reads it, and each definition reads the approximants, `successors`
    and the operands in one sign (`!` aside, which negates its operand),
    so a caller that reads `out` in one sign needs only that direction.

    Soundness, with callers passing depth = |S| - 1 on a total structure
    of |S| states, so that `out` is X_|S|:

    * EU: X_k is the set of states with a witness path (through the left
      operand into the right one) of at most k - 1 edges.  A shortest
      witness path is loop-free, so it has at most |S| - 1 edges, and
      X_|S| is the least fixed point.
    * EG: X_k is the set of states with a k-state path that stays in the
      operand's set.  A path of |S| states either repeats a state, or
      visits every state, in which case the last state's successor is on
      the path.  Either way it closes a lasso, so X_|S| is the greatest
      fixed point.

    The definition of each approximant is monotone in the one before, so
    at polarity +1 a true X_k (by induction on k) implies the state is in
    the k-th approximant, and at -1 a false X_k implies it is not.
    """
    if out is None and label not in (ExistsUntil, ExistsGlobally):
        return  # no inner groups
    if label is Not:
        sat.equiv_lit(clauses, out, left[s] ^ 1, pre, polarity)
    elif label is ExistsNext:
        sat.equiv_or(clauses, out, successors(s, left), pre, polarity)
    elif label is And or label is Or:
        equiv = sat.equiv_and if label is And else sat.equiv_or
        equiv(clauses, out, (left[s], right[s]), pre, polarity)
    else:
        until = label is ExistsUntil
        approx = right if until else left  # X_1
        if depth == 0:
            sat.equiv_lit(clauses, out, approx[s], pre, polarity)
        cond = left[s]
        for k in range(1, depth + 1 if out is not None else depth):
            reached = successors(s, approx)
            target = out if k == depth else steps[k - 1][s]
            if until:
                sat.equiv_or_and_disj(clauses, target, approx[s], cond,
                                      reached, pre, polarity)
            else:
                sat.equiv_and_disj(clauses, target, cond, reached, pre,
                                   polarity)
            if k < depth:
                approx = steps[k - 1]  # X_{k+1}


def build_semantic(pool: VarPool, n: int, m: int, struct: KripkeStructure,
                   negative: bool = False) -> list[Clause]:
    """Guarded evaluation equivalences of structure number m for every
    node, label of the node's `label_domain`, and state.

    The structure's variables are allocated first, in the layout of the
    module docstring, into per-state literal lists that `lower_node`
    reads.

    The operand values `L(m, i, s)` and `R(m, i, s)` of an operator node
    i are tied to its children by `l(i, j) -> (L(m, i, s) <-> y(m, j, s))`
    and `r(i, j) -> (R(m, i, s) <-> y(m, j, s))`, and `lower_node` reads
    them, guarded by the label `x(i, label)` alone.  So each node, label
    and state is lowered once, whatever the children.

    Soundness: the exactly-one constraints of `build_structural` make one
    `l(i, j)` and one `r(i, j)` true, which forces `L` and `R` to the
    chosen children's `y`.  So the models, projected on the x/l/r/u/y/ys
    variables, are exactly those of guarding each lowering by the label
    and the child choices it reads.  Node 2 only takes `!`, `EX` and
    `EG`, whose lowerings read no `right`.

    Every node is lowered two-sided at every state, so the x/l/r
    variables force every `y`, except the root of a `negative`, node n,
    which is lowered at polarity -1 (`lower_node`): nothing reads a
    negative's root `y` true, and a false one implies that the root
    formula fails at that state.

    A positive's root stays two-sided at every state, although its
    consistency clause reads its `y` true only at the initial states and
    a rooted negative reads it false only elsewhere.  Lowering it at +1
    at the initial states and at -1 elsewhere is unsound: at an initial
    state an EU or EG root reads its own approximants at the successor
    states, at every state, in the positive sense, and at -1 a true
    approximant there implies nothing.  `ceg.infer` on that lowering
    returned `EG p` on the fixture `chain3`, where it fails, at bounds 2
    and 3.
    """
    size = struct.size
    states = range(size)
    # Node i's literals state by state: y[i], the approximants
    # steps[i][k - 2] and the operand values left[i] and right[i].
    y: list[list[int]] = [[]]
    for i in range(1, n + 1):
        y.append([])
        for s in states:
            y[i].append(pool.var("y", m, i, s))
    steps: list[list[list[int]]] = [[], []]
    for i in range(2, n + 1):
        steps.append([])
        for k in range(2, size):
            steps[i].append([])
        for s in states:  # allocated state by state
            for k in range(2, size):
                steps[i][k - 2].append(pool.var("ys", m, i, s, k))
    # Node 2 takes no binary label, so it reads no right.
    left: list[list[int]] = [[], []]
    right: list[list[int]] = [[], [], []]
    for i in range(2, n + 1):
        left.append([])
        if i > 2:
            right.append([])
        for s in states:
            left[i].append(pool.var("L", m, i, s))
            if i > 2:
                right[i].append(pool.var("R", m, i, s))
    post = [sorted(succ) for succ in struct.successors]

    def successors(s: int, lits: Sequence[int]) -> list[int]:
        reached = []
        for t in post[s]:
            reached.append(lits[t])
        return reached

    clauses: list[Clause] = []
    for i in range(1, n + 1):
        out = y[i]
        sign = -1 if negative and i == n else 0
        lowered = []  # each operator label with its negated guard
        for p in label_domain(n, i, struct.alphabet):
            if not isinstance(p, str):
                lowered.append((p, (pool.var("x", i, p) ^ 1,)))
                continue
            unlabelled = pool.var("x", i, p) ^ 1
            for s in states:
                if p in struct.labels[s]:
                    clauses.append((unlabelled, out[s]))
                elif not sign:
                    clauses.append((unlabelled, out[s] ^ 1))
        if i == 1:
            continue  # node 1 is structurally a proposition
        left_i, right_i, steps_i = left[i], right[i], steps[i]
        for j in range(1, i):
            not_l = (pool.var("l", i, j) ^ 1,)
            not_r = (pool.var("r", i, j) ^ 1,)
            child = y[j]
            for s in states:
                sat.equiv_lit(clauses, left_i[s], child[s], not_l)
                if i > 2:
                    sat.equiv_lit(clauses, right_i[s], child[s], not_r)
        for s in states:
            for label, pre in lowered:
                lower_node(clauses, label, s, out[s], left_i, right_i,
                           steps_i, successors, size - 1, pre, sign)
    return clauses


def add_structure(instance: EncodingInstance, struct: KripkeStructure,
                  negative: bool) -> None:
    """Append one sample structure as structure m, the next index.

    Its clauses are one consistency clause, first: the root holds on
    every initial state of a positive, and fails on some initial state of
    a negative; then `build_semantic`.  The solver drops the clauses
    after it that the root literals it fixes satisfy.  A negative with
    one initial state s0 asks what the rooted negative (m, s0) would, but
    is not recorded as one: the encoder keeps no record of rooted
    negatives, and no caller hands over a negative's initial state
    (`ceg._root_failures`).
    """
    if struct.alphabet != instance.alphabet:
        raise ValueError("sample structures must share one alphabet")
    pool, n, clauses = instance.pool, instance.size_budget, instance.clauses
    m = len(instance.structures)
    semantic = build_semantic(pool, n, m, struct, negative)
    roots = [pool.get("y", m, n, s) for s in sorted(struct.initial)]
    if negative:
        clauses.append(tuple(lit ^ 1 for lit in roots))
    else:
        clauses += [(lit,) for lit in roots]
    clauses += semantic
    instance.structures += (struct,)
    instance.negatives += negative


def add_rooted(instance: EncodingInstance, m: int, s: int) -> None:
    """Append a rooted negative: the root fails at state s of structure
    number m, the unit clause !y(m, n, s).

    Soundness: a positive's root `y` is forced by the x/l/r variables,
    like any other node's.  On a negative, a false `y` implies that the
    root formula fails at s (`build_semantic`), and no clause reads the
    `y` true.  So the DAGs admitted after the append are exactly those
    admitted before whose root formula fails at s.
    """
    instance.clauses.append(
        (instance.pool.get("y", m, instance.size_budget, s) ^ 1,))


def add_block(instance: EncodingInstance, lits: Iterable[int]) -> None:
    """Append the clause excluding every assignment that makes all of
    `lits` true."""
    instance.clauses.append(tuple(lit ^ 1 for lit in lits))


def build_instance(n: int, positives: Sequence[KripkeStructure],
                   negatives: Sequence[KripkeStructure] = (),
                   seed: int | None = None,
                   rooted: Iterable[tuple[int, int]] = ()) -> EncodingInstance:
    """The search instance at budget n, with the rooted negatives
    (structure index, state), for a solver of the given seed: the
    structural and normal-form clauses, then each structure and rooted
    negative appended in turn.  Nothing is loaded yet (`load_backend`)."""
    if n < 1:
        raise ValueError("size budget must be at least 1")
    structures = tuple(positives) + tuple(negatives)
    if not structures:
        raise ValueError("sample must contain at least one structure")
    alphabet = structures[0].alphabet
    pool = VarPool()
    clauses = build_structural(pool, n, alphabet)
    clauses += build_normal_form(pool, n, alphabet)
    instance = EncodingInstance(n, alphabet, pool, clauses, seed)
    for struct in positives:
        add_structure(instance, struct, False)
    for struct in negatives:
        add_structure(instance, struct, True)
    for m, s in rooted:
        add_rooted(instance, m, s)
    return instance


def load_backend(instance: EncodingInstance) -> CdclSolver:
    """The instance's solver, after loading the clauses appended since the
    last call, in one `load` that declares every variable of the pool."""
    solver = instance._solver
    solver.load(instance.clauses[instance._loaded:], instance.pool.count)
    instance._loaded = len(instance.clauses)
    return solver


def _true_key(assignment: Sequence[int], pool: VarPool,
              kind: str, i: int, candidates: Iterable) -> tuple[object, int]:
    """The one candidate c whose variable `kind`(i, c) is true, with its
    literal."""
    hits = []
    for c in candidates:
        lit = pool.get(kind, i, c)
        if assignment[lit >> 1] == 1:
            hits.append((c, lit))
    if len(hits) != 1:
        raise BackendFailure(
            f"assignment fixes {len(hits)} choices for {kind}({i})")
    return hits[0]


def decode_with_literals(assignment: Sequence[int],
                         instance: EncodingInstance,
                         ) -> tuple[CtlFormula, list[int]]:
    """Formula of the DAG the assignment picks, rooted at node n, plus the
    literals that pick it: for each node in order its label, then the
    children its arity reads.  Negating them (`add_block`) excludes
    every assignment that picks this numbered DAG.

    The assignment is the solver's value array (`CdclSolver.values`),
    indexed by variable, 1 for true; only the x/l/r variables are read.
    """
    pool, n = instance.pool, instance.size_budget
    built: list[CtlFormula] = []  # node i is built[i - 1]
    lits: list[int] = []
    for i in range(1, n + 1):
        lab, lit = _true_key(assignment, pool, "x", i,
                             label_domain(n, i, instance.alphabet))
        lits.append(lit)
        if isinstance(lab, str):
            built.append(Prop(lab))
            continue
        kids = []
        for kind in ("l", "r") if lab in BINARY_LABELS else ("l",):
            j, lit = _true_key(assignment, pool, kind, i, range(1, i))
            lits.append(lit)
            kids.append(built[j - 1])
        built.append(lab(*kids))
    return built[-1], lits


# The names `to_dimacs` prints for the operator labels.
_LABEL_NAMES = {Not: "!", And: "&", Or: "|", ExistsNext: "EX",
                ExistsUntil: "EU", ExistsGlobally: "EG"}


def to_dimacs(instance: EncodingInstance) -> str:
    negatives = instance.negatives
    comments = [f"size budget {instance.size_budget}, "
                f"{len(instance.structures) - negatives} positive / "
                f"{negatives} negative structures"]
    for key, lit in instance.pool.semantic_items():
        comments.append(" ".join(str(_LABEL_NAMES.get(part, part))
                                 for part in key) + f" {lit >> 1}")
    return sat.to_dimacs(instance.pool.count, instance.clauses, comments)
