"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library's bitmask fixed points
and SAT machinery.  Satisfaction sets are recomputed with plain Python
sets and while loops, bounded until/globally semantics by explicit path
enumeration, and sample consistency by brute-force formula enumeration.
Agreement between these and the fast implementations is what the tests
certify.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ctlinfer import ctl, encoder, kripke, tableau
from ctlinfer.ctl import (And, Const, CtlFormula, ExistsFinally,
                          ExistsGlobally, ExistsNext, ExistsUntil,
                          ForallFinally, ForallGlobally, ForallNext,
                          ForallUntil, Implies, Not, Or, Prop)
from ctlinfer.kripke import KripkeStructure
from ctlinfer.sat import Clause

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> KripkeStructure:
    return kripke.parse_kripke((FIXTURES / name).read_text())


def fixture_names() -> list[str]:
    return sorted(p.name for p in FIXTURES.glob("*.kripke"))


# ---------------------------------------------------------------------------
# Independent model checking oracle (plain sets, full CTL)
# ---------------------------------------------------------------------------

def naive_sat(m: KripkeStructure, f: CtlFormula) -> frozenset[int]:
    """Satisfaction set by direct set iteration, no bitmasks, no ENF."""
    every = frozenset(range(m.size))
    post = m.successors

    def lfp(seed: set[int], admit) -> frozenset[int]:
        found = set(seed)
        while True:
            grown = found | {s for s in every
                             if s not in found and admit(s, found)}
            if grown == found:
                return frozenset(found)
            found = grown

    def gfp(seed: set[int], keep) -> frozenset[int]:
        kept = set(seed)
        while True:
            shrunk = {s for s in kept if keep(s, kept)}
            if shrunk == kept:
                return frozenset(kept)
            kept = shrunk

    def rec(g: CtlFormula) -> frozenset[int]:
        if isinstance(g, Prop):
            if g.name not in m.alphabet:
                raise kripke.UnknownProposition(g.name)
            return frozenset(s for s in every if g.name in m.labels[s])
        if isinstance(g, Const):
            return every if g.value else frozenset()
        if isinstance(g, Not):
            return every - rec(g.operand)
        if isinstance(g, And):
            return rec(g.left) & rec(g.right)
        if isinstance(g, Or):
            return rec(g.left) | rec(g.right)
        if isinstance(g, Implies):
            return (every - rec(g.left)) | rec(g.right)
        if isinstance(g, ExistsNext):
            target = rec(g.operand)
            return frozenset(s for s in every if post[s] & target)
        if isinstance(g, ForallNext):
            target = rec(g.operand)
            return frozenset(s for s in every if post[s] <= target)
        if isinstance(g, ExistsUntil):
            head, goal = rec(g.left), rec(g.right)
            return lfp(set(goal), lambda s, t: s in head and post[s] & t)
        if isinstance(g, ForallUntil):
            head, goal = rec(g.left), rec(g.right)
            return lfp(set(goal), lambda s, t: s in head and post[s] <= t)
        if isinstance(g, ExistsFinally):
            goal = rec(g.operand)
            return lfp(set(goal), lambda s, t: bool(post[s] & t))
        if isinstance(g, ForallFinally):
            goal = rec(g.operand)
            return lfp(set(goal), lambda s, t: post[s] <= t)
        if isinstance(g, ExistsGlobally):
            return gfp(set(rec(g.operand)), lambda s, t: post[s] & t)
        if isinstance(g, ForallGlobally):
            return gfp(set(rec(g.operand)), lambda s, t: post[s] <= t)
        raise AssertionError(f"unhandled node {g!r}")

    return rec(f)


def naive_holds(m: KripkeStructure, f: CtlFormula) -> bool:
    return m.initial <= naive_sat(m, f)


# ---------------------------------------------------------------------------
# Bounded until/globally by explicit path enumeration
# ---------------------------------------------------------------------------

def eu_prefix(m: KripkeStructure, phi: frozenset[int], psi: frozenset[int],
              k: int) -> frozenset[int]:
    """States with a path s_0 .. s_t, t <= k - 1, into psi through phi."""

    def reaches(s: int, depth: int) -> bool:
        if s in psi:
            return True
        if depth == 0 or s not in phi:
            return False
        return any(reaches(t, depth - 1) for t in m.successors[s])

    return frozenset(s for s in range(m.size) if reaches(s, k - 1))


def eg_prefix(m: KripkeStructure, phi: frozenset[int],
              k: int) -> frozenset[int]:
    """States with a path prefix of k states that stays inside phi."""

    def survives(s: int, depth: int) -> bool:
        if s not in phi:
            return False
        if depth == 1:
            return True
        return any(survives(t, depth - 1) for t in m.successors[s])

    return frozenset(s for s in range(m.size) if survives(s, k))


def approximant_vars(k: int, size: int, operand: int,
                     step: Callable[[int], int], out: int) -> list[int]:
    """The literals that hold approximant k (1..size + 1) of an EU/EG
    node at one state of a `size`-state structure, as `encoder.lower_node`
    lays them out: the operand literal at k = 1, `step(k)` for 1 < k <
    size, and the node's own variable `out` from k = size on, since the
    unrolling stops there (at size 1, both the operand and `out`)."""
    homes = []
    if k == 1:
        homes.append(operand)
    if 1 < k < size:
        homes.append(step(k))
    if k >= size:
        homes.append(out)
    return homes


# ---------------------------------------------------------------------------
# Random and exhaustive structure generation
# ---------------------------------------------------------------------------

def random_kripke(rng: random.Random, max_states: int = 4,
                  alphabet: Sequence[str] = ("p", "q"),
                  min_states: int = 1) -> KripkeStructure:
    n = rng.randint(min_states, max_states)
    states = list(range(n))
    labels = tuple(frozenset(p for p in alphabet if rng.random() < 0.5)
                   for _ in states)
    successors = tuple(
        frozenset(rng.sample(states, rng.randint(1, n))) for _ in states)
    k = rng.randint(1, n)
    initial = frozenset(rng.sample(states, k))
    return KripkeStructure(
        alphabet=tuple(alphabet),
        state_names=tuple(f"s{i}" for i in states),
        initial=initial, labels=labels, successors=successors)


def all_structures(num_states: int,
                   alphabet: Sequence[str]) -> Iterable[KripkeStructure]:
    """Every structure with exactly `num_states` states, up to naming."""
    states = list(range(num_states))
    names = tuple(f"s{i}" for i in states)
    label_choices = [frozenset(sub) for size in range(len(alphabet) + 1)
                     for sub in itertools.combinations(alphabet, size)]
    succ_choices = [frozenset(sub) for size in range(1, num_states + 1)
                    for sub in itertools.combinations(states, size)]
    init_choices = succ_choices
    for labels in itertools.product(label_choices, repeat=num_states):
        for succs in itertools.product(succ_choices, repeat=num_states):
            for init in init_choices:
                yield KripkeStructure(
                    alphabet=tuple(alphabet), state_names=names,
                    initial=init, labels=labels, successors=succs)


def bisimilar_pairs(a: KripkeStructure,
                    b: KripkeStructure) -> frozenset[tuple[int, int]]:
    """Pairs (s, t) of states of a and b related by some bisimulation.

    Enumerates every relation R over the states of a and b and keeps
    those satisfying the zig-zag conditions: related states carry equal
    labels, and every step of one side is matched by a step of the other
    into a related pair.  Exponential in |a| * |b|; tiny inputs only.
    """
    pairs = [(s, t) for s in range(a.size) for t in range(b.size)]
    found: set[tuple[int, int]] = set()
    for mask in range(1 << len(pairs)):
        rel = {pair for i, pair in enumerate(pairs) if mask >> i & 1}
        if all(a.labels[s] == b.labels[t]
               and all(any((s2, t2) in rel for t2 in b.successors[t])
                       for s2 in a.successors[s])
               and all(any((s2, t2) in rel for s2 in a.successors[s])
                       for t2 in b.successors[t])
               for s, t in rel):
            found |= rel
    return frozenset(found)


# ---------------------------------------------------------------------------
# System models
# ---------------------------------------------------------------------------

def reachable(alphabet: Sequence[str], initial, step: Callable,
              label: Callable) -> KripkeStructure:
    """The structure of the states reachable from `initial`, where
    `step(state)` yields a state's successors and `label(state)` its
    propositions, numbered s0, s1, ... in breadth-first order."""
    index = {initial: 0}
    order = [initial]
    successors = []
    for state in order:
        post = set()
        for succ in step(state):
            if succ not in index:
                index[succ] = len(order)
                order.append(succ)
            post.add(index[succ])
        successors.append(frozenset(post))
    return KripkeStructure(
        alphabet=tuple(alphabet),
        state_names=tuple(f"s{i}" for i in range(len(order))),
        initial=frozenset({0}),
        labels=tuple(frozenset(label(state)) for state in order),
        successors=tuple(successors))


IDLE, TRYING, CRITICAL = range(3)


def mutex(n: int) -> KripkeStructure:
    """Round-robin token mutual exclusion of n processes (Baier & Katoen,
    *Principles of Model Checking*, 2008).  A state is the token holder
    and each process's phase: idle, trying (`t_i`) or critical (`c_i`).
    One process moves at a time.  An idle process starts trying; a trying
    process enters when it holds the token and no process is critical;
    leaving passes the token on, and so does an idle holder."""
    def step(state):
        token, phases = state
        passed = (token + 1) % n
        for i, phase in enumerate(phases):
            before, after = phases[:i], phases[i + 1:]
            if phase == IDLE:
                yield token, (*before, TRYING, *after)
                if i == token:
                    yield passed, phases
            elif phase == TRYING and i == token and CRITICAL not in phases:
                yield token, (*before, CRITICAL, *after)
            elif phase == CRITICAL:
                yield passed, (*before, IDLE, *after)

    def label(state):
        names = {TRYING: "t", CRITICAL: "c"}
        return {f"{names[phase]}{i}" for i, phase in enumerate(state[1])
                if phase in names}

    alphabet = [f"{kind}{i}" for kind in "tc" for i in range(n)]
    return reachable(alphabet, (0, (IDLE,) * n), step, label)


# ---------------------------------------------------------------------------
# Random formulas
# ---------------------------------------------------------------------------

_UNARY = (Not, ExistsNext, ExistsGlobally, ExistsFinally,
          ForallNext, ForallGlobally, ForallFinally)
_BINARY = (And, Or, Implies, ExistsUntil, ForallUntil)


def random_ctl(rng: random.Random, alphabet: Sequence[str],
               depth: int = 3) -> CtlFormula:
    """Random formula over the full surface grammar, sugar included."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ctl.TRUE if rng.random() < 0.5 else ctl.FALSE
        return Prop(rng.choice(list(alphabet)))
    if rng.random() < 0.5:
        return rng.choice(_UNARY)(random_ctl(rng, alphabet, depth - 1))
    ctor = rng.choice(_BINARY)
    return ctor(random_ctl(rng, alphabet, depth - 1),
                random_ctl(rng, alphabet, depth - 1))


# Formula text of each shape nested n levels deep: n prefix operators,
# until brackets or parentheses around the innermost proposition, or n
# operators on the longest root-to-leaf path.  `A[` nests on the left,
# since ENF repeats the right operand of `A[f U g]` three times.
NESTED_SHAPES: dict[str, Callable[[int], str]] = {
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
    "negation": lambda n: "!" * n + "p",
    "AG": lambda n: "AG " * n + "p",
    "negated-parentheses": lambda n: ("!(" * (n // 2) + "!" * (n % 2) + "p"
                                      + ")" * (n // 2)),
    "E-until": lambda n: "E[p U " * n + "q" + "]" * n,
    "A-until": lambda n: "A[" * n + "q" + " U p]" * n,
    "conjunction": lambda n: " & ".join(["p"] * (n + 1)),
    "implication": lambda n: " -> ".join(["p"] * (n + 1)),
}


@functools.lru_cache(maxsize=None)
def _enf_formulas(alphabet: tuple[str, ...],
                  max_size: int) -> tuple[CtlFormula, ...]:
    return tuple(ctl.enumerate_formulas(alphabet, max_size))


def random_enf(rng: random.Random, alphabet: Sequence[str],
               max_size: int) -> CtlFormula:
    """Uniform pick from the enumerated ENF fragment (exact size bound)."""
    return rng.choice(_enf_formulas(tuple(alphabet), max_size))


# ---------------------------------------------------------------------------
# The learner's normal form, by brute force
# ---------------------------------------------------------------------------

# A numbered syntax DAG: node i is `dag[i - 1]`, a `(label, left, right)`
# tuple whose label is a proposition's name or an operator's class and
# whose children are node numbers, None where the arity has none.
Label = str | type[CtlFormula]
Dag = tuple[tuple[Label, int | None, int | None], ...]


def dag_nodes(f: CtlFormula) -> Dag:
    """f's syntax DAG, numbered in `ctl.subterms` order."""
    subs = ctl.subterms(f)
    number = {g: i for i, g in enumerate(subs, start=1)}
    nodes = []
    for g in subs:
        kids = [number[k] for k in ctl.children(g)] + [None, None]
        nodes.append((g.name if isinstance(g, Prop) else type(g),
                      kids[0], kids[1]))
    return tuple(nodes)


def commuted(f: CtlFormula,
             key: Callable[[CtlFormula], object] = ctl.print_ctl,
             ) -> CtlFormula:
    """f with the operands of every `&` and `|` sorted by `key`, printed
    form by default, so formulas equal up to commuting them map to one
    formula."""
    if isinstance(f, Prop):
        return f
    kids = [commuted(g, key) for g in ctl.children(f)]
    if isinstance(f, (And, Or)):
        kids.sort(key=key)
    return type(f)(*kids)


def substituted(f: CtlFormula, binding: dict[str, CtlFormula],
                ) -> CtlFormula:
    """f with each proposition named in `binding` replaced by its
    formula."""
    if isinstance(f, Prop):
        return binding.get(f.name, f)
    return type(f)(*(substituted(g, binding) for g in ctl.children(f)))


def _bindings(pattern: CtlFormula, f: CtlFormula,
              binding: dict[str, CtlFormula]) -> Iterable[dict]:
    """Every extension of `binding` that substitutes formulas for the
    propositions of `pattern` (its metavariables) to turn it into f, up
    to commuting the operands of `&` and `|`."""
    if isinstance(pattern, Prop):
        bound = binding.get(pattern.name)
        if bound is None:
            yield {**binding, pattern.name: f}
        elif bound == f:
            yield binding
        return
    if type(pattern) is not type(f):
        return
    kids = ctl.children(f)
    orders = [kids]
    if isinstance(f, (And, Or)) and kids[0] != kids[1]:
        orders.append(kids[::-1])
    for order in orders:
        partial = [binding]
        for p, g in zip(ctl.children(pattern), order):
            partial = [more for got in partial
                       for more in _bindings(p, g, got)]
        yield from partial


def matches(pattern: CtlFormula, f: CtlFormula) -> bool:
    """Whether f is an instance of the schema `pattern` up to commuting
    the operands of `&` and `|`."""
    return next(iter(_bindings(pattern, f, {})), None) is not None


def _representative(f: CtlFormula) -> CtlFormula:
    """The one schema kept of f's class up to commuting `&`/`|` operands
    (smaller operand left) and swapping the metavariables a and b."""
    a, b = Prop("a"), Prop("b")
    return min((commuted(substituted(f, names),
                         key=lambda g: (ctl.size(g), ctl.print_ctl(g)))
                for names in ({}, {"a": b, "b": a})),
               key=ctl.print_ctl)


def equivalent(f: CtlFormula, g: CtlFormula) -> bool:
    """Whether the tableau refutes f xor g, proving f and g equivalent."""
    return tableau.satisfiable(Or(And(f, Not(g)), And(g, Not(f)))) is False


@functools.lru_cache(maxsize=None)
def derived_rules(max_nodes: int = 4,
                  ) -> tuple[tuple[CtlFormula, CtlFormula], ...]:
    """The rewrite rules psi = phi of the learner's normal form, derived
    afresh: psi ranges over the ENF schemas over metavariables a and b
    with at most `max_nodes` DAG nodes, and phi over psi's proper
    subterms, in `ctl.subterms` order; a pair is a rule when the tableau
    refutes psi xor phi.

    A schema is tried once per class up to commuting `&`/`|` operands and
    renaming its metavariables, and not when an `&` or `|` reads one
    subterm twice (the operand order excludes those).  A schema is
    minimal when no proper subterm matches an earlier rule, and a minimal
    one that matches another minimal rule's psi is an instance of that
    more general rule and dropped.  Schemas are tried by size, so every
    rule a proper subterm could match comes earlier.
    """
    found: list[tuple[CtlFormula, CtlFormula]] = []
    for psi in ctl.enumerate_formulas(("a", "b"), max_nodes):
        subs = ctl.subterms(psi)
        if (_representative(psi) != psi
                or any(isinstance(g, (And, Or)) and g.left == g.right
                       for g in subs)
                or any(matches(rule, g) for g in subs[:-1]
                       for rule, _ in found)):
            continue
        phi = next((g for g in subs[:-1] if equivalent(psi, g)), None)
        if phi is not None:
            found.append((psi, phi))
    return tuple((psi, phi) for psi, phi in found
                 if not any(other is not psi and matches(other, psi)
                            for other, _ in found))


def has_rule_instance(f: CtlFormula) -> bool:
    """Whether some subterm of f matches a rule of `derived_rules`."""
    return any(matches(psi, g) for g in ctl.subterms(f)
               for psi, _ in derived_rules())


@functools.lru_cache(maxsize=None)
def admitted_dag(f: CtlFormula, alphabet: tuple[str, ...],
                 rules: bool = True) -> Dag | None:
    """A numbering of f's syntax DAG that the learner's normal form admits,
    found by trying every order of its nodes, or None if there is none.

    Admitted: children below parents, the propositions first in alphabet
    order, `&`/`|` operands ordered left below right, `EU` operands
    distinct, no `!` under `!` or `EG` under `EG`, and, with `rules`, no
    subterm that a rule of `derived_rules` matches.  Without `rules` it is
    the normal form before the rule table, which wrote those three rules
    by hand.  `ctl.subterms` already lists equal subterms once and only
    nodes the root reaches.
    """
    if rules and has_rule_instance(f):
        return None
    nodes = dag_nodes(f)
    rank = {p: a for a, p in enumerate(alphabet)}
    for order in itertools.permutations(range(1, len(nodes) + 1)):
        number = {old: new for new, old in enumerate(order, start=1)}
        number[None] = None
        dag = tuple((nodes[old - 1][0], number[nodes[old - 1][1]],
                     number[nodes[old - 1][2]]) for old in order)
        leaves = [label for label, left, _ in dag if left is None]
        if any(left is not None for _, left, _ in dag[:len(leaves)]):
            continue
        if [rank[p] for p in leaves] != sorted({rank[p] for p in leaves}):
            continue
        if all(_admitted_node(dag, i, node)
               for i, node in enumerate(dag, start=1)):
            return dag
    return None


def _admitted_node(dag: Dag, i: int, node: tuple) -> bool:
    label, left, right = node
    if left is None:
        return True
    if left >= i or (right or 0) >= i:
        return False
    if label in (And, Or):
        return left < right
    if label is ExistsUntil:
        return left != right
    if label in (Not, ExistsGlobally):
        return dag[left - 1][0] is not label
    return True


def dag_formulas(dag: Dag) -> list[CtlFormula]:
    """The subformula rooted at each node of a numbered DAG, node 1 first."""
    built: list[CtlFormula] = []
    for label, left, right in dag:
        if left is None:
            built.append(Prop(label))
            continue
        kids = [built[k - 1] for k in (left, right) if k is not None]
        built.append(label(*kids))
    return built


def dag_literals(pool: encoder.VarPool, dag: Dag) -> list[int]:
    """Defining literals of a DAG: labels always, children per arity.
    A label outside its node's `encoder.label_domain` has no variable, so
    naming it raises `KeyError`."""
    lits = []
    for i, (label, left, right) in enumerate(dag, start=1):
        lits.append(pool.get("x", i, label))
        if left is not None:
            lits.append(pool.get("l", i, left))
        if right is not None:
            lits.append(pool.get("r", i, right))
    return lits


def pin_dag(solver, pool: encoder.VarPool, dag: Dag) -> None:
    """Load the DAG's defining literals into `solver` as unit clauses, so
    its models are exactly those that pick this numbered DAG."""
    solver.load([(lit,) for lit in dag_literals(pool, dag)], pool.count)


def normal_form(f: CtlFormula) -> CtlFormula:
    """f rewritten bottom-up by the normal form's rules, then `commuted`:
    x & x and x | x to x, and each instance of a rule psi = phi of
    `derived_rules` to its instance of phi.  A node's children are
    rewritten first, so only the node itself can match a rule, and the
    instance of phi, a proper subterm up to commuting, is rewritten
    already."""
    if isinstance(f, Prop):
        return f
    node = commuted(type(f)(*(normal_form(g) for g in ctl.children(f))))
    kids = ctl.children(node)
    if isinstance(node, (And, Or)) and kids[0] == kids[1]:
        return kids[0]
    for psi, phi in derived_rules():
        for binding in _bindings(psi, node, {}):
            return commuted(substituted(phi, binding))
    return node


# ---------------------------------------------------------------------------
# Brute-force learning oracle
# ---------------------------------------------------------------------------

def consistent_by_oracle(f: CtlFormula,
                         positives: Sequence[KripkeStructure],
                         negatives: Sequence[KripkeStructure]) -> bool:
    return (all(naive_holds(m, f) for m in positives)
            and not any(naive_holds(m, f) for m in negatives))


def brute_force_minimum(positives: Sequence[KripkeStructure],
                        negatives: Sequence[KripkeStructure],
                        max_size: int) -> tuple[int, CtlFormula] | None:
    """Smallest consistent ENF formula by exhaustive enumeration."""
    alphabet = positives[0].alphabet if positives else negatives[0].alphabet
    for f in ctl.enumerate_formulas(alphabet, max_size):
        if consistent_by_oracle(f, positives, negatives):
            return ctl.size(f), f
    return None


# ---------------------------------------------------------------------------
# Tableau elimination atom by atom
# ---------------------------------------------------------------------------

def tableau_by_atom(f: CtlFormula, max_elementary: int) -> bool | None:
    """Emerson & Halpern elimination over the ENF formula f, one atom at a
    time: the reference the tableau's block-wise elimination is checked
    against.  None above `max_elementary` elementary formulas (the
    propositions, then each EX operand and each EU/EG node)."""
    nodes = ctl.subterms(f)
    temporal = (ExistsNext, ExistsUntil, ExistsGlobally)
    props = [g for g in nodes if isinstance(g, Prop)]
    nexts = list(dict.fromkeys(g.operand if isinstance(g, ExistsNext) else g
                               for g in nodes if isinstance(g, temporal)))
    elementary = len(props) + len(nexts)
    if elementary > max_elementary:
        return None
    count = 1 << elementary
    full = (1 << count) - 1
    bit = [sum(1 << a for a in range(count) if a >> k & 1)
           for k in range(elementary)]
    next_bit = dict(zip(nexts, bit[len(props):]))
    truth = dict(zip(props, bit))
    until, globally = [], []
    for g in nodes:
        if isinstance(g, Const):
            truth[g] = full if g.value else 0
        elif isinstance(g, Not):
            truth[g] = full ^ truth[g.operand]
        elif isinstance(g, And):
            truth[g] = truth[g.left] & truth[g.right]
        elif isinstance(g, Or):
            truth[g] = truth[g.left] | truth[g.right]
        elif isinstance(g, ExistsNext):
            truth[g] = next_bit[g.operand]
        elif isinstance(g, ExistsUntil):
            truth[g] = truth[g.right] | (truth[g.left] & next_bit[g])
            until.append((truth[g], truth[g.left], truth[g.right]))
        elif isinstance(g, ExistsGlobally):
            truth[g] = truth[g.operand] & next_bit[g]
            globally.append((truth[g], truth[g.operand]))

    targets = [(k, truth[g]) for k, g in enumerate(nexts, len(props))]
    allowed, demands = [], []
    for a in range(count):
        succ = full
        for k, target in targets:
            if not a >> k & 1:
                succ &= ~target
        allowed.append(succ)
        demands.append([t for k, t in targets if a >> k & 1])

    def members(mask: int) -> list[int]:
        return [a for a in range(count) if mask >> a & 1]

    def witnessed(a: int, inside: int) -> bool:
        succ = allowed[a] & inside
        return bool(succ) and all(succ & t for t in demands[a])

    alive = full
    while True:
        keep = alive
        for a in members(alive):
            if not witnessed(a, alive):
                keep &= ~(1 << a)
        for holds, left, right in until:
            reach = keep & right
            grown = True
            while grown:
                grown = False
                for a in members(keep & left & ~reach):
                    if allowed[a] & reach:
                        reach |= 1 << a
                        grown = True
            keep &= reach | ~holds
        for holds, operand in globally:
            escape = keep & ~operand
            grown = True
            while grown:
                grown = False
                for a in members(keep & ~holds & ~escape):
                    if witnessed(a, escape):
                        escape |= 1 << a
                        grown = True
            keep &= escape | holds
        if keep == alive:
            return bool(alive & truth[f])
        alive = keep


# ---------------------------------------------------------------------------
# Literals and clause loading
# ---------------------------------------------------------------------------

def signed(lit: int) -> int:
    """The signed (DIMACS) form of an encoded literal: `2v` is v and
    `2v + 1` is -v."""
    return -(lit >> 1) if lit & 1 else lit >> 1


def encoded(lit: int) -> int:
    """The encoded form of a signed (DIMACS) literal, the inverse of
    `signed`."""
    return 2 * abs(lit) + (lit < 0)


def stream_digest(streams: Iterable[tuple[int, Sequence[Clause]]]) -> str:
    """A short sha256 of clause streams, each with its variable count,
    taken in order, clause by clause and literal by literal: swapping
    two clauses, or two literals of one, changes it."""
    digest = hashlib.sha256()
    for num_vars, clauses in streams:
        digest.update(repr((num_vars, clauses)).encode())
    return digest.hexdigest()[:16]


def load_signed(solver, clauses: Iterable[Sequence[int]]) -> None:
    """Load clauses of signed (DIMACS) literals into `solver`, declaring
    variables up to the largest one named so far, and no more."""
    batch = []
    top = solver.num_vars
    for clause in clauses:
        batch.append(tuple(map(encoded, clause)))
        for lit in clause:
            top = max(top, abs(lit))
    solver.load(batch, top)


def reference_load(database: list[list[int]], trail: list[int],
                   batch: Iterable[Sequence[int]]) -> bool:
    """Load `batch`, clauses of encoded literals, into a clause `database`
    and a root `trail` (the literals true at the root), as the solver's
    loader states it does, clause by clause and each clause whole: a
    tautology is skipped, repeated literals are dropped, a clause with a
    literal true at the root is skipped, and literals false there are
    removed; what is left is stored, put on the trail if it is one
    literal, or makes the instance unsatisfiable if it is none.

    Returns whether some clause was left empty."""
    emptied = False
    for clause in batch:
        lits = list(dict.fromkeys(clause))
        if any(lit ^ 1 in lits for lit in lits):
            continue
        true = set(trail)
        if any(lit in true for lit in lits):
            continue
        rest = [lit for lit in lits if lit ^ 1 not in true]
        if not rest:
            emptied = True
        elif len(rest) == 1:
            trail.append(rest[0])
        else:
            database.append(rest)
    return emptied


# ---------------------------------------------------------------------------
# Solving one search instance
# ---------------------------------------------------------------------------

def solve_instance(instance: encoder.EncodingInstance,
                   ) -> list[int] | None:
    """The value array of a model of the instance from its own solver
    (`CdclSolver.values`), loaded by `encoder.load_backend`, or None if
    the instance is unsatisfiable."""
    solver = encoder.load_backend(instance)
    return solver.values() if solver.solve() else None
