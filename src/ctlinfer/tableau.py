"""Exact CTL satisfiability by tableau elimination.

The elimination procedure of Emerson & Halpern ("Decision procedures and
expressiveness in the temporal logic of branching time", JCSS 1985),
specialised to ENF formulas:

* The elementary formulas are the propositions, every `EX psi`
  subformula, and `EX u` for each EU/EG subformula u.  An atom is one
  truth assignment to them; every other subformula follows locally, since
  `E[f U g] = g | (f & EX E[f U g])` and `EG f = f & EX EG f`, and the
  constants `true` and `false` hold in every atom and in none.
* A -> B is allowed when every `EX psi` that is false in A has psi false
  in B.
* Atoms are deleted until nothing changes: an atom with no allowed
  surviving successor, or with a true `EX psi` that no surviving successor
  witnesses; an atom with a true `E[f U g]` outside the least fixpoint
  that reaches g through f-atoms; an atom with a false `EG f` outside the
  least fixpoint of "f is false, or one successor and every EX demand are
  witnessed inside the set" (the `AF !f` eventuality).
* The formula is satisfiable iff some surviving atom makes it true.

Soundness (False means no model exists): in any structure, map each state
to the atom of the elementary formulas it satisfies; by the two unfoldings
above, every subformula has the same truth value at the state as in its
atom.  A state's successors map to allowed successors of its atom, its
true EX demands are witnessed by successors, a true `E[f U g]` has a
finite f-path to g whose atoms lie in the EU fixpoint, and a false `EG f`
(`AF !f` true) bounds every path's distance to !f, so by induction on that
distance its atom lies in the AF fixpoint.  Hence no rule ever deletes an
atom of a state, and a model of the formula leaves an atom that makes it
true.  Unsatisfiable therefore means no model of any size.  The converse
(a surviving atom yields a model) is the completeness half of the same
paper; callers only rely on False.

The procedure is exponential in the number of elementary formulas, so
above `MAX_ELEMENTARY` of them it answers None, undecided.  It takes the
ENF formula, constants included, as `ctl.enf` returns it and
`checker.evaluate` reads it, and walks its syntax DAG (`ctl.subterms`);
any other node raises `ctl.NotInEnf`.  Atom sets are ints used as
bitsets over atom indices, as in `checker`: one mask per DAG node, and
`allowed[a]` is an AND of the masks of the false EX targets of atom a.
"""

from __future__ import annotations

from typing import Iterator

from .ctl import (And, Const, CtlFormula, ExistsGlobally, ExistsNext,
                  ExistsUntil, Not, NotInEnf, Or, Prop, print_ctl, subterms)

__all__ = ["MAX_ELEMENTARY", "satisfiable"]

# Largest elementary-formula count `satisfiable` decides (2 ** 12 atoms).
MAX_ELEMENTARY = 12

_TEMPORAL = (ExistsNext, ExistsUntil, ExistsGlobally)
_ENF = (Prop, Const, Not, And, Or, *_TEMPORAL)


def _elementary(nodes: list[CtlFormula],
                ) -> tuple[list[CtlFormula], list[CtlFormula]]:
    """The propositions among `nodes`, and the subformulas g whose `EX g`
    is elementary (EX operands, and every EU and EG node).  `NotInEnf`
    names the first node outside ENF, a smallest one."""
    for g in nodes:
        if not isinstance(g, _ENF):
            raise NotInEnf(f"not in existential normal form: {print_ctl(g)}")
    props = [g for g in nodes if isinstance(g, Prop)]
    nexts = dict.fromkeys(g.operand if isinstance(g, ExistsNext) else g
                          for g in nodes if isinstance(g, _TEMPORAL))
    return props, list(nexts)


def _members(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def satisfiable(f: CtlFormula) -> bool | None:
    """True iff some Kripke structure satisfies the ENF formula `f`;
    None, with no atom built, when it has more than `MAX_ELEMENTARY`
    elementary formulas."""
    nodes = subterms(f)
    props, nexts = _elementary(nodes)
    elementary = len(props) + len(nexts)
    if elementary > MAX_ELEMENTARY:
        return None
    count = 1 << elementary
    full = (1 << count) - 1
    # Atom a makes elementary formula k true iff bit k of a is set.
    bit = [sum(1 << a for a in range(count) if a >> k & 1)
           for k in range(elementary)]
    next_bit = dict(zip(nexts, bit[len(props):]))
    truth = dict(zip(props, bit))  # by node
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
            left, right = truth[g.left], truth[g.right]
            truth[g] = right | (left & next_bit[g])
            until.append((truth[g], left, right))
        elif isinstance(g, ExistsGlobally):
            left = truth[g.operand]
            truth[g] = left & next_bit[g]
            globally.append((truth[g], left))

    targets = [(k, truth[g]) for k, g in enumerate(nexts, len(props))]
    allowed, demands = [], []
    for a in range(count):
        succ = full
        for k, target in targets:
            if not a >> k & 1:
                succ &= ~target
        allowed.append(succ)
        demands.append([t for k, t in targets if a >> k & 1])

    def witnessed(a: int, inside: int) -> bool:
        succ = allowed[a] & inside
        return bool(succ) and all(succ & t for t in demands[a])

    alive = full
    while True:
        keep = alive
        for a in _members(alive):
            if not witnessed(a, alive):
                keep &= ~(1 << a)
        for holds, left, right in until:
            reach = keep & right
            grown = True
            while grown:
                grown = False
                for a in _members(keep & left & ~reach):
                    if allowed[a] & reach:
                        reach |= 1 << a
                        grown = True
            keep &= reach | ~holds
        for holds, operand in globally:
            escape = keep & ~operand
            grown = True
            while grown:
                grown = False
                for a in _members(keep & ~holds & ~escape):
                    if witnessed(a, escape):
                        escape |= 1 << a
                        grown = True
            keep &= escape | holds
        if keep == alive:
            return bool(alive & truth[f])
        alive = keep
