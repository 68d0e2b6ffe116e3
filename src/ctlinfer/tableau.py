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
bitsets over atom indices, as in `checker`: one mask per DAG node, each
elementary formula's built arithmetically, as runs of 2^k atoms.

Elimination runs by EX part.  The propositions are the low bits of an
atom, so the 2^P atoms that share the bits of the X `EX` elementary
formulas, their EX part, form one contiguous block.  An atom's allowed
successors (an AND of the masks of its false EX targets) and its EX
demands (its true ones) depend on its EX part alone, so they are built
once per block: 2^X entries instead of 2^(P+X).  Each rule then acts on
a whole block, masked by the set it ranges over: the successor and
witness rule deletes a block's surviving atoms together; the EU fixpoint
adds a block's surviving f-atoms once the block has an allowed successor
in the set reached so far; the AF fixpoint adds a block's surviving
atoms where `EG f` is false once the block is witnessed inside the set.
This decides as eliminating atom by atom does: each rule's condition on
an atom reads only its allowed successors and demands, the same for
every atom of its block, so a block step is the steps of its atoms taken
together; and the deletion loop and each fixpoint are unique (the
greatest and least fixpoints of monotone operators), whatever the order
of their additions.
"""

from __future__ import annotations

from .ctl import (ENF_CLASSES, TEMPORAL_LABELS, And, Const, CtlFormula,
                  ExistsGlobally, ExistsNext, ExistsUntil, Not, NotInEnf, Or,
                  Prop, print_ctl, subterms)

__all__ = ["MAX_ELEMENTARY", "satisfiable"]

# Largest elementary-formula count `satisfiable` decides (2 ** 12 atoms).
MAX_ELEMENTARY = 12


def _elementary(nodes: list[CtlFormula],
                ) -> tuple[list[CtlFormula], list[CtlFormula]]:
    """The propositions among `nodes`, and the subformulas g whose `EX g`
    is elementary (EX operands, and every EU and EG node).  `NotInEnf`
    names the first node outside ENF, a smallest one."""
    for g in nodes:
        if not isinstance(g, ENF_CLASSES):
            raise NotInEnf(f"not in existential normal form: {print_ctl(g)}")
    props = [g for g in nodes if isinstance(g, Prop)]
    nexts = dict.fromkeys(g.operand if isinstance(g, ExistsNext) else g
                          for g in nodes if isinstance(g, TEMPORAL_LABELS))
    return props, list(nexts)


def _blocks(width: int, targets: list[int],
            full: int) -> list[tuple[int, int, list[int]]]:
    """Per EX part x, the atoms x * width .. (x + 1) * width - 1 that
    share it: their mask, their allowed successors (outside every false
    EX target) and their EX demands (the true ones), given each `EX psi`'s
    target, the atoms where psi holds."""
    blocks = []
    for x in range(1 << len(targets)):
        succ = full
        for j, target in enumerate(targets):
            if not x >> j & 1:
                succ &= ~target
        blocks.append((((1 << width) - 1) << x * width, succ,
                       [t for j, t in enumerate(targets) if x >> j & 1]))
    return blocks


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
    # Atom a makes elementary formula k true iff bit k of a is set: runs
    # of 2^k atoms, alternately without and with it.
    bit = [full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
           for run in (1 << k for k in range(elementary))]
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

    blocks = _blocks(1 << len(props), [truth[g] for g in nexts], full)

    def witnessed(succ: int, demands: list[int], inside: int) -> bool:
        succ &= inside
        return bool(succ) and all(succ & t for t in demands)

    alive = full
    while True:
        keep = alive
        for block, succ, demands in blocks:
            if alive & block and not witnessed(succ, demands, alive):
                keep &= ~block
        for holds, left, right in until:
            reach = keep & right
            grown = True
            while grown:
                grown = False
                for block, succ, _ in blocks:
                    new = keep & left & block & ~reach
                    if new and succ & reach:
                        reach |= new
                        grown = True
            keep &= reach | ~holds
        for holds, operand in globally:
            escape = keep & ~operand
            grown = True
            while grown:
                grown = False
                for block, succ, demands in blocks:
                    new = keep & ~holds & block & ~escape
                    if new and witnessed(succ, demands, escape):
                        escape |= new
                        grown = True
            keep &= escape | holds
        if keep == alive:
            return bool(alive & truth[f])
        alive = keep
