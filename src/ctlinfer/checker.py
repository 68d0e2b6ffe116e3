"""Explicit-state CTL model checking over Kripke structures.

`evaluate` is the project's one explicit-state CTL evaluator.  It computes
satisfaction sets bottom-up over the formula: Boolean connectives are set
operations, EX is a predecessor image, and the two fixed points are
iterated to stabilization.  E[f U g] grows from the g-set (least fixed
point), EG f shrinks from the f-set (greatest fixed point); counting the
starting set as the first approximant, both stabilize by the |S|-th (the
argument is in `encoder.lower_node`).

State sets are machine integers used as bitsets, which keeps the
fixed-point loops cheap.  `evaluate` is given each proposition's set, the
full set and the EX image of any set; EX is the only step that depends on
the transition relation.  `evaluator` gives it one structure's labels and
per-state successor masks, with state s at bit s, and keeps its masks
across calls: the learner checks many small formulas on each sample
structure with one (`learner.CandidateSearch`), and the
counterexample-guided loop reads its hypotheses' sets through the same
ones (`ceg`).  `sat_set`,
`sat_set_table` and `holds` evaluate their formula from scratch, through
a fresh `evaluator`, and expose frozensets or a verdict; `synth` passes
`evaluate` a whole family of structures packed into one int.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from . import ctl
from .ctl import (And, Const, CtlFormula, ExistsGlobally, ExistsNext,
                  ExistsUntil, Not, NotInEnf, Or, Prop)
from .kripke import KripkeStructure, UnknownProposition

__all__ = ["evaluate", "evaluator", "sat_set", "sat_set_table", "holds"]


def _label_mask(m: KripkeStructure, prop: str) -> int:
    if prop not in m.alphabet:
        raise UnknownProposition(prop)
    mask = 0
    for s in range(m.size):
        if prop in m.labels[s]:
            mask |= 1 << s
    return mask


def _ex_mask(succ: list[int], target: int) -> int:
    mask = 0
    for s, post in enumerate(succ):
        if post & target:
            mask |= 1 << s
    return mask


def evaluate(f: CtlFormula, leaf: Callable[[str], int],
             ex: Callable[[int], int], full: int,
             memo: dict[CtlFormula, int]) -> int:
    """The satisfaction set of the ENF formula `f` as a bitmask, given the
    set `leaf(p)` of each proposition p, the image `ex(T)` of `EX` over
    any set T, and the set `full` of all states.  `memo` maps each
    subterm evaluated so far to its mask, in the order the pass completed
    them: children first, left before right."""
    got = memo.get(f)
    if got is not None:
        return got
    if isinstance(f, Prop):
        mask = leaf(f.name)
    elif isinstance(f, Const):
        mask = full if f.value else 0
    elif isinstance(f, Not):
        mask = full ^ evaluate(f.operand, leaf, ex, full, memo)
    elif isinstance(f, And):
        mask = (evaluate(f.left, leaf, ex, full, memo)
                & evaluate(f.right, leaf, ex, full, memo))
    elif isinstance(f, Or):
        mask = (evaluate(f.left, leaf, ex, full, memo)
                | evaluate(f.right, leaf, ex, full, memo))
    elif isinstance(f, ExistsNext):
        mask = ex(evaluate(f.operand, leaf, ex, full, memo))
    elif isinstance(f, ExistsUntil):
        phi = evaluate(f.left, leaf, ex, full, memo)
        mask = evaluate(f.right, leaf, ex, full, memo)
        while True:
            grown = mask | (phi & ex(mask))
            if grown == mask:
                break
            mask = grown
    elif isinstance(f, ExistsGlobally):
        phi = mask = evaluate(f.operand, leaf, ex, full, memo)
        while True:
            shrunk = phi & ex(mask)
            if shrunk == mask:
                break
            mask = shrunk
    else:
        raise NotInEnf(
            f"checker works on ENF formulas, got {ctl.print_ctl(f)}")
    memo[f] = mask
    return mask


def evaluator(m: KripkeStructure, memo: dict[CtlFormula, int] | None = None,
              ) -> Callable[[CtlFormula], int]:
    """The function from an ENF formula to its satisfaction set on `m` as
    a bitmask, state s at bit s.  Its calls share `memo` (`evaluate`), so
    each subterm is evaluated on `m` once, whatever calls reach it."""
    succ = [sum(1 << t for t in post) for post in m.successors]
    return partial(evaluate, leaf=partial(_label_mask, m),
                   ex=partial(_ex_mask, succ), full=(1 << m.size) - 1,
                   memo={} if memo is None else memo)


def _to_set(mask: int, size: int) -> frozenset[int]:
    return frozenset(s for s in range(size) if mask >> s & 1)


def sat_set(m: KripkeStructure, f: CtlFormula) -> frozenset[int]:
    """The states of `m` satisfying the ENF formula `f`."""
    return _to_set(evaluator(m)(f), m.size)


def sat_set_table(m: KripkeStructure,
                  f: CtlFormula) -> dict[CtlFormula, frozenset[int]]:
    """Satisfaction sets for every subformula of `f`, children first."""
    memo: dict[CtlFormula, int] = {}
    evaluator(m, memo)(f)
    return {g: _to_set(mask, m.size) for g, mask in memo.items()}


def holds(m: KripkeStructure, f: CtlFormula) -> bool:
    """True iff every initial state satisfies `f`.

    Accepts arbitrary formulas; they are normalized to ENF internally, and
    holds(m, f) always agrees with holds(m, enf(f)).
    """
    mask = evaluator(m)(ctl.enf(f))
    return all(mask >> s & 1 for s in m.initial)
