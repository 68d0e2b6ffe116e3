"""Explicit-state CTL model checking over Kripke structures.

Satisfaction sets are computed bottom-up over the formula: Boolean
connectives are set operations, EX is a predecessor image, and the two
fixed points are iterated to stabilization.  E[f U g] grows from the g-set
(least fixed point), EG f shrinks from the f-set (greatest fixed point);
counting the starting set as the first approximant, both stabilize by the
|S|-th (the argument is in `encoder.lower_node`).

State sets are machine integers used as bitsets over state indices, which
keeps the fixed-point loops cheap; the public functions expose frozensets.
Each call evaluates its formula from scratch: no work is kept between
calls.
"""

from __future__ import annotations

from . import ctl
from .ctl import (And, Const, CtlFormula, ExistsGlobally, ExistsNext,
                  ExistsUntil, Not, NotInEnf, Or, Prop)
from .kripke import KripkeStructure, UnknownProposition

__all__ = ["sat_set", "sat_set_table", "holds"]


def _succ_masks(m: KripkeStructure) -> list[int]:
    masks = []
    for s in range(m.size):
        mask = 0
        for t in m.successors[s]:
            mask |= 1 << t
        masks.append(mask)
    return masks


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


def _eu_mask(succ: list[int], phi: int, psi: int) -> int:
    current = psi
    while True:
        grown = current | (phi & _ex_mask(succ, current))
        if grown == current:
            return current
        current = grown


def _eg_mask(succ: list[int], phi: int) -> int:
    current = phi
    while True:
        shrunk = phi & _ex_mask(succ, current)
        if shrunk == current:
            return current
        current = shrunk


def _sat_mask(m: KripkeStructure, f: CtlFormula, succ: list[int],
              memo: dict[int, tuple[CtlFormula, int]]) -> int:
    """The satisfaction set of `f` as a bitmask.  `memo` maps the `id` of
    each subterm evaluated so far (all alive while `f` is) to the subterm
    and its mask, in the order the pass completed them: children first,
    left before right."""
    got = memo.get(id(f))
    if got is not None:
        return got[1]
    full = (1 << m.size) - 1
    if isinstance(f, Prop):
        mask = _label_mask(m, f.name)
    elif isinstance(f, Const):
        mask = full if f.value else 0
    elif isinstance(f, Not):
        mask = full ^ _sat_mask(m, f.operand, succ, memo)
    elif isinstance(f, And):
        mask = (_sat_mask(m, f.left, succ, memo)
                & _sat_mask(m, f.right, succ, memo))
    elif isinstance(f, Or):
        mask = (_sat_mask(m, f.left, succ, memo)
                | _sat_mask(m, f.right, succ, memo))
    elif isinstance(f, ExistsNext):
        mask = _ex_mask(succ, _sat_mask(m, f.operand, succ, memo))
    elif isinstance(f, ExistsUntil):
        mask = _eu_mask(succ, _sat_mask(m, f.left, succ, memo),
                        _sat_mask(m, f.right, succ, memo))
    elif isinstance(f, ExistsGlobally):
        mask = _eg_mask(succ, _sat_mask(m, f.operand, succ, memo))
    else:
        raise NotInEnf(
            f"checker works on ENF formulas, got {ctl.print_ctl(f)}")
    memo[id(f)] = (f, mask)
    return mask


def _to_set(mask: int, size: int) -> frozenset[int]:
    return frozenset(s for s in range(size) if mask >> s & 1)


def sat_set(m: KripkeStructure, f: CtlFormula) -> frozenset[int]:
    """The states of `m` satisfying the ENF formula `f`."""
    return _to_set(_sat_mask(m, f, _succ_masks(m), {}), m.size)


def sat_set_table(m: KripkeStructure,
                  f: CtlFormula) -> dict[CtlFormula, frozenset[int]]:
    """Satisfaction sets for every subformula of `f`, children first."""
    memo: dict[int, tuple[CtlFormula, int]] = {}
    _sat_mask(m, f, _succ_masks(m), memo)
    table: dict[CtlFormula, frozenset[int]] = {}
    for g, mask in memo.values():
        table.setdefault(g, _to_set(mask, m.size))
    return table


def holds(m: KripkeStructure, f: CtlFormula) -> bool:
    """True iff every initial state satisfies `f`.

    Accepts arbitrary formulas; they are normalized to ENF internally, and
    holds(m, f) always agrees with holds(m, enf(f)).
    """
    mask = _sat_mask(m, ctl.enf(f), _succ_masks(m), {})
    return all(mask >> s & 1 for s in m.initial)
