"""Propositional satisfiability backend and CNF building blocks.

Variables are positive integers and literals are signed integers.  The
encoders in this package lower their constraints to CNF by hand from a
small vocabulary of guarded equivalences (`equiv_*` below); a guard list
[g1, .., gk] prefixes every emitted clause with the negated guards, i.e.
encodes g1 & .. & gk -> (equivalence).  The until/globally step shapes
are used only by `encoder.lower_node`, the single home of the CTL step
semantics for both formula search and bounded synthesis.

`CdclSolver` is the in-process default backend: a conflict-driven clause
learning solver with two-watched-literal propagation, first-UIP conflict
analysis, activity-based decisions, phase saving, Luby restarts and
incremental solving under assumptions.  It is deterministic: the same
clause stream, seed and assumption order always produce the same run.
Instances can also be exported in DIMACS CNF format for external solvers
via `to_dimacs`.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterable, Sequence

__all__ = ["BackendFailure", "CdclSolver", "to_dimacs", "exactly_one",
           "equiv_lit", "equiv_not", "equiv_and", "equiv_or",
           "equiv_or_and_disj", "equiv_and_disj"]

Clause = tuple[int, ...]


class BackendFailure(RuntimeError):
    """Backend gave up (resource limits); distinct from an UNSAT answer."""


# ---------------------------------------------------------------------------
# Clause shapes
# ---------------------------------------------------------------------------

def _guarded(guards: Sequence[int], clause: Iterable[int]) -> Clause:
    return tuple(-g for g in guards) + tuple(clause)


def exactly_one(lits: Sequence[int],
                guards: Sequence[int] = ()) -> list[Clause]:
    """At-least-one plus pairwise at-most-one."""
    out = [_guarded(guards, lits)]
    for a in range(len(lits)):
        for b in range(a + 1, len(lits)):
            out.append(_guarded(guards, (-lits[a], -lits[b])))
    return out


def equiv_lit(out_lit: int, in_lit: int,
              guards: Sequence[int] = ()) -> list[Clause]:
    """out <-> in."""
    return [_guarded(guards, (-out_lit, in_lit)),
            _guarded(guards, (out_lit, -in_lit))]


def equiv_not(out_lit: int, in_lit: int,
              guards: Sequence[int] = ()) -> list[Clause]:
    """out <-> !in."""
    return [_guarded(guards, (-out_lit, -in_lit)),
            _guarded(guards, (out_lit, in_lit))]


def equiv_and(out_lit: int, lits: Sequence[int],
              guards: Sequence[int] = ()) -> list[Clause]:
    """out <-> (l1 & .. & lk)."""
    clauses = [_guarded(guards, (-out_lit, l)) for l in lits]
    clauses.append(_guarded(guards, (out_lit,) + tuple(-l for l in lits)))
    return clauses


def equiv_or(out_lit: int, lits: Sequence[int],
             guards: Sequence[int] = ()) -> list[Clause]:
    """out <-> (l1 | .. | lk)."""
    clauses = [_guarded(guards, (out_lit, -l)) for l in lits]
    clauses.append(_guarded(guards, (-out_lit,) + tuple(lits)))
    return clauses


def equiv_or_and_disj(out_lit: int, base_lit: int, cond_lit: int,
                      disj: Sequence[int],
                      guards: Sequence[int] = ()) -> list[Clause]:
    """out <-> base | (cond & (d1 | .. | dk)).

    The unrolled until step: already reached, or the condition holds here
    and some successor reached it one step earlier.
    """
    clauses = [_guarded(guards, (-out_lit, base_lit, cond_lit)),
               _guarded(guards, (-out_lit, base_lit) + tuple(disj)),
               _guarded(guards, (out_lit, -base_lit))]
    for d in disj:
        clauses.append(_guarded(guards, (out_lit, -cond_lit, -d)))
    return clauses


def equiv_and_disj(out_lit: int, cond_lit: int, disj: Sequence[int],
                   guards: Sequence[int] = ()) -> list[Clause]:
    """out <-> cond & (d1 | .. | dk).

    The unrolled globally step: the condition holds here and some
    successor survived one step less.
    """
    clauses = [_guarded(guards, (-out_lit, cond_lit)),
               _guarded(guards, (-out_lit,) + tuple(disj))]
    for d in disj:
        clauses.append(_guarded(guards, (out_lit, -cond_lit, -d)))
    return clauses


# ---------------------------------------------------------------------------
# DIMACS export
# ---------------------------------------------------------------------------

def to_dimacs(num_vars: int, clauses: Sequence[Sequence[int]],
              comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CDCL solver
# ---------------------------------------------------------------------------

def _luby(i: int) -> int:
    # Luby restart sequence 1 1 2 1 1 2 4 ... for i >= 1.
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit << 1) | 1)


_RESTART_BASE = 64
_ACT_DECAY = 1.0 / 0.95
_ACT_LIMIT = 1e100


class CdclSolver:
    """Incremental CDCL solver over integer literals.

    `add_clause` may be called between `solve` calls; learned clauses are
    kept, which is sound because conflict analysis derives consequences of
    the clause set alone (assumptions enter only as retractable
    decisions).  An optional conflict budget turns runaway searches into
    `BackendFailure` instead of wrong answers.
    """

    def __init__(self, seed: int | None = None,
                 max_conflicts: int | None = None):
        self._nvars = 0
        self._clauses: list[list[int]] = []
        self._watches: list[list[int]] = [[], []]
        self._assign = [0]        # var -> 0 unassigned / 1 true / -1 false
        self._level = [0]
        self._reason = [-1]
        self._phase = [False]
        self._activity = [0.0]
        self._act_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._heap: list[tuple[float, int]] = []
        self._seen = bytearray(1)
        self._unsat = False
        self._model: list[int] | None = None
        self._max_conflicts = max_conflicts
        self._conflicts = 0
        self._rng = random.Random(seed) if seed is not None else None

    # -- variables ---------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def reserve(self, num_vars: int) -> None:
        """Declare variables up to `num_vars` even if no clause uses them."""
        self._ensure_var(num_vars)

    def _ensure_var(self, v: int) -> None:
        while self._nvars < v:
            self._nvars += 1
            jitter = self._rng.random() * 1e-6 if self._rng else 0.0
            self._assign.append(0)
            self._level.append(0)
            self._reason.append(-1)
            self._phase.append(False)
            self._activity.append(jitter)
            self._watches.append([])
            self._watches.append([])
            self._seen.append(0)
            heapq.heappush(self._heap, (-jitter, self._nvars))

    def _value(self, lit: int) -> int:
        a = self._assign[lit if lit > 0 else -lit]
        return a if lit > 0 else -a

    # -- clause input ------------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        clause: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            if lit == 0 or not isinstance(lit, int):
                raise ValueError(f"bad literal {lit!r}")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
            self._ensure_var(abs(lit))
        self._cancel_until(0)
        self._model = None
        reduced: list[int] = []
        for lit in clause:
            val = self._value(lit)
            if val == 1:
                return  # satisfied at the root level
            if val == 0:
                reduced.append(lit)
        if not reduced:
            self._unsat = True
            return
        if len(reduced) == 1:
            self._enqueue(reduced[0], -1)
            return
        ci = len(self._clauses)
        self._clauses.append(reduced)
        self._watches[_enc(reduced[0])].append(ci)
        self._watches[_enc(reduced[1])].append(ci)

    # -- trail -------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> None:
        v = abs(lit)
        self._assign[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        while len(self._trail_lim) > level:
            mark = self._trail_lim.pop()
            while len(self._trail) > mark:
                lit = self._trail.pop()
                v = abs(lit)
                self._phase[v] = lit > 0
                self._assign[v] = 0
                heapq.heappush(self._heap, (-self._activity[v], v))
        self._qhead = min(self._qhead, len(self._trail))

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> int:
        clauses = self._clauses
        watches = self._watches
        assign = self._assign
        while self._qhead < len(self._trail):
            p = self._trail[self._qhead]
            self._qhead += 1
            neg = -p
            wl = watches[_enc(neg)]
            kept: list[int] = []
            i = 0
            total = len(wl)
            while i < total:
                ci = wl[i]
                i += 1
                lits = clauses[ci]
                if lits[0] == neg:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                a = assign[first if first > 0 else -first]
                if (a if first > 0 else -a) == 1:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    ak = assign[lk if lk > 0 else -lk]
                    if (ak if lk > 0 else -ak) != -1:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches[_enc(lits[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if (a if first > 0 else -a) == -1:
                    kept.extend(wl[i:])
                    watches[_enc(neg)] = kept
                    return ci
                self._enqueue(first, ci)
            watches[_enc(neg)] = kept
        return -1

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v: int) -> None:
        act = self._activity[v] + self._act_inc
        self._activity[v] = act
        if act > _ACT_LIMIT:
            for u in range(1, self._nvars + 1):
                self._activity[u] *= 1e-100
            self._act_inc *= 1e-100
            act = self._activity[v]
        if self._assign[v] == 0:
            heapq.heappush(self._heap, (-act, v))

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = self._seen
        cleared: list[int] = []
        counter = 0
        p = 0
        idx = len(self._trail) - 1
        current = len(self._trail_lim)
        clause = self._clauses[confl]
        while True:
            for q in clause:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and self._level[v] > 0:
                    seen[v] = 1
                    cleared.append(v)
                    self._bump(v)
                    if self._level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self._trail[idx])]:
                idx -= 1
            p = self._trail[idx]
            v = abs(p)
            idx -= 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = -p
                break
            clause = self._clauses[self._reason[v]]
        for v in cleared:
            seen[v] = 0
        if len(learnt) == 1:
            return learnt, 0
        # Watch the highest-level literal besides the asserting one.
        best = max(range(1, len(learnt)),
                   key=lambda k: self._level[abs(learnt[k])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    # -- search ------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        heap = self._heap
        while heap:
            act, v = heapq.heappop(heap)
            if self._assign[v] == 0 and -act == self._activity[v]:
                return v
        for v in range(1, self._nvars + 1):  # pragma: no cover - safety net
            if self._assign[v] == 0:
                return v
        raise AssertionError("no unassigned variable to decide")

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """True iff the clause set is satisfiable under the assumptions."""
        if self._unsat:
            return False
        for a in assumptions:
            self._ensure_var(abs(a))
        self._model = None
        self._cancel_until(0)
        if self._propagate() != -1:
            self._unsat = True
            return False
        since_restart = 0
        restarts = 0
        threshold = _luby(1) * _RESTART_BASE
        while True:
            confl = self._propagate()
            if confl != -1:
                if not self._trail_lim:
                    self._unsat = True
                    return False
                self._conflicts += 1
                since_restart += 1
                if (self._max_conflicts is not None
                        and self._conflicts > self._max_conflicts):
                    self._cancel_until(0)
                    raise BackendFailure(
                        f"conflict limit {self._max_conflicts} exceeded")
                learnt, blevel = self._analyze(confl)
                self._cancel_until(blevel)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ci = len(self._clauses)
                    self._clauses.append(learnt)
                    self._watches[_enc(learnt[0])].append(ci)
                    self._watches[_enc(learnt[1])].append(ci)
                    self._enqueue(learnt[0], ci)
                self._act_inc *= _ACT_DECAY
                continue
            if since_restart >= threshold:
                restarts += 1
                since_restart = 0
                threshold = _luby(restarts + 1) * _RESTART_BASE
                self._cancel_until(0)
                continue
            pending = None
            for a in assumptions:
                val = self._value(a)
                if val == -1:
                    self._cancel_until(0)
                    return False
                if val == 0:
                    pending = a
                    break
            if pending is not None:
                self._trail_lim.append(len(self._trail))
                self._enqueue(pending, -1)
                continue
            if len(self._trail) == self._nvars:
                self._model = list(self._assign)
                self._cancel_until(0)
                return True
            v = self._pick_branch_var()
            self._trail_lim.append(len(self._trail))
            self._enqueue(v if self._phase[v] else -v, -1)

    def model(self) -> dict[int, bool]:
        """Satisfying assignment of the last successful `solve`."""
        if self._model is None:
            raise RuntimeError("no model available; last solve was not SAT")
        return {v: self._model[v] == 1 for v in range(1, self._nvars + 1)}
