"""Propositional satisfiability backend and CNF building blocks.

Literals are encoded as in MiniSat (Een & Sorensson, SAT 2003): variable
v >= 1 has the positive literal `2v` and the negative `2v | 1`, so
negation is `^ 1`, the variable is `>> 1`, and one value array and the
watch lists are indexed by literal.  It is the library's one literal
form: `encoder.VarPool` hands out positive literals, every clause the
encoders build is in it, and the solver takes it in (`load`) and gives
its models in it (`values`).  Signed integers (v and -v) appear only in
DIMACS (`to_dimacs`).

The encoders in this package lower their constraints to CNF by hand from
a small vocabulary of guarded equivalences (`equiv_*` below).  Each shape
appends its clauses to a caller's list, the sink, and returns nothing.
It takes a ready-made clause prefix `pre`, the negated guards (g1 ^ 1,
.., gk ^ 1), and prefixes every clause it emits with it, i.e. encodes
g1 & .. & gk -> (equivalence); a caller builds the prefix once per
guard.  A `polarity` keeps one direction of the equivalence, in the
polarity-based clause form of Plaisted & Greenbaum (J. Symbolic
Computation, 1986): +1 only the clauses containing `out ^ 1` (out
implies its definition), -1 only those containing `out` (the definition
implies out), and 0, the default, both.  A caller that reads `out` only
in one sign needs only that direction.  The until/globally step shapes
are used only by `encoder.lower_node`, the single home of the CTL step
semantics for both formula search and bounded synthesis, and list a
self-loop's literal once per clause.

`CdclSolver` is the in-process default backend: a conflict-driven clause
learning solver with two-watched-literal propagation, first-UIP conflict
analysis, activity-based decisions, phase saving, Luby restarts and
incremental solving.  It is deterministic: the same clause stream and
seed always produce the same run.  Its search is one loop in `solve`
over clause references: the watch lists and the reasons hold the clause
lists themselves, a decision or a root unit has reason None, and a
two-literal clause is settled in the watch scan itself, with no search
for a replacement watch.  It has one way in, `load`, which declares
variables and adds encoded clauses, and one way out, `values`, the value
array of the last satisfying `solve`.
Instances can also be exported in DIMACS CNF format for external solvers
via `to_dimacs`.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterable, Sequence

__all__ = ["BackendFailure", "CdclSolver", "to_dimacs", "exactly_one",
           "equiv_lit", "equiv_and", "equiv_or", "equiv_or_and_disj",
           "equiv_and_disj"]

Clause = tuple[int, ...]


class BackendFailure(RuntimeError):
    """Backend gave up (resource limits); distinct from an UNSAT answer."""


# ---------------------------------------------------------------------------
# Clause shapes
# ---------------------------------------------------------------------------

def exactly_one(sink: list[Clause], lits: Sequence[int]) -> None:
    """At-least-one plus pairwise at-most-one."""
    sink.append(tuple(lits))
    for a in range(len(lits)):
        neg_a = lits[a] ^ 1
        for b in range(a + 1, len(lits)):
            sink.append((neg_a, lits[b] ^ 1))


def equiv_lit(sink: list[Clause], out_lit: int, in_lit: int,
              pre: Clause = (), polarity: int = 0) -> None:
    """out <-> in; a negated `in_lit` gives out <-> !in."""
    if polarity >= 0:
        sink.append(pre + (out_lit ^ 1, in_lit))
    if polarity <= 0:
        sink.append(pre + (out_lit, in_lit ^ 1))


def equiv_and(sink: list[Clause], out_lit: int, lits: Sequence[int],
              pre: Clause = (), polarity: int = 0) -> None:
    """out <-> (l1 & .. & lk)."""
    if polarity >= 0:
        for l in lits:
            sink.append(pre + (out_lit ^ 1, l))
    if polarity <= 0:
        sink.append(pre + (out_lit,) + tuple(l ^ 1 for l in lits))


def equiv_or(sink: list[Clause], out_lit: int, lits: Sequence[int],
             pre: Clause = (), polarity: int = 0) -> None:
    """out <-> (l1 | .. | lk)."""
    if polarity <= 0:
        for l in lits:
            sink.append(pre + (out_lit, l ^ 1))
    if polarity >= 0:
        sink.append(pre + (out_lit ^ 1,) + tuple(lits))


def equiv_or_and_disj(sink: list[Clause], out_lit: int, base_lit: int,
                      cond_lit: int, disj: Sequence[int], pre: Clause = (),
                      polarity: int = 0) -> None:
    """out <-> base | (cond & (d1 | .. | dk)).

    The unrolled until step: already reached, or the condition holds here
    and some successor reached it one step earlier.  A disjunct equal to
    `base` (a self-loop) is listed once, where `base` stands.
    """
    if polarity >= 0:
        reached = (tuple(d for d in disj if d != base_lit)
                   if base_lit in disj else tuple(disj))
        sink.append(pre + (out_lit ^ 1, base_lit, cond_lit))
        sink.append(pre + (out_lit ^ 1, base_lit) + reached)
    if polarity <= 0:
        sink.append(pre + (out_lit, base_lit ^ 1))
        for d in disj:
            sink.append(pre + (out_lit, cond_lit ^ 1, d ^ 1))


def equiv_and_disj(sink: list[Clause], out_lit: int, cond_lit: int,
                   disj: Sequence[int], pre: Clause = (),
                   polarity: int = 0) -> None:
    """out <-> cond & (d1 | .. | dk).

    The unrolled globally step: the condition holds here and some
    successor survived one step less.  A disjunct equal to `cond` (a
    self-loop) gives the clause with `cond ^ 1` once.
    """
    if polarity >= 0:
        sink.append(pre + (out_lit ^ 1, cond_lit))
        sink.append(pre + (out_lit ^ 1,) + tuple(disj))
    if polarity <= 0:
        for d in disj:
            sink.append(pre + ((out_lit, cond_lit ^ 1) if d == cond_lit
                               else (out_lit, cond_lit ^ 1, d ^ 1)))


# ---------------------------------------------------------------------------
# DIMACS export
# ---------------------------------------------------------------------------

def to_dimacs(num_vars: int, clauses: Sequence[Sequence[int]],
              comments: Iterable[str] = ()) -> str:
    """DIMACS CNF text of encoded clauses, with literals written signed."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(f"-{l >> 1}" if l & 1 else str(l >> 1)
                              for l in clause) + " 0")
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


_RESTART_BASE = 64
_ACT_DECAY = 1.0 / 0.95
_ACT_LIMIT = 1e100


class CdclSolver:
    """Incremental CDCL solver over encoded literals.

    Clauses go in only through `load`, and a model comes out only through
    `values`.  `load` may be called between `solve` calls; learned
    clauses are kept, which is sound because conflict analysis derives
    consequences of the clause set alone.  An optional conflict budget
    turns runaway searches into `BackendFailure` instead of wrong
    answers.

    A clause is a list of literals watched on its first two.  `_clauses`
    stores every clause of two or more literals, loaded or learned, in
    the order it came; the watch lists and `_reason` hold those lists
    themselves, not indices into the store.  A variable set by a decision
    or by a unit at the root has reason None.

    `solve` is one loop over local variables.  Each pass propagates the
    trail from `_qhead` (the first pass settles the root); then, on a
    conflict, it analyses it, backjumps and asserts the learned clause;
    otherwise it restarts on the Luby schedule, returns a full assignment,
    or decides.  Propagation scans a watch list in order and compacts it
    in place.  The search for a replacement watch starts at the third
    literal; a two-literal clause has none, so the scan settles it at
    once: satisfied, unit or conflicting.

    Decisions pop a lazy heap of `(-activity[v], v)` entries, skipping
    stale ones (key not the current activity, or v assigned).  Invariant:
    every unassigned variable has a current entry, and `_queued[v]` is set
    iff v has one, so each variable has at most one.  Keys are unique per
    variable, so the first valid entry popped is the key minimum over the
    unassigned variables: the decision depends on activities and the
    assignment only, and pushing once per variable decides exactly as
    pushing on every unassignment does.  The invariant holds because new
    and backtracked variables are pushed unless queued, a bump (only of
    assigned variables) or a pop of a current entry clears the flag, and
    an activity rescale rebuilds the heap and the flags.
    """

    def __init__(self, seed: int | None = None,
                 max_conflicts: int | None = None):
        self._nvars = 0
        self._clauses: list[list[int]] = []
        self._watches: list[list[list[int]]] = [[], []]
        self._val = [0, 0]        # literal -> 0 unassigned / 1 true / -1 false
        self._level = [0]
        self._reason: list[list[int] | None] = [None]
        self._phase = bytearray(b"\x01")   # var -> sign bit of saved phase
        self._activity = [0.0]
        self._act_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._heap: list[tuple[float, int]] = []
        self._queued = bytearray(1)
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

    def _reserve(self, num_vars: int) -> None:
        """Declare variables up to `num_vars`."""
        first = self._nvars + 1
        new = num_vars - self._nvars
        if new <= 0:
            return
        self._nvars = num_vars
        rng = self._rng
        jitter = ([rng.random() * 1e-6 for _ in range(new)] if rng
                  else [0.0] * new)
        self._val += [0] * (2 * new)
        self._level += [0] * new
        self._reason += [None] * new
        self._phase += b"\x01" * new
        self._activity += jitter
        self._watches += [[] for _ in range(2 * new)]
        self._seen += bytes(new)
        self._queued += b"\x01" * new
        heap = self._heap
        for v, act in enumerate(jitter, first):
            heapq.heappush(heap, (-act, v))

    # -- clause input ------------------------------------------------------

    def load(self, clauses: Iterable[Sequence[int]], num_vars: int) -> None:
        """Declare variables up to `num_vars`, then add each clause of
        encoded literals over them.  The stored model is dropped.

        Repeated literals are dropped and literals false at the root are
        removed; tautologies and clauses true at the root are skipped.
        A literal of no declared variable, below 2 or above twice the
        variables declared so far plus 1, raises `ValueError`: the clauses
        before its clause stay loaded, and its clause and those after it
        are not.
        """
        self._model = None
        self._reserve(num_vars)
        self._cancel_until(0)
        val = self._val
        clause_db = self._clauses
        watches = self._watches
        try:
            for lits in clauses:
                reduced: list[int] = []
                for e in lits:
                    if e < 2:
                        raise IndexError  # as `val[e]` does above the top
                    x = val[e]
                    if x == 0:
                        if e not in reduced:
                            if e ^ 1 in reduced:
                                break  # a tautology
                            reduced.append(e)
                    elif x == 1:
                        break  # true at the root
                else:
                    if not reduced:
                        self._unsat = True
                    elif len(reduced) == 1:
                        self._enqueue(reduced[0])
                    else:
                        watches[reduced[0]].append(reduced)
                        watches[reduced[1]].append(reduced)
                        clause_db.append(reduced)
        except IndexError:
            raise ValueError(f"{e} is the literal of no variable") from None

    # -- trail -------------------------------------------------------------

    def _enqueue(self, lit: int) -> None:
        """Set `lit` true at the root, with no reason."""
        val = self._val
        val[lit] = 1
        val[lit ^ 1] = -1
        v = lit >> 1
        self._level[v] = 0
        self._reason[v] = None
        self._trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        """Undo the assignments above `level`, saving their phases and
        queueing their variables for decisions.  Every literal below the
        mark has been propagated, so `solve` resumes with `_qhead` at the
        end of the trail."""
        trail_lim = self._trail_lim
        if len(trail_lim) > level:
            trail = self._trail
            mark = trail_lim[level]
            val = self._val
            phase = self._phase
            queued = self._queued
            activity = self._activity
            heap = self._heap
            push = heapq.heappush
            for lit in trail[mark:]:
                v = lit >> 1
                phase[v] = lit & 1
                val[lit] = val[lit ^ 1] = 0
                if not queued[v]:
                    queued[v] = 1
                    push(heap, (-activity[v], v))
            del trail[mark:]
            del trail_lim[level:]

    # -- conflict analysis -------------------------------------------------

    def _rescale(self) -> None:
        """Scale the activities down and rebuild the heap on the new keys."""
        scale = 1.0 / _ACT_LIMIT
        self._act_inc *= scale
        activity = self._activity
        val = self._val
        queued = self._queued
        heap = self._heap
        heap.clear()
        for u in range(1, self._nvars + 1):
            activity[u] *= scale
            queued[u] = val[u << 1] == 0
            if queued[u]:
                heap.append((-activity[u], u))
        heapq.heapify(heap)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """The first-UIP clause learned from the conflicting clause
        `confl`, asserting literal first and the literal of the highest
        level below the current one second, with that level."""
        level = self._level
        reason = self._reason
        trail = self._trail
        activity = self._activity
        queued = self._queued
        inc = self._act_inc
        learnt: list[int] = [0]
        seen = self._seen
        cleared: list[int] = []
        counter = 0
        p = 0
        idx = len(trail) - 1
        current = len(self._trail_lim)
        clause = confl
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    cleared.append(v)
                    # Bump.  v is assigned, so its heap entries go stale.
                    activity[v] += inc
                    queued[v] = 0
                    if activity[v] > _ACT_LIMIT:
                        self._rescale()
                        inc = self._act_inc
                    if level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            v = p >> 1
            idx -= 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = p ^ 1
                break
            clause = reason[v]
        for v in cleared:
            seen[v] = 0
        # Watch the first literal of the highest level besides the
        # asserting one.
        best = 1
        blevel = 0
        for k in range(1, len(learnt)):
            lv = level[learnt[k] >> 1]
            if lv > blevel:
                best = k
                blevel = lv
        if blevel:
            learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, blevel

    # -- search ------------------------------------------------------------

    def solve(self) -> bool:
        """True iff the clause set is satisfiable."""
        if self._unsat:
            return False
        self._model = None
        self._cancel_until(0)
        val = self._val
        level = self._level
        reason = self._reason
        phase = self._phase
        activity = self._activity
        queued = self._queued
        heap = self._heap
        watches = self._watches
        trail = self._trail
        trail_lim = self._trail_lim
        heappop = heapq.heappop
        qhead = self._qhead
        since_restart = 0
        restarts = 0
        threshold = _luby(1) * _RESTART_BASE
        while True:
            confl = None
            current = len(trail_lim)
            while qhead < len(trail):
                neg = trail[qhead] ^ 1
                qhead += 1
                # Compact wl in place.  It cannot grow meanwhile: a clause
                # only moves its watch to a literal that is not false, and
                # neg is.
                wl = watches[neg]
                i = j = 0
                for lits in wl:
                    i += 1
                    first = lits[0]
                    if first == neg:
                        first = lits[1]
                        lits[0] = first
                        lits[1] = neg
                    x = val[first]
                    if x == 1:
                        wl[j] = lits
                        j += 1
                        continue
                    # A while loop: a range per clause cost more than
                    # the search itself, which averages 1.3-1.4 steps.
                    k = 2
                    n = len(lits)
                    while k < n:
                        lk = lits[k]
                        if val[lk] != -1:
                            lits[1] = lk
                            lits[k] = neg
                            watches[lk].append(lits)
                            break
                        k += 1
                    else:
                        wl[j] = lits
                        j += 1
                        if x == -1:
                            confl = lits
                            break
                        val[first] = 1
                        val[first ^ 1] = -1
                        v = first >> 1
                        level[v] = current
                        reason[v] = lits
                        trail.append(first)
                del wl[j:i]
                if confl is not None:
                    break
            if confl is not None:
                if not current:
                    self._qhead = qhead
                    self._unsat = True
                    return False
                self._conflicts += 1
                since_restart += 1
                if (self._max_conflicts is not None
                        and self._conflicts > self._max_conflicts):
                    self._cancel_until(0)
                    self._qhead = len(trail)
                    raise BackendFailure(
                        f"conflict limit {self._max_conflicts} exceeded")
                learnt, blevel = self._analyze(confl)
                self._cancel_until(blevel)
                qhead = len(trail)
                lit = learnt[0]
                v = lit >> 1
                if len(learnt) == 1:
                    reason[v] = None
                else:
                    self._clauses.append(learnt)
                    watches[lit].append(learnt)
                    watches[learnt[1]].append(learnt)
                    reason[v] = learnt
                val[lit] = 1
                val[lit ^ 1] = -1
                level[v] = blevel
                trail.append(lit)
                self._act_inc *= _ACT_DECAY
                continue
            if since_restart >= threshold:
                restarts += 1
                since_restart = 0
                threshold = _luby(restarts + 1) * _RESTART_BASE
                self._cancel_until(0)
                qhead = len(trail)
                continue
            if len(trail) == self._nvars:
                self._model = val[::2]
                self._cancel_until(0)
                self._qhead = len(trail)
                return True
            # Decide the most active unassigned variable in its saved phase.
            while True:
                key, v = heappop(heap)
                if key == -activity[v]:
                    queued[v] = 0
                    if val[v << 1] == 0:
                        break
            trail_lim.append(len(trail))
            lit = (v << 1) | phase[v]
            val[lit] = 1
            val[lit ^ 1] = -1
            level[v] = current + 1
            reason[v] = None
            trail.append(lit)

    def values(self) -> list[int]:
        """Satisfying assignment of the last `solve`, if it was SAT and
        nothing was loaded since, as the solver holds it: entry v is 1
        when variable v is true and -1 when it is false (entry 0 is
        unused).  The list is the solver's own; it is replaced, not
        changed, by a later `solve`."""
        if self._model is None:
            raise RuntimeError("no model available: the last solve was not "
                               "SAT, or clauses were loaded since")
        return self._model
