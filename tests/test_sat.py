import hashlib
import itertools
import random

import pytest

import helpers
from ctlinfer import ctl, encoder, sat
from ctlinfer.sat import BackendFailure, CdclSolver


def brute_force(num_vars, clauses):
    """Exhaustive truth-table satisfiability check."""
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False


def random_cnf(rng, num_vars, num_clauses, width=3, min_width=1):
    clauses = []
    for _ in range(num_clauses):
        k = rng.randint(min_width, width)
        vs = rng.sample(range(1, num_vars + 1), min(k, num_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def check_model(values, clauses):
    """Every signed clause has a literal true in the value array."""
    for clause in clauses:
        assert any((values[abs(lit)] == 1) == (lit > 0)
                   for lit in clause), clause


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert CdclSolver().solve()

    def test_empty_clause_is_unsat(self):
        solver = CdclSolver()
        solver.load([()], 0)
        assert not solver.solve()

    def test_unit_propagation(self):
        solver = CdclSolver()
        helpers.load_signed(solver, [[1], [-1, 2], [-2, 3]])
        assert solver.solve()
        assert solver.values()[1:] == [1, 1, 1]

    def test_contradictory_units(self):
        solver = CdclSolver()
        helpers.load_signed(solver, [[1], [-1]])
        assert not solver.solve()

    def test_tautologies_are_dropped(self):
        solver = CdclSolver()
        solver.load([(2, 3)], 1)
        assert solver.num_clauses == 0
        assert solver.solve()

    def test_pigeonhole_unsat(self):
        # 4 pigeons, 3 holes: classic small UNSAT instance.
        def var(p, h):
            return p * 3 + h + 1

        solver = CdclSolver()
        helpers.load_signed(solver, (
            [var(p, h) for h in range(3)] for p in range(4)))
        helpers.load_signed(solver, (
            [-var(p1, h), -var(p2, h)] for h in range(3)
            for p1 in range(4) for p2 in range(p1 + 1, 4)))
        assert not solver.solve()

    def test_every_load_drops_the_model(self):
        """After a SAT solve, any `load` leaves no model, even one of
        tautologies only or of no clauses; `load([], k)` declares
        variables up to k."""
        for batch, num_vars in (([], 2), ([], 4), ([(2, 3)], 2),
                                ([(6, 7), (2, 3)], 3), ([(4,)], 2)):
            solver = CdclSolver()
            solver.load([(2, 4)], 2)
            assert solver.solve()
            solver.load(batch, num_vars)
            assert solver.num_vars == num_vars
            with pytest.raises(RuntimeError):
                solver.values()
            assert solver.solve()
            assert len(solver.values()) == num_vars + 1


class TestAgainstBruteForce:
    def test_random_instances(self):
        rng = random.Random(2024)
        for trial in range(300):
            num_vars = rng.randint(1, 8)
            clauses = random_cnf(rng, num_vars, rng.randint(1, 24))
            solver = CdclSolver(seed=trial)
            helpers.load_signed(solver, clauses)
            got = solver.solve()
            assert got == brute_force(num_vars, clauses), clauses
            if got:
                check_model(solver.values(), clauses)
        # All-binary CNFs, with a unit now and then, loaded in batches with
        # a solve after each.  Units against a binary chain make the root
        # propagation itself conflict: UNSAT with no conflict counted.
        root_conflicts = 0
        for trial in range(300):
            num_vars = rng.randint(2, 10)
            solver = CdclSolver(seed=trial if trial % 3 else None)
            clauses = []
            for _ in range(4):
                batch = random_cnf(rng, num_vars,
                                   rng.randint(1, 2 * num_vars), 2, 2)
                if rng.random() < 0.4:
                    batch.append((rng.choice((-1, 1))
                                  * rng.randint(1, num_vars),))
                before = solver._conflicts
                helpers.load_signed(solver, batch)
                emptied = solver._unsat
                clauses.extend(batch)
                got = solver.solve()
                assert got == brute_force(num_vars, clauses), clauses
                if not got:
                    root_conflicts += (not emptied
                                       and solver._conflicts == before)
                    break
                check_model(solver.values(), clauses)
        assert root_conflicts > 20

    def test_incremental_clause_addition(self):
        rng = random.Random(2026)
        for trial in range(60):
            num_vars = rng.randint(2, 7)
            solver = CdclSolver(seed=trial)
            clauses = []
            for _ in range(6):
                batch = random_cnf(rng, num_vars, rng.randint(1, 5))
                helpers.load_signed(solver, batch)
                clauses.extend(batch)
                got = solver.solve()
                assert got == brute_force(num_vars, clauses)
                if got:
                    check_model(solver.values(), clauses)
                else:
                    break


class TestDeterminism:
    def test_same_seed_same_model(self):
        rng = random.Random(31)
        clauses = random_cnf(rng, 8, 20)

        def run(seed):
            solver = CdclSolver(seed=seed)
            helpers.load_signed(solver, clauses)
            return solver.values() if solver.solve() else None

        assert run(5) == run(5)


def test_conflict_budget_raises():
    # A pigeonhole instance large enough to exceed a tiny conflict budget.
    def var(p, h):
        return p * 6 + h + 1

    solver = CdclSolver(max_conflicts=5)
    helpers.load_signed(solver, (
        [var(p, h) for h in range(6)] for p in range(7)))
    helpers.load_signed(solver, (
        [-var(p1, h), -var(p2, h)] for h in range(6)
        for p1 in range(7) for p2 in range(p1 + 1, 7)))
    with pytest.raises(BackendFailure):
        solver.solve()


def clause_stream(rng, num_vars, count):
    """Clauses of every shape the loader treats specially: empty, unit,
    tautological, with repeated literals, and (once units are in) with
    literals already true or false at the root."""
    stream = []
    for _ in range(count):
        lits = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1),
                                    rng.randint(1, min(3, num_vars)))]
        shape = rng.random()
        if shape < 0.01:
            lits = []
        elif shape < 0.15:
            lits = lits[:1]
        elif shape < 0.25:
            lits.insert(rng.randint(0, len(lits)), -lits[0])
        elif shape < 0.35:
            lits.append(rng.choice(lits))
        stream.append(tuple(lits))
    return stream


class TestLoad:
    def test_batch_equals_one_clause_at_a_time(self):
        """Batched loads against one clause per `load`, each declaring
        variables up to the largest one named so far."""
        rng = random.Random(2028)
        for trial in range(150):
            num_vars = rng.randint(1, 8)
            batched, single = CdclSolver(seed=trial), CdclSolver(seed=trial)
            clauses = []
            for _ in range(4):
                batch = clause_stream(rng, num_vars, rng.randint(0, 8))
                helpers.load_signed(batched, iter(batch))
                for clause in batch:
                    helpers.load_signed(single, [clause])
                clauses.extend(batch)
                assert batched.num_vars == single.num_vars
                assert batched.num_clauses == single.num_clauses
                got = batched.solve()
                assert got == single.solve()
                assert got == brute_force(num_vars, clauses)
                assert batched._conflicts == single._conflicts
                if got:
                    assert batched.values() == single.values()
                    check_model(batched.values(), clauses)

    def test_matches_the_reference_loader(self):
        """`load` against `helpers.reference_load`: on seeded streams of
        every shape, some batches tautologies only, interleaved with
        solves, each batch leaves the stored clauses and the root trail
        the reference gives and no model, and every solve agrees with
        brute force."""
        rng = random.Random(2030)
        for trial in range(200):
            num_vars = rng.randint(1, 8)
            solver = CdclSolver(seed=trial)
            database, trail, clauses = [], [], []
            for _ in range(6):
                if rng.random() < 0.2:
                    batch = [(v, -v) for v in rng.sample(
                        range(1, num_vars + 1), rng.randint(1, num_vars))]
                else:
                    batch = clause_stream(rng, num_vars, rng.randint(0, 8))
                encoded = [tuple(map(helpers.encoded, c)) for c in batch]
                assert signed_clauses(encoded) == batch
                solver.load(encoded, num_vars)
                emptied = helpers.reference_load(database, trail, encoded)
                assert solver._clauses == database
                assert solver._trail == trail
                with pytest.raises(RuntimeError):
                    solver.values()
                clauses.extend(batch)
                got = solver.solve()
                assert got == brute_force(num_vars, clauses)
                assert not (emptied and got)
                if got:
                    check_model(solver.values(), clauses)
                # A solve learns clauses and root literals; go on from them.
                database = [list(c) for c in solver._clauses]
                trail = list(solver._trail)

    def test_a_literal_of_no_declared_variable_is_rejected(self):
        """A literal below 2 or above 2 * num_vars + 1 raises
        `ValueError`, where -3 used to read as !x1 and 0 to fail later in
        the decision heap.  The clauses before its clause stay loaded, as
        root literals or stored clauses, and its clause and those after it
        are not."""
        for clauses, trail, stored in (
                ([(2,), (-3,)], [2], []),
                ([(2, 4), (0,)], [], [[2, 4]]),
                ([(4, 2), (1, 2)], [], [[4, 2]]),
                ([(2,), (6, 2), (3,)], [2], []),
                ([(3,), (2, 4), (7, 4), (2,)], [3, 4], [])):
            solver = CdclSolver(seed=0)
            with pytest.raises(ValueError, match="literal of no variable"):
                solver.load(clauses, 2)
            assert (solver._trail, solver._clauses) == (trail, stored)
            assert not solver._unsat
        solver = CdclSolver(seed=0)
        solver.load([(2,), (5,)], 2)
        assert solver.solve()
        assert solver.values()[1:] == [1, -1]


def test_activity_rescale_keeps_every_free_variable_on_the_heap(monkeypatch):
    # With a limit this small the activities overflow every few
    # conflicts, so each run rescales (and rebuilds its heap) repeatedly.
    monkeypatch.setattr(sat, "_ACT_LIMIT", 4.0)
    rescales = 0
    rescale = CdclSolver._rescale

    def checked_rescale(solver):
        nonlocal rescales
        rescales += 1
        rescale(solver)
        entries = set(solver._heap)
        for v in range(1, solver.num_vars + 1):
            if solver._val[2 * v] == 0:
                assert solver._queued[v]
                assert (-solver._activity[v], v) in entries

    monkeypatch.setattr(CdclSolver, "_rescale", checked_rescale)
    rng = random.Random(2027)
    for trial in range(40):
        clauses = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, 13), 3))
                   for _ in range(52)]
        solver = CdclSolver(seed=trial)
        helpers.load_signed(solver, clauses)
        got = solver.solve()
        assert got == brute_force(12, clauses)
        if got:
            check_model(solver.values(), clauses)
    assert rescales >= 10

    def var(p, h):
        return p * 5 + h + 1

    solver = CdclSolver()
    helpers.load_signed(solver, (
        [var(p, h) for h in range(5)] for p in range(6)))
    helpers.load_signed(solver, (
        (-var(p1, h), -var(p2, h)) for h in range(5)
        for p1 in range(6) for p2 in range(p1 + 1, 6)))
    assert not solver.solve()
    assert rescales >= 15


def emitted(shape, *args, **kwargs):
    """The clauses a `sat` shape appends to an empty sink."""
    sink = []
    shape(sink, *args, **kwargs)
    return sink


def signed_clauses(clauses):
    """Encoded clauses with their literals signed, for truth tables."""
    return [tuple(map(helpers.signed, clause)) for clause in clauses]


class TestClauseHelpers:
    """The shapes take encoded literals, `2v` for v and `2v + 1` for -v."""

    def test_shapes_append_to_the_sink(self):
        sink = [(3,)]
        sat.equiv_lit(sink, 2, 5)
        sat.equiv_and(sink, 2, (4, 6), (9,), 1)
        sat.exactly_one(sink, (2, 5))
        assert sink == [(3,), (3, 5), (2, 4), (9, 3, 4), (9, 3, 6), (2, 5),
                        (3, 4)]

    def assert_equiv(self, clauses, out, definition, num_vars):
        """Check clause set encodes out <-> definition by truth table."""
        clauses = signed_clauses(clauses)
        for bits in itertools.product([False, True], repeat=num_vars):
            assignment = {v + 1: bits[v] for v in range(num_vars)}
            ok = all(any(assignment[abs(l)] == (l > 0) for l in c)
                     for c in clauses)
            assert ok == (assignment[out] == definition(assignment))

    def test_exactly_one(self):
        clauses = signed_clauses(emitted(sat.exactly_one, [2, 4, 6]))
        for bits in itertools.product([False, True], repeat=3):
            assignment = {v + 1: bits[v] for v in range(3)}
            ok = all(any(assignment[abs(l)] == (l > 0) for l in c)
                     for c in clauses)
            assert ok == (sum(bits) == 1)

    def test_equiv_not(self):
        self.assert_equiv(emitted(sat.equiv_lit, 2, 5), 1,
                          lambda a: not a[2], 2)

    def test_equiv_and(self):
        self.assert_equiv(emitted(sat.equiv_and, 2, [4, 6]), 1,
                          lambda a: a[2] and a[3], 3)

    def test_equiv_or(self):
        self.assert_equiv(emitted(sat.equiv_or, 2, [4, 6]), 1,
                          lambda a: a[2] or a[3], 3)

    def test_equiv_or_and_disj(self):
        # out <-> base | (cond & (d1 | d2))
        clauses = emitted(sat.equiv_or_and_disj, 2, 4, 6, [8, 10])
        self.assert_equiv(clauses, 1,
                          lambda a: a[2] or (a[3] and (a[4] or a[5])), 5)

    def test_equiv_and_disj(self):
        clauses = emitted(sat.equiv_and_disj, 2, 4, [6, 8])
        self.assert_equiv(clauses, 1,
                          lambda a: a[2] and (a[3] or a[4]), 4)

    def test_polarity_keeps_one_implication(self):
        """+1 keeps exactly the clauses with -out, which encode out ->
        definition; -1 those with +out, definition -> out; together they
        are the two-sided clauses.  A self-loop disjunct (4 = base or
        cond) is covered too."""
        shapes = [
            (lambda p: emitted(sat.equiv_lit, 2, 5, (), p),
             lambda a: not a[2]),
            (lambda p: emitted(sat.equiv_and, 2, [4, 6], (), p),
             lambda a: a[2] and a[3]),
            (lambda p: emitted(sat.equiv_or, 2, [4, 6], (), p),
             lambda a: a[2] or a[3]),
            (lambda p: emitted(sat.equiv_or_and_disj, 2, 4, 6, [4, 8], (),
                               p),
             lambda a: a[2] or (a[3] and (a[2] or a[4]))),
            (lambda p: emitted(sat.equiv_and_disj, 2, 4, [4, 8], (), p),
             lambda a: a[2] and (a[2] or a[4])),
        ]
        for build, definition in shapes:
            both, ahead, back = (signed_clauses(build(p)) for p in (0, 1, -1))
            assert set(both) == set(ahead) | set(back)
            assert all(-1 in c and 1 not in c for c in ahead)
            assert all(1 in c and -1 not in c for c in back)
            for bits in itertools.product([False, True], repeat=4):
                a = {v + 1: bits[v] for v in range(4)}
                for clauses, holds in (
                        (ahead, not a[1] or definition(a)),
                        (back, a[1] or not definition(a))):
                    ok = all(any(a[abs(l)] == (l > 0) for l in c)
                             for c in clauses)
                    assert ok == holds

    def test_guards_relax_the_equivalence(self):
        # With the guard false every assignment of the remaining
        # variables is allowed; with it true the equivalence bites.  The
        # prefix is the negated guard, -3.
        clauses = signed_clauses(emitted(sat.equiv_lit, 2, 5, pre=(7,)))
        for bits in itertools.product([False, True], repeat=3):
            assignment = {v + 1: bits[v] for v in range(3)}
            ok = all(any(assignment[abs(l)] == (l > 0) for l in c)
                     for c in clauses)
            if assignment[3]:
                assert ok == (assignment[1] == (not assignment[2]))
            else:
                assert ok


def test_luby_prefix():
    got = [sat._luby(i) for i in range(1, 16)]
    assert got == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestDimacs:
    def test_header_and_body(self):
        # The encoded clauses of (1, -2), (2, 3) and (-1,).
        text = sat.to_dimacs(3, [(2, 5), (4, 6), (3,)], ["note"])
        lines = text.strip().splitlines()
        assert lines[0] == "c note"
        assert lines[1] == "p cnf 3 3"
        assert lines[2:] == ["1 -2 0", "2 3 0", "-1 0"]

    def test_clause_count_matches(self):
        rng = random.Random(9)
        clauses = random_cnf(rng, 5, 12)
        encoded = [tuple(map(helpers.encoded, c)) for c in clauses]
        assert signed_clauses(encoded) == clauses
        text = sat.to_dimacs(5, encoded)
        lines = text.strip().splitlines()
        header = lines[0].split()
        assert header[:2] == ["p", "cnf"]
        assert int(header[3]) == len(clauses)
        assert len(lines) - 1 == len(clauses)
        assert all(line.endswith(" 0") for line in lines[1:])
        assert [tuple(map(int, line.split()[:-1]))
                for line in lines[1:]] == clauses



def trajectory(solver, step):
    """Solve after each `step(solver, runs)` that returns True, having
    loaded more clauses; per solve the verdict, the conflict count so
    far, the clauses it learned (each sorted, in the order learned) and
    the model."""
    runs = []
    while step(solver, runs):
        before = solver.num_clauses
        got = solver.solve()
        values = solver.values() if got else None
        runs.append((got, solver._conflicts,
                     [sorted(c) for c in solver._clauses[before:]],
                     None if values is None else
                     [(v, values[v] == 1) for v in range(1, len(values))]))
    return runs


def digest(runs):
    return hashlib.sha256(repr(runs).encode()).hexdigest()[:16]


# Taken from the solver before its search became one loop.
RANDOM_VERDICTS = ("SS SS SU SS SS SU SS SS SS SU SU SU SS SU SS SS SS SS "
                   "SU SU SS SS SU SS SS SS SS SS SU SU SS SU SU SU SS SS "
                   "SS SS SS SS SS SU SS SS SU SU SS SU SS SU")
RANDOM_CONFLICTS = [1, 12, 1, 11, 1, 14, 0, 9, 1, 16, 1, 22, 1, 25, 0, 17,
                    0, 2, 1, 18, 0, 14, 1, 3, 0, 4, 0, 15, 1, 11, 0, 26,
                    1, 24, 0, 4, 0, 9, 0, 4, 0, 27, 0, 4, 1, 13, 0, 30, 0, 17]
RANDOM_DIGEST = "625ec1c7ffd41f86"
DIAMOND_FORMULAS = ["EX EG q", "EX EG p", "!EG q", "!EG p", "EG EX q"]
DIAMOND_CONFLICTS = [4, 4, 5, 5, 7, 9]
DIAMOND_DIGEST = "368dbb7f13d9c79b"


class TestSearchTrajectory:
    """Pins of the search itself, not only of its answers: the same clause
    stream must give the same conflicts, learned clauses and models.  A
    change to the kernel that keeps every decision keeps them."""

    def test_random_cnfs(self):
        """50 seeded CNFs of widths 2 and 3, each loaded in two halves
        with a solve after each (the second only while SAT)."""
        rng = random.Random(4242)
        verdicts, conflicts, everything, kinds = [], [], [], set()
        for trial in range(50):
            width = 2 + trial % 2
            if width == 2:
                num_vars = rng.randint(20, 40)
                ratio = rng.uniform(0.9, 1.6)
            else:
                num_vars = rng.randint(20, 32)
                ratio = rng.uniform(3.8, 5.0)
            clauses = random_cnf(rng, num_vars, int(num_vars * ratio),
                                 width, width)
            half = len(clauses) // 2
            batches = [clauses[half:], clauses[:half]]

            def step(solver, runs):
                if not batches or (runs and not runs[-1][0]):
                    return False
                helpers.load_signed(solver, batches.pop())
                return True

            runs = trajectory(CdclSolver(seed=trial if trial % 4 else None),
                              step)
            verdicts.append("".join("S" if r[0] else "U" for r in runs))
            conflicts.append(runs[-1][1])
            kinds.add((width, runs[-1][0]))
            everything.append(runs)
        assert kinds == {(2, True), (2, False), (3, True), (3, False)}
        assert " ".join(verdicts) == RANDOM_VERDICTS
        assert conflicts == RANDOM_CONFLICTS
        assert digest(everything) == RANDOM_DIGEST

    def test_learner_instance_under_blocks(self):
        """The unseeded budget-3 learner instance of `diamond`, re-solved
        after blocking each DAG it decodes, as the learner's re-block
        loop does."""
        instance = encoder.build_instance(
            3, [helpers.load_fixture("diamond.kripke")])
        formulas = []

        def step(solver, runs):
            if not runs:
                return True
            if not runs[-1][0] or len(runs) == 6:
                return False
            formula, lits = encoder.decode_with_literals(solver.values(),
                                                         instance)
            formulas.append(ctl.print_ctl(formula))
            encoder.add_block(instance, lits)
            encoder.load_backend(instance)
            return True

        runs = trajectory(encoder.load_backend(instance), step)
        assert formulas == DIAMOND_FORMULAS
        assert [r[1] for r in runs] == DIAMOND_CONFLICTS
        assert digest(runs) == DIAMOND_DIGEST
