import functools
import gc
import hashlib
import random

import pytest

import helpers
from ctlinfer import checker, ctl, encoder
from ctlinfer.encoder import VarPool
from ctlinfer.kripke import KripkeStructure
from ctlinfer.sat import CdclSolver


def semantic_instance(structures, n):
    """Structural plus semantic clauses only (no consistency), so any
    formula of size n can be pinned with unit clauses and its evaluation
    variables read back."""
    pool = VarPool()
    clauses = encoder.build_structural(pool, n, structures[0].alphabet)
    for m, struct in enumerate(structures):
        clauses += encoder.build_semantic(pool, n, m, struct)
    backend = CdclSolver()
    backend.load(clauses, pool.count)
    return pool, backend


class TestVarPool:
    def test_interning(self):
        pool = VarPool()
        a = pool.var("x", 1, "p")
        b = pool.var("x", 1, "q")
        assert helpers.signed(a) == 1 and helpers.signed(b) == 2
        assert pool.var("x", 1, "p") == a
        assert pool.get("x", 1, "q") == b
        assert pool.count == 2

    def test_fresh_vars_are_anonymous(self):
        pool = VarPool()
        pool.var("x", 1, "p")
        aux = pool.fresh()
        assert helpers.signed(aux) == 2
        assert {key: helpers.signed(lit) for key, lit
                in pool.semantic_items()} == {("x", 1, "p"): 1}

    def test_semantic_items_are_in_index_order(self):
        """With fresh variables interleaved, the semantic keys come in
        index order and skip the fresh ones, as the `cnf-dump` comment
        header lists them."""
        pool = VarPool()
        keys = [("x", i) for i in range(6)]
        fresh = []
        for k, key in enumerate(keys):
            pool.var(*key)
            if k % 2:
                fresh.append(pool.fresh())
        pool.var(*keys[0])
        items = list(pool.semantic_items())
        assert [key for key, _ in items] == keys
        assert [helpers.signed(lit) for _, lit in items] == sorted(
            set(range(1, pool.count + 1)) - set(map(helpers.signed, fresh)))


class TestBuildInstance:
    def test_var_layout(self):
        m = helpers.load_fixture("two_state_pq.kripke")
        neg = helpers.load_fixture("chain3.kripke")
        instance = encoder.build_instance(3, [m], [neg])
        pool = instance.pool
        assert pool.get("x", 1, "p") != pool.get("x", 1, "q")
        assert pool.get("l", 3, 1) != pool.get("r", 3, 1)
        # The use variables come before the first structure's.
        assert pool.get("u", 2, 3) < pool.get("y", 0, 1, 0)
        # y exists for every node, the root included, at every state; ys
        # only for the operator nodes (not node 1, always a proposition)
        # and the inner approximants k in 2..|S|-1: none on two states,
        # k = 2 on three.
        for i in (1, 2, 3):
            for s in (0, 1):
                pool.get("y", 0, i, s)
                for k in (1, 2, 3):
                    with pytest.raises(KeyError):
                        pool.get("ys", 0, i, s, k)
            for s in (0, 1, 2):
                pool.get("y", 1, i, s)
                for k in (1, 2, 3, 4):
                    if i == 1 or k != 2:
                        with pytest.raises(KeyError):
                            pool.get("ys", 1, i, s, k)
                    else:
                        pool.get("ys", 1, i, s, k)
        # The operand values L/R of the operator nodes come after the
        # structure's y and ys and before the next structure's first y;
        # node 2 takes no binary label, so it has no R.
        last_y = pool.get("y", 0, 3, 1)
        last_ys = max(pool.get("ys", 1, i, s, 2) for i in (2, 3)
                      for s in (0, 1, 2))
        for kind in ("L", "R"):
            for s in (0, 1):
                with pytest.raises(KeyError):
                    pool.get(kind, 0, 1, s)
                for i in (2, 3) if kind == "L" else (3,):
                    assert (last_y < pool.get(kind, 0, i, s)
                            < pool.get("y", 1, 1, 0))
                    assert last_ys < pool.get(kind, 1, i, s)
        for s in (0, 1):
            with pytest.raises(KeyError):
                pool.get("R", 0, 2, s)
        # Label variables exist for each node's `label_domain` only: node
        # 1 no operator, node 2 no binary operator, the root no
        # proposition.
        labels = {key[1:] for key, _ in pool.semantic_items()
                  if key[0] == "x"}
        assert labels == ({(1, "p"), (1, "q"), (2, "q"), (2, ctl.Not),
                           (2, ctl.ExistsNext), (2, ctl.ExistsGlobally)}
                          | {(3, lab) for lab in ctl.OPERATOR_LABELS})
        for i in (1, 2, 3):
            assert encoder.label_domain(3, i, ("p", "q")) == tuple(
                lab for lab in ("p", "q") + ctl.OPERATOR_LABELS
                if (i, lab) in labels)

    def test_semantic_clauses_read_one_child_choice(self):
        """Every clause of a structure reads at most one l/r literal: the
        operand values, not the lowerings, depend on the child choice."""
        sink = helpers.load_fixture("sink_q.kripke")
        cycle = helpers.load_fixture("cycle2.kripke")
        pool = VarPool()
        instance = encoder.EncodingInstance(4, sink.alphabet, pool)
        encoder.add_structure(instance, sink, negative=False)
        encoder.add_structure(instance, cycle, negative=True)
        choices = {helpers.signed(lit) for key, lit in pool.semantic_items()
                   if key[0] in ("l", "r")}
        assert choices
        for clause in instance.clauses:
            assert sum(abs(helpers.signed(lit)) in choices
                       for lit in clause) <= 1, clause

    def test_rejects_mixed_alphabets(self):
        a = helpers.load_fixture("selfloop_p.kripke")
        b = helpers.load_fixture("two_state_pq.kripke")
        with pytest.raises(ValueError):
            encoder.build_instance(2, [a], [b])

    def test_rejects_empty_sample_and_bad_budget(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        with pytest.raises(ValueError):
            encoder.build_instance(2, [])
        with pytest.raises(ValueError):
            encoder.build_instance(0, [m])


class TestClauseStream:
    """`build_instance` and `add_structure` append exactly the clause
    stream built without a solver, and `load_backend` loads it: the
    structural clauses, the normal form, then for each structure its
    consistency clause followed by `build_semantic` with the structure's
    sign."""

    SAMPLES = [
        (["two_state_pq.kripke", "chain3.kripke"], ["cycle2.kripke"],
         "diamond.kripke"),
        (["diamond.kripke"], ["branching.kripke"], "sink_q.kripke"),
        (["sink_q.kripke"], ["cycle2.kripke"], "two_init.kripke"),
        (["full2.kripke"], [], "chain3.kripke"),
        (["selfloop_p.kripke"], ["selfloop_empty.kripke"],
         "selfloop_empty.kripke"),
        (["mutex.kripke"], [], "mutex.kripke"),
    ]

    @staticmethod
    def structure_stream(pool, n, m, struct, negative):
        """The consistency clause of structure m, then `build_semantic`
        of the structure's sign."""
        clauses = encoder.build_semantic(pool, n, m, struct,
                                         negative=negative)
        roots = [pool.get("y", m, n, s) for s in sorted(struct.initial)]
        if negative:
            return [tuple(lit ^ 1 for lit in roots)] + clauses
        return [(lit,) for lit in roots] + clauses

    @staticmethod
    def same_state(a, b):
        assert a.num_vars == b.num_vars
        assert a._clauses == b._clauses
        assert a._trail == b._trail

    def test_instances_load_exactly_the_clause_stream(self):
        """On the build path and again after appending a negative, the
        instance holds the stream, and its loaded solver stores,
        propagates and searches as a fresh solver of the same seed loaded
        with it."""
        for pos_names, neg_names, extra_name in self.SAMPLES:
            pos = [helpers.load_fixture(f) for f in pos_names]
            neg = [helpers.load_fixture(f) for f in neg_names]
            extra = helpers.load_fixture(extra_name)
            alphabet = pos[0].alphabet
            for n in (1, 2, 3, 4):
                instance = encoder.build_instance(n, pos, neg, seed=0)
                loaded = encoder.load_backend(instance)
                pool = VarPool()
                stream = (encoder.build_structural(pool, n, alphabet)
                          + encoder.build_normal_form(pool, n, alphabet))
                for m, struct in enumerate(pos + neg):
                    stream += self.structure_stream(pool, n, m, struct,
                                                    m >= len(pos))
                assert instance.clauses == stream
                fresh = CdclSolver(seed=0)
                fresh.load(stream, pool.count)
                self.same_state(loaded, fresh)

                assert loaded.solve() == fresh.solve()
                appended = self.structure_stream(pool, n, len(pos + neg),
                                                 extra, True)
                encoder.add_structure(instance, extra, negative=True)
                assert instance.clauses == stream + appended
                encoder.load_backend(instance)
                fresh.load(appended, pool.count)
                self.same_state(loaded, fresh)

                verdict = loaded.solve()
                assert verdict == fresh.solve()
                assert loaded._conflicts == fresh._conflicts
                if verdict:
                    assert loaded.values() == fresh.values()

    def test_build_path_is_the_append_path(self):
        """Negatives built into an instance and negatives appended to it
        afterwards give the same clauses and the same loaded solver."""
        for pos_names, neg_names, extra_name in self.SAMPLES:
            pos = [helpers.load_fixture(f) for f in pos_names]
            neg = [helpers.load_fixture(f)
                   for f in neg_names + [extra_name]]
            for n in (1, 2, 3, 4):
                built = encoder.build_instance(n, pos, neg)
                appended = encoder.build_instance(n, pos)
                for struct in neg:
                    encoder.add_structure(appended, struct, negative=True)
                assert built.clauses == appended.clauses
                self.same_state(encoder.load_backend(built),
                                encoder.load_backend(appended))

    def test_appends_wait_for_load_backend(self):
        """`build_instance` and the appends (`add_structure`,
        `add_rooted`, `add_block`) leave the instance's solver untouched;
        `load_backend` then loads the whole stream, the solver storing and
        propagating as a fresh solver of the same seed loaded with it, and
        a second call loads nothing."""
        for pos_names, neg_names, extra_name in self.SAMPLES:
            pos = [helpers.load_fixture(f) for f in pos_names]
            neg = [helpers.load_fixture(f) for f in neg_names]
            extra = helpers.load_fixture(extra_name)
            alphabet = pos[0].alphabet
            for n in (1, 2, 3, 4):
                instance = encoder.build_instance(n, pos, neg, seed=0,
                                                  rooted=[(0, 0)])
                encoder.add_structure(instance, extra, negative=True)
                encoder.add_rooted(instance, len(pos + neg), 0)
                pool = instance.pool
                encoder.add_block(instance, [pool.get("x", 1, alphabet[0])])
                self.same_state(instance._solver, CdclSolver(seed=0))
                fresh = CdclSolver(seed=0)
                fresh.load(instance.clauses, pool.count)
                loaded = encoder.load_backend(instance)
                self.same_state(loaded, fresh)
                assert encoder.load_backend(instance) is loaded
                self.same_state(loaded, fresh)

    # A digest of each sample's streams (`pinned_streams`), taken when the
    # encoder loaded each structure as soon as it was built.
    PINNED = {
        "diamond.kripke": "b5231fdc49f28e4f",
        "sink_q.kripke": "fc275f81c9d959c8",
        "two_init.kripke": "7f191ce067683352",
        "chain3.kripke": "94ba7e1957c66553",
        "selfloop_empty.kripke": "202ae1aac3ea870e",
        "mutex.kripke": "12bd19d3fc0dc66f",
    }

    @staticmethod
    def pinned_streams(pos, neg, extra):
        """At budgets 1-4: the instance built with `extra` as a last
        negative and two rooted negatives on it, then the instance built
        without it, and that instance once `extra`, the same rooted
        negatives and a block are appended."""
        alphabet = pos[0].alphabet
        m = len(pos + neg)
        rooted = [(m, extra.size - 1), (m, 0)]
        for n in (1, 2, 3, 4):
            built = encoder.build_instance(n, pos, neg + [extra], seed=0,
                                           rooted=rooted)
            yield built.num_vars, built.clauses
            instance = encoder.build_instance(n, pos, neg, seed=0)
            yield instance.num_vars, list(instance.clauses)
            encoder.add_structure(instance, extra, negative=True)
            for pair in rooted:
                encoder.add_rooted(instance, *pair)
            pool = instance.pool
            encoder.add_block(instance, [
                pool.get("x", 1, alphabet[0]),
                pool.get("x", n, alphabet[0] if n == 1 else ctl.Not)])
            yield instance.num_vars, instance.clauses

    def test_streams_match_pinned_digests(self):
        """Every clause, in order and literal for literal, and every
        variable count of the build and the append path are as pinned, so
        a change to how the streams are built or loaded moves none of
        them (the tests above compare the paths to `build_semantic`,
        which could itself change)."""
        got = {}
        for pos_names, neg_names, extra_name in self.SAMPLES:
            pos = [helpers.load_fixture(f) for f in pos_names]
            neg = [helpers.load_fixture(f) for f in neg_names]
            extra = helpers.load_fixture(extra_name)
            got[extra_name] = helpers.stream_digest(
                self.pinned_streams(pos, neg, extra))
        assert got == self.PINNED

    def test_no_clause_repeats_a_literal(self):
        """Self-loops put a state among its own successors; the step
        clauses still list each literal once."""
        fixtures = sorted(helpers.FIXTURES.glob("*.kripke"))
        for path in fixtures:
            struct = helpers.load_fixture(path.name)
            for n in (1, 2, 3):
                instance = encoder.build_instance(n, [struct])
                for clause in instance.clauses:
                    assert len(set(clause)) == len(clause), (path.name,
                                                             clause)


class TestSemantics:
    def test_pinned_formula_forces_checker_values(self):
        """With an admitted DAG pinned by unit clauses, every evaluation
        variable must equal the checker's satisfaction sets, node by
        node.  The DAG is an admitted numbering of the formula's normal
        form; a formula without one has no label variables to pin."""
        rng = random.Random(501)
        pinned = 0
        for _ in range(40):
            structures = [helpers.random_kripke(rng, max_states=3)
                          for _ in range(rng.randint(1, 2))]
            alphabet = structures[0].alphabet
            f = helpers.normal_form(helpers.random_enf(rng, alphabet, 3))
            dag = helpers.admitted_dag(f, alphabet)
            if dag is None:
                continue
            pinned += 1
            nodes = helpers.dag_formulas(dag)
            pool, backend = semantic_instance(structures, len(dag))
            helpers.pin_dag(backend, pool, dag)
            assert backend.solve()
            values = backend.values()
            for m_idx, struct in enumerate(structures):
                table = checker.sat_set_table(struct, nodes[-1])
                for i, sub in enumerate(nodes, start=1):
                    expected = table[sub]
                    for s in range(struct.size):
                        got = values[pool.get("y", m_idx, i, s) >> 1] == 1
                        assert got == (s in expected), (f, i, s)
        assert pinned > 30

    def test_step_variables_match_prefix_semantics(self):
        rng = random.Random(502)
        for _ in range(30):
            struct = helpers.random_kripke(rng, max_states=4)
            phi = ctl.Prop("p")
            psi = ctl.Prop("q")
            if rng.random() < 0.5:
                f = ctl.ExistsUntil(phi, psi)
            else:
                f = ctl.ExistsGlobally(phi)
            dag = helpers.dag_nodes(f)
            pool, backend = semantic_instance([struct], len(dag))
            helpers.pin_dag(backend, pool, dag)
            assert backend.solve()
            values = backend.values()
            phi_set = checker.sat_set_table(struct, phi)[phi]
            psi_set = checker.sat_set_table(struct, psi)[psi]
            root = len(dag)
            operand = "R" if isinstance(f, ctl.ExistsUntil) else "L"
            for k in range(1, struct.size + 2):
                if isinstance(f, ctl.ExistsUntil):
                    expected = helpers.eu_prefix(struct, phi_set, psi_set, k)
                else:
                    expected = helpers.eg_prefix(struct, phi_set, k)
                for s in range(struct.size):
                    homes = helpers.approximant_vars(
                        k, struct.size, pool.get(operand, 0, root, s),
                        lambda j: pool.get("ys", 0, root, s, j),
                        pool.get("y", 0, root, s))
                    for lit in homes:
                        assert (values[lit >> 1] == 1) == (s in expected), (
                            f, k, s)

    def test_unrolling_depth_reaches_the_fixed_points(self):
        """`lower_node`'s depth claim against the path-enumeration
        oracle: on |S| states, approximant |S| of EU and EG is already
        their fixed point, for every pair of operand sets, and some pairs
        need it (approximant |S| - 1 differs)."""
        rng = random.Random(503)
        short = 0
        for _ in range(60):
            struct = helpers.random_kripke(rng, max_states=5)
            n = struct.size
            subsets = [frozenset(s for s in range(n) if bits >> s & 1)
                       for bits in range(1 << n)]
            for phi in subsets:
                eg = [helpers.eg_prefix(struct, phi, k)
                      for k in range(max(n - 1, 1), n + 2)]
                assert eg[-2] == eg[-1]
                short += eg[0] != eg[-1]
                for psi in subsets:
                    eu = [helpers.eu_prefix(struct, phi, psi, k)
                          for k in range(max(n - 1, 1), n + 2)]
                    assert eu[-2] == eu[-1]
                    short += eu[0] != eu[-1]
        assert short > 0


class TestConsistency:
    def build_and_solve(self, n, pos, neg=()):
        instance = encoder.build_instance(n, pos, neg, seed=0)
        return instance, helpers.solve_instance(instance)

    def test_sat_iff_oracle_finds_consistent_formula(self):
        """An instance at budget n is satisfiable exactly when some
        consistent formula of size n lies in the normal form."""
        rng = random.Random(503)
        for _ in range(40):
            alphabet = ("p", "q")
            pos = [helpers.random_kripke(rng, 3, alphabet)
                   for _ in range(rng.randint(1, 2))]
            neg = [helpers.random_kripke(rng, 3, alphabet)
                   for _ in range(rng.randint(0, 2))]
            n = rng.randint(1, 3)
            by_oracle = any(
                helpers.consistent_by_oracle(f, pos, neg)
                for f in ctl.enumerate_formulas(alphabet, n)
                if ctl.size(f) == n and helpers.admitted_dag(f, alphabet))
            instance, assignment = self.build_and_solve(n, pos, neg)
            assert (assignment is not None) == by_oracle

    def test_decoded_formula_is_consistent(self):
        rng = random.Random(504)
        decoded = 0
        for _ in range(40):
            pos = [helpers.random_kripke(rng, 3)]
            neg = [helpers.random_kripke(rng, 3)
                   for _ in range(rng.randint(0, 1))]
            instance, assignment = self.build_and_solve(rng.randint(1, 3),
                                                        pos, neg)
            if assignment is None:
                continue
            decoded += 1
            f = encoder.decode_with_literals(assignment, instance)[0]
            assert helpers.consistent_by_oracle(f, pos, neg)
        assert decoded > 10

    def test_unsat_for_contradictory_sample(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        for n in (1, 2, 3):
            _, assignment = self.build_and_solve(n, [m], [m])
            assert assignment is None


class TestBlocking:
    def test_blocks_exact_formula(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        instance = encoder.build_instance(1, [m], seed=0)
        pool, loaded = instance.pool, instance.num_clauses
        encoder.add_block(instance, helpers.dag_literals(
            pool, helpers.dag_nodes(ctl.Prop("p"))))
        assert [tuple(map(helpers.signed, clause))
                for clause in instance.clauses[loaded:]] == [
                    (-helpers.signed(pool.get("x", 1, "p")),)]
        # p was the only size-1 candidate.
        assert helpers.solve_instance(instance) is None

    def test_enumeration_by_blocking(self):
        """Blocking each decoded DAG enumerates, budget by budget, every
        consistent normal-form formula exactly once, and every other
        consistent formula has an admitted equivalent among them."""
        m = helpers.load_fixture("two_state_pq.kripke")
        seen = []
        for n in (1, 2, 3):
            instance = encoder.build_instance(n, [m], seed=1)
            for _ in range(30):
                backend = encoder.load_backend(instance)
                if not backend.solve():
                    break
                f, lits = encoder.decode_with_literals(backend.values(),
                                                       instance)
                assert ctl.size(f) == n
                assert f not in seen
                assert helpers.naive_holds(m, f)
                seen.append(f)
                encoder.add_block(instance, lits)
            else:
                pytest.fail("blocking never exhausted the budget")
        holding = [f for f in ctl.enumerate_formulas(m.alphabet, 3)
                   if helpers.naive_holds(m, f)]
        assert set(seen) == {f for f in holding
                             if helpers.admitted_dag(f, m.alphabet)}
        canonical = {helpers.commuted(f) for f in seen}
        for f in holding:
            assert helpers.normal_form(f) in canonical, f


def several_initial(rng, alphabet):
    """A random structure of 2-3 states with at least two initial ones."""
    m = helpers.random_kripke(rng, 3, alphabet, min_states=2)
    return KripkeStructure(
        alphabet=m.alphabet, state_names=m.state_names,
        initial=frozenset(rng.sample(range(m.size), rng.randint(2, m.size))),
        labels=m.labels, successors=m.successors)


def blocked_formulas(instance):
    """Every formula the instance admits, one blocked DAG at a time; each
    admitted formula has one admitted numbering."""
    found = set()
    while (backend := encoder.load_backend(instance)).solve():
        f, lits = encoder.decode_with_literals(backend.values(), instance)
        assert f not in found, f
        found.add(f)
        encoder.add_block(instance, lits)
    return found


class TestOneSidedRoot:
    def test_blocking_matches_the_oracle_and_the_two_sided_stream(self):
        """The differential check of the root's polarity: on samples
        whose negatives have several initial states, blocking enumeration
        at budgets 1-3 decodes exactly the admitted formulas of the
        budget's size that the naive checker finds consistent, and the
        same set as the two-sided stream (`build_semantic` by default,
        then the consistency clauses)."""
        rng = random.Random(507)
        alphabet = ("p", "q")
        formulas = helpers._enf_formulas(alphabet, 3)
        found = 0
        for _ in range(10):
            pos = [helpers.random_kripke(rng, 3, alphabet)
                   for _ in range(rng.randint(0, 2))]
            neg = [several_initial(rng, alphabet)
                   for _ in range(rng.randint(1, 2))]
            for n in (1, 2, 3):
                expected = {f for f in formulas if ctl.size(f) == n
                            and helpers.admitted_dag(f, alphabet)
                            and helpers.consistent_by_oracle(f, pos, neg)}
                instance = encoder.build_instance(n, pos, neg, seed=4)
                assert blocked_formulas(instance) == expected, n
                pool = VarPool()
                two_sided = encoder.EncodingInstance(
                    n, alphabet, pool,
                    encoder.build_structural(pool, n, alphabet)
                    + encoder.build_normal_form(pool, n, alphabet), seed=4)
                for m, struct in enumerate(pos + neg):
                    clauses = encoder.build_semantic(pool, n, m, struct)
                    roots = [pool.get("y", m, n, s)
                             for s in sorted(struct.initial)]
                    if m < len(pos):
                        clauses += [(lit,) for lit in roots]
                    else:
                        clauses.append(tuple(lit ^ 1 for lit in roots))
                    two_sided.clauses += clauses
                assert blocked_formulas(two_sided) == expected, n
                found += len(expected)
        assert found > 20


class TestRootedNegatives:
    def test_blocking_matches_the_oracle_on_both_paths(self):
        """The differential check of `add_rooted`: on random samples with
        rooted negatives at random states (of a positive with one initial
        state and of a negative, initial or not), each handed over once,
        as `learner.CandidateSearch` hands them, blocking enumeration at
        budgets 1-3 decodes exactly the admitted formulas of the budget's
        size that the naive checker finds consistent and false at every
        rooted state.  That holds with the rooted negatives built into the
        instance and appended to it after a solve, and both paths append
        the same clauses: each rooted negative the one unit clause
        -y(m, n, s)."""
        rng = random.Random(3102)
        alphabet = ("p", "q")
        formulas = helpers._enf_formulas(alphabet, 3)
        found = 0
        for _ in range(24):
            m = helpers.random_kripke(rng, 3, alphabet, min_states=3)
            pos = [KripkeStructure(
                alphabet=m.alphabet, state_names=m.state_names,
                initial=frozenset({0}), labels=m.labels,
                successors=m.successors)]
            neg = [helpers.random_kripke(rng, 3, alphabet)
                   for _ in range(rng.randint(0, 1))]
            structures = pos + neg
            rooted = [(0, rng.randrange(3)) for _ in range(rng.randint(1, 2))]
            if neg:
                rooted.append((1, rng.randrange(neg[0].size)))
            rooted = list(dict.fromkeys(rooted))
            for n in (1, 2, 3):
                expected = {
                    f for f in formulas if ctl.size(f) == n
                    and helpers.admitted_dag(f, alphabet)
                    and helpers.consistent_by_oracle(f, pos, neg)
                    and not any(s in helpers.naive_sat(structures[m], f)
                                for m, s in rooted)}
                built = encoder.build_instance(n, pos, neg, seed=5,
                                               rooted=rooted)
                appended = encoder.build_instance(n, pos, neg, seed=5)
                encoder.load_backend(appended).solve()
                for m, s in rooted:
                    before = len(appended.clauses)
                    encoder.add_rooted(appended, m, s)
                    assert [tuple(map(helpers.signed, clause)) for clause
                            in appended.clauses[before:]] == [
                        (-helpers.signed(appended.pool.get("y", m, n, s)),)]
                assert built.clauses == appended.clauses
                for instance in (built, appended):
                    assert blocked_formulas(instance) == expected, n
                found += len(expected)
        assert found > 20

    def test_a_positive_added_after_a_negative_keeps_its_index(self):
        """Structure m is the m-th structure added, whatever its sign: on
        a negative built into the instance and a positive appended after
        it, rooted negatives at the positive's states admit exactly the
        formulas the naive checker finds consistent and false there."""
        chain = helpers.load_fixture("chain3.kripke")
        pq = helpers.load_fixture("two_state_pq.kripke")
        formulas = helpers._enf_formulas(pq.alphabet, 3)
        rng = random.Random(3207)
        samples = [([chain], pq)] + [
            ([helpers.random_kripke(rng, 3)],
             helpers.random_kripke(rng, 3, min_states=2)) for _ in range(8)]
        found = 0
        for neg, pos in samples:
            states = [s for s in range(pos.size) if s not in pos.initial]
            for n in (1, 2, 3):
                expected = {
                    f for f in formulas if ctl.size(f) == n
                    and helpers.admitted_dag(f, pq.alphabet)
                    and helpers.consistent_by_oracle(f, [pos], neg)
                    and not helpers.naive_sat(pos, f) & set(states)}
                instance = encoder.build_instance(n, [], neg, seed=6)
                encoder.add_structure(instance, pos, negative=False)
                for s in states:
                    encoder.add_rooted(instance, 1, s)
                assert instance.structures == (neg[0], pos)
                assert blocked_formulas(instance) == expected, n
                found += len(expected)
        assert found > 5


class TestDecode:
    def test_value_array_decodes_as_the_model(self):
        """The solver's value array, which the learner decodes, gives a
        DAG of the budget's size by literals it makes true, one label
        each node in node order: the true label variables, over every
        numbering of budgets 1-3 on one sample."""
        pos = [helpers.load_fixture("diamond.kripke")]
        neg = [helpers.load_fixture("chain3.kripke")]
        decoded = 0
        for n in (1, 2, 3):
            instance = encoder.build_instance(n, pos, neg, seed=1)
            labels = [lit for key, lit in instance.pool.semantic_items()
                      if key[0] == "x"]
            while (backend := encoder.load_backend(instance)).solve():
                values = backend.values()
                got = encoder.decode_with_literals(values, instance)
                assert ctl.size(got[0]) == n
                assert all(values[lit >> 1] == 1 for lit in got[1])
                assert [lit for lit in got[1] if lit in labels] == [
                    lit for lit in labels if values[lit >> 1] == 1]
                encoder.add_block(instance, got[1])
                decoded += 1
        assert decoded > 5

    def test_roundtrip_via_assumptions(self):
        """Pinning the admitted DAG of a formula's normal form with unit
        clauses decodes to that formula when it holds; a numbering outside
        the normal form names a label variable the instance does not
        have, or, where it has them all, admits no model."""
        rng = random.Random(505)
        m = helpers.load_fixture("full2.kripke")
        outside = 0
        for _ in range(40):
            f = helpers.normal_form(helpers.random_enf(rng, m.alphabet, 3))
            instance = encoder.build_instance(ctl.size(f), [m], [], seed=2)
            backend = encoder.load_backend(instance)
            dag = helpers.admitted_dag(f, m.alphabet)
            if dag is None:
                outside += 1
                try:
                    helpers.pin_dag(backend, instance.pool,
                                    helpers.dag_nodes(f))
                except KeyError:
                    continue
                assert not backend.solve()
                continue
            helpers.pin_dag(backend, instance.pool, dag)
            if not backend.solve():
                # f does not hold on the structure; consistency rules
                # it out, which is fine for the roundtrip test.
                assert not helpers.naive_holds(m, f)
                continue
            decoded = encoder.decode_with_literals(backend.values(), instance)
            assert decoded[0] == f
        assert 0 < outside < 40


@functools.lru_cache(maxsize=None)
def decoded_formulas(n, alphabet):
    """Every formula the structural and normal-form clauses admit at
    budget n, decoded one blocked DAG at a time."""
    pool = VarPool()
    clauses = (encoder.build_structural(pool, n, alphabet)
               + encoder.build_normal_form(pool, n, alphabet))
    instance = encoder.EncodingInstance(n, alphabet, pool, clauses, seed=3)
    found = []
    while (backend := encoder.load_backend(instance)).solve():
        f, lits = encoder.decode_with_literals(backend.values(), instance)
        found.append(f)
        encoder.add_block(instance, lits)
    return tuple(found)


def rule_sides(rule):
    """psi and phi of a `REWRITE_RULES` row "psi = phi", over
    propositions named after its metavariables."""
    psi, phi = rule.split(" = ")
    return ctl.parse_ctl(psi), ctl.parse_ctl(phi)


class TestRewriteRules:
    def test_every_row_is_proved_by_the_tableau(self):
        """Each row's phi is a proper subterm of its psi, and the tableau
        refutes psi xor phi; the three rules the normal form once wrote by
        hand are rows."""
        assert len(encoder.REWRITE_RULES) == 38
        for rule in encoder.REWRITE_RULES:
            psi, phi = rule_sides(rule)
            assert phi in ctl.subterms(psi)[:-1], rule
            assert helpers.equivalent(psi, phi), rule
        assert {"E[a U a] = a", "!!a = a",
                "EG EG a = EG a"} <= set(encoder.REWRITE_RULES)

    def test_the_table_is_the_derived_one(self):
        """Enumerating the schemas again and proving each by the tableau
        (`helpers.derived_rules`) gives the committed table, row for row,
        printed as "psi = phi"."""
        assert list(encoder.REWRITE_RULES) == [
            f"{ctl.print_ctl(psi)} = {ctl.print_ctl(phi)}"
            for psi, phi in helpers.derived_rules()]

    def test_rule_clauses_match_the_pinned_digest(self):
        """The rule clauses of budgets 1-7, every key in order with the
        operator labels under their DIMACS names, are as pinned, so a
        change to how the rules are written or placed moves no clause."""
        digest = hashlib.sha256()
        for n in range(1, 8):
            rendered = tuple(
                tuple(tuple(encoder._LABEL_NAMES.get(part, part)
                            for part in key) for key in clause)
                for clause in encoder._rule_clauses(n))
            digest.update(repr(rendered).encode())
        assert digest.hexdigest() == (
            "f2d85c601718dcfb272e6622320a795775a48d47c4651c2bddd367d5dbd93c83")

    def test_placements_leave_no_reference_cycle(self):
        """Placing every rule at budgets 1-5 leaves nothing for the cycle
        collector: the recursion takes its state as arguments, not as
        closure cells of a self-calling function."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            placed = 0
            for n in range(1, 6):
                placed += len(encoder._rule_clauses.__wrapped__(n))
            garbage = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert placed > 0
        assert garbage == 0


class TestNormalForm:
    ALPHABET = ("p", "q")

    def test_against_the_rewrites(self):
        """Budgets 1-3 over (p, q): every admitted formula has exactly the
        budget's size, no two are commuted twins, and every formula is
        admitted up to commuting `&`/`|` or rewrites to a smaller one
        that is; the rewrites, rule instances included, keep the
        semantics."""
        decoded = {n: decoded_formulas(n, self.ALPHABET) for n in (1, 2, 3)}
        canonical = set()
        for n, found in decoded.items():
            assert {ctl.size(f) for f in found} <= {n}
            twins = {helpers.commuted(f) for f in found}
            assert len(twins) == len(found), n
            canonical |= twins
        rng = random.Random(506)
        structures = [helpers.random_kripke(rng, 4, self.ALPHABET)
                      for _ in range(60)]
        rewritten = 0
        for f in ctl.enumerate_formulas(self.ALPHABET, 3):
            g = helpers.normal_form(f)
            assert g in canonical, f
            if g == helpers.commuted(f):
                continue
            rewritten += 1
            assert ctl.size(g) < ctl.size(f), f
            for m in structures:
                assert helpers.naive_holds(m, f) == helpers.naive_holds(m, g)
        assert rewritten > 0

    def test_decoded_formulas_are_the_admitted_ones(self):
        """The differential check of the label domains and the rule
        table: budgets 1-4 over (p, q) and over (p) decode exactly the
        formulas of the budget's size that the normal form before the
        rules admits (found by trying every numbering), less those with a
        subterm that a derived rule matches."""
        for alphabet in (self.ALPHABET, ("p",)):
            formulas = helpers._enf_formulas(alphabet, 4)
            excluded = 0
            for n in (1, 2, 3, 4):
                before = {f for f in formulas if ctl.size(f) == n
                          and helpers.admitted_dag(f, alphabet, rules=False)}
                expected = {f for f in before
                            if not helpers.has_rule_instance(f)}
                excluded += len(before) - len(expected)
                assert set(decoded_formulas(n, alphabet)) == expected, n
            assert excluded > 0

    @pytest.mark.parametrize("alphabet", [ALPHABET, ("p",)])
    def test_excluded_formulas_have_admitted_equivalents(self, alphabet):
        """Every formula of size <= 4 that a rule excludes from the normal
        form before the rules has a decoded equivalent of smaller size:
        its `helpers.normal_form`, which the tableau proves equivalent."""
        decoded = {helpers.commuted(f) for n in (1, 2, 3, 4)
                   for f in decoded_formulas(n, alphabet)}
        excluded = [f for f in helpers._enf_formulas(alphabet, 4)
                    if helpers.admitted_dag(f, alphabet, rules=False)
                    and helpers.has_rule_instance(f)]
        assert excluded
        for f in excluded:
            g = helpers.normal_form(f)
            assert g in decoded and ctl.size(g) < ctl.size(f), f
            assert helpers.equivalent(f, g), f


class TestDimacsExport:
    def test_header_matches_instance(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        instance = encoder.build_instance(2, [m])
        text = encoder.to_dimacs(instance)
        lines = text.splitlines()
        comments = [l for l in lines if l.startswith("c ")]
        body = [l for l in lines if l and not l.startswith(("c", "p"))]
        header = next(l for l in lines if l.startswith("p cnf"))
        _, _, num_vars, num_clauses = header.split()
        assert int(num_vars) == instance.num_vars
        assert int(num_clauses) == instance.num_clauses == len(body)
        # Semantic variables are documented in the comment header.
        assert any(l.startswith("c x 1 p ") for l in comments)
        assert any(l.startswith("c y 0 ") for l in comments)
        # The body and the header's variable numbers are signed.
        assert body == [" ".join(str(helpers.signed(lit)) for lit in clause)
                        + " 0" for clause in instance.clauses]
        assert (f"c x 1 p {helpers.signed(instance.pool.get('x', 1, 'p'))}"
                in comments)
