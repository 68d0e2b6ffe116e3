import random

import pytest

import helpers
from ctlinfer import checker, ctl, encoder, kripke, learner
from ctlinfer.kripke import KripkeStructure
from ctlinfer.learner import NoConsistentFormula, Sample


def two_cycle_p():
    return kripke.validate(
        props=["p"], states=["a", "b"], init=["a"],
        labels={"a": ["p"], "b": ["p"]}, trans={"a": ["b"], "b": ["a"]})


def sample_of(pos_names, neg_names=()):
    return Sample(
        positives=tuple(helpers.load_fixture(n) for n in pos_names),
        negatives=tuple(helpers.load_fixture(n) for n in neg_names))


class TestSample:
    def test_alphabet_must_agree(self):
        with pytest.raises(learner.AlphabetMismatch):
            sample_of(["selfloop_p.kripke"], ["mutex.kripke"])

    def test_conflict_detection_is_isomorphism_aware(self):
        a = helpers.load_fixture("selfloop_p.kripke")
        renamed = KripkeStructure(
            alphabet=a.alphabet, state_names=("other",),
            initial=a.initial, labels=a.labels, successors=a.successors)
        assert Sample((a,), (renamed,)).has_conflict()
        # Not isomorphic, but bisimilar: no formula separates them.
        assert Sample((a,), (two_cycle_p(),)).has_conflict()
        assert not sample_of(["selfloop_p.kripke"],
                             ["selfloop_empty.kripke"]).has_conflict()

    def test_conflict_needs_every_initial_state_covered(self):
        loop = helpers.load_fixture("selfloop_p.kripke")
        empty = helpers.load_fixture("selfloop_empty.kripke")
        both = kripke.validate(
            props=["p"], states=["a", "b"], init=["a", "b"],
            labels={"a": ["p"]}, trans={"a": ["a"], "b": ["b"]})
        assert not Sample((loop,), (both,)).has_conflict()
        assert Sample((loop, empty), (both,)).has_conflict()

    def test_positives_only_sample_runs_no_bisimulation(self, monkeypatch):
        def forbidden(structures):
            raise AssertionError("a sample without negatives was refined")

        monkeypatch.setattr(learner, "bisimulation_classes", forbidden)
        assert not sample_of(["selfloop_p.kripke",
                              "selfloop_empty.kripke"]).has_conflict()
        result = learner.learn_minimal(sample_of(["two_state_pq.kripke"]), 2)
        assert result.formula == ctl.Prop("p")

    def test_conflicts_have_no_separating_formula(self):
        rng = random.Random(2024)
        conflicts = 0
        for _ in range(150):
            pos = [helpers.random_kripke(rng, 2, ("p",))
                   for _ in range(rng.randint(1, 2))]
            neg = [helpers.random_kripke(rng, 2, ("p",))
                   for _ in range(rng.randint(1, 2))]
            if Sample(tuple(pos), tuple(neg)).has_conflict():
                conflicts += 1
                assert helpers.brute_force_minimum(pos, neg, 3) is None
        assert conflicts >= 10

    def test_needs_a_structure(self):
        with pytest.raises(ValueError):
            Sample(positives=())


class TestLearnMinimal:
    def test_single_proposition(self):
        result = learner.learn_minimal(
            sample_of(["selfloop_p.kripke"], ["selfloop_empty.kripke"]), 3)
        assert result.formula == ctl.Prop("p")
        assert result.size == 1
        assert [b.satisfiable for b in result.budgets] == [True]

    def test_budget_trace_format(self):
        result = learner.learn_minimal(
            sample_of(["two_state_pq.kripke", "chain3.kripke"],
                      ["cycle2.kripke"]), 4, seed=7)
        lines = [b.describe() for b in result.budgets]
        assert lines[0] == "budget 1: UNSAT (enumerated)"
        assert lines[-1].startswith(f"budget {result.size}: SAT (vars=")
        for budget, line in zip(result.budgets, lines):
            verdict = "SAT" if budget.satisfiable else "UNSAT"
            if budget.size <= learner.CHECK_CAP:
                # Decided by the checker: no CNF was built.
                assert budget.variables == budget.clauses == 0
                assert line == f"budget {budget.size}: {verdict} (enumerated)"
                continue
            assert line == (f"budget {budget.size}: {verdict} "
                            f"(vars={budget.variables}, "
                            f"clauses={budget.clauses})")

    def test_result_is_consistent_and_minimal(self):
        rng = random.Random(610)
        for _ in range(25):
            pos = [helpers.random_kripke(rng, 3) for _ in range(2)]
            neg = [helpers.random_kripke(rng, 3)
                   for _ in range(rng.randint(0, 2))]
            sample = Sample(tuple(pos), tuple(neg))
            oracle = helpers.brute_force_minimum(pos, neg, 3)
            try:
                result = learner.learn_minimal(sample, 3, seed=0)
            except NoConsistentFormula:
                assert oracle is None
                continue
            assert oracle is not None
            assert result.size == oracle[0]
            assert helpers.consistent_by_oracle(result.formula, pos, neg)

    def test_contradictory_sample_raises(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        with pytest.raises(NoConsistentFormula) as err:
            learner.learn_minimal(Sample((m,), (m,)), 3)
        assert err.value.budgets == []

    def test_bisimilar_negative_raises_without_solving(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("the solver must not be started")

        monkeypatch.setattr(encoder, "CdclSolver", no_solver)
        sample = Sample((helpers.load_fixture("selfloop_p.kripke"),),
                        (two_cycle_p(),))
        with pytest.raises(NoConsistentFormula) as err:
            learner.learn_minimal(sample, 5)
        assert err.value.budgets == []

    def test_exhausted_budgets_raise_with_trace(self):
        # No size-1 formula separates these: p holds on both structures
        # and q fails on the positive one.
        hard = sample_of(["two_state_pq.kripke"], ["sink_q.kripke"])
        with pytest.raises(NoConsistentFormula) as err:
            learner.learn_minimal(hard, 1)
        assert [t.satisfiable for t in err.value.budgets] == [False]

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            learner.learn_minimal(sample_of(["selfloop_p.kripke"]), 0)

    def test_negatives_only_sample(self):
        """The alphabet comes from the sample, which has no positive."""
        result = learner.learn_minimal(
            sample_of([], ["selfloop_p.kripke"]), 3, seed=0)
        assert result.formula == ctl.parse_ctl("!p")
        assert [b.describe() for b in result.budgets] == [
            "budget 1: UNSAT (enumerated)",
            "budget 2: SAT (enumerated)"]


def record_decodes(monkeypatch):
    """The list every later `decode_with_literals` result is appended to."""
    decoded = []
    decode = encoder.decode_with_literals

    def recording(assignment, instance):
        got = decode(assignment, instance)
        decoded.append(got)
        return got

    monkeypatch.setattr(encoder, "decode_with_literals", recording)
    return decoded


def discard_checked_budgets(state):
    """Discard every formula of size <= `learner.CHECK_CAP`, so the
    search's first answer comes from a CNF instance."""
    alphabet = state.sample.structures[0].alphabet
    for formula in ctl.enumerate_formulas(alphabet, learner.CHECK_CAP):
        state.discard(formula)


def search(model, bound, negatives=(), discarded=(), seed=None):
    """One `infer_candidate` call on a fresh search."""
    state = learner.CandidateSearch(Sample((model,), tuple(negatives)),
                                    bound, seed)
    for formula in discarded:
        state.discard(formula)
    return learner.infer_candidate(state)


class TestInferCandidate:
    def test_discarded_formulas_are_avoided(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        p = ctl.Prop("p")
        state = learner.CandidateSearch(Sample((m,)), 2, seed=3)
        first = learner.infer_candidate(state)
        assert first is not None and first.formula == p
        state.discard(p)
        second = learner.infer_candidate(state)
        assert second is not None
        assert second.formula != p
        assert second.size == 2
        assert helpers.naive_holds(m, second.formula)

    def test_discarding_embedded_formula_at_larger_budget(self):
        """A discarded size-1 formula is not returned from budget 2."""
        m = helpers.load_fixture("selfloop_p.kripke")
        p = ctl.Prop("p")
        for seed in range(8):
            got = search(m, 2, discarded=(p,), seed=seed)
            assert got is not None
            assert got.formula != p

    @staticmethod
    def pinned_twins():
        """A budget-4 instance admitting only E[!p U EX p] and
        E[EX p U !p], with one numbering of each blocked.  Nodes 2 and 3
        may swap numbers when both read only node 1, so each twin has two
        admitted DAGs, and one of each is left.  Both twins hold on the
        structure: its initial state has no p and a p successor."""
        m = kripke.parse_kripke(
            "kripke\nprops: p\nstates: s0 s1\ninit: s0\n"
            "labels: s0: ; s1: p\ntrans: s0 -> s1 ; s1 -> s1\n")
        twins = [ctl.parse_ctl("E[!p U EX p]"),
                 ctl.parse_ctl("E[EX p U !p]")]
        instance = encoder.build_instance(4, [m], seed=0)
        pool = instance.pool
        pinned = [(pool.get("x", 4, ctl.ExistsUntil),)]
        for i in (2, 3):
            pinned.append((pool.get("x", i, ctl.ExistsNext),
                           pool.get("x", i, ctl.Not)))
            pinned.append((pool.get("l", i, 1),))
        instance.clauses += pinned
        for f in twins:
            encoder.add_block(instance, helpers.dag_literals(
                pool, helpers.admitted_dag(f, m.alphabet)))
        return instance, twins

    def test_renumbered_discard_is_reblocked(self, monkeypatch):
        """Discarding both twins leaves their unblocked DAGs: each is
        decoded once, re-blocked, and the budget ends UNSAT."""
        instance, twins = self.pinned_twins()
        decoded = record_decodes(monkeypatch)
        formula, lits, trace = learner._solve_budget(instance, set(twins))
        assert formula is None and lits == [] and not trace.satisfiable
        assert sorted((f for f, _ in decoded), key=ctl.print_ctl) == twins

    def test_reblocks_are_counted(self):
        """Re-block clauses go to `instance.clauses`, so the trace and the
        DIMACS export count them."""
        instance, twins = self.pinned_twins()
        loaded = instance.num_clauses
        _, _, trace = learner._solve_budget(instance, set(twins))
        assert instance.num_clauses == trace.clauses == loaded + 2
        header = next(line for line in
                      encoder.to_dimacs(instance).splitlines()
                      if line.startswith("p cnf"))
        assert header == f"p cnf {instance.num_vars} {loaded + 2}"

    def test_discard_blocks_the_decoded_numbering(self, monkeypatch):
        """Discarding the candidate just returned adds one clause to the
        live instance, the negated literals it was decoded with, and the
        next call never decodes that formula again."""
        m = helpers.load_fixture("two_state_pq.kripke")
        decoded = record_decodes(monkeypatch)
        state = learner.CandidateSearch(Sample((m,)), 3, seed=1)
        discard_checked_budgets(state)
        first = learner.infer_candidate(state)
        assert first is not None
        formula, lits = decoded[-1]
        assert formula == first.formula
        instance = state._live
        loaded = instance.num_clauses
        state.discard(formula)
        assert [tuple(map(helpers.signed, clause))
                for clause in instance.clauses[loaded:]] == [
                    tuple(-helpers.signed(lit) for lit in lits)]
        decoded.clear()
        second = learner.infer_candidate(state)
        assert second is not None and second.formula != formula
        assert decoded and formula not in [f for f, _ in decoded]

    def test_negatives_and_discards_together(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        neg = helpers.load_fixture("selfloop_empty.kripke")
        discarded = (ctl.Prop("p"), ctl.ExistsGlobally(ctl.Prop("p")))
        got = search(m, 2, negatives=(neg,), discarded=discarded, seed=1)
        assert got is not None
        f = got.formula
        assert f not in discarded
        assert helpers.naive_holds(m, f)
        assert not helpers.naive_holds(neg, f)

    def test_none_when_space_exhausted(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        neg = helpers.load_fixture("selfloop_empty.kripke")
        # Discarding every size-<=2 separator leaves nothing to find.
        separators = [
            f for f in ctl.enumerate_formulas(("p",), 2)
            if helpers.naive_holds(m, f) and not helpers.naive_holds(neg, f)
        ]
        got = search(m, 2, negatives=(neg,), discarded=tuple(separators),
                     seed=0)
        assert got is None

    def test_conflicting_negative_returns_none(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        assert search(m, 2, negatives=(m,)) is None

    def test_conflicting_sample_builds_no_instance(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a conflicting search built an instance")

        monkeypatch.setattr(encoder, "build_instance", no_build)
        m = helpers.load_fixture("selfloop_p.kripke")
        state = learner.CandidateSearch(Sample((m,), (m,)), 3)
        assert learner.infer_candidate(state) is None
        assert learner.infer_candidate(state) is None

    def test_bisimilar_negative_added_later_returns_none(self, monkeypatch):
        """`add_negative` skips the conflict check, and the budgets' UNSAT
        answers reach the same None."""
        m = helpers.load_fixture("selfloop_p.kripke")
        state = learner.CandidateSearch(Sample((m,)), 3, seed=0)
        assert learner.infer_candidate(state).formula == ctl.Prop("p")

        def no_check(sample):
            raise AssertionError("add_negative checked for a conflict")

        monkeypatch.setattr(Sample, "has_conflict", no_check)
        state.add_negative(two_cycle_p())
        assert learner.infer_candidate(state) is None
        # p is no longer the last candidate, and no solver is live.
        state.discard(ctl.Prop("p"))

    def test_rejects_bad_bound(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        with pytest.raises(ValueError):
            learner.CandidateSearch(Sample((m,)), 0)

    def test_rooted_negatives_reach_the_live_and_every_later_budget(self):
        """Rooted negatives added after the first answer, then a discard of
        every answer: the search returns exactly the admitted formulas of
        size <= 3 that hold on the model and fail at every rooted state,
        each once and smallest first, from the live budget and from the
        budgets built after it."""
        alphabet = ("p", "q")
        formulas = helpers._enf_formulas(alphabet, 3)
        rng = random.Random(3103)
        answers = 0
        for _ in range(10):
            m = helpers.random_kripke(rng, 3, alphabet, min_states=3)
            model = KripkeStructure(
                alphabet=m.alphabet, state_names=m.state_names,
                initial=frozenset({0}), labels=m.labels,
                successors=m.successors)
            state = learner.CandidateSearch(Sample((model,)), 3, seed=0)
            first = learner.infer_candidate(state).formula
            rooted = rng.sample([(0, 1), (0, 2)], rng.randint(1, 2))
            for m, s in rooted:
                state.add_rooted(m, s)
            state.discard(first)
            seen = []
            while (found := learner.infer_candidate(state)) is not None:
                seen.append(found.formula)
                state.discard(found.formula)
            expected = {f for f in formulas
                        if f != first and helpers.admitted_dag(f, alphabet)
                        and helpers.naive_holds(model, f)
                        and not any(s in helpers.naive_sat(model, f)
                                    for _, s in rooted)}
            assert len(seen) == len(set(seen))
            assert set(seen) == expected
            sizes = [ctl.size(f) for f in seen]
            assert sizes == sorted(sizes)
            answers += len(seen)
        assert answers > 20

    def test_a_repeated_rooted_negative_is_held_once(self, monkeypatch):
        """The search is the one record of rooted negatives: a pair it
        holds appends no clause to the live instance when added again, and
        the next budget's instance replays each pair once, in the order
        first added, as a fresh build handed each pair once does."""
        model = helpers.load_fixture("chain3.kripke")
        state = learner.CandidateSearch(Sample((model,)), 4, seed=0)
        discard_checked_budgets(state)
        found = learner.infer_candidate(state)
        assert found.size == 3
        assert state.add_rooted(0, 2) is True
        assert state.add_rooted(0, 1) is True
        live = state._live
        loaded = len(live.clauses)

        def no_append(instance, m, s):
            raise AssertionError("a held rooted negative was appended again")

        monkeypatch.setattr(encoder, "add_rooted", no_append)
        assert state.add_rooted(0, 2) is False
        monkeypatch.undo()
        assert len(live.clauses) == loaded
        assert list(state.rooted) == [(0, 2), (0, 1)]
        while found.size == 3:
            state.discard(found.formula)
            found = learner.infer_candidate(state)
        assert found.size == 4 and state._live is not live
        fresh = encoder.build_instance(4, (model,), seed=0,
                                       rooted=[(0, 2), (0, 1)])
        assert state._live.clauses == fresh.clauses

    def test_persistent_search_matches_fresh_searches(self):
        """Negatives and discards arrive one at a time, as in the CEG loop;
        after each step the persistent answer keeps the contract, and its
        size is the minimum a fresh search finds with the same input."""
        rng = random.Random(909)
        steps = answers = 0
        while steps < 120:
            model = helpers.random_kripke(rng, 3, min_states=2)
            bound = rng.randint(2, 3)
            state = learner.CandidateSearch(Sample((model,)), bound, seed=0)
            negatives, discarded = [], []
            last = None
            for _ in range(12):
                if last is not None and rng.random() < 0.7:
                    discarded.append(last.formula)
                    state.discard(discarded[-1])
                elif rng.random() < 0.5:
                    discarded.append(helpers.random_enf(rng, ("p", "q"),
                                                        bound))
                    state.discard(discarded[-1])
                else:
                    negatives.append(helpers.random_kripke(
                        rng, 3, min_states=2))
                    state.add_negative(negatives[-1])
                steps += 1
                last = learner.infer_candidate(state)
                fresh = search(model, bound, list(negatives),
                               list(discarded), seed=steps)
                assert (last is None) == (fresh is None), steps
                if last is None:
                    break
                answers += 1
                f = last.formula
                assert last.size == ctl.size(f) == fresh.size, steps
                assert f not in discarded, steps
                assert helpers.naive_holds(model, f), steps
                assert not any(helpers.naive_holds(neg, f)
                               for neg in negatives), steps
        assert answers >= 60


def normal_form_formulas(n, alphabet):
    """Every formula the structural and normal-form clauses of budget n
    admit over `alphabet`, one blocked DAG at a time, with no structure."""
    pool = encoder.VarPool()
    clauses = encoder.build_structural(pool, n, alphabet)
    clauses += encoder.build_normal_form(pool, n, alphabet)
    instance = encoder.EncodingInstance(n, alphabet, pool, clauses, seed=0)
    found = []
    while (solver := encoder.load_backend(instance)).solve():
        f, lits = encoder.decode_with_literals(solver.values(), instance)
        found.append(f)
        encoder.add_block(instance, lits)
    return found


def random_search_input(rng, alphabet=("p", "q")):
    """Random positives, negatives and rooted negatives over `alphabet`."""
    pos = [helpers.random_kripke(rng, 3, alphabet)
           for _ in range(rng.randint(1, 2))]
    neg = [helpers.random_kripke(rng, 3, alphabet)
           for _ in range(rng.randint(0, 2))]
    structures = pos + neg
    rooted = []
    for _ in range(rng.randint(0, 2)):
        m = rng.randrange(len(structures))
        rooted.append((m, rng.randrange(structures[m].size)))
    return pos, neg, list(dict.fromkeys(rooted))


class TestCheckedBudgets:
    """Budgets up to `learner.CHECK_CAP` are decided by the checker."""

    @pytest.mark.parametrize("alphabet", [("p",), ("p", "q"),
                                          ("p", "q", "r")],
                             ids=lambda a: f"{len(a)}props")
    def test_candidates_are_what_the_normal_form_admits(self, alphabet):
        k = len(alphabet)
        assert learner.CHECK_CAP == 2
        for n, count in ((1, k), (2, 3 * k)):
            candidates = learner._checked_candidates(n, alphabet)
            assert len(candidates) == len(set(candidates)) == count
            decoded = normal_form_formulas(n, alphabet)
            assert len(decoded) == count
            assert set(decoded) == set(candidates)
            assert all(ctl.size(f) == n for f in candidates)
            # No rule pattern has a placement at these budgets.
            assert encoder._rule_clauses(n) == ()

    def test_candidate_order_is_proposition_major(self):
        p, q = ctl.Prop("p"), ctl.Prop("q")
        assert learner._checked_candidates(1, ("p", "q")) == (p, q)
        assert learner._checked_candidates(2, ("p", "q")) == (
            ctl.Not(p), ctl.ExistsNext(p), ctl.ExistsGlobally(p),
            ctl.Not(q), ctl.ExistsNext(q), ctl.ExistsGlobally(q))

    def test_verdict_matches_the_cnf_instance(self):
        """On random samples with rooted negatives and discards, each
        checked budget's verdict is that of solving its CNF instance,
        and a found formula keeps every part of the contract."""
        rng = random.Random(4917)
        sat_verdicts = 0
        for _ in range(60):
            pos, neg, rooted = random_search_input(rng)
            sample = Sample(tuple(pos), tuple(neg))
            structures = sample.structures
            discarded = set(rng.sample(
                list(learner._checked_candidates(2, ("p", "q"))),
                rng.randint(0, 3)))
            state = learner.CandidateSearch(sample, 2)
            for m, s in rooted:
                state.add_rooted(m, s)
            for f in discarded:
                state.discard(f)
            for n in (1, 2):
                found, trace = state._check(n)
                instance = encoder.build_instance(n, pos, neg, seed=0,
                                                  rooted=rooted)
                solved, _, _ = learner._solve_budget(instance, discarded)
                assert (found is None) == (solved is None)
                assert trace.satisfiable == (found is not None)
                assert (trace.size, trace.variables, trace.clauses) == (
                    n, 0, 0)
                if found is None:
                    continue
                sat_verdicts += 1
                assert ctl.size(found) == n and found not in discarded
                assert helpers.consistent_by_oracle(found, pos, neg)
                assert not any(s in helpers.naive_sat(structures[m], found)
                               for m, s in rooted)
        assert sat_verdicts >= 20

    def test_learn_minimal_matches_brute_force(self):
        rng = random.Random(5023)
        small = 0
        for _ in range(40):
            pos, neg, _ = random_search_input(rng)
            oracle = helpers.brute_force_minimum(pos, neg, 2)
            try:
                result = learner.learn_minimal(Sample(tuple(pos), tuple(neg)),
                                               2)
            except NoConsistentFormula:
                assert oracle is None
                continue
            small += 1
            assert result.size == oracle[0]
            assert helpers.consistent_by_oracle(result.formula, pos, neg)
        assert small >= 15

    def test_seeds_agree_when_the_minimum_is_small(self):
        """A minimum of size 1 or 2 is found without a solver, so every
        seed returns the same formula."""
        rng = random.Random(5101)
        small = 0
        for _ in range(40):
            pos, neg, _ = random_search_input(rng)
            sample = Sample(tuple(pos), tuple(neg))
            oracle = helpers.brute_force_minimum(pos, neg, 3)
            if oracle is None or oracle[0] > learner.CHECK_CAP:
                continue
            small += 1
            answers = {learner.learn_minimal(sample, 3, seed=seed).formula
                       for seed in range(4)}
            assert len(answers) == 1
        assert small >= 15

    def test_small_answers_build_no_instance(self, monkeypatch):
        """Budgets 1 and 2 build no CNF; a discard of their answer only
        records it, and a negative or rooted negative only reaches the
        search's own record."""
        def no_build(*args, **kwargs):
            raise AssertionError("a checked budget built an instance")

        monkeypatch.setattr(encoder, "build_instance", no_build)
        m = helpers.load_fixture("selfloop_p.kripke")
        state = learner.CandidateSearch(Sample((m,)), 2, seed=5)
        first = learner.infer_candidate(state)
        assert first.formula == ctl.Prop("p") and state._last is None
        state.discard(first.formula)
        state.add_negative(helpers.load_fixture("selfloop_empty.kripke"))
        assert state.add_rooted(1, 0) is True
        second = learner.infer_candidate(state)
        assert second.formula == ctl.parse_ctl("EX p")
        assert [b.describe() for b in second.budgets] == [
            "budget 1: UNSAT (enumerated)", "budget 2: SAT (enumerated)"]
        assert state._live is None

    def test_each_formula_is_evaluated_once_per_structure(self, monkeypatch):
        """The search keeps each structure's masks: across the calls of a
        whole counterexample-guided run, no subterm is evaluated twice on
        one structure by the learner."""
        evaluated = []  # (structure, formula) of each evaluation
        evaluate = checker.evaluate

        def counting(f, leaf, ex, full, memo):
            if f not in memo:
                # `leaf` reads the labels of the structure evaluated on.
                evaluated.append((leaf.args[0], f))
            return evaluate(f, leaf, ex, full, memo)

        monkeypatch.setattr(checker, "evaluate", counting)
        m = helpers.load_fixture("two_state_pq.kripke")
        state = learner.CandidateSearch(Sample((m,)), 2)
        answers = 0
        while (found := learner.infer_candidate(state)) is not None:
            answers += 1
            state.discard(found.formula)
            if answers % 3 == 0:
                state.add_negative(helpers.random_kripke(
                    random.Random(answers), 3))
        assert answers >= 3
        keys = [(id(struct), f) for struct, f in evaluated]
        assert len(keys) == len(set(keys)) > 0
