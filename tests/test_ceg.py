import random

import pytest

import helpers
from ctlinfer import ceg, checker, ctl, kripke, learner, sat, synth
from ctlinfer.ceg import (CegReport, CertificationFailure,
                          SynthesisInconsistency)


class TestInfer:
    def test_self_loop_bound_one(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        report = ceg.infer(m, 1, synth_states=4, seed=0)
        assert report.formula == ctl.Prop("p")

    def test_self_loop_bound_two_strengthens_to_eg(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        report = ceg.infer(m, 2, synth_states=4, seed=0)
        assert report.formula == ctl.ExistsGlobally(ctl.Prop("p"))
        assert report.iterations == len(report.trace)
        assert report.iterations >= 2

    def test_trace_shape(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        seen = []
        report = ceg.infer(m, 2, synth_states=4, seed=0,
                           on_iteration=seen.append)
        assert list(report.trace) == seen
        for idx, entry in enumerate(report.trace, start=1):
            assert entry.iteration == idx
            assert entry.case in (1, 2, 3)
            assert (entry.countermodel is None) == (entry.case == 1)
        # Cases 2 and 3 contribute their witnesses as negatives.
        assert len(report.negatives) == sum(
            1 for e in report.trace if e.case != 1)

    def test_no_candidate_leaves_the_trivial_hypothesis(self):
        m = helpers.load_fixture("branching.kripke")
        # Neither p nor q holds initially, so no size-1 formula does.
        report = ceg.infer(m, 1, synth_states=3, seed=0)
        assert report.formula == ctl.TRUE
        assert report.iterations == 0

    def test_result_holds_and_fits_bound(self):
        rng = random.Random(800)
        for _ in range(6):
            m = helpers.random_kripke(rng, max_states=3)
            bound = rng.randint(1, 2)
            report = ceg.infer(m, bound, synth_states=3, seed=1)
            if report.formula != ctl.TRUE:
                assert checker.holds(m, report.formula)
                assert ctl.size(report.formula) <= bound
            for neg in report.negatives:
                assert not checker.holds(neg, report.formula)

    def test_candidates_never_repeat(self):
        m = helpers.load_fixture("two_state_pq.kripke")
        report = ceg.infer(m, 2, synth_states=3, seed=2)
        candidates = [e.candidate for e in report.trace]
        assert len(candidates) == len(set(candidates))

    def test_rejects_bad_bound(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        with pytest.raises(ValueError):
            ceg.infer(m, 0)

    def test_rejects_bad_synthesis_budget(self):
        # Over an empty alphabet no candidate exists, so nothing below
        # would reach synthesis and notice the budget.
        m = kripke.parse_kripke("kripke\nprops:\nstates: a\ninit: a\n"
                                "labels: a:\ntrans: a -> a\n")
        for states in (0, -3):
            with pytest.raises(ValueError):
                ceg.infer(m, 2, synth_states=states)


@pytest.mark.parametrize("name", ["cycle2.kripke", "two_state_pq.kripke",
                                  "mutex.kripke"])
def test_bound_four_answer_passes_the_audit(name):
    m = helpers.load_fixture(name)
    report = ceg.infer(m, 4, synth_states=5)
    assert ceg.verify_solution(m, 4, report) > 0
    if name == "two_state_pq.kripke":
        # Its known size-4 answers, in the learner's normal form (which
        # orders `&` operands, so never `!EX p & p`), all pass this audit;
        # which one the search reaches depends on the solver's path.
        assert ctl.print_ctl(report.formula) in ("p & EX q", "p & !EX p",
                                                 "p & !q")


@pytest.mark.parametrize("name", helpers.fixture_names())
def test_negatives_never_conflict_with_the_model(name):
    """Each countermodel falsifies the hypothesis or the candidate, both
    of which hold on the model, so no negative is bisimilar to it."""
    m = helpers.load_fixture(name)
    checked = []

    def check(entry):
        if entry.countermodel is not None:
            sample = learner.Sample((m,), (entry.countermodel,))
            assert not sample.has_conflict(), entry
            checked.append(entry)

    for bound in (2, 3):
        ceg.infer(m, bound, synth_states=5, seed=1, on_iteration=check)
    assert checked


@pytest.mark.parametrize("name", helpers.fixture_names())
def test_no_structure_is_checked_twice_against_one_formula(name,
                                                           monkeypatch):
    """`synthesize` verifies each structure it returns against its
    target, the f & !g of `synth.implies`, which returns it as it is; so
    a run makes one `checker.holds` call per synthesized structure, and
    neither `implies` nor the loop checks the new negative again."""
    m = helpers.load_fixture(name)
    real_holds = checker.holds
    seen = {}
    repeats = []

    def holds(struct, f):
        if id(struct) in seen:
            repeats.append((struct, ctl.print_ctl(f)))
        seen[id(struct)] = struct  # keeps it alive, so its id stays unique
        return real_holds(struct, f)

    monkeypatch.setattr(checker, "holds", holds)
    for bound in (2, 3):
        seen.clear()
        report = ceg.infer(m, bound, synth_states=5)
        assert repeats == [], bound
        assert sorted(seen) == sorted(map(id, report.negatives)), bound


def test_every_solve_follows_one_load(monkeypatch):
    """Each solver of a run, the learner's and synthesis', is loaded once
    before each of its solves and at no other time, so a run makes as
    many `load` calls as solves."""
    calls = []  # holds each solver, so its id stays unique
    real_load, real_solve = sat.CdclSolver.load, sat.CdclSolver.solve

    def load(solver, clauses, num_vars):
        calls.append((solver, "load"))
        return real_load(solver, clauses, num_vars)

    def solve(solver):
        calls.append((solver, "solve"))
        return real_solve(solver)

    monkeypatch.setattr(sat.CdclSolver, "load", load)
    monkeypatch.setattr(sat.CdclSolver, "solve", solve)
    for name, bound in (("two_state_pq.kripke", 4), ("selfloop_p.kripke", 4)):
        calls.clear()
        ceg.infer(helpers.load_fixture(name), bound, seed=1)
        by_solver = {}
        for solver, call in calls:
            by_solver.setdefault(id(solver), []).append(call)
        assert len(by_solver) > 1
        for sequence in by_solver.values():
            assert sequence[::2] == ["load"] * len(sequence[::2]), name
            assert sequence[1::2] == ["solve"] * len(sequence[1::2]), name


def test_a_candidate_proposed_twice_raises(monkeypatch):
    """The repeat check is the loop's one termination guard: a learner
    that proposes `p` a second time, after it became the hypothesis,
    stops the run."""
    m = helpers.load_fixture("selfloop_p.kripke")
    p = ctl.Prop("p")
    proposed = []

    def infer_candidate(search):
        proposed.append(p)
        return learner.LearnResult(p, 1, ())

    monkeypatch.setattr(learner, "infer_candidate", infer_candidate)
    with pytest.raises(ceg.CegError, match="proposed twice"):
        ceg.infer(m, 2)
    assert proposed == [p, p]


def test_negative_satisfying_a_new_hypothesis_raises(monkeypatch):
    """A fault injected after the first case 2: the learner proposes !p,
    which the first negative satisfies, and synthesis wrongly finds that
    !p implies p.  The check of the earlier negatives catches it."""
    m = helpers.load_fixture("selfloop_p.kripke")
    not_p = ctl.Not(ctl.Prop("p"))
    real_candidate, real_implies = learner.infer_candidate, synth.implies
    proposed = []

    def infer_candidate(search):
        found = (learner.LearnResult(not_p, 2, ()) if proposed
                 else real_candidate(search))
        proposed.append(found.formula)
        return found

    def implies(f, g, *args):
        return None if f == not_p else real_implies(f, g, *args)

    monkeypatch.setattr(learner, "infer_candidate", infer_candidate)
    monkeypatch.setattr(synth, "implies", implies)
    with pytest.raises(SynthesisInconsistency):
        ceg.infer(m, 2)
    assert proposed == [ctl.Prop("p"), not_p]


def assert_rooted_states_are_sound(m, bound, synth_states, report):
    """Under the naive checker, each rooted negative's state falsifies
    the hypothesis current after the iteration that added it and the
    final answer; none is a negative's initial state or lies in a
    structure above the synthesis budget.  Then `verify_solution`,
    whose enumeration audit covers bounds up to 4, passes.  Returns the
    number of rooted negatives."""
    structures = (m,) + report.negatives
    hypothesis = ctl.TRUE
    for entry in report.trace:
        if entry.case == 2:
            hypothesis = entry.candidate
        for k, s in entry.rooted:
            struct = structures[k]
            assert struct.size <= synth_states
            assert s not in struct.initial
            assert s not in helpers.naive_sat(struct, hypothesis), entry
            assert s not in helpers.naive_sat(struct, report.formula), entry
    assert len(set(report.rooted)) == len(report.rooted)
    assert ceg.verify_solution(m, bound, report) is not None
    return len(report.rooted)


class TestRootedNegatives:
    """The differential check of pruning by rooted negatives: the answers
    and every pruning state, against the naive checker and the
    enumeration audit."""

    @pytest.mark.parametrize("name", helpers.fixture_names())
    def test_fixtures(self, name):
        m = helpers.load_fixture(name)
        for bound in (2, 3):
            report = ceg.infer(m, bound, synth_states=4, seed=1)
            assert_rooted_states_are_sound(m, bound, 4, report)

    def test_random_models(self):
        rng = random.Random(3101)
        rooted = 0
        for _ in range(20):
            m = helpers.random_kripke(rng, max_states=3, min_states=2)
            bound = rng.randint(2, 3)
            report = ceg.infer(m, bound, synth_states=3,
                               seed=rng.randrange(100))
            rooted += assert_rooted_states_are_sound(m, bound, 3, report)
        assert rooted > 20

    def test_structures_above_the_synthesis_budget_are_not_rooted(self):
        """chain3 has 3 states, so at a synthesis budget of 2 the pass
        roots no state of structure 0, the model, although the case-2
        hypotheses fail at its states 1 and 2; the states of the
        negatives, which fit the budget, are still rooted."""
        m = helpers.load_fixture("chain3.kripke")
        report = ceg.infer(m, 3, synth_states=2, seed=1)
        failing = set()
        for entry in report.trace:
            if entry.case == 2:
                failing |= set(range(m.size)) - checker.sat_set(
                    m, entry.candidate)
        assert m.size > 2 and failing == {1, 2}
        assert report.rooted
        assert all(k > 0 for k, _ in report.rooted)
        assert_rooted_states_are_sound(m, 3, 2, report)

    def test_report_collects_the_rooted_negatives_of_its_trace(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        report = ceg.infer(m, 2, synth_states=4, seed=0)
        assert report.rooted
        assert report.rooted == tuple(r for e in report.trace
                                      for r in e.rooted)


class TestVerifySolution:
    def certified_report(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        return m, ceg.infer(m, 2, synth_states=4, seed=0)

    def test_genuine_result_passes(self):
        # The audit compares every size-<=2 formula holding on the model,
        # the result among them.
        m, report = self.certified_report()
        holding = [f for f in ctl.enumerate_formulas(m.alphabet, 2)
                   if checker.holds(m, f)]
        assert report.formula in holding
        assert ceg.verify_solution(m, 2, report) == len(holding) > 1

    def test_weaker_result_is_flagged(self):
        # The recorded negatives refute `p | p` before the audit runs, so
        # the report keeps none, and only the audit can see it.
        m, report = self.certified_report()
        corrupted = report._replace(formula=ctl.parse_ctl("p | p"), trace=())
        with pytest.raises(CertificationFailure) as err:
            ceg.verify_solution(m, 2, corrupted)
        assert "strictly implies" in str(err.value)
        assert err.value.violating == ctl.ExistsGlobally(ctl.Prop("p"))

    def test_result_holding_at_a_rooted_state_is_flagged(self):
        # The model's initial state satisfies the result, so recording it
        # as a rooted negative leaves a report that only this check fails.
        m, report = self.certified_report()
        last = report.trace[-1]
        corrupted = report._replace(trace=report.trace[:-1] + (
            last._replace(rooted=last.rooted + ((0, 0),)),))
        with pytest.raises(CertificationFailure) as err:
            ceg.verify_solution(m, 2, corrupted)
        assert "rooted negative" in str(err.value)
        assert err.value.violating == report.formula

    def test_a_rooted_pair_naming_no_state_is_flagged(self):
        # The seeded bound-2 report on two_state_pq has one negative and
        # roots the model's s1 in its last entry; a pair naming a
        # structure outside (model,) + negatives, or a state outside its
        # structure, certifies nothing.
        m = helpers.load_fixture("two_state_pq.kripke")
        report = ceg.infer(m, 2, seed=1)
        last = report.trace[-1]
        assert last.rooted == ((0, 1),) and len(report.negatives) == 1
        outside = report.negatives[0].size
        for pair in ((0, 7), (-1, 0), (0, -1), (9, 0), (1, outside),
                     (2, 0)):
            corrupted = report._replace(trace=report.trace[:-1] + (
                last._replace(rooted=(pair,)),))
            with pytest.raises(CertificationFailure) as err:
                ceg.verify_solution(m, 2, corrupted)
            assert str(err.value) == (
                f"rooted negative {pair} is no state of the sample"), pair
        assert ceg.verify_solution(m, 2, report._replace(
            trace=report.trace[:-1] + (last._replace(rooted=((1, 0),)),)))

    def test_negative_satisfying_the_result_is_flagged(self):
        # The model satisfies the result, so recording it as a case's
        # countermodel leaves a report that only this check fails.
        m, report = self.certified_report()
        k = next(i for i, e in enumerate(report.trace)
                 if e.countermodel is not None)
        corrupted = report._replace(trace=report.trace[:k] + (
            report.trace[k]._replace(countermodel=m),) + report.trace[k + 1:])
        with pytest.raises(CertificationFailure) as err:
            ceg.verify_solution(m, 2, corrupted)
        assert str(err.value).startswith(
            "a negative structure satisfies the result")
        assert err.value.violating == report.formula

    def test_cheap_checks_refute_before_the_audit(self, monkeypatch):
        # A negative satisfying the result is refuted without enumerating
        # a single audit candidate, at a bound the audit covers.
        m, report = self.certified_report()
        k = next(i for i, e in enumerate(report.trace)
                 if e.countermodel is not None)
        corrupted = report._replace(trace=report.trace[:k] + (
            report.trace[k]._replace(countermodel=m),) + report.trace[k + 1:])

        def no_audit(*args):
            raise AssertionError("the audit ran before the cheap checks")

        monkeypatch.setattr(ctl, "enumerate_formulas", no_audit)
        with pytest.raises(CertificationFailure, match="negative structure"):
            ceg.verify_solution(m, 2, corrupted)

    def test_non_holding_result_is_flagged(self):
        m, report = self.certified_report()
        corrupted = report._replace(formula=ctl.parse_ctl("!p"))
        with pytest.raises(CertificationFailure) as err:
            ceg.verify_solution(m, 2, corrupted)
        assert "hold" in str(err.value)

    def test_oversized_result_is_flagged(self):
        m, report = self.certified_report()
        corrupted = report._replace(formula=ctl.parse_ctl("EG (p & EX p)"))
        with pytest.raises(CertificationFailure) as err:
            ceg.verify_solution(m, 2, corrupted)
        assert "size bound" in str(err.value)

    def test_audit_skipped_above_limit(self):
        m, report = self.certified_report()
        assert ceg.verify_solution(m, 5, report._replace(bound=5)) is None

    @pytest.mark.parametrize("name", ["branching.kripke", "chain3.kripke"])
    def test_a_bound_other_than_the_reports_is_rejected(self, name):
        # The audit covers the report's own bound or nothing: on
        # branching a bound of 3 would audit candidates the run never
        # searched, and on chain3 a bound of 1 would audit only size 1.
        m = helpers.load_fixture(name)
        report = ceg.infer(m, 2, synth_states=5, seed=1)
        for bound in (3, 1):
            with pytest.raises(ValueError, match="bound"):
                ceg.verify_solution(m, bound, report)

    def test_budget_below_one_is_rejected(self):
        # With no propositions nothing reaches synthesis, so only the
        # budget check can see the corrupted budget.
        m = kripke.parse_kripke("kripke\nprops:\nstates: a\ninit: a\n"
                                "labels: a:\ntrans: a -> a\n")
        report = ceg.infer(m, 2, synth_states=4, seed=0)
        corrupted = report._replace(synth_states=-3)
        with pytest.raises(ValueError, match="budget"):
            ceg.verify_solution(m, 2, corrupted)


def test_report_fields_describe_the_run():
    m = helpers.load_fixture("selfloop_p.kripke")
    report = ceg.infer(m, 2, synth_states=4, seed=0)
    assert isinstance(report, CegReport)
    assert report._fields == ("formula", "trace", "bound", "synth_states")
    assert report.bound == 2
    assert report.synth_states == 4
    assert report.iterations == len(report.trace) > 0


def test_iterations_are_read_off_the_trace():
    m = helpers.load_fixture("selfloop_p.kripke")
    report = ceg.infer(m, 2, synth_states=4, seed=0)
    assert report._replace(trace=()).iterations == 0
