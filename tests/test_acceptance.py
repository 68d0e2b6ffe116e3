"""Acceptance suite: nine end-to-end criteria, one test each.

Every test checks the library against an independent oracle (exhaustive
enumeration, explicit path semantics, or a naive set-based checker) and
prints a single `criterion N: PASS` or `criterion N: FAIL` line, visible
with `pytest -s` and in failure reports.
"""

import random
import time
from contextlib import contextmanager

import helpers
from ctlinfer import ceg, checker, ctl, encoder, learner, synth
from ctlinfer.cli import run as cli_run
from ctlinfer.encoder import VarPool
from ctlinfer.learner import NoConsistentFormula, Sample
from ctlinfer.sat import CdclSolver


@contextmanager
def criterion(n, detail="", budget=None):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"criterion {n} took {elapsed:.1f}s, budget {budget}s")
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    suffix = f" ({detail}, {elapsed:.1f}s)" if detail else f" ({elapsed:.1f}s)"
    print(f"criterion {n}: PASS{suffix}")


def one_level_sets(m, f, table):
    """Naive satisfaction set of `f` given its children's sets; explicit
    set loops, independent of the bitmask checker."""
    every = frozenset(range(m.size))
    post = m.successors
    if isinstance(f, ctl.Prop):
        return frozenset(s for s in every if f.name in m.labels[s])
    if isinstance(f, ctl.Not):
        return every - table[f.operand]
    if isinstance(f, ctl.And):
        return table[f.left] & table[f.right]
    if isinstance(f, ctl.Or):
        return table[f.left] | table[f.right]
    if isinstance(f, ctl.ExistsNext):
        target = table[f.operand]
        return frozenset(s for s in every if post[s] & target)
    if isinstance(f, ctl.ExistsUntil):
        head, found = table[f.left], set(table[f.right])
        while True:
            grown = found | {s for s in head if post[s] & found}
            if grown == found:
                return frozenset(found)
            found = grown
    if isinstance(f, ctl.ExistsGlobally):
        kept = set(table[f.operand])
        while True:
            shrunk = {s for s in kept if post[s] & kept}
            if shrunk == kept:
                return frozenset(kept)
            kept = shrunk
    raise AssertionError(f"not ENF: {f!r}")


def naive_tables(m, formulas):
    """Satisfaction sets for an enumeration (children precede parents)."""
    table = {}
    for f in formulas:
        table[f] = one_level_sets(m, f, table)
    return table


def naive_consistent(f, positives, negatives, tables):
    return (all(tables[id(m)][f] >= m.initial for m in positives)
            and all(not tables[id(m)][f] >= m.initial for m in negatives))


def random_sample(rng, formulas):
    positives = [helpers.random_kripke(rng, 3)
                 for _ in range(rng.randint(1, 2))]
    negatives = [helpers.random_kripke(rng, 3)
                 for _ in range(rng.randint(0, 2))]
    tables = {id(m): naive_tables(m, formulas)
              for m in positives + negatives}
    return positives, negatives, tables


ENF4_PQ = ctl.enumerate_formulas(("p", "q"), 4)
ENF4_P = ctl.enumerate_formulas(("p",), 4)


def test_criterion_1_checker_matches_naive_fixed_point_oracle():
    with criterion(1, f"200 structures x {len(ENF4_PQ)} formulas",
                   budget=60):
        for seed in range(200):
            rng = random.Random(seed)
            m = helpers.random_kripke(rng, max_states=4)
            expected = naive_tables(m, ENF4_PQ)
            for f in ENF4_PQ:
                got = checker.sat_set_table(m, f)[f]
                assert got == expected[f], (seed, ctl.print_ctl(f))


def test_criterion_2_step_variables_match_path_prefix_semantics():
    with criterion(2, "50 structures, every unrolling depth"):
        rng = random.Random(77)
        for _ in range(50):
            struct = helpers.random_kripke(rng, max_states=4)
            p, q = ctl.Prop("p"), ctl.Prop("q")
            phi_set = checker.sat_set_table(struct, p)[p]
            psi_set = checker.sat_set_table(struct, q)[q]
            for f in (ctl.ExistsUntil(p, q), ctl.ExistsGlobally(p)):
                dag = helpers.dag_nodes(f)
                pool = VarPool()
                clauses = (encoder.build_structural(
                    pool, len(dag), struct.alphabet)
                    + encoder.build_semantic(pool, len(dag), 0, struct))
                backend = CdclSolver(seed=0)
                backend.load(clauses, pool.count)
                helpers.pin_dag(backend, pool, dag)
                assert backend.solve()
                values = backend.values()
                operand = "R" if isinstance(f, ctl.ExistsUntil) else "L"
                for k in range(1, struct.size + 2):
                    if isinstance(f, ctl.ExistsUntil):
                        expected = helpers.eu_prefix(struct, phi_set,
                                                     psi_set, k)
                    else:
                        expected = helpers.eg_prefix(struct, phi_set, k)
                    for s in range(struct.size):
                        homes = helpers.approximant_vars(
                            k, struct.size,
                            pool.get(operand, 0, len(dag), s),
                            lambda j: pool.get("ys", 0, len(dag), s, j),
                            pool.get("y", 0, len(dag), s))
                        for lit in homes:
                            assert ((values[lit >> 1] == 1)
                                    == (s in expected)), (f, s, k)


def test_criterion_3_search_instances_round_trip_against_enumeration():
    with criterion(3, "100 samples, budgets 1..3"):
        enum3 = [f for f in ENF4_PQ if ctl.size(f) <= 3]
        admitted = [f for f in enum3 if helpers.admitted_dag(f, ("p", "q"))]
        for seed in range(100):
            rng = random.Random(1000 + seed)
            positives, negatives, tables = random_sample(rng, enum3)
            for n in (1, 2, 3):
                # Budget n admits exactly the normal-form formulas of
                # size n.
                has_formula = any(
                    naive_consistent(f, positives, negatives, tables)
                    for f in admitted if ctl.size(f) == n)
                instance = encoder.build_instance(n, positives, negatives,
                                                  seed=0)
                assignment = helpers.solve_instance(instance)
                assert (assignment is not None) == has_formula, (seed, n)
                if assignment is not None:
                    decoded = encoder.decode_with_literals(assignment,
                                                           instance)[0]
                    assert all(checker.holds(m, decoded)
                               for m in positives), (seed, n)
                    assert not any(checker.holds(m, decoded)
                                   for m in negatives), (seed, n)


def test_criterion_4_learned_size_equals_brute_force_minimum():
    with criterion(4, "100 samples, minimum <= 4"):
        for seed in range(100):
            rng = random.Random(1000 + seed)
            positives, negatives, tables = random_sample(rng, ENF4_PQ)
            minimum = None
            for f in ENF4_PQ:
                if naive_consistent(f, positives, negatives, tables):
                    minimum = ctl.size(f)
                    break
            sample = Sample(tuple(positives), tuple(negatives))
            try:
                result = learner.learn_minimal(sample, 4, seed=0)
            except NoConsistentFormula:
                assert minimum is None, seed
                continue
            assert minimum is not None, seed
            assert result.size == minimum, seed
            assert helpers.consistent_by_oracle(result.formula, positives,
                                                negatives), seed


def test_criterion_5_candidate_inference_contract():
    with criterion(5, "100 randomized calls"):
        enum3 = [f for f in ENF4_PQ if ctl.size(f) <= 3]
        for seed in range(100):
            rng = random.Random(2000 + seed)
            model = helpers.random_kripke(rng, 3)
            negatives = [helpers.random_kripke(rng, 3)
                         for _ in range(rng.randint(0, 2))]
            bound = rng.randint(1, 3)
            discarded = rng.sample(enum3, rng.randint(0, 6))
            search = learner.CandidateSearch(
                Sample((model,), tuple(negatives)), bound, seed=0)
            for formula in discarded:
                search.discard(formula)
            result = learner.infer_candidate(search)
            # The search space is the normal form: every formula has an
            # admitted equivalent, but discarding an admitted formula
            # does not discard its non-admitted twins.
            sizes = [ctl.size(f) for f in enum3
                     if ctl.size(f) <= bound
                     and helpers.admitted_dag(f, ("p", "q"))
                     and helpers.consistent_by_oracle(f, [model], negatives)
                     and f not in discarded]
            if result is None:
                assert not sizes, seed
                continue
            f = result.formula
            assert checker.holds(model, f), seed
            assert ctl.size(f) == min(sizes), seed
            assert not any(checker.holds(neg, f) for neg in negatives), seed
            assert f not in discarded, seed


def test_criterion_6_ceg_terminates_with_certified_eg_p():
    with criterion(6, "self-loop model, bound 2, synth budget 4",
                   budget=60):
        m = helpers.load_fixture("selfloop_p.kripke")
        report = ceg.infer(m, 2, synth_states=4, seed=0)
        assert report.formula == ctl.ExistsGlobally(ctl.Prop("p"))
        assert ceg.verify_solution(m, 2, report) > 0
        # Independent audit: no size-<=2 formula holding on the model
        # strictly implies EG p within a 4-state synthesis budget.
        for candidate in ctl.enumerate_formulas(("p",), 2):
            if not helpers.naive_holds(m, candidate):
                continue
            if candidate == report.formula:
                continue
            if synth.implies(candidate, report.formula, 4) is None:
                assert synth.implies(report.formula, candidate, 4) is None, \
                    ctl.print_ctl(candidate)


def test_criterion_7_synthesis_soundness_and_small_scale_completeness():
    with criterion(7, "100 + 100 random formulas"):
        rng = random.Random(42)
        for f in rng.sample(ENF4_PQ, 100):
            model = synth.synthesize(f, max_states=4, seed=0)
            if model is not None:
                assert helpers.naive_holds(model, f), ctl.print_ctl(f)
        structures = [m for n in (1, 2)
                      for m in helpers.all_structures(n, ("p",))]
        for f in rng.sample(ENF4_P, 100):
            verdict = synth.synthesize(f, max_states=2, seed=0) is not None
            expected = any(helpers.naive_holds(m, f) for m in structures)
            assert verdict == expected, ctl.print_ctl(f)


def test_criterion_8_shared_leaf_dag_and_size_six():
    with criterion(8, "EX p | E[p U EG q]"):
        f = ctl.parse_ctl("EX p | E[p U EG q]")
        assert ctl.size(f) == 6
        dag = helpers.dag_nodes(f)
        assert len(dag) == 6
        p_nodes = [i for i, (label, _, _) in enumerate(dag, start=1)
                   if label == "p"]
        assert len(p_nodes) == 1, "the p leaf must be shared"
        (p_index,) = p_nodes
        _, ex_left, _ = next(node for node in dag
                             if node[0] is ctl.ExistsNext)
        _, eu_left, _ = next(node for node in dag
                             if node[0] is ctl.ExistsUntil)
        assert ex_left == p_index
        assert eu_left == p_index


def test_criterion_9_cli_examples_are_reproducible(capsys):
    with criterion(9, "three documented invocations"):
        fix = helpers.FIXTURES

        def invoke(*argv):
            code = cli_run(list(argv))
            out = capsys.readouterr().out
            return code, out

        code, out = invoke("check", str(fix / "selfloop_p.kripke"), "p")
        assert code == 0
        assert out.rstrip().splitlines()[-1] == "result: holds"

        code, out = invoke(
            "learn", "--pos", str(fix / "selfloop_p.kripke"),
            "--neg", str(fix / "selfloop_empty.kripke"), "--max-size", "3")
        assert code == 0
        lines = out.rstrip().splitlines()
        assert "size: 1" in lines
        assert lines[-1] == "result: p"

        code, out = invoke("infer", str(fix / "selfloop_p.kripke"),
                           "--bound", "2")
        assert code == 0
        assert out.rstrip().splitlines()[-1] == "result: EG p"

        for argv in (
            ["check", str(fix / "selfloop_p.kripke"), "p"],
            ["learn", "--pos", str(fix / "selfloop_p.kripke"),
             "--neg", str(fix / "selfloop_empty.kripke"),
             "--max-size", "3", "--seed", "5"],
            ["infer", str(fix / "selfloop_p.kripke"), "--bound", "2",
             "--seed", "5"],
        ):
            assert invoke(*argv) == invoke(*argv)
