import os
import random
import subprocess
import sys

import pytest

import helpers
from ctlinfer import ctl, synth, tableau
from ctlinfer.ctl import (And, ExistsGlobally, ExistsNext, ExistsUntil, Not,
                          Or, Prop)
from ctlinfer.sat import CdclSolver

# Proposition-free formulas and whether they have a model.
PROPOSITION_FREE = {
    "true": True,
    "false": False,
    "!false": True,
    "EX true": True,
    "EG false": False,
    "E[false U true]": True,
    "A[true U false]": False,
    "AG true": True,
    "true -> false": False,
}


class TestSynthesize:
    def test_simple_satisfiable(self):
        m = synth.synthesize(ctl.parse_ctl("EG p"), max_states=3)
        assert m is not None
        assert helpers.naive_holds(m, ctl.parse_ctl("EG p"))

    def test_returns_small_models_first(self):
        m = synth.synthesize(ctl.parse_ctl("p"), max_states=6)
        assert m is not None and m.size == 1

    def test_needs_two_states(self):
        f = And(ExistsNext(Prop("p")), ExistsNext(Not(Prop("p"))))
        m = synth.synthesize(f, max_states=4)
        assert m is not None
        assert m.size == 2
        assert helpers.naive_holds(m, f)

    def test_unsatisfiable_within_budget(self):
        assert synth.synthesize(ctl.parse_ctl("p & !p"), max_states=4) is None
        assert synth.synthesize(ctl.parse_ctl("EG p & !p"),
                                max_states=4) is None

    def test_tableau_refutations_need_no_solver(self, monkeypatch):
        def no_solver(self):
            raise AssertionError("a refuted formula reached the solver")

        monkeypatch.setattr(CdclSolver, "solve", no_solver)
        for text in ("p & !p", "EG p & !p", "AF !q & AG q",
                     "E[p U q] & !EF q", "EX p & AX !p"):
            assert synth.synthesize(ctl.parse_ctl(text), max_states=4) is None

    def test_runs_the_tableau_once_per_call(self, monkeypatch):
        """The tableau runs at most once, however many sizes follow it, and
        not at all when the two-state family finds a model."""
        calls = []
        satisfiable = tableau.satisfiable

        def counting_satisfiable(f):
            calls.append(f)
            return satisfiable(f)

        monkeypatch.setattr(tableau, "satisfiable", counting_satisfiable)
        for text, found, runs in (("EG p & !p", False, 1),
                                  ("EX p & EX !p", True, 0)):
            calls.clear()
            model = synth.synthesize(ctl.parse_ctl(text), max_states=3)
            assert (model is not None) == found
            assert len(calls) == runs <= 1

    def test_satisfiable_beyond_the_budget(self):
        # Four successors with pairwise different labellings need four
        # states; the families of every 2- and 3-state structure over p, q
        # hold no model, and the solver finds one at four states.
        f = ctl.parse_ctl("EX (p & q) & EX (p & !q) & EX (!p & q) "
                          "& EX (!p & !q)")
        assert tableau.satisfiable(ctl.enf(f))
        assert synth.synthesize(f, max_states=3) is None
        assert synth.synthesize(f, max_states=4).size == 4

    def test_above_the_cap_only_the_sweep_runs(self, monkeypatch):
        def no_atoms(width, targets, full):
            raise AssertionError("the tableau ran above its cap")

        monkeypatch.setattr(tableau, "_blocks", no_atoms)
        chains = ctl.parse_ctl(" & ".join(
            "EX " * k + "p" for k in range(1, tableau.MAX_ELEMENTARY + 1)))
        assert tableau.satisfiable(chains) is None
        m = synth.synthesize(chains, max_states=2)
        assert m is not None and m.size == 1
        assert helpers.naive_holds(m, chains)
        assert synth.synthesize(And(chains, ctl.parse_ctl("AG !p")),
                                max_states=2) is None

    def test_alphabet_extends_model(self):
        m = synth.synthesize(ctl.parse_ctl("p"), max_states=2,
                             alphabet=("p", "q"))
        assert m is not None
        assert m.alphabet == ("p", "q")

    def test_alphabet_must_cover_formula(self):
        with pytest.raises(ValueError):
            synth.synthesize(ctl.parse_ctl("p"), alphabet=("q",))

    def test_proposition_free_formulas(self):
        for text, expected in PROPOSITION_FREE.items():
            m = synth.synthesize(ctl.parse_ctl(text))
            assert (m is not None) is expected, text
            assert m is None or m.size == 1

    def test_sugar_accepted(self):
        f = ctl.parse_ctl("AG (p -> AF q)")
        m = synth.synthesize(f, max_states=3)
        assert m is not None
        assert helpers.naive_holds(m, f)

    def test_random_formulas_are_sound(self):
        rng = random.Random(700)
        returned = 0
        for _ in range(40):
            f = helpers.random_enf(rng, ("p", "q"), 3)
            m = synth.synthesize(f, max_states=3, seed=1)
            if m is not None:
                returned += 1
                assert helpers.naive_holds(m, f)
        assert returned > 20

    def test_verdicts_match_exhaustive_enumeration(self):
        rng = random.Random(701)
        formulas = ctl.enumerate_formulas(("p",), 3)
        for f in rng.sample(formulas, 25):
            by_synth = synth.synthesize(f, max_states=2, seed=0)
            by_enum = any(
                helpers.naive_holds(m, f)
                for n in (1, 2)
                for m in helpers.all_structures(n, ("p",)))
            assert (by_synth is not None) == by_enum, ctl.print_ctl(f)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            synth.synthesize(Prop("p"), max_states=0)


def one_state_cases(alphabet):
    """Every ENF formula over `alphabet` up to size 3 and the
    proposition-free table, each with whether some one-state structure
    satisfies it by the naive checker."""
    formulas = (ctl.enumerate_formulas(alphabet, 3)
                + [ctl.parse_ctl(text) for text in PROPOSITION_FREE])
    loops = list(helpers.all_structures(1, alphabet))
    return [(f, any(helpers.naive_holds(m, f) for m in loops))
            for f in formulas]


ALPHABETS = [(), ("p",), ("p", "q")]


class TestOneState:
    """The one-state family, the union of the one-state self-loops, decides
    the one-state case."""

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_one_state_model_iff_a_self_loop_satisfies(self, alphabet):
        for f, looped in one_state_cases(alphabet):
            m = synth.synthesize(f, max_states=2, alphabet=alphabet, seed=0)
            assert (m is not None and m.size == 1) == looped, (
                ctl.print_ctl(f))
            if m is not None:
                assert m.alphabet == alphabet
                assert helpers.naive_holds(m, f), ctl.print_ctl(f)

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_one_state_models_skip_dag_tableau_and_solver(self, alphabet,
                                                          monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a one-state model went past its family")

        cases = [f for f, looped in one_state_cases(alphabet) if looped]
        assert cases
        monkeypatch.setattr(CdclSolver, "solve", forbidden)
        monkeypatch.setattr(tableau, "satisfiable", forbidden)
        monkeypatch.setattr(synth, "_encode", forbidden)
        for f in cases:
            m = synth.synthesize(f, max_states=3, alphabet=alphabet)
            assert m is not None and m.size == 1, ctl.print_ctl(f)

    def test_unused_propositions_stay_false(self):
        m = synth.synthesize(ctl.parse_ctl("q | EX !q"), max_states=2,
                             alphabet=("p", "q", "r"))
        assert m.size == 1 and m.labels == (frozenset(),)
        m = synth.synthesize(ctl.parse_ctl("q & EG q"), max_states=2,
                             alphabet=("p", "q", "r"))
        assert m.size == 1 and m.labels == (frozenset({"q"}),)


class TestFamily:
    """One pass over every structure of a size decides it as SAT does."""

    @pytest.mark.parametrize("num_states", [1, 2, 3])
    def test_family_matches_the_sat_instance(self, num_states):
        for f in ctl.enumerate_formulas(("p", "q"), 4):
            props = tuple(sorted(ctl.propositions(f)))
            model = synth._family_model(f, num_states, props, props)
            expected = synth._solve(f, num_states, props, props, 0)
            assert (model is None) == (expected is None), ctl.print_ctl(f)
            if model is not None:
                assert model.size == num_states
                assert model.initial == frozenset({0})
                assert model.alphabet == props
                assert helpers.naive_holds(model, f), ctl.print_ctl(f)

    @pytest.mark.parametrize("num_states", [1, 2])
    def test_family_matches_enumeration(self, num_states):
        structures = list(helpers.all_structures(num_states, ("p",)))
        for f in ctl.enumerate_formulas(("p",), 4):
            model = synth._family_model(f, num_states, ("p",), ("p",))
            expected = any(helpers.naive_holds(m, f) for m in structures)
            assert (model is not None) == expected, ctl.print_ctl(f)

    def test_other_propositions_stay_false(self):
        f = ctl.parse_ctl("EX p & EX !p")
        m = synth._family_model(ctl.enf(f), 2, ("p",), ("p", "q", "r"))
        assert m.alphabet == ("p", "q", "r")
        assert all(label <= {"p"} for label in m.labels)
        assert helpers.naive_holds(m, f)

    def test_above_the_cap_the_solver_decides(self, monkeypatch):
        family = synth._family

        def one_state_family(num_states, num_props):
            if num_states > 1:
                raise AssertionError("a family above the cap was built")
            return family(num_states, num_props)

        monkeypatch.setattr(synth, "_family", one_state_family)
        solve = CdclSolver.solve
        verdicts = []

        def counting_solve(self):
            verdicts.append(solve(self))
            return verdicts[-1]

        monkeypatch.setattr(CdclSolver, "solve", counting_solve)
        # Three successors with pairwise different p, q labellings need
        # three states; seven propositions put both sizes above the cap.
        f = ctl.parse_ctl("EX (p & q) & EX (p & !q) & EX !p "
                          "& r & s & t & u & v")
        assert synth._components(2, 7) > synth.FAMILY_CAP
        m = synth.synthesize(f, max_states=4)
        assert m is not None and m.size == 3
        assert helpers.naive_holds(m, f)
        assert verdicts == [False, True]

    def test_no_family_above_the_cap_is_built(self, monkeypatch):
        """One state included: over 17 propositions the one-state family
        has 2^17 components, so the solver decides one state."""
        family = synth._family

        def capped_family(num_states, num_props):
            assert (synth._components(num_states, num_props)
                    <= synth.FAMILY_CAP), "a family above the cap was built"
            return family(num_states, num_props)

        solve = synth._solve
        sizes = []

        def spy(f, num_states, *args):
            sizes.append(num_states)
            return solve(f, num_states, *args)

        monkeypatch.setattr(synth, "_family", capped_family)
        monkeypatch.setattr(synth, "_solve", spy)
        f = ctl.parse_ctl(" & ".join(f"p{i}" for i in range(17)))
        m = synth.synthesize(f)
        assert m is not None and m.size == 1
        assert helpers.naive_holds(m, f)
        assert sizes == [1]

    def test_import_builds_no_family(self):
        src = os.path.dirname(os.path.dirname(synth.__file__))
        code = ("import ctlinfer.synth as s; "
                "print(s._family.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "0"


class TestOneSidedSweep:
    @pytest.mark.parametrize("alphabet", [("p", "q"), ("p", "q", "r")])
    def test_solver_matches_the_family(self, alphabet):
        """The differential check of the sweep's polarities: on random
        ENF formulas f & !g, the shape `implies` synthesizes, whose sugar
        puts subterms under `!` and in both signs, the one-sided CNF has
        a model of m = 2 or 3 states exactly when the family has one, and
        every model found holds."""
        rng = random.Random(708 + len(alphabet))
        models = 0
        for _ in range(60):
            f = ctl.enf(And(helpers.random_ctl(rng, alphabet, 3),
                            Not(helpers.random_ctl(rng, alphabet, 3))))
            for m in (2, 3):
                family = synth._family_model(f, m, alphabet, alphabet)
                solved = synth._solve(f, m, alphabet, alphabet, 0)
                assert (family is None) == (solved is None), (
                    ctl.print_ctl(f), m)
                for model in (family, solved):
                    if model is not None:
                        assert model.size == m
                        assert helpers.naive_holds(model, f)
                models += solved is not None
        assert 20 < models < 100  # of 120 (formula, m) pairs

    def test_the_sweep_labels_only_the_target_propositions(self,
                                                           monkeypatch):
        """Four successors with pairwise different p, q labellings need
        four states, above every family over two propositions, so the
        solver decides size 4; r is in the alphabet only, so it gets no
        `lab` variable and labels no state."""
        encode = synth._encode
        pools = []

        def spy(f, num_states, props):
            pool, clauses = encode(f, num_states, props)
            pools.append(pool)
            return pool, clauses

        monkeypatch.setattr(synth, "_encode", spy)
        f = ctl.parse_ctl("EX (p & q) & EX (p & !q) & EX (!p & q) "
                          "& EX (!p & !q)")
        m = synth.synthesize(f, 4, ("p", "q", "r"))
        assert m is not None and m.size == 4
        assert m.alphabet == ("p", "q", "r")
        assert all("r" not in label for label in m.labels)
        assert helpers.naive_holds(m, f)
        assert pools
        for pool in pools:
            keys = [key for key, _ in pool.semantic_items()]
            assert ("lab", 0, "p") in keys
            assert not any(key[0] == "lab" and key[2] == "r"
                           for key in keys)

    def test_constants_reach_the_solver(self, monkeypatch):
        """Four successors with pairwise different p, q, r labellings need
        four states, and three propositions put sizes 3 and 4 above every
        family, so the solver decides both; `AG true` keeps its `true`
        through `ctl.enf` and reaches the CNF, where a unit clause fixes
        it."""
        encode = synth._encode
        encoded = []

        def spy(f, num_states, props):
            encoded.append(f)
            return encode(f, num_states, props)

        monkeypatch.setattr(synth, "_encode", spy)
        f = ctl.parse_ctl("EX (p & q & r) & EX (p & !q & !r) "
                          "& EX (!p & q & !r) & EX (!p & !q & r) & AG true")
        m = synth.synthesize(f, 4, ("p", "q", "r"))
        assert m is not None and m.size == 4
        assert helpers.naive_holds(m, f)
        assert any(isinstance(g, ctl.Const)
                   for g in ctl.subterms(encoded[-1]))
        encoded.clear()
        assert synth.synthesize(f, 3, ("p", "q", "r")) is None
        assert len(encoded) == 1


class TestImplies:
    def test_valid_implication_has_no_countermodel(self):
        assert synth.implies(ctl.parse_ctl("EG p"), Prop("p"),
                             max_states=4) is None
        assert synth.implies(Prop("p"), ctl.parse_ctl("p | q"),
                             max_states=4) is None

    def test_countermodel_is_verified(self):
        w = synth.implies(Prop("p"), ctl.parse_ctl("EG p"), max_states=4)
        assert w is not None
        assert helpers.naive_holds(w, Prop("p"))
        assert not helpers.naive_holds(w, ctl.parse_ctl("EG p"))

    def test_true_consequent_needs_no_solver(self, monkeypatch):
        def no_solver(self):
            raise AssertionError("implies(f, true) called the solver")

        monkeypatch.setattr(CdclSolver, "solve", no_solver)
        rng = random.Random(703)
        for _ in range(30):
            f = helpers.random_enf(rng, ("p", "q"), 4)
            assert synth.implies(f, ctl.TRUE, max_states=3,
                                 alphabet=("p", "q")) is None

    def test_true_antecedent_synthesizes_the_negation(self):
        rng = random.Random(704)
        for seed in range(12):
            g = helpers.random_enf(rng, ("p", "q"), 3)
            assert synth.implies(ctl.TRUE, g, 3, ("p", "q"), seed) == (
                synth.synthesize(Not(g), 3, ("p", "q"), seed))
        assert synth.implies(ctl.TRUE, ctl.parse_ctl("p | !p"), 3) is None

    def test_matches_enumeration_on_small_alphabet(self):
        rng = random.Random(702)
        formulas = ctl.enumerate_formulas(("p",), 2)
        structures = [m for n in (1, 2)
                      for m in helpers.all_structures(n, ("p",))]
        for _ in range(15):
            f, g = rng.choice(formulas), rng.choice(formulas)
            witness = synth.implies(f, g, max_states=2, seed=0)
            refuted = any(
                helpers.naive_holds(m, f) and not helpers.naive_holds(m, g)
                for m in structures)
            assert (witness is not None) == refuted


class TestEncode:
    # A digest of each formula's CNF at 2, 3 and 4 states, taken when
    # `encoder.lower_node` read its operands through one function per
    # literal.
    PINNED = {
        "EX p": "fd6b8b2bb5fdccfe",
        "!EX !p": "84bd50e150d88c9c",
        "E[p U q]": "b9c3213ad761d650",
        "EG p": "845c7f80ae73c601",
        "EG (p | !q)": "d5d9860e348d8f7d",
        "E[p U q] & !EG q": "4fd022b00683d58a",
        "EX true & !false": "0f3dc6943a9b81b7",
        "E[!p U EX q] | EG EX p": "6f8265f1c13ffbda",
        "!E[true U !p] & EX (p & q)": "14227562494dc038",
        "EG !E[p U EG q]": "e7c8e205256b9cf7",
    }

    def test_cnf_matches_pinned_digests(self):
        """Every clause, in order and literal for literal, and the
        variable count, product variables included, are as pinned."""
        got = {}
        for text in self.PINNED:
            f = ctl.enf(ctl.parse_ctl(text))
            props = tuple(sorted(ctl.propositions(f)))
            got[text] = helpers.stream_digest(
                (pool.count, clauses) for pool, clauses in
                (synth._encode(f, m, props) for m in (2, 3, 4)))
        assert got == self.PINNED

    @staticmethod
    def literal(pool, g, s):
        """Node g's literal at state s in the folded layout, signed: a
        proposition reads its `lab`, `!` negates its operand's literal, a
        constant reads the one variable `true`, and every other node its
        h."""
        sign = 1
        while isinstance(g, Not):
            g, sign = g.operand, -sign
        if isinstance(g, Prop):
            return sign * helpers.signed(pool.get("lab", s, g.name))
        if isinstance(g, ctl.Const):
            return (sign * (1 if g.value else -1)
                    * helpers.signed(pool.get("true")))
        return sign * helpers.signed(pool.get("h", g, s))

    @pytest.mark.parametrize("text, at_s0, everywhere", [
        ("p & EX q", ("p & EX q", "EX q"), ()),
        ("!EX !p", ("EX !p",), ()),
        ("E[p U q] & q", ("E[p U q] & q", "E[p U q]"), ()),
        ("EX (p & !q) & !EG (p | q)",
         ("EX (p & !q) & !EG (p | q)", "EX (p & !q)", "EG (p | q)"),
         ("p & !q", "p | q")),
        ("EX true & !false", ("EX true & !false", "EX true"), ()),
    ])
    def test_h_exists_only_where_read(self, text, at_s0, everywhere):
        """Only `&`, `|`, EX, EU and EG nodes have an h: a proposition
        reads its `lab`, `!g` reads the negation of g's literal, and the
        constants read one variable, fixed true by a unit clause.  The
        root is read at s0, `!` and `&` read their operands where they
        are read, and EX, EU and EG at every state; an EU or EG keeps
        its approximants at every state.  At one state, the size the solver
        takes over more than 16 propositions, every operator has its h.
        The last clause asserts the root's literal at s0, and a `&`
        read at +1 reads each operand's literal, `-h(g, s)` for `!g`."""
        f = ctl.parse_ctl(text)
        for m in (1, 3):
            pool, clauses = synth._encode(f, m, ("p", "q"))
            clauses = [tuple(map(helpers.signed, c)) for c in clauses]
            read: dict[ctl.CtlFormula, list[int]] = {}
            steps, others = set(), []
            for key, _ in pool.semantic_items():
                if key[0] == "h":
                    read.setdefault(key[1], []).append(key[2])
                elif key[0] == "st":
                    steps.add(key[2])
                elif key[0] not in ("t", "lab"):
                    others.append(key)
            expected = {ctl.parse_ctl(g): [0] for g in at_s0}
            expected.update((ctl.parse_ctl(g), list(range(m)))
                            for g in everywhere)
            assert read == expected, m
            fixpoint = any(isinstance(g, (ExistsUntil, ExistsGlobally))
                           for g in ctl.subterms(f))
            assert steps == (set(range(m)) if fixpoint and m > 2 else set())
            constants = any(isinstance(g, ctl.Const)
                            for g in ctl.subterms(f))
            assert others == ([("true",)] if constants else [])
            if constants:
                assert (helpers.signed(pool.get("true")),) in clauses
            assert clauses[-1] == (self.literal(pool, f, 0),)
            for g, states in read.items():
                if isinstance(g, And):
                    for s in states:
                        for child in ctl.children(g):
                            assert (-helpers.signed(pool.get("h", g, s)),
                                    self.literal(pool, child, s)) in clauses

    def pinned_model(self, struct, f):
        """Solve the synthesis instance of `f` with t/lab fixed to `struct`
        by unit clauses; None when that structure falsifies `f`."""
        pool, clauses = synth._encode(f, struct.size, struct.alphabet)
        backend = CdclSolver(seed=0)
        backend.load(clauses, pool.count)
        states = range(struct.size)
        t = lambda s, u: pool.get("t", s, u)
        lab = lambda s, p: pool.get("lab", s, p)
        pins = [(t(s, u) ^ (u not in struct.successors[s]),)
                for s in states for u in states]
        pins += [(lab(s, p) ^ (p not in struct.labels[s]),)
                 for s in states for p in struct.alphabet]
        backend.load(pins, pool.count)
        return pool, backend.values() if backend.solve() else None

    def test_step_variables_match_prefix_semantics(self):
        """Under `f | !f` every subterm of f is read in both signs
        (polarity 0), so with t/lab pinned every h and st variable of f
        equals its approximant.  Instanced alone, f is read at +1: the
        instance is SAT exactly when f holds at s0, and a true variable
        implies its approximant, a one-sided bound.  Either way f has its
        h at s0 only and its approximants at every state, while its
        proposition operands, read through the successors, have no h:
        approximant 1 is their `lab`, and `!f` reads `-h(f, s0)`.  With
        random ENF targets, the pinned instance is SAT exactly when the
        target holds at s0."""
        rng = random.Random(606)
        phi, psi = Prop("p"), Prop("q")
        one_sided = 0
        for _ in range(40):
            struct = helpers.random_kripke(rng, max_states=3)
            f = rng.choice([ExistsUntil(phi, psi), ExistsGlobally(phi)])
            holds = 0 in helpers.naive_sat(struct, f)
            for target in (Or(f, Not(f)), f):
                exact = target != f
                pool, model = self.pinned_model(struct, target)
                assert (model is not None) == (exact or holds), (f, target)
                if model is None:
                    continue
                one_sided += not exact

                def agrees(lit, truth, exact=exact, model=model):
                    value = (model[abs(lit)] == 1) == (lit > 0)
                    return value == truth if exact else truth or not value

                phi_set = helpers.naive_sat(struct, phi)
                psi_set = helpers.naive_sat(struct, psi)
                operand = f.right if isinstance(f, ExistsUntil) else f.operand
                for k in range(1, struct.size + 2):
                    if isinstance(f, ExistsUntil):
                        expected = helpers.eu_prefix(struct, phi_set,
                                                     psi_set, k)
                    else:
                        expected = helpers.eg_prefix(struct, phi_set, k)
                    for s in range(struct.size):
                        homes = helpers.approximant_vars(
                            k, struct.size, self.literal(pool, operand, s),
                            lambda j: helpers.signed(pool.get("st", f, s, j)),
                            helpers.signed(pool.get("h", f, 0)) if s == 0
                            else None)
                        for var in homes:
                            if var is not None:
                                assert agrees(var, s in expected), (f, k, s)
                h = {key[1:]: helpers.signed(lit)
                     for key, lit in pool.semantic_items() if key[0] == "h"}
                assert [s for g, s in h if g == f] == [0]
                assert [g for g, _ in h if g != f and g != target] == []
                for (sub, s), var in h.items():
                    assert agrees(var, s in helpers.naive_sat(struct, sub))
                if exact:
                    assert agrees(self.literal(pool, Not(f), 0), not holds)
        assert one_sided > 10
        for _ in range(60):
            struct = helpers.random_kripke(rng, max_states=3)
            g = ctl.enf(helpers.random_ctl(rng, ("p", "q"), 3))
            _, model = self.pinned_model(struct, g)
            assert (model is not None) == (
                0 in helpers.naive_sat(struct, g)), ctl.print_ctl(g)
