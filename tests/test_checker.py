import random

import pytest

import helpers
from ctlinfer import checker, ctl, kripke


def sat_names(m, text):
    f = ctl.enf(ctl.parse_ctl(text))
    return {m.state_names[s] for s in checker.sat_set_table(m, f)[f]}


class TestSatSet:
    def test_hand_computed_on_fixtures(self):
        m = helpers.load_fixture("mutex.kripke")
        assert sat_names(m, "c") == {"crit"}
        assert sat_names(m, "EX r") == {"idle", "req"}
        assert sat_names(m, "E[r U c]") == {"req", "crit"}
        assert sat_names(m, "EG !c") == {"idle"}
        assert sat_names(m, "AG (r -> AF c)") == {"idle", "req", "crit"}
        assert sat_names(m, "A[!c U r]") == {"req", "crit"}

    def test_diamond(self):
        m = helpers.load_fixture("diamond.kripke")
        assert sat_names(m, "EX (p & q)") == {"s1", "s2", "s3"}
        assert sat_names(m, "AF (p & q)") == {"s0", "s1", "s2", "s3"}
        assert sat_names(m, "EG p") == {"s1", "s3"}

    def test_matches_naive_oracle(self):
        rng = random.Random(99)
        for _ in range(150):
            m = helpers.random_kripke(rng, max_states=5)
            f = ctl.enf(helpers.random_ctl(rng, m.alphabet, depth=3))
            expected = helpers.naive_sat(m, f)
            assert checker.sat_set_table(m, f)[f] == expected
            assert checker.sat_set(m, f) == expected

    def test_requires_enf(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        with pytest.raises(ctl.NotInEnf):
            checker.sat_set_table(m, ctl.parse_ctl("AX p"))

    def test_unknown_proposition(self):
        m = helpers.load_fixture("selfloop_p.kripke")
        with pytest.raises(kripke.UnknownProposition):
            checker.sat_set_table(m, ctl.parse_ctl("zz"))


class TestHolds:
    def test_accepts_sugar(self):
        m = helpers.load_fixture("mutex.kripke")
        assert checker.holds(m, ctl.parse_ctl("AG (r -> AF c)"))
        assert not checker.holds(m, ctl.parse_ctl("AF c"))

    def test_all_initial_states_required(self):
        m = helpers.load_fixture("two_init.kripke")
        assert checker.holds(m, ctl.parse_ctl("p | q"))
        assert not checker.holds(m, ctl.parse_ctl("p"))
        assert not checker.holds(m, ctl.parse_ctl("q"))

    def test_constants(self):
        m = helpers.load_fixture("selfloop_empty.kripke")
        assert checker.holds(m, ctl.TRUE)
        assert not checker.holds(m, ctl.FALSE)
        assert checker.holds(m, ctl.parse_ctl("EG true"))

    def test_matches_naive_on_full_grammar(self):
        rng = random.Random(100)
        for _ in range(150):
            m = helpers.random_kripke(rng, max_states=4)
            f = helpers.random_ctl(rng, m.alphabet, depth=3)
            assert checker.holds(m, f) == helpers.naive_holds(m, f)


class TestSatSetTable:
    def test_children_first_and_complete(self):
        m = helpers.load_fixture("mutex.kripke")
        f = ctl.enf(ctl.parse_ctl("E[r U c] | EX c"))
        table = checker.sat_set_table(m, f)
        assert set(table) == set(ctl.subterms(f))
        seen = set()
        for sub in table:
            assert all(child in seen for child in ctl.children(sub))
            seen.add(sub)
