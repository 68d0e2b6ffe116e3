import random

import pytest

import helpers
from ctlinfer import kripke
from ctlinfer.kripke import KripkeStructure


def small(**overrides):
    base = dict(
        props=["p", "q"], states=["s0", "s1"], init=["s0"],
        labels={"s0": ["p"], "s1": ["q"]},
        trans={"s0": ["s1"], "s1": ["s1"]})
    base.update(overrides)
    return kripke.validate(**base)


class TestValidate:
    def test_accepts_well_formed(self):
        m = small()
        assert m.size == 2
        assert m.successors[0] == frozenset({1})
        assert m.labels[1] == frozenset({"q"})
        assert m.state_names.index("s1") == 1

    def test_missing_labels_default_empty(self):
        m = small(labels={})
        assert all(label == frozenset() for label in m.labels)

    def test_rejects_non_total(self):
        with pytest.raises(kripke.NonTotalTransition) as err:
            small(trans={"s0": ["s1"]})
        assert err.value.state == "s1"

    def test_rejects_empty_init(self):
        with pytest.raises(kripke.EmptyInitial):
            small(init=[])

    def test_rejects_unknown_state(self):
        with pytest.raises(kripke.UnknownState):
            small(init=["nope"])
        with pytest.raises(kripke.UnknownState):
            small(trans={"s0": ["s1"], "s1": ["zz"]})

    def test_rejects_unknown_proposition(self):
        with pytest.raises(kripke.UnknownProposition):
            small(labels={"s0": ["r"]})

    def test_rejects_duplicates(self):
        with pytest.raises(kripke.InvalidStructure):
            small(states=["s0", "s0"])
        with pytest.raises(kripke.InvalidStructure):
            small(props=["p", "p"])

    def test_rejects_reserved_proposition_names(self):
        for name in ("EX", "true", "U", "AG", "EU"):
            with pytest.raises(kripke.InvalidStructure):
                small(props=["p", name], labels={})

    def test_parse_rejects_an_operator_label_as_a_proposition(self):
        # `EU` is the learner's E-until label, so a proposition of that
        # name would share its SAT variables.
        with pytest.raises(kripke.InvalidStructure, match="'EU'"):
            kripke.parse_kripke("kripke\nprops: EU\nstates: s\ninit: s\n"
                                "labels: s: EU\ntrans: s -> s\n")

    def test_rejects_bad_identifiers(self):
        with pytest.raises(kripke.InvalidStructure):
            small(props=["p-q"], labels={})


class TestConstructor:
    """The checks `KripkeStructure` makes itself, which `validate` cannot
    reach: it builds only index-based fields from unique, known names."""

    @staticmethod
    def build(**overrides):
        base = dict(alphabet=("p",), state_names=("s0", "s1"),
                    initial=frozenset({0}),
                    labels=(frozenset({"p"}), frozenset()),
                    successors=(frozenset({1}), frozenset({0})))
        base.update(overrides)
        return KripkeStructure(**base)

    def test_accepts_well_formed(self):
        assert self.build().size == 2

    @pytest.mark.parametrize("overrides, error, message", [
        (dict(state_names=(), labels=(), successors=()),
         kripke.InvalidStructure, "at least one state"),
        (dict(state_names=("s0", "s0")), kripke.InvalidStructure,
         "duplicate state names"),
        (dict(state_names=("s0", "s-1")), kripke.InvalidStructure,
         "invalid state name 's-1'"),
        (dict(labels=(frozenset(),)), kripke.InvalidStructure,
         "cover every state"),
        (dict(successors=(frozenset({1}),)), kripke.InvalidStructure,
         "cover every state"),
        (dict(initial=frozenset({2})), kripke.UnknownState, "'2'"),
        (dict(initial=frozenset({-1})), kripke.UnknownState, "'-1'"),
        (dict(successors=(frozenset({1}), frozenset({0, 2}))),
         kripke.UnknownState, "'2'"),
    ])
    def test_rejects_a_broken_invariant(self, overrides, error, message):
        with pytest.raises(error, match=message):
            self.build(**overrides)


class TestParse:
    def test_fixture_corpus_roundtrips(self):
        names = helpers.fixture_names()
        assert len(names) >= 10
        for name in names:
            m = helpers.load_fixture(name)
            assert kripke.parse_kripke(kripke.print_kripke(m)) == m

    def test_comments_and_blank_lines(self):
        text = """
        # leading comment
        kripke
        props: p   # trailing comment
        states: s0
        init: s0

        labels: s0: p
        trans: s0 -> s0
        """
        m = kripke.parse_kripke(text)
        assert m.labels[0] == frozenset({"p"})

    def test_empty_label_entries(self):
        m = kripke.parse_kripke(
            "kripke\nprops: p\nstates: a b\ninit: a\n"
            "labels: a: ; b:\ntrans: a -> b ; b -> a")
        assert m.labels == (frozenset(), frozenset())

    def test_empty_entries_between_separators_are_accepted(self):
        m = kripke.parse_kripke(
            "kripke\nprops: p\nstates: a b\ninit: a\n"
            "labels: ; a: p ; ; b: ;\ntrans: a -> b ; ; b -> a ;")
        assert m.labels == (frozenset({"p"}), frozenset())
        assert m.successors == (frozenset({1}), frozenset({0}))

    def test_label_entry_without_colon_fails(self):
        with pytest.raises(kripke.ParseError, match="followed by ':'") as err:
            kripke.parse_kripke(
                "kripke\nprops: p\nstates: a b\ninit: a\n"
                "labels: a: p ; b p\ntrans: a -> b ; b -> a")
        assert (err.value.line, err.value.column) == (5, 16)

    def test_empty_init_section_fails(self):
        with pytest.raises(kripke.ParseError,
                           match="empty 'init:' section") as err:
            kripke.parse_kripke(
                "kripke\nprops: p\nstates: a\ninit:\n"
                "labels: a: p\ntrans: a -> a")
        assert (err.value.line, err.value.column) == (4, 1)

    def test_missing_section_fails(self):
        with pytest.raises(kripke.ParseError):
            kripke.parse_kripke("kripke\nprops: p\nstates: s0\ninit: s0\n"
                                "trans: s0 -> s0")

    def test_wrong_header_fails(self):
        with pytest.raises(kripke.ParseError) as err:
            kripke.parse_kripke("kripk\nprops:\nstates: s0\ninit: s0\n"
                                "labels:\ntrans: s0 -> s0")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("", 1), ("# only a comment\n", 1), ("kripke\nprops: p\n", 3)])
    def test_missing_line_is_reported_after_the_last_one(self, text, line):
        # Empty input has no line to come after, so it reports line 1.
        with pytest.raises(kripke.ParseError) as err:
            kripke.parse_kripke(text)
        assert err.value.line == line
        assert f"(line {line}, column 1)" in str(err.value)

    def test_duplicate_entry_fails(self):
        with pytest.raises(kripke.ParseError) as err:
            kripke.parse_kripke(
                "kripke\nprops: p\nstates: s0\ninit: s0\n"
                "labels: s0: p ; s0: p\ntrans: s0 -> s0")
        assert err.value.line == 5

    def test_missing_arrow_fails(self):
        with pytest.raises(kripke.ParseError):
            kripke.parse_kripke(
                "kripke\nprops: p\nstates: s0\ninit: s0\n"
                "labels: s0: p\ntrans: s0 s0")

    def test_trailing_content_fails(self):
        with pytest.raises(kripke.ParseError) as err:
            kripke.parse_kripke(
                "kripke\nprops: p\nstates: s0\ninit: s0\n"
                "labels: s0: p\ntrans: s0 -> s0\nextra")
        assert err.value.line == 7

    def test_random_roundtrip(self):
        rng = random.Random(404)
        for _ in range(150):
            m = helpers.random_kripke(rng, max_states=5)
            assert kripke.parse_kripke(kripke.print_kripke(m)) == m


def test_inline_is_single_line():
    m = helpers.load_fixture("two_state_pq.kripke")
    line = kripke.inline_kripke(m)
    assert "\n" not in line
    assert line.startswith("kripke / props: p q / ")


def renamed_by(m: KripkeStructure, perm: list[int]) -> KripkeStructure:
    """m with state s moved to index perm[s] and every state renamed."""
    return KripkeStructure(
        alphabet=m.alphabet,
        state_names=tuple(f"t{i}" for i in range(m.size)),
        initial=frozenset(perm[s] for s in m.initial),
        labels=tuple(m.labels[perm.index(s)] for s in range(m.size)),
        successors=tuple(
            frozenset(perm[t] for t in m.successors[perm.index(s)])
            for s in range(m.size)))


class TestBisimulation:
    def test_agrees_with_relation_oracle_on_small_structures(self):
        structures = [m for n in (1, 2)
                      for m in helpers.all_structures(n, ("p",))]
        for a in structures:
            for b in structures:
                ca, cb = kripke.bisimulation_classes([a, b])
                got = {(s, t) for s in range(a.size) for t in range(b.size)
                       if ca[s] == cb[t]}
                assert got == helpers.bisimilar_pairs(a, b), (a, b)

    def test_unfolded_loop_is_bisimilar(self):
        loop = helpers.load_fixture("selfloop_p.kripke")
        two_cycle = kripke.validate(
            props=["p"], states=["a", "b"], init=["a"],
            labels={"a": ["p"], "b": ["p"]},
            trans={"a": ["b"], "b": ["a"]})
        assert kripke.bisimulation_classes([loop, two_cycle]) == [(0,), (0, 0)]


class TestIsomorphic:
    """A structure under a state renaming gets the same classes; changing
    its successors or its label names splits them."""

    def test_relabeled_states(self):
        a = small()
        b = kripke.validate(
            props=["p", "q"], states=["x1", "x0"], init=["x0"],
            labels={"x0": ["p"], "x1": ["q"]},
            trans={"x0": ["x1"], "x1": ["x1"]})
        ca, cb = kripke.bisimulation_classes([a, b])
        assert ca == (cb[1], cb[0])

    def test_detects_difference(self):
        a = small()
        looped = small(trans={"s0": ["s0"], "s1": ["s1"]})
        ca, cl = kripke.bisimulation_classes([a, looped])
        assert ca[0] != cl[0]
        assert ca[1] == cl[1]

    def test_label_names_matter(self):
        a = small()
        swapped = small(labels={"s0": ["q"], "s1": ["p"]})
        ca, cs = kripke.bisimulation_classes([a, swapped])
        assert set(ca).isdisjoint(cs)

    def test_invariant_under_permutation_random(self):
        rng = random.Random(77)
        for _ in range(50):
            m = helpers.random_kripke(rng, max_states=4)
            perm = list(range(m.size))
            rng.shuffle(perm)
            cm, cr = kripke.bisimulation_classes([m, renamed_by(m, perm)])
            assert all(cm[s] == cr[perm[s]] for s in range(m.size))
