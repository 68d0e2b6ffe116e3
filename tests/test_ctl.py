import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from ctlinfer import checker, ctl, encoder
from ctlinfer.ctl import (And, Const, ExistsGlobally, ExistsNext,
                          ExistsUntil, Not, Or, Prop)


def test_size_counts_distinct_subformulas():
    f = ctl.parse_ctl("EX p | E[p U EG q]")
    assert ctl.size(f) == 6
    assert ctl.size(ctl.parse_ctl("p")) == 1
    assert ctl.size(ctl.parse_ctl("p & q & p")) == 4
    assert ctl.size(ctl.parse_ctl("p & p")) == 2
    assert ctl.size(ctl.parse_ctl("!p | !p")) == 3


def test_subformulas_shared_once():
    f = ctl.parse_ctl("EX p | E[p U EG q]")
    subs = set(ctl.subterms(f))
    assert Prop("p") in subs
    assert len(subs) == 6


def test_propositions():
    assert ctl.propositions(ctl.parse_ctl("EX a | E[b U EG a]")) == {"a", "b"}
    assert ctl.propositions(ctl.TRUE) == set()


def test_propositions_visit_each_shared_node_once():
    # 2^60 root-to-leaf paths, 61 nodes.
    f = Prop("p")
    for _ in range(60):
        f = And(f, f)
    assert ctl.propositions(f) == {"p"}


def test_propositions_match_the_subformula_set():
    rng = random.Random(31)
    formulas = [helpers.random_ctl(rng, ("p", "q", "r"), 4)
                for _ in range(500)]
    for f in formulas:
        assert ctl.propositions(f) == {
            g.name for g in ctl.subterms(f) if isinstance(g, Prop)}
    seen = {type(g) for f in formulas for g in ctl.subterms(f)}
    assert {Const, ctl.ForallUntil, ctl.Implies} <= seen


def test_identifier_operator_labels_are_reserved():
    # `cnf-dump` names each operator label in its comments; a proposition
    # named like one would read the same there.
    names = [encoder._LABEL_NAMES[lab] for lab in ctl.OPERATOR_LABELS]
    assert names == ["!", "&", "|", "EX", "EU", "EG"]
    named = {name for name in names if ctl._IDENT_RE.match(name)}
    assert named == {"EX", "EU", "EG"}
    assert named <= ctl.RESERVED_WORDS
    for name in named:
        with pytest.raises(ctl.CtlError, match="reserved"):
            Prop(name)
    with pytest.raises(ctl.ParseError, match="found 'EU'"):
        ctl.parse_ctl("p & EU")


class TestParser:
    def test_precedence(self):
        assert ctl.parse_ctl("a | b & c") == Or(
            Prop("a"), And(Prop("b"), Prop("c")))
        assert ctl.parse_ctl("!a & b") == And(Not(Prop("a")), Prop("b"))
        assert ctl.parse_ctl("EX a | b") == Or(ExistsNext(Prop("a")),
                                               Prop("b"))
        assert ctl.parse_ctl("EG a & b") == And(ExistsGlobally(Prop("a")),
                                                Prop("b"))

    def test_associativity(self):
        a, b, c = Prop("a"), Prop("b"), Prop("c")
        assert ctl.parse_ctl("a & b & c") == And(And(a, b), c)
        assert ctl.parse_ctl("a | b | c") == Or(Or(a, b), c)
        assert ctl.parse_ctl("a -> b -> c") == ctl.Implies(
            a, ctl.Implies(b, c))

    def test_until_brackets(self):
        f = ctl.parse_ctl("E[a U b]")
        assert f == ExistsUntil(Prop("a"), Prop("b"))
        g = ctl.parse_ctl("A[a U b & c]")
        assert isinstance(g, ctl.ForallUntil)
        assert g.right == And(Prop("b"), Prop("c"))

    def test_constants(self):
        assert ctl.parse_ctl("true") == Const(True)
        assert ctl.parse_ctl("false") == Const(False)

    def test_nested_unary(self):
        f = ctl.parse_ctl("!!EX EG a")
        assert f == Not(Not(ExistsNext(ExistsGlobally(Prop("a")))))

    @pytest.mark.parametrize("text", [
        "", "p &", "(p", "p)", "E[p U", "E p", "A[p]", "p q",
        "EX", "->", "E[p U q", "[p]",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ctl.ParseError):
            ctl.parse_ctl(text)

    def test_error_reports_position(self):
        with pytest.raises(ctl.ParseError) as err:
            ctl.parse_ctl("p & & q")
        assert err.value.position == 5

    def test_rejects_stray_characters(self):
        with pytest.raises(ctl.ParseError):
            ctl.parse_ctl("p @ q")

    @pytest.mark.parametrize("shape", sorted(helpers.NESTED_SHAPES))
    def test_nesting_limit(self, shape):
        build = helpers.NESTED_SHAPES[shape]
        f = ctl.parse_ctl(build(ctl.MAX_NESTING))
        assert ctl.parse_ctl(ctl.print_ctl(f)) == f
        for depth in (ctl.MAX_NESTING + 1, 3000):
            with pytest.raises(ctl.ParseError,
                               match=f"more than {ctl.MAX_NESTING}"):
                ctl.parse_ctl(build(depth))

    def test_nesting_error_points_at_the_opening_token(self):
        with pytest.raises(ctl.ParseError) as err:
            ctl.parse_ctl("p & " + "EX " * 70 + "p")
        assert err.value.position == 5 + 3 * ctl.MAX_NESTING


OPERATORS = [Not, And, ctl.Or, ctl.Implies, ExistsNext, ExistsUntil,
             ExistsGlobally, ctl.ExistsFinally, ctl.ForallNext,
             ctl.ForallUntil, ctl.ForallGlobally, ctl.ForallFinally]
NODE_CLASSES = [Prop, Const] + OPERATORS


def field_names(cls):
    return cls.__match_args__


def example_node(cls):
    """A node of class `cls`: `p`, `true`, or an operator over p (and q)."""
    if cls is Const:
        return Const(True)
    if cls is Prop:
        return Prop("p")
    return cls(*(Prop("p"), Prop("q"))[:len(field_names(cls))])


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
class TestNodeContract:
    """Every node class keeps the behaviour of a frozen, slotted dataclass
    of its own, though its shape class defines the methods by hand."""

    def test_equality_is_class_sensitive(self, cls):
        node = example_node(cls)
        values = tuple(getattr(node, name) for name in field_names(cls))
        assert node == cls(*values)
        for other in NODE_CLASSES:
            if other is not cls and field_names(other) == field_names(cls):
                assert node != other(*values)
                assert other(*values) != node

    def test_equal_fields_give_one_node(self, cls):
        node = example_node(cls)
        values = tuple(getattr(node, name) for name in field_names(cls))
        assert cls(*values) is node
        assert hash(node) == object.__hash__(node)

    def test_repr(self, cls):
        fields = {
            ("name",): "name='p'",
            ("value",): "value=True",
            ("operand",): "operand=Prop(name='p')",
            ("left", "right"): "left=Prop(name='p'), right=Prop(name='q')",
        }[field_names(cls)]
        assert repr(example_node(cls)) == f"{cls.__name__}({fields})"

    def test_frozen_without_dict(self, cls):
        node = example_node(cls)
        for name in field_names(cls) + ("x", "_hash"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, Prop("r"))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert node == example_node(cls)
        assert not hasattr(node, "__dict__")

    def test_pickle_and_copy_keep_equality_and_hash(self, cls):
        node = example_node(cls)
        for copied in (pickle.loads(pickle.dumps(node)), copy.copy(node),
                       copy.deepcopy(node)):
            assert type(copied) is cls
            assert copied is node
            assert copied == node
            assert hash(copied) == hash(node)


def test_equal_formulas_are_one_node():
    """Two separately parsed copies of `A[p U ...]` 30 deep are one
    object.  In ENF each has 3^30 root-to-leaf paths, so every check is
    computed into a bool first: a failing `assert` would print the
    `repr`, which walks them all."""
    text = "A[p U " * 30 + "q" + "]" * 30
    first, second = (ctl.enf(ctl.parse_ctl(text)) for _ in range(2))
    same = first is second
    assert same
    other = ctl.enf(ctl.parse_ctl("A[p U " * 30 + "p" + "]" * 30))
    differ = first != other
    assert differ
    ex, eg = (ctl.enf(ctl.parse_ctl("A[p U " * 30 + op + " q" + "]" * 30))
              for op in ("EX", "EG"))
    differ = ex != eg and eg != ex
    assert differ
    assert ctl.size(ctl.Or(first, second)) == ctl.size(first) + 1
    last_but_one = ctl.subterms(ctl.And(first, second))[-2] is first
    assert last_but_one


def test_enf_leaves_no_reference_cycle():
    """`enf` of a formula with universal operators, implications and EF
    leaves nothing for the cycle collector: its recursion holds the memo
    as an argument, not as a closure cell of a self-calling function."""
    f = ctl.parse_ctl("AG (p -> AF q) & A[p U EF !q] & AX p")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        got = ctl.enf(f)
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert ctl.is_enf(got) and got != f
    assert garbage == 0


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda cls: cls.__name__)
def test_operator_classes_define_no_methods(cls):
    # The shape classes define every method once; an operator class
    # carries none of its own.
    assert set(vars(cls)) <= {"__module__", "__qualname__", "__doc__",
                              "__slots__"}


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_a_wrong_field_count_raises_and_stores_no_node(cls):
    p = Prop("p")
    nodes = len(ctl._NODES)
    for count in {0, 1, 2, 3} - {len(field_names(cls))}:
        with pytest.raises(TypeError):
            cls(*(p,) * count)
    assert len(ctl._NODES) == nodes


@pytest.mark.parametrize("name", ["", "1p", "p q", "p-q", "p\n", "true",
                                  "A", "EX", "EU"])
def test_an_invalid_or_reserved_name_raises_and_stores_no_node(name):
    nodes = len(ctl._NODES)
    with pytest.raises(ctl.CtlError):
        Prop(name)
    assert len(ctl._NODES) == nodes
    assert (Prop, name) not in ctl._NODES


def test_a_constant_is_one_node_per_truth_value():
    assert Const(1) is Const(True) is ctl.TRUE
    assert Const(0) is Const(False) is ctl.FALSE


def test_print_minimal_parentheses():
    cases = {
        "a | b & c": "a | b & c",
        "(a | b) & c": "(a | b) & c",
        "!(a & b)": "!(a & b)",
        "EX (a | b)": "EX (a | b)",
        "E[a U b | c]": "E[a U b | c]",
        "a -> (b -> c)": "a -> b -> c",
        "(a -> b) -> c": "(a -> b) -> c",
    }
    for source, rendered in cases.items():
        assert ctl.print_ctl(ctl.parse_ctl(source)) == rendered


def test_print_parse_roundtrip_random():
    rng = random.Random(20608)
    for _ in range(300):
        f = helpers.random_ctl(rng, ("a", "b", "c"), depth=4)
        assert ctl.parse_ctl(ctl.print_ctl(f)) == f


@st.composite
def formulas(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return helpers.random_ctl(rng, ("p", "q"), depth=4)


@given(formulas())
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip_property(f):
    assert ctl.parse_ctl(ctl.print_ctl(f)) == f


# Builds both deep inputs, then rewrites and checks them on two_state_pq,
# where each holds: s0 (p) -> s1 (q) -> s1.
DEEP_ENF = """
from ctlinfer import checker, ctl, kripke
p, q = ctl.Prop("p"), ctl.Prop("q")
until, chain = q, p
for _ in range(40):
    until = ctl.ForallUntil(p, until)
for _ in range(60):
    chain = ctl.And(chain, chain)
m = kripke.parse_kripke("kripke\\nprops: p q\\nstates: s0 s1\\n"
                        "init: s0\\nlabels: s0: p ; s1: q\\n"
                        "trans: s0 -> s1 ; s1 -> s1\\n")
once = ctl.enf(until)
print(ctl.enf(once) is once, checker.holds(m, once),
      ctl.enf(chain) is chain, checker.holds(m, chain),
      ctl.is_enf(once), ctl.is_enf(chain))
"""


class TestEnf:
    def test_operator_set(self):
        rng = random.Random(5)
        for _ in range(200):
            f = helpers.random_ctl(rng, ("p", "q"), depth=4)
            assert ctl.is_enf(ctl.enf(f))

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(100):
            f = helpers.random_ctl(rng, ("p", "q"), depth=3)
            g = ctl.enf(f)
            assert ctl.enf(g) == g

    def test_preserves_semantics(self):
        rng = random.Random(7)
        for _ in range(120):
            m = helpers.random_kripke(rng, max_states=4)
            f = helpers.random_ctl(rng, m.alphabet, depth=3)
            g = ctl.enf(f)
            assert helpers.naive_sat(m, f) == helpers.naive_sat(m, g)

    def test_constants_stay(self):
        g = ctl.enf(ctl.parse_ctl("EF true"))
        assert g == ctl.ExistsUntil(ctl.TRUE, ctl.TRUE)
        assert ctl.is_enf(g)

    def test_known_rewrites(self):
        assert ctl.print_ctl(ctl.enf(ctl.parse_ctl("AX p"))) == "!EX !p"
        assert ctl.print_ctl(ctl.enf(ctl.parse_ctl("AF p"))) == "!EG !p"
        assert ctl.print_ctl(ctl.enf(ctl.parse_ctl("EF p"))) == "E[true U p]"

    def test_deep_shared_inputs_take_linear_time(self):
        """`enf` rewrites and `is_enf` visits each node once per call: the
        ENF of a 40-deep right-nested A-until reads each level's `!g`
        three times, and a 60-deep `And(f, f)` chain reads each level
        twice, so a walk of every root-to-leaf path takes 3^40 and 2^60
        steps.  In a subprocess with a timeout, so that such a walk fails
        the test instead of hanging it."""
        src = os.path.dirname(os.path.dirname(ctl.__file__))
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", DEEP_ENF], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True True True True True True\n"



def test_evaluate_constant():
    # A proposition-free formula has one truth value on every total
    # structure, so the checker decides it on any of them.
    table = {
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
    rng = random.Random(130)
    structures = [helpers.random_kripke(rng, 4) for _ in range(20)]
    for text, expected in table.items():
        f = ctl.parse_ctl(text)
        assert not ctl.propositions(f)
        for m in structures:
            assert checker.holds(m, f) is expected, text
            assert helpers.naive_holds(m, f) is expected, text


class TestSyntaxDag:
    """`ctl.subterms` lists a formula's syntax DAG: each distinct subterm
    once, children first, left before right, the formula last."""

    def test_canonical_numbering(self):
        f = ctl.parse_ctl("EX p | E[p U EG q]")
        subs = ctl.subterms(f)
        assert len(subs) == 6
        assert [label for label, _, _ in helpers.dag_nodes(f)] == [
            "p", ExistsNext, "q", ExistsGlobally, ExistsUntil, Or]
        p, ex, q, eg, eu, root = subs
        assert root == f
        assert ex.operand == p
        assert (eu.left, eu.right) == (p, eg)  # the p leaf is shared
        assert (root.left, root.right) == (ex, eu)

    def test_children_strictly_below_and_first_node_prop(self):
        rng = random.Random(11)
        for _ in range(200):
            f = helpers.random_enf(rng, ("p", "q"), 4)
            subs = ctl.subterms(f)
            assert isinstance(subs[0], Prop)
            assert subs[0].name in ("p", "q")
            for i, g in enumerate(subs):
                for child in ctl.children(g):
                    assert subs.index(child) < i

    def test_roundtrip(self):
        rng = random.Random(12)
        for _ in range(200):
            f = helpers.random_enf(rng, ("p", "q"), 4)
            subs = ctl.subterms(f)
            assert subs[-1] == f
            assert len(set(subs)) == len(subs) == ctl.size(f)
            built = []
            for label, left, right in helpers.dag_nodes(f):
                if left is None:
                    built.append(Prop(label))
                else:
                    operands = [built[j - 1] for j in (left, right) if j]
                    built.append(label(*operands))
            assert built == subs

    def test_shared_subterms_are_walked_once(self):
        # 2^60 paths, 61 nodes: subterms and hashing visit each node once.
        f = Prop("p")
        for _ in range(60):
            f = And(f, f)
        subs = ctl.subterms(f)
        assert len(subs) == ctl.size(f) == 61
        last, one_node = subs[-1] is f, f is And(f.left, f.right)
        assert last and one_node


def _all_dags(alphabet, n):
    """Independent DAG-space enumeration used to cross-check
    enumerate_formulas: choose a label per node and children below it,
    and build each node's formula from its children's."""
    labels = list(alphabet) + list(ctl.OPERATOR_LABELS)
    found = set()

    def extend(built):
        i = len(built) + 1
        if i > n:
            found.add(built[-1])
            return
        choices = list(alphabet) if i == 1 else labels
        for lab in choices:
            if isinstance(lab, str):
                extend(built + [Prop(lab)])
            elif lab in ctl.BINARY_LABELS:
                for j in range(1, i):
                    for j2 in range(1, i):
                        extend(built + [lab(built[j - 1], built[j2 - 1])])
            else:
                for j in range(1, i):
                    extend(built + [lab(built[j - 1])])

    extend([])
    return found


class TestEnumerateFormulas:
    def test_sizes_and_uniqueness(self):
        formulas = ctl.enumerate_formulas(("p", "q"), 4)
        assert len(formulas) == len(set(formulas))
        sizes = [ctl.size(f) for f in formulas]
        assert all(1 <= s <= 4 for s in sizes)
        assert sizes == sorted(sizes)
        assert all(ctl.is_enf(f) for f in formulas)

    def test_children_precede_parents(self):
        formulas = ctl.enumerate_formulas(("p",), 4)
        seen = set()
        for f in formulas:
            assert all(c in seen for c in ctl.children(f))
            seen.add(f)

    @pytest.mark.parametrize("alphabet,max_size", [
        (("p",), 3), (("p", "q"), 3),
    ])
    def test_matches_dag_space_enumeration(self, alphabet, max_size):
        expected = set()
        for n in range(1, max_size + 1):
            expected |= {f for f in _all_dags(alphabet, n)
                         if ctl.size(f) == n}
        got = set(ctl.enumerate_formulas(alphabet, max_size))
        assert got == expected

    def test_empty_when_no_budget(self):
        assert ctl.enumerate_formulas(("p",), 0) == []
