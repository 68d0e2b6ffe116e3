"""Tableau satisfiability against bounded synthesis and the naive oracle.

`synthesize` consults the tableau itself, so the differential tests run
bounded synthesis with the tableau switched off (`sweep_only`).
"""

import contextlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import helpers
from ctlinfer import ctl, synth, tableau
from ctlinfer.ctl import And, Not, Or, Prop

ALPHABET = ("p", "q")
WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")

# One refuted and one surviving case per deletion rule, in the order of the
# module docstring (successor, EX demand, EU fixpoint, AF fixpoint), and
# `EG q & !q`, which the unfolding of EG alone refutes.
UNSAT_CASES = ["AX false", "EX p & AX !p", "E[p U q] & !EF q",
               "AF !q & AG q", "EG q & !q"]
SAT_CASES = ["AX p", "EX p & EX !p", "E[p U q] & EG !q", "AF !q & EX q"]


def enf(text):
    return ctl.enf(ctl.parse_ctl(text))


def random_targets(seed, count):
    """Random ENF formulas of size <= 4 and pairs `f & !g` of them."""
    rng = random.Random(seed)
    for i in range(count):
        f = helpers.random_enf(rng, ALPHABET, 4)
        yield f if i % 2 else And(f, Not(helpers.random_enf(rng, ALPHABET, 4)))


@contextlib.contextmanager
def sweep_only():
    """Bounded synthesis alone: with the cap at -1, `tableau.satisfiable`
    answers None, undecided, and `synthesize` goes on to the sweep."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableau, "MAX_ELEMENTARY", -1)
        yield


@pytest.mark.parametrize("text", UNSAT_CASES)
def test_each_rule_refutes_its_case(text):
    assert not tableau.satisfiable(enf(text))


@pytest.mark.parametrize("text", SAT_CASES)
def test_each_rule_keeps_its_case(text):
    f = enf(text)
    assert tableau.satisfiable(f)
    with sweep_only():
        assert synth.synthesize(f, 3, ALPHABET) is not None


def test_synthesized_models_are_satisfiable():
    found = 0
    for i, f in enumerate(random_targets(810, 120)):
        with sweep_only():
            model = synth.synthesize(f, 3 + i % 2, ALPHABET, seed=0)
        if model is not None:
            found += 1
            assert tableau.satisfiable(f), ctl.print_ctl(f)
    assert found > 80


def test_undecided_exactly_above_the_cap():
    undecided = []
    for k in range(1, 14):
        f = enf("EX " * k + "p & !p")
        props, nexts = tableau._elementary(ctl.subterms(f))
        above = len(props) + len(nexts) > tableau.MAX_ELEMENTARY
        assert tableau.satisfiable(f) is (None if above else True), k
        if above:
            undecided.append(k)
    assert undecided == [12, 13]


def test_unsatisfiable_formulas_hold_nowhere():
    rng = random.Random(811)
    structures = [m for n in (1, 2)
                  for m in helpers.all_structures(n, ALPHABET)]
    structures += [helpers.random_kripke(rng, 5, ALPHABET, min_states=3)
                   for _ in range(60)]
    refuted = [f for f in random_targets(812, 240)
               if not tableau.satisfiable(f)]
    assert len(refuted) > 25
    for f in refuted:
        for m in structures:
            assert not helpers.naive_sat(m, f), ctl.print_ctl(f)


def test_benchmark_pairs_have_their_hand_argued_verdicts(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module executes.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    verdicts = [
        tableau.satisfiable(ctl.enf(
            And(ctl.parse_ctl(f), Not(ctl.parse_ctl(g)))))
        for f, g, _, _ in workloads.SYNTH_PAIRS]
    expected = [size is not None for _, _, _, size in workloads.SYNTH_PAIRS]
    assert verdicts == expected
    assert expected.count(False) == 9 and expected.count(True) == 5


@pytest.mark.parametrize("text, verdict", [
    ("true", True), ("EF p & !AF p", True), ("false", False),
    ("EX true & EX false", False), ("E[p U q] & !EF q", False)])
def test_constants_are_leaves(text, verdict):
    """`ctl.enf` keeps `true` and `false`, and the tableau reads them as
    the checker does: true in every atom, and in none."""
    assert tableau.satisfiable(enf(text)) is verdict


def without_constants(f):
    """f with `true` as `p | !p` and `false` as `p & !p`: the same
    formula without constant leaves, the reference the tableau's reading
    of `true` and `false` is checked against."""
    p = Prop("p")
    if isinstance(f, ctl.Const):
        return Or(p, Not(p)) if f.value else And(p, Not(p))
    if isinstance(f, Prop):
        return f
    return type(f)(*map(without_constants, ctl.children(f)))


def test_constants_match_their_tautologies():
    rng = random.Random(813)
    with_constants = 0
    for _ in range(200):
        f = helpers.random_ctl(rng, ALPHABET, depth=3)
        with_constants += ctl.TRUE in ctl.subterms(f) or (
            ctl.FALSE in ctl.subterms(f))
        verdict = tableau.satisfiable(ctl.enf(f))
        assert verdict is not None
        assert verdict == tableau.satisfiable(
            ctl.enf(without_constants(f))), ctl.print_ctl(f)
    assert with_constants > 40


def test_blocks_match_the_per_atom_elimination():
    """Eliminating atoms a whole EX part at a time gives the verdicts of
    eliminating them one by one (`helpers.tableau_by_atom`), None
    included, on random targets over three propositions with constants,
    from one elementary formula to past the cap."""
    rng = random.Random(814)
    verdicts, sizes, constants = set(), set(), 0
    for _ in range(1000):
        f = ctl.enf(helpers.random_ctl(rng, ("p", "q", "r"),
                                       rng.choice([2, 3, 4, 5, 6])))
        props, nexts = tableau._elementary(ctl.subterms(f))
        sizes.add(len(props) + len(nexts))
        constants += any(isinstance(g, ctl.Const) for g in ctl.subterms(f))
        verdict = tableau.satisfiable(f)
        assert verdict is helpers.tableau_by_atom(
            f, tableau.MAX_ELEMENTARY), ctl.print_ctl(f)
        verdicts.add(verdict)
    assert verdicts == {True, False, None}
    assert set(range(tableau.MAX_ELEMENTARY + 2)) <= sizes
    assert constants > 200
    # Only f-atoms extend an E[f U g] path: here every atom with a
    # q-successor lies outside p.
    f = enf("!q & E[p U q] & AG (p -> AX !q)")
    assert tableau.satisfiable(f) is helpers.tableau_by_atom(
        f, tableau.MAX_ELEMENTARY) is False


def test_refutes_at_its_cap_over_many_propositions():
    """Ten propositions and two EX parts: 12 elementary formulas, the
    cap, in 4 blocks of 1,024 atoms."""
    f = enf(" & ".join(f"p{i}" for i in range(10))
            + " & EG p0 & !E[p1 U p0]")
    props, nexts = tableau._elementary(ctl.subterms(f))
    assert (len(props), len(nexts)) == (10, 2)
    assert tableau.satisfiable(f) is False
    assert helpers.tableau_by_atom(f, tableau.MAX_ELEMENTARY) is False


def test_rejects_sugar():
    with pytest.raises(ctl.NotInEnf):
        tableau.satisfiable(ctl.parse_ctl("AX p"))
