"""The records the library returns and takes, defined without generating
code at import: construction, immutability, equality and `repr`."""

import os
import subprocess
import sys

import pytest

import ctlinfer
import helpers
from ctlinfer import ceg, ctl, encoder, kripke, learner

PQ_REPR = ("KripkeStructure(alphabet=('p', 'q'), state_names=('s0', 's1'), "
           "initial=frozenset({0}), labels=(frozenset({'p'}), "
           "frozenset({'q'})), successors=(frozenset({1}), frozenset({1})))")

# Imports the package with `dataclasses.dataclass` replaced by a stub that
# raises, then runs one inference.
NO_DATACLASS = """
import dataclasses
import sys

def refuse(*args, **kwargs):
    raise AssertionError("dataclasses.dataclass called")

dataclasses.dataclass = refuse
import ctlinfer

with open(sys.argv[1]) as text:
    model = ctlinfer.parse_kripke(text.read())
print(ctlinfer.print_ctl(ctlinfer.infer(model, 2).formula))
"""


def fresh_python(*argv):
    """Run a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(ctlinfer.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_import_and_infer_generate_no_dataclass():
    proc = fresh_python("-c", NO_DATACLASS,
                        str(helpers.FIXTURES / "selfloop_p.kripke"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "EG p\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    """`ctl` imports `dataclasses` (and with it `inspect`) only to raise
    `FrozenInstanceError`, not at import; and importing builds no formula
    but the constants and parses no rewrite rule."""
    proc = fresh_python("-c", "import sys, ctlinfer; print(sorted("
                        "{'dataclasses', 'inspect'} & set(sys.modules)))\n"
                        "from ctlinfer import ctl, encoder\n"
                        "print(sorted(map(str, ctl._NODES.values())))\n"
                        "print(encoder._rule_clauses.cache_info().currsize,"
                        " encoder._patterns.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n['false', 'true']\n0 0\n"


def pq():
    return helpers.load_fixture("two_state_pq.kripke")


def frozen_records():
    """(record, its fields as keywords) for each immutable record type,
    built by keyword."""
    m = pq()
    p = ctl.Prop("p")
    trace_fields = dict(size=1, satisfiable=True, variables=2, clauses=3,
                        millis=0.5)
    entry_fields = dict(iteration=1, candidate=p, case=2, countermodel=m)
    trace = learner.BudgetTrace(**trace_fields)
    entry = ceg.CegTraceEntry(**entry_fields)
    fields = {
        kripke.KripkeStructure: dict(
            alphabet=m.alphabet, state_names=m.state_names,
            initial=m.initial, labels=m.labels, successors=m.successors),
        learner.Sample: dict(positives=(m,), negatives=()),
        learner.BudgetTrace: trace_fields,
        learner.LearnResult: dict(formula=p, size=1, budgets=(trace,)),
        ceg.CegTraceEntry: entry_fields,
        ceg.CegReport: dict(formula=p, trace=(entry,), bound=2,
                            synth_states=4),
    }
    return [(cls(**kw), kw) for cls, kw in fields.items()]


@pytest.mark.parametrize("record, fields", frozen_records(),
                         ids=lambda r: type(r).__name__)
class TestFrozenRecords:
    def test_keyword_construction_sets_every_field(self, record, fields):
        for name, value in fields.items():
            assert getattr(record, name) is value
        assert record == type(record)(**fields)

    def test_assignment_raises_attribute_error(self, record, fields):
        for name in (*fields, "x"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record == type(record)(**fields)


class TestKripkeStructure:
    def test_equality_and_hash_follow_the_fields(self):
        a, b = pq(), pq()
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((a.alphabet, a.state_names,
                                           a.initial, a.labels,
                                           a.successors))
        other = kripke.parse_kripke(
            "kripke\nprops: p q\nstates: s0 s1\ninit: s0\n"
            "labels: s0: p ; s1: q\ntrans: s0 -> s1 ; s1 -> s0\n")
        assert a != other
        assert len({a, b, other}) == 2

    def test_repr(self):
        assert repr(pq()) == PQ_REPR
        assert repr(learner.Sample((pq(),))) == (
            f"Sample(positives=({PQ_REPR},), negatives=())")

    def test_text_round_trip(self):
        for name in helpers.fixture_names():
            m = helpers.load_fixture(name)
            assert kripke.parse_kripke(kripke.print_kripke(m)) == m

    def test_construction_still_validates(self):
        m = pq()
        with pytest.raises(kripke.NonTotalTransition):
            kripke.KripkeStructure(
                alphabet=m.alphabet, state_names=m.state_names,
                initial=m.initial, labels=m.labels,
                successors=(frozenset(), frozenset({1})))
        with pytest.raises(learner.AlphabetMismatch):
            learner.Sample(positives=(m,),
                           negatives=(helpers.load_fixture("mutex.kripke"),))


def test_encoding_instance_is_mutable_with_defaults():
    pool = encoder.VarPool()
    first = encoder.EncodingInstance(size_budget=2, alphabet=("p",),
                                     pool=pool)
    second = encoder.EncodingInstance(2, ("p",), pool)
    assert first.clauses == [] and first.clauses is not second.clauses
    assert not hasattr(first, "backend")  # reached by `load_backend`
    first.clauses.append((pool.var("x", 1, "p"),))
    first.size_budget = 3
    assert (first.size_budget, first.num_clauses) == (3, 1)
    assert second.num_clauses == 0
