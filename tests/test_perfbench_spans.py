"""The benchmark's span wrappers still find every library name they trace.

`perfbench/spans.py` replaces library functions through their module
attributes; a renamed or deleted name would otherwise only fail when the
benchmark runs.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import helpers
from ctlinfer import ceg, checker, encoder, learner, sat, synth

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

SPAN_NAMES = {"ceg.infer", "learner.learn_minimal", "learner.infer_candidate",
              "encoder.build_instance", "encoder.load_backend",
              "encoder.decode", "synth.synthesize", "synth.implies",
              "checker.holds", "sat.solve"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_opens_every_span_and_restores_the_originals():
    spans = load_spans()
    lib = SimpleNamespace(ceg=ceg, checker=checker, encoder=encoder,
                          learner=learner, sat=sat, synth=synth)
    owners = (ceg, checker, encoder, learner, synth, sat.CdclSolver)
    before = [dict(vars(owner)) for owner in owners]
    m = helpers.load_fixture("selfloop_p.kripke")
    tracer = spans.Tracer()
    with spans.traced(lib, tracer):
        # Bound 4: the learner's first CNF instance is at budget 4.
        ceg.infer(m, 4, synth_states=3)
        learner.learn_minimal(learner.Sample((m,)), 2)
    assert {span[spans.NAME] for span in tracer.spans} == SPAN_NAMES
    assert [dict(vars(owner)) for owner in owners] == before
