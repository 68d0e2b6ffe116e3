"""Inference of concise CTL properties from Kripke structures.

The package bundles four layers:

* `ctl` / `kripke` - formulas, structures, parsers and printers.
* `checker` - explicit-state CTL model checking over bitmask state sets.
* `encoder` / `learner` - SAT-based search for a minimal formula
  consistent with positive and negative example structures.
* `tableau` / `synth` / `ceg` - exact satisfiability by tableau
  elimination, bounded model synthesis, and the counterexample-guided
  loop that tightens a hypothesis until it pins down the input structure.
"""

from .ceg import CegReport, CertificationFailure, infer, verify_solution
from .checker import holds, sat_set_table
from .ctl import parse_ctl, print_ctl, size
from .kripke import KripkeStructure, parse_kripke, print_kripke
from .learner import LearnResult, NoConsistentFormula, Sample, learn_minimal
from .sat import BackendFailure, CdclSolver
from .synth import SynthesisInconsistency, implies, synthesize

__version__ = "0.1.0"

__all__ = [
    "BackendFailure",
    "CdclSolver",
    "CegReport",
    "CertificationFailure",
    "KripkeStructure",
    "LearnResult",
    "NoConsistentFormula",
    "Sample",
    "SynthesisInconsistency",
    "__version__",
    "holds",
    "implies",
    "infer",
    "learn_minimal",
    "parse_ctl",
    "parse_kripke",
    "print_ctl",
    "print_kripke",
    "sat_set_table",
    "size",
    "synthesize",
    "verify_solution",
]
