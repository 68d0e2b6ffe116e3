"""Command-line interface.

Subcommands:

* `check <model> <formula>` - model check a formula; `--sets` prints the
  satisfaction set of every subformula.
* `learn --pos F.. [--neg F..] --max-size B` - minimal consistent formula
  for a sample of structure files, with a per-budget SAT/UNSAT trace.
* `synth <formula> [--max-states M] [--props a,b]` - a structure
  satisfying the formula, or a negative verdict bounded by M.
* `infer <model> --bound B [--synth-states M] [--trace PATH]` - the full
  counterexample-guided inference loop.
* `cnf-dump --pos F.. [--neg F..] --size N <out>` - DIMACS export of the
  search instance at budget N, with a comment header mapping semantic
  variables; `learn` solves this instance from budget 4 on, and decides
  budgets 1 to 3 with the checker.

Standard output is machine-parseable: the final answer is the last line,
prefixed `result: `.  Diagnostics go to standard error.  Exit codes:
0 success, 1 negative verdict (fails / no model / no consistent formula),
2 usage, parse or I/O errors (such as a formula nested past
`ctl.MAX_NESTING` or an unwritable output path), 3 backend or internal
failure.  `--seed` (`learn`, `synth`, `infer`) sets the solver's
tie-breaking, which the learner reaches from budget 4 on; every run is
deterministic, seeded or not.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import __version__, ceg, checker, ctl, encoder, kripke, learner, synth
from .sat import BackendFailure

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BACKEND = 3

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctlinfer",
        description="Infer and check concise CTL properties of "
                    "Kripke structures.")
    parser.add_argument("--version", action="version",
                        version=f"ctlinfer {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_check = sub.add_parser("check", help="model check a formula")
    p_check.add_argument("model", help="Kripke structure file")
    p_check.add_argument("formula", help="CTL formula")
    p_check.add_argument("--sets", action="store_true",
                         help="print every subformula's satisfaction set")

    p_learn = sub.add_parser("learn", help="learn a minimal consistent "
                                           "formula from a sample")
    p_learn.add_argument("--pos", nargs="+", required=True, metavar="FILE",
                         help="positive structure files")
    p_learn.add_argument("--neg", nargs="*", default=[], metavar="FILE",
                         help="negative structure files")
    p_learn.add_argument("--max-size", type=int, required=True, metavar="B",
                         help="largest formula size to try")
    p_learn.add_argument("--seed", type=int, default=0)

    p_synth = sub.add_parser("synth", help="synthesize a structure "
                                           "satisfying a formula")
    p_synth.add_argument("formula", help="CTL formula")
    p_synth.add_argument("--max-states", type=int,
                         default=synth.DEFAULT_MAX_STATES, metavar="M")
    p_synth.add_argument("--props", metavar="P,Q",
                         help="alphabet (comma separated); defaults to the "
                              "formula's propositions")
    p_synth.add_argument("--seed", type=int, default=0)

    p_infer = sub.add_parser("infer", help="counterexample-guided "
                                           "inference on one structure")
    p_infer.add_argument("model", help="Kripke structure file")
    p_infer.add_argument("--bound", type=int, required=True, metavar="B",
                         help="formula size bound")
    p_infer.add_argument("--synth-states", type=int,
                         default=synth.DEFAULT_MAX_STATES, metavar="M")
    p_infer.add_argument("--trace", metavar="PATH",
                         help="write the iteration trace to PATH")
    p_infer.add_argument("--seed", type=int, default=0)

    p_dump = sub.add_parser("cnf-dump", help="export one search instance "
                                             "as DIMACS CNF")
    p_dump.add_argument("--pos", nargs="+", required=True, metavar="FILE")
    p_dump.add_argument("--neg", nargs="*", default=[], metavar="FILE")
    p_dump.add_argument("--size", type=int, required=True, metavar="N")
    p_dump.add_argument("output", help="output path")
    return parser


def _load_structure(path: str) -> kripke.KripkeStructure:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise kripke.KripkeError(f"cannot read {path}: {err}") from err
    return kripke.parse_kripke(text)


def _load_sample(pos: Sequence[str], neg: Sequence[str]) -> learner.Sample:
    return learner.Sample(
        positives=tuple(_load_structure(p) for p in pos),
        negatives=tuple(_load_structure(p) for p in neg))


def _state_set(m: kripke.KripkeStructure, states: frozenset[int]) -> str:
    return "{" + ", ".join(m.state_names[s] for s in sorted(states)) + "}"


def _cmd_check(args: argparse.Namespace) -> int:
    m = _load_structure(args.model)
    f = ctl.parse_ctl(args.formula)
    if args.sets:
        table = checker.sat_set_table(m, ctl.enf(f))
        for sub, states in table.items():
            print(f"SAT({ctl.print_ctl(sub)}) = {_state_set(m, states)}")
    verdict = checker.holds(m, f)
    print(f"result: {'holds' if verdict else 'fails'}")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_learn(args: argparse.Namespace) -> int:
    sample = _load_sample(args.pos, args.neg)
    try:
        result = learner.learn_minimal(sample, args.max_size, seed=args.seed)
    except learner.NoConsistentFormula as err:
        for trace in err.budgets:
            print(trace.describe())
        print("result: no consistent formula")
        return EXIT_NEGATIVE
    for trace in result.budgets:
        print(trace.describe())
    print(f"size: {result.size}")
    print(f"result: {ctl.print_ctl(result.formula)}")
    return EXIT_OK


def _counted(count: int, noun: str) -> str:
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


def _cmd_synth(args: argparse.Namespace) -> int:
    f = ctl.parse_ctl(args.formula)
    alphabet = None
    if args.props is not None:
        alphabet = tuple(p.strip() for p in args.props.split(",") if p.strip())
    model = synth.synthesize(f, args.max_states, alphabet, seed=args.seed)
    if model is None:
        print(f"result: no model up to {_counted(args.max_states, 'state')}")
        return EXIT_NEGATIVE
    sys.stdout.write(kripke.print_kripke(model))
    print(f"result: model with {_counted(model.size, 'state')}")
    return EXIT_OK


def _cmd_infer(args: argparse.Namespace) -> int:
    m = _load_structure(args.model)
    trace_file = open(args.trace, "w", encoding="utf-8") if args.trace else None
    structures = [m]  # as rooted negatives index them: model, negatives

    def emit(entry: ceg.CegTraceEntry) -> None:
        inline = "-"
        if entry.countermodel is not None:
            structures.append(entry.countermodel)
            inline = kripke.inline_kripke(entry.countermodel)
        rooted = " ".join(f"{k}:{structures[k].state_names[s]}"
                          for k, s in entry.rooted) or "-"
        line = (f"iter {entry.iteration}: candidate "
                f"{ctl.print_ctl(entry.candidate)} | case {entry.case} | "
                f"rooted {rooted} | countermodel {inline}")
        print(line, file=trace_file if trace_file else sys.stderr)

    try:
        report = ceg.infer(m, args.bound, synth_states=args.synth_states,
                           seed=args.seed, on_iteration=emit)
    finally:
        if trace_file:
            trace_file.close()
    print(f"size: {ctl.size(report.formula)}")
    print(f"iterations: {report.iterations}")
    print(f"certification: strictness certified against countermodels of "
          f"at most {_counted(report.synth_states, 'state')}; candidate "
          f"space of size <= {report.bound} exhausted in "
          f"{_counted(report.iterations, 'iteration')}")
    print(f"result: {ctl.print_ctl(report.formula)}")
    return EXIT_OK


def _cmd_cnf_dump(args: argparse.Namespace) -> int:
    sample = _load_sample(args.pos, args.neg)
    instance = encoder.build_instance(args.size, sample.positives,
                                      sample.negatives)
    Path(args.output).write_text(encoder.to_dimacs(instance),
                                 encoding="ascii")
    print(f"wrote {args.output} (vars={instance.num_vars}, "
          f"clauses={instance.num_clauses})")
    print(f"result: {args.output}")
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "learn": _cmd_learn,
    "synth": _cmd_synth,
    "infer": _cmd_infer,
    "cnf-dump": _cmd_cnf_dump,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 0 for --help/--version and 2 for usage errors
        return int(err.code or 0)
    try:
        # Each integer option is at least 1, checked before any input.
        for name in ("max_size", "max_states", "bound", "synth_states",
                     "size"):
            if getattr(args, name, 1) < 1:
                option = "--" + name.replace("_", "-")
                raise ctl.CtlError(f"{option} must be at least 1")
        return _COMMANDS[args.subcommand](args)
    except (ctl.CtlError, kripke.KripkeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (BackendFailure, synth.SynthesisInconsistency,
            ceg.CegError) as err:
        print(f"backend failure: {err}", file=sys.stderr)
        return EXIT_BACKEND
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_BACKEND


def main() -> None:
    sys.exit(run())
