import itertools
import os
import re
import shlex
import subprocess
import sys
import types

import pytest

import ctlinfer
import helpers
from ctlinfer import ceg, cli, ctl, kripke, learner, sat
from ctlinfer.cli import run

FIX = helpers.FIXTURES


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_line(out):
    return out.rstrip("\n").splitlines()[-1]


def assert_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def readme_examples():
    """(argv, printed lines) of each `ctlinfer` command in the README's
    quick start, with continued lines joined."""
    text = (FIX.parent / "README.md").read_text(encoding="utf-8")
    quick_start = text.split("## Quick start")[1].split("\n## ")[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", quick_start, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("$ ctlinfer "):
                examples.append((shlex.split(line)[2:], []))
            elif examples:
                examples[-1][1].append(line)
    return examples


def test_readme_quick_start_matches_the_cli(capsys):
    examples = {argv[0]: (argv, lines) for argv, lines in readme_examples()}
    keys = ("budget ", "size:", "iterations:", "result:")
    for name in ("learn", "infer"):
        argv, documented = examples[name]
        argv = [str(FIX.parent / arg) if arg.startswith("fixtures/") else arg
                for arg in argv]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        expected = [line for line in documented if line.startswith(keys)]
        assert len(expected) == 3
        assert [line for line in out.splitlines()
                if line.startswith(keys)] == expected


class TestCheck:
    def test_holds(self, capsys):
        code, out, _ = invoke(capsys, "check",
                              str(FIX / "selfloop_p.kripke"), "p")
        assert code == 0
        assert last_line(out) == "result: holds"

    def test_fails(self, capsys):
        code, out, _ = invoke(capsys, "check",
                              str(FIX / "selfloop_p.kripke"), "!p")
        assert code == 1
        assert last_line(out) == "result: fails"

    def test_sets_lists_each_subformula(self, capsys):
        code, out, _ = invoke(capsys, "check", "--sets",
                              str(FIX / "two_state_pq.kripke"), "E[p U q]")
        assert code == 0
        lines = out.splitlines()
        assert "SAT(p) = {s0}" in lines
        assert "SAT(q) = {s1}" in lines
        assert "SAT(E[p U q]) = {s0, s1}" in lines

    def test_sets_output_is_pinned(self, capsys):
        # Children first, left before right, each subformula once.
        code, out, _ = invoke(capsys, "check", "--sets",
                              str(FIX / "two_state_pq.kripke"), "A[p U q]")
        assert code == 0
        assert out.splitlines() == [
            "SAT(q) = {s1}",
            "SAT(!q) = {s0}",
            "SAT(p) = {s0}",
            "SAT(!p) = {s1}",
            "SAT(!p & !q) = {}",
            "SAT(E[!q U !p & !q]) = {}",
            "SAT(!E[!q U !p & !q]) = {s0, s1}",
            "SAT(EG !q) = {}",
            "SAT(!EG !q) = {s0, s1}",
            "SAT(!E[!q U !p & !q] & !EG !q) = {s0, s1}",
            "result: holds",
        ]

    def test_parse_error_is_usage(self, capsys):
        code, out, err = invoke(capsys, "check",
                                str(FIX / "selfloop_p.kripke"), "p &")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_unknown_proposition_is_usage(self, capsys):
        code, _, err = invoke(capsys, "check",
                              str(FIX / "selfloop_p.kripke"), "nope")
        assert code == 2
        assert "nope" in err

    @pytest.mark.parametrize("sets", [(), ("--sets",)], ids=["plain", "sets"])
    def test_unknown_proposition_prints_nothing_but_the_error(self, capsys,
                                                              sets):
        # The checker's own refusal, before any line is printed.
        code, out, err = invoke(capsys, "check", *sets,
                                str(FIX / "selfloop_p.kripke"), "q")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: unknown proposition 'q'"]

    def test_missing_file_is_usage(self, capsys):
        code, _, err = invoke(capsys, "check", "no_such_file.kripke", "p")
        assert code == 2
        assert "no_such_file" in err

    def test_undecodable_file_is_usage(self, capsys, tmp_path):
        binary = tmp_path / "binary.kripke"
        binary.write_bytes(b"kripke\nprops: p\xff\n")
        code, out, err = invoke(capsys, "check", str(binary), "p")
        assert_usage_error(code, err)
        assert "binary.kripke" in err
        assert out == ""


class TestLearn:
    def test_minimal_formula_with_trace(self, capsys):
        code, out, _ = invoke(
            capsys, "learn", "--pos", str(FIX / "selfloop_p.kripke"),
            "--neg", str(FIX / "selfloop_empty.kripke"), "--max-size", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "budget 1: SAT (enumerated)"
        assert "size: 1" in lines
        assert last_line(out) == "result: p"

    def test_budget_lines_cover_unsat_prefix(self, capsys):
        runs = [
            (["--pos", "full2.kripke", "--neg", "sink_q.kripke",
              "--max-size", "5", "--seed", "7"],
             ["budget 1: UNSAT (enumerated)",
              "budget 2: UNSAT (enumerated)",
              "budget 3: UNSAT (enumerated)",
              "budget 4: UNSAT (vars=72, clauses=456)",
              "budget 5: SAT (vars=102, clauses=899)",
              "size: 5", "result: E[p U EX p & !p]"]),
            (["--pos", "diamond.kripke", "--neg", "branching.kripke",
              "--max-size", "4", "--seed", "0"],
             ["budget 1: UNSAT (enumerated)",
              "budget 2: UNSAT (enumerated)",
              "budget 3: UNSAT (enumerated)",
              "budget 4: SAT (vars=132, clauses=826)",
              "size: 4", "result: !EG !q"]),
        ]
        for args, expected in runs:
            argv = [str(FIX / a) if a.endswith(".kripke") else a
                    for a in args]
            code, out, _ = invoke(capsys, "learn", *argv)
            assert code == 0
            assert out.splitlines() == expected

    def test_no_consistent_formula(self, capsys):
        code, out, _ = invoke(
            capsys, "learn", "--pos", str(FIX / "selfloop_p.kripke"),
            "--neg", str(FIX / "selfloop_p.kripke"), "--max-size", "2")
        assert code == 1
        assert last_line(out) == "result: no consistent formula"

    def test_inseparable_negative_prints_no_budget_lines(self, capsys,
                                                         tmp_path):
        two_cycle = tmp_path / "two_cycle_p.kripke"
        two_cycle.write_text(
            "kripke\nprops: p\nstates: a b\ninit: a\n"
            "labels: a: p ; b: p\ntrans: a -> b ; b -> a\n")
        code, out, _ = invoke(
            capsys, "learn", "--pos", str(FIX / "selfloop_p.kripke"),
            "--neg", str(two_cycle), "--max-size", "5")
        assert code == 1
        assert out == "result: no consistent formula\n"

    def test_empty_alphabet_has_no_formula(self, capsys, tmp_path):
        # Formula leaves are propositions, so nothing fits any budget;
        # `infer` keeps its initial hypothesis.
        empty = tmp_path / "empty.kripke"
        empty.write_text("kripke\nprops:\nstates: a\ninit: a\n"
                         "labels: a:\ntrans: a -> a\n")
        code, out, _ = invoke(capsys, "learn", "--pos", str(empty),
                              "--max-size", "3")
        assert code == 1
        lines = out.splitlines()
        assert [line.split(" (")[0] for line in lines[:-1]] == [
            "budget 1: UNSAT", "budget 2: UNSAT", "budget 3: UNSAT"]
        assert lines[-1] == "result: no consistent formula"
        code, out, _ = invoke(capsys, "infer", str(empty), "--bound", "3")
        assert code == 0
        assert "iterations: 0" in out.splitlines()
        assert last_line(out) == "result: true"

    def test_mixed_alphabets_are_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "learn", "--pos", str(FIX / "selfloop_p.kripke"),
            "--neg", str(FIX / "mutex.kripke"), "--max-size", "2")
        assert code == 2
        assert "alphabet" in err


class TestSynth:
    def test_model_output_parses_back(self, capsys):
        code, out, _ = invoke(capsys, "synth", "EG p & EX !p", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        model_text = "\n".join(lines[:-1]) + "\n"
        m = kripke.parse_kripke(model_text)
        assert last_line(out) == f"result: model with {m.size} states"

    def test_no_model(self, capsys):
        for formula, states, bound in (("p & !p", "3", "3 states"),
                                       ("false", "1", "1 state")):
            code, out, _ = invoke(capsys, "synth", formula,
                                  "--max-states", states)
            assert code == 1
            assert last_line(out) == f"result: no model up to {bound}"

    def test_props_flag_extends_alphabet(self, capsys):
        code, out, _ = invoke(capsys, "synth", "p", "--props", "p,q")
        assert code == 0
        assert "props: p q" in out.splitlines()

    def test_malformed_props_are_usage_errors_without_a_model(self, capsys):
        """Duplicate, malformed or reserved names are rejected before any
        solving, so an unsatisfiable formula does not hide them."""
        for props in ("p,1x", "p,p", "p,p,EX", "p,EX"):
            code, out, err = invoke(capsys, "synth", "p & !p",
                                    "--props", props)
            assert_usage_error(code, err)
            assert out == "", props

    def test_alphabet_missing_a_formula_proposition_is_usage(self, capsys):
        code, out, err = invoke(capsys, "synth", "q", "--props", "p")
        assert_usage_error(code, err)
        assert "'q'" in err
        assert out == ""


class TestInfer:
    def test_infers_eg_p(self, capsys):
        code, out, _ = invoke(
            capsys, "infer", str(FIX / "selfloop_p.kripke"), "--bound", "2")
        assert code == 0
        lines = out.splitlines()
        assert last_line(out) == "result: EG p"
        assert "size: 2" in lines
        assert any(line.startswith("iterations: ") for line in lines)
        assert any(line.startswith("certification: ") for line in lines)

    def test_trace_file_format(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        code, _, _ = invoke(
            capsys, "infer", str(FIX / "selfloop_p.kripke"),
            "--bound", "2", "--trace", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines, "trace file must not be empty"
        for line in lines:
            assert line.startswith("iter ")
            assert " | case " in line
            assert " | countermodel " in line
        # Countermodels are inlined as parseable single-line structures.
        inline = next(line for line in lines
                      if not line.endswith("countermodel -"))
        text = inline.split(" | countermodel ", 1)[1]
        kripke.parse_kripke(text.replace(" / ", "\n"))

    def test_trace_lists_the_rooted_negatives(self, capsys, tmp_path):
        """Each trace line names the rooted negatives of its iteration as
        structure index and state name, the model being 0 and the k-th
        negative k, or `-`; together they are the report's `rooted`."""
        path = tmp_path / "trace.txt"
        model = helpers.load_fixture("two_state_pq.kripke")
        code, _, _ = invoke(
            capsys, "infer", str(FIX / "two_state_pq.kripke"), "--bound", "4",
            "--seed", "1", "--trace", str(path))
        assert code == 0
        report = ceg.infer(model, 4, seed=1)
        structures = (model,) + report.negatives
        lines = path.read_text().splitlines()
        assert len(lines) == len(report.trace)
        listed = []
        for line, entry in zip(lines, report.trace):
            field = line.split(" | rooted ", 1)[1].split(" | countermodel ")[0]
            names = [] if field == "-" else field.split(" ")
            assert names == [f"{k}:{structures[k].state_names[s]}"
                             for k, s in entry.rooted]
            listed += names
        assert lines[0].split(" | ")[2] == "rooted 0:s1"
        assert len(listed) == len(report.rooted) > 1

    def test_certification_counts_one_state_and_one_iteration(self, capsys):
        code, out, _ = invoke(
            capsys, "infer", str(FIX / "selfloop_p.kripke"), "--bound", "2",
            "--synth-states", "1")
        assert code == 0
        assert ("certification: strictness certified against countermodels "
                "of at most 1 state; candidate space of size <= 2 exhausted "
                "in 3 iterations") in out.splitlines()
        code, out, _ = invoke(
            capsys, "infer", str(FIX / "diamond.kripke"), "--bound", "2")
        assert code == 0
        assert ("certification: strictness certified against countermodels "
                "of at most 6 states; candidate space of size <= 2 exhausted "
                "in 1 iteration") in out.splitlines()

    def test_trace_goes_to_stderr_without_flag(self, capsys):
        code, out, err = invoke(
            capsys, "infer", str(FIX / "selfloop_p.kripke"), "--bound", "1")
        assert code == 0
        assert "iter 1:" in err
        assert not any(line.startswith("iter ")
                       for line in out.splitlines())


    def test_unwritable_trace_is_usage(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "infer", str(FIX / "selfloop_p.kripke"), "--bound", "1",
            "--trace", str(tmp_path / "missing" / "trace.txt"))
        assert_usage_error(code, err)
        assert out == ""

class TestCnfDump:
    def test_writes_dimacs(self, capsys, tmp_path):
        target = tmp_path / "omega.cnf"
        code, out, _ = invoke(
            capsys, "cnf-dump", "--pos", str(FIX / "selfloop_p.kripke"),
            "--neg", str(FIX / "selfloop_empty.kripke"),
            "--size", "2", str(target))
        assert code == 0
        assert last_line(out) == f"result: {target}"
        header = next(line for line in target.read_text().splitlines()
                      if line.startswith("p cnf"))
        _, _, num_vars, num_clauses = header.split()
        assert int(num_vars) > 0 and int(num_clauses) > 0
        assert f"vars={num_vars}" in out

    def test_matches_every_learn_budget(self, capsys, tmp_path):
        sample = ["--pos", str(FIX / "full2.kripke"),
                  "--neg", str(FIX / "sink_q.kripke")]
        code, out, _ = invoke(capsys, "learn", *sample, "--max-size", "5")
        assert code == 0
        budgets = [line for line in out.splitlines()
                   if line.startswith("budget ")]
        assert len(budgets) == 5
        # Only the budgets above the checker's are solved with a CNF.
        solved = [line for line in budgets if "(vars=" in line]
        assert len(solved) == len(budgets) - learner.CHECK_CAP > 0
        for line in solved:
            size = line.split(":")[0].split()[1]
            counts = line.split("(")[1].rstrip(")")
            target = tmp_path / f"omega_{size}.cnf"
            code, out, _ = invoke(capsys, "cnf-dump", *sample,
                                  "--size", size, str(target))
            assert code == 0
            assert out.splitlines()[0] == f"wrote {target} ({counts})"

    def test_unwritable_output_is_usage(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "cnf-dump", "--pos", str(FIX / "selfloop_p.kripke"),
            "--size", "1", str(tmp_path / "missing" / "omega.cnf"))
        assert_usage_error(code, err)
        assert out == ""

class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run([]) == 2

    def test_closed_stdout_is_one_usage_error(self, capsys, monkeypatch):
        """Standard output closed by its reader (`BrokenPipeError`, an
        `OSError`) exits 2 with one `error:` line and no traceback."""
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        code = run(["check", str(FIX / "selfloop_p.kripke"), "p"])
        err = capsys.readouterr().err
        assert_usage_error(code, err)
        assert err.splitlines() == ["error: [Errno 32] Broken pipe"]

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert "check" in out and "infer" in out

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "ctlinfer" in capsys.readouterr().out

    def test_bad_bound_values(self, capsys):
        code, _, err = invoke(
            capsys, "infer", str(FIX / "selfloop_p.kripke"), "--bound", "0")
        assert code == 2
        assert "bound" in err

    @pytest.mark.parametrize("argv, flag", [
        (["learn", "--pos", str(FIX / "selfloop_p.kripke"),
          "--max-size", "0"], "--max-size"),
        (["synth", "EX p", "--max-states", "0"], "--max-states"),
        (["cnf-dump", "--pos", str(FIX / "selfloop_p.kripke"),
          "--size", "0", "{out}"], "--size"),
    ])
    def test_zero_budgets_are_usage_errors(self, capsys, tmp_path, argv,
                                           flag):
        target = tmp_path / "omega.cnf"
        argv = [str(target) if arg == "{out}" else arg for arg in argv]
        code, out, err = invoke(capsys, *argv)
        assert_usage_error(code, err)
        assert flag in err
        assert out == ""
        assert not target.exists()

    @pytest.mark.parametrize("argv, option", [
        (["learn", "--pos", "{missing}", "--max-size", "0"], "--max-size"),
        (["synth", "p &", "--max-states", "0"], "--max-states"),
        (["infer", "{missing}", "--bound", "0"], "--bound"),
        (["infer", "{missing}", "--bound", "2", "--synth-states", "0"],
         "--synth-states"),
        (["cnf-dump", "--pos", "{missing}", "--size", "0", "{out}"],
         "--size"),
    ])
    def test_range_is_checked_before_any_input(self, capsys, tmp_path, argv,
                                               option):
        # The input is missing or unparsable, so only a range check that
        # comes first can name the option.
        paths = {"{missing}": str(tmp_path / "missing.kripke"),
                 "{out}": str(tmp_path / "out.cnf")}
        code, out, err = invoke(capsys, *(paths.get(a, a) for a in argv))
        assert code == 2
        assert err == f"error: {option} must be at least 1\n"
        assert out == ""

    def test_bad_synth_states_values(self, capsys, tmp_path):
        # An empty alphabet has no candidate, so only this check sees
        # the budget.
        empty = tmp_path / "empty.kripke"
        empty.write_text("kripke\nprops:\nstates: a\ninit: a\n"
                         "labels: a:\ntrans: a -> a\n")
        code, out, err = invoke(capsys, "infer", str(empty), "--bound", "2",
                                "--synth-states", "-3")
        assert code == 2
        assert "--synth-states" in err
        assert out == ""


EU_LOOP = ("kripke\nprops: EU\nstates: s\ninit: s\nlabels: s: EU\n"
           "trans: s -> s\n")


def test_operator_label_is_not_a_proposition(capsys, tmp_path):
    """`EU`, the learner's E-until label, is refused as a proposition name
    by every command, not learned as one."""
    eu_loop = tmp_path / "eu_loop.kripke"
    eu_loop.write_text(EU_LOOP)
    commands = [
        ["check", str(FIX / "selfloop_p.kripke"), "EU"],
        ["check", str(eu_loop), "p"],
        ["learn", "--pos", str(eu_loop), "--max-size", "2"],
        ["infer", str(eu_loop), "--bound", "2"],
        ["synth", "p", "--props", "p,EU"],
    ]
    for argv in commands:
        code, out, err = invoke(capsys, *argv)
        assert_usage_error(code, err)
        assert "'EU'" in err, argv
        assert out == "", argv


def test_backend_failure_exit_code(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise sat.BackendFailure("conflict budget exhausted")

    monkeypatch.setattr(cli.checker, "holds", explode)
    code, _, err = invoke(capsys, "check",
                          str(FIX / "selfloop_p.kripke"), "p")
    assert code == 3
    assert "backend failure" in err



def test_decode_audit_failure_exit_code(capsys, monkeypatch):
    def no_choice(solver):
        return [0] + [-1] * solver.num_vars

    monkeypatch.setattr(sat.CdclSolver, "values", no_choice)
    # Budgets 1 to 3 are decided without a solver; budget 4 decodes.
    code, _, err = invoke(capsys, "learn", "--pos",
                          str(FIX / "two_init.kripke"), "--neg",
                          str(FIX / "chain3.kripke"), "--max-size", "4")
    assert code == 3
    assert "backend failure: assignment fixes 0 choices" in err


@pytest.mark.parametrize("shape", sorted(helpers.NESTED_SHAPES))
def test_deep_formula_is_a_usage_error(capsys, shape):
    deep = helpers.NESTED_SHAPES[shape](3000)
    code, out, err = invoke(capsys, "check",
                            str(FIX / "selfloop_p.kripke"), deep)
    assert_usage_error(code, err)
    assert out == ""
    assert f"more than {ctl.MAX_NESTING}" in err


NESTED_COMMANDS = {
    "check": lambda f: ["check", str(FIX / "two_state_pq.kripke"), f],
    "check-sets": lambda f: ["check", str(FIX / "two_state_pq.kripke"), f,
                             "--sets"],
    "synth": lambda f: ["synth", f, "--max-states", "2"],
}


@pytest.mark.parametrize("command", sorted(NESTED_COMMANDS))
@pytest.mark.parametrize("shape", sorted(helpers.NESTED_SHAPES))
def test_formula_at_the_nesting_limit_is_answered(capsys, shape, command):
    formula = helpers.NESTED_SHAPES[shape](ctl.MAX_NESTING)
    code, out, err = invoke(capsys, *NESTED_COMMANDS[command](formula))
    assert code in (0, 1), err
    assert last_line(out).startswith("result: ")


@pytest.mark.parametrize("command", sorted(NESTED_COMMANDS))
@pytest.mark.parametrize("shape", sorted(helpers.NESTED_SHAPES))
def test_formula_past_the_nesting_limit_is_a_usage_error(capsys, shape,
                                                         command):
    formula = helpers.NESTED_SHAPES[shape](ctl.MAX_NESTING + 1)
    code, out, err = invoke(capsys, *NESTED_COMMANDS[command](formula))
    assert_usage_error(code, err)
    assert out == ""
    assert f"more than {ctl.MAX_NESTING}" in err


# `enf` repeats g three times in `A[f U g]`, so A-until nested on the right
# k deep has 3^k paths to its innermost operand, over a DAG of O(k) nodes.
# Not a `helpers.NESTED_SHAPES` shape: `check --sets` prints every path.
RIGHT_NESTED_UNTIL = ("p & EX !p & " + "A[p U " * (ctl.MAX_NESTING - 1) + "q"
                      + "]" * (ctl.MAX_NESTING - 1))


@pytest.mark.parametrize("command, result", [
    ("check", "result: holds"),
    ("synth", "result: model with 2 states"),
])
def test_right_nested_until_is_answered(command, result):
    # In a subprocess with a timeout, so that a walk that does not share
    # the repeated operand fails the test instead of hanging it.
    proc = run_module(*NESTED_COMMANDS[command](RIGHT_NESTED_UNTIL),
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert last_line(proc.stdout) == result


@pytest.mark.parametrize("exc, message", [
    (KeyError("lost"), "KeyError: 'lost'"),
    (ValueError("x"), "ValueError: x"),
], ids=["KeyError", "ValueError"])
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, exc,
                                                   message):
    def explode(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.ceg, "infer", explode)
    code, out, err = invoke(capsys, "infer", str(FIX / "selfloop_p.kripke"),
                            "--bound", "2")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_seeded_runs_are_identical(capsys):
    argv = ["infer", str(FIX / "branching.kripke"),
            "--bound", "3", "--seed", "11"]
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first == second


def test_seeded_learn_output_ignores_the_clock(capsys, monkeypatch):
    # A clock whose every reading is further on than the last by more
    # each time: any printed duration would differ between the runs.
    ticks = itertools.count()
    monkeypatch.setattr(learner, "time", types.SimpleNamespace(
        perf_counter=lambda: next(ticks) ** 2))
    argv = ["learn", "--pos", str(FIX / "two_state_pq.kripke"),
            str(FIX / "chain3.kripke"), "--neg", str(FIX / "cycle2.kripke"),
            "--max-size", "4", "--seed", "7"]
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first[0] == 0
    assert first == second


def run_module(*argv, timeout=None, **env):
    # Run the package under test, also when pytest put it on sys.path.
    src = os.path.dirname(os.path.dirname(ctlinfer.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ctlinfer", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path, **env},
        timeout=timeout)


def test_console_entry_point():
    proc = run_module("check", str(FIX / "selfloop_p.kripke"), "p")
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "result: holds"


# Hash seeds under which the label sets of `ctl` iterate in three
# different orders (under 0 and 1 they iterate alike).
HASH_SEEDS = ("0", "2", "3")


def test_seeded_runs_ignore_the_hash_seed():
    # Set iteration order differs between interpreters with different
    # hash seeds, so only separate processes can show an order leak.
    for argv in (["infer", str(FIX / "sink_q.kripke"), "--bound", "3",
                  "--synth-states", "4", "--seed", "1"],
                 ["learn", "--pos", str(FIX / "cycle2.kripke"),
                  "--neg", str(FIX / "two_state_pq.kripke"),
                  "--max-size", "4", "--seed", "5"]):
        first, *others = (run_module(*argv, PYTHONHASHSEED=seed)
                          for seed in HASH_SEEDS)
        assert first.returncode == 0, first.stderr
        for other in others:
            assert (first.returncode, first.stdout, first.stderr) == (
                other.returncode, other.stdout, other.stderr)


def test_cnf_dump_ignores_the_hash_seed(tmp_path):
    # The clause order follows label tuples, never set iteration.
    dumps = []
    for seed in HASH_SEEDS:
        out = tmp_path / f"hash{seed}.cnf"
        proc = run_module("cnf-dump", "--pos",
                          str(FIX / "two_state_pq.kripke"), "--neg",
                          str(FIX / "chain3.kripke"), "--size", "4",
                          str(out), PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1] == dumps[2]
