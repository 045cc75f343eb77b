"""Command-line interface: verbs, output goldens, exit codes, determinism."""
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from partialsat import (
    Atom, TruthValue3, build_obdd, dpll_enumerate, eval3, obdd_enumerate, parse,
    parse_assignment, tableaux_enumerate,
)
from partialsat import cli
from partialsat.cli import run
from gen import atom_pool, random_formula

DATA = Path(__file__).parent / "data"
GAP = "(A1 & A2) | (A1 & !A2)"
CNF_OF_GAP = (
    "(B1 | B2) & (!B1 | A1) & (!B1 | A2) & (B1 | !A1 | !A2)"
    " & (!B2 | A1) & (!B2 | !A2) & (B2 | !A1 | A2)"
)
PROBLEM_JSON = """
{
  "base": "(!B1 | B2) & (B1 | !B2)",
  "predicates": [
    {"label": "A1", "def": "B1 & B2"},
    {"label": "A2", "def": "B1 & !B2"}
  ]
}
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_both_modes_golden(self, capsys):
        code, out, _ = invoke(capsys, "check", "-f", GAP, "-a", "A1")
        assert code == 0
        assert out == "validates: false\nentails: true\n"

    def test_single_mode_exit_codes(self, capsys):
        assert invoke(capsys, "check", "-f", GAP, "-a", "A1", "--mode", "validates")[0] == 1
        assert invoke(capsys, "check", "-f", GAP, "-a", "A1", "--mode", "entails")[0] == 0
        assert invoke(capsys, "check", "-f", GAP, "-a", "A1, A2", "--mode", "validates")[0] == 0

    def test_witness_on_entailment_failure(self, capsys):
        code, out, _ = invoke(capsys, "check", "-f", GAP)
        assert code == 0
        assert out == "validates: false\nentails: false\nwitness: !A1, A2\n"

    @pytest.mark.parametrize("cap", [(), ("--max-atoms", "0")])
    def test_the_atom_cap_does_not_change_the_witness(self, capsys, cap):
        # the residual's first falsifier, swept or refuted by DPLL
        code, out, _ = invoke(capsys, "check", "-f", "!A1 & A2", "-a", "", *cap)
        assert (code, out) == (0, "validates: false\nentails: false\nwitness: A1, A2\n")

    def test_an_empty_witness_reads_empty(self, capsys):
        code, out, _ = invoke(capsys, "check", "-f", "false", "-a", "")
        assert (code, out) == (0, "validates: false\nentails: false\nwitness: (empty)\n")
        code, out, _ = invoke(capsys, "check", "-f", "false", "--json")
        assert json.loads(out)["witness"] == []

    def test_quantified_formula_uses_the_lifted_checks(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "-f", f"exists B1 B2 . {CNF_OF_GAP}", "-a", "A1"
        )
        assert code == 0
        assert out == "validates: false\nentails: true\n"

    def test_quantified_validation_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "-f", f"exists B1 B2 . {CNF_OF_GAP}", "-a", "A1, A2"
        )
        assert code == 0
        assert out == "validates: true\ndelta: B1, !B2\nentails: true\n"

    def test_lifted_validates_json_carries_the_delta(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "-f", "exists B1 . A1 & B1", "-a", "A1",
            "--mode", "validates", "--json",
        )
        assert code == 0
        assert json.loads(out) == {"validates": True, "delta": ["B1"]}

    def test_lifted_entails_false_prints_the_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "-f", "exists B1 . A1 & B1", "-a", "!A1",
            "--mode", "entails",
        )
        assert code == 1
        assert out == "entails: false\nwitness: !A1\n"

    @pytest.mark.parametrize("formula, flag, message", [
        ("exists B1 . A1 | B1", "--branch-budget",
         "--branch-budget applies only to a formula without exists"),
        ("A1 | A2", "--expansion-cap", "--expansion-cap applies only to an exists formula"),
    ])
    def test_a_limit_option_the_input_never_reads_is_refused(self, capsys, monkeypatch,
                                                             formula, flag, message):
        assert invoke(capsys, "check", "-f", formula, "-a", "A1", flag, "0") == (
            2, "", f"error: {message}\n")
        # its environment variable is resolved, but not refused
        monkeypatch.setenv("PARTIALSAT_" + flag[2:].replace("-", "_").upper(), "0")
        assert invoke(capsys, "check", "-f", formula, "-a", "A1")[0] == 0

    def test_validates_mode_decides_no_entailment(self, capsys, monkeypatch):
        # deciding entailment here would exhaust the default branch budget
        tautologies = "".join(f" & (B{i} | !B{i})" for i in range(1, 24))
        assert invoke(capsys, "check", "-f", "A1" + tautologies, "-a", "A1",
                      "--mode", "validates") == (1, "validates: false\n", "")
        # ... and here would exceed the atom cap
        monkeypatch.setenv("PARTIALSAT_MAX_ATOMS", "0")
        assert invoke(capsys, "check", "-f", "exists B1 . (A1 & B1) | A2", "-a", "A2",
                      "--mode", "validates") == (0, "validates: true\ndelta: B1\n", "")

    @pytest.mark.parametrize("formula, flag", [
        ("A1 | A2", "--max-atoms"),
        ("A1 | A2", "--branch-budget"),
        ("exists B1 . A1 | B1", "--max-atoms"),
    ])
    def test_a_limit_option_validation_never_reads_is_refused(self, capsys, monkeypatch,
                                                              formula, flag):
        argv = ("check", "-f", formula, "-a", "A1", "--mode", "validates")
        assert invoke(capsys, *argv, flag, "0") == (
            2, "", f"error: {flag} applies only to --mode entails or both\n")
        # its environment variable is resolved, but not refused
        monkeypatch.setenv("PARTIALSAT_" + flag[2:].replace("-", "_").upper(), "0")
        assert invoke(capsys, *argv)[0] == 0

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "check", "-f", GAP, "-a", "A1", "--json")
        assert code == 0
        assert json.loads(out) == {"validates": False, "entails": True}

    def test_json_with_witness(self, capsys):
        _, out, _ = invoke(capsys, "check", "-f", GAP, "--json")
        assert json.loads(out) == {
            "validates": False,
            "entails": False,
            "witness": ["!A1", "A2"],
        }

    def test_parse_error_exits_2(self, capsys):
        code, out, err = invoke(capsys, "check", "-f", "A1 &")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_recursion_limit_exits_3_not_false(self, capsys, monkeypatch):
        # nothing in the package recurses; the exit-3 mapping stays a guard
        def overflow(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._VERBS, "enumerate", (overflow, cli._cube_lines))
        deep_and = " & ".join(f"d{i}" for i in range(1200))
        code, out, err = invoke(capsys, "enumerate", "-f", deep_and, "--engine", "obdd")
        assert code == 3
        assert out == ""
        assert err == "error: formula nesting exceeds the recursion limit\n"

    def test_deep_chain_enumerates_with_the_obdd(self, capsys):
        names = [f"d{i}" for i in range(1200)]
        code, out, err = invoke(capsys, "enumerate", "-f", " & ".join(names),
                                "--engine", "obdd")
        assert (code, err) == (0, "")
        assert out == " & ".join(sorted(names)) + "\n"

    def test_deep_parentheses_are_decided(self, capsys):
        deep_parens = "(" * 500 + "d0" + ")" * 500
        code, out, _ = invoke(capsys, "check", "-f", deep_parens, "-a", "")
        assert code == 0
        assert out == "validates: false\nentails: false\nwitness: !d0\n"

    def test_deep_chain_is_decided(self, capsys):
        deep_and = " & ".join(f"d{i}" for i in range(1200))
        code, out, _ = invoke(capsys, "check", "-f", deep_and, "-a", "", "--json")
        assert code == 0
        answer = json.loads(out)
        assert answer["validates"] is False and answer["entails"] is False
        witness = parse_assignment(", ".join(answer["witness"]))
        assert witness.domain == {Atom(f"d{i}") for i in range(1200)}
        assert eval3(parse(deep_and), witness) is TruthValue3.F
        code, out, _ = invoke(capsys, "check", "-f", deep_and, "--mode", "entails")
        assert code == 1

    def test_inconsistent_assignment_exits_2(self, capsys):
        code, _, err = invoke(capsys, "check", "-f", "A1", "-a", "A1, !A1")
        assert code == 2
        assert "error:" in err

    def test_formula_file_input(self, capsys, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("# a comment line\n(A1 & A2) | (A1 & !A2)\n")
        code, out, _ = invoke(capsys, "check", "--file", str(path), "-a", "A1")
        assert code == 0
        assert out == "validates: false\nentails: true\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = invoke(capsys, "check", "--file", "/nonexistent/f.txt")
        assert code == 2
        assert "error:" in err

    def test_formula_and_file_are_mutually_exclusive(self, capsys, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("A1")
        code, _, _ = invoke(capsys, "check", "-f", "A1", "--file", str(path))
        assert code == 2

    def test_missing_verb_exits_2(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert invoke(capsys, "check", "-f", "A1", "--bogus")[0] == 2


class TestResidual:
    def test_golden(self, capsys):
        code, out, _ = invoke(capsys, "residual", "-f", GAP, "-a", "A1")
        assert code == 0
        assert out == "A2 | !A2\n"

    def test_json(self, capsys):
        _, out, _ = invoke(capsys, "residual", "-f", GAP, "-a", "A1", "--json")
        assert json.loads(out) == {
            "formula": "A1 & A2 | A1 & !A2",
            "assign": ["A1"],
            "residual": "A2 | !A2",
        }


class TestEnumerate:
    def test_obdd_golden(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "-f", GAP, "--engine", "obdd")
        assert code == 0
        assert out == "A1\n"

    def test_dpll_golden(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "-f", GAP, "--engine", "dpll")
        assert code == 0
        assert out == "A1 & A2\nA1 & !A2\n"

    def test_tableaux_golden(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "-f", GAP, "--engine", "tableaux")
        assert code == 0
        assert out == "A1 & A2\nA1 & !A2\n"

    def test_tautology_enumerates_the_empty_cube(self, capsys):
        _, out, _ = invoke(capsys, "enumerate", "-f", "A1 | !A1", "--engine", "obdd")
        assert out == "true\n"

    def test_each_text_line_prints_its_cube(self):
        """The text lines, joined from the payload's literals, are the
        printed `Assignment.to_cube` of each listed assignment."""
        rng = random.Random(7001)
        pool = atom_pool(4)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=4, const_chance=0.1)
            for result in (dpll_enumerate(f), tableaux_enumerate(f),
                           obdd_enumerate(build_obdd(f), f)):
                assert cli._cube_lines(result.to_json_dict()) == [
                    str(mu.to_cube()) for mu in result.assignments]

    def test_atom_free_input_with_dpll(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "-f", "true & true", "--engine", "dpll")
        assert code == 0
        assert out == "true\n"

    def test_dedup(self, capsys):
        _, out, _ = invoke(
            capsys, "enumerate", "-f", "A1 | A1", "--engine", "tableaux", "--dedup"
        )
        assert out == "A1\n"

    def test_dedup_rejected_for_other_engines(self, capsys):
        code, _, err = invoke(
            capsys, "enumerate", "-f", "A1", "--engine", "dpll", "--dedup"
        )
        assert code == 2
        assert "--dedup" in err

    def test_order(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "-f", "A1 <-> A2", "--engine", "obdd",
            "--order", "A2,A1",
        )
        assert code == 0
        assert out == "A1 & A2\n!A1 & !A2\n"

    def test_order_rejected_for_other_engines(self, capsys):
        code, _, err = invoke(
            capsys, "enumerate", "-f", "A1", "--engine", "tableaux", "--order", "A1"
        )
        assert code == 2
        assert "--order" in err

    def test_an_empty_order_is_refused(self, capsys):
        code, out, err = invoke(
            capsys, "enumerate", "-f", "A1", "--engine", "obdd", "--order", ""
        )
        assert (code, out) == (2, "")
        assert err == "error: --order must list at least one atom name\n"

    def test_order_must_cover_the_atoms(self, capsys):
        code, _, err = invoke(
            capsys, "enumerate", "-f", "A1 & A2", "--engine", "obdd", "--order", "A1"
        )
        assert code == 2
        assert "A2" in err

    def test_verify_text(self, capsys):
        _, out, _ = invoke(
            capsys, "enumerate", "-f", GAP, "--engine", "dpll", "--verify"
        )
        assert out == "A1 & A2\nA1 & !A2\nverified: true\n"

    def test_verify_json(self, capsys):
        _, out, _ = invoke(
            capsys, "enumerate", "-f", GAP, "--engine", "obdd", "--verify", "--json"
        )
        assert json.loads(out) == {
            "engine": "obdd",
            "mode": "entailing",
            "formula": "A1 & A2 | A1 & !A2",
            "assignments": [["A1"]],
            "verification": {
                "ok": True,
                "mode_violations": [],
                "disjointness_violations": [],
                "covers": True,
            },
        }

    @pytest.mark.parametrize("engine", ["obdd", "dpll", "tableaux"])
    def test_unsatisfiable_input_lists_nothing(self, capsys, engine):
        command = ("enumerate", "-f", "A1 & !A1", "--engine", engine)
        assert invoke(capsys, *command) == (0, "", "")
        assert invoke(capsys, *command, "--verify") == (0, "verified: true\n", "")
        code, out, _ = invoke(capsys, *command, "--verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["assignments"] == []
        assert payload["verification"]["disjointness_violations"] == (
            None if engine == "tableaux" else []
        )

    def test_node_budget_exits_3(self, capsys):
        code, _, err = invoke(
            capsys, "enumerate", "-f", "A1 <-> A2", "--engine", "obdd",
            "--node-budget", "1",
        )
        assert code == 3
        assert "error:" in err

    def test_branch_budget_exits_3(self, capsys):
        code, _, _ = invoke(
            capsys, "enumerate", "-f", GAP, "--engine", "dpll",
            "--branch-budget", "1",
        )
        assert code == 3

    def test_branch_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PARTIALSAT_BRANCH_BUDGET", "1")
        assert invoke(capsys, "enumerate", "-f", GAP, "--engine", "dpll")[0] == 3


class TestCnfize:
    def test_golden(self, capsys):
        code, out, _ = invoke(capsys, "cnfize", "-f", "A1 | (A2 & A3)")
        assert code == 0
        assert out == "(A1 | B1) & (!B1 | A2) & (!B1 | A3) & (B1 | !A2 | !A3)\n"

    def test_json(self, capsys):
        _, out, _ = invoke(capsys, "cnfize", "-f", "A1 | (A2 & A3)", "--json")
        assert json.loads(out) == {
            "formula": "A1 | A2 & A3",
            "cnf": "(A1 | B1) & (!B1 | A2) & (!B1 | A3) & (B1 | !A2 | !A3)",
            "fresh_atoms": ["B1"],
            "definitions": [{"atom": "B1", "def": "A2 & A3"}],
        }

    def test_dimacs_out(self, capsys, tmp_path):
        path = tmp_path / "out.cnf"
        code, _, _ = invoke(
            capsys, "cnfize", "-f", "A1 | (A2 & A3)", "--dimacs-out", str(path)
        )
        assert code == 0
        assert path.read_text() == (
            "c 1 A1\nc 2 B1\nc 3 A2\nc 4 A3\n"
            "p cnf 4 4\n1 2 0\n-2 3 0\n-2 4 0\n2 -3 -4 0\n"
        )

    def test_dimacs_out_is_refused_with_a_loss_check(self, capsys, tmp_path):
        path = tmp_path / "out.cnf"
        code, out, err = invoke(
            capsys, "cnfize", "-f", "(A1 & A2) | A3", "-a", "A3",
            "--check-loss", "validating", "--dimacs-out", str(path),
        )
        assert (code, out) == (2, "")
        assert err == "error: --dimacs-out applies only without --check-loss\n"
        assert not path.exists()

    def test_an_assignment_is_refused_without_a_loss_check(self, capsys):
        for assign in ("A1, !A1", "A1", ""):  # an empty -a is given, not absent
            code, out, err = invoke(capsys, "cnfize", "-f", "A1 | (A2 & A3)", "-a", assign)
            assert (code, out) == (2, "")
            assert err == "error: --assign applies only with --check-loss\n"
        code, out, _ = invoke(capsys, "cnfize", "-f", "A1 | !A1", "--check-loss", "entailing")
        assert (code, out) == (0, "loss: false\ndelta (empty): entailed\n")  # no -a: empty

    def test_validation_loss_golden(self, capsys):
        code, out, _ = invoke(
            capsys, "cnfize", "-f", "A1 | (A2 & A3)", "-a", "A1",
            "--check-loss", "validating",
        )
        assert code == 0
        assert out == "loss: true\ndelta B1: undetermined\ndelta !B1: undetermined\n"

    def test_entailment_loss_golden(self, capsys):
        code, out, _ = invoke(
            capsys, "cnfize", "-f", GAP, "-a", "A1", "--check-loss", "entailing"
        )
        assert code == 0
        assert out == (
            "loss: true\n"
            "delta B1, B2: inconsistent (witness: A1, A2, B1, B2)\n"
            "delta B1, !B2: falsified (witness: A1, !A2, B1, !B2)\n"
            "delta !B1, B2: falsified (witness: A1, A2, !B1, B2)\n"
            "delta !B1, !B2: inconsistent (witness: A1, !A2, !B1, !B2)\n"
        )

    def test_loss_without_fresh_atoms(self, capsys):
        _, out, _ = invoke(
            capsys, "cnfize", "-f", "A1 | A2", "-a", "A1",
            "--check-loss", "validating",
        )
        assert out == "loss: false\ndelta (empty): validated\n"

    def test_loss_json(self, capsys):
        _, out, _ = invoke(
            capsys, "cnfize", "-f", GAP, "-a", "A1", "--check-loss", "entailing",
            "--json",
        )
        payload = json.loads(out)
        assert payload["mode"] == "entailing"
        assert payload["loss"] is True
        assert payload["fresh_atoms"] == ["B1", "B2"]
        assert payload["cases"][1] == {
            "delta": ["B1", "!B2"],
            "outcome": "falsified",
            "witness": ["A1", "!A2", "B1", "!B2"],
        }

    def test_loss_precondition_exits_2(self, capsys):
        code, _, err = invoke(
            capsys, "cnfize", "-f", GAP, "--check-loss", "validating"
        )
        assert code == 2
        assert "error:" in err

    def test_sweep_cap_exits_3(self, capsys):
        code, _, _ = invoke(
            capsys, "cnfize", "-f", "(A1 & A2) | (A3 & A4)", "-a", "A1, A2",
            "--check-loss", "validating", "--sweep-cap", "1",
        )
        assert code == 3

    def test_deep_negation_file(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("!" * 100_000 + "A1\n")
        code, out, _ = invoke(capsys, "cnfize", "--file", str(path))
        assert code == 0
        assert out == "A1\n"


class TestShannon:
    def test_golden(self, capsys):
        code, out, _ = invoke(
            capsys, "shannon", "-f", f"exists B1 B2 . {CNF_OF_GAP}"
        )
        assert code == 0
        assert out == "A1 & A2 & !A2 | A1 & A2 | A1 & !A2\n"

    def test_keep_bot_disjuncts(self, capsys):
        _, out, _ = invoke(
            capsys, "shannon", "-f", f"exists B1 B2 . {CNF_OF_GAP}",
            "--keep-bot-disjuncts",
        )
        assert out == "A1 & A2 & !A2 | A1 & A2 | A1 & !A2 | false\n"

    def test_json(self, capsys):
        _, out, _ = invoke(
            capsys, "shannon", "-f", "exists B1 . B1 & A1", "--json"
        )
        assert json.loads(out) == {
            "matrix": "B1 & A1",
            "quantified": ["B1"],
            "expansion": "A1",
        }

    def test_unquantified_input_passes_through(self, capsys):
        _, out, _ = invoke(capsys, "shannon", "-f", "A1 & A2")
        assert out == "A1 & A2\n"

    def test_expansion_cap_exits_3(self, capsys):
        code, _, _ = invoke(
            capsys, "shannon", "-f", "exists B1 B2 . B1 & B2",
            "--expansion-cap", "1",
        )
        assert code == 3


class TestPredabsAndCompare:
    @pytest.fixture
    def problem_path(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(PROBLEM_JSON)
        return str(path)

    def test_predabs_validating(self, capsys, problem_path):
        code, out, _ = invoke(
            capsys, "predabs", "--problem", problem_path, "--mode", "validating"
        )
        assert code == 0
        assert out == "A1 & !A2\n!A1 & !A2\n"

    def test_predabs_entailing(self, capsys, problem_path):
        code, out, _ = invoke(
            capsys, "predabs", "--problem", problem_path, "--mode", "entailing"
        )
        assert code == 0
        assert out == "!A2\n"

    def test_predabs_json(self, capsys, problem_path):
        _, out, _ = invoke(
            capsys, "predabs", "--problem", problem_path, "--mode", "validating",
            "--json",
        )
        assert json.loads(out) == {
            "engine": "dpll",
            "mode": "validating",
            "formula": "A1 & !A2 | !A1 & !A2",
            "assignments": [["A1", "!A2"], ["!A1", "!A2"]],
        }

    def test_predabs_mode_is_required(self, capsys, problem_path):
        assert invoke(capsys, "predabs", "--problem", problem_path)[0] == 2

    def test_predabs_missing_problem_file(self, capsys):
        code, _, err = invoke(
            capsys, "predabs", "--problem", "/nonexistent.json",
            "--mode", "validating",
        )
        assert code == 2
        assert "error:" in err

    def test_predabs_malformed_problem(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"predicates\": []}")
        code, _, err = invoke(
            capsys, "predabs", "--problem", str(path), "--mode", "validating"
        )
        assert code == 2
        assert "base" in err

    @pytest.mark.parametrize("verb", [("predabs", "--mode", "validating"), ("compare",)])
    def test_a_field_of_the_wrong_type_exits_2(self, capsys, tmp_path, verb):
        path = tmp_path / "bad.json"
        path.write_text('{"base": "A1", "predicates": [{"label": 5, "def": "B1"}]}')
        code, out, err = invoke(capsys, verb[0], "--problem", str(path), *verb[1:])
        assert (code, out) == (2, "")
        assert err == ("error: each predicate must be an object with"
                       " string 'label' and 'def'\n")

    def test_compare_golden(self, capsys, problem_path):
        code, out, _ = invoke(capsys, "compare", "--problem", problem_path)
        assert code == 0
        assert out == (
            "cube_count_validating: 2\n"
            "cube_count_entailing: 1\n"
            "total_literals_validating: 4\n"
            "total_literals_entailing: 1\n"
            "equivalent: true\n"
        )

    def test_unsatisfiable_base(self, capsys, tmp_path):
        path = tmp_path / "unsat.json"
        path.write_text(json.dumps({
            "base": "B1 & !B1", "predicates": [{"label": "A1", "def": "B1"}],
        }))
        for mode in ("validating", "entailing"):
            assert invoke(
                capsys, "predabs", "--problem", str(path), "--mode", mode
            ) == (0, "", "")
        assert invoke(capsys, "compare", "--problem", str(path)) == (0, (
            "cube_count_validating: 0\n"
            "cube_count_entailing: 0\n"
            "total_literals_validating: 0\n"
            "total_literals_entailing: 0\n"
            "equivalent: true\n"
        ), "")

    def test_compare_json(self, capsys, problem_path):
        _, out, _ = invoke(capsys, "compare", "--problem", problem_path, "--json")
        assert json.loads(out) == {
            "cube_count_validating": 2,
            "cube_count_entailing": 1,
            "total_literals_validating": 4,
            "total_literals_entailing": 1,
            "equivalent": True,
        }


LIMIT_COMMANDS = [
    (("enumerate", "-f", GAP, "--engine", "dpll", "--verify", "--max-atoms", "1"),
     "brute-force sweep over 2 atoms exceeds the cap of 1"),
    (("check", "-f", "exists B1 . A1 & A2 & B1", "--max-atoms", "1"),
     "sweeping 2 unassigned free atoms exceeds the cap of 1"),
    (("shannon", "-f", "exists B1 B2 . B1 & B2", "--expansion-cap", "1"),
     "expanding 2 quantified atoms exceeds the cap of 1"),
    (("cnfize", "-f", "(A1 & A2) | (A3 & A4)", "-a", "A1, A2", "--check-loss", "validating",
      "--sweep-cap", "1"),
     "sweeping 2 fresh atoms exceeds the cap of 1"),
    (("enumerate", "-f", "A1 <-> A2", "--engine", "obdd", "--node-budget", "1"),
     "OBDD construction exceeded the node budget of 1"),
    (("enumerate", "-f", GAP, "--engine", "dpll", "--branch-budget", "1"),
     "DPLL branching exceeded the budget of 1"),
]


class TestLimits:
    @pytest.mark.parametrize("command, message", LIMIT_COMMANDS)
    def test_each_limit_exits_3_with_its_message(self, capsys, command, message):
        assert invoke(capsys, *command) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, message", LIMIT_COMMANDS)
    def test_each_limit_reads_its_environment_variable(self, capsys, monkeypatch,
                                                       command, message):
        *args, flag, value = command
        monkeypatch.setenv("PARTIALSAT_" + flag[2:].replace("-", "_").upper(), value)
        assert invoke(capsys, *args) == (3, "", f"error: {message}\n")

    def test_a_malformed_variable_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PARTIALSAT_MAX_ATOMS", "x")
        assert invoke(capsys, "check", "-f", "exists B1 . A1 & A2 & B1") == (
            2, "", "error: PARTIALSAT_MAX_ATOMS must be an integer, got 'x'\n")

    def test_a_malformed_variable_is_reported_when_no_sweep_reads_it(
            self, capsys, monkeypatch, tmp_path):
        # an unsatisfiable base with no hidden atom reaches no lifted check
        # and no expansion, yet the call resolves its caps when it starts
        path = tmp_path / "false.json"
        path.write_text('{"base": "false", "predicates": []}')
        monkeypatch.setenv("PARTIALSAT_EXPANSION_CAP", "x")
        assert invoke(capsys, "predabs", "--problem", str(path), "--mode", "entailing") == (
            2, "", "error: PARTIALSAT_EXPANSION_CAP must be an integer, got 'x'\n")


    @pytest.mark.parametrize("name, command", [
        ("BRANCH_BUDGET", ("check", "-f", "A1", "-a", "A1")),
        ("NODE_BUDGET", ("enumerate", "-f", "A1", "--engine", "dpll")),
    ])
    def test_a_malformed_variable_of_the_verb_exits_2_before_it_runs(
            self, capsys, monkeypatch, name, command):
        # the verb declares the option, so the run resolves the variable
        # before it starts, although this input would never read it
        monkeypatch.setenv("PARTIALSAT_" + name, "x")
        assert invoke(capsys, *command) == (
            2, "", f"error: PARTIALSAT_{name} must be an integer, got 'x'\n")

    @pytest.mark.parametrize("variable, command, message", [
        (None, ("check", "-f", "A1", "--max-atoms", "-1"),
         "MAX_ATOMS must not be negative, got -1"),
        (None, ("enumerate", "-f", "A1 | A2", "--engine", "dpll", "--verify", "--max-atoms", "-1"),
         "MAX_ATOMS must not be negative, got -1"),
        ("NODE_BUDGET", ("enumerate", "-f", "A1", "--engine", "dpll"),
         "PARTIALSAT_NODE_BUDGET must not be negative, got -1"),
        ("BRANCH_BUDGET", ("enumerate", "-f", "A1 | A2", "--engine", "tableaux"),
         "PARTIALSAT_BRANCH_BUDGET must not be negative, got -1"),
        ("SWEEP_CAP", ("cnfize", "-f", GAP), "PARTIALSAT_SWEEP_CAP must not be negative, got -1"),
    ])
    def test_a_negative_limit_exits_2(self, capsys, monkeypatch, variable, command, message):
        # from a flag or a variable, whatever path the verb would take
        if variable is not None:
            monkeypatch.setenv("PARTIALSAT_" + variable, "-1")
        assert invoke(capsys, *command) == (2, "", f"error: {message}\n")


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys):
        commands = [
            ("check", "-f", GAP, "-a", "A1"),
            ("enumerate", "-f", GAP, "--engine", "dpll", "--verify"),
            ("cnfize", "-f", GAP, "-a", "A1", "--check-loss", "entailing"),
            ("shannon", "-f", f"exists B1 B2 . {CNF_OF_GAP}"),
        ]
        for command in commands:
            first = invoke(capsys, *command)
            second = invoke(capsys, *command)
            assert first == second

    def test_every_verb_matches_the_golden_transcript(self, capsys, monkeypatch, tmp_path):
        # data/verbs.txt is each `$ partialsat ARGS` line followed by the
        # stdout that ARGS printed, and data/gap.cnf the DIMACS file one of
        # them wrote; CI replays the same lines through the installed script
        golden = (DATA / "verbs.txt").read_text()
        shutil.copy(DATA / "problem.json", tmp_path)
        monkeypatch.chdir(tmp_path)
        replayed = []
        for line in golden.splitlines(keepends=True):
            if line.startswith("$ partialsat "):
                code, out, err = invoke(capsys, *shlex.split(line)[2:])
                assert (code, err) == (0, ""), line
                replayed += (line, out)
        assert "".join(replayed) == golden
        assert (tmp_path / "gap.cnf").read_bytes() == (DATA / "gap.cnf").read_bytes()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # Build the console script from pyproject.toml the way an installer
        # does, so the [project.scripts] entry and main()'s exit path are
        # checked without installing the package.
        tomllib = pytest.importorskip("tomllib")
        repo = Path(__file__).resolve().parents[1]
        with open(repo / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["partialsat"]
        module, attr = entry.split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        script = bindir / "partialsat"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        exe = shutil.which("partialsat", path=str(bindir))
        assert exe is not None, "console script 'partialsat' not built"
        proc = subprocess.run(
            [exe, "check", "-f", "A1", "-a", "A1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
        )
        assert proc.returncode == 0
        assert proc.stdout == "validates: true\nentails: true\n"
