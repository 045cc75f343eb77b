"""Limits: one resolver, one work-budget rule, and each PARTIALSAT_*
variable read at most once per public call and per CLI run."""
import inspect
from collections import Counter

import pytest

import partialsat
from partialsat import (
    EMPTY_ASSIGNMENT,
    ResourceLimitError,
    brute_equivalent,
    brute_satisfiable,
    brute_valid,
    build_obdd,
    check_entailment_loss,
    check_validation_loss,
    compare_modes,
    dpll_enumerate,
    dpll_first_assignment,
    entails,
    enumerate_abstraction,
    exists_entails,
    exists_validates,
    extend_to_validating,
    first_falsifying,
    first_satisfying,
    obdd_enumerate,
    parse,
    parse_assignment,
    parse_existential,
    problem_from_json,
    shannon_expand,
    tableaux_enumerate,
    verdict,
    verify_enumeration,
)
from partialsat import limits
from partialsat.cli import run

VARIABLE = {"atom_cap": "MAX_ATOMS", "node_budget": "NODE_BUDGET",
            "branch_budget": "BRANCH_BUDGET", "expansion_cap": "EXPANSION_CAP",
            "sweep_cap": "SWEEP_CAP"}
GAP3 = parse("(A1 & A2) | (A1 & !A2) | (A3 & A4)")
A1 = parse_assignment("A1")
EF = parse_existential("exists B1 B2 . (A1 | B1) & (A2 | !B2) & (B1 | B2)")
PROBLEM_JSON = ('{"base": "A1 | A2 | A3 | A4", "predicates": ['
                '{"label": "P1", "def": "A1 & A2 | !A3"}, {"label": "P2", "def": "A2 & A3 | !A4"}]}')
PROBLEM = problem_from_json(PROBLEM_JSON)
LISTINGS = (obdd_enumerate(build_obdd(GAP3, None, 100), GAP3), dpll_enumerate(GAP3, 100),
            tableaux_enumerate(GAP3, 100))

# (function, call): every limit-taking function of the package, on an
# input that reaches its sweeps, its search and its lifted checks
CALLS = [
    (brute_equivalent, lambda: brute_equivalent(GAP3, GAP3)),
    (brute_satisfiable, lambda: brute_satisfiable(GAP3)),
    (brute_valid, lambda: brute_valid(GAP3)),
    (build_obdd, lambda: build_obdd(GAP3)),
    (check_entailment_loss, lambda: check_entailment_loss(A1, GAP3)),
    (check_validation_loss, lambda: check_validation_loss(parse_assignment("A1, A2"), GAP3)),
    (compare_modes, lambda: compare_modes(PROBLEM)),
    (dpll_enumerate, lambda: dpll_enumerate(GAP3)),
    (dpll_first_assignment, lambda: dpll_first_assignment(GAP3)),
    (entails, lambda: entails(A1, GAP3)),
    (entails, lambda: entails(A1, GAP3, atom_cap=0)),
    (enumerate_abstraction, lambda: enumerate_abstraction(PROBLEM, "validating")),
    (enumerate_abstraction, lambda: enumerate_abstraction(PROBLEM, "entailing")),
    (exists_entails, lambda: exists_entails(EMPTY_ASSIGNMENT, EF)),
    (exists_validates, lambda: exists_validates(EMPTY_ASSIGNMENT, EF)),
    (extend_to_validating, lambda: extend_to_validating(A1, GAP3)),
    (first_falsifying, lambda: first_falsifying(GAP3)),
    (first_satisfying, lambda: first_satisfying(GAP3)),
    (shannon_expand, lambda: shannon_expand(EF)),
    (tableaux_enumerate, lambda: tableaux_enumerate(GAP3)),
    (verdict, lambda: verdict(A1, GAP3)),
    *((verify_enumeration, lambda listing=listing: verify_enumeration(listing))
      for listing in LISTINGS),
]


@pytest.fixture
def reads(monkeypatch):
    seen = []
    real = limits._from_env
    monkeypatch.setattr(limits, "_from_env",
                        lambda name, default: seen.append(name) or real(name, default))
    return seen


def _limit_parameters(fn):
    return {VARIABLE[p] for p in inspect.signature(fn).parameters if p in VARIABLE}


def test_every_limit_taking_function_is_called():
    exported = {getattr(partialsat, name) for name in partialsat.__all__}
    taking = {fn for fn in exported
              if inspect.isfunction(fn) and _limit_parameters(fn)}
    assert len(taking) == 20
    assert {fn for fn, _ in CALLS} == taking


@pytest.mark.parametrize("fn, call", CALLS, ids=[fn.__name__ for fn, _ in CALLS])
def test_a_call_reads_each_variable_at_most_once(reads, fn, call):
    call()
    assert reads, "the input should reach a limit"
    assert max(Counter(reads).values()) == 1
    assert set(reads) <= _limit_parameters(fn)  # it reads only the limits it takes


def test_the_cli_reads_each_variable_of_its_verb_once(reads, capsys, tmp_path):
    """Each limit option the verb declares is resolved once, in `run`: the
    lifted `check` reads EXPANSION_CAP and `enumerate --verify` MAX_ATOMS
    once, though the first runs two lifted checks and the second a check
    per cube."""
    problem = tmp_path / "problem.json"
    problem.write_text(PROBLEM_JSON)
    gap = str(GAP3)
    for argv, declared in [
        (["check", "-f", gap, "-a", "A1"], {"MAX_ATOMS", "BRANCH_BUDGET", "EXPANSION_CAP"}),
        (["check", "-f", str(EF), "-a", "A1"], {"MAX_ATOMS", "BRANCH_BUDGET", "EXPANSION_CAP"}),
        (["residual", "-f", gap, "-a", "A1"], set()),
        (["enumerate", "-f", gap, "--engine", "obdd", "--verify"],
         {"MAX_ATOMS", "NODE_BUDGET", "BRANCH_BUDGET"}),
        (["cnfize", "-f", gap, "-a", "A1", "--check-loss", "entailing"],
         {"MAX_ATOMS", "SWEEP_CAP", "BRANCH_BUDGET"}),
        (["shannon", "-f", str(EF)], {"EXPANSION_CAP"}),
        (["predabs", "--problem", str(problem), "--mode", "entailing"],
         {"MAX_ATOMS", "EXPANSION_CAP"}),
        (["compare", "--problem", str(problem)], {"MAX_ATOMS", "EXPANSION_CAP"}),
    ]:
        reads.clear()
        assert run(argv) == 0, capsys.readouterr().err
        assert sorted(reads) == sorted(declared), argv
    capsys.readouterr()


def test_resolve_prefers_explicit_then_environment_then_default(monkeypatch):
    for name, default in limits.DEFAULTS.items():
        monkeypatch.delenv("PARTIALSAT_" + name, raising=False)
        assert limits.resolve(name) == default
        monkeypatch.setenv("PARTIALSAT_" + name, "7")
        assert limits.resolve(name) == 7
        assert limits.resolve(name, 0) == 0


def test_resolve_refuses_a_negative_value_wherever_it_comes_from(monkeypatch):
    for name in limits.DEFAULTS:
        monkeypatch.delenv("PARTIALSAT_" + name, raising=False)
        with pytest.raises(ValueError, match=f"^{name} must not be negative, got -1$"):
            limits.resolve(name, -1)
        assert limits.resolve(name, 0) == 0
        monkeypatch.setenv("PARTIALSAT_" + name, "-2")
        with pytest.raises(ValueError,
                           match=f"^PARTIALSAT_{name} must not be negative, got -2$"):
            limits.resolve(name)
        assert limits.resolve(name, 5) == 5  # an explicit value skips the variable
        monkeypatch.setenv("PARTIALSAT_" + name, "0")
        assert limits.resolve(name) == 0


_A1, _A1A2 = parse_assignment("A1"), parse_assignment("A1, A2")  # GAP3|A1A2 is true


@pytest.mark.parametrize("call", [
    lambda: tableaux_enumerate(GAP3, branch_budget=-1),
    lambda: build_obdd(GAP3, None, -1),
    lambda: verify_enumeration(LISTINGS[0], atom_cap=-1),
    lambda: shannon_expand(EF, expansion_cap=-1),
    lambda: check_validation_loss(_A1A2, GAP3, sweep_cap=-1),
    lambda: entails(_A1, GAP3, atom_cap=0, branch_budget=-1),  # the DPLL refutation
    # each call below would answer, or fail otherwise, without resolving that limit
    lambda: entails(_A1A2, GAP3, atom_cap=-1),
    lambda: entails(_A1, GAP3, branch_budget=-1),
    lambda: verdict(_A1A2, GAP3, atom_cap=-1),
    lambda: extend_to_validating(_A1A2, GAP3, branch_budget=-1),
    lambda: shannon_expand(parse_existential("A1 & A2"), expansion_cap=-1),
    lambda: exists_entails(parse_assignment("B1"), EF, atom_cap=-1),
], ids=["branch_budget", "node_budget", "atom_cap", "expansion_cap", "sweep_cap",
        "dpll_backend", "constant_residual", "sweep_decides", "verdict", "extend",
        "nothing_quantified", "before_other_checks"])
def test_a_negative_explicit_limit_is_a_value_error(call):
    with pytest.raises(ValueError, match="must not be negative, got -1$"):
        call()


def test_a_budget_raises_on_the_unit_past_its_limit():
    budget = limits.Budget(2, "OBDD construction", "node budget")
    budget.spend()
    budget.spend()
    with pytest.raises(ResourceLimitError,
                       match=r"^OBDD construction exceeded the node budget of 2$"):
        budget.spend()
    assert budget.used == 3
