"""Predicate abstraction enumerated as label cubes in both modes."""
import random

import pytest

from partialsat import (
    Atom,
    ModeComparison,
    PredAbsProblem,
    ResourceLimitError,
    compare_modes,
    enumerate_abstraction,
    exists_entails,
    exists_validates,
    parse,
    problem_from_json,
    to_existential,
    verify_enumeration,
)
from partialsat import limits, predabs
from partialsat.cli import _cube_lines
from gen import atom_pool, random_formula
from oracles import ref_enumerate_abstraction

# Two observable labels over a hidden pair of equivalent atoms: A1 holds in
# the hidden state (true, true), A2 in (true, false) which the base forbids.
ABSTRACTION = PredAbsProblem(
    base=parse("(!B1 | B2) & (B1 | !B2)"),
    predicates=(
        (Atom("A1"), parse("B1 & B2")),
        (Atom("A2"), parse("B1 & !B2")),
    ),
)
ABSTRACTION_JSON = """
{
  "base": "(!B1 | B2) & (B1 | !B2)",
  "predicates": [
    {"label": "A1", "def": "B1 & B2"},
    {"label": "A2", "def": "B1 & !B2"}
  ]
}
"""


def _texts(result) -> list[str]:
    return [str(mu) for mu in result.assignments]


class TestProblemConstruction:
    def test_to_existential_golden(self):
        ef = to_existential(ABSTRACTION)
        assert str(ef) == (
            "exists B1 B2 . (!B1 | B2) & (B1 | !B2)"
            " & (A1 <-> B1 & B2) & (A2 <-> B1 & !B2)"
        )
        assert ef.free_atoms == frozenset({Atom("A1"), Atom("A2")})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PredAbsProblem(
                base=parse("B1"),
                predicates=((Atom("A1"), parse("B1")), (Atom("A1"), parse("!B1"))),
            )

    def test_label_colliding_with_hidden_atom_rejected(self):
        with pytest.raises(ValueError, match="B1"):
            PredAbsProblem(base=parse("B1"), predicates=((Atom("B1"), parse("B2")),))

    def test_label_colliding_with_definition_atom_rejected(self):
        with pytest.raises(ValueError, match="B2"):
            PredAbsProblem(
                base=parse("B1"), predicates=((Atom("B2"), parse("B2 & B1")),)
            )

    def test_from_json_golden(self):
        assert problem_from_json(ABSTRACTION_JSON) == ABSTRACTION

    def test_from_json_without_predicates(self):
        p = problem_from_json('{"base": "B1 | B2"}')
        assert p.predicates == ()

    def test_from_json_requires_base(self):
        with pytest.raises(ValueError, match="base"):
            problem_from_json('{"predicates": []}')

    def test_from_json_requires_label_and_def(self):
        with pytest.raises(ValueError, match="label"):
            problem_from_json('{"base": "B1", "predicates": [{"label": "A1"}]}')

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            problem_from_json("not json")

    @pytest.mark.parametrize("text, field", [
        ('{"base": 5}', "'base'"),
        ('{"base": "A1", "predicates": 5}', "'predicates'"),
        ('{"base": "B1", "predicates": [{"label": 5, "def": "B1"}]}', "'label'"),
        ('{"base": "B1", "predicates": [{"label": "A1", "def": ["A1"]}]}', "'def'"),
    ])
    def test_from_json_rejects_a_field_of_the_wrong_type(self, text, field):
        with pytest.raises(ValueError, match=field):
            problem_from_json(text)


class TestEnumerationGoldens:
    def test_validating_mode(self):
        result = enumerate_abstraction(ABSTRACTION, "validating")
        assert result.engine == "dpll"
        assert result.mode == "validating"
        assert _texts(result) == ["A1, !A2", "!A1, !A2"]
        assert str(result.formula) == "A1 & !A2 | !A1 & !A2"

    def test_entailing_mode(self):
        result = enumerate_abstraction(ABSTRACTION, "entailing")
        assert result.mode == "entailing"
        assert _texts(result) == ["!A2"]

    def test_entailing_cube_does_not_exists_validate(self):
        ef = to_existential(ABSTRACTION)
        mu = enumerate_abstraction(ABSTRACTION, "entailing").assignments[0]
        assert exists_entails(mu, ef)[0]
        assert not exists_validates(mu, ef)[0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            enumerate_abstraction(ABSTRACTION, "both")

    def test_compare_golden(self):
        assert compare_modes(ABSTRACTION) == ModeComparison(
            cube_count_validating=2,
            cube_count_entailing=1,
            total_literals_validating=4,
            total_literals_entailing=1,
            equivalent=True,
        )

    def test_swapped_second_definition_gives_the_same_abstraction(self):
        """A2 <-> !B1 & B2 is also false in every hidden state the base
        allows, so the cubes cannot tell the two definitions apart."""
        swapped = PredAbsProblem(
            base=ABSTRACTION.base,
            predicates=(
                (Atom("A1"), parse("B1 & B2")),
                (Atom("A2"), parse("!B1 & B2")),
            ),
        )
        for mode in ("validating", "entailing"):
            assert _texts(enumerate_abstraction(swapped, mode)) == _texts(
                enumerate_abstraction(ABSTRACTION, mode)
            )


class TestDegenerateProblems:
    def test_unsatisfiable_base_yields_nothing(self):
        p = PredAbsProblem(base=parse("false"), predicates=((Atom("P1"), parse("B1")),))
        for mode in ("validating", "entailing"):
            assert enumerate_abstraction(p, mode).assignments == ()

    def test_no_predicates_yields_one_empty_cube(self):
        p = PredAbsProblem(base=parse("B1 | B2"), predicates=())
        for mode in ("validating", "entailing"):
            result = enumerate_abstraction(p, mode)
            assert len(result.assignments) == 1
            assert _cube_lines(result.to_json_dict()) == ["true"]

    def test_unconstrained_single_predicate(self):
        p = PredAbsProblem(
            base=parse("B1 | B2"), predicates=((Atom("P1"), parse("B1 & B2")),)
        )
        assert _texts(enumerate_abstraction(p, "validating")) == ["P1", "!P1"]
        assert _texts(enumerate_abstraction(p, "entailing")) == [""]
        assert compare_modes(p) == ModeComparison(2, 1, 2, 0, True)

    def test_expansion_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_abstraction(ABSTRACTION, "validating", expansion_cap=1)
        # an unsatisfiable matrix reaches no leaf test, which checks the cap
        p = PredAbsProblem(base=parse("B1 & !B1 & B2"), predicates=((Atom("P1"), parse("B1")),))
        for run in (lambda: enumerate_abstraction(p, "validating", expansion_cap=1),
                    lambda: compare_modes(p, expansion_cap=1)):
            with pytest.raises(ResourceLimitError):
                run()
        assert compare_modes(p, expansion_cap=2) == ModeComparison(0, 0, 0, 0, True)

    def test_each_variable_is_read_at_most_once_per_call(self, monkeypatch):
        reads = []
        real = limits._from_env
        monkeypatch.setattr(limits, "_from_env",
                            lambda name, default: reads.append(name) or real(name, default))
        pa8 = PredAbsProblem(  # thousands of sweeps and lifted checks
            base=parse(" | ".join(f"A{i}" for i in range(1, 11))),
            predicates=tuple((Atom(f"P{k}"), parse(f"A{k} & A{k + 1} | !A{k + 2}"))
                             for k in range(1, 9)),
        )
        assert compare_modes(pa8) == ModeComparison(149, 57, 1192, 388, True)
        assert sorted(reads) == ["EXPANSION_CAP", "MAX_ATOMS"]
        for mode, count in (("validating", 149), ("entailing", 57)):
            reads.clear()
            assert len(enumerate_abstraction(pa8, mode).assignments) == count
            assert sorted(reads) == ["EXPANSION_CAP", "MAX_ATOMS"]


class TestRandomProblems:
    def _random_problem(self, rng) -> PredAbsProblem:
        hidden = atom_pool(rng.randint(2, 4), prefix="B")
        base = random_formula(rng, hidden, max_depth=3)
        count = rng.randint(1, 3)
        predicates = tuple(
            (Atom(f"P{i + 1}"), random_formula(rng, hidden, max_depth=3))
            for i in range(count)
        )
        return PredAbsProblem(base=base, predicates=predicates)

    def test_matches_recursive_search(self, monkeypatch):
        """The same cubes in the same order.  Our satisfiability checks are
        the recursive search's, made in the same order, less its re-tests of
        states that the lookahead has already proved satisfiable."""
        checks = []
        real = predabs.brute_satisfiable
        monkeypatch.setattr(predabs, "brute_satisfiable",
                            lambda f, cap=None: checks.append(f) or real(f, cap))

        def run(search, p, mode):
            checks.clear()
            return search(p, mode), tuple(checks)

        rng = random.Random(8004)
        shorter = 0
        for _ in range(150):
            hidden = atom_pool(rng.randint(2, 5), prefix="B")
            p = PredAbsProblem(
                base=random_formula(rng, hidden, max_depth=3),
                predicates=tuple((Atom(f"P{i + 1}"), random_formula(rng, hidden, max_depth=3))
                                 for i in range(rng.randint(1, 6))))
            for mode in ("validating", "entailing"):
                cubes, ours = run(lambda p, mode: enumerate_abstraction(p, mode).assignments,
                                  p, mode)
                ref_cubes, theirs = run(ref_enumerate_abstraction, p, mode)
                assert cubes == ref_cubes
                remaining = iter(theirs)  # ours is an in-order subsequence of theirs
                assert all(any(check == other for other in remaining) for check in ours)
                shorter += len(ours) < len(theirs)
        assert shorter > 200  # most listings re-test some state

    def test_cubes_pass_their_own_leaf_checks(self):
        rng = random.Random(8001)
        for _ in range(60):
            p = self._random_problem(rng)
            ef = to_existential(p)
            for mu in enumerate_abstraction(p, "validating").assignments:
                assert exists_validates(mu, ef)[0]
            for mu in enumerate_abstraction(p, "entailing").assignments:
                assert exists_entails(mu, ef)[0]

    def test_both_modes_verify_against_the_expanded_formula(self):
        rng = random.Random(8002)
        for _ in range(60):
            p = self._random_problem(rng)
            for mode in ("validating", "entailing"):
                assert verify_enumeration(enumerate_abstraction(p, mode)).ok

    def test_entailing_mode_dominates_validating_mode(self):
        rng = random.Random(8003)
        strictly_smaller = 0
        for _ in range(60):
            p = self._random_problem(rng)
            comparison = compare_modes(p)
            assert comparison.cube_count_entailing <= comparison.cube_count_validating
            assert (
                comparison.total_literals_entailing
                <= comparison.total_literals_validating
            )
            assert comparison.equivalent
            strictly_smaller += (
                comparison.total_literals_entailing
                < comparison.total_literals_validating
            )
            validating = enumerate_abstraction(p, "validating").assignments
            entailing = enumerate_abstraction(p, "entailing").assignments
            for mu in entailing:
                assert any(
                    set(mu.literals()) <= set(eta.literals()) for eta in validating
                )
        assert strictly_smaller > 0
