"""Assignments: map/literal-set/cube views, extension streams (the oracle
the semantic sweeps use, and `total_assignments`), parsing."""
import random

import pytest

from partialsat import (
    And,
    Assignment,
    Atom,
    AtomRef,
    EMPTY_ASSIGNMENT,
    ExistentialFormula,
    InconsistentAssignmentError,
    ParseError,
    TRUE,
    build_obdd,
    dpll_enumerate,
    parse,
    parse_assignment,
    verdict,
)
from partialsat.assignment import Assignment as _Assignment, total_assignments
from gen import atom_pool, mutate_words, outcome, random_partial_assignment
from oracles import extensions, ref_parse_assignment

A1, A2, A3, B1 = Atom("A1"), Atom("A2"), Atom("A3"), Atom("B1")


class TestConstruction:
    def test_domain_and_len(self):
        mu = Assignment({A1: True, A2: False})
        assert mu.domain == frozenset({A1, A2})
        assert len(mu) == 2
        assert A1 in mu and A3 not in mu


class TestViews:
    def test_to_cube(self):
        mu = Assignment({A1: True, A2: False})
        assert str(mu.to_cube()) == "A1 & !A2"

    def test_empty_cube_is_true(self):
        assert EMPTY_ASSIGNMENT.to_cube() == TRUE

    def test_literals_sorted(self):
        mu = Assignment({A2: False, A1: True})
        assert [str(lit) for lit in mu.literals()] == ["A1", "!A2"]
        # the view is the literal texts themselves, plain strs
        assert mu.literals() == ("A1", "!A2")
        assert all(type(lit) is str for lit in mu.literals())

    def test_str_literal_set_syntax(self):
        assert str(Assignment({A1: True, A3: False})) == "A1, !A3"
        assert str(EMPTY_ASSIGNMENT) == ""

    def test_a_plain_name_prints_as_its_atom(self):
        # a plain str equals its Atom, so every printed view takes it as one
        mu = Assignment({"A1": True})
        assert (str(mu), repr(mu)) == (str(Assignment({A1: True})), repr(Assignment({A1: True})))
        assert [str(lit) for lit in mu.literals()] == ["A1"]
        assert [str(lit) for lit in Assignment({"A2": False}).literals()] == ["!A2"]
        assert str(verdict(mu, parse("A1 & A2")).witness) == "A1, !A2"
        f = And(AtomRef("A1"), AtomRef("A2"))
        assert dpll_enumerate(f).to_json_dict()["assignments"] == [["A1", "A2"]]
        assert build_obdd(f).signature() == build_obdd(parse("A1 & A2")).signature()
        assert str(ExistentialFormula(f, frozenset({"A2"}))) == "exists A2 . A1 & A2"


class TestUnionBindRestrict:
    def test_union_disjoint(self):
        combined = Assignment({A1: True}).union(Assignment({B1: True}))
        assert combined.domain == frozenset({A1, B1})

    def test_union_agreeing_overlap(self):
        mu = Assignment({A1: True})
        assert mu.union(Assignment({A1: True, A2: False})).value(A2) is False

    def test_union_conflict(self):
        with pytest.raises(InconsistentAssignmentError):
            Assignment({A1: True}).union(Assignment({A1: False}))

    def test_bind_is_pure(self):
        mu = Assignment({A1: True})
        nu = mu.bind(A2, False)
        assert A2 not in mu and nu.value(A2) is False

    def test_restrict(self):
        mu = Assignment({A1: True, A2: False, A3: True})
        assert mu.restrict({A1, A3}).domain == frozenset({A1, A3})

    def test_conflicts_with(self):
        assert Assignment({A1: True}).conflicts_with(Assignment({A1: False}))
        assert not Assignment({A1: True}).conflicts_with(
            Assignment({A2: False})
        )


class TestExtensions:
    def test_two_extensions(self):
        out = list(extensions(Assignment({A1: True}), {A1, A2}))
        assert [str(mu) for mu in out] == ["A1, A2", "A1, !A2"]

    def test_total_already(self):
        mu = Assignment({A1: True, A2: True})
        assert list(extensions(mu, {A1, A2})) == [mu]

    def test_eight_extensions_lex_order(self):
        out = list(extensions(EMPTY_ASSIGNMENT, {A1, A2, A3}))
        assert len(out) == 8
        assert str(out[0]) == "A1, A2, A3"
        assert str(out[-1]) == "!A1, !A2, !A3"

    def test_count_and_uniqueness(self):
        rng = random.Random(2001)
        pool = [Atom(f"A{i}") for i in range(1, 6)]
        for _ in range(50):
            mu = Assignment(
                {a: rng.random() < 0.5 for a in pool if rng.random() < 0.4}
            )
            out = list(extensions(mu, set(pool)))
            assert len(out) == 2 ** (len(pool) - len(mu))
            assert len(set(out)) == len(out)
            assert all(nu.domain == frozenset(pool) for nu in out)
            assert all(
                nu.value(a) == mu.value(a) for nu in out for a in mu.domain
            )

    def test_total_assignments_keep_the_given_atom_order(self):
        out = [str(mu) for mu in total_assignments([B1, A2])]
        assert out == ["A2, B1", "!A2, B1", "A2, !B1", "!A2, !B1"]
        assert list(total_assignments([])) == [EMPTY_ASSIGNMENT]

    def test_domain_escape_rejected(self):
        with pytest.raises(ValueError, match="B1"):
            list(extensions(Assignment({B1: True}), {A1, A2}))


class TestParseAssignment:
    def test_literal_set_syntax(self):
        mu = parse_assignment("A1, !A3")
        assert mu == Assignment({A1: True, A3: False})

    def test_empty_text(self):
        assert parse_assignment("") == EMPTY_ASSIGNMENT
        assert parse_assignment("   ") == EMPTY_ASSIGNMENT

    def test_inconsistent(self):
        with pytest.raises(InconsistentAssignmentError):
            parse_assignment("A1, !A1")

    def test_a_parse_error_comes_before_an_inconsistency(self):
        # the conflict check runs only on a text that parses to its end, and
        # names the first atom whose second literal contradicts its first
        with pytest.raises(ParseError, match="unexpected '\\)'"):
            parse_assignment("A1, !A1 )")
        for text, atom in (("A2, !A2, A1, !A1", "A2"), ("A1, A2, !A2, !A1", "A2"),
                           ("!B1, A1, A1, B1", "B1")):
            with pytest.raises(InconsistentAssignmentError,
                               match=f"^inconsistent literal set: both {atom} and !{atom}$"):
                parse_assignment(text)

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_assignment("A1 !A2")
        with pytest.raises(ParseError):
            parse_assignment("A1,")
        with pytest.raises(ParseError):
            parse_assignment("A1 & A2")

    def test_matches_the_token_stream_parser(self):
        """Seeded token soup, half of it a mutated printed assignment: both
        parsers return equal assignments or raise the same error at the
        same place."""
        rng = random.Random(1011)
        parsed = 0
        for _ in range(6_000):
            if rng.random() < 0.5:
                words = [rng.choice(_SOUP) for _ in range(rng.randint(0, 8))]
            else:
                mu = random_partial_assignment(rng, atom_pool(4), 0.6)
                words = mutate_words(rng, str(mu).replace(",", " ,").split(), _SOUP)
            text = rng.choice((" ", "", "\t")).join(words)
            ours = outcome(parse_assignment, text)
            assert ours == outcome(ref_parse_assignment, text), text
            parsed += ours[0] == "returned"
        assert 1000 < parsed < 5000


_SOUP = ["A1", "A2", "B1", "!", ",", ".", "&", "(", "true", "false", "exists", "\n",
         "\r\n", "\t", " ", "# c\n", "# c", "$"]


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert Assignment({A1: True, A2: False}) == Assignment(
            {A2: False, A1: True}
        )
        assert len({Assignment({A1: True}), Assignment({A1: True})}) == 1

    def test_internal_map_is_copied(self):
        source = {A1: True}
        mu = _Assignment(source)
        source[A2] = False
        assert A2 not in mu
