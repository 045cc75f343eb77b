"""Existential formulas: parsing, Shannon expansion, and the lifted checks."""
import random

import pytest

from partialsat import cnfize, quantified, semantics
from partialsat import (
    Assignment,
    Atom,
    EMPTY_ASSIGNMENT,
    ExistentialFormula,
    FALSE,
    ParseError,
    ResourceLimitError,
    TRUE,
    atoms,
    brute_satisfiable,
    check_validation_loss,
    entails,
    exists_entails,
    exists_validates,
    parse,
    parse_assignment,
    parse_existential,
    residual,
    shannon_expand,
    validates,
)
from gen import (atom_pool, mutate_words, outcome, random_formula, random_partial_assignment,
                 random_tautology_free_cnf)
from oracles import ref_exists_validates, ref_parse_existential, ref_tidy_disjunct
from test_semantics import ref_eval, ref_rows

CNF_OF_GAP = (
    "(B1 | B2) & (!B1 | A1) & (!B1 | A2) & (B1 | !A1 | !A2)"
    " & (!B2 | A1) & (!B2 | !A2) & (B2 | !A1 | A2)"
)
GAP_EXISTENTIAL = parse_existential(f"exists B1 B2 . {CNF_OF_GAP}")
_SOUP = ["exists", "B1", "B2", "A1", ".", ",", "!", "&", "|", "->", "<->", "(", ")", "true",
         "false", "\n", "\r\n", "\t", " ", "# c\n", "# c", "$"]


class TestParseExistential:
    def test_golden(self):
        ef = parse_existential("exists B1 B2 . (A1 & B1) | B2")
        assert ef.quantified == frozenset({Atom("B1"), Atom("B2")})
        assert ef.matrix == parse("(A1 & B1) | B2")
        assert ef.free_atoms == frozenset({Atom("A1")})

    def test_no_prefix_means_no_bound_atoms(self):
        ef = parse_existential("A1 -> A2")
        assert ef.quantified == frozenset()
        assert ef.free_atoms == atoms(ef.matrix)

    def test_str_round_trip(self):
        ef = GAP_EXISTENTIAL
        assert str(ef).startswith("exists B1 B2 . (B1 | B2)")
        assert parse_existential(str(ef)) == ef

    def test_str_without_quantifier_is_plain(self):
        assert str(parse_existential("A1 & A2")) == "A1 & A2"

    def test_duplicate_names_collapse(self):
        assert parse_existential("exists B1 B1 . B1").quantified == frozenset(
            {Atom("B1")}
        )

    def test_missing_atom_list(self):
        with pytest.raises(ParseError, match="at least one atom"):
            parse_existential("exists . A1")

    def test_matches_the_token_stream_parser(self):
        """Seeded token soup, half of it a mutated printed existential
        formula: both parsers return equal results or raise the same error
        at the same place."""
        rng = random.Random(1012)
        parsed = 0
        for _ in range(6_000):
            if rng.random() < 0.5:
                words = [rng.choice(_SOUP) for _ in range(rng.randint(0, 12))]
            else:
                f = random_formula(rng, atom_pool(3) + atom_pool(2, "B"), rng.randint(0, 4))
                bound = " ".join(f"B{i}" for i in range(1, rng.randint(1, 3)))
                text = f"exists {bound} . {f}" if bound else str(f)
                words = mutate_words(rng, text.replace("(", "( ").replace(")", " )").split(),
                                     _SOUP)
            text = rng.choice((" ", "", "\t")).join(words)
            ours = outcome(parse_existential, text)
            assert ours == outcome(ref_parse_existential, text), text
            parsed += ours[0] == "returned"
        assert 1000 < parsed < 5000

    def test_missing_dot(self):
        with pytest.raises(ParseError, match=r"'\.'"):
            parse_existential("exists B1 A1")

    def test_missing_body(self):
        with pytest.raises(ParseError):
            parse_existential("exists B1 . ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_existential("exists B1 . B1 B1")


class TestShannonExpand:
    def test_golden_with_false_disjuncts_kept(self):
        expanded = shannon_expand(GAP_EXISTENTIAL, keep_bot_disjuncts=True)
        assert str(expanded) == "A1 & A2 & !A2 | A1 & A2 | A1 & !A2 | false"

    def test_golden_with_false_disjuncts_dropped(self):
        expanded = shannon_expand(GAP_EXISTENTIAL)
        assert str(expanded) == "A1 & A2 & !A2 | A1 & A2 | A1 & !A2"

    def test_vacuous_quantification_returns_matrix(self):
        ef = parse_existential("(A1 & A2) | A1")
        assert shannon_expand(ef) is ef.matrix

    def test_single_bound_atom_matrix(self):
        assert shannon_expand(parse_existential("exists B1 . B1")) == TRUE
        assert str(
            shannon_expand(parse_existential("exists B1 . B1"), keep_bot_disjuncts=True)
        ) == "true | false"

    def test_bound_atom_absent_from_matrix_duplicates_branches(self):
        assert str(shannon_expand(parse_existential("exists B9 . A1"))) == "A1 | A1"

    def test_unsatisfiable_matrix_collapses_to_false(self):
        ef = parse_existential("exists B1 . B1 & !B1")
        assert shannon_expand(ef) == FALSE

    def test_expansion_cap(self):
        ef = parse_existential("exists B1 B2 B3 . B1 & B2 & B3 & A1")
        assert shannon_expand(ef, expansion_cap=3) == parse("A1")
        with pytest.raises(ResourceLimitError):
            shannon_expand(ef, expansion_cap=2)

    def test_tidying_matches_the_all_pairs_loop(self):
        """Seeded CNF disjuncts over 3 atoms, rich in duplicate and subsumed
        clauses, and some non-CNF ones: the same clauses kept in the same
        order, and an untouched disjunct returned as itself."""
        rng = random.Random(1013)
        pool = atom_pool(3)
        dropped = 0
        for _ in range(1_500):
            d = (random_formula(rng, pool, 3) if rng.random() < 0.1
                 else random_tautology_free_cnf(rng, pool, max_clauses=8))
            ours, theirs = quantified._tidy_disjunct(d), ref_tidy_disjunct(d)
            assert str(ours) == str(theirs) and (ours is d) == (theirs is d), str(d)
            dropped += ours is not d
        assert 500 < dropped < 1_400

    def test_expansion_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("PARTIALSAT_EXPANSION_CAP", "2")
        with pytest.raises(ResourceLimitError):
            shannon_expand(parse_existential("exists B1 B2 B3 . B1 & B2 & B3 & A1"))


class TestExistsChecks:
    def test_entailment_survives_the_cnf_encoding_but_validation_does_not(self):
        mu = parse_assignment("A1")
        assert exists_entails(mu, GAP_EXISTENTIAL) == (True, None)
        assert exists_validates(mu, GAP_EXISTENTIAL) == (False, None)

    def test_validation_witness_is_lex_first(self):
        ok, delta = exists_validates(parse_assignment("A1, A2"), GAP_EXISTENTIAL)
        assert ok and str(delta) == "B1, !B2"

    def test_entailment_counterexample_is_lex_first(self):
        ok, eta = exists_entails(EMPTY_ASSIGNMENT, GAP_EXISTENTIAL)
        assert not ok and str(eta) == "!A1, A2"

    def test_vacuous_quantifier_reduces_to_plain_checks(self):
        ef = parse_existential("(A1 & A2) | (A1 & !A2)")
        mu = parse_assignment("A1")
        assert exists_validates(mu, ef) == (False, None)
        assert exists_entails(mu, ef) == (True, None)

    def test_rejects_assignment_binding_bound_atoms(self):
        with pytest.raises(ValueError, match="B1"):
            exists_validates(parse_assignment("B1"), GAP_EXISTENTIAL)
        with pytest.raises(ValueError, match="B1"):
            exists_entails(parse_assignment("B1"), GAP_EXISTENTIAL)

    def test_caps(self):
        ef = parse_existential("exists B1 B2 B3 . (B1 & B2 & B3) & (A1 | A2 | A3)")
        with pytest.raises(ResourceLimitError):
            exists_validates(EMPTY_ASSIGNMENT, ef, expansion_cap=2)
        with pytest.raises(ResourceLimitError):
            exists_entails(EMPTY_ASSIGNMENT, ef, expansion_cap=2)
        with pytest.raises(ResourceLimitError):
            exists_entails(EMPTY_ASSIGNMENT, ef, atom_cap=2)
        assert exists_entails(EMPTY_ASSIGNMENT, ef, atom_cap=3) == (
            False,
            parse_assignment("!A1, !A2, !A3"),
        )


class TestCorrespondenceWithExpansion:
    def _random_existential(self, rng, free_count, bound_count):
        free = atom_pool(free_count)
        bound = atom_pool(bound_count, prefix="B")
        matrix = random_formula(rng, free + bound, max_depth=4)
        return ExistentialFormula(matrix=matrix, quantified=frozenset(bound))

    def test_checks_agree_with_the_materialized_expansion(self):
        rng = random.Random(6001)
        for _ in range(150):
            ef = self._random_existential(rng, rng.randint(1, 5), rng.randint(1, 4))
            expanded = shannon_expand(ef)
            mu = random_partial_assignment(rng, sorted(ef.free_atoms))
            assert exists_validates(mu, ef)[0] == validates(mu, expanded)
            assert exists_entails(mu, ef)[0] == entails(mu, expanded)

    def test_expansion_flag_never_changes_the_verdicts(self):
        rng = random.Random(6002)
        for _ in range(100):
            ef = self._random_existential(rng, rng.randint(1, 4), rng.randint(1, 3))
            mu = random_partial_assignment(rng, sorted(ef.free_atoms))
            kept = shannon_expand(ef, keep_bot_disjuncts=True)
            assert validates(mu, kept) == validates(mu, shannon_expand(ef))
            assert entails(mu, kept) == entails(mu, shannon_expand(ef))

    def test_exists_validation_implies_exists_entailment(self):
        rng = random.Random(6003)
        gaps = 0
        for _ in range(200):
            ef = self._random_existential(rng, rng.randint(1, 5), rng.randint(1, 3))
            mu = random_partial_assignment(rng, sorted(ef.free_atoms))
            v = exists_validates(mu, ef)[0]
            e = exists_entails(mu, ef)[0]
            assert not (v and not e)
            gaps += e and not v
        assert gaps > 0

    def test_total_assignments_collapse_both_checks(self):
        rng = random.Random(6004)
        for _ in range(150):
            ef = self._random_existential(rng, rng.randint(1, 4), rng.randint(1, 3))
            mu = random_partial_assignment(rng, sorted(ef.free_atoms), bind_chance=1.0)
            expected = brute_satisfiable(residual(ef.matrix, mu))
            assert exists_validates(mu, ef)[0] == expected
            assert exists_entails(mu, ef)[0] == expected

    def test_witness_soundness(self):
        rng = random.Random(6005)
        for _ in range(150):
            ef = self._random_existential(rng, rng.randint(1, 4), rng.randint(1, 3))
            mu = random_partial_assignment(rng, sorted(ef.free_atoms))
            ok_v, delta = exists_validates(mu, ef)
            if ok_v:
                assert validates(mu.union(delta), ef.matrix)
            ok_e, eta = exists_entails(mu, ef)
            if not ok_e:
                assert eta.restrict(mu.domain) == mu
                assert not exists_validates(eta, ef)[0]


def _ref_exists_entails(mu, ef):
    """The per-(eta, delta) double sweep that the one-table exists_entails
    replaced, kept as the oracle."""
    unassigned = sorted(ef.free_atoms - mu.domain)
    bound = sorted(ef.quantified)
    for rest in ref_rows(unassigned):
        eta = mu.union(Assignment(rest))
        fixed = {a: eta.value(a) for a in eta.domain}
        if not any(ref_eval(ef.matrix, {**fixed, **delta}) for delta in ref_rows(bound)):
            return False, eta
    return True, None


class TestExistsEntailsAgainstDoubleSweep:
    def test_verdicts_and_counterexamples_match(self, monkeypatch):
        rng = random.Random(6101)
        counterexamples = 0
        for _ in range(500):
            free = atom_pool(rng.randint(1, 6))
            bound = atom_pool(rng.randint(0, 4), prefix="B")
            # mu may bind atoms outside the matrix; B atoms may be vacuous
            ef = ExistentialFormula(
                matrix=random_formula(rng, free + bound, max_depth=4),
                quantified=frozenset(bound),
            )
            mu = random_partial_assignment(rng, free, bind_chance=0.4)
            expected = _ref_exists_entails(mu, ef)
            counterexamples += not expected[0]
            # 3-atom chunks put the leading free atoms in the outer loop
            for chunk in (semantics._CHUNK_ATOMS, 3):
                monkeypatch.setattr(semantics, "_CHUNK_ATOMS", chunk)
                assert exists_entails(mu, ef) == expected
            monkeypatch.undo()
        assert 50 < counterexamples < 450

    def test_caps_are_checked_before_any_table_is_built(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("table built before the cap check")

        monkeypatch.setattr(semantics, "_table", no_table)
        ef = parse_existential("exists B1 B2 . (B1 | B2) & (A1 | A2 | A3)")
        with pytest.raises(ResourceLimitError, match="3 unassigned free atoms"):
            exists_entails(EMPTY_ASSIGNMENT, ef, atom_cap=2)
        with pytest.raises(ResourceLimitError, match="2 quantified atoms"):
            exists_entails(EMPTY_ASSIGNMENT, ef, expansion_cap=1)
        with pytest.raises(AssertionError, match="table built"):
            exists_entails(EMPTY_ASSIGNMENT, ef, atom_cap=3, expansion_cap=2)
        with pytest.raises(ResourceLimitError, match="2 quantified atoms"):
            exists_validates(EMPTY_ASSIGNMENT, ef, expansion_cap=1)


class TestExistsValidatesAgainstPerDeltaLoop:
    def test_verdicts_and_witnesses_match(self, monkeypatch):
        rng = random.Random(6201)
        found, empty_bound, wide_bound = 0, 0, 0
        for _ in range(600):
            free = atom_pool(rng.randint(1, 5))
            bound = atom_pool(rng.choice((0, 1, 2, 3, 5)), prefix="B")
            # mu may bind atoms outside the matrix; B atoms may be vacuous
            ef = ExistentialFormula(
                matrix=random_formula(rng, free + bound, max_depth=4, const_chance=0.1),
                quantified=frozenset(bound),
            )
            mu = random_partial_assignment(rng, free, bind_chance=0.5)
            expected = ref_exists_validates(mu, ef)
            found += expected[0]
            empty_bound += not bound
            wide_bound += len(bound) > 3
            # 3-atom chunks put the leading bound atoms in the outer loop
            for chunk in (semantics._CHUNK_ATOMS, 3):
                monkeypatch.setattr(semantics, "_CHUNK_ATOMS", chunk)
                assert exists_validates(mu, ef) == expected
            monkeypatch.undo()
        assert 100 < found < 500 and empty_bound > 50 and wide_bound > 50

    def test_no_per_delta_validation_is_left(self, monkeypatch):
        def per_delta(*args):
            raise AssertionError("per-delta three-valued evaluation")

        monkeypatch.setattr(quantified, "validates", per_delta)
        monkeypatch.setattr(cnfize, "eval3", per_delta)
        assert exists_validates(parse_assignment("A1, A2"), GAP_EXISTENTIAL) == (
            True, parse_assignment("B1, !B2"))
        f = parse("A1 | (A2 & A3)")
        outcomes = {mu: [case.outcome for case in check_validation_loss(parse_assignment(mu), f).cases]
                    for mu in ("A1", "A1, A2, A3")}
        assert outcomes == {"A1": ["undetermined"] * 2, "A1, A2, A3": ["validated", "falsified"]}
