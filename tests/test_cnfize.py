"""Tseitin CNF-ization, its loss detectors, and DIMACS output."""
import random

import pytest

from partialsat import cnfize, limits, partial_sat, semantics
from partialsat import (
    And,
    Assignment,
    Atom,
    EMPTY_ASSIGNMENT,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    ResourceLimitError,
    TRUE,
    and_all,
    atoms,
    check_entailment_loss,
    check_validation_loss,
    classify,
    cnf_clauses,
    entails,
    parse,
    parse_assignment,
    sat_total,
    to_dimacs,
    tseitin,
    validates,
)
from gen import atom_pool, random_formula, random_partial_assignment, size
from partialsat.formula import _cnf_literals
from oracles import extensions, ref_check_validation_loss, ref_tseitin


class TestTseitinGoldens:
    def test_single_nested_conjunction(self):
        result = tseitin(parse("A1 | (A2 & A3)"))
        assert str(result.cnf) == "(A1 | B1) & (!B1 | A2) & (!B1 | A3) & (B1 | !A2 | !A3)"
        assert result.fresh_atoms == (Atom("B1"),)
        assert result.definitions == ((Atom("B1"), parse("A2 & A3")),)

    def test_two_disjoined_conjunctions(self):
        result = tseitin(parse("(A1 & A2) | (A1 & !A2)"))
        assert str(result.cnf) == (
            "(B1 | B2) & (!B1 | A1) & (!B1 | A2) & (B1 | !A1 | !A2)"
            " & (!B2 | A1) & (!B2 | !A2) & (B2 | !A1 | A2)"
        )
        assert result.fresh_atoms == (Atom("B1"), Atom("B2"))
        assert result.definitions == (
            (Atom("B1"), parse("A1 & A2")),
            (Atom("B2"), parse("A1 & !A2")),
        )

    def test_implication_templates(self):
        result = tseitin(parse("A1 -> (A2 -> A3)"))
        assert str(result.cnf) == (
            "B2 & (!B1 | !A2 | A3) & (B1 | A2) & (B1 | !A3)"
            " & (!B2 | !A1 | B1) & (B2 | A1) & (B2 | !B1)"
        )

    def test_iff_templates(self):
        result = tseitin(parse("A1 | (A2 <-> A3)"))
        assert str(result.cnf) == (
            "(A1 | B1) & (!B1 | !A2 | A3) & (!B1 | A2 | !A3)"
            " & (B1 | A2 | A3) & (B1 | !A2 | !A3)"
        )

    def test_or_templates(self):
        result = tseitin(parse("(A1 | A2) <-> A3"))
        assert str(result.cnf) == (
            "B2 & (!B1 | A1 | A2) & (B1 | !A1) & (B1 | !A2)"
            " & (!B2 | !B1 | A3) & (!B2 | B1 | !A3) & (B2 | B1 | A3) & (B2 | !B1 | !A3)"
        )

    def test_deepest_wins_ties_leftmost(self):
        """Both inner conjunctions sit at the same depth; the left one gets B1."""
        result = tseitin(parse("(A1 & A2) | (A3 & A4)"))
        assert result.definitions == (
            (Atom("B1"), parse("A1 & A2")),
            (Atom("B2"), parse("A3 & A4")),
        )

    def test_shared_subformula_gets_one_label(self):
        result = tseitin(parse("(A1 & A2) | ((A1 & A2) & A3)"))
        assert result.fresh_atoms == (Atom("B1"), Atom("B2"))
        assert result.definitions[0] == (Atom("B1"), parse("A1 & A2"))
        assert result.definitions[1] == (Atom("B2"), parse("B1 & A3"))

    def test_fresh_names_skip_existing_atoms(self):
        result = tseitin(parse("B1 | (A1 & A2)"))
        assert result.fresh_atoms == (Atom("B2"),)

    def test_passthroughs(self):
        for text in ["A1", "!A1", "true", "false"]:
            result = tseitin(parse(text))
            assert result.cnf == parse(text)
            assert result.fresh_atoms == ()

    def test_cnf_input_is_unchanged(self):
        f = parse("(A1 | A2) & !A3")
        assert tseitin(f).cnf == f

    def test_double_negation_collapsed_before_labeling(self):
        assert tseitin(parse("!!A1")).cnf == parse("A1")
        assert tseitin(parse("!!(A1 & A2)")).cnf == parse("A1 & A2")

    def test_constants_folded_before_labeling(self):
        assert tseitin(parse("A1 & true")).cnf == parse("A1")
        assert tseitin(parse("(A1 & A2) | true")).cnf == TRUE


class TestTseitinProperties:
    def test_result_is_cnf(self):
        rng = random.Random(5001)
        pool = atom_pool(6)
        for _ in range(250):
            f = random_formula(rng, pool, max_depth=5)
            assert classify(tseitin(f).cnf).is_cnf

    def test_equisatisfiable_via_forced_definitions(self):
        """Fresh atoms are functionally determined, so comparing against the
        one forced delta decides satisfiability in both directions."""
        rng = random.Random(5002)
        pool = atom_pool(6)
        for _ in range(200):
            f = random_formula(rng, pool, max_depth=5)
            result = tseitin(f)
            for eta in extensions(EMPTY_ASSIGNMENT, atoms(f)):
                forced = eta
                for fresh, definition in result.definitions:
                    forced = forced.bind(fresh, sat_total(definition, forced))
                assert sat_total(f, eta) == sat_total(result.cnf, forced)
                bindings = {a: forced.value(a) for a in forced.domain}
                for fresh in result.fresh_atoms:
                    flipped = dict(bindings)
                    flipped[fresh] = not flipped[fresh]
                    assert not sat_total(result.cnf, Assignment(flipped))

    def test_clause_literal_count_is_linear(self):
        rng = random.Random(5003)
        pool = atom_pool(8)
        for _ in range(300):
            f = random_formula(rng, pool, max_depth=6)
            cnf = tseitin(f).cnf
            lit_count = sum(len(pairs) for _, pairs in _cnf_literals(cnf) or [])
            assert lit_count <= 12 * size(f)

    def test_matches_recursive_reference(self):
        """Same CNF, fresh atoms and definitions, in the same order."""
        rng = random.Random(5005)
        for _ in range(600):
            pool = atom_pool(rng.randint(1, 8))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 7), const_chance=0.1)
            result, expected = tseitin(f), ref_tseitin(f)
            assert result.cnf == expected.cnf
            assert result.fresh_atoms == expected.fresh_atoms
            assert result.definitions == expected.definitions

    def test_small_pools_match_the_reference(self):
        """Over 1-3 atoms equal subformulas recur at different depths, so
        labels are shared between levels."""
        rng = random.Random(5006)
        shared = 0
        for _ in range(1500):
            f = random_formula(rng, atom_pool(rng.randint(1, 3)), max_depth=rng.randint(2, 8),
                               const_chance=0.05)
            result, expected = tseitin(f), ref_tseitin(f)
            assert (result.cnf, result.fresh_atoms, result.definitions) == (
                expected.cnf, expected.fresh_atoms, expected.definitions)
            depths = _depths_by_subformula(f)
            shared += any(len(depths.get(str(d), ())) > 1 for _, d in result.definitions)
        assert shared > 100

    def test_shared_node_objects_match_the_reference(self):
        rng = random.Random(5007)
        for _ in range(500):
            parts = [random_formula(rng, atom_pool(3), max_depth=rng.randint(0, 3))
                     for _ in range(3)]
            for _ in range(rng.randint(2, 6)):
                kind = rng.choice((And, Or, Implies, Iff, Not))
                a, b = rng.choice(parts), rng.choice(parts)
                parts.append(Not(a) if kind is Not else kind(a, b))
            result, expected = tseitin(parts[-1]), ref_tseitin(parts[-1])
            assert (result.cnf, result.fresh_atoms, result.definitions) == (
                expected.cnf, expected.fresh_atoms, expected.definitions)
        node = parse("A1 & A2")
        result = tseitin(Or(node, Implies(node, parse("A3"))))
        assert str(cnf_clauses(result.cnf)[0]) == "B1 | B2"
        assert result.definitions == ((Atom("B1"), node), (Atom("B2"), parse("B1 -> A3")))
        assert result == ref_tseitin(parse("(A1 & A2) | ((A1 & A2) -> A3)"))

    def test_a_twin_left_in_cnf_position_takes_the_label(self):
        """The right `A4 | A3` is never labelled itself: it already sits
        where CNF allows it, but its twin under `<->` got B1."""
        f = parse("((A4 | A3) <-> (A2 <-> A3)) | (A4 | A3)")
        result = tseitin(f)
        assert str(cnf_clauses(result.cnf)[0]) == "B3 | B1"
        assert [str(d) for _, d in result.definitions] == ["A4 | A3", "A2 <-> A3", "B1 <-> B2"]
        assert result == ref_tseitin(f)

    def test_labelling_stops_once_a_twin_clears_the_last_break(self):
        """Labelling the deeper `A1 | A2` also clears the one under `!`, so
        `D | B1`, which comes before it in the order, keeps no label."""
        f = parse("(C | (D | (A1 | A2))) & !(A1 | A2)")
        result = tseitin(f)
        assert result.definitions == ((Atom("B1"), parse("A1 | A2")),)
        assert str(result.cnf).startswith("(C | (D | B1)) & !B1 & ")
        assert result == ref_tseitin(f)

    @pytest.mark.parametrize("binding", ["fold", "classify"])
    def test_one_walk_whatever_the_number_of_labels(self, monkeypatch, binding):
        """The calls tseitin makes do not grow with the fresh atoms."""
        calls = []

        def count(n):
            f = and_all(parse(f"(a{i} & !b{i}) | c{i}") for i in range(n))
            real = getattr(cnfize, binding)
            monkeypatch.setattr(cnfize, binding, lambda *a, **k: calls.append(1) or real(*a, **k))
            calls.clear()
            assert len(tseitin(f).fresh_atoms) >= n
            monkeypatch.undo()
            return len(calls)

        assert count(10) == count(300)

    def test_verdicts_are_conserved_from_cnf_to_original(self):
        """Any delta making mu validate (entail) the CNF certifies that mu
        already validates (entails) the original."""
        rng = random.Random(5004)
        pool = atom_pool(5)
        for _ in range(200):
            f = random_formula(rng, pool, max_depth=4)
            result = tseitin(f)
            if len(result.fresh_atoms) > 4:
                continue
            mu = random_partial_assignment(rng, pool, bind_chance=0.5)
            for delta in extensions(EMPTY_ASSIGNMENT, set(result.fresh_atoms)):
                both = mu.union(delta)
                if validates(both, result.cnf):
                    assert validates(mu, f)
                if entails(both, result.cnf):
                    assert entails(mu, f)


class TestValidationLoss:
    def test_loss_on_nested_disjunct(self):
        report = check_validation_loss(parse_assignment("A1"), parse("A1 | (A2 & A3)"))
        assert report.mode == "validating"
        assert report.loss is True
        assert [(str(c.delta), c.outcome) for c in report.cases] == [
            ("B1", "undetermined"),
            ("!B1", "undetermined"),
        ]
        assert all(c.witness is None for c in report.cases)

    def test_total_assignment_recovers(self):
        report = check_validation_loss(
            parse_assignment("A1, A2, A3"), parse("A1 | (A2 & A3)")
        )
        assert report.loss is False
        assert [(str(c.delta), c.outcome) for c in report.cases] == [
            ("B1", "validated"),
            ("!B1", "falsified"),
        ]

    def test_no_fresh_atoms_means_no_loss(self):
        report = check_validation_loss(parse_assignment("A1"), parse("A1 | A2"))
        assert report.loss is False
        assert [(str(c.delta), c.outcome) for c in report.cases] == [("", "validated")]

    def test_precondition(self):
        with pytest.raises(ValueError, match="validate"):
            check_validation_loss(EMPTY_ASSIGNMENT, parse("A1 | (A2 & A3)"))

    def test_rejects_assignment_binding_fresh_atoms(self):
        with pytest.raises(ValueError, match="B1"):
            check_validation_loss(parse_assignment("A1, B1"), parse("A1 | (A2 & A3)"))

    def test_sweep_cap(self):
        f = parse("(A1 & A2) | (A3 & A4)")
        mu = parse_assignment("A1, A2")
        assert check_validation_loss(mu, f, sweep_cap=2).loss is True
        with pytest.raises(ResourceLimitError):
            check_validation_loss(mu, f, sweep_cap=1)

    def test_sweep_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("PARTIALSAT_SWEEP_CAP", "1")
        with pytest.raises(ResourceLimitError):
            check_validation_loss(
                parse_assignment("A1, A2"), parse("(A1 & A2) | (A3 & A4)")
            )

    def test_reports_match_the_per_delta_loop(self, monkeypatch):
        rng = random.Random(4401)
        pool = atom_pool(5)
        checked, outcomes, losses, widest = 0, set(), set(), 0
        while checked < 600:
            f = random_formula(rng, pool, max_depth=rng.randint(2, 4), const_chance=0.1)
            mu = random_partial_assignment(rng, pool, bind_chance=0.6)
            if not validates(mu, f):
                continue
            expected = ref_check_validation_loss(mu, f)
            # 3-atom chunks put the leading fresh atoms in the outer loop
            for chunk in (semantics._CHUNK_ATOMS, 3):
                monkeypatch.setattr(semantics, "_CHUNK_ATOMS", chunk)
                assert check_validation_loss(mu, f) == expected
            monkeypatch.undo()
            outcomes |= {case.outcome for case in expected.cases}
            losses.add(expected.loss)
            widest = max(widest, len(expected.fresh_atoms))
            checked += 1
        assert outcomes == {"validated", "undetermined", "falsified"}
        assert losses == {True, False} and widest > 3


class TestEntailmentLoss:
    def test_loss_with_witnesses(self):
        report = check_entailment_loss(
            parse_assignment("A1"), parse("(A1 & A2) | (A1 & !A2)")
        )
        assert report.mode == "entailing"
        assert report.loss is True
        assert [
            (str(c.delta), c.outcome, str(c.witness)) for c in report.cases
        ] == [
            ("B1, B2", "inconsistent", "A1, A2, B1, B2"),
            ("B1, !B2", "falsified", "A1, !A2, B1, !B2"),
            ("!B1, B2", "falsified", "A1, A2, !B1, B2"),
            ("!B1, !B2", "inconsistent", "A1, !A2, !B1, !B2"),
        ]

    def test_recovery_on_total_assignment(self):
        report = check_entailment_loss(
            parse_assignment("A1, A2"), parse("(A1 & A2) | (A1 & !A2)")
        )
        assert report.loss is False
        outcomes = {str(c.delta): c.outcome for c in report.cases}
        assert outcomes["B1, !B2"] == "entailed"

    def test_precondition(self):
        with pytest.raises(ValueError, match="entail"):
            check_entailment_loss(EMPTY_ASSIGNMENT, parse("A1 | (A2 & A3)"))

    def test_entailed_cases_carry_no_witness(self):
        report = check_entailment_loss(
            parse_assignment("A1, A2"), parse("(A1 & A2) | (A1 & !A2)")
        )
        for case in report.cases:
            assert (case.witness is None) == (case.outcome == "entailed")

    def test_witnesses_falsify_the_cnf(self):
        rng = random.Random(5005)
        pool = atom_pool(5)
        checked = 0
        for _ in range(300):
            f = random_formula(rng, pool, max_depth=4)
            mu = random_partial_assignment(rng, pool, bind_chance=0.5)
            if not entails(mu, f) or len(atoms(f)) == 0:
                continue
            report = check_entailment_loss(mu, f)
            checked += 1
            for case in report.cases:
                if case.witness is not None:
                    assert not sat_total(report.cnf, case.witness)
        assert checked > 20

    def test_outcomes_do_not_depend_on_the_atom_cap(self):
        """With 3 residual atoms over a cap of 2, the "inconsistent" check
        goes to DPLL, as the entailment check does, instead of raising."""
        mu = parse_assignment("A1")
        f = parse("(A1 & A2) | (A1 & !A2) | (A3 & A4)")
        small, large = (check_entailment_loss(mu, f, atom_cap=cap) for cap in (2, 16))
        assert small.loss is large.loss is True
        assert [(c.delta, c.outcome) for c in small.cases] == [
            (c.delta, c.outcome) for c in large.cases
        ]
        assert {c.outcome for c in small.cases} == {"inconsistent", "falsified"}

    def test_one_residual_of_the_cnf_per_delta(self, monkeypatch):
        """Each delta walks the CNF once, for "entailed" and for the split
        between "inconsistent" and "falsified" alike."""
        mu, f = parse_assignment("A1"), parse("(A1 & A2) | (A1 & !A2) | (A3 & A4)")
        cnf = tseitin(f).cnf
        walks = []
        for module in (cnfize, partial_sat):
            def counted(g, nu, real=getattr(module, "residual")):
                walks.append(g == cnf or type(g) is Not and g.arg == cnf)
                return real(g, nu)
            monkeypatch.setattr(module, "residual", counted)
        report = check_entailment_loss(mu, f)
        assert {c.outcome for c in report.cases} == {"inconsistent", "falsified"}
        assert sum(walks) == len(report.cases) == 16

    def test_each_variable_is_read_at_most_once_per_check(self, monkeypatch):
        reads = []
        real = limits._from_env
        monkeypatch.setattr(limits, "_from_env",
                            lambda name, default: reads.append(name) or real(name, default))
        mu, f = parse_assignment("A1"), parse("(A1 & A2) | (A1 & !A2) | (A3 & A4)")
        # a cap of 0 sends every residual to the DPLL refutation and its budget
        for atom_cap, read in ((None, ["BRANCH_BUDGET", "MAX_ATOMS", "SWEEP_CAP"]),
                               (0, ["BRANCH_BUDGET", "SWEEP_CAP"])):
            reads.clear()
            assert len(check_entailment_loss(mu, f, atom_cap=atom_cap).cases) == 16
            assert sorted(reads) == read
        reads.clear()
        monkeypatch.setenv("PARTIALSAT_SWEEP_CAP", "1")
        with pytest.raises(ResourceLimitError, match="sweeping 2 fresh atoms exceeds the cap of 1"):
            check_validation_loss(parse_assignment("A1, A2"), parse("(A1 & A2) | (A3 & A4)"))
        assert reads == ["SWEEP_CAP"]


class TestToDimacs:
    def test_golden(self):
        text = to_dimacs(parse("(A1 | !A2) & A2"))
        assert text == "c 1 A1\nc 2 A2\np cnf 2 2\n1 -2 0\n2 0\n"

    def test_first_occurrence_numbering(self):
        text = to_dimacs(parse("(A9 | A1) & (A1 | A5)"))
        assert text == "c 1 A9\nc 2 A1\nc 3 A5\np cnf 3 2\n1 2 0\n2 3 0\n"

    def test_constants(self):
        assert to_dimacs(TRUE) == "p cnf 0 0\n"
        assert to_dimacs(FALSE) == "p cnf 0 1\n0\n"

    def test_rejects_non_cnf(self):
        with pytest.raises(ValueError, match="CNF"):
            to_dimacs(parse("!(A1 & A2)"))

    def test_thousand_clause_cnf_keeps_clause_order(self):
        cnf = parse(" & ".join(f"(d{i} | !e{i})" for i in range(1200)))
        rows = [line for line in to_dimacs(cnf).splitlines() if line[0] not in "cp"]
        assert rows == [f"{2 * i + 1} -{2 * i + 2} 0" for i in range(1200)]

    def test_tseitin_output_is_accepted(self):
        text = to_dimacs(tseitin(parse("(A1 & A2) | (A1 & !A2)")).cnf)
        assert text.splitlines()[:4] == ["c 1 B1", "c 2 B2", "c 3 A1", "c 4 A2"]
        assert "p cnf 4 7" in text


def _depths_by_subformula(f):
    """Printed subformula -> the depths where it occurs."""
    found, todo = {}, [(f, 0)]
    while todo:
        node, depth = todo.pop()
        found.setdefault(str(node), set()).add(depth)
        todo += [(child, depth + 1) for child in (getattr(node, "arg", None),
                 getattr(node, "left", None), getattr(node, "right", None)) if child]
    return found
