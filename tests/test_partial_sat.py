"""Validating vs entailing partial assignments and their decision procedures."""
import collections
import random

import pytest

from partialsat import enumeration, limits, partial_sat, semantics
from partialsat import (
    Assignment,
    Atom,
    EMPTY_ASSIGNMENT,
    FALSE,
    Implies,
    ResourceLimitError,
    SatVerdict,
    TRUE,
    atoms,
    brute_valid,
    classify,
    entails,
    extend_to_validating,
    parse,
    parse_assignment,
    residual,
    sat_total,
    validates,
    verdict,
)
from gen import (
    atom_pool,
    equivalent_variant,
    outcome,
    random_formula,
    random_partial_assignment,
    random_tautology_free_cnf,
)
from oracles import ref_verdict

GAP = parse("(A1 & A2) | (A1 & !A2)")


class TestGoldens:
    def test_entails_without_validating(self):
        mu = parse_assignment("A1")
        assert not validates(mu, GAP)
        assert entails(mu, GAP)

    def test_total_assignment_validates(self):
        mu = parse_assignment("A1, A2")
        assert validates(mu, GAP)
        assert entails(mu, GAP)

    def test_empty_assignment_fails_both(self):
        v = verdict(EMPTY_ASSIGNMENT, GAP)
        assert v == SatVerdict(
            validates=False, entails=False, witness=parse_assignment("!A1, A2")
        )

    def test_falsifying_assignment(self):
        v = verdict(parse_assignment("!A1"), GAP)
        assert not v.validates and not v.entails
        assert str(v.witness) == "!A1, !A2"

    def test_constants(self):
        assert verdict(EMPTY_ASSIGNMENT, TRUE) == SatVerdict(True, True)
        v = verdict(EMPTY_ASSIGNMENT, FALSE)
        assert (v.validates, v.entails) == (False, False)
        assert v.witness == EMPTY_ASSIGNMENT

    def test_witness_only_on_entailment_failure(self):
        assert verdict(parse_assignment("A1"), GAP).witness is None

    def test_assignment_may_bind_foreign_atoms(self):
        mu = parse_assignment("A1, B7")
        assert entails(mu, GAP)
        assert not validates(mu, GAP)


class TestWitnessSoundness:
    def test_witness_is_total_falsifying_extension(self):
        rng = random.Random(4001)
        pool = atom_pool(7)
        seen_failure = False
        for _ in range(300):
            f = random_formula(rng, pool, max_depth=5)
            mu = random_partial_assignment(rng, pool, bind_chance=0.3)
            v = verdict(mu, f)
            if v.entails:
                assert v.witness is None
                continue
            seen_failure = True
            eta = v.witness
            assert eta.domain >= mu.domain | atoms(f)
            assert eta.restrict(mu.domain) == mu
            assert not sat_total(f, eta)
        assert seen_failure


class TestValidationImpliesEntailment:
    def test_random_corpus(self):
        rng = random.Random(4002)
        pool = atom_pool(8)
        gaps = 0
        for _ in range(400):
            f = random_formula(rng, pool, max_depth=6)
            mu = random_partial_assignment(rng, pool)
            v, e = validates(mu, f), entails(mu, f)
            assert not (v and not e)
            gaps += e and not v
        assert gaps > 0

    def test_gap_family(self):
        """One branching atom bound, the case split left open."""
        for k in range(2, 6):
            f = parse(f"(A1 & A{k}) | (A1 & !A{k})")
            mu = parse_assignment("A1")
            assert entails(mu, f) and not validates(mu, f)


class TestOracleCrossChecks:
    def test_validation_iff_residual_true(self):
        rng = random.Random(4003)
        pool = atom_pool(7)
        for _ in range(300):
            f = random_formula(rng, pool, max_depth=5)
            mu = random_partial_assignment(rng, pool)
            assert validates(mu, f) == (residual(f, mu) == TRUE)

    def test_entailment_iff_cube_implication_valid(self):
        rng = random.Random(4004)
        pool = atom_pool(6)
        for _ in range(300):
            f = random_formula(rng, pool, max_depth=5)
            mu = random_partial_assignment(rng, pool, bind_chance=0.4)
            assert entails(mu, f) == brute_valid(Implies(mu.to_cube(), f))


class TestEquivalenceSensitivity:
    def test_entailment_is_equivalence_invariant(self):
        rng = random.Random(4005)
        pool = atom_pool(6)
        for _ in range(200):
            f = random_formula(rng, pool, max_depth=5)
            mu = random_partial_assignment(rng, pool)
            assert entails(mu, f) == entails(mu, equivalent_variant(rng, f))

    def test_validation_is_not_equivalence_invariant(self):
        """GAP is equivalent to plain A1 yet only the latter is validated."""
        mu = parse_assignment("A1")
        assert brute_valid(parse("((A1 & A2) | (A1 & !A2)) <-> A1"))
        assert validates(mu, parse("A1"))
        assert not validates(mu, GAP)


class TestTautologyFreeCnfCollapse:
    """On tautology-free CNF the two notions coincide."""

    def test_random_tautology_free_cnfs(self):
        rng = random.Random(4006)
        pool = atom_pool(6)
        agreements = {True: 0, False: 0}
        for _ in range(250):
            f = random_tautology_free_cnf(rng, pool)
            assert classify(f).is_tautology_free_cnf
            mu = random_partial_assignment(rng, pool, bind_chance=0.6)
            v = verdict(mu, f)
            assert v.validates == v.entails == validates(mu, f) == entails(mu, f)
            agreements[v.entails] += 1
        assert agreements[True] > 0 and agreements[False] > 0

    def test_tautological_clause_breaks_the_collapse(self):
        f = parse("A1 | !A1")
        assert not classify(f).is_tautology_free_cnf
        assert entails(EMPTY_ASSIGNMENT, f)
        assert not validates(EMPTY_ASSIGNMENT, f)


class TestBackends:
    def test_brute_and_dpll_agree(self):
        rng = random.Random(4007)
        pool = atom_pool(5)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=4)
            mu = random_partial_assignment(rng, pool)
            b = entails(mu, f)
            assert entails(mu, f, atom_cap=0) == b

    def test_dpll_witness_is_sound(self):
        """The atom cap picks the procedure, never the answer: the cap-0
        verdict, refuted by DPLL, equals the swept one, witness included."""
        rng = random.Random(4008)
        failures = 0
        for _ in range(1200):
            pool = atom_pool(rng.randint(1, 10))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 7))
            mu = random_partial_assignment(rng, pool)
            v = verdict(mu, f)
            assert verdict(mu, f, atom_cap=0) == v, (f, mu)
            if not v.entails:
                failures += 1
                assert not sat_total(f, v.witness)
        assert failures >= 500

    def test_auto_falls_back_to_dpll_above_the_atom_cap(self):
        f = parse("(A1 & A2) | (A3 & A4) | (A5 & A6)")
        assert entails(EMPTY_ASSIGNMENT, f, atom_cap=2) is False
        assert entails(parse_assignment("A1, A2"), f, atom_cap=2) is True

    def test_the_atom_cap_alone_picks_the_procedure(self, monkeypatch):
        """A residual of at most `atom_cap` atoms is swept, a larger one is
        refuted by DPLL; either procedure alone gives the answer."""
        def refuse(*args, **kwargs):
            raise AssertionError("the other procedure ran")

        f = parse("(A1 & A2) | (A1 & !A2) | (A3 & A4)")
        for mu, expected in ((EMPTY_ASSIGNMENT, False), (parse_assignment("A1"), True)):
            n = len(atoms(residual(f, mu)))
            with monkeypatch.context() as patched:
                patched.setattr(enumeration, "dpll_first_assignment", refuse)
                assert entails(mu, f, atom_cap=n) is expected
            with monkeypatch.context() as patched:
                patched.setattr(partial_sat, "first_falsifying", refuse)
                for cap in (n - 1, 0):
                    assert entails(mu, f, atom_cap=cap) is expected

    def test_blown_branch_budget_raises_rather_than_lies(self):
        f = parse("(A1 & A2) | (A3 & A4)")
        with pytest.raises(ResourceLimitError):
            entails(EMPTY_ASSIGNMENT, f, atom_cap=0, branch_budget=0)


class TestMostFrequentAtom:
    """`extend_to_validating` binds the residual's most frequent atom first."""

    def test_clear_winner(self):
        assert partial_sat._most_frequent_atom(parse("(A2 & A2) | A1")) == Atom("A2")

    def test_tie_breaks_lexicographically(self):
        assert partial_sat._most_frequent_atom(GAP) == Atom("A1")

    def test_constant_has_none(self):
        assert partial_sat._most_frequent_atom(TRUE) is None


class TestExtendToValidating:
    def test_golden(self):
        result = extend_to_validating(parse_assignment("A1"), GAP)
        assert str(result) == "A1, A2"
        assert validates(result, GAP)

    def test_requires_entailment(self):
        with pytest.raises(ValueError, match="entail"):
            extend_to_validating(EMPTY_ASSIGNMENT, parse("A1"))

    def test_already_validating_is_returned_unchanged(self):
        mu = parse_assignment("A1, A2")
        assert extend_to_validating(mu, GAP) == mu

    def test_random_extension_property(self):
        rng = random.Random(4009)
        pool = atom_pool(6)
        checked = 0
        for _ in range(400):
            f = random_formula(rng, pool, max_depth=5)
            mu = random_partial_assignment(rng, pool, bind_chance=0.4)
            if not entails(mu, f):
                continue
            checked += 1
            eta = extend_to_validating(mu, f)
            assert eta.restrict(mu.domain) == mu
            assert validates(eta, f)
        assert checked > 20

    def test_every_added_atom_is_bound_true(self):
        """f|mu is valid, and binding an atom keeps it valid, so no binding
        makes the residual false and the extension never binds an atom false."""
        rng = random.Random(4012)
        extended = 0
        for _ in range(4_000):
            pool = atom_pool(rng.randint(1, 6))
            f = random_formula(rng, pool, max_depth=rng.randint(1, 5), const_chance=0.15)
            mu = random_partial_assignment(rng, pool, bind_chance=rng.random() * 0.8)
            if not entails(mu, f):
                continue
            eta = extend_to_validating(mu, f)
            assert all(eta.value(atom) for atom in eta.domain - mu.domain), (mu, f)
            assert validates(eta, f)
            extended += eta != mu
        assert extended > 200  # pairs where mu entails f but does not validate it


class TestOneResidualPerCheck:
    def test_verdict_matches_the_two_residual_verdict(self):
        """Seeded (f, mu) pairs over 1-14 atoms with constants, on both
        sides of random atom caps and with random branch budgets: equal
        verdicts, witness included, or the same error."""
        rng = random.Random(4010)
        kinds = collections.Counter()
        for _ in range(3_000):
            pool = atom_pool(rng.randint(1, 14))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 7), const_chance=0.15)
            mu = random_partial_assignment(rng, pool + atom_pool(2, "X"), rng.random() * 0.7)
            args = (mu, f, rng.choice((None, rng.randint(0, 6))),
                    rng.choice((None, rng.randint(0, 4))))
            ours = outcome(verdict, *args)
            assert ours == outcome(ref_verdict, *args), args
            v = ours[1]
            kinds[v if ours[0] == "error" else (v.validates, v.entails)] += 1
        # validating, entailing only, neither, and a blown cap or budget
        assert len(kinds) == 4 and min(kinds.values()) > 50

    def test_the_residual_and_its_atoms_are_taken_once(self, monkeypatch):
        taken = []

        def counted(name, fn):
            return lambda *args, **kwargs: taken.append(name) or fn(*args, **kwargs)

        monkeypatch.setattr(partial_sat, "residual", counted("residual", residual))
        monkeypatch.setattr(partial_sat, "atoms", counted("atoms", atoms))
        monkeypatch.setattr(semantics, "atoms", counted("sweep atoms", atoms))
        monkeypatch.setattr(partial_sat, "eval3", None)  # validation reads the residual
        assert verdict(parse_assignment("A1"), GAP) == SatVerdict(False, True)
        assert taken == ["residual", "atoms"]
        taken.clear()
        assert not verdict(parse_assignment("A1"), parse("(A1 | A2) & (A3 -> A4)")).entails
        assert taken == ["residual", "atoms", "atoms"]  # atoms(f) for the witness only
        taken.clear()
        cnf = parse("(A1 | A2) & !A3")
        assert verdict(parse_assignment("A1, !A3"), cnf) == SatVerdict(True, True)
        assert taken == ["residual"]
        taken.clear()
        monkeypatch.setattr(partial_sat, "residual",
                            lambda f, mu: taken.append(f) or residual(f, mu))
        assert extend_to_validating(parse_assignment("A1"), GAP) == parse_assignment("A1, A2")
        assert taken.count(GAP) == 1  # then only residuals of the residual

    def test_the_atom_cap_is_read_once_per_check(self, monkeypatch):
        reads = []
        real = limits._from_env
        monkeypatch.setattr(limits, "_from_env",
                            lambda name, default: reads.append(name) or real(name, default))
        for f in (GAP, parse("(A1 | A2) & (A3 -> A4)")):
            reads.clear()
            verdict(parse_assignment("A1"), f)
            assert reads == ["MAX_ATOMS"]
        reads.clear()
        entails(parse_assignment("A1"), GAP, atom_cap=0)
        assert reads == ["BRANCH_BUDGET"]
