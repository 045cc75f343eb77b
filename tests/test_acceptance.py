"""Acceptance gate: one test per release criterion, reported line by line.

Criteria 1-4 pin the worked examples byte for byte; criteria 5-7 run the
semantic property suites over fixed-seed random corpora.  The DPLL
refutation behind criterion 7 is also checked at 12-14 atoms, where it
and the exhaustive sweep actually differ.
"""
import random
import time
from functools import lru_cache

from partialsat import (
    Assignment,
    AtomRef,
    EMPTY_ASSIGNMENT,
    ExistentialFormula,
    Implies,
    Not,
    Or,
    SatVerdict,
    TRUE,
    and_all,
    atoms,
    brute_equivalent,
    brute_valid,
    build_obdd,
    check_entailment_loss,
    check_validation_loss,
    compare_modes,
    dpll_enumerate,
    entails,
    enumerate_abstraction,
    eval3,
    exists_entails,
    exists_validates,
    obdd_enumerate,
    or_all,
    parse,
    parse_assignment,
    parse_existential,
    problem_from_json,
    residual,
    sat_total,
    shannon_expand,
    tableaux_enumerate,
    tseitin,
    validates,
    verdict,
    TruthValue3,
)
from gen import (
    atom_pool,
    equivalent_variant,
    random_formula,
    random_partial_assignment,
    random_tautology_free_cnf,
    random_total_assignment,
)

GAP_TEXT = "(A1 & A2) | (A1 & !A2)"


def _cube_texts(result) -> list[str]:
    return [str(mu) for mu in result.assignments]


@lru_cache(maxsize=None)
def _property_corpus() -> tuple:
    rng = random.Random(20260815)
    pool = atom_pool(8)
    return tuple(random_formula(rng, pool, max_depth=6) for _ in range(500))


@lru_cache(maxsize=None)
def _engine_corpus() -> tuple:
    rng = random.Random(20260816)
    pool = atom_pool(6)
    return tuple(random_formula(rng, pool, max_depth=5) for _ in range(200))


def test_criterion_1_cube_enumeration_and_verdict_on_the_branching_example():
    started = time.monotonic()
    f = parse(GAP_TEXT)
    assert _cube_texts(obdd_enumerate(build_obdd(f), f)) == ["A1"]
    expected_validating = {"A1, A2", "A1, !A2"}
    assert set(_cube_texts(tableaux_enumerate(f))) == expected_validating
    assert len(tableaux_enumerate(f).assignments) == 2
    assert set(_cube_texts(dpll_enumerate(f))) == expected_validating
    assert len(dpll_enumerate(f).assignments) == 2
    assert verdict(parse_assignment("A1"), f) == SatVerdict(
        validates=False, entails=True, witness=None
    )
    assert time.monotonic() - started < 1.0


def test_criterion_2_cnfization_goldens_and_loss_reports():
    started = time.monotonic()
    result = tseitin(parse("A1 | (A2 & A3)"))
    assert str(result.cnf) == (
        "(A1 | B1) & (!B1 | A2) & (!B1 | A3) & (B1 | !A2 | !A3)"
    )
    v_report = check_validation_loss(parse_assignment("A1"), parse("A1 | (A2 & A3)"))
    assert v_report.loss is True
    assert [(str(c.delta), c.outcome) for c in v_report.cases] == [
        ("B1", "undetermined"),
        ("!B1", "undetermined"),
    ]
    e_report = check_entailment_loss(parse_assignment("A1"), parse(GAP_TEXT))
    assert e_report.loss is True
    assert [(str(c.delta), c.outcome) for c in e_report.cases] == [
        ("B1, B2", "inconsistent"),
        ("B1, !B2", "falsified"),
        ("!B1, B2", "falsified"),
        ("!B1, !B2", "inconsistent"),
    ]
    for case in e_report.cases:
        assert case.witness is not None
        assert not sat_total(e_report.cnf, case.witness)
    assert time.monotonic() - started < 1.0


def test_criterion_3_shannon_expansion_and_lifted_checks():
    started = time.monotonic()
    ef = parse_existential(
        "exists B1 B2 . (B1 | B2) & (!B1 | A1) & (!B1 | A2) & (B1 | !A1 | !A2)"
        " & (!B2 | A1) & (!B2 | !A2) & (B2 | !A1 | A2)"
    )
    expanded = shannon_expand(ef, keep_bot_disjuncts=True)
    assert str(expanded) == "A1 & A2 & !A2 | A1 & A2 | A1 & !A2 | false"
    mu = parse_assignment("A1")
    assert exists_entails(mu, ef)[0] is True
    assert exists_validates(mu, ef)[0] is False
    assert time.monotonic() - started < 1.0


def test_criterion_4_predicate_abstraction_in_both_modes():
    started = time.monotonic()
    problem = problem_from_json(
        '{"base": "(!B1 | B2) & (B1 | !B2)", "predicates":'
        ' [{"label": "A1", "def": "B1 & B2"},'
        ' {"label": "A2", "def": "B1 & !B2"}]}'
    )
    assert _cube_texts(enumerate_abstraction(problem, "validating")) == [
        "A1, !A2",
        "!A1, !A2",
    ]
    assert _cube_texts(enumerate_abstraction(problem, "entailing")) == ["!A2"]
    comparison = compare_modes(problem)
    assert comparison.equivalent is True
    assert comparison.cube_count_entailing < comparison.cube_count_validating
    assert time.monotonic() - started < 1.0


def test_criterion_5_semantic_property_suite():
    started = time.monotonic()
    corpus = _property_corpus()
    assert len(corpus) >= 500
    assert all(len(atoms(f)) <= 8 for f in corpus)
    rng = random.Random(20260817)
    pool = atom_pool(8)

    # Validation implies entailment, and the residual/evaluation pair agree,
    # on one fresh partial assignment per formula.
    checked = 0
    gaps = 0
    for f in corpus:
        mu = random_partial_assignment(rng, pool)
        v, e = validates(mu, f), entails(mu, f)
        assert not (v and not e)
        gaps += e and not v
        r = residual(f, mu)
        assert (r == TRUE) == (eval3(f, mu) is TruthValue3.T)
        checked += 1
    assert checked >= 200 and gaps > 0

    # On total assignments both notions collapse to plain satisfaction.
    for f in corpus:
        eta = random_total_assignment(rng, pool)
        expected = sat_total(f, eta)
        assert validates(eta, f) == expected
        assert entails(eta, f) == expected

    # On tautology-free CNF the two notions coincide on partial assignments.
    for _ in range(250):
        cnf = random_tautology_free_cnf(rng, pool)
        mu = random_partial_assignment(rng, pool, bind_chance=0.6)
        assert validates(mu, cnf) == entails(mu, cnf)

    # Entailment is invariant under classical equivalence; validation is not,
    # as the fixed counterexample pair shows.
    for f in corpus:
        mu = random_partial_assignment(rng, pool)
        assert entails(mu, f) == entails(mu, equivalent_variant(rng, f))
    gap, collapsed = parse(GAP_TEXT), parse("A1")
    assert brute_equivalent(gap, collapsed)
    assert validates(parse_assignment("A1"), collapsed)
    assert not validates(parse_assignment("A1"), gap)

    # CNF-ization preserves satisfaction of total assignments: the fresh
    # atoms take their forced values, and flipping any one of them breaks
    # the definitional clauses.
    for f in corpus:
        result = tseitin(f)
        for _ in range(2):
            eta = random_total_assignment(rng, sorted(atoms(f)))
            forced = eta
            for fresh, definition in result.definitions:
                forced = forced.bind(fresh, sat_total(definition, forced))
            assert sat_total(f, eta) == sat_total(result.cnf, forced)
        if result.fresh_atoms:
            flipped = {a: forced.value(a) for a in forced.domain}
            victim = rng.choice(result.fresh_atoms)
            flipped[victim] = not flipped[victim]
            assert not sat_total(result.cnf, Assignment(flipped))

    # The lifted checks agree with checking the materialized expansion.
    for f in corpus[:250]:
        free = sorted(atoms(f))
        bound = atom_pool(rng.randint(1, 4), prefix="B")
        matrix = random_formula(rng, free + bound, max_depth=4)
        ef = ExistentialFormula(matrix=matrix, quantified=frozenset(bound))
        expanded = shannon_expand(ef)
        mu = random_partial_assignment(rng, sorted(ef.free_atoms), bind_chance=0.6)
        assert exists_validates(mu, ef)[0] == validates(mu, expanded)
        assert exists_entails(mu, ef)[0] == entails(mu, expanded)

    assert time.monotonic() - started < 60.0


def test_criterion_6_enumeration_engines_cross_validate():
    started = time.monotonic()
    corpus = _engine_corpus()
    assert len(corpus) >= 200
    assert all(len(atoms(f)) <= 6 for f in corpus)
    for f in corpus:
        obdd_cubes = obdd_enumerate(build_obdd(f), f).assignments
        dpll_cubes = dpll_enumerate(f).assignments
        obdd_disjunction = [mu.to_cube() for mu in obdd_cubes]
        dpll_disjunction = [mu.to_cube() for mu in dpll_cubes]
        assert brute_equivalent(or_all(obdd_disjunction), f)
        assert brute_equivalent(or_all(dpll_disjunction), f)
        assert len(obdd_cubes) <= len(dpll_cubes)
        for mu in obdd_cubes:
            assert any(
                set(mu.literals()) <= set(eta.literals()) for eta in dpll_cubes
            ), f"no validating superset for {mu} on {f}"
    assert time.monotonic() - started < 60.0


def test_criterion_7_entailment_backends_agree():
    rng = random.Random(20260818)
    pool = atom_pool(6)
    for f in _engine_corpus():
        for _ in range(2):
            mu = random_partial_assignment(rng, pool)
            expected = brute_valid(residual(f, mu))
            assert entails(mu, f) == expected
            assert entails(mu, f, atom_cap=0) == expected


@lru_cache(maxsize=None)
def _refutation_corpus() -> tuple:
    """Formulas over 12-14 atoms; every fourth one is valid by construction."""
    rng = random.Random(20260819)
    pool = atom_pool(14)
    corpus = []
    while len(corpus) < 120:
        f = random_formula(rng, pool, max_depth=8)
        if 12 <= len(atoms(f)) <= 14:
            if len(corpus) % 4 == 3:
                f = Or(f, Not(equivalent_variant(rng, f)))
            corpus.append(f)
    return tuple(corpus)


def test_dpll_refutation_agrees_with_the_sweep_at_12_to_14_atoms():
    rng = random.Random(20260820)
    pool = atom_pool(14)
    outcomes = set()
    for f in _refutation_corpus():
        for bind_chance in (0.0, 0.3, 0.6):
            mu = random_partial_assignment(rng, pool, bind_chance)
            expected = brute_valid(residual(f, mu))
            outcomes.add(expected)
            for options in ({"atom_cap": 0}, {"atom_cap": 3}):
                v = verdict(mu, f, **options)
                assert v.entails == expected, (str(f), str(mu), options)
                if not expected:
                    w = v.witness
                    assert w.domain == atoms(f) | mu.domain
                    assert w.restrict(mu.domain) == mu
                    assert eval3(f, w) is TruthValue3.F
    assert outcomes == {True, False}


def test_dpll_refutation_decides_a_40_atom_chain_within_1000_branches():
    """chain(40) = (A1 -> A2) & ... & (A39 -> A40) -> (A1 -> A40) is valid,
    and refuting its negation needs no exhaustive search."""
    a = [AtomRef(atom) for atom in atom_pool(40)]
    chain = Implies(and_all(Implies(p, q) for p, q in zip(a, a[1:])), Implies(a[0], a[-1]))
    assert entails(EMPTY_ASSIGNMENT, chain, atom_cap=0, branch_budget=1000) is True
