"""Formula AST, parser, printer, and structural classification."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from partialsat import (
    And,
    Atom,
    AtomRef,
    Const,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TRUE,
    and_all,
    atoms,
    classify,
    cnf_clauses,
    format_formula,
    parse,
)
import partialsat as ps
from partialsat import quantified
from partialsat.formula import _cnf_literals, tokenize
from gen import atom_pool, random_formula
from oracles import ref_classify, ref_parse

A1, A2, A3 = Atom("A1"), Atom("A2"), Atom("A3")
rA1, rA2, rA3 = AtomRef(A1), AtomRef(A2), AtomRef(A3)


class TestAtom:
    def test_equality_is_name_equality(self):
        assert Atom("A1") == Atom("A1")
        assert Atom("A1") != Atom("A2")
        assert len({Atom("X"), Atom("X")}) == 1

    def test_lexicographic_total_order(self):
        assert sorted([A3, A1, A2]) == [A1, A2, A3]
        assert Atom("A10") < Atom("A2")

    def test_name_must_be_identifier(self):
        with pytest.raises(ValueError):
            Atom("")
        with pytest.raises(ValueError):
            Atom("1A")
        with pytest.raises(ValueError):
            Atom("A 1")
        assert Atom("x_9").name == "x_9"

    def test_reserved_words_rejected(self):
        for word in ("true", "false", "exists"):
            with pytest.raises(ValueError):
                Atom(word)


class TestParse:
    def test_example_formula_shape(self):
        f = parse("(A1 & A2) | (A1 & !A2)")
        assert f == Or(And(rA1, rA2), And(rA1, Not(rA2)))

    def test_constants(self):
        assert parse("true") == Const(True)
        assert parse("false") == Const(False)

    def test_negated_implication(self):
        assert parse("!(A1 -> A2)") == Not(Implies(rA1, rA2))

    def test_precedence_not_over_and_over_or(self):
        assert parse("!A1 & A2 | A3") == Or(And(Not(rA1), rA2), rA3)

    def test_precedence_or_over_implies_over_iff(self):
        assert parse("A1 | A2 -> A3 <-> A1") == Iff(
            Implies(Or(rA1, rA2), rA3), rA1
        )

    def test_implies_right_associative(self):
        assert parse("A1 -> A2 -> A3") == Implies(rA1, Implies(rA2, rA3))

    def test_iff_left_associative(self):
        assert parse("A1 <-> A2 <-> A3") == Iff(Iff(rA1, rA2), rA3)

    def test_and_or_left_associative(self):
        assert parse("A1 & A2 & A3") == And(And(rA1, rA2), rA3)
        assert parse("A1 | A2 | A3") == Or(Or(rA1, rA2), rA3)

    def test_comments_and_whitespace(self):
        assert parse("A1 # trailing comment\n & A2") == And(rA1, rA2)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("A1 &\n& A2")
        assert exc.value.line == 2
        assert exc.value.column == 1
        assert "line 2, column 1" in str(exc.value)

    def test_unknown_token(self):
        with pytest.raises(ParseError):
            parse("A1 + A2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("A1 A2")

    def test_reserved_word_not_an_atom(self):
        with pytest.raises(ParseError):
            parse("exists")

    def test_matches_recursive_parser(self):
        rng = random.Random(1003)
        for _ in range(2500):
            pool = atom_pool(rng.randint(1, 8))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 8), const_chance=0.2)
            for text in (str(f), _fully_parenthesized(f)):
                assert parse(text) == ref_parse(text) == f

    def test_errors_match_recursive_parser(self):
        """Seeded token soup, half of it a mutated printed formula: both
        parsers return equal trees or raise the same error at the same
        place."""
        rng = random.Random(1004)
        parsed = 0
        for _ in range(12_000):
            if rng.random() < 0.5:
                words = [rng.choice(_SOUP) for _ in range(rng.randint(0, 12))]
            else:
                f = random_formula(rng, atom_pool(4), max_depth=rng.randint(0, 5))
                words = _words(_fully_parenthesized(f) if rng.random() < 0.5 else str(f))
                for _ in range(rng.randint(0, 2)):
                    at = rng.randint(0, len(words))
                    edit = rng.randrange(3)
                    if edit == 0 or not words[at:]:
                        words.insert(at, rng.choice(_SOUP))
                    elif edit == 1:
                        del words[at]
                    else:
                        words[at] = rng.choice(_SOUP)
            text = rng.choice((" ", "")).join(words)
            ours, theirs = _outcome(parse, text), _outcome(ref_parse, text)
            assert ours == theirs, text
            parsed += ours[0] == "parsed"
        assert 1000 < parsed < 11_000


_SOUP = ["A1", "A2", "true", "false", "exists", "!", "&", "|", "->", "<->", "(", ")",
         ".", ",", "\n", "# c\n"]


def _words(text):
    """The lexemes of text, in order."""
    return [word for kind, word, _ in tokenize(text) if kind != "EOF"]


def _outcome(parser, text):
    try:
        return ("parsed", parser(text))
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)


def _fully_parenthesized(f):
    if isinstance(f, Not):
        return f"!({_fully_parenthesized(f.arg)})"
    if isinstance(f, (And, Or, Implies, Iff)):
        op = {And: "&", Or: "|", Implies: "->", Iff: "<->"}[type(f)]
        return f"({_fully_parenthesized(f.left)}) {op} ({_fully_parenthesized(f.right)})"
    return str(f)


_LEVEL_IFF, _LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_ATOM = 1, 2, 3, 4, 5, 6


def _level(f):
    if isinstance(f, Iff):
        return _LEVEL_IFF
    if isinstance(f, Implies):
        return _LEVEL_IMPLIES
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, Not):
        return _LEVEL_NOT
    return _LEVEL_ATOM


def _paren(text, needed):
    return f"({text})" if needed else text


def ref_format(f):
    """The recursive printer, kept as the reference for the iterative one."""
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, AtomRef):
        return f.atom.name
    if isinstance(f, Not):
        return "!" + _paren(ref_format(f.arg), _level(f.arg) < _LEVEL_NOT)
    if isinstance(f, (And, Or)):
        op, lvl = ("&", _LEVEL_AND) if isinstance(f, And) else ("|", _LEVEL_OR)
        left = _paren(ref_format(f.left), _level(f.left) < lvl)
        # same-level right operand must be re-parenthesized to survive
        # the left-associative parse
        right = _paren(ref_format(f.right), _level(f.right) <= lvl)
        return f"{left} {op} {right}"
    if isinstance(f, Implies):
        left = _paren(ref_format(f.left), _level(f.left) <= _LEVEL_IMPLIES)
        right = _paren(ref_format(f.right), _level(f.right) < _LEVEL_IMPLIES)
        return f"{left} -> {right}"
    if isinstance(f, Iff):
        left = _paren(ref_format(f.left), _level(f.left) < _LEVEL_IFF)
        right = _paren(ref_format(f.right), _level(f.right) <= _LEVEL_IFF)
        return f"{left} <-> {right}"
    raise TypeError(f"not a formula: {f!r}")


def _same_tree(f, g):
    """Structural equality without recursion (dataclass == recurses)."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Not):
            stack.append((a.arg, b.arg))
        elif isinstance(a, (And, Or, Implies, Iff)):
            stack += [(a.left, b.left), (a.right, b.right)]
        elif a != b:
            return False
    return True


class TestPrint:
    def test_constants(self):
        assert str(TRUE) == "true"
        assert str(FALSE) == "false"

    def test_literal(self):
        assert str(Not(rA1)) == "!A1"

    def test_parenthesizes_lower_precedence_child(self):
        assert str(And(rA1, Or(rA2, rA3))) == "A1 & (A2 | A3)"

    def test_omits_redundant_parens(self):
        assert str(parse("(A1 & A2) | A3")) == "A1 & A2 | A3"

    def test_format_formula_is_str(self):
        f = parse("A1 -> !A2")
        assert format_formula(f) == str(f) == "A1 -> !A2"

    def test_round_trip_seeded_corpus(self):
        rng = random.Random(1001)
        pool = atom_pool(8)
        for _ in range(300):
            f = random_formula(rng, pool, max_depth=8)
            assert parse(str(f)) == f and _same_tree(parse(str(f)), f)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_hypothesis(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        f = random_formula(random.Random(seed), atom_pool(8), max_depth=8)
        assert parse(str(f)) == f and _same_tree(parse(str(f)), f)

    def test_matches_recursive_printer(self):
        rng = random.Random(1002)
        for _ in range(2000):
            pool = atom_pool(rng.randint(1, 8))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 8), const_chance=0.2)
            assert format_formula(f) == ref_format(f)

    def test_deep_conjunction_round_trips(self):
        f = and_all(AtomRef(Atom(f"d{i}")) for i in range(1200))
        text = str(f)
        assert text == " & ".join(f"d{i}" for i in range(1200))
        assert _same_tree(parse(text), f)

    def test_deep_conjunction_parses_back_equal(self):
        f = and_all(AtomRef(Atom(f"d{i}")) for i in range(1200))
        g = parse(str(f))
        assert g == f and hash(g) == hash(f)

    def test_deep_right_nested_implication_prints(self):
        f = AtomRef(Atom("d10000"))
        for i in reversed(range(10_000)):
            f = Implies(AtomRef(Atom(f"d{i}")), f)
        assert str(f) == " -> ".join(f"d{i}" for i in range(10_001))


DEPTH = 100_000


def _chain(node, right_deep=False, bottom="A"):
    """DEPTH `!`s over `bottom`, or DEPTH / 2 binary `node`s over the A and
    B leaves in turn, nested to the left or the right over `bottom`."""
    f = AtomRef(Atom(bottom))
    leaves = AtomRef(Atom("A")), AtomRef(Atom("B"))
    if node is Not:
        for _ in range(DEPTH):
            f = Not(f)
        return f
    for i in range(1, DEPTH // 2 + 1):
        leaf = leaves[i % 2]
        f = node(leaf, f) if right_deep else node(f, leaf)
    return f


class TestDeepEquality:
    def test_equality_is_structural(self):
        # `==` compares printed forms, so the printer must be injective
        rng = random.Random(1003)
        pool = atom_pool(2)
        formulas = [random_formula(rng, pool, max_depth=3, const_chance=0.2)
                    for _ in range(300)]
        equal_pairs = 0
        for f in formulas:
            for g in formulas:
                same = _same_tree(f, g)
                assert (f == g) is same
                equal_pairs += same and f is not g
        assert equal_pairs > 300
        assert And(And(rA1, rA2), rA3) != And(rA1, And(rA2, rA3))

    @pytest.mark.parametrize("node,right_deep", [
        *(pytest.param(node, side, id=f"{node.__name__}-{['left', 'right'][side]}-deep")
          for node in (And, Or, Implies, Iff) for side in (False, True)),
        pytest.param(Not, False, id="Not-chain"),
    ])
    def test_equality_and_hash_without_recursion(self, node, right_deep):
        f, twin, other = (_chain(node, right_deep, bottom) for bottom in "AAC")
        assert f == twin and hash(f) == hash(twin)
        assert f != other


class TestAtoms:
    def test_collects_all_occurrences(self):
        assert atoms(parse("(A1 & A2) | !A1")) == frozenset({A1, A2})

    def test_constants_have_no_atoms(self):
        assert atoms(TRUE) == frozenset()


_LIFTED = "exists B1 B2 . B1 & B2 & A1"
_TWO_FRESH = "(A1 & A2) | (A3 & A4)"  # Tseitin labels both conjunctions: B1, B2


@pytest.mark.parametrize("call, message", [
    (lambda: ps.sat_total(parse("A2 & A10 & A1"), ps.parse_assignment("A1")),
     "assignment is not total for the formula: missing A10, A2"),
    (lambda: ps.build_obdd(parse("A3 & A1 & A2"), order=(Atom("A2"),)),
     "atom order does not cover: A1, A3"),
    (lambda: ps.PredAbsProblem(parse("B2 & B1"), ((Atom("B2"), parse("B3")),
                                                  (Atom("B1"), parse("B4")))),
     "label atom(s) collide with formula atoms: B1, B2"),
    (lambda: ps.exists_validates(ps.parse_assignment("B2, A1, B1"),
                                 ps.parse_existential(_LIFTED)),
     "assignment binds quantified atom(s): B1, B2"),
    (lambda: ps.exists_entails(ps.parse_assignment("B2, B1"), ps.parse_existential(_LIFTED)),
     "assignment binds quantified atom(s): B1, B2"),
    (lambda: ps.check_validation_loss(ps.parse_assignment("A1, A2, B2, B1"), parse(_TWO_FRESH)),
     "assignment binds fresh atom(s): B1, B2"),
    (lambda: ps.check_entailment_loss(ps.parse_assignment("A1, A2, B2, B1"), parse(_TWO_FRESH)),
     "assignment binds fresh atom(s): B1, B2"),
])
def test_each_clash_names_its_atoms_sorted(call, message):
    """Every atom-set refusal goes through `formula.refuse_atoms`: the
    prefix, then the clashing names sorted and comma-joined."""
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


class TestClassify:
    def test_cnf_pair_of_clauses(self):
        rep = classify(parse("(!B1 | A2) & (!B1 | A3)"))
        assert rep.is_cnf
        assert rep.is_tautology_free_cnf
        assert not rep.is_cube

    def test_tautological_clause(self):
        rep = classify(parse("A1 | !A1"))
        assert rep.is_clause
        assert rep.is_cnf
        assert not rep.is_tautology_free_cnf

    def test_cnf_accepts_any_association(self):
        left = And(And(parse("A1 | A2"), rA3), parse("!A1 | !A2"))
        right = And(parse("A1 | A2"), And(rA3, parse("!A1 | !A2")))
        assert classify(left).is_cnf
        assert classify(right).is_cnf

    def test_nested_or_inside_and(self):
        assert classify(parse("A1 & (A2 | A3)")).is_cnf

    def test_literal_is_clause_and_cube(self):
        rep = classify(parse("!A1"))
        assert rep.is_literal and rep.is_clause and rep.is_cube and rep.is_cnf

    def test_cube(self):
        rep = classify(parse("A1 & !A2 & A3"))
        assert rep.is_cube and not rep.is_clause
        assert rep.is_cnf  # a cube is a conjunction of unit clauses

    def test_non_cnf(self):
        rep = classify(parse("(A1 & A2) | A3"))
        assert not rep.is_cnf and not rep.is_tautology_free_cnf

    def test_implication_is_not_cnf(self):
        assert not classify(parse("A1 -> A2")).is_cnf

    def test_stable_under_reprinting(self):
        rng = random.Random(1002)
        pool = atom_pool(6)
        for _ in range(200):
            f = random_formula(rng, pool, max_depth=5)
            assert classify(parse(str(f))) == classify(f)

    def test_one_pass_matches_the_old_classify(self):
        rng = random.Random(1003)
        pool = atom_pool(4)
        seen = set()

        def leaf():
            f = AtomRef(rng.choice(pool))
            return Not(f) if rng.random() < 0.5 else f

        for _ in range(2000):
            # nested And/Or trees of literals, with an odd subformula now and then
            parts = []
            for _ in range(rng.randint(1, 4)):
                lits = [leaf() if rng.random() < 0.9 else random_formula(rng, pool, 2, 0.2)
                        for _ in range(rng.choice((1, 1, 2, 3)))]
                clause = lits[0]
                for lit in lits[1:]:
                    clause = Or(clause, lit) if rng.random() < 0.5 else Or(lit, clause)
                parts.append(clause)
            f = parts[0]
            for part in parts[1:]:
                f = And(f, part) if rng.random() < 0.5 else And(part, f)
            if rng.random() < 0.1:
                f = random_formula(rng, pool, rng.randint(0, 3), 0.2)
            report = classify(f)
            assert report == ref_classify(f)
            seen.add(report._fields())
        assert all(any(fields[i] for fields in seen) and not all(fields[i] for fields in seen)
                   for i in range(5))


class TestCnfClauses:
    def test_builds_no_literal_records(self):
        """A literal is an (atom, sign) pair inside the package and its text
        in the public views: the readers, the tautology and subsumption rules
        and the cube trails give the same answers on pairs."""
        clauses = [Or(AtomRef(Atom(f"A{i}")), Not(AtomRef(Atom(f"B{i}")))) for i in range(1000)]
        cnf = and_all(clauses)
        subsumed = parse("(A1 | A2) & A1 & (A1 | !A2) & (A1 | A2) & (A2 | !A2)")
        listing = parse("(A1 & A2) | A1 | (A1 & A2) | (!A1 & A3)")
        calls = [
            (lambda: cnf_clauses(cnf), clauses),
            (lambda: [c for c, _ in _cnf_literals(cnf)], clauses),
            (lambda: classify(subsumed).is_tautology_free_cnf, False),
            (lambda: ps.to_dimacs(subsumed).count("\n"), 8),
            (lambda: str(quantified._tidy_disjunct(subsumed)), "A1 & (A2 | !A2)"),
            (lambda: len(ps.tableaux_enumerate(listing, dedup=True).assignments), 2),
            (lambda: len(ps.obdd_enumerate(ps.build_obdd(listing)).assignments), 2),
        ]
        for call, expected in calls:
            assert call() == expected
        assert ps.Assignment({A2: False, A1: True}).literals() == ("A1", "!A2")

    def test_matches_the_clauses_of_cnf_literals(self):
        rng = random.Random(1004)
        pool = atom_pool(4)
        outcomes = set()
        for _ in range(1000):
            parts = [random_formula(rng, pool, rng.choice((0, 1, 1, 2)), 0.1)
                     for _ in range(rng.randint(1, 4))]
            f = parts[0]
            for part in parts[1:]:
                f = And(f, part) if rng.random() < 0.5 else And(part, f)
            pairs = _cnf_literals(f)
            expected = None if pairs is None else [clause for clause, _ in pairs]
            assert cnf_clauses(f) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}
