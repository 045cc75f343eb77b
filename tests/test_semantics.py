"""Three-valued evaluation, residual simplification, and brute-force oracles."""
import random
from itertools import product

import pytest

from partialsat import semantics
from partialsat.semantics import residual_least
from partialsat import (
    And,
    Assignment,
    Atom,
    AtomRef,
    Const,
    EMPTY_ASSIGNMENT,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    ResourceLimitError,
    TRUE,
    TruthValue3,
    and_all,
    atoms,
    brute_equivalent,
    brute_satisfiable,
    brute_valid,
    entails,
    eval3,
    first_falsifying,
    first_satisfying,
    or_all,
    parse,
    residual,
    sat_total,
    validates,
)
from gen import atom_pool, equivalent_variant, random_formula, random_partial_assignment
import oracles
from oracles import extensions

T, U, F = TruthValue3.T, TruthValue3.U, TruthValue3.F
P, Q = Atom("P"), Atom("Q")
rP, rQ = AtomRef(P), AtomRef(Q)

# Frozen three-valued truth tables, operand columns in the order
# (T,T) (T,U) (T,F) (U,T) (U,U) (U,F) (F,T) (F,U) (F,F).
COLUMNS = [(T, T), (T, U), (T, F), (U, T), (U, U), (U, F), (F, T), (F, U), (F, F)]
TABLE = {
    Not: [F, F, F, U, U, U, T, T, T],  # depends on the first operand only
    And: [T, U, F, U, U, F, F, F, F],
    Or: [T, T, T, T, U, U, T, U, F],
    Implies: [T, U, F, T, U, U, T, T, T],
    Iff: [T, U, F, U, U, U, F, U, T],
}


def _assignment_for(a: TruthValue3, b: TruthValue3) -> Assignment:
    bindings = {}
    if a is not U:
        bindings[P] = a is T
    if b is not U:
        bindings[Q] = b is T
    return Assignment(bindings)


class TestEval3Table:
    @pytest.mark.parametrize("index,column", list(enumerate(COLUMNS)))
    def test_all_connectives_verbatim(self, index, column):
        a, b = column
        mu = _assignment_for(a, b)
        assert eval3(Not(rP), mu) is TABLE[Not][index]
        assert eval3(And(rP, rQ), mu) is TABLE[And][index]
        assert eval3(Or(rP, rQ), mu) is TABLE[Or][index]
        assert eval3(Implies(rP, rQ), mu) is TABLE[Implies][index]
        assert eval3(Iff(rP, rQ), mu) is TABLE[Iff][index]

    def test_constants(self):
        assert eval3(TRUE, EMPTY_ASSIGNMENT) is T
        assert eval3(FALSE, EMPTY_ASSIGNMENT) is F

    def test_unbound_atom_is_unknown(self):
        assert eval3(rP, EMPTY_ASSIGNMENT) is U

    def test_iff_with_one_unknown(self):
        assert eval3(parse("A1 <-> A2"), Assignment({Atom("A1"): True})) is U

    def test_desugaring_soundness(self):
        """Or/Implies/Iff agree with their not/and expansions everywhere."""
        pairs = [
            (Or(rP, rQ), Not(And(Not(rP), Not(rQ)))),
            (Implies(rP, rQ), Not(And(rP, Not(rQ)))),
            (Iff(rP, rQ), And(Not(And(rP, Not(rQ))), Not(And(rQ, Not(rP))))),
        ]
        for a, b in COLUMNS:
            mu = _assignment_for(a, b)
            for sugared, expanded in pairs:
                assert eval3(sugared, mu) is eval3(expanded, mu)


class TestResidualRules:
    """Each constant-propagation rule, exercised one node at a time."""

    x = AtomRef(Atom("X"))

    def _bind(self, value: bool) -> Assignment:
        return Assignment({P: value})

    def test_not(self):
        assert residual(Not(rP), self._bind(True)) == FALSE
        assert residual(Not(rP), self._bind(False)) == TRUE

    def test_and(self):
        assert residual(And(rP, self.x), self._bind(True)) == self.x
        assert residual(And(self.x, rP), self._bind(True)) == self.x
        assert residual(And(rP, self.x), self._bind(False)) == FALSE
        assert residual(And(self.x, rP), self._bind(False)) == FALSE

    def test_or(self):
        assert residual(Or(rP, self.x), self._bind(True)) == TRUE
        assert residual(Or(self.x, rP), self._bind(True)) == TRUE
        assert residual(Or(rP, self.x), self._bind(False)) == self.x
        assert residual(Or(self.x, rP), self._bind(False)) == self.x

    def test_implies(self):
        assert residual(Implies(rP, self.x), self._bind(True)) == self.x
        assert residual(Implies(rP, self.x), self._bind(False)) == TRUE
        assert residual(Implies(self.x, rP), self._bind(True)) == TRUE
        assert residual(Implies(self.x, rP), self._bind(False)) == Not(self.x)

    def test_iff(self):
        assert residual(Iff(rP, self.x), self._bind(True)) == self.x
        assert residual(Iff(rP, self.x), self._bind(False)) == Not(self.x)
        assert residual(Iff(self.x, rP), self._bind(True)) == self.x
        assert residual(Iff(self.x, rP), self._bind(False)) == Not(self.x)

    def test_double_negation_of_constant_folds(self):
        assert residual(Not(Not(rP)), self._bind(True)) == TRUE

    def test_double_negation_of_nonconstant_is_preserved(self):
        f = Implies(self.x, rP)
        assert residual(Not(Not(f)), self._bind(False)) == Not(Not(Not(self.x)))


class TestResidualGoldens:
    def test_valid_residual_of_example_formula(self):
        f = parse("(A1 & A2) | (A1 & !A2)")
        r = residual(f, Assignment({Atom("A1"): True}))
        assert str(r) == "A2 | !A2"

    def test_empty_assignment_is_identity(self):
        f = parse("(A1 -> A2) <-> !A3")
        assert residual(f, EMPTY_ASSIGNMENT) == f

    def test_false_antecedent(self):
        assert residual(parse("A1 -> A2"), Assignment({Atom("A1"): False})) == TRUE

    def test_no_extra_simplification(self):
        """Truth-value propagation only: A | A stays A | A."""
        f = parse("A1 | A1")
        assert residual(f, EMPTY_ASSIGNMENT) == f


class TestResidualProperties:
    def test_property_pair_residual_vs_eval3(self):
        rng = random.Random(3001)
        pool = atom_pool(8)
        for _ in range(400):
            f = random_formula(rng, pool, max_depth=6)
            mu = random_partial_assignment(rng, pool)
            r = residual(f, mu)
            v = eval3(f, mu)
            assert (r == TRUE) == (v is T)
            assert (r == FALSE) == (v is F)

    def test_monotone_refinement(self):
        rng = random.Random(3002)
        pool = atom_pool(5)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=5)
            mu = random_partial_assignment(rng, pool)
            v = eval3(f, mu)
            if v is U:
                continue
            for eta in extensions(mu, set(pool)):
                assert eval3(f, eta) is v

    def test_totals_agree_with_sat_total(self):
        rng = random.Random(3003)
        pool = atom_pool(6)
        for _ in range(200):
            f = random_formula(rng, pool, max_depth=5)
            for eta in extensions(EMPTY_ASSIGNMENT, atoms(f)):
                v = eval3(f, eta)
                assert v in (T, F)
                assert (v is T) == sat_total(f, eta)

    def test_idempotence_and_domain_disjointness(self):
        rng = random.Random(3004)
        pool = atom_pool(7)
        for _ in range(300):
            f = random_formula(rng, pool, max_depth=6)
            mu = random_partial_assignment(rng, pool)
            r = residual(f, mu)
            assert residual(r, EMPTY_ASSIGNMENT) == r
            assert atoms(r) & mu.domain == frozenset()

    def test_composition(self):
        """Residuating in two steps equals residuating with the union."""
        rng = random.Random(3005)
        pool = atom_pool(6)
        for _ in range(200):
            f = random_formula(rng, pool, max_depth=5)
            mu = random_partial_assignment(rng, pool, bind_chance=0.3)
            extra = {
                a: rng.random() < 0.5
                for a in pool
                if a not in mu and rng.random() < 0.3
            }
            tau = Assignment(extra)
            assert residual(residual(f, mu), tau) == residual(f, mu.union(tau))


def _negate_folded(f):
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    return Not(f)


def ref_residual(f, mu):
    """The recursive residual, kept as the reference for the iterative one."""
    if isinstance(f, Const):
        return f
    if isinstance(f, AtomRef):
        v = mu.value(f.atom)
        if v is None:
            return f
        return TRUE if v else FALSE
    if isinstance(f, Not):
        return _negate_folded(ref_residual(f.arg, mu))
    left, right = ref_residual(f.left, mu), ref_residual(f.right, mu)
    if isinstance(f, And):
        if left == FALSE or right == FALSE:
            return FALSE
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        return And(left, right)
    if isinstance(f, Or):
        if left == TRUE or right == TRUE:
            return TRUE
        if left == FALSE:
            return right
        if right == FALSE:
            return left
        return Or(left, right)
    if isinstance(f, Implies):
        if left == FALSE or right == TRUE:
            return TRUE
        if left == TRUE:
            return right
        if right == FALSE:
            return _negate_folded(left)
        return Implies(left, right)
    if left == TRUE:
        return right
    if left == FALSE:
        return _negate_folded(right)
    if right == TRUE:
        return left
    if right == FALSE:
        return _negate_folded(left)
    return Iff(left, right)


def kleene(f, mu):
    """Recursive Kleene evaluation read off the frozen TABLE."""
    if isinstance(f, Const):
        return T if f.value else F
    if isinstance(f, AtomRef):
        v = mu.value(f.atom)
        return U if v is None else T if v else F
    if isinstance(f, Not):
        column = (kleene(f.arg, mu), T)
    else:
        column = (kleene(f.left, mu), kleene(f.right, mu))
    return TABLE[type(f)][COLUMNS.index(column)]


def _node_kinds(f):
    """The node types in f, counting Const nodes other than TRUE and FALSE
    as "fresh Const"."""
    found, stack = set(), [f]
    while stack:
        node = stack.pop()
        fresh = type(node) is Const and node is not TRUE and node is not FALSE
        found.add("fresh Const" if fresh else type(node))
        stack += [getattr(node, k) for k in ("arg", "left", "right") if hasattr(node, k)]
    return found


def _kept(r, f):
    """The ids of r's nodes in pre-order, None for each that is not a node
    of f."""
    stack, ids = [f], set()
    while stack:
        node = stack.pop()
        ids.add(id(node))
        stack += [getattr(node, k) for k in ("arg", "left", "right") if hasattr(node, k)]
    kept, stack = [], [r]
    while stack:
        node = stack.pop()
        kept.append(id(node) if id(node) in ids else None)
        stack += [getattr(node, k) for k in ("arg", "left", "right") if hasattr(node, k)]
    return kept


class TestWalkerAgainstRecursiveOracles:
    def test_residual_and_eval3_match_on_seeded_pairs(self):
        rng = random.Random(3101)
        seen, outcomes = set(), set()
        for _ in range(2000):
            pool = atom_pool(rng.randint(1, 8))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 7), const_chance=0.2)
            mu = random_partial_assignment(rng, pool)
            assert residual(f, mu) == ref_residual(f, mu)
            v = eval3(f, mu)
            assert v is kleene(f, mu)
            seen |= _node_kinds(f)
            outcomes.add(v)
        assert seen == {"fresh Const", AtomRef, Not, And, Or, Implies, Iff}
        assert outcomes == {T, U, F}

    def test_residual_least_matches_the_reference_walker(self):
        """The residual of the walker before it tracked atoms, sharing the
        same nodes of f, with its least atom, or None for a constant.
        Atoms are looked up by equality, not identity, so every other
        formula is reparsed: its Atom objects are not mu's."""
        rng = random.Random(3102)
        leasts = set()
        for i in range(2000):
            pool = atom_pool(rng.randint(1, 8))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 7), const_chance=0.2)
            mu = random_partial_assignment(rng, pool)
            if i % 2:
                f = parse(str(f))
            r, least = residual_least(f, mu._bindings)
            ref = oracles.ref_residual(f, mu)
            assert r == ref and _kept(r, f) == _kept(ref, f)
            assert least == (None if type(r) is Const else min(atoms(r)))
            leasts.add(least is None)
        assert leasts == {True, False}

    def test_an_operand_folded_away_gives_no_least_atom(self):
        f = parse("A1 & B2 | C3")
        r, least = residual_least(f, {"B2": False})
        assert r is f.right and least is f.right.atom
        assert residual(f, Assignment({Atom("B2"): False})) is f.right
        assert residual_least(f, {})[1].name == "A1"
        assert residual_least(f, {"C3": True}) == (TRUE, None)

    def test_a_shared_cons_dict_makes_one_object_per_residual(self):
        """Calls that share `cons` return one object for a residual rebuilt
        from the same operands, in whichever order its atoms were bound,
        and it equals the residual; calls without it rebuild afresh."""
        f = parse("(A1 | A2) & !(A3 -> A4 & A5) | A6")
        cons = {}
        got = []
        for order in (("A1", "A4"), ("A4", "A1")):
            r = f
            for name in order:
                r = residual_least(r, {name: name == "A4"}, cons)[0]
            got.append(r)
        assert got[0] is got[1]
        assert got[0] == residual(f, Assignment({Atom("A1"): False, Atom("A4"): True}))
        assert str(got[0]) == "A2 & !(A3 -> A5) | A6"
        assert residual_least(f, {"A1": False})[0] is not residual_least(f, {"A1": False})[0]
        x, y = Or(AtomRef(Atom("A1")), AtomRef(Atom("A2"))), AtomRef(Atom("A3"))
        g = And(And(x, y), Or(x, y))  # two kinds over the same operand objects
        assert str(residual_least(g, {"A2": False}, cons)[0]) == "A1 & A3 & (A1 | A3)"

    def test_unbound_formula_is_returned_not_rebuilt(self):
        f = parse("!(A1 -> A2) <-> (A3 | !!A4) & A5")
        assert residual(f, EMPTY_ASSIGNMENT) is f
        assert residual(f, Assignment({Atom("A9"): True})) is f
        g = residual(f, Assignment({Atom("A5"): True}))
        assert g.left is f.left and g.right is f.right.left


DEPTH = 100_000
A, B = AtomRef(Atom("A")), AtomRef(Atom("B"))


def _deep(node, right_deep=False):
    """!!...!A, DEPTH deep, or DEPTH / 2 binary `node`s over A and B in
    turn, nested to the left or the right: DEPTH + 1 nodes either way."""
    f = A
    if node is Not:
        for _ in range(DEPTH):
            f = Not(f)
        return f
    for i in range(1, DEPTH // 2 + 1):
        leaf = (A, B)[i % 2]
        f = node(leaf, f) if right_deep else node(f, leaf)
    return f


class TestDepth:
    @pytest.mark.parametrize("node,right_deep", [
        *(pytest.param(node, side, id=f"{node.__name__}-{['left', 'right'][side]}-deep")
          for node in (And, Or, Implies, Iff) for side in (False, True)),
        pytest.param(Not, False, id="Not-chain"),
    ])
    def test_deep_formula_is_decided_without_recursion(self, node, right_deep):
        f = _deep(node, right_deep)
        assert residual(f, EMPTY_ASSIGNMENT) is f
        assert eval3(f, EMPTY_ASSIGNMENT) is U
        assert not validates(EMPTY_ASSIGNMENT, f)
        eta = Assignment({A.atom: True, B.atom: False})
        value = sat_total(f, eta)
        assert residual(f, eta) is (TRUE if value else FALSE)
        assert eval3(f, eta) is (T if value else F)
        assert validates(eta, f) is value

    def test_deep_chain_residual_under_a_partial_binding(self):
        r = residual(_deep(And), Assignment({A.atom: True}))
        assert atoms(r) == {B.atom} and eval3(r, EMPTY_ASSIGNMENT) is U
        assert residual(r, Assignment({B.atom: True})) is TRUE
        assert eval3(_deep(Or, right_deep=True), Assignment({A.atom: False})) is U


class TestSatTotal:
    def test_goldens(self):
        f = parse("(A1 & A2) | (A1 & !A2)")
        assert sat_total(f, Assignment({Atom("A1"): True, Atom("A2"): True}))
        assert not sat_total(parse("A1"), Assignment({Atom("A1"): False}))
        assert sat_total(TRUE, EMPTY_ASSIGNMENT)

    def test_rejects_partial_assignment(self):
        with pytest.raises(ValueError, match="A2"):
            sat_total(parse("A1 & A2"), Assignment({Atom("A1"): True}))

    def test_extra_atoms_are_fine(self):
        assert sat_total(
            parse("A1"), Assignment({Atom("A1"): True, Atom("A9"): False})
        )


class TestBruteOracles:
    def test_valid_goldens(self):
        assert brute_valid(parse("A2 | !A2"))
        assert not brute_valid(parse("A1"))
        assert brute_valid(TRUE)
        assert not brute_valid(FALSE)

    def test_equivalent_goldens(self):
        assert brute_equivalent(parse("(A1 & A2) | (A1 & !A2)"), parse("A1"))
        assert not brute_equivalent(parse("A1"), parse("A2"))
        assert brute_equivalent(parse("A1 -> A2"), parse("!A1 | A2"))

    def test_satisfiable(self):
        assert brute_satisfiable(parse("A1 & !A2"))
        assert not brute_satisfiable(parse("A1 & !A1"))

    def test_first_satisfying_lex_true_first(self):
        mu = first_satisfying(parse("!A1 | A2"))
        assert str(mu) == "A1, A2"
        assert first_satisfying(parse("A1 & !A1")) is None

    def test_first_falsifying_lex_true_first(self):
        mu = first_falsifying(parse("A1 & A2"))
        assert str(mu) == "A1, !A2"
        assert first_falsifying(parse("A1 | !A1")) is None

    def test_atom_cap_enforced(self):
        wide = parse(" & ".join(f"X{i}" for i in range(1, 25)))
        with pytest.raises(ResourceLimitError):
            brute_valid(wide)
        assert brute_valid(wide, atom_cap=30) is False

    def test_atom_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("PARTIALSAT_MAX_ATOMS", "3")
        with pytest.raises(ResourceLimitError):
            brute_valid(parse("A1 | A2 | A3 | A4"))
        assert not brute_valid(parse("A1 | A2"))


# --------------------------------------------- reference: the per-row sweep
# The truth-table kernel replaced this loop; it stays here as the oracle.


def ref_eval(f, binding):
    if isinstance(f, Const):
        return f.value
    if isinstance(f, AtomRef):
        return binding[f.atom]
    if isinstance(f, Not):
        return not ref_eval(f.arg, binding)
    if isinstance(f, And):
        return ref_eval(f.left, binding) and ref_eval(f.right, binding)
    if isinstance(f, Or):
        return ref_eval(f.left, binding) or ref_eval(f.right, binding)
    if isinstance(f, Implies):
        return (not ref_eval(f.left, binding)) or ref_eval(f.right, binding)
    return ref_eval(f.left, binding) == ref_eval(f.right, binding)


def ref_rows(avs):
    """Total bindings over avs, lexicographic, true first."""
    for values in product((True, False), repeat=len(avs)):
        yield dict(zip(avs, values))


def _first(rows, values, want):
    for binding, value in zip(rows, values):
        if value == want:
            return Assignment(binding)
    return None


# formulas per atom count: every atom of the pool occurs in the formula
_CORPUS_SIZES = [(n, 60) for n in range(1, 9)] + [(9, 10), (10, 6), (11, 2), (12, 2)]


def _corpus(seed):
    rng = random.Random(seed)
    for n, count in _CORPUS_SIZES:
        pool = atom_pool(n)
        for _ in range(count):
            f = random_formula(rng, pool, max_depth=3)
            while len(atoms(f)) < n:
                node = rng.choice((And, Or, Implies, Iff))
                f = node(f, random_formula(rng, pool, max_depth=3))
            yield rng, f


class TestKernelAgainstRowSweep:
    def test_oracles_and_witnesses_match(self, monkeypatch):
        checked = 0
        for rng, f in _corpus(7101):
            avs = sorted(atoms(f))
            g = random_formula(rng, avs, max_depth=3)
            rows = list(ref_rows(avs))
            f_values = [ref_eval(f, b) for b in rows]
            g_values = [ref_eval(g, b) for b in rows]
            falsifying = _first(rows, f_values, False)
            satisfying = _first(rows, f_values, True)
            r = rng.randrange(len(rows))
            eta = Assignment(rows[r])
            # 3-atom chunks run the outer prefix loop on every larger sweep
            for chunk in (semantics._CHUNK_ATOMS, 3):
                monkeypatch.setattr(semantics, "_CHUNK_ATOMS", chunk)
                assert first_falsifying(f) == falsifying
                assert first_satisfying(f) == satisfying
                assert brute_valid(f) == (falsifying is None)
                assert brute_satisfiable(f) == (satisfying is not None)
                assert brute_equivalent(f, g) == (f_values == g_values)
                assert brute_equivalent(f, equivalent_variant(rng, f))
                assert sat_total(f, eta) == f_values[r]
            monkeypatch.undo()
            checked += 1
        assert checked == 500

    def test_chain_22_is_entailed_by_the_empty_assignment(self):
        n = 22
        links = and_all(Implies(AtomRef(Atom(f"A{i:02}")), AtomRef(Atom(f"A{i + 1:02}")))
                        for i in range(1, n))
        chain = Implies(links, Implies(AtomRef(Atom("A01")), AtomRef(Atom(f"A{n:02}"))))
        assert entails(EMPTY_ASSIGNMENT, chain) is True
        assert first_falsifying(chain) is None

    def test_one_atom_over_the_cap_raises_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("table built before the cap check")

        monkeypatch.setattr(semantics, "_table", no_table)
        monkeypatch.setenv("PARTIALSAT_MAX_ATOMS", "5")
        f = and_all(AtomRef(a) for a in atom_pool(6))
        g = and_all(AtomRef(a) for a in atom_pool(5))
        for check in (brute_valid, brute_satisfiable, first_falsifying, first_satisfying):
            with pytest.raises(ResourceLimitError, match="6 atoms exceeds the cap of 5"):
                check(f)
            with pytest.raises(AssertionError, match="table built"):
                check(g)
        with pytest.raises(ResourceLimitError, match="6 atoms exceeds the cap of 5"):
            brute_equivalent(g, AtomRef(Atom("A6")))
        with pytest.raises(ResourceLimitError, match="3 atoms exceeds the cap of 2"):
            first_falsifying(parse("A1 | A2 | A3"), atom_cap=2)

    def test_right_deep_formula_evaluates_without_recursion(self):
        pool = atom_pool(8)
        spine = {}
        for node in (Or, And):
            f = AtomRef(pool[0])
            for i in range(1, 1000):  # 1,999 nodes, 999 levels deep
                f = node(AtomRef(pool[i % 8]), f)
            spine[node] = f
        all_true = Assignment({a: True for a in pool})
        all_false = Assignment({a: False for a in pool})
        assert first_falsifying(spine[Or]) == all_false
        assert first_satisfying(spine[And]) == all_true
        assert first_falsifying(spine[And]) == Assignment({**{a: True for a in pool[:7]}, pool[7]: False})
        assert brute_satisfiable(spine[Or]) and not brute_valid(spine[And])
        assert sat_total(spine[Or], all_true) and not sat_total(spine[Or], all_false)
        assert brute_equivalent(spine[Or], or_all(AtomRef(a) for a in pool))


class TestIntervalKernelAgainstValidates:
    def test_rows_and_blocks_match_per_row_validation(self, monkeypatch):
        """2,000 (f, mu, swept set) cases: every row's value from the
        interval table equals `validates`/`kleene` on mu ∪ eta, and
        `first_block` finds the first block that does (not) validate."""
        rng = random.Random(7301)
        outcomes, widened = {T: 0, U: 0, F: 0}, 0
        for _ in range(2000):
            pool = atom_pool(rng.randint(1, 8))
            f = random_formula(rng, pool, max_depth=rng.randint(1, 5), const_chance=0.2)
            swept = sorted(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
            mu = random_partial_assignment(rng, [a for a in pool if a not in swept])
            etas = list(extensions(EMPTY_ASSIGNMENT, swept))
            values = [kleene(f, mu.union(eta)) for eta in etas]
            assert [v is T for v in values] == [validates(mu.union(eta), f) for eta in etas]
            k = rng.randint(0, len(swept))
            width = 1 << (len(swept) - k)
            blocks = [values[i:i + width] for i in range(0, len(values), width)]
            some = next((etas[i * width].restrict(swept[:k]) for i, block in enumerate(blocks)
                         if T in block), None)
            none = next((etas[i * width].restrict(swept[:k]) for i, block in enumerate(blocks)
                         if T not in block), None)
            for chunk in (semantics._CHUNK_ATOMS, 3):
                monkeypatch.setattr(semantics, "_CHUNK_ATOMS", chunk)
                assert list(semantics.eval3_sweep(f, swept, mu)) == values
                for want, some_flag in ((some, True), (none, False)):
                    got = semantics.first_block(f, swept[:k], swept[k:], mu, some_flag)
                    assert got == (None if want is None else mu.union(want))
            monkeypatch.undo()
            for v in values:
                outcomes[v] += 1
            widened += U in values
        assert min(outcomes.values()) > 1000 and widened > 300
