"""AllSAT enumeration engines contrasting the two satisfiability notions.

OBDD path enumeration yields partial assignments that *entail* the input;
analytic tableaux and non-CNF DPLL yield assignments that *validate* it.
Every entailing cube is a subset of some validating cube, so the OBDD
listing is never longer than the DPLL one.
"""
from __future__ import annotations

from .assignment import Assignment
from .errors import ResourceLimitError
from .formula import (
    And,
    Atom,
    AtomRef,
    Const,
    FALSE,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    as_literal,
    atoms,
    fold,
    or_all,
)
from .record import Record
from .semantics import brute_equivalent, residual
from . import limits


class EnumResult(Record):
    """Ordered partial assignments produced by one engine in one mode."""

    __slots__ = ("engine", "mode", "formula", "assignments")

    def __init__(self, engine: str, mode: str, formula: Formula,
                 assignments: tuple[Assignment, ...]):
        self._set(engine, mode, formula, assignments)

    def to_json_dict(self) -> dict:
        return {
            "engine": self.engine,
            "mode": self.mode,
            "formula": str(self.formula),
            "assignments": [
                [str(lit) for lit in mu.literals()] for mu in self.assignments
            ],
        }

    def to_text_lines(self) -> list[str]:
        """One cube per line, rendered as a conjunction of literals."""
        return [str(mu.to_cube()) for mu in self.assignments]


class VerificationReport(Record):
    """Per-assignment mode-predicate checks, pairwise-disjointness checks
    (None where not applicable), and whether the cubes cover the formula."""

    __slots__ = ("engine", "mode", "mode_violations", "disjointness_violations", "covers")

    def __init__(self, engine: str, mode: str, mode_violations: tuple[int, ...],
                 disjointness_violations: tuple[tuple[int, int], ...] | None,
                 covers: bool):
        self._set(engine, mode, mode_violations, disjointness_violations, covers)

    @property
    def ok(self) -> bool:
        return (
            not self.mode_violations
            and not self.disjointness_violations
            and self.covers
        )


class Obdd:
    """Reduced ordered BDD with a per-instance hash-consed node store.

    Node ids 0 and 1 are the false/true terminals; internal nodes are
    (level, low, high) triples where level indexes into the atom order.
    Immutable once built.
    """

    __slots__ = ("order", "root", "_nodes", "_unique")

    def __init__(self, order: tuple[Atom, ...]):
        self.order = order
        self._nodes: list[tuple[int, int, int]] = [
            (len(order), -1, -1),
            (len(order), -1, -1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self.root = 0

    def _mk(self, level: int, low: int, high: int, budget: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if len(self._nodes) - 2 >= budget:
            raise ResourceLimitError(
                f"OBDD construction exceeded the node budget of {budget}"
            )
        self._nodes.append(key)
        node_id = len(self._nodes) - 1
        self._unique[key] = node_id
        return node_id

    def node(self, node_id: int) -> tuple[int, int, int]:
        return self._nodes[node_id]

    def is_terminal(self, node_id: int) -> bool:
        return node_id < 2

    @property
    def internal_node_count(self) -> int:
        """Internal nodes reachable from the root (the OBDD's size)."""
        seen = set()
        stack = [self.root]
        while stack:
            node_id = stack.pop()
            if node_id < 2 or node_id in seen:
                continue
            seen.add(node_id)
            _, low, high = self._nodes[node_id]
            stack.append(low)
            stack.append(high)
        return len(seen)

    def atom_at(self, node_id: int) -> Atom:
        return self.order[self._nodes[node_id][0]]

    def signature(self):
        """Order-and-structure fingerprint: equal for equivalent formulas
        built under the same atom order."""
        memo: dict[int, object] = {0: "F", 1: "T"}

        def walk(node_id: int):
            if node_id in memo:
                return memo[node_id]
            level, low, high = self._nodes[node_id]
            sig = (self.order[level].name, walk(low), walk(high))
            memo[node_id] = sig
            return sig

        return walk(self.root)


def build_obdd(
    f: Formula,
    order: tuple[Atom, ...] | None = None,
    node_budget: int | None = None,
) -> Obdd:
    """Build the canonical reduced OBDD of f under the given atom order
    (lexicographic by default) via apply-style combination."""
    needed = atoms(f)
    if order is None:
        order = tuple(sorted(needed))
    else:
        order = tuple(order)
        missing = sorted(a.name for a in needed - set(order))
        if missing:
            raise ValueError(
                "atom order does not cover: " + ", ".join(missing)
            )
        if len(set(order)) != len(order):
            raise ValueError("atom order contains duplicates")
    budget = limits.node_budget(node_budget)
    bdd = Obdd(order)
    level_of = {atom: i for i, atom in enumerate(order)}
    not_memo: dict[int, int] = {}
    apply_memo: dict[tuple[type, int, int], int] = {}

    def negate(u: int) -> int:
        if u < 2:
            return 1 - u
        cached = not_memo.get(u)
        if cached is not None:
            return cached
        level, low, high = bdd.node(u)
        result = bdd._mk(level, negate(low), negate(high), budget)
        not_memo[u] = result
        return result

    def apply(op: type, u: int, v: int) -> int:
        if op is And:
            if u == 0 or v == 0:
                return 0
            if u == 1:
                return v
            if v == 1:
                return u
        elif op is Or:
            if u == 1 or v == 1:
                return 1
            if u == 0:
                return v
            if v == 0:
                return u
        elif op is Implies:
            if u == 0 or v == 1:
                return 1
            if u == 1:
                return v
            if v == 0:
                return negate(u)
        else:
            if u == 1:
                return v
            if u == 0:
                return negate(v)
            if v == 1:
                return u
            if v == 0:
                return negate(u)
        key = (op, u, v)
        cached = apply_memo.get(key)
        if cached is not None:
            return cached
        lu, lowu, highu = bdd.node(u)
        lv, lowv, highv = bdd.node(v)
        level = min(lu, lv)
        u_low, u_high = (lowu, highu) if lu == level else (u, u)
        v_low, v_high = (lowv, highv) if lv == level else (v, v)
        result = bdd._mk(
            level, apply(op, u_low, v_low), apply(op, u_high, v_high), budget
        )
        apply_memo[key] = result
        return result

    def leaf(node: Formula) -> int:
        if isinstance(node, Const):
            return 1 if node.value else 0
        return bdd._mk(level_of[node.atom], 0, 1, budget)

    def combine(node: Formula, u: int, v: int | None = None) -> int:
        return negate(u) if v is None else apply(type(node), u, v)

    bdd.root = fold(f, combine, leaf)
    return bdd


def obdd_enumerate(bdd: Obdd, f: Formula | None = None) -> EnumResult:
    """One partial assignment per root-to-true path, true branch first;
    each entails the formula the OBDD was built from."""
    collected: list[Assignment] = []

    def walk(node_id: int, bound: dict[Atom, bool]) -> None:
        if node_id == 1:
            collected.append(Assignment(bound))
            return
        if node_id == 0:
            return
        level, low, high = bdd.node(node_id)
        atom = bdd.order[level]
        walk(high, {**bound, atom: True})
        walk(low, {**bound, atom: False})

    walk(bdd.root, {})
    source = f if f is not None else obdd_to_formula(bdd)
    return EnumResult(
        engine="obdd",
        mode="entailing",
        formula=source,
        assignments=tuple(collected),
    )


def obdd_to_formula(bdd: Obdd) -> Formula:
    """Read the OBDD back as a formula (if-then-else chain per node)."""
    memo: dict[int, Formula] = {0: FALSE, 1: TRUE}

    def walk(node_id: int) -> Formula:
        if node_id in memo:
            return memo[node_id]
        level, low, high = bdd.node(node_id)
        ref = AtomRef(bdd.order[level])
        result = Or(And(ref, walk(high)), And(Not(ref), walk(low)))
        memo[node_id] = result
        return result

    return walk(bdd.root)


def _desugar(node: Formula, a: Formula, b: Formula | None = None) -> Formula:
    """`fold` step into the not/and fragment, keeping three-valued semantics."""
    kind = type(node)
    if kind is Not:
        return Not(a)
    if kind is And:
        return And(a, b)
    if kind is Or:
        return Not(And(Not(a), Not(b)))
    if kind is Implies:
        return Not(And(a, Not(b)))
    assert kind is Iff
    return And(Not(And(a, Not(b))), Not(And(b, Not(a))))


class _Budget:
    __slots__ = ("limit", "used", "what")

    def __init__(self, limit: int, what: str):
        self.limit = limit
        self.used = 0
        self.what = what

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimitError(
                f"{self.what} exceeded the budget of {self.limit}"
            )


def tableaux_enumerate(
    f: Formula,
    branch_budget: int | None = None,
    dedup: bool = False,
) -> EnumResult:
    """Analytic tableaux on the not/and desugaring: alpha rules extend a
    branch, beta rules split it, complementary literals close it.  Each open
    saturated branch yields its literal set, which validates f.

    Duplicated or subsumed assignments are preserved unless dedup is set.
    """
    budget = _Budget(limits.branch_budget(branch_budget), "tableaux branching")
    collected: list[Assignment] = []

    # Open branches wait on an explicit stack as (pending, literals), the
    # left child of a split on top: depth-first, left branch first.
    branches: list = [([fold(f, _desugar)], {})]
    while branches:
        pending, literals = branches.pop()
        literals = dict(literals)
        while pending:
            x = pending.pop(0)
            if isinstance(x, Const):
                if x.value:
                    continue
                break
            if isinstance(x, AtomRef):
                known = literals.get(x.atom)
                if known is False:
                    break
                literals[x.atom] = True
                continue
            if isinstance(x, And):
                pending.append(x.left)
                pending.append(x.right)
                continue
            assert isinstance(x, Not)
            inner = x.arg
            if isinstance(inner, Const):
                if inner.value:
                    break
                continue
            if isinstance(inner, AtomRef):
                known = literals.get(inner.atom)
                if known is True:
                    break
                literals[inner.atom] = False
                continue
            if isinstance(inner, Not):
                pending.append(inner.arg)
                continue
            assert isinstance(inner, And)
            budget.spend()
            branches += ((pending + [Not(inner.right)], literals),
                         (pending + [Not(inner.left)], literals))
            break
        else:
            collected.append(Assignment(literals))

    if dedup:
        unique: list[Assignment] = []
        for mu in collected:
            if mu not in unique:
                unique.append(mu)
        literal_sets = [set(mu.literals()) for mu in unique]
        collected = [
            mu
            for mu, lits in zip(unique, literal_sets)
            if not any(other < lits for other in literal_sets)
        ]
    return EnumResult(
        engine="tableaux",
        mode="validating",
        formula=f,
        assignments=tuple(collected),
    )


def _dpll_walk(f: Formula, budget: _Budget):
    """Yield validating partial assignments: branch on the lexicographically
    least atom of the residual (true first), bind forced literals, record a
    branch when the residual folds to true, close on false.

    Open branches wait on an explicit stack as (mu, r, decision); a
    decision's residual is taken only when its branch is resumed, so depth
    is not bounded by the recursion limit."""
    branches: list = [(Assignment({}), f, None)]
    while branches:
        mu, r, decision = branches.pop()
        if decision is not None:
            atom, value = decision
            mu, r = mu.bind(atom, value), residual(r, Assignment({atom: value}))
        while True:
            if r == TRUE:
                yield mu
                break
            if r == FALSE:
                break
            lit = as_literal(r)
            if lit is None:
                r_atoms = atoms(r)
                if not r_atoms:  # an atom-free input that is not yet folded
                    r = residual(r, mu)
                    continue
                budget.spend()
                atom = min(r_atoms)
                branches += ((mu, r, (atom, False)), (mu, r, (atom, True)))
                break
            mu = mu.bind(lit.atom, lit.positive)
            r = residual(r, Assignment({lit.atom: lit.positive}))


def dpll_enumerate(f: Formula, branch_budget: int | None = None) -> EnumResult:
    """Non-CNF DPLL over the residual; every yielded assignment validates f,
    the assignments are pairwise inconsistent, and their disjunction is
    equivalent to f.  The pure-literal rule is off, as it would skip cubes."""
    budget = _Budget(limits.branch_budget(branch_budget), "DPLL branching")
    collected = tuple(_dpll_walk(f, budget))
    return EnumResult(
        engine="dpll",
        mode="validating",
        formula=f,
        assignments=collected,
    )


def dpll_first_assignment(
    f: Formula, branch_budget: int | None = None
) -> Assignment | None:
    """First validating partial assignment found by the DPLL engine, or
    None when f is unsatisfiable."""
    budget = _Budget(limits.branch_budget(branch_budget), "DPLL branching")
    return next(_dpll_walk(f, budget), None)


def verify_enumeration(
    result: EnumResult,
    f: Formula | None = None,
    atom_cap: int | None = None,
) -> VerificationReport:
    """Re-check an enumeration against its source formula: the mode predicate
    per assignment, pairwise disjointness (OBDD/DPLL only), and equivalence
    of the cube disjunction with the formula."""
    from .partial_sat import entails, validates

    source = f if f is not None else result.formula
    check = validates if result.mode == "validating" else entails
    mode_violations = tuple(
        idx
        for idx, mu in enumerate(result.assignments)
        if not check(mu, source)
    )
    disjointness: tuple[tuple[int, int], ...] | None
    if result.engine == "tableaux":
        disjointness = None
    else:
        disjointness = tuple(
            (i, j)
            for i in range(len(result.assignments))
            for j in range(i + 1, len(result.assignments))
            if not result.assignments[i].conflicts_with(result.assignments[j])
        )
    disjunction = or_all([mu.to_cube() for mu in result.assignments])
    covers = brute_equivalent(disjunction, source, atom_cap)
    return VerificationReport(
        engine=result.engine,
        mode=result.mode,
        mode_violations=mode_violations,
        disjointness_violations=disjointness,
        covers=covers,
    )
