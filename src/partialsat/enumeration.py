"""AllSAT enumeration engines contrasting the two satisfiability notions.

OBDD path enumeration yields partial assignments that *entail* the input;
analytic tableaux and non-CNF DPLL yield assignments that *validate* it.
Every entailing cube is a subset of some validating cube, so the OBDD
listing is never longer than the DPLL one.  The three engines, like
predicate abstraction's label cubes, run on one depth-first driver,
`_search`, and the OBDD build and the diagram walks on explicit stacks, so
neither formula depth nor the number of diagram levels is bounded by the
recursion limit.  The DPLL listing replays the subtree of a residual it
has met (formula caching, Bacchus, Dalmao and Pitassi, FOCS 2003).
"""
from __future__ import annotations

from .assignment import Assignment
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
    _pair,
    atoms,
    fold,
    minimal,
    or_all,
    refuse_atoms,
)
from .record import Record
from .semantics import _FOLD, _KEEP, _NEGATE, brute_equivalent, residual, residual_least
from . import limits


class EnumResult(Record):
    """Ordered partial assignments produced by one engine in one mode."""

    __slots__ = ("engine", "mode", "formula", "assignments")

    def to_json_dict(self) -> dict:
        return {
            "engine": self.engine,
            "mode": self.mode,
            "formula": str(self.formula),
            "assignments": [list(mu.literals()) for mu in self.assignments],
        }


class VerificationReport(Record):
    """Per-assignment mode-predicate checks, pairwise-disjointness checks
    (None where not applicable), and whether the cubes cover the formula."""

    __slots__ = ("engine", "mode", "mode_violations", "disjointness_violations", "covers")

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
    Immutable once built; every walk over it is iterative, so the number
    of levels is not bounded by the recursion limit.
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

    def _mk(self, level: int, low: int, high: int, budget: limits.Budget) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        budget.spend()
        self._nodes.append(key)
        node_id = len(self._nodes) - 1
        self._unique[key] = node_id
        return node_id

    def node(self, node_id: int) -> tuple[int, int, int]:
        return self._nodes[node_id]

    def fold(self, step, false, true):
        """Post-order fold of the nodes reachable from the root, each once,
        a low child's subgraph before the high child's: `false` and `true`
        stand for the terminals and `step(atom, low, high)` combines a
        node's children's results."""
        done = {0: false, 1: true}
        todo = [self.root]
        while todo:
            node_id = todo.pop()
            if node_id in done:
                continue
            level, low, high = self._nodes[node_id]
            if low in done and high in done:
                done[node_id] = step(self.order[level], done[low], done[high])
            else:
                todo += (node_id, high, low)
        return done[self.root]

    def signature(self) -> tuple:
        """Order-and-structure fingerprint, equal for equivalent formulas
        built under the same atom order: `(root ref, *rows)` with one
        `(atom name, low ref, high ref)` row per reachable node in `fold`
        order; refs 0 and 1 are the terminals, ref k + 1 the k-th row."""
        rows: list[tuple[str, int, int]] = []

        def row(atom: Atom, low: int, high: int) -> int:
            rows.append((str(atom), low, high))
            return len(rows) + 1

        return (self.fold(row, 0, 1), *rows)

    @property
    def internal_node_count(self) -> int:
        """Internal nodes reachable from the root (the OBDD's size)."""
        return len(self.signature()) - 1


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
        refuse_atoms("atom order does not cover: ", needed - set(order))
        if len(set(order)) != len(order):
            raise ValueError("atom order contains duplicates")
    budget = limits.Budget(limits.resolve("NODE_BUDGET", node_budget),
                           "OBDD construction", "node budget")
    bdd = Obdd(order)
    nodes, mk = bdd._nodes, bdd._mk
    level_of = {atom: i for i, atom in enumerate(order)}
    memo: dict[tuple, int] = {}

    def apply(kind: type, u: int, v: int | None = None) -> int:
        """Bryant's apply with a computed table, on an explicit stack.  A
        `Not` job has no second operand; a terminal operand folds the job
        by `_FOLD`, as a constant folds a residual.  A memoised job is
        finished by its `(job, level)` frame once its low and then its
        high half are in, so nodes are made children first."""
        values: list[int] = []
        todo: list = [(kind, u, v)]
        while todo:
            job = todo.pop()
            if len(job) == 2:  # (job, level): both halves are on top
                high = values.pop()
                values[-1] = memo[job[0]] = mk(job[1], values[-1], high, budget)
                continue
            kind, u, v = job
            if v is None:
                if u < 2:
                    values.append(1 - u)
                    continue
            elif u < 2 or v < 2:
                rule, other = (_FOLD[kind][u == 0], v) if u < 2 else (_FOLD[kind][2 + (v == 0)], u)
                if rule is _NEGATE:
                    todo.append((Not, other, None))
                else:
                    values.append(other if rule is _KEEP else int(rule.value))
                continue
            cached = memo.get(job)
            if cached is not None:
                values.append(cached)
                continue
            level, low_u, high_u = nodes[u]
            if v is None:
                todo += ((job, level), (Not, high_u, None), (Not, low_u, None))
                continue
            level_v, low_v, high_v = nodes[v]
            if level_v < level:
                level, low_u, high_u = level_v, u, u
            elif level < level_v:
                low_v = high_v = v
            todo += ((job, level), (kind, high_u, high_v), (kind, low_u, low_v))
        return values[0]

    def leaf(node: Formula) -> int:
        if isinstance(node, Const):
            return 1 if node.value else 0
        return mk(level_of[node.atom], 0, 1, budget)

    bdd.root = fold(f, lambda node, u, v=None: apply(type(node), u, v), leaf)
    return bdd


def obdd_enumerate(bdd: Obdd, f: Formula | None = None) -> EnumResult:
    """One partial assignment per root-to-true path, true branch first;
    each entails the formula the OBDD was built from."""

    def step(path):  # (node, trail of bindings); an edge into 0 is not pushed
        node_id, trail = path
        if node_id < 2:  # 0 only as an unsatisfiable root
            return _trail_assignment(trail) if node_id else None
        level, low, high = bdd.node(node_id)
        atom = bdd.order[level]
        if not low:
            return ((high, (trail, atom, True)),)
        if not high:
            return ((low, (trail, atom, False)),)
        return (low, (trail, atom, False)), (high, (trail, atom, True))

    collected = tuple(_search((bdd.root, None), step))
    source = f if f is not None else obdd_to_formula(bdd)
    return EnumResult(
        engine="obdd",
        mode="entailing",
        formula=source,
        assignments=collected,
    )


def obdd_to_formula(bdd: Obdd) -> Formula:
    """Read the OBDD back as a formula (if-then-else chain per node)."""
    return bdd.fold(lambda atom, low, high: Or(And(AtomRef(atom), high),
                                               And(Not(AtomRef(atom)), low)), FALSE, TRUE)


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


def _search(root, step, budget: limits.Budget | None = None):
    """The one depth-first branch-and-yield loop of the engines.
    `step(state)` returns None to close the state, an `Assignment` to yield
    it as a cube, or a tuple of the states it leads to, which are pushed in
    order so that the last one runs first; a two-way split spends one unit
    of `budget`."""
    states = [root]
    pop = states.pop
    while states:
        out = step(pop())
        if type(out) is tuple:
            if budget is not None and len(out) == 2:
                budget.spend()
            states += out
        elif out is not None:
            yield out


def tableaux_enumerate(
    f: Formula,
    branch_budget: int | None = None,
    dedup: bool = False,
) -> EnumResult:
    """Analytic tableaux on the not/and desugaring: alpha rules extend a
    branch, beta rules split it, complementary literals close it.  Each open
    saturated branch yields its literal set, which validates f.  A branch is
    one `_search` state, (pending formulas, literals), and a split runs its
    left child first.

    Duplicated or subsumed assignments are preserved unless dedup is set.
    """
    budget = limits.Budget(limits.resolve("BRANCH_BUDGET", branch_budget), "tableaux branching")

    def step(branch):  # the pending list is this branch's own
        pending, literals = branch
        literals = dict(literals)
        while pending:
            x = pending.pop(0)
            pair = _pair(x)
            if pair is not None:
                if literals.setdefault(*pair) is not pair[1]:
                    return None
                continue
            if isinstance(x, And):
                pending += (x.left, x.right)
                continue
            inner = x.arg if isinstance(x, Not) else x
            if isinstance(inner, Const):  # holds when true, or false under a Not
                if inner.value is not (inner is x):
                    return None
                continue
            if isinstance(inner, Not):
                pending.append(inner.arg)
                continue
            assert isinstance(inner, And)
            return ((pending + [Not(inner.right)], literals),
                    (pending + [Not(inner.left)], literals))
        return Assignment(literals)

    collected = tuple(_search(([fold(f, _desugar)], {}), step, budget))
    if dedup:
        collected = tuple(minimal((mu, frozenset(mu._bindings.items())) for mu in collected))
    return EnumResult(
        engine="tableaux",
        mode="validating",
        formula=f,
        assignments=collected,
    )


def _dpll_walk(f: Formula, budget: limits.Budget, every: bool = False):
    """Yield validating cubes on `_search`: branch on the least atom of the
    residual, true first, force a literal only when the whole residual is
    one, yield a cube when it folds to true, close on false.  So the first
    cube, filled with true over the atoms of f it leaves unbound, is
    `first_satisfying(f)`, None together; `verdict`'s witness rests on this.

    A state is (trail, r, least atom of r, decision, parent record); its step
    binds the decision, then each forced literal, one `residual_least` pass
    each, on the trail (None or (trail, atom, value)); f is branched on unfolded.

    When `every` cube is taken, the walk hash-conses its residuals and
    keeps, under id(r), the record `[r, bindings, outcome, bindings,
    outcome]` of each branch state's children, true first: the bindings
    its step made and True (a cube), False (a close) or the record reached.
    A branch state met again (by identity) is replayed from its record as
    states (trail, bindings, outcome): the same states in the same order,
    each split spending the budget, with no residual pass.  A first cube
    could reuse only failed subtrees, so that walk keeps no records."""
    memo: dict = {}  # stays empty unless every cube is taken
    cons = {} if every else None

    def step(state):
        if len(state) == 3:  # a replay
            trail, made, out = state
            for atom, value in made:
                trail = (trail, atom, value)
        else:
            trail, r, least, decision, parent = state
            made = []
            while True:
                if decision is not None:
                    atom, value = decision
                    trail = (trail, atom, value)
                    made.append(decision)
                    r, least = residual_least(r, {atom: value}, cons)
                if type(r) is Const:
                    out = r.value
                    break
                decision = _pair(r)  # a literal residual is forced
                if decision is not None:
                    continue
                if least is None:  # an atom-free input that is not yet folded
                    r = residual(r, Assignment())
                    continue
                out = memo.get(id(r))  # complete: no residual below r has r's least atom
                if out is not None:
                    break
                if every:
                    out = memo[id(r)] = [r]
                    parent += (tuple(made), out)
                return (trail, r, least, (least, False), out), (trail, r, least, (least, True), out)
            if every:
                parent += (tuple(made), out)
        if type(out) is bool:
            return _trail_assignment(trail) if out else None
        return (trail, out[3], out[4]), (trail, out[1], out[2])

    return _search((None, f, min(atoms(f), default=None), None, []), step, budget)


def _trail_assignment(trail) -> Assignment:
    """The bindings on a trail, in the order they were made."""
    bound = []
    while trail is not None:
        trail, atom, value = trail
        bound.append((atom, value))
    return Assignment(reversed(bound))


def dpll_enumerate(f: Formula, branch_budget: int | None = None) -> EnumResult:
    """Non-CNF DPLL over the residual; every yielded assignment validates f,
    the assignments are pairwise inconsistent, and their disjunction is
    equivalent to f.  The pure-literal rule is off, as it would skip cubes."""
    budget = limits.Budget(limits.resolve("BRANCH_BUDGET", branch_budget), "DPLL branching")
    collected = tuple(_dpll_walk(f, budget, every=True))
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
    budget = limits.Budget(limits.resolve("BRANCH_BUDGET", branch_budget), "DPLL branching")
    return next(_dpll_walk(f, budget), None)


def verify_enumeration(
    result: EnumResult,
    f: Formula | None = None,
    atom_cap: int | None = None,
) -> VerificationReport:
    """Re-check an enumeration against its source formula: equivalence of
    the cube disjunction with the formula, swept first under the atom cap
    (which then bounds every cube's residual too), the mode predicate per
    assignment, and pairwise disjointness (OBDD/DPLL only)."""
    from .partial_sat import entails, validates

    source = f if f is not None else result.formula
    atom_cap = limits.resolve("MAX_ATOMS", atom_cap)
    disjunction = or_all([mu.to_cube() for mu in result.assignments])
    covers = brute_equivalent(disjunction, source, atom_cap)
    mode_violations = tuple(
        idx
        for idx, mu in enumerate(result.assignments)
        if not (validates(mu, source) if result.mode == "validating"
                else entails(mu, source, atom_cap=atom_cap))
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
    return VerificationReport(
        engine=result.engine,
        mode=result.mode,
        mode_violations=mode_violations,
        disjointness_violations=disjointness,
        covers=covers,
    )
