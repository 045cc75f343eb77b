"""OBDD, tableaux, and non-CNF DPLL enumeration of partial assignments."""
import collections
import random
import sys

import pytest

from partialsat import (
    Assignment,
    Atom,
    AtomRef,
    EnumResult,
    FALSE,
    Not,
    Or,
    PredAbsProblem,
    ResourceLimitError,
    TRUE,
    and_all,
    atoms,
    brute_equivalent,
    build_obdd,
    compare_modes,
    dpll_enumerate,
    dpll_first_assignment,
    entails,
    enumerate_abstraction,
    first_satisfying,
    obdd_enumerate,
    obdd_to_formula,
    or_all,
    parse,
    parse_assignment,
    tableaux_enumerate,
    validates,
    verify_enumeration,
)
from partialsat import enumeration, partial_sat, predabs
from partialsat.enumeration import _dpll_walk
from partialsat.limits import Budget
from partialsat.cli import _cube_lines
from partialsat.formula import _pair
from gen import atom_pool, equivalent_variant, random_formula
import oracles
from oracles import (
    ref_build_obdd,
    ref_dedup,
    ref_fold,
    ref_obdd_cubes,
    ref_obdd_to_formula,
    ref_signature,
    ref_tableaux,
)

GAP = parse("(A1 & A2) | (A1 & !A2)")


def ref_dpll_walk(f, budget):
    """The recursive DPLL walker, one nested generator per decision: the
    reference that `_dpll_walk` must match cube for cube."""
    residual = enumeration.residual

    def rec(mu, r):
        while True:
            if r == TRUE:
                yield mu
                return
            if r == FALSE:
                return
            lit = _pair(r)
            if lit is None:
                break
            mu = mu.bind(*lit)
            r = residual(r, Assignment(dict([lit])))
        budget.spend()
        atom = min(atoms(r))
        for value in (True, False):
            yield from rec(
                mu.bind(atom, value), residual(r, Assignment({atom: value}))
            )

    yield from rec(Assignment({}), f)


def _count_passes(monkeypatch):
    """A list that grows by one per residual pass through `enumeration`: a
    `residual` call (the reference's steps) or a `residual_least` call (the
    walker's)."""
    calls = []
    for name in ("residual", "residual_least"):
        real = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name, lambda f, mu, *cons, real=real:
                            calls.append(1) or real(f, mu, *cons))
    return calls


def _every_cube(f, budget):
    """The walk of `dpll_enumerate`, which replays the residuals it has met."""
    return _dpll_walk(f, budget, every=True)


def _cover(n):
    """(A01 | A02) & ... & (An-1 | An), atoms in index order."""
    pool = [AtomRef(Atom(f"A{i:02d}")) for i in range(1, n + 1)]
    return and_all(Or(a, b) for a, b in zip(pool, pool[1:]))


def _random_3cnf(rng, n):
    """A random 3-CNF over n atoms at clause/atom ratio 2, where part of
    the residuals recur across trails."""
    pool = atom_pool(n)
    return and_all(or_all(AtomRef(a) if rng.random() < 0.5 else Not(AtomRef(a))
                          for a in rng.sample(pool, 3)) for _ in range(2 * n))


def _reachable(bdd):
    stack, seen = [bdd.root], set()
    while stack:
        node_id = stack.pop()
        if node_id > 1 and node_id not in seen:
            seen.add(node_id)
            stack += bdd.node(node_id)[1:]
    return seen


def _texts(result: EnumResult) -> list[str]:
    return [str(mu) for mu in result.assignments]


class TestObddStructure:
    def test_redundant_branching_collapses_to_one_node(self):
        bdd = build_obdd(GAP)
        assert bdd.internal_node_count == 1
        assert bdd.order[bdd.node(bdd.root)[0]] == Atom("A1")

    def test_iff_needs_three_nodes(self):
        assert build_obdd(parse("A1 <-> A2")).internal_node_count == 3

    def test_constants(self):
        assert build_obdd(FALSE).root == 0
        assert build_obdd(TRUE).root == 1
        assert build_obdd(FALSE).internal_node_count == 0

    def test_contradiction_reduces_to_false_terminal(self):
        assert build_obdd(parse("A1 & !A1")).root == 0

    def test_default_order_is_lexicographic(self):
        assert build_obdd(parse("A2 | A1")).order == (Atom("A1"), Atom("A2"))

    def test_explicit_order_must_cover_the_atoms(self):
        with pytest.raises(ValueError, match="A2"):
            build_obdd(parse("A1 & A2"), order=(Atom("A1"),))

    def test_explicit_order_must_not_repeat(self):
        with pytest.raises(ValueError, match="duplicates"):
            build_obdd(parse("A1 & A2"), order=(Atom("A1"), Atom("A1"), Atom("A2")))

    def test_order_changes_size_but_not_semantics(self):
        f = parse("(A1 & A3) | (A2 & A4)")
        natural = build_obdd(f)
        interleaved = build_obdd(
            f, order=(Atom("A1"), Atom("A3"), Atom("A2"), Atom("A4"))
        )
        assert interleaved.internal_node_count < natural.internal_node_count
        assert brute_equivalent(obdd_to_formula(natural), obdd_to_formula(interleaved))

    def test_node_budget(self):
        with pytest.raises(ResourceLimitError):
            build_obdd(parse("A1 <-> A2"), node_budget=1)

    def test_matches_recursive_translation(self, monkeypatch):
        """The same diagram, node store and budget outcome as translating
        with a recursive fold."""
        def run(f, budget):
            try:
                bdd = build_obdd(f, node_budget=budget)
            except ResourceLimitError as exc:
                return "limit", str(exc)
            return bdd.signature(), bdd._nodes, bdd.root

        rng = random.Random(7008)
        corpus = [random_formula(rng, atom_pool(rng.randint(1, 8)),
                                 max_depth=rng.randint(0, 7), const_chance=0.1)
                  for _ in range(600)]
        budgets = [rng.choice((None, rng.randint(0, 12))) for _ in corpus]
        ours = [run(f, budget) for f, budget in zip(corpus, budgets)]
        monkeypatch.setattr(enumeration, "fold", ref_fold)
        assert ours == [run(f, budget) for f, budget in zip(corpus, budgets)]
        assert 50 < sum(outcome[0] == "limit" for outcome in ours) < 550

    def test_matches_recursive_build(self):
        """The same node store, root, signature and budget outcome as the
        recursive `apply`/`negate` with its terminal-case ladder, and the
        same cubes and read-back as the recursive walks."""
        def run(build, f, order, budget):
            try:
                bdd = build(f, order=order, node_budget=budget)
            except ResourceLimitError as exc:
                return ("limit", str(exc)), None
            return (bdd._nodes, bdd.root, bdd.signature()), bdd

        rng = random.Random(7011)
        limited = 0
        for _ in range(2400):
            pool = atom_pool(rng.randint(1, 9))
            f = random_formula(rng, pool, max_depth=rng.randint(0, 8), const_chance=0.15)
            order = None
            if rng.random() < 0.4:
                order = sorted(atoms(f) | set(rng.sample(pool, rng.randint(0, len(pool)))))
                rng.shuffle(order)
            budget = rng.choice((None, rng.randint(0, 30)))
            ours, bdd = run(build_obdd, f, order, budget)
            theirs, ref = run(ref_build_obdd, f, order, budget)
            assert ours == theirs
            if bdd is None:
                limited += 1
                continue
            assert obdd_enumerate(bdd, f).assignments == ref_obdd_cubes(ref)
            assert obdd_to_formula(bdd) == ref_obdd_to_formula(ref)
        assert 200 < limited < 1200

    def test_flat_signature_tells_diagrams_apart_as_the_nested_one(self):
        rng = random.Random(7012)
        pool = atom_pool(5)
        agree = 0
        for _ in range(400):
            f = random_formula(rng, pool, max_depth=4, const_chance=0.1)
            g = equivalent_variant(rng, f) if rng.random() < 0.5 else random_formula(
                rng, pool, max_depth=4, const_chance=0.1)
            order = tuple(rng.sample(pool, len(pool)))
            bf, bg = build_obdd(f, order=order), build_obdd(g, order=order)
            same = bf.signature() == bg.signature()
            assert same == (ref_signature(bf) == ref_signature(bg))
            assert bf.internal_node_count == len(_reachable(bf))
            agree += same
        assert 150 < agree < 350

    def test_node_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("PARTIALSAT_NODE_BUDGET", "1")
        with pytest.raises(ResourceLimitError):
            build_obdd(parse("A1 <-> A2"))


class TestObddCanonicity:
    def test_equivalent_formulas_share_a_signature(self):
        rng = random.Random(7001)
        pool = atom_pool(5)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=4)
            g = equivalent_variant(rng, f)
            order = tuple(sorted(atoms(f) | atoms(g)))
            assert (
                build_obdd(f, order=order).signature()
                == build_obdd(g, order=order).signature()
            )

    def test_negation_changes_the_signature(self):
        rng = random.Random(7002)
        pool = atom_pool(4)
        for _ in range(100):
            f = random_formula(rng, pool, max_depth=4)
            order = tuple(sorted(atoms(f)))
            assert (
                build_obdd(f, order=order).signature()
                != build_obdd(Not(f), order=order).signature()
            )

    def test_round_trip_through_formula(self):
        rng = random.Random(7003)
        pool = atom_pool(5)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=4)
            assert brute_equivalent(obdd_to_formula(build_obdd(f)), f)


class TestObddEnumerate:
    def test_golden(self):
        result = obdd_enumerate(build_obdd(GAP), GAP)
        assert result.engine == "obdd"
        assert result.mode == "entailing"
        assert _texts(result) == ["A1"]

    def test_true_branch_comes_first(self):
        result = obdd_enumerate(build_obdd(parse("A1 <-> A2")))
        assert _texts(result) == ["A1, A2", "!A1, !A2"]

    def test_constants(self):
        assert _texts(obdd_enumerate(build_obdd(FALSE))) == []
        result = obdd_enumerate(build_obdd(TRUE))
        assert result.assignments == (Assignment({}),)
        assert _cube_lines(result.to_json_dict()) == ["true"]

    def test_formula_fallback_reads_the_diagram_back(self):
        result = obdd_enumerate(build_obdd(GAP))
        assert brute_equivalent(result.formula, GAP)

    def test_cubes_entail_but_need_not_validate(self):
        result = obdd_enumerate(build_obdd(GAP), GAP)
        mu = result.assignments[0]
        assert entails(mu, GAP)
        assert not validates(mu, GAP)

    def test_json_shape(self):
        assert obdd_enumerate(build_obdd(GAP), GAP).to_json_dict() == {
            "engine": "obdd",
            "mode": "entailing",
            "formula": "A1 & A2 | A1 & !A2",
            "assignments": [["A1"]],
        }


class TestTableauxEnumerate:
    def test_golden(self):
        result = tableaux_enumerate(GAP)
        assert result.engine == "tableaux"
        assert result.mode == "validating"
        assert _texts(result) == ["A1, A2", "A1, !A2"]

    def test_all_branches_validate(self):
        rng = random.Random(7004)
        pool = atom_pool(5)
        for _ in range(200):
            f = random_formula(rng, pool, max_depth=4)
            for mu in tableaux_enumerate(f).assignments:
                assert validates(mu, f)

    def test_closed_tableau_for_contradiction(self):
        assert tableaux_enumerate(parse("A1 & !A1")).assignments == ()

    def test_constants(self):
        assert tableaux_enumerate(TRUE).assignments == (Assignment({}),)
        assert tableaux_enumerate(FALSE).assignments == ()

    def test_duplicates_are_preserved_by_default(self):
        assert _texts(tableaux_enumerate(parse("A1 | A1"))) == ["A1", "A1"]

    def test_dedup_drops_duplicates(self):
        assert _texts(tableaux_enumerate(parse("A1 | A1"), dedup=True)) == ["A1"]

    def test_dedup_drops_subsumed_branches_in_either_order(self):
        assert _texts(tableaux_enumerate(parse("A1 | (A1 & A2)"), dedup=True)) == ["A1"]
        assert _texts(tableaux_enumerate(parse("(A1 & A2) | A1"), dedup=True)) == ["A1"]

    def test_branch_budget(self):
        with pytest.raises(ResourceLimitError):
            tableaux_enumerate(GAP, branch_budget=0)
        assert len(tableaux_enumerate(GAP, branch_budget=1).assignments) == 2

    def test_branch_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("PARTIALSAT_BRANCH_BUDGET", "0")
        with pytest.raises(ResourceLimitError):
            tableaux_enumerate(GAP)

    def test_matches_recursive_expansion(self, monkeypatch):
        """The same cubes, splits and budget errors, interleaved in the same
        order, as expanding one recursive call per split."""
        events = []
        spend, cube = Budget.spend, enumeration.Assignment
        monkeypatch.setattr(Budget, "spend", lambda budget: events.append("split")
                            or spend(budget))
        for module in (enumeration, oracles):
            monkeypatch.setattr(module, "Assignment", lambda literals: events.append(
                sorted(literals.items())) or cube(literals))

        def run(expand, f, budget):
            events.clear()
            try:
                listing = expand(f, budget)
            except ResourceLimitError as exc:
                return "limit", str(exc), events[:]
            return listing, events[:]

        def iterative(f, budget):
            return tableaux_enumerate(f, budget).assignments

        for seed, count in ((7004, 200), (7005, 150)):
            rng = random.Random(seed)
            for _ in range(count):
                f = random_formula(rng, atom_pool(5), max_depth=4)
                for budget in (None, rng.randint(0, 6)):
                    assert run(iterative, f, budget) == run(ref_tableaux, f, budget)

    def test_dedup_matches_the_literal_set_rule(self):
        """`dedup` keeps what the all-pairs literal-set rule keeps: the first
        copy of each cube, unless another cube's literals are a proper
        subset; the corpus drops both repeated and subsumed cubes."""
        rng = random.Random(7013)
        repeated = subsumed = 0
        for _ in range(400):
            f = random_formula(rng, atom_pool(rng.randint(1, 5)), max_depth=rng.randint(1, 5))
            listing = tableaux_enumerate(f).assignments
            kept = tableaux_enumerate(f, dedup=True).assignments
            assert kept == ref_dedup(listing)
            unique = set(listing)
            repeated += len(listing) - len(unique)
            subsumed += len(unique) - len(kept)
        assert repeated > 0 and subsumed > 0

    def test_branch_disjunction_covers_the_formula(self):
        rng = random.Random(7005)
        pool = atom_pool(5)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=4)
            report = verify_enumeration(tableaux_enumerate(f))
            assert report.disjointness_violations is None
            assert report.ok


class TestDpllEnumerate:
    def test_golden(self):
        result = dpll_enumerate(GAP)
        assert result.engine == "dpll"
        assert result.mode == "validating"
        assert _texts(result) == ["A1, A2", "A1, !A2"]

    def test_unit_literals_are_bound_without_branching(self):
        assert _texts(dpll_enumerate(parse("A1 & (A2 | A3)"))) == [
            "A1, A2",
            "A1, !A2, A3",
        ]
        assert dpll_enumerate(parse("!A1"), branch_budget=0).assignments == (
            parse_assignment("!A1"),
        )

    def test_constants(self):
        assert dpll_enumerate(TRUE).assignments == (Assignment({}),)
        assert dpll_enumerate(FALSE).assignments == ()

    def test_contradiction(self):
        assert dpll_enumerate(parse("A1 & !A1")).assignments == ()

    @pytest.mark.parametrize(
        "text", ["true & true", "false | false", "!true", "true -> false", "true <-> true"]
    )
    def test_atom_free_inputs_fold_like_the_other_engines(self, text):
        f = parse(text)
        listing = dpll_enumerate(f).assignments
        assert listing == tableaux_enumerate(f).assignments
        assert listing == obdd_enumerate(build_obdd(f), f).assignments
        assert listing == ((Assignment({}),) if validates(Assignment({}), f) else ())
        assert dpll_first_assignment(f) == (listing[0] if listing else None)

    def test_branch_budget(self):
        with pytest.raises(ResourceLimitError):
            dpll_enumerate(GAP, branch_budget=1)
        assert len(dpll_enumerate(GAP, branch_budget=2).assignments) == 2

    def test_cubes_are_pairwise_inconsistent_and_cover(self):
        rng = random.Random(7006)
        pool = atom_pool(5)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=4)
            report = verify_enumeration(dpll_enumerate(f))
            assert report.disjointness_violations == ()
            assert report.ok

    def test_first_assignment(self):
        assert dpll_first_assignment(GAP) == parse_assignment("A1, A2")
        assert dpll_first_assignment(FALSE) is None
        assert dpll_first_assignment(parse("A1 & !A1")) is None

    def test_first_cube_filled_with_true_is_the_first_model(self):
        """The invariant `verdict`'s witness rests on: the first cube, with
        true over the atoms it leaves unbound, is the lexicographically
        first model, and the two are None together."""
        rng = random.Random(7011)
        inputs = [TRUE, FALSE, parse("!(true & false)"), parse("false | (true -> false)")]
        for _ in range(2000):
            pool = atom_pool(rng.randint(1, 10))
            inputs.append(random_formula(rng, pool, rng.randint(0, 7),
                                         const_chance=rng.choice((0.05, 0.05, 0.3, 1.0))))
        shapes = collections.Counter()
        for g in inputs:
            cube, first = dpll_first_assignment(g), first_satisfying(g)
            shapes[len(atoms(g)), first is None] += 1
            if cube is None or first is None:
                assert cube is first is None, g
                continue
            assert cube.domain <= atoms(g), g
            assert Assignment({a: cube.value(a) is not False for a in atoms(g)}) == first, g
        assert {n for n, _ in shapes} == set(range(11))
        assert sum(shapes[n, False] for n in range(1, 11)) > 1000
        assert shapes[0, True] and shapes[0, False]

    def test_matches_recursive_walker(self, monkeypatch):
        """Same cubes in the same order and the same branches spent.  A
        walk for the first cube takes one pass per residual the reference
        takes; a full listing replays the residuals it has met, so it takes
        no more."""
        calls = _count_passes(monkeypatch)

        def run(walk, f, first):
            calls.clear()
            budget = Budget(10_000, "DPLL branching")
            gen = walk(f, budget)
            cubes = (next(gen, None),) if first else tuple(gen)
            return cubes, budget.used, len(calls)

        rng = random.Random(7010)
        for _ in range(600):
            f = random_formula(rng, atom_pool(rng.randint(1, 8)),
                               max_depth=rng.randint(0, 7), const_chance=0.2)
            for first in (False, True):
                walk = _dpll_walk if first else _every_cube
                if atoms(f) or f in (TRUE, FALSE):
                    *got, passes = run(walk, f, first)
                    *want, ref_passes = run(ref_dpll_walk, f, first)
                    assert got == want
                    assert passes == ref_passes if first else passes <= ref_passes
                    continue
                # an atom-free input that is not a constant: the reference
                # raises from min(atoms(r)); the walker folds it once
                with pytest.raises(ValueError):
                    run(ref_dpll_walk, f, first)
                empty = Assignment({})
                if validates(empty, f):
                    listing = (empty,)
                else:
                    listing = (None,) if first else ()
                assert run(walk, f, first) == (listing, 0, 1)

    @staticmethod
    def _run_listing(calls, walk, f, limit):
        """(cubes with their bindings in the order they were made, branches
        spent, the budget's message or None, passes) of one full listing."""
        calls.clear()
        budget = Budget(limit, "DPLL branching")
        cubes, blown = [], None
        try:
            cubes.extend(list(mu._bindings.items()) for mu in walk(f, budget))
        except ResourceLimitError as exc:
            blown = str(exc)
        return cubes, budget.used, blown, len(calls)

    def _matches_reference(self, calls, f, limit):
        """The listing's cubes, branches and blown budget are the
        reference's, after no more passes; whether the budget blew."""
        *got, passes = self._run_listing(calls, _every_cube, f, limit)
        *want, ref_passes = self._run_listing(calls, ref_dpll_walk, f, limit)
        assert got == want, str(f)
        assert passes <= ref_passes
        return got[2] is not None

    def test_matches_recursive_walker_at_12_to_14_atoms(self, monkeypatch):
        """Cubes (with their bindings in the order they were made), their
        order and branches as the reference, and a blown budget at the same
        branch after the same cubes."""
        calls = _count_passes(monkeypatch)
        rng = random.Random(7011)
        pool = atom_pool(14)
        outcomes = []
        while len(outcomes) < 60:
            f = random_formula(rng, pool, max_depth=8, const_chance=0.1)
            if not 12 <= len(atoms(f)) <= 14:
                continue
            limit = rng.choice((10_000, rng.randint(0, 60)))
            outcomes.append(self._matches_reference(calls, f, limit))
        assert set(outcomes) == {False, True}  # both finished and blown searches

    def test_matches_recursive_walker_on_ratio_2_3cnf(self, monkeypatch):
        """Random 3-CNF at 12-14 atoms and ratio 2, where only part of the
        subtrees recur: the reference's listing, finished or blown."""
        calls = _count_passes(monkeypatch)
        rng = random.Random(7015)
        outcomes = [self._matches_reference(calls, _random_3cnf(rng, rng.randint(12, 14)),
                                            rng.choice((10_000, rng.randint(0, 60))))
                    for _ in range(24)]
        assert set(outcomes) == {False, True}

    @pytest.mark.parametrize("n", [10, 16, 20, 22])
    def test_cover_lists_the_reference_cubes_in_linear_passes(self, monkeypatch, n):
        """cover(n) has Fibonacci-many cubes over few distinct residuals:
        the listing replays them, at most 4n passes where the reference
        takes hundreds to about 10^5."""
        calls = _count_passes(monkeypatch)
        f = _cover(n)
        cubes, used, blown, passes = self._run_listing(calls, _every_cube, f, 10**6)
        assert (cubes, used, blown) == self._run_listing(calls, ref_dpll_walk, f, 10**6)[:3]
        assert passes <= 4 * n

    def test_listing_keeps_nothing_between_calls(self, monkeypatch):
        calls = _count_passes(monkeypatch)
        f = _random_3cnf(random.Random(7016), 14)
        runs = []
        for _ in range(2):
            calls.clear()
            runs.append((dpll_enumerate(f).assignments, len(calls)))
        assert runs[0] == runs[1]

    def test_ratio_2_3cnf_at_14_atoms_takes_fewer_passes(self, monkeypatch):
        calls = _count_passes(monkeypatch)
        f = _random_3cnf(random.Random(7017), 14)
        passes = [self._run_listing(calls, walk, f, 10**6)[3] for walk in (_every_cube, _dpll_walk)]
        assert passes[0] < passes[1]

    @pytest.mark.parametrize("text,cubes,branches", [
        ("A1 & true", ["A1"], 1),
        ("(A1 | true) & A2", ["A1, A2", "!A1, A2"], 1),
    ])
    def test_the_input_is_branched_on_unfolded(self, text, cubes, branches):
        f = parse(text)
        for walk in (_dpll_walk, ref_dpll_walk):
            budget = Budget(10, "DPLL branching")
            assert [str(mu) for mu in walk(f, budget)] == cubes
            assert budget.used == branches

    def test_first_assignment_refutes_unsat_3cnf(self, monkeypatch):
        """The refutation behind `entails`: no cube, after the reference's
        branches and passes."""
        calls = _count_passes(monkeypatch)
        rng = random.Random(7012)
        pool = atom_pool(11)
        for _ in range(3):
            f = and_all(or_all(AtomRef(a) if rng.random() < 0.5 else Not(AtomRef(a))
                               for a in rng.sample(pool, 3)) for _ in range(70))
            runs = []
            for walk in (_dpll_walk, ref_dpll_walk):
                calls.clear()
                budget = Budget(10_000, "DPLL branching")
                runs.append((next(walk(f, budget), None), budget.used, len(calls)))
            assert runs[0] == runs[1] and runs[0][0] is None and runs[0][1] > 0
            assert dpll_first_assignment(f) is None

    def test_more_atoms_than_the_recursion_limit(self):
        f = parse(" & ".join(f"A{i}" for i in range(1200)))
        (mu,) = dpll_enumerate(f).assignments
        assert mu == Assignment({a: True for a in atoms(f)})


class TestOneSearchDriver:
    """Every enumeration runs on one `enumeration._search`, and a branch
    budget is charged there, once per two-way split."""

    @pytest.fixture
    def runs(self, monkeypatch):
        search, runs = enumeration._search, []

        def counted(root, step, budget=None):
            run = {"budget": budget, "splits": 0}
            runs.append(run)

            def counted_step(state):
                out = step(state)
                if type(out) is tuple and len(out) == 2:
                    run["splits"] += 1
                return out

            return search(root, counted_step, budget)

        owners = [module for name, module in sys.modules.items()
                  if name.startswith("partialsat") and getattr(module, "_search", None) is search]
        assert predabs in owners
        for module in owners:
            monkeypatch.setattr(module, "_search", counted)
        return runs

    def test_each_entry_point_runs_one_search(self, runs):
        p = PredAbsProblem(parse("B1 | B2"), ((Atom("P1"), parse("B1 & B2")),
                                              (Atom("P2"), parse("!B1"))))
        calls = [
            lambda: dpll_enumerate(GAP),
            lambda: dpll_first_assignment(GAP),
            lambda: tableaux_enumerate(GAP),
            lambda: tableaux_enumerate(GAP, dedup=True),
            lambda: obdd_enumerate(build_obdd(GAP)),
            lambda: enumerate_abstraction(p, "validating"),
            lambda: enumerate_abstraction(p, "entailing"),
        ]
        for call in calls:
            runs.clear()
            call()
            assert len(runs) == 1
        runs.clear()
        compare_modes(p)
        assert len(runs) == 2
        assert all(run["budget"] is None for run in runs)

    def test_the_branch_budget_is_spent_once_per_two_way_split(self, runs):
        rng = random.Random(7014)
        spent = 0
        for _ in range(300):
            f = random_formula(rng, atom_pool(rng.randint(1, 6)), max_depth=rng.randint(0, 5))
            budget = rng.choice((None, rng.randint(0, 4)))
            for engine in (dpll_enumerate, tableaux_enumerate, dpll_first_assignment):
                runs.clear()
                try:
                    engine(f, budget)
                except ResourceLimitError:
                    pass
                (run,) = runs
                assert run["budget"].used == run["splits"]
                spent += run["splits"]
            runs.clear()
            obdd_enumerate(build_obdd(f))
            assert runs[0]["budget"] is None
        assert spent > 0


class TestEngineRelationships:
    def test_every_entailing_cube_extends_into_a_validating_one(self):
        rng = random.Random(7007)
        pool = atom_pool(5)
        for _ in range(150):
            f = random_formula(rng, pool, max_depth=4)
            bdd_cubes = obdd_enumerate(build_obdd(f), f).assignments
            dpll_cubes = dpll_enumerate(f).assignments
            for mu in bdd_cubes:
                assert any(
                    set(mu.literals()) <= set(eta.literals()) for eta in dpll_cubes
                )
            assert len(bdd_cubes) <= len(dpll_cubes)

    def test_obdd_and_dpll_disjunctions_are_equivalent(self):
        rng = random.Random(7008)
        pool = atom_pool(5)
        for _ in range(100):
            f = random_formula(rng, pool, max_depth=4)
            assert verify_enumeration(obdd_enumerate(build_obdd(f), f)).ok


class TestVerifyEnumeration:
    def test_flags_a_non_covering_listing(self):
        fake = EnumResult(
            engine="dpll",
            mode="validating",
            formula=GAP,
            assignments=(parse_assignment("!A1"),),
        )
        report = verify_enumeration(fake)
        assert report.mode_violations == (0,)
        assert not report.covers
        assert not report.ok

    def test_flags_overlapping_cubes(self):
        fake = EnumResult(
            engine="obdd",
            mode="entailing",
            formula=GAP,
            assignments=(parse_assignment("A1"), parse_assignment("A1, A2")),
        )
        report = verify_enumeration(fake)
        assert report.mode_violations == ()
        assert report.disjointness_violations == ((0, 1),)

    def test_mode_predicate_distinguishes_the_engines(self):
        entailing_only = EnumResult(
            engine="dpll",
            mode="validating",
            formula=GAP,
            assignments=(parse_assignment("A1"),),
        )
        assert verify_enumeration(entailing_only).mode_violations == (0,)
        as_entailing = EnumResult(
            engine="obdd",
            mode="entailing",
            formula=GAP,
            assignments=(parse_assignment("A1"),),
        )
        assert verify_enumeration(as_entailing).ok

    def test_explicit_source_overrides_the_recorded_formula(self):
        result = obdd_enumerate(build_obdd(GAP), GAP)
        assert not verify_enumeration(result, f=parse("A1 & A2")).covers

    def test_the_atom_cap_bounds_every_sweep(self, monkeypatch):
        """Coverage is swept first, under the cap; a listing that passes it
        has every cube's residual within the cap, so no per-cube check
        sweeps more atoms or reaches the DPLL refutation."""
        sweeps, refutations = [], []
        sweep, refute = partial_sat.first_falsifying, enumeration.dpll_first_assignment
        monkeypatch.setattr(partial_sat, "first_falsifying", lambda f, cap, **kw: sweeps.append(
            (len(atoms(f)), cap)) or sweep(f, cap, **kw))
        monkeypatch.setattr(enumeration, "dpll_first_assignment", lambda *a: refutations.append(
            a) or refute(*a))
        f = parse(" & ".join(["A1", *(f"(B{i} | !B{i})" for i in range(1, 22))]))
        result = obdd_enumerate(build_obdd(f), f)
        assert [str(mu.to_cube()) for mu in result.assignments] == ["A1"]
        with pytest.raises(ResourceLimitError,
                           match=r"^brute-force sweep over 22 atoms exceeds the cap of 4$"):
            verify_enumeration(result, atom_cap=4)
        assert sweeps == [] and refutations == []
        assert verify_enumeration(result, atom_cap=22).ok
        assert sweeps == [(21, 22)] and refutations == []
