"""The four workloads.

Each workload makes its inputs one cycle at a time from a seeded
`random.Random`; a cycle is a fixed mix of op families whose sizes rotate
with the cycle index, so every run sees the same mix whatever the seed.
Every op gets fresh atom names (a prefix carrying the op id), so no input
appears twice within a run.  For each op a workload gives:

    run(op)            the timed call into the program
    answer(op, raw)    the program's result as plain data (untimed)
    check(op, answer)  the reference check; returns a list of errors

All budgets and caps are explicit arguments or CLI flags, and all are work
budgets, so which ops fail is deterministic.  The sizes below keep every
op within its budget (see the per-family notes), so no op fails today.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gen
import ref


@dataclass
class Op:
    name: str  # family and size, the key of the named-op table
    data: dict
    shape: dict


def _lits(mu) -> dict[str, bool] | None:
    """A program Assignment as {atom name: value}."""
    return None if mu is None else {a.name: mu.value(a) for a in mu.domain}


def _cubes(assignments) -> list[dict[str, bool]]:
    return [_lits(mu) for mu in assignments]


def _clause_list(cnf) -> list[list[tuple[str, bool]]]:
    """Clauses of the program's CNF, left to right, as (atom, polarity)
    lists; walked with an explicit stack, since the conjunction tree is
    as deep as the clause count."""
    clauses, stack = [], [cnf]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "And":
            stack.extend((node.right, node.left))
            continue
        clause, inner = [], [node]
        while inner:
            leaf = inner.pop()
            kind = type(leaf).__name__
            if kind == "Or":
                inner.extend((leaf.right, leaf.left))
            elif kind == "Not":
                clause.append((leaf.arg.atom.name, False))
            else:
                clause.append((leaf.atom.name, True))
        clauses.append(clause)
    return clauses


def _check_cover(f, cubes, kind) -> list[str]:
    """Cubes of an enumeration of f, by kind:
    'disjoint-validating' (DPLL): each cube validates f, the cubes are
    pairwise disjoint and cover exactly the models of f;
    'disjoint-entailing' (OBDD): pairwise disjoint, their sizes sum to the
    model count, and an evenly spaced sample of 24 cubes entails f;
    'validating' (tableaux, cubes may overlap): each cube validates f and
    their union is the set of models."""
    names = sorted(gen.atoms_of(f))
    if any(not set(c) <= set(names) for c in cubes):
        return ["a cube binds atoms outside the formula"]
    if kind == "disjoint-entailing":
        step = max(1, len(cubes) // 24)
        if not all(ref.entails_under(c, f) for c in cubes[::step]):
            return ["a cube does not entail the formula"]
    elif not all(ref.eval3(f, c) == "T" for c in cubes):
        return ["a cube does not validate the formula"]
    t = ref.Table(names)
    models = t.of(f)
    if kind != "validating":
        if not ref.disjoint(cubes, names):
            return ["cubes are not pairwise disjoint"]
        covered = sum(1 << (len(names) - len(c)) for c in cubes)
        if covered != models.bit_count():
            return [f"cubes cover {covered} models, the formula has {models.bit_count()}"]
        return []
    union = 0
    for c in cubes:
        union |= t.cube(c)
    return [] if union == models else ["cube disjunction is not equivalent to the formula"]


def check_verdict(f, mu, expect, ans) -> list[str]:
    """(validates, entails, witness) of `verdict(mu, f)` against the
    reference; `expect` is the by-construction entailment answer or None."""
    validates, entails, witness = ans
    errors = []
    if validates != (ref.eval3(f, mu) == "T"):
        errors.append(f"validates={validates} disagrees with the reference")
    want = ref.entails_under(mu, f)
    if expect is not None and want != expect:
        errors.append("generator broke its by-construction answer")
    if entails != want:
        errors.append(f"entails={entails} disagrees with the reference")
    if entails and witness is not None:
        errors.append("witness given for an entailed formula")
    if not entails:
        universe = gen.atoms_of(f) | set(mu)
        if witness is None or set(witness) != universe:
            errors.append("witness is not total over the formula and mu")
        elif any(witness[a] != v for a, v in mu.items()):
            errors.append("witness does not extend mu")
        elif ref.eval_total(f, witness):
            errors.append("witness satisfies the formula")
    return errors


# --------------------------------------------------------------- verdict


class Verdict:
    """parse + parse_assignment + verdict(mu, f) with explicit caps."""

    name = "verdict"
    trace_cycles = 30
    BUDGETS = {
        "random.atom_cap": 16,
        "random.branch_budget": 4000,
        "chain_brute.atom_cap": 16,
        "chain_dpll.atom_cap": 2,
        "chain_dpll.branch_budget": 4000,
        "negunsat_brute.atom_cap": 16,
        "negunsat_dpll.atom_cap": 6,
        "negunsat.branch_budget": "2**n",
    }
    CHAIN_BRUTE = (10, 11, 12, 13)
    CHAIN_DPLL = (4, 5, 6)
    NEGUNSAT = (10, 11, 12)
    RANDOM_PER_CYCLE = 20

    def __init__(self, ps):
        self.ps = ps

    def cycle(self, rng: random.Random, k: int, next_id) -> list[Op]:
        ops = []
        for _ in range(self.RANDOM_PER_CYCLE):
            ops.append(self._random(rng, next_id()))
        ops.insert(5, self._chain(next_id(), self.CHAIN_BRUTE[k % 4], 16, 4000, "brute"))
        ops.insert(10, self._chain(next_id(), self.CHAIN_DPLL[k % 3], 2, 4000, "dpll"))
        n = self.NEGUNSAT[k % 3]
        ops.insert(15, self._negunsat(rng, next_id(), n, 16, "brute"))
        ops.insert(20, self._negunsat(rng, next_id(), self.NEGUNSAT[(k + 1) % 3], 6, "dpll"))
        return ops

    def _op(self, name, f, mu, atom_cap, budget, expect=None) -> Op:
        universe = gen.atoms_of(f) | set(mu)
        return Op(
            name,
            {"f": f, "text": gen.render(f), "mu": mu, "mu_text": gen.render_assignment(mu),
             "atom_cap": atom_cap, "branch_budget": budget, "expect_entails": expect},
            {"atoms": len(universe), "nodes": gen.size(f), "bound": len(mu)},
        )

    def _random(self, rng, op_id) -> Op:
        # 10-16 atoms; the residual never exceeds the atom cap, so the
        # brute sweep decides every op
        names = gen.pool(rng.randint(10, 16), f"Aa{op_id}x")
        while True:
            f = gen.combine(rng, [gen.random_formula(rng, names, 3)
                                  for _ in range(rng.randint(5, 8))])
            if len(gen.atoms_of(f)) >= 10:
                break
        mu = gen.random_partial(rng, sorted(gen.atoms_of(f)), 0.4)
        return self._op("random", f, mu, 16, 4000)

    def _chain(self, op_id, n, atom_cap, budget, side) -> Op:
        # identical structure for every seed, so the DPLL branch count is
        # fixed: chain(6) stays below 4000 branches
        f = gen.chain(gen.pool(n, f"Ac{op_id}x"))
        op = self._op(f"chain_{side}_{n}", f, {}, atom_cap, budget, expect=True)
        op.shape["chain"] = n
        return op

    def _negunsat(self, rng, op_id, n, atom_cap, side) -> Op:
        # !F with F an unsatisfiable random 3-CNF (checked by the reference);
        # Tseitin passes F through unchanged, so the DPLL refutation tree has
        # at most 2**n - 1 branches and a 2**n budget always suffices
        names = gen.pool(n, f"Au{op_id}x")
        while True:
            cnf = gen.random_3cnf(rng, names, 6 * n)
            if gen.atoms_of(cnf) == set(names) and ref.count_models(cnf, names) == 0:
                break
        return self._op(f"negunsat_{side}_{n}", gen.neg(cnf), {}, atom_cap, 2 ** n,
                        expect=True)

    def run(self, op):
        d = op.data
        ps = self.ps
        return ps.verdict(ps.parse_assignment(d["mu_text"]), ps.parse(d["text"]),
                          atom_cap=d["atom_cap"], branch_budget=d["branch_budget"])

    def answer(self, op, raw):
        return raw.validates, raw.entails, _lits(raw.witness)

    def check(self, op, ans) -> list[str]:
        d = op.data
        return check_verdict(d["f"], d["mu"], d["expect_entails"], ans)

    def probes(self):
        """Inputs outside the timed mix, traced only: they fail today."""
        ps = self.ps
        deep_and = " & ".join(f"d{i}" for i in range(1200))
        deep_paren = "(" * 500 + "d0" + ")" * 500
        return [
            ("deep_and_1200", lambda: ps.verdict(ps.parse_assignment(""), ps.parse(deep_and),
                                                 atom_cap=16, branch_budget=4000)),
            ("deep_parens_500", lambda: ps.parse(deep_paren)),
            ("chain_dpll_8_budget_2000", lambda: ps.verdict(
                ps.parse_assignment(""), ps.parse(gen.render(gen.chain(gen.pool(8, "A")))),
                atom_cap=2, branch_budget=2000)),
        ]


# ---------------------------------------------------------------- allsat


class AllSat:
    """One (formula, engine) pair per op; no verify_enumeration here."""

    name = "allsat"
    trace_cycles = 10
    BUDGETS = {
        "dpll.branch_budget": "2**atoms",
        "tableaux.branch_budget": 20000,
        "tableaux.max_tableau_bound": 20000,
        "obdd.node_budget": 10**6,
    }
    COVER = (10, 11, 12, 13, 14)
    COVER_TABLEAUX = (8, 9, 10, 11, 12)
    CNF_DPLL = (12, 13, 14)
    CNF_OBDD = (16, 18, 20)

    def __init__(self, ps):
        self.ps = ps

    MEDIAN_COVER = 10
    TOP_COVER = 16

    def cycle(self, rng: random.Random, k: int, next_id) -> list[Op]:
        # ops whose cost does not depend on the draw pin the quantiles:
        # DPLL on cover(16) is the costliest op, so p90 falls in the middle
        # of the three 3-CNF DPLL ops below it, and six DPLL ops on
        # cover(10) sit at the median and hold p50
        ops = [self._cover(next_id(), self.TOP_COVER, "dpll")]
        ops += [self._cnf(rng, next_id(), n, "dpll") for n in self.CNF_DPLL]
        ops += [self._cover(next_id(), self.MEDIAN_COVER, "dpll") for _ in range(6)]
        ops += [self._cnf(rng, next_id(), self.CNF_OBDD[(k + i) % 3], "obdd") for i in (0, 1)]
        for i in (0, 2):
            ops.append(self._cover(next_id(), self.COVER[(k + i) % 5], "dpll"))
            ops.append(self._cover(next_id(), self.COVER[(k + i) % 5], "obdd"))
            ops.append(self._cover(next_id(), self.COVER_TABLEAUX[(k + i) % 5], "tableaux"))
        for engine in ("dpll", "obdd", "tableaux") * 3:
            ops.append(self._random(rng, next_id(), engine))
        return ops

    def _op(self, name, f, engine) -> Op:
        n = len(gen.atoms_of(f))
        return Op(
            name,
            {"f": f, "text": gen.render(f), "engine": engine,
             "budget": {"dpll": 2 ** n, "tableaux": 20000, "obdd": 10**6}[engine]},
            {"atoms": n, "nodes": gen.size(f)},
        )

    def _cover(self, op_id, n, engine) -> Op:
        # tableaux on cover(n) has 2**(n-1) leaves, below its budget
        op = self._op(f"cover_{engine}_{n}", gen.cover(gen.pool(n, f"Av{op_id}x")), engine)
        op.shape["cover"] = n
        return op

    def _cnf(self, rng, op_id, n, engine) -> Op:
        # random 3-CNF at clause/atom ratio 2: many models
        names = gen.pool(n, f"Ar{op_id}x")
        return self._op(f"3cnf_{engine}_{n}", gen.random_3cnf(rng, names, 2 * n), engine)

    def _random(self, rng, op_id, engine) -> Op:
        # non-CNF, 12-16 atoms; redrawn until its closure-free tableau fits
        # the tableaux budget, for every engine alike
        names = gen.pool(rng.randint(12, 16), f"An{op_id}x")
        while True:
            f = gen.combine(rng, [gen.random_formula(rng, names, 3)
                                  for _ in range(rng.randint(4, 6))])
            if gen.tableau_bound(f) <= 20000:
                return self._op(f"random_{engine}", f, engine)

    def run(self, op):
        ps = self.ps
        d = op.data
        f = ps.parse(d["text"])
        if d["engine"] == "dpll":
            return ps.dpll_enumerate(f, d["budget"])
        if d["engine"] == "tableaux":
            return ps.tableaux_enumerate(f, d["budget"])
        return ps.obdd_enumerate(ps.build_obdd(f, None, d["budget"]), f)

    def answer(self, op, raw):
        return _cubes(raw.assignments)

    def check(self, op, cubes) -> list[str]:
        kind = {"dpll": "disjoint-validating", "obdd": "disjoint-entailing",
                "tableaux": "validating"}[op.data["engine"]]
        return _check_cover(op.data["f"], cubes, kind)

    def probes(self):
        ps = self.ps
        rng = random.Random(0)
        cnf = gen.render(gen.random_3cnf(rng, gen.pool(12, "A"), 24))
        return [("tableaux_3cnf_12_budget_3000",
                 lambda: ps.tableaux_enumerate(ps.parse(cnf), 3000))]


# ------------------------------------------------------------------- cnf


class Cnf:
    """tseitin (+ to_dimacs) on large conjunctions; loss checks on small
    formulas."""

    name = "cnf"
    trace_cycles = 2
    BUDGETS = {
        "loss.sweep_cap": 12,
        "loss_entailing.atom_cap": 16,
        "loss_entailing.branch_budget": 4000,
    }
    # to_dimacs recurses once per clause: it raises RecursionError today on
    # the CNF of 100 conjuncts, and 50 come close, so it runs on the
    # 25-conjunct inputs only; a probe of 1,200 clauses records the failure.
    # No tseitin(200) (about 2.5 s): one a cycle would hold 40 % of a run's
    # op time in five samples, and the run's figures would follow their noise
    TSEITIN = (50, 50, 50, 100, 100, 100, 100, 100)
    DIMACS_PER_CYCLE = 6
    # fresh atoms swept: a sweep over 11 or 12 costs up to 1.5 s and varies
    # several-fold between draws, which would swamp every other op; an
    # entailing sweep over 10 (0.2-0.5 s by draw) would land among the
    # tseitin_100 ops that hold p90 and make it depend on the draw
    LOSS_VALIDATING = (4, 5, 6, 7, 8, 9, 10)
    LOSS_ENTAILING = (4, 5, 6, 7, 8, 9)

    def __init__(self, ps):
        self.ps = ps

    def cycle(self, rng: random.Random, k: int, next_id) -> list[Op]:
        # about as many ops cost more than tseitin+dimacs(25) as cost less,
        # so p50 falls among those six; every other op costs well under a
        # tseitin(100), so p90 falls inside the five tseitin(100) ops
        ops = [self._tseitin(rng, next_id(), 25, dimacs=True)
               for _ in range(self.DIMACS_PER_CYCLE)]
        for size in self.TSEITIN:
            ops.append(self._tseitin(rng, next_id(), size, dimacs=False))
        for b in self.LOSS_VALIDATING:
            ops.append(self._loss(rng, next_id(), "validating", b))
        for b in self.LOSS_ENTAILING:
            ops.append(self._loss(rng, next_id(), "entailing", b))
        return ops

    def _tseitin(self, rng, op_id, conjuncts, dimacs) -> Op:
        # constant-free conjuncts, each true under a planted assignment, so
        # nothing folds away before labelling
        names = gen.pool(40, f"At{op_id}x")
        planted = gen.random_total(rng, names)
        parts = []
        while len(parts) < conjuncts:
            c = gen.random_formula(rng, names, 3)
            if c[0] in gen.BINARY and ref.eval_total(c, planted):
                parts.append(c)
        f = gen.conj(parts)
        return Op(f"tseitin_dimacs_{conjuncts}" if dimacs else f"tseitin_{conjuncts}",
                  {"f": f, "text": gen.render(f), "planted": planted, "dimacs": dimacs,
                   "probe": gen.random_total(rng, names)},
                  {"atoms": len(gen.atoms_of(f)), "nodes": gen.size(f),
                   "conjuncts": conjuncts})

    def _loss(self, rng, op_id, mode, binary) -> Op:
        # exactly `binary` connectives, hence at most that many fresh atoms
        # (within the sweep cap); mu validates, or entails without
        # validating, by construction; the residuals have at most 8 atoms,
        # so the entailment checks never reach the DPLL budget
        names = gen.pool(rng.randint(5, 8), f"Al{op_id}x")
        while True:
            f = gen.random_sized(rng, names, binary)
            mu = gen.random_partial(rng, sorted(gen.atoms_of(f)), 0.5)
            v = ref.eval3(f, mu)
            if mode == "validating" and v == "T":
                break
            if mode == "entailing" and v != "T" and ref.entails_under(mu, f):
                break
        return Op(f"loss_{mode}_{binary}",
                  {"f": f, "text": gen.render(f), "mu": mu,
                   "mu_text": gen.render_assignment(mu), "mode": mode},
                  {"atoms": len(gen.atoms_of(f)), "nodes": gen.size(f),
                   "binary_nodes": binary})

    def run(self, op):
        ps = self.ps
        d = op.data
        f = ps.parse(d["text"])
        if "mode" not in d:
            result = ps.tseitin(f)
            return result, ps.to_dimacs(result.cnf) if d["dimacs"] else None
        mu = ps.parse_assignment(d["mu_text"])
        if d["mode"] == "validating":
            return ps.check_validation_loss(mu, f, sweep_cap=12)
        return ps.check_entailment_loss(mu, f, sweep_cap=12, atom_cap=16, branch_budget=4000)

    def answer(self, op, raw):
        if "mode" not in op.data:
            result, dimacs = raw
            op.shape["fresh"] = len(result.fresh_atoms)
            return {
                "fresh": [a.name for a in result.fresh_atoms],
                "definitions": [(a.name, str(df)) for a, df in result.definitions],
                "clauses": _clause_list(result.cnf),
                "dimacs": dimacs,
            }
        op.shape["fresh"] = len(raw.fresh_atoms)
        return {
            "loss": raw.loss,
            "cnf": str(raw.cnf),
            "fresh": [a.name for a in raw.fresh_atoms],
            "cases": [(_lits(c.delta), c.outcome, _lits(c.witness)) for c in raw.cases],
        }

    def check(self, op, ans) -> list[str]:
        if "mode" not in op.data:
            return self._check_tseitin(op, ans)
        if op.data["mode"] == "validating":
            return self._check_validation_loss(op, ans)
        return self._check_entailment_loss(op, ans)

    @staticmethod
    def _check_tseitin(op, ans) -> list[str]:
        f = op.data["f"]
        original = gen.atoms_of(f)
        fresh, clauses = ans["fresh"], ans["clauses"]
        if [a for a, _ in ans["definitions"]] != fresh or set(fresh) & original:
            return ["fresh atoms and definitions disagree"]
        if {name for clause in clauses for name, _ in clause} != original | set(fresh):
            return ["CNF atoms are not the input atoms plus the fresh atoms"]
        if ans["dimacs"] is not None:
            names, declared, rows = ref.parse_dimacs(ans["dimacs"])
            as_names = [[(names[abs(v)], v > 0) for v in row] for row in rows]
            if declared != len(names) or as_names != clauses:
                return ["DIMACS output differs from the CNF"]
        # the clauses over each fresh atom and its definition's atoms must
        # rule out every local assignment that breaks atom <-> definition
        by_atom = defaultdict(list)
        for clause in clauses:
            for name, _ in clause:
                by_atom[name].append(clause)
        for a, text in ans["definitions"]:
            d = ref.parse(text)
            local_atoms = sorted(gen.atoms_of(d) | {a})
            local = [c for c in by_atom[a] if {n for n, _ in c} <= set(local_atoms)]
            for bits in itertools.product((False, True), repeat=len(local_atoms)):
                v = dict(zip(local_atoms, bits))
                if v[a] != ref.eval_total(d, v) and not any(
                        all(v[n] != pos for n, pos in c) for c in local):
                    return [f"the CNF does not force {a} <-> {text}"]
        # labelling each fresh atom by its definition must make the CNF
        # agree with the input on every total assignment tried
        for eta in (op.data["planted"], op.data["probe"]):
            values = dict(eta)
            for a, text in ans["definitions"]:
                values[a] = ref.eval_total(ref.parse(text), values)
            cnf_value = all(any(values[n] == pos for n, pos in clause) for clause in clauses)
            if cnf_value != ref.eval_total(f, eta):
                return ["CNF under the definitional extension disagrees with the input"]
        return []

    @staticmethod
    def _check_validation_loss(op, ans) -> list[str]:
        mu = op.data["mu"]
        fresh = ans["fresh"]
        cnf = ref.parse(ans["cnf"])
        if len(ans["cases"]) != 1 << len(fresh):
            return ["not every fresh-atom assignment was swept"]
        t = ref.Table(fresh)
        true_rows, false_rows = t.of3(cnf, mu)
        recovered = False
        for delta, outcome, _ in ans["cases"]:
            row = ref.row_of(t, delta)
            want = ("validated" if true_rows >> row & 1
                    else "falsified" if false_rows >> row & 1 else "undetermined")
            if outcome != want:
                return [f"case {delta}: {outcome}, reference says {want}"]
            recovered |= want == "validated"
        if ans["loss"] != (not recovered):
            return ["loss flag disagrees with the cases"]
        return []

    @staticmethod
    def _check_entailment_loss(op, ans) -> list[str]:
        mu = op.data["mu"]
        fresh = ans["fresh"]
        cnf = ref.parse(ans["cnf"])
        if len(ans["cases"]) != 1 << len(fresh):
            return ["not every fresh-atom assignment was swept"]
        rest = sorted(gen.atoms_of(cnf) - set(fresh) - set(mu))
        t = ref.Table(fresh + rest)  # fresh atoms are the low bits
        models = t.of(cnf, mu)
        falsified_by = ref.bytes_le(t.fold_low(t.full ^ models, len(fresh)), len(fresh))
        satisfied_by = ref.bytes_le(t.fold_low(models, len(fresh)), len(fresh))
        recovered = False
        for delta, outcome, witness in ans["cases"]:
            row = ref.row_of(t, delta)
            if not ref.bit(falsified_by, row):
                want = "entailed"
            elif ref.bit(satisfied_by, row):
                want = "falsified"
            else:
                want = "inconsistent"
            if outcome != want:
                return [f"case {delta}: {outcome}, reference says {want}"]
            recovered |= want == "entailed"
            if want != "entailed":
                extended = {**mu, **delta}
                if witness is None or any(witness.get(a) != v for a, v in extended.items()):
                    return [f"case {delta}: witness does not extend mu and delta"]
                if not gen.atoms_of(cnf) <= set(witness) or ref.eval_total(cnf, witness):
                    return [f"case {delta}: witness is not a falsifying total extension"]
        if ans["loss"] != (not recovered):
            return ["loss flag disagrees with the cases"]
        return []

    def probes(self):
        ps = self.ps
        # the clause count of the CNF of 200 conjuncts
        cnf = " & ".join(f"(d{i} | !e{i})" for i in range(1200))
        return [("deep_dimacs_1200", lambda: ps.to_dimacs(ps.parse(cnf)))]


# ------------------------------------------------------------------- cli


class Cli:
    """One `python -m partialsat.cli` process per op, one at a time."""

    name = "cli"
    trace_cycles = 3
    BUDGETS = {
        "check.max_atoms": 16,
        "check.branch_budget": 4000,
        "check.expansion_cap": 12,
        "shannon.expansion_cap": 12,
        "predabs.max_atoms": 22,
        "predabs.expansion_cap": 12,
        "enumerate.max_atoms": 16,
        "enumerate.branch_budget": 10000,
        "enumerate.node_budget": 100000,
    }
    COVER = 10
    PREDABS_HIDDEN = (6, 8)
    COMPARE_HIDDEN = (6, 7)

    def __init__(self, ps, python: str, env: dict, cwd: Path, workdir: Path):
        self.ps = ps
        self.python = python
        self.env = env
        self.cwd = cwd
        self.workdir = workdir

    def cycle(self, rng: random.Random, k: int, next_id) -> list[Op]:
        # paired sizes swap modes between cycles, so every cycle costs about
        # the same; fifteen light verbs (mostly process start) hold p50, and
        # p90 falls among the two enumerate --verify ops on cover(10), whose
        # cost does not depend on the draw
        a, b = k % 2, (k + 1) % 2
        light = [self._check_exists, self._shannon, self._check_plain] * 5
        heavy = [
            lambda: self._predabs(rng, next_id(), self.PREDABS_HIDDEN[a], "validating"),
            lambda: self._enumerate(next_id(), self.COVER, "obdd"),
            lambda: self._compare(rng, next_id(), self.COMPARE_HIDDEN[0]),
            lambda: self._predabs(rng, next_id(), self.PREDABS_HIDDEN[b], "entailing"),
            lambda: self._enumerate(next_id(), self.COVER, "dpll"),
            lambda: self._compare(rng, next_id(), self.COMPARE_HIDDEN[1]),
        ]
        ops = []
        for i, make in enumerate(light):
            ops.append(make(rng, next_id()))
            if i % 5 == 4 or i % 5 == 2:
                ops.append(heavy.pop(0)())
        return ops

    # ---- generation

    def _existential(self, rng, op_id):
        free = gen.pool(rng.randint(6, 8), f"Ax{op_id}x")
        bound = gen.pool(rng.randint(3, 6), f"Aq{op_id}x")
        matrix = gen.combine(rng, [gen.random_formula(rng, free + bound, 3)
                                   for _ in range(4)])
        quantified = sorted(gen.atoms_of(matrix) & set(bound)) or [bound[0]]
        text = f"exists {' '.join(quantified)} . {gen.render(matrix)}"
        return matrix, quantified, text

    def _check_exists(self, rng, op_id) -> Op:
        matrix, quantified, text = self._existential(rng, op_id)
        free = sorted(gen.atoms_of(matrix) - set(quantified))
        mu = gen.random_partial(rng, free, 0.3)
        argv = ["check", "-f", text, "-a", gen.render_assignment(mu), "--json",
                "--max-atoms", "16", "--expansion-cap", "12"]
        return Op("check_exists", {"argv": argv, "matrix": matrix, "quantified": quantified,
                                   "free": free, "mu": mu},
                  {"atoms": len(free), "hidden": len(quantified), "nodes": gen.size(matrix)})

    def _shannon(self, rng, op_id) -> Op:
        matrix, quantified, text = self._existential(rng, op_id)
        free = sorted(gen.atoms_of(matrix) - set(quantified))
        argv = ["shannon", "-f", text, "--json", "--expansion-cap", "12"]
        return Op("shannon", {"argv": argv, "matrix": matrix, "quantified": quantified,
                              "free": free},
                  {"atoms": len(free), "hidden": len(quantified), "nodes": gen.size(matrix)})

    def _check_plain(self, rng, op_id) -> Op:
        # the tiny `check` of the end-to-end CLI baseline
        names = gen.pool(rng.randint(4, 6), f"Ak{op_id}x")
        f = gen.random_formula(rng, names, 3)
        mu = gen.random_partial(rng, sorted(gen.atoms_of(f)), 0.4)
        argv = ["check", "-f", gen.render(f), "-a", gen.render_assignment(mu), "--json",
                "--max-atoms", "16", "--branch-budget", "4000"]
        return Op("check_tiny", {"argv": argv, "f": f, "mu": mu},
                  {"atoms": len(gen.atoms_of(f)), "nodes": gen.size(f)})

    def _problem(self, rng, op_id, hidden, predicates):
        names = gen.pool(hidden, f"Ah{op_id}x")
        base = gen.random_formula(rng, names, 3)
        defs = [(f"Ap{op_id}x{i + 1}", gen.random_formula(rng, names, 2))
                for i in range(predicates)]
        path = self.workdir / f"problem-{op_id}.json"
        path.write_text(json.dumps({
            "base": gen.render(base),
            "predicates": [{"label": label, "def": gen.render(df)} for label, df in defs],
        }))
        matrix = gen.conj([base] + [("iff", gen.atom(label), df) for label, df in defs])
        labels = [label for label, _ in defs]
        hidden_atoms = sorted(gen.atoms_of(matrix) - set(labels))
        return str(path), matrix, labels, hidden_atoms

    def _predabs(self, rng, op_id, hidden, mode) -> Op:
        path, matrix, labels, hidden_atoms = self._problem(rng, op_id, hidden, rng.randint(4, 5))
        argv = ["predabs", "--problem", path, "--mode", mode, "--json",
                "--max-atoms", "22", "--expansion-cap", "12"]
        return Op(f"predabs_{mode}_{hidden}",
                  {"argv": argv, "matrix": matrix, "labels": labels, "hidden": hidden_atoms,
                   "mode": mode},
                  {"hidden": len(hidden_atoms), "labels": len(labels),
                   "nodes": gen.size(matrix)})

    def _compare(self, rng, op_id, hidden) -> Op:
        path, matrix, labels, hidden_atoms = self._problem(rng, op_id, hidden, 6)
        argv = ["compare", "--problem", path, "--json", "--max-atoms", "22",
                "--expansion-cap", "12"]
        return Op(f"compare_{hidden}", {"argv": argv},
                  {"hidden": len(hidden_atoms), "labels": len(labels),
                   "nodes": gen.size(matrix)})

    def _enumerate(self, op_id, n, engine) -> Op:
        f = gen.cover(gen.pool(n, f"Ae{op_id}x"))
        argv = ["enumerate", "--engine", engine, "--verify", "--json", "-f", gen.render(f),
                "--max-atoms", "16", "--branch-budget", "10000", "--node-budget", "100000"]
        return Op(f"enumerate_{engine}_verify_{n}", {"argv": argv, "f": f, "engine": engine},
                  {"atoms": n, "cover": n, "nodes": gen.size(f)})

    # ---- calls

    def run(self, op):
        proc = subprocess.run(
            [self.python, "-m", "partialsat.cli", *op.data["argv"]],
            capture_output=True, text=True, env=self.env, cwd=self.cwd,
        )
        return proc.returncode, proc.stdout

    def run_inprocess(self, op):
        """The same argv through `partialsat.cli.run`, output captured."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.ps.cli.run(list(op.data["argv"]))
        return code, out.getvalue()

    def answer(self, op, raw):
        code, stdout = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return json.loads(stdout)

    # ---- checks

    def check(self, op, ans) -> list[str]:
        verb = op.data["argv"][0]
        if verb == "check":
            if "quantified" in op.data:
                return self._check_exists_answer(op, ans)
            return check_verdict(op.data["f"], op.data["mu"], None,
                                 (ans["validates"], ans["entails"], _witness(ans)))
        if verb == "shannon":
            return self._check_shannon(op, ans)
        if verb == "predabs":
            return self._check_predabs(op, ans)
        if verb == "compare":
            if ans["equivalent"] is not True:
                return ["the two modes are not equivalent"]
            if ans["cube_count_entailing"] > ans["cube_count_validating"]:
                return ["entailing mode produced more cubes than validating mode"]
            return []
        cubes = [ref.literals_to_dict(c) for c in ans["assignments"]]
        kind = "disjoint-entailing" if op.data["engine"] == "obdd" else "disjoint-validating"
        errors = _check_cover(op.data["f"], cubes, kind)
        if ans["verification"]["ok"] is not True:
            errors.append("the program's own verification failed")
        return errors

    @staticmethod
    def _exists_table(matrix, quantified, free, fixed):
        """Table over quantified (low bits) + unfixed free atoms, and the
        free rows that admit some quantified completion."""
        rest = [a for a in free if a not in fixed]
        t = ref.Table(list(quantified) + rest)
        return t, t.blocks_nonempty(t.of(matrix, fixed), len(quantified)), rest

    def _check_exists_answer(self, op, ans) -> list[str]:
        d = op.data
        matrix, quantified, mu = d["matrix"], d["quantified"], d["mu"]
        tq = ref.Table(quantified)
        true_rows, _ = tq.of3(matrix, mu)
        errors = []
        if ans["validates"] != bool(true_rows):
            errors.append("exists-validates disagrees with the reference")
        if ans["validates"]:
            delta = ref.literals_to_dict(ans["delta"])
            if not true_rows >> ref.row_of(tq, delta) & 1:
                errors.append("delta does not validate the matrix")
        _, satisfiable, rest = self._exists_table(matrix, quantified, d["free"], mu)
        want = satisfiable == (1 << (1 << len(rest))) - 1
        if ans["entails"] != want:
            errors.append("exists-entails disagrees with the reference")
        if not ans["entails"]:
            eta = ref.literals_to_dict(ans.get("witness") or [])
            if set(eta) != set(d["free"]) | set(mu) or any(eta[a] != v for a, v in mu.items()):
                errors.append("counterexample is not a total extension of mu")
            elif ref.Table(quantified).of(matrix, eta):
                errors.append("counterexample admits a satisfying completion")
        return errors

    def _check_shannon(self, op, ans) -> list[str]:
        d = op.data
        expansion = ref.parse(ans["expansion"])
        if not gen.atoms_of(expansion) <= set(d["free"]):
            return ["expansion mentions a quantified atom"]
        _, projected, _ = self._exists_table(d["matrix"], d["quantified"], d["free"], {})
        if ref.Table(d["free"]).of(expansion) != projected:
            return ["expansion is not equivalent to the existential formula"]
        return []

    def _check_predabs(self, op, ans) -> list[str]:
        d = op.data
        labels, hidden, matrix = d["labels"], d["hidden"], d["matrix"]
        cubes = [ref.literals_to_dict(c) for c in ans["assignments"]]
        if any(not set(c) <= set(labels) for c in cubes):
            return ["a cube binds a non-label atom"]
        if not ref.disjoint(cubes, labels):
            return ["label cubes are not pairwise disjoint"]
        t, abstraction, _ = self._exists_table(matrix, hidden, labels, {})
        tl = ref.Table(labels)
        union = 0
        for c in cubes:
            union |= tl.cube(c)
        if union != abstraction:
            return ["cube disjunction is not equivalent to the abstraction"]
        if d["mode"] == "validating":
            th = ref.Table(hidden)
            for c in cubes:
                if not th.of3(matrix, c)[0]:
                    return [f"cube {c} does not exists-validate"]
        return []

    def probes(self):
        return []


def _witness(ans) -> dict | None:
    w = ans.get("witness")
    return None if w is None else ref.literals_to_dict(w)


WORKLOADS = {w.name: w for w in (Verdict, AllSat, Cnf, Cli)}


def touch(ps, cli: Cli):
    """One tiny call into every layer, so that each traced run measures
    every per-layer metric.  Returns (name, callable) pairs, the CLI ones
    in process, and one CLI op to spawn."""
    f = "(a | b) & (b -> c) & !(a <-> d)"
    mu = "a"

    def inproc(*argv):
        return lambda: cli.run_inprocess(Op("touch", {"argv": list(argv)}, {}))

    problem = cli.workdir / "problem-touch.json"
    problem.write_text(json.dumps({
        "base": "h1 | h2", "predicates": [{"label": "p1", "def": "h1 & h3"},
                                          {"label": "p2", "def": "h2 | !h3"}]}))
    calls = [
        ("verdict", lambda: ps.verdict(ps.parse_assignment(mu), ps.parse(f), atom_cap=1,
                                       branch_budget=4000)),
        ("tseitin", lambda: ps.to_dimacs(ps.tseitin(ps.parse(f)).cnf)),
        ("loss_validating", lambda: ps.check_validation_loss(
            ps.parse_assignment("a, c, !d"), ps.parse(f), sweep_cap=12)),
        ("loss_entailing", lambda: ps.check_entailment_loss(
            ps.parse_assignment("a, !b, !d"), ps.parse(f), sweep_cap=12, atom_cap=16,
            branch_budget=4000)),
        ("dpll", lambda: ps.dpll_enumerate(ps.parse(f), 64)),
        ("tableaux", lambda: ps.tableaux_enumerate(ps.parse(f), 64)),
        ("obdd", lambda: ps.obdd_enumerate(ps.build_obdd(ps.parse(f), None, 1000))),
        ("cli_enumerate", inproc("enumerate", "--engine", "dpll", "--verify", "-f", f)),
        ("cli_check_exists", inproc("check", "-f", f"exists b . {f}", "-a", mu)),
        ("cli_shannon", inproc("shannon", "-f", f"exists b . {f}")),
        ("cli_predabs", inproc("predabs", "--problem", str(problem), "--mode", "validating")),
        ("cli_compare", inproc("compare", "--problem", str(problem))),
    ]
    return calls, Op("touch_spawn", {"argv": ["check", "-f", f, "-a", mu]}, {})
