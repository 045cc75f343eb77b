"""Which program bindings the traced run wraps, and how its spans and
counts reduce to the per-layer metrics.

Counts are taken from outside the program, from the arguments and
results of the wrapped calls; formula sizes are computed after the run
(`Tracer.defer`), so they cost no traced time.
"""
from __future__ import annotations

from spans import Tracer

# (layer metric, unit) in report order; `_s` is self time summed over the
# traced corpus, `_calls` a span or call count.
METRICS = [
    ("formula.parse_s", "s"),
    ("formula.parse_nodes", "count"),
    ("formula.classify_calls", "count"),
    ("formula.deep_inputs_decided", "count"),
    ("semantics.eval3_calls", "count"),
    ("semantics.eval3_s", "s"),
    ("semantics.residual_calls", "count"),
    ("semantics.residual_s", "s"),
    ("semantics.sweep_calls", "count"),
    ("semantics.sweep_s", "s"),
    ("semantics.sweep_rows_bound", "count"),
    ("semantics.sat_total_calls", "count"),
    ("partial_sat.validates_calls", "count"),
    ("partial_sat.entails_calls", "count"),
    ("partial_sat.entails_s", "s"),
    ("partial_sat.limit_errors", "count"),
    ("cnfize.tseitin_calls", "count"),
    ("cnfize.tseitin_s", "s"),
    ("cnfize.fresh_atoms", "count"),
    ("cnfize.clauses", "count"),
    ("cnfize.loss_s", "s"),
    ("cnfize.loss_deltas", "count"),
    ("cnfize.dimacs_s", "s"),
    ("enumeration.first_assignment_calls", "count"),
    ("enumeration.first_assignment_s", "s"),
    ("enumeration.dpll_s", "s"),
    ("enumeration.tableaux_s", "s"),
    ("enumeration.obdd_build_s", "s"),
    ("enumeration.obdd_walk_s", "s"),
    ("enumeration.obdd_nodes", "count"),
    ("enumeration.dpll_cubes", "count"),
    ("enumeration.tableaux_cubes", "count"),
    ("enumeration.obdd_cubes", "count"),
    ("enumeration.dpll_cube_literals", "count"),
    ("enumeration.tableaux_cube_literals", "count"),
    ("enumeration.obdd_cube_literals", "count"),
    ("enumeration.verify_s", "s"),
    ("enumeration.limit_errors", "count"),
    ("quantified.shannon_s", "s"),
    ("quantified.exists_validates_s", "s"),
    ("quantified.exists_entails_s", "s"),
    ("quantified.validates_calls", "count"),
    ("predabs.enumerate_s", "s"),
    ("predabs.compare_s", "s"),
    ("predabs.sat_checks", "count"),
    ("predabs.cubes_validating", "count"),
    ("predabs.cubes_entailing", "count"),
    ("cli.run_s", "s"),
    ("cli.spawn_s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
]

# span name -> metric fed by its self time / by its span count
SELF_TIME = {
    "formula.parse": "formula.parse_s",
    "semantics.eval3": "semantics.eval3_s",
    "semantics.residual": "semantics.residual_s",
    "semantics.sweep": "semantics.sweep_s",
    "partial_sat.entails": "partial_sat.entails_s",
    "cnfize.tseitin": "cnfize.tseitin_s",
    "cnfize.loss": "cnfize.loss_s",
    "cnfize.dimacs": "cnfize.dimacs_s",
    "enumeration.first_assignment": "enumeration.first_assignment_s",
    "enumeration.dpll": "enumeration.dpll_s",
    "enumeration.tableaux": "enumeration.tableaux_s",
    "enumeration.obdd_build": "enumeration.obdd_build_s",
    "enumeration.obdd_walk": "enumeration.obdd_walk_s",
    "enumeration.verify": "enumeration.verify_s",
    "quantified.shannon": "quantified.shannon_s",
    "quantified.exists_validates": "quantified.exists_validates_s",
    "quantified.exists_entails": "quantified.exists_entails_s",
    "predabs.enumerate": "predabs.enumerate_s",
    "predabs.compare": "predabs.compare_s",
    "cli.run": "cli.run_s",
}
SPAN_COUNT = {
    "semantics.eval3": "semantics.eval3_calls",
    "semantics.residual": "semantics.residual_calls",
    "semantics.sweep": "semantics.sweep_calls",
    "partial_sat.validates": "partial_sat.validates_calls",
    "partial_sat.entails": "partial_sat.entails_calls",
    "cnfize.tseitin": "cnfize.tseitin_calls",
    "enumeration.first_assignment": "enumeration.first_assignment_calls",
}


# ------------------------------------------------ outside-in formula walks


def _children(node):
    arg = getattr(node, "arg", None)
    if arg is not None:
        return (arg,)
    left = getattr(node, "left", None)
    return () if left is None else (left, node.right)


def _nodes(f) -> int:
    count, stack = 0, [f]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(_children(node))
    return count


def _atom_names(*formulas) -> set[str]:
    found, stack = set(), list(formulas)
    while stack:
        node = stack.pop()
        atom = getattr(node, "atom", None)
        if atom is not None:
            found.add(atom.name)
        stack.extend(_children(node))
    return found


def _clauses(cnf) -> int:
    """Leaves of the top-level conjunction tree."""
    count, stack = 0, [cnf]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "And":
            stack.extend((node.left, node.right))
        else:
            count += 1
    return count


def _add(key, fn):
    def record(counts, *payload):
        counts[key] += fn(*payload)
    return record


# --------------------------------------------------------------- install


def install(tracer: Tracer, ps) -> None:
    """Wrap the importing bindings of every layer.  `ps` is the imported
    `partialsat` package with its `cli` submodule loaded."""
    P, C, E, Q, PA, CLI = (ps.partial_sat, ps.cnfize, ps.enumeration, ps.quantified,
                           ps.predabs, ps.cli)
    limit = ps.ResourceLimitError
    parse_nodes = _add("formula.parse_nodes", _nodes)

    def nodes_of_result(t, result):
        t.defer(parse_nodes, result)

    def nodes_of_matrix(t, result):
        t.defer(parse_nodes, result.matrix)

    def wrap_all(owners, attr, span, **kw):
        for owner in owners:
            tracer.wrap(owner, attr, span, **kw)

    # formula
    wrap_all((ps, PA), "parse", "formula.parse", on_result=nodes_of_result)
    tracer.wrap(CLI, "parse_existential", "formula.parse", on_result=nodes_of_matrix)
    tracer.wrap(C, "classify", None, on_call=_bump("formula.classify_calls"))

    # semantics
    wrap_all((P, C), "eval3", "semantics.eval3")
    wrap_all((P, E, C, Q, PA, CLI), "residual", "semantics.residual")
    rows = _add("semantics.sweep_rows_bound", lambda *fs: 1 << len(_atom_names(*fs)))

    def sweep_rows(t, args, kwargs):
        t.defer(rows, args[0])

    def sweep_rows2(t, args, kwargs):
        t.defer(rows, args[0], args[1])

    tracer.wrap(P, "first_falsifying", "semantics.sweep", on_call=sweep_rows)
    tracer.wrap(C, "brute_satisfiable", "semantics.sweep", on_call=sweep_rows)
    wrap_all((E, PA), "brute_equivalent", "semantics.sweep", on_call=sweep_rows2)

    def sat_check(t, args, kwargs):
        t.counts["predabs.sat_checks"] += 1
        t.defer(rows, args[0])

    tracer.wrap(PA, "brute_satisfiable", "semantics.sweep", on_call=sat_check)
    tracer.wrap(Q, "sat_total", None, on_call=_bump("semantics.sat_total_calls"))

    # partial_sat: `validates` is read by `verdict` and lazily by
    # `verify_enumeration`; `_entails_with_witness` is what `verdict`,
    # `entails` and the entailment-loss check call
    wrap_all((P, C), "validates", "partial_sat.validates")
    tracer.wrap(Q, "validates", None, on_call=_bump("quantified.validates_calls"))
    wrap_all((P, C), "_entails_with_witness", "partial_sat.entails",
             limit_key="partial_sat.limit_errors", limit_error=limit)
    wrap_all((ps, CLI), "verdict", "partial_sat.verdict")

    # cnfize: `tseitin` is also looked up lazily by the DPLL refutation
    def tseitin_out(t, result):
        t.defer(_add("cnfize.fresh_atoms", len), result.fresh_atoms)
        t.defer(_add("cnfize.clauses", _clauses), result.cnf)

    def loss_out(t, result):
        t.counts["cnfize.loss_deltas"] += len(result.cases)

    wrap_all((C, ps, CLI), "tseitin", "cnfize.tseitin", on_result=tseitin_out)
    for name in ("check_validation_loss", "check_entailment_loss"):
        wrap_all((ps, CLI), name, "cnfize.loss", on_result=loss_out)
    wrap_all((ps, CLI), "to_dimacs", "cnfize.dimacs")

    # enumeration
    lim = {"limit_key": "enumeration.limit_errors", "limit_error": limit}

    def cubes_out(engine):
        def record(t, result):
            t.counts[f"enumeration.{engine}_cubes"] += len(result.assignments)
            t.counts[f"enumeration.{engine}_cube_literals"] += sum(
                len(mu) for mu in result.assignments)
        return record

    def obdd_nodes(t, bdd):
        t.defer(_add("enumeration.obdd_nodes", _bdd_size), bdd)

    tracer.wrap(E, "dpll_first_assignment", "enumeration.first_assignment", **lim)
    wrap_all((ps, CLI), "dpll_enumerate", "enumeration.dpll", on_result=cubes_out("dpll"), **lim)
    wrap_all((ps, CLI), "tableaux_enumerate", "enumeration.tableaux",
             on_result=cubes_out("tableaux"), **lim)
    wrap_all((ps, CLI), "build_obdd", "enumeration.obdd_build", on_result=obdd_nodes, **lim)
    wrap_all((ps, CLI), "obdd_enumerate", "enumeration.obdd_walk", on_result=cubes_out("obdd"))
    tracer.wrap(CLI, "verify_enumeration", "enumeration.verify", **lim)

    # quantified
    wrap_all((CLI, PA), "shannon_expand", "quantified.shannon")
    wrap_all((CLI, PA), "exists_validates", "quantified.exists_validates")
    wrap_all((CLI, PA), "exists_entails", "quantified.exists_entails")

    # predabs
    def abstraction_out(t, result):
        t.counts[f"predabs.cubes_{result.mode}"] += len(result.assignments)

    def compare_out(t, result):
        t.counts["predabs.cubes_validating"] += result.cube_count_validating
        t.counts["predabs.cubes_entailing"] += result.cube_count_entailing

    tracer.wrap(CLI, "enumerate_abstraction", "predabs.enumerate", on_result=abstraction_out)
    tracer.wrap(CLI, "compare_modes", "predabs.compare", on_result=compare_out)

    # cli
    tracer.wrap(CLI, "run", "cli.run")


def _bump(key):
    def record(t, args, kwargs):
        t.counts[key] += 1
    return record


def _bdd_size(bdd) -> int:
    """Internal nodes reachable from the root, walked through `node`."""
    seen, stack = set(), [bdd.root]
    while stack:
        u = stack.pop()
        if u < 2 or u in seen:
            continue
        seen.add(u)
        _, low, high = bdd.node(u)
        stack.extend((low, high))
    return len(seen)


def reduce(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of a finished run
    (`trace.*`, `cli.spawn_s` and `formula.deep_inputs_decided` are filled
    in by the runner)."""
    tracer.finish()
    out = {name: 0 for name, _ in METRICS}
    for span, total in tracer.self_times().items():
        if span in SELF_TIME:
            out[SELF_TIME[span]] += total
    for span, n in tracer.call_counts().items():
        if span in SPAN_COUNT:
            out[SPAN_COUNT[span]] += n
    for key, n in tracer.counts.items():
        out[key] += n
    return out
