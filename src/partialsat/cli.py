"""Batch command-line interface.

Exit codes: 0 success, 1 semantic false (single-predicate `check` only),
2 usage error, 3 resource limit exceeded.  Output is deterministic for
fixed inputs; `--json` switches every verb to a JSON document on stdout.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assignment import Assignment, parse_assignment
from .cnfize import (
    check_entailment_loss,
    check_validation_loss,
    to_dimacs,
    tseitin,
)
from .enumeration import (
    build_obdd,
    dpll_enumerate,
    obdd_enumerate,
    tableaux_enumerate,
    verify_enumeration,
)
from .errors import PartialSatError, ResourceLimitError
from .formula import Atom
from .partial_sat import verdict
from .predabs import compare_modes, enumerate_abstraction, problem_from_json
from .quantified import (
    exists_entails,
    exists_validates,
    parse_existential,
    shannon_expand,
)
from .semantics import residual


def _add_formula_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", "-f", help="formula text")
    group.add_argument("--file", help="path to a file holding the formula")


def _formula_text(args: argparse.Namespace) -> str:
    if args.formula is not None:
        return args.formula
    return Path(args.file).read_text()


def _assignment_of(args: argparse.Namespace) -> Assignment:
    return parse_assignment(getattr(args, "assign", None) or "")


def _literal_strings(mu: Assignment | None) -> list[str] | None:
    if mu is None:
        return None
    return [str(lit) for lit in mu.literals()]


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialsat",
        description=(
            "Check, residuate, and enumerate partial truth assignments of "
            "propositional formulas under validating and entailing semantics."
        ),
    )
    subparsers = parser.add_subparsers(dest="verb", required=True)

    check = subparsers.add_parser(
        "check",
        help="decide whether an assignment validates/entails a formula "
        "(use an 'exists B1 . <formula>' input for the lifted checks)",
    )
    _add_formula_source(check)
    check.add_argument("--assign", "-a", default="", help="partial assignment, e.g. 'A1, !A3'")
    check.add_argument(
        "--mode",
        choices=("validates", "entails", "both"),
        default="both",
        help="which predicate to decide; single modes exit 1 on a false answer",
    )
    check.add_argument("--json", action="store_true")
    check.add_argument("--max-atoms", type=int, default=None)
    check.add_argument("--branch-budget", type=int, default=None)
    check.add_argument("--expansion-cap", type=int, default=None)

    res = subparsers.add_parser(
        "residual", help="print the formula simplified under an assignment"
    )
    _add_formula_source(res)
    res.add_argument("--assign", "-a", default="")
    res.add_argument("--json", action="store_true")

    enum = subparsers.add_parser(
        "enumerate",
        help="list partial satisfying assignments (obdd: entailing; "
        "tableaux/dpll: validating)",
    )
    _add_formula_source(enum)
    enum.add_argument(
        "--engine", choices=("obdd", "tableaux", "dpll"), required=True
    )
    enum.add_argument(
        "--order", default=None, help="comma-separated atom order (obdd only)"
    )
    enum.add_argument(
        "--dedup",
        action="store_true",
        help="drop duplicate/subsumed assignments (tableaux only)",
    )
    enum.add_argument(
        "--verify",
        action="store_true",
        help="re-check mode predicates, disjointness, and coverage",
    )
    enum.add_argument("--json", action="store_true")
    enum.add_argument("--max-atoms", type=int, default=None)
    enum.add_argument("--node-budget", type=int, default=None)
    enum.add_argument("--branch-budget", type=int, default=None)

    cnf = subparsers.add_parser(
        "cnfize",
        help="Tseitin CNF-ization; optionally report what a partial "
        "assignment loses under it",
    )
    _add_formula_source(cnf)
    cnf.add_argument("--assign", "-a", default="")
    cnf.add_argument(
        "--check-loss",
        choices=("validating", "entailing"),
        default=None,
        help="sweep fresh-atom assignments for loss of the given verdict",
    )
    cnf.add_argument("--dimacs-out", default=None, help="write DIMACS CNF to this path")
    cnf.add_argument("--json", action="store_true")
    cnf.add_argument("--max-atoms", type=int, default=None)
    cnf.add_argument("--sweep-cap", type=int, default=None)
    cnf.add_argument("--branch-budget", type=int, default=None)

    sh = subparsers.add_parser(
        "shannon",
        help="expand 'exists B1 B2 . <formula>' into a disjunction of residuals",
    )
    _add_formula_source(sh)
    sh.add_argument("--keep-bot-disjuncts", action="store_true")
    sh.add_argument("--json", action="store_true")
    sh.add_argument("--expansion-cap", type=int, default=None)

    pa = subparsers.add_parser(
        "predabs",
        help="enumerate a predicate abstraction as label cubes",
    )
    pa.add_argument("--problem", required=True, help="problem JSON file")
    pa.add_argument(
        "--mode", choices=("validating", "entailing"), required=True
    )
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--max-atoms", type=int, default=None)
    pa.add_argument("--expansion-cap", type=int, default=None)

    cp = subparsers.add_parser(
        "compare",
        help="run both predicate-abstraction modes and compare sizes",
    )
    cp.add_argument("--problem", required=True, help="problem JSON file")
    cp.add_argument("--json", action="store_true")
    cp.add_argument("--max-atoms", type=int, default=None)
    cp.add_argument("--expansion-cap", type=int, default=None)
    return parser


def _run_check(args: argparse.Namespace) -> int:
    ef = parse_existential(_formula_text(args))
    mu = _assignment_of(args)
    delta = None
    witness = None
    if ef.quantified:
        v, delta = exists_validates(mu, ef, args.expansion_cap)
        e, witness = exists_entails(mu, ef, args.max_atoms, args.expansion_cap)
    else:
        sv = verdict(
            mu,
            ef.matrix,
            atom_cap=args.max_atoms,
            branch_budget=args.branch_budget,
        )
        v, e, witness = sv.validates, sv.entails, sv.witness
    lines: list[str] = []
    payload: dict = {}
    if args.mode in ("validates", "both"):
        lines.append(f"validates: {_bool_text(v)}")
        payload["validates"] = v
        if delta is not None:
            lines.append(f"delta: {delta}")
            payload["delta"] = _literal_strings(delta)
    if args.mode in ("entails", "both"):
        lines.append(f"entails: {_bool_text(e)}")
        payload["entails"] = e
        if witness is not None:
            lines.append(f"witness: {witness}")
            payload["witness"] = _literal_strings(witness)
    if args.json:
        _emit_json(payload)
    else:
        print("\n".join(lines))
    if args.mode == "validates":
        return 0 if v else 1
    if args.mode == "entails":
        return 0 if e else 1
    return 0


def _run_residual(args: argparse.Namespace) -> int:
    from .formula import parse

    f = parse(_formula_text(args))
    mu = _assignment_of(args)
    r = residual(f, mu)
    if args.json:
        _emit_json(
            {
                "formula": str(f),
                "assign": _literal_strings(mu),
                "residual": str(r),
            }
        )
    else:
        print(r)
    return 0


def _parse_order(text: str) -> tuple[Atom, ...]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError("--order must list at least one atom name")
    return tuple(Atom(name) for name in names)


def _run_enumerate(args: argparse.Namespace) -> int:
    from .formula import parse

    f = parse(_formula_text(args))
    if args.order is not None and args.engine != "obdd":
        raise ValueError("--order applies only to --engine obdd")
    if args.dedup and args.engine != "tableaux":
        raise ValueError("--dedup applies only to --engine tableaux")
    if args.engine == "obdd":
        order = _parse_order(args.order) if args.order else None
        result = obdd_enumerate(build_obdd(f, order, args.node_budget), f)
    elif args.engine == "tableaux":
        result = tableaux_enumerate(f, args.branch_budget, dedup=args.dedup)
    else:
        result = dpll_enumerate(f, args.branch_budget)
    report = (
        verify_enumeration(result, f, args.max_atoms) if args.verify else None
    )
    if args.json:
        payload = result.to_json_dict()
        if report is not None:
            payload["verification"] = {
                "ok": report.ok,
                "mode_violations": list(report.mode_violations),
                "disjointness_violations": (
                    None
                    if report.disjointness_violations is None
                    else [list(pair) for pair in report.disjointness_violations]
                ),
                "covers": report.covers,
            }
        _emit_json(payload)
    else:
        for line in result.to_text_lines():
            print(line)
        if report is not None:
            print(f"verified: {_bool_text(report.ok)}")
    return 0


def _loss_report_lines(report) -> list[str]:
    lines = [f"loss: {_bool_text(report.loss)}"]
    for case in report.cases:
        delta = str(case.delta) or "(empty)"
        line = f"delta {delta}: {case.outcome}"
        if case.witness is not None:
            line += f" (witness: {case.witness})"
        lines.append(line)
    return lines


def _run_cnfize(args: argparse.Namespace) -> int:
    from .formula import parse

    f = parse(_formula_text(args))
    if args.check_loss is not None:
        mu = _assignment_of(args)
        if args.check_loss == "validating":
            report = check_validation_loss(mu, f, args.sweep_cap)
        else:
            report = check_entailment_loss(
                mu, f, args.sweep_cap, args.max_atoms, args.branch_budget
            )
        if args.json:
            _emit_json(
                {
                    "mode": report.mode,
                    "loss": report.loss,
                    "formula": str(report.original),
                    "cnf": str(report.cnf),
                    "fresh_atoms": [a.name for a in report.fresh_atoms],
                    "cases": [
                        {
                            "delta": _literal_strings(case.delta),
                            "outcome": case.outcome,
                            "witness": _literal_strings(case.witness),
                        }
                        for case in report.cases
                    ],
                }
            )
        else:
            print("\n".join(_loss_report_lines(report)))
        return 0
    result = tseitin(f)
    if args.dimacs_out is not None:
        Path(args.dimacs_out).write_text(to_dimacs(result.cnf))
    if args.json:
        _emit_json(
            {
                "formula": str(f),
                "cnf": str(result.cnf),
                "fresh_atoms": [a.name for a in result.fresh_atoms],
                "definitions": [
                    {"atom": atom.name, "def": str(definition)}
                    for atom, definition in result.definitions
                ],
            }
        )
    else:
        print(result.cnf)
    return 0


def _run_shannon(args: argparse.Namespace) -> int:
    ef = parse_existential(_formula_text(args))
    expansion = shannon_expand(
        ef, args.expansion_cap, keep_bot_disjuncts=args.keep_bot_disjuncts
    )
    if args.json:
        _emit_json(
            {
                "matrix": str(ef.matrix),
                "quantified": [a.name for a in sorted(ef.quantified)],
                "expansion": str(expansion),
            }
        )
    else:
        print(expansion)
    return 0


def _run_predabs(args: argparse.Namespace) -> int:
    problem = problem_from_json(Path(args.problem).read_text())
    result = enumerate_abstraction(
        problem, args.mode, args.expansion_cap, args.max_atoms
    )
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        for line in result.to_text_lines():
            print(line)
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    problem = problem_from_json(Path(args.problem).read_text())
    report = compare_modes(problem, args.expansion_cap, args.max_atoms)
    payload = {
        "cube_count_validating": report.cube_count_validating,
        "cube_count_entailing": report.cube_count_entailing,
        "total_literals_validating": report.total_literals_validating,
        "total_literals_entailing": report.total_literals_entailing,
        "equivalent": report.equivalent,
    }
    if args.json:
        _emit_json(payload)
    else:
        for key, value in payload.items():
            text = _bool_text(value) if isinstance(value, bool) else value
            print(f"{key}: {text}")
    return 0


_HANDLERS = {
    "check": _run_check,
    "residual": _run_residual,
    "enumerate": _run_enumerate,
    "cnfize": _run_cnfize,
    "shannon": _run_shannon,
    "predabs": _run_predabs,
    "compare": _run_compare,
}


def run(argv: list[str]) -> int:
    """Execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.verb](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: formula nesting exceeds the recursion limit", file=sys.stderr)
        return 3
    except (PartialSatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
