"""Batch command-line interface.

Exit codes: 0 success, 1 semantic false (single-predicate `check` only),
2 usage error, 3 resource limit exceeded.  Output is deterministic for
fixed inputs.  Each verb returns its JSON payload and its exit code; `run`
alone writes stdout: the JSON document under `--json`, else the text lines
it derives from the payload, and nothing on an error.  `run` resolves
each limit option of the verb once, before the verb runs, and the verb
passes those integers to every library call.  `check` refuses a limit
option on the command line (`args.given`) that its input or mode never reads.
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
from .formula import Atom, parse
from .partial_sat import validates, verdict
from .predabs import compare_modes, enumerate_abstraction, problem_from_json
from .quantified import (
    exists_entails,
    exists_validates,
    parse_existential,
    shannon_expand,
)
from .semantics import residual
from . import limits


def _add_formula_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", "-f", help="formula text")
    group.add_argument("--file", help="path to a file holding the formula")


def _add_json_and_limits(sub: argparse.ArgumentParser, *flags: str) -> None:
    """`--json`, then each integer budget or cap option, all optional."""
    sub.add_argument("--json", action="store_true")
    for flag in flags:
        sub.add_argument(flag, type=int, default=None)


def _formula_text(args: argparse.Namespace) -> str:
    if args.formula is not None:
        return args.formula
    return Path(args.file).read_text()


def _literal_strings(mu: Assignment | None) -> list[str] | None:
    return None if mu is None else list(mu.literals())


def _text(value) -> str:
    """A payload value as text: true/false, a comma-joined list, or str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return ", ".join(value) if isinstance(value, list) else str(value)


def _field_lines(payload: dict) -> list[str]:
    return [f"{key}: {_text(value)}" for key, value in payload.items()]


def _cube_lines(payload: dict) -> list[str]:
    """Each listed assignment as a cube, its literals joined by ` & ` (`true`
    when it binds nothing), then the verification verdict if there is one."""
    lines = [" & ".join(literals) or "true" for literals in payload["assignments"]]
    if "verification" in payload:
        lines.append(f"verified: {_text(payload['verification']['ok'])}")
    return lines


def _cnfize_lines(payload: dict) -> list[str]:
    if "cases" not in payload:
        return [payload["cnf"]]
    lines = [f"loss: {_text(payload['loss'])}"]
    for case in payload["cases"]:
        line = f"delta {_text(case['delta']) or '(empty)'}: {case['outcome']}"
        if case["witness"] is not None:
            line += f" (witness: {_text(case['witness'])})"
        lines.append(line)
    return lines


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
    _add_json_and_limits(check, "--max-atoms", "--branch-budget", "--expansion-cap")

    res = subparsers.add_parser(
        "residual", help="print the formula simplified under an assignment"
    )
    _add_formula_source(res)
    res.add_argument("--assign", "-a", default="")
    _add_json_and_limits(res)

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
    _add_json_and_limits(enum, "--max-atoms", "--node-budget", "--branch-budget")

    cnf = subparsers.add_parser(
        "cnfize",
        help="Tseitin CNF-ization; optionally report what a partial "
        "assignment loses under it",
    )
    _add_formula_source(cnf)
    cnf.add_argument("--assign", "-a", default=None, help="partial assignment; with --check-loss only")
    cnf.add_argument(
        "--check-loss",
        choices=("validating", "entailing"),
        default=None,
        help="sweep fresh-atom assignments for loss of the given verdict",
    )
    cnf.add_argument("--dimacs-out", default=None, help="write DIMACS CNF to this path")
    _add_json_and_limits(cnf, "--max-atoms", "--sweep-cap", "--branch-budget")

    sh = subparsers.add_parser(
        "shannon",
        help="expand 'exists B1 B2 . <formula>' into a disjunction of residuals",
    )
    _add_formula_source(sh)
    sh.add_argument("--keep-bot-disjuncts", action="store_true")
    _add_json_and_limits(sh, "--expansion-cap")

    pa = subparsers.add_parser(
        "predabs",
        help="enumerate a predicate abstraction as label cubes",
    )
    pa.add_argument("--problem", required=True, help="problem JSON file")
    pa.add_argument(
        "--mode", choices=("validating", "entailing"), required=True
    )
    _add_json_and_limits(pa, "--max-atoms", "--expansion-cap")

    cp = subparsers.add_parser(
        "compare",
        help="run both predicate-abstraction modes and compare sizes",
    )
    cp.add_argument("--problem", required=True, help="problem JSON file")
    _add_json_and_limits(cp, "--max-atoms", "--expansion-cap")
    return parser


def _run_check(args: argparse.Namespace) -> tuple[dict, int]:
    ef = parse_existential(_formula_text(args))
    validating = args.mode == "validates"
    for dest, refused, where in (("branch_budget", ef.quantified, "a formula without exists"),
                                 ("expansion_cap", not ef.quantified, "an exists formula"),
                                 ("max_atoms", validating, "--mode entails or both"),
                                 ("branch_budget", validating, "--mode entails or both")):
        if refused and dest in args.given:
            raise ValueError(f"--{dest.replace('_', '-')} applies only to {where}")
    mu = parse_assignment(args.assign)
    v = e = delta = witness = None
    if ef.quantified:
        if args.mode != "entails":
            v, delta = exists_validates(mu, ef, args.expansion_cap)
        if not validating:
            e, witness = exists_entails(mu, ef, args.max_atoms, args.expansion_cap)
    elif validating:
        v = validates(mu, ef.matrix)
    else:
        sv = verdict(mu, ef.matrix, atom_cap=args.max_atoms,
                     branch_budget=args.branch_budget)
        v, e, witness = sv.validates, sv.entails, sv.witness
    payload: dict = {}
    for key, value, name, extra in (("validates", v, "delta", delta),
                                    ("entails", e, "witness", witness)):
        if args.mode in (key, "both"):
            payload[key] = value
            if extra is not None:
                payload[name] = _literal_strings(extra)
    return payload, 0 if args.mode == "both" or payload[args.mode] else 1


def _run_residual(args: argparse.Namespace) -> tuple[dict, int]:
    f = parse(_formula_text(args))
    mu = parse_assignment(args.assign)
    r = str(residual(f, mu))
    return {"formula": str(f), "assign": _literal_strings(mu), "residual": r}, 0


def _parse_order(text: str) -> tuple[Atom, ...]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError("--order must list at least one atom name")
    return tuple(Atom(name) for name in names)


def _run_enumerate(args: argparse.Namespace) -> tuple[dict, int]:
    f = parse(_formula_text(args))
    if args.order is not None and args.engine != "obdd":
        raise ValueError("--order applies only to --engine obdd")
    if args.dedup and args.engine != "tableaux":
        raise ValueError("--dedup applies only to --engine tableaux")
    if args.engine == "obdd":
        order = None if args.order is None else _parse_order(args.order)
        result = obdd_enumerate(build_obdd(f, order, args.node_budget), f)
    elif args.engine == "tableaux":
        result = tableaux_enumerate(f, args.branch_budget, dedup=args.dedup)
    else:
        result = dpll_enumerate(f, args.branch_budget)
    payload = result.to_json_dict()
    if args.verify:
        report = verify_enumeration(result, f, args.max_atoms)
        payload["verification"] = {
            "ok": report.ok,
            "mode_violations": report.mode_violations,
            "disjointness_violations": report.disjointness_violations,
            "covers": report.covers,
        }
    return payload, 0


def _run_cnfize(args: argparse.Namespace) -> tuple[dict, int]:
    f = parse(_formula_text(args))
    if args.check_loss is None:
        if args.assign is not None:
            raise ValueError("--assign applies only with --check-loss")
        result = tseitin(f)
        if args.dimacs_out is not None:
            Path(args.dimacs_out).write_text(to_dimacs(result.cnf))
        return {
            "formula": str(f),
            "cnf": str(result.cnf),
            "fresh_atoms": [str(a) for a in result.fresh_atoms],
            "definitions": [
                {"atom": str(atom), "def": str(definition)}
                for atom, definition in result.definitions
            ],
        }, 0
    if args.dimacs_out is not None:
        raise ValueError("--dimacs-out applies only without --check-loss")
    mu = parse_assignment(args.assign or "")
    if args.check_loss == "validating":
        report = check_validation_loss(mu, f, args.sweep_cap)
    else:
        report = check_entailment_loss(
            mu, f, args.sweep_cap, args.max_atoms, args.branch_budget
        )
    return {
        "mode": report.mode,
        "loss": report.loss,
        "formula": str(report.original),
        "cnf": str(report.cnf),
        "fresh_atoms": [str(a) for a in report.fresh_atoms],
        "cases": [{"delta": _literal_strings(case.delta), "outcome": case.outcome,
                   "witness": _literal_strings(case.witness)} for case in report.cases],
    }, 0


def _run_shannon(args: argparse.Namespace) -> tuple[dict, int]:
    ef = parse_existential(_formula_text(args))
    expansion = str(shannon_expand(
        ef, args.expansion_cap, keep_bot_disjuncts=args.keep_bot_disjuncts
    ))
    return {
        "matrix": str(ef.matrix),
        "quantified": [str(a) for a in sorted(ef.quantified)],
        "expansion": expansion,
    }, 0


def _run_predabs(args: argparse.Namespace) -> tuple[dict, int]:
    problem = problem_from_json(Path(args.problem).read_text())
    result = enumerate_abstraction(
        problem, args.mode, args.expansion_cap, args.max_atoms
    )
    return result.to_json_dict(), 0


def _run_compare(args: argparse.Namespace) -> tuple[dict, int]:
    problem = problem_from_json(Path(args.problem).read_text())
    report = compare_modes(problem, args.expansion_cap, args.max_atoms)
    return {name: getattr(report, name) for name in report._field_names}, 0


# verb: (handler, the text lines of its payload)
_VERBS = {
    "check": (_run_check, _field_lines),
    "residual": (_run_residual, lambda payload: [payload["residual"]]),
    "enumerate": (_run_enumerate, _cube_lines),
    "cnfize": (_run_cnfize, _cnfize_lines),
    "shannon": (_run_shannon, lambda payload: [payload["expansion"]]),
    "predabs": (_run_predabs, _cube_lines),
    "compare": (_run_compare, _field_lines),
}


def run(argv: list[str]) -> int:
    """Execute one command; returns the process exit code.  This is the only
    code that writes stdout, after the verb has computed everything."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.given = {dest for dest, value in vars(args).items() if value is not None}
        for name in limits.DEFAULTS:  # --max-atoms is MAX_ATOMS, and so on
            dest = name.lower()
            if hasattr(args, dest):
                setattr(args, dest, limits.resolve(name, getattr(args, dest)))
        handler, text_lines = _VERBS[args.verb]
        payload, code = handler(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in text_lines(payload):
                print(line)
        return code
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
