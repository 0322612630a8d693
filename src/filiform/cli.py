"""Command-line front end: gen, dims, check, verify-oracle, fixture.

Exit codes: 0 success/verified, 1 verification failed, 2 usage error,
3 I/O error.  All output is deterministic for fixed arguments.  Each command
imports the modules it runs when it runs, so `--help` loads no other module
of the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext

X_MODE_FLAG = {"free": "free", "0": "fixed-0", "1": "fixed-1"}
# the families of oracle.known_solution, here so that the parser needs no oracle
KNOWN_FAMILIES = ("m2", "L1", "mk", "L1-lacuna2")


def _sink(path: str | None):
    # a file opens only as the block starts, after the caller's refusals; stdout stays open
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")


def _write(text: str, path: str | None) -> None:
    with _sink(path) as out:
        out.write(text)


def cmd_gen(args) -> int:
    from . import serialize, systems
    writer = getattr(serialize, f"write_system_{args.format}")
    if args.dim is not None:
        # an unset --x reads as free
        system = systems.EquationSystem(args.dim, X_MODE_FLAG[args.x or "free"])
    elif args.x is not None:
        raise ValueError("--x applies only to --dim; a truncated system has no marker")
    else:
        system = systems.EquationSystem(args.truncate, "fixed-0", truncated=True)
    with _sink(args.output) as out:
        writer(system, out.write)
    return 0


def cmd_dims(args) -> int:
    from . import systems
    # dims_report raises unless closed forms, partition sums and enumeration agree
    report = systems.dims_report(args.dim)
    num_vars, num_eqs = report["num_vars"], report["num_eqs"]
    lines = [
        f"dimension: {args.dim}",
        f"num_vars: {num_vars} (closed form {num_vars}, enumerated {num_vars})",
        f"num_eqs: {num_eqs} (closed form {num_eqs}, enumerated {num_eqs})",
        "h2 by weight: " + ", ".join(
            f"{w} -> {d}" for w, d in report["h2_by_weight"].items()),
        "h3 by weight: " + ", ".join(
            f"{w} -> {d}" for w, d in report["h3_by_weight"].items()),
    ]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs, refusing a repeated key where json keeps the last."""
    if repeated := [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]:
        raise ValueError(f"assignment file repeats the key {repeated[0]!r} in one object")
    return dict(pairs)


def _load_assignment(args) -> dict:
    from . import oracle, serialize
    if args.k is not None and args.known != "mk":
        raise ValueError("--k applies only to --known mk")
    if args.known is not None:
        if args.known == "mk" and args.k is None:
            raise ValueError("--known mk needs --k")
        # the largest m with x_{m,0} (L1) or x_{m,2} (L1-lacuna2) in the inventory
        bound = {"L1": (args.dim - 1) // 2, "L1-lacuna2": (args.dim - 3) // 2}.get(args.known)
        return oracle.known_solution(args.known, 1, k=args.k, bound=bound)
    with open(args.assign, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"assignment file is not valid JSON: {exc}") from None
    return serialize.parse_assignment(doc)


def cmd_check(args) -> int:
    from . import oracle, serialize, systems
    from .polynomials import var_key, var_text
    system = systems.EquationSystem(args.dim)  # refuses a dimension below 9 first
    assignment = _load_assignment(args)
    stray = set(assignment) - set(system.variables)
    if stray:
        names = ", ".join(var_text(v) for v in sorted(stray, key=var_key))
        raise ValueError(f"variables outside the inventory of dimension {args.dim}: {names}")
    residuals = systems.residuals(system, assignment)
    structure = oracle.deformed_structure(assignment, args.dim)
    defects = oracle.jacobi_scan(structure)
    report = serialize.report_doc(system.system_id, assignment, residuals, defects)
    _write(serialize.canonical_json(report), args.report)
    return 0 if report["verdict"] == "verified" else 1


def cmd_verify_oracle(args) -> int:
    from . import oracle, systems
    if args.max_total is not None:
        system = systems.EquationSystem(args.max_total, "fixed-0", truncated=True)
    else:
        system = systems.EquationSystem(args.dim)
    diffs = []
    for eq in system:
        # the oracle expands over conclusive_inventory of the label, with the
        # marker on top rows only; truncated rows are never tilde
        mine = oracle.oracle_coefficient(*eq.label, with_top=eq.tilde)
        if mine != eq.poly:
            diffs.append((eq, mine))
    lines = [f"# {system.system_id}: {len(system)} labels compared, {len(diffs)} diffs"]
    for eq, mine in diffs:
        lines.append(f"label {eq.label}:")
        lines.append(f"  closed form: {eq.poly.text()}")
        lines.append(f"  oracle:      {mine.text()}")
    _write("\n".join(lines) + "\n", args.output)
    return 0 if not diffs else 1


def cmd_fixture(args) -> int:
    from . import lie, serialize
    structure = lie.make_fixture(args.name, args.dim, k=args.k, s=args.s, base=args.base)
    _write(serialize.canonical_json(serialize.fixture_doc(structure)), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filiform",
        description="Generate and verify the quadratic systems describing "
                    "deformations of the chain nilpotent Lie algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit an equation system")
    size = gen.add_mutually_exclusive_group(required=True)
    size.add_argument("--dim", type=int, help="finite variety dimension n >= 9")
    size.add_argument("--truncate", type=int,
                      help="total-index bound for the truncated system")
    gen.add_argument("--x", choices=sorted(X_MODE_FLAG), default=None,
                     help="marker handling for even dimensions")
    gen.add_argument("--format", choices=("text", "json", "cas"), default="text")
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=cmd_gen)

    dims = sub.add_parser("dims", help="report variable/equation counts")
    dims.add_argument("--dim", type=int, required=True)
    dims.add_argument("--output", default=None)
    dims.set_defaults(func=cmd_dims)

    check = sub.add_parser("check", help="evaluate an assignment on a system")
    check.add_argument("--dim", type=int, required=True)
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("--known", choices=KNOWN_FAMILIES)
    source.add_argument("--assign", help="JSON assignment file")
    check.add_argument("--k", type=int, default=None,
                       help="index for the mk family")
    check.add_argument("--report", default=None,
                       help="write the JSON report here instead of stdout")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify-oracle",
                            help="compare closed forms against brute force")
    bound = verify.add_mutually_exclusive_group(required=True)
    bound.add_argument("--max-total", type=int)
    bound.add_argument("--dim", type=int)
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=cmd_verify_oracle)

    fixture = sub.add_parser("fixture", help="emit a stock structure table")
    fixture.add_argument("--name", required=True)
    fixture.add_argument("--dim", type=int, required=True)
    fixture.add_argument("--k", type=int, default=None)
    fixture.add_argument("--s", type=int, default=None)
    fixture.add_argument("--base", default=None)
    fixture.add_argument("--output", default=None)
    fixture.set_defaults(func=cmd_fixture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
