"""Command-line frontend.

Exit codes: 0 success, 1 internal error (including a failed verification
report), 2 invalid arguments, 3 a cap exceeded (the enumeration cap, or the
interpreter's limit on the decimal digits of a printed integer). Big integers
are serialized as decimal strings in JSON so exactness survives beyond
double-precision range; identical flags (including the seed) always
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .chains import DEFAULT_CAP, PerStartCounts, chain_name, enumerate_chains, export_tree_dot
from .closedform import closed_form_result
from .errors import (
    CapError,
    DiffOpsError,
    DigitLimitError,
    InvalidArgumentError,
    InvalidOperationError,
    UsageError,
)
from .exactalg import format_poly, walk_vectors
from .opgraph import Family, build_space
from .sequences import (
    OEIS_IDS,
    fixture_ids,
    format_recurrence,
    id_associations,
    make_record,
    oeis_compare,
    recurrence_table,
    verify_recurrence,
)
from .symcalc3 import fill_vanishing, verify_identities


def _family(value: str) -> Family:
    try:
        return Family.coerce(value)
    except InvalidOperationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dims(value: str) -> tuple[int, int]:
    try:
        if ".." in value:
            lo, hi = value.split("..", 1)
            return int(lo), int(hi)
        n = int(value)
        return n, n
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension range {value!r}, expected N or N..M") from None


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _count_symbol(family: Family) -> str:
    return "f" if family is Family.A else "g"


def cmd_count(args) -> int:
    space = build_space(args.dim, args.family)
    # Per-start counts never exceed the total, so checking it covers them.
    # A limit of 0, or an interpreter older than 3.10.7, means no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # Every operation has a successor, so the totals never fall as the order
    # grows: once one reaches the limit, so does the last. Checking at
    # powers of two and at the last step refuses within twice the first
    # order past the limit, and costs an accepted count almost nothing.
    for k, vec in enumerate(walk_vectors(space, args.order), 1):
        if limit and (k & (k - 1) == 0 or k == args.order) and sum(vec) >= 10**limit:
            raise DigitLimitError(f"the count at order {args.order}", limit)
    ps = PerStartCounts(args.order, dict(zip(space.ops, vec)))
    payload = {
        "command": "count",
        "family": space.family.value,
        "dim": space.n,
        "order": args.order,
        "count": str(ps.total),
    }
    if args.per_start:
        payload["per_start"] = {str(i): str(c) for i, c in ps.counts.items()}
    if args.format == "json":
        _emit_json(payload)
    else:
        print(ps.total)
        if args.per_start:
            for i, c in ps.counts.items():
                print(f"∇_{i}: {c}")
    return 0


def cmd_enumerate(args) -> int:
    if args.mark_zeros and args.dim != 3:
        raise InvalidOperationError("zero marking is only available for dimension 3")
    if args.mark_zeros and args.format == "dot":
        raise InvalidArgumentError("zero marking is not available for DOT output")
    space = build_space(args.dim, args.family)
    if args.format == "dot":
        sys.stdout.write(export_tree_dot(space, args.order, args.cap))
        return 0
    chains = enumerate_chains(space, args.order, args.cap)
    if args.mark_zeros:
        chains = fill_vanishing(chains)
    if args.format == "json":
        _emit_json(
            {
                "command": "enumerate",
                "family": space.family.value,
                "dim": space.n,
                "order": args.order,
                "count": str(len(chains)),
                "chains": [
                    {
                        "ops": list(c.ops),
                        "name": chain_name(c, space.n),
                        "signature": list(c.signature),
                        "vanishes_identically": c.vanishes_identically,
                    }
                    for c in chains
                ],
            }
        )
    else:
        for c in chains:
            line = chain_name(c, space.n)
            if c.vanishes_identically:
                line += " = 0⃗" if c.signature[1] == 1 else " = 0"
            print(line)
    return 0


def cmd_charpoly(args) -> int:
    res = closed_form_result(args.dim, args.family)
    computed = res.computed
    match = "match" if res.matched_computed else "MISMATCH"
    if args.format == "json":
        _emit_json(
            {
                "command": "charpoly",
                "family": res.family.value,
                "dim": res.n,
                "degree": computed.degree,
                "coefficients": [str(c) for c in computed.coeffs],
                "display": format_poly(computed),
                "closed_form_match": res.matched_computed,
            }
        )
    else:
        print(format_poly(computed))
        print(f"closed form: {match}")
    return 0 if res.matched_computed else 1


def cmd_recurrence(args) -> int:
    record = make_record(args.family, args.dim, num_terms=args.upto)
    spec = record.recurrence
    verified = verify_recurrence(record, args.upto)
    symbol = _count_symbol(record.family)
    if args.format == "json":
        _emit_json(
            {
                "command": "recurrence",
                "family": record.family.value,
                "dim": record.n,
                "order": spec.order,
                "coefficients": [str(c) for c in spec.coefficients],
                "formula": format_recurrence(spec, symbol),
                "verified_upto": args.upto,
                "verified": verified,
            }
        )
    else:
        print(format_recurrence(spec, symbol))
        print(f"coefficients: {list(spec.coefficients)}")
        print(f"verified against computed terms up to k={args.upto}: {'yes' if verified else 'NO'}")
    return 0 if verified else 1


def cmd_table(args) -> int:
    lo, hi = args.dims
    families = [Family.A, Family.B] if args.family is None else [args.family]
    rows = [
        (fam, n, spec)
        for fam in families
        for n, spec in zip(range(lo, hi + 1), recurrence_table(fam, lo, hi))
    ]
    if args.format == "json":
        _emit_json(
            {
                "command": "table",
                "rows": [
                    {
                        "family": fam.value,
                        "n": n,
                        "order": spec.order,
                        "coefficients": [str(c) for c in spec.coefficients],
                        "formula": format_recurrence(spec, _count_symbol(fam)),
                    }
                    for fam, n, spec in rows
                ],
            }
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["family", "n", "order", "coefficients", "formula"])
        for fam, n, spec in rows:
            writer.writerow(
                [
                    fam.value,
                    n,
                    spec.order,
                    " ".join(str(c) for c in spec.coefficients),
                    format_recurrence(spec, _count_symbol(fam)),
                ]
            )
    else:
        for fam, n, spec in rows:
            print(f"{fam.value}  n={n:<3} {format_recurrence(spec, _count_symbol(fam))}")
    return 0


def cmd_verify_identities(args) -> int:
    report = verify_identities(trials=args.trials, max_degree=args.degree, seed=args.seed)
    if args.format == "json":
        _emit_json(
            {
                "command": "verify-identities",
                "trials": report.trials,
                "max_degree": report.max_degree,
                "seed": report.seed,
                "zero_identities": [
                    {
                        "ops": list(c.ops),
                        "name": c.name,
                        "holds": c.holds,
                    }
                    for c in report.zero_checks
                ],
                "nonzero_witnesses": [
                    {
                        "ops": list(c.ops),
                        "name": c.name,
                        "witnessed": c.witnessed,
                    }
                    for c in report.witness_checks
                ],
                "passed": report.passed,
            }
        )
    else:
        print(
            f"{report.zero_held}/{len(report.zero_checks)} zero-identities hold "
            f"(trials={report.trials}, max degree={report.max_degree}, seed={report.seed})"
        )
        for c in report.zero_checks:
            target = "0⃗" if c.result_kind == 1 else "0"
            print(f"  {c.name} = {target}: {'holds' if c.holds else 'FAILS'}")
        print(
            f"{report.witnessed_count}/{len(report.witness_checks)} non-zero compositions witnessed"
        )
        for c in report.witness_checks:
            print(f"  {c.name}: {'witnessed' if c.witnessed else 'NO WITNESS'}")
    return 0 if report.passed else 1


def cmd_oeis(args) -> int:
    sid = args.id
    if sid not in fixture_ids():
        raise InvalidArgumentError(f"unknown sequence id {sid!r}")
    if (args.family is None) != (args.dim is None):
        raise InvalidArgumentError("--family and --dim must be given together")
    if args.family is not None:
        if OEIS_IDS.get((args.family, args.dim)) != sid:
            raise InvalidArgumentError(
                f"{sid} is not the sequence of family {args.family.value}, n={args.dim}"
            )
        pairs = [(args.family, args.dim)]
    else:
        pairs = id_associations(sid)
    mode = "online" if args.online else "offline"
    results = []
    for fam, n in pairs:
        record = make_record(fam, n, num_terms=args.terms)
        results.append(oeis_compare(record, mode=mode))
    if args.format == "json":
        _emit_json(
            {
                "command": "oeis",
                "id": sid,
                "comparisons": [
                    {
                        "family": r.family.value,
                        "n": r.n,
                        "passed": r.passed,
                        "offset": r.offset,
                        "matched_terms": r.matched_terms,
                        "source": r.source,
                    }
                    for r in results
                ],
            }
        )
    else:
        for r in results:
            status = "match" if r.passed else "MISMATCH"
            offset = f"offset {r.offset:+d}" if r.offset is not None else "no alignment"
            print(
                f"{sid} vs (family {r.family.value}, n={r.n}): {status} "
                f"({r.matched_terms} terms, {offset}, source={r.source})"
            )
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffops",
        description="Exact enumeration of meaningful compositions of differential operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, extra=()):
        p.add_argument("--format", choices=["text", "json", *extra], default="text")

    p = sub.add_parser("count", help="count meaningful k-th-order compositions")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--per-start", action="store_true", dest="per_start")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list the meaningful chains, or export the walk tree")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--mark-zeros", action="store_true", dest="mark_zeros",
                   help="annotate identically-zero chains (dimension 3 only)")
    add_format(p, extra=("dot",))
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("charpoly", help="characteristic polynomial and closed-form match")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--dim", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("recurrence", help="derived count recurrence and its verification")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--upto", type=int, default=50, help="verify terms up to this order")
    add_format(p)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("table", help="recurrence table over a dimension range")
    p.add_argument("--dims", type=_dims, default=(3, 10), help="range N..M (default 3..10)")
    p.add_argument("--family", type=_family, default=None, help="restrict to one family")
    add_format(p, extra=("csv",))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify-identities", help="symbolic composition-identity suite")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("oeis", help="compare computed terms against a database sequence")
    p.add_argument("--id", required=True)
    p.add_argument("--online", action="store_true")
    p.add_argument("--family", type=_family, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--terms", type=int, default=30)
    add_format(p)
    p.set_defaults(func=cmd_oeis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DiffOpsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
