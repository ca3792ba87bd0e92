"""Command-line frontend.

Each subcommand returns its exit code and one result document, the dict
that `--format json` prints (`--format dot`: the DOT text); the text and
CSV forms are renderings of that document alone. Exit codes: 0 success,
1 internal error (including a failed verification report), 2 invalid
arguments, 3 a cap exceeded (the enumeration cap, or the interpreter's
limit on the decimal digits of a printed integer). Big integers are
serialized as decimal strings in JSON so exactness survives beyond
double-precision range; identical flags (including the seed) always
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .chains import DEFAULT_CAP, chain_name, enumerate_chains, export_tree_dot
from .closedform import closed_form_result
from .errors import (
    CapError, DiffOpsError, DigitLimitError, InvalidArgumentError, InvalidOperationError, UsageError,
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


def _count_symbol(family: Family) -> str:
    return "f" if family is Family.A else "g"


def cmd_count(args):
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
    doc = {
        "command": "count",
        "family": space.family.value,
        "dim": space.n,
        "order": args.order,
        "count": str(sum(vec)),
    }
    if args.per_start:
        doc["per_start"] = {str(i): str(c) for i, c in zip(space.ops, vec)}
    return 0, doc


def text_count(doc):
    yield doc["count"]
    for i, c in doc.get("per_start", {}).items():
        yield f"∇_{i}: {c}"


def cmd_enumerate(args):
    if args.mark_zeros and args.dim != 3:
        raise InvalidOperationError("zero marking is only available for dimension 3")
    if args.mark_zeros and args.format == "dot":
        raise InvalidArgumentError("zero marking is not available for DOT output")
    space = build_space(args.dim, args.family)
    if args.format == "dot":
        return 0, export_tree_dot(space, args.order, args.cap)
    chains = enumerate_chains(space, args.order, args.cap)
    if args.mark_zeros:
        chains = fill_vanishing(chains)
    # one row at a time: text output streams, JSON output lists them all
    rows = (
        {
            "ops": list(c.ops),
            "name": chain_name(c, space.n),
            "signature": list(c.signature),
            "vanishes_identically": c.vanishes_identically,
        }
        for c in chains
    )
    return 0, {
        "command": "enumerate",
        "family": space.family.value,
        "dim": space.n,
        "order": args.order,
        "count": str(len(chains)),
        "chains": rows,
    }


def text_enumerate(doc):
    for c in doc["chains"]:
        zero = " = 0⃗" if c["signature"][1] == 1 else " = 0"
        yield c["name"] + zero if c["vanishes_identically"] else c["name"]


def cmd_charpoly(args):
    res = closed_form_result(args.dim, args.family)
    return 0 if res.matched_computed else 1, {
        "command": "charpoly",
        "family": res.family.value,
        "dim": res.n,
        "degree": res.computed.degree,
        "coefficients": [str(c) for c in res.computed.coeffs],
        "display": format_poly(res.computed),
        "closed_form_match": res.matched_computed,
    }


def text_charpoly(doc):
    yield doc["display"]
    yield f"closed form: {'match' if doc['closed_form_match'] else 'MISMATCH'}"


def cmd_recurrence(args):
    record = make_record(args.family, args.dim, num_terms=args.upto)
    spec = record.recurrence
    verified = verify_recurrence(record, args.upto)
    return 0 if verified else 1, {
        "command": "recurrence",
        "family": record.family.value,
        "dim": record.n,
        "order": spec.order,
        "coefficients": [str(c) for c in spec.coefficients],
        "formula": format_recurrence(spec, _count_symbol(record.family)),
        "verified_upto": args.upto,
        "verified": verified,
    }


def text_recurrence(doc):
    yield doc["formula"]
    yield f"coefficients: [{', '.join(doc['coefficients'])}]"
    yield (
        f"verified against computed terms up to k={doc['verified_upto']}: "
        f"{'yes' if doc['verified'] else 'NO'}"
    )


def cmd_table(args):
    lo, hi = args.dims
    families = [Family.A, Family.B] if args.family is None else [args.family]
    return 0, {
        "command": "table",
        "rows": [
            {
                "family": fam.value,
                "n": n,
                "order": spec.order,
                "coefficients": [str(c) for c in spec.coefficients],
                "formula": format_recurrence(spec, _count_symbol(fam)),
            }
            for fam in families
            for n, spec in zip(range(lo, hi + 1), recurrence_table(fam, lo, hi))
        ],
    }


def text_table(doc):
    for r in doc["rows"]:
        yield f"{r['family']}  n={r['n']:<3} {r['formula']}"


def csv_table(doc):
    yield ["family", "n", "order", "coefficients", "formula"]
    for r in doc["rows"]:
        yield [r["family"], r["n"], r["order"], " ".join(r["coefficients"]), r["formula"]]


def cmd_verify_identities(args):
    report = verify_identities(trials=args.trials, max_degree=args.degree, seed=args.seed)
    return 0 if report.passed else 1, {
        "command": "verify-identities",
        "trials": report.trials,
        "max_degree": report.max_degree,
        "seed": report.seed,
        "zero_identities": [
            {"ops": list(c.ops), "name": c.name, "holds": c.holds} for c in report.zero_checks
        ],
        "nonzero_witnesses": [
            {"ops": list(c.ops), "name": c.name, "witnessed": c.witnessed}
            for c in report.witness_checks
        ],
        "passed": report.passed,
    }


def text_verify_identities(doc):
    zeros, witnesses = doc["zero_identities"], doc["nonzero_witnesses"]
    yield (
        f"{sum(c['holds'] for c in zeros)}/{len(zeros)} zero-identities hold "
        f"(trials={doc['trials']}, max degree={doc['max_degree']}, seed={doc['seed']})"
    )
    r3 = build_space(3, Family.B)
    for c in zeros:
        # the leftmost (last-applied) operation gives the result's kind
        target = "0⃗" if r3.cod(c["ops"][0]) == 1 else "0"
        yield f"  {c['name']} = {target}: {'holds' if c['holds'] else 'FAILS'}"
    yield f"{sum(c['witnessed'] for c in witnesses)}/{len(witnesses)} non-zero compositions witnessed"
    for c in witnesses:
        yield f"  {c['name']}: {'witnessed' if c['witnessed'] else 'NO WITNESS'}"


def cmd_oeis(args):
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
    results = [
        oeis_compare(make_record(fam, n, num_terms=args.terms), mode=mode) for fam, n in pairs
    ]
    return 0 if all(r.passed for r in results) else 1, {
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


def text_oeis(doc):
    for r in doc["comparisons"]:
        offset = f"offset {r['offset']:+d}" if r["offset"] is not None else "no alignment"
        yield (
            f"{doc['id']} vs (family {r['family']}, n={r['n']}): "
            f"{'match' if r['passed'] else 'MISMATCH'} "
            f"({r['matched_terms']} terms, {offset}, source={r['source']})"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffops",
        description="Exact enumeration of meaningful compositions of differential operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, text, space=True):
        """A subcommand; with space, it opens with --family and --dim."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, text=text)
        if space:
            p.add_argument("--family", type=_family, required=True)
            p.add_argument("--dim", type=int, required=True)
        return p

    p = command("count", "count meaningful k-th-order compositions", cmd_count, text_count)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--per-start", action="store_true")

    p = command("enumerate", "list the meaningful chains, or export the walk tree",
                cmd_enumerate, text_enumerate)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--mark-zeros", action="store_true",
                   help="annotate identically-zero chains (dimension 3 only)")

    command("charpoly", "characteristic polynomial and closed-form match", cmd_charpoly,
            text_charpoly)

    p = command("recurrence", "derived count recurrence and its verification", cmd_recurrence,
                text_recurrence)
    p.add_argument("--upto", type=int, default=50, help="verify terms up to this order")

    p = command("table", "recurrence table over a dimension range", cmd_table, text_table,
                space=False)
    p.add_argument("--dims", type=_dims, default=(3, 10), help="range N..M (default 3..10)")
    p.add_argument("--family", type=_family, default=None, help="restrict to one family")

    p = command("verify-identities", "symbolic composition-identity suite",
                cmd_verify_identities, text_verify_identities, space=False)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    p = command("oeis", "compare computed terms against a database sequence", cmd_oeis,
                text_oeis, space=False)
    p.add_argument("--id", required=True)
    p.add_argument("--online", action="store_true")
    p.add_argument("--family", type=_family, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--terms", type=int, default=30)

    # --format comes last in every subcommand's usage line
    extra = {"enumerate": ["dot"], "table": ["csv"]}
    for name, p in sub.choices.items():
        p.add_argument("--format", choices=["text", "json", *extra.get(name, [])], default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # rendering runs inside the try too, so every error keeps its exit code
    try:
        code, doc = args.func(args)
        if args.format == "json":
            # default=list materialises enumerate's lazy chain rows
            print(json.dumps(doc, sort_keys=True, indent=2, default=list))
        elif args.format == "dot":
            sys.stdout.write(doc)
        elif args.format == "csv":
            csv.writer(sys.stdout, lineterminator="\n").writerows(csv_table(doc))
        else:
            for line in args.text(doc):
                print(line)
        return code
    except (UsageError, CapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3
    except DiffOpsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
