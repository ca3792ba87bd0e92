"""Independent expected answers for every benchmark request.

Everything the package computes is recomputed here by another route,
outside the timed region:

- walk counts and per-start counts: explicit matrix powers (repeated
  squaring) of an adjacency matrix built here from the composition rule;
- characteristic polynomials: the binomial closed forms;
- counting-sequence terms and recurrences: the bundled fixture files,
  extended by the closed-form recurrence (Cayley-Hamilton);
- chain enumeration: a direct product over the relation; vanishing: the
  paper's partition of the B3 chains of orders 2 and 3 (a longer chain is
  the zero operator iff one of its windows is);
- R^3 fields: a small differentiator over term dicts, and a direct
  term-by-term Laplacian for div grad;
- CLI output: JSON is parsed and its exact fields checked against the
  above; every valid argv's stdout must match, by digest, the same argv
  run through cli.main in this process.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import workloads
from workloads import chains, holds, ops_of
from worker import direction_of, field_terms, hexint, run_cli_inprocess

# The paper's nine zero identities and the fifteen meaningful B3
# compositions of orders 2 and 3 that are not zero (leftmost-first; 0 is
# the directional derivative, 1 grad, 2 curl, 3 div).
ZERO_CHAINS = ((2, 1), (3, 2), (2, 2, 1), (3, 2, 1), (3, 2, 2), (1, 3, 2), (2, 1, 3), (2, 1, 0), (0, 3, 2))
NONZERO_CHAINS = (
    (3, 1), (2, 2), (1, 3), (0, 0), (1, 0), (0, 3), (1, 3, 1), (2, 2, 2), (3, 1, 3),
    (0, 0, 0), (1, 0, 0), (3, 1, 0), (0, 3, 1), (0, 0, 3), (1, 0, 3),
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "diffops" / "fixtures"
OEIS_BY_SPACE = {(fam, n): sid for sid, fam, n in workloads.OEIS_PAIRS}


class OracleError(Exception):
    """The reference data disagree with each other; the benchmark is broken."""


# ---------------------------------------------------------------------------
# Operation graph and counts
# ---------------------------------------------------------------------------

def signature(family: str, n: int, i: int) -> tuple[int, int]:
    """(domain set, codomain set) of nabla_i."""
    m = n // 2
    if i == 0:
        return 0, 0
    if i <= m:
        return i - 1, i
    if n % 2 == 1 and i == m + 1:
        return m, m
    return n - i + 1, n - i


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


@lru_cache(maxsize=256)
def per_start(family: str, n: int, k: int) -> tuple[int, ...]:
    """Column sums of M^(k-1): the number of k-chains ending in each op."""
    ops = ops_of(family, n)
    base = [[int(holds(family, n, i, j)) for j in ops] for i in ops]
    power = [[int(r == c) for c in range(len(ops))] for r in range(len(ops))]
    e = k - 1
    while e:
        if e & 1:
            power = _mat_mul(power, base)
        e >>= 1
        if e:
            base = _mat_mul(base, base)
    return tuple(map(sum, zip(*power)))


def count(family: str, n: int, k: int) -> int:
    return sum(per_start(family, n, k))


# ---------------------------------------------------------------------------
# Polynomials, terms, recurrences
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def closed_poly(family: str, n: int) -> tuple[int, ...]:
    """Closed-form characteristic polynomial, lowest degree first."""
    from diffops.closedform import charpoly_a_closed, charpoly_b_closed

    return (charpoly_a_closed if family == "A" else charpoly_b_closed)(n).coeffs


def _annihilates(coeffs, terms) -> bool:
    return all(
        terms[k - 1] == sum(c * terms[k - 1 - i] for i, c in enumerate(coeffs, 1))
        for k in range(len(coeffs) + 1, len(terms) + 1)
    )


@lru_cache(maxsize=None)
def _fixture_prefix(family: str, n: int) -> tuple[int, ...]:
    """Fixture terms aligned so that entry t is the count at k = t + 1."""
    sid = OEIS_BY_SPACE[(family, n)]
    lines = (FIXTURES / f"{sid}.txt").read_text(encoding="utf-8").splitlines()
    ref = [int(t) for t in lines[1].split(",")]
    first = [count(family, n, k) for k in range(1, 11)]
    for shift in sorted(range(-3, 4), key=lambda s: (abs(s), s)):
        if shift >= 0 and ref[shift:shift + 10] == first:
            return tuple(ref[shift:])
        if shift < 0 and ref[:10 + shift] == first[-shift:]:
            return tuple(first[:-shift] + ref)
    raise OracleError(f"fixture {sid} does not match family {family}, n={n}")


@lru_cache(maxsize=64)
def terms(family: str, n: int, upto: int) -> tuple[int, ...]:
    """Counts for k = 1..upto: fixture terms, then the closed-form recurrence."""
    p = closed_poly(family, n)
    d = len(p) - 1
    seq = list(_fixture_prefix(family, n))
    full = [-p[d - i] for i in range(1, d + 1)]
    grown = seq[:d]
    while len(grown) < max(upto, len(seq)):
        grown.append(sum(c * grown[-i] for i, c in enumerate(full, 1)))
    if grown[:len(seq)] != seq:
        raise OracleError(f"fixture for family {family}, n={n} breaks the closed-form recurrence")
    return tuple(grown[:upto])


@lru_cache(maxsize=None)
def recurrence(family: str, n: int) -> tuple[int, ...]:
    """The closed-form recurrence with trailing zero coefficients trimmed
    while it still annihilates the first d + 25 terms."""
    p = closed_poly(family, n)
    d = len(p) - 1
    coeffs = tuple(-p[d - i] for i in range(1, d + 1))
    seq = terms(family, n, d + 25)
    while len(coeffs) > 1 and coeffs[-1] == 0 and _annihilates(coeffs[:-1], seq):
        coeffs = coeffs[:-1]
    return coeffs


# ---------------------------------------------------------------------------
# Chains and R^3 calculus
# ---------------------------------------------------------------------------

def vanishes(ops) -> bool:
    ops = tuple(ops)
    return any(ops[i:i + w] in ZERO_CHAINS for w in (2, 3) for i in range(len(ops) - w + 1))


def chain_signature(family: str, n: int, ops) -> list[int]:
    return [signature(family, n, ops[-1])[0], signature(family, n, ops[0])[1]]


def _clean(p: dict) -> dict:
    return {e: c for e, c in p.items() if c}


def _d(p: dict, i: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        if e[i]:
            key = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[key] = out.get(key, 0) + c * e[i]
    return _clean(out)


def _lin(*pairs) -> dict:
    """Linear combination sum(c * p) of term dicts."""
    out: dict = {}
    for c, p in pairs:
        for e, v in p.items():
            out[e] = out.get(e, 0) + c * v
    return _clean(out)


def _apply(op: int, field: list, e) -> list:
    if op == 0:
        (f,) = field
        return [_lin(*((e[i], _d(f, i)) for i in range(3)))]
    if op == 1:
        (f,) = field
        return [_d(f, i) for i in range(3)]
    f1, f2, f3 = field
    if op == 2:
        return [
            _lin((1, _d(f3, 1)), (-1, _d(f2, 2))),
            _lin((1, _d(f1, 2)), (-1, _d(f3, 0))),
            _lin((1, _d(f2, 0)), (-1, _d(f1, 1))),
        ]
    return [_lin((1, _d(f1, 0)), (1, _d(f2, 1)), (1, _d(f3, 2)))]


def laplacian(f: dict) -> dict:
    """Sum of second partials, term by term."""
    out: dict = {}
    for e, c in f.items():
        for i in range(3):
            if e[i] >= 2:
                key = e[:i] + (e[i] - 2,) + e[i + 1:]
                out[key] = out.get(key, 0) + c * e[i] * (e[i] - 1)
    return _clean(out)


def compose(req: dict) -> list:
    field = [_clean(t) for t in field_terms(req)]
    if req["ops"] == [3, 1]:
        field = [laplacian(field[0])]
    else:
        e = direction_of(req)
        for op in reversed(req["ops"]):
            field = _apply(op, field, e)
    return [sorted([*e, str(Fraction(c))] for e, c in comp.items()) for comp in field]


# ---------------------------------------------------------------------------
# Expected responses
# ---------------------------------------------------------------------------

def expected(req: dict):
    """The canonical response the package must give for an in-process request."""
    op, fam, n = req["op"], req.get("family"), req.get("n")
    if op == "count":
        return hexint(count(fam, n, req["k"]))
    if op == "per_start":
        return {str(i): hexint(c) for i, c in zip(ops_of(fam, n), per_start(fam, n, req["k"]))}
    if op == "closed_form":
        return {"poly": [hexint(c) for c in closed_poly(fam, n)], "matched": True}
    if op in ("recurrence_identity", "bridge"):
        return True
    if op == "record":
        return {
            "terms": [hexint(t) for t in terms(fam, n, req["terms"])],
            "recurrence": [hexint(c) for c in recurrence(fam, n)],
            "oeis_id": OEIS_BY_SPACE.get((fam, n)),
            "verified": True,
        }
    if op == "derive":
        return [hexint(c) for c in recurrence(fam, n)]
    if op == "enumerate":
        return [[list(c), chain_signature(fam, n, c), vanishes(c)] for c in chains(fam, n, req["k"])]
    if op == "identities":
        return {
            "zero": [[list(c), True] for c in ZERO_CHAINS],
            "witness": [[list(c), True] for c in NONZERO_CHAINS],
            "passed": True,
        }
    if op == "compose":
        return compose(req)
    raise ValueError(f"unknown request op {op!r}")


def _check_cli_json(argv: list[str], payload: dict) -> bool:
    """Exact fields of a JSON response against the independent answers."""
    cmd = argv[0]
    fam, dim = workloads.option(argv, "--family"), workloads.option(argv, "--dim")
    dim = int(dim) if dim is not None else None
    if cmd == "count":
        k = int(workloads.option(argv, "--order"))
        ok = payload["count"] == str(count(fam, dim, k))
        if "--per-start" in argv:
            ok = ok and payload["per_start"] == {
                str(i): str(c) for i, c in zip(ops_of(fam, dim), per_start(fam, dim, k))
            }
        return ok
    if cmd == "enumerate":
        want = chains(fam, dim, int(workloads.option(argv, "--order")))
        marks = "--mark-zeros" in argv
        got = [(tuple(c["ops"]), c["signature"], c["vanishes_identically"]) for c in payload["chains"]]
        return payload["count"] == str(len(want)) and got == [
            (c, chain_signature(fam, dim, c), vanishes(c) if marks else None) for c in want
        ]
    if cmd == "charpoly":
        return payload["coefficients"] == [str(c) for c in closed_poly(fam, dim)] and payload["closed_form_match"]
    if cmd == "recurrence":
        return payload["coefficients"] == [str(c) for c in recurrence(fam, dim)] and payload["verified"]
    if cmd == "table":
        lo, hi = (int(x) for x in workloads.option(argv, "--dims").split(".."))
        fams = [fam] if fam else ["A", "B"]
        want = [(f, m, [str(c) for c in recurrence(f, m)]) for f in fams for m in range(lo, hi + 1)]
        return [(r["family"], r["n"], r["coefficients"]) for r in payload["rows"]] == want
    if cmd == "verify-identities":
        return (
            payload["passed"]
            and [(tuple(c["ops"]), c["holds"]) for c in payload["zero_identities"]] == [(c, True) for c in ZERO_CHAINS]
            and [(tuple(c["ops"]), c["witnessed"]) for c in payload["nonzero_witnesses"]]
            == [(c, True) for c in NONZERO_CHAINS]
        )
    if cmd == "oeis":
        return bool(payload["comparisons"]) and all(c["passed"] for c in payload["comparisons"])
    raise ValueError(f"unknown subcommand {cmd!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_cli(req: dict, resp: dict) -> str:
    """'ok', 'error' (the exit-code contract is broken or a traceback was
    printed) or 'wrong' (an exit-0 answer differs from the reference)."""
    if resp["traceback"] or resp["exit"] != req["expect"]:
        return "error"
    if req["expect"] != workloads.EXIT_OK:
        return "ok"
    reference = run_cli_inprocess(req["argv"])
    if reference["exit"] != resp["exit"] or digest(reference["stdout"]) != digest(resp["stdout"]):
        return "wrong"
    if workloads.option(req["argv"], "--format") == "json":
        try:
            if not _check_cli_json(req["argv"], json.loads(resp["stdout"])):
                return "wrong"
        except (ValueError, KeyError, TypeError):
            return "wrong"
    return "ok"


def check(req: dict, resp) -> str:
    """Outcome of one request: 'ok', 'error' or 'wrong'."""
    if req["op"] == "cli":
        return check_cli(req, resp)
    if isinstance(resp, dict) and "error" in resp:
        return "error"
    return "ok" if resp == expected(req) else "wrong"


def is_valid(req: dict) -> bool:
    """False for the deliberately invalid CLI argv."""
    return req["op"] != "cli" or req["expect"] == workloads.EXIT_OK
