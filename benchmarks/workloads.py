"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of rounds, and every round holds one
request per slot of the workload, in shuffled order. Each slot draws its
size parameters (u, v, w) in [0, 1)^3 from a Halton sequence in bases 2,
3 and 5, shifted by a random offset drawn from the seed (a randomised
quasi-Monte Carlo design). Any prefix of a few rounds then covers every
parameter range evenly, whatever the seed, so two seeds give different
requests but nearly the same amount of work per round, which keeps
throughput and latency comparable across seeds.

Nothing here imports the package under test: requests are plain dicts.
"""

from __future__ import annotations

import itertools
import math
import random

HALTON_BASES = (2, 3, 5)

FAMILIES = ("A", "B")

# Pythagorean unit directions for the directional derivative.
DIRECTIONS = ((3, 5, 4, 5, 0, 1), (0, 1, 3, 5, 4, 5), (2, 3, 1, 3, 2, 3), (1, 1, 0, 1, 0, 1))

# R^3 operation kinds: op -> (domain kind, codomain kind); 0 scalar, 1 vector.
R3_KINDS = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}

# Work budget of one count request: order^2 * k * (1 + k/4000) stays below
# it, so no count takes much over 0.3 s at baseline.
COUNT_BUDGET = 1.5e6
K_MIN, LARGE_K = 100, 10**4


def _int(u: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(u * (hi - lo + 1)))


def _log_int(u: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))))


def _radical_inverse(i: int, base: int) -> float:
    x, f = 0.0, 1.0
    while i:
        f /= base
        x += f * (i % base)
        i //= base
    return x


def _family(w: float) -> str:
    return FAMILIES[w >= 0.5]


def k_limit(family: str, n: int) -> int:
    """Largest k within COUNT_BUDGET for this space."""
    order = n + (family == "B")
    return int(2000 * (math.sqrt(1 + COUNT_BUDGET / order**2 / 1000) - 1))


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

def _counting(op, family):
    def make(rng, u, v, w):
        n = _int(u, 3, 40)
        return {"op": op, "family": family, "n": n, "k": _log_int(v, K_MIN, k_limit(family, n))}
    return make


def _large_k(rng, u, v, w):
    family = _family(w)
    n = _int(u, 3, 5)
    return {"op": "count", "family": family, "n": n, "k": _log_int(v, LARGE_K, k_limit(family, n))}


def _charpoly_op(op, n_hi):
    def make(rng, u, v, w):
        req = {"op": op, "family": _family(w), "n": _log_int(u, 10, n_hi)}
        if op == "bridge":
            req["family"] = "A"
        return req
    return make


def _record(rng, u, v, w):
    return {"op": "record", "family": _family(w), "n": _int(u, 3, 10), "terms": _int(v, 50, 200)}


def _derive(rng, u, v, w):
    return {"op": "derive", "family": _family(w), "n": _int(u, 3, 10)}


EXACT_SLOTS = (
    _counting("count", "A"),
    _counting("count", "B"),
    _counting("per_start", "A"),
    _counting("per_start", "B"),
    _large_k,
    _charpoly_op("closed_form", 48),
    # three characteristic polynomials per check, so n stops at 34
    _charpoly_op("recurrence_identity", 34),
    _charpoly_op("bridge", 34),
    _record,
    _derive,
)


# ---------------------------------------------------------------------------
# r3-symbolic
# ---------------------------------------------------------------------------

def ops_of(family: str, n: int) -> tuple[int, ...]:
    return tuple(range(0 if family == "B" else 1, n + 1))


def holds(family: str, n: int, i: int, j: int) -> bool:
    """'nabla_j after nabla_i' is meaningful: the paper's composition rule."""
    return j == i + 1 or i + j == n + 1 or (family == "B" and j == 0 and i in (0, n))


def chains(family: str, n: int, k: int) -> list[tuple[int, ...]]:
    """All meaningful k-chains, leftmost-first, sorted."""
    ops = ops_of(family, n)
    found = [
        tuple(reversed(seq))
        for seq in itertools.product(ops, repeat=k)
        if all(holds(family, n, seq[t], seq[t + 1]) for t in range(k - 1))
    ]
    return sorted(found)


def _enumerate(family):
    def make(rng, u, v, w):
        return {"op": "enumerate", "family": family, "n": 3, "k": _int(u, 2, 5)}
    return make


def _identities(rng, u, v, w):
    return {"op": "identities", "trials": _int(u, 5, 25), "degree": _int(v, 3, 6), "seed": rng.randrange(2**31)}


def _compose(rng, u, v, w, ops=None):
    if ops is None:
        candidates = chains("B", 3, _int(u, 1, 5))
        ops = candidates[min(len(candidates) - 1, int(w * len(candidates)))]
    return {
        "op": "compose",
        "family": "B",
        "n": 3,
        "ops": list(ops),
        "degree": _int(v, 2, 6),
        "field_seed": rng.randrange(2**31),
        "direction": list(rng.choice(DIRECTIONS)),
    }


def _div_grad(rng, u, v, w):
    return _compose(rng, u, v, w, ops=(3, 1))


R3_SLOTS = (_enumerate("A"), _enumerate("B"), _identities) + (_compose,) * 6 + (_div_grad,)


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

# (id, family, n) pairs with a bundled fixture, for `oeis --family --dim`.
OEIS_PAIRS = (
    ("A020701", "A", 3), ("A090989", "A", 4), ("A090990", "A", 5), ("A090991", "A", 6),
    ("A090992", "A", 7), ("A090993", "A", 8), ("A090994", "A", 9), ("A090995", "A", 10),
    ("A000079", "B", 3), ("A090990", "B", 4), ("A007283", "B", 5), ("A090992", "B", 6),
    ("A000079", "B", 7), ("A090994", "B", 8), ("A020714", "B", 9), ("A129638", "B", 10),
)

# The documented exit codes: 0 ok, 1 failed verification, 2 bad arguments,
# 3 cap exceeded.
EXIT_OK, EXIT_BAD_ARGS, EXIT_CAP = 0, 2, 3


def _argv(expect, *args):
    return {"op": "cli", "argv": [str(a) for a in args], "expect": expect}


def _cli_count(fmt, per_start):
    def make(rng, u, v, w):
        args = ["count", "--family", _family(w), "--dim", _int(u, 3, 12), "--order", _int(v, 1, 200)]
        args += ["--per-start"] * per_start + ["--format", fmt]
        return _argv(EXIT_OK, *args)
    return make


def _cli_enumerate(fmt, mark_zeros):
    def make(rng, u, v, w):
        dim = 3 if mark_zeros else _int(u, 3, 6 if fmt != "dot" else 5)
        args = ["enumerate", "--family", _family(w), "--dim", dim, "--order", _int(v, 2, 4)]
        args += ["--mark-zeros"] * mark_zeros + ["--format", fmt]
        return _argv(EXIT_OK, *args)
    return make


def _cli_charpoly(fmt):
    def make(rng, u, v, w):
        return _argv(EXIT_OK, "charpoly", "--family", _family(w), "--dim", _int(u, 3, 20), "--format", fmt)
    return make


def _cli_recurrence(fmt):
    def make(rng, u, v, w):
        return _argv(EXIT_OK, "recurrence", "--family", _family(w), "--dim", _int(u, 3, 8),
                     "--upto", _int(v, 20, 80), "--format", fmt)
    return make


def _cli_table(fmt):
    def make(rng, u, v, w):
        lo = _int(u, 3, 7)
        args = ["table", "--dims", f"{lo}..{min(8, lo + _int(v, 0, 3))}", "--format", fmt]
        family = (None, "A", "B")[int(w * 3)]
        return _argv(EXIT_OK, *args, *(["--family", family] if family else []))
    return make


def _cli_identities(fmt):
    def make(rng, u, v, w):
        # three trials or more, so that every nonzero chain finds a witness
        return _argv(EXIT_OK, "verify-identities", "--trials", _int(u, 3, 5), "--degree", _int(v, 3, 4),
                     "--seed", rng.randrange(1000), "--format", fmt)
    return make


def _cli_oeis(fmt, with_pair):
    def make(rng, u, v, w):
        sid, fam, n = OEIS_PAIRS[_int(u, 0, len(OEIS_PAIRS) - 1)]
        args = ["oeis", "--id", sid, "--terms", _int(v, 20, 40), "--format", fmt]
        if with_pair:
            args += ["--family", fam, "--dim", n]
        return _argv(EXIT_OK, *args)
    return make


# Invalid argv, a fixed share of every round. Four of these hit known CLI
# defects at the time the benchmark was written (see NOTES.md); they stay
# in the mix so that the fix shows as a lower error rate.
def _bad_dim(rng, u, v, w):
    return _argv(EXIT_BAD_ARGS, "count", "--family", _family(w), "--dim", _int(u, 0, 2), "--order", _int(v, 1, 50))


def _bad_order(rng, u, v, w):
    return _argv(EXIT_BAD_ARGS, "count", "--family", _family(w), "--dim", _int(u, 3, 12), "--order", 0)


def _over_cap(rng, u, v, w):
    return _argv(EXIT_CAP, "enumerate", "--family", "B", "--dim", 3, "--order", _int(v, 20, 40))


def _zero_trials(rng, u, v, w):
    return _argv(EXIT_BAD_ARGS, "verify-identities", "--trials", 0, "--seed", rng.randrange(1000))


def _low_degree(rng, u, v, w):
    return _argv(EXIT_BAD_ARGS, "verify-identities", "--trials", _int(u, 1, 5), "--degree", 1)


def _negative_cap(rng, u, v, w):
    return _argv(EXIT_BAD_ARGS, "enumerate", "--family", _family(w), "--dim", 3, "--order", _int(v, 1, 4),
                 "--cap", -_int(u, 1, 100))


def _reversed_dims(rng, u, v, w):
    lo = _int(u, 4, 10)
    return _argv(EXIT_BAD_ARGS, "table", "--dims", f"{lo}..{lo - _int(v, 1, 2)}")


CLI_SLOTS = (
    _cli_count("text", False), _cli_count("json", False), _cli_count("text", True), _cli_count("json", True),
    _cli_enumerate("text", True), _cli_enumerate("json", True), _cli_enumerate("dot", False),
    _cli_enumerate("json", False), _cli_enumerate("text", False),
    _cli_charpoly("text"), _cli_charpoly("json"),
    _cli_recurrence("text"), _cli_recurrence("json"),
    _cli_table("text"), _cli_table("json"), _cli_table("csv"),
    _cli_identities("text"), _cli_identities("json"),
    _cli_oeis("text", False), _cli_oeis("json", True),
    _bad_dim, _bad_order, _over_cap, _zero_trials, _low_degree, _negative_cap, _reversed_dims,
)

WORKLOADS = {"exact-algebra": EXACT_SLOTS, "r3-symbolic": R3_SLOTS, "cli-mix": CLI_SLOTS}


def stream(workload: str, seed: int):
    """Endless, seed-determined request stream for one workload."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    shifts = [[rng.random() for _ in HALTON_BASES] for _ in slots]
    for r in itertools.count():
        point = [_radical_inverse(r, b) for b in HALTON_BASES]
        round_ = [slot(rng, *((p + s) % 1.0 for p, s in zip(point, shift))) for slot, shift in zip(slots, shifts)]
        rng.shuffle(round_)
        yield from round_


def requests(workload: str, seed: int, count: int) -> list[dict]:
    gen = stream(workload, seed)
    return [next(gen) for _ in range(count)]


def round_size(workload: str) -> int:
    return len(WORKLOADS[workload])


def option(argv: list[str], flag: str):
    """The value that follows `flag` in an argv, or None."""
    return argv[argv.index(flag) + 1] if flag in argv else None


def cache_key(req: dict) -> tuple:
    """The (operation, family, n) key a memoising layer would see."""
    if req["op"] == "cli":
        argv = req["argv"]
        return argv[0], option(argv, "--family"), option(argv, "--dim")
    return req["op"], req.get("family"), req.get("n")


def properties(reqs: list[dict]) -> dict:
    """Workload-property counters over the requests actually run."""
    seen, repeats = set(), 0
    counts = large = 0
    for req in reqs:
        key = cache_key(req)
        repeats += key in seen
        seen.add(key)
        if req["op"] in ("count", "per_start"):
            counts += 1
            large += req["k"] >= LARGE_K
    return {
        "workload.key_repeat_share": repeats / len(reqs) if reqs else 0.0,
        "workload.large_k_share": large / counts if counts else 0.0,
    }
