"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal. Every check is exact (integer or rational
equality) except the finite-difference cross-check, whose tolerance is
a relative error of 1e-6.
"""

import random
from fractions import Fraction
from itertools import product

from diffops.chains import enumerate_chains
from diffops.closedform import (
    charpoly_a_closed,
    charpoly_b_closed,
    charpoly_computed,
    check_bridge_identity,
    check_charpoly_recurrence,
    count_closed_form_r3,
    fibonacci,
)
from diffops.exactalg import count_order_k
from diffops.opgraph import build_space
from diffops.sequences import OEIS_IDS, make_record, oeis_compare, recurrence_table, verify_recurrence
from diffops.symcalc3 import (
    DEFAULT_DIRECTION,
    grad,
    gateaux,
    verify_identities,
)

from paper_data import (
    SECOND_ORDER_A3,
    SECOND_ORDER_B3,
    TABLE_A,
    TABLE_B,
    THIRD_ORDER_A3,
    THIRD_ORDER_B3,
    cayley_table,
)
from r3_reference import evaluate, random_poly3


def report(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}  {label}{tail}", flush=True)
    assert ok, f"{label}{tail}"


def test_c1_r3_counts_match_closed_forms():
    a3 = build_space(3, "A")
    b3 = build_space(3, "B")
    ok = [count_order_k(a3, k) for k in (1, 2, 3)] == [3, 5, 8]
    ok = ok and [count_order_k(b3, k) for k in (1, 2, 3)] == [4, 8, 16]
    for k in range(1, 201):
        ok = ok and count_order_k(a3, k) == fibonacci(k + 3) == count_closed_form_r3(k, "A")
        ok = ok and count_order_k(b3, k) == 2 ** (k + 1) == count_closed_form_r3(k, "B")
    report("C1 counts on R^3: f(k)=F(k+3), g(k)=2^(k+1), exact to k=200", ok)


def test_c2_chain_list_golden_sets():
    a3 = build_space(3, "A")
    b3 = build_space(3, "B")
    ok = {c.ops for c in enumerate_chains(a3, 2)} == SECOND_ORDER_A3
    ok = ok and {c.ops for c in enumerate_chains(a3, 3)} == THIRD_ORDER_A3
    ok = ok and {c.ops for c in enumerate_chains(b3, 2)} == SECOND_ORDER_B3
    ok = ok and {c.ops for c in enumerate_chains(b3, 3)} == THIRD_ORDER_B3
    report("C2 chain lists equal the four displayed sets (5, 8, 8, 16 chains)", ok)


def test_c3_cayley_table_b3():
    table = cayley_table(build_space(3, "B"))
    expected = (
        (True, True, False, False),
        (False, False, True, True),
        (False, False, True, True),
        (True, True, False, False),
    )
    report("C3 Cayley table for (B, n=3) reproduced bit-exactly", table == expected)


def test_c4_recurrence_tables():
    ok = True
    for family, table in (("A", TABLE_A), ("B", TABLE_B)):
        specs = recurrence_table(family, 3, 10)
        for n, spec in zip(range(3, 11), specs):
            ok = ok and spec.coefficients == table[n]
            record = make_record(family, n, 50)
            ok = ok and verify_recurrence(record, 50)
    report("C4 derived recurrences match all 16 table rows and annihilate terms", ok)


def test_c5_charpoly_identities():
    ok = all(check_charpoly_recurrence(n, f) for n in range(7, 31) for f in ("A", "B"))
    ok = ok and all(check_bridge_identity(n) for n in range(5, 31))
    ok = ok and all(charpoly_a_closed(n) == charpoly_computed(n, "A") for n in range(3, 31))
    ok = ok and all(charpoly_b_closed(n) == charpoly_computed(n, "B") for n in range(3, 31))
    report("C5 char-poly recurrences (7..30), bridge (5..30), closed forms (3..30)", ok)


def test_c6_oracle_equivalence():
    ok = True
    for family, n, k in product(("A", "B"), range(3, 9), range(1, 11)):
        space = build_space(n, family)
        ok = ok and len(enumerate_chains(space, k)) == count_order_k(space, k)
    report("C6 brute-force enumeration count = matrix-power count (n<=8, k<=10)", ok)


def test_c7_symbolic_identity_suite():
    rep = verify_identities(trials=25, max_degree=4, seed=7)
    ok = rep.passed
    rng = random.Random(123)
    for _ in range(10):
        f = random_poly3(rng, 4)
        ok = ok and gateaux(f, DEFAULT_DIRECTION) == grad(f).dot(DEFAULT_DIRECTION.e)
    report(
        "C7 nine zero-identities on 25 seeded fields, witnesses, exact directional derivative",
        ok,
        rep.summary,
    )


def test_c8_oeis_fixture_agreement():
    ok = True
    ids_seen = set()
    for (family, n), sid in sorted(OEIS_IDS.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        record = make_record(family, n, 30)
        result = oeis_compare(record)
        ids_seen.add(sid)
        ok = ok and result.passed and result.matched_terms >= 20
    ok = ok and len(ids_seen) == 12
    report("C8 computed terms match all 12 bundled sequence fixtures (>=20 terms)", ok)


def test_c9_numeric_cross_check():
    rng = random.Random(2024)
    h = 1e-4
    cases = 0
    ok = True
    while cases < 20:
        f = random_poly3(rng, 4)
        axis = rng.randrange(3)
        point = [Fraction(rng.randint(-8, 8), 4) for _ in range(3)]
        exact = float(evaluate(f.diff(axis), point))
        if abs(exact) < 0.1:
            continue
        cases += 1
        up = [float(x) for x in point]
        down = [float(x) for x in point]
        up[axis] += h
        down[axis] -= h
        fd = float(evaluate(f, up) - evaluate(f, down)) / (2 * h)
        ok = ok and abs(fd - exact) / abs(exact) < 1e-6
    report("C9 symbolic derivatives vs central differences, 20 cases, rel err < 1e-6", ok)
