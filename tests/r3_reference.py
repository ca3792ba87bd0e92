"""Rational reference fields, point evaluation and a second route for
div grad on R^3.

The identity suite draws its fields as 6 × random_poly3 in integers
(symcalc3._random_int_poly3); the tests compare it against these
rational fields, built through the validating Poly3 constructor.
"""

from fractions import Fraction
from itertools import product

from diffops.symcalc3 import Poly3, VecField3


def random_poly3(rng, max_degree):
    """Seed-reproducible polynomial: one draw of num in -9..9 and den in
    {1, 2, 3} per monomial of degree <= max_degree, in a fixed order, gives
    the coefficient num / den; zero draws are dropped by the constructor."""
    terms = {}
    for exps in product(range(max_degree + 1), repeat=3):
        if sum(exps) <= max_degree:
            terms[exps] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
    return Poly3(terms)


def random_vecfield3(rng, max_degree):
    return VecField3(*(random_poly3(rng, max_degree) for _ in range(3)))


def laplacian_direct(f):
    """Sum of second partials computed term-by-term, independent of diff():
    a second route for the div grad composition."""
    out = {}
    for e, c in f.terms.items():
        for i in range(3):
            if e[i] < 2:
                continue
            d = list(e)
            d[i] -= 2
            key = tuple(d)
            out[key] = out.get(key, Fraction(0)) + c * e[i] * (e[i] - 1)
    return Poly3(out)


def evaluate(f, point):
    """The exact value of f at a point; float coordinates are converted
    exactly, so only the caller's rounding enters a numeric check."""
    p = tuple(Fraction(x) for x in point)
    total = Fraction(0)
    for e, c in f.terms.items():
        total += c * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
    return total
