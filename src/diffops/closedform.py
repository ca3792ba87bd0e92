"""Closed forms and identities for the characteristic polynomials.

The adjacency matrices of both families admit explicit binomial-sum
characteristic polynomials and a shared two-step recurrence; this module
evaluates those forms exactly and checks them against the computed
polynomials, which come from the small function-set matrix times the
Sylvester factor λ^(d-r) (see exactalg.walk_char_poly). All summation
limits are taken literally as given; boundary terms vanish through the convention that a
binomial coefficient with a lower index outside 0..top is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ComputationError, InvalidArgumentError, InvalidDimensionError, InvalidOrderError
from .exactalg import IntPolynomial, walk_char_poly
from .opgraph import Family, build_space


def _binom(top: int, low: int) -> int:
    if low < 0 or low > top:
        return 0
    return comb(top, low)


def _poly_from_terms(terms: dict[int, int], n: int) -> IntPolynomial:
    """Assemble a polynomial from exponent -> coefficient, rejecting any
    non-vanishing term with a negative exponent."""
    coeffs = [0] * (max(terms) + 1 if terms else 1)
    for exp, c in terms.items():
        if c == 0:
            continue
        if exp < 0:
            raise ComputationError(
                f"non-zero coefficient {c} at negative exponent {exp} (n={n})"
            )
        coeffs[exp] += c
    p = IntPolynomial(coeffs)
    if p.leading == -1:
        p = -p
    if p.leading != 1:
        raise ComputationError(f"closed form not monic up to sign (n={n}): {p!r}")
    return p


def _add(terms: dict[int, int], exp: int, c: int) -> None:
    if c:
        terms[exp] = terms.get(exp, 0) + c


def charpoly_a_closed(n: int) -> IntPolynomial:
    """Binomial-sum closed form for the family-A characteristic polynomial."""
    if n < 3:
        raise InvalidDimensionError(f"dimension must be >= 3, got {n}")
    terms: dict[int, int] = {}
    if n % 2 == 0:
        for k in range(1, (n + 2) // 4 + 2):
            sign = -1 if k % 2 == 0 else 1
            _add(terms, n - 2 * k + 2, sign * _binom(n // 2 - k + 2, k - 1))
    else:
        for k in range(1, (n + 2) // 4 + 3):
            sign = -1 if k % 2 == 0 else 1
            top = (n + 3) // 2 - k
            _add(terms, n - 2 * k + 2, sign * _binom(top, k - 1))
            _add(terms, n - 2 * k + 3, sign * _binom(top, k - 2))
    return _poly_from_terms(terms, n)


def charpoly_b_closed(n: int) -> IntPolynomial:
    """Binomial-sum closed form for the family-B characteristic polynomial."""
    if n < 3:
        raise InvalidDimensionError(f"dimension must be >= 3, got {n}")
    terms: dict[int, int] = {}
    if n % 2 == 1:
        for k in range(1, n // 4 + 2):
            sign = -1 if k % 2 == 0 else 1
            _add(terms, n - 2 * k + 2, sign * _binom((n + 1) // 2 - k, k - 1))
        base = _poly_from_terms(terms, n)
        # prefactor (λ - 2)
        return base.shifted(1) - 2 * base
    for k in range(1, (n + 3) // 4 + 3):
        sign = -1 if k % 2 == 0 else 1
        top = n // 2 - k + 2
        _add(terms, n - 2 * k + 3, sign * _binom(top, k - 1))
        _add(terms, n - 2 * k + 4, sign * _binom(top, k - 2))
    return _poly_from_terms(terms, n)


def charpoly_computed(n: int, family) -> IntPolynomial:
    """Characteristic polynomial of the adjacency matrix, computed exactly
    from the function-set matrix."""
    return walk_char_poly(build_space(n, family))


@dataclass(frozen=True)
class ClosedFormResult:
    n: int
    family: Family
    polynomial: IntPolynomial
    computed: IntPolynomial

    @property
    def matched_computed(self) -> bool:
        return self.polynomial == self.computed


def closed_form_result(n: int, family) -> ClosedFormResult:
    """Evaluate the closed form next to the computed characteristic
    polynomial; matched_computed compares them coefficient-by-coefficient."""
    fam = Family.coerce(family)
    closed = charpoly_a_closed(n) if fam is Family.A else charpoly_b_closed(n)
    return ClosedFormResult(n, fam, closed, charpoly_computed(n, fam))


def check_charpoly_recurrence(n: int, family) -> bool:
    """Two-step recurrence of the characteristic polynomials:
    p_n = λ^2 (p_{n-2} - p_{n-4}), same shape for both families."""
    fam = Family.coerce(family)
    if n < 7:
        raise InvalidDimensionError(
            f"recurrence check needs n >= 7 for its base cases, got {n}"
        )
    p = charpoly_computed(n, fam)
    p2 = charpoly_computed(n - 2, fam)
    p4 = charpoly_computed(n - 4, fam)
    return p == (p2 - p4).shifted(2)


def check_bridge_identity(n: int) -> bool:
    """Cross-family identity relating the two characteristic polynomials
    at the same dimension.

    In the det(M - λI) convention it reads Q_n = λ^2 P_{n-2} - λ P_n.
    This package is monic throughout, and Q_n has order n+1 while P_n has
    order n, so converting both sides flips exactly one global sign:
    here the identity is checked as Q_n = λ P_n - λ^2 P_{n-2}.
    """
    if n < 5:
        raise InvalidDimensionError(
            f"bridge identity needs n >= 5 for its base cases, got {n}"
        )
    p_n = charpoly_computed(n, Family.A)
    p_n2 = charpoly_computed(n - 2, Family.A)
    q_n = charpoly_computed(n, Family.B)
    return q_n == p_n.shifted(1) - p_n2.shifted(2)


def fibonacci(m: int) -> int:
    """Fibonacci numbers with F(1) = F(2) = 1."""
    if m < 1:
        raise InvalidArgumentError(f"Fibonacci index must be >= 1, got {m}")
    a, b = 1, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return a


def count_closed_form_r3(k: int, family) -> int:
    """Closed-form composition counts in three dimensions:
    family A gives F(k+3), family B gives 2^(k+1)."""
    if k < 1:
        raise InvalidOrderError(f"composition order must be >= 1, got {k}")
    fam = Family.coerce(family)
    if fam is Family.A:
        return fibonacci(k + 3)
    return 2 ** (k + 1)
