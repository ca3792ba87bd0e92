"""Exact walk counts and characteristic polynomials, both computed on the
function sets A_0..A_m: one kernel (walk_vectors) serves every count, and
the characteristic polynomial comes from the small set matrix.

Everything here works over Python's arbitrary-precision integers: walk
counts grow like 2^k (and golden-ratio powers), so 64-bit arithmetic
would overflow near k = 60..90 while callers go to k = 200 and beyond.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ComputationError, InvalidOrderError


class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    Coefficients are stored lowest degree first with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, exp: int) -> int:
        return self.coeffs[exp] if 0 <= exp < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            [x + y for x, y in zip(a, b)] + list(a[len(b):])
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def shifted(self, t: int) -> "IntPolynomial":
        """Multiply by the t-th power of the variable."""
        if t < 0:
            raise ValueError("negative shift")
        if self.is_zero:
            return self
        return IntPolynomial((0,) * t + self.coeffs)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def format_poly(p: IntPolynomial, var: str = "λ") -> str:
    """Human-readable form, highest degree first, e.g. 'λ^4 - 2λ^3'."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp in range(p.degree, -1, -1):
        c = p.coefficient(exp)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if exp == 1 else f"{head}{var}^{exp}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def walk_vectors(space, k: int) -> Iterator[list[int]]:
    """Yield, for t = 1..k, the number of meaningful t-th-order compositions
    by last-applied operation (entry r belongs to space.ops[r]).

    Operation j may follow i exactly when cod(i) = dom(j), so each step
    pools the counts into their codomain sets and hands each operation
    the total of its domain set: O(order) additions, not a dense
    vector-matrix product. k < 1 raises on the first iteration.
    """
    if k < 1:
        raise InvalidOrderError(f"composition order must be >= 1, got {k}")
    ops = space.ops
    doms = [space.dom(i) for i in ops]
    cods = [space.cod(i) for i in ops]
    vec = [1] * len(ops)
    yield vec
    for _ in range(k - 1):
        into = [0] * (space.m + 1)
        for s, count in zip(cods, vec):
            into[s] += count
        vec = [into[s] for s in doms]
        yield vec


def count_order_k(space, k: int) -> int:
    """Number of meaningful k-th-order compositions over the given space:
    the total of the order-k walk vector."""
    for vec in walk_vectors(space, k):
        pass
    return sum(vec)


def walk_char_poly(space) -> IntPolynomial:
    """Characteristic polynomial det(λI - M) of the space's adjacency matrix.

    M = C·D with C[i][s] = [cod(ops[i]) = s] and D[s][j] = [dom(ops[j]) = s]
    over the r = m+1 function sets, so by Sylvester's determinant identity
    det(λI - M) = λ^(d-r) det(λI - T) for the r×r set matrix T = D·C, whose
    entry (s, t) counts the operations from A_s to A_t.
    """
    r = space.m + 1
    T = [[0] * r for _ in range(r)]
    for dom, cod in space.signatures.values():
        T[dom][cod] += 1
    return _faddeev_leverrier(T).shifted(space.order() - r)


def _faddeev_leverrier(T: list[list[int]]) -> IntPolynomial:
    """Monic det(λI - T) of a square integer matrix, given by its rows.

    Trace recursion: N_1 = T, c_k = -tr(N_k)/k, N_(k+1) = T·N_k + c_k·T.
    Every N_k stays integral and the only divisions are trace/k, which
    must be exact for an integer matrix. Divisibility is asserted, never
    rounded; a failure means a bug and aborts loudly.
    """
    d = len(T)
    coeffs_high = [1]
    N = T
    for k in range(1, d + 1):
        t = sum(N[i][i] for i in range(d))
        if t % k != 0:
            raise ComputationError(
                f"non-integral characteristic coefficient at step {k}: trace {t}"
            )
        c = -(t // k)
        coeffs_high.append(c)
        if k < d:
            cols = list(zip(*N))
            N = [
                [sum(a * b for a, b in zip(row, col)) + c * x for col, x in zip(cols, row)]
                for row in T
            ]
    return IntPolynomial(reversed(coeffs_high))
