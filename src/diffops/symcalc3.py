"""Exact symbolic vector calculus on R^3 over polynomial fields.

Polynomials with rational coefficients are the test universe: they are
closed under grad, curl, div and the directional derivative, and
equality against zero is decidable exactly, so the composition
identities ("curl grad f = 0" and friends) can be checked symbolically
instead of within a floating-point tolerance.

Every operation here is a homogeneous first-order differential operator
with constant coefficients, so a chain is the zero operator exactly when
the product of its principal symbols is the zero polynomial matrix. Those
products settle every order at once: a meaningful chain vanishes iff it
contains curl grad or div curl (see chain_vanishes).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Union

from .chains import CompositionChain, chain_name
from .errors import CompositionTypeError, InvalidArgumentError, InvalidDirectionError
from .opgraph import Family, build_space

Exponents = tuple[int, int, int]


class Poly3:
    """Sparse polynomial in three variables with exact rational coefficients.

    Terms map exponent triples to nonzero rationals, each an int or a
    Fraction; the zero polynomial has an empty term map. The constructor
    validates its input and stores Fractions. Int coefficients arise only
    inside verify_identities, whose integer fields keep every result of
    the calculus on native ints.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Exponents, Fraction] = {}
        for exps, c in (terms or {}).items():
            e = tuple(int(x) for x in exps)
            if len(e) != 3 or any(x < 0 for x in e):
                raise ValueError(f"bad exponent triple {exps!r}")
            c = Fraction(c)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, terms: dict[Exponents, Fraction]) -> "Poly3":
        """Wrap a term map that is already clean: unique triples of
        non-negative ints mapped to nonzero rationals (int or Fraction).
        Nothing is checked or copied; every result the calculus builds
        comes through here, so int coefficients stay ints."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly3 is immutable")

    @classmethod
    def zero(cls) -> "Poly3":
        return cls()

    @classmethod
    def constant(cls, c) -> "Poly3":
        return cls({(0, 0, 0): Fraction(c)})

    @classmethod
    def variable(cls, i: int) -> "Poly3":
        if i not in (0, 1, 2):
            raise ValueError("variable index must be 0, 1 or 2")
        exps = [0, 0, 0]
        exps[i] = 1
        return cls({tuple(exps): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly3) and self.terms == other.terms

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return Poly3._of(_merge(self.terms, other.terms, 1))

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        return Poly3._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return Poly3._of(_merge(self.terms, other.terms, -1))

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return Poly3._of(_merge(other.terms, self.terms, -1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly3._of({})
            return Poly3._of({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly3):
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return Poly3._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly3":
        """Exact partial derivative with respect to variable i (0-based).

        Lowering exponent i is injective on the terms it keeps, and each
        coefficient c * e[i] stays nonzero, so the result is already clean.
        """
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return Poly3._of(out)

    def evaluate(self, point) -> Fraction:
        p = tuple(Fraction(x) for x in point)
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            factors = [f"x{i + 1}" + (f"^{e[i]}" if e[i] > 1 else "") for i in range(3) if e[i]]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly3({self.terms!r})"


def _merge(
    left: dict[Exponents, Fraction], right: dict[Exponents, Fraction], sign: int
) -> dict[Exponents, Fraction]:
    """Clean term map of left + sign * right (sign is 1 or -1); terms that
    cancel are dropped."""
    out = dict(left)
    for e, c in right.items():
        s = out.get(e)
        if s is None:
            out[e] = c if sign > 0 else -c
        else:
            s = s + c if sign > 0 else s - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _as_poly(value) -> Optional[Poly3]:
    if isinstance(value, Poly3):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly3.constant(value)
    return None


class VecField3:
    """Vector field on R^3: a triple of Poly3 components."""

    __slots__ = ("components",)

    def __init__(self, f1, f2, f3):
        comps = tuple(_as_poly(f) for f in (f1, f2, f3))
        if any(c is None for c in comps):
            raise TypeError("components must be Poly3 or rational constants")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("VecField3 is immutable")

    @classmethod
    def zero(cls) -> "VecField3":
        return cls(Poly3.zero(), Poly3.zero(), Poly3.zero())

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, VecField3) and self.components == other.components

    def __add__(self, other: "VecField3") -> "VecField3":
        return VecField3(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VecField3") -> "VecField3":
        return VecField3(*(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VecField3":
        return VecField3(*(-c for c in self.components))

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return VecField3(*(c * scalar for c in self.components))
        return NotImplemented

    __rmul__ = __mul__

    def dot(self, vec) -> Poly3:
        """Dot product with a rational 3-vector. Int entries stay ints, so
        an int field dotted with an int vector has int coefficients."""
        acc = Poly3.zero()
        for c, v in zip(self.components, vec):
            acc = acc + c * (v if isinstance(v, int) else Fraction(v))
        return acc

    def __repr__(self) -> str:
        return f"VecField3({', '.join(str(c) for c in self.components)})"


Field = Union[Poly3, VecField3]


@dataclass(frozen=True)
class Direction:
    """Rational direction vector; unit_checked records an exact unit norm."""

    e: tuple[Fraction, Fraction, Fraction]
    unit_checked: bool


def direction(e1, e2, e3, strict: bool = True) -> Direction:
    """Build a direction. Strict mode requires an exact unit norm, so use
    rational Pythagorean tuples such as (3/5, 4/5, 0) for nontrivial tests;
    relaxed mode accepts any nonzero rational vector."""
    e = (Fraction(e1), Fraction(e2), Fraction(e3))
    if all(x == 0 for x in e):
        raise InvalidDirectionError("direction must be nonzero")
    norm2 = sum(x * x for x in e)
    if strict and norm2 != 1:
        raise InvalidDirectionError(f"not a unit vector: |e|^2 = {norm2}")
    return Direction(e, norm2 == 1)


DEFAULT_DIRECTION = direction(Fraction(3, 5), Fraction(4, 5), 0)


def grad(f: Poly3) -> VecField3:
    return VecField3(f.diff(0), f.diff(1), f.diff(2))


def curl(F: VecField3) -> VecField3:
    f1, f2, f3 = F.components
    return VecField3(
        f3.diff(1) - f2.diff(2),
        f1.diff(2) - f3.diff(0),
        f2.diff(0) - f1.diff(1),
    )


def div(F: VecField3) -> Poly3:
    f1, f2, f3 = F.components
    return f1.diff(0) + f2.diff(1) + f3.diff(2)


def gateaux(f: Poly3, e: Direction) -> Poly3:
    """Directional derivative: the gradient dotted with the direction."""
    return grad(f).dot(e.e)


# Domain and codomain set of each R^3 operation (scalar = set 0, vector = set 1).
_SIGNATURES = build_space(3, Family.B).signatures


def _kind_of(field: Field) -> int:
    if isinstance(field, Poly3):
        return 0
    if isinstance(field, VecField3):
        return 1
    raise CompositionTypeError(f"not a field: {field!r}")


def _check_chain(ops: tuple[int, ...], kind: Optional[int] = None) -> None:
    """Raise CompositionTypeError at the first step where ops, applied
    right-to-left to a field of the given kind (default: the domain of the
    first-applied operation), stops being a meaningful R^3 chain."""
    if not ops:
        raise CompositionTypeError("empty chain")
    for i in reversed(ops):
        if i not in _SIGNATURES:
            raise CompositionTypeError(f"operation index {i} is not an R^3 operation")
        dom, cod = _SIGNATURES[i]
        if kind is not None and kind != dom:
            name = "scalar" if dom == 0 else "vector"
            raise CompositionTypeError(
                f"operation {i} needs a {name} field; composition not meaningful"
            )
        kind = cod


def _apply_op(i: int, field: Field, e: Optional[Direction]) -> Field:
    if i == 0:
        if e is None:
            raise InvalidDirectionError("chain uses the directional derivative but no direction was given")
        return gateaux(field, e)
    if i == 1:
        return grad(field)
    if i == 2:
        return curl(field)
    return div(field)


def compose_and_check(
    chain, field: Field, e: Optional[Direction] = None
) -> Field:
    """Apply a chain right-to-left after checking the field kind at every step.

    The kind check is exactly the meaningfulness criterion, so a chain
    that the signature table rejects fails here with a type error
    at the first mismatched step.
    """
    ops = chain.ops if isinstance(chain, CompositionChain) else tuple(chain)
    _check_chain(ops, _kind_of(field))
    current = field
    for i in reversed(ops):
        current = _apply_op(i, current, e)
    return current


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

# The meaningful B3 compositions of orders 2 and 3 (leftmost-first), split
# into those that are identically zero on R^3 and those that are not. The
# identity report lists them in this order.
ZERO_CHAINS: tuple[tuple[int, ...], ...] = (
    (2, 1),
    (3, 2),
    (2, 2, 1),
    (3, 2, 1),
    (3, 2, 2),
    (1, 3, 2),
    (2, 1, 3),
    (2, 1, 0),
    (0, 3, 2),
)

NONZERO_CHAINS: tuple[tuple[int, ...], ...] = (
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 0),
    (1, 0),
    (0, 3),
    (1, 3, 1),
    (2, 2, 2),
    (3, 1, 3),
    (0, 0, 0),
    (1, 0, 0),
    (3, 1, 0),
    (0, 3, 1),
    (0, 0, 3),
    (1, 0, 3),
)


def make_chain(ops: Iterable[int]) -> CompositionChain:
    """CompositionChain for an R^3 index sequence, with its signature."""
    t = tuple(ops)
    return CompositionChain(t, (_SIGNATURES[t[-1]][0], _SIGNATURES[t[0]][1]))


def _random_int_poly3(rng: random.Random, max_degree: int) -> Poly3:
    """Seed-reproducible polynomial with int coefficients: one draw of num
    in -9..9 and den in {1, 2, 3} per monomial of degree <= max_degree, in
    a fixed order, gives the coefficient 6 * num / den. 6 is the lcm of the
    denominators, so this is 6 times the rational polynomial of the draws."""
    terms = {}
    for exps in product(range(max_degree + 1), repeat=3):
        if sum(exps) <= max_degree:
            num, den = rng.randint(-9, 9), rng.choice((1, 2, 3))
            if num:
                terms[exps] = num * (6 // den)
    return Poly3._of(terms)


# The adjacent pairs that kill a chain: curl grad and div curl.
_ZERO_PAIRS = frozenset(ops for ops in ZERO_CHAINS if len(ops) == 2)


def chain_vanishes(ops: Iterable[int]) -> bool:
    """Decide exactly whether a meaningful R^3 chain is the zero operator:
    it is iff it contains curl grad (2, 1) or div curl (3, 2).

    Every operation is a homogeneous first-order operator with constant
    coefficients, so a chain is zero iff the product of the principal
    symbols is zero over Q[ξ], an integral domain. The symbols are
    grad -> ξ, curl -> [ξ]×, div -> ξᵀ and D_e -> e·ξ.

    - [ξ]× ξ = 0 and ξᵀ [ξ]× = 0, so a chain containing either pair
      is zero.
    - Without those pairs only curl can sit next to curl, so a chain
      containing curl is curlᵏ, which is not zero:
      ([ξ]×)² = ξξᵀ - |ξ|² I and ([ξ]×)³ = -|ξ|² [ξ]×.
    - A chain without curl multiplies ξ, ξᵀ and e·ξ. The product is a
      nonzero polynomial times 1, ξ, ξᵀ or ξξᵀ, so it is not zero for
      any nonzero direction e, which therefore cannot change the answer.

    Raises CompositionTypeError for a chain that is not meaningful.
    """
    t = tuple(ops)
    _check_chain(t)
    return any(pair in _ZERO_PAIRS for pair in zip(t, t[1:]))


def fill_vanishing(chains: Iterable[CompositionChain]) -> list[CompositionChain]:
    """Annotate R^3 chains with their exact vanishes_identically flag."""
    return [replace(c, vanishes_identically=chain_vanishes(c.ops)) for c in chains]


@dataclass(frozen=True)
class ZeroIdentityCheck:
    ops: tuple[int, ...]
    name: str
    result_kind: int  # 0 scalar, 1 vector
    trials: int
    holds: bool


@dataclass(frozen=True)
class WitnessCheck:
    ops: tuple[int, ...]
    name: str
    witnessed: bool


@dataclass(frozen=True)
class IdentityReport:
    trials: int
    max_degree: int
    seed: int
    zero_checks: tuple[ZeroIdentityCheck, ...]
    witness_checks: tuple[WitnessCheck, ...]

    @property
    def zero_held(self) -> int:
        return sum(1 for c in self.zero_checks if c.holds)

    @property
    def witnessed_count(self) -> int:
        return sum(1 for c in self.witness_checks if c.witnessed)

    @property
    def passed(self) -> bool:
        return self.zero_held == len(self.zero_checks) and self.witnessed_count == len(
            self.witness_checks
        )

    @property
    def summary(self) -> str:
        return (
            f"{self.zero_held}/{len(self.zero_checks)} zero-identities hold; "
            f"{self.witnessed_count}/{len(self.witness_checks)} non-zero compositions witnessed"
        )


def verify_identities(
    trials: int = 25,
    max_degree: int = 4,
    seed: int = 0,
    e: Direction = DEFAULT_DIRECTION,
) -> IdentityReport:
    """Exercise every zero-identity on seeded random fields and find a
    non-zero witness for every composition that is not identically zero.

    A zero-identity failure would falsify the implementation, not the
    identities themselves, so callers should treat it as a bug report.
    Witness search needs max_degree >= 3: a chain of length k kills all
    polynomials of degree < k, so degree-2 fields cannot witness any
    third-order composition.

    The suite runs in integer arithmetic and reports exactly what it would
    on the rational fields of its random draws and the direction e:

    - Each field is 6 times the rational polynomial its draws num / den
      give (see _random_int_poly3); 6 is the lcm of the denominators
      {1, 2, 3}, so every coefficient is an int.
    - The direction is λe with λ > 0 the lcm of the denominators of e,
      so its entries are ints, and D_{λe} = λ·D_e.
    - Every chain L is linear and D_e occurs j times in it, so the
      integer run computes L'(6f) = λʲ·6·L(f), which is zero exactly
      when L(f) is. Only that zero test leaves this function.
    """
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    if max_degree < 3:
        raise InvalidArgumentError(f"max_degree must be >= 3, got {max_degree}")
    rng = random.Random(seed)
    scalars = [_random_int_poly3(rng, max_degree) for _ in range(trials)]
    vectors = [
        VecField3(*(_random_int_poly3(rng, max_degree) for _ in range(3)))
        for _ in range(trials)
    ]
    scale = math.lcm(*(x.denominator for x in e.e))
    e = Direction(tuple(int(x * scale) for x in e.e), False)

    def fields_for(ops):
        return scalars if _SIGNATURES[ops[-1]][0] == 0 else vectors

    zero_checks = []
    for ops in ZERO_CHAINS:
        chain = make_chain(ops)
        holds = all(
            compose_and_check(chain, field, e).is_zero for field in fields_for(ops)
        )
        zero_checks.append(
            ZeroIdentityCheck(ops, chain_name(chain, 3), chain.signature[1], trials, holds)
        )

    witness_checks = []
    for ops in NONZERO_CHAINS:
        chain = make_chain(ops)
        witnessed = any(
            not compose_and_check(chain, field, e).is_zero for field in fields_for(ops)
        )
        witness_checks.append(WitnessCheck(ops, chain_name(chain, 3), witnessed))

    return IdentityReport(trials, max_degree, seed, tuple(zero_checks), tuple(witness_checks))
