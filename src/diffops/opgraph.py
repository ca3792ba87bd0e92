"""Operation families on R^n and their composition structure.

Family A holds the n first-order differential operations nabla_1..nabla_n
(grad, curl, div and their higher-dimensional analogues); family B adds
the directional derivative nabla_0. Each operation maps between indexed
function sets A_s, and a composition "nabla_j after nabla_i" is
meaningful exactly when the codomain set of nabla_i is the domain set of
nabla_j. The same fact is captured twice, by the signature table and by
a closed-form pair predicate, and the two are cross-validated whenever a
space is built. All walk computations read the signature table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import ComputationError, InvalidDimensionError, InvalidOperationError
from .exactalg import IntMatrix

# Tree-root sentinel for walk-tree export; never valid inside a chain.
ROOT_OP = -1


class Family(str, Enum):
    A = "A"
    B = "B"

    @classmethod
    def coerce(cls, value) -> "Family":
        if isinstance(value, Family):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise InvalidOperationError(f"unknown family {value!r}, expected A or B") from None


@dataclass(frozen=True)
class CompositionRelation:
    """The 'to be in composition' predicate for one family and dimension.

    holds(i, j) is true iff applying nabla_i first and nabla_j second is
    meaningful. Pure and deterministic.
    """

    family: Family
    n: int

    def ops(self) -> tuple[int, ...]:
        first = 0 if self.family is Family.B else 1
        return tuple(range(first, self.n + 1))

    def check_op(self, idx: int) -> None:
        if idx == 0 and self.family is Family.A:
            raise InvalidOperationError("operation 0 exists only in family B")
        lo = 0 if self.family is Family.B else 1
        if not lo <= idx <= self.n:
            raise InvalidOperationError(
                f"operation index {idx} out of range for family {self.family.value}, n={self.n}"
            )

    def holds(self, i: int, j: int) -> bool:
        self.check_op(i)
        self.check_op(j)
        if j == i + 1 or i + j == self.n + 1:
            return True
        if self.family is Family.B:
            return (i == 0 and j == 0) or (i == self.n and j == 0)
        return False


@dataclass(frozen=True)
class OperationSpace:
    """Immutable signature table for one family at one dimension."""

    family: Family
    n: int
    m: int
    signatures: dict  # op index -> (domain set index, codomain set index)

    @property
    def ops(self) -> tuple[int, ...]:
        return self.relation.ops()

    @property
    def relation(self) -> CompositionRelation:
        return CompositionRelation(self.family, self.n)

    def dom(self, i: int) -> int:
        return self.signatures[i][0]

    def cod(self, i: int) -> int:
        return self.signatures[i][1]

    def order(self) -> int:
        """Number of operations: n for family A, n+1 for family B."""
        return len(self.signatures)

    def adjacency_rows(self) -> tuple[tuple[int, ...], ...]:
        """0/1 adjacency rows, ordered by operation index (row r = ops[r])."""
        return _adjacency_rows(self.family, self.n)


def _signature_table(family: Family, n: int) -> dict:
    m = n // 2
    sig = {}
    if family is Family.B:
        sig[0] = (0, 0)
    for i in range(1, n + 1):
        if i <= m:
            sig[i] = (i - 1, i)
        elif n % 2 == 1 and i == m + 1:
            sig[i] = (m, m)
        else:
            sig[i] = (n - i + 1, n - i)
    return sig


@lru_cache(maxsize=None)
def _adjacency_rows(family: Family, n: int) -> tuple[tuple[int, ...], ...]:
    rel = CompositionRelation(family, n)
    ops = rel.ops()
    return tuple(tuple(1 if rel.holds(i, j) else 0 for j in ops) for i in ops)


def build_space(n: int, family) -> OperationSpace:
    """Construct the operation space; signatures are checked against the
    pair predicate for every pair before the space is returned."""
    fam = Family.coerce(family)
    if n < 3:
        raise InvalidDimensionError(f"dimension must be >= 3, got {n}")
    space = OperationSpace(fam, n, n // 2, _signature_table(fam, n))
    rel = space.relation
    for i in space.ops:
        for j in space.ops:
            if (space.cod(i) == space.dom(j)) != rel.holds(i, j):
                raise ComputationError(
                    f"signature table disagrees with relation at ({i}, {j}), "
                    f"family {fam.value}, n={n}"
                )
    return space


def cayley_table(rel: CompositionRelation) -> tuple[tuple[bool, ...], ...]:
    """Full truth table of the relation over all operation pairs."""
    ops = rel.ops()
    return tuple(tuple(rel.holds(i, j) for j in ops) for i in ops)


def adjacency_matrix(space: OperationSpace) -> IntMatrix:
    """Adjacency matrix of the composition graph.

    Row/column r corresponds to operation space.ops[r]; the matrix has
    order n for family A and n+1 for family B.
    """
    return IntMatrix(space.adjacency_rows())
