"""Operation families on R^n and their composition structure.

Family A holds the n first-order differential operations nabla_1..nabla_n
(grad, curl, div and their higher-dimensional analogues); family B adds
the directional derivative nabla_0. Each operation maps between indexed
function sets A_s, and a composition "nabla_j after nabla_i" is
meaningful exactly when the codomain set of nabla_i is the domain set of
nabla_j. The signature table is the one definition of that graph; every
kernel reads it, and _signature_table proves that it gives the paper's
closed-form pair rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .errors import InvalidDimensionError, InvalidOperationError


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
class OperationSpace:
    """Immutable signature table for one family at one dimension. The
    table is a read-only view and a function of (family, n), so it takes
    no part in equality or hashing."""

    family: Family
    n: int
    m: int
    # op index -> (domain set index, codomain set index)
    signatures: Mapping[int, tuple[int, int]] = field(compare=False)

    @property
    def ops(self) -> tuple[int, ...]:
        """Operation indices in ascending order: 1..n, plus 0 for family B."""
        return tuple(self.signatures)

    def dom(self, i: int) -> int:
        return self.signatures[i][0]

    def cod(self, i: int) -> int:
        return self.signatures[i][1]

    def order(self) -> int:
        """Number of operations: n for family A, n+1 for family B."""
        return len(self.signatures)

    def adjacency_rows(self) -> tuple[tuple[int, ...], ...]:
        """0/1 adjacency rows, ordered by operation index: entry (r, c) is 1
        exactly when ops[c] may follow ops[r], i.e. cod(ops[r]) = dom(ops[c])."""
        ops = self.ops
        return tuple(tuple(int(self.cod(i) == self.dom(j)) for j in ops) for i in ops)


def _signature_table(family: Family, n: int) -> dict:
    """Domain and codomain set of every operation, in ascending index order.

    nabla_0 (family B only) maps A_0 to A_0. For 1 <= i <= n,

        dom(i) = min(i - 1, n + 1 - i),    cod(i) = min(i, n - i),

    so with m = n // 2: nabla_i maps A_(i-1) to A_i for i <= m, the middle
    operation of odd n (i = m + 1) loops on A_m, and every later nabla_i
    maps A_(n+1-i) back to A_(n-i).

    The table gives the paper's pair rule for every n >= 3: nabla_j may
    follow nabla_i iff j = i + 1 or i + j = n + 1, and in family B also
    for (0, 0) and (n, 0).

    - For 1 <= i, j <= n: dom(i + 1) = min(i, n - i) = cod(i) and
      dom(n + 1 - i) = min(n - i, i) = cod(i), so both rule pairs compose.
      Conversely, if cod(i) = dom(j) = s, then i is s or n - s and j is
      s + 1 or n + 1 - s (a minimum equals one of its arguments); each of
      the four combinations has j = i + 1 or i + j = n + 1.
    - cod(0) = 0 and dom(j) = 0 only for j = 1 (n + 1 - j > 0), so
      nabla_0 is followed exactly by nabla_0 and nabla_1 = nabla_(0+1).
    - dom(0) = 0 and cod(i) = 0 only for i = n (i > 0), so nabla_0
      follows exactly nabla_0 and nabla_n. The rule's clauses add no other
      pair with 0: they would need index -1 or n + 1.
    """
    sig = {0: (0, 0)} if family is Family.B else {}
    for i in range(1, n + 1):
        sig[i] = (min(i - 1, n + 1 - i), min(i, n - i))
    return sig


def build_space(n: int, family) -> OperationSpace:
    """Construct the operation space of a family at dimension n >= 3."""
    fam = Family.coerce(family)
    if n < 3:
        raise InvalidDimensionError(f"dimension must be >= 3, got {n}")
    return OperationSpace(fam, n, n // 2, MappingProxyType(_signature_table(fam, n)))
