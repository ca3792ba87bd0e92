"""Explicit enumeration of meaningful composition chains.

Chains are stored leftmost-first, i.e. in the order the composition is
written: "div grad" is (3, 1) with operation 1 applied first. The walk
tree, whose level k holds one node per k-chain, is exported as DOT text.
Both are read straight off the signature table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import EnumerationCapError, InvalidArgumentError, InvalidOrderError
from .exactalg import count_order_k, walk_vectors
from .opgraph import Family, OperationSpace

DEFAULT_CAP = 10**6

R3_NAMES = {0: "D_e", 1: "grad", 2: "curl", 3: "div"}

_SCALAR_SUFFIX = " f"
_VECTOR_SUFFIX = " f⃗"

# Id suffix and label index of the DOT root; never an operation index.
_DOT_ROOT = -1


@dataclass(frozen=True)
class CompositionChain:
    """One meaningful composition: ops leftmost-first, plus the signature
    (domain set of the first-applied op, codomain set of the last)."""

    ops: tuple[int, ...]
    signature: tuple[int, int]
    vanishes_identically: Optional[bool] = None


@dataclass(frozen=True)
class PerStartCounts:
    """Counts of k-chains keyed by their leftmost (last-applied) operation."""

    k: int
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _adjacent(
    space: OperationSpace, near: Callable[[int], int], far: Callable[[int], int]
) -> dict[int, tuple[int, ...]]:
    """For each operation i, the operations j with near(j) = far(i), in
    ascending order; one pass groups them by near. (dom, cod) gives the
    successors of i, (cod, dom) its predecessors."""
    groups: dict[int, list[int]] = {}
    for j in space.ops:
        groups.setdefault(near(j), []).append(j)
    return {i: tuple(groups[far(i)]) for i in space.ops}


def _check_cap(total: int, cap: int) -> None:
    if cap < 0:
        raise InvalidArgumentError(f"cap must be >= 0, got {cap}")
    if total > cap:
        raise EnumerationCapError(total, cap)


def enumerate_chains(
    space: OperationSpace, k: int, cap: int = DEFAULT_CAP
) -> list[CompositionChain]:
    """All meaningful chains of length k, in lexicographic order of their
    leftmost-first index sequences.

    The count is computed first (cheaply, by the walk kernel) and
    compared against the cap so that an oversized request fails fast
    instead of hanging. Chains grow to the right, through the operations
    that may be applied just before the first-applied one, in ascending
    order; prefixes in lexicographic order, each extended by ascending
    suffixes, stay in that order. k < 1 raises InvalidOrderError from the
    count.
    """
    _check_cap(count_order_k(space, k), cap)
    before = _adjacent(space, space.cod, space.dom)
    found = [(i,) for i in space.ops]
    for _ in range(k - 1):
        found = [seq + (j,) for seq in found for j in before[seq[-1]]]
    return [CompositionChain(seq, (space.dom(seq[-1]), space.cod(seq[0]))) for seq in found]


def chain_name(chain: CompositionChain, n: int) -> str:
    """Vector-calculus name for n = 3 ("div grad f"), numeric otherwise."""
    if n == 3:
        words = " ".join(R3_NAMES[i] for i in chain.ops)
        suffix = _SCALAR_SUFFIX if chain.signature[0] == 0 else _VECTOR_SUFFIX
        return words + suffix
    return " ∘ ".join(f"∇_{i}" for i in chain.ops)


def per_start_counts(space: OperationSpace, k: int) -> PerStartCounts:
    """Count k-chains by leftmost (last-applied) operation: the order-k
    vector of the walk kernel, keyed by operation."""
    for vec in walk_vectors(space, k):
        pass
    return PerStartCounts(k, dict(zip(space.ops, vec)))


def export_tree_dot(space: OperationSpace, depth: int, cap: int = DEFAULT_CAP) -> str:
    """DOT digraph of the walk tree down to the given depth.

    The root is "nabla_-1"; its children are the first-order operations,
    and each node's children are the operations that may follow it, so
    level d holds one node per meaningful d-chain. Node ids are the
    dot-joined paths from the root, written depth first with children in
    ascending order; level sizes are annotated as graph comments,
    including the single root at level 0. The total node budget is
    capped like enumeration, before any node is written.
    """
    if depth < 1:
        raise InvalidOrderError(f"tree depth must be >= 1, got {depth}")
    sizes = [sum(vec) for vec in walk_vectors(space, depth)]
    _check_cap(sum(sizes), cap)
    after = _adjacent(space, space.dom, space.cod)
    letter = "f" if space.family is Family.A else "g"
    lines = ["digraph composition_tree {", f"  // {letter}(0) = 1"]
    lines += [f"  // {letter}({d}) = {c}" for d, c in enumerate(sizes, 1)]
    root_id = f"nabla_{_DOT_ROOT}"
    lines.append(f'  "{root_id}" [label="∇_{_DOT_ROOT}"];')
    # (node id, operation, parent id, level); children are pushed in
    # reverse so they pop in ascending order: a preorder walk
    stack = [(str(i), i, root_id, 1) for i in reversed(space.ops)]
    while stack:
        node_id, op, parent_id, level = stack.pop()
        lines.append(f'  "{node_id}" [label="∇_{op}"];')
        lines.append(f'  "{parent_id}" -> "{node_id}";')
        if level < depth:
            stack.extend((f"{node_id}.{j}", j, node_id, level + 1) for j in reversed(after[op]))
    lines.append("}")
    return "\n".join(lines) + "\n"
