"""Explicit enumeration of meaningful composition chains.

Chains are stored leftmost-first, i.e. in the order the composition is
written: "div grad" is (3, 1) with operation 1 applied first. The walk
tree rooted at the nowhere-defined sentinel operation (index -1) mirrors
the same enumeration level by level and can be exported as DOT text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import EnumerationCapError, InvalidArgumentError, InvalidOrderError
from .exactalg import count_order_k, walk_vectors
from .opgraph import Family, OperationSpace, ROOT_OP

DEFAULT_CAP = 10**6

R3_NAMES = {0: "D_e", 1: "grad", 2: "curl", 3: "div"}

_SCALAR_SUFFIX = " f"
_VECTOR_SUFFIX = " f⃗"


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


@dataclass(frozen=True)
class ChainTreeNode:
    """Node of the walk tree; the root carries the sentinel operation and its
    children are the first-order operations."""

    op: int
    children: tuple["ChainTreeNode", ...]

    def level_sizes(self) -> list[int]:
        sizes = [1]
        frontier = self.children
        while frontier:
            sizes.append(len(frontier))
            frontier = tuple(child for node in frontier for child in node.children)
        return sizes


def is_meaningful(space: OperationSpace, ops: tuple[int, ...]) -> bool:
    """Check every adjacent pair of a leftmost-first index sequence."""
    if not ops:
        return False
    rel = space.relation
    applied = tuple(reversed(ops))
    return all(rel.holds(applied[t], applied[t + 1]) for t in range(len(applied) - 1))


def _successors(space: OperationSpace) -> dict[int, tuple[int, ...]]:
    """The operations whose domain set is the codomain set of each operation."""
    return {i: tuple(j for j in space.ops if space.dom(j) == space.cod(i)) for i in space.ops}


def _check_cap(total: int, cap: int) -> None:
    if cap < 0:
        raise InvalidArgumentError(f"cap must be >= 0, got {cap}")
    if total > cap:
        raise EnumerationCapError(total, cap)


def enumerate_chains(
    space: OperationSpace, k: int, cap: int = DEFAULT_CAP
) -> list[CompositionChain]:
    """All meaningful chains of length k, sorted lexicographically by their
    leftmost-first index sequences.

    The count is computed first (cheaply, by the walk kernel) and
    compared against the cap so that an oversized request fails fast
    instead of hanging.
    """
    if k < 1:
        raise InvalidOrderError(f"composition order must be >= 1, got {k}")
    _check_cap(count_order_k(space, k), cap)
    nexts = _successors(space)
    found = [(i,) for i in space.ops]
    for _ in range(k - 1):
        found = [seq + (j,) for seq in found for j in nexts[seq[-1]]]
    chains = [
        CompositionChain(tuple(reversed(seq)), (space.dom(seq[0]), space.cod(seq[-1])))
        for seq in found
    ]
    chains.sort(key=lambda c: c.ops)
    return chains


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


def build_tree(space: OperationSpace, depth: int, cap: int = DEFAULT_CAP) -> ChainTreeNode:
    """Walk tree rooted at the sentinel operation, down to the given depth.

    Level d holds one node per meaningful d-chain, so the sizes equal the
    composition counts; the total node budget is capped like enumeration.
    """
    if depth < 1:
        raise InvalidOrderError(f"tree depth must be >= 1, got {depth}")
    _check_cap(sum(sum(vec) for vec in walk_vectors(space, depth)), cap)
    nexts = _successors(space)

    def grow(op: int, level: int) -> ChainTreeNode:
        if level == depth:
            return ChainTreeNode(op, ())
        return ChainTreeNode(op, tuple(grow(j, level + 1) for j in nexts[op]))

    # the sentinel root relates to every first-order operation
    return ChainTreeNode(ROOT_OP, tuple(grow(i, 1) for i in space.ops))


def export_tree_dot(space: OperationSpace, depth: int, cap: int = DEFAULT_CAP) -> str:
    """DOT digraph of the walk tree rooted at the sentinel operation.

    Node ids are the dot-joined paths from the root; level sizes are
    annotated as graph comments, including the single root at level 0.
    """
    tree = build_tree(space, depth, cap)
    letter = "f" if space.family is Family.A else "g"
    lines = ["digraph composition_tree {"]
    for d, c in enumerate(tree.level_sizes()):
        lines.append(f"  // {letter}({d}) = {c}")
    root_id = f"nabla_{ROOT_OP}"
    lines.append(f'  "{root_id}" [label="∇_{ROOT_OP}"];')

    def emit(node: ChainTreeNode, path: tuple[int, ...], parent_id: str) -> None:
        node_id = ".".join(str(i) for i in path)
        lines.append(f'  "{node_id}" [label="∇_{node.op}"];')
        lines.append(f'  "{parent_id}" -> "{node_id}";')
        for child in node.children:
            emit(child, path + (child.op,), node_id)

    for child in tree.children:
        emit(child, (child.op,), root_id)
    lines.append("}")
    return "\n".join(lines) + "\n"
