"""The paper's closed-form pair rule: the second model of the operation graph.

diffops defines the graph by its signature table only (opgraph); the
tests check that table, and everything read off it, against this rule.
"nabla_j after nabla_i" is meaningful iff j = i + 1 or i + j = n + 1,
and in family B also for (0, 0) and (n, 0).
"""

from diffops.errors import InvalidOperationError
from diffops.opgraph import Family


def first_op(family):
    return 0 if Family.coerce(family) is Family.B else 1


def rule_ops(family, n):
    return tuple(range(first_op(family), n + 1))


def check_op(family, n, idx):
    if not first_op(family) <= idx <= n:
        raise InvalidOperationError(f"operation index {idx} out of range for family {family}, n={n}")


def _rule(is_b, n, i, j):
    return j == i + 1 or i + j == n + 1 or (is_b and j == 0 and i in (0, n))


def holds(family, n, i, j):
    """Whether applying nabla_i first and nabla_j second is meaningful."""
    check_op(family, n, i)
    check_op(family, n, j)
    return _rule(first_op(family) == 0, n, i, j)


def cayley(family, n):
    """Truth table of the rule, rows and columns in ascending index order."""
    is_b, ops = first_op(family) == 0, rule_ops(family, n)
    return tuple(tuple(_rule(is_b, n, i, j) for j in ops) for i in ops)


def adjacency_matrix(space):
    """The space's d×d 0/1 adjacency matrix, built from the rule."""
    return tuple(tuple(int(cell) for cell in row) for row in cayley(space.family, space.n))


def is_meaningful(space, ops):
    """Whether a leftmost-first index sequence is a meaningful chain, by the
    rule on every adjacent pair. Raises InvalidOperationError for an index
    outside the space, at every length."""
    for i in ops:
        check_op(space.family, space.n, i)
    applied = tuple(reversed(ops))
    return bool(ops) and all(holds(space.family, space.n, i, j) for i, j in zip(applied, applied[1:]))
