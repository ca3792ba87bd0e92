"""Dense reference routes for the function-set kernels of diffops.exactalg.

Both work on the full d×d 0/1 adjacency matrix, built from the pair rule
(tests/pair_rule.py) rather than from the signature table: walk counts
come from explicit matrix powers, characteristic polynomials from
Faddeev-LeVerrier on the whole matrix.
"""

from diffops.exactalg import char_poly

from pair_rule import adjacency_matrix


def per_start_by_matrix_power(space, k):
    """k-chains by last-applied operation: the column sums of M^(k-1)."""
    power = adjacency_matrix(space) ** (k - 1)
    return dict(zip(space.ops, (sum(col) for col in zip(*power.rows))))


def count_by_matrix_power(space, k):
    """Number of meaningful k-chains: the sum of all entries of M^(k-1)."""
    return sum(per_start_by_matrix_power(space, k).values())


def dense_char_poly(space):
    return char_poly(adjacency_matrix(space))
