"""Dense reference routes for the function-set kernels of diffops.exactalg.

All work on the full d×d 0/1 adjacency matrix, built from the pair rule
(tests/pair_rule.py) rather than from the signature table, as plain lists
of integer rows: walk counts come from explicit matrix powers,
characteristic polynomials from Faddeev-LeVerrier on the whole matrix.
"""

from diffops.exactalg import IntPolynomial

from pair_rule import adjacency_matrix


def identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(M, e):
    """M^e for e >= 0, by binary powering."""
    result, base = identity(len(M)), M
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def faddeev_leverrier(M):
    """Monic det(λI - M) by the trace recursion N_(k+1) = M·(N_k + c_k·I)."""
    d = len(M)
    coeffs_high, N = [1], M
    for k in range(1, d + 1):
        t = sum(N[i][i] for i in range(d))
        assert t % k == 0, (k, t)
        c = -(t // k)
        coeffs_high.append(c)
        N = mat_mul(M, [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(N)])
    return IntPolynomial(reversed(coeffs_high))


def per_start_by_matrix_power(space, k):
    """k-chains by last-applied operation: the column sums of M^(k-1)."""
    power = mat_pow(adjacency_matrix(space), k - 1)
    return dict(zip(space.ops, (sum(col) for col in zip(*power))))


def count_by_matrix_power(space, k):
    """Number of meaningful k-chains: the sum of all entries of M^(k-1)."""
    return sum(per_start_by_matrix_power(space, k).values())


def dense_char_poly(space):
    return faddeev_leverrier(adjacency_matrix(space))
