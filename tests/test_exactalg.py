import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import count_by_matrix_power, per_start_by_matrix_power
from diffops.chains import per_start_counts
from diffops.errors import InvalidOrderError
from diffops.exactalg import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    count_order_k,
    format_poly,
    walk_vectors,
)
from diffops.opgraph import build_space
from diffops.sequences import make_record

from pair_rule import adjacency_matrix


def brute_force_walks(rows, length, src, dst):
    """Count walks src -> dst of the given edge count by explicit paths."""
    if length == 0:
        return 1 if src == dst else 0
    total = 0
    for mid in range(len(rows)):
        if rows[src][mid]:
            total += brute_force_walks(rows, length - 1, mid, dst)
    return total


class TestIntMatrix:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3, 4], [5, 6]])

    def test_pow_zero_is_identity(self):
        M = adjacency_matrix(build_space(3, "A"))
        assert M ** 0 == IntMatrix.identity(3)

    def test_pow_one_is_self(self):
        M = adjacency_matrix(build_space(3, "B"))
        assert M ** 1 == M

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) ** -1

    @pytest.mark.parametrize("family,n", [("A", 3), ("B", 3), ("A", 4)])
    def test_square_counts_two_step_walks(self, family, n):
        M = adjacency_matrix(build_space(n, family))
        sq = M ** 2
        for i in range(M.order):
            for j in range(M.order):
                assert sq.rows[i][j] == brute_force_walks(M.rows, 2, i, j)

    def test_binary_exponentiation_matches_repeated_multiplication(self):
        M = adjacency_matrix(build_space(5, "B"))
        acc = IntMatrix.identity(M.order)
        for e in range(9):
            assert M ** e == acc
            acc = acc * M


class TestCounts:
    @pytest.mark.parametrize(
        "family,n,k,expected",
        [
            ("A", 3, 1, 3),
            ("A", 3, 2, 5),
            ("A", 3, 3, 8),
            ("B", 3, 1, 4),
            ("B", 3, 2, 8),
            ("B", 3, 3, 16),
        ],
    )
    def test_known_counts(self, family, n, k, expected):
        assert count_order_k(build_space(n, family), k) == expected

    def test_order_below_one_rejected(self):
        with pytest.raises(InvalidOrderError):
            count_order_k(build_space(3, "A"), 0)
        with pytest.raises(InvalidOrderError):
            next(walk_vectors(build_space(3, "A"), 0))

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_vector_iteration_matches_matrix_power(self, family, n):
        space = build_space(n, family)
        for k in range(1, 12):
            assert count_order_k(space, k) == count_by_matrix_power(space, k)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        family=st.sampled_from(["A", "B"]),
        n=st.integers(min_value=3, max_value=12),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_every_kernel_caller_matches_dense_matrix_power(self, family, n, k):
        space = build_space(n, family)
        per_start = per_start_by_matrix_power(space, k)
        total = sum(per_start.values())
        assert per_start_counts(space, k).counts == per_start
        assert count_order_k(space, k) == total
        assert make_record(family, n, k).terms[-1] == total

    def test_counts_positive_everywhere_tested(self):
        for family in ("A", "B"):
            for n in range(3, 9):
                space = build_space(n, family)
                assert all(count_order_k(space, k) > 0 for k in range(1, 11))

    def test_b3_counts_non_decreasing(self):
        space = build_space(3, "B")
        terms = [count_order_k(space, k) for k in range(1, 21)]
        assert all(a <= b for a, b in zip(terms, terms[1:]))

    # The count command refuses a total past the digit limit at the first
    # power-of-two order that reaches it, which is sound only if totals
    # never fall as the order grows.
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(family=st.sampled_from(["A", "B"]), n=st.integers(min_value=3, max_value=24))
    def test_counts_never_decrease_in_k(self, family, n):
        space = build_space(n, family)
        assert all(any(space.dom(j) == space.cod(i) for j in space.ops) for i in space.ops)
        totals = [sum(vec) for vec in walk_vectors(space, 60)]
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_big_orders_do_not_overflow(self):
        # 2^201 is far beyond 64-bit range
        assert count_order_k(build_space(3, "B"), 200) == 2**201


class TestCharPoly:
    def test_a3(self):
        p = char_poly(adjacency_matrix(build_space(3, "A")))
        assert p.coeffs == (0, -1, -1, 1)
        assert format_poly(p) == "λ^3 - λ^2 - λ"

    def test_b3(self):
        p = char_poly(adjacency_matrix(build_space(3, "B")))
        assert p.coeffs == (0, 0, 0, -2, 1)
        assert format_poly(p) == "λ^4 - 2λ^3"

    def test_identity_order_two(self):
        assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)

    def test_always_monic(self):
        for family in ("A", "B"):
            for n in range(3, 12):
                assert char_poly(adjacency_matrix(build_space(n, family))).leading == 1

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_cayley_hamilton(self, family, n):
        M = adjacency_matrix(build_space(n, family))
        p = char_poly(M)
        zero = IntMatrix([[0] * M.order for _ in range(M.order)])
        acc = zero
        for exp in range(p.degree + 1):
            acc = acc + M ** exp * p.coefficient(exp)
        assert acc == zero

    def test_invariant_under_permutation_similarity(self):
        rng = random.Random(20240601)
        for family in ("A", "B"):
            for n in (3, 5, 8):
                M = adjacency_matrix(build_space(n, family))
                p = char_poly(M)
                for _ in range(5):
                    perm = list(range(M.order))
                    rng.shuffle(perm)
                    permuted = IntMatrix(
                        [M.rows[perm[i]][perm[j]] for j in range(M.order)]
                        for i in range(M.order)
                    )
                    assert char_poly(permuted) == p


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).is_zero

    def test_arithmetic(self):
        p = IntPolynomial([1, 1])  # 1 + x
        q = IntPolynomial([-1, 1])  # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - p).is_zero
        assert (3 * p).coeffs == (3, 3)

    def test_shift_and_eval(self):
        p = IntPolynomial([2, 1]).shifted(2)  # 2x^2 + x^3
        assert p.coeffs == (0, 0, 2, 1)
        assert p(3) == 2 * 9 + 27

    def test_format_edge_cases(self):
        assert format_poly(IntPolynomial()) == "0"
        assert format_poly(IntPolynomial([-3, 1])) == "λ - 3"
        assert format_poly(IntPolynomial([0, -1])) == "-λ"
        assert format_poly(IntPolynomial([5])) == "5"
