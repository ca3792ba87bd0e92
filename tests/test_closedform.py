import pytest

from dense_oracle import dense_char_poly
from diffops.closedform import (
    charpoly_a_closed,
    charpoly_b_closed,
    charpoly_computed,
    check_bridge_identity,
    check_charpoly_recurrence,
    closed_form_result,
    count_closed_form_r3,
    fibonacci,
)
from diffops.errors import DiffOpsError, InvalidArgumentError, InvalidDimensionError, InvalidOrderError
from diffops.exactalg import count_order_k
from diffops.opgraph import build_space


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("n", range(3, 25))
def test_set_matrix_route_matches_dense_char_poly(n, family):
    assert charpoly_computed(n, family) == dense_char_poly(build_space(n, family))


class TestClosedFormA:
    def test_n3_by_hand(self):
        # k=1 contributes λ^3, k=2 contributes -λ - λ^2, k=3 vanishes
        assert charpoly_a_closed(3).coeffs == (0, -1, -1, 1)

    def test_n4_by_hand(self):
        assert charpoly_a_closed(4).coeffs == (0, 0, -2, 0, 1)

    def test_low_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            charpoly_a_closed(2)

    # up to 48, as far as the closed_form requests of benchmarks/workloads.py go
    @pytest.mark.parametrize("n", range(3, 49))
    def test_matches_computed(self, n):
        assert charpoly_a_closed(n) == charpoly_computed(n, "A")


class TestClosedFormB:
    def test_n3_is_lambda_minus_two_times_cube(self):
        assert charpoly_b_closed(3).coeffs == (0, 0, 0, -2, 1)

    def test_n3_equals_computed(self):
        assert charpoly_b_closed(3) == charpoly_computed(3, "B")

    def test_low_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            charpoly_b_closed(2)

    # up to 48, as far as the closed_form requests of benchmarks/workloads.py go
    @pytest.mark.parametrize("n", range(3, 49))
    def test_matches_computed(self, n):
        assert charpoly_b_closed(n) == charpoly_computed(n, "B")

    def test_result_records_match(self):
        res = closed_form_result(17, "B")
        assert res.matched_computed
        assert res.polynomial.degree == 18


class TestCharpolyRecurrence:
    @pytest.mark.parametrize("family", ["A", "B"])
    def test_holds_at_seven(self, family):
        assert check_charpoly_recurrence(7, family)

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(7, 31))
    def test_holds_up_to_thirty(self, n, family):
        assert check_charpoly_recurrence(n, family)

    def test_wrong_operand_fails(self):
        # replacing the n-4 base case by n-3 must break the identity
        p7 = charpoly_computed(7, "A")
        p5 = charpoly_computed(5, "A")
        p4 = charpoly_computed(4, "A")
        assert p7 != ((p5 - p4)).shifted(2)

    def test_insufficient_base_cases_rejected(self):
        with pytest.raises(InvalidDimensionError):
            check_charpoly_recurrence(6, "A")


class TestBridge:
    @pytest.mark.parametrize("n", range(5, 31))
    def test_holds(self, n):
        assert check_bridge_identity(n)

    def test_precondition(self):
        with pytest.raises(InvalidDimensionError):
            check_bridge_identity(3)

    @pytest.mark.parametrize("n", range(9, 31))
    def test_recurrence_for_b_follows_from_bridge_and_a_recurrence(self, n):
        # on concrete polynomials: if the A-family recurrence holds at n and
        # n-2 and the bridge holds at n, n-2 and n-4, the B-family recurrence
        # at n is forced
        premises = (
            check_charpoly_recurrence(n, "A")
            and check_charpoly_recurrence(n - 2, "A")
            and check_bridge_identity(n)
            and check_bridge_identity(n - 2)
            and check_bridge_identity(n - 4)
        )
        assert premises
        assert check_charpoly_recurrence(n, "B")


class TestCountClosedForms:
    def test_fibonacci_convention(self):
        assert [fibonacci(m) for m in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]

    # Both subclass ValueError too, so `except ValueError` callers still work.
    def test_fibonacci_index_below_one_is_an_invalid_argument(self):
        with pytest.raises(InvalidArgumentError, match="Fibonacci index must be >= 1, got 0") as err:
            fibonacci(0)
        assert isinstance(err.value, DiffOpsError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_order_below_one_is_an_invalid_order(self, family):
        with pytest.raises(InvalidOrderError, match="composition order must be >= 1, got 0") as err:
            count_closed_form_r3(0, family)
        assert isinstance(err.value, DiffOpsError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize(
        "family,k,expected",
        [("A", 1, 3), ("A", 3, 8), ("B", 2, 8), ("B", 9, 1024)],
    )
    def test_examples(self, family, k, expected):
        assert count_closed_form_r3(k, family) == expected

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_agrees_with_matrix_counts(self, family):
        space = build_space(3, family)
        for k in range(1, 61):
            assert count_closed_form_r3(k, family) == count_order_k(space, k)
