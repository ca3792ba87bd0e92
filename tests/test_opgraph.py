import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffops.errors import InvalidDimensionError, InvalidOperationError
from diffops.opgraph import (
    CompositionRelation,
    Family,
    adjacency_matrix,
    build_space,
    cayley_table,
)


def true_cells(table):
    return {
        (i, j)
        for i, row in enumerate(table)
        for j, cell in enumerate(row)
        if cell
    }


class TestBuildSpace:
    def test_a3_signatures(self):
        space = build_space(3, "A")
        assert space.signatures == {1: (0, 1), 2: (1, 1), 3: (1, 0)}
        assert space.m == 1

    def test_b3_adds_directional_derivative(self):
        space = build_space(3, "B")
        assert space.signatures[0] == (0, 0)
        assert {i: space.signatures[i] for i in (1, 2, 3)} == build_space(3, "A").signatures

    def test_a4_even_case_has_no_middle_loop(self):
        space = build_space(4, "A")
        assert space.signatures == {1: (0, 1), 2: (1, 2), 3: (2, 1), 4: (1, 0)}
        assert all(dom != cod for dom, cod in space.signatures.values())

    def test_a5_middle_operation_loops_on_a_m(self):
        space = build_space(5, "A")
        assert space.signatures[3] == (2, 2)

    @pytest.mark.parametrize("n", [0, 1, 2, -3])
    def test_low_dimension_rejected(self, n):
        with pytest.raises(InvalidDimensionError):
            build_space(n, "A")

    def test_family_coercion(self):
        assert build_space(3, "a").family is Family.A
        assert build_space(3, Family.B).family is Family.B
        with pytest.raises(InvalidOperationError):
            build_space(3, "C")


class TestRelation:
    def test_div_after_grad_is_meaningful(self):
        rel = CompositionRelation(Family.A, 3)
        assert rel.holds(1, 3)

    def test_repeated_directional_derivative_is_meaningful(self):
        rel = CompositionRelation(Family.B, 3)
        assert rel.holds(0, 0)

    def test_grad_after_grad_is_not(self):
        rel = CompositionRelation(Family.A, 3)
        assert not rel.holds(1, 1)

    def test_index_zero_invalid_in_family_a(self):
        rel = CompositionRelation(Family.A, 3)
        with pytest.raises(InvalidOperationError):
            rel.holds(0, 1)
        with pytest.raises(InvalidOperationError):
            rel.holds(1, 0)

    def test_out_of_range_index_rejected(self):
        rel = CompositionRelation(Family.B, 3)
        with pytest.raises(InvalidOperationError):
            rel.holds(4, 0)
        with pytest.raises(InvalidOperationError):
            rel.holds(-1, 1)


class TestCayleyTable:
    def test_b3_table_reproduced_exactly(self):
        table = cayley_table(CompositionRelation(Family.B, 3))
        assert table == (
            (True, True, False, False),
            (False, False, True, True),
            (False, False, True, True),
            (True, True, False, False),
        )

    def test_a3_true_cells(self):
        table = cayley_table(CompositionRelation(Family.A, 3))
        # table rows/columns are 0-indexed over ops (1, 2, 3)
        assert true_cells(table) == {(0, 1), (0, 2), (1, 1), (1, 2), (2, 0)}

    def test_a4_true_cells(self):
        table = cayley_table(CompositionRelation(Family.A, 4))
        ops = (1, 2, 3, 4)
        cells = {(ops[i], ops[j]) for i, j in true_cells(table)}
        assert cells == {(1, 2), (2, 3), (3, 4), (1, 4), (3, 2), (4, 1)}


class TestAdjacency:
    def test_a3_rows(self):
        assert adjacency_matrix(build_space(3, "A")).rows == (
            (0, 1, 1),
            (0, 1, 1),
            (1, 0, 0),
        )

    def test_b3_rows(self):
        assert adjacency_matrix(build_space(3, "B")).rows == (
            (1, 1, 0, 0),
            (0, 0, 1, 1),
            (0, 0, 1, 1),
            (1, 1, 0, 0),
        )

    def test_b3_every_row_sum_is_two(self):
        rows = adjacency_matrix(build_space(3, "B")).rows
        assert [sum(row) for row in rows] == [2, 2, 2, 2]

    def test_orders(self):
        assert adjacency_matrix(build_space(7, "A")).order == 7
        assert adjacency_matrix(build_space(7, "B")).order == 8


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("n", range(3, 13))
def test_signatures_agree_with_relation(family, n):
    space = build_space(n, family)
    rel = space.relation
    for i in space.ops:
        for j in space.ops:
            assert (space.cod(i) == space.dom(j)) == rel.holds(i, j)


@pytest.mark.parametrize("n", range(3, 13))
def test_family_a_is_restriction_of_family_b(n):
    rel_a = CompositionRelation(Family.A, n)
    rel_b = CompositionRelation(Family.B, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert rel_a.holds(i, j) == rel_b.holds(i, j)


@pytest.mark.parametrize("n", range(3, 13))
def test_b_adjacency_contains_a_as_lower_right_block(n):
    rows_a = build_space(n, "A").adjacency_rows()
    rows_b = build_space(n, "B").adjacency_rows()
    assert len(rows_b) == len(rows_a) + 1
    block = tuple(row[1:] for row in rows_b[1:])
    assert block == rows_a


@settings(max_examples=60, derandomize=True)
@given(n=st.integers(min_value=3, max_value=40), family=st.sampled_from([Family.A, Family.B]))
def test_build_space_self_check_never_trips(n, family):
    # build_space cross-validates signatures against the predicate internally
    space = build_space(n, family)
    assert space.order() == (n if family is Family.A else n + 1)
