import pytest

from diffops.errors import InvalidDimensionError, InvalidOperationError
from diffops.opgraph import Family, build_space

from paper_data import cayley_table
from pair_rule import adjacency_matrix, cayley, rule_ops


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

    def test_equal_spaces_hash_equal(self):
        assert build_space(5, "b") == build_space(5, Family.B)
        assert hash(build_space(5, "b")) == hash(build_space(5, Family.B))
        spaces = {build_space(n, family) for n in (3, 4, 3) for family in "ABab"}
        assert len(spaces) == 4 and build_space(4, "A") in spaces
        assert build_space(3, "A") != build_space(3, "B")

    def test_signature_table_is_read_only(self):
        space = build_space(3, "A")
        with pytest.raises(TypeError):
            space.signatures[1] = (0, 0)
        with pytest.raises(TypeError):
            del space.signatures[1]
        assert space.signatures == {1: (0, 1), 2: (1, 1), 3: (1, 0)}

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
    """Single compositions, read off the signature table."""

    def test_div_after_grad_is_meaningful(self):
        space = build_space(3, "A")
        assert space.cod(1) == space.dom(3)

    def test_repeated_directional_derivative_is_meaningful(self):
        space = build_space(3, "B")
        assert space.cod(0) == space.dom(0)

    def test_grad_after_grad_is_not(self):
        space = build_space(3, "A")
        assert space.cod(1) != space.dom(1)


class TestCayleyTable:
    def test_b3_table_reproduced_exactly(self):
        table = cayley_table(build_space(3, "B"))
        assert table == (
            (True, True, False, False),
            (False, False, True, True),
            (False, False, True, True),
            (True, True, False, False),
        )

    def test_a3_true_cells(self):
        table = cayley_table(build_space(3, "A"))
        # table rows/columns are 0-indexed over ops (1, 2, 3)
        assert true_cells(table) == {(0, 1), (0, 2), (1, 1), (1, 2), (2, 0)}

    def test_a4_true_cells(self):
        table = cayley_table(build_space(4, "A"))
        ops = (1, 2, 3, 4)
        cells = {(ops[i], ops[j]) for i, j in true_cells(table)}
        assert cells == {(1, 2), (2, 3), (3, 4), (1, 4), (3, 2), (4, 1)}


class TestAdjacency:
    def test_a3_rows(self):
        assert build_space(3, "A").adjacency_rows() == (
            (0, 1, 1),
            (0, 1, 1),
            (1, 0, 0),
        )

    def test_b3_rows(self):
        assert build_space(3, "B").adjacency_rows() == (
            (1, 1, 0, 0),
            (0, 0, 1, 1),
            (0, 0, 1, 1),
            (1, 1, 0, 0),
        )

    def test_b3_every_row_sum_is_two(self):
        rows = build_space(3, "B").adjacency_rows()
        assert [sum(row) for row in rows] == [2, 2, 2, 2]

    def test_orders(self):
        assert len(build_space(7, "A").adjacency_rows()) == 7
        assert len(build_space(7, "B").adjacency_rows()) == 8


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("n", range(3, 101))
def test_signatures_agree_with_relation(family, n):
    """The signature table gives the pair rule on every pair (i, j); the
    proof is in opgraph._signature_table."""
    space = build_space(n, family)
    assert space.ops == rule_ops(family, n)
    assert cayley_table(space) == cayley(family, n)
    assert space.adjacency_rows() == adjacency_matrix(space)


@pytest.mark.parametrize("n", range(3, 13))
def test_family_a_is_restriction_of_family_b(n):
    b = build_space(n, "B").signatures
    assert {i: b[i] for i in range(1, n + 1)} == build_space(n, "A").signatures


@pytest.mark.parametrize("n", range(3, 13))
def test_b_adjacency_contains_a_as_lower_right_block(n):
    rows_a = build_space(n, "A").adjacency_rows()
    rows_b = build_space(n, "B").adjacency_rows()
    assert len(rows_b) == len(rows_a) + 1
    block = tuple(row[1:] for row in rows_b[1:])
    assert block == rows_a
