import re
from itertools import product

import pytest

from diffops.chains import (
    CompositionChain,
    chain_name,
    enumerate_chains,
    export_tree_dot,
    per_start_counts,
)
from diffops.errors import EnumerationCapError, InvalidOperationError, InvalidOrderError
from diffops.exactalg import count_order_k
from diffops.opgraph import build_space

from paper_data import SECOND_ORDER_A3, SECOND_ORDER_B3, THIRD_ORDER_A3, THIRD_ORDER_B3
from pair_rule import is_meaningful


def ops_set(chains):
    return {c.ops for c in chains}


class TestGoldenChainLists:
    def test_a3_second_order(self):
        assert ops_set(enumerate_chains(build_space(3, "A"), 2)) == SECOND_ORDER_A3

    def test_a3_third_order(self):
        assert ops_set(enumerate_chains(build_space(3, "A"), 3)) == THIRD_ORDER_A3

    def test_b3_second_order(self):
        assert ops_set(enumerate_chains(build_space(3, "B"), 2)) == SECOND_ORDER_B3

    def test_b3_third_order(self):
        assert ops_set(enumerate_chains(build_space(3, "B"), 3)) == THIRD_ORDER_B3

    def test_first_order_chains_are_the_operations(self):
        assert ops_set(enumerate_chains(build_space(3, "A"), 1)) == {(1,), (2,), (3,)}
        assert ops_set(enumerate_chains(build_space(3, "B"), 1)) == {(0,), (1,), (2,), (3,)}


class TestEnumerationMechanics:
    def test_lexicographic_output_order(self):
        # brute force by the pair rule, then sorted; a meaningful chain's
        # prefixes are meaningful, so extending only those finds them all
        for family in ("A", "B"):
            for n in range(3, 9):
                space = build_space(n, family)
                found = [()]
                for k in range(1, 7):
                    found = [s + (j,) for s in found for j in space.ops
                             if is_meaningful(space, s + (j,))]
                    expected = [(s, (space.dom(s[-1]), space.cod(s[0]))) for s in sorted(found)]
                    chains = enumerate_chains(space, k)
                    assert [(c.ops, c.signature) for c in chains] == expected, (family, n, k)

    def test_signatures(self):
        chains = {c.ops: c for c in enumerate_chains(build_space(3, "B"), 2)}
        assert chains[(3, 1)].signature == (0, 0)  # div grad: scalar -> scalar
        assert chains[(1, 3)].signature == (1, 1)  # grad div: vector -> vector
        assert chains[(1, 0)].signature == (0, 1)  # grad D_e: scalar -> vector

    def test_every_chain_passes_adjacency_check(self):
        for family in ("A", "B"):
            space = build_space(5, family)
            for c in enumerate_chains(space, 4):
                assert is_meaningful(space, c.ops)

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_length_equals_matrix_count(self, family, n):
        space = build_space(n, family)
        for k in range(1, 9):
            assert len(enumerate_chains(space, k)) == count_order_k(space, k)

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complement_fails_adjacency_check(self, family, n):
        space = build_space(n, family)
        for k in (2, 3, 6):
            enumerated = ops_set(enumerate_chains(space, k))
            for seq in product(space.ops, repeat=k):
                assert (seq in enumerated) == is_meaningful(space, seq)

    @pytest.mark.parametrize("ops", [(7,), (0,), (7, 7), (1, 7), (-1,)])
    def test_unknown_index_raises_at_every_length(self, ops):
        with pytest.raises(InvalidOperationError):
            is_meaningful(build_space(3, "A"), ops)

    def test_single_operations_are_meaningful(self):
        assert is_meaningful(build_space(3, "B"), (0,))
        assert all(is_meaningful(build_space(3, "A"), (i,)) for i in (1, 2, 3))

    def test_cap_exceeded_names_the_count(self):
        with pytest.raises(EnumerationCapError) as err:
            enumerate_chains(build_space(3, "B"), 25, cap=10**6)
        assert err.value.count == 2**26
        assert "67108864" in str(err.value)

    def test_order_below_one_rejected(self):
        with pytest.raises(InvalidOrderError, match=r"^composition order must be >= 1, got 0$"):
            enumerate_chains(build_space(3, "A"), 0)


class TestChainNames:
    @pytest.mark.parametrize(
        "ops,expected",
        [
            ((3, 1), "div grad f"),
            ((0, 3, 2), "D_e div curl f⃗"),
            ((2, 1, 3), "curl grad div f⃗"),
            ((0, 0), "D_e D_e f"),
        ],
    )
    def test_r3_names(self, ops, expected):
        space = build_space(3, "B")
        chain = {c.ops: c for c in enumerate_chains(space, len(ops))}[ops]
        assert chain_name(chain, 3) == expected

    def test_numeric_names_outside_r3(self):
        chain = CompositionChain((4, 1), (0, 0))
        assert chain_name(chain, 4) == "∇_4 ∘ ∇_1"


class TestPerStartCounts:
    def test_b3_second_order_split(self):
        ps = per_start_counts(build_space(3, "B"), 2)
        assert ps.counts == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_first_order_all_ones(self):
        ps = per_start_counts(build_space(3, "B"), 1)
        assert ps.counts == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_totals_match_closed_form(self):
        ps = per_start_counts(build_space(3, "B"), 5)
        assert ps.total == 64

    def test_totals_match_matrix_count(self):
        for family in ("A", "B"):
            for n in (3, 4, 6):
                space = build_space(n, family)
                for k in (1, 2, 5, 9):
                    assert per_start_counts(space, k).total == count_order_k(space, k)

    def test_counts_match_enumeration_by_leftmost_op(self):
        space = build_space(4, "B")
        for k in (1, 2, 4):
            ps = per_start_counts(space, k)
            chains = enumerate_chains(space, k)
            for i in space.ops:
                assert ps.counts[i] == sum(1 for c in chains if c.ops[0] == i)

    def test_b3_self_similarity_system(self):
        # the per-start recursion read off the walk tree's partial self
        # similarity, plus the two start symmetries
        space = build_space(3, "B")
        prev = per_start_counts(space, 1).counts
        for k in range(2, 21):
            cur = per_start_counts(space, k).counts
            assert cur[0] == prev[0] + prev[1]
            assert cur[1] == prev[2] + prev[3]
            assert cur[2] == prev[2] + prev[3]
            assert cur[3] == prev[0] + prev[1]
            assert cur[0] == cur[3] and cur[1] == cur[2]
            prev = cur


class TestTreeExport:
    def test_b3_depth_one(self):
        dot = export_tree_dot(build_space(3, "B"), 1)
        assert dot.count("[label=") == 5  # root + 4 children
        assert dot.count("->") == 4

    def test_b3_depth_three_node_count(self):
        dot = export_tree_dot(build_space(3, "B"), 3)
        assert dot.count("[label=") == 1 + 4 + 8 + 16
        assert dot.count("->") == 4 + 8 + 16

    def test_a3_levels(self):
        dot = export_tree_dot(build_space(3, "A"), 2)
        assert "// f(0) = 1" in dot
        assert "// f(1) = 3" in dot
        assert "// f(2) = 5" in dot
        assert dot.count("[label=") == 1 + 3 + 5

    def test_level_sizes_equal_counts(self):
        space = build_space(4, "B")
        depth = 4
        dot = export_tree_dot(space, depth)
        for d in range(1, depth + 1):
            expected = count_order_k(space, d)
            assert f"// g({d}) = {expected}" in dot
            # nodes at level d have ids with exactly d dot-separated parts
            level_ids = re.findall(r'^  "((?:\d+\.)*\d+)" \[label=', dot, re.M)
            assert sum(1 for i in level_ids if i.count(".") == d - 1) == expected

    def test_dot_structure(self):
        dot = export_tree_dot(build_space(3, "B"), 2)
        lines = dot.splitlines()
        assert lines[0] == "digraph composition_tree {"
        assert lines[-1] == "}"
        edge_lines = [ln for ln in lines if "->" in ln]
        # one edge per line, both endpoints quoted
        assert all(re.fullmatch(r'\s*"[^"]+" -> "[^"]+";', ln) for ln in edge_lines)
        assert '"nabla_-1"' in dot

    def test_cap_applies(self):
        with pytest.raises(EnumerationCapError):
            export_tree_dot(build_space(3, "B"), 25, cap=1000)

    def test_tree_levels_equal_counts(self):
        for family, letter in (("A", "f"), ("B", "g")):
            space = build_space(5, family)
            dot = export_tree_dot(space, 5)
            sizes = [1] + [count_order_k(space, d) for d in range(1, 6)]
            comments = re.findall(rf"^  // {letter}\((\d+)\) = (\d+)$", dot, re.M)
            assert comments == [(str(d), str(c)) for d, c in enumerate(sizes)]
            # a level-d node id is its path from the root: d dot-joined ops
            nodes = dot_nodes(dot)
            assert nodes[0] == ("nabla_-1", "-1")
            levels = [node_id.count(".") + 1 for node_id, _ in nodes[1:]]
            assert [1] + [levels.count(d) for d in range(1, 6)] == sizes
            assert all(node_id.rpartition(".")[2] == label for node_id, label in nodes[1:])

    def test_root_children_are_first_order_operations(self):
        for family in ("A", "B"):
            space = build_space(3, family)
            for depth in (1, 3):
                edges = dot_edges(export_tree_dot(space, depth))
                children = [child for parent, child in edges if parent == "nabla_-1"]
                assert children == [str(i) for i in space.ops]

    def test_every_node_follows_its_parent(self):
        for family, n, depth in (("A", 3, 6), ("B", 4, 4), ("B", 5, 4)):
            dot = export_tree_dot(build_space(n, family), depth)
            position = {node_id: pos for pos, (node_id, _) in enumerate(dot_nodes(dot))}
            edges = dot_edges(dot)
            assert len(edges) == len(position) - 1
            assert all(position[parent] < position[child] for parent, child in edges)
            assert all(parent == (child.rpartition(".")[0] or "nabla_-1") for parent, child in edges)


def dot_nodes(dot):
    """(id, label index) of every node line, in output order."""
    return re.findall(r'^  "([^"]+)" \[label="∇_(-?\d+)"\];$', dot, re.M)


def dot_edges(dot):
    """(parent id, child id) of every edge line, in output order."""
    return re.findall(r'^  "([^"]+)" -> "([^"]+)";$', dot, re.M)
