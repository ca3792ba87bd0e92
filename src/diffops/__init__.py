"""Exact enumeration and verification of meaningful compositions of
vector-calculus differential operations (grad, curl, div and the
directional derivative), their counting sequences and characteristic
polynomials, and the symbolic composition identities in three dimensions.
"""

from .chains import (
    CompositionChain,
    PerStartCounts,
    chain_name,
    enumerate_chains,
    export_tree_dot,
    per_start_counts,
)
from .closedform import (
    charpoly_a_closed,
    charpoly_b_closed,
    check_bridge_identity,
    check_charpoly_recurrence,
    count_closed_form_r3,
)
from .exactalg import IntPolynomial, count_order_k, walk_char_poly, walk_vectors
from .opgraph import Family, OperationSpace, build_space
from .sequences import RecurrenceSpec, SequenceRecord, derive_recurrence, oeis_compare, recurrence_table, verify_recurrence
from .symcalc3 import Direction, Poly3, VecField3, compose_and_check, curl, direction, div, gateaux, grad, verify_identities

__version__ = "0.1.0"

__all__ = [
    "CompositionChain",
    "Direction",
    "Family",
    "IntPolynomial",
    "OperationSpace",
    "PerStartCounts",
    "Poly3",
    "RecurrenceSpec",
    "SequenceRecord",
    "VecField3",
    "build_space",
    "chain_name",
    "charpoly_a_closed",
    "charpoly_b_closed",
    "check_bridge_identity",
    "check_charpoly_recurrence",
    "compose_and_check",
    "count_closed_form_r3",
    "count_order_k",
    "curl",
    "derive_recurrence",
    "direction",
    "div",
    "enumerate_chains",
    "export_tree_dot",
    "gateaux",
    "grad",
    "oeis_compare",
    "per_start_counts",
    "recurrence_table",
    "verify_identities",
    "verify_recurrence",
    "walk_char_poly",
    "walk_vectors",
]
