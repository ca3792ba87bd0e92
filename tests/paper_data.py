"""The paper's data that several test modules check against: the
recurrence table rows, the golden chain sets of A3 and B3, and the
Cayley table read off a signature table."""

# Reference recurrence coefficients for n = 3..10, frozen for comparison.
TABLE_A = {
    3: (1, 1),
    4: (0, 2),
    5: (1, 2, -1),
    6: (0, 3, 0, -1),
    7: (1, 3, -2, -1),
    8: (0, 4, 0, -3),
    9: (1, 4, -3, -3, 1),
    10: (0, 5, 0, -6, 0, 1),
}
TABLE_B = {
    3: (2,),
    4: (1, 2, -1),
    5: (2, 1, -2),
    6: (1, 3, -2, -1),
    7: (2, 2, -4),
    8: (1, 4, -3, -3, 1),
    9: (2, 3, -6, -1, 2),
    10: (1, 5, -4, -6, 3, 1),
}

# Golden chain sets as displayed in the source lists (leftmost-first).
SECOND_ORDER_A3 = {(3, 1), (2, 2), (1, 3), (2, 1), (3, 2)}
THIRD_ORDER_A3 = {
    (1, 3, 1),
    (2, 2, 2),
    (3, 1, 3),
    (2, 2, 1),
    (3, 2, 1),
    (3, 2, 2),
    (1, 3, 2),
    (2, 1, 3),
}
SECOND_ORDER_B3 = {(0, 0), (1, 0), (3, 1), (2, 2), (0, 3), (1, 3), (2, 1), (3, 2)}
THIRD_ORDER_B3 = {
    (0, 0, 0),
    (1, 0, 0),
    (3, 1, 0),
    (0, 3, 1),
    (1, 3, 1),
    (2, 2, 2),
    (0, 0, 3),
    (1, 0, 3),
    (3, 1, 3),
    (2, 1, 0),
    (2, 2, 1),
    (3, 2, 1),
    (3, 2, 2),
    (0, 3, 2),
    (1, 3, 2),
    (2, 1, 3),
}


def cayley_table(space):
    """Truth table of "ops[c] may follow ops[r]", read off the signature table."""
    return tuple(tuple(space.cod(i) == space.dom(j) for j in space.ops) for i in space.ops)
