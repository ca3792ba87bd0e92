"""The CLI contract for generated argv: every subcommand, with valid and
invalid arguments alike, exits 0, 1, 2 or 3 without a traceback; JSON
output parses and carries its big integers as strings.

Each argv starts valid and then, one time in two, has one token replaced
by a bad one, one token dropped, or a bad token appended. Sizes stay
small (dim <= 12, enumerate order <= 10, count order <= 300, table ranges
within 3..12, trials <= 3, degree <= 4) so a run takes seconds; --online
is never drawn, since it would reach the network.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from diffops.cli import main
from diffops.sequences import fixture_ids, id_associations

FAMILY = st.sampled_from(["a", "b", "A", "B"])
DIM = st.integers(3, 12)
DIMS = st.one_of(st.tuples(DIM, DIM).map(lambda r: f"{min(r)}..{max(r)}"), DIM.map(str))
BAD_TOKENS = st.sampled_from(
    ["", "x", "-1", "0", "2", "1.5", "5..3", "1e3", "c", "xml", "--bogus", "--order"]
)


def formats(*extra):
    return st.sampled_from(["text", "json", *extra])


# subcommand -> (flag, value strategy or None for a bare flag, always drawn)
OPTIONS = {
    "count": [
        ("--family", FAMILY, True), ("--dim", DIM, True), ("--order", st.integers(1, 300), True),
        ("--per-start", None, False), ("--format", formats(), False),
    ],
    "enumerate": [
        ("--family", FAMILY, True), ("--dim", DIM, True), ("--order", st.integers(1, 10), True),
        ("--cap", st.integers(0, 5000), False), ("--mark-zeros", None, False),
        ("--format", formats("dot"), False),
    ],
    "charpoly": [("--family", FAMILY, True), ("--dim", DIM, True), ("--format", formats(), False)],
    "recurrence": [
        ("--family", FAMILY, True), ("--dim", DIM, True), ("--upto", st.integers(1, 60), False),
        ("--format", formats(), False),
    ],
    "table": [
        ("--dims", DIMS, False), ("--family", FAMILY, False), ("--format", formats("csv"), False),
    ],
    "verify-identities": [
        ("--trials", st.integers(1, 3), True), ("--degree", st.integers(3, 4), True),
        ("--seed", st.integers(0, 10**6), False), ("--format", formats(), False),
    ],
    "oeis": [
        ("--id", st.sampled_from(fixture_ids()), True), ("--terms", st.integers(1, 60), False),
        ("--format", formats(), False),
    ],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values, always in OPTIONS[command]:
        if always or draw(st.booleans()):
            argv += [flag] if values is None else [flag, str(draw(values))]
    if command == "oeis" and draw(st.booleans()):
        family, n = draw(st.sampled_from(id_associations(argv[2])))
        argv += ["--family", family.value, "--dim", str(n)]
    mutation = draw(st.sampled_from(["keep", "keep", "keep", "replace", "drop", "append"]))
    if mutation == "append":
        argv.append(draw(BAD_TOKENS))
    elif mutation != "keep":
        i = draw(st.integers(0, len(argv) - 1))
        argv[i:i + 1] = [draw(BAD_TOKENS)] if mutation == "replace" else []
    return argv


def small_ints_only(payload) -> bool:
    """Whether every JSON number fits a double exactly, i.e. every big
    integer was written as a string."""
    if isinstance(payload, dict):
        return all(small_ints_only(v) for v in payload.values())
    if isinstance(payload, list):
        return all(small_ints_only(v) for v in payload)
    return not isinstance(payload, int) or abs(payload) < 2**53


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argvs())
def test_every_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert out.getvalue() == "" and err.getvalue(), argv
    elif dict(zip(argv, argv[1:])).get("--format") == "json":
        assert small_ints_only(json.loads(out.getvalue())), argv
