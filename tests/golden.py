"""The golden-output corpus of the CLI.

    PYTHONPATH=src python tests/golden.py

runs every argv in ARGV in-process through `diffops.cli.main` and writes
tests/golden.json, which maps each argv (joined as a shell line) to its
exit code and the SHA-256 of its stdout and of its stderr. The tests
replay every entry and require byte-identical output.

An entry changes only when a change means to change that output; then
regenerate the file and name each changed entry, with the reason, in
CHANGES.md. Never regenerate it to make a failing replay pass.

argparse wraps help and usage text to the terminal width, and `count`
refuses integers past the interpreter's digit limit, so both are pinned
(COLUMNS=80, 4300 digits) while the corpus is written and replayed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from diffops.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
COLUMNS = "80"
DIGIT_LIMIT = 4300

# sequence id -> the (family, n) pairs it is the count sequence of
OEIS = {
    "A000079": [("b", 3), ("b", 7)],
    "A007283": [("b", 5)],
    "A020701": [("a", 3)],
    "A020714": [("b", 9)],
    "A090989": [("a", 4)],
    "A090990": [("a", 5), ("b", 4)],
    "A090991": [("a", 6)],
    "A090992": [("a", 7), ("b", 6)],
    "A090993": [("a", 8)],
    "A090994": [("a", 9), ("b", 8)],
    "A090995": [("a", 10)],
    "A129638": [("b", 10)],
}

SUBCOMMANDS = ["count", "enumerate", "charpoly", "recurrence", "table", "verify-identities", "oeis"]


def _argv() -> list[list[str]]:
    out = []

    def add(*args):
        out.append([str(a) for a in args])

    # count: both formats, with and without --per-start
    for fam in "ab":
        for dim in (3, 5, 10):
            for order in (1, 4, 40):
                for fmt in ("text", "json"):
                    add("count", "--family", fam, "--dim", dim, "--order", order, "--format", fmt)
        for dim in (3, 6):
            for order in (2, 20):
                for fmt in ("text", "json"):
                    add("count", "--family", fam, "--dim", dim, "--order", order, "--per-start",
                        "--format", fmt)
    add("count", "--family", "a", "--dim", 3, "--order", 3)
    add("count", "--family", "B", "--dim", 3, "--order", 90, "--format", "json")
    add("count", "--family", "a", "--dim", 20000, "--order", 2)
    # the digit limit: order 14283 prints 4300 digits, order 14284 exits 3
    for fmt in ("text", "json"):
        for order in (14283, 14284):
            add("count", "--family", "b", "--dim", 3, "--per-start", "--format", fmt, "--order", order)
    add("count", "--family", "b", "--dim", 3, "--order", 50000)
    add("count", "--family", "b", "--dim", 3, "--order", 200000)
    add("count", "--family", "a", "--dim", 2, "--order", 1)
    add("count", "--family", "a", "--dim", 3, "--order", 0)
    add("count", "--family", "b", "--dim", -1, "--order", 3)

    # enumerate: text, JSON and DOT, with and without --mark-zeros
    for fam in "ab":
        for dim in (3, 4):
            for order in (1, 2, 3, 4):
                for fmt in ("text", "json", "dot"):
                    add("enumerate", "--family", fam, "--dim", dim, "--order", order, "--format", fmt)
        for order in (2, 3, 5):
            for fmt in ("text", "json"):
                add("enumerate", "--family", fam, "--dim", 3, "--order", order, "--mark-zeros",
                    "--format", fmt)
    add("enumerate", "--family", "b", "--dim", 3, "--order", 2, "--mark-zeros")
    add("enumerate", "--family", "a", "--dim", 6, "--order", 3)
    add("enumerate", "--family", "b", "--dim", 7, "--order", 3, "--format", "json")
    add("enumerate", "--family", "b", "--dim", 5, "--order", 4, "--format", "dot")
    add("enumerate", "--family", "a", "--dim", 3, "--order", 6, "--format", "dot")
    add("enumerate", "--family", "b", "--dim", 3, "--order", 10, "--mark-zeros")
    add("enumerate", "--family", "b", "--dim", 3, "--order", 4, "--cap", 31)
    add("enumerate", "--family", "b", "--dim", 3, "--order", 4, "--cap", 32, "--format", "json")
    add("enumerate", "--family", "b", "--dim", 3, "--order", 25, "--cap", 1000)
    add("enumerate", "--family", "b", "--dim", 3, "--order", 25, "--cap", 1000, "--format", "json")
    add("enumerate", "--family", "b", "--dim", 3, "--order", 25, "--cap", 1000, "--format", "dot")
    add("enumerate", "--family", "b", "--dim", 3, "--order", 2, "--cap", -5)
    add("enumerate", "--family", "b", "--dim", 3, "--order", 0)
    add("enumerate", "--family", "a", "--dim", 4, "--order", 2, "--mark-zeros")
    add("enumerate", "--family", "b", "--dim", 4, "--order", 30, "--mark-zeros")
    add("enumerate", "--family", "b", "--dim", 3, "--order", 2, "--mark-zeros", "--format", "dot")

    # charpoly, up to n = 48
    for fam in "ab":
        for dim in (*range(3, 13), 20, 30, 48):
            for fmt in ("text", "json"):
                add("charpoly", "--family", fam, "--dim", dim, "--format", fmt)
    add("charpoly", "--family", "b", "--dim", 3)
    add("charpoly", "--family", "a", "--dim", 2)

    # recurrence
    for fam in "ab":
        for dim in range(3, 11):
            for fmt in ("text", "json"):
                add("recurrence", "--family", fam, "--dim", dim, "--format", fmt)
        add("recurrence", "--family", fam, "--dim", 48, "--format", "json")
    add("recurrence", "--family", "a", "--dim", 6)
    add("recurrence", "--family", "b", "--dim", 5, "--upto", 100)
    add("recurrence", "--family", "a", "--dim", 6, "--upto", 2)
    add("recurrence", "--family", "a", "--dim", 3, "--upto", 0)

    # table: text, JSON and CSV
    for dims in ("3..10", "3..30", "7"):
        for fmt in ("text", "json", "csv"):
            add("table", "--dims", dims, "--format", fmt)
    for fam in "ab":
        for fmt in ("text", "json", "csv"):
            add("table", "--dims", "3..10", "--family", fam, "--format", fmt)
    add("table")
    add("table", "--dims", "3..4", "--format", "csv")
    add("table", "--dims", "5..3")
    add("table", "--dims", "x..y")
    add("table", "--dims", "2..4")

    # verify-identities
    for fmt in ("text", "json"):
        add("verify-identities", "--format", fmt)
        add("verify-identities", "--trials", 4, "--degree", 3, "--seed", 11, "--format", fmt)
        add("verify-identities", "--trials", 3, "--degree", 4, "--seed", 1, "--format", fmt)
    add("verify-identities", "--trials", 25, "--degree", 4, "--seed", 7)
    add("verify-identities", "--trials", 25, "--degree", 6, "--seed", 3, "--format", "json")
    add("verify-identities", "--trials", 0)
    add("verify-identities", "--degree", 1)
    add("verify-identities", "--trials", 25, "--degree", 2)

    # oeis: every id, alone and restricted to each of its pairs
    for sid, pairs in OEIS.items():
        for fmt in ("text", "json"):
            add("oeis", "--id", sid, "--format", fmt)
        for fam, n in pairs:
            add("oeis", "--id", sid, "--family", fam, "--dim", n)
    add("oeis", "--id", "A090990", "--terms", 60, "--format", "json")
    add("oeis", "--id", "A000079", "--terms", 0)
    add("oeis", "--id", "A000079", "--terms", -3)
    add("oeis", "--id", "A999999")
    add("oeis", "--id", "A000079", "--family", "a", "--dim", 3)
    add("oeis", "--id", "A000079", "--family", "b")

    # argparse: help, unknown values, bad choices, missing options
    add("--help")
    for sub in SUBCOMMANDS:
        add(sub, "--help")
    add()
    add("frobnicate")
    add("count", "--family", "x", "--dim", 3, "--order", 1)
    add("count", "--family", "a", "--dim", 3, "--order", 1, "--format", "xml")
    add("count", "--family", "a", "--dim", 3)
    add("count", "--family", "a", "--dim", "x", "--order", 1)
    add("count", "--family", "a", "--dim", 3, "--order", 1, "--bogus")
    add("enumerate", "--family", "a", "--dim", 3, "--order", 2, "--format", "csv")
    add("table", "--format", "dot")
    add("charpoly", "--family", "c", "--dim", 3)
    add("recurrence", "--dim", 3)
    add("oeis")
    return out


ARGV = _argv()


def entry(argv: list[str]) -> dict:
    """Exit code and output hashes of one in-process CLI run; argparse
    exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    corpus = {shlex.join(argv): entry(argv) for argv in ARGV}
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(corpus)} entries written to {GOLDEN}")
