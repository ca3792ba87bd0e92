"""Regenerate the sequence fixtures bundled with diffops.

    python tests/fixture_terms.py DIRECTORY

writes one file per sequence id: the id on the first line, 40
comma-separated terms on the second. The classic sequences keep their
canonical database terms (a * 2^i from i = 0); every other id gets the
package's own counts for its first (family, n) pair, matching the
database's offset-1 listings. So for A3..A10 and B10 the bundled files
check the package against its own earlier output, not against the
database.
"""

import sys
from pathlib import Path

from diffops.errors import FixtureError
from diffops.exactalg import walk_vectors
from diffops.opgraph import build_space
from diffops.sequences import fixture_ids, id_associations

GEOMETRIC_FIXTURES = {"A000079": 1, "A007283": 3, "A020714": 5}


def generate_fixture_terms(sequence_id, count=40):
    """Reference terms for one sequence id, generated rather than typed in."""
    if sequence_id in GEOMETRIC_FIXTURES:
        a = GEOMETRIC_FIXTURES[sequence_id]
        return [a * 2**i for i in range(count)]
    pairs = id_associations(sequence_id)
    if not pairs:
        raise FixtureError(f"unknown sequence id {sequence_id!r}")
    fam, n = pairs[0]
    return [sum(vec) for vec in walk_vectors(build_space(n, fam), count)]


def write_fixtures(directory, count=40):
    """Regenerate every fixture file into the given directory."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for sid in fixture_ids():
        terms = generate_fixture_terms(sid, count)
        path = base / f"{sid}.txt"
        path.write_text(sid + "\n" + ",".join(str(t) for t in terms) + "\n", encoding="utf-8", newline="\n")
        written.append(path)
    return written


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    for path in write_fixtures(sys.argv[1]):
        print(path)
