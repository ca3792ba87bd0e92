"""The public surface: every name diffops exports exists, once, and the
package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import diffops

SRC = Path(diffops.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in diffops.__all__ if not hasattr(diffops, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(diffops.__all__) == len(set(diffops.__all__))


def test_every_absolute_import_is_in_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = [name.partition(".")[0] for name in names]
            outside += [(path.name, name) for name in top if name not in sys.stdlib_module_names]
    assert outside == []
