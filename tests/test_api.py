"""The public surface: every name diffops exports exists, once."""

import diffops


def test_every_exported_name_resolves():
    missing = [name for name in diffops.__all__ if not hasattr(diffops, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(diffops.__all__) == len(set(diffops.__all__))
