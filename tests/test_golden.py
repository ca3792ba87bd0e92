"""Replay of the golden-output corpus: every argv in tests/golden.json
gives the same exit code and byte-identical stdout and stderr."""

import json
import shlex
import sys

import pytest

import golden


@pytest.fixture
def pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", golden.COLUMNS)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(golden.DIGIT_LIMIT)
    yield
    sys.set_int_max_str_digits(saved)


def test_every_corpus_entry_replays_byte_identical(pinned):
    corpus = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    changed = [line for line, want in corpus.items() if golden.entry(shlex.split(line)) != want]
    assert changed == []


def test_corpus_holds_exactly_the_listed_argv():
    corpus = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert [shlex.join(argv) for argv in golden.ARGV] == list(corpus)
