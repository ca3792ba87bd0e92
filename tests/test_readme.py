"""The README's library example runs against the package as it is."""

import ast
import re
import shlex
from pathlib import Path

from diffops.cli import main

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs_and_gives_its_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        # a comment that opens with a Python literal states the value
        comment = lines[stmt.end_lineno - 1].partition("#")[2].split(",")[0].strip()
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue
        assert value == expected, lines[stmt.end_lineno - 1]
        checked.append(expected)
    assert checked == [2048, "λ^4 - 2λ^3", True]


def test_cli_examples_run_and_give_their_commented_values(capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if b.startswith("diffops ")]
    checked = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "diffops", line
        if "--online" in argv:  # would reach the network
            continue
        if ">" in argv:
            argv = argv[: argv.index(">")]
        assert main(argv[1:]) == 0, line
        first = capsys.readouterr().out.partition("\n")[0]
        # a comment that opens with the first output line states it
        if comment.split(",")[0].strip() == first:
            checked.append(first)
    assert checked == ["8", "λ^4 - 2λ^3", "f(k) = 3 f(k-2) - f(k-4)"]
