import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffops
from diffops.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_a3_order3(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "a", "--dim", "3", "--order", "3")
        assert code == 0
        assert out.strip() == "8"

    def test_b3_order2(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "b", "--dim", "3", "--order", "2")
        assert code == 0
        assert out.strip() == "8"

    def test_b3_order10_power_of_two(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "b", "--dim", "3", "--order", "10")
        assert code == 0
        assert out.strip() == "2048"

    def test_per_start(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "b", "--dim", "3", "--order", "2", "--per-start"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "8"
        assert lines[1:] == ["∇_0: 2", "∇_1: 2", "∇_2: 2", "∇_3: 2"]

    def test_json_big_integer_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "b", "--dim", "3", "--order", "90", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert int(payload["count"]) == 2**91
        assert isinstance(payload["count"], str)

    def test_usage_errors(self, capsys):
        code, _, err = run(capsys, "count", "--family", "a", "--dim", "2", "--order", "1")
        assert code == 2
        assert "dimension" in err
        code, _, err = run(capsys, "count", "--family", "a", "--dim", "3", "--order", "0")
        assert code == 2

    @pytest.fixture
    def digit_limit(self):
        """Pin the int-to-str digit limit at its 4300 default for one test."""
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(saved)

    # g(k) = 2^(k+1) on B3: order 14283 has 4300 digits, order 14284 has 4301.
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_digit_limit_boundary(self, capsys, digit_limit, fmt):
        argv = ("count", "--family", "b", "--dim", "3", "--per-start", "--format", fmt)
        code, out, err = run(capsys, *argv, "--order", "14283")
        assert code == 0 and err == ""
        assert str(2**14284) in out and len(str(2**14284)) == digit_limit
        code, out, err = run(capsys, *argv, "--order", "14284")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4300 decimal digits" in err

    def test_digit_limit_exit_3_without_traceback(self, capsys, digit_limit):
        code, out, err = run(capsys, "count", "--family", "b", "--dim", "3", "--order", "50000")
        assert (code, out, err.count("\n")) == (3, "", 1)

    def test_refusal_stops_the_walk_early(self, capsys, digit_limit, monkeypatch):
        steps = 0
        walk = diffops.cli.walk_vectors

        def counted(space, k):
            nonlocal steps
            for vec in walk(space, k):
                steps += 1
                yield vec

        monkeypatch.setattr(diffops.cli, "walk_vectors", counted)
        code, out, err = run(capsys, "count", "--family", "b", "--dim", "3", "--order", "200000")
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("error: ")
        # 14284 is the first B3 order past the limit
        assert 14284 <= steps <= 2 * 14284

    def test_zero_digit_limit_means_no_limit(self, capsys, digit_limit):
        sys.set_int_max_str_digits(0)
        code, out, _ = run(capsys, "count", "--family", "b", "--dim", "3", "--order", "14284")
        assert code == 0
        assert out == f"{2**14285}\n"

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--family", "z", "--dim", "3", "--order", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-identities", "--trials", "0"),
        ("verify-identities", "--degree", "1"),
        ("enumerate", "--family", "b", "--dim", "3", "--order", "2", "--cap", "-5"),
        ("table", "--dims", "5..3"),
        ("recurrence", "--family", "a", "--dim", "6", "--upto", "2"),
        ("enumerate", "--family", "b", "--dim", "4", "--order", "30", "--mark-zeros"),
        ("verify-identities", "--trials", "25", "--degree", "2"),
        ("enumerate", "--family", "b", "--dim", "3", "--order", "2", "--mark-zeros",
         "--format", "dot"),
    ],
)
def test_out_of_range_arguments_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,lines",
    [
        (("count", "--family", "a", "--dim", "20000", "--order", "2"), ["39998"]),
        (("enumerate", "--family", "a", "--dim", "50000", "--order", "1"),
         [f"∇_{i}" for i in range(1, 50001)]),
    ],
)
def test_large_dimension_without_quadratic_work(argv, lines):
    # build_space and the successor lists take O(order) work; a pass
    # over all operation pairs would take minutes at these n
    env = dict(
        os.environ, PYTHONPATH=str(Path(diffops.__file__).parents[1]), PYTHONIOENCODING="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "diffops", *argv],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == lines


def test_import_leaves_the_network_stack_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(diffops.__file__).parents[1]))
    probe = "import sys, diffops.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--family", "b", "--dim", "4", "--order", "6", "--format", "json"),
            ("charpoly", "--family", "a", "--dim", "7", "--format", "json"),
            ("verify-identities", "--trials", "4", "--degree", "3", "--seed", "11", "--format", "json"),
            ("table", "--dims", "3..6", "--format", "csv"),
        ],
    )
    def test_identical_flags_identical_bytes(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestEnumerate:
    def test_b3_named_chains(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "b", "--dim", "3", "--order", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert "div grad f" in lines
        assert "D_e D_e f" in lines

    def test_mark_zeros(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "b", "--dim", "3", "--order", "2", "--mark-zeros"
        )
        assert code == 0
        assert "curl grad f = 0⃗" in out
        assert "div curl f⃗ = 0" in out

    def test_mark_zeros_requires_dim3(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--family", "a", "--dim", "4", "--order", "2", "--mark-zeros"
        )
        assert code == 2

    def test_numeric_names_for_higher_dimensions(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "a", "--dim", "4", "--order", "2")
        assert code == 0
        assert len(out.splitlines()) == 6
        assert "∇_2 ∘ ∇_1" in out

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--family", "b", "--dim", "3", "--order", "3", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 4 + 8 + 16

    def test_json_chains(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--family", "a", "--dim", "3", "--order", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == "5"
        assert {tuple(c["ops"]) for c in payload["chains"]} == {
            (1, 3), (2, 1), (2, 2), (3, 1), (3, 2),
        }

    def test_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "enumerate", "--family", "b", "--dim", "3", "--order", "25", "--cap", "1000",
        )
        assert code == 3
        assert "cap" in err


class TestCharpoly:
    def test_b3_text(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--family", "b", "--dim", "3")
        assert code == 0
        assert out.splitlines() == ["λ^4 - 2λ^3", "closed form: match"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--family", "a", "--dim", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["coefficients"] == ["0", "-1", "-1", "1"]
        assert payload["closed_form_match"] is True


class TestRecurrence:
    def test_a6(self, capsys):
        code, out, _ = run(capsys, "recurrence", "--family", "a", "--dim", "6")
        assert code == 0
        assert "f(k) = 3 f(k-2) - f(k-4)" in out
        assert "[0, 3, 0, -1]" in out
        assert "yes" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "recurrence", "--family", "b", "--dim", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["coefficients"] == ["2"]
        assert payload["verified"] is True


class TestTable:
    def test_text_has_16_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--dims", "3..10")
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--dims", "3..4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "family,n,order,coefficients,formula"
        assert lines[1].startswith("A,3,2,1 1,")
        assert len(lines) == 1 + 4

    def test_single_family(self, capsys):
        code, out, _ = run(capsys, "table", "--dims", "3..10", "--family", "b")
        assert len(out.splitlines()) == 8
        assert all(line.startswith("B") for line in out.splitlines())

    def test_bad_range_arg(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--dims", "x..y"])
        assert exc.value.code == 2


class TestVerifyIdentities:
    def test_summary_line(self, capsys):
        code, out, _ = run(
            capsys, "verify-identities", "--trials", "25", "--degree", "4", "--seed", "7"
        )
        assert code == 0
        assert "9/9 zero-identities hold" in out
        assert "15/15 non-zero compositions witnessed" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-identities", "--trials", "3", "--degree", "4", "--seed", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["zero_identities"]) == 9
        assert len(payload["nonzero_witnesses"]) == 15


# SHA-256 of stdout, computed before the identity suite moved to integer
# arithmetic; the reports must stay byte-identical.
GOLDEN_STDOUT = {
    ("verify-identities", "--trials", "25", "--degree", "4", "--seed", "7", "--format", "json"):
        "fcf142178610a6cefc5d63ce410c11020db038d22eab729b688fd1bacbc5480b",
    ("verify-identities", "--trials", "5", "--degree", "3", "--seed", "1"):
        "0b414b810b10a3136df4391f6ab59098e7a0c300fb82bd0726df01a096de8a35",
    ("verify-identities", "--trials", "25", "--degree", "6", "--seed", "3", "--format", "json"):
        "6f8604efc5e9db4314504a68938977f471109aeba210453b3cccb02869e3851e",
    ("verify-identities",):
        "9224f1524f86f9ba179ba87f4312383cb28d5540211ea0622dfe5ade08fc71cb",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
def test_verify_identities_golden_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


# SHA-256 of stdout, computed while the walk tree was still built as an
# object tree and written by recursion; the DOT export must stay
# byte-identical.
GOLDEN_DOT = {
    ("enumerate", "--family", "b", "--dim", "3", "--order", "3", "--format", "dot"):
        "fb7733d5974f0b90b16bea442d950066d554fdb1949fea4ea0220a8071caa498",
    ("enumerate", "--family", "a", "--dim", "4", "--order", "3", "--format", "dot"):
        "62d578684301068e9a97f2eac7fc58a7dd5482d8e94e0c9a57f50f307798e116",
    ("enumerate", "--family", "b", "--dim", "5", "--order", "4", "--format", "dot"):
        "fca70cb7c15b3dfc52cce5ff0c28bfc2f03ceec7fb0544b12f71837ab5f530a5",
    ("enumerate", "--family", "a", "--dim", "3", "--order", "6", "--format", "dot"):
        "63af5cc032a50314a2cbb3fe511344f95000cd71edc9e5cef69e741cd00c941b",
}


@pytest.mark.parametrize("argv", list(GOLDEN_DOT))
def test_dot_golden_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DOT[argv]


class TestOeis:
    def test_single_id(self, capsys):
        code, out, _ = run(capsys, "oeis", "--id", "A020701")
        assert code == 0
        assert "match" in out

    def test_shared_id_lists_both(self, capsys):
        code, out, _ = run(capsys, "oeis", "--id", "A000079")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert "n=3" in out and "n=7" in out

    def test_restricted_to_one_pair(self, capsys):
        code, out, _ = run(
            capsys, "oeis", "--id", "A000079", "--family", "b", "--dim", "7"
        )
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "oeis", "--id", "A999999")
        assert code == 2

    def test_mismatched_restriction(self, capsys):
        code, _, err = run(
            capsys, "oeis", "--id", "A000079", "--family", "a", "--dim", "3"
        )
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "oeis", "--id", "A090990", "--format", "json")
        payload = json.loads(out)
        assert [c["family"] for c in payload["comparisons"]] == ["A", "B"]
        assert all(c["passed"] for c in payload["comparisons"])
