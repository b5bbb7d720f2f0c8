"""Command line front end tests."""

import argparse
import io
import json
import os
import random
import subprocess
import sys

import pytest

import resnil
import resnil.criteria as criteria
from resnil.cli import (
    BuiltinExample,
    JobSpec,
    _build_parser,
    _capped_power,
    _json_text,
    builtin_examples,
    main,
    parse_endo_text,
    parse_matrix_literal,
    run,
)
from resnil.criteria import Verdict, classify_general
from resnil.errors import DimensionMismatch, NotPrime, WordSyntaxError
from resnil.freegroup import abelianization_matrix, endo_power
from resnil.zlinalg import IntMatrix

from oracles import literal_eval_matrix, unit_kronecker_product, with_alarm


def _outcome(f, arg):
    # what f(arg) returns, or the type and text of the error it raises
    try:
        return f(arg)
    except Exception as e:
        return type(e), str(e)


class TestInputParsing:
    def test_matrix_literal(self):
        A = parse_matrix_literal("[[0, 1], [1, 3]]")
        assert A.to_rows() == [[0, 1], [1, 3]]

    def test_matrix_literal_rejects_garbage(self):
        for text in ("[1,2,3]", "[[1,'a']]", "hello", "[]"):
            with pytest.raises(ValueError):
                parse_matrix_literal(text)
        with pytest.raises(DimensionMismatch):
            parse_matrix_literal("[[1,2],[3]]")

    def test_endo_text(self):
        f = parse_endo_text("a->b; b->a b^3")
        assert f.rank == 2
        assert str(f.images[0]) == "b"

    def test_endo_text_bad_word(self):
        with pytest.raises(WordSyntaxError):
            parse_endo_text("a->$; b->a")


class TestLiteralFastPath:
    """parse_matrix_literal tries json.loads before ast.literal_eval; every
    literal must end as it ends under literal_eval alone."""

    PINNED = (
        # JSON takes a line break as whitespace, literal_eval not always
        "\n  [[2,1],[1,1]]", "[[2,1],[1,1]]\n", "\r[[1]]", "[[1],\n[2]]",
        " [[1]]", "\t[[1, 2], [3, 4]]\t", "[[1]]  ", " \t [[1]]",
        # Python literals that are not JSON, JSON values that are not rows
        "True", "[[0x10,1],[1,0]]", "[[1,2,],[3,4]]", "[[2,1],[1,1]] # c",
        "[[1_0]]", "[[+1]]", "[[- 1]]", "[(1,2)]", "((1,),)", "[[01]]",
        "[[NaN]]", "[[Infinity]]", "[[1e3]]", "[[1.0]]", "[[true]]", "[[null]]",
        '[["1"]]', "[[1]]\x00", "\ufeff[[1]]", "[[1]]\x0c", "\xa0[[1]]",
        # shapes IntMatrix refuses, sizes and depths the parsers refuse
        "[[1,2],[3]]", "[[]]", "[]", "[[-0]]", "[[1" + "0" * 4300 + "]]",
        "[[" + "9" * 4300 + "]]", "[" * 200 + "]" * 200, "[" * 1100 + "]" * 1100,
    )
    TOKENS = (
        "[", "]", ",", " ", "\t", "\n", "\r", "-", "+", "0", "7", "0x1f", "1_0",
        ".5", "e3", "True", "true", "NaN", "null", "#", "'", '"', "(", ")", "\\",
        "\x00", "\xe9", "\ufeff", "\x0c", "[[", "]]",
    )

    def test_pinned_literals(self):
        for text in self.PINNED:
            assert _outcome(parse_matrix_literal, text) == _outcome(literal_eval_matrix, text)

    def test_fuzzed_literals(self):
        rng = random.Random(22)
        for _ in range(20000):
            n = rng.randint(1, 3)
            rows = [[rng.choice((0, 1, -1, 7, 2**70, -(10**30))) for _ in range(n)]
                    for _ in range(rng.choice((n, n, 1)))]
            text = json.dumps(rows, separators=(rng.choice((",", ", ", " ,")), ":"))
            # leading whitespace: an indent after a line break is refused
            text = "".join(rng.choice(" \t\n\r") for _ in range(rng.choice((0, 0, 1, 3)))) + text
            for _ in range(rng.randint(0, 3)):
                i = rng.randint(0, len(text))
                j = i + rng.choice((0, 0, 1))
                text = text[:i] + rng.choice(self.TOKENS) + text[j:]
            assert _outcome(parse_matrix_literal, text) == _outcome(literal_eval_matrix, text)


class TestJsonWriter:
    """_json_text prints what json.dumps(indent=2, sort_keys=True) prints."""

    CHARS = (
        "a", "Z", " ", '"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00",
        "\x1f", "\x7f", "\xe9", "\u2028", "\ud800", "\udfff", "\U0001d4d0",
        "\ufeff",
    )

    def rand_str(self, rng):
        return "".join(rng.choice(self.CHARS) for _ in range(rng.randint(0, 5)))

    def rand_doc(self, rng, depth):
        kind = rng.randrange(7 if depth else 5)
        if kind == 0:
            return self.rand_str(rng)
        if kind == 1:
            return rng.choice((0, -1, 1, 255, 2**63)) * rng.choice((1, -1))
        if kind == 2:
            return rng.choice((1, -1)) * rng.randint(0, 10 ** rng.randint(20, 4000))
        if kind == 3:
            return rng.choice((True, False, None))
        if kind == 4:
            return rng.choice(({}, []))
        items = [self.rand_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))]
        return {self.rand_str(rng): v for v in items} if kind == 5 else items

    def test_matches_json_dumps(self):
        rng = random.Random(20)
        for _ in range(5000):
            doc = self.rand_doc(rng, 4)
            assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_refuses_what_a_report_never_holds(self):
        class Text(str):
            pass

        for value in (1.5, [float("nan")], {"a": object()}, (1, 2), [Text("a")]):
            with pytest.raises(TypeError, match="is not JSON serializable$"):
                _json_text(value)

    def test_non_ascii_matrix_echo(self, monkeypatch, capsys):
        doc = {"matrix": "[[2,1],[1,1]]  # \xe9t\xe9 \u2192 \U0001d4d0"}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["--json"]) == 0
        out = capsys.readouterr().out
        assert '"matrix": "[[2,1],[1,1]]  # \\u00e9t\\u00e9 \\u2192 \\ud835\\udcd0"' in out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestJobSpec:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            JobSpec()
        with pytest.raises(ValueError):
            JobSpec(matrix="[[1]]", example="identity")

    def test_inverse_requires_endo(self):
        with pytest.raises(ValueError):
            JobSpec(matrix="[[1]]", inverse="a->a")

    def test_option_validation(self):
        with pytest.raises(ValueError):
            JobSpec(matrix="[[1]]", power=0)
        with pytest.raises(ValueError):
            JobSpec(matrix="[[1]]", tensor_bound=0)
        with pytest.raises(NotPrime):
            JobSpec(matrix="[[1]]", primes=(4,))

    def test_dict_round_trip(self):
        job = JobSpec(matrix="[[0,1],[1,3]]", power=2, primes=(3,))
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict({"matrix": "[[1]]", "frobnicate": True})


class TestReports:
    def test_deterministic_output(self):
        job = JobSpec(matrix="[[0,1],[1,3]]", primes=(3,))
        first, _ = run(job)
        second, _ = run(job)
        assert first == second

    def test_report_contents(self):
        text, v = run(JobSpec(matrix="[[1,1],[-1,0]]"))
        assert "det A = 1; tr A = 1; det(A-E) = 1" in text
        assert "residually nilpotent: no  [proven]" in text
        assert "lower central series length: 2  [proven]" in text
        assert v.residually_nilpotent is False

    def test_certainty_always_printed(self):
        for name in ("braid3", "identity", "mikhailov"):
            text, _ = run(JobSpec(example=name))
            for line in text.splitlines():
                if line.startswith("residually nilpotent:"):
                    assert "[" in line and "]" in line

    def test_every_witness_has_anchor_line(self):
        text, v = run(JobSpec(matrix="[[0,1],[1,3]]"))
        assert text.count("anchor:") == len(v.witnesses)
        for w in v.witnesses:
            assert w.anchor in text

    def test_requested_prime_reported_unknown(self):
        text, _ = run(JobSpec(matrix="[[0,-1],[1,4]]", primes=(5,)))
        assert "p=2: yes  [proven]" in text
        assert "p=5: unknown  [unknown]" in text

    def test_power_applied_before_classification(self):
        text, v = run(JobSpec(example="mikhailov", power=2))
        assert "det A = 1; tr A = 11" in text
        assert v.residually_nilpotent is True
        assert v.p_finite_map()[3] is True


class TestJsonInterface:
    def test_json_output_round_trips(self):
        text, v = run(JobSpec(matrix="[[0,1],[1,3]]", as_json=True))
        doc = json.loads(text)
        assert set(doc) == {"job", "matrices", "verdict"}
        assert Verdict.from_dict(doc["verdict"]) == v
        assert doc["matrices"] == [[[0, 1], [1, 3]]]

    def test_json_job_echo_reloadable(self):
        job = JobSpec(example="braid3", primes=(2, 3))
        text, v = run(JobSpec(example="braid3", primes=(2, 3), as_json=True))
        doc = json.loads(text)
        again = JobSpec.from_dict(doc["job"], as_json=True)
        text2, v2 = run(again)
        assert v2 == v

    def test_json_stdin_mode(self, monkeypatch, capsys):
        doc = {"matrix": "[[1,1],[-1,0]]"}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["--json"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["verdict"]["residually_nilpotent"]["value"] is False

    def test_json_stdin_accepts_nested_list_matrix(self, monkeypatch, capsys):
        # natural JSON spelling: rows as arrays, not a quoted literal
        doc = {"matrix": [[1, 1], [-1, 0]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["verdict"]["lcs_length"] == "two"
        assert parsed["matrices"] == [[[1, 1], [-1, 0]]]

    def test_json_stdin_rejects_malformed(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        assert main(["--json"]) == 2

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"matrix": "[[2,1],[1,1]]", "cap": 2.5}, "'cap' must be an integer, got 2.5"),
            ({"matrix": "[[2,1],[1,1]]", "tensor_bound": "3"}, "'tensor_bound' must be an integer"),
            ({"matrix": "[[2,1],[1,1]]", "primes": ["2"]}, "'primes' must be a list of integers"),
            ({"matrix": "[[2,1],[1,1]]", "primes": 2}, "'primes' must be a list of integers"),
            ({"matrix": "[[2,1],[1,1]]", "power": True}, "'power' must be an integer, got True"),
            ({"matrix": "[[2,1],[1,1]]", "power": "2"}, "'power' must be an integer"),
            ({"endo": 5}, "'endo' must be a string"),
            ([1, 2], "a job must be a JSON object, got list"),
        ],
    )
    def test_json_field_types_checked(self, monkeypatch, capsys, doc, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_json_nulls_and_nested_matrix_accepted(self, monkeypatch, capsys):
        doc = {"matrix": [[2, 1], [1, 1]], "tensor_bound": None, "cap": None, "primes": [5]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["--json"]) == 0


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["--matrix", "[[1,1],[-1,0]]"]) == 0
        assert "residually nilpotent" in capsys.readouterr().out

    def test_bad_matrix(self, capsys):
        assert main(["--matrix", "[[1,2],[3]]"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_word(self, capsys):
        assert main(["--endo", "a->$"]) == 2
        err = capsys.readouterr().err
        assert "offset" in err

    def test_word_error_names_the_offset_once(self, capsys):
        assert main(["--endo", "a->b; b->a(b"]) == 2
        err = capsys.readouterr().err
        assert err == "error: unexpected character '(' (at offset 1)\n"

    def test_boolean_matrix_entries_rejected(self, monkeypatch, capsys):
        # bool is an int subclass; True must not pass for the entry 1
        doc = {"matrix": [[True, 1], [0, 1]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["--json"]) == 2
        assert main(["--matrix", "[[True,1],[0,1]]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 2 * "error: matrix literal must be a list of rows of integers\n"

    def test_unknown_example(self, capsys):
        assert main(["--example", "nope"]) == 2
        assert "available" in capsys.readouterr().err

    def test_no_source(self, capsys):
        assert main([]) == 2

    def test_cap_exceeded(self, capsys):
        code = main(["--matrix", "[[1,1],[-1,0]]", "--cap", "4"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_caps_bound_the_level_sizes(self, monkeypatch, capsys):
        # the largest orbit polynomial here has degree 6, but the caps
        # bound n^k and the Witt dimension, as they did before
        A = "[[0,0,-1],[1,0,5],[0,1,0]]"
        assert main(["--matrix", A, "--cap", "8"]) == 3
        doc = {"matrix": A, "cap": 20, "tensor_bound": 3}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Kronecker power side 3^2 exceeds cap 8\n"
            "error: Kronecker power side 3^3 exceeds cap 20\n"
        )

    def test_high_tensor_bound_ends(self, capsys):
        # x^3 - 5x + 1 at K = 7: char(A^{(x)7}) has degree 2187, its
        # largest orbit polynomial degree 6
        code = with_alarm(
            5, lambda: main(["--matrix", "[[0,0,-1],[1,0,5],[0,1,0]]", "--tensor-bound", "7"])
        )
        assert code == 0
        assert "verified up to bound 7" in capsys.readouterr().out

    def test_rank_one_tensor_bound_capped(self, monkeypatch, capsys):
        # n^k stays 1 at rank 1, so the side cap bounds K itself; at
        # rank 2 the side 2^k trips first, with the message it had
        def check():
            assert main(["--matrix", "[[-1]]", "--tensor-bound", "4097"]) == 3
            assert main(["--matrix", "[[-1]]", "--tensor-bound", "60", "--cap", "50"]) == 3
            monkeypatch.setattr("sys.stdin", io.StringIO('{"matrix": "[[1]]", "tensor_bound": 1000000}'))
            assert main(["--json"]) == 3
            assert main(["--matrix", "[[2,1],[1,1]]", "--tensor-bound", "5000"]) == 3
            assert main(["--matrix", "[[-1]]", "--tensor-bound", "50", "--cap", "50"]) == 0

        with_alarm(2, check)
        captured = capsys.readouterr()
        assert "verified up to bound 50" in captured.out
        assert captured.err == (
            "error: tensor bound 4097 exceeds cap 4096\n"
            "error: tensor bound 60 exceeds cap 50\n"
            "error: tensor bound 1000000 exceeds cap 4096\n"
            "error: Kronecker power side 2^13 exceeds cap 4096\n"
        )

    def test_over_cap_product_refused_before_char_poly(self, capsys):
        # the 64x64 product at the default K = 3 ran past 60 s in char(A)
        # and its factors before the caps refused it
        A = json.dumps(unit_kronecker_product(range(3, 9)))
        assert with_alarm(5, lambda: main(["--matrix", A])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Kronecker power side 64^3 exceeds cap 4096\n"

    def test_fiber_action_past_the_caps_exits_0(self, capsys):
        # companion of x^17 - x - 1: det(A - E) = +-1 decides it before
        # the caps, though 17^3 > 4096
        rows = [[int(i == j + 1) for j in range(16)] + [int(i < 2)] for i in range(17)]
        assert with_alarm(5, lambda: main(["--matrix", json.dumps(rows)])) == 0
        assert "det(A-E)=1 is a unit" in capsys.readouterr().out

    def test_huge_endo_exponents_end(self, capsys):
        # each image is powered, not repeated 10^8 times
        argv = ["--endo", "a->a b^100000000; b->b", "--inverse", "a->a b^-100000000; b->b"]
        assert with_alarm(2, lambda: main(argv)) == 0
        assert "automorphism: proven by supplied inverse" in capsys.readouterr().out

    def test_power_past_the_printable_size_exits_3(self, capsys):
        # a report prints integers of at most 4300 digits, so a power
        # stops as soon as one of its partial powers has a larger entry
        hyperbolic = [
            ["--matrix", "[[2,1],[1,1]]", "--power", "20000"],
            ["--matrix", "[[2,1],[1,1]]", "--power", str(10**9)],
            ["--example", "mikhailov", "--power", str(10**9)],
            ["--endo", "a->b; b->a b^3", "--power", str(10**9), "--json"],
        ]
        unipotent = ["--matrix", "[[1,1,0],[0,1,1],[0,0,1]]", "--power", str(10**2200)]

        def check():
            assert [main(argv) for argv in hyperbolic] == [3] * 4
            assert main(unipotent) == 3

        with_alarm(5, check)
        captured = capsys.readouterr()
        assert captured.out == ""
        *lines, last = captured.err.splitlines()
        assert lines == ["error: entry of A^16384 exceeds cap 4300 decimal digits"] * 4
        # m(m-1)/2 passes 10^4300 at a partial power m of about 10^2150
        assert last.startswith("error: entry of A^")
        assert last.endswith(" exceeds cap 4300 decimal digits")

    def test_first_power_takes_no_product(self, monkeypatch):
        products = []
        mul = IntMatrix.__mul__
        monkeypatch.setattr(IntMatrix, "__mul__", lambda X, Y: products.append(1) or mul(X, Y))
        A = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert _capped_power(A, 1) is A
        assert products == []

    def test_entry_cap_on_the_action_itself(self, capsys):
        # a hex literal passes the 4300-digit limit of int() on text; at an
        # odd power A itself is checked, at an even one its square
        big = "0x" + "f" * 3700
        assert main(["--matrix", f"[[1,{big}],[0,1]]"]) == 3
        assert main(["--matrix", f"[[1,{big}],[0,1]]", "--power", "3"]) == 3
        assert main(["--matrix", f"[[1,{big}],[0,-1]]", "--power", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "error: entry of A^1 exceeds cap 4300 decimal digits\n" * 2
        assert "action matrix A:\n    [1, 0]\n    [0, 1]\n" in captured.out

    def test_power_with_printable_entries_ends(self, capsys):
        # linear growth: the largest entry of A^m is m (or 2m)
        e = 10**4300 - 1

        def check():
            assert main(["--example", "klein_p2", "--power", str(10**9)]) == 0
            assert main(["--matrix", "[[1,1],[0,1]]", "--power", str(e)]) == 0
            assert main(["--matrix", "[[1,2],[0,1]]", "--power", str(e)]) == 3

        with_alarm(5, check)
        captured = capsys.readouterr()
        assert f"    [1, {e}]\n" in captured.out
        assert captured.err.startswith("error: entry of A^")
        assert captured.err.endswith(" exceeds cap 4300 decimal digits\n")

    # CPython's parsers give up on these with RecursionError or
    # MemoryError; which one, and at what depth, depends on the version
    DEEP_MINUS = "[[" + "-" * 3000 + "1]]"

    @staticmethod
    def one_error_line(capsys):
        err = capsys.readouterr().err
        return err.startswith("error: ") and err.count("\n") == 1

    def test_deep_json_document(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 10**5 + "]" * 10**5))
        assert main(["--json"]) == 2
        assert capsys.readouterr().err == "error: JSON document nested too deeply\n"

    def test_deep_matrix_literal(self, capsys):
        assert main(["--matrix", self.DEEP_MINUS]) == 2
        assert self.one_error_line(capsys)

    def test_deep_matrix_literal_in_json_job(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"matrix": self.DEEP_MINUS})))
        assert main(["--json"]) == 2
        assert self.one_error_line(capsys)

    def test_matrix_literal_past_the_parser_stack(self, capsys):
        assert main(["--matrix", "[[" + "-" * 10**5 + "1]]"]) == 2
        assert capsys.readouterr().err == "error: matrix literal nested too deeply\n"

    def test_unproven_prime_exits_3(self, capsys):
        # tr - 2 = 2^89 - 1 is prime, but above the range where
        # Miller-Rabin to the bases 2..41 is a proof
        assert main(["--matrix", f"[[0,-1],[1,{2**89 + 1}]]"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot prove {2**89 - 1} prime")
        # a requested prime is held to the same standard
        assert main(["--matrix", "[[1,1],[0,1]]", "--primes", str(2**89 - 1)]) == 3

    def test_wrong_inverse(self, capsys):
        code = main(["--endo", "a->b; b->a b^3", "--inverse", "a->b; b->a"])
        assert code == 2

    def test_list_examples(self, capsys):
        assert main(["--list-examples"]) == 0
        out = capsys.readouterr().out
        for ex in builtin_examples():
            assert ex.name in out

    @pytest.mark.parametrize("columns", ["60", "100", None])
    def test_help_as_argparse_formats_it(self, monkeypatch, capsys, columns):
        # the parser was built at import, before COLUMNS is set here; its
        # help and usage errors are what a parser built now prints, since
        # argparse looks the width up when it formats them
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out == _build_parser().format_help()
        if columns == "60":
            assert max(map(len, out.splitlines())) <= 58

        assert main(["--power", "x"]) == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["--power", "x"])
        assert capsys.readouterr().err == err
        assert err.endswith("resnil: error: argument --power: invalid int value: 'x'\n")


def _package_env(**extra) -> dict:
    # the environment in which a child process imports the package this
    # test imported, installed or not
    src = os.path.dirname(os.path.dirname(resnil.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


class TestWorkDoneOnce:
    """A job checks its requested primes once and reduces A once, for
    det A, det(A - E) and char(A), in the classifier and the report
    alike."""

    def test_requested_primes_checked_once(self, monkeypatch):
        calls = []
        is_prime = criteria.is_prime
        monkeypatch.setattr(criteria, "is_prime", lambda p: calls.append(p) or is_prime(p))
        # rank 2, and a rank-3 action that proves no prime
        for matrix in ("[[2,1],[1,1]]", "[[0,0,1],[1,0,-4],[0,1,4]]"):
            calls.clear()
            report, _ = run(JobSpec(matrix=matrix, primes=(7, 3, 5), tensor_bound=2))
            assert "  p=3: " in report
            assert sorted(calls) == [3, 5, 7]

    def test_every_public_entry_point_refuses_a_non_prime(self):
        A = IntMatrix.from_rows([[2, 1], [1, 1]])
        for call in (
            lambda: JobSpec(matrix="[[2,1],[1,1]]", primes=(3, 9)),
            lambda: classify_general(A, primes=(3, 9)),
            lambda: criteria.classify_f2(A, primes=(3, 9)),
            lambda: criteria.classify_family([A], primes=(3, 9)),
            lambda: criteria.tensor_power_audit(A, 2, p=9),
            lambda: criteria.mod_p_unipotency(A, 9),
        ):
            with pytest.raises(NotPrime):
                call()
        with pytest.raises(ValueError, match="non-prime 9"):
            Verdict(None, False, ((3, None), (9, None)), criteria.LcsLength.UNKNOWN, ())
        # a verdict's (prime, value) pairs are no checked primes
        pairs = classify_general(A, primes=(3,)).residually_p_finite
        assert type(pairs) is tuple
        with pytest.raises(TypeError):
            criteria._validated_primes(pairs)

    def test_report_reuses_the_determinants(self, reductions):
        # det A and det(A - E) are read from char(A): A alone is reduced
        report, _ = run(JobSpec(matrix="[[2,1],[1,1]]"))
        assert "det A = 1; tr A = 3; det(A-E) = -1" in report
        assert reductions == [IntMatrix.from_rows([[2, 1], [1, 1]])]


class TestOneParser:
    """main parses every job with the one parser built at import."""

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("main built an argument parser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert main(["--list-examples"]) == 0
        assert main(["--example", "braid3"]) == 0
        assert main(["--power", "x"]) == 2

    def test_jobs_in_sequence_print_what_each_prints_alone(self, monkeypatch, capsys):
        # a refused argv, --list-examples, a JSON job from stdin and a text
        # job, in one process, against each in a fresh process
        jobs = [
            (["--power", "x"], ""),
            (["--list-examples"], ""),
            (["--json"], json.dumps({"example": "braid3", "power": 2})),
            (["--matrix", "[[2,1],[1,1]]", "--tensor-bound", "2"], ""),
        ]
        monkeypatch.setenv("COLUMNS", "72")
        in_sequence = []
        for argv, stdin in jobs:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code = main(argv)
            in_sequence.append((code, *capsys.readouterr()))
        alone = [
            subprocess.run(
                [sys.executable, "-m", "resnil.cli", *argv],
                input=stdin,
                capture_output=True,
                text=True,
                env=_package_env(COLUMNS="72"),
            )
            for argv, stdin in jobs
        ]
        assert in_sequence == [(p.returncode, p.stdout, p.stderr) for p in alone]
        assert [code for code, _, _ in in_sequence] == [2, 0, 0, 0]


class TestBuiltinExamples:
    def test_catalog_shape(self):
        names = [ex.name for ex in builtin_examples()]
        assert names == [
            "mikhailov",
            "braid3",
            "klein_p2",
            "mixed_signs",
            "identity",
        ]

    def test_each_example_matches_expectations(self):
        for ex in builtin_examples():
            _, v = run(JobSpec(example=ex.name))
            assert v.residually_nilpotent is ex.expect_resnil, ex.name
            assert v.lcs_length.value == ex.expect_lcs, ex.name
            for p in ex.expect_primes:
                assert v.p_finite_proven(p), (ex.name, p)
            assert v.p_finite_all_primes == ex.expect_all_primes, ex.name

    def test_family_report_lists_both_matrices(self):
        text, v = run(JobSpec(example="klein_p2"))
        assert "family of 2 action matrices" in text
        assert "matrix 1:" in text and "matrix 2:" in text
        assert "builtin expectation check: ok" in text
        assert v.residually_nilpotent is True

    def test_automorphism_proof_line(self):
        text, _ = run(
            JobSpec(endo="a->b; b->a b^3", inverse="a->b A^3; b->a")
        )
        assert "automorphism: proven by supplied inverse" in text

    @pytest.mark.parametrize("name", ["mikhailov", "mixed_signs"])
    def test_endo_power_classified_from_the_matrix_power(self, name):
        # abelianization is functorial, so run() powers the matrix and
        # never composes words; the report is the one the composed
        # endomorphism gives
        ex = next(e for e in builtin_examples() if e.name == name)
        endo = parse_endo_text(ex.endo)
        for m in range(1, 9):
            powered = endo_power(endo, m)
            A = abelianization_matrix(powered)
            assert abelianization_matrix(endo).power(m) == A
            job = JobSpec(example=name, power=m, as_json=True)
            expected = {
                "job": job.to_dict(),
                "matrices": [A.to_rows()],
                "verdict": classify_general(powered).to_dict(),
            }
            text, _ = run(job)
            assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_unverified_automorphism_caveat(self):
        text, _ = run(JobSpec(endo="a->b; b->a b^3"))
        assert "automorphism: not verified" in text


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "resnil.cli", "--example", "identity"],
            capture_output=True,
            text=True,
            env=_package_env(),
        )
        assert proc.returncode == 0
        assert "residually nilpotent: yes" in proc.stdout
        assert proc.stderr == ""
        # the package does not import cli, so running it as __main__
        # gives no RuntimeWarning
        proc = subprocess.run(
            [sys.executable, "-m", "resnil.cli", "--example", "braid3"],
            capture_output=True,
            text=True,
            env=_package_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
