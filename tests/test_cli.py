"""Command line front end tests."""

import io
import json
import os
import subprocess
import sys

import pytest

import resnil
from resnil.cli import (
    BuiltinExample,
    JobSpec,
    builtin_examples,
    main,
    parse_endo_text,
    parse_matrix_literal,
    run,
)
from resnil.criteria import Certainty, Verdict, classify_general
from resnil.errors import DimensionMismatch, NotPrime, WordSyntaxError
from resnil.freegroup import abelianization_matrix, endo_power

from oracles import with_alarm


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
        assert v.residually_nilpotent[0] is False

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
        assert v.residually_nilpotent[0] is True
        assert v.p_finite_map()[3][0] is True


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
            assert v.residually_nilpotent[0] is ex.expect_resnil, ex.name
            assert v.lcs_length.value == ex.expect_lcs, ex.name
            for p in ex.expect_primes:
                assert v.p_finite_proven(p), (ex.name, p)
            assert v.p_finite_all_primes == ex.expect_all_primes, ex.name

    def test_family_report_lists_both_matrices(self):
        text, v = run(JobSpec(example="klein_p2"))
        assert "family of 2 action matrices" in text
        assert "matrix 1:" in text and "matrix 2:" in text
        assert "builtin expectation check: ok" in text
        assert v.residually_nilpotent == (True, Certainty.proven())

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
        # the child finds the package this test imported, installed or not
        src = os.path.dirname(os.path.dirname(resnil.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "resnil.cli", "--example", "identity"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
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
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
