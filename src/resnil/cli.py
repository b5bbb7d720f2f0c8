"""Command line front end.

Classifies a semidirect product given as an action matrix, a free
group endomorphism, or a named builtin example, and prints a report
whose every claim carries a certainty level and a cited witness.

Exit codes: 0 successful classification (whatever the verdict), 2
input error, 3 size cap exceeded.  The same job always produces the
same bytes.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from typing import Optional

from .errors import ResnilError, SizeCapExceeded
from .freegroup import (
    AutoStatus,
    FreeEndo,
    check_automorphism,
    endo_power,  # unused here; perfbench/spans.py wraps this name
    abelianization_matrix,
    parse_word,
)
from .intpoly import _power
from .zlinalg import (
    DEFAULT_SIDE_CAP,
    IntMatrix,
    det_minus_identity,
    determinant,
)
from .liealg import DEFAULT_WITT_CAP
from .criteria import (
    LcsLength,
    Verdict,
    augmentation_power_check,  # unused here; perfbench/spans.py wraps this name
    certainty,
    classify_family as _classify_family,  # perfbench/spans.py wraps this name
    classify_general,
    mod_p_unipotency,  # unused here; perfbench/spans.py wraps this name
    _validated_primes,
)

__all__ = ["JobSpec", "BuiltinExample", "builtin_examples", "run", "main"]


# ---------------------------------------------------------------------------
# job description


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One classification request: exactly one input source plus
    options mirroring the command line flags."""

    matrix: Optional[str] = None
    endo: Optional[str] = None
    inverse: Optional[str] = None
    example: Optional[str] = None
    power: int = 1
    tensor_bound: Optional[int] = None
    primes: tuple = ()
    cap: Optional[int] = None
    as_json: bool = False

    def __post_init__(self):
        sources = [s for s in (self.matrix, self.endo, self.example) if s is not None]
        if len(sources) != 1:
            raise ValueError("exactly one of --matrix, --endo, --example required")
        if self.inverse is not None and self.endo is None:
            raise ValueError("--inverse only applies to --endo input")
        if self.power < 1:
            raise ValueError("--power must be at least 1")
        if self.tensor_bound is not None and self.tensor_bound < 1:
            raise ValueError("--tensor-bound must be at least 1")
        if self.cap is not None and self.cap < 1:
            raise ValueError("--cap must be at least 1")
        object.__setattr__(self, "primes", _validated_primes(self.primes))

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in _JOB_FIELDS}
        d["primes"] = list(self.primes)
        return d

    @staticmethod
    def from_dict(d: dict, as_json: bool = False) -> "JobSpec":
        """Job from a decoded JSON document; ValueError names the first
        field of the wrong type."""
        if not isinstance(d, dict):
            raise ValueError(f"a job must be a JSON object, got {type(d).__name__}")
        bad = set(d) - set(_JOB_FIELDS)
        if bad:
            raise ValueError(f"unknown job fields: {sorted(bad)}")

        def field(name, ok, kind, default=None):
            value = d.get(name, default)
            if not ok(value):
                raise ValueError(f"job field {name!r} must be {kind}, got {value!r}")
            return value

        def opt_str(v) -> bool:
            return v is None or isinstance(v, str)

        def opt_int(v) -> bool:
            return v is None or _is_int(v)

        def int_list(v) -> bool:
            return isinstance(v, list) and all(map(_is_int, v))

        return JobSpec(
            matrix=d.get("matrix"),
            endo=field("endo", opt_str, "a string"),
            inverse=field("inverse", opt_str, "a string"),
            example=field("example", opt_str, "a string"),
            power=field("power", _is_int, "an integer", 1),
            tensor_bound=field("tensor_bound", opt_int, "an integer"),
            primes=tuple(field("primes", int_list, "a list of integers", [])),
            cap=field("cap", opt_int, "an integer"),
            as_json=as_json,
        )


# the fields a JSON job carries: all but the output format
_JOB_FIELDS = tuple(f.name for f in dataclasses.fields(JobSpec) if f.name != "as_json")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# input parsing


def _is_rows(data) -> bool:
    # a nonempty list of rows of integers; IntMatrix checks the shape
    rows = isinstance(data, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in data)
    return rows and bool(data) and all(_is_int(x) for r in data for x in r)


def parse_matrix_literal(text) -> IntMatrix:
    """Bracketed row list, e.g. "[[1,1],[-1,0]]", or nested lists as-is.

    The nested-list form is what a JSON job carries for its matrix.  Text
    goes to ast.literal_eval unless json.loads (C speed) reads rows of
    integers from it, which literal_eval would read the same; text with
    a line break, JSON whitespace that literal_eval may refuse, skips it.
    """
    data = None
    if isinstance(text, str) and "\n" not in text and "\r" not in text:
        try:
            data = json.loads(text)
        except (ValueError, RecursionError):
            pass
    if not _is_rows(data):
        data = text
        if isinstance(text, str):
            try:
                data = ast.literal_eval(text)
            except (ValueError, SyntaxError):
                raise ValueError(f"not a matrix literal: {text!r}")
            except (RecursionError, MemoryError):
                # the parser gives up on a deep enough expression either way
                raise ValueError("matrix literal nested too deeply")
        if not _is_rows(data):
            raise ValueError("matrix literal must be a list of rows of integers")
    return IntMatrix.from_rows([list(r) for r in data])


def parse_endo_text(text: str) -> FreeEndo:
    """Semicolon-separated `gen->word` pairs, e.g. "a->b; b->a b^3".

    The rank is the number of pairs; every generator must appear on
    the left exactly once.
    """
    pieces = [s.strip() for s in text.split(";") if s.strip()]
    if not pieces:
        raise ValueError("empty endomorphism")
    rank = len(pieces)
    images: dict[int, object] = {}
    for piece in pieces:
        if "->" not in piece:
            raise ValueError(f"expected gen->word, got {piece!r}")
        lhs, rhs = piece.split("->", 1)
        g = parse_word(lhs.strip(), rank)
        if len(g.syllables) != 1 or g.syllables[0][1] != 1:
            raise ValueError(f"left side must be a single generator: {lhs.strip()!r}")
        idx = g.syllables[0][0]
        if idx in images:
            raise ValueError(f"generator {lhs.strip()!r} mapped twice")
        images[idx] = parse_word(rhs.strip(), rank)
    if sorted(images) != list(range(1, rank + 1)):
        raise ValueError("left sides must cover every generator exactly once")
    return FreeEndo(rank, [images[i] for i in range(1, rank + 1)])


def _parse_primes(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            try:
                out.append(int(part))
            except ValueError:
                raise ValueError(f"bad prime list entry {part!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# builtin examples


@dataclasses.dataclass(frozen=True)
class BuiltinExample:
    name: str
    description: str
    endo: Optional[str] = None
    matrix: Optional[str] = None
    family: tuple = ()
    expect_resnil: Optional[bool] = None
    expect_lcs: str = "unknown"
    expect_primes: tuple = ()
    expect_all_primes: bool = False


_BUILTINS = (
    BuiltinExample(
        name="mikhailov",
        description="a maps to b, b maps to a b^3; series length omega^2",
        endo="a->b; b->a b^3",
        expect_resnil=False,
        expect_lcs="omega_squared",
    ),
    BuiltinExample(
        name="braid3",
        description="braid group on three strands as F_2 by Z; length two",
        matrix="[[1,1],[-1,0]]",
        expect_resnil=False,
        expect_lcs="two",
    ),
    BuiltinExample(
        name="klein_p2",
        description="pure braid action pair on the Klein bottle, trivial mod 2",
        family=("[[1,0],[-2,1]]", "[[-1,0],[2,1]]"),
        expect_resnil=True,
        expect_lcs="unknown",
        expect_primes=(2,),
    ),
    BuiltinExample(
        name="mixed_signs",
        description="generators fixed or inverted, with at least one inversion",
        endo="x1->x1; x2->x2^-1; x3->x3^-1",
        expect_resnil=True,
        expect_lcs="omega",
        expect_primes=(2,),
    ),
    BuiltinExample(
        name="identity",
        description="identity action; residually p-finite for every prime",
        matrix="[[1,0],[0,1]]",
        expect_resnil=True,
        expect_lcs="omega",
        expect_all_primes=True,
    ),
)


def builtin_examples() -> tuple:
    """The shipped examples, each with its expected verdict bits."""
    return _BUILTINS


def _find_builtin(name: str) -> BuiltinExample:
    for ex in _BUILTINS:
        if ex.name == name:
            return ex
    names = ", ".join(e.name for e in _BUILTINS)
    raise ValueError(f"unknown example {name!r}; available: {names}")


def _expectation_matches(ex: BuiltinExample, v: Verdict) -> bool:
    if v.residually_nilpotent is not ex.expect_resnil:
        return False
    if v.lcs_length.value != ex.expect_lcs:
        return False
    if v.p_finite_all_primes is not ex.expect_all_primes:
        return False
    return all(v.p_finite_proven(p) for p in ex.expect_primes)


# ---------------------------------------------------------------------------
# report rendering


def _yesno(v: Optional[bool]) -> str:
    if v is None:
        return "unknown"
    return "yes" if v else "no"


def _matrix_lines(A: IntMatrix, indent: str = "    ") -> list[str]:
    return [indent + str(list(A.row(i))) for i in range(A.rows)]


def _verdict_lines(v: Verdict) -> list[str]:
    rv, lcs = v.residually_nilpotent, v.lcs_length
    lines = [f"residually nilpotent: {_yesno(rv)}  [{certainty(rv)}]"]
    lines.append(f"lower central series length: {lcs.display()}  [{certainty(lcs)}]")
    if lcs is LcsLength.TWO:
        lines.append("gamma_omega = gamma_2 (length 2)")
    if v.p_finite_all_primes:
        lines.append("residually p-finite: every prime  [proven]")
    elif v.proven_primes():
        ps = ", ".join(str(p) for p in v.proven_primes())
        lines.append(f"residually p-finite: proven for p in {{{ps}}}")
    else:
        lines.append("residually p-finite: no prime proven")
    for p, val in v.residually_p_finite:
        lines.append(f"  p={p}: {_yesno(val)}  [{certainty(val)}]")
    return lines


def _witness_lines(v: Verdict) -> list[str]:
    lines = ["witnesses:"]
    for w in v.witnesses:
        lines.append(f"  - {w.criterion}: {w.evidence}")
        lines.append(f"      anchor: {w.anchor}")
    return lines


def _report(
    source: str,
    matrices: list[IntMatrix],
    verdict: Verdict,
    extra: list[str],
) -> str:
    lines = ["resnil classification", "=" * 21, f"input: {source}"]
    label = "action matrix A:" if len(matrices) == 1 else "action matrix family:"
    lines.append(label)
    for i, A in enumerate(matrices):
        if len(matrices) > 1:
            lines.append(f"  matrix {i + 1}:")
        lines.extend(_matrix_lines(A))
        d = determinant(A)
        t = A.trace()
        u = det_minus_identity(A)
        lines.append(f"    det A = {d}; tr A = {t}; det(A-E) = {u}")
    lines.extend(extra)
    lines.append("")
    lines.extend(_verdict_lines(verdict))
    lines.append("")
    lines.extend(_witness_lines(verdict))
    lines.append("")
    return "\n".join(lines)


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for the exact types a
    report holds: str, int, bool, None, lists and str-keyed dicts.
    newline is a line break and the indent of the line value is on."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is dict and value:
        parts = [_json_str(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if kind is list and value:
        parts = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if kind is dict or kind is list:
        return "{}" if kind is dict else "[]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_json_str = json.encoder.encode_basestring_ascii


# ---------------------------------------------------------------------------
# the runner

# the largest entry a report can print: CPython converts ints of at most
# 4300 decimal digits to text
_ENTRY_DIGITS = 4300
_ENTRY_LIMIT = 10**_ENTRY_DIGITS


def _capped_power(A: IntMatrix, e: int) -> IntMatrix:
    """A^e by the one square-and-multiply; SizeCapExceeded as soon as a
    partial power A^i has an entry of more than _ENTRY_DIGITS digits."""

    def checked(Z, i):
        if max(map(abs, Z.entries)) >= _ENTRY_LIMIT:
            raise SizeCapExceeded(
                f"entry of A^{i} exceeds cap {_ENTRY_DIGITS} decimal digits"
            )
        return Z, i

    # A.power(0) checks that A is square and is the unit; at an odd e
    # _power takes A itself, with no product, so A is checked here
    one = (A.power(0), 0)
    base = checked(A, 1) if e & 1 else (A, 1)
    return _power(base, e, lambda x, y: checked(x[0] * y[0], x[1] + y[1]), one)[0]


def run(job: JobSpec) -> tuple[str, Verdict]:
    """Execute one job; returns (report text, verdict).  Raises
    ResnilError or ValueError on bad input, SizeCapExceeded when a
    requested computation passes the configured caps."""
    ex = _find_builtin(job.example) if job.example is not None else None
    extra: list[str] = []

    if ex is not None and ex.family:
        mats = [_capped_power(parse_matrix_literal(t), job.power) for t in ex.family]
        source = f"example {ex.name} (family of {len(mats)} action matrices)"
        verdict = _classify_family(mats, job.primes)
    else:
        endo_text = job.endo if ex is None else ex.endo
        if endo_text is not None:
            endo = parse_endo_text(endo_text)
            status = AutoStatus.ABELIANIZED_UNIMODULAR_ONLY
            if job.inverse is not None:
                inv = parse_endo_text(job.inverse)
                status = check_automorphism(endo, inv)
                if status is AutoStatus.PROVEN_NOT_AUTO:
                    raise ValueError(
                        "claimed inverse does not invert the endomorphism"
                    )
            # abelianization is functorial: the power of the matrix, taken
            # below, is the matrix of the power, without composing words
            A = abelianization_matrix(endo)
            source = f"endomorphism {endo}"
            if status is AutoStatus.PROVEN_AUTO:
                extra.append("automorphism: proven by supplied inverse")
            else:
                extra.append(
                    "automorphism: not verified (abelianized action checked "
                    "for unimodularity only)"
                )
        else:
            matrix_text = job.matrix if ex is None else ex.matrix
            A = parse_matrix_literal(matrix_text)
            source = f"matrix {matrix_text}"
        if ex is not None:
            source = f"example {ex.name}: {source}"
        mats = [_capped_power(A, job.power)]
        verdict = classify_general(
            mats[0],
            tensor_bound=job.tensor_bound,
            primes=job.primes,
            side_cap=DEFAULT_SIDE_CAP if job.cap is None else job.cap,
            witt_cap=DEFAULT_WITT_CAP if job.cap is None else job.cap,
        )
    if job.power > 1:
        source += f", power {job.power}"

    if ex is not None and job.power == 1:
        ok = _expectation_matches(ex, verdict)
        extra.append(f"builtin expectation check: {'ok' if ok else 'MISMATCH'}")

    if job.as_json:
        doc = {
            "job": job.to_dict(),
            "matrices": [A.to_rows() for A in mats],
            "verdict": verdict.to_dict(),
        }
        return _json_text(doc) + "\n", verdict
    return _report(source, mats, verdict, extra), verdict


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resnil",
        description=(
            "Decide residual nilpotence and residual p-finiteness of a "
            "free-by-cyclic or abelian-by-cyclic group from its "
            "abelianized action matrix."
        ),
    )
    p.add_argument("--matrix", help='action matrix literal, e.g. "[[1,1],[-1,0]]"')
    p.add_argument("--endo", help='endomorphism, e.g. "a->b; b->a b^3"')
    p.add_argument("--inverse", help="claimed inverse endomorphism")
    p.add_argument("--example", help="named builtin example")
    p.add_argument("--power", type=int, default=1, help="classify this power of the action")
    p.add_argument("--tensor-bound", type=int, default=None, help="audit bound K")
    p.add_argument("--primes", default="", help="comma separated primes to test")
    p.add_argument("--json", action="store_true", help="machine readable input/output")
    p.add_argument("--cap", type=int, default=None, help="size cap for graded audits")
    p.add_argument(
        "--list-examples", action="store_true", help="list builtin examples and exit"
    )
    return p


# built once per process: argparse looks the terminal width up when it
# formats help or a usage error, not when the parser is built
_PARSER = _build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return code

    if args.list_examples:
        for ex in builtin_examples():
            sys.stdout.write(f"{ex.name}: {ex.description}\n")
        return 0

    try:
        no_source = args.matrix is None and args.endo is None and args.example is None
        if args.json and no_source:
            try:
                doc = json.load(sys.stdin)
            except RecursionError:
                raise ValueError("JSON document nested too deeply")
            job = JobSpec.from_dict(doc, as_json=True)
        else:
            d = {name: getattr(args, name) for name in _JOB_FIELDS}
            d["primes"] = list(_parse_primes(args.primes))
            job = JobSpec.from_dict(d, as_json=args.json)
        report, _ = run(job)
        sys.stdout.write(report)
        return 0
    except SizeCapExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except (ResnilError, ValueError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
