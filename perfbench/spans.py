"""Span recording for the traced passes.

The program carries no tracing of its own, so the benchmark wraps each
layer's functions at the name bindings the other modules call them
through (``criteria.char_poly``, ``cli.run``, ...).  A wrapper records
one span: name, start, end, parent span and job.  A layer's self time
is the time inside its spans that no child span covers.  The timed
passes run with no wrapper installed; ``install`` and ``uninstall``
bracket each traced pass.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict


def _entry_bits(M) -> int:
    return max((abs(e).bit_length() for e in M.entries), default=0)


def _char_poly(args, result):
    M = args[0]
    return {"max_side": M.rows, "max_entry_bits": _entry_bits(M)}


def _factor(args, result):
    p = args[0]
    bits = max((abs(c).bit_length() for c in p.coeffs), default=0)
    return {"max_degree": p.degree(), "max_coeff_bits": bits}


def _lie(args, result):
    return {"max_dim": result.rows}


def _endo_power(args, result):
    return {"max_word_len": max(w.length() for w in result.images)}


def _mod_p(args, result):
    return {"hits": int(result is not None)}


# (owner, attribute, span name, metric group, measure).  The owner is a
# module, or "module:Class" for a method.
TARGETS = (
    ("resnil.cli", "main", "cli.main", "cli.parse", None),
    ("resnil.cli", "parse_matrix_literal", "cli.parse_matrix_literal", "cli.parse", None),
    ("resnil.cli", "parse_endo_text", "cli.parse_endo_text", "cli.parse", None),
    ("resnil.cli", "_parse_primes", "cli._parse_primes", "cli.parse", None),
    ("resnil.cli", "run", "cli.run", "cli.run", None),
    ("resnil.cli", "parse_word", "freegroup.parse_word", "freegroup.words", None),
    ("resnil.cli", "check_automorphism", "freegroup.check_automorphism", "freegroup.words", None),
    ("resnil.cli", "endo_power", "freegroup.endo_power", "freegroup.endo_power", _endo_power),
    ("resnil.cli", "classify_general", "criteria.classify_general", "criteria.classify", None),
    ("resnil.cli", "_classify_family", "cli._classify_family", "criteria.classify", None),
    ("resnil.cli", "mod_p_unipotency", "criteria.mod_p_unipotency", "criteria.mod_p_unipotency", _mod_p),
    ("resnil.cli", "augmentation_power_check", "criteria.augmentation_power_check",
     "criteria.augmentation_power_check", None),
    ("resnil.cli", "determinant", "zlinalg.determinant", "zlinalg.determinant", None),
    ("resnil.criteria", "classify_f2", "criteria.classify_f2", "criteria.classify", None),
    ("resnil.criteria", "gamma_omega_is_fiber", "criteria.gamma_omega_is_fiber",
     "criteria.classify", None),
    ("resnil.criteria", "integer_eigenvalue_criterion", "criteria.integer_eigenvalue_criterion",
     "criteria.classify", None),
    ("resnil.criteria", "mod_p_unipotency", "criteria.mod_p_unipotency",
     "criteria.mod_p_unipotency", _mod_p),
    ("resnil.criteria", "af_criterion", "criteria.af_criterion", "criteria.af_criterion", None),
    ("resnil.criteria", "_audit_witnesses", "criteria._audit_witnesses", "criteria.audits", None),
    ("resnil.criteria", "tensor_power_audit", "criteria.tensor_power_audit", "criteria.audits", None),
    ("resnil.criteria", "lie_component_audit", "criteria.lie_component_audit", "criteria.audits", None),
    ("resnil.criteria", "char_poly", "zlinalg.char_poly", "zlinalg.char_poly", _char_poly),
    ("resnil.criteria", "kronecker_power", "zlinalg.kronecker_power", "zlinalg.kronecker_power", None),
    ("resnil.criteria", "determinant", "zlinalg.determinant", "zlinalg.determinant", None),
    ("resnil.criteria", "induced_lie_matrix", "liealg.induced_lie_matrix",
     "liealg.induced_lie_matrix", _lie),
    ("resnil.criteria", "factor_over_Z", "intpoly.factor_over_Z", "intpoly.factor_over_Z", _factor),
    ("resnil.zlinalg", "determinant", "zlinalg.determinant", "zlinalg.determinant", None),
    ("resnil.zlinalg", "hermite_form", "zlinalg.hermite_form", "zlinalg.hermite", None),
    ("resnil.zlinalg:IntMatrix", "power", "zlinalg.power", "zlinalg.power", None),
)

SELF_GROUPS = tuple(dict.fromkeys(t[3] for t in TARGETS))
COUNT_METRICS = (
    "zlinalg.char_poly.max_side",
    "zlinalg.char_poly.max_entry_bits",
    "liealg.induced_lie_matrix.max_dim",
    "intpoly.factor_over_Z.calls",
    "intpoly.factor_over_Z.max_degree",
    "intpoly.factor_over_Z.max_coeff_bits",
    "criteria.mod_p_unipotency.calls",
    "criteria.mod_p_unipotency.hits",
    "freegroup.endo_power.max_word_len",
)
_GROUP = {t[2]: t[3] for t in TARGETS}
_MEASURE_SPAN = "trace.measure"


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; ``spans`` holds
    [name, start, end, parent index, job index, measures]."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list = []

    def begin_job(self, job: int) -> None:
        # a job stopped by its time limit may leave spans open
        self.job = job
        self._stack.clear()

    def install(self) -> None:
        for owner, attr, name, _, measure in TARGETS:
            obj = _owner(owner)
            raw = inspect.getattr_static(obj, attr)
            setattr(obj, attr, self._wrap(getattr(obj, attr), name, measure))
            self._saved.append((obj, attr, raw))

    def uninstall(self) -> None:
        for obj, attr, raw in reversed(self._saved):
            setattr(obj, attr, raw)
        self._saved.clear()

    def _wrap(self, func, name, measure):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            done = False
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if done and measure is not None:
                    # measured outside the span, in a span of its own,
                    # so that neither this layer nor its caller pays it
                    span[5] = measure(args, result)
                    spans.append([_MEASURE_SPAN, span[2], clock(), parent, self.job, None])

        return wrapper


def summarize(spans: list, skip_jobs: set) -> dict:
    """Per-pass layer figures from one traced pass, leaving out the
    spans of jobs in skip_jobs (jobs that failed)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    out = {f"{g}.self_ms": 0.0 for g in SELF_GROUPS}
    counts: dict = defaultdict(int)
    maxima: dict = defaultdict(int)
    total = 0.0
    audits = 0.0
    for i, (name, start, end, parent, job, measures) in enumerate(spans):
        if job in skip_jobs or name == _MEASURE_SPAN:
            continue
        dur = end - start
        out[f"{_GROUP[name]}.self_ms"] += (dur - covered[i]) * 1000.0
        if name == "cli.main":
            total += dur
        elif name == "criteria._audit_witnesses":
            audits += dur
        elif name == "intpoly.factor_over_Z":
            counts["intpoly.factor_over_Z.calls"] += 1
        elif name == "criteria.mod_p_unipotency":
            counts["criteria.mod_p_unipotency.calls"] += 1
        if measures:
            for key, value in measures.items():
                if key == "hits":
                    counts[f"{name}.hits"] += value
                else:
                    maxima[f"{name}.{key}"] = max(maxima[f"{name}.{key}"], value)
    for key in COUNT_METRICS:
        out[key] = counts[key] if key in counts else maxima[key]
    out["trace.pass_ms"] = total * 1000.0
    out["criteria.audits.share_pct"] = 100.0 * audits / total if total else 0.0
    return out
