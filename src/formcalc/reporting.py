"""Machine-readable reports and the JSON wire schemas.

Every verification produces a :class:`Report`: claim tags, named
residuals with their tolerances, certificates, and a three-valued
verdict (``pass`` / ``fail`` / ``uncertified``).  The JSON schema is
versioned; a complex entry travels as a number or an [re, im] pair of
numbers, grams row-major, generators as tagged term lists.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import series
from .coeffexpr import ExpressionError, compile_rule
from .duality import (
    DENSE, DIRECTIONS, DOMAIN_FINITE, DOMAIN_MAXIMAL, SEQUENCE, TO_DUAL,
    DenseOperator, DiagonalOperator, DualityPair, Functional, Operator, Vector,
    dense_pair, sequence_pair,
)
from .errors import FormcalcError, Uncertifiable

SCHEMA_VERSION = "1"

#: claim identifiers used by the verification suites and the coverage map
CLAIM_TAGS = ("Thm1", "Lem1", "Thm2", "Lem2", "Lem3", "Def-Order", "Thm3",
              "Thm4", "Eq7", "Lem4", "Lem5", "Thm5", "Thm6", "Thm7", "Thm8",
              "Elliptic")

PASS, FAIL, UNCERTIFIED = "pass", "fail", "uncertified"


@dataclass(frozen=True, eq=False)
class Report:
    scenario: str
    claims: tuple[str, ...]
    residuals: dict
    tolerances: dict
    certificates: list
    verdict: str
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)
    control: bool = False           # deliberately violated instance

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def as_expected(self) -> bool:
        """Controls must fail; everything else must pass."""
        return self.verdict == (FAIL if self.control else PASS)

    def as_dict(self, with_time: bool = True) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "claims": list(self.claims),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "certificates": self.certificates,
            "verdict": self.verdict,
            "control": self.control,
            "details": _jsonable(self.details),
        }
        if with_time:
            out["wall_time"] = self.wall_time
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def make_report(scenario: str, claims, residuals: dict, tolerances: dict,
                certificates=None, details=None, wall_time: float = 0.0,
                uncertified: bool = False, control: bool = False) -> Report:
    """Verdict rule: pass iff every residual is within its tolerance and
    nothing is uncertified."""
    tolerances = {k: float(v) for k, v in tolerances.items()}
    if uncertified:
        verdict = UNCERTIFIED
    else:
        bad = [k for k, v in residuals.items()
               if not (float(v) <= tolerances.get(k, np.inf))]
        verdict = FAIL if bad else PASS
    return Report(scenario, tuple(claims), dict(residuals), tolerances,
                  list(certificates or []), verdict, wall_time,
                  dict(details or {}), control)


#: the errors by which a construction refuses its operands
REFUSALS = (FormcalcError, ArithmeticError, ValueError)


def _run_check(scenario: str, claims, fn, control: bool = False) -> Report:
    """Run ``fn() -> (residuals, tolerances, details, certificates)`` and
    judge it, timing the call.  This is the one place where an exception
    becomes a verdict: :class:`Uncertifiable` gives ``uncertified``, any
    other of the :data:`REFUSALS` gives ``fail`` with the error in
    ``details``; anything else propagates."""
    t0 = time.perf_counter()
    try:
        residuals, tolerances, details, certs = fn()
        uncertified = False
    except REFUSALS as exc:
        residuals, tolerances, certs = {"raised": 1.0}, {"raised": 0.0}, []
        details = {"error": f"{type(exc).__name__}: {exc}"}
        uncertified = isinstance(exc, Uncertifiable)
    return make_report(scenario, claims, residuals, tolerances,
                       certificates=certs, details=details,
                       wall_time=time.perf_counter() - t0,
                       uncertified=uncertified, control=control)


def _verdict_counts(reports) -> dict:
    return {"total": len(reports),
            "passed": sum(r.verdict == PASS for r in reports),
            "failed": sum(r.verdict == FAIL for r in reports),
            "uncertified": sum(r.verdict == UNCERTIFIED for r in reports)}


# ---------------------------------------------------------------------------
# JSON wire schemas


class MalformedOperand(Exception):
    """An operand that breaks the wire schema: an input error, not a verdict,
    that passes through the check runner; the command line exits 4."""


class MissingOperand(KeyError):
    """An operand, or a field of one, that an entry lacks: an input error."""


#: what each reader expects, by the number of list levels above the entries
_EXPECTED = ("a number or an [re, im] pair of numbers",
             "a list of numbers or of [re, im] pairs of numbers",
             "a matrix: equal-length rows of numbers or of [re, im] pairs "
             "of numbers")


def _complex_array(v, ndim: int) -> np.ndarray:
    """``ndim`` levels of lists whose entries are all numbers or all
    [re, im] pairs of numbers, decoded by one numpy call.  Pairs are
    viewed as complex, which gives the bits of ``complex(re, im)``.
    Anything else, ``true`` and ``false`` included, raises
    :class:`MalformedOperand`."""
    try:
        a = np.asarray(v)
    except ValueError:            # ragged lists
        a = None
    if a is not None and a.dtype.kind in "iuf":
        if a.ndim == ndim:
            return a.astype(complex)
        if a.ndim == ndim + 1 and a.shape[-1] == 2:
            return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    raise MalformedOperand(f"expected {_EXPECTED[ndim]}")


def decode_arrays(obj: dict) -> dict:
    """``json.loads`` object hook: a value of ``obj`` that is a non-empty
    list of lists becomes ``np.asarray`` of it, the readers' own call, if
    that holds numbers, so a file's lists are freed as each object
    closes; anything else stays a list for the readers to refuse."""
    for key, v in obj.items():
        if isinstance(v, list) and v and isinstance(v[0], list):
            try:
                a = np.asarray(v)
            except ValueError:    # ragged lists
                continue
            if a.dtype.kind in "iuf":
                obj[key] = a
    return obj


def complex_from_json(v) -> complex:
    """One scalar, such as a rule coefficient."""
    return complex(_complex_array(v, 0))


def array_from_json(v) -> np.ndarray:
    return _complex_array(v, 1)


def matrix_from_json(rows) -> np.ndarray:
    return _complex_array(rows, 2)


def real_array_from_json(v: list) -> np.ndarray:
    """A list of real numbers, such as probability weights."""
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise MalformedOperand("expected a list of numbers")
    return np.array(v, dtype=float)


def expression_from_json(text):
    """A string compiled as a coefficient expression (see coeffexpr)."""
    if not isinstance(text, str):
        raise MalformedOperand(f"expected an expression string, got {_JSON_TYPES[type(text)]}")
    try:
        return compile_rule(text)
    except ExpressionError as exc:
        raise MalformedOperand(exc.args[0]) from exc


_REQUIRED = object()
# the JSON type of each Python type in a parsed file, decoded arrays too
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               np.ndarray: "a list", type(None): "null"}
_PY_TYPES = {float: (int, float), list: (list, np.ndarray)}
#: the sizes of a space, and the start of a rule term: from 1 to the term
#: cap of :mod:`formcalc.series`, past which no certificate looks
SIZES = range(1, series._MAX_TERMS + 1)


def json_field(obj, key: str, kind, default=_REQUIRED):
    """``obj[key]``, or ``default`` if absent, checked to be of ``kind``:
    a JSON type, where ``int`` and ``float`` refuse ``true`` and
    ``false``, ``float`` takes any number, ``list`` also an array from
    :func:`decode_arrays` and ``object`` any value; a tuple of the
    strings it may be; or a range of the integers it may be.  Every wire
    reader checks its fields here: a non-object ``obj`` or another value is
    :class:`MalformedOperand`, an absent key without default :class:`MissingOperand`."""
    if not isinstance(obj, dict):
        got = "list" if isinstance(obj, np.ndarray) else type(obj).__name__
        raise MalformedOperand(f"expected an object, got {got}")
    if key not in obj:
        if default is _REQUIRED:
            raise MissingOperand(key)
        return default
    v = obj[key]
    of = str if isinstance(kind, tuple) else int if isinstance(kind, range) else kind
    if not isinstance(v, _PY_TYPES.get(of, of)) or isinstance(v, bool) and of in (int, float):
        raise MalformedOperand(f"{key!r} must be {_JSON_TYPES[of]}")
    if isinstance(kind, tuple) and v not in kind:
        raise MalformedOperand(f"{key!r} must be one of {', '.join(kind)}")
    if isinstance(kind, range) and v not in kind:
        raise MalformedOperand(f"{key!r} must be from {kind[0]} to {kind[-1]}, got {v}")
    return float(v) if of is float else v


def json_number(obj, key: str, default=_REQUIRED, low: float = -math.inf,
                high: float = math.inf, must: str = "be finite") -> float:
    """``json_field(obj, key, float, default)``, a number strictly between ``low``
    and ``high``: any other, NaN included, is malformed: it ``must``."""
    v = json_field(obj, key, float, default)
    if not low < v < high:
        raise MalformedOperand(f"{key!r} must {must}, got {v!r}")
    return v


def rule_from_json(obj) -> series.Rule:
    """A rule whose terms are checked where they are read: ``coef`` and
    ``alpha`` finite, ``ratio`` finite and positive, ``start`` of
    :data:`SIZES`."""
    terms = []
    for t in json_field(obj, "terms", list):
        coef = complex_from_json(json_field(t, "coef", object))
        if not cmath.isfinite(coef):
            raise MalformedOperand(f"'coef' must be finite, got {coef!r}")
        terms.append(series.Term(coef, json_number(t, "alpha", 0.0),
                                 json_number(t, "ratio", 1.0, 0.0,
                                             must="be finite and positive"),
                                 json_field(t, "start", SIZES, 1)))
    return series.Rule(tuple(terms))


def pair_from_json(obj) -> DualityPair:
    """A duality pair whose sizes are checked here: ``p`` in (1, inf),
    and a ``dim`` or ``truncation`` of :data:`SIZES`."""
    p = json_number(obj, "p", 2.0, 1.0, must="lie in (1, inf)")
    if json_field(obj, "backend", (DENSE, SEQUENCE)) == DENSE:
        return dense_pair(json_field(obj, "dim", SIZES), p)
    return sequence_pair(json_field(obj, "truncation", SIZES), p)


def vector_from_json(obj, cls=Vector):
    """A vector (or ``cls``) whose optional ``tail``, on the sequence
    backend only, is the rule that generated its coordinates, of
    ``"kind": "rule"``."""
    tail = json_field(obj, "tail", dict, None)
    if tail is not None:
        json_field(tail, "kind", ("rule",))
        tail = rule_from_json(tail)
    backend = json_field(obj, "backend", (DENSE, SEQUENCE), DENSE)
    if tail is not None and backend != SEQUENCE:
        raise MalformedOperand("'tail' needs the sequence backend")
    return cls(array_from_json(json_field(obj, "coords", object)), backend, tail)


def functional_from_json(obj) -> Functional:
    return vector_from_json(obj, cls=Functional)


def operator_from_json(obj) -> Operator:
    direction = json_field(obj, "direction", DIRECTIONS, TO_DUAL)
    if json_field(obj, "backend", (DENSE, SEQUENCE)) == SEQUENCE:
        domain = json_field(obj, "domain", (DOMAIN_FINITE, DOMAIN_MAXIMAL), DOMAIN_FINITE)
        return DiagonalOperator(rule_from_json(json_field(obj, "diagonal", object)), domain,
                                direction)
    basis = matrix_from_json(json_field(obj, "domain_basis", object))
    action = matrix_from_json(json_field(obj, "action", object))
    return DenseOperator(direction, basis, action)


def write_report(report: Report, path) -> str:
    """Write ``report`` to ``path`` and return its summary entry, both
    from one encoding without the wall time.  Under ``sort_keys`` the
    ``wall_time`` member comes last, so the file is that text with it
    appended; JSON text holds no raw newline, so four more spaces after
    each newline are an exact re-indent into a summary's report list."""
    text = json.dumps(report.as_dict(with_time=False), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text[:-2])       # up to the closing "\n}"
        fh.write(f',\n  "wall_time": {json.dumps(report.wall_time)}\n}}\n')
    return text.replace("\n", "\n    ")


# stands for the report list in the summary template of write_outputs
_SLOT = "\0reports"


def write_outputs(out, reports, csvs: dict, summary: dict, key: str) -> None:
    """One JSON file per report, the CSVs (name -> (header, rows)) and
    ``summary.json``, all under ``out``.  The summary holds the members
    of ``summary`` and, under ``key``, every report without its wall
    time; its bytes are those of ``json.dumps(..., indent=2,
    sort_keys=True)`` of that dict, streamed around the entries from
    :func:`write_report`, so each report is encoded once and no text of
    the whole summary is built.  It is written under a temporary name
    and renamed last, so it appears only after every other file."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    head, tail = json.dumps({**summary, key: _SLOT}, indent=2,
                            sort_keys=True).split(json.dumps(_SLOT))
    partial = out / "summary.json.part"
    with open(partial, "w") as fh:
        fh.write(head)
        for i, rep in enumerate(reports):
            fh.write(",\n    " if i else "[\n    ")
            fh.write(write_report(rep, out / f"{rep.scenario}.json"))
        fh.write(f"\n  ]{tail}\n" if reports else f"[]{tail}\n")
    for name, (header, rows) in csvs.items():
        write_csv(out / name, header, rows)
    os.replace(partial, out / "summary.json")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def gram_csv_rows(G: np.ndarray):
    """Rows ``[i, j, re, im]`` of G, row-major."""
    G = np.asarray(G, dtype=complex)
    i, j = np.indices(G.shape).reshape(2, -1).tolist()
    return list(map(list, zip(i, j, G.real.ravel().tolist(),
                              G.imag.ravel().tolist())))
