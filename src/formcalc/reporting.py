"""Machine-readable reports and the JSON wire schemas.

Every verification produces a :class:`Report`: claim tags, named
residuals with their tolerances, certificates, and a three-valued
verdict (``pass`` / ``fail`` / ``uncertified``).  The JSON schema is
versioned; a complex entry travels as a number or an [re, im] pair of
numbers, grams row-major, generators as tagged term lists.
"""

from __future__ import annotations

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


def _run_check(scenario: str, claims, fn, control: bool = False) -> Report:
    """Run ``fn() -> (residuals, tolerances, details, certificates)`` and
    judge it, timing the call.  This is the one place where an exception
    becomes a verdict: :class:`Uncertifiable` gives ``uncertified``, any
    other library error, ``ArithmeticError`` or ``ValueError`` gives
    ``fail`` with the error in ``details``; anything else propagates."""
    t0 = time.perf_counter()
    try:
        residuals, tolerances, details, certs = fn()
        uncertified = False
    except (FormcalcError, ArithmeticError, ValueError) as exc:
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
    """An operand that breaks the wire schema.  It is an input error,
    not a verdict: it passes through the check runner, and the command
    line exits 4."""


#: what each reader expects, by the number of list levels above the entries
_EXPECTED = ("a number or an [re, im] pair of numbers",
             "a list of numbers or of [re, im] pairs of numbers",
             "a matrix: equal-length rows of numbers or of [re, im] pairs "
             "of numbers")


def _complex_array(v, ndim: int) -> np.ndarray:
    """``ndim`` levels of lists whose entries are all numbers or all
    [re, im] pairs of numbers, decoded by one numpy call.  Pairs are
    viewed as complex, which gives the bits of ``complex(re, im)``;
    ``true`` and ``false`` read as 1 and 0, as ``complex`` reads them.
    Anything else raises :class:`MalformedOperand`."""
    try:
        a = np.asarray(v)
    except ValueError:            # ragged lists
        a = None
    if a is not None and a.dtype.kind in "biuf":
        if a.ndim == ndim:
            return a.astype(complex)
        if a.ndim == ndim + 1 and a.shape[-1] == 2:
            return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    raise MalformedOperand(f"expected {_EXPECTED[ndim]}")


def decode_arrays(obj: dict) -> dict:
    """``json.loads`` object hook: a value of ``obj`` that is a non-empty
    list of lists becomes ``np.asarray`` of it, the readers' own call, if
    that holds booleans or numbers, so a file's lists are freed as each
    object closes; anything else stays a list for the readers to refuse."""
    for key, v in obj.items():
        if isinstance(v, list) and v and isinstance(v[0], list):
            try:
                a = np.asarray(v)
            except ValueError:    # ragged lists
                continue
            if a.dtype.kind in "biuf":
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


def expression_from_json(obj, key: str):
    """``obj[key]`` compiled as a coefficient expression (see coeffexpr)."""
    try:
        return compile_rule(json_field(obj, key, str))
    except ExpressionError as exc:
        raise MalformedOperand(exc.args[0]) from exc


_REQUIRED = object()
# the JSON type of each Python type a parsed file holds, decoded arrays
# included
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               np.ndarray: "a list", type(None): "null"}
_PY_TYPES = {float: (int, float), list: (list, np.ndarray)}


def json_field(obj, key: str, kind: type, default=_REQUIRED):
    """``obj[key]``, or ``default`` if absent, checked to be of one JSON
    type; ``int`` and ``float`` refuse ``true`` and ``false``, ``float``
    takes any number, ``list`` also an array from :func:`decode_arrays`
    and ``object`` any value.  Every wire reader checks its fields here:
    a non-object ``obj`` or a value of another type raises
    :class:`MalformedOperand`, an absent key without default KeyError."""
    if not isinstance(obj, dict):
        got = "list" if isinstance(obj, np.ndarray) else type(obj).__name__
        raise MalformedOperand(f"expected an object, got {got}")
    if key not in obj:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    v = obj[key]
    if (not isinstance(v, _PY_TYPES.get(kind, kind))
            or isinstance(v, bool) and kind in (int, float)):
        raise MalformedOperand(f"{key!r} must be {_JSON_TYPES[kind]}")
    return float(v) if kind is float else v


def json_size(obj, key: str, low: int = 1, high: float = math.inf,
              default=_REQUIRED) -> int:
    """``json_field(obj, key, int, default)``, an integer from ``low`` to
    ``high``: any other raises :class:`MalformedOperand`."""
    n = json_field(obj, key, int, default)
    if not low <= n <= high:
        bound = f"at least {low}" if high == math.inf else f"from {low} to {high}"
        raise MalformedOperand(f"{key!r} must be {bound}, got {n}")
    return n


def json_choice(obj, key: str, values: tuple, default=_REQUIRED):
    """``json_field(obj, key, str, default)``, a string that must be one
    of ``values``: any other raises :class:`MalformedOperand`."""
    v = json_field(obj, key, str, default)
    if v is not default and v not in values:
        raise MalformedOperand(f"{key!r} must be one of {', '.join(values)}")
    return v


def rule_from_json(obj) -> series.Rule:
    return series.Rule(tuple(
        series.Term(complex_from_json(json_field(t, "coef", object)),
                    json_field(t, "alpha", float, 0.0),
                    json_field(t, "ratio", float, 1.0),
                    json_field(t, "start", int, 1))
        for t in json_field(obj, "terms", list)))


def pair_from_json(obj) -> DualityPair:
    """A duality pair whose sizes are checked here: ``p`` in (1, inf), a
    ``dim`` of at least 1, and a ``truncation`` from 1 to the term cap of
    :mod:`formcalc.series`, past which no certificate looks."""
    p = json_field(obj, "p", float, 2.0)
    if not 1.0 < p < math.inf:
        raise MalformedOperand(f"'p' must lie in (1, inf), got {p!r}")
    if json_choice(obj, "backend", (DENSE, SEQUENCE)) == DENSE:
        return dense_pair(json_size(obj, "dim"), p)
    return sequence_pair(json_size(obj, "truncation", 1, series._MAX_TERMS), p)


def vector_from_json(obj, cls=Vector):
    """A vector (or ``cls``) whose optional ``tail``, on the sequence
    backend only, is the rule that generated its coordinates, of
    ``"kind": "rule"``."""
    tail = json_field(obj, "tail", dict, None)
    if tail is not None:
        json_choice(tail, "kind", ("rule",))
        tail = rule_from_json(tail)
    backend = json_choice(obj, "backend", (DENSE, SEQUENCE), DENSE)
    if tail is not None and backend != SEQUENCE:
        raise MalformedOperand("'tail' needs the sequence backend")
    return cls(array_from_json(obj["coords"]), backend, tail)


def functional_from_json(obj) -> Functional:
    return vector_from_json(obj, cls=Functional)


def operator_from_json(obj) -> Operator:
    direction = json_choice(obj, "direction", DIRECTIONS, TO_DUAL)
    if json_choice(obj, "backend", (DENSE, SEQUENCE)) == SEQUENCE:
        domain = json_choice(obj, "domain", (DOMAIN_FINITE, DOMAIN_MAXIMAL), DOMAIN_FINITE)
        return DiagonalOperator(rule_from_json(obj["diagonal"]), domain, direction)
    basis = matrix_from_json(obj["domain_basis"])
    action = matrix_from_json(obj["action"])
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
