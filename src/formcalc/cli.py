"""Command line front end.

``formcalc run <file> [--out DIR]`` executes a scenario file
and writes one JSON report per scenario plus a summary.  ``formcalc
suite <name> [--seed S] [--out DIR]`` runs a named verification battery
(or ``all``) on the non-negative seed S (default 0).  Each report is
encoded once, for its file and its summary entry together, and
``summary.json`` is streamed as the reports are written and appears
last, after every report and CSV file.

BLAS threads: :func:`main` sets every OpenBLAS mapped into the process
to one thread before it parses its arguments, because the small dense
eigensolves and SVDs of formcalc run faster on one thread at every size
measured.  Setting ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``
overrides this: then main leaves the thread count alone.  Calling
``main()`` in-process leaves that process pinned to one thread.  The pin
happens before ``suite all`` forks the workers that run its batteries,
so they inherit it.

numpy.random is not loaded with formcalc.  ``suite`` loads it before its
batteries run, which all but ``elliptic`` draw from it; for ``all`` that
is in the parent before the workers fork, so they share its pages.
``run`` never loads it: no scenario operation draws.

Exit codes, one rule for both commands: 2 if a claim failed (for
``suite``, also a control that passed, or ``all`` with a claim tag left
uncovered), else 3 if something was uncertifiable, else 0; 4 is
malformed input: scenario file or id, operation, operand, or suite name
or seed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from pathlib import Path

from .reporting import (
    _JSON_TYPES, FAIL, SCHEMA_VERSION, UNCERTIFIED, MalformedOperand,
    _verdict_counts, decode_arrays, write_outputs,
)
from .scenarios import MissingOperand, UnknownOperation, run_scenario
from .suites import SUITE_NAMES, run_suite

EXIT_PASS, EXIT_FAIL, EXIT_UNCERTIFIED, EXIT_USAGE = 0, 2, 3, 4

# thread setters of numpy's OpenBLAS (64-bit integer interface), of the
# 32-bit interface build other wheels bundle, and of a plain OpenBLAS
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads")


def _pin_blas_threads() -> None:
    """One thread in every OpenBLAS file mapped into this process, unless
    the environment already chooses a count; a library without a known
    setter is left as it is."""
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh
                      if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(p for p in mapped if os.path.isfile(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _exit_code(verdicts) -> int:
    if any(v == FAIL for v in verdicts):
        return EXIT_FAIL
    if any(v == UNCERTIFIED for v in verdicts):
        return EXIT_UNCERTIFIED
    return EXIT_PASS


def _scenario_list(payload) -> list:
    """The scenarios of a parsed file, or ValueError: objects with a
    string op, an integer seed, tolerances that are an object of numbers,
    and an id (default: the op) that names the report, so a plain file
    name of at most 200 bytes, unique in the file, other than ``summary``."""
    scenarios = payload.get("scenarios") if isinstance(payload, dict) else None
    if not isinstance(scenarios, list):
        raise ValueError("the file must be an object with a list of scenarios")
    ids = set()
    for sc in scenarios:
        if not (isinstance(sc, dict) and isinstance(sc.get("op"), str)):
            raise ValueError("every scenario must be an object with a string op")
        sid, tols = sc.get("id", sc["op"]), sc.get("tolerances", {})
        # named by JSON type: a list of numbers arrives as an array
        shown = repr(sid) if isinstance(sid, str) else f"({_JSON_TYPES[type(sid)]})"
        if not (isinstance(sc.get("seed", 0), int) and isinstance(tols, dict) and
                all(isinstance(v, (int, float)) for v in tols.values())):
            raise ValueError(f"scenario {shown}: the seed must be an integer "
                             "and the tolerances an object of numbers")
        if (not isinstance(sid, str) or sid in ids or {"/", "\\", "\0"} & set(sid)
                or sid in ("", ".", "..", "summary") or len(sid.encode()) > 200):
            raise ValueError(f"scenario id {shown} is not a plain, unique file name")
        ids.add(sid)
    return scenarios


def cmd_run(args) -> int:
    path = Path(args.file)
    try:
        scenarios = _scenario_list(json.loads(path.read_text(), object_hook=decode_arrays))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reports = []
    try:
        for i in range(len(scenarios)):
            # the scenario's operands are freed once its report exists
            sc, scenarios[i] = scenarios[i], None
            reports.append(run_scenario(sc))
    except (UnknownOperation, MissingOperand, MalformedOperand) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    reports.sort(key=lambda r: r.scenario)
    for rep in reports:
        print(f"{rep.verdict:11s} {rep.scenario}")
    code = _exit_code([r.verdict for r in reports])
    counts = _verdict_counts(reports)
    if args.out:
        write_outputs(args.out, reports,
                      {f"{rep.scenario}-{name}": table for rep in reports
                       for name, table in rep.details.get("csv", {}).items()},
                      {"schema": SCHEMA_VERSION, "counts": counts,
                       "exit_code": code}, "scenarios")
    print(f"{counts['passed']}/{counts['total']} passed")
    return code


@contextlib.contextmanager
def _battery_map(name: str):
    """The map that runs the batteries of ``suite name``.  For ``all``,
    with more than one usable CPU and ``fork`` available, it is the map
    of a pool of forked workers, one per usable CPU and at most one per
    battery; otherwise the builtin map, in this process.  Forked workers
    inherit the one-thread BLAS pin and the battery table as they are;
    the pool and its modules are loaded only here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if name == "all" and cpus > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(min(cpus, len(SUITE_NAMES)),
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                yield pool.map
            return
    yield map


def cmd_suite(args) -> int:
    if args.name != "all" and args.name not in SUITE_NAMES:
        print(f"error: unknown suite {args.name!r} (choose from "
              f"{', '.join(SUITE_NAMES + ('all',))})", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"error: the seed must be non-negative, got {args.seed}",
              file=sys.stderr)
        return EXIT_USAGE
    # the batteries draw from numpy.random: loaded here, before the pool
    # forks, its pages are shared by the workers instead of copied into each
    import numpy.random
    with _battery_map(args.name) as battery_map:
        res = run_suite(args.name, seed=args.seed, map=battery_map)
    for rep in res.reports:
        mark = "control" if rep.control else "claim"
        print(f"{rep.verdict:11s} [{mark}] {rep.scenario}")
    summary = res.summary_dict(reports=False)
    missing = [k for k, v in res.coverage().items() if v == 0]
    if args.name == "all":
        summary["coverage_complete"] = not missing
    if args.out:
        write_outputs(args.out, res.reports, res.artifacts, summary, "reports")
    counts = summary["counts"]
    print(f"{counts['passed']}/{counts['total']} passed, "
          f"{counts['controls']} controls")
    if args.name == "all" and missing:
        print(f"coverage incomplete: {missing}", file=sys.stderr)
        return EXIT_FAIL
    # among the unexpected verdicts a pass is a control's: a failed check
    return _exit_code([FAIL if r.passed else r.verdict
                       for r in res.reports if not r.as_expected])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formcalc",
        description="scenario-driven verification of positive-form calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)
    p_suite = sub.add_parser("suite", help="run a verification battery")
    p_suite.add_argument("name")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--out", default=None)
    p_suite.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
