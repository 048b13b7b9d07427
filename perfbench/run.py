"""formcalc end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's batch is generated from
the seed (see ``workloads.py``) and run through ``formcalc.cli.main``
in fresh interpreters, one per round, with the BLAS thread variables and
FORMCALC_TOL_SCALE removed so the program's defaults apply.  Rounds
repeat the same batch until S seconds of rounds have run; every round's
reports are checked against the oracles in ``oracles.py``.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (verify_s, setup_s,
peak_rss_mb, medians over the run); with --trace 1 a separate traced
run reports per-layer self times and call counts, import times from
``python -X importtime``, and the tracing overhead.  Full results,
including versions, BLAS libraries and thread counts, go to
perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CONTROLLED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "FORMCALC_TOL_SCALE")
SETUP_SAMPLES = 9          # fresh interpreters per run for setup_s
CHILD_TIMEOUT = 150
EXIT_FOR = {"fail": 2, "uncertified": 3}

# per-layer metrics reported by the traced run; self times are seconds
# per round, counts are calls per round
LAYER_SELF = (
    "ordering.compare", "ordering.form_on_X", "ordering.factorize",
    "formsum.form_sum", "formsum.lift_commutant", "formsum.joint_factorize",
    "formsum.spectrum_inclusion", "formsum.commutation_formsum",
    "linalg.pivoted_cholesky", "forms.associated_operator", "forms.lower_bound",
    "forms.SesquilinearForm", "friedrichs.friedrichs", "friedrichs.core_check",
    "duality.DenseOperator", "duality.is_extension", "duality.pair",
    "series.certified_sum", "series.Rule.__call__", "series.tail_bound",
    "elliptic.dirichlet_vs_neumann", "covariance.weak_expectation",
    "covariance.independent_sum",
    "suites.representation_suite", "suites.friedrichs_suite",
    "suites.ordering_suite", "suites.formsum_suite", "suites.covariance_suite",
    "suites.elliptic_suite",
    "scenarios.run_scenario", "reporting.parse", "reporting.write",
    "reporting.make_report", "lapack.eigh", "lapack.svd", "lapack.solve",
    "lapack.cholesky", "lapack.eig",
)
LAYER_CALLS = (
    "ordering.compare", "ordering.form_on_X", "ordering.factorize",
    "ordering.jstar_coefficients", "formsum.form_sum", "formsum.lift_commutant",
    "linalg.pivoted_cholesky", "linalg.gram_inner", "forms.lower_bound",
    "duality.DenseOperator", "duality.effective_projector",
    "duality.canonical_matrix", "duality.coefficients_of",
    "series.certified_sum", "series.Rule.__call__", "series.Term",
    "series.tail_bound", "lapack.eigh", "lapack.svd", "lapack.solve",
    "lapack.cholesky", "lapack.eig", "reporting.parse", "reporting.write",
)
MODULES = ("cli", "scenarios", "suites", "reporting", "duality", "forms",
           "friedrichs", "ordering", "formsum", "covariance", "elliptic",
           "series", "linalg", "coeffexpr", "lapack")


def per_layer_names() -> list[str]:
    names = [f"{n}.self_s" for n in LAYER_SELF] + [f"{n}.calls" for n in LAYER_CALLS]
    names += [f"{m}.module_self_s" for m in MODULES]
    names += ["ordering.eigh_per_compare", "series.term_evals",
              "series.max_rule_terms", "import.numpy_s", "import.scipy_s",
              "import.formcalc_s", "trace.overhead_s", "trace.verify_s",
              "trace.spans"]
    return names


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name == "ordering.eigh_per_compare":
        return "ratio"
    return "count"


# --- running the program -------------------------------------------------------


def child_env(blas_threads: int | None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in CONTROLLED_VARS and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads:
        for var in CONTROLLED_VARS[:3]:
            env[var] = str(blas_threads)
    return env


def run_child(job: dict, env: dict, workdir: Path) -> dict:
    """Run one worker round (or import-only probe) and return its result."""
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job))
    if result_path.exists():
        result_path.unlink()
    with open(workdir / "worker.err", "w") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            stdout=subprocess.DEVNULL, stderr=err, env=env, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{(workdir / 'worker.err').read_text()[-2000:]}")
    return json.loads(result_path.read_text())


def import_times(env: dict, samples: int) -> dict:
    """Medians of numpy, scipy and formcalc import time from -X importtime.

    numpy_s and scipy_s are the cumulative times of the outermost numpy /
    scipy imports; formcalc_s is the self time of formcalc's own modules."""
    per = {"numpy_s": [], "scipy_s": [], "formcalc_s": []}
    line_re = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import formcalc.cli"], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT)
        rows = [(int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4))
                for m in map(line_re.match, proc.stderr.splitlines()) if m]
        totals = {"numpy": 0, "scipy": 0, "formcalc": 0}
        # lines come in completion order: a module's parent is the next line
        # with smaller indentation
        for i, (self_us, cum_us, depth, name) in enumerate(rows):
            root = name.split(".")[0]
            if root == "formcalc":
                totals["formcalc"] += self_us
            if root not in ("numpy", "scipy"):
                continue
            parent = next((r[3] for r in rows[i + 1:] if r[2] < depth), "")
            if parent.split(".")[0] != root:
                totals[root] += cum_us
        for key in totals:
            per[f"{key}_s"].append(totals[key] / 1e6)
    return {k: statistics.median(v) for k, v in per.items()}


# --- checking the outputs --------------------------------------------------------


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_run_round(batch, outdir: Path, codes: list[int]) -> tuple[set, list]:
    """Failed scenario ids and run-level problems of one ``formcalc run``."""
    failed, problems = set(), []
    verdicts = []
    for sc in batch.scenarios:
        sid = sc["id"]
        path = outdir / f"{sid}.json"
        if not path.exists():
            failed.add(sid)
            problems.append(f"{sid}: no report")
            continue
        report = json.loads(path.read_text())
        verdicts.append(report["verdict"])
        exp = batch.expect[sid]
        rows = None
        if any(c[0] == "csv" for c in exp.get("checks", ())):
            rows = read_csv(outdir / f"{sid}-solution.csv")
        issues = oracles.check_report(report, exp, rows)
        if report["verdict"] in ("pass", "fail") and \
                oracles.verdict_from_residuals(report) != report["verdict"]:
            issues.append("verdict disagrees with its residuals")
        if issues:
            failed.add(sid)
            if sid not in batch.kept_fault:
                problems.append(f"{sid}: {'; '.join(issues)}")
    summary = json.loads((outdir / "summary.json").read_text())
    if summary["counts"]["total"] != len(batch.scenarios):
        problems.append("summary count differs from the scenario file")
    want_code = max((EXIT_FOR.get(v, 0) for v in verdicts),
                    key=lambda c: (c == 2, c), default=0)
    if codes != [want_code]:
        problems.append(f"exit code {codes} but verdicts imply {want_code}")
    return failed, problems


def check_suite_round(batch, outdir: Path, codes: list[int]) -> tuple[set, list]:
    expect = workloads.suite_expectations()
    failed, problems = set(), []
    for seed, code in zip(batch.seeds, codes):
        sdir = outdir / f"seed{seed}"
        if code != 0:
            problems.append(f"suite all --seed {seed} exited {code}")
        summary = json.loads((sdir / "summary.json").read_text())
        if not summary.get("coverage_complete") or \
                summary["counts"]["total"] != len(workloads.SUITE_CHECKS):
            problems.append(f"seed {seed}: incomplete coverage or count")
        for name in workloads.SUITE_CHECKS:
            op = f"{seed}:{name}"
            path = sdir / f"{name}.json"
            if not path.exists():
                failed.add(op)
                problems.append(f"{op}: no report")
                continue
            report = json.loads(path.read_text())
            issues = oracles.check_report(report, expect[name])
            if report["verdict"] in ("pass", "fail") and \
                    oracles.verdict_from_residuals(report) != report["verdict"]:
                issues.append("verdict disagrees with its residuals")
            if name == "elliptic-convergence":
                issues += convergence_issues(read_csv(sdir / "convergence.csv"))
            if issues:
                failed.add(op)
                problems.append(f"{op}: {'; '.join(issues)}")
    return failed, problems


def convergence_issues(rows) -> list[str]:
    """Second-order convergence: each halving of h divides the L2 error
    by about 4."""
    header, body = rows[0], rows[1:]
    m_col, h_col = header.index("m"), header.index("h")
    e_col, r_col = header.index("l2_error"), header.index("ratio")
    issues = []
    for prev, row in zip(body, body[1:]):
        ratio = float(prev[e_col]) / float(row[e_col])
        if abs(ratio - 4.0) > 0.4 or abs(float(row[r_col]) - ratio) > 1e-9 * ratio:
            issues.append(f"convergence ratio {row[r_col]} at m={row[m_col]}")
        if abs(float(row[h_col]) * int(row[m_col]) - 1.0) > 1e-12:
            issues.append(f"h column wrong at m={row[m_col]}")
    if len(body) < 3:
        issues.append("convergence table too short")
    return issues


# --- one benchmark run -------------------------------------------------------------


def program_args(batch, workdir: Path, jobs: int) -> list[list[str]]:
    outdir = workdir / "reports"
    if batch.kind == "suite":
        return [["suite", "all", "--seed", str(s), "--out", str(outdir / f"seed{s}")]
                for s in batch.seeds]
    scen = workdir / "scenarios.json"
    scen.write_text(json.dumps({"scenarios": batch.scenarios}))
    argv = ["run", str(scen), "--out", str(outdir)]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return [argv]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="formcalc run --jobs (reference figures only)")
    ap.add_argument("--blas-threads", type=int, default=0,
                    help="pin BLAS threads (reference figures only)")
    args = ap.parse_args()
    if not (SRC / "formcalc" / "cli.py").is_file():
        print(f"error: no formcalc sources under {SRC}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    batch = workloads.WORKLOADS[args.workload](args.seed)
    argv = program_args(batch, workdir, args.jobs)
    env = child_env(args.blas_threads)
    check = check_suite_round if batch.kind == "suite" else check_run_round

    run_child({"import_only": True}, env, workdir)     # compile and cache
    rounds, attempted, failed_ops, problems = [], 0, 0, []
    traced_rounds = []
    spent = 0.0
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    while True:
        traced = bool(args.trace and rounds and spent >= untraced_budget)
        shutil.rmtree(workdir / "reports", ignore_errors=True)
        t0 = time.perf_counter()
        res = run_child({"argv": argv, "trace": traced,
                         "trace_out": str(workdir / "spans.jsonl")}, env, workdir)
        spent += time.perf_counter() - t0
        failed, issues = check(batch, workdir / "reports", res["exit_codes"])
        attempted += batch.operations
        failed_ops += len(failed)
        problems += issues
        (traced_rounds if traced else rounds).append(res)
        if spent >= args.seconds and (traced_rounds or not args.trace):
            break
    setup = [r["import_s"] for r in rounds + traced_rounds]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child({"import_only": True}, env, workdir)["import_s"])

    verify = statistics.median(r["verify_s"] for r in rounds)
    if args.trace:
        metrics = layer_metrics(traced_rounds, verify, import_times(env, 3))
    else:
        metrics = {"verify_s": verify, "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    correct = not problems
    environment = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas": rounds[0]["blas"], "controlled_env_removed": list(CONTROLLED_VARS),
        "blas_threads_pinned": args.blas_threads or None, "jobs": args.jobs}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations_per_round": batch.operations,
        "kept_fault_per_round": len(batch.kept_fault),
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "verify_s_rounds": [r["verify_s"] for r in rounds],
        "setup_s_samples": setup,
        "peak_rss_mb_rounds": [r["peak_rss_mb"] for r in rounds],
        "problems": problems[:50], "environment": environment,
        "wall_s": time.perf_counter() - t_start}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed_ops,
              "metrics": metrics}
    (OUT / "results" / f"{workdir.name}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


def layer_metrics(traced_rounds, untraced_verify: float, imports: dict) -> dict:
    """Per-layer figures from the traced rounds: medians of self times,
    counts from the first traced round (they repeat exactly)."""
    first = traced_rounds[0]["trace"]

    def med_self(name):
        return statistics.median(r["trace"]["self_s"].get(name, 0.0)
                                 for r in traced_rounds)

    out = {f"{n}.self_s": med_self(n) for n in LAYER_SELF}
    out.update({f"{n}.calls": first["calls"].get(n, 0) for n in LAYER_CALLS})
    for mod in MODULES:
        out[f"{mod}.module_self_s"] = statistics.median(
            sum(v for k, v in r["trace"]["self_s"].items()
                if k.split(".")[0] == mod) for r in traced_rounds)
    compares = first["calls"].get("ordering.compare", 0)
    out["ordering.eigh_per_compare"] = (first["eigh_in_compare"] / compares
                                        if compares else 0.0)
    out["series.term_evals"] = first["term_evals"]
    out["series.max_rule_terms"] = first["max_rule_terms"]
    out.update({f"import.{k}": v for k, v in imports.items()})
    traced_verify = statistics.median(r["verify_s"] for r in traced_rounds)
    out["trace.verify_s"] = traced_verify
    out["trace.overhead_s"] = traced_verify - untraced_verify
    out["trace.spans"] = first["spans"]
    return out


if __name__ == "__main__":
    sys.exit(main())
