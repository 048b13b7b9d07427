"""Quick check of the benchmark harness at tiny sizes.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Run from the repository root.  Checks the oracles on cases with known
answers, then runs a few scenarios of each kind at tiny sizes through
one traced worker round and the report checks.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_infimum_of_late_start_rule_is_zero():
    assert oracles.rule_infimum([(1.0, 0.0, 1.0, 5)]) == 0.0
    assert oracles.rule_infimum([(2.0, 1.0, 1.0, 3)]) == 0.0
    assert oracles.rule_infimum([(2.0, 1.0, 1.0, 1)]) == 2.0
    assert oracles.rule_infimum([(1.0, -1.5, 1.0, 1)]) == 0.0
    for terms in workloads.KEPT_FAULT_GENERATORS:
        assert oracles.rule_infimum(terms) == 0.0


def test_series_oracle_against_direct_sums():
    terms = [(1.5, 2.0, 0.5, 1), (0.5, 0.0, 0.25, 3)]
    direct = float(np.sum(oracles.rule_values(terms, np.arange(1, 400))))
    assert abs(oracles.series_sum(terms) - direct) <= 1e-13 * direct
    assert abs(oracles.series_sum([(1.0, -2.0, 1.0, 1)]) - math.pi ** 2 / 6) < 1e-15
    assert oracles.term_converges(-1.5, 1.0) and not oracles.term_converges(-1.0, 1.0)
    assert not oracles.term_converges(0.0, math.exp(0.2))


def test_dense_oracles():
    S = oracles.p1_stiffness(8, 1.3, 0.7)
    ones = np.ones(9)
    assert abs(ones @ S @ ones - 0.7) < 1e-12
    lam = np.linalg.eigvals(np.linalg.solve(
        oracles.p1_stiffness(16, 0.0, 1.0)[1:-1, 1:-1],
        oracles.p1_stiffness(16, 1.0, 0.0)[1:-1, 1:-1])).real.min()
    assert abs(lam - oracles.discrete_poincare(16)) < 1e-10
    A = np.diag([2.0, 1.0])
    assert oracles.order_verdict(A, np.eye(2)) == "A>=B"
    assert oracles.order_verdict(np.eye(2), A) == "B>=A"
    assert oracles.order_verdict(A, A) == "equal"
    assert oracles.order_verdict(A, np.diag([1.0, 2.0])) == "incomparable"


def test_check_report():
    exp = {"verdict": "pass", "checks": [("close", ("details", "gamma"), 1.0, 1e-9, 0.0)]}
    good = {"verdict": "pass", "details": {"gamma": 1.0 + 1e-12}}
    assert oracles.check_report(good, exp) == []
    assert oracles.check_report({"verdict": "pass", "details": {"gamma": 1.1}}, exp)
    assert oracles.check_report({"verdict": "fail", "details": {}}, exp)
    assert oracles.check_report({"verdict": "fail"}, {"verdict": "fail"}) == []


def tiny_batch() -> workloads.Batch:
    rng = np.random.default_rng(0)
    batch = workloads.Batch("run")
    sizes = {"compare": 24, "dirichlet-vs-neumann": 8, "weak-solve": 16,
             "elliptic-assemble": 8}
    for op in dict(workloads.DENSE_GRID):
        n = sizes.get(op, 6)
        sc, exp = workloads._dense_scenario(rng, op, n, f"{op}-n{n}")
        batch.scenarios.append(sc)
        batch.expect[sc["id"]] = exp
    seq = workloads.sequence_certify(0)
    seen = {}
    for sc in seq.scenarios:
        kind = sc["id"].rsplit("-", 1)[0]
        if "slow" in kind or seen.get(kind, 0) >= 2:
            continue
        seen[kind] = seen.get(kind, 0) + 1
        batch.scenarios.append(sc)
        batch.expect[sc["id"]] = seq.expect[sc["id"]]
    batch.kept_fault = {sid for sid in seq.kept_fault if sid in batch.expect}
    return batch


def test_traced_round_at_tiny_sizes():
    batch = tiny_batch()
    workdir = run.OUT / "smoke"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argv = run.program_args(batch, workdir, jobs=1)
    res = run.run_child({"argv": argv, "trace": True,
                         "trace_out": str(workdir / "spans.jsonl")},
                        run.child_env(None), workdir)
    failed, problems = run.check_run_round(batch, workdir / "reports",
                                           res["exit_codes"])
    assert problems == [], problems
    assert failed <= batch.kept_fault and len(batch.kept_fault) == 2
    trace = res["trace"]
    assert trace["calls"]["scenarios.run_scenario"] == len(batch.scenarios)
    assert trace["calls"]["ordering.compare"] >= 1
    assert trace["eigh_in_compare"] >= 2 * trace["calls"]["ordering.compare"]
    assert all(v >= -1e-9 for v in trace["self_s"].values())
    assert res["peak_rss_mb"] > 0 and res["blas"]
    # the traced run reports exactly the per-layer metrics BENCHMARK.json lists
    layers = run.layer_metrics([res], res["verify_s"],
                               {"numpy_s": 0.0, "scipy_s": 0.0, "formcalc_s": 0.0})
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(layers) == sorted(run.per_layer_names()) == sorted(m["name"] for m in listed)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in listed)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
