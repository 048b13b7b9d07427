"""The report writer: each report encoded once, the summary streamed.

The reference is the one-shot path the writer replaced: every report
file is ``json.dumps(report.as_dict(), indent=2, sort_keys=True)`` and
the summary is the same call on a dict holding every report as
``as_dict(with_time=False)``.
"""

import dataclasses
import json
import math
import tracemalloc

import pytest

from formcalc import cli, reporting
from formcalc.reporting import SCHEMA_VERSION, _run_check, _verdict_counts
from formcalc.scenarios import run_scenario
from formcalc.suites import run_suite


def one_shot(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def assert_reports_as_one_shot(out, reports):
    for rep in reports:
        assert (out / f"{rep.scenario}.json").read_text() == one_shot(rep.as_dict())


def rule(*terms):
    return {"terms": [{"coef": [c, 0], "alpha": a, "ratio": r, "start": 1}
                      for c, a, r in terms]}


def seq_operator(*terms):
    return {"backend": "sequence", "direction": "to-dual",
            "diagonal": rule(*terms), "domain": "finitely-supported"}


SPACE = {"backend": "sequence", "truncation": 48, "p": 2.0}
SEQUENCE_SCENARIOS = [
    {"id": "form-on-x", "op": "form-on-x", "A": seq_operator((1.2, 0.0, 1.0), (0.8, 1.0, 1.1)),
     "y": {"backend": "sequence", "coords": [[0.6 ** n, 0.0] for n in range(1, 49)],
           "tail": {"kind": "rule", **rule((1.0, 0.0, 0.6))}}},
    {"id": "form-on-x-inf", "op": "form-on-x", "A": seq_operator((1.0, 2.0, 1.0)),
     "y": {"backend": "sequence", "coords": [[1.0 / n, 0.0] for n in range(1, 49)],
           "tail": {"kind": "rule", **rule((1.0, -1.0, 1.0))}}, "expected": "inf"},
    {"id": "friedrichs", "op": "friedrichs", "space": SPACE,
     "generator": rule((0.5, 0.0, 1.2), (0.8, 1.0, 1.3)),
     "samples": [{"backend": "sequence", "coords": [[0.4 ** n, 0.0] for n in range(1, 49)],
                  "tail": {"kind": "rule", **rule((1.0, 0.0, 0.4))}}]},
    {"id": "friedrichs-late", "op": "friedrichs", "space": SPACE,
     "generator": {"terms": [{"coef": [1, 0], "alpha": 0, "ratio": 1, "start": 5}]}},
    {"id": "form-sum", "op": "form-sum", "space": SPACE,
     "A": seq_operator((0.9, 0.0, 1.0), (1.8, -2.1, 1.0)), "B": seq_operator((1.5, 1.0, 0.4))},
    {"id": "compare", "op": "compare", "A": seq_operator((1.1, 1.5, 1.0)),
     "B": seq_operator((1.1, 1.5, 1.0)), "expected": "equal"},
    {"id": "second-moment", "op": "second-moment",
     "space_pair": {"backend": "sequence", "truncation": 16, "p": 2.0},
     "probability": {"kind": "exponential", "beta": 3.0}, "variable": {"kind": "exp-poly"},
     "functional": {"backend": "sequence", "coords": [[-0.01, 0.0]] * 2 + [[0.0, 0.0]] * 14},
     "expected": True},
    {"id": "covariance-form", "op": "covariance-form",
     "space_pair": {"backend": "sequence", "truncation": 24, "p": 2.0},
     "probability": {"kind": "paired-rule", "rule": rule((1.5, 0.0, 0.4))},
     "variable": {"kind": "signed-basis", "scale": rule((1.3, 0.0, 1.1))}},
]


def raises():
    raise ValueError('the "gram" was\nnot positive: λ = −1 ≤ 0')


def infinite():
    return ({"value": math.inf}, {"value": math.inf},
            {"label": "∞ été", "nested": [1.5, None, {"x": "\t"}]},
            [{"kind": "tail-divergence"}])


# checks whose reports the scenario ops cannot make: a failure whose
# error text holds quotes, a newline and non-ASCII text, and a pass
# whose residual is infinite
CRAFTED = {"raises": (("Thm1",), raises), "infinite": (("Lem1",), infinite)}


@pytest.fixture
def run_reports(monkeypatch):
    """Every report ``formcalc run`` makes, the checks of CRAFTED run
    for scenarios with their op."""
    made = []

    def recorded(sc):
        if sc["op"] in CRAFTED:
            made.append(_run_check(sc["id"], *CRAFTED[sc["op"]]))
        else:
            made.append(run_scenario(sc))
        return made[-1]

    monkeypatch.setattr(cli, "run_scenario", recorded)
    return made


class TestRunOutputs:
    def run(self, tmp_path, scenarios):
        f = tmp_path / "scenarios.json"
        f.write_text(json.dumps({"scenarios": scenarios}))
        out = tmp_path / "out"
        return cli.main(["run", str(f), "--out", str(out)]), out

    def reference_summary(self, reports, code):
        reports = sorted(reports, key=lambda r: r.scenario)
        return one_shot({"schema": SCHEMA_VERSION,
                         "scenarios": [r.as_dict(with_time=False) for r in reports],
                         "counts": _verdict_counts(reports), "exit_code": code})

    def test_empty_scenario_list(self, tmp_path, run_reports):
        code, out = self.run(tmp_path, [])
        assert code == 0 and run_reports == []
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
        assert (out / "summary.json").read_text() == self.reference_summary([], 0)

    def test_sequence_and_crafted_reports(self, tmp_path, run_reports):
        scenarios = SEQUENCE_SCENARIOS + [{"id": "quoted-error", "op": "raises"},
                                          {"id": "infinite-residual", "op": "infinite"}]
        code, out = self.run(tmp_path, scenarios)
        assert code == 2 and len(run_reports) == len(scenarios)
        error, inf = run_reports[-2:]
        assert error.verdict == "fail" and '"gram" was\nnot' in error.details["error"]
        assert inf.verdict == "pass" and inf.residuals["value"] == math.inf
        assert (out / "summary.json").read_text() == self.reference_summary(run_reports, code)
        assert_reports_as_one_shot(out, run_reports)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{r.scenario}.json" for r in run_reports) + ["summary.json"]

    def test_malformed_scenario_writes_nothing(self, tmp_path):
        code, out = self.run(tmp_path, SEQUENCE_SCENARIOS[:2] + [{"id": "x", "op": "factorize"}])
        assert code == 4 and not out.exists()


def test_suite_all_outputs(tmp_path, monkeypatch):
    results = []

    def recorded(*args, **kwargs):
        results.append(run_suite(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_suite", recorded)
    out = tmp_path / "suite"
    code = cli.main(["suite", "all", "--seed", "1", "--out", str(out)])
    res, = results
    assert code == 0
    assert (out / "summary.json").read_text() == one_shot(
        {**res.summary_dict(), "coverage_complete": True})
    assert_reports_as_one_shot(out, res.reports)
    # a fresh run as a library serializes to the same bytes
    fresh = {**run_suite("all", seed=1).summary_dict(), "coverage_complete": True}
    assert one_shot(fresh) == (out / "summary.json").read_text()


def test_summary_dict_without_reports():
    res = run_suite("ordering", seed=2)
    full = res.summary_dict()
    assert res.summary_dict(reports=False) == {
        k: v for k, v in full.items() if k != "reports"}


def test_writing_holds_one_report_at_a_time(tmp_path):
    """Writing 400 sequence reports peaks at a fixed multiple of the
    largest report's text, whatever their number: about 110 times, most
    of it two open files' buffers and the reference cycles that each
    indented ``json.dumps`` leaves for the collector.  The one-shot
    summary encode of the same reports holds the whole summary text and
    the list of its chunks, about 2000 times."""
    base = [run_scenario(sc) for sc in SEQUENCE_SCENARIOS]
    reports = [dataclasses.replace(r, scenario=f"{r.scenario}-{k:02d}")
               for k in range(50) for r in base]
    largest = max(len(json.dumps(r.as_dict(), indent=2, sort_keys=True)) for r in reports)
    summary = {"schema": SCHEMA_VERSION, "counts": _verdict_counts(reports),
               "exit_code": 2}
    reporting.write_outputs(tmp_path / "warm", reports[:1], {}, summary, "scenarios")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reporting.write_outputs(tmp_path / "out", reports, {}, summary, "scenarios")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == 400 and len(list((tmp_path / "out").iterdir())) == 401
    assert peak < 192 * largest, (peak, largest)
