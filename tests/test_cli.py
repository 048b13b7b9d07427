"""Scenario runner, suites, exit codes, determinism, coverage."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from formcalc import cli, suites
from formcalc.cli import main
from formcalc.covariance import covariance_form
from formcalc.errors import (
    DomainError, LowerBoundError, NotEqual, NotNormalized, NotPositive, Uncertifiable,
)
from formcalc.reporting import CLAIM_TAGS, array_from_json, make_report, matrix_from_json
from formcalc.scenarios import OPERATIONS, MissingOperand, _variable, judge, run_scenario
from formcalc.suites import SUITE_NAMES, _run_checks, friedrichs_suite, run_suite


def write_scenarios(path, scenarios):
    path.write_text(json.dumps({"scenarios": scenarios}))
    return str(path)


DENSE2 = {"backend": "dense", "dim": 2, "p": 2.0}


def op_json(matrix):
    m = [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in matrix]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return {"backend": "dense", "direction": "to-dual",
            "domain_basis": eye, "action": m}


class TestScenarioDispatch:
    def test_pair_scenario(self):
        rep = run_scenario({
            "id": "pair-1", "op": "pair", "space": DENSE2,
            "v": {"coords": [[1, 0], [2, 0]]},
            "x": {"coords": [[1, 0], [1, 1]]},
            "expected": [3, -2],
        })
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("space", [{"backend": "dense", "dim": 3},
                                       {"backend": "sequence", "truncation": 2}])
    def test_pair_outside_its_space_fails(self, space):
        # dense 2-vectors: the wrong dimension, then the wrong backend
        rep = run_scenario({"id": "pair-bad", "op": "pair", "space": space,
                            "v": {"coords": [[1, 0], [2, 0]]},
                            "x": {"coords": [[1, 0], [1, 1]]}})
        assert rep.verdict == "fail"
        assert rep.details["error"].startswith("BackendMismatch")

    def test_adjoint_involution_outside_its_space_fails(self):
        rep = run_scenario({
            "id": "adj-bad", "op": "adjoint-involution",
            "space": {"backend": "dense", "dim": 5},
            "operator": op_json([[1, 2], [3, 4]]),
        })
        assert rep.verdict == "fail"
        assert rep.details["error"].startswith("BackendMismatch")

    def test_adjoint_involution_in_its_space_passes(self):
        rep = run_scenario({"id": "adj", "op": "adjoint-involution",
                            "space": DENSE2, "operator": op_json([[1, 2], [3, 4]])})
        assert rep.verdict == "pass"

    def test_associated_operator_scenario(self):
        rep = run_scenario({
            "id": "rep-1", "op": "associated-operator", "space": DENSE2,
            "gram": [[[2, 0], [0, 1]], [[0, -1], [2, 0]]],
        })
        assert rep.verdict == "pass"
        assert rep.claims == ("Thm1",)

    def test_friedrichs_scenario(self):
        rep = run_scenario({
            "id": "fr-1", "op": "friedrichs",
            "space": {"backend": "sequence", "truncation": 64, "p": 2.0},
            "generator": {"terms": [{"coef": [1, 0], "alpha": 2.0,
                                     "ratio": 1.0, "start": 1}]},
            "samples": [{"backend": "sequence",
                         "coords": [[0.5 ** n, 0.0] for n in range(1, 65)],
                         "tail": {"kind": "rule",
                                  "terms": [{"coef": [1, 0], "alpha": 0.0,
                                             "ratio": 0.5, "start": 1}]}}],
        })
        assert rep.verdict == "pass"

    def test_form_on_x_divergent(self):
        rep = run_scenario({
            "id": "form-inf", "op": "form-on-x",
            "A": {"backend": "sequence", "direction": "to-dual",
                  "diagonal": {"terms": [{"coef": [1, 0], "alpha": 2.0,
                                          "ratio": 1.0, "start": 1}]},
                  "domain": "finitely-supported"},
            "y": {"backend": "sequence",
                  "coords": [[1.0 / n, 0.0] for n in range(1, 49)],
                  "tail": {"kind": "rule",
                           "terms": [{"coef": [1, 0], "alpha": -1.0,
                                      "ratio": 1.0, "start": 1}]}},
            "expected": "inf",
        })
        assert rep.verdict == "pass"
        assert rep.certificates[0]["kind"] == "partial-sum-growth"

    def test_unknown_operation(self):
        with pytest.raises(KeyError):
            run_scenario({"id": "x", "op": "no-such-op"})

    def test_friedrichs_late_start_fails(self):
        rep = run_scenario({
            "id": "fr-late", "op": "friedrichs",
            "space": {"backend": "sequence", "truncation": 64, "p": 2.0},
            "generator": {"terms": [{"coef": [1, 0], "alpha": 0,
                                     "ratio": 1, "start": 5}]},
        })
        assert rep.verdict == "fail"

    def test_form_on_x_nan_alpha_rejected(self):
        rep = run_scenario({
            "id": "form-nan", "op": "form-on-x",
            "A": {"backend": "sequence", "direction": "to-dual",
                  "diagonal": {"terms": [{"coef": [1, 0], "alpha": math.nan,
                                          "ratio": 1.0, "start": 1}]},
                  "domain": "finitely-supported"},
            "y": {"backend": "sequence", "coords": [[1.0, 0.0]] * 8},
        })
        assert rep.verdict == "fail"
        assert rep.details["error"].startswith("ValueError")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_rejected_where_it_enters(self, bad):
        # numpy.linalg does not check for NaN or inf: the operator and the
        # form refuse them at construction
        A = op_json([[1, 0], [0, bad]])
        for sc in ({"op": "factorize", "A": A},
                   {"op": "compare", "A": A, "B": op_json([[1, 0], [0, 1]])},
                   {"op": "form-sum", "space": DENSE2, "A": op_json([[1, 0], [0, 1]]),
                    "B": A},
                   {"op": "associated-operator", "space": DENSE2,
                    "gram": [[[2, 0], [0, 0]], [[0, 0], [bad, 0]]]}):
            rep = run_scenario({"id": "non-finite", **sc})
            assert rep.verdict == "fail"
            assert rep.details["error"].startswith("ValueError: basis and "), rep.details

    @pytest.mark.parametrize("op", ["weak-solve", "dirichlet-vs-neumann",
                                    "elliptic-assemble", "sobolev-lower-bound"])
    def test_non_finite_coefficient_rejected_where_it_enters(self, op):
        with np.errstate(all="ignore"):
            rep = run_scenario({
                "id": "non-finite", "op": op, "m": 8, "g": "1",
                "problem": {"length": 1.0, "a": "1 + 0*exp(1000*x)", "b": "1",
                            "gamma": 1.0}})
        assert rep.verdict == "fail"
        assert rep.details["error"].startswith("DomainError: coefficient a(x)")

    @pytest.mark.parametrize("p, verdict", [(1.5, "uncertified"), (2.0, "pass"),
                                            (3.0, "pass")])
    def test_sequence_form_sum_gamma_needs_p_at_least_2(self, p, verdict):
        # the constant generator summed with itself: inf a_n = 2, the l^p
        # lower bound for p >= 2; at p = 1.5 the infimum is 0 (N leading
        # ones give 2 N^(-1/3)), so the bound is not certified there
        one = {"backend": "sequence", "direction": "to-dual",
               "diagonal": {"terms": [{"coef": [1, 0], "alpha": 0.0,
                                       "ratio": 1.0, "start": 1}]},
               "domain": "finitely-supported"}
        rep = run_scenario({
            "id": "seq-sum", "op": "form-sum", "A": one, "B": one,
            "space": {"backend": "sequence", "truncation": 64, "p": p}})
        assert rep.verdict == verdict
        if verdict == "pass":
            assert rep.details["gamma"] == 2.0
        else:
            assert rep.details["error"].startswith("Uncertifiable: diagonal lower bound")

    @pytest.mark.parametrize("sc", [
        {"op": "covariance-form",
         "space_pair": {"backend": "dense", "dim": 3, "p": 2.0},
         "probability": {"kind": "finite", "weights": [0.25, 0.75]},
         "variable": {"kind": "table", "values": [
             [[1, 0], [2, -1], [0, 0.5]], [[-1, 0], [0, 0], [3, 0]]]}},
        {"op": "elliptic-assemble", "m": 8,
         "problem": {"length": 1.0, "a": "1", "b": "1", "gamma": 1.0}},
    ], ids=lambda sc: sc["op"])
    def test_one_eigensolve_per_form_scenario(self, sc, monkeypatch):
        # the positivity residual reads the spectrum the form computed
        calls = []
        real = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rep = run_scenario({"id": "one-eig", **sc})
        assert rep.verdict == "pass"
        assert len(calls) == 1

    def test_signed_basis_independent_sum_passes(self):
        # the signed-basis residual is error over allowed error, so it
        # passes at 1 or less; this one reads about 0.25
        def rule(ratio):
            return {"terms": [{"coef": [1, 0], "alpha": 0.0, "ratio": ratio,
                               "start": 1}]}
        space = {"kind": "paired-rule", "rule": rule(0.5)}
        variable = {"kind": "signed-basis", "scale": rule(1.1)}
        rep = run_scenario({
            "id": "indep-signed", "op": "independent-sum",
            "space_pair": {"backend": "sequence", "truncation": 24, "p": 2.0},
            "probability_xi": space, "probability_eta": space,
            "xi": variable, "eta": variable,
        })
        assert rep.details["kind"] == "diagonal-rules"
        assert 0.2 < rep.residuals["window_error_ratio"] < 0.3
        assert rep.verdict == "pass"


SECOND_MOMENT = {
    "op": "second-moment", "space_pair": {"backend": "sequence", "truncation": 4},
    "probability": {"kind": "exponential", "beta": 1.5}, "variable": {"kind": "exp-poly"},
    "functional": {"backend": "sequence", "coords": [[1, 0], [0, 0], [0, 0], [0, 0]]}}
IS_EXTENSION = {"op": "is-extension", "S": op_json([[1, 0], [0, 2]]),
                "T": op_json([[1, 0], [0, 2]])}
COMPARE = {"op": "compare", "A": op_json([[1, 0], [0, 2]]), "B": op_json([[1, 0], [0, 2]])}
FORM_ON_X = {"op": "form-on-x", "A": op_json([[1, 0], [0, 2]]),
             "y": {"coords": [[1, 0], [0, 0]]}}


class TestCliRun:
    def test_empty_scenario_list(self, tmp_path, capsys):
        f = write_scenarios(tmp_path / "empty.json", [])
        assert main(["run", f]) == 0

    def test_theorem4_scenario_exit_zero(self, tmp_path):
        f = write_scenarios(tmp_path / "t4.json", [{
            "id": "thm4", "op": "form-sum", "space": DENSE2,
            "A": op_json([[1, 0], [0, 2]]),
            "B": op_json([[3, 0], [0, 4]]),
            "expected_matrix": [[[4, 0], [0, 0]], [[0, 0], [6, 0]]],
        }])
        out = tmp_path / "reports"
        assert main(["run", f, "--out", str(out)]) == 0
        report = json.loads((out / "thm4.json").read_text())
        assert report["verdict"] == "pass"
        assert report["residuals"]["matrix"] <= 1e-10

    def test_broken_commutation_exits_two(self, tmp_path):
        f = write_scenarios(tmp_path / "bad.json", [{
            "id": "broken-eq7", "op": "lift-commutant", "space": DENSE2,
            "A": op_json([[1, 0], [0, 2]]),
            "E": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        }])
        assert main(["run", f]) == 2

    def test_non_finite_operands_fail(self, tmp_path):
        f = write_scenarios(tmp_path / "nan.json", [
            {"id": "nan-matrix", "op": "factorize", "A": op_json([[1, 0], [0, math.nan]])},
            {"id": "nan-coefficient", "op": "weak-solve", "m": 8, "g": "1",
             "problem": {"length": 1.0, "a": "1", "b": "0*exp(1000*x)", "gamma": 1.0}}])
        out = tmp_path / "r"
        with np.errstate(all="ignore"):
            assert main(["run", f, "--out", str(out)]) == 2
        errors = [json.loads((out / f"{sid}.json").read_text())["details"]["error"]
                  for sid in ("nan-matrix", "nan-coefficient")]
        assert errors == ["ValueError: basis and action must be finite",
                          "DomainError: potential b(x) is not finite at an evaluation node"]

    def test_negative_seed_passes_the_comparison(self, tmp_path):
        # no operation draws, so a scenario's seed is checked and unread
        f = write_scenarios(tmp_path / "dvn.json", [{
            "id": "dvn", "op": "dirichlet-vs-neumann", "seed": -1, "m": 16,
            "problem": {"length": 1.0, "a": "1", "b": "1", "gamma": 1.0}}])
        out = tmp_path / "r"
        assert main(["run", f, "--out", str(out)]) == 0
        report = json.loads((out / "dvn.json").read_text())
        assert report["verdict"] == "pass"
        assert report["details"]["verdict"] == "A>=B"

    def test_parse_error_exits_four(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert main(["run", str(f)]) == 4

    def test_unknown_op_exits_four(self, tmp_path):
        f = write_scenarios(tmp_path / "unknown.json",
                            [{"id": "x", "op": "definitely-not-registered"}])
        assert main(["run", f]) == 4

    def test_missing_operand_exits_four(self, tmp_path, capsys):
        f = write_scenarios(tmp_path / "missing.json", [
            {"id": "ok", "op": "norm", "p": 2.0,
             "x": {"coords": [[3, 0], [4, 0]]}, "expected": 5.0},
            {"id": "x", "op": "factorize"},
        ])
        assert main(["run", f]) == 4
        err = capsys.readouterr().err
        assert "lacks operand" in err and "Traceback" not in err

    @pytest.mark.parametrize("gram", [
        [[[2, 0], "abc"], [[0, 0], [3, 0]]],
        [[[2, 0], None], [[0, 0], [3, 0]]],
        [[[2, 0], [1]], [[0, 0], [3, 0]]],
        [[[2, 0], [1, 2, 3]], [[0, 0], [3, 0]]],
        [[[2, 0], {"re": 1}], [[0, 0], [3, 0]]],
        [[[2, 0], [0, 0]], [[3, 0]]],
    ], ids=["string", "null", "one-number", "three-numbers", "object", "ragged"])
    def test_malformed_gram_exits_four(self, tmp_path, capsys, gram):
        f = write_scenarios(tmp_path / "malformed.json", [
            {"id": "ok", "op": "norm", "p": 2.0,
             "x": {"coords": [[3, 0], [4, 0]]}, "expected": 5.0},
            {"id": "bad-gram", "op": "associated-operator", "space": DENSE2,
             "gram": gram}])
        assert main(["run", f]) == 4
        err = capsys.readouterr().err
        assert "scenario 'bad-gram' has a malformed operand: expected a matrix" in err

    @pytest.mark.parametrize("scenario", [
        {"op": "pair", "space": 3, "v": {"coords": [1, 2]}, "x": {"coords": [1, 1]}},
        {"op": "friedrichs", "space": {"backend": "sequence", "truncation": 8},
         "generator": "n^2"},
        {"op": "norm", "p": 2.0, "x": [1]},
        {"op": "friedrichs", "space": {"backend": "sequence", "truncation": 8},
         "generator": {"terms": [{"coef": 1, "alpha": [2]}]}},
        {"op": "friedrichs", "space": {"backend": "sequence", "truncation": 8},
         "generator": {"terms": [{"coef": 1, "alpha": "x"}]}},
        {"op": "norm", "p": [2], "x": {"coords": [3, 4]}},
        {"op": "weak-solve", "m": [8], "g": "1",
         "problem": {"a": "1", "b": "0", "gamma": 1.0}},
        {"op": "weak-solve", "m": 8, "g": 1,
         "problem": {"a": "1", "b": "0", "gamma": 1.0}},
    ], ids=["space-number", "generator-string", "vector-list", "alpha-list",
            "alpha-string", "p-list", "m-list", "g-number"])
    def test_wrong_json_type_exits_four(self, tmp_path, capsys, scenario):
        f = write_scenarios(tmp_path / "types.json", [{"id": "bad", **scenario}])
        assert main(["run", f]) == 4
        err = capsys.readouterr().err
        assert "scenario 'bad' has a malformed operand" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario,message", [
        ({"op": "weak-expectation",
          "space_pair": {"backend": "dense", "dim": 2, "p": 2.0},
          "probability": {"kind": "finite", "weights": ["a", "b"]},
          "variable": {"kind": "table", "values": [[1, 0], [0, 1]]}},
         "expected a list of numbers"),
        ({"op": "weak-solve", "m": 8, "g": "1 +",
          "problem": {"a": "1", "b": "0", "gamma": 1.0}},
         "cannot parse '1 +'"),
        ({"op": "elliptic-assemble", "m": 8,
          "problem": {"a": "1", "b": "y", "gamma": 1.0}},
         "unknown name 'y'"),
    ], ids=["weights-strings", "g-unparsable", "b-unknown-name"])
    def test_malformed_content_exits_four(self, tmp_path, capsys, scenario, message):
        f = write_scenarios(tmp_path / "content.json", [{"id": "bad", **scenario}])
        assert main(["run", f]) == 4
        err = capsys.readouterr().err
        assert f"scenario 'bad' has a malformed operand: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario,expected,code", [
        (SECOND_MOMENT, True, 0), (SECOND_MOMENT, False, 2),
        (SECOND_MOMENT, "false", 4), (SECOND_MOMENT, 0, 4), (SECOND_MOMENT, None, 4),
        (SECOND_MOMENT, [[0]], 4),
        (IS_EXTENSION, True, 0), (IS_EXTENSION, False, 2), (IS_EXTENSION, "false", 4),
        (IS_EXTENSION, [[1, 0], [0, 1]], 4),
        (COMPARE, "equal", 0), (COMPARE, "A>=B", 2), (COMPARE, "A>B", 4),
        (COMPARE, "", 4), (COMPARE, True, 4),
        (COMPARE, 1, 4), (COMPARE, [["equal"]], 4), (COMPARE, [[1, 0], [0, 1]], 4),
        (FORM_ON_X, 1.0, 0), (FORM_ON_X, "inf", 2), (FORM_ON_X, "1", 4),
        (FORM_ON_X, [[1, 2]], 4),
    ], ids=lambda v: v["op"] if isinstance(v, dict) else json.dumps(v))
    def test_expected_operands_are_typed(self, tmp_path, capsys, scenario, expected, code):
        """A verdict operand of the wrong JSON type, a decoded matrix
        included, is malformed input: ``"false"`` must not read as true."""
        f = write_scenarios(tmp_path / "expected.json",
                            [{"id": "x", **scenario, "expected": expected}])
        assert main(["run", f]) == code
        err = capsys.readouterr().err
        assert ("'expected' must be" in err) == (code == 4) and "Traceback" not in err

    def test_compare_samples_off_the_operands_space_fail(self, tmp_path):
        f = write_scenarios(tmp_path / "samples.json", [
            {"id": "sequence-sample", **COMPARE,
             "samples": [{"coords": [[1, 0], [0, 0]], "backend": "sequence"}]},
            {"id": "long-sample", **COMPARE,
             "samples": [{"coords": [[1, 0], [0, 0], [1, 0]]}]}])
        out = tmp_path / "r"
        assert main(["run", f, "--out", str(out)]) == 2
        for sid in ("sequence-sample", "long-sample"):
            report = json.loads((out / f"{sid}.json").read_text())
            assert report["verdict"] == "fail"
            assert report["details"]["error"].startswith("BackendMismatch: ")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gram_entry_fails(self, tmp_path, bad):
        f = write_scenarios(tmp_path / "non-finite.json", [{
            "id": "non-finite", "op": "associated-operator", "space": DENSE2,
            "gram": [[[2, 0], [0, 0]], [[0, 0], [bad, 0]]]}])
        assert main(["run", f]) == 2

    def test_covariance_gram_csv(self, tmp_path):
        sc = {"id": "cov", "op": "covariance-form",
              "space_pair": {"backend": "dense", "dim": 3, "p": 2.0},
              "probability": {"kind": "finite", "weights": [0.25, 0.75]},
              "variable": {"kind": "table", "values": [
                  [[1, 0], [2, -1], [0, 0.5]], [[-1, 0], [0, 0], [3, 0]]]}}
        out = tmp_path / "r"
        assert main(["run", write_scenarios(tmp_path / "cov.json", [sc]),
                     "--out", str(out)]) == 0
        gram = covariance_form(_variable(sc)).gram
        want = ["i,j,re,im"] + [f"{i},{j},{z.real!r},{z.imag!r}"
                                for i, row in enumerate(gram.tolist())
                                for j, z in enumerate(row)]
        assert (out / "cov-covariance-gram.csv").read_text().splitlines() == want

    def test_weak_solve_csv(self, tmp_path):
        f = write_scenarios(tmp_path / "solve.json", [{
            "id": "solve", "op": "weak-solve",
            "problem": {"length": 1.0, "a": "1", "b": "0", "gamma": 1.0},
            "m": 16, "g": "pi^2 * sin(pi*x)",
        }])
        out = tmp_path / "r"
        assert main(["run", f, "--out", str(out)]) == 0
        csv_text = (out / "solve-solution.csv").read_text().splitlines()
        assert csv_text[0] == "x,f_h"
        assert len(csv_text) == 18


NORM_OK = {"op": "norm", "p": 2.0, "x": {"coords": [3, 4]}, "expected": 5.0}


SEQ64 = {"backend": "sequence", "truncation": 64}


def power(alpha):
    """The wire rule n**alpha."""
    return {"terms": [{"coef": 1.0, "alpha": alpha}]}


def generated(alpha, n=64):
    """The wire vector n**alpha on the sequence truncation n."""
    return {"backend": "sequence", "tail": {"kind": "rule", **power(alpha)},
            "coords": [k ** alpha for k in range(1, n + 1)]}


class TestFriedrichsOperands:
    """The operands by which ``friedrichs`` checks all of Thm2, and the
    finiteness ``expected`` of ``form-on-x``, through ``formcalc run``."""

    @staticmethod
    def run(tmp_path, **scenarios):
        """Exit code and reports of ``formcalc run`` on the scenarios, by id."""
        f = write_scenarios(tmp_path / "s.json",
                            [{"id": sid, **sc} for sid, sc in scenarios.items()])
        code = main(["run", f, "--out", str(tmp_path / "r")])
        return code, {sid: json.loads((tmp_path / "r" / f"{sid}.json").read_text())
                      for sid in scenarios}

    def test_dense_expected_matrix(self, tmp_path):
        A = [[2, 1], [1, 3]]
        fr = {"op": "friedrichs", "space": DENSE2, "A": op_json(A)}
        code, reps = self.run(
            tmp_path, same={**fr, "expected_matrix": op_json(A)["action"]},
            perturbed={**fr, "expected_matrix": op_json([[2, 1], [1, 3.001]])["action"]})
        assert code == 2
        assert reps["same"]["verdict"] == "pass"
        assert set(reps["same"]["residuals"]) == {"extension", "idempotent", "matrix"}
        assert reps["perturbed"]["verdict"] == "fail"
        assert reps["perturbed"]["residuals"]["matrix"] > 1e-4

    def test_expected_gamma(self, tmp_path):
        fr = {"op": "friedrichs", "space": SEQ64, "generator": power(2.0)}
        code, reps = self.run(tmp_path, exact={**fr, "expected_gamma": 1.0},
                              off={**fr, "expected_gamma": 1.0 + 1e-6})
        assert code == 2
        assert reps["exact"]["verdict"] == "pass"
        assert reps["off"]["verdict"] == "fail"
        assert reps["off"]["residuals"]["gamma"] == pytest.approx(1e-6)

    def test_domain_probes(self, tmp_path):
        # a = n^2: n^-3 is in the domain (sum n^-2 < inf), n^-2 is not
        fr = {"op": "friedrichs", "space": SEQ64, "generator": power(2.0)}
        code, reps = self.run(
            tmp_path,
            right={**fr, "domain_probes": [{"y": generated(-3.0), "member": True},
                                           {"y": generated(-2.0), "member": False}]},
            wrong={**fr, "domain_probes": [{"y": generated(-3.0), "member": True},
                                           {"y": generated(-2.0), "member": True}]})
        assert code == 2
        assert reps["right"]["verdict"] == "pass"
        assert reps["right"]["residuals"]["membership_mistakes"] == 0.0
        assert reps["wrong"]["verdict"] == "fail"
        assert reps["wrong"]["residuals"]["membership_mistakes"] == 1.0

    def test_form_on_x_finite(self, tmp_path):
        # a = n^2: the form sum n^2 n^-4 converges, n^2 n^-2 does not
        fx = {"op": "form-on-x", "expected": "finite",
              "A": {"backend": "sequence", "diagonal": power(2.0)}}
        code, reps = self.run(tmp_path, convergent={**fx, "y": generated(-2.0)},
                              divergent={**fx, "y": generated(-1.0)})
        assert code == 2
        assert reps["convergent"]["verdict"] == "pass"
        assert reps["divergent"]["verdict"] == "fail"
        assert reps["divergent"]["residuals"]["finite_mismatch"] == 1.0

    @pytest.mark.parametrize("operands", [
        {"A": op_json([[2, 0], [0, 3]]), "generator": power(2.0)},
        {},
        {"generator": power(2.0),
         "domain_probes": [{"y": generated(-3.0), "member": 1}]},
        {"generator": power(2.0), "expected_matrix": [[1, 0], [0, 1]]},
        # read before the indefinite A is refused
        {"space": DENSE2, "A": op_json([[1, 0], [0, -1]]), "expected_matrix": "abc"},
    ], ids=["A-and-generator", "neither", "member-not-boolean", "matrix-of-a-rule",
            "matrix-not-a-matrix"])
    def test_malformed_operands_exit_four(self, tmp_path, capsys, operands):
        f = write_scenarios(tmp_path / "bad.json", [
            {"id": "bad", "op": "friedrichs", "space": SEQ64, **operands}])
        assert main(["run", f]) == 4
        assert "scenario 'bad' has a malformed operand" in capsys.readouterr().err


INDEFINITE = [[1, 0], [0, -1]]
NEGATIVE_RULE = {"backend": "sequence", "diagonal": {"terms": [{"coef": -1.0}]}}
UNNORMALIZED = {"kind": "rule", "rule": {"terms": [{"coef": 3.0, "ratio": 0.5}]}}
SEQ24 = {"backend": "sequence", "truncation": 24}

#: each op that takes an expected operand: operands whose construction is
#: refused, and a malformed expected operand
EXPECTED_OPERANDS = [
    ("pair", {"space": {"backend": "dense", "dim": 3}, "v": {"coords": [1, 2]},
              "x": {"coords": [1, 1]}}, {"expected": "abc"}),
    ("norm", {"p": 0.5, "x": {"coords": [3, 4]}}, {"expected": "abc"}),
    ("is-extension", {"S": {"backend": "sequence",
                            "diagonal": {"terms": [{"coef": 1.0, "alpha": math.nan}]}},
                      "T": NEGATIVE_RULE}, {"expected": "false"}),
    ("lower-bound", {"space": DENSE2, "gram": INDEFINITE}, {"expected_gamma": "abc"}),
    ("associated-operator", {"space": DENSE2, "gram": INDEFINITE},
     {"expected_matrix": "abc"}),
    ("riesz-solve", {"space": DENSE2, "gram": INDEFINITE, "v": {"coords": [1, 0]}},
     {"expected": "abc"}),
    ("friedrichs", {"space": SEQ64, "generator": {"terms": [{"coef": 1.0, "ratio": 0.5}]}},
     {"expected_gamma": "abc"}),
    ("form-on-x", {"A": NEGATIVE_RULE, "y": {"backend": "sequence", "coords": [1]}},
     {"expected": "abc"}),
    ("compare", {"A": NEGATIVE_RULE, "B": NEGATIVE_RULE}, {"expected": "A>B"}),
    ("form-sum", {"space": DENSE2, "A": op_json(INDEFINITE), "B": op_json([[1, 0], [0, 1]])},
     {"expected_matrix": "abc"}),
    ("joint-factorize", {"space": DENSE2, "A": op_json(INDEFINITE),
                         "B": op_json([[1, 0], [0, 1]])}, {"expected_matrix": "abc"}),
    ("weak-expectation", {"space_pair": SEQ24, "probability": UNNORMALIZED,
                          "variable": {"kind": "exp-poly"}}, {"expected": "abc"}),
    ("second-moment", {"space_pair": SEQ24, "probability": UNNORMALIZED,
                       "variable": {"kind": "exp-poly"},
                       "functional": {"backend": "sequence", "coords": [1]}},
     {"expected": "false"}),
    # one atom: the covariance has lower bound 0
    ("covariance-operator", {"space_pair": DENSE2, "probability": {"weights": [1.0]},
                             "variable": {"values": [[1, 0]]}},
     {"expected_matrix": "abc"}),
    ("elliptic-assemble", {"m": 8, "problem": {"a": "0 - 1", "b": "0", "gamma": 1.0}},
     {"expected_gram": "abc"}),
]


class TestInputChecks:
    """Malformed input exits 4 before anything is constructed, and an
    operand outside its space is a :class:`BackendMismatch`."""

    @staticmethod
    def run(tmp_path, op, operands, out="out"):
        """Exit code of ``formcalc run`` on the one entry ``x``, and its
        report, or None if none was written."""
        f = write_scenarios(tmp_path / "in.json", [{"id": "x", "op": op, **operands}])
        code = main(["run", f, "--out", str(tmp_path / out)])
        report = tmp_path / out / "x.json"
        return code, json.loads(report.read_text()) if report.exists() else None

    # each op with an expected operand: an entry whose construction is
    # refused, and a malformed expected operand
    @pytest.mark.parametrize("op, operands, expected", EXPECTED_OPERANDS,
                             ids=[op for op, _, _ in EXPECTED_OPERANDS])
    def test_malformed_expected_operand_exits_four(self, tmp_path, capsys, op, operands,
                                                   expected):
        code, report = self.run(tmp_path, op, operands, "refused")
        assert code == 2 and report["residuals"] == {"raised": 1.0}
        assert self.run(tmp_path, op, {**operands, **expected}) == (4, None)
        assert "scenario 'x' has a malformed operand" in capsys.readouterr().err

    @pytest.mark.parametrize("key, op, operands", [
        ("backend", "factorize",
         {"A": {**op_json([[1, 0], [0, 1]]), "backend": "banach"}}),
        ("backend", "pair", {"space": {"backend": "banach", "dim": 2},
                             "v": {"coords": [1, 2]}, "x": {"coords": [1, 1]}}),
        ("backend", "norm", {"p": 2.0, "x": {"coords": [3, 4], "backend": "banach"}}),
        ("direction", "factorize",
         {"A": {**op_json([[1, 0], [0, 1]]), "direction": "sideways"}}),
        ("domain", "form-on-x", {"A": {"backend": "sequence", "diagonal": power(2.0),
                                       "domain": "everywhere"},
                                 "y": generated(-2.0, 48)}),
        ("kind", "form-on-x", {"A": {"backend": "sequence", "diagonal": power(2.0)},
                               "y": {**generated(-1.0, 48),
                                     "tail": {"kind": "rules", **power(-1.0)}},
                               "expected": "inf"}),
        ("kind", "weak-expectation", {"space_pair": SEQ24, "probability": {"kind": "bogus"},
                                      "variable": {"kind": "exp-poly"}}),
        ("kind", "independent-sum", {
            "space_pair": DENSE2, "probability_xi": {"kind": "bogus"},
            "probability_eta": {"weights": [1.0]}, "xi": {"values": [[0, 0]]},
            "eta": {"values": [[0, 0]]}}),
        ("kind", "independent-sum", {
            "space_pair": DENSE2, "probability_xi": {"weights": [1.0]},
            "probability_eta": {"kind": "bogus"}, "xi": {"values": [[0, 0]]},
            "eta": {"values": [[0, 0]]}}),
        ("kind", "covariance-form", {"space_pair": DENSE2, "probability": {"weights": [1.0]},
                                     "variable": {"kind": "bogus"}}),
        ("kind", "independent-sum", {
            "space_pair": DENSE2, "probability_xi": {"weights": [1.0]},
            "probability_eta": {"weights": [1.0]}, "xi": {"kind": "bogus"},
            "eta": {"values": [[0, 0]]}}),
        ("kind", "independent-sum", {
            "space_pair": DENSE2, "probability_xi": {"weights": [1.0]},
            "probability_eta": {"weights": [1.0]}, "xi": {"values": [[0, 0]]},
            "eta": {"kind": "bogus"}}),
        ("boundary", "elliptic-assemble",
         {"m": 8, "boundary": "robin", "problem": {"a": "1", "b": "1", "gamma": 1.0}}),
    ], ids=["operator-backend", "space-backend", "vector-backend", "direction",
            "sequence-domain", "tail-kind", "probability-kind", "probability-xi-kind",
            "probability-eta-kind", "variable-kind", "xi-kind", "eta-kind", "boundary"])
    def test_unknown_enumerated_string_exits_four(self, tmp_path, capsys, key, op, operands):
        assert self.run(tmp_path, op, operands) == (4, None)
        err = capsys.readouterr().err
        assert f"scenario 'x' has a malformed operand: '{key}' must be one of " in err

    @pytest.mark.parametrize("op, operands", [
        ("lower-bound", {"space": SEQ64, "gram": [[2, 0], [0, 3]]}),
        ("associated-operator", {"space": {"backend": "dense", "dim": 5},
                                 "gram": [[2, 0], [0, 3]]}),
        ("form-sum", {"space": {"backend": "dense", "dim": 5},
                      "A": op_json([[1, 0], [0, 2]]), "B": op_json([[3, 0], [0, 4]])}),
        ("covariance-form", {"space_pair": DENSE2, "probability": {"weights": [0.5, 0.5]},
                             "variable": {"values": [[1, 0, 0], [0, 1, 0]]}}),
    ], ids=["sequence-space-dense-gram", "gram-of-another-dimension",
            "summands-of-another-dimension", "table-values-of-another-dimension"])
    def test_operand_outside_its_space_fails(self, tmp_path, op, operands):
        code, report = self.run(tmp_path, op, operands)
        assert code == 2
        assert report["details"]["error"].startswith("BackendMismatch: ")

    @pytest.mark.parametrize("key, op, operands", [
        ("p", "friedrichs", {"space": {**SEQ64, "p": 0.0}, "generator": power(2.0)}),
        ("dim", "pair", {"space": {"backend": "dense", "dim": 0},
                         "v": {"coords": [1, 2]}, "x": {"coords": [1, 1]}}),
        ("truncation", "friedrichs", {"space": {**SEQ64, "truncation": 0},
                                      "generator": power(2.0)}),
        ("truncation", "friedrichs", {"space": {**SEQ64, "truncation": 2 ** 21 + 1},
                                      "generator": power(2.0)}),
        ("m", "dirichlet-vs-neumann", {"m": 0, "problem": {"a": "1", "b": "1",
                                                           "gamma": 1.0}}),
        ("m", "weak-solve", {"m": 10 ** 12, "g": "1",
                             "problem": {"a": "1", "b": "0", "gamma": 1.0}}),
        ("length", "weak-solve", {"m": 8, "g": "1", "problem": {
            "length": 0.0, "a": "1", "b": "0", "gamma": 1.0}}),
        ("length", "sobolev-lower-bound", {"problem": {
            "length": math.inf, "a": "1", "b": "0", "gamma": 1.0}}),
        ("tail", "norm", {"p": 2.0, "x": {"coords": [1, 2],
                                          "tail": {"kind": "rule", **power(-1.0)}}}),
        # a JSON boolean is no number, although Python's bool is an int
        ("dim", "pair", {"space": {"backend": "dense", "dim": True},
                         "v": {"coords": [1]}, "x": {"coords": [1]}}),
        ("truncation", "friedrichs", {"space": {**SEQ64, "truncation": True},
                                      "generator": power(2.0)}),
        ("start", "friedrichs", {"space": SEQ64, "generator": {
            "terms": [{"coef": 1.0, "alpha": 2.0, "start": True}]}}),
        ("length", "weak-solve", {"m": 8, "g": "1", "problem": {
            "length": True, "a": "1", "b": "0", "gamma": 1.0}}),
        ("gamma", "weak-solve", {"m": 8, "g": "1", "problem": {
            "a": "1", "b": "0", "gamma": True}}),
        ("beta", "weak-expectation", {
            "space_pair": {"backend": "sequence", "truncation": 8},
            "probability": {"kind": "exponential", "beta": True},
            "variable": {"kind": "exp-poly"}}),
    ], ids=["p-zero", "dim-zero", "truncation-zero", "truncation-past-term-cap",
            "m-zero", "m-past-cap", "length-zero", "length-infinite", "dense-tail",
            "dim-true", "truncation-true", "start-true", "length-true", "gamma-true",
            "beta-true"])
    def test_size_out_of_range_exits_four(self, tmp_path, capsys, key, op, operands):
        """A size is checked where the wire reader reads it: out of range
        it is malformed input, not a failed claim or a traceback."""
        assert self.run(tmp_path, op, operands) == (4, None)
        err = capsys.readouterr().err
        assert f"scenario 'x' has a malformed operand: '{key}' " in err


class TestCoefficientStrings:
    """Coefficient strings are read with float literals and bounded
    nesting: neither hangs nor crashes ``formcalc run``."""

    @staticmethod
    def assemble(a):
        return {"id": "coef", "op": "elliptic-assemble", "m": 8,
                "problem": {"a": a, "b": "0", "gamma": 1.0}}

    def test_power_tower_fails_at_once(self, tmp_path):
        """9^9^9 overflows as a float; in Python integers it is a number
        of 1.2 billion bits, so the run is timed in a child process that
        is killed if it has not finished in 20 s."""
        f = write_scenarios(tmp_path / "tower.json", [self.assemble("9^9^9")])
        child = ("import sys, time; from formcalc.cli import main; "
                 "t = time.perf_counter(); code = main(sys.argv[1:]); "
                 "print(code, time.perf_counter() - t)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cli.__file__).parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run([sys.executable, "-c", child, "run", f], env=env,
                              capture_output=True, text=True, timeout=20)
        lines = proc.stdout.splitlines()
        assert lines[0].split() == ["fail", "coef"], proc.stderr
        code, seconds = lines[-1].split()
        assert code == "2" and float(seconds) < 1.0

    @pytest.mark.parametrize("a", ["-" * 1000 + "1", "-" * 100000 + "1",
                                   "(" * 300 + "x" + ")" * 300],
                             ids=["minus-1000", "minus-100000", "parens-300"])
    def test_deep_nesting_exits_four(self, tmp_path, capsys, a):
        f = write_scenarios(tmp_path / "deep.json", [self.assemble(a)])
        assert main(["run", f]) == 4
        err = capsys.readouterr().err
        assert "scenario 'coef' has a malformed operand" in err
        assert "Traceback" not in err and len(err) < 300

    def test_out_of_range_literal_exits_four(self, tmp_path, capsys):
        """1e400 parses as inf: malformed input, as a 401-digit integer
        is, not a failed claim."""
        f = write_scenarios(tmp_path / "big.json", [{
            "id": "coef", "op": "weak-solve", "m": 8, "g": "1",
            "problem": {"a": "1e400", "b": "0", "gamma": 1.0}}])
        out = tmp_path / "out"
        assert main(["run", f, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "scenario 'coef' has a malformed operand" in err
        assert "'1e400' is out of range" in err
        assert not out.exists()


class TestScenarioFileShape:
    """A malformed file, or an id that cannot name its report, exits 4
    before anything is written."""

    @pytest.mark.parametrize("payload", [
        [],
        {"scenarios": [1]},
        {"scenarios": ["op"]},
        {"scenarios": [{"id": "s", "seed": "abc", **NORM_OK}]},
        {"scenarios": [{"id": "t", "tolerances": [], **NORM_OK}]},
        {"scenarios": [{"id": "t", "tolerances": {"norm": "1e-3"}, **NORM_OK}]},
        {"scenarios": [{"id": "a/b", **NORM_OK}]},
        {"scenarios": [{"id": "../x", **NORM_OK}]},
        {"scenarios": [{"id": "summary", **NORM_OK}]},
        {"scenarios": [{"id": "twice", **NORM_OK}, {"id": "twice", **NORM_OK}]},
        {"scenarios": [{"id": "x" * 201, **NORM_OK}]},
    ], ids=["top-level-list", "entry-number", "entry-string", "seed-string",
            "tolerances-list", "tolerance-string", "id-with-slash",
            "id-leaving-out", "id-summary", "id-repeated", "id-too-long"])
    def test_refused_before_anything_is_written(self, tmp_path, capsys, payload):
        f = tmp_path / "in" / "scenarios.json"
        f.parent.mkdir()
        f.write_text(json.dumps(payload))
        out = tmp_path / "in" / "out"
        assert main(["run", str(f), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario file") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in", "scenarios.json"]

    @pytest.mark.parametrize("sid,name", [
        ([[1]], "(a list)"), (["a"], "(a list)"), (3, "(an integer)"), (2.5, "(a number)"),
        (True, "(a boolean)"), (None, "(null)"), ({"a": 1}, "(an object)"),
    ], ids=["numeric-nested-list", "list", "integer", "number", "boolean", "null",
            "object"])
    def test_non_string_id_named_by_json_type(self, tmp_path, capsys, sid, name):
        """A non-string id is named by its JSON type, not by the repr of
        the value it was decoded into."""
        f = write_scenarios(tmp_path / "id.json", [{**NORM_OK, "id": sid}])
        assert main(["run", f]) == 4
        err = capsys.readouterr().err
        assert f"scenario id {name} is not a plain, unique file name" in err
        assert "array(" not in err

    def test_default_ids_are_ops(self, tmp_path):
        f = write_scenarios(tmp_path / "ops.json", [NORM_OK, {**NORM_OK, "id": "x"}])
        assert main(["run", f, "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "norm.json").exists()
        f = write_scenarios(tmp_path / "twice.json", [NORM_OK, NORM_OK])
        assert main(["run", f]) == 4


class TestSuites:
    def test_determinism_byte_identical(self):
        s1 = json.dumps(run_suite("representation", seed=7).summary_dict(),
                        sort_keys=True)
        s2 = json.dumps(run_suite("representation", seed=7).summary_dict(),
                        sort_keys=True)
        assert s1 == s2

    def test_all_coverage_complete(self):
        res = run_suite("all", seed=1)
        cov = res.coverage()
        for tag in CLAIM_TAGS:
            assert cov[tag] >= 1, f"claim {tag} uncovered"

    def test_every_suite_has_control_that_fails(self):
        for name in ("representation", "friedrichs", "ordering", "formsum",
                     "covariance", "elliptic"):
            res = run_suite(name, seed=3)
            controls = [r for r in res.reports if r.control]
            assert controls, name
            assert all(r.verdict == "fail" for r in controls), name
            assert res.ok

    def test_suite_cli_exit_zero(self, tmp_path):
        out = tmp_path / "suite-out"
        assert main(["suite", "representation", "--seed", "5",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"]

    def test_suite_unknown_name(self):
        assert main(["suite", "nonsense"]) == 4

    @pytest.mark.parametrize("name", ["all", "elliptic"])
    def test_suite_refuses_a_negative_seed(self, name, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(cli, "run_suite", raising(AssertionError("a battery ran")))
        out = tmp_path / "neg"
        assert main(["suite", name, "--seed", "-1", "--out", str(out)]) == 4
        assert capsys.readouterr().err == \
            "error: the seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_elliptic_artifact_csv(self, tmp_path):
        out = tmp_path / "ell"
        assert main(["suite", "elliptic", "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "m,h,l2_error,ratio"
        assert len(rows) == 5

    @pytest.mark.parametrize("verdicts, code", [
        (("fail", "uncertified"), 2),
        (("control-pass", "uncertified"), 2),
        (("uncertified", "control-fail"), 3),
        (("control-uncertified",), 3),
        (("pass", "control-fail"), 0),
    ])
    def test_exit_code_rule_of_run(self, monkeypatch, verdicts, code):
        """A failed claim or a passing control outranks anything
        uncertified, as for ``formcalc run``."""
        def battery(seed):
            return [make_report(f"{v}-{i}", [], {"r": float("fail" in v)},
                                {"r": 0.0}, uncertified="uncertified" in v,
                                control=v.startswith("control"))
                    for i, v in enumerate(verdicts)]
        monkeypatch.setitem(suites._SUITES, "ordering", battery)
        assert main(["suite", "ordering"]) == code

    def test_suite_reports_carry_wall_time(self):
        reports = run_suite("representation", seed=7).reports
        assert all(r.wall_time > 0.0 for r in reports)


class TestSuiteFanOut:
    """``suite all`` runs its batteries on forked workers when more than
    one CPU is usable, and in process on one."""

    @pytest.mark.parametrize("seed", [1, 3])
    def test_same_files_as_serial(self, seed, tmp_path, monkeypatch):
        codes = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            codes.append(main(["suite", "all", "--seed", str(seed),
                               "--out", str(tmp_path / str(len(cpus)))]))
            assert multiprocessing.active_children() == []
        assert codes[0] == codes[1]
        for name in ("summary.json", "convergence.csv"):
            assert (tmp_path / "2" / name).read_bytes() == \
                (tmp_path / "1" / name).read_bytes(), name

    @pytest.mark.parametrize("name, cpus, forked", [
        ("all", {0, 1}, True), ("all", {0}, False), ("ordering", {0, 1}, False)])
    def test_battery_errors_propagate(self, name, cpus, forked, monkeypatch):
        def broken(seed):
            raise RuntimeError(f"battery fault in process {os.getpid()}")
        monkeypatch.setitem(suites._SUITES, "ordering", broken)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with pytest.raises(RuntimeError, match="battery fault") as info:
            main(["suite", name])
        pid = int(re.search(r"process (\d+)", str(info.value)).group(1))
        assert (pid != os.getpid()) == forked
        assert multiprocessing.active_children() == []


#: each battery check judged by scenario handlers, and its handlers' ops
HANDLER_BACKED = {
    "thm1-random-inverses": {"associated-operator"},
    "thm1-offdiagonal-example": {"associated-operator"},
    "lem1-bounded-inverse": {"inverse-selfadjoint"},
    "lem2-factorization": {"factorize"},
    "lem2-remark-sqrt": {"hilbert-consistency"},
    "eq7-lemmas45-thm56": {"lift-commutant", "commutation-formsum",
                           "spectrum-inclusion"},
    "thm5-block-construction": {"commutation-formsum"},
    "thm3-dirichlet-vs-neumann": {"dirichlet-vs-neumann"},
    "elliptic-weak-solves": {"weak-solve"},
    "order-definition": {"compare", "antisymmetry"},
    "thm4-joint-factorization": {"joint-factorize"},
    "thm8-independent-sums": {"independent-sum"},
    "thm2-square": {"friedrichs"},
    "thm2-exponential": {"friedrichs"},
    "thm2-geometric-2": {"friedrichs"},
    "thm2-dense-fixed-point": {"friedrichs"},
    "lem3-form-characterization": {"form-on-x"},
}

# each control's one scenario object: its op and the error it must raise
CONTROLS = {
    "control-indefinite-form": ("associated-operator", NotPositive),
    "control-decaying-generator": ("friedrichs", LowerBoundError),
    "control-antisymmetry-refusal": ("antisymmetry", NotEqual),
    "control-broken-commutation": ("lift-commutant", DomainError),
    "control-unnormalized-weights": ("weak-expectation", NotNormalized),
    "control-neumann-kernel": ("dirichlet-vs-neumann", DomainError),
}


class TestBatteriesOnHandlers:
    def test_checks_report_their_handlers_residuals(self, monkeypatch):
        # every handler call and every judged scenario of a suite round,
        # by the check that made it; judgements are logged after their
        # tolerance overrides, refusals with the error they raised
        handled, calls, raised = defaultdict(int), defaultdict(list), defaultdict(list)
        check = None
        run_check = suites._run_check

        def named_run_check(name, *args):
            nonlocal check
            check = name
            return run_check(name, *args)

        def logged_judge(sc):
            try:
                out = judge(sc)
            except Exception as exc:
                raised[check].append((sc["op"], type(exc)))
                raise
            calls[check].append((sc["op"], set(out[0]), out[1]))
            return out
        monkeypatch.setattr(suites, "_run_check", named_run_check)
        monkeypatch.setattr(suites, "judge", logged_judge)
        for op, (claims, handler) in list(OPERATIONS.items()):
            def counted(ops, handler=handler):
                handled[check] += 1
                return handler(ops)
            monkeypatch.setitem(OPERATIONS, op, (claims, counted))
        reports = {r.scenario: r for r in run_suite("all", seed=1).reports}
        assert set(calls) == set(HANDLER_BACKED)
        assert raised == {name: [entry] for name, entry in CONTROLS.items()}
        # no check calls a handler but through the judge
        assert handled == {name: len(c) for name, c in (calls | raised).items()}
        assert reports["thm4-joint-factorization"].tolerances["matrix"] == 1e-12
        for name, ops in HANDLER_BACKED.items():
            names, tols = set(), {}
            for op, residuals, tolerances in calls[name]:
                names |= residuals
                tols.update(tolerances)
            assert {op for op, _, _ in calls[name]} == ops, name
            assert set(reports[name].residuals) == names == set(tols), name
            assert reports[name].tolerances == tols, name
            assert reports[name].passed, name
        for name, (_, error) in CONTROLS.items():
            assert reports[name].verdict == "fail", name
            assert reports[name].details["error"].startswith(f"{error.__name__}: "), name

    @staticmethod
    def indefinite_gram_handler(outcome):
        """The associated-operator handler, except that on an indefinite
        gram, the control's, it raises ``outcome`` or, for None, returns
        nothing to judge."""
        claims, handler = OPERATIONS["associated-operator"]

        def patched(ops):
            if np.linalg.eigvalsh(matrix_from_json(ops["gram"]))[0] >= 0:
                return handler(ops)
            if outcome is None:
                return {}, {}, []
            raise outcome
        return claims, patched

    @pytest.mark.parametrize("outcome,named", [
        (ValueError("bad operand"), "ValueError: bad operand"),
        (Uncertifiable("no rule"), "Uncertifiable: no rule"),
        (None, "nothing"),
    ], ids=["other-error", "uncertifiable", "no-error"])
    def test_control_refused_for_another_reason_does_not_hold(
            self, monkeypatch, capsys, outcome, named):
        monkeypatch.setitem(OPERATIONS, "associated-operator",
                            self.indefinite_gram_handler(outcome))
        reports = run_suite("representation", seed=1).reports
        control = reports[-1]
        assert control.scenario == "control-indefinite-form"
        assert control.verdict == "pass" and not control.as_expected
        assert control.details == {"expected": "NotPositive", "raised": named}
        assert all(r.as_expected for r in reports[:-1])
        assert main(["suite", "representation", "--seed", "1"]) == 2
        assert "pass        [control] control-indefinite-form" in capsys.readouterr().out

    def test_each_control_runs_alone(self, monkeypatch, tmp_path):
        """The scenario object of each control, written to its own file,
        fails through ``formcalc run`` with the error it names."""
        entries = {}
        refusal = suites._refusal

        def recorded(sc, error):
            name = next(n for n, entry in CONTROLS.items() if entry == (sc["op"], error))
            entries[name] = sc
            return refusal(sc, error)
        monkeypatch.setattr(suites, "_refusal", recorded)
        run_suite("all", seed=0)
        assert set(entries) == set(CONTROLS)

        def plain(obj):
            if isinstance(obj, dict):
                return {k: plain(v) for k, v in obj.items()}
            return obj.tolist() if isinstance(obj, np.ndarray) else obj

        for name, sc in entries.items():
            f = write_scenarios(tmp_path / f"{name}.json", [{"id": name, **plain(sc)}])
            out = tmp_path / name
            assert main(["run", f, "--out", str(out)]) == 2, name
            rep = json.loads((out / f"{name}.json").read_text())
            assert rep["verdict"] == "fail", name
            assert rep["details"]["error"].startswith(f"{CONTROLS[name][1].__name__}: "), name

    def test_worst_refuses_two_tolerances_for_one_residual(self, monkeypatch):
        monkeypatch.setitem(OPERATIONS, "fake", ((), lambda ops: (
            {"r": (ops["r"], ops["tol"])}, {"ignored": True}, [])))
        same = [{"op": "fake", "r": -1.0, "tol": 1e-9},
                {"op": "fake", "r": 1e-12, "tol": 1e-9}]
        assert suites._worst(same, {"instances": 2}) == (
            {"r": 1e-12}, {"r": 1e-9}, {"instances": 2}, [])
        assert suites._worst(same[:1], {})[0] == {"r": 0.0}
        with pytest.raises(ValueError, match="'r' has tolerances"):
            suites._worst(same + [{"op": "fake", "r": 0.0, "tol": 1e-10}], {})
        # a scenario's own tolerance overrides its handler's
        assert suites._worst(same + [{"op": "fake", "r": 0.0, "tol": 1e-10,
                                      "tolerances": {"r": 1e-9}}], {})[1] == {"r": 1e-9}

    def test_scenarios_and_batteries_judge_alike(self):
        A = np.diag([2.0, 3.0])
        B = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        sc = {"op": "joint-factorize", "tolerances": {"matrix": 1e-12},
              "space": suites._space(2), "A": suites._operator(A),
              "B": suites._operator(B), "expected_matrix": suites._wire(A + B)}
        rep = run_scenario(sc)
        residuals, tolerances, _, _ = suites._worst([sc], {})
        assert rep.verdict == "pass"
        assert rep.residuals == residuals
        assert rep.tolerances == tolerances
        assert tolerances["matrix"] == 1e-12 and tolerances["jstar"] == 1e-10

    def test_wire_layout_decodes_to_the_same_bits(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            # a transposed matrix and a column are not contiguous
            for X in (M, M.T, M[:, 0]):
                wire = suites._wire(X)
                assert wire.tobytes() == np.stack((X.real, X.imag), -1).tobytes()
                got = (matrix_from_json if X.ndim == 2 else array_from_json)(wire)
                assert got.tobytes() == X.tobytes()


def raising(exc):
    def fn(*args):
        raise exc
    return fn


def run_raising(via, exc, monkeypatch):
    """One check that raises ``exc``, run as a suite check or a scenario."""
    if via == "suite":
        return _run_checks([("check", ("Thm1",), raising(exc))])[0]
    monkeypatch.setitem(OPERATIONS, "raise", (("Thm1",), raising(exc)))
    return run_scenario({"id": "check", "op": "raise"})


@pytest.mark.parametrize("via", ["suite", "scenario"])
class TestOneRunner:
    def test_uncertifiable_is_uncertified(self, via, monkeypatch):
        rep = run_raising(via, Uncertifiable("tail outside the rule classes"),
                          monkeypatch)
        assert rep.verdict == "uncertified"
        assert rep.details["error"].startswith("Uncertifiable")

    @pytest.mark.parametrize("exc", [LowerBoundError("gamma <= 0"),
                                     ArithmeticError("overflow"),
                                     ValueError("bad operand")],
                             ids=lambda e: type(e).__name__)
    def test_errors_fail(self, via, exc, monkeypatch):
        rep = run_raising(via, exc, monkeypatch)
        assert rep.verdict == "fail"
        assert rep.details["error"].startswith(type(exc).__name__)
        # a raised report keeps the claims of its check or op
        assert rep.claims == ("Thm1",)
        assert rep.residuals == {"raised": 1.0}
        assert rep.wall_time > 0.0

    def test_other_exceptions_propagate(self, via, monkeypatch):
        with pytest.raises(TypeError):
            run_raising(via, TypeError("a program fault"), monkeypatch)


class TestRunnerCallers:
    def test_missing_operand_still_raises(self):
        with pytest.raises(MissingOperand, match="lacks operand"):
            run_scenario({"id": "x", "op": "factorize"})

    def test_raised_scenario_carries_op_claims(self):
        rep = run_scenario({
            "id": "fr-decaying", "op": "friedrichs",
            "space": {"backend": "sequence", "truncation": 64, "p": 2.0},
            "generator": {"terms": [{"coef": [1, 0], "alpha": 0.0,
                                     "ratio": 0.5, "start": 1}]},
        })
        assert rep.verdict == "fail"
        assert "raised" in rep.residuals
        assert rep.claims == ("Thm2",)

    def test_thm2_checks_report_their_generator(self):
        details = {r.scenario: r.details.get("generator")
                   for r in friedrichs_suite(0)}
        for name in ("square", "exponential", "geometric-2"):
            assert details[f"thm2-{name}"] == name

    def test_controls_fail_for_their_reason(self):
        # each battery's one control, in SUITE_NAMES order, and the
        # exception it was written to provoke
        expected = ["NotPositive", "LowerBoundError", "NotEqual",
                    "DomainError", "NotNormalized", "DomainError"]
        res = run_suite("all", seed=3)
        controls = [r for r in res.reports if r.control]
        assert all(r.control == r.scenario.startswith("control-")
                   for r in res.reports)
        assert len(controls) == len(SUITE_NAMES) == len(expected)
        for rep, cls in zip(controls, expected):
            assert rep.verdict == "fail", rep.scenario
            assert rep.details["error"].split(":")[0] == cls, rep.scenario


def every_operation():
    """One entry per op of OPERATIONS that must pass, its expected operand,
    where the op takes one, from an independent numpy oracle, and a check
    of its details for ``sobolev-lower-bound``, which takes none."""
    rng = np.random.default_rng(2024)
    n = 3

    def hpd():
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return Z @ Z.conj().T + 0.5 * np.eye(n)

    def wire(M):
        return suites._wire(M).tolist()

    op, space = suites._operator, suites._space(n)
    M, N, G = hpd(), hpd(), hpd()
    K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    K = K + K.conj().T
    basis = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    G2 = hpd()[:2, :2]
    x, v = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    w = np.array([0.2, 0.3, 0.1, 0.4])
    X = rng.normal(size=(4, n))
    Xc = X - w @ X
    prob = {"weights": w.tolist()}
    table = {"space_pair": space, "probability": prob}
    problem = {"length": 2.0, "a": "1", "b": "1", "gamma": 1.0}
    # gamma of the pencil (conj(G2), B^H B) through the Cholesky factor of B^H B
    Li = np.linalg.inv(np.linalg.cholesky(basis.conj().T @ basis))
    gamma = np.linalg.eigvalsh(Li @ np.conj(G2) @ Li.conj().T)[0]
    pairing = np.vdot(x, v)
    stiffness = (2 * np.eye(7) - np.eye(7, k=1) - np.eye(7, k=-1)) * 4.0
    mass = (4 * np.eye(7) + np.eye(7, k=1) + np.eye(7, k=-1)) / 24.0
    entries = {
        "pair": {"space": space, "v": {"coords": wire(v)}, "x": {"coords": wire(x)},
                 "expected": [pairing.real, pairing.imag]},
        "norm": {"p": 3.0, "x": {"coords": wire(x)}, "expected": np.linalg.norm(x, 3)},
        "adjoint-involution": {"space": space, "operator": op(K + 1j * M)},
        "is-extension": {"S": {"backend": "dense", "direction": "to-dual",
                               "domain_basis": wire(np.eye(n)[:, :1]),
                               "action": wire(M[:, :1])},
                         "T": op(M), "expected": True},
        "lower-bound": {"space": space, "basis": wire(basis), "gram": wire(G2),
                        "expected_gamma": gamma},
        "associated-operator": {"space": space, "gram": wire(G), "expected_matrix": wire(G.T)},
        "riesz-solve": {"space": space, "gram": wire(G), "v": {"coords": wire(v)},
                        "expected": wire(np.linalg.solve(G.T, v))},
        "inverse-selfadjoint": {"space": space, "B": op(M, "from-dual")},
        "friedrichs": {"space": space, "A": op(M), "expected_matrix": wire(M),
                       "expected_gamma": np.linalg.eigvalsh(M)[0]},
        "factorize": {"A": op(M)},
        # sup |(Mz, y)|^2 / (Mz, z) = y^H M y by Cauchy-Schwarz
        "form-on-x": {"A": op(M), "y": {"coords": wire(x)},
                      "expected": np.vdot(x, M @ x).real},
        "compare": {"A": op(M + N), "B": op(M), "expected": "A>=B"},
        "antisymmetry": {"A": op(M), "B": op(M)},
        "hilbert-consistency": {"space": space, "A": op(M), "samples": [{"coords": wire(x)}]},
        "form-sum": {"space": space, "A": op(M), "B": op(N), "expected_matrix": wire(M + N)},
        "joint-factorize": {"space": space, "A": op(M), "B": op(N),
                            "expected_matrix": wire(M + N)},
        "lift-commutant": {"space": space, "A": op(M), "K": wire(K)},
        "commutation-formsum": {"space": space, "A": op(M), "K": wire(K), "B": op(2.0 * M)},
        "spectrum-inclusion": {"space": space, "A": op(M), "K": wire(K)},
        "weak-expectation": {**table, "variable": {"values": X.tolist()},
                             "expected": wire(w @ X)},
        "second-moment": {**table, "variable": {"values": X.tolist()},
                          "functional": {"coords": wire(v)}, "expected": True},
        "covariance-form": {**table, "variable": {"values": Xc.tolist()}},
        # the representing operator's matrix is the covariance gram itself
        "covariance-operator": {**table, "variable": {"values": Xc.tolist()},
                                "expected_matrix": wire((Xc.T * w) @ Xc)},
        "independent-sum": {"space_pair": space, "probability_xi": prob,
                            "probability_eta": prob, "xi": {"values": Xc.tolist()},
                            "eta": {"values": (Xc[::-1] - w @ Xc[::-1]).tolist()}},
        # h = 1/4: the hat-function stiffness plus mass of -f'' + f
        "elliptic-assemble": {"m": 8, "problem": problem,
                              "expected_gram": wire(stiffness + mass)},
        "sobolev-lower-bound": {"m": 16, "problem": problem},
        "weak-solve": {"m": 16, "problem": problem, "g": "1"},
        "dirichlet-vs-neumann": {"m": 16, "problem": problem},
    }
    return entries, {"sobolev-lower-bound": {"constant": math.pi ** 2 / 4.0,
                                             "kind": "poincare-p2"}}


class TestEveryOperation:
    def test_every_op_has_an_entry(self):
        assert set(every_operation()[0]) == set(OPERATIONS)

    @pytest.mark.parametrize("op", sorted(OPERATIONS))
    def test_op_passes_against_its_oracle(self, op):
        entries, details = every_operation()
        sc = json.loads(json.dumps(entries[op], default=np.ndarray.tolist))
        rep = run_scenario({"id": op, "op": op, **sc})
        assert rep.verdict == "pass", rep.details
        for key, want in details.get(op, {}).items():
            assert rep.details[key] == (pytest.approx(want, rel=1e-14)
                                        if isinstance(want, float) else want)
