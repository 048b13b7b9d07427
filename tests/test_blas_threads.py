"""The command line runs OpenBLAS on one thread unless the environment
chooses a count, also in the workers of ``suite all``, and formcalc runs
on numpy alone, loading numpy.random only in ``suite``, whose batteries
draw, and numpy.polynomial never.

Each case runs in a fresh interpreter.  The thread cases call
``formcalc.cli.main`` and ask every OpenBLAS mapped into it for its thread
count, before and after the call, through the library's own getter; the
import cases read ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COUNTS = r"""
import ctypes, json, os, sys
import formcalc.cli

GETTERS = ("scipy_openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def counts():
    out = {}
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            path = fields[5].strip() if len(fields) == 6 else ""
            if "openblas" not in path.lower() or not os.path.isfile(path):
                continue
            lib = ctypes.CDLL(path)
            for name in GETTERS:
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    out[os.path.basename(path)] = int(getter())
                    break
    return out
"""

PROBE = COUNTS + r"""
before = counts()
# an unknown suite returns at once, after the thread policy has run
code = formcalc.cli.main(["suite", "no-such-suite"])
print(json.dumps({"before": before, "after": counts(), "code": code}))
"""


def run_script(script, *args, **env_vars):
    """Run ``script`` in a fresh interpreter without the thread variables
    and return the JSON object on its last line of output."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(**env_vars):
    result = run_script(PROBE, **env_vars)
    assert result["code"] == 4
    if not result["after"]:
        pytest.skip("no OpenBLAS with a thread-count getter is mapped")
    return result


def test_main_pins_every_openblas_to_one_thread():
    result = probe()
    assert set(result["after"].values()) == {1}, result


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_environment_count_wins(var):
    result = probe(**{var: "2"})
    assert result["after"] == result["before"], result
    if (os.cpu_count() or 1) >= 2 and var == "OPENBLAS_NUM_THREADS":
        assert set(result["after"].values()) == {2}, result


GUARD = COUNTS + r"""
import contextlib, io
out, scenarios = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [formcalc.cli.main(["suite", "all", "--seed", "1", "--out", out + "/suite"]),
             formcalc.cli.main(["run", scenarios, "--out", out + "/run"])]
print(json.dumps({"codes": codes, "after": counts(),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

DENSE3 = {"backend": "dense", "dim": 3, "p": 2.0}


def dense_op(diagonal):
    eye = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    action = [[[diagonal[i] if i == j else 0.5, 0.0] for j in range(3)]
              for i in range(3)]
    return {"backend": "dense", "direction": "to-dual", "domain_basis": eye,
            "action": action}


GUARD_SCENARIOS = [
    {"id": "compare", "op": "compare", "A": dense_op([3.0, 4.0, 5.0]),
     "B": dense_op([2.0, 2.0, 2.0]), "expected": "A>=B"},
    {"id": "form-sum", "op": "form-sum", "space": DENSE3,
     "A": dense_op([3.0, 4.0, 5.0]), "B": dense_op([2.0, 2.0, 2.0])},
    {"id": "lift", "op": "lift-commutant", "space": DENSE3,
     "A": dense_op([3.0, 4.0, 5.0]),
     "K": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]},
    {"id": "weak-solve", "op": "weak-solve",
     "problem": {"length": 1.0, "a": "1 + x", "b": "1", "gamma": 1.0},
     "m": 32, "g": "sin(pi*x)"},
    {"id": "friedrichs", "op": "friedrichs",
     "space": {"backend": "sequence", "truncation": 64, "p": 2.0},
     "generator": {"terms": [{"coef": [1, 0], "alpha": 2, "ratio": 1, "start": 1}]}},
]


def test_scipy_stays_out_and_blas_stays_on_one_thread(tmp_path):
    scenarios = tmp_path / "dense.json"
    scenarios.write_text(json.dumps({"scenarios": GUARD_SCENARIOS}))
    result = run_script(GUARD, str(tmp_path / "out"), str(scenarios))
    assert result["codes"] == [0, 0], result
    assert result["scipy"] == [], result
    assert set(result["after"].values()) <= {1}, result
    reports = json.loads((tmp_path / "out" / "run" / "summary.json").read_text())
    assert [s["verdict"] for s in reports["scenarios"]] == ["pass"] * 5


WORKERS = COUNTS + r"""
import contextlib, io
from formcalc import suites
from formcalc.reporting import make_report


def probe_battery(seed):
    return [make_report("blas-probe", [], {}, {},
                        details={"pid": os.getpid(), "threads": counts()})]


suites._SUITES["friedrichs"] = probe_battery
with contextlib.redirect_stdout(io.StringIO()):
    formcalc.cli.main(["suite", "all", "--out", sys.argv[1]])
with open(sys.argv[1] + "/blas-probe.json") as fh:
    print(json.dumps({"parent": os.getpid(), **json.load(fh)["details"]}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="suite all fans out only over two or more usable CPUs")
def test_suite_workers_inherit_the_pin(tmp_path):
    result = run_script(WORKERS, str(tmp_path))
    assert result["pid"] != result["parent"], result
    if not result["threads"]:
        pytest.skip("no OpenBLAS with a thread-count getter is mapped")
    assert set(result["threads"].values()) == {1}, result


IMPORTS = r"""
import json, sys
import formcalc.cli
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in
                        ("concurrent", "multiprocessing", "scipy"))))
"""


def test_cli_import_loads_no_pool_and_no_scipy():
    assert run_script(IMPORTS) == []


# numpy.random and numpy.polynomial load only on a path that uses them
LOADED = r"""
import contextlib, io, json, sys
import formcalc.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = formcalc.cli.main(argv)
print(json.dumps({"code": code, "random": "numpy.random" in sys.modules,
                  "polynomial": "numpy.polynomial" in sys.modules}))
"""


def loaded(*argv):
    return run_script(LOADED, json.dumps(list(argv)))


def rule(coef, alpha, ratio):
    return {"terms": [{"coef": [coef, 0.0], "alpha": alpha, "ratio": ratio,
                       "start": 1}]}


def seq_op(coef, alpha, ratio):
    return {"backend": "sequence", "direction": "to-dual",
            "diagonal": rule(coef, alpha, ratio), "domain": "finitely-supported"}


def seq_vec(ratio, n):
    return {"backend": "sequence",
            "coords": [[ratio ** k, 0.0] for k in range(1, n + 1)],
            "tail": {"kind": "rule", **rule(1.0, 0.0, ratio)}}


SEQ = {"backend": "sequence", "truncation": 16, "p": 2.0}
SEQUENCE_SCENARIOS = [
    {"id": "form-on-x", "op": "form-on-x", "A": seq_op(1.0, 2.0, 1.0),
     "y": seq_vec(0.5, 16)},
    {"id": "friedrichs", "op": "friedrichs", "space": SEQ,
     "generator": rule(1.0, 2.0, 1.0), "samples": [seq_vec(0.5, 16)]},
    {"id": "form-sum", "op": "form-sum", "space": SEQ,
     "A": seq_op(1.0, 2.0, 1.0), "B": seq_op(1.0, 0.0, 0.5)},
    {"id": "compare", "op": "compare", "A": seq_op(2.0, 2.0, 1.0),
     "B": seq_op(1.0, 2.0, 1.0), "expected": "A>=B"},
    {"id": "weak-expectation", "op": "weak-expectation", "space_pair": SEQ,
     "probability": {"kind": "rule", "rule": rule(1.0, 0.0, 0.5)},
     "variable": {"kind": "exp-poly"}},
    {"id": "second-moment", "op": "second-moment", "space_pair": SEQ,
     "probability": {"kind": "exponential", "beta": 2.5},
     "variable": {"kind": "exp-poly"},
     "functional": {"backend": "sequence", "coords": [[1.0, 0.0]] + [[0.0, 0.0]] * 15},
     "expected": True},
    {"id": "covariance-form", "op": "covariance-form",
     "space_pair": {"backend": "sequence", "truncation": 24, "p": 2.0},
     "probability": {"kind": "paired-rule", "rule": rule(1.0, 0.0, 0.5)},
     "variable": {"kind": "signed-basis", "scale": rule(1.0, 0.0, 1.1)}},
]


def test_cli_import_loads_no_random_and_no_polynomial():
    assert loaded() == {"code": None, "random": False, "polynomial": False}


def test_sequence_run_leaves_numpy_random_unloaded(tmp_path):
    scenarios = tmp_path / "sequence.json"
    scenarios.write_text(json.dumps({"scenarios": SEQUENCE_SCENARIOS}))
    result = loaded("run", str(scenarios), "--out", str(tmp_path / "out"))
    assert result == {"code": 0, "random": False, "polynomial": False}
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [s["verdict"] for s in summary["scenarios"]] == ["pass"] * 7


def dense_op(*diagonal):
    n = len(diagonal)
    return {"backend": "dense", "direction": "to-dual",
            "domain_basis": [[[float(i == j), 0.0] for j in range(n)] for i in range(n)],
            "action": [[[float(d) if i == j else 0.0, 0.0] for j, d in enumerate(diagonal)]
                       for i in range(n)]}


DENSE = {"backend": "dense", "dim": 2, "p": 2.0}
PROBLEM = {"length": 1.0, "a": "1", "b": "1", "gamma": 1.0}
DENSE_SCENARIOS = [
    {"id": "factorize", "op": "factorize", "A": dense_op(1.0, 2.0)},
    {"id": "form-sum", "op": "form-sum", "space": DENSE,
     "A": dense_op(1.0, 2.0), "B": dense_op(3.0, 4.0)},
    {"id": "compare", "op": "compare", "A": dense_op(2.0, 3.0),
     "B": dense_op(1.0, 2.0), "expected": "A>=B"},
    {"id": "dirichlet-vs-neumann", "op": "dirichlet-vs-neumann", "seed": 7,
     "m": 8, "problem": PROBLEM},
    {"id": "weak-solve", "op": "weak-solve", "m": 8, "g": "1", "problem": PROBLEM},
    {"id": "elliptic-assemble", "op": "elliptic-assemble", "m": 8,
     "problem": PROBLEM},
]


def test_dense_run_leaves_numpy_random_unloaded(tmp_path):
    # the Dirichlet-vs-Neumann probes are fixed functions, not draws
    scenarios = tmp_path / "dense.json"
    scenarios.write_text(json.dumps({"scenarios": DENSE_SCENARIOS}))
    result = loaded("run", str(scenarios), "--out", str(tmp_path / "out"))
    assert result == {"code": 0, "random": False, "polynomial": False}
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [s["verdict"] for s in summary["scenarios"]] == ["pass"] * 6


FIRST_BATTERY = r"""
import contextlib, io, json, os, sys
import formcalc.cli
from formcalc import suites
from formcalc.reporting import make_report


def probe_battery(seed):
    return [make_report("random-probe", [], {}, {},
                        details={"pid": os.getpid(),
                                 "random": "numpy.random" in sys.modules})]


# the first battery is the first task any worker takes, so no battery ran
# in that worker before it
suites._SUITES[suites.SUITE_NAMES[0]] = probe_battery
with contextlib.redirect_stdout(io.StringIO()):
    formcalc.cli.main(["suite", "all", "--out", sys.argv[1]])
with open(sys.argv[1] + "/random-probe.json") as fh:
    print(json.dumps({"parent": os.getpid(), **json.load(fh)["details"]}))
"""


def test_suite_loads_numpy_random_before_the_batteries(tmp_path):
    result = run_script(FIRST_BATTERY, str(tmp_path))
    assert result["random"], result
    if len(os.sched_getaffinity(0)) >= 2:
        assert result["pid"] != result["parent"], result
