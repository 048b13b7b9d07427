"""The command line runs OpenBLAS on one thread unless the environment
chooses a count.

Each case runs ``formcalc.cli.main`` in a fresh interpreter and asks
every OpenBLAS mapped into it for its thread count, before and after the
call, through the library's own getter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = r"""
import ctypes, json, os
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


before = counts()
# an unknown suite returns at once, after the thread policy has run
code = formcalc.cli.main(["suite", "no-such-suite"])
print(json.dumps({"before": before, "after": counts(), "code": code}))
"""


def probe(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
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
