"""One round of a workload in a fresh interpreter.

    python worker.py JOB.json RESULT.json

JOB lists the ``formcalc.cli.main`` argument vectors of the batch and
whether to trace.  The worker times ``import formcalc.cli`` and the
main calls, reads its own peak resident memory, records the BLAS
libraries and their thread counts, and writes RESULT.  Run it with the
repository's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import sys
import time


def blas_info() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    libs = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in libs:
                libs.append(path)
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            info.update(threads=int(threads()), config=config().decode())
            break
        out.append(info)
    return out


def peak_rss_mb() -> float:
    """VmHWM of this process in MiB.  Unlike ru_maxrss it belongs to the
    memory map made at exec, so it excludes the parent that spawned us."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job = json.loads(open(sys.argv[1]).read())
    t0 = time.perf_counter()
    import formcalc.cli
    import_s = time.perf_counter() - t0
    result = {"import_s": import_s}
    if job.get("import_only"):
        json.dump(result, open(sys.argv[2], "w"))
        return 0
    tracer = None
    if job.get("trace"):
        import spans
        tracer = spans.Tracer()
        tracer.install()
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t1 = time.perf_counter()
        for argv in job["argv"]:
            codes.append(formcalc.cli.main(argv))
        verify_s = time.perf_counter() - t1
    result.update(verify_s=verify_s, exit_codes=codes,
                  peak_rss_mb=peak_rss_mb(),
                  blas=blas_info())
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.save(job["trace_out"])
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
