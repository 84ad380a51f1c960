"""One benchmark pass: run a job list through ``stardefect.cli.main`` in a
fresh interpreter and report wall time, CPU time and peak memory.

Reads a JSON spec on stdin::

    {"src": "<dir holding the stardefect package>",
     "jobs": [["sdefect", "--points", ...], ...],
     "trace": false,
     "spans_out": null}

and writes one JSON object on stdout. Timing covers the job loop only;
importing the package is the benchmark's separate ``setup_s``.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def install_betti_probe() -> list[dict]:
    """Keep the Betti tables that ``verify_resolution_theorems`` computes.

    The CLI report reduces them to booleans; the oracle compares the tables
    themselves. The probe sees seven calls per pass, so its cost is negligible.
    """
    from stardefect import stargeneral

    inner = stargeneral.verify_resolution_theorems
    records: list[dict] = []

    def probe(cfg):
        res = inner(cfg)
        records.append(
            {
                "vars": cfg.num_vars,
                "degrees": list(cfg.degrees),
                "square": sorted([i, j, r] for (i, j), r in res["square"].entries),
                "symbolic": sorted([i, j, r] for (i, j), r in res["symbolic"].entries),
            }
        )
        return res

    for mod in [m for n, m in sys.modules.items() if n.startswith("stardefect")]:
        for name, obj in list(vars(mod).items()):
            if obj is inner:
                setattr(mod, name, probe)
    return records


def run_jobs(jobs: list[list[str]]) -> list[dict]:
    from stardefect import cli

    out = []
    for argv in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects malformed arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, reported with its traceback
            code = -1
            stderr.write(traceback.format_exc())
        out.append({"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-4000:]})
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import stardefect.cli  # loads every layer module

    if not os.path.abspath(stardefect.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"error: imported stardefect from {stardefect.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    betti = install_betti_probe()

    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    results = run_jobs(spec["jobs"])
    wall = perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "wall_s": wall,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "jobs": results,
        "betti_probe": betti,
        "facts": machine_facts(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])
    sys.stdout.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
