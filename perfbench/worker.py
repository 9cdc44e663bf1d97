"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Modes:

  e2e     the end-to-end pass, tracing off (the CLI workload uses subprocesses)
  plain   the in-process shape of the pass, tracing off (the overhead baseline)
  traced  the in-process shape with every layer wrapped in spans

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def calibrate() -> float:
    """Seconds for a fixed piece of work that uses no chiralchain code.

    The work mixes what the workloads spend their time on: small dense
    ``expm`` calls, sorting and searching large float arrays, and writing and
    parsing CSV rows in Python.  Timed next to each pass, it tells how fast
    the machine ran at that moment, whatever the commit.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(12345)
    a = (rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))) * 0.05
    x = rng.random(500_000)
    rows = x[:60_000].tolist()
    t0 = time.perf_counter()
    for _ in range(60):
        scipy.linalg.expm(a)
    s = np.sort(x)
    np.searchsorted(s, x + 0.01)
    np.diff(np.cumsum(s))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, v in enumerate(rows):
        writer.writerow((i & 1, repr(v)))
    sum(float(r[1]) for r in csv.reader(io.StringIO(buf.getvalue())))
    return time.perf_counter() - t0


def blas_facts() -> dict:
    """BLAS libraries loaded in this process and their effective thread counts."""
    facts = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if line.split()[-1].startswith("/")})
        paths = [p for p in paths
                 if os.path.basename(p).startswith("lib") and "blas" in os.path.basename(p).lower()]
    except OSError:
        return facts
    for path in paths:
        entry = {"threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                entry["threads"] = fn()
                break
        facts[os.path.basename(path)] = entry
    return facts


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_facts(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--mode", choices=("e2e", "plain", "traced"), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import chiralchain.cli  # noqa: F401  (what every CLI process pays)
    import_s = time.perf_counter() - t0

    import tracing as tr
    import workloads as wl

    setup, run, check = wl.WORKLOADS[args.workload]
    ctx = {"seed": args.seed, "pass_index": args.pass_index, "mode": args.mode,
           "out_dir": OUT_DIR, "env": dict(os.environ), "errors": [], "cleanup": [],
           "span": lambda name: contextlib.nullcontext()}
    doc = {"import_s": import_s}
    try:
        state = setup(ctx)
        tracer = None
        if args.mode == "traced":
            tracer = tr.Tracer(run=args.pass_index)
            tr.install(tracer)
            ctx["span"] = tracer.span
        doc["t_ready"] = time.monotonic()
        calib_before = calibrate()
        c0 = time.process_time()
        p0 = time.perf_counter()
        out = run(state, ctx)
        doc["wall_s"] = time.perf_counter() - p0
        doc["cpu_s"] = time.process_time() - c0
        doc["calib_s"] = [calib_before, calibrate()]
        if tracer is not None:
            spans, counts = list(tracer.spans), dict(tracer.counts)
            doc["layers"] = tr.layer_metrics(spans, counts)
            doc["layers"]["cli.import_s"] = import_s
            doc["spans"] = spans
            doc["missing_hooks"] = tracer.missing
        results = check(state, out, wl.load_reference(), ctx)
        doc["attempted"] = len(results)
        doc["failed"] = sum(1 for _, ok, _ in results if not ok)
        doc["checks"] = [{"op": label, "ok": ok, "detail": detail}
                         for label, ok, detail in results]
    finally:
        for fn in ctx["cleanup"]:
            fn()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc["peak_rss_mb"] = (own + kids) / 1024.0
    doc["errors"] = ctx["errors"]
    doc["machine"] = machine_facts()
    sys.stdout.write("\n" + json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
