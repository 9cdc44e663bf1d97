"""chiralchain benchmark: run workloads, check their outputs, report metrics.

    python3 perfbench/run.py --workload averaged_curves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --runs 10 --out base.json
    python3 perfbench/compare.py base.json head.json

Every pass of a workload runs in a fresh interpreter (``worker.py``), so the
chain cache and every import start cold in the same way on every commit.
Passes repeat while the next one should end within ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced passes
(alternating with untraced ones, whose difference is the trace overhead)
and writes the spans to ``.perfbench-out/``.  BLAS runs single-threaded in
every worker, and ``wall_s`` and ``setup_s`` are scaled by a calibration
timed next to each pass; see README.md for why.

The last line of standard output of a single run is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# A run must end within 180 s; workers still running at this point are killed.
RUN_DEADLINE_S = 170.0
# Pinned so that both commits of a comparison see the same BLAS; two threads on
# a two-core machine double wall time and quadruple CPU time on the expm path.
BLAS_THREADS = "1"
# wall_s and setup_s are scaled to a machine on which worker.calibrate() takes
# this long.  The machine's speed drifts by up to 1.5x over minutes and by
# 40% over seconds; each pass is divided by the calibrations timed next to
# it, so that runs made in slow and fast spells compare.
CALIB_REF_S = 0.5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, pass_index: int, mode: str, deadline: float) -> dict:
    """Run one worker; returns its report, or a failed report if it died."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--mode", mode]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\nworker killed at the run deadline"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "crashed": True, "errors": [err[-4000:]]}
    doc = json.loads(lines[-1])
    doc["mode"] = mode
    doc["setup_s"] = doc["t_ready"] - t_spawn
    return doc


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: passes until ``seconds`` elapse, then the aggregated result."""
    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    modes = ("plain", "traced") if trace else ("e2e",)
    passes = []
    while True:
        mode = modes[len(passes) % len(modes)]
        t_pass = time.monotonic()
        passes.append(spawn(workload, seed, len(passes), mode, deadline))
        now = time.monotonic()
        # start another pass only if it should end within the measuring time
        if len(passes) >= len(modes) and now - t_start + (now - t_pass) > seconds:
            break
        if now >= deadline:
            break

    attempted = sum(p.get("attempted", 1) for p in passes)
    failed = sum(p.get("failed", 1) for p in passes)
    for p in passes:
        for e in p.get("errors", []):
            print(f"[{workload} pass {p['mode']}] {e}", file=sys.stderr)
        for c in p.get("checks", []):
            if not c["ok"]:
                print(f"[{workload}] check failed: {c['op']} {c['detail']}", file=sys.stderr)

    def med(key, mode):
        vals = [p[key] for p in passes if p["mode"] == mode and key in p]
        return statistics.median(vals) if vals else None

    metrics = {}
    if trace:
        traced = [p for p in passes if p["mode"] == "traced" and "layers" in p]
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                traced_s, plain_s = med("wall_s", "traced"), med("wall_s", "plain")
                value = None if None in (traced_s, plain_s) else traced_s - plain_s
            else:
                vals = [p["layers"][m["name"]] for p in traced]
                value = statistics.median(vals) if vals else None
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        write_trace(workload, seed, passes)
    else:
        e2e = [p for p in passes if p["mode"] == "e2e" and "wall_s" in p]
        # the pass sits between its two calibrations; set-up ends just before the first
        wall = [p["wall_s"] * CALIB_REF_S / statistics.mean(p["calib_s"]) for p in e2e]
        setup = [p["setup_s"] * CALIB_REF_S / p["calib_s"][0] for p in e2e]
        values = {"wall_s": statistics.median(wall) if e2e else None,
                  "setup_s": statistics.median(setup) if e2e else None,
                  "peak_rss_mb": med("peak_rss_mb", "e2e")}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    machine = next((p["machine"] for p in passes if "machine" in p), None)
    return {
        "summary": {"workload": workload, "seed": seed, "trace": int(trace),
                    "passes": len(passes), "machine": machine,
                    "elapsed_s": time.monotonic() - t_start},
        "result": {"correct": failed == 0 and attempted > 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "machine")} for p in passes],
    }


def write_trace(workload: str, seed: int, passes: list) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    doc = {"workload": workload, "seed": seed,
           "passes": [{k: p.get(k) for k in ("mode", "wall_s", "cpu_s", "layers",
                                             "missing_hooks", "spans")} for p in passes]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for p in passes:
        if p.get("missing_hooks"):
            print(f"[{workload}] not traced (absent): {', '.join(p['missing_hooks'])}",
                  file=sys.stderr)
            break


def print_table(spec: dict, runs: list) -> None:
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<18} {'metric':<16} {'median':>12}  unit   runs")
    for w in workloads:
        mine = [r for r in runs if r["summary"]["workload"] == w and not r["summary"]["trace"]]
        if not mine:
            continue
        for m in spec["end_to_end"]:
            # a run whose every pass crashed has no value
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            vals = [v for v in vals if v is not None]
            med = f"{statistics.median(vals):>12.4f}" if vals else f"{'n/a':>12}"
            print(f"{w:<18} {m['name']:<16} {med}  {m['unit']:<6} {len(vals)}")
        att = sum(r["result"]["attempted"] for r in mine)
        fail = sum(r["result"]["failed"] for r in mine)
        print(f"{w:<18} {'failed_fraction':<16} {fail / att:>12.4f}  {'1':<6} {len(mine)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed, seed+1, ...")
    ap.add_argument("--out", default=None, help="write every run to this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chiralchain", "__init__.py")):
        print(f"error: no chiralchain sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    selected = names if args.workload == "all" else [args.workload]

    runs = []
    for i in range(args.runs):
        for w in selected:
            run = run_workload(spec, w, args.seed + i, seconds, bool(args.trace))
            runs.append(run)
            print(json.dumps({"workload": w, "seed": args.seed + i,
                              "machine": run["summary"]["machine"]}))
            print(json.dumps(run["result"]), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"spec": spec, "runs": runs}, fh, indent=1)
    if len(runs) > 1:
        print_table(spec, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
