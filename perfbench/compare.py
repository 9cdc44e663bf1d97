"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py base.json head.json

For each workload and each end-to-end metric it prints both medians and
quartiles over the runs, the ratio head/base with its base, and a verdict:

  worse       head's median is worse than base's by more than the bound
  better      head's median is better by more than base's own spread and head
              wins at least 9 in 10 of all (base, head) run pairs
  unresolved  the run-to-run spread of either side is wider than the bound,
              unless every head run is better than every base run
  unchanged   otherwise

Bounds come from the base set's BENCHMARK.json.  Exit code 1 when any
verdict is "worse", else 0.
"""

from __future__ import annotations

import json
import statistics
import sys


def values(doc: dict, workload: str, metric: str) -> list[float]:
    """The metric's value in every untraced run that has one (a crashed run has none)."""
    vals = [r["result"]["metrics"].get(metric, {}).get("value") for r in doc["runs"]
            if r["summary"]["workload"] == workload and not r["summary"]["trace"]]
    return [v for v in vals if v is not None]


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], bound: float, lower_is_better: bool) -> str:
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (hmed - bmed) / bmed
    spread = max((bq3 - bq1) / bmed, (hq3 - hq1) / hmed)

    def beats(h, b):
        return sign * (b - h) > 0

    if spread > bound and not all(beats(h, b) for h in head for b in base):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(beats(h, b) for h in head for b in base) / (len(head) * len(base))
    if -worse_by > (bq3 - bq1) / bmed and wins >= 0.9:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        head = json.load(fh)
    spec = base["spec"]
    any_worse = False
    print(f"{'workload':<18} {'metric':<12} {'base med [q1, q3]':>28} {'head med [q1, q3]':>28}"
          f" {'head/base':>10}  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["end_to_end"]:
            b, h = values(base, w, m["name"]), values(head, w, m["name"])
            if not b or not h:
                print(f"{w:<18} {m['name']:<12} n/a (n={len(b)}/{len(h)} runs with a value)")
                continue
            bq, hq = quartiles(b), quartiles(h)
            v = verdict(b, h, m["bound"], m["better"] == "lower")
            any_worse |= v == "worse"
            print(f"{w:<18} {m['name']:<12} "
                  f"{bq[1]:>10.4f} [{bq[0]:.4f}, {bq[2]:.4f}] "
                  f"{hq[1]:>10.4f} [{hq[0]:.4f}, {hq[2]:.4f}] "
                  f"{hq[1] / bq[1]:>10.3f}  {v} (base {bq[1]:.4f} {m['unit']}, "
                  f"n={len(b)}/{len(h)}, bound {m['bound']})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
