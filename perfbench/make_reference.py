"""Regenerate reference.json, the stored outputs the benchmark checks against.

    python3 perfbench/make_reference.py

The stored file was made from the commit that introduced the benchmark.
Regenerate it only in a change that is meant to alter the model's numbers.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import chiralchain as cc  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    ref = {"averaged_curves": {}, "timetag_roundtrip": {}, "cli_timetags": {}, "oracle_sweep": {}}
    state = wl.setup_averaged_curves({})
    ctx = {"errors": []}
    for od, (avg, ideal) in wl.run_averaged_curves(state, ctx).items():
        ref["averaged_curves"][repr(od)] = {"averaged": avg.values.tolist(),
                                            "ideal": ideal.values.tolist()}
    curves = wl.setup_timetag_roundtrip({})["curves"]
    for od, curve in curves.items():
        ref["timetag_roundtrip"][repr(od)] = float(curve.values[0])
    ref["cli_timetags"]["true_g2_zero"] = float(curves[wl.CLI_OD].values[0])
    ods = wl.sweep_od_grid()
    for beta in wl.SWEEP_BETAS:
        ref["oracle_sweep"][repr(beta)] = wl.sweep_rows(cc.sweep_g2_vs_od(beta, ods))
    if ctx["errors"]:
        print("\n".join(ctx["errors"]), file=sys.stderr)
        return 1
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
