"""Golden outputs of every CLI command: simulate, sweep, oracle, synth, analyze, fit-beta.

Each run calls main() in one scratch directory, in order, and is compared
with tests/golden.json: its exit code, stdout, stderr and every file it
wrote.  On the numpy and scipy versions the manifest was made with, the md5
of each must match, so a one-ulp change to any written float fails.  On
another toolchain the numbers in each text (or, for files too large to keep,
in a per-column summary) must match at rtol 1e-12 and the rest of the text
exactly.

After an intended output change, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

which prints each run and file whose md5 changed, so that CHANGES.md can
list exactly those entries.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np
import scipy

from chiralchain.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
# files up to this size keep their text in the manifest; larger ones a summary
_TEXT_LIMIT = 64 * 1024
_RTOL = 1e-12
# input files written into the scratch directory before the first run:
# g2(0) of the beta = 0.0081 chain at OD 1-5 to three digits, and
# synth_saturation_data(0.0083, 4.0, geomspace(10, 1000, 8), rel_noise=0.02,
# seed=42) to six digits
INPUTS = {
    "points.csv": "od,g2_0\n1.0,0.978\n2.0,0.939\n3.0,0.858\n4.0,0.698\n5.0,0.379\n",
    "saturation.csv": ("s0,transmission\n10,0.019989\n19.307,0.0209796\n37.2759,0.025138\n"
                       "71.9686,0.0332559\n138.95,0.0523725\n268.27,0.12441\n"
                       "517.947,0.329336\n1000,0.579379\n"),
}
# run name and argv; each run sees the files of the runs before it
RUNS = [
    ("simulate-both", ["simulate", "--od", "3.15", "--od", "5.13", "--kind", "both",
                       "--output", "curve.csv"]),
    ("sweep", ["sweep", "--output", "sweep.csv"]),
    ("sweep-fit-points", ["sweep", "--fit-points", "points.csv", "--output", "sweep_fit.csv"]),
    ("oracle-n2", ["oracle", "--beta", "0.3", "--n-atoms", "2", "--output", "oracle.csv"]),
    ("synth-histogram", ["synth", "--od", "5.13", "--duration", "60", "--seed", "2",
                         "--output", "hist_od5.13.csv"]),
    ("analyze-histogram", ["analyze", "--input", "hist_od5.13.csv", "--output", "fit_hist.json"]),
    ("fit-beta", ["fit-beta", "--input", "saturation.csv", "--od0", "4.0", "--output", "beta.json"]),
    ("synth-od5.13", ["synth", "--kind", "timetags", "--od", "5.13", "--duration", "2",
                      "--seed", "3", "--output", "tags_od5.13.csv"]),
    # 1e6/s puts about 0.7 detector-0 tags within the curve support of each
    # candidate, so thinning sums the excess of several owners
    ("synth-od3.15-many-pairs", ["synth", "--kind", "timetags", "--od", "3.15", "--duration", "1",
                                 "--rate1", "1e6", "--rate2", "1e6", "--output", "tags_od3.15.csv"]),
    ("analyze-od5.13", ["analyze", "--input", "tags_od5.13.csv", "--curve-output", "g2_od5.13.csv",
                        "--output", "fit_od5.13.json"]),
    ("analyze-od3.15", ["analyze", "--input", "tags_od3.15.csv", "--curve-output", "g2_od3.15.csv",
                        "--output", "fit_od3.15.json"]),
    ("analyze-od5.13-pulsed", ["analyze", "--input", "tags_od5.13.csv", "--pulse-period-ns", "10000",
                               "--output", "fit_od5.13_pulsed.json"]),
]
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _summary(data: bytes) -> str:
    """Header line, row count and per-column sum, min and max of a large CSV."""
    header, _, body = data.partition(b"\n")
    cols = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2).T
    stats = [" ".join(repr(float(x)) for x in (c.sum(), c.min(), c.max())) for c in cols]
    return "\n".join([header.decode().rstrip("\r"), f"{cols.shape[1]} rows", *stats])


def _entry(data: bytes) -> dict:
    if len(data) <= _TEXT_LIMIT:
        return {"md5": _md5(data), "text": data.decode()}
    return {"md5": _md5(data), "summary": _summary(data)}


def run_all(workdir: str) -> list[dict]:
    """Every run of RUNS in workdir: exit code, and the bytes of stdout, stderr
    and each file the run made."""
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in INPUTS.items():
            with open(name, "w") as fh:
                fh.write(text)
        for name, argv in RUNS:
            before = set(os.listdir("."))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            files = {"<stdout>": out.getvalue().encode(), "<stderr>": err.getvalue().encode()}
            for f in sorted(set(os.listdir(".")) - before):
                with open(f, "rb") as fh:
                    files[f] = fh.read()
            results.append({"name": name, "argv": argv, "exit": code, "files": files})
    finally:
        os.chdir(cwd)
    return results


def _same_numbers_and_text(got: str, want: str) -> bool:
    """Texts equal outside their numbers, and numbers equal at rtol _RTOL."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    a, b = _NUMBER.findall(got), _NUMBER.findall(want)
    return len(a) == len(b) and all(
        math.isclose(float(x), float(y), rel_tol=_RTOL, abs_tol=0.0) for x, y in zip(a, b))


def test_cli_outputs_match_golden(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    same_toolchain = (golden["numpy"], golden["scipy"]) == (np.__version__, scipy.__version__)
    got = run_all(str(tmp_path))
    assert [(r["name"], r["argv"]) for r in got] == [(r["name"], r["argv"]) for r in golden["runs"]]
    for run, want in zip(got, golden["runs"]):
        assert run["exit"] == want["exit"], run["name"]
        assert sorted(run["files"]) == sorted(want["files"]), run["name"]
        for f, entry in want["files"].items():
            data = run["files"][f]
            if same_toolchain:
                assert _md5(data) == entry["md5"], (run["name"], f)
            elif "text" in entry:
                assert _same_numbers_and_text(data.decode(), entry["text"]), (run["name"], f)
            else:
                assert _same_numbers_and_text(_summary(data), entry["summary"]), (run["name"], f)


def _digests(runs: list[dict]) -> dict:
    """(run name, file) -> md5 of each file, and (run name, "<exit>") -> exit code."""
    out = {(r["name"], "<exit>"): r["exit"] for r in runs}
    out.update({(r["name"], f): e["md5"] for r in runs for f, e in r["files"].items()})
    return out


def _changed(old_runs: list[dict], runs: list[dict]) -> list[str]:
    """"run/file: old -> new" for each entry that differs from, or is missing in, old_runs."""
    old, new = _digests(old_runs), _digests(runs)
    return [f"{'/'.join(key)}: {old.get(key, 'absent')} -> {new.get(key, 'absent')}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_all(tmp)
    for run in runs:
        run["files"] = {f: _entry(data) for f, data in run["files"].items()}
    old_runs = []
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            old_runs = json.load(fh)["runs"]
    for line in _changed(old_runs, runs):
        print(f"changed {line}", file=sys.stderr)
    manifest = {"numpy": np.__version__, "scipy": scipy.__version__, "runs": runs}
    with open(GOLDEN, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(runs)} runs", file=sys.stderr)
