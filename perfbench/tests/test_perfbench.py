"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/tests

The smoke test runs every workload once with tracing off and once with
tracing on, about three minutes on a two-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _span(id, name, start, end, parent):
    return {"id": id, "name": name, "start": start, "end": end, "cpu": end - start,
            "parent": parent, "run": 0}


def test_self_times_of_nested_spans():
    # averaged_g2 [0, 10] holds two chain_g2 calls, each with a propagator
    # call; the second chain_g2 also holds a chain_g2 of the same name.
    spans = [
        _span(0, "ensemble.averaged_g2", 0.0, 10.0, None),
        _span(1, "transport.chain_g2", 1.0, 3.0, 0),
        _span(2, "transport.chain_two_photon_amplitude", 1.5, 2.5, 1),
        _span(3, "transport.chain_g2", 4.0, 8.0, 0),
        _span(4, "transport.chain_g2", 5.0, 7.0, 3),
        _span(5, "transport.chain_two_photon_amplitude", 5.5, 6.5, 4),
    ]
    own = tracing.self_times(spans)
    assert own["ensemble.averaged_g2"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own["transport.chain_g2"] == pytest.approx((2.0 - 1.0) + (4.0 - 2.0) + (2.0 - 1.0))
    assert own["transport.chain_two_photon_amplitude"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)  # self times partition the root
    incl = tracing.inclusive(spans)
    assert incl["transport.chain_g2"] == pytest.approx(6.0)  # the nested call is not counted twice
    assert tracing.span_calls(spans)["transport.chain_g2"] == 3


def test_tracer_records_parents_and_counts():
    t = tracing.Tracer()
    inner = t.traced("inner", lambda x: x + 1)
    outer = t.traced("outer", lambda x: inner(inner(x)))
    counted = t.counted("fit", lambda ok: 1 if ok else 1 / 0)
    assert outer(1) == 3
    counted(True)
    with pytest.raises(ZeroDivisionError):
        counted(False)
    spans = t.spans
    assert [s["name"] for s in spans] == ["outer", "inner", "inner"]
    assert spans[1]["parent"] == spans[2]["parent"] == spans[0]["id"]
    assert t.counts == {"fit.calls": 2, "fit.failures": 1}


def test_layer_metric_names_match_spec():
    produced = set(tracing.layer_metrics([], {}))
    added_by_runner = {"cli.import_s", "trace.overhead_s"}
    assert produced | added_by_runner == {m["name"] for m in SPEC["per_layer"]}


def _fake_curve(values):
    return SimpleNamespace(values=np.asarray(values, dtype=float))


def test_perturbed_model_outputs_fail_their_checks():
    ref = wl.load_reference()
    curves = ref["averaged_curves"]
    out = {float(od): (_fake_curve(c["averaged"]), _fake_curve(c["ideal"]))
           for od, c in curves.items()}
    assert all(ok for _, ok, _ in wl.check_averaged_curves(None, out, ref, None))
    bumped = np.array(curves["5.13"]["averaged"]) * (1.0 + 1e-6)
    out[5.13] = (_fake_curve(bumped), out[5.13][1])
    results = wl.check_averaged_curves(None, out, ref, None)
    assert [label for label, ok, _ in results if not ok] == ["averaged od 5.13"]

    rows = ref["oracle_sweep"]["0.004"]
    assert wl.rows_match(rows, rows)
    broken = [list(r) for r in rows]
    broken[10][3] *= 1.0 + 1e-6
    assert not wl.rows_match(broken, rows)
    broken = [list(r) for r in rows]
    broken[10][3] = None
    assert not wl.rows_match(broken, rows)

    orc = np.linspace(0.2, 1.0, 50)
    assert wl.oracle_matches_chain(orc, orc * (1.0 + 5e-4))
    assert not wl.oracle_matches_chain(orc, orc * (1.0 + 5e-3))


def test_perturbed_fit_fails_its_check():
    true = 0.3255
    assert wl.fit_within(true + 0.1, 0.03, true)
    assert not wl.fit_within(true + (wl.FIT_SIGMAS + 1) * 0.03, 0.03, true)
    assert not wl.fit_within(1.0, 0.03, true)  # the dip is gone
    assert not wl.fit_within(true, None, true)
    assert not wl.fit_within(true, float("nan"), true)
    # at OD 3.15 the dip is about four a_err deep; losing it must still fail
    shallow = 0.8429
    assert wl.fit_within(shallow + 0.06, 0.04, shallow)
    assert wl.fit_within(shallow - 0.25, 0.04, shallow)  # the heavy low tail
    assert not wl.fit_within(1.0, 0.04, shallow)
    assert not wl.fit_within(1.0, 0.5, shallow)  # an inflated a_err does not hide it


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, list(base), 0.1, True) == "unchanged"
    assert compare.verdict(base, [v * 1.5 for v in base], 0.1, True) == "worse"
    assert compare.verdict(base, [v * 0.5 for v in base], 0.1, True) == "better"
    assert compare.verdict(base, [5.0, 15.0, 10.0, 6.0, 14.0], 0.1, True) == "unresolved"
    assert compare.verdict(base, [v * 1.5 for v in base], 0.1, False) == "better"


def _crashed_run(workload):
    metrics = {m["name"]: {"value": None, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"summary": {"workload": workload, "trace": 0},
            "result": {"correct": False, "attempted": 1, "failed": 1, "metrics": metrics}}


def test_crashed_runs_are_reported_not_fatal(capsys):
    import run

    ok = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    good = {"summary": {"workload": "averaged_curves", "trace": 0},
            "result": {"correct": True, "attempted": 4, "failed": 0, "metrics": ok}}
    runs = [good, _crashed_run("averaged_curves"), _crashed_run("oracle_sweep"),
            _crashed_run("oracle_sweep")]
    run.print_table(SPEC, runs)
    table = capsys.readouterr().out
    assert "averaged_curves    failed_fraction        0.2000" in table
    assert "oracle_sweep       failed_fraction        1.0000" in table
    assert "oracle_sweep       wall_s                    n/a" in table
    doc = {"runs": runs}
    assert compare.values(doc, "averaged_curves", "wall_s") == [1.0]
    assert compare.values(doc, "oracle_sweep", "wall_s") == []


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "averaged_curves",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_every_workload_emits_spec_metrics(trace, section):
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in SPEC["workloads"]:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                               w["name"], "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
