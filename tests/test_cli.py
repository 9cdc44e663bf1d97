"""Command-line interface: outputs, config resolution, exit codes, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from chiralchain import (
    DataError,
    PhysicalParams,
    TauGrid,
    chain_g2,
    chain_g2_zero,
)
from chiralchain.cli import main


def run(tmp_path, *args):
    return main([str(a) for a in args])


def _package_env():
    """Environment for a child interpreter that imports this checkout's package."""
    import chiralchain
    src = os.path.dirname(os.path.dirname(chiralchain.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_simulate_single_curve(tmp_path):
    out = tmp_path / "curve.csv"
    assert run(tmp_path, "simulate", "--beta", 0.0081, "--od", 3.15,
               "--output", out) == 0
    header, rows = _read_csv(out)
    assert header == ["tau_ns", "tau_gamma", "g2"]
    assert len(rows) % 2 == 1  # two-sided, odd bin count around tau = 0
    tau_gamma = np.array([float(r[1]) for r in rows])
    g2 = np.array([float(r[2]) for r in rows])
    mid = np.argmin(np.abs(tau_gamma))
    assert tau_gamma[mid] == 0.0
    assert g2[mid] == pytest.approx(0.843, abs=0.002)
    np.testing.assert_allclose(g2, g2[::-1])  # even in tau
    # tau_ns column is the natural column scaled by 1/Gamma in ns
    tau_ns = np.array([float(r[0]) for r in rows])
    np.testing.assert_allclose(tau_ns, tau_gamma * 1e3 / (2 * np.pi * 5.2), rtol=1e-12)
    sidecar = json.loads((tmp_path / "curve.csv.config.json").read_text())
    assert sidecar["command"] == "simulate"
    assert sidecar["params"]["beta"] == {"value": 0.0081, "source": "flag"}


def test_simulate_four_panel_preset(tmp_path):
    stem = tmp_path / "panel.csv"
    assert run(tmp_path, "simulate", "--od", 3.15, "--od", 5.13, "--od", 5.88,
               "--od", 6.75, "--kind", "both", "--tau-max", 8, "--n-points", 81,
               "--output", stem) == 0
    files = sorted(p.name for p in tmp_path.glob("panel_*.csv"))
    assert len(files) == 8
    assert "panel_od6.75_averaged.csv" in files
    _, rows = _read_csv(tmp_path / "panel_od6.75_averaged.csv")
    center = [float(r[2]) for r in rows if float(r[1]) == 0.0]
    assert 17.0 < center[0] < 27.0


def test_simulate_flat_for_empty_chain(tmp_path):
    out = tmp_path / "flat.csv"
    assert run(tmp_path, "simulate", "--n-atoms", 0, "--output", out) == 0
    _, rows = _read_csv(out)
    assert all(float(r[2]) == 1.0 for r in rows)


def test_simulate_parameter_errors(tmp_path):
    assert run(tmp_path, "simulate", "--beta", 0.7, "--od", 3.0) == 2
    assert run(tmp_path, "simulate") == 2
    assert run(tmp_path, "simulate", "--od", 1.0, "--n-atoms", 5) == 2
    assert run(tmp_path, "simulate", "--od", 1.0, "--kind", "weird") == 2


def test_simulate_averages_from_an_atom_number(tmp_path, capsys):
    # an atom number is averaged over the campaign bin of its OD, N * od_per_atom
    assert run(tmp_path, "simulate", "--n-atoms", 150, "--kind", "both",
               "--output", tmp_path / "s.csv") == 0
    assert "averaged curve, N=150, g2(0)=0.385724" in capsys.readouterr().out
    _, rows = _read_csv(tmp_path / "s_n150_averaged.csv")
    assert [float(r[2]) for r in rows if float(r[1]) == 0.0] == [pytest.approx(0.385724, abs=1e-6)]


@pytest.mark.parametrize("args, code", [
    (["simulate", "--kind", "averaged", "--od", 9], "od-outside-scheme"),
    (["synth"], "no-configuration"),
    (["simulate", "--config", "ARRAY"], "config-invalid"),
    (["oracle", "--n-atoms", 0], "no-emitters"),
    (["sweep", "--averaged", 7, "--od-max", 1], "bad-averaged"),
    (["synth", "--averaged", -3, "--od", 3], "bad-averaged"),
    (["sweep", "--config", "AVERAGED", "--od-max", 1], "bad-averaged"),
    (["synth", "--config", "AVERAGED", "--od", 3], "bad-averaged"),
], ids=["od-outside-scheme", "no-configuration", "config-array", "oracle-no-emitter",
        "sweep-averaged-7", "synth-averaged-minus-3", "sweep-config-averaged-2",
        "synth-config-averaged-2"])
def test_refusals_exit_2_before_writing(tmp_path, capsys, args, code):
    array = _config(tmp_path, [1, 2])
    averaged = tmp_path / "averaged.json"
    averaged.write_text(json.dumps({"averaged": 2}))
    args = [{"ARRAY": array, "AVERAGED": averaged}.get(a, a) for a in args]
    capsys.readouterr()
    assert run(tmp_path, *args, "--output", tmp_path / "out.csv") == 2
    assert f"[{code}]" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([array, averaged])


def test_synth_checks_kind_before_the_model(tmp_path, capsys):
    # at N = 5000 the chain is dark, so building the curve first would fail
    # with vanishing-transmission before the kind was read
    for n in (5, 5000):
        out = tmp_path / f"bogus{n}.csv"
        assert run(tmp_path, "synth", "--kind", "bogus", "--n-atoms", n, "--output", out) == 2
        assert "[bad-kind]" in capsys.readouterr().err
        assert not out.exists()


def test_config_file_resolution(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 0.01, "od": 2.0, "n_points": 41, "tau_max": 4.0}))
    out = tmp_path / "c.csv"
    assert run(tmp_path, "simulate", "--config", cfg, "--od", 1.0,
               "--output", out) == 0
    side = json.loads((tmp_path / "c.csv.config.json").read_text())
    p = side["params"]
    assert p["od"] == {"value": [1.0], "source": "flag"}  # flag beats config
    assert p["beta"] == {"value": 0.01, "source": "config"}
    assert p["detuning"]["source"] == "default"
    # a JSON number without a fraction is an integer
    cfg.write_text(json.dumps({"od": 2.0, "n_points": 41.0, "tau_max": 4.0}))
    assert run(tmp_path, "simulate", "--config", cfg, "--output", out) == 0
    side = json.loads((tmp_path / "c.csv.config.json").read_text())
    assert side["params"]["n_points"] == {"value": 41, "source": "config"}
    assert run(tmp_path, "simulate", "--config", tmp_path / "missing.json") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(tmp_path, "simulate", "--config", bad, "--od", 1.0) == 2


def _config(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return cfg


@pytest.mark.parametrize("doc", [{"seed": 1.7}, {"seed": float("inf")}, {"n_points": True},
                                 {"duration": True}, {"duration": 10**400}],
                         ids=["int-fraction", "int-infinity", "int-bool", "float-bool",
                              "float-overflow"])
def test_config_numbers_are_as_strict_as_the_flags(tmp_path, capsys, doc):
    # int() takes 1.7 and True as 1 and overflows on an infinity, float()
    # takes True as 1.0 and overflows on a JSON integer past its range;
    # --seed 1.7, --duration true and --duration 1e400 exit 2, so do these
    out = tmp_path / "s.csv"
    assert run(tmp_path, "synth", "--config", _config(tmp_path, {"duration": 1.0, **doc}),
               "--od", 3.0, "--output", out) == 2
    assert "[bad-config-value]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, args", [
    ("curve_output", ["analyze", "--input", "h.csv"]),
    ("pulse_period_ns", ["analyze", "--input", "h.csv"]),
    ("fit_points", ["sweep", "--od-max", 1.0, "--averaged", 0]),
    ("od", ["simulate", "--n-atoms", 5, "--n-points", 11]),
])
def test_config_null_is_not_given(tmp_path, monkeypatch, field, args):
    # a null was read as None: float(None) refused it, and str(None) named
    # the curve output and the points file "None"
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "synth", "--od", 3.0, "--duration", 5.0, "--output", "h.csv") == 0
    cfg = _config(tmp_path, {field: None})
    before = set(os.listdir())
    assert run(tmp_path, *args, "--config", cfg, "--output", "out") == 0
    assert set(os.listdir()) - before == {"out", "out.config.json"}
    side = json.loads((tmp_path / "out.config.json").read_text())
    assert side["params"][field] == {"value": None, "source": "default"}


@pytest.mark.parametrize("text", [b"[" * 100_000, b'{"od": 1' + b"0" * 5000 + b"}",
                                  b'{"od": 3\xff}'],
                         ids=["nested", "5001-digits", "not-utf8"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    # json.load raises RecursionError, the integer digit limit's ValueError
    # and UnicodeDecodeError, none a JSONDecodeError: these ended in a
    # traceback (exit 1) or in exit 4 malformed-value
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert run(tmp_path, "simulate", "--config", cfg, "--output", tmp_path / "x.csv") == 2
    assert "[config-invalid]" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("args, text, code", [
    (["analyze"], "a" * 200_000 + "\n1,2\n", "unknown-format"),
    (["fit-beta", "--od0", 4.0], '"' + "a" * 200_000 + '",1\n1,2\n', "bad-saturation-file"),
], ids=["analyze-header", "fit-beta-table"])
def test_csv_field_past_the_size_limit_exits_4(tmp_path, capsys, args, text, code):
    # csv.reader refuses a field of more than 131072 bytes with csv.Error,
    # which ended in a traceback (exit 1)
    src = tmp_path / "big.csv"
    src.write_text(text)
    assert run(tmp_path, *args, "--input", src, "--output", tmp_path / "out.json") == 4
    assert f"[{code}]" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("args", [
    ["synth", "--od", 3.0, "--seed", -1],
    ["synth", "--kind", "timetags", "--od", 3.0, "--duration", 1.0, "--seed", -2],
    ["analyze", "--seed", -1],
], ids=["synth-histogram", "synth-timetags", "analyze"])
def test_negative_seed_exits_2(tmp_path, capsys, args):
    # numpy refuses a negative seed with a ValueError, which exited 4
    hist = tmp_path / "h.csv"
    assert run(tmp_path, "synth", "--od", 3.0, "--duration", 5.0, "--output", hist) == 0
    before = sorted(tmp_path.iterdir())
    inputs = ["--input", hist] if args[0] == "analyze" else []
    assert run(tmp_path, *args, *inputs, "--output", tmp_path / "out") == 2
    assert "[bad-seed]" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["synth", "--od", 3.0, "--duration", 5.0, "--seed", 7]
    assert run(tmp_path, *args, "--output", a) == 0
    assert run(tmp_path, *args, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()
    side_a = json.loads((tmp_path / "a.csv.config.json").read_text())
    side_b = json.loads((tmp_path / "b.csv.config.json").read_text())
    side_a["params"].pop("output"), side_b["params"].pop("output")
    assert side_a == side_b


def test_sweep_table_and_beta_fit(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(tmp_path, "sweep", "--od-min", 0, "--od-max", 3, "--od-step", 0.5,
               "--output", out) == 0
    header, rows = _read_csv(out)
    assert header == ["od", "n_mean", "g2_0_ideal", "g2_0_averaged"]
    assert len(rows) == 7
    assert float(rows[0][2]) == 1.0

    # measured points digitized from the ideal curve at beta = 0.0081
    from chiralchain import PhysicalParams, chain_g2_zero, od_to_atoms
    pts = tmp_path / "points.csv"
    with open(pts, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["od", "g2_0"])
        for od in np.arange(0.5, 5.01, 0.5):
            n = int(round(od_to_atoms(float(od), 0.0081)))
            w.writerow([od, chain_g2_zero(PhysicalParams(0.0081, n))])
    out2 = tmp_path / "sweepfit.csv"
    assert run(tmp_path, "sweep", "--od-min", 1, "--od-max", 2, "--od-step", 0.5,
               "--fit-points", pts, "--output", out2) == 0
    fit = json.loads((tmp_path / "sweepfit.csv.betafit.json").read_text())
    assert fit["beta"] == pytest.approx(0.0081, abs=0.001)
    assert fit["n_points"] == 10


def test_sweep_rejects_bad_grid(tmp_path):
    assert run(tmp_path, "sweep", "--od-step", -1) == 2
    assert run(tmp_path, "sweep", "--od-min", 5, "--od-max", 1) == 2
    assert run(tmp_path, "sweep", "--od-max", 12) == 2


@pytest.mark.parametrize("args,code", [
    (["simulate", "--od", 3.0, "--gamma-mhz", "nan"], "gamma-not-positive"),
    (["analyze", "--input", "HIST", "--gamma-mhz", "nan", "--curve-output", "OUT/curve.csv"],
     "gamma-not-positive"),
    (["synth", "--kind", "timetags", "--od", 3.0, "--gamma-mhz", "inf"], "gamma-not-positive"),
    (["synth", "--od", 3.0, "--duration", "nan"], "rates-not-positive"),
    (["synth", "--kind", "timetags", "--od", 3.0, "--rate1", "nan"], "rates-not-positive"),
    (["sweep", "--od-step", "nan"], "bad-od-step"),
    (["sweep", "--od-max", "nan"], "bad-od-grid"),
    (["sweep", "--detuning", "nan"], "detuning-not-finite"),
    # flags the command does not compute with
    (["analyze", "--input", "HIST", "--gamma-mhz", "nan"], "gamma-not-positive"),
    (["sweep", "--averaged", 0, "--gamma-mhz", "inf"], "gamma-not-positive"),
    (["simulate", "--od", 3.0, "--spread", "nan"], "bad-spread"),
    (["synth", "--kind", "timetags", "--od", 3.0, "--bin-width-ns", "nan"], "bad-bin-width"),
    (["simulate", "--od", "inf"], "bad-od"),
    # finite values that size an array or a count beyond what the machine holds
    (["synth", "--od", 3.0, "--tau-max-ns", 1e15], "bad-tau-max"),
    (["synth", "--od", 3.0, "--tau-max-ns", 1e30], "bad-tau-max"),
    (["analyze", "--input", "TAGS", "--tau-max-ns", 1e30], "bad-tau-max"),
    (["sweep", "--averaged", 0, "--od-step", 1e-12], "bad-od-step"),
    (["sweep", "--od-step", 1e-300], "bad-od-step"),
    (["synth", "--od", 3.0, "--duration", 1e30], "counts-overflow"),
    (["simulate", "--od", 3.0, "--n-points", 10**12], "bad-n-points"),
    (["oracle", "--n-atoms", 2, "--n-points", 10**12], "bad-n-points"),
    (["simulate", "--od", 3.0, "--n-points", -5], "grid-too-small"),
    (["analyze", "--input", "HIST", "--n-bootstrap", 10**12], "too-many-samples"),
    # finite values that make no usable quantity: no OD per atom, an infinite
    # 1/Gamma in ns, run weights that overflow
    (["sweep", "--beta", 5e-324], "beta-out-of-range"),
    (["simulate", "--od", 3.0, "--gamma-mhz", 5e-324], "gamma-not-positive"),
    (["sweep", "--loading-gain", 1000], "bad-loading"),
    # a largest delay that is finite in units of 1/Gamma but not in ns
    (["simulate", "--n-atoms", 1, "--tau-max", 1e308, "--n-points", 3], "grid-not-finite"),
])
def test_non_finite_numbers_exit_2(tmp_path, capsys, args, code):
    hist = tmp_path / "hist.csv"
    tags = tmp_path / "tags.csv"
    if "HIST" in args:
        assert run(tmp_path, "synth", "--od", 3.0, "--output", hist) == 0
    if "TAGS" in args:
        assert run(tmp_path, "synth", "--kind", "timetags", "--od", 3.0, "--duration", 1,
                   "--output", tags) == 0
    out = tmp_path / "out"
    out.mkdir()
    args = [str(a).replace("HIST", str(hist)).replace("TAGS", str(tags)).replace("OUT", str(out))
            for a in args]
    capsys.readouterr()
    assert run(tmp_path, *args, "--output", out / "result") == 2
    assert f"[{code}]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["simulate", "--od", 5.13, "--kind", "ideal"],
    ["sweep", "--averaged", 0],
    ["synth", "--od", 5.13],
])
@pytest.mark.parametrize("campaign,code", [
    (["--spread", 5], "bad-spread"),
    (["--budget", -1], "bad-photon-budget"),
    (["--loading-gain", -1], "bad-loading"),
    (["--loading-max-od", 3], "bad-loading"),
])
def test_out_of_range_campaign_exits_2(tmp_path, capsys, command, campaign, code):
    # the campaign flags are checked on every command that takes them, also
    # where no averaged curve is computed, and before any file is written
    out = tmp_path / "out"
    out.mkdir()
    assert run(tmp_path, *command, *campaign, "--output", out / "result") == 2
    assert f"[{code}]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_json_outputs_are_strict(tmp_path, capsys):
    from chiralchain.cli import _COMMANDS, _NOT_FINITE, _write_json
    floats = {p.name for params, _, _ in _COMMANDS.values() for p in params if p.ptype is float}
    assert floats == set(_NOT_FINITE)  # every float flag has its error code
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gamma_mhz": NaN}')  # Python's json reads the bare token
    out = tmp_path / "out"
    out.mkdir()
    assert run(tmp_path, "simulate", "--od", 3.0, "--config", cfg,
               "--output", out / "curve.csv") == 2
    assert "[gamma-not-positive]" in capsys.readouterr().err
    with pytest.raises(ValueError):
        _write_json(str(out / "doc.json"), {"value": float("nan")})
    assert list(out.iterdir()) == []


def test_oracle_command_single_emitter_limit(tmp_path):
    out = tmp_path / "orc.csv"
    assert run(tmp_path, "oracle", "--beta", 1.0, "--n-atoms", 1,
               "--tau-max", 4, "--n-points", 41, "--output", out) == 0
    _, rows = _read_csv(out)
    center = [float(r[2]) for r in rows if float(r[1]) == 0.0]
    assert center[0] == pytest.approx(9.0, abs=1e-3)


def test_synth_analyze_round_trip(tmp_path):
    hist = tmp_path / "h.csv"
    assert run(tmp_path, "synth", "--od", 4.0, "--rate1", 4e4, "--rate2", 4e4,
               "--duration", 120, "--seed", 3, "--output", hist) == 0
    header, rows = _read_csv(hist)
    assert header == ["tau_ns", "counts"]
    rep = tmp_path / "fit.json"
    curve = tmp_path / "norm.csv"
    assert run(tmp_path, "analyze", "--input", hist, "--output", rep,
               "--curve-output", curve) == 0
    fit = json.loads(rep.read_text())
    assert set(fit) == {"A", "a_err", "gamma_fit_per_ns", "g2_zero",
                        "window_ns", "n_bootstrap", "seed",
                        "gamma_at_edge", "n_failed", "n_at_edge"}
    side = json.loads((tmp_path / "fit.json.config.json").read_text())
    assert side["command"] == "analyze"
    from chiralchain import PhysicalParams, chain_g2_zero, od_to_atoms
    true = chain_g2_zero(PhysicalParams(0.0081, int(round(od_to_atoms(4.0, 0.0081)))))
    assert fit["g2_zero"] == pytest.approx(true, abs=4 * fit["a_err"])
    header, _ = _read_csv(curve)
    assert header == ["tau_ns", "tau_gamma", "g2"]


def test_analyze_timetag_input(tmp_path):
    tags = tmp_path / "tags.csv"
    assert run(tmp_path, "synth", "--od", 3.0, "--kind", "timetags",
               "--duration", 20, "--seed", 4, "--output", tags) == 0
    header, _ = _read_csv(tags)
    assert header == ["detector_id", "timestamp_ns"]
    rep = tmp_path / "fit.json"
    assert run(tmp_path, "analyze", "--input", tags, "--output", rep) == 0
    fit = json.loads(rep.read_text())
    assert 0.0 < fit["g2_zero"] < 1.0


def test_analyze_auto_format_reads_quoted_header(tmp_path):
    tags = tmp_path / "tags.csv"
    assert run(tmp_path, "synth", "--od", 3.0, "--kind", "timetags",
               "--duration", 20, "--seed", 4, "--output", tags) == 0
    quoted = tmp_path / "quoted.csv"
    body = tags.read_text().split("\n", 1)[1]
    quoted.write_text('"detector_id","timestamp_ns"\n' + body)
    for src in (tags, quoted):
        assert run(tmp_path, "analyze", "--input", src,
                   "--output", src.with_suffix(".json")) == 0
    assert quoted.with_suffix(".json").read_text() == tags.with_suffix(".json").read_text()


def test_synth_thinning_overflow_exits_3(tmp_path):
    # at N = 600 (OD 19.6) g2 peaks near 1e11, so thinning would need ~9e10
    # candidate tags (740 GB) in one second: more than the machine holds
    env = _package_env()
    out = tmp_path / "tags.csv"
    proc = subprocess.run([sys.executable, "-m", "chiralchain.cli", "synth", "--kind", "timetags",
                           "--n-atoms", "600", "--duration", "1", "--output", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "thinning-overflow" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_analyze_tau_max_past_int64_exits_2(tmp_path):
    # an outer bin edge of 1.5e19 ns is past the int64 delays the pair search
    # compares: refused as a parameter error, not an OverflowError traceback
    env = _package_env()
    tags, out = tmp_path / "tags.csv", tmp_path / "fit.json"
    tags.write_bytes(b"detector_id,timestamp_ns\r\n0,5\r\n1,7\r\n")
    proc = subprocess.run([sys.executable, "-m", "chiralchain.cli", "analyze", "--input", str(tags),
                           "--bin-width-ns", "1e19", "--tau-max-ns", "1e19", "--output", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "[bad-tau-max]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_synth_thinning_overflow_draws_nothing(tmp_path, monkeypatch, capsys):
    # ~1.5e4 candidates (120 kB) against 64 KiB of memory: refused before
    # any array of tags is drawn
    import tracemalloc
    from chiralchain import photonstats
    monkeypatch.setattr(photonstats, "_physical_memory_bytes", lambda: 64.0 * 2**10)
    tracemalloc.start()
    try:
        code = run(tmp_path, "synth", "--kind", "timetags", "--n-atoms", 300,
                   "--duration", 0.5, "--output", tmp_path / "tags.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "thinning-overflow" in capsys.readouterr().err
    assert peak < 16 * 2**20


def test_simulate_chain_too_long_exits_3(tmp_path, monkeypatch, capsys):
    # the pair amplitudes of N = 300 count as 16 N^2 = 1.4 MB: refused against
    # 1 MiB of memory before the chain is filled
    from chiralchain import transport
    monkeypatch.setattr(transport, "_physical_memory_bytes", lambda: float(2**20))
    out = tmp_path / "curve.csv"
    assert run(tmp_path, "simulate", "--n-atoms", 300, "--beta", 2.5e-5, "--output", out) == 3
    assert "[chain-too-long]" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_grid_too_large_exits_3(tmp_path, monkeypatch, capsys):
    # N = 10 on 10**6 delays needs an 80 MB propagator table: refused against
    # 16 MiB of memory before the table is filled
    from chiralchain import transport
    monkeypatch.setattr(transport, "_physical_memory_bytes", lambda: float(2**24))
    out = tmp_path / "curve.csv"
    assert run(tmp_path, "simulate", "--n-atoms", 10, "--n-points", 10**6, "--output", out) == 3
    assert "[grid-too-large]" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_too_large_exits_3(tmp_path, monkeypatch, capsys):
    # N = 3 needs 128 * 7**4 bytes, about 0.31 MB, of solver arrays: refused
    # against 64 KiB of memory before any generator is built
    from chiralchain import oracle

    def build(*args):
        raise AssertionError("generator built before the memory check")

    monkeypatch.setattr(oracle, "_physical_memory_bytes", lambda: 64.0 * 2**10)
    monkeypatch.setattr(oracle, "CascadedGenerator", build)
    out = tmp_path / "orc.csv"
    assert run(tmp_path, "oracle", "--n-atoms", 3, "--output", out) == 3
    assert "[oracle-too-large]" in capsys.readouterr().err
    assert not out.exists()


def test_synth_intensity_clipped_exits_3(tmp_path, capsys):
    # at 3e7/s the detector-0 tags of OD 6.75 leave no uncorrelated level
    out = tmp_path / "tags.csv"
    assert run(tmp_path, "synth", "--kind", "timetags", "--od", 6.75, "--rate1", 3e7,
               "--rate2", 3e7, "--duration", 1, "--output", out) == 3
    assert "[intensity-clipped]" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_data_errors(tmp_path, capsys):
    assert run(tmp_path, "analyze", "--input", tmp_path / "missing.csv") == 4
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("detector_id,timestamp_ns\n0,abc\n")
    assert run(tmp_path, "analyze", "--input", garbled) == 4
    unknown = tmp_path / "unknown.csv"
    unknown.write_text("x,y\n1,2\n")
    assert run(tmp_path, "analyze", "--input", unknown) == 4
    assert run(tmp_path, "analyze") == 2
    short = tmp_path / "short.csv"
    with open(short, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau_ns", "counts"])
        for t in np.arange(-50, 51, 2.0):
            w.writerow([t, 100])
    assert run(tmp_path, "analyze", "--input", short) == 4  # no tail past 200 ns
    for i, body in enumerate(["0,5\r\n1\r\n",  # one-field row
                              "300,5\r\n", "-1,5\r\n",  # ids off the uint8 range
                              "0,5\r\n2,5\r\n",  # no detector 2
                              "0,99999999999999999999\r\n"]):  # past int64
        bad = tmp_path / f"tags{i}.csv"
        bad.write_text("detector_id,timestamp_ns\r\n" + body, newline="")
        assert run(tmp_path, "analyze", "--input", bad) == 4
    capsys.readouterr()
    # each channel alone is sorted, but the file is not
    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("detector_id,timestamp_ns\r\n0,10\r\n1,20\r\n0,15\r\n", newline="")
    assert run(tmp_path, "analyze", "--input", unsorted) == 4
    assert "[timestamps-not-sorted]" in capsys.readouterr().err
    rows = "".join(f"{t:g},100\n" for t in np.arange(-300, 301, 2.0))
    for i, tail in enumerate(["5\n", "400,inf\n", "400,nan\n"]):
        bad = tmp_path / f"hist{i}.csv"
        bad.write_text("tau_ns,counts\n" + rows + tail)
        assert run(tmp_path, "analyze", "--input", bad) == 4


@pytest.mark.parametrize("flags", [("--tail-start-ns", 0), ("--window-ns", 250)],
                         ids=["tail-at-zero", "window-past-tail"])
def test_analyze_window_reaching_the_tail_exits_2(tmp_path, capsys, flags):
    # a fit window that reaches the normalization tail would keep every bin,
    # intermediate delays included: refused before fitting, no report written
    hist = tmp_path / "h.csv"
    assert run(tmp_path, "synth", "--od", 5.13, "--duration", 40, "--seed", 3,
               "--output", hist) == 0
    out = tmp_path / "fit.json"
    assert run(tmp_path, "analyze", "--input", hist, *flags, "--output", out) == 2
    assert "[bad-window]" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_empty_tail_exits_4_at_min_tail_counts_0(tmp_path, capsys):
    # a tail without coincidences has no uncorrelated level to divide by
    hist = tmp_path / "h.csv"
    hist.write_text("tau_ns,counts\n" + "".join(
        f"{t:g},{100 if abs(t) <= 50 else 0}\n" for t in np.arange(-300, 301, 2.0)))
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "analyze", "--input", hist, "--min-tail-counts", 0,
                   "--output", out) == 4
    assert "[tail-underpopulated]" in capsys.readouterr().err
    assert not out.exists()


def test_header_only_timetag_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("detector_id,timestamp_ns\r\n", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "analyze", "--input", empty) == 4
    assert "[tail-underpopulated]" in capsys.readouterr().err


def test_fit_beta_command(tmp_path, capsys):
    from chiralchain import synth_saturation_data
    from chiralchain.cli import _write_csv
    sat = tmp_path / "sat.csv"
    data = synth_saturation_data(0.0083, 4.0, np.geomspace(10.0, 1000.0, 12),
                                 rel_noise=0.02, seed=42)
    _write_csv(str(sat), ["s0", "transmission"], data.s0, data.transmission)
    rep = tmp_path / "beta.json"
    assert run(tmp_path, "fit-beta", "--input", sat, "--od0", 4.0,
               "--output", rep) == 0
    fit = json.loads(rep.read_text())
    assert fit["beta"] == pytest.approx(0.0083, abs=3e-4)
    assert run(tmp_path, "fit-beta", "--input", sat) == 2  # od0 missing
    few = tmp_path / "few.csv"
    few.write_text("s0,transmission\n1,0.5\n2,0.4\n3,0.3\n")
    assert run(tmp_path, "fit-beta", "--input", few, "--od0", 4.0) == 4
    curve = tmp_path / "curve.csv"
    assert run(tmp_path, "simulate", "--n-atoms", 1, "--output", curve) == 0
    capsys.readouterr()
    assert run(tmp_path, "fit-beta", "--input", curve, "--od0", 4.0) == 4
    assert "[bad-saturation-file]" in capsys.readouterr().err
    short_row = tmp_path / "short_row.csv"
    short_row.write_text(sat.read_text() + "2000\n")
    assert run(tmp_path, "fit-beta", "--input", short_row, "--od0", 4.0) == 4


@pytest.mark.parametrize("last_row, code", [
    ("3.0", "malformed-value"),
    ("nan,0.8", "od-out-of-range"),
    ("3.0,nan", "g2-not-finite"),
    ("3.0,inf", "g2-not-finite"),
], ids=["short-row", "nan-od", "nan-g2", "inf-g2"])
def test_fit_points_short_row(tmp_path, capsys, last_row, code):
    # each bad point exits 4 before the sweep table is written
    pts = tmp_path / "points.csv"
    pts.write_text(f"od,g2_0\n1.0,0.95\n2.0,0.9\n{last_row}\n")
    assert run(tmp_path, "sweep", "--od-min", 1, "--od-max", 1, "--averaged", 0,
               "--fit-points", pts, "--output", tmp_path / "s.csv") == 4
    assert f"[{code}]" in capsys.readouterr().err
    assert not list(tmp_path.glob("s.csv*"))


def _csv_write_timetags(path, stream):
    """Reference writer: one csv.writer row per tag, in time order, detector 0 first on ties."""
    tags = sorted([(int(t), 0) for t in stream.t0_ns] + [(int(t), 1) for t in stream.t1_ns])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["detector_id", "timestamp_ns"])
        for t, d in tags:
            w.writerow([d, t])


def _csv_columns(path):
    """Reference reader: the two leading columns as floats, blank rows skipped."""
    _, rows = _read_csv(path)
    rows = [r for r in rows if r]
    return (np.array([float(r[0]) for r in rows]),
            np.array([float(r[1]) for r in rows]))


def _digit_boundaries():
    powers = [10**k for k in range(1, 19)]
    pos = sorted({0, 1, 2**63 - 1} | {p + d for p in powers for d in (-1, 0)})
    return np.array([-(2**63), *(-t for t in reversed(pos) if t), *pos], dtype=np.int64)


def _timetag_streams():
    """Named streams that put the writer's cuts everywhere at its default block."""
    from chiralchain import cli, synth_timetags
    from chiralchain.photonstats import TimeTagStream
    curve = chain_g2(PhysicalParams(0.0081, 100), TauGrid.linear(12.0, 481))
    streams = {
        "synth": synth_timetags(curve, 3e4, 3e4, 1.0, 5),
        "empty": TimeTagStream(np.zeros(0, np.int64), np.zeros(0, np.int64)),
        "one": TimeTagStream(np.zeros(0, np.int64), np.array([12345], np.int64)),
        "ties": TimeTagStream([5, 5, 7, 9, 12, 12], [5, 7, 7, 9, 9, 12]),
    }
    ts = _digit_boundaries()
    streams["boundaries"] = TimeTagStream(ts[0::2], ts[1::2])
    streams["negative"] = TimeTagStream([-1000, 0], [-999, -5])
    block = cli._TAG_BLOCK
    rng = np.random.default_rng(3)
    for label, n in (("", 2 * block), ("_short", 2000)):
        # detector 0 holds 100 times the tags of detector 1
        dense = np.sort(rng.integers(0, 10**6, n))
        streams["dense" + label] = TimeTagStream(dense, np.sort(rng.integers(0, 10**6, n // 100)))
    streams["one_channel"] = TimeTagStream(np.arange(-60, 60) * 7, np.zeros(0, np.int64))
    # one timestamp on both channels more often than a block of either holds
    for label, n in (("", block), ("_short", 7)):
        streams["repeated" + label] = TimeTagStream(np.r_[1, np.full(n + 3, 9), 12],
                                                    np.r_[np.full(n + 5, 9), 10])
    # every timestamp of the sparser channel is also on the denser one, so
    # cuts at either channel fall on ties
    streams["cut_ties_0"] = TimeTagStream(np.arange(150) // 3, np.arange(100) // 2)
    streams["cut_ties_1"] = TimeTagStream(np.arange(100) // 2, np.arange(150) // 3)
    assert streams["synth"].n_tags > 10**4
    return streams


def test_timetag_writer_matches_csv_writer(tmp_path, monkeypatch):
    from chiralchain import cli
    from chiralchain.cli import write_timetags_csv
    block = cli._TAG_BLOCK
    for name, stream in _timetag_streams().items():
        new, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        _csv_write_timetags(ref, stream)
        # blocks of 1, 2 and 7 tags per channel put cuts everywhere, also inside
        # runs of one sign and digit count; the streams of more than a default
        # block, slow to write a tag or two at a time, take blocks of 7 only
        for tags in (block, 7) if stream.n_tags > block else (block, 1, 2, 7):
            monkeypatch.setattr(cli, "_TAG_BLOCK", tags)
            write_timetags_csv(str(new), stream)
            assert new.read_bytes() == ref.read_bytes(), (name, tags)
        back = _read_tags(new)
        assert np.array_equal(back.t0_ns, stream.t0_ns), name
        assert np.array_equal(back.t1_ns, stream.t1_ns), name


@pytest.mark.parametrize("n_tags", [10**6, 4 * 10**6])
def test_timetag_writer_memory_is_bounded(n_tags):
    # the writer holds one block of merged and formatted tags, not copies of
    # the stream: its traced peak does not grow with the tag count
    import tracemalloc
    from chiralchain.cli import write_timetags_csv
    from chiralchain.photonstats import TimeTagStream
    rng = np.random.default_rng(1)
    stream = TimeTagStream(np.sort(rng.integers(0, 4 * 10**10, n_tags // 2)),
                           np.sort(rng.integers(0, 4 * 10**10, n_tags - n_tags // 2)))
    tracemalloc.start()
    try:
        write_timetags_csv(os.devnull, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _short_digits(*channels):
    """True when every timestamp has at most 18 digits, the block parser's limit."""
    return all(np.all((t > -10**18) & (t < 10**18)) for t in channels)


def _join(blocks):
    """One stream of the blocks' channels, joined."""
    from chiralchain.photonstats import TimeTagStream
    empty = np.zeros(0, np.int64)
    return TimeTagStream(np.concatenate([empty] + [b.t0_ns for b in blocks]),
                         np.concatenate([empty] + [b.t1_ns for b in blocks]))


def _read_tags(path):
    """The stream of a time-tag file, as the blocks cli._read_timetags reads, joined."""
    from chiralchain import cli
    return _join(cli._read_timetags(str(path), list))


def _writer_channels(path):
    """The channels of every block _writer_blocks yields, joined; None where it gives up."""
    from chiralchain import cli
    try:
        stream = _join(list(cli._writer_blocks(str(path))))
    except cli._NotWriterFormat:
        return None
    return stream.t0_ns, stream.t1_ns


def test_timetag_reader_block_sizes(tmp_path, monkeypatch):
    # blocks of a few bytes cut inside rows and between tied rows; the block
    # parser takes every file of at most 18-digit timestamps, and the general
    # reader the others
    from chiralchain import cli
    from chiralchain.cli import write_timetags_csv
    default = cli._READ_BLOCK
    for name, stream in _timetag_streams().items():
        path = tmp_path / f"{name}.csv"
        write_timetags_csv(str(path), stream)
        size = path.stat().st_size
        # at most a thousand reads per file and block size
        for nbytes in [n for n in (1, 2, 7, 64, 4099) if 1000 * n >= size] + [default]:
            monkeypatch.setattr(cli, "_READ_BLOCK", nbytes)
            fast = _writer_channels(path)
            assert (fast is not None) == _short_digits(stream.t0_ns, stream.t1_ns), name
            back = _read_tags(path)
            assert np.array_equal(back.t0_ns, stream.t0_ns), (name, nbytes)
            assert np.array_equal(back.t1_ns, stream.t1_ns), (name, nbytes)
            if fast is not None:
                assert fast[0].dtype == fast[1].dtype == np.int64
                assert np.array_equal(fast[0], stream.t0_ns), (name, nbytes)
                assert np.array_equal(fast[1], stream.t1_ns), (name, nbytes)


@pytest.mark.parametrize("row, code", [
    (b'1,"{t}"\r\n', None),
    (b"\r\n", None),
    (b"2,{t}\r\n", "bad-detector-id"),
    (b"0,x\r\n", "malformed-value"),
], ids=["quoted", "blank", "id-2", "x"])
def test_timetag_reader_falls_back_after_writer_blocks(tmp_path, monkeypatch, row, code):
    # one row off the writer's format after dozens of blocks in it: the whole
    # file is read again by the general reader, with its stream or error code
    from chiralchain import cli
    from chiralchain.cli import write_timetags_csv
    from chiralchain.photonstats import TimeTagStream
    rng = np.random.default_rng(7)
    stream = TimeTagStream(np.sort(rng.integers(0, 10**9, 600)),
                           np.sort(rng.integers(0, 10**9, 400)))
    path = tmp_path / "tags.csv"
    write_timetags_csv(str(path), stream)
    lines = path.read_bytes().splitlines(keepends=True)
    t = int(lines[800].split(b",")[1])  # the new row ties with the one before it
    path.write_bytes(b"".join(lines[:801] + [row.replace(b"{t}", b"%d" % t)] + lines[801:]))
    monkeypatch.setattr(cli, "_READ_BLOCK", 256)
    assert _writer_channels(path) is None
    if code is None:
        back = _read_tags(path)
        t1 = np.sort(np.r_[stream.t1_ns, t]) if row.startswith(b"1") else stream.t1_ns
        assert np.array_equal(back.t0_ns, stream.t0_ns)
        assert np.array_equal(back.t1_ns, t1)
    else:
        with pytest.raises(DataError) as err:
            _read_tags(path)
        assert err.value.code == code


def test_timetag_reader_checks_order_across_blocks(tmp_path, monkeypatch):
    # each channel is sorted and so is each block of four 8-byte rows, but the
    # last row of the first block is later than the first row of the second
    from chiralchain import cli
    path = tmp_path / "tags.csv"
    path.write_bytes(b"detector_id,timestamp_ns\r\n0,1000\r\n0,1002\r\n1,1004\r\n0,1006\r\n"
                     b"1,1005\r\n0,1007\r\n1,1008\r\n0,1009\r\n")
    for nbytes in (32, cli._READ_BLOCK):
        monkeypatch.setattr(cli, "_READ_BLOCK", nbytes)
        with pytest.raises(DataError) as err:
            _read_tags(path)
        assert err.value.code == "timestamps-not-sorted"


@pytest.mark.parametrize("t0, t1", [
    ([-(10**18 - 1), 0], [10**18 - 1]),  # 18 digits: the block parser
    ([-(10**18)], [10**18]),  # 19 digits: the general reader
    ([-(2**63), 5], [2**63 - 1]),
])
def test_timetag_reader_int64_extremes(tmp_path, t0, t1):
    from chiralchain.cli import write_timetags_csv
    from chiralchain.photonstats import TimeTagStream
    stream = TimeTagStream(np.array(t0, np.int64), np.array(t1, np.int64))
    path = tmp_path / "tags.csv"
    write_timetags_csv(str(path), stream)
    fast = _writer_channels(path)
    assert (fast is not None) == _short_digits(stream.t0_ns, stream.t1_ns)
    back = _read_tags(path)
    assert back.t0_ns.tolist() == t0 and back.t1_ns.tolist() == t1


@pytest.mark.parametrize("cut", [2, 1], ids=["no-crlf", "no-lf"])
def test_timetag_reader_without_final_line_end(tmp_path, cut):
    path = tmp_path / "tags.csv"
    path.write_bytes(b"detector_id,timestamp_ns\r\n0,5\r\n1,7\r\n0,9\r\n"[:-cut])
    assert _writer_channels(path) is None
    back = _read_tags(path)
    assert back.t0_ns.tolist() == [5, 9] and back.t1_ns.tolist() == [7]


def test_timetag_reader_leading_zeros(tmp_path):
    # leading zeros and -0 parse as np.loadtxt parses them; rows that change
    # width more often than sorted rows without them can go to _read_table
    from chiralchain import cli
    path = tmp_path / "tags.csv"
    path.write_bytes(b"detector_id,timestamp_ns\r\n1,-007\r\n0,-0\r\n0,007\r\n0,12\r\n")
    fast = _writer_channels(path)
    assert fast[0].tolist() == [0, 7, 12] and fast[1].tolist() == [-7]
    back = _read_tags(path)
    assert back.t0_ns.tolist() == [0, 7, 12] and back.t1_ns.tolist() == [-7]
    ts = range(100, 100 + 2 * cli._MAX_RUNS)
    path.write_bytes(b"detector_id,timestamp_ns\r\n"
                     + b"".join(b"0,%0*d\r\n" % (3 + t % 2, t) for t in ts))
    assert _writer_channels(path) is None
    assert _read_tags(path).t0_ns.tolist() == list(ts)


def test_timetag_reader_gives_up_on_a_long_line(tmp_path):
    # CR-only rows after a writer header: one line of 8 MB, which the block
    # parser leaves after its first block instead of gathering it whole
    import tracemalloc
    from chiralchain import cli
    path = tmp_path / "tags.csv"
    n = 8 * 10**6 // 6
    path.write_bytes(b"detector_id,timestamp_ns\r\n" + b"0,123\r" * n)
    tracemalloc.start()
    try:
        assert _writer_channels(path) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * cli._READ_BLOCK
    back = _read_tags(path)
    assert back.t0_ns.size == n and back.t1_ns.size == 0


@pytest.mark.parametrize("n_tags", [10**6, 4 * 10**6])
def test_timetag_reader_memory_is_bounded(tmp_path, n_tags):
    # the block reader holds one block's bytes, row offsets, digits and
    # parsed tags at a time: a use that only counts the tags reads files of
    # 15 and 60 MB within a fixed number of read blocks (about six traced)
    import tracemalloc
    from chiralchain import cli
    from chiralchain.cli import write_timetags_csv
    from chiralchain.photonstats import TimeTagStream
    rng = np.random.default_rng(1)
    stream = TimeTagStream(np.sort(rng.integers(0, 4 * 10**10, n_tags // 2)),
                           np.sort(rng.integers(0, 4 * 10**10, n_tags - n_tags // 2)))
    path = tmp_path / "tags.csv"
    write_timetags_csv(str(path), stream)
    tracemalloc.start()
    try:
        counted = cli._read_timetags(str(path), lambda blocks: sum(b.n_tags for b in blocks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == n_tags
    assert peak <= 8 * cli._READ_BLOCK


@pytest.mark.parametrize("row, code", [
    (b'1,"{t}"\r\n', None),
    (b"2,{t}\r\n", "bad-detector-id"),
    (b"0,x\r\n", "malformed-value"),
], ids=["quoted", "id-2", "x"])
def test_analyze_falls_back_after_writer_blocks(tmp_path, monkeypatch, capsys, row, code):
    # a row off the writer's format after the first block: analyze drops the
    # blocks it has histogrammed and reads the whole file as _read_table reads
    # it, with the exit code, stderr and outputs of that path alone
    from chiralchain import cli, od_to_atoms, synth_timetags
    from chiralchain.cli import write_timetags_csv
    n = int(round(od_to_atoms(3.15, 0.0081)))
    curve = chain_g2(PhysicalParams(0.0081, n), TauGrid.linear(12.0, 481))
    path = tmp_path / "tags.csv"
    write_timetags_csv(str(path), synth_timetags(curve, 3e4, 3e4, 2.0, seed=5))
    lines = path.read_bytes().splitlines(keepends=True)
    at = 100_000  # past the first block of _READ_BLOCK bytes
    assert len(b"".join(lines[:at])) > cli._READ_BLOCK
    t = int(lines[at - 1].split(b",")[1])
    path.write_bytes(b"".join(lines[:at] + [row.replace(b"{t}", b"%d" % t)] + lines[at:]))
    out = tmp_path / "out"
    out.mkdir()
    args = ("analyze", "--input", path, "--curve-output", out / "curve.csv",
            "--output", out / "fit.json")

    def outcome():
        capsys.readouterr()
        result = (run(tmp_path, *args), capsys.readouterr(),
                  {f.name: f.read_bytes() for f in sorted(out.iterdir())})
        for f in out.iterdir():
            f.unlink()
        return result

    yielded = []
    writer_blocks = cli._writer_blocks

    def counted(path):
        for block in writer_blocks(path):
            yielded.append(block.n_tags)
            yield block

    def give_up(path):
        raise cli._NotWriterFormat
        yield

    monkeypatch.setattr(cli, "_writer_blocks", counted)
    got = outcome()
    assert len(yielded) >= 1
    monkeypatch.setattr(cli, "_writer_blocks", give_up)
    assert got == outcome()
    if code is None:
        assert got[0] == 0 and set(got[2]) == {"curve.csv", "curve.csv.config.json",
                                               "fit.json", "fit.json.config.json"}
    else:
        assert got[0] == 4 and f"[{code}]" in got[1].err and got[2] == {}


@pytest.mark.parametrize("flags, code", [
    ((), "malformed-value"),
    (("--pulse-period-ns", 5000), "bad-gate"),
    (("--bin-width-ns", 1e19, "--tau-max-ns", 1e19), "bad-tau-max"),
])
def test_analyze_checks_histogram_flags_before_reading_tags(tmp_path, capsys, flags, code):
    # the histogram's parameters are checked before the first block is read,
    # so a bad file with a bad flag exits 2, where reading first gave 4
    bad = tmp_path / "tags.csv"
    bad.write_bytes(b"detector_id,timestamp_ns\r\n0,5\r\n0,x\r\n")
    out = tmp_path / "fit.json"
    assert run(tmp_path, "analyze", "--input", bad, *flags, "--output", out) == (
        4 if code == "malformed-value" else 2)
    assert f"[{code}]" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_histogram_memory_does_not_grow_with_the_file(tmp_path):
    # analyze histograms a writer-format file while it reads it, one block of
    # _READ_BLOCK bytes and a short carry at a time.  The traced peak of the
    # read and histogram measured 6.25 MiB at 10 s and 6.53 MiB at 40 s (a
    # block whose timestamps change digit count holds two runs); joining the
    # stream first took 9.5 and 29.3 MiB
    import functools
    import tracemalloc
    from chiralchain import cli, photonstats
    from chiralchain.photonstats import TimeTagStream
    peaks = {}
    for duration in (10, 40):
        rng = np.random.default_rng(1)
        n = int(3e4 * duration)
        path = tmp_path / f"tags{duration}.csv"
        cli.write_timetags_csv(str(path), TimeTagStream(
            np.sort(rng.integers(0, duration * 10**9, n)),
            np.sort(rng.integers(0, duration * 10**9, n))))
        for period in (None, 10_000.0):
            use = functools.partial(photonstats.histogram_timetags, pulse_period_ns=period)
            tracemalloc.start()
            try:
                hist = cli._read_timetags(str(path), use)
                peaks[duration, period] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert hist.total_counts > 0
        path.unlink()
    for period in (None, 10_000.0):
        assert peaks[40, period] <= peaks[10, period] + 2**20, peaks


@pytest.mark.parametrize("flags", [
    (),
    ("--averaged", 0),
    ("--od-max", 2e-9, "--od-step", 1e-9),  # short chains on the grid, a long prior
], ids=["averaged", "ideal", "tiny-ods"])
def test_sweep_tiny_beta_exits_3(tmp_path, monkeypatch, capsys, flags):
    # at beta 1e-10 OD 7 is N = 1.75e10, and the campaign prior reaches 3.7e10:
    # refused as chain-too-long before the prior or the lengths are allocated
    import tracemalloc
    from chiralchain import transport
    monkeypatch.setattr(transport, "_physical_memory_bytes", lambda: float(2**30))
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        code = run(tmp_path, "sweep", "--beta", 1e-10, *flags, "--output", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "[chain-too-long]" in capsys.readouterr().err
    assert peak < 2**20
    assert not out.exists()


def test_csv_outputs_are_strict(tmp_path, monkeypatch, capsys):
    # a non-finite value in a table is refused before its file is opened
    from chiralchain import cli
    from chiralchain.ensemble import SweepRow
    monkeypatch.setattr(cli, "sweep_g2_vs_od", lambda *args, **kwargs: [
        SweepRow(0.0, 0.0, 1.0, 1.0), SweepRow(0.25, 30.8, math.nan, None)])
    out = tmp_path / "out"
    out.mkdir()
    assert run(tmp_path, "sweep", "--output", out / "sweep.csv") == 3
    assert "[non-finite-output]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_synth_timetags_write_fits_the_thinning_guard(monkeypatch):
    # the CLI synth path, synthesis then the CSV write, peaks within the
    # bytes that the thinning-overflow guard charges: with that peak as the
    # installed memory, the guard refuses the run.  On short runs the
    # writer's block buffers outweigh the tags
    import tracemalloc
    from chiralchain import NumericalError, od_to_atoms, photonstats, synth_timetags
    from chiralchain.cli import write_timetags_csv
    n = int(round(od_to_atoms(5.13, 0.0081)))
    curve = chain_g2(PhysicalParams(0.0081, n), TauGrid.linear(12.0, 481))
    for duration in (2.0, 5.0, 10.0, 40.0):
        tracemalloc.start()
        try:
            stream = synth_timetags(curve, 3e4, 3e4, duration, seed=1)
            write_timetags_csv(os.devnull, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del stream
        with monkeypatch.context() as m:
            m.setattr(photonstats, "_physical_memory_bytes", lambda: float(peak))
            with pytest.raises(NumericalError) as err:
                synth_timetags(curve, 3e4, 3e4, duration, seed=1)
        assert err.value.code == "thinning-overflow", duration


_BOUNDARIES = _digit_boundaries().tolist()
_CHANNEL = st.lists(st.one_of(st.integers(-40, 40), st.sampled_from(_BOUNDARIES),
                              st.integers(-(2**63), 2**63 - 1)), max_size=30).map(sorted)


@settings(max_examples=80, deadline=None)
@given(t0=_CHANNEL, t1=_CHANNEL)
@example(t0=[], t1=[-(2**63), 2**63 - 1])  # one step past 2**63 between neighbours
def test_timetag_csv_round_trip(t0, t1):
    # small stamps make cross-detector ties common; the boundaries change the
    # digit count, so the writer's fixed-width blocks split there
    from chiralchain.cli import write_timetags_csv
    from chiralchain.photonstats import TimeTagStream
    stream = TimeTagStream(np.array(t0, np.int64), np.array(t1, np.int64))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tags.csv")
        write_timetags_csv(path, stream)
        header, rows = _read_csv(path)
        back = _read_tags(path)
    assert header == ["detector_id", "timestamp_ns"]
    # time order, detector 0 first on equal timestamps
    assert [(int(t), int(d)) for d, t in rows] == sorted([(t, 0) for t in t0] + [(t, 1) for t in t1])
    assert back.t0_ns.tolist() == t0 and back.t1_ns.tolist() == t1


_TAGS_HEADER = "detector_id,timestamp_ns"


@pytest.mark.parametrize("body,t0,t1", [
    # quoted header field holding a newline: one record on two physical lines
    ('detector_id,"timestamp_ns\n"\r\n0,5\r\n1,7\r\n', [5], [7]),
    (_TAGS_HEADER + "\r0,5\r1,7\r0,9\r", [5, 9], [7]),  # CR-only line endings
    (_TAGS_HEADER + "\r\n\r\n0,5\r\n\r\n\r\n1,7\r\n\r\n", [5], [7]),  # blank rows
    (_TAGS_HEADER + ",x\r\n0,5,abc\r\n1,7,\r\n1,8,1,2,3\r\n", [5], [7, 8]),  # extra columns
    ('"detector_id","timestamp_ns"\r\n"0","5"\r\n1,"7"\r\n', [5], [7]),  # quoted values
    (_TAGS_HEADER + "\r\n", [], []),  # header only
    (_TAGS_HEADER, [], []),  # header only, no line end
    (_TAGS_HEADER + "\r0,5\r\n1,7\r\n", [5], [7]),  # lone-CR header, then CRLF rows
])
def test_timetag_reader_edge_cases(tmp_path, body, t0, t1):
    path = tmp_path / "tags.csv"
    path.write_text(body, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream = _read_tags(path)
    assert stream.t0_ns.tolist() == t0 and stream.t1_ns.tolist() == t1


def test_reader_skips_every_header_line(tmp_path, capsys):
    from chiralchain.cli import read_histogram_csv
    hist = tmp_path / "hist.csv"
    hist.write_text('tau_ns,"counts\n\n"\n-2,3.9\n0,1\n2,7\n', newline="")
    h = read_histogram_csv(str(hist))
    assert h.tau_ns.tolist() == [-2.0, 0.0, 2.0] and h.counts.tolist() == [3, 1, 7]
    # a malformed row after a two-line header is still reported as such
    bad = tmp_path / "bad.csv"
    bad.write_text('detector_id,"timestamp_ns\n"\r\n0,5\r\n1,x\r\n', newline="")
    capsys.readouterr()
    assert run(tmp_path, "analyze", "--input", bad, "--output", tmp_path / "fit.json") == 4
    assert "[malformed-value]" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_table_readers_match_csv_module(tmp_path):
    from chiralchain import synth_histogram, synth_saturation_data
    from chiralchain.cli import (_read_table, _write_csv, read_histogram_csv,
                                 read_saturation_csv, write_histogram_csv)
    curve = chain_g2(PhysicalParams(0.0081, 100), TauGrid.linear(12.0, 481))
    hist_path = tmp_path / "h.csv"
    write_histogram_csv(str(hist_path), synth_histogram(curve, 4e4, 4e4, 30.0, 3))
    hist = read_histogram_csv(str(hist_path))
    tau, counts = _csv_columns(hist_path)
    assert np.array_equal(hist.tau_ns, tau)
    assert np.array_equal(hist.counts, counts.astype(np.int64))
    assert hist.bin_width_ns == tau[1] - tau[0]

    sat_path = tmp_path / "sat.csv"
    sat_data = synth_saturation_data(0.0083, 4.0, np.geomspace(10.0, 1000.0, 12),
                                     rel_noise=0.02, seed=42)
    _write_csv(str(sat_path), ["s0", "transmission"], sat_data.s0, sat_data.transmission)
    sat = read_saturation_csv(str(sat_path))
    s0, tr = _csv_columns(sat_path)
    assert np.array_equal(sat.s0, s0) and np.array_equal(sat.transmission, tr)

    pts_path = tmp_path / "points.csv"
    with open(pts_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["od", "g2_0"])
        for od in np.arange(0.5, 5.01, 0.5):
            w.writerow([od, chain_g2_zero(PhysicalParams(0.0081, int(od * 90)))])
    od, g2 = _read_table(str(pts_path), ["od", "g2_0"], "bad-points-file")
    od_ref, g2_ref = _csv_columns(pts_path)
    assert np.array_equal(od, od_ref) and np.array_equal(g2, g2_ref)

    # int(float(x)) truncation of histogram counts, blank rows skipped
    trunc = tmp_path / "trunc.csv"
    trunc.write_text("tau_ns,counts\n-2,3.9\n\n0,-0.5\n2,7\n")
    assert read_histogram_csv(str(trunc)).counts.tolist() == [3, 0, 7]
    for body in ("-2,1\n0,1\n", "-2,1\n0,1\n2\n"):
        few = tmp_path / "few.csv"
        few.write_text("tau_ns,counts\n" + body)
        with pytest.raises(DataError):
            read_histogram_csv(str(few))


def test_cli_import_leaves_out_scipy_stats():
    env = _package_env()
    code = "import sys, chiralchain.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_loads_only_scipy_special():
    env = _package_env()
    code = ("import sys, chiralchain.cli; "
            "sys.exit(sorted(m for m in ('scipy.linalg', 'scipy.optimize', 'scipy.special')"
            " if m in sys.modules) != ['scipy.special'])")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_defers_concurrent_futures():
    # numpy.testing, which scipy.special loads, imports concurrent.futures
    # itself; blocked after those two, it must not be needed by chiralchain
    env = _package_env()
    code = ("import sys, numpy, scipy.special\n"
            "for m in [m for m in sys.modules if m.split('.')[0] == 'concurrent']:\n"
            "    sys.modules[m] = None\n"
            "import chiralchain.cli")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
