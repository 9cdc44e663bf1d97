"""Command-line interface: reproducible simulation, synthesis, and analysis runs.

Subcommands
    simulate   ideal and/or distribution-averaged g2(tau) curves at given ODs
    sweep      g2(0) versus OD table, optional beta fit to measured points
    oracle     brute-force master-equation g2(tau) for small chains
    synth      synthetic coincidence histograms or detector time tags
    analyze    histogram/time-tag data -> normalized g2 and contrast fit JSON
    fit-beta   transmission-saturation data -> beta estimate JSON

Every parameter can come from a JSON config file (--config) or a flag; flags
win.  Each output file gets a sidecar <name>.config.json recording the fully
resolved configuration and the provenance of every value (flag, config or
default), which is sufficient to regenerate the file.  Outputs carry no
timestamps: identical config and seed give byte-identical files.

Exit codes: 0 success, 2 parameter/config error, 3 numerical failure,
4 malformed or insufficient data.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

import numpy as np

from .core import (
    DataError,
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    TauGrid,
    _physical_memory_bytes,
    time_unit_ns,
)
from .transport import chain_g2, od_per_atom
from .oracle import oracle_g2
from .ensemble import (
    OdBinSpec,
    LOADING_GAIN,
    LOADING_MAX_OD,
    build_number_distribution,
    averaged_g2,
    fit_beta_to_g2_points,
    od_to_atoms,
    sweep_g2_vs_od,
)
from . import photonstats as ps

__all__ = ["main"]


# ---------------------------------------------------------------------------
# parameter resolution

class _Param:
    """One configurable value: flag name, type, default, help text."""

    def __init__(self, name, ptype, default, help, repeatable=False):
        self.name = name
        self.ptype = ptype
        self.default = default
        self.help = help
        self.repeatable = repeatable

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _resolve(params, args, config):
    """Merge flag > config file > default, tracking provenance per value."""
    values, prov = {}, {}
    for p in params:
        flagval = getattr(args, p.name, None)
        if flagval is not None:
            values[p.name], prov[p.name] = flagval, "flag"
        elif config is not None and p.name in config:
            raw = config[p.name]
            if p.repeatable and not isinstance(raw, list):
                raw = [raw]
            try:
                values[p.name] = ([p.ptype(v) for v in raw] if p.repeatable
                                  else p.ptype(raw))
            except (TypeError, ValueError) as exc:
                raise ParameterError("bad-config-value",
                                     f"config field {p.name!r}: {exc}")
            prov[p.name] = "config"
        else:
            values[p.name], prov[p.name] = p.default, "default"
    return values, prov


# ParameterError code for a non-finite value of each float flag: the code the
# library gives that quantity where a command computes with it.  Every float
# flag is checked before the first file is written, so one that a command
# ignores (--gamma-mhz of analyze without --curve-output) cannot carry a NaN
# into a sidecar.
_NOT_FINITE = {
    "beta": "beta-not-finite", "detuning": "detuning-not-finite",
    "gamma_mhz": "gamma-not-positive", "spread": "bad-spread",
    "budget": "bad-photon-budget", "loading_gain": "bad-loading",
    "loading_max_od": "bad-loading", "od": "bad-od", "tau_max": "grid-not-finite",
    "od_min": "bad-od-grid", "od_max": "bad-od-grid", "od_step": "bad-od-step",
    "rate1": "rates-not-positive", "rate2": "rates-not-positive",
    "duration": "rates-not-positive", "bin_width_ns": "bad-bin-width",
    "tau_max_ns": "bad-tau-max", "pulse_period_ns": "bad-gate", "window_ns": "bad-window",
    "tail_start_ns": "no-tail", "od0": "od0-not-positive",
}


def _check_finite(params, values):
    """Raise ParameterError if any float value, flag, config or default, is not finite."""
    for p in params:
        if p.ptype is not float or values[p.name] is None:
            continue
        for v in (values[p.name] if p.repeatable else [values[p.name]]):
            if not math.isfinite(v):
                raise ParameterError(_NOT_FINITE[p.name], f"{p.name} must be finite, got {v!r}")


def _sidecar(path: str, command: str, values: dict, prov: dict, extra: dict | None = None):
    doc = {"command": command,
           "params": {k: {"value": values[k], "source": prov[k]} for k in sorted(values)}}
    if extra:
        doc.update(extra)
    _write_json(path + ".config.json", doc)


def _load_config(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ParameterError("config-missing", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParameterError("config-invalid", f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ParameterError("config-invalid", "config file must hold a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# file formats

def _cell(x) -> str:
    """CSV text of one value: integers as such, floats by repr, None empty."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: str, header: list[str], *columns):
    """CSV with the given header and one row per position of the columns."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in zip(*columns))


def write_curve_csv(path: str, curve: G2Curve, gamma_mhz: float):
    """Two-sided curve CSV with both physical and natural delay columns."""
    unit_ns = time_unit_ns(gamma_mhz)
    tau, g2 = curve.mirrored()
    natural = curve.grid.unit == "gamma"
    _write_csv(path, ["tau_ns", "tau_gamma", "g2"],
               tau * unit_ns if natural else tau, tau if natural else tau / unit_ns, g2)


def write_histogram_csv(path: str, hist: ps.CoincidenceHistogram):
    _write_csv(path, ["tau_ns", "counts"], hist.tau_ns, hist.counts)


def _read_table(path: str, columns: list[str], code: str, dtype=np.float64):
    """The two leading columns of a CSV file with the given header.

    A file without the header raises DataError(code); a row that does not
    hold two values of ``dtype`` raises DataError("malformed-value").
    Blank rows are skipped and columns past the second are ignored.

    The header record is parsed by ``csv.reader`` and the file closed; the
    body is then read by ``np.loadtxt`` from the path, skipping the physical
    lines the header took (``reader.line_num``, more than one when a quoted
    header field holds a newline).  Given a path, numpy parses the file in
    C-level chunks; given an open file it iterates it line by line in Python.

    It reads every histogram, saturation and beta-fit points file, and the
    time-tag files that read_timetags_csv's block parser leaves to it: those
    not in write_timetags_csv's exact format, and those out of order.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != columns:
        raise DataError(code, f"{path}: expected header {','.join(columns)}")
    with warnings.catch_warnings():
        # a header-only file is an empty table, left to the caller to judge
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            body = np.loadtxt(path, delimiter=",", dtype=dtype, usecols=(0, 1), ndmin=2,
                              comments=None, quotechar='"', skiprows=reader.line_num)
        except ValueError as exc:
            raise DataError("malformed-value", f"{path}: {exc}") from None
    return body[:, 0], body[:, 1]


def read_histogram_csv(path: str) -> ps.CoincidenceHistogram:
    tau, counts = _read_table(path, ["tau_ns", "counts"], "bad-histogram-file")
    # counts are truncated toward zero, as int(float(x)) does
    if not np.all(np.abs(counts) < 2.0**63):
        raise DataError("malformed-value", f"{path}: counts must be finite and below 2**63")
    return ps.CoincidenceHistogram(tau, np.trunc(counts).astype(np.int64))


_TAGS_HEADER = b"detector_id,timestamp_ns\r\n"
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # a magnitude >= 10**k has > k digits
_TAG_BLOCK = 2**15  # tags of each channel between cuts; a block is about 1 MiB of text
_READ_BLOCK = 2**20  # bytes of a time-tag file read at a time
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63: a column sum of 18 digits cannot overflow int64
_MAX_ROW = _MAX_DIGITS + 5  # bytes of the longest row read block-wise, "1,-" digits CRLF
# Sorted rows without leading zeros fall in width through the negative digit
# counts, then rise through the others: at most 2 * _MAX_DIGITS runs of equal
# width in a block.  More come only from rows out of order or with leading
# zeros, which _read_table reads.
_MAX_RUNS = 2 * _MAX_DIGITS


def _tag_rows(ids: np.ndarray, mag: np.ndarray, ndig: int, neg: bool) -> np.ndarray:
    """Rows "id,[-]digits" plus CRLF, all of one width, as one uint8 matrix."""
    width = 2 + neg + ndig + 2
    rows = np.empty((ids.size, width), dtype=np.uint8)
    rows[:, 0] = ids + ord("0")
    rows[:, 1] = ord(",")
    if neg:
        rows[:, 2] = ord("-")
    for col in range(width - 3, width - 3 - ndig, -1):
        mag, digit = np.divmod(mag, 10)
        rows[:, col] = digit + ord("0")
    rows[:, -2] = ord("\r")
    rows[:, -1] = ord("\n")
    return rows


def write_timetags_csv(path: str, stream: ps.TimeTagStream):
    """Header detector_id,timestamp_ns, then one CRLF row per tag.

    The rows are the two channels in time order, detector 0 first on equal
    timestamps, and the bytes are those of a csv.writer loop.  The sorted
    channels are walked in blocks of at most _TAG_BLOCK tags per channel,
    so no copy of the whole stream is made.  A block ends before the
    earlier, in file order, of the two tags _TAG_BLOCK past its start on
    each channel; with v that tag's value, the other channel is cut by a
    searchsorted of v: detector-1 tags equal to v go after a cut at a
    detector-0 tag (side "left"), detector-0 tags equal to v before a cut
    at a detector-1 tag (side "right").  Within a block the tags are merged
    stably, and rows of one sign and digit count, which are contiguous, are
    formatted and written as one uint8 matrix.
    """
    t0, t1 = stream.t0_ns, stream.t1_ns
    i0 = i1 = 0
    with open(path, "wb") as fh:
        fh.write(_TAGS_HEADER)
        while i0 < t0.size or i1 < t1.size:
            e0, e1 = min(i0 + _TAG_BLOCK, t0.size), min(i1 + _TAG_BLOCK, t1.size)
            if e0 < t0.size and (e1 == t1.size or t0[e0] <= t1[e1]):
                e1 = int(t1.searchsorted(t0[e0], side="left"))
            elif e1 < t1.size:
                e0 = int(t0.searchsorted(t1[e1], side="right"))
            ts = np.concatenate([t0[i0:e0], t1[i1:e1]])
            order = np.argsort(ts, kind="stable")
            ts = ts[order]
            ids = (order >= e0 - i0).astype(np.uint8)
            i0, i1 = e0, e1
            neg = ts < 0
            mag = np.abs(ts).astype(np.uint64)  # -2**63 wraps to its magnitude
            ndig = np.searchsorted(_POW10, mag, side="right") + 1
            starts = np.flatnonzero(np.diff(np.where(neg, -ndig, ndig), prepend=0))
            for a, b in zip(starts, np.append(starts[1:], ids.size)):
                fh.write(_tag_rows(ids[a:b], mag[a:b], int(ndig[a]), bool(neg[a])))


def _writer_rows(rows: np.ndarray):
    """Detector-1 flags and timestamps of rows [01],-?digits CRLF, else None.

    ``rows`` is a (rows, width) uint8 matrix, one row per line, each ending
    in LF.  Rows of 1 to _MAX_DIGITS digits are read, leading zeros and -0
    as np.loadtxt reads them; any other byte, or more digits, gives None.
    """
    field = rows.shape[1] - 4  # the value between "d," and CRLF
    if not 1 <= field <= _MAX_ROW - 4:
        return None
    neg = rows[:, 2] == ord("-")
    # the digit count, the field less its sign, must be 1 to _MAX_DIGITS
    if (field == 1 and neg.any()) or (field > _MAX_DIGITS and not neg.all()):
        return None
    digits = rows[:, 2:-2] - np.uint8(ord("0"))  # bytes below '0' wrap past 9
    digits[neg, 0] = 0
    if not (((rows[:, 0] | 1) == ord("1")).all()  # '0' or '1'
            and (rows[:, 1] == ord(",")).all() and (rows[:, -2] == ord("\r")).all()
            and (digits <= 9).all()):
        return None
    ts = np.zeros(rows.shape[0], np.int64)
    for col in digits.T:
        ts *= 10
        ts += col
    np.negative(ts, out=ts, where=neg)
    return rows[:, 0] == ord("1"), ts


def _read_writer_timetags(path: str):
    """The two channels of a file in write_timetags_csv's exact format, else None.

    That format is the bytes of _TAGS_HEADER, then rows [01],-?digits CRLF
    with sorted timestamps.  The file is read _READ_BLOCK bytes at a time,
    each block cut after its last LF; the rows of each run of equal width
    are one uint8 matrix for _writer_rows.  Per-block channel pieces are
    joined once at the end.  None, returned as soon as a block is not in
    that form or is out of order, leaves the whole file to _read_table.
    """
    pieces = ([], [])
    last = np.iinfo(np.int64).min
    with open(path, "rb") as fh:
        if fh.read(len(_TAGS_HEADER)) != _TAGS_HEADER:
            return None
        carry = b""  # the bytes after the last LF read so far
        while len(buf := carry + fh.read(_READ_BLOCK)) > len(carry):  # until EOF
            cut = buf.rfind(b"\n") + 1
            carry = buf[cut:]
            if len(carry) >= _MAX_ROW:  # a longer row, or CR-only line ends
                return None
            block = np.frombuffer(buf, np.uint8, cut)
            ends = np.flatnonzero(block == ord("\n")) + 1
            widths = np.diff(ends, prepend=0)
            heads = np.flatnonzero(np.diff(widths, prepend=0))
            if heads.size > _MAX_RUNS:
                return None
            for a, b in zip(heads, np.append(heads[1:], ends.size)):
                width = int(widths[a])
                parsed = _writer_rows(block[ends[a] - width:ends[b - 1]].reshape(b - a, width))
                if parsed is None:
                    return None
                is1, ts = parsed
                if ts[0] < last or np.any(ts[1:] < ts[:-1]):
                    return None
                last = ts[-1]
                pieces[0].append(np.compress(~is1, ts))  # faster than ts[~is1]
                pieces[1].append(np.compress(is1, ts))
    if carry:  # no CRLF after the last row
        return None
    channels = []
    for chan in pieces:
        channels.append(np.concatenate([np.zeros(0, np.int64), *chan]))
        chan.clear()  # frees the pieces before the next channel is joined
    return channels


def read_timetags_csv(path: str) -> ps.TimeTagStream:
    """The two detector channels of a file with ids 0 or 1 and sorted timestamps.

    The file's own bytes choose the parser.  One in write_timetags_csv's
    exact format, with sorted timestamps of at most _MAX_DIGITS digits, is
    parsed block by block (_read_writer_timetags).  Any other file is read
    whole by _read_table, csv.reader for the header and np.loadtxt for the
    body, and checked below; so is a writer-format file out of order, which
    thus gets the error code and message of that path alone.
    """
    channels = _read_writer_timetags(path)
    if channels is None:
        ids, ts = _read_table(path, ["detector_id", "timestamp_ns"], "bad-timetag-file",
                              dtype=np.int64)
        if not np.all((ids == 0) | (ids == 1)):
            raise DataError("bad-detector-id", f"{path}: detector ids must be 0 or 1")
        if np.any(ts[1:] < ts[:-1]):  # np.diff would wrap for steps past 2**63
            raise DataError("timestamps-not-sorted", f"{path}: timestamps must be non-decreasing")
        channels = ts[ids == 0], ts[ids == 1]
    return ps.TimeTagStream(*channels)


def read_saturation_csv(path: str) -> ps.SaturationData:
    s0, tr = _read_table(path, ["s0", "transmission"], "bad-saturation-file")
    return ps.SaturationData(s0, tr)


def _write_json(path: str, doc: dict):
    """Strict JSON: a NaN or infinity raises ValueError before the file is opened."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# shared parameter groups

_PHYS = [
    _Param("beta", float, 0.0081, "forward coupling fraction"),
    _Param("detuning", float, 0.0, "drive detuning in units of Gamma"),
    _Param("gamma_mhz", float, ps.DEFAULT_GAMMA_MHZ, "natural linewidth Gamma/2pi in MHz"),
]
_SPREAD = [
    _Param("spread", float, 0.10, "relative width of the preparation spread"),
    _Param("budget", float, 1000.0, "photons per run for the OD estimate"),
    _Param("loading_gain", float, LOADING_GAIN, "exponential growth rate of runs per unit OD"),
    _Param("loading_max_od", float, LOADING_MAX_OD, "highest nominal loading OD of the campaign"),
]


def _grid_from(values) -> TauGrid:
    return TauGrid.linear(values["tau_max"], values["n_points"])


def _campaign(values) -> OdBinSpec:
    """The default bin scheme with the campaign flags; refuses bad values."""
    return OdBinSpec.default(values["budget"], values["spread"],
                             values["loading_gain"], values["loading_max_od"])


def _distribution(bins: OdBinSpec, beta: float, od: float):
    idx = bins.bin_index(od)
    if idx < 0:
        raise ParameterError("od-outside-scheme", f"OD {od:g} is outside the binning scheme")
    return build_number_distribution(bins, idx, beta)


def _model_curve(values, bins: OdBinSpec, kind: str, od: float | None = None,
                 n_atoms: int | None = None) -> tuple[int, G2Curve]:
    """Chain length and ideal or averaged model curve at one OD or atom number."""
    beta = values["beta"]
    n = int(n_atoms) if od is None else int(round(od_to_atoms(od, beta)))
    grid = _grid_from(values)
    params = PhysicalParams(beta=beta, n_atoms=n, detuning=values["detuning"])
    if kind == "ideal":
        return n, chain_g2(params, grid)
    if od is None:
        od = n * od_per_atom(beta)
    return n, averaged_g2(_distribution(bins, beta, od), params, grid)


# ---------------------------------------------------------------------------
# subcommands

_SIMULATE = _PHYS + _SPREAD + [
    _Param("od", float, None, "optical depth (repeatable)", repeatable=True),
    _Param("n_atoms", int, None, "atom number (repeatable, alternative to --od)", repeatable=True),
    _Param("tau_max", float, 12.0, "largest delay in units of 1/Gamma"),
    _Param("n_points", int, 481, "delay grid points"),
    _Param("kind", str, "ideal", "curve kind: ideal, averaged or both"),
    _Param("output", str, "curve.csv", "output CSV path (stem when several curves)"),
]


def cmd_simulate(values, prov) -> int:
    if values["kind"] not in ("ideal", "averaged", "both"):
        raise ParameterError("bad-kind", f"kind must be ideal, averaged or both, got {values['kind']!r}")
    ods = values["od"]
    natoms = values["n_atoms"]
    if ods is not None and natoms is not None:
        raise ParameterError("od-and-n-atoms", "give either --od or --n-atoms, not both")
    if ods is None and natoms is None:
        raise ParameterError("no-configuration", "need at least one --od or --n-atoms")
    kinds = ("ideal", "averaged") if values["kind"] == "both" else (values["kind"],)
    if ods is not None:
        targets = [(f"od{od:g}", od, None) for od in ods]
    else:
        targets = [(f"n{n}", None, n) for n in natoms]
    bins = _campaign(values)

    multi = len(targets) > 1 or len(kinds) > 1
    for label, od, n_atoms in targets:
        for kind in kinds:
            n, curve = _model_curve(values, bins, kind, od, n_atoms)
            if multi:
                stem = values["output"]
                stem = stem[:-4] if stem.endswith(".csv") else stem
                path = f"{stem}_{label}_{kind}.csv"
            else:
                path = values["output"]
            write_curve_csv(path, curve, values["gamma_mhz"])
            _sidecar(path, "simulate", values, prov,
                     {"curve": {"label": label, "kind": kind, "n_atoms": n,
                                "transmission": curve.transmission}})
            print(f"wrote {path}: {kind} curve, N={n}, g2(0)={curve.values[0]:.6g}")
    return 0


_SWEEP = _PHYS + _SPREAD + [
    _Param("od_min", float, 0.0, "first OD of the sweep"),
    _Param("od_max", float, 7.0, "last OD of the sweep"),
    _Param("od_step", float, 0.25, "OD step"),
    _Param("averaged", int, 1, "1 to add the distribution-averaged column, 0 for ideal only"),
    _Param("fit_points", str, None, "CSV of measured (od, g2_0) points to fit beta against"),
    _Param("output", str, "sweep.csv", "output CSV path"),
]


def cmd_sweep(values, prov) -> int:
    if not values["od_step"] > 0:
        raise ParameterError("bad-od-step", "od_step must be > 0")
    n_ods = (values["od_max"] - values["od_min"]) / values["od_step"]
    if not 8.0 * n_ods <= _physical_memory_bytes():
        raise ParameterError("bad-od-step", f"{n_ods:.3g} OD steps do not fit in memory")
    grid = np.arange(values["od_min"], values["od_max"] + 1e-9, values["od_step"])
    if grid.size == 0:
        raise ParameterError("empty-od-grid", "the requested OD grid is empty")
    rows = sweep_g2_vs_od(values["beta"], grid, bins=_campaign(values),
                          averaged=bool(values["averaged"]), detuning=values["detuning"])
    extra = {}
    if values["fit_points"] is not None:
        # fit before writing, so bad points leave no files behind
        od_pts, g2_pts = _read_table(values["fit_points"], ["od", "g2_0"], "bad-points-file")
        beta_hat, beta_err = fit_beta_to_g2_points(od_pts, g2_pts, values["detuning"])
        extra["beta_fit"] = {"beta": beta_hat, "beta_err": beta_err,
                             "n_points": int(od_pts.size)}
    path = values["output"]
    _write_csv(path, ["od", "n_mean", "g2_0_ideal", "g2_0_averaged"],
               [r.od for r in rows], [r.n_mean for r in rows],
               [r.g2_0_ideal for r in rows], [r.g2_0_averaged for r in rows])
    if extra:
        _write_json(path + ".betafit.json", extra["beta_fit"])
        print(f"beta fit to {od_pts.size} points: {beta_hat:.5f} +- {beta_err:.5f}")
    _sidecar(path, "sweep", values, prov, extra or None)
    print(f"wrote {path}: {len(rows)} rows")
    return 0


_ORACLE = [
    _Param("beta", float, 0.1, "forward coupling fraction"),
    _Param("detuning", float, 0.0, "drive detuning in units of Gamma"),
    _Param("gamma_mhz", float, ps.DEFAULT_GAMMA_MHZ, "natural linewidth Gamma/2pi in MHz"),
    _Param("n_atoms", int, 1, "atom number (the solver holds D^4 numbers, D = 1 + N + N(N-1)/2)"),
    _Param("tau_max", float, 10.0, "largest delay in units of 1/Gamma"),
    _Param("n_points", int, 201, "delay grid points"),
    _Param("output", str, "oracle.csv", "output CSV path"),
]


def cmd_oracle(values, prov) -> int:
    grid = _grid_from(values)
    params = PhysicalParams(beta=values["beta"], n_atoms=values["n_atoms"],
                            detuning=values["detuning"])
    result = oracle_g2(params, grid)
    curve = result.curve
    path = values["output"]
    write_curve_csv(path, curve, values["gamma_mhz"])
    _sidecar(path, "oracle", values, prov,
             {"curve": {"transmission": curve.transmission,
                        "extrapolation_gap": result.extrapolation_gap}})
    print(f"wrote {path}: oracle curve, N={values['n_atoms']}, g2(0)={curve.values[0]:.6g}")
    return 0


_SYNTH = _PHYS + _SPREAD + [
    _Param("od", float, None, "optical depth of the simulated configuration"),
    _Param("n_atoms", int, None, "atom number (alternative to --od)"),
    _Param("averaged", int, 0, "1 to synthesize from the distribution-averaged curve"),
    _Param("kind", str, "histogram", "output kind: histogram or timetags"),
    _Param("rate1", float, 3.0e4, "singles rate on detector 0, 1/s"),
    _Param("rate2", float, 3.0e4, "singles rate on detector 1, 1/s"),
    _Param("duration", float, 60.0, "acquisition time in s"),
    _Param("seed", int, 0, "random seed"),
    _Param("bin_width_ns", float, ps.DEFAULT_BIN_NS, "histogram bin width in ns"),
    _Param("tau_max_ns", float, ps.DEFAULT_TAU_MAX_NS, "histogram half range in ns"),
    _Param("tau_max", float, 12.0, "model curve extent in units of 1/Gamma"),
    _Param("n_points", int, 481, "model curve grid points"),
    _Param("output", str, "synth.csv", "output CSV path"),
]


def cmd_synth(values, prov) -> int:
    if values["kind"] not in ("histogram", "timetags"):
        raise ParameterError("bad-kind", f"kind must be histogram or timetags, got {values['kind']!r}")
    if (values["od"] is None) == (values["n_atoms"] is None):
        raise ParameterError("no-configuration", "give exactly one of --od or --n-atoms")
    _, curve = _model_curve(values, _campaign(values),
                            "averaged" if values["averaged"] else "ideal",
                            values["od"], values["n_atoms"])
    path = values["output"]
    if values["kind"] == "histogram":
        hist = ps.synth_histogram(curve, values["rate1"], values["rate2"],
                                  values["duration"], values["seed"],
                                  bin_width_ns=values["bin_width_ns"],
                                  tau_max_ns=values["tau_max_ns"],
                                  gamma_mhz=values["gamma_mhz"])
        write_histogram_csv(path, hist)
        print(f"wrote {path}: {hist.n_bins} bins, {hist.total_counts} coincidences")
    else:
        stream = ps.synth_timetags(curve, values["rate1"], values["rate2"],
                                   values["duration"], values["seed"],
                                   gamma_mhz=values["gamma_mhz"])
        write_timetags_csv(path, stream)
        print(f"wrote {path}: {stream.n_tags} tags")
    _sidecar(path, "synth", values, prov, {"true_g2_zero": float(curve.values[0])})
    return 0


_ANALYZE = [
    _Param("input", str, None, "input CSV (histogram or time tags)"),
    _Param("format", str, "auto", "input format: histogram, timetags or auto"),
    _Param("gamma_mhz", float, ps.DEFAULT_GAMMA_MHZ, "natural linewidth Gamma/2pi in MHz"),
    _Param("bin_width_ns", float, ps.DEFAULT_BIN_NS, "histogram bin width for time tags, ns"),
    _Param("tau_max_ns", float, ps.DEFAULT_TAU_MAX_NS, "histogram half range for time tags, ns"),
    _Param("pulse_period_ns", float, None,
           f"pulse period for gated correlation, ns (gate {ps.PULSE_GATE_NS[0]:g}-"
           f"{ps.PULSE_GATE_NS[1]:g} ns of each pulse, first {ps.DISCARD_PULSES} dropped)"),
    _Param("window_ns", float, None, "contrast fit window (default: auto 30/15 ns)"),
    _Param("tail_start_ns", float, ps.TAIL_START_NS, "start of the normalization tail, ns"),
    _Param("min_tail_counts", int, 100, "minimum total counts in the tail"),
    _Param("n_bootstrap", int, 50, "bootstrap samples for the contrast error"),
    _Param("seed", int, 0, "bootstrap random seed"),
    _Param("curve_output", str, None, "optional path for the normalized g2 CSV"),
    _Param("output", str, "fit.json", "fit report JSON path"),
]


def _sniff_format(path: str) -> str:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    head = [h.strip() for h in header[:2]]
    if head == ["tau_ns", "counts"]:
        return "histogram"
    if head == ["detector_id", "timestamp_ns"]:
        return "timetags"
    raise DataError("unknown-format", f"{path}: unrecognized header {header!r}")


def cmd_analyze(values, prov) -> int:
    if values["input"] is None:
        raise ParameterError("no-input", "analyze needs --input")
    fmt = values["format"]
    if fmt == "auto":
        fmt = _sniff_format(values["input"])
    if fmt == "timetags":
        hist = ps.histogram_timetags(read_timetags_csv(values["input"]),
                                     bin_width_ns=values["bin_width_ns"],
                                     tau_max_ns=values["tau_max_ns"],
                                     pulse_period_ns=values["pulse_period_ns"])
    elif fmt == "histogram":
        hist = read_histogram_csv(values["input"])
    else:
        raise ParameterError("bad-format", f"format must be histogram, timetags or auto, got {fmt!r}")

    curve = ps.normalize_histogram(hist, tail_start_ns=values["tail_start_ns"],
                                   min_tail_counts=values["min_tail_counts"])
    fit = ps.mle_fit_g2(hist, window_ns=values["window_ns"],
                        tail_start_ns=values["tail_start_ns"])
    fit = ps.bootstrap_error(fit, hist, n_samples=values["n_bootstrap"],
                             seed=values["seed"], tail_start_ns=values["tail_start_ns"])
    if values["curve_output"] is not None:
        write_curve_csv(values["curve_output"], curve, values["gamma_mhz"])
        _sidecar(values["curve_output"], "analyze", values, prov)
    path = values["output"]
    _write_json(path, fit.to_dict())
    _sidecar(path, "analyze", values, prov)
    print(f"wrote {path}: g2(0) = {fit.g2_zero:.4f} +- {fit.a_err:.4f} "
          f"(window {fit.window_ns:g} ns)")
    return 0


_FIT_BETA = [
    _Param("input", str, None, "saturation CSV (s0, transmission)"),
    _Param("od0", float, None, "zero-power optical depth from the weak-drive calibration"),
    _Param("output", str, "beta.json", "fit report JSON path"),
]


def cmd_fit_beta(values, prov) -> int:
    if values["input"] is None or values["od0"] is None:
        raise ParameterError("no-input", "fit-beta needs --input and --od0")
    data = read_saturation_csv(values["input"])
    fit = ps.fit_beta_saturation(data, values["od0"])
    path = values["output"]
    _write_json(path, fit.to_dict())
    _sidecar(path, "fit-beta", values, prov)
    print(f"wrote {path}: beta = {fit.beta:.5f} +- {fit.beta_err:.5f}")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "simulate": (_SIMULATE, cmd_simulate, "ideal/averaged g2(tau) curves"),
    "sweep": (_SWEEP, cmd_sweep, "g2(0) versus OD table"),
    "oracle": (_ORACLE, cmd_oracle, "brute-force master-equation g2(tau)"),
    "synth": (_SYNTH, cmd_synth, "synthetic histograms or time tags"),
    "analyze": (_ANALYZE, cmd_analyze, "normalize and fit measured correlations"),
    "fit-beta": (_FIT_BETA, cmd_fit_beta, "beta from transmission saturation"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralchain",
        description="photon correlations of a chirally coupled emitter chain")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (params, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults for any flag")
        for prm in params:
            kwargs = {"type": prm.ptype, "default": None, "help": prm.help}
            if prm.repeatable:
                kwargs["action"] = "append"
            p.add_argument(prm.flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params, runner, _ = _COMMANDS[args.command]
    try:
        config = _load_config(args.config)
        values, prov = _resolve(params, args, config)
        _check_finite(params, values)
        return runner(values, prov)
    except ParameterError as exc:
        print(f"parameter error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error [{exc.code}]: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"data error [io]: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"data error [malformed-value]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
