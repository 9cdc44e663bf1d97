"""Synthetic photon-counting data and the correlation analysis chain.

Measurement side of the toolkit: coincidence histograms between the two
detectors of a beamsplitter correlator, normalization of a histogram to
g2(tau), a maximum-likelihood estimate of the equal-time value g2(0) with
bootstrap error bars, and the transmission-saturation fit that gives an
independent estimate of the coupling beta.

Conventions:

* detector timestamps are int64 nanoseconds, one sorted array per detector
  (only the time-tag CSV file merges the two); histograms use 2 ns bins
  with centers placed symmetrically about tau = 0 (tau = t1 - t0),
* histogram counts are raw coincidences; normalization divides by the mean
  level at |tau| > 200 ns where correlations have decayed,
* fitted decay rates are in 1/ns; model curves tabulated in units of
  1/Gamma are converted with the natural linewidth Gamma/2pi (default
  5.2 MHz, i.e. 1/Gamma = 30.6 ns).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import zip_longest
import math
import os
import threading

import numpy as np
from scipy import special

from .core import (
    DataError,
    G2Curve,
    NumericalError,
    ParameterError,
    TauGrid,
    _physical_memory_bytes,
    time_unit_ns,
)

__all__ = [
    "DEFAULT_GAMMA_MHZ",
    "DEFAULT_BIN_NS",
    "DEFAULT_TAU_MAX_NS",
    "TAIL_START_NS",
    "PULSE_GATE_NS",
    "DISCARD_PULSES",
    "CoincidenceHistogram",
    "TimeTagStream",
    "FitResult",
    "SaturationData",
    "SaturationFit",
    "curve_values_ns",
    "synth_histogram",
    "synth_timetags",
    "histogram_timetags",
    "normalize_histogram",
    "mle_fit_g2",
    "bootstrap_error",
    "saturation_transmission",
    "fit_beta_saturation",
    "synth_saturation_data",
]

DEFAULT_GAMMA_MHZ = 5.2
DEFAULT_BIN_NS = 2.0
DEFAULT_TAU_MAX_NS = 320.0
TAIL_START_NS = 200.0
# largest share of detector-1 tags that clipping may add in synth_timetags
CLIP_BIAS_BOUND = 0.02
# largest share of failed refits that bootstrap_error accepts
MAX_FAILED_SHARE = 0.2
# pulsed time-tag correlation: the live window within each pulse, in ns,
# and the number of leading pulses dropped (they see an uncooled ensemble)
PULSE_GATE_NS = (1000.0, 9000.0)
DISCARD_PULSES = 20
# a-tags per block of the pair search; a block's slices stay cache sized
_PAIR_BLOCK = 2**16
# cells of a block's table in the pair search's occupancy filter, at most
# (one byte each)
_FILTER_CELLS = 2**20
# 1.5 * 2**52: adding it to a float below 2**51 in size rounds that to an
# integer held in the low bits, for the filter's in-place cast to int64
_ROUND = 1.5 * 2.0**52
_ROUND_BITS = np.float64(_ROUND).view(np.int64)
# tags per chunk of the in-place compaction and int64 cast in synth_timetags
_TAG_CHUNK = 2**16
_INT64 = np.iinfo(np.int64)
# bytes the time-tag chain holds at its peak, with a margin: a fixed part, a
# part per pair-search thread for its block's work arrays (they dominate short
# runs and may all be alive at once; one, with the fixed part, also covers
# the CLI writer's block buffers), and parts per drawn tag (detector-0 tags
# plus detector-1 candidates) and per tag pair within the curve support.
# tracemalloc of synth_timetags then histogram_timetags, with and without
# gating, at OD 3.15 and 5.13 reads 2.6 MB at 3e4/s for 2 s on one thread,
# 1.71 MB per block at 3e4/s (the occupancy filter's 1 MiB table and the
# cells of the block's tags; 1.55-1.68 MB at 1e5/s against 5e5/s, 2.07-2.11
# MB at 1e6/s with 0.77 MB of pairs, and 2.26 MB at 3e4/s against 1e6/s,
# where nearly every tag is searched and the block holds 48 k pairs), 9.3
# per drawn tag at 3e4/s from 20 s on (9.4 at 40 s) and 76 per pair beyond
# that at 1e6-2e6/s
_FIXED_BYTES = 2**20
_THREAD_BYTES = 2 * 2**20
_TAG_BYTES = 10
_PAIR_BYTES = 96
# bytes bootstrap_error holds per sample, profile-scan point and fit bin at
# its peak, with a margin: tracemalloc reads 40.5-42.5 over 20-2000 samples
# and 115-831 bins (the scan's likelihood and profile-Newton arrays)
_BOOTSTRAP_BYTES_PER_ENTRY = 64


def _outside_int64(x: np.ndarray):
    """Where x holds no integer of the int64 range (a cast there would wrap)."""
    if np.issubdtype(x.dtype, np.unsignedinteger):
        return x > np.iinfo(np.int64).max
    if np.issubdtype(x.dtype, np.integer):
        return False
    xf = np.asarray(x, dtype=float)
    # -2**63 <= x < 2**63 is exactly the float range that casts to int64
    return (xf != np.floor(xf)) | ~(xf >= -2.0**63) | ~(xf < 2.0**63)


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Raw coincidence counts versus detector time difference.

    tau_ns   bin centers in ns, rising in uniform steps (the bin width),
             symmetric about 0
    counts   coincidences per bin (nonnegative integers)
    """

    tau_ns: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_ns, dtype=float)
        cts = np.asarray(self.counts)
        object.__setattr__(self, "tau_ns", tau)
        if tau.ndim != 1 or tau.size < 3:
            raise DataError("histogram-too-small", "need at least 3 bins")
        if cts.shape != tau.shape:
            raise DataError("histogram-shape-mismatch", "counts and tau_ns must have equal length")
        if not np.all(np.isfinite(cts)) or np.any(cts < 0):
            raise DataError("counts-negative", "counts must be finite and >= 0")
        if np.any(np.asarray(cts, dtype=float) != np.floor(np.asarray(cts, dtype=float))):
            raise DataError("counts-not-integer", "counts must be integers")
        if np.any(_outside_int64(cts)):
            raise DataError("counts-overflow", "counts must be below 2**63")
        cts = np.asarray(cts, dtype=np.int64)
        # summed exactly by 32-bit halves, each half's sum in int64 below 2**31 bins
        total = (int((cts >> 32).sum()) << 32) + int((cts & 0xFFFFFFFF).sum())
        if total > np.iinfo(np.int64).max:
            raise DataError("counts-overflow", "the total count must be below 2**63")
        object.__setattr__(self, "counts", cts)
        d = np.diff(tau)
        # a finite first step bounds every other step, so every center is finite
        if not (0.0 < d[0] < math.inf and np.allclose(d, d[0], rtol=1e-9, atol=1e-9)):
            raise DataError("bins-not-uniform", "bin centers must rise in uniform steps")
        if not np.allclose(tau, -tau[::-1], atol=1e-9):
            raise DataError("bins-not-symmetric", "bin centers must be symmetric about tau = 0")

    @property
    def bin_width_ns(self) -> float:
        return float(self.tau_ns[1] - self.tau_ns[0])

    @property
    def n_bins(self) -> int:
        return int(self.tau_ns.size)

    @property
    def total_counts(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class TimeTagStream:
    """Photon arrival records of the two correlator detectors, one array each.

    t0_ns  detector-0 arrival times in integer ns, non-decreasing
    t1_ns  detector-1 arrival times in integer ns, non-decreasing

    The channels stay apart, as they are drawn and as the cross-correlation
    reads them; only the time-tag CSV file interleaves them into one
    time-ordered sequence.
    """

    t0_ns: np.ndarray
    t1_ns: np.ndarray

    def __post_init__(self):
        for name in ("t0_ns", "t1_ns"):
            ts = np.asarray(getattr(self, name))
            if ts.ndim != 1:
                raise DataError("timestamps-not-1d", f"{name} must be a 1d array")
            if np.any(_outside_int64(ts)):
                raise DataError("timestamps-not-integer",
                                "timestamps must be integer ns within the int64 range")
            ts = np.asarray(ts, dtype=np.int64)
            if np.any(ts[1:] < ts[:-1]):
                raise DataError("timestamps-not-sorted", "timestamps must be non-decreasing")
            object.__setattr__(self, name, ts)

    @property
    def n_tags(self) -> int:
        return int(self.t0_ns.size + self.t1_ns.size)


@dataclass(frozen=True)
class FitResult:
    """Exponential-contrast fit g2(tau) = 1 - A exp(-gamma_fit |tau|).

    The fit region is |tau| <= window_ns plus |tau| > tail_start_ns.
    g2_zero = 1 - A is reported unclamped; values outside [0, 9] flag a
    problem with the data rather than being silently truncated.
    gamma_at_edge is true when gamma_fit stopped on an edge of
    GAMMA_FIT_BAND, where A is the best amplitude at a constrained decay.
    a_err is the bootstrap standard error of A (None before bootstrapping),
    taken over the refits that did not fail; n_failed counts the failed
    refits and n_at_edge the other refits whose decay stopped on a band edge.
    """

    amplitude: float
    gamma_fit: float
    window_ns: float
    tail_start_ns: float = TAIL_START_NS
    a_err: float | None = None
    n_bootstrap: int = 0
    seed: int | None = None
    n_failed: int = 0
    n_at_edge: int = 0

    @property
    def g2_zero(self) -> float:
        return 1.0 - self.amplitude

    @property
    def gamma_at_edge(self) -> bool:
        return self.gamma_fit in GAMMA_FIT_BAND

    def to_dict(self) -> dict:
        return {
            "A": self.amplitude,
            "a_err": self.a_err,
            "gamma_fit_per_ns": self.gamma_fit,
            "g2_zero": self.g2_zero,
            "window_ns": self.window_ns,
            "n_bootstrap": self.n_bootstrap,
            "seed": self.seed,
            "gamma_at_edge": self.gamma_at_edge,
            "n_failed": self.n_failed,
            "n_at_edge": self.n_at_edge,
        }


@dataclass(frozen=True)
class SaturationData:
    """Transmission versus drive power for the saturation fit.

    s0            input power in units where the on-resonance saturation
                  parameter of a single emitter equals beta * s0
                  (strictly increasing, > 0)
    transmission  measured power transmission at each drive power, in (0, 1]
    """

    s0: np.ndarray
    transmission: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s0, dtype=float)
        t = np.asarray(self.transmission, dtype=float)
        object.__setattr__(self, "s0", s)
        object.__setattr__(self, "transmission", t)
        if s.ndim != 1 or s.shape != t.shape:
            raise DataError("saturation-shape-mismatch", "s0 and transmission must be 1d and equal length")
        if not np.all(np.isfinite(s)) or np.any(s <= 0):
            raise DataError("power-not-positive", "drive powers must be finite and > 0")
        if np.any(np.diff(s) <= 0):
            raise DataError("powers-not-increasing", "drive powers must be strictly increasing")
        if not np.all(np.isfinite(t)) or np.any(t <= 0) or np.any(t > 1.0 + 1e-12):
            raise DataError("transmission-out-of-range", "transmission must be in (0, 1]")

    @property
    def n_points(self) -> int:
        return int(self.s0.size)


@dataclass(frozen=True)
class SaturationFit:
    """Result of the transmission-saturation fit."""

    beta: float
    beta_err: float
    od0: float
    residual_rms: float

    def to_dict(self) -> dict:
        return {"beta": self.beta, "beta_err": self.beta_err,
                "od0": self.od0, "residual_rms": self.residual_rms}


def curve_values_ns(curve: G2Curve, tau_ns: np.ndarray, gamma_mhz: float = DEFAULT_GAMMA_MHZ) -> np.ndarray:
    """g2 of a model curve evaluated at |tau| in ns (1 beyond the grid)."""
    scale = 1.0 if curve.grid.unit == "ns" else time_unit_ns(gamma_mhz)
    at = np.abs(np.asarray(tau_ns, dtype=float)) / scale
    return np.interp(at, curve.grid.values, curve.values, right=1.0)


def _symmetric_centers(bin_width_ns: float, tau_max_ns: float) -> np.ndarray:
    """Bin centers k * bin_width_ns for |k| <= tau_max_ns / bin_width_ns, rounded.

    Raises "bad-tau-max" before allocating when the centers, as float64,
    would not fit in the installed memory.
    """
    if not (math.isfinite(bin_width_ns) and bin_width_ns > 0):
        raise ParameterError("bad-bin-width", f"bin_width_ns must be > 0, got {bin_width_ns!r}")
    if tau_max_ns < bin_width_ns:
        raise ParameterError("bad-tau-max", "tau_max_ns must cover at least one bin")
    half = tau_max_ns / bin_width_ns
    if not 8.0 * (2.0 * half + 1.0) <= _physical_memory_bytes():
        raise ParameterError(
            "bad-tau-max",
            f"tau_max_ns / bin_width_ns = {half:.3g} bins per side do not fit in memory",
        )
    k = int(round(half))
    return np.arange(-k, k + 1, dtype=float) * bin_width_ns


def synth_histogram(curve: G2Curve, rate1: float, rate2: float, acquisition_s: float,
                    seed: int, *, bin_width_ns: float = DEFAULT_BIN_NS,
                    tau_max_ns: float = DEFAULT_TAU_MAX_NS,
                    gamma_mhz: float = DEFAULT_GAMMA_MHZ) -> CoincidenceHistogram:
    """Poisson coincidence counts for a model g2 at given singles rates.

    Bin means are rate1 * rate2 * bin_width * acquisition * g2(tau_i), the
    uncorrelated-pair level modulated by the correlation function.  Raises
    "counts-overflow" before any draw when the expected total exceeds half
    the int64 range, so the counts and their total stay representable, and
    "bad-seed" for a negative seed.
    """
    if not all(math.isfinite(x) and x > 0 for x in (rate1, rate2, acquisition_s)):
        raise ParameterError("rates-not-positive", "rates and acquisition time must be finite, > 0")
    centers = _symmetric_centers(bin_width_ns, tau_max_ns)
    g2 = curve_values_ns(curve, centers, gamma_mhz)
    mean = rate1 * rate2 * (bin_width_ns * 1e-9) * acquisition_s * g2
    if not float(mean.sum()) <= np.iinfo(np.int64).max / 2:
        raise ParameterError(
            "counts-overflow",
            f"{float(mean.sum()):.3g} expected coincidences overflow the int64 counts; "
            "shorten the acquisition or lower the rates",
        )
    counts = _rng(seed).poisson(mean)
    return CoincidenceHistogram(centers, counts)


def synth_timetags(curve: G2Curve, rate1: float, rate2: float, duration_s: float,
                   seed: int, *, gamma_mhz: float = DEFAULT_GAMMA_MHZ) -> TimeTagStream:
    """Time-tag stream whose cross-correlation follows a model g2.

    Detector 0 is a homogeneous Poisson process at rate1.  Detector 1 is an
    inhomogeneous Poisson process with intensity

        rate2 * (1 - R + sum_j (g2(t - t_j) - 1))

    over the detector-0 tags t_j, where g2 - 1 is zero beyond the curve
    support S (its last grid delay) and R = rate1 * int (g2 - 1) dtau over
    [-S, S].  The other tags' excess raises the mean level by R, so lowering
    the baseline by R makes the rate conditioned on a detector-0 tag at s
    exactly rate2 * g2(t - s), at any rate.  Only the cross-correlation
    between the detectors is faithful; autocorrelations of the individual
    channels are Poissonian.

    Sampling is exact thinning (Lewis & Shedler, Naval Res. Logist. Q. 26,
    403 (1979)).  The candidates are a Poisson process at rate2 * (1 - R)
    over the whole span plus, on each window [t_j - S, t_j + S], one at
    rate2 * env(t - t_j), where env is constant on each grid cell at the
    larger of max(g2 - 1, 0) at its two ends, so it bounds the linearly
    interpolated excess everywhere.  A candidate in no window is kept as
    drawn; one in a window is kept with probability
    max(1 - R + sum excess, 0) / (1 - R + sum env), summed over every
    detector-0 tag within S.

    Where 1 - R + sum excess < 0 the intensity clips at 0.  The tags this
    adds raise the detector-1 rate by a share f, counted in expectation
    over the clipped candidates; they move the tail-normalised g2 by the
    order of f * |g2 - 1| where g2 is well above 0, and by more where it
    nears 0, since the intensity clips most often there.
    Raises NumericalError "intensity-clipped" when f exceeds
    CLIP_BIAS_BOUND (2 %), and before any draw when R >= 1, where the
    baseline vanishes.  Raises "thinning-overflow" before any draw when
    the synthesis and the histogram of its tags would not fit in the
    installed memory: _FIXED_BYTES, _THREAD_BYTES per pair-search thread
    (per block of detector-0 tags, at most one per CPU), _TAG_BYTES per
    drawn tag, the rate1 * T detector-0 tags plus the rate2 * T * (1 - R +
    rate1 * int 2 env dtau) expected candidates, and _PAIR_BYTES per
    expected pair of a candidate and a detector-0 tag within S (none when R >= 1),
    and "bad-seed" before any draw for a negative seed.

    Two full-length buffers hold the draws: the detector-0 times t0 and the
    candidates tc, baseline first, then the window candidates.  The
    baseline is drawn into tc as span * random(), which numpy's
    uniform(0, span) computes as 0.0 + span * random() from the same draws,
    so the two agree bit for bit.  The draws keep one order: t0, then the
    window candidates' sides, cells and owner tags, then the baseline.  No
    draw needs t0 sorted, so t0 sorts while the baseline is drawn into tc
    and sorted there, on two threads when the process may use two CPUs
    (_map_on_workers; tc is allocated before, on the calling thread).  The
    window candidates are then formed from the sorted t0, sorted, and
    written after the baseline.  Sorting the baseline apart lets its sort
    overlap t0's and leaves two sorted runs, which a stable sort (a timsort
    for floats) merges: about 3.5 ms against 15 ms for a full sort of a
    60 s, 3e4/s trial's 1.8 M candidates.  A sorted float array is the same
    whichever thread sorted it, so the tags do not depend on the thread
    count.  The kept candidates move to the front of tc, and each buffer
    is rounded to int64 in place; the stream's arrays are int64 views of t0
    and of the front of tc.  Besides a keep flag of
    one byte per candidate, every other temporary is the size of one chunk
    of _TAG_CHUNK tags, of the window candidates, or of the candidate-tag
    pairs.
    """
    if not all(math.isfinite(x) and x > 0 for x in (rate1, rate2, duration_s)):
        raise ParameterError("rates-not-positive", "rates and duration must be finite and > 0")
    scale = 1.0 if curve.grid.unit == "ns" else time_unit_ns(gamma_mhz)
    tau_ns = curve.grid.values * scale
    support_ns = float(tau_ns[-1])
    excess = curve.values - 1.0
    env = np.maximum(np.maximum(excess[:-1], excess[1:]), 0.0)
    env_area = env * np.diff(tau_ns)
    cells = np.flatnonzero(env_area > 0.0)
    cum = np.concatenate([[0.0], np.cumsum(env_area[cells])])
    # level = 1 - R; the integrals are two-sided, in ns
    env_ns = 2.0 * float(cum[-1])
    level = 1.0 - rate1 * 1e-9 * 2.0 * float(np.trapezoid(excess, tau_ns))
    n_expected = rate2 * duration_s * (level + rate1 * 1e-9 * env_ns)
    # a candidate pairs with the detector-0 tags within S, a window one also with
    # its owner; R >= 1 is refused below, before any pair is formed
    n_pairs = (rate1 * 1e-9 * (n_expected * 2.0 * support_ns + rate2 * duration_s * env_ns)
               if level > 0.0 else 0.0)
    threads = min(_worker_count(), np.ceil(rate1 * duration_s / _PAIR_BLOCK))
    need = (_FIXED_BYTES + _THREAD_BYTES * threads
            + _TAG_BYTES * (rate1 * duration_s + n_expected) + _PAIR_BYTES * n_pairs)
    if not (math.isfinite(need) and need <= _physical_memory_bytes()):
        raise NumericalError(
            "thinning-overflow",
            f"thinning needs ~{n_expected:.3g} candidate tags (~{need:.3g} bytes), "
            "more than fit in memory; shorten the duration or lower the rates",
        )
    if level <= 0.0:
        raise NumericalError(
            "intensity-clipped",
            f"rate1 * int (g2 - 1) dtau = {1.0 - level:.3g} >= 1 leaves no uncorrelated "
            "detector-1 level; lower rate1",
        )
    rng = _rng(seed)
    span_ns = duration_s * 1e9

    t0 = rng.uniform(0.0, span_ns, rng.poisson(rate1 * duration_s))

    # window candidates: a side and a cell by area, then a uniform delay
    # inside the cell (inverse CDF of the step envelope), and an owner tag
    n_extra = rng.poisson(t0.size * rate2 * 1e-9 * env_ns)
    u = rng.uniform(-cum[-1], cum[-1], n_extra)
    owner = rng.integers(0, t0.size, n_extra)
    # the baseline candidates, then room for the window ones, in one buffer
    n_base = rng.poisson(rate2 * duration_s * level)
    tc = np.empty(n_base + n_extra)

    def draw_baseline():
        rng.random(out=tc[:n_base])
        tc[:n_base] *= span_ns
        tc[:n_base].sort()

    # both write in place: no buffer is allocated on a pool thread
    _map_on_workers(lambda work: work(), [t0.sort, draw_baseline])
    au = np.abs(u)
    k = np.minimum(np.searchsorted(cum, au, side="right") - 1, cells.size - 1)
    delay = tau_ns[cells[k]] + (au - cum[k]) / env[cells[k]]
    extra = t0[owner] + np.copysign(delay, u)
    extra = extra[(extra >= 0.0) & (extra < span_ns)]
    extra.sort()
    tc = tc[:n_base + extra.size]
    tc[n_base:] = extra
    # two sorted runs, which the stable sort (a timsort for floats) merges
    tc.sort(kind="stable")

    i, j = _pairs_within(t0, tc, support_ns)
    d = np.abs(tc[j] - t0[i])
    cell = np.minimum(np.searchsorted(tau_ns, d, side="right") - 1, env.size - 1)
    near, inv = np.unique(j, return_inverse=True)
    # target and candidate intensities over rate2, per candidate in a window
    lam = level + np.bincount(inv, np.interp(d, tau_ns, excess), near.size)
    lam_cand = level + np.bincount(inv, env[cell], near.size)
    keep = np.ones(tc.size, dtype=bool)
    keep[near] = rng.uniform(size=near.size) * lam_cand < lam

    # a candidate stands for 1 / (rate2 * lam_cand) of time, so clipping adds
    # sum(-lam / lam_cand) tags over the clipped candidates in expectation
    clipped = lam < 0.0
    added = float(np.sum(-lam[clipped] / lam_cand[clipped])) / (rate2 * duration_s)
    if added > CLIP_BIAS_BOUND:
        raise NumericalError(
            "intensity-clipped",
            f"{int(clipped.sum())} candidates clip at zero intensity, adding "
            f"{added:.2%} to the detector-1 rate (bound {CLIP_BIAS_BOUND:.0%}); "
            "lower the rates",
        )

    # the pair arrays go before the stream's order check allocates; the kept
    # candidates move to the front of tc, which then holds t1
    del i, j, d, cell, near, inv, lam, lam_cand, clipped
    n1 = 0
    for lo in range(0, tc.size, _TAG_CHUNK):
        kept = tc[lo:lo + _TAG_CHUNK][keep[lo:lo + _TAG_CHUNK]]
        tc[n1:n1 + kept.size] = kept
        n1 += kept.size
    del keep
    return TimeTagStream(_round_to_int64(t0), _round_to_int64(tc[:n1]))


def _rng(seed: int) -> np.random.Generator:
    """numpy's generator for seed; a negative seed raises ParameterError "bad-seed"."""
    if seed < 0:
        raise ParameterError("bad-seed", f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _round_to_int64(x: np.ndarray) -> np.ndarray:
    """The float tags x rounded to int64, written over x chunk by chunk."""
    out = x.view(np.int64)
    for lo in range(0, x.size, _TAG_CHUNK):
        out[lo:lo + _TAG_CHUNK] = np.round(x[lo:lo + _TAG_CHUNK])
    return out


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_on_workers(func, items) -> list:
    """[func(x) for x in items], on min(_worker_count(), len(items)) threads.

    With one thread the items run inline, in order, without a pool.  Else
    the calling thread and a pool of the others take the items one at a
    time, as each is free.  The caller works too, so what it allocates
    reuses its own heap: on pool threads alone, glibc's per-thread arenas
    held the bootstrap refits' arrays apart, and six 60 s, 3e4/s trials
    (synthesis, histogram, fit and bootstrap) peaked at 141.6 MB RSS
    against 134.3 MB with the caller taking part, on a 2-core machine.
    The callers hand it numpy work that runs without the interpreter lock
    (sorts, searches, gathers, the refits' array arithmetic), each item on
    data of its own, so the results do not depend on the thread count.
    """
    items = list(items)
    n_workers = min(_worker_count(), len(items))
    if n_workers <= 1:
        return [func(x) for x in items]
    # deferred: importing chiralchain loads no concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    results = [None] * len(items)
    pending = iter(enumerate(items))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                k, x = next(pending, (None, None))
            if k is None:
                return
            results[k] = func(x)

    with ThreadPoolExecutor(n_workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(n_workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return results


def _occupancy_filter(ab: np.ndarray, bb: np.ndarray, reach: float) -> np.ndarray:
    """A mask of the a-tags of a block that may have a b-tag within reach.

    ab and bb are sorted, bb the b-tags the block can reach.  From the
    block's first tag o, of either side, the values are cut into cells of
    width w >= 2 reach, and a bool table marks the cells that hold a b-tag.
    The partners of an a-tag then lie in the cell of floor((a - o) / w + 1/2)
    or in the one below it, so the a-tags with neither cell marked are
    dropped, and none with a partner is.  Float tags take the nearest
    integers to (a - o) / w and (b - o) / w - 1/2 instead, which lands in
    the same two cells, and w exceeds 2 reach by more than the rounding
    can move a tag.

    The table has at most _FILTER_CELLS cells, and the b-tags mark it
    _TAG_CHUNK at a time, so besides the table the work arrays are a few
    as long as ab, however many b-tags the block reaches.  Every a-tag is
    kept when one cell would cover the whole span, or when the span
    reaches 2**62, past the exact int offsets.
    """
    exact = np.issubdtype(ab.dtype, np.integer)
    if exact:
        # Python ints, so no int64 scalar wraps near the int64 range
        o = min(int(ab[0]), int(bb[0]))
        span = max(int(ab[-1]), int(bb[-1])) - o
        w = max(2 * reach, -(-span // _FILTER_CELLS))
    else:
        o = min(ab[0], bb[0])
        span = float(max(ab[-1], bb[-1]) - o)
        w = max(2 * reach, span / _FILTER_CELLS) + span * 2**-48
    # below 2**62 the int offsets x - o plus w / 2 are exact int64 values
    if not 0 < w <= span < 2**62:
        return np.ones(ab.size, bool)

    def cells(x, centred):  # cell of x, ints by floor, floats by rounding
        c = x - o
        if exact:  # floor((x - o) / w), + 1/2 inside if centred
            if centred:
                c += w // 2
            c //= w
            return c
        # (x - o) / w rounded to an integer, less 1/2 first if not centred;
        # the sum with _ROUND is that integer in its low bits: the int64 cast
        # in place, without a second array
        c *= 1.0 / w
        if not centred:
            c -= 0.5
        c += _ROUND
        c = c.view(np.int64)
        c -= _ROUND_BITS
        return c

    table = np.zeros(int(span // w if exact else span / w) + 3, bool)
    for lo in range(0, bb.size, _TAG_CHUNK):
        table[1:][cells(bb[lo:lo + _TAG_CHUNK], False)] = True
    near = cells(ab, True)
    keep = table[near]
    keep |= table[1:][near]
    return keep


def _pairs_within(a: np.ndarray, b: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with |b[j] - a[i]| <= reach, for sorted a and b.

    The a-tags are cut into blocks of _PAIR_BLOCK.  Each block first finds
    the slice of b it can reach, from its first tag - reach to its last
    tag + reach.  _occupancy_filter then drops the a-tags with no b-tag in
    the two cells nearest them: at 3e4/s per detector about nine in ten,
    at 1e6/s, where most tags have a partner, about one in four.  Within
    the slice a searchsorted of a - reach finds each remaining tag's first
    partner, and the walk then goes forward one partner rank per numpy
    pass, keeping only the tags still pairing.  _map_on_workers hands the
    blocks to the calling thread and to one more thread per further CPU
    the process may use, capped at the number of blocks, each taking the
    next block when it is free: numpy runs the searches and gathers of the
    cache-sized slices without the interpreter lock.  On two CPUs the pool
    took perfbench's timetag_roundtrip from 0.92-0.95 s serial to 0.82-0.87 s.

    Integer tags (integer reach) are compared so that nothing wraps at the
    int64 range; float tags, as synth_timetags draws them, by b[j] - a[i].

    The pairs come out pass-major: the first partners of every a-tag in
    order, then the second partners, and so on, whatever the block size
    or thread count.
    """
    exact = np.issubdtype(a.dtype, np.integer)

    def lower(x):  # x - reach, saturating at the int64 minimum for integers
        return np.maximum(x, _INT64.min + reach) - reach if exact else x - reach

    def within(x, y):  # x <= y + reach
        return lower(x) <= y if exact else x - y <= reach

    def block(lo):
        ab = a[lo:lo + _PAIR_BLOCK]
        b_lo = int(b.searchsorted(lower(ab[0]), side="left"))
        # past the last b-tag in reach, ab[-1] + reach < b[-1] cannot wrap
        b_hi = (b.size if within(b[-1], ab[-1])
                else int(b.searchsorted(ab[-1] + reach, side="right")))
        bb = b[b_lo:b_hi]
        if not bb.size:
            return []
        # indices gather the keys far faster than the mask, which alone
        # stays alive through the search
        kept = _occupancy_filter(ab, bb, reach)
        keys = ab[np.flatnonzero(kept)]
        j = bb.searchsorted(lower(keys), side="left")
        near = (j < bb.size) & within(bb[np.minimum(j, bb.size - 1)], keys)
        del keys
        i, j = np.flatnonzero(kept)[near], j[near]
        passes = []
        while i.size:
            passes.append((i + lo, j + b_lo))
            j = j + 1
            more = j < bb.size
            i, j = i[more], j[more]
            near = within(bb[j], ab[i])
            i, j = i[near], j[near]
        return passes

    parts = _map_on_workers(block, range(0, a.size if b.size else 0, _PAIR_BLOCK))
    # pass-major: the first pass of every block in block order, then the second
    merged = [p for rank in zip_longest(*parts) for p in rank if p is not None]
    empty = np.zeros(0, dtype=np.intp)
    return (np.concatenate([empty, *(i for i, _ in merged)]),
            np.concatenate([empty, *(j for _, j in merged)]))


def histogram_timetags(stream: TimeTagStream | Iterable[TimeTagStream], *,
                       bin_width_ns: float = DEFAULT_BIN_NS,
                       tau_max_ns: float = DEFAULT_TAU_MAX_NS,
                       pulse_period_ns: float | None = None) -> CoincidenceHistogram:
    """Cross-correlation histogram of a time-tag stream, whole or in blocks.

    Every inter-detector pair with tau = t1 - t0 in [-E, E), E the outer bin
    edge, is counted once.  Each bin is half-open, [lo, hi), so with integer
    delays and odd-integer edges every bin takes the same number of delays.
    An outer edge at or past 2**63 ns, beyond the int64 delays the pair
    search compares, raises "bad-tau-max" before pairing.  With
    pulse_period_ns set, only tags in the window PULSE_GATE_NS within each
    pulse count, and the first DISCARD_PULSES pulses are dropped, mirroring
    pulsed probing where the early pulses see an uncooled ensemble; a period
    shorter than the gate end raises "bad-gate".  The gate is applied to the
    tags of each pair, so no array as long as the stream is made for it.

    stream is one TimeTagStream or an iterable of them, blocks in time
    order; the parameters are checked before the first block is read.  A
    block with a tag before the latest tag of the blocks before it raises
    "timestamps-not-sorted".  Each block is paired together with the carry,
    the earlier tags at most floor(E) before that latest tag, and the pairs
    of two carry tags, counted with an earlier block, are dropped; so the
    counts are those of the joined stream, whatever the cuts.  A single
    stream is the one-block case, paired without a copy.
    """
    if pulse_period_ns is not None:
        g_lo, g_hi = PULSE_GATE_NS
        if not g_hi <= pulse_period_ns:
            raise ParameterError("bad-gate", f"pulse period must reach the gate end {g_hi:g} ns")
        start = DISCARD_PULSES * pulse_period_ns

        def live(t):
            phase = np.mod(t, pulse_period_ns)
            return (t >= start) & (phase >= g_lo) & (phase < g_hi)

    centers = _symmetric_centers(bin_width_ns, tau_max_ns)
    edges = np.concatenate([centers - bin_width_ns / 2.0, [centers[-1] + bin_width_ns / 2.0]])
    if not edges[-1] < 2.0**63:
        raise ParameterError("bad-tau-max",
                             f"outer bin edge {edges[-1]:.3g} ns is past the int64 range of the tags")
    # pair differences are integers, so |tau| <= reach means |tau| <= floor(reach);
    # np.histogram closes its last bin, so tau = E is dropped first
    reach = math.floor(edges[-1])
    counts = np.zeros(centers.size, np.int64)
    c0 = c1 = np.zeros(0, np.int64)  # the carry of each channel
    last = int(_INT64.min)
    for block in [stream] if isinstance(stream, TimeTagStream) else stream:
        b0, b1 = block.t0_ns, block.t1_ns
        if not (b0.size or b1.size):
            continue
        if min(int(b[0]) for b in (b0, b1) if b.size) < last:
            raise DataError("timestamps-not-sorted",
                            "blocks must be in time order: a block starts before "
                            "the latest tag of the blocks before it")
        last = max(last, *(int(b[-1]) for b in (b0, b1) if b.size))
        t0 = np.concatenate([c0, b0]) if c0.size else b0
        t1 = np.concatenate([c1, b1]) if c1.size else b1
        i, j = _pairs_within(t0, t1, reach)
        if c0.size and c1.size:
            new = (i >= c0.size) | (j >= c1.size)
            i, j = i[new], j[new]
        if pulse_period_ns is not None:  # the pairs of gated tags
            both = live(t0[i]) & live(t1[j])
            i, j = i[both], j[both]
        tau = t1[j] - t0[i]
        counts += np.histogram(tau[tau < edges[-1]], edges)[0]
        # t0 and t1 are sorted; the carry is copied, so the block can go
        lo = max(last - reach, int(_INT64.min))
        c0, c1 = t0[t0.searchsorted(lo):].copy(), t1[t1.searchsorted(lo):].copy()
    return CoincidenceHistogram(centers, counts)


def _fold(hist: CoincidenceHistogram):
    """Fold a symmetric histogram onto tau >= 0.

    Returns (centers >= 0, folded counts, multiplicity per folded bin).
    """
    tau = hist.tau_ns
    pos = tau > 1e-9
    zero = np.abs(tau) <= 1e-9
    centers = tau[pos]
    # CoincidenceHistogram holds symmetric centers only, so the reversed
    # negative side lines up with the positive side bin by bin
    folded = hist.counts[pos] + hist.counts[tau < -1e-9][::-1]
    mult = np.full(centers.size, 2.0)
    if np.any(zero):
        centers = np.concatenate([[0.0], centers])
        folded = np.concatenate([[int(hist.counts[zero][0])], folded])
        mult = np.concatenate([[1.0], mult])
    return centers, folded, mult


def normalize_histogram(hist: CoincidenceHistogram, *, tail_start_ns: float = TAIL_START_NS,
                        min_tail_counts: int = 100) -> G2Curve:
    """Normalize coincidences to g2 by the uncorrelated level at long delay.

    Positive and negative delays are folded together first.  The reference
    level is the mean counts per raw bin over |tau| > tail_start_ns; a tail
    holding fewer than min_tail_counts coincidences in total is refused
    because the normalization error would dominate everything downstream.
    An empty tail is refused whatever min_tail_counts is: its level is 0.
    """
    centers, folded, mult = _fold(hist)
    tail = centers > tail_start_ns
    if not np.any(tail):
        raise DataError("no-tail", f"histogram must extend beyond {tail_start_ns:g} ns for normalization")
    tail_total = int(folded[tail].sum())
    need = max(min_tail_counts, 1)
    if tail_total < need:
        raise DataError("tail-underpopulated",
                        f"only {tail_total} counts at |tau| > {tail_start_ns:g} ns, "
                        f"need >= {need}")
    level = tail_total / float(mult[tail].sum())
    values = folded / (mult * level)
    grid = TauGrid(centers, unit="ns")
    return G2Curve(grid, values)


def _fit_bins(hist: CoincidenceHistogram, window_ns: float | None,
              tail_start_ns: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The contrast fit's window, and the delays and counts of the bins it reads.

    The contrast window around tau = 0 carries the dip or peak; the
    normalization tail anchors the uncorrelated level.  Intermediate delays
    are excluded: that is where the quantum-beat structure lives, which the
    single-exponential contrast model cannot represent.  Without the tail
    the multinomial likelihood is scale free and gamma develops a degenerate
    ridge at the window edge, so the anchor is what makes (A, gamma)
    identifiable at finite counts.

    A window_ns of None is 30 ns for antibunching dips and 15 ns once
    bunching dominates, as bunched correlations decay faster than the dip
    recovers; the short-delay excess over the tail level decides (DataError
    "window-undetermined" without bins to compare).  Then, in this order:
    ParameterError "bad-window" unless 0 < window_ns < tail_start_ns (a
    window reaching the tail would exclude nothing), DataError
    "window-too-narrow" for a window of fewer than 5 bins, "no-tail" when no
    bin lies past tail_start_ns, and "empty-window" for bins without counts.
    """
    at = np.abs(hist.tau_ns)
    tail = at > tail_start_ns
    if window_ns is None:
        near = at <= 5.0 + 1e-9
        if not np.any(near) or not np.any(tail):
            raise DataError("window-undetermined", "histogram too short to choose a fit window")
        window_ns = 15.0 if hist.counts[near].mean() > hist.counts[tail].mean() else 30.0
    if not (math.isfinite(window_ns) and 0 < window_ns < tail_start_ns):
        raise ParameterError("bad-window", f"window_ns must be finite, > 0 and below "
                             f"tail_start_ns {tail_start_ns:g}, got {window_ns!r}")
    window = at <= window_ns + 1e-9
    if np.count_nonzero(window) < 5:
        raise DataError("window-too-narrow", "fit window holds fewer than 5 bins")
    if not np.any(tail):
        raise DataError("no-tail", f"no bin lies beyond tail_start_ns {tail_start_ns:g}")
    keep = window | tail
    if not np.any(hist.counts[keep]):
        raise DataError("empty-window", "no coincidences inside the fit region")
    return float(window_ns), hist.tau_ns[keep], hist.counts[keep]


GAMMA_FIT_BAND = (0.004, 0.4)

# log gamma points of the profile scan; the first and last are the band edges
_LOG_GAMMA_SCAN = np.linspace(math.log(GAMMA_FIT_BAND[0]), math.log(GAMMA_FIT_BAND[1]), 41)
_A_LIMIT = 1e3     # |A| bound of the likelihood domain
_A_FAIL = 900.0    # |A| beyond this: the fit never saw the uncorrelated level
_G_FLOOR = 1e-12   # the model g must stay above this inside the domain
_MAX_ITER = 60


def _contrast_nll(c, ctot, a, e):
    """Multinomial nll of g = 1 - a e over the last (bin) axis; inf outside the domain.

    e = exp(-gamma |tau|) broadcasts against a[..., None].
    """
    g = 1.0 - a[..., None] * e
    with np.errstate(divide="ignore", invalid="ignore"):
        f = ctot * np.log(g.sum(axis=-1)) - (c * np.log(g)).sum(axis=-1)
    return np.where((np.abs(a) <= _A_LIMIT) & np.all(g > _G_FLOOR, axis=-1), f, np.inf)


def _profile_amplitude(c, ctot, e):
    """Amplitude minimizing the nll at each scanned decay, shape (replicates, scan).

    At fixed gamma every stationary point in A is a minimum (by
    Cauchy-Schwarz, d2nll/dA2 >= 0 wherever dnll/dA = 0), so the root of
    dnll/dA is unique within the domain and is bracketed from the start.
    Newton steps that leave the bracket fall back to bisection; only
    entries still moving are updated.
    """
    n_rep, n_scan = c.shape[0], e.shape[0]
    se = e.sum(axis=1)
    lo = np.full(n_rep * n_scan, -_A_LIMIT)
    hi = np.tile(np.minimum(_A_LIMIT, (1.0 - _G_FLOOR) / e.max(axis=1)), n_rep)
    a = np.zeros(n_rep * n_scan)
    todo = np.arange(a.size)
    for _ in range(_MAX_ITER):
        r, j = np.divmod(todo, n_scan)
        x, lo_k, hi_k = a[todo], lo[todo], hi[todo]
        ej = e[j]
        q = ej / (1.0 - x[:, None] * ej)                # -dln(g)/dA
        cq = c[r] * q
        m = se[j] / (e.shape[1] - x * se[j])            # -dln(sum g)/dA
        d1 = cq.sum(axis=1) - ctot[r] * m
        d2 = (cq * q).sum(axis=1) - ctot[r] * m * m
        lo_k = np.where(d1 < 0, x, lo_k)
        hi_k = np.where(d1 > 0, x, hi_k)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - d1 / d2
        new = np.where((d2 > 0) & (new > lo_k) & (new < hi_k), new, 0.5 * (lo_k + hi_k))
        a[todo], lo[todo], hi[todo] = new, lo_k, hi_k
        todo = todo[np.abs(new - x) > 1e-10 * (1.0 + np.abs(x))]
        if not todo.size:
            break
    return a.reshape(n_rep, n_scan)


def _newton_steps(t, c, ctot, a, lg):
    """Newton steps of the nll in (A, log gamma) from the closed-form derivatives.

    Returns (dnll/dlog gamma, the 2-D step in A and in log gamma, the 1-D
    step in A at fixed gamma).  An indefinite Hessian is shifted until its
    smallest eigenvalue is positive, so both steps point downhill.
    """
    gam = np.exp(lg)[:, None]
    e = np.exp(-gam * t)
    g = 1.0 - a[:, None] * e
    # derivatives of g = 1 - A exp(-gamma t) in A and u = log gamma
    g_au = gam * t * e
    g_a, g_u = -e, a[:, None] * g_au
    g_uu = g_u * (1.0 - gam * t)
    w = c / g
    wg = w / g
    s = g.sum(axis=1)
    sa, su = g_a.sum(axis=1) / s, g_u.sum(axis=1) / s
    grad_a = ctot * sa - (w * g_a).sum(axis=1)
    grad_u = ctot * su - (w * g_u).sum(axis=1)
    h_aa = (wg * g_a * g_a).sum(axis=1) - ctot * sa * sa
    h_au = (ctot * (g_au.sum(axis=1) / s - sa * su)
            - (w * g_au - wg * g_a * g_u).sum(axis=1))
    h_uu = (ctot * (g_uu.sum(axis=1) / s - su * su)
            - (w * g_uu - wg * g_u * g_u).sum(axis=1))
    lam_min = 0.5 * (h_aa + h_uu) - np.hypot(0.5 * (h_aa - h_uu), h_au)
    floor = 1e-8 * np.maximum(np.abs(h_aa) + np.abs(h_uu), 1.0)
    shift = np.maximum(floor - lam_min, 0.0)
    h_aa, h_uu = h_aa + shift, h_uu + shift
    det = h_aa * h_uu - h_au * h_au
    return (grad_u, (h_uu * grad_a - h_au * grad_u) / det,
            (h_aa * grad_u - h_au * grad_a) / det, grad_a / h_aa)


def _fit_window_counts(tau_ns: np.ndarray, counts: np.ndarray):
    """Maximize the multinomial likelihood of 1 - A exp(-gamma |tau|), row by row.

    counts is a (replicates x bins) array over the bins tau_ns; all rows are
    solved together.  Returns arrays (A, gamma, nll), one entry per row; the
    likelihood conditions on each row's total count, so needs no normalization.

    gamma is constrained to GAMMA_FIT_BAND, between a decay too slow for the
    contrast window to see and one faster than the 2 ns binning.  The
    solver has two steps:

    * profile scan: at each point of _LOG_GAMMA_SCAN (41 log-spaced points
      from edge to edge) A is profiled out by a safeguarded 1-D Newton
      search, and each row starts from its best scan point;
    * polish: Newton steps in (A, log gamma) with the closed-form gradient
      and Hessian, a backtracking line search on the nll alone, and an
      active set on the band (Bertsekas, SIAM J. Control Optim. 20, 221
      (1982)): a row on an edge whose gradient points out of the band keeps
      gamma on the edge and moves A alone.  Every accepted step lowers or
      keeps the nll, so the result is never worse than any scan point.

    Because the normalization tail anchors the uncorrelated level, the
    amplitude stays identified even when gamma stops at a band edge on
    weakly contrasted data; such rows are kept, with gamma reported as that
    edge exactly.  A row fails, with A = nan and nll = inf, when no scan
    point has a finite nll or when |A| ends above 900: an amplitude at the
    guard rail means the likelihood never saw the uncorrelated level, which
    the contrast model does not describe.
    """
    t = np.abs(np.asarray(tau_ns, dtype=float))
    c = np.asarray(counts, dtype=float)
    ctot = c.sum(axis=1)
    lg_lo, lg_hi = _LOG_GAMMA_SCAN[0], _LOG_GAMMA_SCAN[-1]

    e = np.exp(-np.exp(_LOG_GAMMA_SCAN)[:, None] * t)
    amp = _profile_amplitude(c, ctot, e)
    f_scan = _contrast_nll(c[:, None, :], ctot[:, None], amp, e)
    rows = np.arange(c.shape[0])
    best = np.argmin(f_scan, axis=1)
    a, lg, f = amp[rows, best], _LOG_GAMMA_SCAN[best], f_scan[rows, best]

    todo = rows[np.isfinite(f)]
    for _ in range(_MAX_ITER):
        if not todo.size:
            break
        ck, tk, ak, uk, fk = c[todo], ctot[todo], a[todo], lg[todo], f[todo]
        grad_u, d_a, d_u, d_a_fixed = _newton_steps(t, ck, tk, ak, uk)
        low = (uk - lg_lo <= 1e-9) & (grad_u > 0)
        high = (lg_hi - uk <= 1e-9) & (grad_u < 0)
        edge = low | high
        d_a = np.where(edge, d_a_fixed, d_a)
        d_u = np.where(edge, 0.0, d_u)
        base_u = np.where(low, lg_lo, np.where(high, lg_hi, uk))
        new_a, new_u, new_f = ak.copy(), uk.copy(), fk.copy()
        step = 1.0
        # a Newton step this short has nothing left to gain on the nll
        pend = np.flatnonzero((np.abs(d_a) > 1e-10 * (1.0 + np.abs(ak)))
                              | (np.abs(d_u) > 1e-10) | (base_u != uk))
        for _ in range(40):
            ta = ak[pend] - step * d_a[pend]
            tu = np.clip(base_u[pend] - step * d_u[pend], lg_lo, lg_hi)
            tf = _contrast_nll(ck[pend], tk[pend], ta, np.exp(-np.exp(tu)[:, None] * t))
            ok = tf <= fk[pend]
            took = pend[ok]
            new_a[took], new_u[took], new_f[took] = ta[ok], tu[ok], tf[ok]
            pend = pend[~ok]
            if not pend.size:
                break
            step *= 0.5
        moved = (np.abs(new_a - ak) > 1e-12 * (1.0 + np.abs(ak))) | (np.abs(new_u - uk) > 1e-12)
        a[todo], lg[todo], f[todo] = new_a, new_u, new_f
        todo = todo[moved]

    failed = ~np.isfinite(f) | (np.abs(a) > _A_FAIL)
    # report the edges exactly rather than as exp(log(edge))
    gamma = np.where(lg == lg_lo, GAMMA_FIT_BAND[0],
                     np.where(lg == lg_hi, GAMMA_FIT_BAND[1], np.exp(lg)))
    return np.where(failed, np.nan, a), gamma, np.where(failed, np.inf, f)


def mle_fit_g2(hist: CoincidenceHistogram, *, window_ns: float | None = None,
               tail_start_ns: float = TAIL_START_NS) -> FitResult:
    """Maximum-likelihood g2(0) from raw coincidence counts.

    Fits g2(tau) = 1 - A exp(-gamma |tau|) by maximizing the multinomial
    likelihood sum(c_i ln g_i) - C ln(sum g_i) over the bins _fit_bins
    picks: the contrast window (by default 30 ns, 15 ns for bunched data)
    and the normalization tail.  Conditioning on the total count C makes the
    fit independent of the absolute coincidence rate, so the histogram does
    not need to be normalized first.  The histogram is one row of
    _fit_window_counts (profile scan over the gamma band, then a bounded
    Newton polish).  After _fit_bins' refusals, raises NumericalError
    "fit-failed" when the fit has no finite minimum or |A| ends above 900.
    """
    window_ns, tau, cts = _fit_bins(hist, window_ns, tail_start_ns)
    a, gamma, _ = _fit_window_counts(tau, cts[None, :])
    if not np.isfinite(a[0]):
        raise NumericalError("fit-failed", "contrast fit found no finite minimum")
    return FitResult(float(a[0]), float(gamma[0]), window_ns, float(tail_start_ns))


def bootstrap_error(fit: FitResult, hist: CoincidenceHistogram, *, n_samples: int = 50,
                    seed: int = 0) -> FitResult:
    """Bootstrap standard error of the fitted contrast.

    n_samples synthetic datasets are drawn at once from the fitted model over
    the same bins the fit used, multinomially conditioned on the observed
    total count, and refit as the rows of _fit_window_counts calls.  The
    rows are cut by np.array_split into one part per CPU the process may
    use (at most n_samples), and _map_on_workers refits the parts at once;
    each row's arithmetic involves no other row, so the refits are bitwise
    those of one call over all rows, whatever the thread count.  The parts'
    work arrays are alive together, and they add up to one call's.
    a_err is the sample standard deviation of the refitted amplitudes
    that did not fail; n_failed counts the failed refits and n_at_edge the
    others whose decay stopped on an edge of GAMMA_FIT_BAND.  Failed refits
    above MAX_FAILED_SHARE (20 %), or fewer than two that did not fail,
    raise NumericalError "unstable-fit".  ParameterError "too-many-samples"
    is raised before drawing when the refits' work arrays,
    _BOOTSTRAP_BYTES_PER_ENTRY per sample, scan point and bin, would not fit
    in the installed memory, and "bad-seed" for a negative seed; the fit's
    window and tail get the refusals of _fit_bins first.
    """
    if n_samples < 2:
        raise ParameterError("too-few-samples", "need at least 2 bootstrap samples")
    _, tau, cts = _fit_bins(hist, fit.window_ns, fit.tail_start_ns)
    need = _BOOTSTRAP_BYTES_PER_ENTRY * float(n_samples) * _LOG_GAMMA_SCAN.size * tau.size
    if not need <= _physical_memory_bytes():
        raise ParameterError("too-many-samples",
                             f"{n_samples} bootstrap samples need about {need:.3g} bytes, "
                             "more than fits in memory")
    model = np.maximum(1.0 - fit.amplitude * np.exp(-fit.gamma_fit * np.abs(tau)), 1e-12)
    p = model / model.sum()
    counts = _rng(seed).multinomial(int(cts.sum()), p, size=n_samples)
    parts = _map_on_workers(lambda rows: _fit_window_counts(tau, rows)[:2],
                            np.array_split(counts, min(_worker_count(), n_samples)))
    amps, gammas = (np.concatenate(x) for x in zip(*parts))
    ok = np.isfinite(amps)
    failures = n_samples - int(ok.sum())
    # a standard error needs two amplitudes, whatever MAX_FAILED_SHARE allows
    if failures > MAX_FAILED_SHARE * n_samples or failures > n_samples - 2:
        raise NumericalError("unstable-fit",
                             f"{failures}/{n_samples} bootstrap refits failed")
    a_err = float(np.std(amps[ok], ddof=1))
    return replace(fit, a_err=a_err, n_bootstrap=n_samples, seed=seed,
                   n_failed=failures, n_at_edge=int(np.isin(gammas[ok], GAMMA_FIT_BAND).sum()))


def saturation_transmission(beta: float, od0: float, s0) -> np.ndarray:
    """Transmission of a saturable chain versus drive power s0 > 0.

    Solves ln T + beta * s0 * (T - 1) = -od0 for T at each power; the
    left side is strictly increasing in T so the root in (0, 1) is unique.
    With k = beta * s0, x = k T solves x + ln x = ln k + k - od0, so
    T = W(ln k + k - od0) / k with W the Wright omega function.  At weak
    drive this reduces to T = exp(-od0).  T rises with s0; rounding can
    break that by an ulp between nearly equal powers, so each T is raised to
    the largest T at a lower or equal power.
    """
    if not (math.isfinite(beta) and 0.0 < beta < 0.5):
        raise ParameterError("beta-out-of-range", f"beta must be in (0, 0.5), got {beta}")
    if not (math.isfinite(od0) and od0 > 0):
        raise ParameterError("od0-not-positive", f"od0 must be > 0, got {od0!r}")
    k = beta * np.atleast_1d(np.asarray(s0, dtype=float))
    if not np.all((k > 0) & np.isfinite(k)):
        raise ParameterError("power-not-positive", "drive powers must be finite and > 0")
    t = special.wrightomega(np.log(k) + k - od0) / k
    flat, order = t.reshape(-1), np.argsort(k, axis=None, kind="stable")
    flat[order] = np.maximum.accumulate(flat[order])
    return t


def fit_beta_saturation(data: SaturationData, od0: float) -> SaturationFit:
    """Least-squares estimate of beta from transmission saturation.

    The zero-power optical depth od0 is taken as known (from a weak-drive
    calibration); beta is the only free parameter, entering through the
    saturation parameter beta * s0 of each drive power.  Data that never
    approach saturation, or that are fully saturated throughout, carry no
    information on beta and are refused.  The search runs over
    1e-5 <= beta <= 0.49.
    """
    from scipy import optimize  # deferred: importing chiralchain loads no scipy.optimize
    if data.n_points < 5:
        raise DataError("too-few-points", f"need >= 5 powers, got {data.n_points}")

    def resid(b):
        return saturation_transmission(float(b[0]), od0, data.s0) - data.transmission

    res = optimize.least_squares(resid, x0=[0.01], bounds=([1e-5], [0.49]),
                                 xtol=1e-14, ftol=1e-14)
    if not res.success:
        raise NumericalError("fit-failed", "saturation fit did not converge")
    beta = float(res.x[0])
    s_eff = beta * data.s0
    if s_eff.max() < 0.5 or s_eff.min() > 2.0:
        raise DataError("uninformative",
                        "drive powers must span the onset of saturation (beta * s0 near 1); "
                        f"fitted range is [{s_eff.min():.3g}, {s_eff.max():.3g}]")
    dof = max(data.n_points - 1, 1)
    sigma2 = float(res.fun @ res.fun) / dof
    jtj = float(np.dot(res.jac[:, 0], res.jac[:, 0]))
    if jtj <= 0 or not math.isfinite(jtj):
        raise DataError("uninformative", "saturation model is flat in beta over these powers")
    beta_err = math.sqrt(sigma2 / jtj)
    return SaturationFit(beta=beta, beta_err=beta_err, od0=float(od0),
                         residual_rms=math.sqrt(float(res.fun @ res.fun) / data.n_points))


def synth_saturation_data(beta: float, od0: float, s0, *, rel_noise: float = 0.0,
                          seed: int = 0) -> SaturationData:
    """Saturation measurement with multiplicative Gaussian transmission noise.

    Raises ParameterError "bad-noise" for a rel_noise that is not finite
    and >= 0, and "bad-seed" for a negative seed, before any work.
    """
    if not (math.isfinite(rel_noise) and rel_noise >= 0):
        raise ParameterError("bad-noise", f"rel_noise must be finite and >= 0, got {rel_noise}")
    rng = _rng(seed)
    s = np.asarray(s0, dtype=float)
    t = saturation_transmission(beta, od0, s)
    if rel_noise > 0:
        t = t * (1.0 + rel_noise * rng.standard_normal(t.size))
        t = np.clip(t, 1e-15, 1.0)
    return SaturationData(s, t)
