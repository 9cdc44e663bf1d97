"""Measurement chain: synthesis, histogramming, normalization, MLE, saturation."""

from dataclasses import replace
import math
import sys
import threading
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy import optimize

from chiralchain import photonstats
from chiralchain import (
    CoincidenceHistogram,
    DataError,
    FitResult,
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    SaturationData,
    TauGrid,
    TimeTagStream,
    bootstrap_error,
    chain_g2,
    curve_values_ns,
    fit_beta_saturation,
    histogram_timetags,
    mle_fit_g2,
    normalize_histogram,
    od_to_atoms,
    saturation_transmission,
    synth_histogram,
    synth_saturation_data,
    synth_timetags,
    time_unit_ns,
)
from chiralchain.photonstats import (
    GAMMA_FIT_BAND,
    MAX_FAILED_SHARE,
    TAIL_START_NS,
    _A_FAIL,
    _LOG_GAMMA_SCAN,
    _fit_bins,
    _fit_window_counts,
    _pairs_within,
    _symmetric_centers,
)


def _centers(k, width=2.0):
    return np.arange(-k, k + 1, dtype=float) * width


def _exp_contrast_curve(amplitude, gamma_per_ns, tau_max_ns=400.0):
    """Exponential-contrast truth on a physical-time grid."""
    grid = TauGrid(np.linspace(0.0, tau_max_ns, 801), unit="ns")
    return G2Curve(grid, 1.0 - amplitude * np.exp(-gamma_per_ns * grid.values))


# ---------------------------------------------------------------------------
# containers


def test_histogram_validation():
    good = _centers(5)
    CoincidenceHistogram(good, np.arange(11))
    with pytest.raises(DataError):
        CoincidenceHistogram(good[:2], np.zeros(2, int))
    with pytest.raises(DataError):
        CoincidenceHistogram(good, np.zeros(5, int))
    with pytest.raises(DataError):
        CoincidenceHistogram(good, -np.ones(11, int))
    with pytest.raises(DataError):
        CoincidenceHistogram(good, np.full(11, 0.5))
    with pytest.raises(DataError):
        CoincidenceHistogram(np.linspace(-10, 10.5, 11), np.zeros(11, int))
    with pytest.raises(DataError):
        CoincidenceHistogram(good + 1.0, np.zeros(11, int))
    # a count past int64 would cast to -2**63, and a total past it wrap to 1
    past = (np.where(good == 0, 1e19, 0.0),
            np.concatenate([np.full(4, 2**62, np.int64), np.ones(1, np.int64), np.zeros(6, int)]))
    for counts in past:
        with pytest.raises(DataError) as err:
            CoincidenceHistogram(good, counts)
        assert err.value.code == "counts-overflow"
    assert CoincidenceHistogram(good, np.where(good == 0, 2**63 - 1, 0)).total_counts == 2**63 - 1


def test_histogram_bin_width_is_the_center_step():
    # 0.5 ns centers need no separate width, and the width cannot disagree
    h = CoincidenceHistogram(np.arange(-5, 6) * 0.5, np.arange(11))
    assert h.bin_width_ns == 0.5
    assert CoincidenceHistogram(_centers(5, width=3.0), np.arange(11)).bin_width_ns == 3.0
    with pytest.raises(TypeError):
        CoincidenceHistogram(_centers(5), np.arange(11), 2.0)
    # symmetric centers that do not rise in uniform steps, and non-finite ones
    for tau in ([-3.0, -1.0, 0.0, 1.0, 3.0], [2.0, 0.0, -2.0], [0.0, 0.0, 0.0],
                [-np.inf, 0.0, np.inf], [-2.0, np.nan, 2.0]):
        with pytest.raises(DataError) as err:
            CoincidenceHistogram(tau, np.zeros(len(tau), int))
        assert err.value.code == "bins-not-uniform", tau


def test_histogram_accepts_integral_floats():
    h = CoincidenceHistogram(_centers(3), np.full(7, 4.0))
    assert h.counts.dtype == np.int64
    assert h.total_counts == 28


def test_time_tag_stream():
    s = TimeTagStream([10, 30], [20, 25])
    np.testing.assert_array_equal(s.t0_ns, [10, 30])
    np.testing.assert_array_equal(s.t1_ns, [20, 25])
    assert s.t0_ns.dtype == np.int64 and s.t1_ns.dtype == np.int64
    assert s.n_tags == 4
    assert TimeTagStream([], []).n_tags == 0
    for t0, t1 in (([10, 5], [1]), ([1], [3, 2])):
        with pytest.raises(DataError) as err:
            TimeTagStream(np.array(t0, np.int64), np.array(t1, np.int64))
        assert err.value.code == "timestamps-not-sorted"
    # integral floats outside int64 would cast to -2**63, unsigned values
    # from 2**63 up would wrap to negative int64
    for t0, t1 in (([1.5], []), ([], [2.0, 2.5]), ([1.0, np.inf], []), ([], [1.0, 1e30]),
                   ([np.uint64(2**63 + 5)], [])):
        with pytest.raises(DataError) as err:
            TimeTagStream(np.array(t0), np.array(t1))
        assert err.value.code == "timestamps-not-integer"
    with pytest.raises(DataError) as err:
        TimeTagStream(np.zeros((2, 2), np.int64), [])
    assert err.value.code == "timestamps-not-1d"


def test_fit_result_to_dict():
    fit = FitResult(amplitude=0.4, gamma_fit=0.004, window_ns=30.0,
                    a_err=0.05, n_bootstrap=50, seed=7, n_failed=2, n_at_edge=9)
    assert fit.to_dict() == {
        "A": 0.4, "a_err": 0.05, "gamma_fit_per_ns": 0.004, "g2_zero": 0.6,
        "window_ns": 30.0, "n_bootstrap": 50, "seed": 7,
        "gamma_at_edge": True, "n_failed": 2, "n_at_edge": 9,
    }


def test_fit_result_derives_g2_zero_and_band_edge():
    for gamma, at_edge in ((GAMMA_FIT_BAND[0], True), (0.1, False), (GAMMA_FIT_BAND[1], True)):
        fit = FitResult(amplitude=-3.5, gamma_fit=gamma, window_ns=15.0)
        assert fit.g2_zero == 4.5 and fit.gamma_at_edge is at_edge
    # neither can be stated apart from the amplitude and decay they follow from
    for field in ("g2_zero", "gamma_at_edge"):
        with pytest.raises(TypeError):
            FitResult(amplitude=0.4, gamma_fit=0.1, window_ns=30.0, **{field: 0.9})


def test_saturation_data_validation():
    for s0, t, code in (([1.0, 1.0], [0.5, 0.5], "powers-not-increasing"),
                        ([1.0, 2.0], [0.5, 1.5], "transmission-out-of-range"),
                        ([-1.0, 2.0], [0.5, 0.5], "power-not-positive"),
                        ([1.0, 2.0], [0.5, 0.5, 0.5], "saturation-shape-mismatch")):
        with pytest.raises(DataError) as err:
            SaturationData(np.array(s0), np.array(t))
        assert err.value.code == code


# ---------------------------------------------------------------------------
# synthesis and histogramming


def test_curve_values_ns_converts_units():
    params = PhysicalParams(beta=0.1, n_atoms=2)
    curve = chain_g2(params, TauGrid.linear(10.0, 201))
    scale = time_unit_ns(5.2)
    taus_ns = np.array([0.0, 10.0, -10.0, 1e6])
    vals = curve_values_ns(curve, taus_ns, gamma_mhz=5.2)
    assert vals[0] == pytest.approx(curve.values[0])
    assert vals[1] == pytest.approx(np.interp(10.0 / scale, curve.grid.values, curve.values))
    assert vals[2] == vals[1]
    assert vals[3] == 1.0


def test_synth_histogram_statistics():
    curve = _exp_contrast_curve(0.0, 0.05)  # flat g2 = 1
    rate = 5e4
    h = synth_histogram(curve, rate, rate, 50.0, seed=1)
    expect = rate * rate * 2e-9 * 50.0
    assert h.counts.mean() == pytest.approx(expect, rel=0.02)
    assert h.n_bins == 321
    # seeded: same seed identical, different seed not
    again = synth_histogram(curve, rate, rate, 50.0, seed=1)
    np.testing.assert_array_equal(h.counts, again.counts)
    other = synth_histogram(curve, rate, rate, 50.0, seed=2)
    assert np.any(other.counts != h.counts)


def test_synth_histogram_modulates_by_g2():
    curve = _exp_contrast_curve(0.9, 0.02)
    h = synth_histogram(curve, 1e5, 1e5, 20.0, seed=0)
    center = h.counts[np.argmin(np.abs(h.tau_ns))]
    tail = h.counts[np.abs(h.tau_ns) > 250.0].mean()
    assert center < 0.35 * tail


def test_synth_timetags_rates_and_flat_correlation():
    curve = _exp_contrast_curve(0.0, 0.05)
    stream = synth_timetags(curve, 2e4, 2e4, 5.0, seed=11)
    n0 = stream.t0_ns.size
    n1 = stream.t1_ns.size
    assert n0 == pytest.approx(1e5, abs=5 * math.sqrt(1e5))
    assert n1 == pytest.approx(1e5, abs=5 * math.sqrt(1e5))
    h = histogram_timetags(stream)
    level = 2e4 * 2e4 * 2e-9 * 5.0
    assert h.counts.mean() == pytest.approx(level, rel=0.05)


def test_synth_timetags_deterministic():
    curve = _exp_contrast_curve(0.5, 0.05)
    a = synth_timetags(curve, 1e4, 1e4, 2.0, seed=3)
    b = synth_timetags(curve, 1e4, 1e4, 2.0, seed=3)
    np.testing.assert_array_equal(a.t0_ns, b.t0_ns)
    np.testing.assert_array_equal(a.t1_ns, b.t1_ns)


def _chain_curve(od):
    n = int(round(od_to_atoms(od, 0.0081)))
    return chain_g2(PhysicalParams(0.0081, n, 0.0), TauGrid.linear(12.0, 481))


def test_synth_timetags_exact_at_high_rate():
    # at 5e6/s each detector-0 tag has ~3.7 others within the 367 ns support,
    # whose excess raises the uncorrelated level by R = rate1 * int (g2 - 1)
    # = 0.18 at OD 6.75; a baseline not lowered by R reads 1 + (g2 - 1) / (1 + R)
    # in the tail-normalised histogram, 1.50 instead of the model g2(60 ns) = 1.592
    curve = _chain_curve(6.75)
    h = histogram_timetags(synth_timetags(curve, 5e6, 5e6, 0.2, seed=1))
    g2 = normalize_histogram(h)
    at60 = np.abs(h.tau_ns) == 60.0
    tail = np.abs(h.tau_ns) > TAIL_START_NS
    measured = g2.values[g2.grid.values == 60.0][0]
    sigma = measured * math.sqrt(1.0 / h.counts[at60].sum() + 1.0 / h.counts[tail].sum())
    model = curve_values_ns(curve, np.array([60.0]))[0]
    assert abs(measured - model) <= 3.0 * sigma, (measured, model, sigma)


def test_synth_timetags_refuses_clipped_intensity():
    # OD 6.75: g2 falls to 0 near 8 ns.  At 1e7/s R = 0.37, so the intensity
    # clips at 0 wherever g2 < R, adding ~5 % to the detector-1 rate; at
    # 3e7/s R = 1.1 leaves no uncorrelated level, refused before any draw
    curve = _chain_curve(6.75)
    for rate, duration in ((1e7, 0.02), (3e7, 1.0)):
        with pytest.raises(NumericalError) as err:
            synth_timetags(curve, rate, rate, duration, seed=1)
        assert err.value.code == "intensity-clipped"


@pytest.mark.parametrize("block", [1, 3, photonstats._PAIR_BLOCK], ids=["block1", "block3", "default"])
@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.integers(-40, 40), max_size=25), b=st.lists(st.integers(-40, 40), max_size=25),
       reach=st.integers(0, 12), as_float=st.booleans())
@example(a=[], b=[0], reach=3, as_float=False)
@example(a=[0], b=[], reach=3, as_float=False)
@example(a=[-2, -2, 5, 5], b=[-2, 5, 5], reach=0, as_float=False)
# the outer blocks of a one-tag block size reach no b-tag
@example(a=[-40, 0, 0, 40], b=[-1, 0, 1], reach=1, as_float=True)
def test_pairs_within_matches_all_pairs(block, a, b, reach, as_float):
    # a narrow value range makes ties within and across the two sides common;
    # quarter-ns floats keep every difference exact
    a, b = np.sort(np.array(a, np.int64)), np.sort(np.array(b, np.int64))
    if as_float:
        a, b, reach = a * 0.25, b * 0.25, reach * 0.25
    # more workers than blocks or CPUs, so the thread pool runs on any machine
    with mock.patch.object(photonstats, "_PAIR_BLOCK", block), \
            mock.patch.object(photonstats, "_worker_count", lambda: 3):
        i, j = _pairs_within(a, b, reach)
    _assert_all_pairs_pass_major(a, b, reach, i, j)


def _assert_all_pairs_pass_major(a, b, reach, i, j):
    """(i, j) holds every pair of a and b within reach once, in serial pass-major order."""
    got = list(zip(i.tolist(), j.tolist()))
    # Python ints for int64 tags, so no difference wraps near the int64 range
    want = {(p, q) for p in range(a.size) for q in range(b.size)
            if abs(b[q] - a[p] if a.dtype.kind == "f" else int(b[q]) - int(a[p])) <= reach}
    assert len(got) == len(set(got)) and set(got) == want
    # serial pass-major order: every a-tag's first partner in a order, then
    # every second partner, and so on (an a-tag's partners are consecutive in b)
    first = {}
    for p, q in sorted(want):
        first.setdefault(p, q)
    assert got == sorted(want, key=lambda pq: (pq[1] - first[pq[0]], pq[0]))


@st.composite
def _sparse_tags(draw):
    """Sorted a and b tags on a grid of wide steps, each jittered within reach."""
    reach = draw(st.sampled_from([0, 1, 5, 12, 2**62]))
    as_float = draw(st.booleans())
    step = draw(st.sampled_from([37, 10**6] + ([] if as_float else [2**40])))
    # the grid's first point: near 0, or for int64 tags near either end of the range
    base = draw(st.sampled_from([0, -40 * step] if as_float
                                else [0, -2**63 + 13, 2**63 - 1 - 40 * step - 13]))
    jitter = min(reach, 12) + 1
    tags = st.lists(st.tuples(st.integers(0, 40), st.integers(-jitter, jitter)), max_size=25)
    # grid points shared by the two sides give ties and pairs across them
    a, b = ([base + k * step + d for k, d in draw(tags)] for _ in range(2))
    a, b = np.sort(np.array(a, np.int64)), np.sort(np.array(b, np.int64))
    if as_float:  # quarter-ns floats keep every difference exact
        a, b, reach = a * 0.25, b * 0.25, reach * 0.25
    return a, b, reach


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("block", [1, 3, photonstats._PAIR_BLOCK], ids=["block1", "block3", "default"])
@settings(max_examples=150, deadline=None)
@given(tags=_sparse_tags(), cells=st.sampled_from([64, photonstats._FILTER_CELLS]))
def test_pairs_within_sparse_tags_match_all_pairs(block, workers, tags, cells):
    # sparse tags leave most cells of the occupancy filter empty: cells of
    # width 2 reach, or span / cells with 64 cells, put tags near the cell
    # edges; a reach of 2**62, past every span, and one-tag blocks at
    # reach 0 keep every tag
    a, b, reach = tags
    with mock.patch.object(photonstats, "_PAIR_BLOCK", block), \
            mock.patch.object(photonstats, "_FILTER_CELLS", cells), \
            mock.patch.object(photonstats, "_worker_count", lambda: workers):
        i, j = _pairs_within(a, b, reach)
    _assert_all_pairs_pass_major(a, b, reach, i, j)


@pytest.mark.parametrize("as_float", [False, True], ids=["int64", "float"])
def test_occupancy_filter_keeps_every_tag_with_a_partner(as_float):
    # the filter keeps about one tag in eight of a 3e4/s block and three in
    # four of a 1e6/s one, every tag with a partner among them
    curve = _chain_curve(5.13)
    reach = 367.0 if as_float else 321
    for rate, shares in ((3e4, (0.05, 0.2)), (1e6, (0.6, 0.9))):
        stream = synth_timetags(curve, rate, rate, 1.1 * photonstats._PAIR_BLOCK / rate, seed=5)
        a = stream.t0_ns[:photonstats._PAIR_BLOCK]
        b = stream.t1_ns[:stream.t1_ns.searchsorted(a[-1] + reach, "right")]
        if as_float:
            a, b = a.astype(float), b.astype(float)
        kept = photonstats._occupancy_filter(a, b, reach)
        j = np.minimum(b.searchsorted(a - reach), b.size - 1)
        partnered = np.abs(b[j] - a) <= reach
        assert partnered.any() and kept[partnered].all()
        assert shares[0] < kept.mean() < shares[1]


def test_map_on_workers_runs_each_item_once_in_order(monkeypatch):
    # more workers than CPUs and a short switch interval, so the threads
    # interleave at every bytecode: a lost or repeated item, or a result in
    # the wrong slot, breaks the list
    monkeypatch.setattr(photonstats, "_worker_count", lambda: 8)
    calls, threads = [], set()
    # the first item waits until another item has started, which only
    # another thread can start meanwhile
    started = threading.Event()

    def square(x):
        calls.append(x)
        threads.add(threading.get_ident())
        if x:
            started.set()
        else:
            started.wait(timeout=30)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert photonstats._map_on_workers(square, range(2000)) == [x * x for x in range(2000)]
    finally:
        sys.setswitchinterval(interval)
    assert started.is_set() and len(threads) > 1
    assert sorted(calls) == list(range(2000))

    def fail_at_7(x):
        if x == 7:
            raise ValueError(x)
        return x

    # an error on any thread reaches the caller
    with pytest.raises(ValueError):
        photonstats._map_on_workers(fail_at_7, range(50))
    # one worker runs inline, on the calling thread
    monkeypatch.setattr(photonstats, "_worker_count", lambda: 1)
    assert photonstats._map_on_workers(lambda x: threading.get_ident(), [0, 1]) == [
        threading.get_ident()] * 2


def _sparse_tail_histogram(per_side):
    """Three counts per bin within 15 ns and per_side single counts at each end."""
    tau = _centers(160)
    counts = np.where(np.abs(tau) <= 15, 3, 0)
    counts[:per_side] = counts[-per_side:] = 1
    return CoincidenceHistogram(tau, counts)


def test_timetags_do_not_depend_on_worker_count(monkeypatch):
    # every tag, histogram count and bootstrap field matches the one-worker
    # result.  At 3e4/s for 2 s (6e4 tags per detector) the reference runs
    # one block at the default size and blocks of 2**10 cut the same stream
    # into about 60; at 1e6/s window candidates are a larger share of the
    # detector-1 candidates, whose two sorted runs are merged
    curve = _chain_curve(5.13)
    periods = (None, 10_000.0)
    # weak contrast, where refits stop on a band edge, and a sparse tail,
    # where refits fail; 7 and 2 samples split unevenly and into one-row
    # parts over three workers.  The sparse tail's 7 refits at seed 3 give
    # another a_err in another row order, so parts joined out of order fail
    weak = synth_histogram(_exp_contrast_curve(0.05, 0.04), 3e4, 3e4, 60.0, seed=2)
    sparse = _sparse_tail_histogram(2)
    weak, sparse = [(mle_fit_g2(h), h) for h in (weak, sparse)]
    boot_cases = [(weak, 50, 5), (weak, 7, 5), (weak, 2, 5), (sparse, 50, 5), (sparse, 7, 3)]

    def outputs():
        streams = [synth_timetags(curve, rate, rate, duration_s, seed=7)
                   for rate, duration_s in ((3e4, 2.0), (1e6, 0.1))]
        counts = [histogram_timetags(s, pulse_period_ns=p).counts for s in streams for p in periods]
        boots = [bootstrap_error(fit, h, n_samples=n, seed=seed)
                 for (fit, h), n, seed in boot_cases]
        return streams, counts, boots

    monkeypatch.setattr(photonstats, "_worker_count", lambda: 1)
    ref_streams, ref_counts, ref_boots = outputs()
    assert ref_streams[0].t0_ns.size < photonstats._PAIR_BLOCK
    # the sums of the serially drawn tags, so a draw out of order fails too
    assert [(int(s.t0_ns.sum()), int(s.t1_ns.sum())) for s in ref_streams] == [
        (60180614251472, 60167646054948), (5010532542393, 5012124486238)]
    assert ref_boots[0].n_at_edge > 0 and [b.n_failed for b in ref_boots[3:]] == [5, 1]
    monkeypatch.setattr(photonstats, "_PAIR_BLOCK", 2**10)
    for workers in (1, 2, 3):
        monkeypatch.setattr(photonstats, "_worker_count", lambda: workers)
        streams, counts, boots = outputs()
        for stream, ref in zip(streams, ref_streams):
            assert np.array_equal(stream.t0_ns, ref.t0_ns)
            assert np.array_equal(stream.t1_ns, ref.t1_ns)
        for got, want in zip(counts, ref_counts):
            assert np.array_equal(got, want)
        # FitResult compares every field
        assert boots == ref_boots


@pytest.mark.parametrize("rate, duration_s", [(3e4, 2.0), (2e6, 0.2), (3e4, 40.0)])
def test_thinning_guard_matches_measured_peak(monkeypatch, rate, duration_s):
    # the guard's byte count lies between the traced peak of synthesis plus
    # histogramming and twice that peak: the pair search's work arrays
    # dominate at 3e4/s for 2 s, the pairs within the curve support at 2e6/s
    # and the tag arrays at 3e4/s for 40 s
    curve = _chain_curve(5.13)
    tracemalloc.start()
    try:
        stream = synth_timetags(curve, rate, rate, duration_s, seed=1)
        histogram_timetags(stream)
        histogram_timetags(stream, pulse_period_ns=10_000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del stream
    monkeypatch.setattr(photonstats, "_physical_memory_bytes", lambda: 2.0 * peak)
    synth_timetags(curve, rate, rate, duration_s, seed=1)
    monkeypatch.setattr(photonstats, "_physical_memory_bytes", lambda: float(peak))
    with pytest.raises(NumericalError) as err:
        synth_timetags(curve, rate, rate, duration_s, seed=1)
    assert err.value.code == "thinning-overflow"


def _traced_peak(func, *args, **kwargs):
    tracemalloc.start()
    try:
        func(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads, rate1, rate2, duration_s",
                         [(4, 3e4, 3e4, 10.0), (8, 3e4, 3e4, 10.0), (8, 1e5, 5e5, 3.0)],
                         ids=["4", "8", "8-asymmetric"])
def test_thinning_guard_charges_each_pair_search_thread(monkeypatch, threads, rate1, rate2,
                                                        duration_s):
    # each pair-search thread holds the work arrays of one block, and how many
    # blocks are alive at once depends on scheduling.  So the guard must cover
    # the traced peak on `threads` threads and the worst case: the one-thread
    # peak plus one block's traced work for each further thread that gets a
    # block (10 s at 3e4/s and 3 s at 1e5/s make 5 blocks of detector-0 tags;
    # at 5e5/s a block reaches five times as many detector-1 tags)
    curve = _chain_curve(5.13)

    def synth_and_histogram():
        histogram_timetags(synth_timetags(curve, rate1, rate2, duration_s, seed=1))

    monkeypatch.setattr(photonstats, "_worker_count", lambda: 1)
    one_thread = _traced_peak(synth_and_histogram)
    stream = synth_timetags(curve, rate1, rate2, duration_s, seed=1)
    blocks = -(-stream.t0_ns.size // photonstats._PAIR_BLOCK)
    a = stream.t0_ns[:photonstats._PAIR_BLOCK].astype(float)
    b = stream.t1_ns.astype(float)
    block = _traced_peak(photonstats._pairs_within, a, b, 367.0)
    assert block <= photonstats._THREAD_BYTES
    del stream, a, b
    monkeypatch.setattr(photonstats, "_worker_count", lambda: threads)
    peak = max(_traced_peak(synth_and_histogram),
               one_thread + (min(threads, blocks) - 1) * block)
    monkeypatch.setattr(photonstats, "_physical_memory_bytes", lambda: float(peak))
    with pytest.raises(NumericalError) as err:
        synth_timetags(curve, rate1, rate2, duration_s, seed=1)
    assert err.value.code == "thinning-overflow"


def test_synth_and_histogram_peak_near_the_stream(monkeypatch):
    # the draws live in two full-length buffers that become the stream's
    # arrays, so synthesis plus histogramming peaks near the stream's 8 B per
    # tag (about 1.19 times it; 2.15 times with a copy per step).  Each
    # pair-search thread holds about 1 MB of block arrays, so the bound is
    # taken on two threads, whatever the machine
    monkeypatch.setattr(photonstats, "_worker_count", lambda: 2)
    curve = _chain_curve(5.13)
    tracemalloc.start()
    try:
        stream = synth_timetags(curve, 3e4, 3e4, 40.0, seed=1)
        histogram_timetags(stream)
        histogram_timetags(stream, pulse_period_ns=10_000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * stream.n_tags


def test_histogram_timetags_places_pairs():
    stream = TimeTagStream([1000_000], [1000_005])
    h = histogram_timetags(stream, bin_width_ns=2.0, tau_max_ns=10.0)
    assert h.total_counts == 1
    assert h.counts[h.tau_ns == 6.0] == 1  # tau = +5 ns falls in the [5, 7) bin
    far = TimeTagStream([0], [10_000_000])
    assert histogram_timetags(far, tau_max_ns=10.0).total_counts == 0
    # the same delay 4 ns below the int64 maximum, where t0 + reach would wrap
    top = TimeTagStream([2**63 - 9], [2**63 - 4])
    h = histogram_timetags(top, bin_width_ns=2.0, tau_max_ns=10.0)
    assert h.total_counts == 1 and h.counts[h.tau_ns == 6.0] == 1
    # a 3 ns delay 5 ns above the int64 minimum, where t0 - reach would wrap
    bottom = TimeTagStream([-2**63 + 5], [-2**63 + 8])
    h = histogram_timetags(bottom)
    assert h.total_counts == 1 and h.counts[h.tau_ns == 4.0] == 1


def test_pairs_within_does_not_wrap_at_the_int64_range():
    # tags 2**64 - 322 ns apart, whose int64 difference wraps to -322
    i, j = _pairs_within(np.array([-2**63 + 321]), np.array([2**63 - 1]), 320)
    assert i.size == 0 and j.size == 0
    lo, hi = -2**63, 2**63 - 1
    a = np.array([lo, lo + 5, lo + 400, -7, hi - 300, hi], np.int64)
    b = np.array([lo, lo + 8, lo + 330, 0, hi - 20, hi], np.int64)
    for reach in (0, 7, 320, 2**62, hi):
        i, j = _pairs_within(a, b, reach)
        want = {(p, q) for p in range(a.size) for q in range(b.size)
                if abs(int(b[q]) - int(a[p])) <= reach}
        assert len(i) == len(want) and set(zip(i.tolist(), j.tolist())) == want, reach


def test_histogram_timetags_matches_all_pairs_reference():
    # odd differences sit exactly on bin edges (2 ns bins centered on even
    # ns), including both ends of the range, +-321 ns; every pair is binned
    # as numpy bins float differences, in half-open bins [lo, hi)
    t0 = np.array([1_000, 1_004, 1_500, 2_000, 9_000], np.int64)
    t1 = np.array([679, 995, 1_001, 1_005, 1_321, 1_325, 1_821, 2_321, 2_322, 9_000], np.int64)
    diffs = (t1[None, :] - t0[:, None]).ravel().astype(float)
    for width, tau_max in ((2.0, 320.0), (3.0, 90.0)):
        h = histogram_timetags(TimeTagStream(t0, t1), bin_width_ns=width, tau_max_ns=tau_max)
        edges = np.append(h.tau_ns - width / 2.0, h.tau_ns[-1] + width / 2.0)
        ref = np.histogram(diffs[(diffs >= edges[0]) & (diffs < edges[-1])], edges)[0]
        np.testing.assert_array_equal(h.counts, ref)
    h = histogram_timetags(TimeTagStream(t0, t1))
    for tau, center in ((-321, -320.0), (-5, -4.0), (1, 2.0), (5, 6.0)):
        assert tau in diffs
        assert h.counts[h.tau_ns == center] >= 1
    # tau = +321 is the open outer edge, and no delay falls in [319, 321)
    assert 321 in diffs and h.counts[-1] == 0


def test_histogram_timetags_bins_take_equal_delay_counts():
    # one detector-1 tag at each integer delay -321..321 from a detector-0
    # tag: with 2 ns bins on odd edges every bin, the outer ones included,
    # takes exactly two delays
    t1 = 10_000 + np.arange(-321, 322, dtype=np.int64)
    h = histogram_timetags(TimeTagStream(np.array([10_000], np.int64), t1))
    assert h.n_bins == 321
    assert np.all(h.counts == 2)


def test_histogram_timetags_sign_convention():
    # detector-1 tag before detector-0 tag: negative tau
    stream = TimeTagStream([1000_010], [1000_005])
    h = histogram_timetags(stream, bin_width_ns=2.0, tau_max_ns=10.0)
    assert h.counts[h.tau_ns == -4.0] == 1


def _time_order_blocks(tags, cuts):
    """Blocks of (timestamp, detector-1 flag) tags in file order, cut before each index in cuts."""
    t = np.array([x for x, _ in tags], np.int64)
    is1 = np.array([c for _, c in tags], bool)
    bounds = [0, *sorted(min(c, t.size) for c in cuts), t.size]
    return [TimeTagStream(t[lo:hi][~is1[lo:hi]], t[lo:hi][is1[lo:hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


# bases of the drawn tags: the ungated start, a live gated pulse (pulse 20
# starts at 200 us), and the two ends of the int64 range
_TAG_BASES = (0, 200_000, -2**63, 2**63 - 4001)


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(_TAG_BASES),
       tags=st.lists(st.tuples(st.integers(0, 4000), st.booleans()), max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=8),
       period=st.sampled_from([None, 10_000.0]))
# equal timestamps across every cut, on both channels, in both orders
@example(base=0, tags=[(5, True), (5, False), (5, True), (5, False), (5, True)],
         cuts=[1, 2, 3, 4], period=None)
# blocks far shorter than the 321 ns reach, and pairs straddling the cuts
@example(base=-2**63, tags=[(x, x % 3 == 0) for x in range(0, 700, 7)],
         cuts=[5, 6, 30, 31, 32, 70], period=None)
# a carry tag exactly the reach, 321 ns, before a block that starts at the
# latest earlier tag: tau = -321 ns falls in the first bin
@example(base=0, tags=[(0, True), (321, True), (321, False)], cuts=[2], period=None)
def test_histogram_timetags_blocks_match_one_shot(base, tags, cuts, period):
    # the tags sorted by time with ties in drawn order, as a file holds them,
    # then cut anywhere: the block-wise counts are the one-shot counts
    tags = sorted(((base + x, c) for x, c in tags), key=lambda tc: tc[0])
    [whole] = _time_order_blocks(tags, [])
    want = histogram_timetags(whole, pulse_period_ns=period).counts
    got = histogram_timetags(iter(_time_order_blocks(tags, cuts)), pulse_period_ns=period).counts
    np.testing.assert_array_equal(got, want)


def test_histogram_timetags_blocks_of_a_synthesized_stream():
    # 2 s at OD 5.13, 1.2e5 tags, cut between every two neighbours in time
    # that are a pair of the two detectors, so hundreds of pairs straddle a cut
    stream = synth_timetags(_chain_curve(5.13), 3e4, 3e4, 2.0, seed=3)
    tags = sorted([(int(x), False) for x in stream.t0_ns] + [(int(x), True) for x in stream.t1_ns])
    t = np.array([x for x, _ in tags])
    is1 = np.array([c for _, c in tags])
    cuts = (np.flatnonzero((np.diff(t) <= 320) & (is1[1:] != is1[:-1])) + 1).tolist()
    assert len(cuts) > 300
    for period in (None, 10_000.0):
        want = histogram_timetags(stream, pulse_period_ns=period)
        got = histogram_timetags(_time_order_blocks(tags, cuts), pulse_period_ns=period)
        assert want.total_counts > 500
        np.testing.assert_array_equal(got.counts, want.counts)


def test_histogram_timetags_blocks_out_of_order():
    # each block is sorted, and the second starts before the first one's last tag
    blocks = [TimeTagStream([10], [20]), TimeTagStream([15], [])]
    with pytest.raises(DataError) as err:
        histogram_timetags(blocks)
    assert err.value.code == "timestamps-not-sorted"
    # a block may start at the latest earlier tag, on either channel
    h = histogram_timetags([TimeTagStream([10], [20]), TimeTagStream([20], [20])])
    assert h.total_counts == 4


def test_histogram_timetags_checks_parameters_before_the_first_block():
    def blocks():
        raise AssertionError("block read before the parameters were checked")
        yield
    for kwargs, code in (({"pulse_period_ns": 5_000.0}, "bad-gate"),
                         ({"tau_max_ns": 1.0}, "bad-tau-max"),
                         ({"bin_width_ns": 1e19, "tau_max_ns": 1e19}, "bad-tau-max")):
        with pytest.raises(ParameterError) as err:
            histogram_timetags(blocks(), **kwargs)
        assert err.value.code == code


def test_histogram_timetags_pulse_gating():
    # the gate is 1000-9000 ns of each pulse, after 20 discarded pulses
    period = 10_000.0
    # pulse 25, phase 4000-4004: inside gate, past the discarded pulses
    live = TimeTagStream([254_000], [254_004])
    h = histogram_timetags(live, pulse_period_ns=period)
    assert h.total_counts == 1
    # same offsets in pulse 0 are discarded
    early = TimeTagStream([4_000], [4_004])
    h0 = histogram_timetags(early, pulse_period_ns=period)
    assert h0.total_counts == 0
    # phase outside the gate is dropped even in a live pulse
    dark = TimeTagStream([250_500], [250_504])
    hd = histogram_timetags(dark, pulse_period_ns=period)
    assert hd.total_counts == 0
    # a pair whose detector-1 tag falls just past the gate end
    split = TimeTagStream([258_998], [259_002])
    assert histogram_timetags(split, pulse_period_ns=period).total_counts == 0
    assert histogram_timetags(split).total_counts == 1
    # a period that ends before the gate does
    with pytest.raises(ParameterError) as err:
        histogram_timetags(live, pulse_period_ns=8_000.0)
    assert err.value.code == "bad-gate"


def test_pulse_gate_copies_no_tags():
    # the gate is applied to the tags of each pair: gated histogramming
    # peaks within 2 bytes per tag of the ungated one, where gating the
    # streams first (a float phase, masks and copies of all tags) took 11
    stream = synth_timetags(_chain_curve(3.15), 3e4, 3e4, 20.0, seed=1)
    peaks = []
    for period in (None, 10_000.0):
        tracemalloc.start()
        try:
            histogram_timetags(stream, pulse_period_ns=period)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 * stream.n_tags, (peaks, stream.n_tags)


# ---------------------------------------------------------------------------
# normalization and folding


def test_normalize_flat_histogram_is_unity():
    tau = _centers(160)  # +-320 ns
    h = CoincidenceHistogram(tau, np.full(tau.size, 400, dtype=int))
    curve = normalize_histogram(h)
    assert curve.grid.unit == "ns"
    assert curve.grid.values[0] == 0.0
    np.testing.assert_allclose(curve.values, 1.0, rtol=1e-12)


def test_normalize_folds_and_scales():
    tau = _centers(160)
    counts = np.full(tau.size, 100, dtype=int)
    counts[np.argmin(np.abs(tau))] = 25  # zero-delay bin dips to 1/4
    curve = normalize_histogram(CoincidenceHistogram(tau, counts))
    assert curve.values[0] == pytest.approx(0.25)
    assert curve_values_ns(curve, [300.0])[0] == pytest.approx(1.0)


def test_normalize_requires_tail():
    tau = _centers(50)  # +-100 ns, no bins past 200 ns
    h = CoincidenceHistogram(tau, np.full(tau.size, 100, int))
    with pytest.raises(DataError) as err:
        normalize_histogram(h)
    assert err.value.code == "no-tail"
    sparse = CoincidenceHistogram(_centers(160), np.zeros(321, int))
    with pytest.raises(DataError) as err:
        normalize_histogram(sparse)
    assert err.value.code == "tail-underpopulated"


@settings(max_examples=100, deadline=None)
@given(counts=st.integers(2, 30).flatmap(
    lambda k: st.lists(st.integers(0, 10**6), min_size=2 * k + 1, max_size=2 * k + 1)))
def test_normalize_ignores_the_sign_of_the_delay(counts):
    # the mirrored histogram, counts reversed, folds to the same curve
    tau = _centers(len(counts) // 2)
    tail_start = float(tau[-2])
    hist = CoincidenceHistogram(tau, counts)
    mirror = CoincidenceHistogram(tau, counts[::-1])
    try:
        curve = normalize_histogram(hist, tail_start_ns=tail_start, min_tail_counts=1)
    except DataError as err:
        assert err.code == "tail-underpopulated"
        with pytest.raises(DataError):
            normalize_histogram(mirror, tail_start_ns=tail_start, min_tail_counts=1)
        return
    other = normalize_histogram(mirror, tail_start_ns=tail_start, min_tail_counts=1)
    np.testing.assert_array_equal(other.grid.values, curve.grid.values)
    np.testing.assert_array_equal(other.values, curve.values)


# ---------------------------------------------------------------------------
# MLE contrast fit


def test_mle_recovers_antibunching_contrast():
    true_a, true_g = 0.62, 0.04
    curve = _exp_contrast_curve(true_a, true_g)
    h = synth_histogram(curve, 4e4, 4e4, 120.0, seed=5)
    fit = mle_fit_g2(h)
    assert fit.window_ns == 30.0  # dip selects the wide window
    fit = bootstrap_error(fit, h, seed=100)
    assert fit.a_err is not None and fit.a_err > 0
    assert fit.amplitude == pytest.approx(true_a, abs=4 * fit.a_err)
    assert fit.g2_zero == pytest.approx(1.0 - true_a, abs=4 * fit.a_err)
    assert 0.5 * true_g < fit.gamma_fit < 2.0 * true_g


def test_mle_recovers_bunching_through_narrow_window():
    true_a = -4.0  # g2(0) = 5
    curve = _exp_contrast_curve(true_a, 0.06)
    h = synth_histogram(curve, 4e4, 4e4, 120.0, seed=6)
    fit = mle_fit_g2(h)
    assert fit.window_ns == 15.0  # bunching selects the narrow window
    fit = bootstrap_error(fit, h, seed=100)
    assert fit.amplitude == pytest.approx(true_a, abs=4 * fit.a_err)
    assert fit.g2_zero > 4.0


def test_mle_is_deterministic_and_rate_independent():
    curve = _exp_contrast_curve(0.5, 0.03)
    h = synth_histogram(curve, 3e4, 3e4, 60.0, seed=9)
    f1 = mle_fit_g2(h)
    f2 = mle_fit_g2(h)
    assert f1 == f2
    # the multinomial conditions on the total count: scaling all bins
    # together must leave the estimate nearly unchanged
    h4 = CoincidenceHistogram(h.tau_ns, h.counts * 4)
    f4 = mle_fit_g2(h4)
    assert f4.amplitude == pytest.approx(f1.amplitude, abs=1e-6)


def test_mle_window_override_and_errors():
    curve = _exp_contrast_curve(0.5, 0.03)
    h = synth_histogram(curve, 3e4, 3e4, 60.0, seed=9)
    fit = mle_fit_g2(h, window_ns=20.0)
    assert fit.window_ns == 20.0
    with pytest.raises(ParameterError):
        mle_fit_g2(h, window_ns=-5.0)
    with pytest.raises(DataError) as err:
        mle_fit_g2(h, window_ns=3.0)
    assert err.value.code == "window-too-narrow"
    empty = CoincidenceHistogram(h.tau_ns, np.zeros(h.n_bins, int))
    with pytest.raises(DataError) as err:
        mle_fit_g2(empty, window_ns=30.0)
    assert err.value.code == "empty-window"
    with pytest.raises(DataError) as err:
        bootstrap_error(fit, empty)
    assert err.value.code == "empty-window"
    # +-100 ns, no bins past the 200 ns tail: no level to choose a window by
    short = CoincidenceHistogram(_centers(50), np.full(101, 100, int))
    with pytest.raises(DataError) as err:
        mle_fit_g2(short)
    assert err.value.code == "window-undetermined"


def test_fit_window_must_end_before_the_tail():
    # a window reaching the tail would leave no delay out of the likelihood
    curve = _exp_contrast_curve(0.5, 0.03)
    h = synth_histogram(curve, 3e4, 3e4, 60.0, seed=9)
    for window, tail in ((None, 0.0), (30.0, 30.0), (250.0, 200.0)):
        with pytest.raises(ParameterError) as err:
            mle_fit_g2(h, window_ns=window, tail_start_ns=tail)
        assert err.value.code == "bad-window"
    fit = mle_fit_g2(h)
    with pytest.raises(ParameterError) as err:
        bootstrap_error(replace(fit, tail_start_ns=fit.window_ns), h)
    assert err.value.code == "bad-window"


def test_fit_region_needs_a_tail_and_a_window_of_5_bins():
    # the +-320 ns histogram has no bin past a 400 ns tail; a fit of the
    # window alone, without the tail's anchor, reads g2(0) 0.266 here
    # against 0.340 with the 200 ns tail
    h = synth_histogram(_chain_curve(5.13), 3e4, 3e4, 60.0, seed=2)
    assert h.tau_ns[-1] == 320.0
    fit = mle_fit_g2(h, window_ns=30.0)
    with pytest.raises(DataError) as err:
        mle_fit_g2(h, window_ns=30.0, tail_start_ns=400.0)
    assert err.value.code == "no-tail"
    with pytest.raises(DataError) as err:
        bootstrap_error(replace(fit, tail_start_ns=400.0), h)
    assert err.value.code == "no-tail"
    # a hand-built 3 ns fit holds 3 bins, a window mle_fit_g2 refuses too
    with pytest.raises(DataError) as err:
        bootstrap_error(replace(fit, window_ns=3.0), h)
    assert err.value.code == "window-too-narrow"


def test_bootstrap_is_seeded_and_validates():
    curve = _exp_contrast_curve(0.4, 0.04)
    h = synth_histogram(curve, 3e4, 3e4, 60.0, seed=12)
    fit = mle_fit_g2(h)
    b1 = bootstrap_error(fit, h, n_samples=25, seed=42)
    b2 = bootstrap_error(fit, h, n_samples=25, seed=42)
    assert b1.a_err == b2.a_err
    assert b1.n_bootstrap == 25 and b1.seed == 42
    b3 = bootstrap_error(fit, h, n_samples=25, seed=43)
    assert b3.a_err != b1.a_err
    with pytest.raises(ParameterError):
        bootstrap_error(fit, h, n_samples=1)


def test_bootstrap_refits_the_fit_region():
    # the fit records its tail, and the bootstrap draws over the fit's own
    # window and tail: bins outside them do not move it, bins of the tail do
    h = synth_histogram(_chain_curve(5.13), 3e4, 3e4, 60.0, seed=1)
    fit = mle_fit_g2(h, tail_start_ns=100.0)
    assert fit.tail_start_ns == 100.0
    boot = bootstrap_error(fit, h, seed=1)
    at = np.abs(h.tau_ns)
    for cut, moves in (((at > fit.window_ns) & (at <= 100.0), False),
                       ((at > 100.0) & (at <= 200.0), True)):
        other = CoincidenceHistogram(h.tau_ns, np.where(cut, 0, h.counts))
        assert (bootstrap_error(fit, other, seed=1).a_err != boot.a_err) is moves


def test_bootstrap_guard_covers_the_traced_peak(monkeypatch):
    # the refits hold about 41 B per sample, scan point and fit bin: at OD
    # 5.13, 60 s (151 bins) 500 samples trace at 127 MB, which a charge of
    # one 8 B float per entry, 24.8 MB, let through.  On two workers the two
    # halves of the rows are refit at once, and the guard covers both
    h = synth_histogram(_chain_curve(5.13), 3e4, 3e4, 60.0, seed=1)
    fit = mle_fit_g2(h)
    for workers in (1, 2):
        monkeypatch.setattr(photonstats, "_worker_count", lambda: workers)
        peak = _traced_peak(bootstrap_error, fit, h, n_samples=500, seed=1)
        with mock.patch.object(photonstats, "_physical_memory_bytes", lambda: float(peak)), \
                pytest.raises(ParameterError) as err:
            bootstrap_error(fit, h, n_samples=500, seed=1)
        assert err.value.code == "too-many-samples"


def test_bootstrap_error_tracks_counting_noise():
    # the bootstrap spread must shrink roughly as 1/sqrt(acquisition)
    curve = _exp_contrast_curve(0.5, 0.04)
    errs = []
    for acq in (30.0, 480.0):
        h = synth_histogram(curve, 3e4, 3e4, acq, seed=21)
        errs.append(bootstrap_error(mle_fit_g2(h), h, seed=0).a_err)
    assert 2.0 < errs[0] / errs[1] < 8.0  # expect ~4


def test_fit_failures_are_raised_and_counted():
    tau = _centers(160)
    # an empty normalization tail: the likelihood runs to the |A| guard rail
    empty_tail = CoincidenceHistogram(tau, np.where(np.abs(tau) <= 15, 50, 0))
    with pytest.raises(NumericalError) as err:
        mle_fit_g2(empty_tail)
    assert err.value.code == "fit-failed"
    # sparse tails: refits whose draw leaves the tail empty fail
    def sparse_tail(per_side):
        h = _sparse_tail_histogram(per_side)
        return mle_fit_g2(h), h

    # two tail counts per side: 5/50 refits fail, within MAX_FAILED_SHARE
    fit, h = sparse_tail(2)
    boot = bootstrap_error(fit, h, seed=5)
    assert 0 < boot.n_failed <= MAX_FAILED_SHARE * 50 and math.isfinite(boot.a_err)
    # one per side: 21/50 fail, beyond it
    fit, h = sparse_tail(1)
    with pytest.raises(NumericalError) as err:
        bootstrap_error(fit, h, seed=1)
    assert err.value.code == "unstable-fit"
    # both refits of this draw fail: no spread to report, whatever the allowance
    with pytest.raises(NumericalError) as err:
        bootstrap_error(fit, h, n_samples=2, seed=3)
    assert err.value.code == "unstable-fit"


def _reference_nll(tau, counts):
    """The contrast nll as a plain function of (A, log gamma), 1e300 outside the band."""
    at = np.abs(tau)
    c = counts.astype(float)
    lg_lo, lg_hi = (math.log(g) for g in GAMMA_FIT_BAND)

    def nll(x):
        a, lg = x
        if abs(a) > 1e3 or not lg_lo <= lg <= lg_hi:
            return 1e300
        g = 1.0 - a * np.exp(-math.exp(lg) * at)
        if np.any(g <= 1e-12):
            return 1e300
        return float(c.sum() * math.log(g.sum()) - c @ np.log(g))

    return nll


def _profile_minimum(tau, counts, log_gamma):
    """Bounded Brent minimum of the reference nll over A at fixed gamma."""
    nll = _reference_nll(tau, counts)
    a_max = min(1e3, (1.0 - 1e-12) / math.exp(-math.exp(log_gamma) * np.abs(tau).min()))
    return optimize.minimize_scalar(lambda a: nll((a, log_gamma)), bounds=(-1e3, a_max),
                                    method="bounded", options={"xatol": 1e-12})


def _nelder_mead_nll(tau, counts, extra_starts=()):
    """Lowest Nelder-Mead nll from the six starts of the former fitter."""
    nll = _reference_nll(tau, counts)
    at = np.abs(tau)
    outer = at >= 0.75 * at.max()
    base = max(counts[outer].mean(), 0.5)
    a0 = float(np.clip(1.0 - counts[np.argmin(at)] / base, -30.0, 0.99))
    starts = [(a0, 1.0 / 30.6), (a0, 0.1), (a0, 0.008),
              (0.98, 0.008), (0.98, 1.0 / 30.6), (-1.0, 0.1), *extra_starts]
    best = math.inf
    for a_s, g_s in starts:
        res = optimize.minimize(nll, (a_s, math.log(g_s)), method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": 1e-8, "fatol": 1e-11})
        if res.success and abs(res.x[0]) <= 900.0:
            best = min(best, res.fun)
    return best


def test_fitter_nll_never_above_nelder_mead():
    # criterion-7 histograms (OD 3.15 seeds 2-3 put main fits and refits on
    # the lower gamma edge), a deep dip at OD 5.13 and a bunched histogram
    # in the 15 ns window; each main fit and its first ten bootstrap refits
    hists = []
    grid = TauGrid.linear(12.0, 481)
    for od, seed in ((3.15, 2), (3.15, 3), (5.13, 0)):
        n = int(round(od_to_atoms(od, 0.0081)))
        curve = chain_g2(PhysicalParams(0.0081, n, 0.0), grid)
        hists.append(histogram_timetags(synth_timetags(curve, 3e4, 3e4, 60.0, seed=seed)))
    hists.append(synth_histogram(_exp_contrast_curve(-4.0, 0.06), 4e4, 4e4, 120.0, seed=6))
    edges = 0
    for k, h in enumerate(hists):
        fit = mle_fit_g2(h)
        assert fit.window_ns == (15.0 if k == 3 else 30.0)
        _, tau, cts = _fit_bins(h, fit.window_ns, TAIL_START_NS)
        model = 1.0 - fit.amplitude * np.exp(-fit.gamma_fit * np.abs(tau))
        rng = np.random.default_rng(10_000 + k)
        rows = np.vstack([cts, rng.multinomial(cts.sum(), model / model.sum(), size=10)])
        a, gamma, nll = _fit_window_counts(tau, rows)
        assert a[0] == fit.amplitude and gamma[0] == fit.gamma_fit
        for r, row in enumerate(rows):
            warm = [(fit.amplitude, fit.gamma_fit)] if r else []
            ref = _nelder_mead_nll(tau, row, warm)
            assert nll[r] <= ref + 1e-9 * abs(ref), (k, r, nll[r], ref)
            assert nll[r] == pytest.approx(_reference_nll(tau, row)((a[r], math.log(gamma[r]))),
                                           rel=1e-12)
            if gamma[r] in GAMMA_FIT_BAND:
                # on an edge, A is the constrained optimum: dnll/dA = 0 there
                e = np.exp(-gamma[r] * np.abs(tau))

                def dnll_da(x):
                    g = 1.0 - x * e
                    return (row * e / g).sum() - row.sum() * e.sum() / g.sum()

                root = optimize.brentq(dnll_da, -1.0, 0.99, xtol=1e-14)
                assert a[r] == pytest.approx(root, abs=1e-9)
        edges += int(np.isin(gamma, GAMMA_FIT_BAND).sum())
    assert edges > 0


@settings(max_examples=30, deadline=None)
@given(amplitude=st.floats(-6.0, 0.95), log_gamma=st.floats(math.log(0.002), math.log(0.8)),
       level=st.floats(3.0, 300.0), window=st.sampled_from([15.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
# a decay so slow that the |tau| > 200 ns tail still holds 1.85x the
# uncorrelated level: the fitter refuses it by design
@example(amplitude=-5.0, log_gamma=-5.0, level=3.0, window=15.0, seed=1124358)
def test_fitter_stays_in_band_and_beats_every_scan_point(amplitude, log_gamma, level,
                                                          window, seed):
    tau = _centers(160)
    tau = tau[(np.abs(tau) <= window) | (np.abs(tau) > TAIL_START_NS)]
    mean = level * (1.0 - amplitude * np.exp(-math.exp(log_gamma) * np.abs(tau)))
    counts = np.random.default_rng(seed).poisson(mean)
    a, gamma, nll = _fit_window_counts(tau, counts[None, :])
    scan = [_profile_minimum(tau, counts, lg) for lg in _LOG_GAMMA_SCAN]
    if not np.isfinite(nll[0]):
        # a failed row: the likelihood never saw the uncorrelated level, so
        # the best profile-scan point lies beyond the failure amplitude
        assert np.isnan(a[0])
        assert abs(min(scan, key=lambda res: res.fun).x) > _A_FAIL
        return
    assert GAMMA_FIT_BAND[0] <= gamma[0] <= GAMMA_FIT_BAND[1]
    for res in scan:
        assert nll[0] <= res.fun + 1e-9 * abs(res.fun)


# ---------------------------------------------------------------------------
# saturation


def test_saturation_transmission_limits():
    od0 = 4.0
    t_weak = float(saturation_transmission(0.008, od0, 1e-9)[0])
    assert t_weak == pytest.approx(math.exp(-od0), rel=1e-6)
    s = np.geomspace(1.0, 1e6, 25)
    t = saturation_transmission(0.008, od0, s)
    assert np.all(np.diff(t) > 0)  # saturable absorber bleaches monotonically
    assert t[-1] > 0.9
    # each point satisfies the implicit transmission relation
    resid = np.log(t) + 0.008 * s * (t - 1.0) + od0
    assert np.max(np.abs(resid)) < 1e-10


@settings(max_examples=100, deadline=None)
@given(beta=st.floats(1e-4, 0.49), od0=st.floats(0.01, 6.5),
       s0=st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=20).map(sorted))
def test_saturation_transmission_root_properties(beta, od0, s0):
    # the root of ln T + beta s0 (T - 1) = -od0 bleaches monotonically with
    # the drive, from just above the weak-drive exp(-od0) up to at most 1.
    # The Wright omega closed form leaves a residual of about 1e-14 over
    # od0 <= 6.5 and beta s0 <= 49; 1e-12 is the bound the earlier bracketing
    # root finder met there
    s0 = np.array(s0)
    t = saturation_transmission(beta, od0, s0)
    assert np.all(np.diff(t) >= 0)
    assert np.all((t > math.exp(-od0)) & (t <= 1.0))
    assert np.max(np.abs(np.log(t) + beta * s0 * (t - 1.0) + od0)) <= 1e-12


def test_saturation_transmission_monotone_at_adjacent_powers():
    # powers one ulp apart, in either order: Wright omega alone gave the
    # higher power a transmission one ulp lower
    s0 = np.array([0.001, np.nextafter(0.001, 1.0)])
    assert np.diff(saturation_transmission(0.25, 1.0, s0))[0] >= 0
    assert np.diff(saturation_transmission(0.25, 1.0, s0[::-1]))[0] <= 0


def test_saturation_transmission_validation():
    with pytest.raises(ParameterError):
        saturation_transmission(0.6, 4.0, 1.0)
    with pytest.raises(ParameterError):
        saturation_transmission(0.008, -1.0, 1.0)
    for s0 in ([0.0, 1.0], [1.0, np.inf], [-1.0]):
        with pytest.raises(ParameterError) as err:
            saturation_transmission(0.008, 4.0, s0)
        assert err.value.code == "power-not-positive"


def test_fit_beta_saturation_exact_round_trip():
    s0 = np.geomspace(10.0, 1000.0, 12)
    data = synth_saturation_data(0.0083, 4.0, s0)
    fit = fit_beta_saturation(data, 4.0)
    assert fit.beta == pytest.approx(0.0083, abs=1e-6)
    assert fit.residual_rms < 1e-10
    assert fit.od0 == 4.0


def test_fit_beta_saturation_with_noise():
    s0 = np.geomspace(10.0, 1000.0, 12)
    data = synth_saturation_data(0.0083, 4.0, s0, rel_noise=0.02, seed=42)
    fit = fit_beta_saturation(data, 4.0)
    assert fit.beta == pytest.approx(0.0083, abs=3e-4)
    assert 0.0 < fit.beta_err < 2e-3


def test_fit_beta_saturation_rejects_uninformative_powers():
    # all weak: beta * s0 never reaches the saturation knee
    s0 = np.geomspace(0.1, 2.0, 8)
    data = synth_saturation_data(0.008, 4.0, s0)
    with pytest.raises(DataError) as err:
        fit_beta_saturation(data, 4.0)
    assert err.value.code == "uninformative"


def test_fit_beta_saturation_needs_points():
    s0 = np.geomspace(10.0, 1000.0, 4)
    data = synth_saturation_data(0.0083, 4.0, s0)
    with pytest.raises(DataError) as err:
        fit_beta_saturation(data, 4.0)
    assert err.value.code == "too-few-points"


def test_synth_saturation_noise_control():
    s0 = np.geomspace(1.0, 100.0, 6)
    clean = synth_saturation_data(0.01, 3.0, s0)
    noisy = synth_saturation_data(0.01, 3.0, s0, rel_noise=0.05, seed=1)
    again = synth_saturation_data(0.01, 3.0, s0, rel_noise=0.05, seed=1)
    np.testing.assert_array_equal(noisy.transmission, again.transmission)
    assert np.any(noisy.transmission != clean.transmission)
    # without a seed the draw is seed 0's, the same on every call
    unseeded = synth_saturation_data(0.01, 3.0, s0, rel_noise=0.05)
    np.testing.assert_array_equal(unseeded.transmission,
                                  synth_saturation_data(0.01, 3.0, s0, rel_noise=0.05).transmission)
    # refused before the model is solved, whose beta here is out of range
    for rel_noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError) as err:
            synth_saturation_data(0.7, 3.0, s0, rel_noise=rel_noise, seed=1)
        assert err.value.code == "bad-noise"
    with pytest.raises(ParameterError) as err:
        synth_saturation_data(0.01, 3.0, s0, rel_noise=0.05, seed=-1)
    assert err.value.code == "bad-seed"


def test_symmetric_centers_cover_requested_range():
    c = _symmetric_centers(2.0, 320.0)
    assert c[0] == -320.0 and c[-1] == 320.0 and c.size == 321
    with pytest.raises(ParameterError):
        _symmetric_centers(2.0, 1.0)
