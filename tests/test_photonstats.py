"""Measurement chain: synthesis, histogramming, normalization, MLE, saturation."""

import math

import numpy as np
import pytest

from chiralchain import (
    CoincidenceHistogram,
    DataError,
    FitResult,
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    OdBinSpec,
    SaturationData,
    TauGrid,
    TimeTagStream,
    bin_runs_by_od,
    bootstrap_error,
    chain_g2,
    curve_values_ns,
    fit_beta_saturation,
    histogram_timetags,
    mle_fit_g2,
    normalize_histogram,
    saturation_transmission,
    synth_histogram,
    synth_saturation_data,
    synth_timetags,
    time_unit_ns,
)
from chiralchain.photonstats import RunRecord, _symmetric_centers


def _centers(k, width=2.0):
    return np.arange(-k, k + 1, dtype=float) * width


def _exp_contrast_curve(amplitude, gamma_per_ns, tau_max_ns=400.0):
    """Exponential-contrast truth on a physical-time grid."""
    grid = TauGrid.linear(tau_max_ns, 801, unit="ns")
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


def test_histogram_accepts_integral_floats():
    h = CoincidenceHistogram(_centers(3), np.full(7, 4.0))
    assert h.counts.dtype == np.int64
    assert h.total_counts == 28


def test_pooled_histograms():
    tau = _centers(3)
    a = CoincidenceHistogram(tau, np.ones(7, int), rate1=100.0, rate2=200.0,
                             acquisition_s=10.0, transmission=0.5)
    b = CoincidenceHistogram(tau, 2 * np.ones(7, int), rate1=400.0, rate2=200.0,
                             acquisition_s=30.0, transmission=0.9)
    p = CoincidenceHistogram.pooled([a, b])
    np.testing.assert_array_equal(p.counts, 3 * np.ones(7, int))
    assert p.acquisition_s == pytest.approx(40.0)
    assert p.rate1 == pytest.approx(0.25 * 100 + 0.75 * 400)
    assert p.transmission == pytest.approx(0.25 * 0.5 + 0.75 * 0.9)
    with pytest.raises(DataError):
        CoincidenceHistogram.pooled([])
    with pytest.raises(DataError):
        CoincidenceHistogram.pooled([a, CoincidenceHistogram(_centers(4), np.zeros(9, int))])


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
    for t0, t1 in (([1.5], []), ([], [2.0, 2.5])):
        with pytest.raises(DataError) as err:
            TimeTagStream(np.array(t0), np.array(t1))
        assert err.value.code == "timestamps-not-integer"
    with pytest.raises(DataError) as err:
        TimeTagStream(np.zeros((2, 2), np.int64), [])
    assert err.value.code == "timestamps-not-1d"


def test_fit_result_round_trip():
    fit = FitResult(amplitude=0.4, gamma_fit=0.03, g2_zero=0.6, window_ns=30.0,
                    a_err=0.05, n_bootstrap=50, seed=7)
    again = FitResult.from_dict(fit.to_dict())
    assert again == fit


def test_saturation_data_validation():
    with pytest.raises(DataError):
        SaturationData(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(DataError):
        SaturationData(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    with pytest.raises(DataError):
        SaturationData(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# synthesis and histogramming


def test_curve_values_ns_converts_units():
    params = PhysicalParams(beta=0.1, n_atoms=2)
    curve = chain_g2(params, TauGrid.linear(10.0, 201))
    scale = time_unit_ns(5.2)
    taus_ns = np.array([0.0, 10.0, -10.0, 1e6])
    vals = curve_values_ns(curve, taus_ns, gamma_mhz=5.2)
    assert vals[0] == pytest.approx(curve.values[0])
    assert vals[1] == pytest.approx(curve.value_at(10.0 / scale))
    assert vals[2] == vals[1]
    assert vals[3] == 1.0


def test_synth_histogram_statistics():
    curve = _exp_contrast_curve(0.0, 0.05)  # flat g2 = 1
    rate = 5e4
    h = synth_histogram(curve, rate, rate, 50.0, seed=1)
    expect = rate * rate * 2e-9 * 50.0
    assert h.counts.mean() == pytest.approx(expect, rel=0.02)
    assert h.n_bins == 321
    assert h.rate1 == rate and h.acquisition_s == 50.0
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


def test_histogram_timetags_places_pairs():
    stream = TimeTagStream([1000_000], [1000_005])
    h = histogram_timetags(stream, bin_width_ns=2.0, tau_max_ns=10.0)
    assert h.total_counts == 1
    assert h.counts[h.tau_ns == 6.0] == 1  # tau = +5 ns falls in the (5, 7] bin
    far = TimeTagStream([0], [10_000_000])
    assert histogram_timetags(far, tau_max_ns=10.0).total_counts == 0


def test_histogram_timetags_sign_convention():
    # detector-1 tag before detector-0 tag: negative tau
    stream = TimeTagStream([1000_010], [1000_005])
    h = histogram_timetags(stream, bin_width_ns=2.0, tau_max_ns=10.0)
    assert h.counts[h.tau_ns == -4.0] == 1


def test_histogram_timetags_span_covers_both_channels():
    # the acquisition runs from the earliest to the latest tag of either detector
    h = histogram_timetags(TimeTagStream([100, 5000], [50, 3000]), tau_max_ns=10.0)
    assert h.acquisition_s == 4950 * 1e-9
    assert h.rate1 == h.rate2 == 2 / h.acquisition_s
    h = histogram_timetags(TimeTagStream([], [10, 30]), tau_max_ns=10.0)
    assert h.acquisition_s == 20 * 1e-9 and h.rate1 == 0.0
    assert histogram_timetags(TimeTagStream([7], []), tau_max_ns=10.0).acquisition_s is None
    # pulsed: the pulse count follows the last tag, here on detector 1
    gated = histogram_timetags(TimeTagStream([254_000], [1_254_004]), pulse_period_ns=10_000.0)
    assert gated.acquisition_s == pytest.approx((126 - 20) * 8000e-9, rel=1e-12)


def test_histogram_timetags_pulse_gating():
    period, gate = 10_000.0, (1000.0, 9000.0)
    # pulse 25, phase 4000-4004: inside gate, past the discarded pulses
    live = TimeTagStream([254_000], [254_004])
    h = histogram_timetags(live, pulse_period_ns=period, gate_ns=gate)
    assert h.total_counts == 1
    # same offsets in pulse 0 are discarded
    early = TimeTagStream([4_000], [4_004])
    h0 = histogram_timetags(early, pulse_period_ns=period, gate_ns=gate)
    assert h0.total_counts == 0
    # phase outside the gate is dropped even in a live pulse
    dark = TimeTagStream([250_500], [250_504])
    hd = histogram_timetags(dark, pulse_period_ns=period, gate_ns=gate)
    assert hd.total_counts == 0
    with pytest.raises(ParameterError):
        histogram_timetags(live, pulse_period_ns=period, gate_ns=(500.0, 12_000.0))


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
    assert curve.value_at(300.0) == pytest.approx(1.0)


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
    h4 = CoincidenceHistogram(h.tau_ns, h.counts * 4, h.bin_width_ns)
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


def test_bootstrap_error_tracks_counting_noise():
    # the bootstrap spread must shrink roughly as 1/sqrt(acquisition)
    curve = _exp_contrast_curve(0.5, 0.04)
    errs = []
    for acq in (30.0, 480.0):
        h = synth_histogram(curve, 3e4, 3e4, acq, seed=21)
        errs.append(bootstrap_error(mle_fit_g2(h), h, seed=0).a_err)
    assert 2.0 < errs[0] / errs[1] < 8.0  # expect ~4


# ---------------------------------------------------------------------------
# OD binning of runs


def test_bin_runs_by_od_pools_and_overflows():
    tau = _centers(160)
    mk = lambda t: RunRecord(t, CoincidenceHistogram(tau, np.ones(tau.size, int),
                                                     transmission=t))
    bins = OdBinSpec.default()
    od = 3.17
    runs = [mk(math.exp(-od)), mk(math.exp(-od)), mk(math.exp(-5.0))]
    groups = bin_runs_by_od(runs, bins)
    idx = bins.bin_index(od)
    assert set(groups) == {idx, bins.bin_index(5.0)}
    assert groups[idx].total_counts == 2 * tau.size
    with pytest.warns(UserWarning):
        groups = bin_runs_by_od([mk(math.exp(-od)), mk(0.0)], bins)
    assert -1 in groups


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


def test_saturation_transmission_validation():
    with pytest.raises(ParameterError):
        saturation_transmission(0.6, 4.0, 1.0)
    with pytest.raises(ParameterError):
        saturation_transmission(0.008, -1.0, 1.0)


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
    with pytest.raises(ParameterError):
        synth_saturation_data(0.01, 3.0, s0, rel_noise=-0.1)


def test_symmetric_centers_cover_requested_range():
    c = _symmetric_centers(2.0, 320.0)
    assert c[0] == -320.0 and c[-1] == 320.0 and c.size == 321
    with pytest.raises(ParameterError):
        _symmetric_centers(2.0, 1.0)
