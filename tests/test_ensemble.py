"""OD binning campaign model: priors, shot-noise assignment, averaged curves."""

import numpy as np
import pytest

from chiralchain import (
    CoincidenceHistogram,
    DataError,
    NumberDistribution,
    NumericalError,
    OdBinSpec,
    ParameterError,
    PhysicalParams,
    TauGrid,
    averaged_g2,
    averaged_g2_zero,
    build_number_distribution,
    chain_g2,
    chain_g2_by_length,
    chain_g2_zero,
    chain_g2_zero_by_length,
    chain_transmission,
    curve_values_ns,
    fit_beta_to_g2_points,
    normalize_histogram,
    od_per_atom,
    od_to_atoms,
    sweep_g2_vs_od,
    synth_histogram,
)
from chiralchain.ensemble import OD_BIN_EDGES

BETA = 0.0081


def test_od_to_atoms_inverts_od_per_atom():
    for beta in (0.0081, 0.02, 0.1):
        for n in (1, 50, 200):
            assert od_to_atoms(n * od_per_atom(beta), beta) == pytest.approx(n, rel=1e-12)


def test_default_bin_scheme():
    bins = OdBinSpec.default()
    assert OD_BIN_EDGES[0] == 0.0
    assert OD_BIN_EDGES[-1] == pytest.approx(8.0)
    widths = np.diff(OD_BIN_EDGES)
    assert widths[0] == pytest.approx(0.1)
    assert widths[-1] == pytest.approx(0.5)
    assert np.all(np.diff(bins.centers) > 0)
    assert bins.n_bins == OD_BIN_EDGES.size - 1
    # one scheme for every campaign: the edges are neither a field nor writable
    with pytest.raises(ValueError):
        OD_BIN_EDGES[3] = 0.35
    with pytest.raises(TypeError):
        OdBinSpec(edges=np.array([0.0, 1.0, 2.0]))


def test_bin_index_edges():
    bins = OdBinSpec.default()
    assert bins.bin_index(0.0) == -1            # no transmission deficit measured
    assert bins.bin_index(0.05) == 0
    assert bins.bin_index(8.0) == bins.n_bins - 1
    assert bins.bin_index(8.2) == -1
    assert bins.bin_index(-1.0) == -1
    assert bins.bin_index(float("nan")) == -1
    # (lo, hi] convention: an estimate exactly on an inner edge belongs below
    assert OD_BIN_EDGES[bins.bin_index(4.0) + 1] == pytest.approx(4.0)


def test_zero_count_bin_holds_the_count_ceiling():
    bins = OdBinSpec.default(photon_budget=1000.0)
    idx = bins.zero_count_bin()
    assert OD_BIN_EDGES[idx] < np.log(1000.0) <= OD_BIN_EDGES[idx + 1]
    assert OdBinSpec.default(photon_budget=np.inf).zero_count_bin() == -1


def test_bin_spec_validation():
    with pytest.raises(ParameterError) as err:
        OdBinSpec(photon_budget=0.0)
    assert err.value.code == "bad-photon-budget"


def test_number_distribution_mean():
    d = NumberDistribution(np.array([3, 4, 5]), np.array([0.2, 0.5, 0.3]))
    assert d.mean == pytest.approx(4.1)


def test_distribution_is_normalized_and_centered():
    bins = OdBinSpec.default()
    for od in (2.0, 3.15, 5.13):
        idx = bins.bin_index(od)
        dist = build_number_distribution(bins, idx, BETA)
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # shot noise pulls runs from neighbours, but the bin's own atom
        # number must stay within the distribution's central region
        n_bin = od_to_atoms(bins.centers[idx], BETA)
        assert abs(dist.mean - n_bin) < 0.25 * n_bin


def test_noiseless_narrow_preparation_collapses_support():
    # with no preparation spread and a noiseless OD estimate a run can only
    # land in the bin its true atom number belongs to
    bins = OdBinSpec.default(photon_budget=np.inf, preparation_spread=0.0)
    idx = bins.bin_index(3.0)
    dist = build_number_distribution(bins, idx, BETA)
    lo, hi = OD_BIN_EDGES[idx], OD_BIN_EDGES[idx + 1]
    ods = dist.support * od_per_atom(BETA)
    assert np.all((ods > lo) & (ods <= hi))


def test_unreachable_bin_raises():
    # budget 1000 caps od_hat at ln(1000) ~ 6.9; bins above that get nothing
    bins = OdBinSpec.default(photon_budget=1000.0)
    with pytest.raises(DataError) as err:
        build_number_distribution(bins, bins.n_bins - 1, BETA)
    assert err.value.code == "empty-support"


def test_build_number_distribution_validation():
    bins = OdBinSpec.default()
    with pytest.raises(ParameterError):
        build_number_distribution(bins, -1, BETA)
    # the campaign is refused when built, before any distribution
    for campaign, code in ((dict(preparation_spread=1.5), "bad-spread"),
                           (dict(loading_gain=-1.0), "bad-loading"),
                           (dict(loading_max_od=2.0), "bad-loading")):
        with pytest.raises(ParameterError) as err:
            OdBinSpec.default(**campaign)
        assert err.value.code == code


def test_averaged_g2_reduces_to_chain_on_delta_distribution():
    params = PhysicalParams(beta=BETA, n_atoms=150)
    t150 = chain_transmission(params)
    dist = NumberDistribution(np.array([150]), np.array([1.0]))
    grid = TauGrid.linear(10.0, 51)
    avg = averaged_g2(dist, params, grid)
    np.testing.assert_allclose(avg.values, chain_g2(params, grid).values, rtol=1e-12)
    assert avg.transmission == pytest.approx(t150)


def test_averaged_g2_matches_manual_rate_weighting():
    support = np.array([140, 150, 160])
    weights = np.array([0.25, 0.5, 0.25])
    rates = np.array([chain_transmission(PhysicalParams(BETA, int(n))) for n in support])
    dist = NumberDistribution(support, weights)
    wr = weights * rates**2
    manual = sum(w * chain_g2_zero(PhysicalParams(BETA, int(n)))
                 for w, n in zip(wr, support)) / wr.sum()
    assert averaged_g2_zero(dist, BETA) == pytest.approx(manual, rel=1e-12)
    grid = TauGrid.linear(2.0, 5)
    params = PhysicalParams(beta=BETA, n_atoms=150)
    avg = averaged_g2(dist, params, grid)
    assert avg.values[0] == pytest.approx(manual, rel=1e-10)
    # the whole curve, not only tau = 0, against per-N chain_g2 weighting
    grid = TauGrid.linear(8.0, 41)
    manual_curve = sum(w * chain_g2(PhysicalParams(BETA, int(n)), grid).values
                       for w, n in zip(wr, support)) / wr.sum()
    np.testing.assert_allclose(averaged_g2(dist, params, grid).values, manual_curve,
                               rtol=1e-12)


def test_averaged_g2_raises_when_support_reaches_the_transmission_floor():
    # at beta = 0.4 the power transmission 0.04^N drops below 1e-12 at N = 9
    support = np.arange(1, 51)
    dist = NumberDistribution(support, np.full(support.size, 1.0 / support.size))
    with pytest.raises(NumericalError) as err:
        averaged_g2(dist, PhysicalParams(beta=0.4, n_atoms=1), TauGrid.linear(2.0, 5))
    assert err.value.code == "vanishing-transmission"


def test_sweep_rows():
    rows = sweep_g2_vs_od(BETA, np.arange(0.0, 4.01, 0.5))
    assert len(rows) == 9
    assert rows[0].od == 0.0
    assert rows[0].g2_0_ideal == 1.0
    assert rows[0].g2_0_averaged == 1.0
    for r in rows[1:]:
        assert 0.0 < r.g2_0_ideal < 1.0
        assert 0.0 < r.g2_0_averaged < 1.0
        assert r.n_mean > 0


def test_sweep_without_averaging():
    rows = sweep_g2_vs_od(BETA, np.array([1.0, 2.0]), averaged=False)
    assert all(r.g2_0_averaged is None for r in rows)


def test_sweep_grid_validation():
    with pytest.raises(ParameterError):
        sweep_g2_vs_od(BETA, np.array([]))
    with pytest.raises(ParameterError):
        sweep_g2_vs_od(BETA, np.array([2.0, 1.0]))
    with pytest.raises(ParameterError):
        sweep_g2_vs_od(BETA, np.array([0.0, 9.0]))


def test_averaging_washes_out_the_deep_dip():
    # the ideal dip at OD ~ 6 is orders of magnitude below the averaged one:
    # runs a few atoms off dominate the pooled coincidences there
    bins = OdBinSpec.default()
    idx = bins.bin_index(5.88)
    dist = build_number_distribution(bins, idx, BETA)
    avg = averaged_g2_zero(dist, BETA)
    ideal = chain_g2_zero(PhysicalParams(BETA, int(round(od_to_atoms(5.88, BETA)))))
    assert avg > 5 * ideal


def test_campaign_monte_carlo_matches_averaged_g2_zero():
    # the campaign run by run, without the model's assignment probabilities.
    # N is drawn uniformly on the prior's support and each run weighted by the
    # prior: drawn from the prior itself, the shallow bins would get about 2
    # runs in 4e5 under the exp(1.7 OD) loading law.  Each run's probe count
    # is Poisson(budget T_N); od_hat = -ln(count / budget) is binned (lo, hi],
    # and zero counts go to the bin holding ln(budget).
    from chiralchain import ensemble

    bins = OdBinSpec.default()
    budget = bins.photon_budget
    prior = ensemble._campaign_prior(bins, BETA)
    rng = np.random.default_rng(5)
    n_batches, n_runs = 20, 400_000
    ns = rng.integers(0, prior.size, n_runs)
    trans = np.exp(-ns * od_per_atom(BETA))
    counts = rng.poisson(budget * trans)
    with np.errstate(divide="ignore"):
        od_hat = -np.log(counts / budget)
    binned = np.searchsorted(OD_BIN_EDGES, od_hat, side="left") - 1
    binned[counts == 0] = bins.bin_index(np.log(budget))
    # pooled coincidences weight each run by its pair rate
    pair_weight = prior[ns] * trans**2
    g2 = chain_g2_zero_by_length(BETA, np.arange(prior.size))[ns]
    for idx in (31, 42, 44, 47):
        w = np.where(binned == idx, pair_weight, 0.0).reshape(n_batches, -1)
        num, den = (w * g2.reshape(n_batches, -1)).sum(axis=1), w.sum(axis=1)
        batch_err = np.std(num / den, ddof=1) / np.sqrt(n_batches)
        want = averaged_g2_zero(build_number_distribution(bins, idx, BETA), BETA)
        assert abs(num.sum() / den.sum() - want) < 4.0 * batch_err, idx


@pytest.mark.parametrize("od", [3.15, 5.13, 6.75])
def test_pooled_run_histograms_match_averaged_g2(od):
    # the campaign at histogram level: one synth_histogram per atom number
    # of the bin, at singles rates proportional to T_N and an acquisition
    # proportional to w_N, so each run's coincidences scale as w_N T_N^2.
    # The counts pooled here follow averaged_g2 within counting error
    bins = OdBinSpec.default()
    dist = build_number_distribution(bins, bins.bin_index(od), BETA)
    params = PhysicalParams(BETA, int(dist.support[0]))
    grid = TauGrid.linear(12.0, 481)
    curves = chain_g2_by_length(params, dist.support, grid)
    trans = np.array([c.transmission for c in curves])
    # pooled uncorrelated level: `level` coincidences per 2 ns bin
    level, rates = 1e5, 1e6 * trans
    acquisitions = level / (1e12 * 2e-9) * dist.weights / (dist.weights @ trans**2)
    runs = [synth_histogram(c, r, r, t, seed=k)
            for k, (c, r, t) in enumerate(zip(curves, rates, acquisitions))]
    pooled = CoincidenceHistogram(runs[0].tau_ns, sum(h.counts for h in runs))
    avg = curve_values_ns(averaged_g2(dist, params, grid), pooled.tau_ns)
    mean = level * avg
    chi2 = float(((pooled.counts - mean) ** 2 / mean).sum())
    assert chi2 < mean.size + 5.0 * np.sqrt(2.0 * mean.size), (od, chi2)
    # g2(0) of the pooled counts and of the model, each over the same tail
    tail = np.abs(pooled.tau_ns) > 200.0
    zero = pooled.tau_ns == 0.0
    got = normalize_histogram(pooled).values[0]
    want = avg[zero][0] / avg[tail].mean()
    err = got * np.sqrt(1.0 / pooled.counts[zero][0] + 1.0 / pooled.counts[tail].sum())
    assert abs(got - want) < 4.0 * err, (od, got, want, err)


def test_assignment_prob_matches_scipy_stats_poisson(monkeypatch):
    import math

    from scipy import stats

    from chiralchain import ensemble

    ns = np.arange(0, 1300)

    def probs(bins):
        return [ensemble._assignment_prob(ns, BETA, bins, i) for i in range(bins.n_bins)]

    default = OdBinSpec.default()
    # a budget this small underflows budget * exp(-hi) to 0, so c_lo = 0
    tiny = OdBinSpec.default(photon_budget=1e-322)
    assert math.ceil(tiny.photon_budget * math.exp(-OD_BIN_EDGES[-1])) == 0
    fast = [probs(default), probs(tiny)]
    monkeypatch.setattr(ensemble, "_poisson_cdf", stats.poisson.cdf)
    reference = [probs(default), probs(tiny)]
    for got, want in zip(fast, reference):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert not np.any(np.isnan(np.concatenate(fast[1])))


def test_fit_beta_to_g2_points_recovers_beta():
    ods = np.arange(0.5, 5.01, 0.5)
    g2 = [chain_g2_zero(PhysicalParams(BETA, int(round(od_to_atoms(float(od), BETA)))))
          for od in ods]
    beta, beta_err = fit_beta_to_g2_points(ods, g2)
    assert beta == pytest.approx(BETA, rel=1e-6)
    assert 0.0 <= beta_err < 1e-6
    with pytest.raises(DataError) as err:
        fit_beta_to_g2_points([1.0, 9.0], [0.95, 0.9])
    assert err.value.code == "od-out-of-range"


@pytest.mark.parametrize("od,g2,code", [
    ([1.0, 2.0, 3.0], [0.9, 0.8], "points-shape-mismatch"),
    ([[1.0, 2.0], [3.0, 4.0]], [[0.9, 0.8], [0.7, 0.6]], "points-shape-mismatch"),
    ([], [], "too-few-points"),
    ([1.0], [0.9], "too-few-points"),
])
def test_fit_beta_to_g2_points_checks_point_shapes(od, g2, code):
    with pytest.raises(DataError) as err:
        fit_beta_to_g2_points(od, g2)
    assert err.value.code == code
