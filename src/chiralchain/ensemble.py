"""Atom-number calibration and run-to-run averaging.

The optical depth of the chain is additive, OD = N * od_per_atom(beta), so a
measured OD fixes the mean atom number once beta is known.  Repeated runs do
not share a single N, and the OD that sorts a run into a histogram bin is
itself estimated from the transmitted probe photons of that run.  The model
of a measurement campaign used here has three ingredients:

  * nominal loadings: one trap setting per OD bin, continued at 0.5 OD pitch
    beyond the binning scheme up to a saturation OD; the run density grows
    like exp(gain * OD) toward full loading (deep ensembles are where most
    probing time is spent);
  * preparation spread: per setting, the true atom number scatters as a
    truncated discretized Gaussian with configurable relative width (the
    measured preparation statistics are not public, so this stays a free
    model surfaced in config);
  * OD estimation noise: the transmitted count per run is Poisson with mean
    budget * T_N and the bin is chosen from od_hat = -ln(count / budget).
    Runs with zero counts have no finite od_hat and are clamped to the
    topmost reachable bin, the one containing ln(budget).  This clamp is
    what piles every deep-loading run into the last data bin and produces
    the strong bunching there: those runs transmit almost no coherent light,
    but their photon-pair rate does not attenuate, so they dominate the
    pooled coincidences of that bin.

``OdBinSpec`` carries the whole campaign and checks it when built.

Pooled coincidence histograms weight every run by its pair rate, i.e. by the
square of the transmitted rate, so distribution averages use w_N * T_N**2
weights rather than bare probabilities.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (
    DataError,
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    TauGrid,
)
from .transport import chain_g2_by_length, chain_g2_zero_by_length, od_per_atom

__all__ = [
    "OD_BIN_EDGES",
    "OdBinSpec",
    "NumberDistribution",
    "od_to_atoms",
    "build_number_distribution",
    "averaged_g2",
    "averaged_g2_zero",
    "SweepRow",
    "sweep_g2_vs_od",
    "fit_beta_to_g2_points",
    "LOADING_GAIN",
    "LOADING_MAX_OD",
]

# (od_max, bin_width) segments; finer bins where the dip lives
OD_BIN_SEGMENTS = ((4.0, 0.1), (5.0, 0.25), (8.0, 0.5))

# campaign defaults: run density e-folds per unit OD, loading saturation OD
LOADING_GAIN = 1.7
LOADING_MAX_OD = 9.5


def _scheme_edges() -> np.ndarray:
    edges = [0.0]
    for od_max, width in OD_BIN_SEGMENTS:
        while edges[-1] < od_max - 1e-9:
            edges.append(round(edges[-1] + width, 10))
    return np.asarray(edges)


# the OD histogram scheme every campaign bins its runs into
OD_BIN_EDGES = _scheme_edges()
OD_BIN_EDGES.flags.writeable = False


@dataclass(frozen=True)
class OdBinSpec:
    """A measurement campaign over the OD_BIN_EDGES scheme: OD estimate and loadings.

    ``photon_budget`` is the expected number of detected probe photons per
    run at unit transmission; np.inf turns the estimator noiseless.
    ``preparation_spread`` is the relative width of the atom number about
    each nominal loading, in [0, 1].  The run density grows like
    exp(loading_gain * OD) up to the saturation OD ``loading_max_od``,
    which must reach the top of the scheme.
    """

    photon_budget: float = 1000.0
    preparation_spread: float = 0.1
    loading_gain: float = LOADING_GAIN
    loading_max_od: float = LOADING_MAX_OD

    def __post_init__(self):
        if not self.photon_budget > 0:
            raise ParameterError("bad-photon-budget",
                                 f"photon budget must be > 0, got {self.photon_budget}")
        if not 0.0 <= self.preparation_spread <= 1.0:
            raise ParameterError("bad-spread", "relative spread must be in [0, 1], "
                                 f"got {self.preparation_spread}")
        if not (np.isfinite(self.loading_gain) and self.loading_gain >= 0.0):
            raise ParameterError("bad-loading", "loading gain must be finite and >= 0")
        if not self.loading_max_od >= OD_BIN_EDGES[-1]:
            raise ParameterError("bad-loading",
                                 "loading must reach at least the top of the bin scheme")

    @classmethod
    def default(cls, photon_budget: float = 1000.0, preparation_spread: float = 0.1,
                loading_gain: float = LOADING_GAIN,
                loading_max_od: float = LOADING_MAX_OD) -> "OdBinSpec":
        return cls(photon_budget, preparation_spread, loading_gain, loading_max_od)

    @property
    def n_bins(self) -> int:
        return OD_BIN_EDGES.size - 1

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (OD_BIN_EDGES[:-1] + OD_BIN_EDGES[1:])

    def bin_index(self, od: float) -> int:
        """Index of the (lo, hi] bin containing od, or -1 when off scheme or nan."""
        i = int(np.searchsorted(OD_BIN_EDGES, od, side="left")) - 1
        return i if 0 <= i < self.n_bins else -1

    def zero_count_bin(self) -> int:
        """Bin receiving zero-count runs: the one containing ln(budget).

        od_hat cannot exceed ln(budget) (that is the one-count value), so
        runs without any transmitted photon are clamped there.  Noiseless
        estimators have no zero-count runs; returns -1 then.
        """
        if np.isinf(self.photon_budget):
            return -1
        od_top = min(math.log(self.photon_budget), float(OD_BIN_EDGES[-1]))
        idx = self.bin_index(od_top)
        return 0 if idx < 0 else idx


@dataclass(frozen=True)
class NumberDistribution:
    """Distribution of true atom number behind one OD bin."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=int)
        weights = np.asarray(self.weights, dtype=float)
        if support.ndim != 1 or support.size == 0:
            raise DataError("empty-support", "number distribution has empty support")
        if np.any(np.diff(support) <= 0) or np.any(support < 0):
            raise ParameterError("bad-support",
                                 "support must be strictly increasing nonnegative ints")
        if weights.shape != support.shape:
            raise ParameterError("bad-weights", "weights must align with support")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ParameterError("bad-weights",
                                 "weights must be nonnegative and sum to 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def mean(self) -> float:
        return float(self.weights @ self.support)


def od_to_atoms(od: float, beta: float) -> float:
    """Mean atom number behind a measured optical depth."""
    if not od >= 0:
        raise ParameterError("bad-od", f"optical depth must be >= 0, got {od}")
    return od / od_per_atom(beta)


def _preparation_pmf(center: float, spread: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated discretized Gaussian over integer N, relative width spread."""
    sigma = spread * center
    if sigma <= 0.0:
        return np.array([int(round(center))]), np.array([1.0])
    lo = max(0, int(math.floor(center - 6.0 * sigma)))
    hi = int(math.ceil(center + 6.0 * sigma))
    ns = np.arange(lo, hi + 1)
    pmf = np.exp(-0.5 * ((ns - center) / sigma) ** 2)
    return ns, pmf / pmf.sum()


def _nominal_loadings(bins: OdBinSpec) -> tuple[np.ndarray, np.ndarray]:
    """Campaign settings (nominal OD, run fraction): one per scheme bin,
    continued at 0.5 OD pitch up to the loading saturation OD."""
    ods = list(bins.centers)
    widths = list(np.diff(OD_BIN_EDGES))
    od = float(OD_BIN_EDGES[-1]) + 0.25
    while od <= bins.loading_max_od + 1e-9:
        ods.append(od)
        widths.append(0.5)
        od += 0.5
    ods = np.asarray(ods)
    wgt = np.exp(bins.loading_gain * ods) * np.asarray(widths)
    return ods, wgt / wgt.sum()


def _campaign_prior(bins: OdBinSpec, beta: float) -> np.ndarray:
    """Prior over true N for the whole campaign, p[n] on n = 0..nmax."""
    spread = bins.preparation_spread
    ods, wnom = _nominal_loadings(bins)
    od_atom = od_per_atom(beta)
    nmax = int(math.ceil((ods[-1] / od_atom) * (1.0 + 6.0 * spread))) + 2
    prior = np.zeros(nmax + 1)
    for od_nom, w in zip(ods, wnom):
        ns, pmf = _preparation_pmf(od_nom / od_atom, spread)
        sel = ns <= nmax
        prior[ns[sel]] += w * pmf[sel]
    return prior / prior.sum()


def _poisson_cdf(k: int, mu: np.ndarray) -> np.ndarray:
    """P(count <= k) for Poisson(mu): scipy.stats.poisson.cdf without scipy.stats."""
    if k < 0:
        return np.zeros(np.shape(mu))
    return special.pdtr(float(k), mu)


def _assignment_prob(ns: np.ndarray, beta: float, bins: OdBinSpec,
                     bin_index: int) -> np.ndarray:
    """P(run with true N lands in the given OD bin) under Poisson counting."""
    lo, hi = OD_BIN_EDGES[bin_index], OD_BIN_EDGES[bin_index + 1]
    budget = bins.photon_budget
    od_atom = od_per_atom(beta)
    if np.isinf(budget):
        od_true = ns * od_atom
        return ((od_true > lo) & (od_true <= hi)).astype(float)
    mu = budget * np.exp(-ns * od_atom)
    # od_hat in (lo, hi]  <=>  budget e^{-hi} <= count < budget e^{-lo}
    c_lo = math.ceil(budget * math.exp(-hi))
    c_hi = math.ceil(budget * math.exp(-lo))  # exclusive
    if c_hi > c_lo:
        prob = _poisson_cdf(c_hi - 1, mu) - _poisson_cdf(c_lo - 1, mu)
    else:
        prob = np.zeros(ns.size)
    if bin_index == bins.zero_count_bin():
        prob = prob + np.exp(-mu)
    return prob


def build_number_distribution(bins: OdBinSpec, bin_index: int,
                              beta: float) -> NumberDistribution:
    """Atom-number distribution of the runs sorted into one OD bin.

    Multiplies the campaign prior over true N (nominal loadings convolved
    with the preparation spread) by the shot-noise probability of the OD
    estimate landing in the bin, then normalizes.  Bins that no count value
    can reach (between ln(budget) and the scheme top) raise "empty-support".
    """
    if not 0 <= bin_index < bins.n_bins:
        raise ParameterError("bad-bin-index",
                             f"bin index {bin_index} outside 0..{bins.n_bins - 1}")
    return _bin_distribution(_campaign_prior(bins, beta), bins, bin_index, beta)


def _bin_distribution(prior: np.ndarray, bins: OdBinSpec, bin_index: int,
                      beta: float) -> NumberDistribution:
    """The campaign prior restricted to the runs sorted into one OD bin."""
    ns = np.arange(prior.size)
    weights = prior * _assignment_prob(ns, beta, bins, bin_index)
    total = weights.sum()
    if total <= 0.0:
        raise DataError("empty-support",
                        f"no campaign run reaches OD bin {bin_index}")
    keep = weights > 1e-15 * weights.max()
    ns, weights = ns[keep], weights[keep]
    return NumberDistribution(ns, weights / weights.sum())


def _rate_weighted_mean(dist: NumberDistribution, beta: float, values: np.ndarray):
    """sum_N w_N r_N^2 values[N] / sum_N w_N r_N^2, values[i] at N = support[i].

    Pooled coincidences weight each run by its pair rate, w_N r_N^2, with
    r_N = exp(-N od_per_atom(beta)) the resonant power transmission.  The
    rows of 2d values are added one after another, in support order.
    """
    wr = dist.weights * np.exp(-dist.support * od_per_atom(beta))**2
    wr = wr.reshape((-1,) + (1,) * (values.ndim - 1))
    return (wr * values).sum(axis=0) / wr.sum()


def averaged_g2(dist: NumberDistribution, params: PhysicalParams,
                grid: TauGrid) -> G2Curve:
    """Distribution-averaged g2: pooled histograms weight runs by rate^2.

    g2_avg = sum_N w_N r_N^2 g2_N / sum_N w_N r_N^2.  The atom number in
    ``params`` is ignored; the distribution supplies N.
    """
    curves = chain_g2_by_length(params, dist.support, grid)
    values = _rate_weighted_mean(dist, params.beta, np.array([c.values for c in curves]))
    trans = 0.0
    for w, curve in zip(dist.weights, curves):
        trans += w * curve.transmission
    return G2Curve(grid, values, transmission=trans)


def averaged_g2_zero(dist: NumberDistribution, beta: float) -> float:
    """Equal-time version of averaged_g2 on resonance, cheap enough for OD sweeps."""
    return float(_rate_weighted_mean(dist, beta, chain_g2_zero_by_length(beta, dist.support)))


@dataclass(frozen=True)
class SweepRow:
    od: float
    n_mean: float
    g2_0_ideal: float
    g2_0_averaged: float | None


def sweep_g2_vs_od(beta: float, od_grid, bins: OdBinSpec | None = None,
                   averaged: bool = True, detuning: float = 0.0) -> list[SweepRow]:
    """Ideal and distribution-averaged g2(0) along an OD grid.

    The ideal column evaluates the chain at round(N(od)); the averaged
    column pools the number distribution of the OD bin containing od.
    Rows whose bin no run can reach carry None in the averaged column.
    """
    od_grid = np.asarray(od_grid, dtype=float)
    if od_grid.ndim != 1 or od_grid.size == 0:
        raise ParameterError("bad-od-grid", "od grid must be a nonempty 1d array")
    if np.any(np.diff(od_grid) <= 0):
        raise ParameterError("bad-od-grid", "od grid must be strictly increasing")
    if od_grid[0] < 0 or od_grid[-1] > 8.0:
        raise ParameterError("bad-od-grid", "od grid must stay within [0, 8]")
    if bins is None:
        bins = OdBinSpec.default()

    n_rounds = [int(round(od_to_atoms(float(od), beta))) for od in od_grid]
    bin_of = [bins.bin_index(float(od)) if averaged and od > 0.0 else None for od in od_grid]
    dists: dict[int, NumberDistribution] = {}
    reached = set(bin_of) - {None}
    prior = _campaign_prior(bins, beta) if reached else None
    for idx in reached:
        try:
            dists[idx] = _bin_distribution(prior, bins, idx, beta)
        except DataError:
            pass
    # one g2(0) call covers every chain length any row reads
    n_top = max(n_rounds + [int(d.support[-1]) for d in dists.values()])
    g2z = chain_g2_zero_by_length(beta, np.arange(n_top + 1), detuning)

    rows = []
    for od, n_round, idx in zip(od_grid, n_rounds, bin_of):
        dist = dists.get(idx)
        if averaged and od == 0.0:
            n_mean, g2_avg = 0.0, 1.0
        elif dist is not None:
            n_mean, g2_avg = dist.mean, float(_rate_weighted_mean(dist, beta, g2z[dist.support]))
        else:
            n_mean, g2_avg = od_to_atoms(float(od), beta), None
        rows.append(SweepRow(float(od), n_mean, float(g2z[n_round]), g2_avg))
    return rows


def fit_beta_to_g2_points(od, g2_0, detuning: float = 0.0) -> tuple[float, float]:
    """Least squares over beta of the ideal g2(0)-vs-OD curve.

    Returns (beta, beta_err) for measured points (od[i], g2_0[i]).
    round(N(od)) makes the model piecewise in beta, so the 1d minimum is
    found by bounded scalar search rather than a gradient method; the error
    comes from the SSR curvature sampled wide enough to span several steps.
    od and g2_0 must be 1d and of equal length ("points-shape-mismatch"),
    with at least 2 points ("too-few-points"); ODs outside [0, 8] or
    non-finite g2(0) values raise a DataError too.
    """
    from scipy import optimize  # deferred: importing chiralchain loads no scipy.optimize
    od_pts, g2_pts = np.asarray(od, dtype=float), np.asarray(g2_0, dtype=float)
    if od_pts.ndim != 1 or od_pts.shape != g2_pts.shape:
        raise DataError("points-shape-mismatch",
                        f"od and g2(0) must be 1d of equal length, got shapes "
                        f"{od_pts.shape} and {g2_pts.shape}")
    if od_pts.size < 2:
        raise DataError("too-few-points", f"need at least 2 points, got {od_pts.size}")
    if not np.all((od_pts >= 0) & (od_pts <= 8.0)):
        raise DataError("od-out-of-range", "measured ODs must lie in [0, 8]")
    if not np.all(np.isfinite(g2_pts)):
        raise DataError("g2-not-finite", "measured g2(0) values must be finite")

    def model(beta):
        ns = np.array([int(round(od_to_atoms(float(od), beta))) for od in od_pts])
        return chain_g2_zero_by_length(beta, np.arange(ns.max(initial=0) + 1), detuning)[ns]

    def ssr(beta):
        d = model(beta) - g2_pts
        return float(d @ d)

    res = optimize.minimize_scalar(ssr, bounds=(1e-4, 0.1), method="bounded",
                                   options={"xatol": 1e-7})
    if not res.success:
        raise NumericalError("fit-failed", "beta fit to g2 points did not converge")
    beta_hat = float(res.x)
    dof = max(od_pts.size - 1, 1)
    sigma2 = ssr(beta_hat) / dof
    h = max(0.05 * beta_hat, 2e-4)
    curv = (ssr(beta_hat + h) - 2.0 * ssr(beta_hat) + ssr(max(beta_hat - h, 1e-5))) / h**2
    if curv <= 0 or not math.isfinite(curv):
        raise DataError("uninformative", "g2 points carry no information on beta")
    return beta_hat, math.sqrt(2.0 * sigma2 / curv)
