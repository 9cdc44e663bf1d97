"""Weak-drive photon transport through a chirally coupled emitter chain.

The chain is driven through the waveguide only in the forward direction, so
in the displaced frame the conditional (no-jump) Hamiltonian is strictly
triangular in the emitter index (Gamma = 1, drive amplitude alpha):

    H_nh = sum_j (-Delta - i/2) sigma_j^+ sigma_j
           - i beta sum_{k > j} sigma_k^+ sigma_j
           - i sqrt(beta) sum_j (alpha sigma_j^+ - alpha* sigma_j)

To second order in alpha the steady state is the pure state

    |psi> = |vac> + sum_j e_j |j> + sum_{j<k} d_jk |jk>,

whose amplitudes solve triangular linear systems (forward substitution):

    (-Delta - i/2) e_j  = i beta sum_{i<j} e_i + i sqrt(beta) alpha
    (-2 Delta - i) d_jk = i beta [ sum_{a<k, a!=j} d_{ja} + sum_{a<j} d_ak ]
                          + i sqrt(beta) alpha (e_j + e_k)

Every pair on the right has a smaller index sum j + k, so the pairs are
solved one anti-diagonal j + k = s at a time: the bracket is then the sum
of the pairs of emitters j and k already solved, two running row sums, and
no emitter appears twice on one anti-diagonal, so each is one vector step.

The transmitted field operator is a_out = alpha + sqrt(beta) sum_j sigma_j.
Applying it to |psi> leaves vacuum + one-excitation amplitudes f_j; the
vacuum part re-pumps the chain, so over the delay tau the deviation
df = f - t^N e from the re-pumped steady state evolves under the
one-excitation generator

    A = (i Delta - 1/2) 1 - beta L,   L the strictly lower all-ones matrix,

and a_out is applied again.  With S the shift matrix, L = S (1 - S)^-1, so A
is lower-triangular Toeplitz and the Laguerre generating function gives the
propagator in closed form (x = beta tau):

    exp(A tau) = e^{(i Delta - 1/2) tau} sum_m L_m^(-1)(x) S^m.

Summing its rows, the normalized coincidence amplitude of a chain of N is

    psi_N(tau) = t^2N + sqrt(beta) e^{(i Delta - 1/2) tau}
                        sum_k df_k C_{N-1-k}(tau),
    C_k(tau)   = sum_{m<=k} L_m^(-1)(beta tau),

with t = t(Delta) the single-pass transmission and df_k = (1 - t^N) e_k
+ sqrt(beta) sum_{j<N} d_kj (d_kj = d_jk).  This is the discrete form of the
continuum theory of Mahmoodian et al., PRL 121, 143601 (2018).  One table
of C on the delay grid serves every chain length up to its size.  It is
filled by the differenced Laguerre recurrence

    m L_m^(-1)(x) = (m - 1) L_{m-1}^(-1)(x) - x C_{m-1},   C_m = C_{m-1} + L_m^(-1),

which follows from m l_m = (2m - 2 - x) l_{m-1} - (m - 2) l_{m-2} but keeps
the small x apart from the integers, so it loses no digits at small delays
(the undifferenced form cancels x against 2m and loses ~3 digits at
N ~ 450).  g2(tau) = |psi_N(tau)|^2 / |t|^4N, and everything is
proportional to alpha^2, so the solver fixes alpha = 1.  For a single
resonant emitter this reduces to psi(tau) = t^2 - (1-t)^2 exp(-tau/2).  The
table stores e^{-tau/2} C_k(tau), so no entry exceeds the propagator it
stands for, although C_k alone grows like e^{x/2}.

All results here are leading-order in drive power; the finite-drive physics
lives in ``oracle``, which is kept algorithmically independent.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np

from .core import (
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    TauGrid,
    _check_g2_values,
    _physical_memory_bytes,
)

__all__ = [
    "RateReport",
    "transmission_coefficient",
    "od_per_atom",
    "single_atom_g2",
    "chain_transmission",
    "chain_g2",
    "chain_g2_zero",
    "chain_g2_by_length",
    "chain_g2_zero_by_length",
    "find_perfect_antibunching",
]

TRANSMISSION_FLOOR = 1e-12
# longest chain find_perfect_antibunching scans
ANTIBUNCHING_N_MAX = 400
_RESCALE = 2.0**300  # column size at which the propagator recurrence is rescaled


def transmission_coefficient(beta: float, detuning: float = 0.0) -> complex:
    """Single-emitter amplitude transmission t(Delta) = 1 - 2 beta / (1 - 2i Delta)."""
    if not 0.0 < beta <= 1.0:
        raise ParameterError("beta-out-of-range", f"beta must be in (0, 1], got {beta}")
    return 1.0 - 2.0 * beta / (1.0 - 2.0j * detuning)


def od_per_atom(beta: float) -> float:
    """Resonant optical depth contributed by one emitter, -2 ln(1 - 2 beta).

    Raises "beta-out-of-range" outside 0 < beta < 0.5 and where the OD is
    not positive in float64 (beta below about 3e-17, where 1 - 2 beta
    rounds to 1), since an atom number from an OD divides by it.
    """
    if not 0.0 < beta < 0.5:
        raise ParameterError(
            "beta-out-of-range",
            f"od_per_atom needs 0 < beta < 0.5 (|t(0)| > 0), got {beta}",
        )
    od = -2.0 * math.log(1.0 - 2.0 * beta)
    if not od > 0.0:
        raise ParameterError("beta-out-of-range", f"beta = {beta!r} gives no optical depth per atom")
    return od


def _steady_pairs(beta: float, detuning: float, n: int, first: int):
    """Steady-state amplitudes of a chain of n emitters, reduced to what g2 reads.

    Returns (e, sum_d, rows): the single amplitudes e_k (k < n), the pair
    sums sum_d[L] = sum_{j<k<L} d_jk (L <= n), and for each length
    first <= L <= n the partial pair row sums
    rows[L - first, k] = sum_{j<L} d_kj for k < L (zero beyond); first = n + 1
    asks for no rows.

    The pairs are filled by anti-diagonal s = j + k (see the module
    docstring) and never stored.  With rowsum[i] the running sum of the
    filled pairs of emitter i,

        d_jk = c2 (rowsum[j] + rowsum[k]) + i sqrt(beta) (e_j + e_k) / den2,

    after which rowsum[j] and rowsum[k] grow by d_jk.  On one anti-diagonal
    j < s/2 < k, and j and k = s - j each run over a contiguous range, so the
    whole diagonal is one vector step on slices.  Each row sum adds its pairs
    in partner order, as a column-by-column fill would, so row k holds
    sum_{j<L} d_kj right after anti-diagonal L - 1 + k, and is copied for
    length L there.  Memory is O(n) besides the n + 1 - first rows; callers
    bound it with _check_chain_length first.
    """
    sq = math.sqrt(beta)
    den1 = -detuning - 0.5j
    den2 = -2.0 * detuning - 1.0j
    c1 = 1j * beta / den1
    c2 = 1j * beta / den2
    isq = 1j * sq
    drive1 = isq / den1

    e = np.empty(n, dtype=complex)
    for k in range(n):
        e[k] = c1 * np.add.reduce(e[:k]) + drive1
    rowsum = np.zeros(n, dtype=complex)  # rowsum[i] = sum of the filled d_ij
    colsum = np.zeros(n, dtype=complex)  # colsum[k] = sum_{j<k} d_jk
    rows = np.zeros((n + 1 - first, n), dtype=complex)
    # lengths L < n are copied on anti-diagonals L - 1 <= s <= 2 L - 2, so
    # anti-diagonal s copies the lengths L = a..b below, emitters k = s + 1 - L
    # running down, entries n - 1 apart in the flat rows: one strided copy
    flat = rows.reshape(-1)
    # the buffers of one anti-diagonal.  No product or quotient is written
    # over its own operand: numpy's SIMD loops may round a complex product
    # in place differently (seen at length 1), and the fill must not move.
    d_buf, drive_buf, tmp_buf = (np.empty(n, dtype=complex) for _ in range(3))

    # the last anti-diagonal, s = 2 n - 2, is empty: it closes colsum[n - 1]
    for s in range(2 * n - 1):
        lo, hi = s // 2 + 1, min(n - 1, s)
        # k runs down over [lo, hi], so that j = s - k runs up
        row_j, row_k = rowsum[s - hi:s - lo + 1], rowsum[hi:lo - 1:-1]
        m = hi - lo + 1
        d, drive, tmp = d_buf[:m], drive_buf[:m], tmp_buf[:m]
        # d = c2 (rowsum[j] + rowsum[k]) + i sqrt(beta) (e[j] + e[k]) / den2
        np.multiply(isq, np.add(e[s - hi:s - lo + 1], e[hi:lo - 1:-1], out=drive), out=tmp)
        np.divide(tmp, den2, out=drive)
        np.multiply(c2, np.add(row_j, row_k, out=tmp), out=d)
        d += drive
        row_j += d
        row_k += d
        if s % 2 == 0:
            # emitter s/2 is not on anti-diagonal s, and has only been the
            # larger index k before it: its row sum is its column sum
            colsum[s // 2] = rowsum[s // 2]
        a, b = max(first, (s + 3) // 2), min(n - 1, s + 1)
        if a <= b:
            k = s + 1 - a
            flat[(a - first) * n + k::n - 1][:b - a + 1] = rowsum[k - (b - a):k + 1][::-1]
    if first <= n:
        rows[n - first] = rowsum
    sum_d = np.cumsum(np.concatenate(([0j], colsum)))
    return e, sum_d, rows


def _power_transmission(beta: float, detuning: float, n: int) -> float:
    return float(abs(transmission_coefficient(beta, detuning)) ** (2 * n))


def chain_transmission(params: PhysicalParams) -> float:
    """Weak-drive power transmission |t(Delta)|^(2N)."""
    return _power_transmission(params.beta, params.detuning, params.n_atoms)


def _check_transmission(trans: float) -> None:
    if trans < TRANSMISSION_FLOOR:
        raise NumericalError(
            "vanishing-transmission",
            f"power transmission {trans:.3e} below floor {TRANSMISSION_FLOOR:.1e}; g2 of "
            "the transmitted light is ill-conditioned",
        )


def _check_chain_length(n: int) -> None:
    """Refuse a chain whose n^2 / 2 pair amplitudes, at 16 n^2 bytes, would not
    fit in the installed memory: the fill computes each of them once, and a
    scan of lengths from 1 to n holds n partial row sums of n amplitudes."""
    if not 16.0 * n * n <= _physical_memory_bytes():
        raise NumericalError(
            "chain-too-long",
            f"a chain of N = {n} has {n * (n - 1) / 2:.3g} pair amplitudes, more than "
            "the installed memory could hold; lower the optical depth or raise beta",
        )


def _check_grid(grid: TauGrid) -> None:
    if grid.unit != "gamma":
        raise ParameterError("grid-bad-unit", "model grids are in units of 1/Gamma")


def _lengths(ns) -> list[int]:
    """Chain lengths as a list of ints, checked to be ascending and >= 0."""
    arr = np.asarray(ns)
    if (arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer))
            or np.any(arr < 0) or np.any(np.diff(arr) < 0)):
        raise ParameterError("bad-lengths", "chain lengths must be ascending ints >= 0")
    return arr.astype(np.int64).tolist()


def _propagator_table(beta: float, taus: np.ndarray, n_max: int) -> np.ndarray:
    """Damped sums e^{-tau/2} C_k(tau) at [k, i] for tau = taus[i], k < n_max.

    C_k = sum_{m<=k} L_m^(-1)(beta tau).  The recurrence carries each column
    divided by 2^s, with s raised whenever the column passes _RESCALE, so
    neither the growth of C_k nor the damping alone leaves the
    floating-point range.
    """
    x = beta * taus
    table = np.empty((n_max, taus.size))
    cum = np.ones(taus.size)  # C_{m-1}, scaled
    coef = np.zeros(taus.size)  # L_{m-1}^(-1), scaled; the m = 0 term drops out below
    log_scale = np.zeros(taus.size)
    damp = np.exp(-0.5 * taus)
    table[0] = damp
    for m in range(1, n_max):
        coef = ((m - 1) * coef - x * cum) / m
        cum = cum + coef
        size = np.maximum(np.abs(cum), np.abs(coef))
        if size.max() > _RESCALE:
            shift = np.frexp(np.maximum(size, 1.0))[1] - 1
            cum = np.ldexp(cum, -shift)
            coef = np.ldexp(coef, -shift)
            log_scale += shift * math.log(2.0)
            damp = np.exp(log_scale - 0.5 * taus)
        table[m] = cum * damp
    return table


def _two_photon_amplitudes(beta: float, detuning: float, ns: list[int],
                           taus: np.ndarray) -> np.ndarray:
    """psi_N(taus) at alpha = 1, one row per chain length in ascending ns (1 at N = 0).

    Transmission never rises with N, so the longest chain alone meets the floor.
    Raises NumericalError "chain-too-long", then "grid-too-large" when the
    propagator table would not fit in the installed memory, both before the
    chain is filled.
    """
    psi = np.ones((len(ns), taus.size), dtype=complex)
    lit = ns[ns.count(0):]
    if not lit:
        return psi
    n_max = lit[-1]
    _check_transmission(_power_transmission(beta, detuning, n_max))
    _check_chain_length(n_max)
    table_bytes = 8.0 * n_max * taus.size
    if not table_bytes <= _physical_memory_bytes():
        raise NumericalError(
            "grid-too-large",
            f"N = {n_max} on {taus.size} delays needs a {table_bytes:.3g} byte propagator "
            "table, more than fits in memory; use fewer delay points",
        )
    e, _, rows = _steady_pairs(beta, detuning, n_max, lit[0])
    t = transmission_coefficient(beta, detuning)
    sq = math.sqrt(beta)

    # row i holds df of chain lit[i] reversed, so that row @ table sums df_k C_{N-1-k}
    weights = np.zeros((len(lit), n_max), dtype=complex)
    carrier = np.empty(len(lit), dtype=complex)
    for i, n in enumerate(lit):
        t_n = t**n
        weights[i, n - 1::-1] = (1.0 - t_n) * e[:n] + sq * rows[n - lit[0], :n]
        carrier[i] = t_n**2

    phase = np.exp(1j * detuning * taus)
    table = _propagator_table(beta, taus, n_max)
    psi[len(ns) - len(lit):] = carrier[:, None] + sq * phase * (weights @ table)
    return psi


def _g2_block(beta: float, ns, grid: TauGrid, detuning: float) -> tuple[np.ndarray, list[float]]:
    """g2 of the ascending chain lengths ns on grid, one row per length, and
    their power transmissions.

    The block passes G2Curve's checks.  Raises "vanishing-transmission"
    when the longest chain is below the transmission floor.
    """
    PhysicalParams(beta=beta, n_atoms=0, detuning=detuning)  # checks beta and detuning
    _check_grid(grid)
    ns = _lengths(ns)
    psi = _two_photon_amplitudes(beta, detuning, ns, grid.values)
    trans = [_power_transmission(beta, detuning, n) for n in ns]
    g2 = np.abs(psi) ** 2 / np.array([tr**2 for tr in trans])[:, None]
    _check_g2_values(grid, g2)
    return g2, trans


def chain_g2_by_length(beta: float, ns, grid: TauGrid, detuning: float = 0.0) -> list[G2Curve]:
    """chain_g2 for each of the ascending chain lengths ns, from one propagator table.

    Raises "vanishing-transmission" when the longest chain is below the
    transmission floor.
    """
    g2, trans = _g2_block(beta, ns, grid, detuning)
    return [G2Curve(grid, row, transmission=tr) for row, tr in zip(g2, trans)]


def chain_g2(params: PhysicalParams, grid: TauGrid) -> G2Curve:
    """Normalized g2(tau) of the light transmitted through the chain.

    N = 0 gives exactly 1 (the bare coherent state).  Raises
    "vanishing-transmission" when |t|^2N drops below TRANSMISSION_FLOOR.
    """
    return chain_g2_by_length(params.beta, [params.n_atoms], grid, params.detuning)[0]


def chain_g2_zero_by_length(beta: float, ns, detuning: float = 0.0) -> np.ndarray:
    """Equal-time g2(0) for each of the ascending chain lengths ns (1 at N = 0).

    Same model as chain_g2 at tau = 0, read off the pair sums of one chain
    fill, to the longest N.  No floor applies: g2(0) needs no propagator
    table.  Raises "vanishing-transmission" naming the first N whose g2(0)
    is not finite (|t|^4N too small to divide by).
    """
    PhysicalParams(beta=beta, n_atoms=0, detuning=detuning)  # checks beta and detuning
    ns = np.array(_lengths(ns), dtype=np.int64)
    n_max = int(ns.max(initial=0))
    _check_chain_length(n_max)
    _, sum_d, _ = _steady_pairs(beta, detuning, n_max, n_max + 1)
    t = transmission_coefficient(beta, detuning)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        psi = 2.0 * t**ns - 1.0 + 2.0 * beta * sum_d[ns]
        g2 = np.where(ns == 0, 1.0, np.abs(psi) ** 2 / abs(t) ** (4 * ns))
    bad = np.flatnonzero(~np.isfinite(g2))
    if bad.size:
        raise NumericalError(
            "vanishing-transmission",
            f"g2(0) is not finite at N = {ns[bad[0]]}: the power transmission "
            "|t|^2N is too small to normalize by",
        )
    return g2


def chain_g2_zero(params: PhysicalParams) -> float:
    """Equal-time g2(0) of one chain, without building a delay grid.

    Raises "vanishing-transmission" as chain_g2 does.
    """
    n = params.n_atoms
    _check_transmission(_power_transmission(params.beta, params.detuning, n))
    return float(chain_g2_zero_by_length(params.beta, [n], params.detuning)[0])


def single_atom_g2(beta: float, grid: TauGrid, detuning: float = 0.0) -> G2Curve:
    """Closed-form single-emitter g2: psi = t^2 - (1-t)^2 exp((i Delta - 1/2) tau)."""
    t = transmission_coefficient(beta, detuning)
    _check_transmission(float(abs(t) ** 2))
    _check_grid(grid)
    psi = t**2 - (1.0 - t) ** 2 * np.exp((1j * detuning - 0.5) * grid.values)
    return G2Curve(grid, np.abs(psi) ** 2 / abs(t) ** 4, transmission=float(abs(t) ** 2))


@dataclass(frozen=True)
class RateReport:
    """Operating point of the chain as a single-photon source.

    n_star                  chain length minimizing g2(0)
    g2_zero_at_n_star       the minimum itself
    transmission_at_n_star  weak-drive power transmission there
    n_in                    input photon rate 0.1/beta, units of Gamma: the
                            drive that saturates the first emitter to s ~ 1
    """

    n_star: int
    g2_zero_at_n_star: float
    transmission_at_n_star: float
    n_in: float

    def __post_init__(self):
        if not 0.0 < self.transmission_at_n_star < 1.0:
            raise NumericalError("rate-report", "transmission at n_star must be in (0, 1)")


def find_perfect_antibunching(beta: float) -> RateReport:
    """Scan chain length for the deepest resonant g2(0) and report its operating point.

    Raises "not-bracketed" when no interior minimum below 0.5 exists within
    ANTIBUNCHING_N_MAX atoms.  The transmission is the weak-drive one; the
    finite-drive enhancement of T is beyond this model.
    """
    t = transmission_coefficient(beta)
    ns = np.arange(ANTIBUNCHING_N_MAX + 1)
    dark = np.flatnonzero(abs(t) ** (2 * ns) < TRANSMISSION_FLOOR)
    last = int(dark[0]) - 1 if dark.size else ANTIBUNCHING_N_MAX
    g2z = chain_g2_zero_by_length(beta, ns[: last + 1])
    n_star = int(np.argmin(g2z))
    if g2z[n_star] >= 0.5 or n_star == 0 or n_star >= last:
        raise NumericalError(
            "not-bracketed",
            f"no interior g2(0) minimum below 0.5 for beta = {beta} "
            f"within N <= {ANTIBUNCHING_N_MAX}",
        )
    trans = float(abs(t) ** (2 * n_star))
    if trans < 0.01:
        warnings.warn(
            f"transmission at the antibunching point is only {trans:.2e}; "
            "output rates are essentially zero in this coupling regime",
            RuntimeWarning,
        )
    return RateReport(
        n_star=n_star,
        g2_zero_at_n_star=float(g2z[n_star]),
        transmission_at_n_star=trans,
        n_in=0.1 / beta,
    )
