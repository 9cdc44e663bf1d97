"""Weak-drive chain solver: transmission, steady state, g2(tau)."""

import math
import tracemalloc
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.linalg

from chiralchain import (
    NumericalError,
    PhysicalParams,
    TauGrid,
    chain_g2,
    chain_g2_by_length,
    chain_g2_zero,
    chain_g2_zero_by_length,
    chain_transmission,
    find_perfect_antibunching,
    od_per_atom,
    single_atom_g2,
    transmission_coefficient,
)
from chiralchain.core import ParameterError
from chiralchain.transport import TRANSMISSION_FLOOR, _steady_pairs, _two_photon_amplitudes

GRID = TauGrid.linear(12.0, 241)


def test_transmission_coefficient():
    assert transmission_coefficient(0.25) == pytest.approx(0.5)
    assert transmission_coefficient(0.5) == pytest.approx(0.0)
    t = transmission_coefficient(0.1, 0.7)
    assert t == pytest.approx(1.0 - 0.2 / (1.0 - 1.4j))
    with pytest.raises(ParameterError):
        transmission_coefficient(0.0)


def test_od_per_atom_matches_transmission():
    for beta in (0.0081, 0.05, 0.2, 0.49):
        t = abs(transmission_coefficient(beta)) ** 2
        assert math.exp(-od_per_atom(beta)) == pytest.approx(t, rel=1e-12)
    with pytest.raises(ParameterError):
        od_per_atom(0.5)
    with pytest.raises(ParameterError):  # 1 - 2 beta rounds to 1: no OD per atom
        od_per_atom(5e-324)


@pytest.mark.parametrize("beta,delta,n", [
    (0.0081, 0.0, 97), (0.1, 0.5, 7), (0.3, -1.2, 3), (1.0, 0.0, 1),
])
def test_chain_transmission_power_law(beta, delta, n):
    t = abs(1.0 - 2.0 * beta / (1.0 - 2.0j * delta))
    params = PhysicalParams(beta=beta, n_atoms=n, detuning=delta)
    assert chain_transmission(params) == pytest.approx(t ** (2 * n), abs=1e-14)


def test_empty_chain_is_coherent():
    params = PhysicalParams(beta=0.1, n_atoms=0)
    curve = chain_g2(params, GRID)
    assert np.all(curve.values == 1.0)
    assert curve.transmission == 1.0
    assert chain_g2_zero(params) == 1.0


def test_single_atom_closed_form_matches_chain():
    for beta, delta in [(0.0081, 0.0), (0.3, 0.0), (0.6, 0.4), (1.0, 0.0)]:
        params = PhysicalParams(beta=beta, n_atoms=1, detuning=delta)
        closed = single_atom_g2(beta, GRID, delta)
        chain = chain_g2(params, GRID)
        np.testing.assert_allclose(chain.values, closed.values, atol=1e-12)


def test_full_coupling_gives_nine():
    assert chain_g2_zero(PhysicalParams(beta=1.0, n_atoms=1)) == pytest.approx(9.0, abs=1e-12)
    curve = single_atom_g2(1.0, GRID)
    assert curve.values[0] == pytest.approx(9.0, abs=1e-12)


def test_steady_state_single_atom_amplitude():
    e, sum_d, rows = _steady_pairs(0.09, 0.0, 1, 1)
    # e = i sqrt(beta) / (-i/2) = -2 sqrt(beta) on resonance
    assert e[0] == pytest.approx(-2.0 * math.sqrt(0.09))
    # one emitter has no pairs
    assert sum_d.tolist() == [0.0, 0.0]
    assert rows.tolist() == [[0.0]]


def test_steady_state_pair_amplitude_is_upper_triangular():
    # each pair j < k enters the row sums of both its emitters, so the row
    # sums of a length add up to twice its pair sum; rows end at the length
    _, sum_d, rows = _steady_pairs(0.1, 0.0, 4, 1)
    for length, row in zip(range(1, 5), rows):
        assert np.all(row[length:] == 0.0)
        assert abs(row.sum() - 2.0 * sum_d[length]) <= 1e-14 * np.max(np.abs(sum_d))
    assert np.all(rows[0] == 0.0)
    assert np.min(np.abs(rows[1:, 0])) > 0.0


def _dense_steady_state(beta, delta, n):
    """e_j and d_jk from one dense solve each of the docstring equations (alpha = 1)."""
    sq = math.sqrt(beta)
    lower = np.tril(np.ones((n, n)), k=-1)
    e = np.linalg.solve((-delta - 0.5j) * np.eye(n) - 1j * beta * lower,
                        np.full(n, 1j * sq))
    pairs = [(j, k) for k in range(n) for j in range(k)]
    index = {p: i for i, p in enumerate(pairs)}

    def pair(a, b):
        return index[(min(a, b), max(a, b))]

    mat = (-2.0 * delta - 1.0j) * np.eye(len(pairs), dtype=complex)
    rhs = np.empty(len(pairs), dtype=complex)
    for i, (j, k) in enumerate(pairs):
        for a in range(k):
            if a != j:
                mat[i, pair(j, a)] -= 1j * beta
        for a in range(j):
            mat[i, pair(a, k)] -= 1j * beta
        rhs[i] = 1j * sq * (e[j] + e[k])
    d = np.zeros((n, n), dtype=complex)
    d[tuple(np.array(pairs).T)] = np.linalg.solve(mat, rhs)
    return e, d


def _close(got, want, rel):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("beta", [0.0081, 0.3, 1.0])
@pytest.mark.parametrize("delta", [0.0, 0.5, -0.4])
def test_pair_amplitudes_match_dense_solve(beta, delta):
    # the anti-diagonal fill against a direct solve of the whole linear system
    for n in (2, 7, 40):
        e_ref, d = _dense_steady_state(beta, delta, n)
        lengths = range(n // 2, n + 1)
        e, sum_d, rows = _steady_pairs(beta, delta, n, n // 2)
        sym = d + d.T
        rows_ref = np.array([np.concatenate((sym[:m, :m].sum(axis=1), np.zeros(n - m)))
                             for m in lengths])
        sum_ref = np.concatenate(([0.0], np.cumsum(d.sum(axis=0))))
        assert _close(e, e_ref, 1e-12)
        assert _close(sum_d, sum_ref, 1e-12)
        assert _close(rows, rows_ref, 1e-12)


def _column_fill(beta, delta, n, lengths):
    """Single amplitudes, per-length pair sums and the pair row sums at each
    of the ascending lengths, filled one column k at a time, each column by
    a sequential prefix sum over j < k."""
    sq = math.sqrt(beta)
    den1, den2 = -delta - 0.5j, -2.0 * delta - 1.0j
    e = np.empty(n, dtype=complex)
    rowsum = np.zeros(n, dtype=complex)
    sum_d = [0.0j]
    rows = np.zeros((len(lengths), n), dtype=complex)
    for k in range(n):
        e[k] = 1j * beta / den1 * e[:k].sum() + 1j * sq / den1
        col = np.zeros(k, dtype=complex)
        col_acc = 0.0j
        for j in range(k):
            col[j] = 1j * beta / den2 * (rowsum[j] + col_acc) + 1j * sq * (e[j] + e[k]) / den2
            col_acc += col[j]
        rowsum[:k] += col
        rowsum[k] = col_acc
        sum_d.append(sum_d[-1] + col_acc)
        # after column k every row sum holds the partners j <= k
        for i, m in enumerate(lengths):
            if m == k + 1:
                rows[i, :m] = rowsum[:m]
    return e, np.array(sum_d), rows


@pytest.mark.parametrize("beta", [0.0081, 0.3, 1.0])
@pytest.mark.parametrize("delta", [0.0, 0.5, -0.4])
def test_anti_diagonal_fill_matches_column_loop(beta, delta):
    # same sums in another order: agreement to rounding, ~450 float64 ulps
    e_ref, sum_ref, rows_ref = _column_fill(beta, delta, 120, range(1, 121))
    e, sum_d, rows = _steady_pairs(beta, delta, 120, 1)
    assert np.array_equal(e, e_ref)
    assert _close(sum_d, sum_ref, 1e-13)
    assert _close(rows, rows_ref, 1e-13)


def test_lengths_leave_the_fill_unchanged():
    # the shortest length only chooses which partial row sums are copied:
    # single amplitudes and pair sums are bitwise those of a fill without
    # rows, and each length's row is the one it gets as the shortest, whether
    # it is copied alone or with the consecutive lengths above it
    for beta, delta in ((0.0081, 0.0), (0.3, 0.3), (1.0, -0.4)):
        e, sum_d, rows = _steady_pairs(beta, delta, 90, 91)
        assert rows.shape == (0, 90)
        for first in (90, 30, 1):
            e_l, sum_l, rows = _steady_pairs(beta, delta, 90, first)
            assert np.array_equal(e_l, e) and np.array_equal(sum_l, sum_d)
            assert rows.shape == (91 - first, 90)
            for length, row in zip(range(first, 91), rows):
                assert np.array_equal(row, _steady_pairs(beta, delta, 90, length)[2][0])


def test_gapped_and_repeated_lengths_read_their_own_rows():
    # a gap or a repeat among the lengths picks the same amplitude as the
    # consecutive lengths around it
    taus = TauGrid.linear(40.0, 81).values
    lengths = [1, 2, 3, 10, 11, 40, 40, 41, 89, 90]
    for beta, delta in ((0.0081, 0.0), (0.02, 0.3), (0.05, -0.4)):
        amp = _two_photon_amplitudes(beta, delta, lengths, taus)
        every = _two_photon_amplitudes(beta, delta, list(range(1, 91)), taus)
        ref = every[np.array(lengths) - 1]
        assert np.max(np.abs(amp - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_g2_zero_scan_keeps_no_pair_matrix():
    # the fill holds O(N) amplitudes: a stored 2000 x 2000 pair matrix
    # would take 61 MiB
    tracemalloc.start()
    try:
        chain_g2_zero_by_length(5e-4, [0, 2000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_amplitude_relaxes_to_coherent_product():
    amp = _two_photon_amplitudes(0.1, 0.0, [3], TauGrid.linear(40.0, 81).values)[0]
    t_2n = transmission_coefficient(0.1) ** 6
    assert abs(amp[-1] - t_2n) < 1e-8 * abs(t_2n)


def _expm_amplitude(beta, delta, n, taus):
    """psi_N(tau) from the dense one-excitation propagator, one expm per tau."""
    e, _, rows = _steady_pairs(beta, delta, n, n)
    t_n = transmission_coefficient(beta, delta) ** n
    df = (1.0 - t_n) * e + math.sqrt(beta) * rows[0]
    gen = np.tril(np.full((n, n), -beta, dtype=complex), k=-1)
    gen += (1j * delta - 0.5) * np.eye(n)
    return np.array([t_n**2 + math.sqrt(beta) * (scipy.linalg.expm(gen * tau) @ df).sum()
                     for tau in taus])


@pytest.mark.parametrize("beta,delta,n,tau_max", [
    (0.0081, 0.0, 454, 12.0), (0.0081, 0.5, 300, 60.0), (0.0081, -0.4, 200, 100.0),
    (0.05, 0.0, 120, 100.0), (0.05, -0.4, 130, 100.0), (0.05, 0.5, 40, 100.0),
    (0.3, 0.0, 15, 100.0), (0.3, 0.5, 30, 100.0), (0.3, -0.4, 20, 100.0),
    (0.9, 0.0, 55, 100.0), (0.9, 0.5, 120, 100.0), (0.9, -0.4, 100, 100.0),
])
def test_propagator_matches_expm(beta, delta, n, tau_max):
    # the Laguerre table against the dense matrix exponential, out to
    # beta * tau = 90 where the Laguerre coefficients grow like e^{beta tau / 2}
    grid = TauGrid.linear(tau_max, 9)
    amp = _two_photon_amplitudes(beta, delta, [n], grid.values)[0]
    ref = _expm_amplitude(beta, delta, n, grid.values)
    assert np.max(np.abs(amp - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_non_uniform_grid_matches_expm_per_point():
    # a fine segment joined to a coarse tail; every delay is propagated on
    # its own, so the step pattern of the grid cannot matter
    taus = np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(1.5, 30.0, 8),
                           [47.0, 61.5]])
    grid = TauGrid(taus)
    params = PhysicalParams(beta=0.0081, n_atoms=120, detuning=0.3)
    ref = _expm_amplitude(0.0081, 0.3, 120, taus)
    amp = _two_photon_amplitudes(0.0081, 0.3, [120], taus)[0]
    assert np.max(np.abs(amp - ref)) <= 1e-12 * np.max(np.abs(ref))
    trans = chain_transmission(params)
    np.testing.assert_allclose(chain_g2(params, grid).values, np.abs(ref) ** 2 / trans**2,
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(ref) ** 2) / trans**2)


def test_long_delays_match_expm():
    # at beta = 1 nothing damps the Laguerre growth e^{beta tau / 2}, and
    # e^{-tau/2} alone underflows past tau ~ 1490; the deviation from t^2N is
    # still 1e-5 at tau = 1550, so neither may be lost
    grid = TauGrid(np.array([0.0, 1000.0, 1550.0, 1600.0]))
    amp = _two_photon_amplitudes(1.0, 0.5, [450], grid.values)[0]
    ref = _expm_amplitude(1.0, 0.5, 450, grid.values)
    assert np.max(np.abs(amp - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shared_table_matches_single_lengths():
    lengths = [0, 1, 4, 9, 30]
    curves = chain_g2_by_length(0.05, lengths, GRID, detuning=0.2)
    for n, curve in zip(lengths, curves):
        single = chain_g2(PhysicalParams(beta=0.05, n_atoms=n, detuning=0.2), GRID)
        np.testing.assert_allclose(curve.values, single.values, rtol=1e-12, atol=1e-14)
        assert curve.transmission == single.transmission


def test_batched_lengths_are_checked():
    for bad in ([3, 1], [-1, 2], [1.0, 2.0], [[1, 2]]):
        for call in (lambda: chain_g2_by_length(0.05, bad, GRID),
                     lambda: chain_g2_zero_by_length(0.05, bad)):
            with pytest.raises(ParameterError) as err:
                call()
            assert err.value.code == "bad-lengths"
    for call in (lambda: chain_g2_by_length(0.05, [1, 2], GRID, detuning=float("nan")),
                 lambda: chain_g2_zero_by_length(0.05, [1, 2], detuning=float("nan"))):
        with pytest.raises(ParameterError) as err:
            call()
        assert err.value.code == "detuning-not-finite"
    with pytest.raises(ParameterError) as err:
        chain_g2_by_length(0.05, [1, 2], TauGrid(GRID.values, unit="ns"))
    assert err.value.code == "grid-bad-unit"
    # transmission never rises with N: the longest chain decides the floor
    with pytest.raises(NumericalError) as err:
        chain_g2_by_length(0.4, [0, 1, 50], GRID)
    assert err.value.code == "vanishing-transmission"


def test_g2_zero_by_length_raises_where_g2_zero_is_not_finite():
    # at beta 0.4, |t|^4N = 0.2^4N reaches the bottom of the double range near
    # N = 110 and g2(0) = |psi|^2 / |t|^4N overflows; the first such N is named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as err:
            chain_g2_zero_by_length(0.4, [0, 10, 120, 300])
        assert err.value.code == "vanishing-transmission"
        assert "N = 120" in str(err.value)
        g2 = chain_g2_zero_by_length(0.4, [0, 10, 60])
    assert g2[0] == 1.0 and np.all(np.isfinite(g2)) and g2[1] == pytest.approx(5.152e25, rel=1e-3)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.002, 0.3), detuning=st.floats(-1.0, 1.0),
       lengths=st.lists(st.integers(0, 300), max_size=12))
def test_batched_g2_zero_matches_single_lengths(beta, detuning, lengths):
    ns = sorted(n for n in lengths if chain_transmission(
        PhysicalParams(beta=beta, n_atoms=n, detuning=detuning)) >= TRANSMISSION_FLOOR)
    got = chain_g2_zero_by_length(beta, ns, detuning)
    want = [chain_g2_zero(PhysicalParams(beta=beta, n_atoms=n, detuning=detuning)) for n in ns]
    assert got.tolist() == want


def test_curve_and_zero_paths_agree():
    # chain_g2 builds the full delay curve, chain_g2_zero only the pair sums
    # of the equal-time amplitudes; they must agree at tau = 0
    for beta, n in [(0.0081, 150), (0.05, 20), (0.3, 3)]:
        params = PhysicalParams(beta=beta, n_atoms=n)
        curve = chain_g2(params, TauGrid.linear(1.0, 3))
        assert curve.values[0] == pytest.approx(chain_g2_zero(params), rel=1e-12)


def test_collective_pair_enhancement():
    # the pair amplitudes of the N emitters add coherently; the residual
    # deviation grows like (N - 1) beta and stays below 5% out to N = 20
    base = 1.0 - chain_g2_zero(PhysicalParams(beta=0.002, n_atoms=1))
    for n in (2, 5, 10, 20):
        depth = 1.0 - chain_g2_zero(PhysicalParams(beta=0.002, n_atoms=n))
        assert depth / base == pytest.approx(n, rel=0.002 * (n - 1) + 0.01)


def test_quantum_beat_in_bunched_regime():
    # past the g2(0) = 1 crossing the correlated pair component dominates and
    # interferes with the carrier: g2 must dip below 1 at finite delay
    params = PhysicalParams(beta=0.0081, n_atoms=230)
    curve = chain_g2(params, GRID)
    assert curve.values[0] > 2.0
    assert curve.values.min() < 1.0
    assert curve.values.argmin() > 0


def test_vanishing_transmission_raises():
    with pytest.raises(NumericalError) as err:
        chain_g2(PhysicalParams(beta=0.4, n_atoms=50), GRID)
    assert err.value.code == "vanishing-transmission"


def test_detuned_chain_tail_relaxes_to_one():
    params = PhysicalParams(beta=0.05, n_atoms=10, detuning=0.8)
    curve = chain_g2(params, TauGrid.linear(60.0, 121))
    assert curve.values[-1] == pytest.approx(1.0, abs=1e-6)


def test_find_perfect_antibunching_reports_operating_point():
    rep = find_perfect_antibunching(0.05)
    assert rep.g2_zero_at_n_star < 0.5
    assert 0 < rep.n_star < 400
    assert rep.transmission_at_n_star == pytest.approx(
        abs(transmission_coefficient(0.05)) ** (2 * rep.n_star))
    assert rep.n_in == pytest.approx(0.1 / 0.05)


@pytest.mark.parametrize("beta,n_star,g2_zero,trans", [
    (0.0081, 187, 1.864164240499611e-05, 0.002224078006784896),
    (0.05, 18, 0.007264631473556142, 0.022528399544939195),
])
def test_find_perfect_antibunching_reference_values(beta, n_star, g2_zero, trans):
    # values of the column-by-column pair fill; g2(0) at the dip is a 1e-5
    # cancellation of O(1) terms, so summation order moves it by ~1e-11
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = find_perfect_antibunching(beta)
    assert rep.n_star == n_star
    assert rep.g2_zero_at_n_star == pytest.approx(g2_zero, rel=1e-9)
    assert rep.transmission_at_n_star == trans


def test_find_perfect_antibunching_needs_bracketed_minimum():
    # at this weak coupling the dip lies beyond the 400-atom scan
    with pytest.raises(NumericalError) as err:
        find_perfect_antibunching(0.002)
    assert err.value.code == "not-bracketed"


def test_find_perfect_antibunching_warns_on_dark_output():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = find_perfect_antibunching(0.005)
    assert rep.transmission_at_n_star < 0.01
    assert any("rates are essentially zero" in str(w.message) for w in caught)
