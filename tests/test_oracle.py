"""Brute-force master-equation reference: physicality and convergence checks.

The full chain-vs-oracle equivalence sweep lives in test_acceptance; here the
oracle is validated on its own terms (decay law, trace preservation, stepped
propagation, the real Hermitian form, steady-state accuracy, drive
extrapolation, the two-excitation basis against all 2^N states) so a
disagreement there can be attributed.
"""

import itertools
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
import scipy.linalg

from chiralchain import (
    NumericalError,
    ParameterError,
    PhysicalParams,
    TauGrid,
    chain_g2,
    chain_transmission,
    oracle_g2,
)
from chiralchain import oracle
from chiralchain.oracle import (
    DRIVE_SATURATIONS,
    CascadedGenerator,
    _check_atoms,
    _check_density,
    _finite_drive_g2,
    _real_form,
    _real_generator,
    _richardson,
    _steady_state,
)

_SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|, basis (g, e)


def _site_op(op, site, n):
    out = np.array([[1.0 + 0.0j]])
    for j in range(n):
        out = np.kron(out, op if j == site else np.eye(2))
    return out


def _full_space_liouvillian(params, alpha):
    """Reference: the cascaded-chain Liouvillian on all 2^N emitter states,
    with every operator a Kronecker product of single-emitter ones."""
    n, beta = params.n_atoms, params.beta
    sig = [_site_op(_SIGMA, j, n) for j in range(n)]
    h = -params.detuning * sum(s.conj().T @ s for s in sig)
    for j in range(n):
        for k in range(j + 1, n):
            h = h + (-0.5j * beta) * (sig[k].conj().T @ sig[j] - sig[j].conj().T @ sig[k])
    j0 = math.sqrt(beta) * sum(sig)
    h = h + (-1j * alpha) * (j0.conj().T - j0)
    jumps = [j0] + ([math.sqrt(1.0 - beta) * s for s in sig] if beta < 1.0 else [])
    k = -1j * h - 0.5 * sum(c.conj().T @ c for c in jumps)
    eye = np.eye(2 ** n)
    lv = np.kron(k, eye) + np.kron(eye, k.conj())
    for c in jumps:
        lv += np.kron(c, c.conj())
    return lv


def _excited(n):
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[-1, -1] = 1.0  # basis is (g, e) per site, so |e...e> is the last index
    return rho


def _propagate(gen, rho, t):
    """rho evolved for time t by the master equation, expm(L t) vec(rho)."""
    return (scipy.linalg.expm(gen.liouvillian() * t) @ rho.reshape(-1)).reshape(rho.shape)


def test_density_operator_validation():
    with pytest.raises(NumericalError):
        _check_density(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not hermitian
    with pytest.raises(NumericalError):
        _check_density(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(NumericalError):
        _check_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_undriven_excited_atom_decays_exponentially():
    gen = CascadedGenerator(PhysicalParams(beta=0.3, n_atoms=1), 0.0)
    rho = _excited(1)
    for t in (0.5, 1.0, 2.0):
        out = _propagate(gen, rho, t)
        pop = out[-1, -1].real
        assert pop == pytest.approx(np.exp(-t), rel=1e-8)


def test_propagation_preserves_trace_and_positivity():
    gen = CascadedGenerator(PhysicalParams(beta=0.2, n_atoms=2, detuning=0.3), 0.05)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = _propagate(gen, rho, 3.0)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    _check_density(out)  # hermitian, positive within tolerance


def test_steady_state_is_stationary():
    gen = CascadedGenerator(PhysicalParams(beta=0.15, n_atoms=2), 0.08)
    rho = _steady_state(gen.liouvillian(), gen.dim)
    later = _propagate(gen, rho, 2.0)
    assert np.max(np.abs(later - rho)) < 1e-9


def test_stepped_regression_matches_expm_per_point():
    # a fine segment, a coarse one and a lone far step: the stepped
    # regression reuses one propagator per distinct step, the reference
    # propagates every delay from tau = 0 on its own
    taus = np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(1.5, 30.0, 8), [47.0]])
    params = PhysicalParams(beta=0.3, n_atoms=2, detuning=0.4)
    gen = CascadedGenerator(params, math.sqrt(0.004 / (8.0 * params.beta)))
    values, n_out = _finite_drive_g2(gen, TauGrid(taus))

    lv = gen.liouvillian()
    rho = _steady_state(lv, gen.dim)
    a = gen.output_op
    ada = a.conj().T @ a
    chi = (a @ rho @ a.conj().T).reshape(-1)
    assert n_out == np.trace(ada @ rho).real
    ref = np.array([np.trace(ada @ (scipy.linalg.expm(lv * tau) @ chi).reshape(rho.shape)).real
                    for tau in taus]) / n_out**2
    np.testing.assert_allclose(values, ref, rtol=1e-10)


def test_real_form_matches_complex_liouvillian():
    # for Hermitian X the real generator maps vec(Re X + Im X) to the same
    # coordinates of L vec(X), and the readout gives Tr[a^dag a X]
    params = PhysicalParams(beta=0.3, n_atoms=2, detuning=0.4)
    gen = CascadedGenerator(params, math.sqrt(0.004 / (8.0 * params.beta)))
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = m + m.conj().T
    lv = gen.liouvillian()
    lx = (lv @ x.reshape(-1)).reshape(4, 4)
    y = (x.real + x.imag).reshape(-1)
    np.testing.assert_allclose(_real_generator(lv, gen.dim) @ y,
                               (lx.real + lx.imag).reshape(-1), rtol=0, atol=1e-13)
    a = gen.output_op
    ada = a.conj().T @ a
    assert abs(_real_form(ada) @ y - np.trace(ada @ x).real) <= 1e-13


def test_steady_state_matches_multiprecision_solve():
    # finite-drive g2(0) from the double-precision LU steady state against a
    # 40-digit solve of the same 49 x 49 system (trace row in place of row 0;
    # N = 3 keeps 7 of the 8 emitter states)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    params = PhysicalParams(beta=0.3, n_atoms=3)
    for s in DRIVE_SATURATIONS:
        gen = CascadedGenerator(params, math.sqrt(s / (8.0 * params.beta)))
        dim = gen.dim
        g2_0 = _finite_drive_g2(gen, TauGrid.linear(1.0, 2))[0][0]

        system = gen.liouvillian()
        system[0] = np.eye(dim).reshape(-1)
        with mp.workdps(40):
            vec = mp.lu_solve(mp.matrix(system.tolist()), mp.matrix([1] + [0] * (dim * dim - 1)))
            rho = mp.matrix(dim, dim)
            for i in range(dim):
                for j in range(dim):
                    rho[i, j] = vec[i * dim + j]
            a = mp.matrix(gen.output_op.tolist())
            ad = a.transpose_conj()
            ada = ad * a

            def trace(x):
                return mp.re(sum(x[i, i] for i in range(dim)))

            exact = trace(ada * a * rho * ad) / trace(ada * rho) ** 2
            assert abs(g2_0 - exact) <= 1e-10 * abs(exact), (s, g2_0, exact)


def _ladder(params, grid, saturations):
    """Extrapolated curve and gap, as oracle_g2 forms them, for the drive
    ladder ``saturations`` (strongest first)."""
    curves = [_finite_drive_g2(CascadedGenerator(params, math.sqrt(s / (8.0 * params.beta))),
                               grid)[0] for s in saturations]
    g0, g_without_finest = _richardson(curves)
    gap = float(np.max(np.abs(g0 - g_without_finest)) / max(float(np.max(g0)), 1.0))
    return np.clip(g0, 0.0, None), gap


def test_extrapolation_order_in_drive_power():
    # two-point Richardson leaves an O(P^2) residual: quartering the probe
    # power must shrink the distance to the iterated three-drive ladder by
    # ~16; the three-drive ladders themselves agree to O(P^3)
    params = PhysicalParams(beta=0.3, n_atoms=2)
    grid = TauGrid.linear(4.0, 21)
    ref = oracle_g2(params, grid).curve.values
    scale = max(float(np.max(ref)), 1.0)
    quart3, _ = _ladder(params, grid, (0.001, 0.00025, 0.0000625))
    assert np.max(np.abs(quart3 - ref)) < 2e-5 * scale
    strong2, strong2_gap = _ladder(params, grid, (0.004, 0.001))
    weak2, weak2_gap = _ladder(params, grid, (0.001, 0.00025))
    r_strong = np.max(np.abs(strong2 - ref))
    r_weak = np.max(np.abs(weak2 - ref))
    assert r_weak < r_strong / 8.0
    assert strong2_gap > weak2_gap


_COEF = st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(g0=_COEF, c1=_COEF, c2=_COEF, p0=st.floats(1e-6, 1e-2))
@example(g0=0.0, c1=1.1125369292536007e-308, c2=0.0, p0=1e-6)  # subnormal terms
def test_richardson_is_exact_on_quadratics(g0, c1, c2, p0):
    # three drives at power ratio 4 cancel the P and P^2 terms exactly; the
    # value without the finest drive is the two-point extrapolation of the
    # two strongest, which is exact for linear g.  Rounding is relative to
    # the terms' scale, and absolute, a few ulp(0), for subnormal terms.
    powers = [p0, p0 / 4.0, p0 / 16.0]
    tol = 1e-14 * (abs(g0) + abs(c1) * p0 + abs(c2) * p0**2) + 64 * math.ulp(0.0)
    g = [g0 + c1 * p + c2 * p * p for p in powers]
    full, without_finest = _richardson(g)
    assert abs(full - g0) <= tol
    assert abs(without_finest - (4.0 * g[1] - g[0]) / 3.0) <= tol
    assert abs(_richardson([g0 + c1 * p for p in powers])[1] - g0) <= tol


def test_transmission_matches_amplitude_power_law():
    for params in (PhysicalParams(beta=0.1, n_atoms=1),
                   PhysicalParams(beta=0.3, n_atoms=2, detuning=0.5),
                   PhysicalParams(beta=0.05, n_atoms=3)):
        trans = oracle_g2(params, TauGrid.linear(1.0, 2)).curve.transmission
        assert trans == pytest.approx(chain_transmission(params), rel=1e-5)


def test_grid_must_be_natural_units():
    with pytest.raises(ParameterError):
        oracle_g2(PhysicalParams(beta=0.1, n_atoms=1), TauGrid(np.linspace(0.0, 5.0, 6), unit="ns"))


def test_large_chain_size_guard_counts_kept_states(monkeypatch):
    # N = 8 keeps D = 37 states, so the solver holds 37**4 entries (about
    # 240 MB), not 16**8: admitted against 1 GiB, refused against 64 MiB
    params = PhysicalParams(beta=0.1, n_atoms=8)
    monkeypatch.setattr(oracle, "_physical_memory_bytes", lambda: float(2**30))
    _check_atoms(params)
    monkeypatch.setattr(oracle, "_physical_memory_bytes", lambda: float(2**26))
    with pytest.raises(NumericalError) as err:
        _check_atoms(params)
    assert err.value.code == "oracle-too-large"
    assert "1369 dimensional" in str(err.value)


@pytest.mark.parametrize("n", [5, 6])
def test_chains_past_four_match_the_chain_model(n):
    # criterion 1 (test_acceptance) past its N <= 4, at the couplings where
    # the fixed drive ladder still converges; the memory guard and the
    # extrapolation check are the oracle's only limits, so no warning either
    grid = TauGrid.linear(10.0, 201)
    for beta, delta in ((0.1, 0.0), (0.1, 0.5), (0.3, 0.5)):
        params = PhysicalParams(beta, n, delta)
        chain = chain_g2(params, grid).values
        orc = oracle_g2(params, grid).curve.values
        tol = 1e-3 * np.abs(orc) + 1e-4 * max(1.0, float(orc.max()))
        assert np.all(np.abs(chain - orc) <= tol), (n, beta, delta)


def test_strong_coupling_past_four_is_not_converged():
    # at beta 0.3 and N = 5 the fixed probe drives are too strong for the
    # chain's small transmission: the extrapolation check refuses the curve
    with pytest.raises(NumericalError) as err:
        oracle_g2(PhysicalParams(0.3, 5), TauGrid.linear(10.0, 201))
    assert err.value.code == "not-converged"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_uncapped_generator_is_the_full_space_liouvillian(monkeypatch, n):
    # with the cap at N every emitter state is kept, in the Kronecker order
    monkeypatch.setattr(oracle, "_MAX_EXCITATIONS", n)
    params = PhysicalParams(beta=0.3, n_atoms=n, detuning=0.4)
    gen = CascadedGenerator(params, 0.05)
    assert gen.dim == 2 ** n
    assert np.array_equal(gen.liouvillian(), _full_space_liouvillian(params, 0.05))


@pytest.mark.parametrize("n", [3, 4])
def test_capped_generator_is_the_full_space_liouvillian_on_kept_states(n):
    # the states with at most two excited emitters, ascending as N-bit
    # integers: the capped L is the full one's block on pairs of them
    params = PhysicalParams(beta=0.3, n_atoms=n, detuning=0.4)
    gen = CascadedGenerator(params, 0.05)
    kept = [s for s in range(2 ** n) if s.bit_count() <= 2]
    assert gen.dim == len(kept) == 1 + n + n * (n - 1) // 2
    pairs = [i * 2 ** n + j for i in kept for j in kept]
    full = _full_space_liouvillian(params, 0.05)
    assert np.array_equal(gen.liouvillian(), full[np.ix_(pairs, pairs)])


def test_capped_oracle_matches_full_space_within_extrapolation_gap(monkeypatch):
    # the third and higher manifolds change finite-drive g2 at one order of
    # drive power, which the Richardson ladder cancels: the capped and the
    # full-space curves agree within the larger of their two gaps, on the
    # perfbench oracle_sweep configurations
    grid = TauGrid.linear(10.0, 201)
    for n, beta, delta in itertools.product((3, 4), (0.1, 0.3), (0.0, 0.5)):
        params = PhysicalParams(beta, n, delta)
        capped = oracle_g2(params, grid)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_MAX_EXCITATIONS", n)
            full = oracle_g2(params, grid)
        scale = max(float(np.max(full.curve.values)), 1.0)
        gap = max(capped.extrapolation_gap, full.extrapolation_gap)
        dev = np.max(np.abs(capped.curve.values - full.curve.values))
        assert dev <= gap * scale, (n, beta, delta, dev / scale, gap)
        assert capped.curve.transmission == pytest.approx(full.curve.transmission, rel=1e-6)
