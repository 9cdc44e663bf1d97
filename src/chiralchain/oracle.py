"""Brute-force master-equation reference for small chains.

Everything here works on the density matrix of the cascaded chain under a
finite coherent drive, on the states with at most _MAX_EXCITATIONS = 2
excited emitters: D = 1 + N + N(N-1)/2 of them instead of 2^N (all of them
for N <= 2).  In the frame displaced by the coherent input the model is

    drho/dt = -i[H, rho] + D[J0] rho + sum_j D[sqrt((1-beta)Gamma) sigma_j] rho

    H  = sum_j -Delta sigma_j^+ sigma_j
         - (i beta Gamma / 2) sum_{j<k} (sigma_k^+ sigma_j - sigma_j^+ sigma_k)
         - i sqrt(beta Gamma) sum_j (alpha sigma_j^+ - alpha* sigma_j)

with J0 = sqrt(beta Gamma) sum_j sigma_j the collective waveguide jump
operator and upstream emitters (lower index) feeding downstream ones.  The
transmitted field in normally ordered correlators is a_out = alpha + J0.

True weak-drive quantities are obtained from the three finite drives
DRIVE_SATURATIONS, with consecutive amplitude ratio 2 : 1, by iterated
Richardson extrapolation in drive power: each stage cancels one more order
of the saturation correction, starting with O(|alpha|^2).

Why two excitations are enough: the weak-drive g2 is a ratio of the
two-photon to the squared one-photon output, so it reads the steady state
only up to its two-excitation amplitudes, O(alpha^2).  States with three or
more excited emitters are reached at O(alpha^3) and change the finite-drive
g2 at O(|alpha|^2), one order of drive power, which the Richardson ladder
cancels.  The capped operators are the full ones restricted to the kept
states (sigma_j never leaves them; its adjoint drops what it would raise out
of them), so H stays Hermitian and the generator stays of Lindblad form,
with trace and positivity kept.

Each drive builds its Liouvillian L once, as
K (x) 1 + 1 (x) K* + sum_c c (x) c* with K = -iH - 1/2 sum_c c^dag c.  The
steady state is one LU solve of L with its first equation replaced by the
trace condition; it gives the output rate (hence the transmission) and the
start of the regression.  The regressed operator chi = a rho a^dag is
Hermitian, so it is carried by the real vector vec(Re chi + Im chi), whose
generator is the real matrix L_r = Re L + Im L Pi (Pi transposes vec); the
correlation is stepped along the delay grid with the exact propagator
expm(L_r dtau), computed once per distinct step, so there is no integrator
step to choose.

The oracle has two limits on N, both enforced: "oracle-too-large" when the
D^2 x D^2 Liouvillian and the solver's arrays would not fit in memory, and
"not-converged" when the fixed drives are too strong for the chain's
transmission and the extrapolation moves by more than EXTRAPOLATION_TOL.

This module is the independent check on the perturbative chain solver in
``transport``; the two share no solver code on purpose.  The cap is the same
two-excitation sector that weak-drive scattering theory works in, but here
it only bounds the basis: the oracle still solves the driven, lossy master
equation at finite drive and takes its zero-drive limit, where ``transport``
propagates pure-state one- and two-photon amplitudes along the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .core import (
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    TauGrid,
    _physical_memory_bytes,
)

__all__ = [
    "EXTRAPOLATION_TOL",
    "DRIVE_SATURATIONS",
    "CascadedGenerator",
    "oracle_g2",
]

# largest number of excited emitters the basis keeps: the weak-drive g2
# reads no higher manifold (see the module docstring)
_MAX_EXCITATIONS = 2
# bytes the solver holds per Liouvillian entry (D^4 of them, D = dim) at its
# peak, with a margin: tracemalloc reads 74 at N = 4 and 73 at N = 5 (the complex
# L, the steady-state system and its LU copy, then the real generator and
# expm's work arrays)
_SOLVER_BYTES_PER_ENTRY = 128
# allowed change of the extrapolation when the finest drive is dropped,
# relative to the curve's maximum
EXTRAPOLATION_TOL = 0.1
# first-atom saturation parameters s = 8 beta |alpha|^2 of the probe drives,
# strongest first, consecutive power ratio 4:1 (amplitude 2:1).  They look
# tiny, but the saturation correction to g2 is amplified by the inverse chain
# transmission, so strongly coupled chains need very weak probes.
DRIVE_SATURATIONS = (0.004, 0.001, 0.00025)


class CascadedGenerator:
    """Liouvillian of the displaced-frame cascaded chain at one drive, on the
    states with at most _MAX_EXCITATIONS excited emitters."""

    def __init__(self, params: PhysicalParams, drive_amplitude: float):
        n = params.n_atoms
        if n < 1:
            raise ParameterError("no-emitters", "oracle needs at least one emitter")
        self.alpha = float(drive_amplitude)

        sig = _lowering_ops(n)
        self.dim = sig[0].shape[0]
        beta = params.beta
        delta = params.detuning
        num = sum(s.conj().T @ s for s in sig)

        h = -delta * num
        for j in range(n):
            for k in range(j + 1, n):
                h = h + (-0.5j * beta) * (sig[k].conj().T @ sig[j] - sig[j].conj().T @ sig[k])
        j0 = math.sqrt(beta) * sum(sig)
        h = h + (-1j * self.alpha) * (j0.conj().T - j0)  # real drive amplitude

        self.hamiltonian = h
        self.waveguide_jump = j0
        self.side_jumps = [math.sqrt((1.0 - beta)) * s for s in sig] if beta < 1.0 else []
        self.output_op = self.alpha * np.eye(self.dim) + j0

    def liouvillian(self) -> np.ndarray:
        """Dense superoperator on row-major vec(rho).

        With K = -iH - 1/2 sum_c c^dag c the master equation reads
        drho/dt = K rho + rho K^dag + sum_c c rho c^dag, and row-major
        vec(A X B) = (A kron B^T) vec(X) makes that
        L = K kron 1 + 1 kron K* + sum_c c kron c*.
        """
        eye = np.eye(self.dim)
        jumps = [self.waveguide_jump] + self.side_jumps
        k = -1j * self.hamiltonian - 0.5 * sum(c.conj().T @ c for c in jumps)
        lv = np.kron(k, eye) + np.kron(eye, k.conj())
        for c in jumps:
            lv += np.kron(c, c.conj())
        return lv


def _basis(n: int) -> list:
    """The kept emitter states, as n-bit integers (bit n-1-j set when emitter
    j is excited) with at most _MAX_EXCITATIONS bits set, in ascending order.
    Below the cap this is every state, in the order of the Kronecker basis
    with (g, e) per emitter, emitter 0 leftmost."""
    return sorted(sum(1 << b for b in bits)
                  for m in range(min(_MAX_EXCITATIONS, n) + 1)
                  for bits in itertools.combinations(range(n), m))


def _basis_size(n: int) -> int:
    """len(_basis(n)), without listing the states."""
    return sum(math.comb(n, m) for m in range(min(_MAX_EXCITATIONS, n) + 1))


def _lowering_ops(n: int) -> list:
    """sigma_j = |g><e| on emitter j, for j = 0 .. n-1, on _basis(n).

    Lowering never leaves the basis, so these are the full-space operators
    restricted to it; their adjoints drop the raised states that fall
    outside.
    """
    states = _basis(n)
    index = {s: i for i, s in enumerate(states)}
    ops = []
    for j in range(n):
        bit = 1 << (n - 1 - j)
        op = np.zeros((len(states), len(states)), dtype=complex)
        for i, s in enumerate(states):
            if s & bit:
                op[index[s ^ bit], i] = 1.0
        ops.append(op)
    return ops


def _check_density(m: np.ndarray) -> None:
    """Raise unless m is a density matrix: Hermitian, unit trace, positive."""
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise NumericalError("rho-not-hermitian", "density matrix not Hermitian within 1e-12")
    if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
        raise NumericalError("rho-trace", "density matrix trace differs from 1 beyond 1e-10")
    if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-10:
        raise NumericalError("rho-not-positive", "density matrix has eigenvalue below -1e-10")


def _steady_state(lv: np.ndarray, dim: int) -> np.ndarray:
    """Steady state: L vec(rho) = 0 with Tr rho = 1, by one LU solve.

    The dynamics keep the trace, so the equations for the diagonal entries
    of rho sum to zero and any one of them is redundant.  The first row of
    L, the equation for rho[0, 0], is replaced by the trace row, and the
    square system is solved against e_0.  The raw solution must pass the
    residual and density-matrix checks before it is symmetrized.
    """
    system = lv.copy()
    system[0] = np.eye(dim).reshape(-1)
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise NumericalError("steady-state", "steady state is not unique") from None
    resid = np.linalg.norm(lv @ vec)
    if resid > 1e-8:
        raise NumericalError("steady-state", f"null-space residual {resid:.2e}")
    rho = vec.reshape(dim, dim)
    _check_density(rho)  # the raw solution, against the physicality bounds
    return (rho + rho.conj().T) / 2


def _output_rate(gen: CascadedGenerator, rho: np.ndarray) -> float:
    """Transmitted photon rate Tr[a_out^dag a_out rho]."""
    a = gen.output_op
    return float(np.trace(a.conj().T @ a @ rho).real)


# delay steps closer than this (relative) share one propagator; the ulp-level
# jitter of a linspace grid stays far below the regression's own accuracy
_SAME_STEP = 1e-12


def _real_form(m: np.ndarray) -> np.ndarray:
    """vec(Re m + Im m): real coordinates of a Hermitian m.

    Re m is the symmetric and Im m the antisymmetric part of the sum, so m
    can be recovered from it.  For Hermitian A and X, Tr[A X] is the dot
    product of their real forms: the symmetric-antisymmetric cross terms
    cancel.
    """
    return (m.real + m.imag).reshape(-1)


def _real_generator(lv: np.ndarray, dim: int) -> np.ndarray:
    """L acting on real forms of Hermitian matrices: Re L + Im L Pi.

    Pi is the transpose permutation of vec.  With y the real form of X,
    vec(X) = (1 + Pi) y / 2 + i (1 - Pi) y / 2, and the real form of
    L vec(X) is (P + P Pi) y / 2 + (M - M Pi) y / 2 with P = Re L + Im L and
    M = Re L - Im L, which is the matrix returned.
    """
    transpose = np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)
    return lv.real + lv.imag[:, transpose]


def _finite_drive_g2(gen: CascadedGenerator, grid: TauGrid) -> tuple[np.ndarray, float]:
    """g2(tau) of the transmitted field at one finite drive, by quantum
    regression, and the steady output rate it is normalized by.

    The dynamics keep chi = a rho a^dag Hermitian, so chi is propagated as
    its real form by the real generator (see _real_generator).
    """
    from scipy.linalg import expm  # deferred: importing chiralchain loads no scipy.linalg
    lv = gen.liouvillian()
    rho = _steady_state(lv, gen.dim)
    n_out = _output_rate(gen, rho)
    if n_out <= 0:
        raise NumericalError("no-output", "steady output photon rate vanished")
    a = gen.output_op
    readout = _real_form(a.conj().T @ a)
    y = _real_form(a @ rho @ a.conj().T)
    lr = _real_generator(lv, gen.dim)
    del lv  # expm's work arrays need not sit beside L (_SOLVER_BYTES_PER_ENTRY)

    taus = grid.values
    out = np.empty(taus.size)
    out[0] = readout @ y
    step, prop = 0.0, None
    for i in range(1, taus.size):
        dt = taus[i] - taus[i - 1]
        if abs(dt - step) > _SAME_STEP * step:
            step, prop = dt, expm(lr * dt)
        y = prop @ y
        out[i] = readout @ y
    return out / n_out**2, n_out


def _richardson(curves: list) -> tuple:
    """Iterated Richardson in drive power (consecutive power ratio 4).

    curves are ordered strongest drive first.  g(P) = g0 + c1 P + c2 P^2 + ...
    with P_i = P_0 / 4^i; each stage cancels one more order.  Returns the
    fully extrapolated value and the one with the finest drive left out, as
    an error estimate.
    """
    tab = list(curves)
    top_prev = tab[0]
    for m in range(1, len(curves)):
        w = 4.0**m
        top_prev = tab[0]
        tab = [(w * tab[i + 1] - tab[i]) / (w - 1.0) for i in range(len(tab) - 1)]
    return tab[0], top_prev


def _check_atoms(params: PhysicalParams):
    """Refuse a chain whose solver arrays would not fit in memory."""
    dim = _basis_size(params.n_atoms)
    need = _SOLVER_BYTES_PER_ENTRY * float(dim) ** 4
    if not need <= _physical_memory_bytes():
        raise NumericalError(
            "oracle-too-large",
            f"the oracle at N = {params.n_atoms} builds a {dim ** 2} dimensional "
            f"Liouvillian and needs about {need:.3g} bytes, more than fits in memory",
        )


@dataclass(frozen=True)
class OracleG2Result:
    """Extrapolated curve and the change of the extrapolation without the finest drive."""

    curve: G2Curve
    extrapolation_gap: float


def oracle_g2(params: PhysicalParams, grid: TauGrid) -> OracleG2Result:
    """Weak-drive g2(tau) of the transmitted light, by brute force.

    Runs the master equation on the states with at most two excited
    emitters (all the weak-drive limit reads; see the module docstring) at
    each drive of DRIVE_SATURATIONS and extrapolates the finite-drive
    correlation curves to zero power by iterated Richardson (see
    _richardson).  Raises "oracle-too-large"
    before any work when the dense Liouvillian and the solver's arrays
    would not fit in the installed memory, and "not-converged" when
    dropping the finest drive moves the extrapolation by more than
    EXTRAPOLATION_TOL relative to the curve's maximum, i.e. when the probes
    are too strong for the power series the extrapolation assumes.  The
    curve's transmission is the same extrapolation of the output rates.
    """
    _check_atoms(params)
    if grid.unit != "gamma":
        raise ParameterError("grid-bad-unit", "oracle grids are in units of 1/Gamma")
    amps = [math.sqrt(s / (8.0 * params.beta)) for s in DRIVE_SATURATIONS]
    curves, rates = zip(*(_finite_drive_g2(CascadedGenerator(params, amp), grid)
                          for amp in amps))
    g0, g_without_finest = _richardson(curves)
    gap = float(np.max(np.abs(g0 - g_without_finest)) / max(float(np.max(g0)), 1.0))
    if gap > EXTRAPOLATION_TOL:
        raise NumericalError(
            "not-converged",
            f"extrapolation moved by {gap:.3f} of the curve scale when the finest "
            "drive was added; weaken the probe drives",
        )
    # extrapolation noise can leave tiny negatives near the beat zeros
    if np.min(g0) < -1e-4 * max(float(np.max(g0)), 1.0):
        raise NumericalError("not-converged", f"extrapolated g2 reached {np.min(g0):.2e} < 0")
    g0 = np.clip(g0, 0.0, None)
    # weak-drive power transmission: the extrapolated rate / |alpha|^2
    trans, _ = _richardson([r / a**2 for r, a in zip(rates, amps)])
    return OracleG2Result(G2Curve(grid, g0, transmission=float(trans)), gap)
