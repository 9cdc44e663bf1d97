"""Brute-force master-equation reference for small chains.

Everything here works on the full 2^N dimensional density matrix of the
cascaded chain under a finite coherent drive.  In the frame displaced by the
coherent input the model is

    drho/dt = -i[H, rho] + D[J0] rho + sum_j D[sqrt((1-beta)Gamma) sigma_j] rho

    H  = sum_j -Delta sigma_j^+ sigma_j
         - (i beta Gamma / 2) sum_{j<k} (sigma_k^+ sigma_j - sigma_j^+ sigma_k)
         - i sqrt(beta Gamma) sum_j (alpha sigma_j^+ - alpha* sigma_j)

with J0 = sqrt(beta Gamma) sum_j sigma_j the collective waveguide jump
operator and upstream emitters (lower index) feeding downstream ones.  The
transmitted field in normally ordered correlators is a_out = alpha + J0.

True weak-drive quantities are obtained from the configured finite drives
(three by default), with consecutive amplitude ratio 2 : 1, by iterated
Richardson extrapolation in drive power: each stage cancels one more order
of the saturation correction, starting with O(|alpha|^2).

Each drive builds its Liouvillian L once.  Its steady state gives both the
output rate (hence the transmission) and the start of the regression, and
the correlation is stepped along the delay grid with the exact propagator
expm(L dtau), computed once per distinct step: the Liouvillian is at most
256 x 256, so there is no integrator step to choose.

This module is the independent check on the perturbative chain solver in
``transport``; the two share no solver code on purpose.
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
    validate_params,
)

__all__ = [
    "MAX_ATOMS",
    "EXTRAPOLATION_TOL",
    "OracleConfig",
    "CascadedGenerator",
    "oracle_g2",
]

_SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|, basis (g, e)

# soft cap on N: the full density matrix is 4^N numbers
MAX_ATOMS = 4
# allowed change of the extrapolation when the finest drive is dropped,
# relative to the curve's maximum
EXTRAPOLATION_TOL = 0.1


@dataclass(frozen=True)
class OracleConfig:
    """Settings of the brute-force reference.

    drive_saturations   first-atom saturation parameters s = 8 beta |alpha|^2
                        of the probe drives, consecutive power ratio 4:1
                        (amplitude 2:1).  Two drives give the plain two-point
                        Richardson elimination of the O(power) correction;
                        with more drives the elimination is iterated to the
                        next orders.  The defaults look tiny but the
                        saturation correction to g2 is amplified by the
                        inverse chain transmission, so strongly coupled
                        chains need very weak probes.

    There is no time step to set: delays are propagated exactly, with one
    expm(L dtau) per distinct grid step.
    """

    drive_saturations: tuple = (0.004, 0.001, 0.00025)

    def __post_init__(self):
        s = tuple(float(x) for x in self.drive_saturations)
        object.__setattr__(self, "drive_saturations", s)
        if len(s) < 2:
            raise ParameterError("oracle-drives", "need at least two drive strengths")
        if any(x <= 0 for x in s):
            raise ParameterError("oracle-drives", "drive saturations must be > 0")
        if max(s) >= 0.2:
            raise ParameterError("oracle-drives", "probe drives must stay below saturation 0.2")
        srt = sorted(s)
        for lo, hi in zip(srt, srt[1:]):
            if not math.isclose(hi / lo, 4.0, rel_tol=1e-9):
                raise ParameterError("oracle-drives", "consecutive drives must have power ratio 4:1")


class CascadedGenerator:
    """Liouvillian of the displaced-frame cascaded chain at one drive."""

    def __init__(self, params: PhysicalParams, drive_amplitude: float):
        validate_params(params)
        n = params.n_atoms
        if n < 1:
            raise ParameterError("n-atoms-negative", "oracle needs at least one emitter")
        self.params = params
        self.alpha = float(drive_amplitude)
        self.dim = 2 ** n

        sig = [_site_op(_SIGMA, j, n) for j in range(n)]
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
        """Dense superoperator on row-major vec(rho)."""
        d = self.dim
        eye = np.eye(d)
        h = self.hamiltonian
        lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for c in [self.waveguide_jump] + self.side_jumps:
            cdc = c.conj().T @ c
            lv += np.kron(c, c.conj())
            lv -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
        return lv


def _site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for j in range(n):
        out = np.kron(out, op if j == site else np.eye(2))
    return out


def _check_density(m: np.ndarray) -> None:
    """Raise unless m is a density matrix: Hermitian, unit trace, positive."""
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise NumericalError("rho-not-hermitian", "density matrix not Hermitian within 1e-12")
    if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
        raise NumericalError("rho-trace", "density matrix trace differs from 1 beyond 1e-10")
    if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-10:
        raise NumericalError("rho-not-positive", "density matrix has eigenvalue below -1e-10")


def _steady_state(lv: np.ndarray, dim: int) -> np.ndarray:
    """Steady state from the Liouvillian null space plus the trace condition."""
    trace_row = np.eye(dim, dtype=complex).reshape(1, dim * dim)
    aug = np.vstack([lv, trace_row])
    rhs = np.zeros(dim * dim + 1, dtype=complex)
    rhs[-1] = 1.0
    vec, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
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


def _finite_drive_g2(gen: CascadedGenerator, grid: TauGrid) -> tuple[np.ndarray, float]:
    """g2(tau) of the transmitted field at one finite drive, by quantum
    regression, and the steady output rate it is normalized by."""
    from scipy.linalg import expm  # deferred: importing chiralchain loads no scipy.linalg
    lv = gen.liouvillian()
    rho = _steady_state(lv, gen.dim)
    n_out = _output_rate(gen, rho)
    if n_out <= 0:
        raise NumericalError("no-output", "steady output photon rate vanished")
    a = gen.output_op
    ada = a.conj().T @ a
    chi = (a @ rho @ a.conj().T).reshape(-1)
    ada_vec = ada.T.reshape(-1)  # Tr[ada @ X] = ada_vec . vec(X), row-major

    taus = grid.values
    out = np.empty(taus.size)
    out[0] = float(np.real(ada_vec @ chi))
    step, prop = 0.0, None
    for i in range(1, taus.size):
        dt = taus[i] - taus[i - 1]
        if abs(dt - step) > _SAME_STEP * step:
            step, prop = dt, expm(lv * dt)
        chi = prop @ chi
        out[i] = float(np.real(ada_vec @ chi))
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
    if params.n_atoms > MAX_ATOMS:
        warnings.warn(
            f"oracle with N = {params.n_atoms} emitters builds a {4 ** params.n_atoms}"
            " dimensional Liouvillian; expect it to be slow",
            RuntimeWarning,
        )


@dataclass(frozen=True)
class OracleG2Result:
    """Extrapolated curve plus the finite-drive raw material."""

    curve: G2Curve
    drive_saturations: tuple
    extrapolation_gap: float


def oracle_g2(params: PhysicalParams, grid: TauGrid, config: OracleConfig = OracleConfig()) -> OracleG2Result:
    """Weak-drive g2(tau) of the transmitted light, by brute force.

    Runs the full master equation at every configured drive and
    extrapolates the finite-drive correlation curves to zero power by
    iterated Richardson (see _richardson).  Raises "not-converged" when
    dropping the finest drive moves the extrapolation by more than
    EXTRAPOLATION_TOL relative to the curve's maximum, i.e. when the probes
    are too strong for the power series the extrapolation assumes.  The
    curve's transmission is the same extrapolation of the output rates.
    """
    validate_params(params)
    _check_atoms(params)
    if grid.unit != "gamma":
        raise ParameterError("grid-bad-unit", "oracle grids are in units of 1/Gamma")
    # probe amplitudes, strongest first
    amps = [math.sqrt(s / (8.0 * params.beta))
            for s in sorted(config.drive_saturations, reverse=True)]
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
    curve = G2Curve(grid, g0, transmission=float(trans), params=params)
    return OracleG2Result(curve, tuple(sorted(config.drive_saturations)), gap)
