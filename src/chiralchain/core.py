"""Shared types for the chiral-chain photon correlation toolkit.

Unit conventions used throughout:

* Rates and detunings are in units of the total single-emitter decay rate
  Gamma (Gamma = 1 internally).  Delay grids are in units of 1/Gamma unless
  the grid is explicitly tagged as nanoseconds.
* Conversion to physical time happens only at I/O boundaries, via the
  natural linewidth Gamma/2pi entered in MHz (see ``time_unit_ns``).
* Correlation curves are stored on tau >= 0 only; g2(-tau) = g2(tau) by
  construction and negative delays are produced by mirroring on output.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import os

import numpy as np

__all__ = [
    "ParameterError",
    "NumericalError",
    "DataError",
    "PhysicalParams",
    "TauGrid",
    "G2Curve",
    "time_unit_ns",
]


class ParameterError(ValueError):
    """Invalid physical or configuration parameter."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class NumericalError(RuntimeError):
    """Computation left its domain of validity (non-convergence, vanishing
    transmission, unbracketed minimum, ...)."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class DataError(ValueError):
    """Malformed or insufficient measurement data."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def time_unit_ns(gamma_mhz: float) -> float:
    """Length of the natural time unit 1/Gamma in ns, for Gamma/2pi in MHz."""
    if not (math.isfinite(gamma_mhz) and gamma_mhz > 0):
        raise ParameterError("gamma-not-positive", f"gamma_mhz must be finite, > 0: {gamma_mhz}")
    unit = 1e3 / (2.0 * math.pi * gamma_mhz)
    if not math.isfinite(unit):  # a subnormal gamma_mhz
        raise ParameterError("gamma-not-positive", f"1/Gamma is not finite in ns at gamma_mhz = {gamma_mhz!r}")
    return unit


def _physical_memory_bytes() -> float:
    """Installed memory, or inf where the platform does not report it.

    Arrays sized from user input are refused before allocation when they
    would not fit in it.
    """
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


@dataclass(frozen=True)
class PhysicalParams:
    """Parameters of the driven emitter chain, checked when built.

    beta      fraction of emission into the forward waveguide mode, in (0, 1]
    n_atoms   number of emitters in the chain, an integer >= 0
    detuning  drive detuning from atomic resonance, units of Gamma, finite
    """

    beta: float
    n_atoms: int
    detuning: float = 0.0

    def __post_init__(self):
        b = self.beta
        if not (isinstance(b, (int, float)) and math.isfinite(b)):
            raise ParameterError("beta-not-finite", f"beta must be finite, got {b!r}")
        if not 0.0 < b <= 1.0:
            raise ParameterError("beta-out-of-range", f"beta must be in (0, 1], got {b}")
        n = self.n_atoms
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool)):
            raise ParameterError("n-atoms-not-integer", f"n_atoms must be an integer, got {n!r}")
        if n < 0:
            raise ParameterError("n-atoms-negative", f"n_atoms must be >= 0, got {n}")
        if not math.isfinite(self.detuning):
            raise ParameterError("detuning-not-finite", f"detuning must be finite, got {self.detuning!r}")


@dataclass(frozen=True)
class TauGrid:
    """Delay grid, tau >= 0, strictly increasing, starting at 0.

    unit  "gamma" (units of 1/Gamma) or "ns"
    """

    values: np.ndarray
    unit: str = "gamma"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ParameterError("grid-too-small", "tau grid needs at least 2 points")
        if v[0] != 0.0:
            raise ParameterError("grid-missing-zero", "tau grid must contain tau = 0")
        if not np.all(np.isfinite(v)):
            raise ParameterError("grid-not-finite", "tau grid values must be finite")
        if np.any(np.diff(v) <= 0):
            raise ParameterError("grid-not-increasing", "tau grid must be strictly increasing")
        if self.unit not in ("gamma", "ns"):
            raise ParameterError("grid-bad-unit", f"unit must be 'gamma' or 'ns', got {self.unit!r}")

    @classmethod
    def linear(cls, tau_max: float, n_points: int):
        """n_points delays from 0 to tau_max in units of 1/Gamma, checked before allocation."""
        if n_points < 2:
            raise ParameterError("grid-too-small", "tau grid needs at least 2 points")
        if not 8.0 * n_points <= _physical_memory_bytes():
            raise ParameterError("bad-n-points",
                                 f"a grid of {n_points} points does not fit in memory")
        return cls(np.linspace(0.0, tau_max, n_points))

    def mirrored_values(self) -> np.ndarray:
        """Full two-sided grid (negative delays prepended) for output."""
        return np.concatenate([-self.values[:0:-1], self.values])


def _check_g2_values(grid: TauGrid, values: np.ndarray) -> None:
    """Check g2 values on grid: one curve, or a block with one curve per row.

    Raises "curve-negative" unless every value is finite and >= 0, and
    "tail-not-unity" when a curve on a grid past 50/Gamma has not relaxed
    to the coherent level 1 within 2 % at its last delay.
    """
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ParameterError("curve-negative", "g2 values must be finite and >= 0")
    if grid.unit == "gamma" and grid.values[-1] > 50.0:
        tail = np.ravel(values[..., -1])
        off = np.flatnonzero(np.abs(tail - 1.0) > 0.02)
        if off.size:
            raise NumericalError(
                "tail-not-unity",
                f"g2 at tau = {grid.values[-1]:g}/Gamma is {tail[off[0]]:g}, expected 1 within 2%",
            )


@dataclass(frozen=True)
class G2Curve:
    """Normalized second-order correlation on a TauGrid.

    transmission  resonant power transmission of the configuration (optional)
    """

    grid: TauGrid
    values: np.ndarray
    transmission: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.values.shape:
            raise ParameterError("curve-shape-mismatch", "values and grid must have equal length")
        _check_g2_values(self.grid, v)

    def mirrored(self) -> tuple[np.ndarray, np.ndarray]:
        """(tau, g2) over the full symmetric range, for output."""
        return self.grid.mirrored_values(), np.concatenate([self.values[:0:-1], self.values])
