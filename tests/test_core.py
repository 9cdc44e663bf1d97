"""Shared types: grids, curves, self-checking parameters, unit conversion."""

import math

import numpy as np
import pytest

from chiralchain import (
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    TauGrid,
    time_unit_ns,
)
from chiralchain.core import _check_g2_values


def test_time_unit_ns():
    assert time_unit_ns(5.2) == pytest.approx(1e3 / (2 * math.pi * 5.2))
    assert time_unit_ns(5.2) == pytest.approx(30.607, rel=1e-4)
    with pytest.raises(ParameterError):
        time_unit_ns(0.0)
    with pytest.raises(ParameterError):
        time_unit_ns(-3.0)
    with pytest.raises(ParameterError):  # 1/Gamma of a subnormal gamma overflows
        time_unit_ns(5e-324)


def test_validate_params_accepts_and_returns():
    # PhysicalParams checks itself when built and keeps the values it is given
    p = PhysicalParams(beta=0.1, n_atoms=3, detuning=0.5)
    assert (p.beta, p.n_atoms, p.detuning) == (0.1, 3, 0.5)
    assert PhysicalParams(beta=1.0, n_atoms=np.int64(0)).n_atoms == 0


@pytest.mark.parametrize("bad", [
    (dict(beta=0.0, n_atoms=1), "beta-out-of-range"),
    (dict(beta=1.2, n_atoms=1), "beta-out-of-range"),
    (dict(beta=float("nan"), n_atoms=1), "beta-not-finite"),
    (dict(beta=0.1, n_atoms=-1), "n-atoms-negative"),
    (dict(beta=0.1, n_atoms=2.5), "n-atoms-not-integer"),
    (dict(beta=0.1, n_atoms=True), "n-atoms-not-integer"),
    (dict(beta=0.1, n_atoms=1, detuning=float("inf")), "detuning-not-finite"),
])
def test_validate_params_rejects(bad):
    kwargs, code = bad
    with pytest.raises(ParameterError) as err:
        PhysicalParams(**kwargs)
    assert err.value.code == code


def test_tau_grid_linear():
    g = TauGrid.linear(10.0, 101)
    assert g.values[0] == 0.0
    assert g.values[-1] == 10.0
    assert g.values.size == 101
    assert g.unit == "gamma"


def test_tau_grid_validation():
    with pytest.raises(ParameterError):
        TauGrid(np.array([0.0]))
    with pytest.raises(ParameterError):
        TauGrid(np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        TauGrid(np.array([0.0, 2.0, 2.0]))
    with pytest.raises(ParameterError):
        TauGrid(np.array([0.0, 1.0]), unit="seconds")
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError) as err:
            TauGrid(np.array([0.0, 1.0, bad]))
        assert err.value.code == "grid-not-finite"


def test_tau_grid_mirroring():
    g = TauGrid(np.array([0.0, 1.0, 3.0]))
    np.testing.assert_array_equal(g.mirrored_values(), [-3.0, -1.0, 0.0, 1.0, 3.0])


def test_g2_curve_validation():
    grid = TauGrid.linear(2.0, 5)
    with pytest.raises(ParameterError):
        G2Curve(grid, np.ones(4))
    with pytest.raises(ParameterError):
        G2Curve(grid, np.array([1.0, 1.0, -0.1, 1.0, 1.0]))
    with pytest.raises(ParameterError):
        G2Curve(grid, np.array([1.0, 1.0, np.nan, 1.0, 1.0]))


def test_g2_curve_tail_check_only_for_long_natural_grids():
    long_grid = TauGrid.linear(60.0, 61)
    with pytest.raises(NumericalError):
        G2Curve(long_grid, np.full(61, 1.5))
    # short grids and physical-time grids may end anywhere
    G2Curve(TauGrid.linear(10.0, 11), np.full(11, 1.5))
    G2Curve(TauGrid(np.linspace(0.0, 60.0, 61), unit="ns"), np.full(61, 1.5))


def test_g2_check_refuses_a_block_with_one_bad_row():
    # one check serves a G2Curve and a block of curves, one per row
    grid = TauGrid.linear(60.0, 61)
    block = np.ones((4, 61))
    _check_g2_values(grid, block)
    block[2, 5] = -0.1
    with pytest.raises(ParameterError) as err:
        _check_g2_values(grid, block)
    assert err.value.code == "curve-negative"
    block[2, 5] = 1.0
    block[3, -1] = 1.5
    with pytest.raises(NumericalError) as err:
        _check_g2_values(grid, block)
    assert err.value.code == "tail-not-unity" and "is 1.5," in str(err.value)


def test_g2_curve_mirrored():
    grid = TauGrid(np.array([0.0, 1.0, 2.0]))
    c = G2Curve(grid, np.array([0.2, 0.6, 1.0]), transmission=0.5)
    tau, vals = c.mirrored()
    np.testing.assert_array_equal(tau, [-2.0, -1.0, 0.0, 1.0, 2.0])
    np.testing.assert_array_equal(vals, [1.0, 0.6, 0.2, 0.6, 1.0])
