"""Photon correlations of light transmitted through a chirally coupled emitter chain."""

from .core import (
    DataError,
    G2Curve,
    NumericalError,
    ParameterError,
    PhysicalParams,
    TauGrid,
    time_unit_ns,
)
from .transport import (
    RateReport,
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
from .oracle import oracle_g2
from .ensemble import (
    NumberDistribution,
    OdBinSpec,
    SweepRow,
    averaged_g2,
    averaged_g2_zero,
    build_number_distribution,
    fit_beta_to_g2_points,
    od_to_atoms,
    sweep_g2_vs_od,
)
from .photonstats import (
    CoincidenceHistogram,
    FitResult,
    SaturationData,
    SaturationFit,
    TimeTagStream,
    bootstrap_error,
    curve_values_ns,
    fit_beta_saturation,
    histogram_timetags,
    mle_fit_g2,
    normalize_histogram,
    saturation_transmission,
    synth_histogram,
    synth_saturation_data,
    synth_timetags,
)

__version__ = "0.1.0"
