"""Linear optical spectra of molecular microcavities.

The photon mode of a lossy cavity coupled to a large molecular ensemble
responds like an oscillator dressed by the ensemble's linear
susceptibility.  This package computes transmission, reflection and
absorption from that susceptibility, offers model builders for the
standard ensemble families (thermal and saturated two-level systems,
energetic disorder, vibronic progressions, three-level ladders), and
implements the surrogate-bath dictionary (coupling density, effective
temperature, finite-mode discretization) that connects the ensemble to
an open-quantum-systems description.

Units: hbar = 1 and one arbitrary frequency unit throughout.
"""

from .core import (
    AccuracyWarning,
    ComplexSpectrum,
    FrequencyGrid,
    GainWarning,
    NumericalError,
    RealSpectrum,
    TimeGrid,
    TraSpectra,
    ValidationError,
    local_maxima,
    make_grid,
)
from .susceptibility import (
    DisorderedTls,
    DisorderSpec,
    LineModel,
    MultilevelModel,
    TlsEnsemble,
    Transition,
    TransitionSet,
    VibronicModel,
    chi_disordered,
    chi_from_correlation,
    chi_from_spectral_density,
    chi_multilevel,
    chi_three_level,
    chi_tls_thermal,
    chi_vibronic,
    faddeeva,
    thermal_factor,
    thermal_populations,
    three_level_transitions,
    tls_transitions,
    vibronic_transitions,
    with_mirror_transitions,
)
from .bathmap import (
    BathMode,
    CorrelationFunction,
    DiscretizedBath,
    EffectiveTemperature,
    correlation_from_transitions,
    discretize_bath,
    effective_temperature,
    reconstruct_correlation,
    spectral_density_from_chi,
    spectral_density_from_correlation,
)
from .spectra import (
    CavityParams,
    GreenFunction,
    green_finite_n,
    landauer_transmission,
    photon_green_function,
    spectra_from_green,
    spectra_harmonic,
)
from .fileio import TabulatedChi

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning",
    "BathMode",
    "CavityParams",
    "ComplexSpectrum",
    "CorrelationFunction",
    "DiscretizedBath",
    "DisorderSpec",
    "DisorderedTls",
    "EffectiveTemperature",
    "FrequencyGrid",
    "GainWarning",
    "GreenFunction",
    "LineModel",
    "MultilevelModel",
    "NumericalError",
    "RealSpectrum",
    "TabulatedChi",
    "TimeGrid",
    "TlsEnsemble",
    "TraSpectra",
    "Transition",
    "TransitionSet",
    "ValidationError",
    "VibronicModel",
    "chi_disordered",
    "chi_from_correlation",
    "chi_from_spectral_density",
    "chi_multilevel",
    "chi_three_level",
    "chi_tls_thermal",
    "chi_vibronic",
    "correlation_from_transitions",
    "discretize_bath",
    "effective_temperature",
    "faddeeva",
    "green_finite_n",
    "landauer_transmission",
    "local_maxima",
    "make_grid",
    "photon_green_function",
    "reconstruct_correlation",
    "spectra_from_green",
    "spectra_harmonic",
    "spectral_density_from_chi",
    "spectral_density_from_correlation",
    "thermal_factor",
    "thermal_populations",
    "three_level_transitions",
    "tls_transitions",
    "vibronic_transitions",
    "with_mirror_transitions",
]
