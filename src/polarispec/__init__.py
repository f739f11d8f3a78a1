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

from . import bathmap, core, spectra, susceptibility
from .bathmap import *
from .core import *
from .fileio import TabulatedChi
from .spectra import *
from .susceptibility import *

__version__ = "0.1.0"

# each public name is declared once, in the __all__ of its module
__all__ = [
    *core.__all__,
    *susceptibility.__all__,
    *bathmap.__all__,
    *spectra.__all__,
    "TabulatedChi",
]
