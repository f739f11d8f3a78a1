"""Cavity spectra from the photon retarded Green function.

Two routes are provided, and both end in one formula.  The closed route
takes a molecular susceptibility and dresses the photon propagator with
the self-energy -chi(w).  The finite route starts from a discretized
surrogate bath: its single-excitation Hamiltonian is an arrowhead matrix
(the photon couples to every mode, the modes not to each other), whose
photon element is the Schur complement (O'Leary & Stewart 1990)

    D(w) = 1 / (w - omega_ph + i kappa/2
                - sum_k g_k^2 / (w - omega_k + i gamma_k/2)),

i.e. the closed propagator fed the bath's pole-sum susceptibility
``bath.chi(grid)``: O(N*M) for N frequencies and M modes, no matrix
formed.  For harmonic (or effectively harmonic) ensembles the
two routes converge as M grows, which the test suite uses as a check.

:func:`spectra_harmonic` is the one runtime formula of both routes; its
A = 2 kappa_L Im chi |D|^2 is exactly >= 0 for a passive chi.  It runs
the grid in blocks of ``core._BLOCK`` points: each block forms den and
|den|^2 and writes T, A and R straight into the three outputs, which the
spectra then hold uncopied, so the formula needs 24 bytes per point,
besides chi (16), and block-sized buffers.  The port
formulas (input drive on the left, detection on both sides)

    T = kappa_L kappa_R |D|^2
    R = 1 + 2 kappa_L Im D + kappa_L^2 |D|^2
    A = -kappa_L (kappa |D|^2 + 2 Im D)

subtract two nearly equal terms for A; they are the tests' independent
reference (see each definition).  Both sets satisfy T + R + A = 1
identically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bathmap import DiscretizedBath
from .core import (
    ComplexSpectrum,
    FrequencyGrid,
    GainWarning,
    NumericalError,
    RealSpectrum,
    TraSpectra,
    ValidationError,
    _blocks,
    _frozen,
    _require,
)

_TINY = np.finfo(float).tiny  # the smallest normal float

__all__ = [
    "CavityParams",
    "photon_green_function",
    "spectra_from_green",
    "spectra_harmonic",
    "green_finite_n",
    "landauer_transmission",
]


@dataclass(frozen=True)
class CavityParams:
    """Photon mode frequency and the two port escape rates.

    A cavity with no escape at all has no spectroscopic signal, so
    kappa_L + kappa_R must be positive.
    """

    omega_ph: float
    kappa_L: float
    kappa_R: float

    def __post_init__(self):
        _require("finite", omega_ph=self.omega_ph)
        _require(">= 0", kappa_L=self.kappa_L, kappa_R=self.kappa_R)
        _require("> 0", **{"kappa_L + kappa_R": self.kappa})

    @property
    def kappa(self) -> float:
        return self.kappa_L + self.kappa_R


def _denominator(omega: np.ndarray, chi: np.ndarray, cav: CavityParams):
    """The propagator denominator w - omega_ph + i kappa/2 + chi(w) and its |.|**2.

    Runs on one block of frequencies ``omega`` and their ``chi`` values,
    and raises NumericalError before anything divides by a denominator
    below 1e-14 of its terms' scale |w - omega_ph| + kappa/2 + |chi|, or
    by an exact zero.  For a passive chi (Im chi >= 0) Im den >= kappa/2 > 0,
    so den cannot vanish: only gain can cancel the cavity loss.  A passive
    chi is refused only where kappa/2 is itself below 1e-14 of the scale,
    where the rounding of Re den (about 1e-16 of the scale) can move
    |den|**2 by a percent or more.

    Below that scale test lies underflow: a nonzero den whose |den|**2 is
    below the smallest normal float (frequencies near 1e-154 or below)
    would lose digits silently or divide by zero, so it is a ValidationError
    naming |den|**2.  Over a normal |den|**2, a subnormal numerator such as
    kappa_L * kappa_R is off by at most half its ulp, 2.5e-324, which moves
    T or A by at most 1.1e-16, so it needs no check of its own.
    """
    den = omega - cav.omega_ph + 0.5j * cav.kappa + chi
    mag2 = den.real**2 + den.imag**2
    scale = np.abs(omega - cav.omega_ph) + 0.5 * cav.kappa + np.abs(chi)
    bad = mag2 < 1e-28 * scale**2
    low = mag2.min() < _TINY  # one comparison per block in a normal run
    if low:  # an exact zero hides from the scale test once scale**2 underflows
        bad |= den == 0
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise NumericalError(
            f"photon propagator denominator vanishes at w = {omega[i]:.6g} "
            f"(|den| = {np.sqrt(mag2[i]):.3e}, below 1e-14 of its scale {scale[i]:.3e})"
        )
    if low:
        i = np.flatnonzero(mag2 < _TINY)[0]
        raise ValidationError(
            f"photon propagator |den|**2 = {mag2[i]:.3e} underflows at w = {omega[i]:.6g}: "
            f"below the smallest normal float {_TINY:.3e}"
        )
    return den, mag2


def photon_green_function(
    chi: ComplexSpectrum, cav: CavityParams
) -> ComplexSpectrum:
    """Photon propagator dressed by the molecular response, the tests' reference.

    D(w) = 1 / (w - omega_ph + i kappa/2 + chi(w)); its one caller is green_finite_n.
    """
    omega, x = chi.grid.points, chi.values
    vals = np.empty(x.size, dtype=complex)
    for sl in _blocks(x.size):
        den, _ = _denominator(omega[sl], x[sl], cav)
        np.divide(1.0, den, out=vals[sl])
    return ComplexSpectrum(chi.grid, _frozen(vals))


def _assemble(grid, transmission, reflection, absorption) -> TraSpectra:
    if absorption.min() < -1e-12:
        warnings.warn(
            "negative absorption: the medium has gain; values are reported "
            "as computed",
            GainWarning,
            stacklevel=3,
        )
    return TraSpectra(
        RealSpectrum(grid, _frozen(transmission)),
        RealSpectrum(grid, _frozen(reflection)),
        RealSpectrum(grid, _frozen(absorption)),
    )


def spectra_from_green(D: ComplexSpectrum, cav: CavityParams) -> TraSpectra:
    """T, R and A from the photon propagator, the tests' reference; perfbench calls it."""
    v = D.values
    mag2 = v.real**2 + v.imag**2
    im = v.imag
    transmission = cav.kappa_L * cav.kappa_R * mag2
    reflection = 1.0 + 2.0 * cav.kappa_L * im + cav.kappa_L**2 * mag2
    absorption = -cav.kappa_L * (cav.kappa * mag2 + 2.0 * im)
    return _assemble(D.grid, transmission, reflection, absorption)


def spectra_harmonic(chi: ComplexSpectrum, cav: CavityParams) -> TraSpectra:
    """Spectra from the susceptibility: the runtime formula of both routes.

    T = kappa_L kappa_R |D|^2, A = 2 kappa_L Im chi |D|^2, R = 1 - T - A;
    the finite route passes its bath's ``bath.chi(grid)``.  Algebraically
    the port formulas of :func:`spectra_from_green`, but A >= 0 exactly for
    a passive chi (module docstring).
    """
    omega, x = chi.grid.points, chi.values
    t, r, a = (np.empty(x.size) for _ in range(3))
    for sl in _blocks(x.size):
        _, mag2 = _denominator(omega[sl], x[sl], cav)
        np.divide(cav.kappa_L * cav.kappa_R, mag2, out=t[sl])
        np.divide(2.0 * cav.kappa_L * x[sl].imag, mag2, out=a[sl])
        np.subtract(1.0 - t[sl], a[sl], out=r[sl])
    return _assemble(chi.grid, t, r, a)


def green_finite_n(
    bath: DiscretizedBath, cav: CavityParams, grid: FrequencyGrid
) -> ComplexSpectrum:
    """Photon propagator of a finite surrogate bath, the tests' reference route.

    The Schur complement of the arrowhead matrix's mode block (module
    docstring): :func:`photon_green_function` fed ``bath.chi(grid)``.
    No caller in the package; perfbench's selftest calls it.
    """
    return photon_green_function(bath.chi(grid), cav)


def landauer_transmission(D: ComplexSpectrum, cav: CavityParams) -> RealSpectrum:
    """Transmission as a transport trace through the photon port.

    With both port coupling matrices of rank one on the photon entry the
    trace Tr[Gamma_L G^dag Gamma_R G] collapses to
    kappa_L * kappa_R * D* D, which is evaluated here literally as the
    conjugate product (an independent path from the |D|^2 route used by
    :func:`spectra_from_green`), for the tests; no caller in the package.
    """
    v = D.values
    trace = cav.kappa_L * (np.conj(v) * cav.kappa_R * v)
    return RealSpectrum(D.grid, trace.real)
