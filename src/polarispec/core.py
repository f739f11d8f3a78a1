"""Shared domain types: uniform grids, spectra containers, peak finding.

All quantities use hbar = 1 and a single arbitrary frequency unit, so
frequencies, rates, couplings and inverse temperatures are mutually
consistent by construction.  Every type here is immutable after
construction and safe to share across threads; the operations are pure
functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "NumericalError",
    "AccuracyWarning",
    "GainWarning",
    "FrequencyGrid",
    "TimeGrid",
    "ComplexSpectrum",
    "RealSpectrum",
    "TraSpectra",
    "make_grid",
    "local_maxima",
]


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or invariant."""


class NumericalError(RuntimeError):
    """Raised when a computation hits an unphysical or singular regime."""


class AccuracyWarning(UserWarning):
    """Result is returned but a stated accuracy target may not hold."""


class GainWarning(UserWarning):
    """Input describes an amplifying (population inverted) medium."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform, inclusive frequency grid.

    Point ``i`` equals ``omega_min + i * spacing`` with
    ``spacing = (omega_max - omega_min) / (n_points - 1)``; the last point
    is pinned to ``omega_max`` exactly.  Nonuniform grids are deliberately
    unsupported: every formula in this package is pointwise and the
    quadratures assume constant spacing.
    """

    omega_min: float
    omega_max: float
    n_points: int
    _points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.omega_min) and np.isfinite(self.omega_max)):
            raise ValidationError("grid bounds must be finite")
        if not self.omega_min < self.omega_max:
            raise ValidationError(
                f"omega_min ({self.omega_min}) must be strictly below "
                f"omega_max ({self.omega_max})"
            )
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise ValidationError("n_points must be an integer >= 2")
        object.__setattr__(self, "n_points", int(self.n_points))
        pts = np.linspace(self.omega_min, self.omega_max, self.n_points)
        pts.flags.writeable = False
        object.__setattr__(self, "_points", pts)

    @property
    def points(self) -> np.ndarray:
        """Grid points as a read-only float array."""
        return self._points

    @property
    def spacing(self) -> float:
        return (self.omega_max - self.omega_min) / (self.n_points - 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid starting at t = 0 and ending at ``t_max``."""

    t_max: float
    n_points: int
    _times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.t_max) and self.t_max > 0):
            raise ValidationError("t_max must be finite and > 0")
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise ValidationError("n_points must be an integer >= 2")
        object.__setattr__(self, "n_points", int(self.n_points))
        ts = np.linspace(0.0, self.t_max, self.n_points)
        ts.flags.writeable = False
        object.__setattr__(self, "_times", ts)

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def spacing(self) -> float:
        return self.t_max / (self.n_points - 1)


def _check_values(grid: FrequencyGrid, values: np.ndarray, what: str) -> None:
    if values.ndim != 1 or values.size != grid.n_points:
        raise ValidationError(
            f"{what} needs one value per grid point "
            f"({values.size} values for {grid.n_points} points)"
        )
    if not np.isfinite(values).all():
        # Poles on the real axis (a zero linewidth upstream) show up here
        # first; refuse to propagate them.
        raise ValidationError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class ComplexSpectrum:
    """Complex-valued function sampled on a :class:`FrequencyGrid`."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        _check_values(self.grid, v, "ComplexSpectrum")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class RealSpectrum:
    """Real-valued function sampled on a :class:`FrequencyGrid`."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        _check_values(self.grid, v, "RealSpectrum")
        object.__setattr__(self, "values", _readonly(v))


_ENERGY_BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class TraSpectra:
    """Transmission, reflection and absorption on one shared grid.

    Construction enforces the energy bookkeeping identity
    ``T + R + A = 1`` pointwise to 1e-12; the port formulas guarantee it
    algebraically, so any larger violation indicates corrupted inputs.
    """

    transmission: RealSpectrum
    reflection: RealSpectrum
    absorption: RealSpectrum

    def __post_init__(self):
        g = self.transmission.grid
        if self.reflection.grid != g or self.absorption.grid != g:
            raise ValidationError("T, R and A must share one frequency grid")
        total = (
            self.transmission.values
            + self.reflection.values
            + self.absorption.values
        )
        worst = np.abs(total - 1.0).max()
        if worst > _ENERGY_BALANCE_TOL:
            raise ValidationError(
                f"T + R + A deviates from 1 by {worst:.3e} "
                f"(limit {_ENERGY_BALANCE_TOL:.0e})"
            )

    @property
    def grid(self) -> FrequencyGrid:
        return self.transmission.grid


def make_grid(omega_min: float, omega_max: float, n_points: int) -> FrequencyGrid:
    """Build a uniform inclusive frequency grid.

    Rejects inverted bounds and fewer than two points.
    """
    return FrequencyGrid(float(omega_min), float(omega_max), n_points)


def local_maxima(
    s: RealSpectrum, min_prominence: float | None = None
) -> list[tuple[float, float]]:
    """Interior local maxima of a spectrum, filtered by prominence.

    A maximum is a run of one or more equal samples whose outer
    neighbours are both strictly lower; a run of several samples (a flat
    top) is one maximum, reported at its middle sample ``(first+last)//2``
    as ``scipy.signal.find_peaks`` places it.  It is kept when its height
    above the higher of the two adjacent local minima (walking strictly
    downhill from the run's two ends; grid ends count as minima) exceeds
    ``min_prominence``.  The default prominence is 1e-3 of the spectrum
    maximum, which suppresses discretization ripple on smooth spectra.

    Returns ``(frequency, value)`` pairs sorted by frequency.
    """
    v = s.values
    omega = s.grid.points
    if min_prominence is None:
        min_prominence = 1e-3 * v.max()
    peaks: list[tuple[float, float]] = []
    n = v.size
    # first samples of the runs entered by a strict rise and not left by one
    starts = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])) + 1
    for first in starts:
        last = first
        while last < n - 1 and v[last + 1] == v[first]:
            last += 1
        if last == n - 1 or not v[last + 1] < v[first]:
            continue
        j = first
        while j > 0 and v[j - 1] < v[j]:
            j -= 1
        k = last
        while k < n - 1 and v[k + 1] < v[k]:
            k += 1
        if v[first] - max(v[j], v[k]) > min_prominence:
            mid = (first + last) // 2
            peaks.append((float(omega[mid]), float(v[mid])))
    return peaks
