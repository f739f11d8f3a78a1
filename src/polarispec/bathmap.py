"""Surrogate harmonic-bath mapping of a molecular ensemble.

A large ensemble coupled linearly to one photon mode acts on the photon
like a bath of harmonic oscillators whose coupling density and
occupation reproduce the ensemble's two-point dipole correlation
function.  This module provides the pieces of that dictionary:

* the dipole correlation function of a transition set,
* the coupling (spectral) density, either from sampled correlations or
  directly from Im chi,
* the frequency-resolved effective inverse temperature,
* reconstruction of the correlation function from (density, temperature),
* discretization of the density into a finite list of surrogate modes,
* :func:`surrogate_bath`, the finite bath of a susceptibility on any grid.

A bath holds its modes as three read-only arrays (frequency, coupling,
linewidth), which :func:`discretize_bath` fills directly; a
:class:`BathMode` record is the view of one mode, checked when it
enters its bath.  Like every line model, a bath holds its lines, one
absorbing line per mode, from when it is built.

Conventions: hbar = 1; densities live on positive frequencies only; the
two-sided extension C(-t) = conj(C(t)) of a stationary ensemble is used
wherever an integral runs over all times.

The surrogate bath therefore holds only the omega > 0 part of Im chi:
:func:`surrogate_bath` keeps those samples on a grid of their own and
warns (``AccuracyWarning``) when more than 5% of |Im chi| on the grid
lies at omega <= 0, which the bath cannot hold.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .core import (
    _BLOCK,
    _MAX_COUNT,
    _TINY,
    AccuracyWarning,
    FrequencyGrid,
    RealSpectrum,
    TimeGrid,
    ValidationError,
    _blocks,
    _chirp_z,
    _Columns,
    _count,
    _frozen,
    _require,
    _Samples,
    _trapezoid_weights,
    make_grid,
)
from .susceptibility import (
    ComplexSpectrum,
    LineModel,
    TransitionSet,
    chi_from_correlation,
)

__all__ = [
    "CorrelationFunction",
    "EffectiveTemperature",
    "BathMode",
    "DiscretizedBath",
    "correlation_from_transitions",
    "spectral_density_from_correlation",
    "spectral_density_from_chi",
    "effective_temperature",
    "reconstruct_correlation",
    "discretize_bath",
    "surrogate_bath",
]

_INVERSION_MSG = (
    "the ensemble is population inverted; an inverted stationary state has "
    "negative effective temperature and cannot be represented by a passive "
    "harmonic bath"
)


class CorrelationFunction(_Samples):
    """Complex two-point dipole correlation samples for t >= 0.

    The squared field-dipole prefactor is folded into the values, so
    C(0) equals the total transition weight of the ensemble.
    """

    dtype = complex

    def check(self, v: np.ndarray) -> None:
        super().check(v)
        peak = abs(v[0])
        if v[0].real < -1e-12 * peak:
            raise ValidationError("C(0) must have a nonnegative real part")
        if peak > 0 and np.abs(v).max() > peak * (1.0 + 1e-6):
            raise ValidationError("|C(t)| must not exceed C(0)")


class EffectiveTemperature(_Samples):
    """Frequency-resolved inverse temperature of the surrogate bath.

    Values are nonnegative; +inf marks frequencies with no emission
    weight at all (zero temperature), where the bath occupation factor
    coth(beta*w/2) is exactly one.
    """

    def check(self, v: np.ndarray) -> None:
        if self.grid.omega_min <= 0:
            raise ValidationError("effective temperature lives on omega > 0")
        if np.isnan(v).any() or np.any(v < 0):
            raise ValidationError("beta_eff must be >= 0 (or +inf)")


class BathMode(NamedTuple):
    """One surrogate oscillator: frequency, coupling, linewidth.

    A record is plain data: it is checked by :meth:`DiscretizedBath.check`
    when it enters a bath.
    """

    omega: float
    coupling: float
    gamma: float


class DiscretizedBath(_Columns, LineModel):
    """Finite surrogate bath as read-only float64 arrays; couplings are real, >= 0.

    One array per :class:`BathMode` field, under the field's name, built
    from records (``DiscretizedBath([BathMode(...), ...])``) or from arrays
    (``DiscretizedBath.from_arrays(omega, coupling, gamma)``) and validated
    once, on either path, by :meth:`check`, the one place a mode is
    checked.  ``modes`` and iteration give the modes back as records.
    """

    record = BathMode
    modes = property(tuple, doc="The modes as a tuple of BathMode records.")

    @staticmethod
    def check(omega, coupling, gamma) -> None:
        """Raise ValidationError unless the float arrays hold valid modes, at least one."""
        if omega.size == 0:
            raise ValidationError("bath needs at least one mode")
        _require("> 0", **{"mode frequency": omega})
        _require(">= 0", **{"mode coupling": coupling})
        _require("> 0", **{"mode linewidth": gamma})

    @property
    def total_coupling_sq(self) -> float:
        return float(sum(self.transitions().weight.tolist()))

    def _store(self, arrays) -> None:
        """Store and check the modes, then hold mode k as the line
        (omega_k, g_k**2, 1, 0, gamma_k), whose pole sum is the bath's chi."""
        super()._store(arrays)
        n = len(self)
        self._hold(self.omega, np.square(self.coupling), np.ones(n), np.zeros(n), self.gamma)


# ---------------------------------------------------------------------------


def correlation_from_transitions(
    ts: TransitionSet, tg: TimeGrid
) -> CorrelationFunction:
    """Dipole correlation function of a transition set.

    Each line contributes its initial-state population times its weight,
    oscillating at the (signed) transition frequency and decaying at half
    its linewidth.  Pass a mirror-completed set when the emission side of
    a stationary ensemble matters (:func:`.with_mirror_transitions`).  No
    caller in the package until the bundle writes C(t).
    """
    t = tg.times
    vals = np.zeros(t.size, dtype=complex)
    for w0, wt, p_y, g in zip(*(a.tolist() for a in (ts.omega_zy, ts.weight, ts.p_y, ts.gamma))):
        vals += (p_y * wt) * np.exp((-1j * w0 - 0.5 * g) * t)
    return CorrelationFunction(tg, _frozen(vals))


def spectral_density_from_correlation(
    c2: CorrelationFunction, grid: FrequencyGrid
) -> RealSpectrum:
    """Coupling density of the correlation samples: the density of their chi.

    ``spectral_density_from_chi(chi_from_correlation(c2, grid))``, so J is
    the same Im chi at w > 0 whichever way it is reached: under the
    two-sided extension C(-t) = conj(C(t)) that is the sine transform
    -2 * Int_0^inf Im C(t) sin(w t) dt.  J(0) is exactly zero and
    J(w < 0) is zero; small negative quadrature residue (below 1e-10 of
    the maximum) is clipped to zero, and a structurally negative density
    means population inversion and raises.  Warns, through
    chi_from_correlation, when the samples have not decayed by the end of
    the window.  A grid whose negative points are not all mirrors of its
    w >= 0 points pays one more transform for rows the density discards.
    No caller in the package until the bundle writes C(t).
    """
    return spectral_density_from_chi(chi_from_correlation(c2, grid))


def spectral_density_from_chi(chi: ComplexSpectrum) -> RealSpectrum:
    """Coupling density as the positive-frequency absorption, Im chi."""
    omega = chi.grid.points
    vals = np.where(omega >= 0, chi.values.imag, 0.0)
    return RealSpectrum(chi.grid, _frozen(_clip_density(vals)))


def _clip_density(vals: np.ndarray) -> np.ndarray:
    peak = max(vals.max(initial=0.0), 0.0)
    floor = -1e-10 * peak
    if np.any(vals < floor):
        raise ValidationError(_INVERSION_MSG)
    return np.where(vals < 0, 0.0, vals)


def effective_temperature(
    ts: TransitionSet, grid: FrequencyGrid
) -> EffectiveTemperature:
    """Effective inverse temperature beta_eff(w) = ln[C(w)/C(-w)] / w.

    The ratio is evaluated from the linewidth-broadened line decomposition
    with absorption and emission paired per line: each uphill transition
    contributes its initial population to C(+w) and its final population
    to C(-w) through the same Lorentzian kernel.  Thermal populations
    therefore give beta_eff equal to beta at every transition frequency
    to machine precision, regardless of linewidth.

    A point is dead, and reads +inf, where its emission sum is below the
    smallest normal float.  Above it the sum keeps a normal float's
    relative precision (a rounding among the subnormals is off by at most
    2**-1075, half an ulp of the smallest normal); below it the precision
    runs out.  So a thermal line reads beta at its frequency while its
    emission sum p_z * 4 * weight / gamma is normal (beta * omega below
    708.4 + ln(4 * weight / gamma)) and exp(beta * omega) does not
    overflow (beta * omega below 709.78); beyond either it reads +inf.

    The set must be in uphill form (all transition frequencies positive);
    emission content is carried by the final-state populations.

    The grid runs in blocks of ``core._BLOCK`` points, each through the
    whole per-point chain (line sums, ratio, inversion check, logarithm,
    division by w, dead points), so its buffers stay in cache; each point
    adds its lines in list order, so no value depends on the block it
    falls in.  An inversion anywhere on the grid raises.  A set with no
    emission weight (all p_z zero) is +inf everywhere, without line sums.
    """
    if grid.omega_min <= 0:
        raise ValidationError("effective temperature needs a positive grid")
    if (ts.omega_zy < 0).any():
        raise ValidationError(
            "effective_temperature expects uphill transitions only; "
            "emission weights are taken from p_z"
        )
    if not ts.p_z.any():
        return EffectiveTemperature(grid, _frozen(np.full(grid.n_points, math.inf)))
    cols = (ts.omega_zy, ts.weight, ts.p_y, ts.p_z, ts.gamma)
    lines = [(w0, 0.25 * g**2, wt * g, p_y, p_z)
             for w0, wt, p_y, p_z, g in zip(*(a.tolist() for a in cols))]
    vals = np.empty(grid.n_points)
    # per block: the two sums, one line's Lorentzian and its share
    num, den, kern, share = np.empty((4, min(grid.n_points, _BLOCK)))
    for sl in _blocks(grid.n_points):
        w = grid.points[sl]
        nb, db, kb, sb = num[: w.size], den[: w.size], kern[: w.size], share[: w.size]
        for i, (w0, half_sq, height, p_y, p_z) in enumerate(lines):
            np.subtract(w, w0, out=kb)
            np.square(kb, out=kb)
            kb += half_sq
            np.divide(height, kb, out=kb)
            if i == 0:  # each share is >= +0, so 0.0 + share would be the share
                np.multiply(kb, p_y, out=nb)
                np.multiply(kb, p_z, out=db)
            else:
                nb += np.multiply(kb, p_y, out=sb)
                db += np.multiply(kb, p_z, out=sb)

        # points whose emission sum is not a normal float are set to +inf after the division
        dead = db < _TINY
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.divide(nb, db, out=nb)
        if ((ratio < 1.0 - 1e-10) & ~dead).any():
            raise ValidationError(_INVERSION_MSG)
        out = np.log(np.maximum(ratio, 1.0, out=ratio), out=vals[sl])
        out /= w
        out[dead] = math.inf
    return EffectiveTemperature(grid, _frozen(vals))


def reconstruct_correlation(
    J: RealSpectrum, beta_eff: EffectiveTemperature, tg: TimeGrid
) -> CorrelationFunction:
    """Correlation function of the surrogate bath.

    C(t) = (1/pi) * Int dw J(w) [coth(beta_eff(w) w / 2) cos(wt) - i sin(wt)]

    by trapezoidal quadrature over the shared positive-frequency grid,
    one chirp-z transform (:func:`polarispec.core._chirp_z`) of the cos and
    the sin weights at every t_k = k*dt: O((N+K) log(N+K)) for N
    frequencies and K times.  C(0) is the plain sum of the weights, with
    Im C(0) exactly zero.  At beta_eff = +inf the occupation factor
    coth(beta_eff w / 2) is exactly one, since tanh(+inf) = 1.  No caller
    in the package until the bundle writes C(t).
    """
    if J.grid != beta_eff.grid:
        raise ValidationError("J and beta_eff must share one frequency grid")
    omega = J.grid.points
    jv = J.values
    bv = beta_eff.values

    # tanh(inf) is exactly 1, so beta_eff = +inf needs no case of its own
    with np.errstate(divide="ignore"):
        occ = 1.0 / np.tanh(0.5 * bv * omega)
    if np.any(np.isinf(occ) & (jv > 0)):
        raise ValidationError(
            "J > 0 where beta_eff = 0: a saturated line cannot carry weight"
        )

    wj = _trapezoid_weights(omega.size, J.grid.spacing)
    wj *= jv
    # the cos weights wj * occ (zero where J is) and the sin weights wj, over pi
    parts = np.empty((2, omega.size))
    with np.errstate(invalid="ignore"):  # 0 * inf where J = 0 at beta_eff = 0
        np.multiply(wj, occ, out=parts[0])
    parts[0][jv == 0] = 0.0
    parts[1] = wj
    parts /= math.pi
    # sum_j part_j e^{-i w_j t_k}: Re of the cos row is parts[0] @ cos(wt),
    # Im of the sin row is -(parts[1] @ sin(wt))
    rows = _chirp_z(parts, omega[0], J.grid.spacing, 0.0, tg.spacing, tg.n_points, -1)
    return CorrelationFunction(tg, _frozen(rows[0].real + 1j * rows[1].imag))


def discretize_bath(
    J: RealSpectrum, n_modes: int, gamma_mode: float | None = None
) -> DiscretizedBath:
    """Sample a coupling density into equal-width surrogate modes.

    The support (first to last strictly positive point of J) is split
    into ``n_modes`` equal bins; each bin becomes one mode at the bin
    midpoint with squared coupling (1/pi) * Int_bin J.  Bin integrals are
    differences of one interpolated cumulative integral.  The trapezoid
    half-cells that rise into the support and fall out of it lie outside
    the bins; they are folded into the first and last bin, so the total
    squared coupling equals the trapezoid (1/pi) * Int J over J's whole
    grid, i.e. the bath reproduces C(0), independent of ``n_modes``.
    Every mode gets linewidth ``gamma_mode`` (default: the bin width, the
    smallest broadening that lets a finite bath mimic a continuum).
    """
    n_modes = _count("n_modes", n_modes, 1, _MAX_COUNT - 1)  # n_modes + 1 edges
    omega = J.grid.points
    jv = J.values
    _require(">= 0", **{"spectral density": jv})
    nz = np.nonzero(jv > 0)[0]
    if nz.size == 0:
        raise ValidationError("spectral density is identically zero")
    lo, hi = omega[nz[0]], omega[nz[-1]]
    if lo < 0:
        raise ValidationError("spectral density must be supported on omega >= 0")
    if lo == hi:
        raise ValidationError("support is a single grid point; nothing to bin")

    dx = J.grid.spacing
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * dx * (jv[1:] + jv[:-1])))
    )
    edges = np.linspace(lo, hi, n_modes + 1)
    cum_at_edges = np.interp(edges, omega, cumulative)
    # the edge half-cells go to the end bins: the sum rule keeps all of J
    cum_at_edges[0] = 0.0
    cum_at_edges[-1] = cumulative[-1]
    coupling_sq = np.diff(cum_at_edges) / math.pi
    mids = 0.5 * (edges[:-1] + edges[1:])
    if gamma_mode is None:
        gamma_mode = (hi - lo) / n_modes
    _require("> 0", gamma_mode=gamma_mode)
    return DiscretizedBath.from_arrays(
        mids, np.sqrt(np.maximum(coupling_sq, 0.0)), np.full(n_modes, float(gamma_mode))
    )


def _positive_grid(grid: FrequencyGrid) -> FrequencyGrid | None:
    """The grid's points above zero as a grid of their own; None if fewer than two."""
    pos = grid.points[grid.points > 0]
    if pos.size < 2:
        return None
    return make_grid(float(pos[0]), float(pos[-1]), pos.size)


# share of |Im chi| at omega <= 0, missing from the bath, above which it warns
_DROPPED_WEIGHT_WARN = 0.05


def surrogate_bath(
    chi: ComplexSpectrum, n_modes: int, gamma_mode: float | None = None
) -> DiscretizedBath:
    """Finite surrogate bath of a susceptibility sampled on any grid.

    The omega > 0 samples of ``chi``, on a grid of their own, give the
    coupling density Im chi, which :func:`discretize_bath` splits into
    ``n_modes`` modes.  Warns (``AccuracyWarning``) when more than 5% of
    |Im chi| lies at omega <= 0, which the bath leaves out.
    """
    pos_grid = _positive_grid(chi.grid)
    if pos_grid is None:
        raise ValidationError("finite_n needs positive frequencies in the scenario grid")
    pos = chi.grid.points > 0
    weight = np.abs(chi.values.imag)
    total = weight.sum()
    dropped = weight[~pos].sum() / total if total > 0 else 0.0
    if dropped > _DROPPED_WEIGHT_WARN:
        warnings.warn(
            f"finite_n drops {dropped:.1%} of the absorption weight (|Im chi| at "
            "omega <= 0): the surrogate bath is built from omega > 0 only",
            AccuracyWarning,
            stacklevel=2,
        )
    J = spectral_density_from_chi(ComplexSpectrum(pos_grid, chi.values[pos]))
    return discretize_bath(J, n_modes, gamma_mode)
