"""Linear susceptibility of molecular ensembles.

Every model family reduces to the same sum over dipole-allowed
transitions,

    chi(w) = - sum_t (p_initial - p_final) * weight_t / (w - w_t + i*gamma_t/2),

where ``weight_t`` absorbs the collective coupling (number of emitters
times the squared per-emitter coupling times the squared transition
amplitude).  A finite per-transition linewidth ``gamma`` replaces the
usual infinitesimal regularization throughout, so chi is finite on the
real axis.  Populations need not be thermal; any stationary occupation
set is accepted, which is what makes saturated and optically pumped
ensembles expressible.

Every model object has ``chi(grid)`` and ``transitions()`` (None when
it has no finite line list).  A :class:`LineModel`, the thermal
two-level ensemble included, builds and checks its lines once, with the
model, and its chi is their pole sum :func:`chi_multilevel`;
:class:`DisorderedTls` takes the disorder average :func:`chi_disordered`.
The methods look these functions up when called.  The concrete models
produce only uphill transitions (w_t > 0), i.e. the rotating-wave
approximation; :func:`chi_multilevel` accepts signed frequencies, so the
two-sided symmetry ``chi(-w) = conj(chi(w))`` remains expressible.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import (
    _BLOCK,
    _MAX_COUNT,
    AccuracyWarning,
    ComplexSpectrum,
    FrequencyGrid,
    RealSpectrum,
    ValidationError,
    _blocks,
    _chirp_z,
    _Columns,
    _count,
    _extremes,
    _frozen,
    _require,
    _trapezoid_weights,
)

__all__ = [
    "Transition",
    "TransitionSet",
    "LineModel",
    "TlsEnsemble",
    "DisorderSpec",
    "DisorderedTls",
    "VibronicModel",
    "MultilevelModel",
    "thermal_populations",
    "vibronic_transitions",
    "with_mirror_transitions",
    "chi_multilevel",
    "chi_disordered",
    "chi_vibronic",
    "chi_from_spectral_density",
    "chi_from_correlation",
    "faddeeva",
]


# ---------------------------------------------------------------------------
# Domain types


class Transition(NamedTuple):
    """One dipole-allowed transition between stationary states.

    ``omega_zy`` is the (signed) transition frequency, ``weight`` the
    squared collective coupling carried by the line, ``p_y``/``p_z`` the
    populations of the initial and final state, and ``gamma`` the
    linewidth regularizing the pole.  A record is plain data: it is
    checked by :meth:`TransitionSet.check` when it enters a set.
    """

    omega_zy: float
    weight: float
    p_y: float
    p_z: float
    gamma: float


class TransitionSet(_Columns):
    """Ordered lines as read-only float64 arrays; order fixes summation order.

    One array per :class:`Transition` field, under the field's name, built
    from records (``TransitionSet([Transition(...), ...])``) or from arrays
    (``TransitionSet.from_arrays(omega_zy, weight, p_y, p_z, gamma)``) and
    validated once, on either path, by :meth:`check`, the one place a line
    is checked.  ``transitions`` and iteration give the lines back as records.
    """

    record = Transition
    transitions = property(tuple, doc="The lines as a tuple of Transition records.")

    @staticmethod
    def check(omega_zy, weight, p_y, p_z, gamma) -> None:
        """Raise ValidationError unless the float arrays hold valid lines, at least one."""
        if omega_zy.size == 0:
            raise ValidationError("transition set is empty")
        _require("finite", **{"transition frequency": omega_zy})
        _require(">= 0", **{"transition weight": weight})
        for name, p in (("p_y", p_y), ("p_z", p_z)):
            for x in _extremes(p):
                if not 0 <= x <= 1:
                    bad = ~((p >= 0) & (p <= 1))
                    raise ValidationError(f"{name} must lie in [0, 1], got {p[bad][0]}")
        _require("> 0", gamma=gamma)


class LineModel:
    """A model whose lines are built and checked with it; chi is their pole sum."""

    def transitions(self) -> TransitionSet:
        """The lines built and checked with the model."""
        return self._lines

    def chi(self, grid: FrequencyGrid) -> ComplexSpectrum:
        """Susceptibility on ``grid``: the pole sum of :meth:`transitions`."""
        return chi_multilevel(self.transitions(), grid)


@dataclass(frozen=True)
class TlsEnsemble(LineModel):
    """Identical two-level emitters at inverse temperature ``beta``.

    ``n_emitters`` is a pure scale factor (any positive real), ``g`` the
    per-emitter coupling, so the collective coupling is sqrt(N)*g.
    ``beta = math.inf`` means zero temperature; negative beta (gain) is
    rejected because a passive surrogate bath cannot represent it.
    """

    n_emitters: float
    g: float
    omega_exc: float
    beta: float
    gamma: float
    _lines: TransitionSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require("> 0", n_emitters=self.n_emitters, gamma=self.gamma)
        _require(">= 0", g=self.g)
        _require("finite", omega_exc=self.omega_exc)
        if math.isnan(self.beta) or self.beta < 0:
            raise ValidationError("beta must be >= 0 (math.inf for T = 0)")
        ngg = _line_weight(self.n_emitters, self.g)
        p_g, p_e = thermal_populations(self.beta, self.omega_exc)
        lines = TransitionSet.from_arrays([self.omega_exc], [ngg], [p_g], [p_e], [self.gamma])
        object.__setattr__(self, "_lines", lines)


@dataclass(frozen=True)
class DisorderSpec:
    """Distribution of excitation energies: gaussian or lorentzian."""

    kind: str
    center: float
    sigma: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "lorentzian"):
            raise ValidationError(
                f"disorder kind must be 'gaussian' or 'lorentzian', got {self.kind!r}"
            )
        _require("finite", **{"disorder center": self.center})
        _require("> 0", sigma=self.sigma)


@dataclass(frozen=True)
class DisorderedTls:
    """Zero-temperature two-level ensemble, excitation energies spread by ``disorder``."""

    n_emitters: float
    g: float
    gamma: float
    disorder: DisorderSpec
    base: TlsEnsemble = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "base", TlsEnsemble(  # checks the parameters the two share
            self.n_emitters, self.g, self.disorder.center, math.inf, self.gamma))

    def transitions(self) -> None:
        """None: a continuous distribution of lines has no finite line list."""
        return None

    def chi(self, grid: FrequencyGrid) -> ComplexSpectrum:
        return chi_disordered(self.base, self.disorder, grid)


@dataclass(frozen=True)
class VibronicModel(LineModel):
    """Two-level emitters with one displaced vibrational mode each.

    The electronic excitation dresses into a vibronic progression with
    Poissonian (Franck-Condon) intensities exp(-S) S^m / m!.  The
    vertical transition sits at ``omega_exc``; line ``m`` sits at
    ``omega_exc - S*omega_v + m*omega_v``.  ``m_max`` optionally caps the
    progression; by default it runs until the Poisson tail is below 1e-12.
    Lines past the first weight that underflows to 0.0 are left out, whatever
    ``m_max`` says; the first, exp(-S), must be a normal float (S < 708.3964).
    The progression starts in the ground state (zero temperature).
    """

    n_emitters: float
    g: float
    omega_exc: float
    omega_v: float
    huang_rhys: float
    gamma: float
    m_max: int | None = None
    _lines: TransitionSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require("> 0", n_emitters=self.n_emitters, omega_v=self.omega_v, gamma=self.gamma)
        _require(">= 0", g=self.g, huang_rhys=self.huang_rhys)
        _require("finite", omega_exc=self.omega_exc)
        if math.exp(-self.huang_rhys) < sys.float_info.min:
            raise ValidationError("huang_rhys must be < 708.3964: exp(-huang_rhys) underflows")
        if self.m_max is not None:
            # no upper bound: the progression stops where its weights underflow
            if not (isinstance(self.m_max, (int, np.integer)) and self.m_max >= 0):
                raise ValidationError(f"m_max must be an integer >= 0, got {self.m_max!r}")
            object.__setattr__(self, "m_max", int(self.m_max))  # m_max + 1 cannot wrap
        ngg = _line_weight(self.n_emitters, self.g)
        weights = ngg * _franck_condon_weights(self.huang_rhys, self.m_max)
        n = weights.size
        lines = TransitionSet.from_arrays(
            self.omega_exc - self.huang_rhys * self.omega_v + np.arange(n) * self.omega_v,
            weights, np.ones(n), np.zeros(n), np.full(n, self.gamma),
        )
        object.__setattr__(self, "_lines", lines)


@dataclass(frozen=True)
class MultilevelModel(LineModel):
    """Identical multi-level emitters with explicit stationary populations.

    ``levels`` lists (energy, population) pairs, any number of them;
    ``dipoles`` lists at least one (level_low, level_high, amplitude)
    triple using 1-based integer level indices, each going from a lower
    to a higher energy: one uphill line each, in this order.  Populations
    must sum to one.  All of this is checked when the model is built.
    """

    levels: tuple[tuple[float, float], ...]
    dipoles: tuple[tuple[int, int, float], ...]
    n_emitters: float
    g_scale: float
    gamma: float
    _lines: TransitionSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.levels)
        dipoles = tuple(
            (_count("dipole index", y, 1, n), _count("dipole index", z, 1, n), float(a))
            for y, z, a in self.dipoles
        )
        for name, value in (
            ("levels", tuple((float(w), float(p)) for w, p in self.levels)),
            ("dipoles", dipoles),
            ("n_emitters", float(self.n_emitters)),
            ("g_scale", float(self.g_scale)),
            ("gamma", float(self.gamma)),
        ):
            object.__setattr__(self, name, value)
        _require("finite", **{"level energies": [w for w, _ in self.levels]})
        pops = np.array([p for _, p in self.levels])
        if not np.all((pops >= 0) & (pops <= 1)):
            raise ValidationError("populations must lie in [0, 1]")
        if abs(pops.sum() - 1.0) > 1e-12:
            raise ValidationError(f"populations must sum to 1 (got {pops.sum()!r})")
        if not self.dipoles:
            raise ValidationError("need at least one dipole")
        _require("finite", **{"dipole amplitudes": [a for _, _, a in self.dipoles]})
        for y, z, _ in self.dipoles:
            if not self.levels[y - 1][0] < self.levels[z - 1][0]:
                raise ValidationError(f"dipole ({y},{z}) must go from a lower to a higher level")
        _require("> 0", n_emitters=self.n_emitters, gamma=self.gamma)
        _require("finite", g_scale=self.g_scale)
        lv, name = self.levels, "n_emitters * g_scale**2 * amplitude**2"
        lines = TransitionSet.from_arrays(*zip(*(
            (lv[z - 1][0] - lv[y - 1][0], _line_weight(self.n_emitters, self.g_scale, a, name),
             lv[y - 1][1], lv[z - 1][1], self.gamma)
            for y, z, a in self.dipoles
        )))
        object.__setattr__(self, "_lines", lines)


# a model's lines and chi under function names; no caller in the package, but
# perfbench/workloads.py calls both
vibronic_transitions = VibronicModel.transitions
chi_vibronic = LineModel.chi


# ---------------------------------------------------------------------------
# Thermal and transition-set helpers


def _line_weight(n: float, g: float, a: float = 1.0, name: str = "n_emitters * g**2") -> float:
    """Collective line weight n * g**2 * a**2; ValidationError naming it unless finite."""
    try:
        w = float(n * g**2 * a**2)
    except OverflowError:  # a Python float power raises where numpy gives inf
        w = math.inf
    _require("finite", **{name: w})
    return w


def thermal_populations(beta: float, omega: float) -> tuple[float, float]:
    """Boltzmann populations (p_ground, p_excited) of a two-level system.

    Exactly (1, 0) at beta = inf; the limit (0, 1) where exp(-beta*omega) overflows.
    """
    if math.isinf(beta):
        return 1.0, 0.0
    try:
        boltz = math.exp(-beta * omega)
    except OverflowError:
        return 0.0, 1.0
    # p_e from boltz itself: 1 - p_g cancels to 0 once beta * omega >= 37
    return 1.0 / (1.0 + boltz), boltz / (1.0 + boltz)


def with_mirror_transitions(ts: TransitionSet) -> TransitionSet:
    """Append the emission partner (-w, populations swapped) of each line.

    The mirrored set enters two-sided quantities such as a stationary
    ensemble's C(t); no caller in the package until the bundle writes C(t).
    """
    lines = ts.omega_zy, ts.weight, ts.p_y, ts.p_z, ts.gamma
    mirrors = -ts.omega_zy, ts.weight, ts.p_z, ts.p_y, ts.gamma
    return TransitionSet.from_arrays(*map(np.concatenate, zip(lines, mirrors)))


def _franck_condon_weights(s: float, m_max: int | None) -> np.ndarray:
    """Poisson weights exp(-S) S^m / m! for m = 0, 1, ..., ``m_max``.

    Without ``m_max`` the progression stops once its tail is below 1e-12.
    Either way it stops at the first weight that underflows to 0.0 (past
    the peak m = S), since every later weight is a multiple of it.
    """
    w = [math.exp(-s)]
    total = w[0]
    for k in range(1, _MAX_COUNT if m_max is None else m_max + 1):
        wk = w[-1] * s / k
        if wk == 0.0:
            break
        w.append(wk)
        total += wk
        if m_max is None and 1.0 - total < 1e-12:
            break
    return np.array(w)


# ---------------------------------------------------------------------------
# Susceptibility builders


# pole count from which _pole_sum runs a few points at a time against fixed
# chunks of _POLE_CHUNK poles, not one pole at a time over a block of points:
# on a 2-vCPU x86 VM the two cross near 2048 poles, and at 4096 poles the
# chunks take 3.5-4.0 ns per pole-point against 4.3-4.8 ns
_MANY_POLES = 2048
_POLE_CHUNK = 4096


def _pole_sum(omega: np.ndarray, poles) -> np.ndarray:
    """-sum_p s_p / (omega - c_p + i*w_p/2) over ``(centre, width, strength)`` poles.

    ``poles`` is an (n, 3) array or an iterable of triples.  The sum runs
    in real arithmetic: with d = omega - c, h = w/2 and q = d*d + h*h, a
    pole adds -(s/q)*d to Re chi and (s/q)*h to Im chi, one rounding per
    step, so each term is within a few ulp of the exact quotient and no
    complex division runs.

    One power-of-two factor per call scales omega, c, h and s, chosen so
    that the largest of |omega|, |c| and h and the smallest h lie about
    as far above 1 as below it.  It leaves every term unchanged (d and h
    scale alike, s/q inversely), bit for bit wherever the scaled and the
    unscaled steps stay normal floats, and it keeps q normal unless the
    frequencies and widths span about 1e154: a width of 1e-200 on a unit
    grid, whose h*h underflows unscaled, still gives its line.

    The orientation depends on the pole count alone.  Below
    ``_MANY_POLES`` poles the grid runs in blocks of ``core._BLOCK``
    points through five block buffers, and the poles pass over a block
    one at a time in pole order, 8 ufunc calls each.  From
    ``_MANY_POLES`` on, the poles run in fixed chunks of ``_POLE_CHUNK``
    (by index, whatever the grid) against tiles of a few points through
    two tile buffers: a chunk's Re and Im terms at each point are two row
    reductions (numpy's pairwise sum, which depends only on the row),
    added to the point's sums chunk by chunk.  So a value depends only on
    its own frequency and the pole list, never on the points around it or
    on the block or tile it falls in, wherever the scaled steps stay
    normal.
    """
    p = np.asarray(poles if isinstance(poles, np.ndarray) else list(poles), dtype=float)
    c, w, s = p.reshape(-1, 3).T
    vals = np.zeros(omega.size, dtype=complex)
    if not (c.size and omega.size):
        return vals
    h = 0.5 * w
    hi = max(omega.max(), -omega.min(), np.abs(c).max(), h.max())
    k = -((math.frexp(hi)[1] + math.frexp(h.min())[1]) // 2)
    f = math.ldexp(1.0, min(max(k, -1022), 1023))
    c, h, s = c * f, h * f, s * f
    h2 = h * h
    if c.size < _MANY_POLES:
        buffers = np.empty((5, min(omega.size, _BLOCK)))
        poles = list(zip(c.tolist(), h.tolist(), h2.tolist(), s.tolist()))
        for sl in _blocks(omega.size):
            x, d, q, re, im = buffers[:, : sl.stop - sl.start]
            np.multiply(omega[sl], f, out=x)
            re.fill(0.0)
            im.fill(0.0)
            for cp, hp, h2p, sp in poles:
                np.subtract(x, cp, out=d)
                np.multiply(d, d, out=q)
                np.add(q, h2p, out=q)
                np.divide(sp, q, out=q)
                np.multiply(q, d, out=d)
                np.subtract(re, d, out=re)
                np.multiply(q, hp, out=q)
                np.add(im, q, out=im)
            vals[sl].real = re
            vals[sl].imag = im
        return vals
    chunks = [(c[j:j + _POLE_CHUNK], h[j:j + _POLE_CHUNK], h2[j:j + _POLE_CHUNK],
               s[j:j + _POLE_CHUNK]) for j in range(0, c.size, _POLE_CHUNK)]
    rows = 4 * _BLOCK // _POLE_CHUNK  # points per tile: 4 * _BLOCK pole-points
    buffers = np.empty((2, min(omega.size, rows) * min(c.size, _POLE_CHUNK)))
    for i in range(0, omega.size, rows):
        sl = slice(i, i + rows)
        x = omega[sl, None] * f
        re, im = np.zeros((2, x.size))
        for cc, hc, h2c, sc in chunks:
            d, q = buffers[:, : x.size * cc.size].reshape(2, x.size, cc.size)
            np.subtract(x, cc, out=d)
            np.multiply(d, d, out=q)
            np.add(q, h2c, out=q)
            np.divide(sc, q, out=q)
            np.multiply(q, d, out=d)
            re -= np.add.reduce(d, axis=1)
            np.multiply(q, hc, out=q)
            im += np.add.reduce(q, axis=1)
        vals[sl].real = re
        vals[sl].imag = im
    return vals


def _mirrored(omega: np.ndarray, at) -> np.ndarray:
    """chi on the ascending ``omega`` from ``at(y)``, chi at ascending y >= 0.

    ``at`` runs on the w >= 0 points, and on the |w| of the w < 0 points
    unless each mirrors one of those and copies its value; w < 0 takes
    chi(-w) = conj(chi(w)), and chi(0) is made real.
    """
    k0 = int(np.searchsorted(omega, 0.0))
    pos, neg = omega[k0:], -omega[:k0][::-1]
    chi = np.empty(omega.size, dtype=complex)
    if pos.size:
        chi[k0:] = at(pos)
        if pos[0] == 0:
            chi[k0] = chi[k0].real
    if neg.size:
        shared = np.isin(neg, pos)
        chi_neg = np.empty(neg.size, dtype=complex) if shared.all() else at(neg)
        chi_neg[shared] = chi[k0 + np.searchsorted(pos, neg[shared])]
        np.conj(chi_neg[::-1], out=chi[:k0])
    return chi


def chi_multilevel(ts: TransitionSet, grid: FrequencyGrid) -> ComplexSpectrum:
    """Susceptibility of an arbitrary transition set.

    The pole sum :func:`_pole_sum` with one pole (w_t, gamma_t,
    (p_y - p_z) * weight_t) per transition, in list order, in real
    arithmetic.  A set of fewer than 2048 lines adds them one at a time;
    a larger one (a finite bath of 4096 modes, say) adds fixed chunks of
    4096 lines, each summed pairwise.  Either way results are bitwise
    reproducible regardless of how callers split or parallelize over
    frequency, and of the blocks or tiles a large grid runs in, wherever
    the kernel's power-of-two prescale keeps its steps normal.
    """
    strength = (ts.p_y - ts.p_z) * ts.weight
    poles = np.stack((ts.omega_zy, ts.gamma, strength), axis=1)
    return ComplexSpectrum(grid, _frozen(_pole_sum(grid.points, poles)))


def chi_disordered(
    m: TlsEnsemble, d: DisorderSpec, grid: FrequencyGrid
) -> ComplexSpectrum:
    """Ensemble with a distribution of excitation energies, at T = 0.

    The line is centred on ``d.center``, the mean excitation energy; ``m``
    gives the coupling and the homogeneous linewidth.
    Lorentzian disorder folds into the homogeneous linewidth exactly
    (gamma -> gamma + sigma), so it is ``m``'s line at ``d.center``.
    Gaussian disorder is the Voigt kernel, through the Faddeeva function.
    """
    if not math.isinf(m.beta):
        raise ValidationError(
            "disordered ensembles are evaluated at zero temperature (beta=inf)"
        )
    if d.kind == "lorentzian":
        return replace(m, omega_exc=d.center, gamma=m.gamma + d.sigma).chi(grid)
    ngg = _line_weight(m.n_emitters, m.g)
    z = grid.points - d.center + 0.5j * m.gamma
    z /= d.sigma * math.sqrt(2.0)
    vals = faddeeva(z)
    del z  # one grid-sized array less at the peak
    vals *= 1j * ngg * math.sqrt(0.5 * math.pi) / d.sigma
    return ComplexSpectrum(grid, _frozen(vals))


def chi_from_spectral_density(
    J: RealSpectrum, grid: FrequencyGrid, gamma_reg: float | None = None
) -> ComplexSpectrum:
    """Susceptibility from a positive-frequency coupling density.

    Evaluates chi(w >= 0) = -(1/pi) * Int J(w') / (w - w' + i*gamma_reg/2) dw'
    by the trapezoid rule on J's grid: the pole sum of J's samples, one
    pole (w'_j, gamma_reg, trap_j * J_j / pi) each, as in
    :func:`chi_multilevel`, once per distinct |w| (:func:`_mirrored`).
    In :func:`_pole_sum`'s real arithmetic, a J of 2048 samples or more
    runs each point against fixed chunks of 4096 samples, summed pairwise
    (a 4001-sample J is one chunk), so a value is bitwise the same on
    any grid that holds its |w|, wherever the prescale keeps the steps
    normal.
    Negative frequencies take chi(-w) = conj(chi(w)), which makes chi(0)
    real: the one-sided formula's real part (the imaginary part it drops is
    the gamma_reg tail of J leaking to w = 0).  ``gamma_reg`` defaults to
    twice J's spacing, the least that still buries the discretization scale.
    No caller in the package until the bundle checks chi against J.
    """
    jv, jw = J.values, J.grid.points
    _require(">= 0", **{"spectral density": jv})
    if np.any(jv[jw < 0] != 0):
        raise ValidationError("spectral density must vanish at negative frequencies")
    if gamma_reg is None:
        gamma_reg = 2.0 * J.grid.spacing
    _require("> 0", gamma_reg=gamma_reg)

    wj = _trapezoid_weights(jw.size, J.grid.spacing) * jv / math.pi
    poles = np.stack((jw, np.full(jw.size, gamma_reg), wj), axis=1)
    chi = _mirrored(grid.points, lambda y: _pole_sum(y, poles))
    return ComplexSpectrum(grid, _frozen(chi))


def chi_from_correlation(c2, grid: FrequencyGrid) -> ComplexSpectrum:
    """Susceptibility from a one-sided dipole correlation function.

    ``c2`` is a correlation container (time grid plus complex samples for
    t >= 0, stationarity supplying C(-t) = conj(C(t))).  With the
    convention f(w) = -i * Int e^{iwt} f(t) dt this is

        chi(w) = -[C(w) + conj(C(-w))] = -2 * Int_0^inf e^{iwt} Im C(t) dt,

    evaluated by trapezoidal summation with the chirp-z transform
    (:func:`polarispec.core._chirp_z`) once per distinct |w|, through the
    mirror rule shared with :func:`chi_from_spectral_density`
    (:func:`_mirrored`); O((N+K) log(N+K)) for N samples and K points,
    within ~1e-13 of the direct sum.  Im C is real, so the formula obeys
    chi(-w) = conj(chi(w)): rows at +w and -w agree exactly and chi(0),
    the plain sum, is real.  Warns when the samples have not decayed by
    the end of the window (a visibly truncated sum).
    """
    vals = np.asarray(c2.values, dtype=complex)
    if abs(vals[-1]) > 1e-3 * abs(vals[0]):
        warnings.warn(
            "correlation function has not decayed over the sampled window; "
            "the transform is truncated and the result loses accuracy",
            AccuracyWarning,
            stacklevel=2,
        )
    tg = c2.grid
    weighted = -2.0 * _trapezoid_weights(tg.n_points, tg.spacing) * vals.imag

    def at(y):  # y: ascending uniform |w| values
        return _chirp_z(weighted, 0.0, tg.spacing, y[0], grid.spacing, y.size, 1)

    return ComplexSpectrum(grid, _frozen(_mirrored(grid.points, at)))


# ---------------------------------------------------------------------------
# Faddeeva function


def _weideman_coefficients(n_terms: int) -> tuple[float, np.ndarray]:
    # Rational-approximation coefficients on the Moebius-mapped half plane.
    m = 2 * n_terms
    length = math.sqrt(n_terms / math.sqrt(2.0))
    k = np.arange(-m + 1, m)
    t = length * np.tan(0.5 * np.pi * k / m)
    f = np.concatenate(([0.0], np.exp(-(t**2)) * (length**2 + t**2)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return length, a[1 : n_terms + 1][::-1]


_WEIDEMAN_N = 64
_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coefficients(_WEIDEMAN_N)


def faddeeva(z):
    """Scaled complex error function w(z) = exp(-z^2) erfc(-iz), Im z >= 0.

    Rational approximation with a fixed coefficient table; relative error
    well below 1e-6 across the upper half plane (validated against
    independent erfc evaluations in the test suite).  Accepts scalars or
    arrays of any shape; lower-half-plane input is rejected.

    The points run in blocks of ``core._BLOCK``, each through the same
    array operations, the polynomial by Horner's rule through two block
    buffers, so the temporaries stay in cache.  A scalar or 0-d input runs as a
    one-element array and returns a ``complex``, so every value is the
    one the same point gets inside any array.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0):
        raise ValidationError("faddeeva requires Im z >= 0")
    flat = z.ravel()
    w = np.empty(z.shape, dtype=complex)
    out = w.reshape(-1)  # a view: the result owns its data
    length = _WEIDEMAN_L
    for sl in _blocks(flat.size):
        zb = flat[sl]
        recip = 1.0 / (length - 1j * zb)
        mapped = (length + 1j * zb) * recip
        poly = _WEIDEMAN_A[0] + mapped * 0  # polyval's start, signed zeros and all
        term = np.empty_like(poly)
        for a in _WEIDEMAN_A[1:].tolist():
            # not in place: numpy runs a one-point in-place complex product
            # through its reduction loop, which rounds unlike the array loop
            np.multiply(poly, mapped, out=term)
            np.add(term, a, out=poly)
        np.add(2.0 * poly * recip**2, (1.0 / math.sqrt(math.pi)) * recip, out=out[sl])
    if z.ndim == 0:
        return complex(w)
    return w
