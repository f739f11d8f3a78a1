"""Shared domain types, peak finding and the transforms' trapezoid weights.

All quantities use hbar = 1 and a single arbitrary frequency unit, so
frequencies, rates, couplings and inverse temperatures are mutually
consistent by construction.  Every type here is immutable after
construction and safe to share across threads; the operations are pure
functions of their inputs.

The transforms weight their samples with ``_trapezoid_weights``.  The
pointwise kernels (pole sum, effective-temperature line sum, Faddeeva
polynomial, and the spectra formula T/R/A from chi) run a large grid in
blocks of ``_BLOCK`` points (``_blocks``), the first three adding one pole
or term at a time; the pole sum, in real arithmetic after a power-of-two
prescale, does so below 2048 poles, and from there runs tiles of a few
points against fixed chunks of 4096 poles, each chunk's terms summed
pairwise, so that a value depends on its own frequency and the pole list
only, bit for bit wherever the scaled steps stay normal.  The CSV writer
formats ``_BLOCK`` fields at a time.  The Fourier sums over two uniform
grids (correlation <-> chi, J and C(t)) are one chirp-z transform each,
``_chirp_z``, in O((N+K) log(N+K)) with ``numpy.fft``; no dense block is
ever built.  Its blocks pass through one
reused buffer of about ``8 * _BLOCK`` points per row, transformed in place,
and their terms are added in block order, so besides its input it holds
O(rows x pass) points and the K terms of each block.
"""

from __future__ import annotations

import contextlib
import math
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
    """``a`` itself if it owns its data and is read-only, else a read-only copy.

    A producer that hands its fresh result to a container marks it
    read-only first (:func:`_frozen`), so the container takes it over
    uncopied; a writeable array, or a view of someone else's data, is
    copied, so no later write to the caller's array reaches the container.
    """
    flags = a.flags
    if flags.owndata and not flags.writeable:
        return a
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, a fresh array its caller gives away, marked read-only (see :func:`_readonly`)."""
    a.setflags(write=False)
    return a


class _Columns:
    """``record`` named tuples held as one read-only float64 array per field.

    ``cls(records)`` and ``cls.from_arrays(*arrays)`` (in field order) store
    the same arrays under the field names, validated once by the set's
    ``check``: a record is plain data, checked when it enters its set.
    Iteration yields the records again.  Instances are immutable.
    """

    def __init__(self, records=()):
        names = self.record._fields
        rows = [[getattr(r, n) for n in names] for r in records]
        self._store(np.array(rows, dtype=float).reshape(-1, len(names)).T)

    @classmethod
    def from_arrays(cls, *arrays):
        """The set with ``arrays`` as its fields, in field order (held as :func:`_readonly`)."""
        obj = cls.__new__(cls)
        obj._store(arrays)
        return obj

    def _store(self, arrays) -> None:
        names = self.record._fields
        cols = None
        if all(isinstance(a, (list, tuple)) for a in arrays):
            # one fresh block, frozen before its rows are taken: the set holds them uncopied
            with contextlib.suppress(ValueError):  # ragged: column by column below
                cols = list(_frozen(np.array(arrays, dtype=float)))
        if cols is None:
            cols = [_readonly(np.asarray(a, dtype=float)) for a in arrays]
        if len(cols) != len(names) or cols[0].ndim != 1 or len({c.shape for c in cols}) != 1:
            raise ValidationError(f"need one 1-D array of one length per field {list(names)}")
        self.check(*cols)
        self.__dict__.update(zip(names, cols))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return getattr(self, self.record._fields[0]).size

    def __iter__(self):
        make = self.record._make
        for row in zip(*(getattr(self, n).tolist() for n in self.record._fields)):
            yield make(row)


# the most complex128 values whose size in bytes numpy can index: a larger
# count would fail as "array is too big" instead of as a MemoryError
_MAX_COUNT = np.iinfo(np.intp).max // 16


def _count(name: str, n, low: int, high: int = _MAX_COUNT) -> int:
    """``n`` as an int; ValidationError unless it is an integer in [low, high]."""
    if not (low <= n <= high and int(n) == n):  # NaN and inf fail the range first
        raise ValidationError(f"{name} must be an integer in [{low}, {high}]")
    return int(n)


def _extremes(v: np.ndarray):
    """A float array's values as Python floats if it holds at most 16, else its min and max.

    Every bound test of the values gives the same verdict on the pair: NaN
    propagates through both reductions, and fails any comparison.  So a
    small array, a model's line say, skips numpy's per-call cost, and a
    large one is two reductions with no temporary.
    """
    return v.ravel().tolist() if v.size <= 16 else (v.min(), v.max())


# each rule as (lo, closed): v must lie in (lo, inf), or [lo, inf) if closed, so
# every rule refuses inf and NaN
_RULES = {"finite": (-math.inf, False), "> 0": (0.0, False), ">= 0": (0.0, True)}


def _require(rule: str, **values) -> None:
    """ValidationError("<name> must be <rule>") unless each number or array passes ``rule``."""
    lo, closed = _RULES[rule]
    for name, v in values.items():
        for x in (float(v),) if isinstance(v, (int, float)) else _extremes(np.asarray(v, dtype=float)):
            if not ((lo <= x if closed else lo < x) and x < math.inf):
                raise ValidationError(f"{name} must be {rule}")


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
        _require("finite", **{"grid bounds": (self.omega_min, self.omega_max)})
        if not self.omega_min < self.omega_max:
            raise ValidationError(
                f"omega_min ({self.omega_min}) must be strictly below "
                f"omega_max ({self.omega_max})"
            )
        object.__setattr__(self, "n_points", _count("n_points", self.n_points, 2))
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
        _require("> 0", t_max=self.t_max)
        object.__setattr__(self, "n_points", _count("n_points", self.n_points, 2))
        ts = np.linspace(0.0, self.t_max, self.n_points)
        ts.flags.writeable = False
        object.__setattr__(self, "_times", ts)

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def spacing(self) -> float:
        return self.t_max / (self.n_points - 1)


@dataclass(frozen=True)
class _Samples:
    """Values of the class's ``dtype``, one per point of ``grid``, held read-only.

    ``values`` is taken over when it is an array of ``dtype`` that owns its
    data and is read-only already, and copied otherwise (:func:`_readonly`).

    ``__post_init__`` checks the shape and then calls :meth:`check`, which
    subclasses extend with their own rules.
    """

    grid: FrequencyGrid | TimeGrid
    values: np.ndarray
    dtype = float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=self.dtype)
        if v.ndim != 1 or v.size != self.grid.n_points:
            raise ValidationError(
                f"{type(self).__name__} needs one value per grid point "
                f"({v.size} values for {self.grid.n_points} points)"
            )
        self.check(v)
        object.__setattr__(self, "values", _readonly(v))

    def check(self, v: np.ndarray) -> None:
        """Raise ValidationError unless ``v`` is valid; here: all finite."""
        if not np.isfinite(v).all():
            # Poles on the real axis (a zero linewidth upstream) show up here
            # first; refuse to propagate them.
            raise ValidationError(f"{type(self).__name__} contains non-finite values")


class ComplexSpectrum(_Samples):
    """Complex-valued function sampled on a :class:`FrequencyGrid`."""

    dtype = complex


class RealSpectrum(_Samples):
    """Real-valued function sampled on a :class:`FrequencyGrid`."""


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
        t, r, a = (s.values for s in (self.transmission, self.reflection, self.absorption))
        # block by block, so the check holds no grid-sized buffer
        worst = max(np.abs(t[sl] + r[sl] + a[sl] - 1.0).max() for sl in _blocks(t.size))
        if worst > _ENERGY_BALANCE_TOL:
            raise ValidationError(
                f"T + R + A deviates from 1 by {worst:.3e} "
                f"(limit {_ENERGY_BALANCE_TOL:.0e})"
            )

    @property
    def grid(self) -> FrequencyGrid:
        return self.transmission.grid


# grid points per block of the pointwise kernels, fields per block of the CSV
# formatter and 1/8 of a chirp-z pass's points per row, so that a block's
# temporaries stay in a core's L2 cache: a whole large grid streams each
# through memory once per pole or term, and at 2**16 fields a formatted
# number costs about 3x as much (2-vCPU x86 VM)
_BLOCK = 8192


def _blocks(n: int, width: int = 1):
    """Slices covering ``range(n)`` in order, of ``_BLOCK // width`` items (at least 1)."""
    step = max(1, _BLOCK // width)
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _trapezoid_weights(n_points: int, spacing: float) -> np.ndarray:
    """Trapezoid-rule weights of a uniform grid: the spacing, halved at both ends."""
    w = np.full(n_points, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# 2*pi as an unevaluated sum hi + lo, accurate to ~1e-32 relative
_TWO_PI_HI = 6.283185307179586
_TWO_PI_LO = 2.4492935982947064e-16


def _two_product(a, b):
    """Dekker's error-free product: ``(p, e)`` with p = fl(a*b) and p + e = a*b."""
    p = a * b
    a_hi = 134217729.0 * a  # 2**27 + 1 splits a double into two 26-bit halves
    a_hi = a_hi - (a_hi - a)
    b_hi = 134217729.0 * b
    b_hi = b_hi - (b_hi - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, a length ``numpy.fft`` handles fast."""
    best = 1 << (n - 1).bit_length()
    p35 = 1
    while p35 < best:
        p = p35
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 5
        p35 *= 3
    return best


def _angle(coef, index):
    """``coef * index`` modulo 2*pi, in [-pi, pi], without rounding error.

    ``coef`` is a pair (hi, lo) with value hi + lo, such as the exact
    product of two doubles that :func:`_two_product` returns; ``index``
    holds integers below 2**53 (as floats).  The product is formed error
    free and reduced by a two-part 2*pi, so the result keeps double
    precision however many turns the angle makes.
    """
    hi, lo = coef
    p, err = _two_product(hi, index)
    turns = np.rint(p / _TWO_PI_HI)
    whole, whole_lo = _two_product(turns, _TWO_PI_HI)
    return ((p - whole) - whole_lo) + (err + lo * index - turns * _TWO_PI_LO)


def _chirp_z(a, x0: float, dx: float, y0: float, dy: float, k_out: int, sign: int):
    """``sum_j a[..., j] * exp(sign*i*(x0 + j*dx)*(y0 + k*dy))`` for k < ``k_out``.

    Bluestein's chirp-z algorithm: with j*k = (j**2 + k**2 - (k-j)**2)/2
    the sum over both uniform grids becomes a convolution with the chirp
    exp(-sign*i*alpha*m**2/2), alpha = dx*dy, done by ``numpy.fft`` on one
    padded length for every row of ``a``.  The N terms run in blocks of
    B = min(N, max(16*K, 4096)) (K = ``k_out``: the K - 1 padding is at
    most 1/16 of an FFT); block b starts at term s = b*B and enters
    through the phase of x_s*y_k, so the cost is O(N log(B+K)) instead of
    the O(N*K) of the direct sum, and the FFTs stay small when N >> K.

    The blocks run in passes through one complex buffer of about
    ``8 * _BLOCK`` points per row (at least one padded block): each pass
    writes its blocks of ``a`` times the pre-chirp straight into the
    buffer, zeroes only the padding, and transforms, convolves and
    back-transforms in place.  Each block's K terms go into one array that
    is summed over the block axis at the end, in block order, so the
    result does not depend on the pass size.  Besides ``a`` the transform
    holds O(rows x pass) points and rows x N/B x K terms.

    Every phase is split as x0*y0 + x0*dy*k + y0*dx*j + alpha*j*k into
    exact products of the inputs times integers, each reduced modulo 2*pi
    without rounding error (:func:`_angle`).  The chirp phases alpha*m**2/2
    grow far past the phases x*y of the sum when one grid is much longer
    than the other; reduced this way they cost no accuracy, and the result
    matches the direct sum to about 1e-13 of its largest value.  With
    y0 == 0 the row k = 0 has zero phase and is the plain sum of ``a``,
    exactly.
    """
    a = np.asarray(a)
    rows, n = a.shape[:-1], a.shape[-1]
    block = min(n, max(16 * k_out, 4096))
    n_blocks = -(-n // block)
    if max(block, k_out) > 1 << 26:
        raise ValidationError("chirp-z transform limited to 2**26 points per block")
    size = _fft_length(block + k_out - 1)
    alpha = _two_product(dx, dy)
    m = np.arange(max(block, k_out), dtype=float)
    chirp = sign * _angle(alpha, 0.5 * m * m)  # m**2/2 is exact below 2**26
    kernel = np.zeros(size, dtype=complex)
    kernel[:k_out] = np.exp(-1j * chirp[:k_out])
    kernel[size - block + 1 :] = np.exp(-1j * chirp[block - 1 : 0 : -1])
    kernel = np.fft.fft(kernel)
    pre = np.exp(1j * (chirp[:block] + sign * _angle(_two_product(y0, dx), m[:block])))
    k = m[:k_out]
    starts = block * np.arange(n_blocks, dtype=float)
    offset = (
        _angle(_two_product(x0, y0), 1.0)
        + _angle(_two_product(x0, dy), k)
        + _angle(_two_product(y0, dx), starts)[:, None]
        + _angle(alpha, np.multiply.outer(starts, k))
    )
    post = np.exp(1j * (chirp[:k_out] + sign * offset))
    per_pass = max(1, 8 * _BLOCK // size)
    buf = np.empty(rows + (min(per_pass, n_blocks), size), dtype=complex)
    terms = np.empty(rows + (n_blocks, k_out), dtype=complex)
    whole = n // block  # the blocks that need no padding
    for b0 in range(0, n_blocks, per_pass):
        b1 = min(b0 + per_pass, n_blocks)
        spectrum = buf[..., : b1 - b0, :]
        nw = min(b1, whole) - b0  # whole blocks in this pass
        blocks = a[..., b0 * block : (b0 + nw) * block].reshape(rows + (nw, block))
        np.multiply(blocks, pre, out=spectrum[..., :nw, :block])
        if b1 > whole:  # the last block, zero-padded to a whole one
            tail = np.zeros(rows + (block,), dtype=a.dtype)
            tail[..., : n - whole * block] = a[..., whole * block :]
            np.multiply(tail, pre, out=spectrum[..., -1, :block])
        spectrum[..., block:] = 0.0
        np.fft.fft(spectrum, out=spectrum)
        spectrum *= kernel
        np.fft.ifft(spectrum, out=spectrum)
        np.multiply(spectrum[..., :k_out], post[b0:b1], out=terms[..., b0:b1, :])
    out = terms.sum(axis=-2)
    if y0 == 0:
        out[..., 0] = a.sum(axis=-1)
    return out


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
    ``min_prominence``.  The default prominence is 1e-3 of the spectrum's
    largest magnitude max|v|, which suppresses discretization ripple on
    smooth spectra; on a nonnegative spectrum (T, R, A) that is 1e-3 of
    its maximum, and it stays positive on a spectrum that is nowhere
    positive.

    Returns ``(frequency, value)`` pairs sorted by frequency.

    The search is vectorized: each run's end, left minimum (the last
    non-rise at or before the run start) and right minimum (the first
    non-fall at or after the run end) come from ``np.searchsorted`` on the
    indices where the spectrum changes, does not rise and does not fall,
    so the cost grows with the grid in numpy, not in Python.  The contract
    above is unchanged.
    """
    v = s.values
    omega = s.grid.points
    if min_prominence is None:
        min_prominence = 1e-3 * max(v.max(), -v.min())
    n = v.size
    # first samples of the runs entered by a strict rise and not left by one
    first = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])) + 1
    # a run ends at the first change at or after its start, else at n - 1
    changes = np.append(np.flatnonzero(v[1:] != v[:-1]), n - 1)
    last = changes[np.searchsorted(changes, first)]
    # left by a strict fall; a run reaching n - 1 compares its own last sample
    is_max = v[np.minimum(last + 1, n - 1)] < v[first]
    first, last = first[is_max], last[is_max]
    # index 0 counts as a non-rise and n - 1 as a non-fall
    non_rise = np.flatnonzero(np.append(True, v[1:] <= v[:-1]))
    non_fall = np.flatnonzero(np.append(v[1:] >= v[:-1], True))
    left = non_rise[np.searchsorted(non_rise, first, side="right") - 1]
    right = non_fall[np.searchsorted(non_fall, last)]
    prominent = v[first] - np.maximum(v[left], v[right]) > min_prominence
    mid = (first[prominent] + last[prominent]) // 2
    return list(zip(omega[mid].tolist(), v[mid].tolist()))
