"""The chirp-z Fourier engine against the dense sums it replaces.

The oracles below are the per-point loops the transforms used before the
engine: one cos/sin row per output frequency for the correlation
transforms, and the phase recurrence over the time grid for the
correlation reconstruction.  The engine reorders the arithmetic, so it
is held to 1e-12 of the largest value, not to bitwise equality; the zero
phase rows are pinned exactly.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarispec.bathmap import (
    CorrelationFunction,
    EffectiveTemperature,
    reconstruct_correlation,
    spectral_density_from_correlation,
)
from polarispec.core import (
    AccuracyWarning,
    RealSpectrum,
    TimeGrid,
    _chirp_z,
    _trapezoid_weights,
    make_grid,
)
from polarispec.susceptibility import chi_from_correlation

_TOL = 1e-12


def _dense(a, x, y, sign):
    """sum_j a[..., j] exp(sign*i*x_j*y_k), one full phase matrix."""
    return a @ np.exp(sign * 1j * np.outer(x, y))


def _weighted(c2):
    """The correlation transforms' samples: trapezoid-weighted -2 Im C(t)."""
    return -2.0 * _trapezoid_weights(c2.grid.n_points, c2.grid.spacing) * c2.values.imag


def _chi_rows(c2, grid):
    """chi_from_correlation as one cos and one sin row per output point."""
    t = c2.grid.times
    weighted = _weighted(c2)
    omega = grid.points
    phases = (w * t for w in np.abs(omega).tolist())
    chi = np.array([complex(np.cos(p) @ weighted, np.sin(p) @ weighted) for p in phases])
    chi[omega < 0] = np.conj(chi[omega < 0])
    chi[omega == 0] = chi[omega == 0].real
    return chi


def _density_rows(c2, grid):
    """spectral_density_from_correlation's sum, one sin row per w >= 0, unclipped."""
    t = c2.grid.times
    weighted = _weighted(c2)
    omega = grid.points
    vals = np.zeros(grid.n_points)
    pos = omega >= 0
    vals[pos] = [np.sin(w * t) @ weighted for w in omega[pos].tolist()]
    return vals


def _recurrence(J, beta_eff, tg):
    """reconstruct_correlation by one complex rotation per time step."""
    omega = J.grid.points
    jv = J.values
    occ = np.ones(omega.size)
    finite = ~np.isinf(beta_eff.values)
    occ[finite] = 1.0 / np.tanh(0.5 * beta_eff.values[finite] * omega[finite])
    w = _trapezoid_weights(omega.size, J.grid.spacing)
    cos_part = np.where(jv == 0, 0.0, w * jv * occ) / math.pi
    sin_part = (w * jv) / math.pi
    phase = np.ones(omega.size, dtype=complex)
    step = np.exp(-1j * omega * tg.spacing)
    vals = np.empty(tg.n_points, dtype=complex)
    for k in range(tg.n_points):
        if k:
            phase *= step
        vals[k] = cos_part @ phase.real + 1j * (sin_part @ phase.imag)
    return vals


def _assert_close(values, reference, scale=None):
    """max |values - reference| <= 1e-12 * scale, by default max |reference|."""
    if scale is None:
        scale = np.abs(reference).max()
    assert np.abs(values - reference).max() <= _TOL * scale


def _spacing(span, n):
    return span / max(n - 1, 1)


_SIZES = st.one_of(st.sampled_from([1, 2]), st.integers(1, 600))
# Spans and offsets keep every phase x*y below ~2e3 rad, where the dense
# oracle itself is good to ~1e-13; the chirp phase alpha*m**2/2 still
# reaches ~3e5 rad when one grid is much longer than the other.
_SPANS = st.floats(0.01, 30.0)
_OFFSETS = st.one_of(st.just(0.0), st.floats(-40.0, 10.0))


class TestChirpZ:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        n=_SIZES, k=_SIZES, x_span=_SPANS, y_span=_SPANS, x0=_OFFSETS, y0=_OFFSETS,
        rows=st.sampled_from([(), (2,)]), complex_rows=st.booleans(),
        sign=st.sampled_from([1, -1]), seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_sum(
        self, n, k, x_span, y_span, x0, y0, rows, complex_rows, sign, seed
    ):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, rows + (n,))
        if complex_rows:
            a = a + 1j * rng.uniform(-1.0, 1.0, rows + (n,))
        dx, dy = _spacing(x_span, n), _spacing(y_span, k)
        out = _chirp_z(a, x0, dx, y0, dy, k, sign)
        assert out.shape == rows + (k,)
        _assert_close(out, _dense(a, x0 + dx * np.arange(n), y0 + dy * np.arange(k), sign))
        if y0 == 0:
            assert np.array_equal(out[..., 0], a.sum(axis=-1))

    def test_zero_rows_give_zeros(self):
        out = _chirp_z(np.zeros((2, 50)), 0.3, 0.1, -1.0, 0.05, 40, 1)
        assert np.array_equal(out, np.zeros((2, 40)))

    def test_long_grid_against_a_short_one_is_exact(self):
        # the reconstruction shape: 1.5e5 frequencies, 301 times, a line of
        # width 0.01 at 60.  On a dyadic grid every x_j and x_j*t_k is
        # exact, so the dense sum is exact up to the rounding of exp, and
        # the engine must match it to 1e-14: a phase rounded anywhere
        # (x_b*y_k of a block start, ~1e4 rad) would be off by ~3e-13
        dx = 2.0**-10
        x = 7 * dx + dx * np.arange(150_000)
        a = 0.005 / ((x - 60.0) ** 2 + 0.25e-4)
        out = _chirp_z(a, x[0], dx, 0.0, 1.0, 301, -1)
        times = range(0, 301, 10)  # every tenth: the dense check costs 1.5e5 exps a row
        ref = np.array([a @ np.exp(-1j * (x * float(t))) for t in times])
        assert np.abs(out[::10] - ref).max() <= 1e-14 * np.abs(ref).max()


# A few damped lines (frequency, weight, linewidth), decayed by the window end.
_LINES = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 2.0), st.floats(0.5, 2.0)),
    min_size=1,
    max_size=4,
)


def _correlation(lines, t_max, n):
    tg = TimeGrid(t_max, n)
    t = tg.times
    return CorrelationFunction(tg, sum(a * np.exp((-1j * w - 0.5 * g) * t) for w, a, g in lines))


@st.composite
def _freq_grids(draw):
    """Uniform grids inside [-12, 12]: asymmetric, all-negative, all-positive.

    Half are dyadic (spacing 2**-p), on which w = 0 is a grid point whenever
    the grid spans it and every mirrored pair +-w is exact.
    """
    n = draw(st.integers(2, 400))
    if draw(st.booleans()):
        step = 2.0 ** -draw(st.integers(3, 6))
        first = draw(st.integers(-round(12 / step), round(12 / step) - 1))
        n = min(n, round(12 / step) - first + 1)
        return make_grid(first * step, (first + n - 1) * step, n)
    lo = draw(st.floats(-12.0, 11.5))
    return make_grid(lo, lo + draw(st.floats(0.5, 12.0 - lo)), n)


class TestCorrelationTransforms:
    # A frequency grid may lie in the tails, where the sum is a small
    # difference of O(1) terms and both sides carry rounding of those
    # terms; the scale there is sum |weighted|, the largest value the sum
    # can take.
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(lines=_LINES, t_max=st.floats(40.0, 80.0), n_t=st.integers(2, 600), grid=_freq_grids())
    def test_chi_matches_the_rows(self, lines, t_max, n_t, grid):
        c2 = _correlation(lines, t_max, n_t)
        chi = chi_from_correlation(c2, grid).values
        _assert_close(chi, _chi_rows(c2, grid), np.abs(_weighted(c2)).sum())
        omega = grid.points
        assert np.all(chi[omega == 0].imag == 0.0)
        mirrored = np.isin(-omega, omega)
        assert np.array_equal(chi[mirrored], np.conj(chi[np.searchsorted(omega, -omega[mirrored])]))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(lines=_LINES, t_max=st.floats(80.0, 100.0), n_t=st.integers(700, 800), grid=_freq_grids())
    def test_density_matches_the_rows(self, lines, t_max, n_t, grid):
        # lines at w0 > 0 with weaker mirrors at -w0 give J > 0 at w > 0;
        # dt < pi/16 keeps w + w0 below the Nyquist frequency, and the
        # window end at e**-20 keeps truncation far below J, so J needs
        # no clipping and the inversion check never fires
        lines = [(abs(w) + 0.5, a, g) for w, a, g in lines]
        lines += [(-w, 0.3 * a, g) for w, a, g in lines]
        c2 = _correlation(lines, t_max, n_t)
        rows = _density_rows(c2, grid)
        J = spectral_density_from_correlation(c2, grid).values
        _assert_close(J, rows, np.abs(_weighted(c2)).sum())
        assert np.all(J[grid.points <= 0] == 0.0)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        lo=st.floats(1e-3, 2.0), span=st.floats(1.0, 20.0), n_w=st.integers(2, 600),
        t_max=st.floats(1.0, 40.0), n_t=st.integers(2, 600), beta=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reconstruction_matches_the_recurrence(self, lo, span, n_w, t_max, n_t, beta, seed):
        grid = make_grid(lo, lo + span, n_w)
        rng = np.random.default_rng(seed)
        J = RealSpectrum(grid, rng.uniform(0.0, 1.0, n_w))
        beta_eff = EffectiveTemperature(grid, np.full(n_w, beta))
        tg = TimeGrid(t_max, n_t)
        c = reconstruct_correlation(J, beta_eff, tg).values
        _assert_close(c, _recurrence(J, beta_eff, tg))
        assert c[0].imag == 0.0


class TestTruncatedWindow:
    @pytest.mark.parametrize("transform", [chi_from_correlation, spectral_density_from_correlation])
    def test_undecayed_window_warns(self, transform):
        tg = TimeGrid(5.0, 501)
        c2 = CorrelationFunction(tg, np.exp((-1j * 2.0 - 0.01) * tg.times))
        # near the line the truncated sine transform is still positive
        with pytest.warns(AccuracyWarning, match="not decayed"):
            transform(c2, make_grid(1.5, 2.5, 11))

    @pytest.mark.parametrize("transform", [chi_from_correlation, spectral_density_from_correlation])
    def test_decayed_window_is_silent(self, transform):
        c2 = _correlation([(2.0, 1.0, 0.5), (-2.0, 0.2, 0.5)], 60.0, 3001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transform(c2, make_grid(-3, 3, 21))
