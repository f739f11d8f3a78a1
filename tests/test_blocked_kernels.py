"""The blocked pointwise kernels against their unblocked loops, bit for bit.

The pole sum, the effective-temperature chain, the Faddeeva polynomial and
the spectra formula run a large grid in blocks of ``core._BLOCK`` points.  Each reference
below is the same arithmetic over the whole grid at once; results are
compared as uint64 so that a block boundary that rounds one value
differently, or flips the sign of a zero, fails.  The same references pin
the kernels that skip values they already know: the density transform
evaluates each distinct |w| once, and a set without emission weight skips
the effective-temperature line sums.  The chirp-z engine streams its
blocks through one reused buffer; its reference is the same transform
with every block held at once.  The pole sum's real arithmetic is also
held to 200-bit sums, in both of its orientations, and to the values it
gives a lone point and a grid scaled by a power of two.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarispec import bathmap, susceptibility
from polarispec.bathmap import _INVERSION_MSG, effective_temperature
from polarispec.cli import parse_scenario, preset_config, run_scenario
from polarispec.bathmap import EffectiveTemperature, reconstruct_correlation
from polarispec.core import (
    _BLOCK,
    ComplexSpectrum,
    GainWarning,
    NumericalError,
    RealSpectrum,
    TimeGrid,
    ValidationError,
    _angle,
    _chirp_z,
    _fft_length,
    _trapezoid_weights,
    _two_product,
    make_grid,
)
from polarispec.fileio import write_columns
from polarispec.spectra import CavityParams, photon_green_function, spectra_harmonic
from polarispec.susceptibility import (
    _WEIDEMAN_A,
    _WEIDEMAN_L,
    DisorderSpec,
    TlsEnsemble,
    TransitionSet,
    VibronicModel,
    _MANY_POLES,
    _POLE_CHUNK,
    _pole_sum,
    chi_disordered,
    chi_from_spectral_density,
    chi_multilevel,
    faddeeva,
)

# below one block, exactly one, one past it (a one-point last block), and three blocks
SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


def _bits(a):
    return np.asarray(a).view(np.uint64)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    differ = np.flatnonzero((_bits(got) != _bits(want)).reshape(got.shape[0], -1).any(axis=1))
    assert differ.size == 0, f"{differ.size} values differ, first at index {differ[0]}"


def _pole_sum_unblocked(omega, poles):
    # the kernel's power-of-two prescale f of omega, c, h and s, then its real
    # arithmetic: each pole adds -(s/q)*d and (s/q)*h, q = d*d + h*h
    c, w, s = np.array(poles, dtype=float).T
    h = 0.5 * w
    hi = max(np.abs(omega).max(), np.abs(c).max(), h.max())
    f = 2.0 ** -((math.frexp(hi)[1] + math.frexp(h.min())[1]) // 2)
    x = omega * f
    re, im, d, q = np.zeros((4, omega.size))
    for cp, hp, sp in zip((c * f).tolist(), (h * f).tolist(), (s * f).tolist()):
        np.subtract(x, cp, out=d)
        np.multiply(d, d, out=q)
        np.add(q, hp * hp, out=q)
        np.divide(sp, q, out=q)
        re -= q * d
        im += q * hp
    vals = np.empty(omega.size, dtype=complex)
    vals.real, vals.imag = re, im
    return vals


def _line_sums_unblocked(ts, omega):
    num = np.zeros(omega.size)
    den = np.zeros(omega.size)
    kern, share = np.empty((2, omega.size))
    lines = (ts.omega_zy, ts.weight, ts.p_y, ts.p_z, ts.gamma)
    for w0, wt, p_y, p_z, g in zip(*(a.tolist() for a in lines)):
        np.subtract(omega, w0, out=kern)
        np.square(kern, out=kern)
        kern += 0.25 * g**2
        np.divide(wt * g, kern, out=kern)
        num += np.multiply(kern, p_y, out=share)
        den += np.multiply(kern, p_z, out=share)
    return num, den


def _effective_temperature_unblocked(ts, omega):
    num, den = _line_sums_unblocked(ts, omega)
    dead = den < np.finfo(float).tiny  # an emission sum below the normal floats
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(num, den, out=num)
    if ((ratio < 1.0 - 1e-10) & ~dead).any():
        raise ValidationError(_INVERSION_MSG)
    vals = np.log(np.maximum(ratio, 1.0, out=ratio), out=ratio)
    vals /= omega
    vals[dead] = math.inf
    return vals


def _faddeeva_unblocked(z):
    z = np.asarray(z, dtype=complex)
    length = _WEIDEMAN_L
    recip = 1.0 / (length - 1j * z)
    mapped = (length + 1j * z) * recip
    poly = np.polynomial.polynomial.polyval(mapped, _WEIDEMAN_A[::-1])
    return 2.0 * poly * recip**2 + (1.0 / math.sqrt(math.pi)) * recip


@st.composite
def _poles(draw, omega):
    """1-6 poles, some centred exactly on grid points, widths equal or mixed."""
    widths = draw(st.sampled_from([[0.3], [0.3, 0.05], [0.3, 0.05, 1.7, 1e-3]]))
    poles = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            c = float(omega[draw(st.integers(0, omega.size - 1))])
        else:
            c = draw(st.floats(-4.0, 4.0))
        poles.append((c, draw(st.sampled_from(widths)), draw(st.floats(-3.0, 3.0))))
    return poles


class TestPoleSumBlocks:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data(), n=st.sampled_from(SIZES), lo=st.floats(-5.0, -0.5),
           hi=st.floats(0.5, 5.0))
    def test_matches_unblocked_loop(self, data, n, lo, hi):
        omega = np.linspace(lo, hi, n)
        # signed zeros at both ends (at n = B + 1 the last block is -0.0 alone),
        # and a pole on each
        omega[[0, 1, -2, -1]] = [-0.0, 0.0, 0.0, -0.0]
        poles = data.draw(_poles(omega)) + [(0.0, 0.3, 1.0), (-0.0, 0.05, -0.5)]
        _assert_bitwise(_pole_sum(omega, iter(poles)), _pole_sum_unblocked(omega, poles))


def _exact_pole_sum(omega, poles):
    """Per point: Re and Im of the pole sum at 200 bits, and the sums of |term|."""
    rows = []
    with mpmath.workprec(200):
        for x in omega.tolist():
            re = im = abs_re = abs_im = mpmath.mpf(0)
            for c, w, s in poles:
                d = mpmath.mpf(x) - c
                h = mpmath.mpf(w) / 2
                t = s / (d * d + h * h)
                re, abs_re = re - t * d, abs_re + abs(t * d)
                im, abs_im = im + t * h, abs_im + abs(t * h)
            rows.append((re, im, abs_re, abs_im))
    return rows


@st.composite
def _pole_sets(draw, many):
    """A few grid points, among them +-0.0, and poles for either orientation.

    Few: 3-8 poles by ``_poles`` and two at +-0.0.  Many: the threshold, or
    two chunks with a short last one, some poles on the grid points and at
    +-0.0, widths equal or mixed.
    """
    points = st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0])
    omega = np.array(draw(st.lists(points, min_size=1, max_size=2 if many else 6)))
    if not many:
        return omega, draw(_poles(omega)) + [(0.0, 0.3, 1.0), (-0.0, 0.05, -0.5)]
    widths = draw(st.sampled_from([[0.3], [0.3, 0.05], [0.3, 0.05, 1.7, 1e-3]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([_MANY_POLES, _POLE_CHUNK + 3]))
    c = rng.uniform(-4.0, 4.0, n)
    at = rng.choice(n, omega.size + 2, replace=False)
    c[at] = np.concatenate((omega, [0.0, -0.0]))
    return omega, list(zip(c.tolist(), rng.choice(widths, n).tolist(),
                           rng.uniform(-3.0, 3.0, n).tolist()))


class TestPoleSumArithmetic:
    """The real-arithmetic pole sum against exact sums, and what its value depends on."""

    @pytest.mark.parametrize("many", [False, True], ids=["one pole at a time", "pole chunks"])
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(data=st.data())
    def test_within_four_eps_of_the_exact_sum(self, many, data):
        omega, poles = data.draw(_pole_sets(many))
        assert (len(poles) >= _MANY_POLES) == many
        got = _pole_sum(omega, poles)
        eps = np.finfo(float).eps
        for v, (re, im, abs_re, abs_im) in zip(got.tolist(), _exact_pole_sum(omega, poles)):
            assert abs(v.real - re) <= 4 * eps * abs_re
            assert abs(v.imag - im) <= 4 * eps * abs_im

    def test_one_point_grid_reproduces_the_full_grid_above_the_threshold(self):
        # two chunks, the last of 5 poles, against tiles of a few points; the grid
        # reaches past the poles, so a lone point's prescale differs from the grid's
        rng = np.random.default_rng(11)
        omega = np.linspace(-8.0, 8.0, 1001)
        omega[0] = -0.0
        n = _POLE_CHUNK + 5
        c = rng.uniform(-4.0, 4.0, n)
        c[:3] = [omega[450], 0.0, -0.0]
        poles = np.stack((c, rng.choice([0.3, 0.05, 1e-3], n), rng.uniform(-3.0, 3.0, n)), axis=1)
        full = _pole_sum(omega, poles)
        for i in range(omega.size):
            _assert_bitwise(_pole_sum(omega[i : i + 1], poles), full[i : i + 1])

    @pytest.mark.parametrize("pole", [
        (0.0, 1e-200, 1e-200),  # h * h = 2.5e-401 underflows unscaled: the centre reads s / 0
        (1e200, 1.0, 1e200),  # d * d = 1e400 overflows unscaled: chi reads 0, not about 1
    ])
    def test_pole_whose_unscaled_square_leaves_the_float_range(self, pole):
        omega = np.array([-1.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _pole_sum(omega, [pole])
        # at w = +-1 the first pole's Im part, s*h/d**2 = 5e-401, rounds to zero:
        # below the smallest normal float only an absolute bound holds
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        for v, (re, im, abs_re, abs_im) in zip(got.tolist(), _exact_pole_sum(omega, [pole])):
            assert abs(v.real - re) <= 4 * eps * abs_re + tiny
            assert abs(v.imag - im) <= 4 * eps * abs_im + tiny

    @pytest.mark.parametrize("n", [5, _MANY_POLES], ids=["one pole at a time", "pole chunks"])
    def test_chi_is_unchanged_by_a_power_of_two_scale(self, n):
        rng = np.random.default_rng(n)
        grid = make_grid(-4.0, 4.0, 17)
        centres = rng.uniform(-3.5, 3.5, n)
        centres[:3] = [grid.points[5], 0.0, -0.0]
        weights = rng.uniform(0.1, 2.0, n)
        pops = rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.5, n)
        widths = rng.choice([0.3, 0.05, 1e-3], n)
        want = chi_multilevel(TransitionSet.from_arrays(centres, weights, *pops, widths), grid)
        # over k in [-400, 400] every scaled frequency, width and weight is a normal float
        for k in range(-400, 401):
            f = 2.0**k
            g = make_grid(-4.0 * f, 4.0 * f, 17)
            assert np.array_equal(g.points, grid.points * f)
            ts = TransitionSet.from_arrays(centres * f, weights * f, *pops, widths * f)
            _assert_bitwise(chi_multilevel(ts, g).values, want.values)


@st.composite
def _uphill_lines(draw, omega):
    """1-5 passive uphill lines; some emit nothing (p_z = 0) or almost nothing."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            w0 = float(omega[draw(st.integers(0, omega.size - 1))])
        else:
            w0 = draw(st.floats(0.05, 6.0))
        p_y = draw(st.floats(0.5, 1.0))
        # p_z <= p_y keeps every line passive, so no point is inverted
        p_z = draw(st.sampled_from([0.0, p_y, p_y * draw(st.floats(0.0, 1.0))]))
        # a weight of 1e-304 leaves den below the normal floats away from the line only
        weight = draw(st.sampled_from([1.0, 0.3, 1e-304]))
        rows.append((w0, weight, p_y, p_z, draw(st.sampled_from([0.2, 0.01, 1.5]))))
    return TransitionSet.from_arrays(*zip(*rows))


class TestEffectiveTemperatureBlocks:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data(), n=st.sampled_from(SIZES), lo=st.floats(1e-3, 0.5),
           hi=st.floats(2.0, 8.0))
    def test_matches_unblocked_chain(self, data, n, lo, hi):
        g = make_grid(lo, hi, n)
        ts = data.draw(_uphill_lines(g.points))
        got = effective_temperature(ts, g).values
        _assert_bitwise(got, _effective_temperature_unblocked(ts, g.points))

    def test_dead_points_in_some_blocks_only(self):
        g = make_grid(0.01, 100.0, 2 * _BLOCK + 3)
        # the emission sum of the 1e-304 line is subnormal from w = 17 on
        ts = TransitionSet.from_arrays([1.0, 2.0], [1.0, 1e-304], [0.9, 0.8], [0.0, 0.5],
                                       [0.2, 0.1])
        got = effective_temperature(ts, g).values
        dead = np.isinf(got)
        assert dead[: _BLOCK].any() and dead[-3:].all() and not dead[: _BLOCK].all()
        _assert_bitwise(got, _effective_temperature_unblocked(ts, g.points))

    @pytest.mark.parametrize("n", SIZES)
    def test_inversion_in_the_last_block_only_raises(self, n):
        g = make_grid(0.5, 10.0, n)
        # a broad passive line everywhere and a narrow inverted one on the last point
        ts = TransitionSet.from_arrays([1.0, 10.0], [1.0, 1e-5], [0.9, 0.1], [0.1, 0.9],
                                       [0.5, 1e-4])
        num, den = _line_sums_unblocked(ts, g.points)
        inverted = np.flatnonzero(num / den < 1.0 - 1e-10)
        assert inverted.size and inverted.min() >= (n - 1) // _BLOCK * _BLOCK
        with pytest.raises(ValidationError, match="inverted"):
            effective_temperature(ts, g)


def _reflect(omega, vals):
    """chi(|w|) to chi(w): chi(-w) = conj(chi(w)), and chi(0) is real."""
    vals[omega < 0] = np.conj(vals[omega < 0])
    vals[omega == 0] = vals[omega == 0].real
    return vals


def _density_poles(J, gamma_reg):
    """The density transform's poles: one per sample, strength trap_j * J_j / pi."""
    trap = np.full(J.grid.n_points, J.grid.spacing)
    trap[[0, -1]] *= 0.5
    strengths = (trap * J.values / math.pi).tolist()
    return [(x, gamma_reg, s) for x, s in zip(J.grid.points.tolist(), strengths)]


def _lorentzian_density():
    w = make_grid(0.0, 8.0, 401).points
    return RealSpectrum(make_grid(0.0, 8.0, 401), np.where(w > 0, 0.35 / ((w - 3.0) ** 2 + 0.09), 0.0))


class TestDistinctValuesOnce:
    """Values the kernels know without computing them equal the full computation."""

    J = _lorentzian_density()

    @pytest.mark.parametrize("lo, hi, n", [
        (-4.0, 4.0, 4097),  # mirror-exact, w = 0 on the grid
        (-3.0, 8.0, 4401),  # unmirrored negative points
        (0.01, 6.0, 999),  # one-sided positive
        (-8.0, -1.0, 999),  # all negative
    ])
    def test_density_transform_is_the_reflected_pole_sum(self, lo, hi, n):
        grid = make_grid(lo, hi, n)
        poles = _density_poles(self.J, 0.04)
        want = _reflect(grid.points, _pole_sum_unblocked(np.abs(grid.points), poles))
        _assert_bitwise(chi_from_spectral_density(self.J, grid, 0.04).values, want)

    def test_mirrored_grid_runs_one_pole_sum_on_its_distinct_points(self, monkeypatch):
        sizes = []

        def recording(omega, poles):
            sizes.append(omega.size)
            return _pole_sum(omega, poles)

        monkeypatch.setattr(susceptibility, "_pole_sum", recording)
        chi_from_spectral_density(self.J, make_grid(-4.0, 4.0, 4097))
        assert sizes == [2049]

    def test_set_without_emission_weight_is_at_zero_temperature(self, monkeypatch):
        g = make_grid(3.0, 9.0, 601)
        ts = VibronicModel(1.0, 0.5, 6.0, 0.3, 3.0, 0.1).transitions()
        assert not ts.p_z.any()
        want = _effective_temperature_unblocked(ts, g.points)

        def refuse(n):
            raise AssertionError("the line sums ran")

        monkeypatch.setattr(bathmap, "_blocks", refuse)
        got = effective_temperature(ts, g).values
        assert np.isposinf(got).all()
        _assert_bitwise(got, want)

    def test_underflowing_linewidth_is_at_zero_temperature(self):
        # 0.25 * gamma**2 underflows to 0, so the line's kernel is inf at w = w0,
        # and the line sums would give inf * 0 = nan there
        g = make_grid(0.5, 1.5, 101)
        ts = TransitionSet.from_arrays([1.0], [1.0], [1.0], [0.0], [1e-170])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(_effective_temperature_unblocked(ts, g.points)).any()
        assert np.isposinf(effective_temperature(ts, g).values).all()


class TestFaddeevaBlocks:
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.1, 3.0, 200.0]))
    def test_matches_unblocked_polynomial(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        z = scale * (rng.normal(size=n) + 1j * rng.exponential(size=n))
        z[[0, 1, -1]] = [complex(-0.0, 0.0), 0.0, 1j]
        _assert_bitwise(faddeeva(z), _faddeeva_unblocked(z))

    def test_scalar_and_array_values_agree_bitwise(self):
        rng = np.random.default_rng(5)
        z = 4.0 * (rng.normal(size=(40, 50)) + 1j * rng.exponential(size=(40, 50)))
        grid = faddeeva(z)
        assert grid.shape == (40, 50)
        flat = faddeeva(z.ravel())
        assert flat.shape == (2000,)
        _assert_bitwise(grid.ravel(), flat)
        for k, zk in enumerate(z.ravel().tolist()):
            scalar, zero_d = faddeeva(zk), faddeeva(np.asarray(zk))
            assert type(scalar) is complex and type(zero_d) is complex
            _assert_bitwise(np.array([scalar, zero_d]), flat[[k, k]])
        assert type(faddeeva(0.5)) is complex


def _chirp_z_all_blocks(a, x0, dx, y0, dy, k_out, sign):
    """``core._chirp_z`` with every block padded, transformed and summed at once."""
    a = np.asarray(a)
    rows, n = a.shape[:-1], a.shape[-1]
    block = min(n, max(16 * k_out, 4096))
    n_blocks = -(-n // block)
    size = _fft_length(block + k_out - 1)
    alpha = _two_product(dx, dy)
    m = np.arange(max(block, k_out), dtype=float)
    chirp = sign * _angle(alpha, 0.5 * m * m)
    kernel = np.zeros(size, dtype=complex)
    kernel[:k_out] = np.exp(-1j * chirp[:k_out])
    kernel[size - block + 1 :] = np.exp(-1j * chirp[block - 1 : 0 : -1])
    kernel = np.fft.fft(kernel)
    blocks = np.zeros(rows + (n_blocks, block), dtype=a.dtype)
    blocks.reshape(rows + (n_blocks * block,))[..., :n] = a
    spectrum = np.zeros(rows + (n_blocks, size), dtype=complex)
    pre = np.exp(1j * (chirp[:block] + sign * _angle(_two_product(y0, dx), m[:block])))
    np.multiply(blocks, pre, out=spectrum[..., :block])
    spectrum = np.fft.fft(spectrum)
    spectrum *= kernel
    k = m[:k_out]
    starts = block * np.arange(n_blocks, dtype=float)
    offset = (
        _angle(_two_product(x0, y0), 1.0)
        + _angle(_two_product(x0, dy), k)
        + _angle(_two_product(y0, dx), starts)[:, None]
        + _angle(alpha, np.multiply.outer(starts, k))
    )
    post = np.exp(1j * (chirp[:k_out] + sign * offset))
    out = (np.fft.ifft(spectrum)[..., :k_out] * post).sum(axis=-2)
    if y0 == 0:
        out[..., 0] = a.sum(axis=-1)
    return out


def _reconstruct_correlation_all_blocks(J, beta_eff, tg):
    """``reconstruct_correlation`` with a masked occupation and stacked rows."""
    omega, jv, bv = J.grid.points, J.values, beta_eff.values
    occ = np.ones(omega.size)
    finite = ~np.isinf(bv)
    occ[finite] = 1.0 / np.tanh(0.5 * bv[finite] * omega[finite])
    w = _trapezoid_weights(omega.size, J.grid.spacing)
    cos_part = np.where(jv == 0, 0.0, w * jv * occ) / math.pi
    sin_part = (w * jv) / math.pi
    rows = _chirp_z_all_blocks(np.stack([cos_part, sin_part]), omega[0], J.grid.spacing,
                               0.0, tg.spacing, tg.n_points, -1)
    return rows[0].real + 1j * rows[1].imag


def _narrow_line_reconstruction_inputs(n=200_000):
    """J and beta_eff of a thermal line at 60 on (0, 140], and 301 times to 3/gamma.

    Every 7th J sample is zero and every 5th beta_eff is +inf, so both
    special cases fall in every block of the transform.
    """
    g = make_grid(140.0 / n, 140.0, n)
    x = g.points
    w0, gamma, beta = 60.0, 0.01, 1.0 / 60.0
    p_g = 1.0 / (1.0 + math.exp(-beta * w0))
    jv = (2.0 * p_g - 1.0) * 0.5 * gamma / ((x - w0) ** 2 + 0.25 * gamma**2)
    jv[::7] = 0.0
    bv = beta * w0 / x
    bv[::5] = math.inf
    return (RealSpectrum(g, jv), EffectiveTemperature(g, bv), TimeGrid(3.0 / gamma, 301))


class TestChirpZPasses:
    """The blocks pass through a buffer of at most 8 * _BLOCK points per row (or
    one block), so a transform of more than twice that runs in three passes
    or more; the blocks' terms are summed over the block axis as the
    reference sums them."""

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(n=st.integers(16 * _BLOCK + 1, 24 * _BLOCK), k_out=st.integers(1, 300),
           rows=st.sampled_from([(), (2,)]), complex_rows=st.booleans(),
           sign=st.sampled_from([1, -1]), y0=st.sampled_from([0.0, -0.7, 2.3]),
           seed=st.integers(0, 2**32 - 1))
    # whole blocks only; and one term per block, which the reference sums pairwise
    @example(n=40 * 4096, k_out=256, rows=(2,), complex_rows=False, sign=-1, y0=0.0, seed=0)
    @example(n=16 * _BLOCK + 1, k_out=1, rows=(2,), complex_rows=True, sign=1, y0=-0.7, seed=1)
    def test_matches_all_blocks_at_once(self, n, k_out, rows, complex_rows, sign, y0, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=rows + (n,))
        if complex_rows:
            a = a + 1j * rng.normal(size=a.shape)
        a[..., : 5000] = 0.0  # a block of zeros, where only a sign could differ
        args = (a, 0.37, 1.3e-3, y0, 0.05, k_out, sign)
        _assert_bitwise(np.atleast_2d(_chirp_z(*args)), np.atleast_2d(_chirp_z_all_blocks(*args)))

    def test_reconstruction_matches_all_blocks_at_once(self):
        J, beta_eff, tg = _narrow_line_reconstruction_inputs()
        got = reconstruct_correlation(J, beta_eff, tg).values
        _assert_bitwise(got[None], _reconstruct_correlation_all_blocks(J, beta_eff, tg)[None])


def _spectra_unblocked(omega, chi, cav):
    """T, R, A and D over the whole grid at once, as one expression each."""
    den = omega - cav.omega_ph + 0.5j * cav.kappa + chi
    mag2 = den.real**2 + den.imag**2
    transmission = cav.kappa_L * cav.kappa_R / mag2
    absorption = 2.0 * cav.kappa_L * chi.imag / mag2
    reflection = 1.0 - transmission - absorption
    return transmission, reflection, absorption, 1.0 / den


class TestSpectraBlocks:
    CAV = CavityParams(0.3, 0.05, 0.02)

    def _check(self, grid, chi):
        tra = spectra_harmonic(chi, self.CAV)
        want = _spectra_unblocked(grid.points, chi.values, self.CAV)
        got = (tra.transmission, tra.reflection, tra.absorption,
               photon_green_function(chi, self.CAV))
        for spectrum, reference in zip(got, want):
            _assert_bitwise(spectrum.values, reference)

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 0.4, 50.0]))
    def test_matches_whole_grid_formula(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        g = make_grid(-4.0, 4.0, n)
        vals = scale * (rng.normal(size=n) + 1j * rng.exponential(size=n))
        vals[[0, 1, -1]] = [complex(-0.0, 0.0), complex(0.0, -0.0), 0.0]
        self._check(g, ComplexSpectrum(g, vals))

    @pytest.mark.parametrize("n", SIZES)
    def test_gain_matches_whole_grid_formula(self, n):
        g = make_grid(-4.0, 4.0, n)
        # Im chi down to -0.02, above -kappa/2 = -0.035: gain, but no pole
        vals = 0.5 * np.cos(3.0 * g.points) + 0.02j * np.sin(5.0 * g.points)
        with pytest.warns(GainWarning):
            self._check(g, ComplexSpectrum(g, vals))

    @pytest.mark.parametrize("n", SIZES)
    def test_gain_pole_in_the_last_block_only_raises(self, n):
        # den = 0 on the last point only: Im chi = -kappa/2 and w - omega_ph + Re chi = 0
        g = make_grid(-4.0, 0.3, n)
        vals = np.full(n, 0.1j)
        vals[-1] = -0.035j
        with pytest.raises(NumericalError, match="vanishes at w = 0.3 "):
            spectra_harmonic(ComplexSpectrum(g, vals), self.CAV)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """On a 1e6-point grid each kernel holds its output, which its container
    takes over uncopied, plus block-sized buffers, not one grid-sized
    temporary per pass; the Gaussian chi_disordered also holds the grid-sized
    z it feeds to the Faddeeva function."""

    n = 1_000_000
    slack = 4 * 2**20

    def test_kernels_hold_their_outputs_and_block_buffers(self):
        rng = np.random.default_rng(3)
        g = make_grid(0.01, 10.0, self.n)
        ts = TransitionSet.from_arrays(rng.uniform(0.5, 9.5, 23), rng.uniform(0.1, 2.0, 23),
                                       np.full(23, 0.9), np.full(23, 0.1), np.full(23, 0.2))
        z = (g.points - 5.0 + 0.05j) / math.sqrt(2.0)
        chi = chi_multilevel(ts, g)
        # bytes per point allowed beyond the 4 MiB of block buffers
        peaks = {
            "chi_multilevel": (_traced_peak(chi_multilevel, ts, g), 16),
            "faddeeva": (_traced_peak(faddeeva, z), 16),
            "chi_disordered": (_traced_peak(chi_disordered, TlsEnsemble(1, 1.5, 0, math.inf, 0.1),
                                            DisorderSpec("gaussian", 3, 1), g), 2 * 16),
            "effective_temperature": (_traced_peak(effective_temperature, ts, g), 8),
            "spectra_harmonic": (_traced_peak(spectra_harmonic, chi, CavityParams(5.0, 0.05, 0.05)),
                                 3 * 8),
        }
        over = {k: peak for k, (peak, per_point) in peaks.items()
                if peak > per_point * self.n + self.slack}
        assert not over, f"traced peaks (bytes) over their bounds: {over}"

    def test_csv_writer_holds_one_block(self, tmp_path):
        # one block's table, slots and text, not the file's rows
        cols = np.random.default_rng(5).random((4, self.n))
        path = str(tmp_path / "cols.csv")
        assert _traced_peak(write_columns, path, "a,b,c,d", cols) <= 2 * 2**20

    def test_reconstruction_holds_its_weights_and_one_pass(self):
        # at 2e5 x 301: the occupation, the weights and their two rows (4 x 1.6 MB),
        # one pass of the transform and the per-block terms, not every block at once
        inputs = _narrow_line_reconstruction_inputs()
        assert _traced_peak(reconstruct_correlation, *inputs) <= 12 * 2**20

    def test_scenario_holds_chi_and_the_spectra(self):
        cfg = preset_config("fig2a")
        cfg["grid"]["n_points"] = self.n
        s = parse_scenario(cfg)
        # chi (16 bytes per point) and T, R and A (24)
        assert _traced_peak(run_scenario, s) <= 40 * self.n + self.slack
