import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks

from polarispec.cli import parse_scenario, preset_config, preset_names, run_scenario
from polarispec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    RealSpectrum,
    TimeGrid,
    TraSpectra,
    ValidationError,
    _require,
    local_maxima,
    make_grid,
)
from polarispec.susceptibility import TransitionSet


class TestMakeGrid:
    def test_five_point_grid(self):
        g = make_grid(-4, 4, 5)
        assert np.array_equal(g.points, [-4.0, -2.0, 0.0, 2.0, 4.0])

    def test_two_point_grid(self):
        g = make_grid(0, 1, 2)
        assert np.array_equal(g.points, [0.0, 1.0])

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            make_grid(1, -1, 10)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            make_grid(0, 1, 1)

    @pytest.mark.parametrize("n_points", [2**63, 10**30])
    def test_more_points_than_numpy_holds_rejected(self, n_points):
        with pytest.raises(ValidationError, match=r"n_points must be an integer in \[2, "):
            make_grid(0, 1, n_points)

    def test_nonfinite_bound_rejected(self):
        with pytest.raises(ValidationError):
            make_grid(0, np.inf, 10)

    def test_points_match_representation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.uniform(-10, 5)
            b = a + rng.uniform(0.1, 20)
            n = int(rng.integers(2, 300))
            g = make_grid(a, b, n)
            assert g.points[0] == a
            assert g.points[-1] == b
            idx = np.arange(n - 1)
            assert np.array_equal(g.points[:-1], a + idx * g.spacing)

    def test_points_are_readonly(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(ValueError):
            g.points[0] = 99.0


class TestTimeGrid:
    def test_starts_at_zero(self):
        tg = TimeGrid(10.0, 11)
        assert tg.times[0] == 0.0
        assert tg.times[-1] == 10.0
        assert tg.spacing == 1.0

    def test_invalid(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 1)
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 2**63)


class TestRequire:
    @pytest.mark.parametrize(
        "rule, good, bad",
        [
            ("finite", [-1e308, -0.0, 2.0], [math.inf, -math.inf, math.nan]),
            ("> 0", [5e-324, 2.0], [0.0, -0.0, -1.0, math.inf, math.nan]),
            (">= 0", [0.0, -0.0, 2.0], [-5e-324, math.inf, math.nan]),
        ],
    )
    def test_a_float_and_an_array_get_the_same_verdict(self, rule, good, bad):
        _require(rule, floats=np.array(good), none=np.array([]), ints=[1, 2])
        for v in good:
            _require(rule, x=v, x64=np.float64(v))
        for v in bad:
            for form in (v, np.float64(v), np.array([good[-1], v]), [v]):
                with pytest.raises(ValidationError, match=f"^x must be {re.escape(rule)}$"):
                    _require(rule, ok=good[-1], x=form)


    @pytest.mark.parametrize("n", [16, 17, 1000])  # up to 16 values as floats, then min and max
    @pytest.mark.parametrize(
        "rule, good, bad",
        [
            ("finite", [-1e308, -0.0, 2.0], [math.inf, -math.inf, math.nan]),
            ("> 0", [5e-324, 2.0], [0.0, -0.0, -1.0, math.inf, math.nan]),
            (">= 0", [0.0, -0.0, 2.0], [-5e-324, math.inf, math.nan]),
        ],
    )
    def test_one_bad_value_anywhere_in_a_larger_array_is_refused(self, rule, good, bad, n):
        _require(rule, x=np.resize(good, n))
        for v in bad:
            for at in (0, n // 2, n - 1):
                a = np.resize(good, n)
                a[at] = v
                with pytest.raises(ValidationError, match=f"^x must be {re.escape(rule)}$"):
                    _require(rule, x=a)


class TestSpectrumContainers:
    def test_length_mismatch(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(ValidationError):
            RealSpectrum(g, np.zeros(4))

    def test_nonfinite_rejected(self):
        g = make_grid(0, 1, 5)
        vals = np.zeros(5)
        vals[2] = np.nan
        with pytest.raises(ValidationError):
            RealSpectrum(g, vals)
        cvals = np.zeros(5, complex)
        cvals[0] = np.inf + 0j
        with pytest.raises(ValidationError):
            ComplexSpectrum(g, cvals)

    def test_tra_sum_invariant(self):
        g = make_grid(0, 1, 5)
        t = RealSpectrum(g, np.full(5, 0.2))
        r = RealSpectrum(g, np.full(5, 0.5))
        a = RealSpectrum(g, np.full(5, 0.3))
        TraSpectra(t, r, a)
        bad = RealSpectrum(g, np.full(5, 0.31))
        with pytest.raises(ValidationError):
            TraSpectra(t, r, bad)

    def test_tra_requires_shared_grid(self):
        g = make_grid(0, 1, 5)
        g2 = make_grid(0, 2, 5)
        t = RealSpectrum(g, np.full(5, 0.2))
        r = RealSpectrum(g2, np.full(5, 0.5))
        a = RealSpectrum(g, np.full(5, 0.3))
        with pytest.raises(ValidationError):
            TraSpectra(t, r, a)


def _held_by_real_spectrum(a):
    return RealSpectrum(make_grid(0, 1, a.size), a).values


def _held_by_complex_spectrum(a):
    return ComplexSpectrum(make_grid(0, 1, a.size), a).values


def _held_by_transition_set(a):
    n = a.size
    return TransitionSet.from_arrays(a, np.full(n, 0.5), np.full(n, 0.9), np.full(n, 0.1),
                                     np.full(n, 0.3)).omega_zy


class TestAdoption:
    """A container takes over an owned read-only array and copies anything else."""

    builders = pytest.mark.parametrize("hold, dtype", [
        (_held_by_real_spectrum, float),
        (_held_by_complex_spectrum, complex),
        (_held_by_transition_set, float),
    ])

    @builders
    def test_writeable_input_is_copied(self, hold, dtype):
        a = np.array([1.0, 2.0, 3.0], dtype=dtype)
        held = hold(a)
        a[0] = 9.0
        assert held[0] == 1.0 and not np.shares_memory(held, a)
        assert not held.flags.writeable

    @builders
    def test_read_only_view_of_a_writeable_base_is_copied(self, hold, dtype):
        base = np.array([1.0, 2.0, 3.0, 4.0], dtype=dtype)
        view = base[1:]
        view.flags.writeable = False
        held = hold(view)
        base[1] = 9.0
        assert held[0] == 2.0 and not np.shares_memory(held, base)

    @builders
    def test_owned_read_only_array_is_shared(self, hold, dtype):
        a = np.array([1.0, 2.0, 3.0], dtype=dtype)
        a.flags.writeable = False
        held = hold(a)
        assert np.shares_memory(held, a) and not held.flags.writeable


def _lorentzian(x, x0, gamma):
    return (gamma / 2) / ((x - x0) ** 2 + gamma**2 / 4)


class TestLocalMaxima:
    def test_constant_spectrum(self):
        g = make_grid(-1, 1, 101)
        s = RealSpectrum(g, np.ones(101))
        assert local_maxima(s, 0.0) == []

    @pytest.mark.parametrize(
        "vals, index",
        [
            ([0, 1, 2, 2, 1, 0], 2),  # flat top: one peak at (first + last) // 2
            ([0, 1, 2, 2, 2, 1, 0], 3),
            ([0, 1, 2, 2, 3, 0], 4),  # a flat step on a rising flank is no peak
        ],
    )
    def test_flat_top_is_one_peak(self, vals, index):
        g = make_grid(0, len(vals) - 1, len(vals))
        peaks = local_maxima(RealSpectrum(g, np.array(vals, dtype=float)), 0.0)
        assert peaks == [(float(index), float(vals[index]))]

    def test_single_lorentzian(self):
        g = make_grid(-2, 2, 401)
        s = RealSpectrum(g, _lorentzian(g.points, 0.0, 0.2))
        peaks = local_maxima(s)
        assert len(peaks) == 1
        assert peaks[0][0] == 0.0

    def test_two_lorentzians_match_dense_scan(self):
        # independent oracle: brute-force argmax scan of the same analytic
        # function on a 50x denser grid
        g = make_grid(-3, 3, 601)

        def f(x):
            return _lorentzian(x, -1.0, 0.3) + 0.7 * _lorentzian(x, 1.2, 0.3)

        dense = np.linspace(-3, 3, 30001)
        fd = f(dense)
        interior = (fd[1:-1] > fd[:-2]) & (fd[1:-1] > fd[2:])
        expected = dense[1:-1][interior]
        assert expected.size == 2

        peaks = local_maxima(RealSpectrum(g, f(g.points)))
        assert len(peaks) == 2
        for (found, _), want in zip(peaks, expected):
            assert abs(found - want) <= g.spacing

    def test_shift_invariance(self):
        g = make_grid(-3, 3, 301)
        vals = _lorentzian(g.points, -1.0, 0.4) + _lorentzian(g.points, 1.0, 0.4)
        p1 = local_maxima(RealSpectrum(g, vals), 0.01)
        p2 = local_maxima(RealSpectrum(g, vals + 7.5), 0.01)
        assert [f for f, _ in p1] == [f for f, _ in p2]

    def test_rescaling_invariance(self):
        g = make_grid(-3, 3, 301)
        vals = _lorentzian(g.points, -1.0, 0.4) + 0.4 * _lorentzian(g.points, 1.1, 0.4)
        for scale in (0.25, 3.0, 1e4):
            p1 = local_maxima(RealSpectrum(g, vals), 0.01)
            p2 = local_maxima(RealSpectrum(g, scale * vals), 0.01 * scale)
            assert len(p1) == len(p2)

    def test_default_prominence_on_a_nowhere_positive_spectrum(self):
        # a Lorentzian on a negative baseline with ripple: the default
        # threshold is 1e-3 of max|v| ~ 6e-3, above the ripple's 2e-3
        g = make_grid(-3, 3, 1201)
        vals = _lorentzian(g.points, 0.0, 0.5) - 6.0 + 1e-3 * np.sin(200 * g.points)
        assert vals.max() < 0
        peaks = local_maxima(RealSpectrum(g, vals))
        assert len(peaks) == 1
        assert abs(peaks[0][0]) <= g.spacing
        assert len(local_maxima(RealSpectrum(g, vals), 0.0)) > 1

    def test_prominence_filters_shoulder(self):
        g = make_grid(-3, 3, 1201)
        vals = _lorentzian(g.points, 0.0, 0.5) + 0.003 * _lorentzian(
            g.points, 1.5, 0.05
        )
        strict = local_maxima(RealSpectrum(g, vals), min_prominence=0.1)
        assert len(strict) == 1
        loose = local_maxima(RealSpectrum(g, vals), min_prominence=1e-5)
        assert len(loose) == 2


def _walk_maxima(s, min_prominence=None):
    """Reference for ``local_maxima``: walk each candidate's run and flanks in Python."""
    v = s.values
    omega = s.grid.points
    if min_prominence is None:
        min_prominence = 1e-3 * np.abs(v).max()
    peaks = []
    n = v.size
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


# runs of one to three samples on five integer levels, so plateaus, flat
# tops, flat steps and flat grid ends are common
_TIED = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(1, 3)), min_size=2, max_size=20
).map(lambda runs: [float(level) for level, length in runs for _ in range(length)])
_FLOATS = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40)
# the default, zero, and integer thresholds that the tied arrays' heights can hit exactly
_PROMINENCES = st.sampled_from([None, 0.0, -1.0, 1.0, 2.0])


class TestLocalMaximaMatchesWalk:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(vals=st.one_of(_TIED, _FLOATS), prominence=_PROMINENCES)
    # both peaks' prominences (2 and 1) lie between 1e-3 max(v) and 1e-3 max|v|
    @example(vals=[-1e6, 5.0, 3.0, 4.0, -1e6], prominence=None)
    def test_same_peaks_as_the_walk(self, vals, prominence):
        g = make_grid(0, len(vals) - 1, len(vals))
        s = RealSpectrum(g, np.array(vals))
        assert local_maxima(s, prominence) == _walk_maxima(s, prominence)


_NON_SWEEP = [name for name in preset_names() if "base" not in preset_config(name)]


@pytest.mark.parametrize("n_points", [4001, 100000])
@pytest.mark.parametrize("name", _NON_SWEEP)
def test_preset_transmission_peaks_match_scipy(name, n_points):
    cfg = preset_config(name)
    cfg["grid"]["n_points"] = n_points
    t = run_scenario(parse_scenario(cfg)).transmission
    idx, _ = find_peaks(t.values, prominence=1e-3 * t.values.max())
    expected = list(zip(t.grid.points[idx].tolist(), t.values[idx].tolist()))
    assert local_maxima(t) == expected
