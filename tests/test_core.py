import numpy as np
import pytest

from polarispec.core import (
    ComplexSpectrum,
    FrequencyGrid,
    RealSpectrum,
    TimeGrid,
    TraSpectra,
    ValidationError,
    local_maxima,
    make_grid,
)


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

    def test_prominence_filters_shoulder(self):
        g = make_grid(-3, 3, 1201)
        vals = _lorentzian(g.points, 0.0, 0.5) + 0.003 * _lorentzian(
            g.points, 1.5, 0.05
        )
        strict = local_maxima(RealSpectrum(g, vals), min_prominence=0.1)
        assert len(strict) == 1
        loose = local_maxima(RealSpectrum(g, vals), min_prominence=1e-5)
        assert len(loose) == 2
