import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polarispec.core import (
    AccuracyWarning,
    ComplexSpectrum,
    RealSpectrum,
    TimeGrid,
    ValidationError,
    make_grid,
)
from polarispec.bathmap import (
    BathMode,
    CorrelationFunction,
    DiscretizedBath,
    EffectiveTemperature,
    correlation_from_transitions,
    discretize_bath,
    effective_temperature,
    reconstruct_correlation,
    spectral_density_from_chi,
    spectral_density_from_correlation,
    surrogate_bath,
)
from polarispec.susceptibility import (
    MultilevelModel,
    TlsEnsemble,
    Transition,
    TransitionSet,
    chi_from_correlation,
    chi_multilevel,
    thermal_populations,
    with_mirror_transitions,
)


def _tls_set(omega, weight, p_g, p_e, gamma, two_sided=False):
    ts = TransitionSet([Transition(omega, weight, p_g, p_e, gamma)])
    return with_mirror_transitions(ts) if two_sided else ts


class TestCorrelationFromTransitions:
    def test_single_line_is_damped_exponential(self):
        tg = TimeGrid(20.0, 201)
        c2 = correlation_from_transitions(_tls_set(2.0, 1.5, 1.0, 0.0, 0.4), tg)
        expected = 1.5 * np.exp((-2j - 0.2) * tg.times)
        assert np.allclose(c2.values, expected, rtol=1e-15, atol=0)
        assert np.allclose(np.abs(c2.values), 1.5 * np.exp(-0.2 * tg.times))

    def test_two_sided_thermal_form(self):
        tg = TimeGrid(15.0, 301)
        p_g, p_e = 0.7, 0.3
        c2 = correlation_from_transitions(
            _tls_set(2.0, 1.0, p_g, p_e, 0.4, two_sided=True), tg
        )
        t = tg.times
        expected = (p_g * np.exp(-2j * t) + p_e * np.exp(2j * t)) * np.exp(-0.2 * t)
        assert np.allclose(c2.values, expected, rtol=1e-14, atol=1e-15)

    def test_initial_value_is_total_weight(self):
        tg = TimeGrid(5.0, 11)
        ts = TransitionSet(
            [
                Transition(1.0, 2.0, 0.6, 0.2, 0.3),
                Transition(2.5, 1.0, 0.4, 0.1, 0.3),
            ]
        )
        c2 = correlation_from_transitions(ts, tg)
        assert c2.values[0] == pytest.approx(0.6 * 2.0 + 0.4 * 1.0, rel=1e-15)
        assert c2.values[0].imag == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            correlation_from_transitions(TransitionSet([]), TimeGrid(1.0, 5))


class TestSpectralDensityFromCorrelation:
    def test_zero_correlation_gives_zero_density(self):
        tg = TimeGrid(10.0, 101)
        c2 = CorrelationFunction(tg, np.zeros(101, complex))
        g = make_grid(-2, 2, 81)
        J = spectral_density_from_correlation(c2, g)
        assert np.all(J.values == 0)

    def test_integrated_weight_of_thermal_line(self):
        # narrow-line limit: one line of integrated weight pi*W*(p_g - p_e);
        # at finite gamma the power-law tails outside the window reduce the
        # integral by at most (gamma/2pi)(2/w0 + 1/(w_max - w0))
        gamma, w0, wt = 0.1, 3.0, 1.3
        w_max = 12.0
        p_g, p_e = thermal_populations(0.8, w0)
        tg = TimeGrid(184.0, 92001)
        c2 = correlation_from_transitions(
            _tls_set(w0, wt, p_g, p_e, gamma, two_sided=True), tg
        )
        g = make_grid(0.0, w_max, 1201)
        J = spectral_density_from_correlation(c2, g)
        total = np.trapezoid(J.values, g.points)
        limit = math.pi * wt * (p_g - p_e)
        tail_bound = (gamma / (2 * math.pi)) * (2 / w0 + 1 / (w_max - w0))
        assert 0 < (limit - total) / limit < 1.5 * tail_bound

    def test_zero_at_negative_frequency(self):
        tg = TimeGrid(40.0, 4001)
        c2 = correlation_from_transitions(
            _tls_set(2.0, 1.0, 0.9, 0.1, 0.5, two_sided=True), tg
        )
        g = make_grid(-4, 4, 401)
        J = spectral_density_from_correlation(c2, g)
        assert np.all(J.values[g.points < 0] == 0)

    def test_consistent_with_absorption_of_transformed_chi(self):
        tg = TimeGrid(60.0, 30001)
        c2 = correlation_from_transitions(
            _tls_set(2.0, 1.0, 0.8, 0.2, 0.5, two_sided=True), tg
        )
        g = make_grid(-6, 6, 601)
        J = spectral_density_from_correlation(c2, g)
        chi = chi_from_correlation(c2, g)
        ref = np.where(g.points >= 0, chi.values.imag, 0.0)
        assert np.abs(J.values - ref).max() < 1e-8 * np.abs(ref).max()

    def test_inverted_ensemble_rejected(self):
        tg = TimeGrid(60.0, 10001)
        c2 = correlation_from_transitions(
            _tls_set(2.0, 1.0, 0.1, 0.9, 0.5, two_sided=True), tg
        )
        g = make_grid(0, 4, 201)
        with pytest.raises(ValidationError, match="inverted"):
            spectral_density_from_correlation(c2, g)


class TestSpectralDensityFromChi:
    def test_definition(self):
        g = make_grid(-1, 1, 5)
        m = TlsEnsemble(1.0, 2.0, 0.5, math.inf, 0.3)
        chi = m.chi(g)
        J = spectral_density_from_chi(chi)
        pos = g.points >= 0
        assert np.array_equal(J.values[pos], chi.values.imag[pos])
        assert np.all(J.values[~pos] == 0)

    def test_tls_peak_height(self):
        # Lorentzian peak of the absorptive part: 2 N g^2 tanh(beta w/2) / gamma
        gamma, beta, w0 = 0.3, 1.2, 1.0
        g = make_grid(-4, 4, 8001)
        m = TlsEnsemble(1.0, 2.0, w0, beta, gamma)
        J = spectral_density_from_chi(m.chi(g))
        expected = 4.0 * math.tanh(beta * w0 / 2) * 2.0 / gamma
        assert J.values.max() == pytest.approx(expected, rel=1e-6)

    def test_identity_chain_matches_correlation_route(self):
        ts = with_mirror_transitions(
            TransitionSet(
                [
                    Transition(2.0, 1.0, 0.8, 0.2, 0.5),
                    Transition(3.5, 0.6, 0.9, 0.1, 0.5),
                ]
            )
        )
        g = make_grid(-6, 6, 1201)
        J_chi = spectral_density_from_chi(chi_multilevel(ts, g))
        tg = TimeGrid(80.0, 40001)
        J_corr = spectral_density_from_correlation(
            correlation_from_transitions(ts, tg), g
        )
        inner = (g.points > 0.5) & (g.points < 5.5)
        rel = np.abs(J_chi.values[inner] - J_corr.values[inner]) / np.abs(
            J_chi.values[inner]
        )
        assert rel.max() < 1e-6


class TestEffectiveTemperature:
    def test_thermal_line_reproduces_beta_exactly(self):
        beta, w0 = 0.8, 2.0
        p_g, p_e = thermal_populations(beta, w0)
        g = make_grid(0.5, 4.0, 8)  # contains 2.0 exactly
        assert 2.0 in g.points
        ts = _tls_set(w0, 1.0, p_g, p_e, 0.4)
        beff = effective_temperature(ts, g)
        i = int(np.nonzero(g.points == 2.0)[0][0])
        assert beff.values[i] == pytest.approx(beta, abs=1e-14)

    @pytest.mark.parametrize("beta", [20.0, 40.0, 80.0, 600.0])
    def test_thermal_ensemble_reproduces_beta_far_below_its_gap(self, beta):
        # 1 - p_g loses p_e to cancellation here (3.6e-8 relative at 20, exactly 0 from 37)
        g = make_grid(0.5, 1.5, 11)
        assert g.points[5] == 1.0
        beff = effective_temperature(TlsEnsemble(1.0, 1.0, 1.0, beta, 0.3).transitions(), g)
        assert beff.values[5] == pytest.approx(beta, rel=1e-14, abs=0.0)

    def test_population_ratio_sets_temperature(self):
        g = make_grid(0.25, 2.0, 8)  # contains 1.0
        ts = _tls_set(1.0, 1.0, 0.7, 0.3, 0.2)
        beff = effective_temperature(ts, g)
        i = int(np.nonzero(g.points == 1.0)[0][0])
        assert beff.values[i] == pytest.approx(math.log(7.0 / 3.0), abs=1e-13)
        assert beff.values[i] == pytest.approx(0.8472978603872037, abs=1e-12)

    def test_saturated_line_is_infinite_temperature(self):
        g = make_grid(0.5, 2.0, 4)
        ts = _tls_set(1.0, 1.0, 0.5, 0.5, 0.2)
        beff = effective_temperature(ts, g)
        assert np.all(beff.values == 0.0)

    def test_zero_temperature_marker(self):
        g = make_grid(0.5, 2.0, 4)
        ts = _tls_set(1.0, 1.0, 1.0, 0.0, 0.2)
        beff = effective_temperature(ts, g)
        assert np.all(np.isinf(beff.values))

    def test_inversion_rejected(self):
        g = make_grid(0.5, 2.0, 4)
        ts = _tls_set(1.0, 1.0, 0.2, 0.8, 0.2)
        with pytest.raises(ValidationError, match="inverted"):
            effective_temperature(ts, g)

    def test_downhill_input_rejected(self):
        g = make_grid(0.5, 2.0, 4)
        ts = TransitionSet([Transition(-1.0, 1.0, 0.3, 0.7, 0.2)])
        with pytest.raises(ValidationError, match="uphill"):
            effective_temperature(ts, g)

    def test_needs_positive_grid(self):
        ts = _tls_set(1.0, 1.0, 0.7, 0.3, 0.2)
        with pytest.raises(ValidationError):
            effective_temperature(ts, make_grid(-1.0, 2.0, 4))

    def test_boltzmann_ladder_is_isothermal(self):
        # multi-level Boltzmann populations: beta_eff equals beta at every
        # transition frequency
        beta, gamma = 0.8, 1e-5
        energies = [0.0, 1.0, 2.5, 4.2]
        z = sum(math.exp(-beta * e) for e in energies)
        pops = [math.exp(-beta * e) / z for e in energies]
        pairs = [(0, 1, 1.0), (1, 2, 0.7), (0, 2, 0.4), (2, 3, 1.2)]
        ts = TransitionSet(
            [
                Transition(energies[b] - energies[a], wgt, pops[a], pops[b], gamma)
                for a, b, wgt in pairs
            ]
        )
        g = make_grid(0.01, 4.0, 400)
        beff = effective_temperature(ts, g)
        for a, b, _ in pairs:
            f = energies[b] - energies[a]
            idx = int(round(f / 0.01)) - 1
            assert abs(g.points[idx] - f) < 1e-9
            assert abs(beff.values[idx] - beta) < 1e-9


_TINY = np.finfo(float).tiny


class TestDetailedBalance:
    """At w0, beta_eff reads beta wherever exp(-beta * w0) * weight is a normal float.

    There the ratio of absorption to emission is exactly exp(beta * w0).  The
    bound is 1e-12 of beta, or of 1 / w0 where beta * w0 < 1: the logarithm of
    a ratio near 1 carries an absolute rounding error near 1e-16.
    """

    @staticmethod
    def _assert_reads_beta(model, w0, beta):
        got = effective_temperature(model.transitions(), make_grid(w0, 2.0 * w0, 3)).values[0]
        assert abs(got - beta) * w0 <= 1e-12 * max(beta * w0, 1.0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(w0=st.floats(1e-3, 1e3), x=st.floats(0.0, 709.78), n=st.floats(1e-6, 1.0),
           g=st.floats(1e-3, 1.0), gamma=st.floats(1e-3, 1.0))
    @example(w0=1.0, x=700.0, n=1.0, g=1.0, gamma=0.3)  # once +inf under a fixed 1e-300 floor
    @example(w0=1.0, x=709.0, n=1.0, g=1.0, gamma=0.3)
    def test_thermal_tls(self, w0, x, n, g, gamma):
        assume(math.exp(-x) * n * g * g >= _TINY)
        self._assert_reads_beta(TlsEnsemble(n, g, w0, x / w0, gamma), w0, x / w0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(w0=st.floats(1e-3, 1e3), x=st.floats(0.0, 709.78), n_levels=st.integers(2, 4),
           amplitudes=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
           gamma=st.floats(1e-3, 1.0))
    def test_equally_spaced_boltzmann_ladder(self, w0, x, n_levels, amplitudes, gamma):
        assume(math.exp(-x) * min(amplitudes) ** 2 >= _TINY)
        boltz = np.exp(-x * np.arange(n_levels))
        levels = tuple(zip((w0 * np.arange(n_levels)).tolist(), (boltz / boltz.sum()).tolist()))
        dipoles = tuple((k, k + 1, a) for k, a in zip(range(1, n_levels), amplitudes))
        self._assert_reads_beta(MultilevelModel(levels, dipoles, 1.0, 1.0, gamma), w0, x / w0)


class TestReconstructCorrelation:
    def test_zero_density(self):
        g = make_grid(0.5, 4.0, 64)
        J = RealSpectrum(g, np.zeros(64))
        ts = _tls_set(1.0, 1.0, 1.0, 0.0, 0.2)
        beff = effective_temperature(ts, g)
        tg = TimeGrid(5.0, 21)
        c2 = reconstruct_correlation(J, beff, tg)
        assert np.all(c2.values == 0)

    def test_initial_value_is_density_integral_at_zero_temperature(self):
        g = make_grid(0.05, 20.0, 4000)
        m = TlsEnsemble(1.0, 1.0, 6.0, math.inf, 0.5)
        J = spectral_density_from_chi(m.chi(g))
        beff = effective_temperature(m.transitions(), g)
        tg = TimeGrid(2.0, 5)
        c2 = reconstruct_correlation(J, beff, tg)
        assert c2.values[0].real == pytest.approx(
            np.trapezoid(J.values, g.points) / math.pi, rel=1e-12
        )
        assert c2.values[0].imag == 0.0

    def test_grid_mismatch_rejected(self):
        g = make_grid(0.5, 4.0, 64)
        g2 = make_grid(0.5, 4.0, 65)
        J = RealSpectrum(g, np.zeros(64))
        ts = _tls_set(1.0, 1.0, 0.7, 0.3, 0.2)
        beff = effective_temperature(ts, g2)
        with pytest.raises(ValidationError):
            reconstruct_correlation(J, beff, TimeGrid(1.0, 5))

    def test_round_trip_reproduces_thermal_correlation(self):
        # line at 8.0 with width 0.05: the positive-frequency truncation
        # limits the identity to ~1e-3 here; the tight-tolerance version
        # runs in the acceptance suite
        omega_exc, gamma, beta = 8.0, 0.05, 0.25
        m = TlsEnsemble(1.0, 1.0, omega_exc, beta, gamma)
        tg = TimeGrid(3.0 / gamma, 201)
        ref = correlation_from_transitions(
            with_mirror_transitions(m.transitions()), tg
        )
        n = 240000
        jg = make_grid(24.0 / n, 24.0, n)
        J = spectral_density_from_chi(m.chi(jg))
        beff = effective_temperature(m.transitions(), jg)
        rec = reconstruct_correlation(J, beff, tg)
        rel = np.abs(rec.values - ref.values) / np.abs(ref.values)
        assert rel.max() < 3e-3


class TestDiscretizeBath:
    def test_spike_reduces_to_single_mode(self):
        g = make_grid(0.0, 8.0, 16001)
        w = g.points
        gamma_s, w0, ngg = 0.02, 4.0, 2.3
        spike = ngg * (gamma_s / 2) / ((w - w0) ** 2 + gamma_s**2 / 4)
        bath = discretize_bath(RealSpectrum(g, spike), 1)
        mode = bath.modes[0]
        # integrated weight pi * N g^2 -> squared coupling N g^2
        assert mode.coupling**2 == pytest.approx(ngg, rel=5e-3)

    def test_total_coupling_independent_of_mode_count(self):
        g = make_grid(0.0, 10.0, 5001)
        w = g.points
        J = RealSpectrum(g, np.where((w > 1) & (w < 9), np.sin(w) ** 2 + 0.2, 0.0))
        totals = [discretize_bath(J, m).total_coupling_sq for m in (1, 3, 8, 64, 301)]
        cumulative = np.trapezoid(J.values, w) / math.pi
        for t in totals:
            assert t == pytest.approx(totals[0], rel=1e-14)
        assert totals[0] == pytest.approx(cumulative, rel=1e-12)

    def test_modes_at_bin_midpoints_with_default_linewidth(self):
        g = make_grid(0.0, 10.0, 1001)
        w = g.points
        J = RealSpectrum(g, np.where((w >= 2) & (w <= 8), 1.0, 0.0))
        bath = discretize_bath(J, 3)
        assert [m.omega for m in bath.modes] == [3.0, 5.0, 7.0]
        assert all(m.gamma == pytest.approx(2.0) for m in bath.modes)

    def test_explicit_mode_linewidth(self):
        g = make_grid(0.0, 10.0, 1001)
        w = g.points
        J = RealSpectrum(g, np.where((w >= 2) & (w <= 8), 1.0, 0.0))
        bath = discretize_bath(J, 4, gamma_mode=0.33)
        assert all(m.gamma == 0.33 for m in bath.modes)

    def test_zero_density_rejected(self):
        g = make_grid(0.0, 10.0, 101)
        with pytest.raises(ValidationError):
            discretize_bath(RealSpectrum(g, np.zeros(101)), 4)

    def test_single_point_support_rejected(self):
        g = make_grid(0.0, 10.0, 101)
        vals = np.zeros(101)
        vals[50] = 1.0
        with pytest.raises(ValidationError):
            discretize_bath(RealSpectrum(g, vals), 2)

    def test_mode_count_validated(self):
        g = make_grid(0.0, 10.0, 101)
        vals = np.ones(101)
        vals[0] = 0.0
        for n_modes in (0, 10**30):
            with pytest.raises(ValidationError):
                discretize_bath(RealSpectrum(g, vals), n_modes)

    def test_single_broad_mode_gives_doublet_with_matched_splitting(self):
        from polarispec.spectra import (
            CavityParams,
            green_finite_n,
            spectra_from_green,
        )
        from polarispec.core import local_maxima

        g = make_grid(0.0, 8.0, 8001)
        m = TlsEnsemble(1.0, 1.0, 4.0, math.inf, 0.4)
        J = spectral_density_from_chi(m.chi(g))
        bath = discretize_bath(J, 1, gamma_mode=0.4)
        coupling = bath.modes[0].coupling
        cav = CavityParams(4.0, 0.025, 0.025)
        tra = spectra_from_green(green_finite_n(bath, cav, g), cav)
        peaks = local_maxima(tra.transmission)
        assert len(peaks) == 2
        split = peaks[-1][0] - peaks[0][0]
        assert split == pytest.approx(2.0 * coupling, rel=0.02)



class TestSurrogateBath:
    """The finite route's bath: Im chi at omega > 0, on a grid of its own."""

    def test_rotating_frame_line_warns_with_dropped_share(self):
        # fig2a: the line sits at omega = 0, so half of it is left out
        chi = TlsEnsemble(1.0, 2.0, 0.0, math.inf, 0.3).chi(make_grid(-4, 4, 4001))
        with pytest.warns(AccuracyWarning, match=r"50\.2%"):
            surrogate_bath(chi, 16)

    def test_lab_frame_line_is_silent(self):
        chi = TlsEnsemble(1.0, 1.0, 2.0, math.inf, 0.3).chi(make_grid(-4, 8, 4001))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surrogate_bath(chi, 64)

    @pytest.mark.parametrize("omega_max", [0.0, 0.5])  # no positive point, and one
    def test_needs_two_positive_points(self, omega_max):
        g = make_grid(omega_max - 4.0, omega_max, 9)
        chi = ComplexSpectrum(g, np.full(g.n_points, -1j))
        with pytest.raises(ValidationError, match="positive frequencies"):
            surrogate_bath(chi, 4)

    @pytest.mark.parametrize("gamma_mode", [None, 0.05])
    def test_modes_equal_the_hand_built_bath(self, gamma_mode):
        chi = TlsEnsemble(1.0, 1.0, 2.0, 1.5, 0.3).chi(make_grid(-4, 8, 4001))
        pos = chi.grid.points > 0
        w = chi.grid.points[pos]
        on_pos_grid = ComplexSpectrum(make_grid(w[0], w[-1], w.size), chi.values[pos])
        by_hand = discretize_bath(spectral_density_from_chi(on_pos_grid), 64, gamma_mode)
        assert surrogate_bath(chi, 64, gamma_mode).modes == by_hand.modes


class TestContainers:
    def test_correlation_envelope_validated(self):
        tg = TimeGrid(5.0, 6)
        growing = np.array([1.0, 1.1, 1.2, 1.3, 1.4, 1.5], dtype=complex)
        with pytest.raises(ValidationError):
            CorrelationFunction(tg, growing)

    def test_bath_mode_validation(self):
        with pytest.raises(ValidationError):
            DiscretizedBath([BathMode(-1.0, 0.5, 0.1)])
        with pytest.raises(ValidationError):
            DiscretizedBath([BathMode(1.0, -0.5, 0.1)])
        with pytest.raises(ValidationError):
            DiscretizedBath([BathMode(1.0, 0.5, 0.0)])
        with pytest.raises(ValidationError):
            DiscretizedBath([])


class TestRefusals:
    """Each documented refusal of a bath-dictionary input raises its own message."""

    def test_correlation_with_a_negative_initial_value(self):
        with pytest.raises(ValidationError, match=r"^C\(0\) must have a nonnegative real part$"):
            CorrelationFunction(TimeGrid(1.0, 3), np.array([-1.0, 0.5, 0.2], dtype=complex))

    @pytest.mark.parametrize("omega_min", [0.0, -1.0])
    def test_effective_temperature_on_a_grid_reaching_zero(self, omega_min):
        with pytest.raises(ValidationError, match="^effective temperature lives on omega > 0$"):
            EffectiveTemperature(make_grid(omega_min, 1.0, 3), np.ones(3))

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_effective_temperature(self, bad):
        with pytest.raises(ValidationError, match=r"^beta_eff must be >= 0 \(or \+inf\)$"):
            EffectiveTemperature(make_grid(0.5, 1.0, 3), np.array([1.0, bad, math.inf]))

    def test_density_where_the_bath_is_saturated(self):
        g = make_grid(0.5, 4.0, 8)
        beta_eff = EffectiveTemperature(g, np.where(g.points > 2.0, 0.0, 1.0))
        message = "^J > 0 where beta_eff = 0: a saturated line cannot carry weight$"
        with pytest.raises(ValidationError, match=message):
            reconstruct_correlation(RealSpectrum(g, np.ones(8)), beta_eff, TimeGrid(1.0, 5))

    def test_no_density_where_the_bath_is_saturated_is_silent(self):
        # J = 0 where beta_eff = 0: the point adds nothing, and no 0 * inf warns
        g = make_grid(0.5, 4.0, 8)
        saturated = g.points > 2.0
        beta_eff = EffectiveTemperature(g, np.where(saturated, 0.0, 1.0))
        J = RealSpectrum(g, np.where(saturated, 0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = reconstruct_correlation(J, beta_eff, TimeGrid(1.0, 5)).values
        cold = EffectiveTemperature(g, np.where(saturated, 7.0, 1.0))
        assert np.array_equal(got, reconstruct_correlation(J, cold, TimeGrid(1.0, 5)).values)

    def test_density_supported_below_zero_is_not_discretized(self):
        g = make_grid(-1.0, 1.0, 21)
        J = RealSpectrum(g, np.where(g.points > -0.5, 1.0, 0.0))
        message = "^spectral density must be supported on omega >= 0$"
        with pytest.raises(ValidationError, match=message):
            discretize_bath(J, 4)


def _modes_one_at_a_time(J, n_modes, gamma_mode=None):
    """discretize_bath's modes built as BathMode records, one per bin: the reference."""
    omega, jv = J.grid.points, J.values
    nz = np.nonzero(jv > 0)[0]
    lo, hi = omega[nz[0]], omega[nz[-1]]
    dx = J.grid.spacing
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * dx * (jv[1:] + jv[:-1]))))
    edges = np.linspace(lo, hi, n_modes + 1)
    cum_at_edges = np.interp(edges, omega, cumulative)
    cum_at_edges[0], cum_at_edges[-1] = 0.0, cumulative[-1]
    coupling_sq = np.diff(cum_at_edges) / math.pi
    mids = 0.5 * (edges[:-1] + edges[1:])
    gamma = (hi - lo) / n_modes if gamma_mode is None else gamma_mode
    return tuple(
        BathMode(float(m), float(math.sqrt(max(c2, 0.0))), float(gamma))
        for m, c2 in zip(mids, coupling_sq)
    )


def _lab_tls_chi():
    return TlsEnsemble(1.0, 1.0, 2.0, math.inf, 0.3).chi(make_grid(-4.0, 8.0, 4001))


_MODE_FIELDS = ("omega", "coupling", "gamma")
_VALID_MODE = {"omega": 1.0, "coupling": 0.5, "gamma": 0.1}


class TestBathArrays:
    """A bath holds one read-only float64 array per BathMode field."""

    @pytest.mark.parametrize("n_modes, gamma_mode", [(1, None), (7, None), (64, 0.05), (256, None)])
    def test_discretized_modes_equal_the_records_built_one_at_a_time(self, n_modes, gamma_mode):
        pos = make_grid(0.003, 8.0, 2667)
        for J in (
            spectral_density_from_chi(TlsEnsemble(1.0, 1.0, 2.0, math.inf, 0.3).chi(pos)),
            RealSpectrum(pos, np.where((pos.points > 1) & (pos.points < 7), np.sin(pos.points) ** 2, 0.0)),
        ):
            bath = discretize_bath(J, n_modes, gamma_mode)
            assert bath.modes == _modes_one_at_a_time(J, n_modes, gamma_mode)

    def test_weights_are_the_rounded_squares_of_the_couplings(self):
        # the weights are g*g, rounded once; with glibc, one of these 256
        # couplings has Python's g**2 (libm pow(g, 2.0)) one ulp away from it
        bath = surrogate_bath(_lab_tls_chi(), 256)
        squares = [g * g for g in bath.coupling.tolist()]
        assert bath.transitions().weight.tolist() == squares
        assert bath.total_coupling_sq == sum(squares)

    def test_the_bath_holds_its_lines(self):
        bath = surrogate_bath(_lab_tls_chi(), 16)
        assert bath.transitions() is bath.transitions()
        rebuilt = DiscretizedBath(bath.modes)
        assert rebuilt.transitions() is rebuilt.transitions()

    def test_transitions_are_absorbing_lines_at_the_modes(self):
        bath = surrogate_bath(_lab_tls_chi(), 16)
        expected = tuple(Transition(m.omega, m.coupling**2, 1.0, 0.0, m.gamma) for m in bath.modes)
        assert bath.transitions().transitions == expected

    def test_records_and_arrays_build_the_same_bath(self):
        bath = surrogate_bath(_lab_tls_chi(), 32)
        rebuilt = DiscretizedBath(bath.modes)
        for f in _MODE_FIELDS:
            assert np.array_equal(getattr(rebuilt, f), getattr(bath, f))
            with pytest.raises(ValueError, match="read-only"):
                getattr(bath, f)[0] = 1.0
            with pytest.raises(AttributeError):
                setattr(bath, f, np.ones(32))
        assert len(rebuilt) == len(bath) == 32
        assert DiscretizedBath(bath.modes[:7] + bath.modes[8:]).modes == bath.modes[:7] + bath.modes[8:]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("omega", math.nan, "mode frequency must be > 0"),
            ("omega", -1.0, "mode frequency must be > 0"),
            ("coupling", -0.5, "mode coupling must be >= 0"),
            ("coupling", math.inf, "mode coupling must be >= 0"),
            ("gamma", 0.0, "mode linewidth must be > 0"),
        ],
    )
    def test_invalid_field_gives_the_same_message_on_both_paths(self, field, value, message):
        bad = BathMode(**dict(_VALID_MODE, **{field: value}))  # a record is not checked
        with pytest.raises(ValidationError) as record_error:
            DiscretizedBath([BathMode(**_VALID_MODE), bad])
        columns = {f: [v, v] for f, v in _VALID_MODE.items()}
        columns[field] = [_VALID_MODE[field], value]
        with pytest.raises(ValidationError) as array_error:
            DiscretizedBath.from_arrays(*(columns[f] for f in _MODE_FIELDS))
        assert str(record_error.value) == str(array_error.value) == message

    def test_empty_bath_rejected_on_both_paths(self):
        for build in (lambda: DiscretizedBath([]), lambda: DiscretizedBath.from_arrays([], [], [])):
            with pytest.raises(ValidationError, match="at least one mode"):
                build()
