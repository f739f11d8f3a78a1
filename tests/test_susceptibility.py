import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import wofz

from polarispec.core import (
    _BLOCK,
    AccuracyWarning,
    RealSpectrum,
    TimeGrid,
    ValidationError,
    make_grid,
)
from polarispec.bathmap import CorrelationFunction, spectral_density_from_chi
from polarispec.cli import parse_scenario, preset_config, scenario_to_config
from polarispec.susceptibility import (
    DisorderedTls,
    DisorderSpec,
    MultilevelModel,
    TlsEnsemble,
    Transition,
    TransitionSet,
    VibronicModel,
    _franck_condon_weights,
    chi_disordered,
    chi_from_correlation,
    chi_from_spectral_density,
    chi_multilevel,
    chi_vibronic,
    faddeeva,
    thermal_populations,
    vibronic_transitions,
    with_mirror_transitions,
)


def _single(omega, weight, p_y, p_z, gamma):
    return TransitionSet([Transition(omega, weight, p_y, p_z, gamma)])


def _tls_closed_form(m, grid):
    """-N g^2 tanh(beta w0 / 2) / (w - w0 + i gamma/2): a thermal TLS line in closed form."""
    pd = 1.0 if math.isinf(m.beta) else math.tanh(0.5 * m.beta * m.omega_exc)
    return -m.n_emitters * m.g**2 * pd / (grid.points - m.omega_exc + 0.5j * m.gamma)


class TestChiMultilevel:
    def test_single_transition_value_at_zero(self):
        # -4 / (0.15i) = +26.666...i
        g = make_grid(-1, 1, 3)
        chi = chi_multilevel(_single(0.0, 4.0, 1.0, 0.0, 0.3), g)
        assert chi.values[1] == pytest.approx(1j * 80.0 / 3.0, abs=1e-12)

    def test_saturated_transition_contributes_nothing(self):
        g = make_grid(-1, 1, 21)
        chi = chi_multilevel(_single(0.5, 3.0, 0.4, 0.4, 0.2), g)
        assert np.all(chi.values == 0)

    def test_two_sided_symmetry(self):
        g = make_grid(-5, 5, 201)
        ts = TransitionSet(
            [
                Transition(2.0, 1.5, 0.8, 0.2, 0.3),
                Transition(-2.0, 1.5, 0.2, 0.8, 0.3),
            ]
        )
        chi = chi_multilevel(ts, g)
        flipped = chi.values[::-1]
        # grid points are not bitwise antisymmetric, so allow slope * eps
        assert np.allclose(flipped, np.conj(chi.values), rtol=0, atol=1e-12)

    def test_empty_set_rejected(self):
        g = make_grid(-1, 1, 3)
        with pytest.raises(ValidationError):
            chi_multilevel(TransitionSet([]), g)

    def test_pointwise_evaluation_is_bitwise_identical(self):
        # frequency points are independent and the transition order is
        # fixed, so evaluating any pair of grid points alone must
        # reproduce the full-grid values bit for bit, also at and across
        # the edges of the blocks the pole sum runs a long grid in
        ts = TransitionSet(
            [Transition(w, 0.5 + w, 0.9, 0.1, 0.2) for w in (0.5, 1.0, 2.5)]
        )
        g = make_grid(-3, 3, 2 * _BLOCK + 3)
        full = chi_multilevel(ts, g).values
        for i in (0, 77, 300, 511, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK + 1):
            pair = make_grid(g.points[i], g.points[i + 1], 2)
            vals = chi_multilevel(ts, pair).values
            assert vals[0] == full[i]
            assert vals[1] == full[i + 1]


class TestChiTlsThermal:
    def test_zero_temperature_value(self):
        g = make_grid(-1, 1, 3)
        m = TlsEnsemble(1.0, 2.0, 0.0, math.inf, 0.3)
        chi = m.chi(g)
        assert chi.values[1] == pytest.approx(1j * 80.0 / 3.0, abs=1e-12)

    def test_infinite_temperature_is_transparent(self):
        g = make_grid(-1, 1, 51)
        m = TlsEnsemble(1.0, 2.0, 1.0, 0.0, 0.3)
        assert np.all(m.chi(g).values == 0)

    def test_thermal_factor_scales_zero_temperature_result(self):
        g = make_grid(-3, 3, 101)
        cold = TlsEnsemble(1.0, 1.3, 1.0, math.inf, 0.2).chi(g)
        for beta in (0.3, 1.0, 4.0):
            warm = TlsEnsemble(1.0, 1.3, 1.0, beta, 0.2).chi(g)
            factor = math.tanh(beta * 1.0 / 2)
            assert np.allclose(
                warm.values, factor * cold.values, rtol=1e-15, atol=0
            )

    def test_matches_generic_two_level_transition(self):
        g = make_grid(-3, 3, 301)
        m = TlsEnsemble(2.5, 0.8, 1.2, 1.7, 0.25)
        ref = _tls_closed_form(m, g)
        got = m.chi(g).values
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_thermal_factor_at_zero_temperature_zero_frequency(self):
        p_g, p_e = thermal_populations(math.inf, 0.0)
        assert p_g - p_e == 1.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            TlsEnsemble(1.0, 1.0, 1.0, -0.5, 0.3)

    def test_inverted_line_beyond_exp_range(self):
        # beta * omega_exc = -1000: exp(1000) overflows, and the populations
        # take their limit (p_g, p_e) = (0, 1), a line of pure gain
        g = make_grid(-3, 3, 301)
        m = TlsEnsemble(1, 1, -1, 1000, 0.3)
        assert thermal_populations(m.beta, m.omega_exc) == (0.0, 1.0)
        expected = m.n_emitters * m.g**2 / (g.points - m.omega_exc + 0.5j * m.gamma)
        assert np.array_equal(m.chi(g).values, expected)


class TestChiDisordered:
    def test_lorentzian_closed_form(self):
        g = make_grid(-5, 5, 401)
        m = TlsEnsemble(1.0, 1.5, 0.0, math.inf, 0.1)
        d = DisorderSpec("lorentzian", 0.0, 1.0)
        chi = chi_disordered(m, d, g)
        ref = -2.25 / (g.points - 0.0 + 0.55j)
        assert np.array_equal(chi.values, ref)

    def test_lorentzian_matches_quadrature(self):
        m = TlsEnsemble(1.0, 1.0, 0.5, math.inf, 0.2)
        d = DisorderSpec("lorentzian", 0.5, 0.8)
        g = make_grid(-2, 3, 11)
        chi = chi_disordered(m, d, g)
        for i, w in enumerate(g.points):
            ref = _disorder_quadrature(w, m, d)
            assert abs(chi.values[i] - ref) <= 1e-8 * abs(ref)

    def test_gaussian_matches_quadrature(self):
        m = TlsEnsemble(1.0, 1.5, 0.0, math.inf, 0.1)
        d = DisorderSpec("gaussian", 0.0, 1.0)
        g = make_grid(-4, 4, 17)
        chi = chi_disordered(m, d, g)
        for i, w in enumerate(g.points):
            ref = _disorder_quadrature(w, m, d)
            assert abs(chi.values[i] - ref) <= 1e-8 * abs(ref)

    def test_narrow_gaussian_approaches_homogeneous(self):
        g = make_grid(-2, 2, 201)
        gamma = 0.3
        m = TlsEnsemble(1.0, 1.2, 0.0, math.inf, gamma)
        chi_dis = chi_disordered(m, DisorderSpec("gaussian", 0.0, 1e-4 * gamma), g)
        chi_hom = m.chi(g)
        rel = np.abs(chi_dis.values - chi_hom.values) / np.abs(chi_hom.values)
        assert rel.max() < 1e-6

    def test_gaussian_line_center_peak_value(self):
        # narrow homogeneous width: Im chi(center) -> N g^2 sqrt(pi/2)/sigma
        sigma = 0.7
        m = TlsEnsemble(1.0, 1.0, 0.0, math.inf, 1e-8)
        g = make_grid(-1, 1, 3)
        chi = chi_disordered(m, DisorderSpec("gaussian", 0.0, sigma), g)
        expected = math.sqrt(math.pi / 2) / sigma
        assert chi.values[1].imag == pytest.approx(expected, rel=1e-7)

    def test_finite_temperature_rejected(self):
        g = make_grid(-1, 1, 3)
        m = TlsEnsemble(1.0, 1.0, 0.0, 2.0, 0.1)
        with pytest.raises(ValidationError):
            chi_disordered(m, DisorderSpec("gaussian", 0.0, 1.0), g)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValidationError):
            DisorderSpec("gaussian", 0.0, 0.0)
        with pytest.raises(ValidationError):
            DisorderSpec("uniform", 0.0, 1.0)


def _disorder_quadrature(w, m, d):
    """Adaptive quadrature of the disorder average (test oracle).

    Gaussian disorder is integrated over x within 14 sigma of the center.
    Lorentzian disorder is integrated over theta, x = c + (sigma/2) tan(theta),
    which turns its measure into dtheta/pi on (-pi/2, pi/2) and removes the
    infinite tails.  A quadrature that does not converge raises, so a broken
    reference shows up as an oracle error rather than a program mismatch.
    """
    ngg = m.n_emitters * m.g**2
    if d.kind == "gaussian":
        def x_and_p(u):
            return u, math.exp(-0.5 * ((u - d.center) / d.sigma) ** 2) / (
                d.sigma * math.sqrt(2 * math.pi)
            )
        span = 14.0 * d.sigma
        lo, hi = d.center - span, d.center + span
        brk = w
    else:
        def x_and_p(u):
            return d.center + 0.5 * d.sigma * math.tan(u), 1.0 / math.pi
        lo, hi = -0.5 * math.pi, 0.5 * math.pi
        brk = math.atan(2.0 * (w - d.center) / d.sigma)

    def integrand(u, part):
        x, p = x_and_p(u)
        val = -ngg * p / (w - x + 0.5j * m.gamma)
        return val.real if part == 0 else val.imag

    pts = [brk] if lo < brk < hi else None
    kw = dict(points=pts, limit=400, epsabs=1e-13, epsrel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        return quad(integrand, lo, hi, args=(0,), **kw)[0] + 1j * quad(
            integrand, lo, hi, args=(1,), **kw
        )[0]


class TestChiVibronic:
    def test_no_displacement_reduces_to_bare_line(self):
        g = make_grid(-3, 3, 301)
        m = VibronicModel(1.0, 1.1, 0.4, 0.3, 0.0, 0.2)
        bare = TlsEnsemble(1.0, 1.1, 0.4, math.inf, 0.2).chi(g)
        assert np.array_equal(chi_vibronic(m, g).values, bare.values)

    def test_progression_weight(self):
        ts = vibronic_transitions(VibronicModel(1.0, 1.0, 0.0, 0.3, 3.0, 0.1))
        w3 = ts.transitions[3].weight
        assert w3 == pytest.approx(math.exp(-3.0) * 27.0 / 6.0, rel=1e-13)
        assert w3 == pytest.approx(0.22404180765538775, rel=1e-12)

    def test_weights_sum_to_one(self):
        for s in (0.0, 0.7, 3.0, 12.0):
            ts = vibronic_transitions(VibronicModel(1.0, 1.0, 0.0, 0.3, s, 0.1))
            total = sum(t.weight for t in ts)
            assert abs(total - 1.0) <= 1e-12

    def test_explicit_truncation(self):
        ts = vibronic_transitions(VibronicModel(1.0, 1.0, 0.0, 0.3, 3.0, 0.1, m_max=2))
        assert len(ts) == 3

    def test_progression_stops_where_the_weights_underflow(self):
        g = make_grid(-4.0, 4.0, 4001)
        vast, huge, capped = (VibronicModel(1.0, 1.0, 0.0, 0.3, 3.0, 0.1, m_max=m)
                              for m in (10**30, 10**6, 300))
        assert len(huge.transitions()) <= 300
        assert np.array_equal(huge.chi(g).values.view(np.uint64),
                              capped.chi(g).values.view(np.uint64))
        assert np.array_equal(vast.chi(g).values.view(np.uint64),
                              huge.chi(g).values.view(np.uint64))

    @pytest.mark.parametrize("s, lines", [(3.0, 23), (30.0, 77)])
    def test_preset_sized_progressions_keep_their_lines(self, s, lines):
        assert len(VibronicModel(1.0, 1.0, 0.0, 0.3, s, 0.1).transitions()) == lines

    @pytest.mark.parametrize("s", [190.0, 400.0, 708.0])
    def test_default_progression_keeps_the_weight_of_a_large_huang_rhys(self, s):
        # a 201-line cap kept 0.778 of the weight at S = 190 and 1.8e-110 at 700
        ts = VibronicModel(1.0, 1.0, 0.0, 0.3, s, 0.1).transitions()
        assert abs(ts.weight.sum() - 1.0) <= 1e-12
        assert ts.weight[-1] < 1e-12 < ts.weight.max()

    @pytest.mark.parametrize("s", [709.0, 800.0, 1e6])
    def test_huang_rhys_whose_first_weight_underflows_is_refused(self, s):
        message = r"^huang_rhys must be < 708\.3964: exp\(-huang_rhys\) underflows$"
        with pytest.raises(ValidationError, match=message):
            VibronicModel(1.0, 1.0, 0.0, 0.3, s, 0.1)

    def test_line_positions(self):
        m = VibronicModel(1.0, 1.0, 0.5, 0.3, 2.0, 0.1)
        ts = vibronic_transitions(m)
        assert ts.transitions[0].omega_zy == pytest.approx(0.5 - 2.0 * 0.3)
        assert ts.transitions[4].omega_zy == pytest.approx(0.5 + 2.0 * 0.3)


class TestChiThreeLevel:
    def _model(self, pops):
        return MultilevelModel(
            levels=[(0.0, pops[0]), (1.0, pops[1]), (3.0, pops[2])],
            dipoles=[(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)],
            n_emitters=1.0,
            g_scale=1.0,
            gamma=0.3,
        )

    def test_equal_populations_transparent(self):
        g = make_grid(-1, 5, 201)
        chi = self._model((1 / 3, 1 / 3, 1 / 3)).chi(g)
        assert np.all(chi.values == 0)

    def test_population_difference_prefactors(self):
        g = make_grid(-1, 5, 601)
        chi = self._model((0.7, 0.2, 0.1)).chi(g)
        w = g.points
        ref = (
            -0.5 / (w - 1.0 + 0.15j)
            - 0.1 / (w - 2.0 + 0.15j)
            - 0.6 / (w - 3.0 + 0.15j)
        )
        assert np.abs(chi.values - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_saturated_pair_drops_out(self):
        g = make_grid(-1, 5, 601)
        chi = self._model((0.48, 0.48, 0.04)).chi(g)
        w = g.points
        ref = -0.44 / (w - 2.0 + 0.15j) - 0.44 / (w - 3.0 + 0.15j)
        assert np.abs(chi.values - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_population_sum_validated(self):
        with pytest.raises(ValidationError):
            self._model((0.7, 0.2, 0.2))

    def test_two_levels_give_the_chi_of_the_two_level_line(self):
        tls = TlsEnsemble(2.0, 0.7, 1.5, 2.0, 0.3)
        p_g, p_e = thermal_populations(tls.beta, tls.omega_exc)
        m = MultilevelModel([(0.0, p_g), (1.5, p_e)], [(1, 2, 1.0)], 2.0, 0.7, 0.3)
        g = make_grid(-1, 4, 501)
        assert np.array_equal(chi_multilevel(m.transitions(), g).values.view(np.uint64),
                              chi_multilevel(tls.transitions(), g).values.view(np.uint64))

    def test_four_level_ladder_matches_its_transition_set(self):
        pops = (0.5, 0.3, 0.15, 0.05)
        m = MultilevelModel(
            levels=list(zip((0.0, 1.0, 2.5, 4.0), pops)),
            dipoles=[(1, 2, 1.0), (2, 3, 0.5), (3, 4, 0.8), (1, 4, 0.3)],
            n_emitters=2.0,
            g_scale=0.5,
            gamma=0.2,
        )
        by_hand = TransitionSet([
            Transition(1.0, 0.5, 0.5, 0.3, 0.2),
            Transition(1.5, 0.5 * 0.5**2, 0.3, 0.15, 0.2),
            Transition(1.5, 0.5 * 0.8**2, 0.15, 0.05, 0.2),
            Transition(4.0, 0.5 * 0.3**2, 0.5, 0.05, 0.2),
        ])
        assert m.transitions().transitions == by_hand.transitions
        g = make_grid(-1, 5, 601)
        assert np.array_equal(m.chi(g).values, chi_multilevel(by_hand, g).values)

    @pytest.mark.parametrize(
        "dipole, message",
        [
            ((2, 1, 1.0), r"^dipole \(2,1\) must go from a lower to a higher level$"),
            ((1, 1, 1.0), r"^dipole \(1,1\) must go from a lower to a higher level$"),
            ((1.9, 2, 1.0), r"^dipole index must be an integer in \[1, 3\]$"),
            ((1, 4, 1.0), r"^dipole index must be an integer in \[1, 3\]$"),
            ((math.nan, 2, 1.0), r"^dipole index must be an integer in \[1, 3\]$"),
            ((1, 2, math.inf), r"^dipole amplitudes must be finite$"),
        ],
        ids=["high-low", "one-level", "fractional", "out-of-range", "nan-index", "inf-amplitude"],
    )
    def test_dipole_that_is_no_uphill_pair_is_refused(self, dipole, message):
        dipoles = [(1, 2, 1.0), dipole, (1, 3, 1.0)]
        with pytest.raises(ValidationError, match=message):
            MultilevelModel([(0.0, 0.7), (1.0, 0.2), (3.0, 0.1)], dipoles, 1.0, 1.0, 0.3)

    def test_model_needs_a_dipole(self):
        with pytest.raises(ValidationError, match="^need at least one dipole$"):
            MultilevelModel([(0.0, 0.7), (1.0, 0.3)], [], 1.0, 1.0, 0.3)



_NAN, _INF = math.nan, math.inf


class TestModelsRejectNonFiniteParameters:
    """A NaN from a config (json.load accepts it) is refused when the model is built."""

    @pytest.mark.parametrize(
        "args, message",
        [
            ((_NAN, 1.0, 0.0, 0.3, 3.0, 0.1), "n_emitters"),
            ((1.0, _NAN, 0.0, 0.3, 3.0, 0.1), "g must"),
            ((1.0, 1.0, _NAN, 0.3, 3.0, 0.1), "omega_exc must be finite"),
            ((1.0, 1.0, _INF, 0.3, 3.0, 0.1), "omega_exc must be finite"),
            ((1.0, 1.0, 0.0, _NAN, 3.0, 0.1), "omega_v"),
            ((1.0, 1.0, 0.0, 0.3, _NAN, 0.1), "huang_rhys"),
            ((1.0, 1.0, 0.0, 0.3, 3.0, _NAN), "gamma"),
            ((1.0, 1.0, 0.0, 0.3, 3.0, 0.1, _NAN), "m_max"),
        ],
    )
    def test_vibronic(self, args, message):
        with pytest.raises(ValidationError, match=message):
            VibronicModel(*args)

    @pytest.mark.parametrize(
        "levels, g_scale, message",
        [
            ([(0.0, 0.7), (_NAN, 0.2), (3.0, 0.1)], 1.0, "level energies must be finite"),
            ([(0.0, 0.7), (1.0, 0.2), (_INF, 0.1)], 1.0, "level energies must be finite"),
            ([(0.0, 0.7), (1.0, _NAN), (3.0, 0.1)], 1.0, "populations"),
            ([(0.0, 0.7), (1.0, 0.2), (3.0, 0.1)], _NAN, "g_scale must be finite"),
            ([(0.0, 0.7), (1.0, 0.2), (3.0, 0.1)], _INF, "g_scale must be finite"),
        ],
    )
    def test_multilevel(self, levels, g_scale, message):
        with pytest.raises(ValidationError, match=message):
            MultilevelModel(levels, [(1, 2, 1.0), (2, 3, 1.0)], 1.0, g_scale, 0.3)

    @pytest.mark.parametrize("m_max", [2.5, -0.0, 2.0, -1, "3"])
    def test_vibronic_m_max_must_be_a_nonnegative_integer(self, m_max):
        # 2.5 and -0.0 used to pass here and fail later inside np.empty
        with pytest.raises(ValidationError, match="m_max must be an integer >= 0"):
            VibronicModel(1.0, 1.0, 2.0, 0.2, 0.5, 0.1, m_max=m_max)

    @pytest.mark.parametrize("m_max", [10**30, np.uint64(2**64 - 1), np.int64(2**63 - 1)])
    def test_vibronic_m_max_has_no_upper_bound(self, m_max):
        # the progression stops where its weights underflow, whatever m_max says
        model = VibronicModel(1.0, 1.0, 2.0, 0.2, 0.5, 0.1, m_max=m_max)
        assert type(model.m_max) is int and model.m_max == m_max
        assert len(model.transitions()) < 300

    def test_vibronic_m_max_accepts_numpy_integers(self):
        capped = VibronicModel(1.0, 1.0, 2.0, 0.2, 0.5, 0.1, m_max=np.int64(2))
        assert len(capped.transitions()) == 3


_FIELDS = ("omega_zy", "weight", "p_y", "p_z", "gamma")
_TRANSITIONS = st.lists(
    st.builds(
        Transition,
        omega_zy=st.floats(-5.0, 5.0),
        weight=st.floats(0.0, 3.0),
        p_y=st.floats(0.0, 1.0),
        p_z=st.floats(0.0, 1.0),
        gamma=st.floats(0.01, 2.0),
    ),
    min_size=1,
    max_size=8,
)
_VALID_LINE = {"omega_zy": 1.0, "weight": 0.5, "p_y": 0.9, "p_z": 0.1, "gamma": 0.3}


class TestTransitionSetArrays:
    """A set holds one read-only float64 array per Transition field."""

    @settings(derandomize=True, deadline=None)
    @given(lines=_TRANSITIONS)
    def test_records_and_arrays_build_the_same_set(self, lines):
        by_records = TransitionSet(lines)
        by_arrays = TransitionSet.from_arrays(*([getattr(t, f) for t in lines] for f in _FIELDS))
        for f in _FIELDS:
            a, b = getattr(by_records, f), getattr(by_arrays, f)
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)
        assert by_records.transitions == by_arrays.transitions == tuple(lines)
        assert list(by_arrays) == lines and len(by_arrays) == len(lines)
        g = make_grid(-6.0, 6.0, 301)
        chi = chi_multilevel(by_records, g).values
        assert np.array_equal(chi, chi_multilevel(by_arrays, g).values)
        # the pole sum of the records, one line at a time in Python floats
        ref = np.zeros(g.n_points, dtype=complex)
        for t in lines:
            ref -= ((t.p_y - t.p_z) * t.weight) / (g.points - t.omega_zy + 0.5j * t.gamma)
        assert np.array_equal(chi, ref)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("omega_zy", math.nan, "transition frequency must be finite"),
            ("omega_zy", -math.inf, "transition frequency must be finite"),
            ("weight", -0.5, "transition weight must be >= 0"),
            ("weight", math.nan, "transition weight must be >= 0"),
            ("p_y", 1.5, "p_y must lie in [0, 1], got 1.5"),
            ("p_z", -0.25, "p_z must lie in [0, 1], got -0.25"),
            ("p_y", math.nan, "p_y must lie in [0, 1], got nan"),
            ("gamma", 0.0, "gamma must be > 0"),
            ("gamma", math.inf, "gamma must be > 0"),
        ],
    )
    def test_invalid_field_gives_the_same_message_on_both_paths(self, field, value, message):
        bad = Transition(**dict(_VALID_LINE, **{field: value}))  # a record is not checked
        with pytest.raises(ValidationError) as record_error:
            TransitionSet([Transition(**_VALID_LINE), bad])
        columns = {f: [v, v] for f, v in _VALID_LINE.items()}
        columns[field] = [_VALID_LINE[field], value]  # the second line is the bad one
        with pytest.raises(ValidationError) as array_error:
            TransitionSet.from_arrays(*(columns[f] for f in _FIELDS))
        assert str(record_error.value) == str(array_error.value) == message

    @pytest.mark.parametrize(
        "columns",
        [([1.0, 2.0], [0.5], [0.9], [0.1], [0.3]), ([1.0], [0.5], [0.9], [0.1]), ([[1.0]],) * 5],
    )
    def test_arrays_need_one_equal_length_1d_column_per_field(self, columns):
        with pytest.raises(ValidationError, match="one 1-D array of one length per field"):
            TransitionSet.from_arrays(*columns)

    def test_arrays_are_read_only_copies(self):
        source = [np.array([1.0, -2.0]), np.array([0.5, 0.4]), np.array([0.9, 0.8]),
                  np.array([0.1, 0.2]), np.array([0.3, 0.3])]
        ts = TransitionSet.from_arrays(*source)
        source[0][0] = 7.0
        assert ts.omega_zy[0] == 1.0
        for built in (ts, TransitionSet(ts.transitions)):
            for f in _FIELDS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(built, f)[0] = 0.0
                with pytest.raises(AttributeError):
                    setattr(built, f, np.zeros(2))

    def test_empty_set_is_refused_on_both_paths(self):
        for build in (lambda: TransitionSet([]), lambda: TransitionSet.from_arrays(*[[]] * 5)):
            with pytest.raises(ValidationError, match="^transition set is empty$"):
                build()

    def test_a_record_is_plain_data_checked_by_its_set(self):
        line = Transition(**_VALID_LINE)
        assert tuple(line) == (1.0, 0.5, 0.9, 0.1, 0.3)
        assert Transition._make(tuple(line)) == line == Transition(1.0, 0.5, 0.9, 0.1, 0.3)
        assert line._replace(gamma=0.2).gamma == 0.2 and line.gamma == 0.3
        assert hash(line) == hash(Transition(**_VALID_LINE))
        with pytest.raises(AttributeError):
            line.gamma = 0.2
        bad = line._replace(p_y=1.5)  # built without a check
        with pytest.raises(ValidationError, match=r"^p_y must lie in \[0, 1\], got 1.5$"):
            TransitionSet([bad])

    def test_mirror_keeps_the_lines_then_their_mirrors_in_order(self):
        lines = [
            Transition(2.0, 1.0, 0.8, 0.2, 0.5),
            Transition(-1.0, 0.3, 0.6, 0.1, 0.2),
            Transition(3.5, 0.6, 0.9, 0.1, 0.4),
        ]
        mirrors = [Transition(-t.omega_zy, t.weight, t.p_z, t.p_y, t.gamma) for t in lines]
        assert with_mirror_transitions(TransitionSet(lines)).transitions == (*lines, *mirrors)


class TestChiFromSpectralDensity:
    def test_zero_density_gives_zero(self):
        g = make_grid(0, 5, 101)
        chi = chi_from_spectral_density(RealSpectrum(g, np.zeros(101)), g)
        assert np.all(chi.values == 0)

    def test_negative_density_rejected(self):
        g = make_grid(0, 5, 101)
        vals = np.zeros(101)
        vals[50] = -1.0
        with pytest.raises(ValidationError):
            chi_from_spectral_density(RealSpectrum(g, vals), g)

    @pytest.mark.parametrize("gamma_reg", [0.0, -1.0, math.inf, math.nan])
    def test_gamma_reg_must_be_positive_and_finite(self, gamma_reg):
        g = make_grid(0, 5, 101)
        with pytest.raises(ValidationError, match="gamma_reg must be > 0"):
            chi_from_spectral_density(RealSpectrum(g, np.ones(101)), g, gamma_reg)

    def test_weight_at_negative_frequency_rejected(self):
        g = make_grid(-5, 5, 101)
        vals = np.ones(101)
        with pytest.raises(ValidationError):
            chi_from_spectral_density(RealSpectrum(g, vals), g)

    def test_narrow_spike_gives_single_pole(self):
        g = make_grid(0.0, 12.0, 12001)
        w = g.points
        gamma_s, w0, wt = 0.02, 6.0, 0.9
        spike = wt * (gamma_s / 2) / ((w - w0) ** 2 + gamma_s**2 / 4)
        greg = 4 * g.spacing
        chi = chi_from_spectral_density(RealSpectrum(g, spike), g, gamma_reg=greg)
        pole = -wt / (w - w0 + 0.5j * (gamma_s + greg))
        sel = np.abs(w - w0) < 4
        rel = np.abs(chi.values[sel] - pole[sel]) / np.abs(pole[sel])
        assert rel.max() < 1e-3

    def test_round_trip_recovers_density(self):
        g = make_grid(0.0, 12.0, 12001)
        w = g.points
        bump = np.where(
            (w > 0.5) & (w < 11.5), np.sin(math.pi * (w - 0.5) / 11.0) ** 4, 0.0
        )
        J = RealSpectrum(g, 3.0 * bump)
        chi = chi_from_spectral_density(J, g, gamma_reg=3 * g.spacing)
        back = spectral_density_from_chi(chi)
        core = J.values >= 0.5 * J.values.max()
        rel = np.abs(back.values[core] - J.values[core]) / J.values[core]
        assert rel.max() < 1e-3

    def test_negative_frequencies_filled_by_reflection(self):
        gj = make_grid(0.0, 6.0, 3001)
        w = gj.points
        spike = np.where((w > 2) & (w < 4), 1.0 - np.cos(math.pi * (w - 2)), 0.0)
        J = RealSpectrum(gj, spike)
        # dyadic spacing 1/64: every point is the exact mirror of another and
        # w = 0 is on the grid, so the reflection is tested bit for bit
        g2 = make_grid(-5, 5, 641)
        chi = chi_from_spectral_density(J, g2)
        assert np.allclose(
            chi.values[::-1], np.conj(chi.values), rtol=0, atol=1e-15
        )


class TestChiFromCorrelation:
    def test_zero_correlation(self):
        tg = TimeGrid(10.0, 101)
        c2 = CorrelationFunction(tg, np.zeros(101, complex))
        g = make_grid(-2, 2, 41)
        assert np.all(chi_from_correlation(c2, g).values == 0)

    def test_single_exponential_matches_analytic_transform(self):
        w0, gamma, wt = 3.0, 1.0, 0.7
        tg = TimeGrid(64.0, 640001)
        c2 = CorrelationFunction(tg, wt * np.exp((-1j * w0 - gamma / 2) * tg.times))
        g = make_grid(-8, 8, 201)
        chi = chi_from_correlation(c2, g)
        ref = -wt / (g.points - w0 + 0.5j * gamma) + wt / (
            g.points + w0 + 0.5j * gamma
        )
        rel = np.abs(chi.values - ref) / np.abs(ref)
        assert rel.max() < 1e-6

    def test_single_pole_limit_near_resonance(self):
        # for a narrow line the counter-rotating pole is small near resonance:
        # relative to the resonant pole it is
        # |w - w0 + i gamma/2| / |w + w0 + i gamma/2|,
        # which is gamma/(4 w0) at w = w0 and grows linearly off resonance
        w0, gamma, wt = 5.0, 0.02, 1.0
        tg = TimeGrid(32.0 / gamma, 540001)
        c2 = CorrelationFunction(tg, wt * np.exp((-1j * w0 - gamma / 2) * tg.times))
        g = make_grid(4.0, 6.0, 51)
        chi = chi_from_correlation(c2, g)
        w = g.points
        pole = -wt / (w - w0 + 0.5j * gamma)
        rel = np.abs(chi.values - pole) / np.abs(pole)
        ratio = np.abs(w - w0 + 0.5j * gamma) / np.abs(w + w0 + 0.5j * gamma)
        assert np.all(rel < 3.0 * ratio)

    def test_matches_transition_sum_for_thermal_ensemble(self):
        from polarispec.bathmap import correlation_from_transitions

        m = TlsEnsemble(1.0, 1.0, 3.0, 1.5, 1.0)
        ts = with_mirror_transitions(m.transitions())
        tg = TimeGrid(40.0, 400001)
        c2 = correlation_from_transitions(ts, tg)
        g = make_grid(-8, 8, 201)
        chi = chi_from_correlation(c2, g)
        ref = chi_multilevel(ts, g)
        rel = np.abs(chi.values - ref.values) / np.abs(ref.values)
        assert rel.max() < 1e-6

    def test_undamped_window_warns(self):
        tg = TimeGrid(5.0, 501)
        c2 = CorrelationFunction(tg, np.exp((-1j * 2.0 - 0.01) * tg.times))
        g = make_grid(-3, 3, 21)
        with pytest.warns(AccuracyWarning):
            chi_from_correlation(c2, g)


class TestFaddeeva:
    def test_at_origin(self):
        assert faddeeva(0.0) == pytest.approx(1.0, abs=1e-13)

    def test_at_unit_imaginary_vs_erfc_oracle(self):
        # high-precision complementary error function as independent oracle
        import mpmath

        mpmath.mp.dps = 30
        expected = float(mpmath.e * mpmath.erfc(1))
        got = faddeeva(1j)
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(expected, rel=1e-12)
        assert got.real == pytest.approx(0.42758357615580705, rel=1e-12)

    def test_large_argument_asymptotics(self):
        z = 100j
        asym = 1j / (math.sqrt(math.pi) * z) * (1 + 1 / (2 * z**2) + 3 / (4 * z**4))
        assert abs(faddeeva(z) - asym) / abs(asym) < 1e-6

    def test_against_reference_implementation(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-50, 50, 500) + 1j * rng.uniform(0, 50, 500)
        rel = np.abs(faddeeva(z) - wofz(z)) / np.abs(wofz(z))
        assert rel.max() < 1e-12

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValidationError):
            faddeeva(1.0 - 0.5j)


class TestInvariants:
    def _random_passive_set(self, rng):
        transitions = []
        for _ in range(rng.integers(1, 4)):
            w = rng.uniform(0.2, 3.0)
            wt = rng.uniform(0.1, 4.0)
            p_y = rng.uniform(0.5, 1.0)
            p_z = rng.uniform(0.0, p_y)
            gam = rng.uniform(0.05, 0.6)
            transitions.append(Transition(w, wt, p_y, p_z, gam))
        return TransitionSet(transitions)

    def test_passivity(self):
        rng = np.random.default_rng(3)
        g = make_grid(0.0, 5.0, 301)
        for _ in range(50):
            ts = self._random_passive_set(rng)
            chi = chi_multilevel(ts, g)
            assert chi.values.imag.min() >= 0

    def test_mirrored_passive_set_still_absorbs_at_positive_frequency(self):
        rng = np.random.default_rng(4)
        g = make_grid(0.0, 5.0, 301)
        for _ in range(20):
            ts = with_mirror_transitions(self._random_passive_set(rng))
            chi = chi_multilevel(ts, g)
            assert chi.values.imag.min() >= -1e-15

    def test_saturation_null(self):
        g = make_grid(-4, 4, 101)
        ts = TransitionSet(
            [Transition(w, 1.0, 0.25, 0.25, 0.3) for w in (0.5, 1.0, 2.0)]
        )
        assert np.all(chi_multilevel(ts, g).values == 0)

    def test_linearity_in_emitter_count(self):
        g = make_grid(-3, 3, 101)
        base = TlsEnsemble(1.0, 0.9, 1.0, 2.0, 0.3).chi(g)
        doubled = TlsEnsemble(2.0, 0.9, 1.0, 2.0, 0.3).chi(g)
        assert np.allclose(doubled.values, 2.0 * base.values, rtol=1e-15, atol=0)

    def test_kramers_kronig_reconstruction(self):
        # principal-value quadrature of Im chi reproduces Re chi away from
        # the grid edges
        g = make_grid(-4, 4, 4001)
        m = TlsEnsemble(1.0, 2.0, 0.0, math.inf, 0.3)
        chi = m.chi(g)
        w = g.points
        dw = g.spacing
        im = chi.values.imag
        re = chi.values.real
        dim = np.gradient(im, dw)
        sel = np.nonzero((w >= -4 + 10 * 0.3) & (w <= 4 - 10 * 0.3))[0][::5]
        rec = np.empty(sel.size)
        for k, i in enumerate(sel):
            diff = w - w[i]
            diff[i] = 1.0
            terms = im / diff
            terms[i] = 0.0
            rec[k] = (terms.sum() * dw + 2 * dw * dim[i]) / math.pi
        scale = np.abs(re[sel]).max()
        assert np.abs(rec - re[sel]).max() < 0.02 * scale


def _three_level(gaps, pops, amps):
    total = sum(pops)
    return MultilevelModel(
        levels=[(0.0, pops[0] / total), (gaps[0], pops[1] / total),
                (gaps[0] + gaps[1], pops[2] / total)],
        dipoles=[(1, 2, amps[0]), (2, 3, amps[1]), (1, 3, amps[2])],
        n_emitters=1.0,
        g_scale=1.0,
        gamma=0.3,
    )


_POSITIVE = st.floats(0.1, 3.0)
# The TLS line sits at omega_exc >= 0.2 with beta >= 0.1 or 0: tanh(beta*w/2)
# and p_g - p_e then differ by ulps relative to chi (by eps / (beta*w) in
# general, which only a vanishing beta*w makes large).
_LINE_MODELS = st.one_of(
    st.builds(
        TlsEnsemble,
        n_emitters=_POSITIVE,
        g=st.floats(0.0, 3.0),
        omega_exc=st.floats(0.2, 3.0),
        beta=st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.1, 10.0)),
        gamma=st.floats(0.05, 2.0),
    ),
    st.builds(
        VibronicModel,
        n_emitters=_POSITIVE,
        g=_POSITIVE,
        omega_exc=st.floats(-3.0, 3.0),
        omega_v=st.floats(0.1, 1.0),
        huang_rhys=st.floats(0.0, 4.0),
        gamma=st.floats(0.05, 1.0),
        m_max=st.one_of(st.none(), st.integers(0, 30)),
    ),
    st.builds(
        _three_level,
        gaps=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
        pops=st.tuples(*[st.floats(0.01, 1.0)] * 3),
        amps=st.tuples(*[st.floats(0.1, 2.0)] * 3),
    ),
)


class TestLineModelProperties:
    @settings(derandomize=True, deadline=None)
    @given(m=_LINE_MODELS)
    def test_chi_is_the_pole_sum_of_transitions(self, m):
        g = make_grid(-4.0, 8.0, 601)
        chi = m.chi(g).values
        poles = chi_multilevel(m.transitions(), g).values
        assert np.abs(chi - poles).max() <= 1e-12 * np.abs(chi).max()

    @settings(derandomize=True, deadline=None)
    @given(m=_LINE_MODELS)
    def test_mirror_completed_set_is_conjugate_symmetric(self, m):
        g = make_grid(-8.0, 8.0, 1025)  # spacing 1/64: every point's mirror is on the grid
        v = chi_multilevel(with_mirror_transitions(m.transitions()), g).values
        assert np.abs(v[::-1] - np.conj(v)).max() <= 1e-12 * np.abs(v).max()

    @settings(derandomize=True, deadline=None)
    @given(m=_LINE_MODELS)
    def test_lines_are_held_and_match_a_set_built_from_the_inputs(self, m):
        ts = m.transitions()
        assert ts is m.transitions()
        rebuilt = TransitionSet.from_arrays(*_lines_from_inputs(m))
        for name in Transition._fields:
            assert getattr(ts, name).tobytes() == getattr(rebuilt, name).tobytes(), name

    @settings(derandomize=True, deadline=None)
    @given(m=_LINE_MODELS)
    def test_held_lines_leave_equality_repr_replace_and_config_alone(self, m):
        twin = dataclasses.replace(m)
        assert twin.transitions() is not m.transitions()  # a set compares by identity
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
        assert "_lines" not in repr(m)
        wider = dataclasses.replace(m, gamma=2 * m.gamma)
        assert np.array_equal(wider.transitions().gamma, 2 * m.transitions().gamma)
        s = dataclasses.replace(parse_scenario(preset_config("fig2a")), model=m)
        cfg = scenario_to_config(s)
        assert "_lines" not in cfg["model"]
        assert parse_scenario(cfg) == s

    def test_disordered_base_is_built_once(self):
        d = parse_scenario(preset_config("fig3a")).model
        assert isinstance(d, DisorderedTls)
        assert d.base is d.base
        assert d.base == TlsEnsemble(d.n_emitters, d.g, d.disorder.center, math.inf, d.gamma)
        twin = dataclasses.replace(d)
        assert twin.base is not d.base
        assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
        assert "base" not in repr(d)
        s = parse_scenario(preset_config("fig3a"))
        assert "base" not in scenario_to_config(s)["model"]
        assert parse_scenario(scenario_to_config(s)) == s

    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(lambda: TlsEnsemble(1.0, 1e200, 1.0, math.inf, 0.3),
                         "n_emitters * g**2", id="tls"),
            pytest.param(lambda: VibronicModel(1e300, 1e10, 0.0, 0.3, 3.0, 0.1),
                         "n_emitters * g**2", id="vibronic"),
            pytest.param(lambda: MultilevelModel(((0.0, 0.5), (1.0, 0.5)), ((1, 2, 1e200),),
                                                 1.0, 1.0, 0.3),
                         "n_emitters * g_scale**2 * amplitude**2", id="multilevel"),
        ],
    )
    def test_overflowing_weight_is_refused_when_built(self, build, name):
        with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be finite$"):
            build()


def _lines_from_inputs(m):
    """The line arrays of a line model, assembled here from its inputs."""
    if isinstance(m, TlsEnsemble):
        p_g, p_e = thermal_populations(m.beta, m.omega_exc)
        return [m.omega_exc], [m.n_emitters * m.g**2], [p_g], [p_e], [m.gamma]
    if isinstance(m, VibronicModel):
        w = _franck_condon_weights(m.huang_rhys, m.m_max)
        n = w.size
        return ((m.omega_exc - m.huang_rhys * m.omega_v) + np.arange(n) * m.omega_v,
                m.n_emitters * m.g**2 * w, np.ones(n), np.zeros(n), np.full(n, m.gamma))
    lv = m.levels
    return zip(*((lv[z - 1][0] - lv[y - 1][0], m.n_emitters * m.g_scale**2 * a**2,
                  lv[y - 1][1], lv[z - 1][1], m.gamma) for y, z, a in m.dipoles))


# A few damped lines (frequency, weight, linewidth) on both sides of zero.
_LINES = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 2.0), st.floats(0.5, 2.0)),
    min_size=1,
    max_size=4,
)
_MIRROR_GRID = make_grid(-4.0, 4.0, 257)  # spacing 1/32: mirror-exact, w = 0 on the grid
_J_GRID = make_grid(0.0, 8.0, 257)


def _density(lines):
    """Sum of positive-frequency Lorentzians, zero at w = 0 and below."""
    w = _J_GRID.points
    vals = sum(a * 0.5 * g / ((w - abs(c)) ** 2 + 0.25 * g**2) for c, a, g in lines)
    return RealSpectrum(_J_GRID, np.where(w > 0, vals, 0.0))


def _assert_reflection_exact(chi):
    v = chi.values
    assert np.array_equal(v[::-1], np.conj(v))
    assert v[_MIRROR_GRID.points == 0].imag[0] == 0.0


class TestTransformProperties:
    @settings(derandomize=True, deadline=None)
    @given(lines=_LINES)
    def test_correlation_transform_reflects_exactly(self, lines):
        tg = TimeGrid(40.0, 801)
        t = tg.times
        c = sum(a * np.exp((-1j * w - 0.5 * g) * t) for w, a, g in lines)
        _assert_reflection_exact(chi_from_correlation(CorrelationFunction(tg, c), _MIRROR_GRID))

    @settings(derandomize=True, deadline=None)
    @given(lines=_LINES, gamma_reg=st.floats(0.01, 0.5))
    def test_density_transform_reflects_exactly(self, lines, gamma_reg):
        _assert_reflection_exact(chi_from_spectral_density(_density(lines), _MIRROR_GRID, gamma_reg))

    @settings(derandomize=True, deadline=None)
    @given(lines=_LINES, gamma_reg=st.floats(0.01, 0.5))
    def test_density_transform_is_the_pole_sum_of_its_samples(self, lines, gamma_reg):
        J = _density(lines)
        trap = np.full(_J_GRID.n_points, _J_GRID.spacing)
        trap[[0, -1]] *= 0.5
        n = _J_GRID.n_points
        ts = TransitionSet.from_arrays(
            _J_GRID.points, trap * J.values / math.pi, np.ones(n), np.zeros(n),
            np.full(n, gamma_reg),
        )
        g = make_grid(0.0, 4.0, 129)
        chi = chi_from_spectral_density(J, g, gamma_reg).values
        poles = chi_multilevel(ts, g).values.copy()
        poles[0] = poles[0].real  # the reflection makes chi(0) real
        assert np.abs(chi - poles).max() <= 1e-12 * np.abs(chi).max()
