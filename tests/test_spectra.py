import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarispec.core import (
    ComplexSpectrum,
    GainWarning,
    NumericalError,
    ValidationError,
    local_maxima,
    make_grid,
)
from polarispec.cli import (
    main,
    parse_scenario,
    parse_sweep,
    preset_config,
    preset_names,
    run_scenario,
)
from polarispec.bathmap import BathMode, DiscretizedBath, discretize_bath, spectral_density_from_chi
from polarispec.spectra import (
    CavityParams,
    green_finite_n,
    photon_green_function,
    spectra_from_green,
    spectra_harmonic,
)
from polarispec.susceptibility import (
    DisorderSpec,
    MultilevelModel,
    TlsEnsemble,
    Transition,
    TransitionSet,
    VibronicModel,
    chi_disordered,
    chi_multilevel,
)

from oracles import landauer_transmission, resolvent_green


def _zero_chi(grid):
    return ComplexSpectrum(grid, np.zeros(grid.n_points, complex))


def _dense_arrowhead_green(bath, cav, grid):
    """Reference: photon element of (w - H)^-1 by a dense solve per frequency.

    H is the (1+M) x (1+M) single-excitation matrix with the photon on the
    first row and column (arrowhead form); (w*I - H) x = e_photon is solved
    at every frequency and only the photon component kept.
    """
    omega = grid.points
    size = len(bath) + 1
    couplings = np.array([m.coupling for m in bath.modes])
    h = np.diag(
        np.concatenate(
            (
                [cav.omega_ph - 0.5j * cav.kappa],
                [m.omega - 0.5j * m.gamma for m in bath.modes],
            )
        )
    )
    h[0, 1:] = -couplings
    h[1:, 0] = -couplings
    mats = omega[:, None, None] * np.eye(size)[None, :, :] - h[None, :, :]
    rhs = np.zeros((omega.size, size, 1), dtype=complex)
    rhs[:, 0, 0] = 1.0
    return np.linalg.solve(mats, rhs)[:, 0, 0]


def _random_bath(rng, n_modes):
    return DiscretizedBath(
        BathMode(float(w), float(g), float(y))
        for w, g, y in zip(
            rng.uniform(0.1, 4.0, n_modes),
            rng.uniform(0.0, 1.5, n_modes) / math.sqrt(n_modes),
            rng.uniform(0.02, 0.5, n_modes),
        )
    )


class TestCavityParams:
    def test_lossless_cavity_rejected(self):
        with pytest.raises(ValidationError):
            CavityParams(1.0, 0.0, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            CavityParams(1.0, -0.1, 0.2)

    def test_one_sided_cavity_allowed(self):
        cav = CavityParams(1.0, 0.1, 0.0)
        assert cav.kappa == pytest.approx(0.1)


class TestPhotonGreenFunction:
    def test_empty_cavity_pole(self):
        g = make_grid(-1, 1, 5)
        cav = CavityParams(0.0, 0.05, 0.05)
        D = photon_green_function(_zero_chi(g), cav)
        assert D.values[2] == pytest.approx(-20j, abs=1e-12)

    def test_two_level_denominator_structure(self):
        g = make_grid(-4, 4, 801)
        m = TlsEnsemble(1.0, 2.0, 0.5, math.inf, 0.3)
        cav = CavityParams(0.0, 0.05, 0.05)
        D = photon_green_function(m.chi(g), cav)
        w = g.points
        expected_inverse = (w + 0.05j) - 4.0 / (w - 0.5 + 0.15j)
        assert np.abs(1.0 / D.values - expected_inverse).max() < 1e-12

    def test_far_detuned_asymptotics(self):
        g = make_grid(50.0, 400.0, 101)
        cav = CavityParams(0.0, 0.05, 0.05)
        D = photon_green_function(_zero_chi(g), cav)
        rel = np.abs(D.values - 1.0 / g.points) * g.points
        assert rel.max() < 0.01


class TestPortFormulas:
    def test_symmetric_empty_cavity_transmits_fully_on_resonance(self):
        g = make_grid(-1, 1, 5)
        cav = CavityParams(0.0, 0.05, 0.05)
        tra = spectra_from_green(photon_green_function(_zero_chi(g), cav), cav)
        assert tra.transmission.values[2] == pytest.approx(1.0, abs=1e-12)
        assert tra.reflection.values[2] == pytest.approx(0.0, abs=1e-12)
        assert tra.absorption.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_energy_balance_for_random_propagators(self):
        rng = np.random.default_rng(11)
        g = make_grid(-3, 3, 257)
        for _ in range(20):
            cav = CavityParams(
                rng.uniform(-1, 1), rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
            )
            chi = ComplexSpectrum(
                g,
                rng.normal(size=g.n_points) + 1j * np.abs(rng.normal(size=g.n_points)),
            )
            tra = spectra_from_green(photon_green_function(chi, cav), cav)
            total = (
                tra.transmission.values + tra.reflection.values + tra.absorption.values
            )
            assert np.abs(total - 1.0).max() < 1e-12

    def test_harmonic_route_equals_green_route(self):
        g = make_grid(-4, 4, 2001)
        cav = CavityParams(0.2, 0.07, 0.03)
        ts = TransitionSet(
            [
                Transition(1.0, 1.2, 0.9, 0.1, 0.3),
                Transition(2.2, 0.4, 0.8, 0.2, 0.2),
            ]
        )
        chi = chi_multilevel(ts, g)
        a = spectra_harmonic(chi, cav)
        b = spectra_from_green(photon_green_function(chi, cav), cav)
        for xa, xb in (
            (a.transmission, b.transmission),
            (a.reflection, b.reflection),
            (a.absorption, b.absorption),
        ):
            assert np.abs(xa.values - xb.values).max() < 1e-12

    def test_transparent_medium_absorbs_nothing(self):
        g = make_grid(-2, 2, 101)
        cav = CavityParams(0.0, 0.05, 0.05)
        tra = spectra_harmonic(_zero_chi(g), cav)
        assert np.all(tra.absorption.values == 0)

    def test_polariton_doublet(self):
        g = make_grid(-4, 4, 4001)
        cav = CavityParams(0.0, 0.05, 0.05)
        m = TlsEnsemble(1.0, 2.0, 0.0, math.inf, 0.3)
        tra = spectra_harmonic(m.chi(g), cav)
        peaks = local_maxima(tra.transmission)
        assert len(peaks) == 2
        assert abs(abs(peaks[0][0]) - 2.0) < 0.01
        assert abs(abs(peaks[1][0]) - 2.0) < 0.01

    def test_gain_medium_flags_negative_absorption(self):
        g = make_grid(-3, 3, 301)
        cav = CavityParams(0.0, 0.05, 0.05)
        inverted = TransitionSet([Transition(1.0, 0.5, 0.1, 0.9, 0.3)])
        chi = chi_multilevel(inverted, g)
        with pytest.warns(GainWarning):
            tra = spectra_harmonic(chi, cav)
        assert tra.absorption.values.min() < 0
        total = tra.transmission.values + tra.reflection.values + tra.absorption.values
        assert np.abs(total - 1.0).max() < 1e-12

    def test_passive_medium_bounds(self):
        rng = np.random.default_rng(5)
        g = make_grid(-4, 4, 401)
        spectra = []
        for _ in range(25):
            cav = CavityParams(
                rng.uniform(-0.5, 0.5), rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
            )
            ts = TransitionSet(
                [
                    Transition(
                        rng.uniform(0.2, 3.0),
                        rng.uniform(0.1, 3.0),
                        0.9,
                        0.1,
                        rng.uniform(0.05, 0.5),
                    )
                ]
            )
            spectra.append(spectra_harmonic(chi_multilevel(ts, g), cav))
        # the finite_n route of run_scenario, on a lab-frame line
        cfg = {
            "cavity": {"omega_ph": 2.0, "kappa_L": 0.07, "kappa_R": 0.03},
            "model": {"kind": "tls", "n_emitters": 1.0, "g": 1.0, "omega_exc": 2.0,
                      "beta": "inf", "gamma": 0.3},
            "grid": {"omega_min": -4.0, "omega_max": 8.0, "n_points": 2001},
        }
        for n_modes in (16, 256):
            cfg["method"] = {"kind": "finite_n", "n_modes": n_modes}
            spectra.append(run_scenario(parse_scenario(cfg)))
        for tra in spectra:
            assert tra.absorption.values.min() >= -1e-14
            assert tra.transmission.values.min() >= 0
            assert tra.transmission.values.max() <= 1 + 1e-14


class TestRabiSplitting:
    def test_splitting_follows_thermal_coupling(self):
        g = make_grid(-4, 6, 5001)
        cav = CavityParams(1.0, 0.05, 0.05)
        previous = np.inf
        for beta in (math.inf, 2.0, 1.0, 0.5, 0.25):
            m = TlsEnsemble(1.0, 2.0, 1.0, beta, 0.3)
            tra = spectra_harmonic(m.chi(g), cav)
            peaks = local_maxima(tra.transmission)
            assert len(peaks) == 2
            split = peaks[-1][0] - peaks[0][0]
            expected = 2.0 * math.sqrt(
                4.0 * (1.0 if math.isinf(beta) else math.tanh(beta / 2))
            )
            assert abs(split - expected) / expected < 0.02
            assert split <= previous + 1e-12
            previous = split

    def test_saturated_ensemble_single_peak(self):
        g = make_grid(-4, 6, 5001)
        cav = CavityParams(1.0, 0.05, 0.05)
        m = TlsEnsemble(1.0, 2.0, 1.0, 0.0, 0.3)
        tra = spectra_harmonic(m.chi(g), cav)
        assert len(local_maxima(tra.transmission)) == 1


class TestFiniteBathGreenFunction:
    def test_single_mode_matches_closed_form(self):
        g = make_grid(-4, 4, 1601)
        cav = CavityParams(0.0, 0.05, 0.05)
        mode = BathMode(0.5, 1.7, 0.3)
        bath = DiscretizedBath([mode])
        D = green_finite_n(bath, cav, g)
        w = g.points
        den_mol = w - 0.5 + 0.15j
        ref = den_mol / ((w + 0.05j) * den_mol - 1.7**2)
        assert np.abs(D.values - ref).max() < 1e-12

    def test_weak_coupling_reduces_to_empty_cavity(self):
        g = make_grid(-2, 2, 401)
        cav = CavityParams(0.0, 0.05, 0.05)
        bath = DiscretizedBath([BathMode(0.5, 1e-8, 0.3)])
        D = green_finite_n(bath, cav, g)
        D0 = photon_green_function(_zero_chi(g), cav)
        assert np.abs(D.values - D0.values).max() < 1e-10

    def test_discretized_line_converges_to_closed_route(self):
        m = TlsEnsemble(1.0, 1.0, 2.0, math.inf, 2.0)
        cav = CavityParams(2.0, 0.025, 0.025)
        g = make_grid(-4, 4, 2001)
        t_ref = spectra_harmonic(m.chi(g), cav).transmission.values
        jg = make_grid(0.0, 8.0, 8001)
        J = spectral_density_from_chi(m.chi(jg))
        devs = []
        for n_modes in (4, 16, 64):
            bath = discretize_bath(J, n_modes)
            tra = spectra_from_green(green_finite_n(bath, cav, g), cav)
            devs.append(np.abs(tra.transmission.values - t_ref).max())
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-3

    @pytest.mark.parametrize("n_modes", [1, 8, 64])
    def test_matches_dense_arrowhead_solve(self, n_modes):
        g = make_grid(-2.0, 6.0, 2001)
        cav = CavityParams(2.0, 0.05, 0.03)
        bath = _random_bath(np.random.default_rng(n_modes), n_modes)
        D = green_finite_n(bath, cav, g)
        assert np.abs(D.values - _dense_arrowhead_green(bath, cav, g)).max() <= 1e-12

    def test_large_bath_converges_to_thermodynamic_limit(self):
        # Gaussian-disordered lab-frame line: the finite route approaches
        # the harmonic one as the bath grows to thousands of modes
        m = TlsEnsemble(1.0, 1.0, 4.0, math.inf, 1e-3)
        d = DisorderSpec("gaussian", 4.0, 0.4)
        cav = CavityParams(4.0, 0.05, 0.05)
        J = spectral_density_from_chi(chi_disordered(m, d, make_grid(1e-3, 8.0, 64001)))
        g = make_grid(2.0, 6.0, 2001)
        t_ref = spectra_harmonic(chi_disordered(m, d, g), cav).transmission.values
        devs = []
        for n_modes in (16, 64, 256, 1024, 4096):
            D = green_finite_n(discretize_bath(J, n_modes), cav, g)
            devs.append(np.abs(spectra_from_green(D, cav).transmission.values - t_ref).max())
        assert all(a > b for a, b in zip(devs, devs[1:])), devs
        assert devs[-1] < 0.025


_PROPERTY_GRID = make_grid(-4.0, 12.0, 801)


class TestFiniteBathIdentities:
    @settings(derandomize=True, deadline=None)
    @given(
        modes=st.lists(
            st.tuples(
                st.floats(1e-3, 10.0),  # omega_k > 0
                st.floats(0.0, 3.0),  # g_k >= 0
                st.floats(1e-3, 2.0),  # gamma_k > 0
            ),
            min_size=1,
            max_size=16,
        ),
        cavity=st.tuples(
            st.floats(-2.0, 10.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
        ).filter(lambda c: c[1] + c[2] >= 1e-3),
    )
    def test_energy_balance_passivity_and_landauer(self, modes, cavity):
        bath = DiscretizedBath(BathMode(*mode) for mode in modes)
        cav = CavityParams(*cavity)
        D = green_finite_n(bath, cav, _PROPERTY_GRID)
        tra = spectra_from_green(D, cav)
        t = tra.transmission.values
        a = tra.absorption.values
        assert np.abs(t + tra.reflection.values + a - 1.0).max() <= 1e-12
        assert a.min() >= -1e-12
        assert t.min() >= 0.0 and t.max() <= 1.0 + 1e-12
        assert np.abs(landauer_transmission(D, cav).values - t).max() <= 1e-12


class TestLandauer:
    def test_identity_with_port_product(self):
        g = make_grid(-4, 4, 2001)
        cav = CavityParams(0.3, 0.08, 0.02)
        m = TlsEnsemble(1.0, 1.5, 0.5, math.inf, 0.4)
        D = photon_green_function(m.chi(g), cav)
        t_trace = landauer_transmission(D, cav)
        t_port = spectra_from_green(D, cav).transmission
        assert np.abs(t_trace.values - t_port.values).max() < 1e-12

    def test_identity_for_finite_bath(self):
        g = make_grid(-4, 4, 801)
        cav = CavityParams(0.0, 0.05, 0.05)
        bath = DiscretizedBath([BathMode(0.5, 1.2, 0.3)])
        D = green_finite_n(bath, cav, g)
        t_trace = landauer_transmission(D, cav)
        t_port = spectra_from_green(D, cav).transmission
        assert np.abs(t_trace.values - t_port.values).max() < 1e-12

    def test_empty_cavity_linewidth(self):
        # transmission through a bare cavity is a Lorentzian of FWHM kappa
        g = make_grid(-1, 1, 20001)
        cav = CavityParams(0.0, 0.05, 0.05)
        D = photon_green_function(_zero_chi(g), cav)
        t = landauer_transmission(D, cav).values
        w = g.points
        half = t.max() / 2
        # the half-maximum points may fall on grid points, where a 1-ulp
        # rounding of T decides whether they count; interpolate instead
        above = np.nonzero(t >= half)[0]
        lo, hi = above[0], above[-1]
        left = np.interp(half, t[lo - 1 : lo + 1], w[lo - 1 : lo + 1])
        right = np.interp(half, t[hi : hi + 2][::-1], w[hi : hi + 2][::-1])
        fwhm = right - left
        assert fwhm == pytest.approx(cav.kappa, rel=1e-3)


def _line_presets():
    """(tag, model, cavity, grid) of every preset scenario, sweep values included, with lines."""
    for name in preset_names():
        cfg = preset_config(name)
        scenarios = parse_sweep(cfg).scenarios if "base" in cfg else [parse_scenario(cfg)]
        for i, s in enumerate(scenarios):
            if s.model.transitions() is not None:
                yield f"{name}[{i}]", s.model, s.cavity, s.grid


@st.composite
def _line_models(draw):
    """A passive TLS, vibronic progression or multilevel ladder of at most 200 lines."""
    n, g = draw(st.floats(0.1, 4.0)), draw(st.floats(0.0, 2.0))
    w0, gamma = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 1.0))
    kind = draw(st.sampled_from(["tls", "vibronic", "multilevel"]))
    if kind == "tls":  # a thermal line below w = 0 would be inverted
        beta = draw(st.one_of(st.just(math.inf), st.floats(0.0, 20.0))) if w0 > 0 else math.inf
        return TlsEnsemble(n, g, w0, beta, gamma)
    if kind == "vibronic":  # every line within about 8 of w0
        w_v = draw(st.floats(0.02, 1.0))
        m_max = draw(st.one_of(st.none(), st.integers(0, min(199, int(6.0 / w_v)))))
        s = draw(st.floats(0.0, min(60.0, 3.0 / w_v)))
        return VibronicModel(n, g, w0, w_v, s, gamma, m_max)
    k = draw(st.integers(2, 6))
    energies = np.cumsum([w0] + draw(st.lists(st.floats(0.05, 2.0), min_size=k - 1,
                                              max_size=k - 1)))
    # populations fall with energy, so every uphill dipole is passive
    pops = np.sort(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))[::-1]
    pops /= pops.sum()
    pairs = [(y, z) for y in range(1, k + 1) for z in range(y + 1, k + 1)]
    dipoles = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
    return MultilevelModel(
        tuple(zip(energies.tolist(), pops.tolist())),
        tuple((y, z, draw(st.floats(0.1, 2.0))) for y, z in dipoles),
        n, g, gamma,
    )


class TestResolventOracle:
    """D, T, R and A of a line model against the coupled-oscillator resolvent.

    The oracle diagonalizes the photon-plus-lines matrix once
    (:func:`oracles.resolvent_green`), and T, R, A follow from its D by the
    port formulas; the package evaluates chi as a pole sum and T/R/A from chi.
    The oracle's rounding grows with the span of the line frequencies over
    the narrowest width, so the drawn lines stay within about 8 of each
    other; there its error stays near 1e-13 of max|D| (at most 1.3e-13
    over 1,500 random draws and the 200-line example).
    """

    @staticmethod
    def _check(model, cav, grid):
        """cond(V) of the oracle; D and T/R/A must match unless it exceeds 1e6."""
        d_ref, cond = resolvent_green(model.transitions(), cav, grid.points)
        if cond > 1e6:  # near an exceptional point the pole expansion loses digits
            return cond
        chi = model.chi(grid)
        d = photon_green_function(chi, cav).values
        assert np.abs(d - d_ref).max() <= 1e-12 * np.abs(d_ref).max()
        tra, ref = spectra_harmonic(chi, cav), spectra_from_green(ComplexSpectrum(grid, d_ref), cav)
        for f in ("transmission", "reflection", "absorption"):
            assert np.abs(getattr(tra, f).values - getattr(ref, f).values).max() <= 1e-12
        return cond

    def test_every_line_preset(self):
        tags = []
        for tag, model, cav, grid in _line_presets():
            assert self._check(model, cav, grid) <= 1e6, tag
            tags.append(tag)
        assert len(tags) == 11  # fig2a, fig2b's six betas, fig4, fig5a/b/c

    def test_line_models(self):
        grid = make_grid(-6.0, 6.0, 601)
        conds = []

        @settings(derandomize=True, deadline=None, max_examples=40)
        @given(model=_line_models(),
               cavity=st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 0.5), st.floats(0.01, 0.5)))
        @example(model=VibronicModel(4.0, 2.0, 0.5, 0.03, 20.0, 0.01, 199), cavity=(1.0, 0.01, 0.01))
        def check(model, cavity):
            conds.append(self._check(model, CavityParams(*cavity), grid))

        check()
        skipped = sum(c > 1e6 for c in conds)
        assert skipped <= len(conds) // 10, f"{skipped} of {len(conds)} draws near an exceptional point"


class TestNumericalGuards:
    def test_vanishing_denominator_reported(self):
        # a gain pole: Im chi(omega_ph) = -kappa/2 cancels the cavity loss, so den = 0
        g = make_grid(-1, 1, 3)
        cav = CavityParams(0.0, 0.05, 0.05)
        chi = ComplexSpectrum(g, np.full(3, -0.05j))
        for route in (photon_green_function, spectra_harmonic):
            with pytest.raises(NumericalError, match=r"vanishes at w = 0 \(\|den\| = 0\.000e\+00"):
                route(chi, cav)

    def test_tiny_passive_cavity_runs(self):
        # |den| >= kappa/2 for a passive chi: a cavity of kappa = 2e-16 is no pole
        g = make_grid(-1, 1, 3)
        cav = CavityParams(0.0, 1e-16, 1e-16)
        tra = spectra_harmonic(_zero_chi(g), cav)
        assert tra.transmission.values[1] == 1.0
        assert tra.transmission.values[[0, 2]].max() < 1e-31
        assert photon_green_function(_zero_chi(g), cav).values[1] == -1e16j

    @staticmethod
    def _fig2a_scaled(s, kappa_R=0.05):
        """fig2a with every frequency (cavity, line, grid) multiplied by ``s``."""
        cfg = preset_config("fig2a")
        cfg["cavity"] = {"omega_ph": 0.0, "kappa_L": 0.05 * s, "kappa_R": kappa_R * s}
        for key in ("g", "omega_exc", "gamma"):
            cfg["model"][key] *= s
        cfg["grid"].update(omega_min=-4.0 * s, omega_max=4.0 * s)
        return cfg

    @pytest.mark.parametrize("s", [1e-150, 1e150])
    def test_scale_free_while_every_square_is_normal(self, s):
        want = run_scenario(parse_scenario(self._fig2a_scaled(1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_scenario(parse_scenario(self._fig2a_scaled(s)))
        for name in ("transmission", "reflection", "absorption"):
            diff = getattr(got, name).values - getattr(want, name).values
            assert np.abs(diff).max() < 1e-14

    # |den|**2 is subnormal at 1e-160 and zero at 1e-200 and 1e-300
    @pytest.mark.parametrize("kappa_R", [0.05, 0.0], ids=["two-port", "one-port"])
    @pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300])
    def test_underflowing_propagator_is_refused_by_name(self, s, kappa_R):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"\|den\|\*\*2 = .* underflows at w = "):
                run_scenario(parse_scenario(self._fig2a_scaled(s, kappa_R)))

    def test_subnormal_port_product_over_a_normal_denominator_runs(self):
        # kappa_L * kappa_R = 2.2e-311 is subnormal, but |den|**2 >= 1/4 is not
        g = make_grid(-1, 1, 3)
        tra = spectra_harmonic(_zero_chi(g), CavityParams(0.0, 1.0, 2.225073858507e-311))
        assert 0 < tra.transmission.values.max() < 1e-310
        assert np.abs(tra.transmission.values + tra.reflection.values
                      + tra.absorption.values - 1).max() < 1e-15

    @pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300])
    def test_underflow_is_one_error_line(self, tmp_path, capsys, s):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(self._fig2a_scaled(s)))
        assert main(["spectrum", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: photon propagator \|den\|\*\*2 = \S+ underflows [^\n]*\n", captured.err)

    def test_gain_pole_below_the_scale_test_is_still_a_pole(self):
        # at 1e-150, 1e-28 * scale**2 underflows to 0, so only den == 0 finds the pole
        s = 1e-150
        g = make_grid(-s, s, 3)
        chi = ComplexSpectrum(g, np.full(3, -0.05j * s))
        with pytest.raises(NumericalError, match=r"vanishes at w = 0 \(\|den\| = 0\.000e\+00"):
            spectra_harmonic(chi, CavityParams(0.0, 0.1 * s, 0.0))
