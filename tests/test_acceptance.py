"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import math
import time
import warnings

import numpy as np
from scipy.integrate import quad

from polarispec.core import (
    AccuracyWarning,
    RealSpectrum,
    TimeGrid,
    local_maxima,
    make_grid,
)
from polarispec.bathmap import (
    correlation_from_transitions,
    discretize_bath,
    effective_temperature,
    reconstruct_correlation,
    spectral_density_from_chi,
    surrogate_bath,
)
from polarispec.cli import (
    TabulatedChi,
    model_susceptibility,
    parse_scenario,
    parse_sweep,
    peak_splitting,
    preset_config,
    preset_names,
    run_scenario,
    run_sweep,
)
from polarispec.spectra import (
    CavityParams,
    green_finite_n,
    photon_green_function,
    spectra_from_green,
    spectra_harmonic,
)
from polarispec.susceptibility import (
    DisorderSpec,
    Transition,
    TransitionSet,
    TlsEnsemble,
    chi_disordered,
    chi_multilevel,
    vibronic_transitions,
    with_mirror_transitions,
)

from oracles import landauer_transmission


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_energy_identity():
    rng = np.random.default_rng(20240901)
    grid = make_grid(-5.0, 5.0, 201)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        kappa_l = rng.uniform(1e-3, 1.0)
        kappa_r = rng.uniform(1e-3, 1.0)
        cav = CavityParams(rng.uniform(-1, 1), kappa_l, kappa_r)
        transitions = []
        for _ in range(rng.integers(1, 4)):
            p_y = rng.uniform(0.5, 1.0)
            transitions.append(
                Transition(
                    rng.uniform(0.1, 3.0),
                    rng.uniform(0.0, 5.0),
                    p_y,
                    rng.uniform(0.0, p_y),
                    rng.uniform(0.05, 0.8),
                )
            )
        ts = TransitionSet(transitions)
        tra = spectra_harmonic(chi_multilevel(ts, grid), cav)
        total = (
            tra.transmission.values + tra.reflection.values + tra.absorption.values
        )
        worst = max(worst, float(np.abs(total - 1.0).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    _report(1, ok, f"max |T+R+A-1| = {worst:.3e} over 1000 scenarios in {elapsed:.2f}s")


def test_criterion_2_polariton_doublet():
    start = time.perf_counter()
    scenario = parse_scenario(preset_config("fig2a"))
    tra = spectra_harmonic(
        model_susceptibility(scenario.model, scenario.grid), scenario.cavity
    )
    t_peaks = local_maxima(tra.transmission)
    a_peaks = local_maxima(tra.absorption)
    elapsed = time.perf_counter() - start
    ok = (
        len(t_peaks) == 2
        and abs(abs(t_peaks[0][0]) - 2.0) <= 0.01
        and abs(abs(t_peaks[1][0]) - 2.0) <= 0.01
        and len(a_peaks) == 2
        and abs(abs(a_peaks[0][0]) - 2.0) <= 0.05
        and abs(abs(a_peaks[1][0]) - 2.0) <= 0.05
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"T maxima at {[f'{f:+.3f}' for f, _ in t_peaks]}, "
        f"A maxima at {[f'{f:+.3f}' for f, _ in a_peaks]} in {elapsed:.2f}s",
    )


def test_criterion_3_rabi_contraction(tmp_path):
    sweep = parse_sweep(preset_config("fig2b"))
    results = run_sweep(sweep, str(tmp_path))
    splittings = [peak_splitting(t) for t in results]
    betas = [math.inf if v == "inf" else float(v) for v in sweep.values]
    ok = True
    details = []
    for beta, split, tra in zip(betas, splittings, results):
        expected = 2.0 * math.sqrt(4.0 * math.tanh(0.5 * beta * 1.0))
        if expected > 0:
            ok &= abs(split - expected) / expected < 0.02
        else:
            ok &= split == 0.0 and len(local_maxima(tra.transmission)) == 1
        details.append(f"{split:.3f}/{expected:.3f}")
    ok &= all(a >= b - 1e-12 for a, b in zip(splittings, splittings[1:]))
    _report(3, ok, "measured/expected splitting per beta: " + " ".join(details))


def test_criterion_4_gaussian_disorder_oracle():
    m = TlsEnsemble(1.0, 1.5, 0.0, math.inf, 0.1)
    d = DisorderSpec("gaussian", 0.0, 1.0)
    grid = make_grid(-5.0, 5.0, 401)
    start = time.perf_counter()
    chi = chi_disordered(m, d, grid)
    elapsed = time.perf_counter() - start
    ngg = m.n_emitters * m.g**2

    def dens(x):
        return math.exp(-0.5 * (x / d.sigma) ** 2) / (d.sigma * math.sqrt(2 * math.pi))

    lo, hi = -14.0 * d.sigma, 14.0 * d.sigma
    worst = 0.0
    for i, w in enumerate(grid.points):
        def f_re(x):
            return (-ngg * dens(x) / (w - x + 0.5j * m.gamma)).real

        def f_im(x):
            return (-ngg * dens(x) / (w - x + 0.5j * m.gamma)).imag

        pts = [w] if lo < w < hi else None
        kw = dict(points=pts, limit=200, epsabs=1e-13, epsrel=1e-12)
        ref = quad(f_re, lo, hi, **kw)[0] + 1j * quad(f_im, lo, hi, **kw)[0]
        worst = max(worst, abs(chi.values[i] - ref) / abs(ref))
    ok = worst < 1e-8 and elapsed < 2.0
    _report(4, ok, f"max relative deviation {worst:.3e} in {elapsed:.2f}s")


def test_criterion_5_lorentzian_disorder_closed_form():
    grid = make_grid(-5.0, 5.0, 4001)
    cav = CavityParams(0.0, 0.05, 0.05)
    m = TlsEnsemble(1.0, 1.5, 0.0, math.inf, 0.1)
    chi_dis = chi_disordered(m, DisorderSpec("lorentzian", 0.0, 1.0), grid)
    chi_eff = TlsEnsemble(1.0, 1.5, 0.0, math.inf, 0.1 + 1.0).chi(grid)
    a = spectra_harmonic(chi_dis, cav)
    b = spectra_harmonic(chi_eff, cav)
    worst = max(
        float(np.abs(x.values - y.values).max())
        for x, y in (
            (a.transmission, b.transmission),
            (a.reflection, b.reflection),
            (a.absorption, b.absorption),
        )
    )
    ok = worst < 1e-12
    _report(5, ok, f"max pointwise spectra difference {worst:.3e}")


def test_criterion_6_vibronic_ladder():
    scenario = parse_scenario(preset_config("fig4"))
    chi = model_susceptibility(scenario.model, scenario.grid)
    im = RealSpectrum(scenario.grid, chi.values.imag)
    peaks = local_maxima(im)
    positions = np.array([f for f, _ in peaks])
    spacing = scenario.grid.spacing
    expected = [0.0 - 3 * 0.3 + k * 0.3 for k in range(7)]
    found = all(np.abs(positions - e).min() <= spacing for e in expected)
    weights = [t.weight for t in vibronic_transitions(scenario.model)]
    weight_err = abs(sum(weights) - 1.0)
    ok = found and weight_err <= 1e-12
    _report(
        6,
        ok,
        f"ladder peaks found at all {len(expected)} expected positions, "
        f"|sum(weights)-1| = {weight_err:.2e}",
    )


def test_criterion_7_three_level_saturation():
    counts = []
    for name in ("fig5a", "fig5b", "fig5c"):
        scenario = parse_scenario(preset_config(name))
        tra = spectra_harmonic(
            model_susceptibility(scenario.model, scenario.grid), scenario.cavity
        )
        counts.append(len(local_maxima(tra.transmission)))
    scenario = parse_scenario(preset_config("fig5c"))
    tra_sat = spectra_harmonic(
        model_susceptibility(scenario.model, scenario.grid), scenario.cavity
    )
    empty = spectra_harmonic(
        model_susceptibility(TabulatedChi(None), scenario.grid), scenario.cavity
    )
    worst = float(
        np.abs(tra_sat.transmission.values - empty.transmission.values).max()
    )
    ok = counts == [4, 3, 1] and worst < 1e-12
    _report(
        7,
        ok,
        f"peak counts {counts}, saturated-vs-empty deviation {worst:.3e}",
    )


def test_criterion_8_finite_bath_equivalence():
    m = TlsEnsemble(1.0, 1.0, 2.0, math.inf, 2.0)
    cav = CavityParams(2.0, 0.025, 0.025)
    grid = make_grid(-4.0, 4.0, 4001)
    t_ref = spectra_harmonic(m.chi(grid), cav).transmission.values
    jgrid = make_grid(0.0, 8.0, 16001)
    J = spectral_density_from_chi(m.chi(jgrid))

    deviations = {}
    for n_modes in (1, 8, 64):
        bath = discretize_bath(J, n_modes)
        D = green_finite_n(bath, cav, grid)
        deviations[n_modes] = float(
            np.abs(spectra_from_green(D, cav).transmission.values - t_ref).max()
        )

    # one mode: the matrix solve must reproduce the closed 2x2 inverse
    mode = discretize_bath(J, 1).modes[0]
    D1 = green_finite_n(discretize_bath(J, 1), cav, grid).values
    w = grid.points
    den_mol = w - mode.omega + 0.5j * mode.gamma
    closed = den_mol / (
        (w - cav.omega_ph + 0.5j * cav.kappa) * den_mol - mode.coupling**2
    )
    closed_dev = float(np.abs(D1 - closed).max())

    ok = (
        closed_dev < 1e-12
        and deviations[64] < 1e-3
        and deviations[1] > deviations[8] > deviations[64]
    )
    _report(
        8,
        ok,
        f"single-mode closed-form deviation {closed_dev:.2e}; "
        f"|dT| M=1/8/64: {deviations[1]:.2e}/{deviations[8]:.2e}/"
        f"{deviations[64]:.2e}",
    )


def test_criterion_9_landauer_identity():
    worst = 0.0
    for name in preset_names():
        cfg = preset_config(name)
        if "base" in cfg:
            continue
        scenario = parse_scenario(cfg)
        chi = model_susceptibility(scenario.model, scenario.grid)
        D = photon_green_function(chi, scenario.cavity)
        t_trace = landauer_transmission(D, scenario.cavity).values
        t_port = spectra_from_green(D, scenario.cavity).transmission.values
        worst = max(worst, float(np.abs(t_trace - t_port).max()))
    # finite-bath propagator goes through the same identity
    m = TlsEnsemble(1.0, 1.0, 2.0, math.inf, 2.0)
    cav = CavityParams(2.0, 0.025, 0.025)
    grid = make_grid(-4.0, 4.0, 2001)
    jgrid = make_grid(0.0, 8.0, 8001)
    J = spectral_density_from_chi(m.chi(jgrid))
    for n_modes in (1, 64):
        D = green_finite_n(discretize_bath(J, n_modes), cav, grid)
        t_trace = landauer_transmission(D, cav).values
        t_port = spectra_from_green(D, cav).transmission.values
        worst = max(worst, float(np.abs(t_trace - t_port).max()))
    # and so does the finite_n route of run_scenario, on every absorbing preset
    for name in ("fig2a", "fig3a", "fig3b", "fig4", "fig5a", "fig5b"):
        cfg = preset_config(name)
        cfg["method"] = {"kind": "finite_n", "n_modes": 64}
        scenario = parse_scenario(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)  # rotating-frame presets
            t_route = run_scenario(scenario).transmission.values
            chi = model_susceptibility(scenario.model, scenario.grid)
            bath = surrogate_bath(chi, 64)
        D = green_finite_n(bath, scenario.cavity, scenario.grid)
        t_trace = landauer_transmission(D, scenario.cavity).values
        worst = max(worst, float(np.abs(t_trace - t_route).max()))
    ok = worst < 1e-12
    _report(9, ok, f"max |T_trace - T_port| = {worst:.3e} across presets")


def test_criterion_10_bath_map_round_trip():
    omega_exc, gamma, beta = 60.0, 0.01, 1.0 / 60.0
    m = TlsEnsemble(1.0, 1.0, omega_exc, beta, gamma)
    tg = TimeGrid(3.0 / gamma, 301)
    reference = correlation_from_transitions(
        with_mirror_transitions(m.transitions()), tg
    )
    n = 3_500_000
    jgrid = make_grid(140.0 / n, 140.0, n)
    J = spectral_density_from_chi(m.chi(jgrid))
    beta_eff = effective_temperature(m.transitions(), jgrid)
    center = int(round(omega_exc / (140.0 / n))) - 1
    beta_dev = abs(beta_eff.values[center] - beta)
    reconstructed = reconstruct_correlation(J, beta_eff, tg)
    rel = float(
        (np.abs(reconstructed.values - reference.values) / np.abs(reference.values)).max()
    )
    ok = rel < 1e-4 and beta_dev < 1e-9
    _report(
        10,
        ok,
        f"round-trip relative deviation {rel:.3e} over t in [0, 3/gamma]; "
        f"|beta_eff - beta| = {beta_dev:.2e} at the line center",
    )


def test_criterion_11_kramers_kronig():
    grid = make_grid(-4.0, 4.0, 4001)
    m = TlsEnsemble(1.0, 2.0, 0.0, math.inf, 0.3)
    chi = m.chi(grid)
    w = grid.points
    dw = grid.spacing
    im = chi.values.imag
    re = chi.values.real
    dim = np.gradient(im, dw)
    sel = np.nonzero((w >= -4.0 + 3 * 0.3) & (w <= 4.0 - 3 * 0.3))[0][::4]
    rec = np.empty(sel.size)
    for k, i in enumerate(sel):
        diff = w - w[i]
        diff[i] = 1.0
        terms = im / diff
        terms[i] = 0.0
        rec[k] = (terms.sum() * dw + 2 * dw * dim[i]) / math.pi
    scale = float(np.abs(re[sel]).max())
    worst = float(np.abs(rec - re[sel]).max())
    ok = worst < 0.02 * scale
    _report(
        11,
        ok,
        f"max |Re chi reconstruction error| {worst:.3e} vs 2% of scale "
        f"{scale:.3f}",
    )
