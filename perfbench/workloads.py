"""The benchmark's three workloads, built from a seed.

A workload is a warm-up op plus a round: a fixed list of ops, each a call
into polarispec (timed) and a check of its output (not timed).  A run
repeats whole rounds, so every run attempts the same mix.  The seed only
moves physical parameters and grid windows; sizes are fixed, so the cost
of a round does not depend on the seed.

Program functions are always reached through their module attribute
(``cli.main``, ``bathmap.reconstruct_correlation``) so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from polarispec import bathmap, cli, core, susceptibility

import checks as ck


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``check`` returns the number of output samples (T/R/A rows, chi or
    density rows, time samples) and raises on a wrong output.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], int]
    inputs: dict = field(default_factory=dict)  # what the call runs on (argv, config)
    outputs: tuple = ()  # files and directories the call writes


def remove_outputs(op: Op) -> None:
    """Delete an op's files once they are checked.

    A file deleted within seconds of being written is dropped from the page
    cache before the kernel writes it back, so the disk writes of one op do
    not land in the timing of a later one.
    """
    for path in op.outputs:
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif os.path.exists(path):
            os.remove(path)


def build(workload: str, seed: int, workdir: str) -> tuple[Op, list[Op]]:
    """(warm-up op, round) of a workload."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    if workload == "cli-large-grid":
        return _cli_large_grid(rng, workdir)
    if workload == "finite-bath":
        return _finite_bath(rng)
    if workload == "bath-dictionary":
        return _bath_dictionary(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# cli-large-grid


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _require_success(result, what: str) -> str:
    rc, out, err = result
    if rc != 0:
        raise ck.OpFailed(f"{what}: exit code {rc}: {err.strip()}")
    return out


def _check_tra_file(path, cfg, chi_ref, what, stdout=None, expected_peaks=None):
    """Round trip, port formulas, energy balance and (with stdout) peaks."""
    data = ck.read_csv(path, "omega,T,R,A")
    g = cfg["grid"]
    omega = np.linspace(g["omega_min"], g["omega_max"], g["n_points"])
    ck.check_round_trip(data[:, 0], omega, f"{what} omega")
    tra = cli.run_scenario(cli.parse_scenario(cfg))
    program = np.stack(
        [tra.transmission.values, tra.reflection.values, tra.absorption.values], axis=1
    )
    del tra
    ck.check_round_trip(data[:, 1:], program, f"{what} T/R/A")
    del program
    T, R, A = data[:, 1], data[:, 2], data[:, 3]
    ck.check_port(T, R, A, ck.port_spectra(omega, chi_ref, cfg["cavity"]), what)
    ck.check_energy(T, R, A, what)
    if stdout is not None:
        ck.check_peaks(stdout, omega, T, what, expected_peaks)
    return data


def _check_svg(path: str, what: str) -> None:
    with open(path) as fh:
        text = fh.read()
    ck.require(
        text.startswith("<svg") and text.count("<polyline") == 3 and text.rstrip().endswith("</svg>"),
        f"{what}: SVG is not a three-trace chart",
    )


def _windowed(name: str, n_points: int, rng, pad: float = 0.25) -> dict:
    cfg = cli.preset_config(name)
    grid = (cfg["base"] if "base" in cfg else cfg)["grid"]
    grid["n_points"] = n_points
    grid["omega_min"] -= float(rng.uniform(0.0, pad))
    grid["omega_max"] += float(rng.uniform(0.0, pad))
    return cfg


def _grid_args(grid: dict) -> list[str]:
    return [
        "--points", str(grid["n_points"]),
        f"--omega-min={grid['omega_min']!r}",
        f"--omega-max={grid['omega_max']!r}",
    ]


def _spectrum_op(tag, cfg, argv, csv, svg, expected_peaks=None, chi_ref=None) -> Op:
    def check(result):
        out = _require_success(result, tag)
        g = cfg["grid"]
        omega = np.linspace(g["omega_min"], g["omega_max"], g["n_points"])
        chi = chi_ref if chi_ref is not None else ck.chi_of_model(cfg["model"], omega)
        _check_tra_file(csv, cfg, chi, tag, out, expected_peaks)
        if svg:
            _check_svg(svg, tag)
        return g["n_points"]

    outputs = (csv, svg) if svg else (csv,)
    return Op(tag, lambda: run_cli(argv), check, {"argv": argv, "cfg": cfg, "csv": csv}, outputs)


def _preset_spectrum(name, n_points, rng, workdir, expected_peaks=None) -> Op:
    cfg = _windowed(name, n_points, rng)
    tag = f"spectrum {name} {n_points}"
    csv = os.path.join(workdir, f"{name}_{n_points}.csv")
    svg = os.path.join(workdir, f"{name}_{n_points}.svg")
    argv = ["spectrum", "--preset", name, *_grid_args(cfg["grid"]), "--out", csv, "--svg", svg]
    return _spectrum_op(tag, cfg, argv, csv, svg, expected_peaks)


def _default_spectrum(name, expected_peaks) -> Op:
    """``spectrum --preset <name>`` as typed: paper-size grid, no files."""
    cfg = cli.preset_config(name)
    tag = f"spectrum {name} default grid"

    def check(result):
        out = _require_success(result, tag)
        g = cfg["grid"]
        omega = np.linspace(g["omega_min"], g["omega_max"], g["n_points"])
        T = ck.port_spectra(omega, ck.chi_of_model(cfg["model"], omega), cfg["cavity"])[0]
        ck.check_peaks(out, omega, T, tag, expected_peaks)
        return 0  # prints the maxima only

    return Op(tag, lambda: run_cli(["spectrum", "--preset", name]), check)


def _sweep_op(n_points, rng, workdir) -> Op:
    cfg = _windowed("fig2b", n_points, rng)
    outdir = os.path.join(workdir, "sweep")
    argv = ["sweep", "--preset", "fig2b", *_grid_args(cfg["base"]["grid"]), "--outdir", outdir]
    tag = f"sweep fig2b {n_points}"

    def check(result):
        _require_success(result, tag)
        g = cfg["base"]["grid"]
        omega = np.linspace(g["omega_min"], g["omega_max"], g["n_points"])
        betas = [math.inf if v == "inf" else float(v) for v in cfg["values"]]
        want = []
        for i, value in enumerate(cfg["values"]):
            scenario = json.loads(json.dumps(cfg["base"]))
            scenario["model"]["beta"] = value
            data = _check_tra_file(
                os.path.join(outdir, f"sweep_{i:03d}.csv"),
                scenario,
                ck.chi_of_model(scenario["model"], omega),
                f"{tag} beta={value}",
            )
            want.append(ck.splitting(omega, data[:, 1]))
        summary = ck.read_csv(os.path.join(outdir, "summary.csv"), "value,peak_splitting")
        ck.require(summary[:, 0].tolist() == betas, f"{tag}: summary values {summary[:, 0]}")
        got = summary[:, 1].tolist()
        ck.require(got == want, f"{tag}: splittings {got}, reference {want}")
        ck.require(
            all(a > b for a, b in zip(got, got[1:])) and got[-1] == 0.0,
            f"{tag}: splitting must shrink as beta falls and vanish at beta = 0: {got}",
        )
        return len(betas) * g["n_points"]

    return Op(tag, lambda: run_cli(argv), check, outputs=(outdir,))


def _bundle_op(n_points, rng, workdir) -> Op:
    cfg = _windowed("fig5a", n_points, rng)
    outdir = os.path.join(workdir, "bundle")
    argv = ["bundle", "--preset", "fig5a", *_grid_args(cfg["grid"]), "--outdir", outdir]
    tag = f"bundle fig5a {n_points}"
    model = cfg["model"]

    def check(result):
        _require_success(result, tag)
        g = cfg["grid"]
        omega = np.linspace(g["omega_min"], g["omega_max"], g["n_points"])
        scenario = cli.parse_scenario(cfg)
        program = cli.model_susceptibility(scenario.model, scenario.grid).values
        chi = ck.read_csv(os.path.join(outdir, "chi.csv"), "omega,re_chi,im_chi")
        ck.check_round_trip(chi[:, 0], omega, f"{tag} chi omega")
        ck.check_round_trip(chi[:, 1:], np.stack([program.real, program.imag], axis=1), f"{tag} chi")
        chi_ref = ck.chi_of_model(model, omega)
        ck.check_close(chi[:, 1] + 1j * chi[:, 2], chi_ref, 1e-12, f"{tag} chi vs three poles")
        jeff = ck.read_csv(os.path.join(outdir, "j_eff.csv"), "omega,j_eff")
        ck.check_round_trip(jeff[:, 0], omega, f"{tag} j_eff omega")
        want = np.where(omega >= 0, np.maximum(chi[:, 2], 0.0), 0.0)
        ck.check_round_trip(jeff[:, 1], want, f"{tag} j_eff = Im chi on w >= 0")
        beta = ck.read_csv(os.path.join(outdir, "beta_eff.csv"), "omega,beta_eff")
        pos = omega[omega > 0]
        ck.require(
            beta.shape[0] == pos.size and np.abs(beta[:, 0] - pos).max() <= 1e-12 * abs(pos[-1]),
            f"{tag}: beta_eff grid is not the positive part of the scenario grid",
        )
        levels, lines = model["levels"], []
        for y, z, amp in model["dipoles"]:
            (w_y, p_y), (w_z, p_z) = levels[y - 1], levels[z - 1]
            lines.append((w_z - w_y, model["n_emitters"] * model["g_scale"] ** 2 * amp**2, p_y, p_z, model["gamma"]))
        ck.check_close(beta[:, 1], ck.beta_eff_of_lines(beta[:, 0], lines), 1e-10, f"{tag} beta_eff")
        _check_tra_file(os.path.join(outdir, "spectra.csv"), cfg, chi_ref, f"{tag} spectra")
        return 3 * omega.size + pos.size

    return Op(tag, lambda: run_cli(argv), check, outputs=(outdir,))


def _tabulated_op(n_points, rng, workdir) -> Op:
    lo, hi = -4.0 - float(rng.uniform(0, 0.25)), 4.0 + float(rng.uniform(0, 0.25))
    omega = np.linspace(lo, hi, n_points)
    poles = [
        (float(rng.uniform(-1.5, -0.5)), float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.1, 0.4))),
        (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.1, 0.4))),
    ]
    chi = ck.chi_poles(omega, poles)
    chi_path = os.path.join(workdir, "tabulated_chi.csv")
    np.savetxt(
        chi_path, np.stack([omega, chi.real, chi.imag], axis=1),
        fmt="%.16e", delimiter=",", header="omega,re_chi,im_chi", comments="",
    )
    cfg = {
        "cavity": {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05},
        "model": {"kind": "tabulated_chi", "path": chi_path},
        "grid": {"omega_min": lo, "omega_max": hi, "n_points": n_points},
        "method": "harmonic",
    }
    cfg_path = os.path.join(workdir, "tabulated.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    csv = os.path.join(workdir, "tabulated.csv")
    svg = os.path.join(workdir, "tabulated.svg")
    argv = ["spectrum", "--config", cfg_path, "--out", csv, "--svg", svg]
    return _spectrum_op(f"spectrum tabulated_chi {n_points}", cfg, argv, csv, svg, chi_ref=chi)


def _empty_cavity_op(workdir) -> Op:
    # Fixed input, independent of the seed: an even grid puts the bare
    # cavity's peak between two samples of equal T.
    cfg = cli.preset_config("empty_cavity")
    cfg["grid"]["n_points"] = 100_000
    csv = os.path.join(workdir, "empty_cavity.csv")
    argv = ["spectrum", "--preset", "empty_cavity", "--points", "100000", "--out", csv]
    return _spectrum_op("spectrum empty_cavity 100000", cfg, argv, csv, None, expected_peaks=1)


def _cli_large_grid(rng, workdir):
    n = 100_001
    # The warm-up writes a 1e5-point CSV, so the first timed spectra do not
    # pay the process's first growth of its heap.
    warm_csv = os.path.join(workdir, "warm-up.csv")
    warm_argv = ["spectrum", "--preset", "fig2a", "--points", str(n), "--out", warm_csv]
    warm = Op("warm-up spectrum fig2a 100001", lambda: run_cli(warm_argv), lambda r: 0, outputs=(warm_csv,))
    # Cheap default-grid calls, a middle group of 1e5-point spectra and five
    # heavy ops: the run's median op falls inside the middle group, so it
    # does not jump between ops of different cost from run to run.  The
    # middle group is spread between the heavy ops, so the median samples
    # the machine's speed over the whole round, not over one stretch of it.
    peaks = {"fig2a": 2, "fig3a": 2, "fig3b": 2, "fig4": None, "fig5a": 4, "fig5b": 3, "fig5c": 1,
             "empty_cavity": 1}
    middle = [_preset_spectrum(name, n, rng, workdir, expected) for name, expected in peaks.items()]
    heavy = [
        _preset_spectrum("fig2a", 1_000_001, rng, workdir, expected_peaks=2),
        _sweep_op(n, rng, workdir),
        _bundle_op(n, rng, workdir),
        _tabulated_op(200_001, rng, workdir),
        _empty_cavity_op(workdir),
    ]
    ops = [
        *(_default_spectrum(name, peaks[name]) for name in ("fig2a", "fig3a", "fig4", "fig5a", "empty_cavity")),
        *middle[0:2], heavy[0], *middle[2:4], heavy[1], *middle[4:6], heavy[2], middle[6], heavy[3],
        middle[7], heavy[4],
    ]
    return warm, ops


# ---------------------------------------------------------------------------
# finite-bath


FINITE_LADDER = (16, 64, 128, 256)      # convergence ladder at zero detuning
FINITE_SCAN = (-0.4, -0.2, 0.2, 0.4)    # cavity detunings scanned at M = 64


def _finite_bath(rng):
    # Lab-frame line: the bath is built from J on w > 0 only, which holds
    # the whole line here (not so for the rotating-frame presets).
    w0, g = float(rng.uniform(1.9, 2.1)), float(rng.uniform(0.9, 1.1))
    base = {
        "cavity": {"omega_ph": w0, "kappa_L": 0.05, "kappa_R": 0.05},
        "model": {"kind": "tls", "n_emitters": 1.0, "g": g, "omega_exc": w0, "beta": "inf", "gamma": 0.3},
        "grid": {"omega_min": -4.0, "omega_max": 8.0, "n_points": 4001},
    }
    omega = np.linspace(-4.0, 8.0, 4001)
    t_harmonic = ck.port_spectra(omega, ck.chi_of_model(base["model"], omega), base["cavity"])[0]
    pos = omega[omega > 0]
    ladder = []  # max |T - T_harmonic| along the ladder of the current round

    def op(n_modes, detuning):
        cavity = dict(base["cavity"], omega_ph=w0 + detuning)
        cfg = dict(base, cavity=cavity, method={"kind": "finite_n", "n_modes": n_modes})
        tag = f"finite_n M={n_modes} detuning={detuning:+.1f}"

        def check(tra):
            ck.check_round_trip(tra.grid.points, omega, f"{tag} grid")
            T = tra.transmission.values
            ck.check_energy(T, tra.reflection.values, tra.absorption.values, tag)
            scenario = cli.parse_scenario(cfg)
            pos_grid = core.make_grid(pos[0], pos[-1], pos.size)
            J = bathmap.spectral_density_from_chi(cli.model_susceptibility(scenario.model, pos_grid))
            bath = bathmap.discretize_bath(J, n_modes)
            modes = np.array([(m.omega, m.coupling, m.gamma) for m in bath.modes])
            ck.require(len(modes) == n_modes, f"{tag}: {len(modes)} modes")
            j_ref = ck.chi_of_model(base["model"], pos_grid.points).imag
            ck.check_sum_rule(modes, j_ref, pos_grid.spacing, tag)
            ck.check_finite_bath(omega, T, cavity, modes, tag)
            if detuning == 0.0:
                dev = float(np.abs(T - t_harmonic).max())
                if n_modes == FINITE_LADDER[0]:
                    ladder.clear()
                else:
                    ck.require(
                        ladder and dev < ladder[-1],
                        f"{tag}: max |T - T_harmonic| = {dev:.3e} does not fall below the previous M's {ladder}",
                    )
                ladder.append(dev)
            return omega.size

        return Op(tag, lambda: cli.run_scenario(cli.parse_scenario(cfg)), check, {"cfg": cfg})

    # The ladder keeps its order (each M is checked against the one before);
    # the M = 64 scan, where the run's median op falls, sits between its
    # steps, so the median samples more of the round than one stretch.
    scan = [op(64, d) for d in FINITE_SCAN]
    ops = [op(16, 0.0), op(64, 0.0), scan[0], op(128, 0.0), scan[1], scan[2], op(256, 0.0), scan[3]]
    # an untimed M = 64 solve, so the first timed ones do not pay the
    # process's first growth of its heap
    warm = Op("warm-up finite_n M=64", ops[1].call, lambda r: 0)
    return warm, ops


# ---------------------------------------------------------------------------
# bath-dictionary


def _bath_dictionary(rng):
    # Two-pole correlation of a thermal line and its emission mirror.
    w0, gamma = float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.4, 0.6))
    beta, weight = float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.8, 1.2))
    p_g = 1.0 / (1.0 + math.exp(-beta * w0))
    lines = [(w0, p_g * weight, gamma), (-w0, (1.0 - p_g) * weight, gamma)]
    tg = core.TimeGrid(150.0, 4001)
    c2 = bathmap.CorrelationFunction(tg, ck.two_pole_correlation(tg.times, lines))
    chi_grid = core.make_grid(-4.0, 4.0, 1025)      # spacing 1/128: mirror-exact
    j_grid = core.make_grid(0.0, 8.0, 4001)
    amplitude = (2.0 * p_g - 1.0) * weight
    jsrc_grid = core.make_grid(0.0, 16.0, 4001)
    J_src = core.RealSpectrum(jsrc_grid, ck.lorentzian_density(jsrc_grid.points, amplitude, w0, gamma))
    out_grid = core.make_grid(-4.0, 4.0, 4097)      # spacing 1/512: mirror-exact
    gamma_reg = 0.1

    def corr_to_chi(chi):
        w = chi_grid.points
        ck.check_close(chi.values, ck.chi_of_sampled_correlation(w, lines, tg.spacing, tg.n_points),
                       1e-10, "corr->chi vs trapezoid closed form")
        dev = np.abs(chi.values - ck.chi_of_correlation_continuum(w, lines))
        ck.require((dev <= ck.euler_maclaurin_bound(w, lines, tg.spacing)).all(),
                   "corr->chi: continuum two-pole chi outside the Euler-Maclaurin bound")
        ck.check_mirror(w, chi.values, "corr->chi")
        return w.size

    def corr_to_density(J):
        w = j_grid.points
        trap = ck.density_of_sampled_correlation(w, lines, tg.spacing, tg.n_points)
        ck.check_close(J.values, np.maximum(trap, 0.0), 1e-10, "corr->J vs trapezoid closed form")
        ck.check_close(J.values, ck.lorentzian_density(w, amplitude, w0, gamma), 1e-5, "corr->J vs Lorentzian")
        return w.size

    def density_to_chi(chi):
        w = out_grid.points
        ref = ck.chi_of_lorentzian_density(w, amplitude, w0, gamma, 0.0, 16.0, gamma_reg)
        ck.check_close(chi.values, ref, 1e-6, "J->chi vs closed-form integral")
        ck.check_mirror(w, chi.values, "J->chi")
        return w.size

    # Reconstruction of a narrow thermal line (criterion 10 of the tests).
    r_w0 = float(rng.uniform(55.0, 65.0))
    r_gamma, r_beta = 0.01, float(rng.uniform(0.8, 1.2)) / r_w0
    r_grid = core.make_grid(140.0 / 200_000, 140.0, 200_000)
    r_tg = core.TimeGrid(3.0 / r_gamma, 301)
    r_pg = 1.0 / (1.0 + math.exp(-r_beta * r_w0))
    x = r_grid.points
    r_J = core.RealSpectrum(r_grid, (2.0 * r_pg - 1.0) * 0.5 * r_gamma / ((x - r_w0) ** 2 + 0.25 * r_gamma**2))
    r_beta_eff = bathmap.EffectiveTemperature(r_grid, r_beta * r_w0 / x)
    r_lines = [(r_w0, r_pg, r_gamma), (-r_w0, 1.0 - r_pg, r_gamma)]

    def reconstruct(c):
        ref = ck.two_pole_correlation(r_tg.times, r_lines)
        dev = float((np.abs(c.values - ref) / np.abs(ref)).max())
        ck.require(dev < 1e-4, f"reconstructed C(t) relative deviation {dev:.3e} >= 1e-4")
        return r_tg.n_points

    # Dense model chi -> J -> (beta_eff) -> surrogate bath.
    pos_grid = core.make_grid(1e-3, 14.0, 200_000)
    v_tls = susceptibility.TlsEnsemble(1.0, 1.5, 0.0, math.inf, 0.1)
    v_dis = susceptibility.DisorderSpec("gaussian", float(rng.uniform(2.5, 3.5)), float(rng.uniform(0.8, 1.2)))
    vib = susceptibility.VibronicModel(1.0, 1.0, float(rng.uniform(5.5, 6.5)), 0.1, 30.0, 0.05)

    def voigt_chain():
        chi = susceptibility.chi_disordered(v_tls, v_dis, pos_grid)
        J = bathmap.spectral_density_from_chi(chi)
        return chi, J, bathmap.discretize_bath(J, 4096)

    def vibronic_chain():
        chi = susceptibility.chi_vibronic(vib, pos_grid)
        J = bathmap.spectral_density_from_chi(chi)
        beta_eff = bathmap.effective_temperature(susceptibility.vibronic_transitions(vib), pos_grid)
        return chi, J, beta_eff, bathmap.discretize_bath(J, 2048)

    def check_chain(chi, J, bath, chi_ref, n_modes, tol, tag):
        w = pos_grid.points
        ck.check_close(chi.values, chi_ref, tol, f"{tag} chi")
        ck.check_round_trip(J.values, np.maximum(chi.values.imag, 0.0), f"{tag} J = Im chi")
        modes = np.array([(m.omega, m.coupling, m.gamma) for m in bath.modes])
        ck.require(len(modes) == n_modes, f"{tag}: {len(modes)} modes, expected {n_modes}")
        ck.check_sum_rule(modes, np.maximum(chi_ref.imag, 0.0), pos_grid.spacing, tag)
        return 2 * w.size + n_modes

    def check_voigt(result):
        chi, J, bath = result
        ref = ck.chi_voigt(pos_grid.points, v_tls.n_emitters * v_tls.g**2, v_dis.center, v_dis.sigma, v_tls.gamma)
        return check_chain(chi, J, bath, ref, 4096, 1e-9, "voigt chain")

    def check_vibronic(result):
        chi, J, beta_eff, bath = result
        ref = ck.chi_poles(pos_grid.points, ck.poisson_poles(vib.n_emitters * vib.g**2, vib.omega_exc, vib.omega_v,
                                                             vib.huang_rhys, vib.gamma))
        ck.require(np.isinf(beta_eff.values).all(), "vibronic chain: beta_eff must be +inf at zero temperature")
        return check_chain(chi, J, bath, ref, 2048, 1e-9, "vibronic chain") + pos_grid.n_points

    # Effective temperature of a thermal line: beta_eff = beta w0 / w.
    t_w0, t_beta = float(rng.uniform(2.0, 4.0)), float(rng.uniform(0.5, 2.0))
    t_pg = 1.0 / (1.0 + math.exp(-t_beta * t_w0))
    t_set = susceptibility.TransitionSet([susceptibility.Transition(t_w0, 1.0, t_pg, 1.0 - t_pg, 0.2)])
    t_grid = core.make_grid(t_w0 / 500_000, 2.0 * t_w0, 1_000_000)      # point 499999 is w0

    def check_beta(beta_eff):
        w = t_grid.points
        ck.check_close(beta_eff.values, math.log(t_pg / (1.0 - t_pg)) / w, 1e-12, "beta_eff vs beta w0 / w")
        centre = int(np.argmin(np.abs(w - t_w0)))
        dev = abs(beta_eff.values[centre] - t_beta)
        ck.require(dev < 1e-9 * t_beta, f"beta_eff at the line centre off beta by {dev:.3e}")
        return w.size

    ops = [
        Op("chi_from_correlation 1025x4001", lambda: susceptibility.chi_from_correlation(c2, chi_grid), corr_to_chi),
        Op("spectral_density_from_correlation 4001x4001",
           lambda: bathmap.spectral_density_from_correlation(c2, j_grid), corr_to_density),
        Op("chi_from_spectral_density 4097x4001",
           lambda: susceptibility.chi_from_spectral_density(J_src, out_grid, gamma_reg), density_to_chi),
        Op("reconstruct_correlation 2e5x301",
           lambda: bathmap.reconstruct_correlation(r_J, r_beta_eff, r_tg), reconstruct),
        Op("voigt chi -> J -> bath M=4096 on 2e5", voigt_chain, check_voigt),
        Op("vibronic chi -> J -> beta_eff -> bath M=2048 on 2e5", vibronic_chain, check_vibronic),
        Op("effective_temperature thermal line 1e6",
           lambda: bathmap.effective_temperature(t_set, t_grid), check_beta),
    ]
    warm = Op("warm-up: one untimed round", lambda: [op.call() for op in ops], lambda r: 0)
    return warm, ops
