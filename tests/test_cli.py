import json
import math
import os
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from polarispec.cli import (
    ConfigError,
    Scenario,
    export_bundle,
    main,
    model_susceptibility,
    parse_scenario,
    parse_sweep,
    peak_splitting,
    preset_config,
    preset_names,
    run_scenario,
    run_sweep,
    scenario_to_config,
)
from polarispec.core import (
    AccuracyWarning,
    RealSpectrum,
    TraSpectra,
    ValidationError,
    local_maxima,
    make_grid,
)
from polarispec import cli, fileio, susceptibility


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _canonical_configs():
    """Every preset (a sweep through its base) and a config with every optional field."""
    params = []
    for name in preset_names():
        cfg = preset_config(name)
        params.append(pytest.param(cfg.get("base", cfg), id=name))
    cfg = preset_config("fig4")
    cfg["model"]["m_max"] = 40
    cfg["method"] = {"kind": "finite_n", "n_modes": 16, "gamma_mode": 0.05}
    cfg["outputs"] = [{"csv": "spectra.csv"}, {"svg": "spectra.svg"}]
    params.append(pytest.param(cfg, id="every-optional-field"))
    return params


class TestParsing:
    @pytest.mark.parametrize("cfg", _canonical_configs())
    def test_serialization_is_canonical(self, cfg):
        assert scenario_to_config(parse_scenario(cfg)) == cfg

    def test_preset_roundtrip_through_serialization(self):
        for name in preset_names():
            cfg = preset_config(name)
            if "base" in cfg:
                continue
            s1 = parse_scenario(cfg)
            s2 = parse_scenario(scenario_to_config(s1))
            assert s1 == s2

    def test_unknown_key_is_named(self):
        cfg = preset_config("fig2a")
        cfg["model"]["gama"] = 0.3
        with pytest.raises(ConfigError, match="model.gama"):
            parse_scenario(cfg)

    def test_missing_key_is_named(self):
        cfg = preset_config("fig2a")
        del cfg["cavity"]["kappa_L"]
        with pytest.raises(ConfigError, match="kappa_L"):
            parse_scenario(cfg)

    @pytest.mark.parametrize("entry", [{}, {"csv": None}, {"csv": None, "svg": None}])
    def test_output_entry_needs_a_path(self, entry):
        cfg = preset_config("fig2a")
        cfg["outputs"] = [{"csv": "spectra.csv"}, entry]
        with pytest.raises(ConfigError, match=r"^outputs\[1\]: needs a csv or svg path$"):
            parse_scenario(cfg)

    def test_beta_inf_spelling(self):
        cfg = preset_config("fig2a")
        s = parse_scenario(cfg)
        assert math.isinf(s.model.beta)
        assert scenario_to_config(s)["model"]["beta"] == "inf"
        cfg["model"]["beta"] = "Infinity"
        with pytest.raises(ConfigError, match="beta"):
            parse_scenario(cfg)

    def test_invalid_physics_reported_with_key(self):
        cfg = preset_config("fig2a")
        cfg["grid"]["omega_min"] = 10.0
        with pytest.raises(ConfigError, match="grid"):
            parse_scenario(cfg)

    def test_method_validation(self):
        cfg = preset_config("fig2a")
        cfg["method"] = {"kind": "finite_n"}
        with pytest.raises(ConfigError, match="n_modes"):
            parse_scenario(cfg)
        cfg["method"] = {"kind": "finite_n", "n_modes": 8}
        assert parse_scenario(cfg).method.n_modes == 8

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("fig9z")

    def test_sweep_parameter_must_resolve(self):
        cfg = preset_config("fig2b")
        cfg["parameter"] = "model.nonsense"
        with pytest.raises(ConfigError, match="does not resolve"):
            parse_sweep(cfg)


class TestRunScenario:
    def test_fig2a_peaks(self, tmp_path):
        s = parse_scenario(preset_config("fig2a"))
        out = str(tmp_path / "fig2a.csv")
        tra = run_scenario(s, out_csv=out)
        peaks = local_maxima(tra.transmission)
        assert len(peaks) == 2
        assert abs(abs(peaks[0][0]) - 2.0) <= 0.01 + 1e-12
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        with open(out) as fh:
            assert fh.readline().strip() == "omega,T,R,A"
        assert data.shape == (4001, 4)

    def test_empty_cavity_preset(self):
        s = parse_scenario(preset_config("empty_cavity"))
        tra = run_scenario(s)
        i = np.argmin(np.abs(s.grid.points - s.cavity.omega_ph))
        expected = 4 * s.cavity.kappa_L * s.cavity.kappa_R / s.cavity.kappa**2
        assert tra.transmission.values[i] == pytest.approx(expected, abs=1e-12)

    def test_saturated_three_level_equals_empty_cavity(self):
        s5 = parse_scenario(preset_config("fig5c"))
        tra5 = run_scenario(s5)
        empty_cfg = preset_config("empty_cavity")
        empty_cfg["grid"] = {"omega_min": -1.0, "omega_max": 5.0, "n_points": 4001}
        empty_cfg["cavity"]["omega_ph"] = 1.0
        tra0 = run_scenario(parse_scenario(empty_cfg))
        assert np.abs(
            tra5.transmission.values - tra0.transmission.values
        ).max() < 1e-12

    def test_csv_output_is_deterministic(self, tmp_path):
        s = parse_scenario(preset_config("fig4"))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_scenario(s, out_csv=p1)
        run_scenario(s, out_csv=p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_tabulated_chi_round_trip(self, tmp_path):
        s = parse_scenario(preset_config("fig2a"))
        tra1 = run_scenario(s)
        chi_path = str(tmp_path / "chi.csv")
        fileio.write_chi_csv(chi_path, model_susceptibility(s.model, s.grid))
        cfg = preset_config("fig2a")
        cfg["model"] = {"kind": "tabulated_chi", "path": chi_path}
        tra2 = run_scenario(parse_scenario(cfg))
        for a, b in (
            (tra1.transmission, tra2.transmission),
            (tra1.reflection, tra2.reflection),
            (tra1.absorption, tra2.absorption),
        ):
            assert np.abs(a.values - b.values).max() <= 1e-12

    def test_presets_run_quickly(self):
        for name in preset_names():
            cfg = preset_config(name)
            if "base" in cfg:
                continue
            start = time.perf_counter()
            run_scenario(parse_scenario(cfg))
            assert time.perf_counter() - start < 5.0

    def test_finite_bath_method_runs(self):
        cfg = preset_config("fig2a")
        cfg["model"]["omega_exc"] = 2.0
        cfg["cavity"]["omega_ph"] = 2.0
        cfg["model"]["g"] = 1.0
        cfg["model"]["gamma"] = 2.0
        cfg["method"] = {"kind": "finite_n", "n_modes": 64}
        with pytest.warns(AccuracyWarning):  # the line's gamma = 2 tail reaches omega <= 0
            tra_fin = run_scenario(parse_scenario(cfg))
        cfg["method"] = "harmonic"
        tra_h = run_scenario(parse_scenario(cfg))
        assert np.abs(
            tra_fin.transmission.values - tra_h.transmission.values
        ).max() < 5e-3


class TestFiniteNDroppedWeight:
    """The surrogate bath holds Im chi at omega > 0 only; a run says what it drops."""

    def test_rotating_frame_line_warns_with_dropped_share(self):
        cfg = preset_config("fig2a")
        cfg["method"] = {"kind": "finite_n", "n_modes": 16}
        with pytest.warns(AccuracyWarning, match=r"50\.2%"):
            run_scenario(parse_scenario(cfg))

    def test_lab_frame_line_does_not_warn(self):
        cfg = {
            "cavity": {"omega_ph": 2.0, "kappa_L": 0.05, "kappa_R": 0.05},
            "model": {"kind": "tls", "n_emitters": 1.0, "g": 1.0, "omega_exc": 2.0,
                      "beta": "inf", "gamma": 0.3},
            "grid": {"omega_min": -4.0, "omega_max": 8.0, "n_points": 4001},
            "method": {"kind": "finite_n", "n_modes": 64},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario(parse_scenario(cfg))

    @pytest.mark.parametrize("name", ["empty_cavity", "fig5c"])
    def test_zero_absorption_does_not_warn(self, name):
        cfg = preset_config(name)
        cfg["method"] = {"kind": "finite_n", "n_modes": 16}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="identically zero"):
                run_scenario(parse_scenario(cfg))


class TestSweep:
    def test_single_value_sweep_matches_scenario(self, tmp_path):
        cfg = preset_config("fig2b")
        cfg["values"] = [1.0]
        sweep = parse_sweep(cfg)
        results = run_sweep(sweep, str(tmp_path))
        base_cfg = preset_config("fig2b")["base"]
        base_cfg["model"]["beta"] = 1.0
        direct = run_scenario(parse_scenario(base_cfg))
        assert np.array_equal(
            results[0].transmission.values, direct.transmission.values
        )

    def test_temperature_sweep_contracts(self, tmp_path):
        sweep = parse_sweep(preset_config("fig2b"))
        results = run_sweep(sweep, str(tmp_path))
        splittings = [peak_splitting(t) for t in results]
        assert all(a >= b - 1e-12 for a, b in zip(splittings, splittings[1:]))
        assert splittings[-1] == 0.0
        assert len(local_maxima(results[-1].transmission)) == 1
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "value,peak_splitting"
        assert len(summary) == 1 + len(sweep.values)
        assert summary[1].startswith("inf,")
        for i in range(len(sweep.values)):
            assert (tmp_path / f"sweep_{i:03d}.csv").exists()

    def test_population_sweep_peak_counts(self, tmp_path):
        cfg = {
            "base": preset_config("fig5a"),
            "parameter": "model.populations",
            "values": [
                [0.7, 0.2, 0.1],
                [0.48, 0.48, 0.04],
                [1 / 3, 1 / 3, 1 / 3],
            ],
        }
        results = run_sweep(parse_sweep(cfg), str(tmp_path))
        counts = [len(local_maxima(t.transmission)) for t in results]
        assert counts == [4, 3, 1]

    def test_invalid_value_fails_before_any_output(self, tmp_path, capsys):
        cfg = preset_config("fig2b")
        cfg["base"]["grid"]["n_points"] = 501
        cfg["values"] = ["inf", 1.0, -1.0]
        outdir = tmp_path / "out"
        argv = ["sweep", "--config", _write_config(tmp_path, cfg), "--outdir", str(outdir)]
        assert main(argv) == 2
        assert "sweep.values[2]: model: beta must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.rglob("sweep_*.csv"))

    def test_base_errors_name_the_base(self):
        cfg = preset_config("fig2b")
        cfg["base"]["cavity"]["omega_ph"] = "x"
        with pytest.raises(
            ConfigError, match=r"^sweep\.base: cavity\.omega_ph: expected a number, got 'x'$"
        ):
            parse_sweep(cfg)

    def test_base_error_through_main(self, tmp_path, capsys):
        cfg = preset_config("fig2b")
        cfg["base"]["cavity"]["omega_ph"] = "x"
        outdir = tmp_path / "out"
        argv = ["sweep", "--config", _write_config(tmp_path, cfg), "--outdir", str(outdir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: sweep.base: cavity.omega_ph: expected a number, got 'x'" in err
        assert not outdir.exists()


class TestBundle:
    def test_fig2a_bundle(self, tmp_path, capsys):
        s = parse_scenario(preset_config("fig2a"))
        written = export_bundle(s, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {"chi.csv", "j_eff.csv", "beta_eff.csv", "spectra.csv"}
        data = np.loadtxt(tmp_path / "j_eff.csv", delimiter=",", skiprows=1)
        i = np.argmax(data[:, 1])
        assert data[i, 0] == 0.0
        # Lorentzian absorption peak: 2 N g^2 / gamma
        assert data[i, 1] == pytest.approx(2 * 4.0 / 0.3, rel=1e-12)

    def test_tabulated_model_omits_effective_temperature(self, tmp_path, capsys):
        s = parse_scenario(preset_config("empty_cavity"))
        written = export_bundle(s, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert "beta_eff.csv" not in names
        assert "beta_eff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", [n for n in preset_names() if "base" not in preset_config(n)]
    )
    def test_bundle_command_every_preset(self, tmp_path, name):
        argv = ["bundle", "--preset", name, "--points", "401", "--outdir", str(tmp_path)]
        assert main(argv) == 0

    def test_vibronic_bundle_omits_effective_temperature(self, tmp_path, capsys):
        # the rotating-frame progression has lines below omega = 0
        s = parse_scenario(preset_config("fig4"))
        written = export_bundle(s, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {"chi.csv", "j_eff.csv", "spectra.csv"}
        assert "below omega = 0" in capsys.readouterr().err

    def test_bundle_chi_reingestion(self, tmp_path):
        s = parse_scenario(preset_config("fig3a"))
        export_bundle(s, str(tmp_path))
        cfg = preset_config("fig3a")
        cfg["model"] = {"kind": "tabulated_chi", "path": str(tmp_path / "chi.csv")}
        tra2 = run_scenario(parse_scenario(cfg))
        data = np.loadtxt(tmp_path / "spectra.csv", delimiter=",", skiprows=1)
        assert np.abs(tra2.transmission.values - data[:, 1]).max() <= 1e-12


class TestChiReadOnce:
    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        read = fileio.read_chi_csv

        def counting_read(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(fileio, "read_chi_csv", counting_read)
        return calls

    def _tabulated_config(self, tmp_path, method):
        cfg = preset_config("fig2a")
        cfg["grid"]["n_points"] = 401
        s = parse_scenario(cfg)
        chi_path = str(tmp_path / "chi.csv")
        fileio.write_chi_csv(chi_path, model_susceptibility(s.model, s.grid))
        cfg["model"] = {"kind": "tabulated_chi", "path": chi_path}
        cfg["method"] = method
        return cfg

    def test_harmonic_bundle(self, tmp_path, reads):
        cfg = self._tabulated_config(tmp_path, "harmonic")
        export_bundle(parse_scenario(cfg), str(tmp_path / "bundle"))
        assert len(reads) == 1

    def test_finite_n_spectrum(self, tmp_path, reads):
        cfg = self._tabulated_config(tmp_path, {"kind": "finite_n", "n_modes": 16})
        with pytest.warns(AccuracyWarning):  # the line sits at omega = 0
            run_scenario(parse_scenario(cfg))
        assert len(reads) == 1

    def test_finite_n_bundle(self, tmp_path, reads):
        cfg = self._tabulated_config(tmp_path, {"kind": "finite_n", "n_modes": 16})
        with pytest.warns(AccuracyWarning):  # the line sits at omega = 0
            export_bundle(parse_scenario(cfg), str(tmp_path / "bundle"))
        assert len(reads) == 1


class TestModelChiLookup:
    """Models reach the chi formulas through module attributes, at call time."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(("chi_tls_thermal", "chi_disordered", "chi_multilevel"), 0)
        for name in counts:

            def counting(*args, _name=name, _fn=getattr(susceptibility, name)):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(susceptibility, name, counting)
        return counts

    @pytest.mark.parametrize(
        "name, formula",
        [("fig2a", "chi_tls_thermal"), ("fig3a", "chi_disordered"), ("fig4", "chi_multilevel")],
    )
    def test_preset_chi(self, calls, name, formula):
        run_scenario(parse_scenario(preset_config(name)))
        assert calls[formula] >= 1

    def test_finite_n_lab_frame_tls(self, calls):
        cfg = {
            "cavity": {"omega_ph": 2.0, "kappa_L": 0.05, "kappa_R": 0.05},
            "model": {"kind": "tls", "n_emitters": 1.0, "g": 1.0, "omega_exc": 2.0,
                      "beta": "inf", "gamma": 0.3},
            "grid": {"omega_min": -4.0, "omega_max": 8.0, "n_points": 1001},
            "method": {"kind": "finite_n", "n_modes": 16},
        }
        run_scenario(parse_scenario(cfg))
        assert calls["chi_tls_thermal"] >= 1  # the model
        assert calls["chi_multilevel"] >= 1  # the surrogate bath

    def test_moved_models_still_import_from_cli(self):
        assert cli.DisorderedTls is susceptibility.DisorderedTls
        assert cli.TabulatedChi is fileio.TabulatedChi


class TestMainEntry:
    def test_even_grid_empty_cavity_prints_its_flat_top(self, capsys):
        # the two centre samples hold the same T: the peak is one flat top
        assert main(["spectrum", "--preset", "empty_cavity", "--points", "100000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "transmission maxima: 1 at -4.00004e-05" in out

    def test_spectrum_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "out.csv")
        svg = str(tmp_path / "out.svg")
        assert main(["spectrum", "--preset", "fig2a", "--out", out, "--svg", svg]) == 0
        assert os.path.exists(out)
        text = open(svg).read()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 3
        for label in (">T<", ">R<", ">A<"):
            assert label in text

    def test_spectrum_with_config_file(self, tmp_path):
        cfg = preset_config("fig2a")
        cfg["outputs"] = [{"csv": str(tmp_path / "direct.csv")}]
        path = _write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", path]) == 0
        assert os.path.exists(tmp_path / "direct.csv")

    def test_grid_overrides(self, tmp_path):
        out = str(tmp_path / "out.csv")
        assert (
            main(
                [
                    "spectrum",
                    "--preset",
                    "fig2a",
                    "--out",
                    out,
                    "--points",
                    "101",
                    "--omega-min",
                    "-2",
                    "--omega-max",
                    "2",
                ]
            )
            == 0
        )
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[0] == 101
        assert data[0, 0] == -2.0 and data[-1, 0] == 2.0

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"cavity": {}})
        assert main(["spectrum", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        cfg = preset_config("empty_cavity")
        cfg["cavity"] = {"omega_ph": 0.0, "kappa_L": 1e-16, "kappa_R": 1e-16}
        cfg["grid"] = {"omega_min": -1.0, "omega_max": 1.0, "n_points": 3}
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: photon propagator denominator vanishes")

    def test_bad_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", "--config", str(path)]) == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "dir" / "out.csv")
        assert main(["spectrum", "--preset", "fig2a", "--out", out]) == 4

    def test_both_config_and_preset_rejected(self, tmp_path, capsys):
        path = _write_config(tmp_path, preset_config("fig2a"))
        assert main(["spectrum", "--config", path, "--preset", "fig2a"]) == 2

    def test_sweep_command(self, tmp_path):
        outdir = str(tmp_path / "sweepdir")
        assert main(["sweep", "--preset", "fig2b", "--outdir", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "summary.csv"))

    def test_bundle_command(self, tmp_path):
        outdir = str(tmp_path / "bundledir")
        assert main(["bundle", "--preset", "fig2a", "--outdir", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "spectra.csv"))

    def test_sweep_preset_under_spectrum_rejected(self, capsys):
        assert main(["spectrum", "--preset", "fig2b"]) == 2

    @pytest.mark.parametrize("command", ["sweep", "spectrum", "bundle"])
    def test_non_object_sweep_base_is_a_config_error(self, tmp_path, capsys, command):
        path = _write_config(tmp_path, {"base": 5, "parameter": "model.beta", "values": [1]})
        argv = [command, "--config", path, "--outdir", str(tmp_path / "out")]
        assert main(argv[:3] if command == "spectrum" else argv) == 2
        assert "error: sweep.base: expected an object" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "preset, key, value, message",
        [
            pytest.param("fig2a", "model.g", 10**400, "model.g: expected a number, got 1000",
                         id="g"),
            pytest.param("fig2a", "model.beta", 10**400, "model.beta: expected a number or",
                         id="beta"),
            pytest.param("fig2a", "grid.omega_min", -(10**400),
                         "grid.omega_min: expected a number", id="omega_min"),
            pytest.param("fig5a", "model.levels", [[0.0, 0.7], [1.0, 10**400], [3.0, 0.1]],
                         "model.levels: expected a list of [omega, population] pairs",
                         id="levels"),
            pytest.param("fig4", "model.m_max", 10**400, "model.m_max: expected an integer, got",
                         id="m_max-digits"),
            pytest.param("fig4", "model.m_max", 10**30,
                         "model: m_max must be an integer >= 0 and < ", id="m_max-size"),
            pytest.param("fig2a", "grid.n_points", 2**63,
                         "grid: n_points must be an integer in [2, ", id="n_points-2**63"),
            pytest.param("fig2a", "grid.n_points", 10**30,
                         "grid: n_points must be an integer in [2, ", id="n_points-10**30"),
            pytest.param("fig2a", "method", {"kind": "finite_n", "n_modes": 10**30},
                         "method.n_modes: expected an integer in [1, ", id="n_modes"),
        ],
    )
    def test_oversized_number_is_one_error_line(self, tmp_path, capsys, preset, key, value,
                                                message):
        cfg = preset_config(preset)
        *parents, last = key.split(".")
        section = cfg
        for k in parents:
            section = section[k]
        section[last] = value
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert len(err) < 200  # a long value is cut short

    @pytest.mark.parametrize(
        "points, message",
        [
            pytest.param(10**30, "error: grid: n_points must be an integer in [2, ",
                         id="beyond-numpy"),
            # the largest count the grid takes, far beyond any address space
            pytest.param(cli._MAX_COUNT,
                         f"error: a grid of {cli._MAX_COUNT} points does not fit",
                         id="beyond-memory"),
        ],
    )
    def test_oversized_points_override(self, capsys, points, message):
        assert main(["spectrum", "--preset", "fig2a", "--points", str(points)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_grid_that_does_not_fit_is_one_error_line(self, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_scenario", out_of_memory)
        assert main(["spectrum", "--preset", "fig2a", "--points", "123"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: a grid of 123 points does not fit in memory; use fewer --points\n"
        )

    def test_bath_that_does_not_fit_names_n_modes(self, tmp_path, capsys):
        # the largest count the bath takes: its bin edges exceed any address space
        cfg = {
            "cavity": {"omega_ph": 2.0, "kappa_L": 0.05, "kappa_R": 0.05},
            "model": {"kind": "tls", "n_emitters": 1.0, "g": 1.0, "omega_exc": 2.0,
                      "beta": "inf", "gamma": 0.3},
            "grid": {"omega_min": -4.0, "omega_max": 8.0, "n_points": 401},
            "method": {"kind": "finite_n", "n_modes": cli._MAX_COUNT - 1},
        }
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a grid of 401 points with a bath of n_modes = ")
        assert f"n_modes = {cli._MAX_COUNT - 1} does not fit" in err
        assert err.count("\n") == 1


class TestCsvFormats:
    def test_chi_header_validated(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("omega,re,im\n0.0,1.0,2.0\n")
        with pytest.raises(Exception, match="header"):
            fileio.read_chi_csv(str(path))

    def test_chi_round_trip_exact(self, tmp_path):
        from polarispec.susceptibility import TlsEnsemble, chi_tls_thermal

        g = make_grid(-2, 2, 101)
        chi = chi_tls_thermal(TlsEnsemble(1.0, 1.0, 0.0, math.inf, 0.3), g)
        path = str(tmp_path / "chi.csv")
        fileio.write_chi_csv(path, chi)
        back = fileio.read_chi_csv(path)
        assert back.grid == chi.grid
        assert np.array_equal(back.values, chi.values)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("omega,re_chi,im_chi\n0.0,1.0,0.0\n1.0,1.0,0.0\n3.0,1.0,0.0\n")
        with pytest.raises(Exception, match="uniform"):
            fileio.read_chi_csv(str(path))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,1.0,abc\n1.0,1.0,0.0\n", "could not convert string 'abc'"),
            ("0.0,1.0\n1.0,1.0,0.0\n", "number of columns changed from 2 to 3"),
            ("", "need at least two rows"),
        ],
        ids=["non-numeric", "ragged", "header-only"],
    )
    def test_bad_rows_are_validation_errors(self, tmp_path, capsys, rows, message):
        path = tmp_path / "chi.csv"
        path.write_text("omega,re_chi,im_chi\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message) as info:
                fileio.read_chi_csv(str(path))
        assert str(path) in str(info.value)
        cfg = preset_config("empty_cavity")
        cfg["model"]["path"] = str(path)
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("n_cols", [2, 3, 4])
    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
        ids=["1", "block-1", "block", "block+1", "3block+7"],
    )
    def test_streamed_blocks_match_per_row_format(
        self, tmp_path, monkeypatch, n_cols, blocks, extra
    ):
        block = 8
        monkeypatch.setattr(fileio, "_BLOCK_ROWS", block)
        n = blocks * block + extra
        rng = np.random.default_rng(n * n_cols)
        cols = [
            rng.normal(scale=10.0 ** rng.integers(-300, 300), size=n)
            for _ in range(n_cols)
        ]
        cols[0][0] = -0.0
        path = tmp_path / "cols.csv"
        fileio.write_columns(str(path), "header", cols)
        rows = [",".join(fileio._FMT % c[i] for c in cols) for i in range(n)]
        assert path.read_bytes() == ("\n".join(["header", *rows]) + "\n").encode()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, existing):
        monkeypatch.setattr(fileio, "_BLOCK_ROWS", 4)
        target = tmp_path / "out.csv"
        if existing:
            target.write_text("old\n")
        real_fdopen = os.fdopen

        class FailsAfterFirstBlock:
            """File handle whose third write fails: the block after the header and first block."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("disk full")
                return self.fh.write(text)

        monkeypatch.setattr(
            fileio.os, "fdopen", lambda fd, mode: FailsAfterFirstBlock(real_fdopen(fd, mode))
        )
        with pytest.raises(OSError, match="disk full"):
            fileio.write_columns(str(target), "x,y", [np.arange(10.0), np.arange(10.0)])
        assert not list(tmp_path.glob("*.tmp"))
        if existing:
            assert target.read_text() == "old\n"
        else:
            assert not target.exists()

    @staticmethod
    def _fmt_rows(header, cols):
        """The oracle: each field formatted alone by ``_FMT %``."""
        rows = [",".join(fileio._FMT % float(c[i]) for c in cols) for i in range(len(cols[0]))]
        return ("\n".join([header, *rows]) + "\n").encode()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(bits=hnp.arrays(np.uint64, st.tuples(st.integers(1, 64), st.integers(1, 4))))
    def test_raw_bit_patterns_match_per_field_format(self, tmp_path_factory, bits):
        # uniform bit patterns: subnormals, nan and inf payloads, both signs,
        # and about 9% of exponents outside the formatter's table
        cols = list(bits.view(float).T)
        path = tmp_path_factory.getbasetemp() / "bits.csv"
        fileio.write_columns(str(path), "h", cols)
        assert path.read_bytes() == self._fmt_rows("h", cols)

    # near-ties: x * 10**(16 - E) within 2**-44 of a half-integer but not on
    # it (found by lattice reduction); each rounds the wrong way without the
    # formatter's tie margin
    _NEAR_TIES = [
        6.949401332094608e-275, 3.1998438680299115e-230, 7.587085707663444e-197,
        2.7995356262440103e-152, 5.655230703474796e-119, 3.245530680092633e-63,
        8.793651352650858e-19, 6.575702133224909e+70, 2.0027620751747793e+83,
        1.6709604590099627e+120, 4.054951371223766e+169, 3.736303126520295e+243,
    ]

    def test_hard_cases_match_per_field_format(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-308, 309)])
        hard = np.concatenate([
            [1e-277, 2251799813685247.75, 5e-324, np.finfo(float).max],
            [0.0, -0.0, np.inf, -np.inf, np.nan], self._NEAR_TIES,
            np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
        ])
        path = tmp_path / "hard.csv"
        for cols in ([hard], [hard, -hard], list(np.resize(hard, (3, hard.size // 3)))):
            fileio.write_columns(str(path), "h", cols)
            assert path.read_bytes() == self._fmt_rows("h", cols)
        fileio.write_columns(str(path), "h", [hard[:3]])
        # log10 gives exactly -277 for fl(1e-277), which lies below 1e-277
        assert path.read_text() == "h\n9.9999999999999997e-278\n2.2517998136852478e+15\n4.9406564584124654e-324\n"

    @pytest.mark.parametrize("piece", [5, 1 << 13])
    def test_fallback_and_formatted_fields_share_rows(self, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(fileio, "_BLOCK_ROWS", 8)
        monkeypatch.setattr(fileio, "_PIECE_FIELDS", piece)
        rng = np.random.default_rng(7)
        n = 29
        odd = [np.nan, -np.inf, 1e-300, -1e300, 2251799813685247.75, 5e-324, -0.0]
        cols = [rng.normal(size=n), rng.normal(scale=1e-120, size=n), rng.normal(size=n)]
        for i in range(0, n, 2):  # every other row, cycling through the columns
            cols[i % 3][i] = odd[i // 2 % len(odd)]
        path = tmp_path / "mixed.csv"
        fileio.write_columns(str(path), "a,b,c", cols)
        assert path.read_bytes() == self._fmt_rows("a,b,c", cols)

    @pytest.mark.parametrize("n", [2, 3, 4001, 100001])
    def test_svg_polylines_match_per_point_format(self, tmp_path, n):
        grid = make_grid(-4.0, 8.0, n)
        rng = np.random.default_rng(n)
        t = rng.uniform(0.0, 1.0, n) / (1.0 + (grid.points - 2.0) ** 2)
        r = 0.3 * t**2
        tra = TraSpectra(*(RealSpectrum(grid, v) for v in (t, r, 1.0 - t - r)))
        path = tmp_path / "tra.svg"
        fileio.write_tra_svg(str(path), tra)
        points = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert points == self._svg_points(tra)

    @staticmethod
    def _svg_points(tra):
        """The oracle: write_tra_svg's polyline points, one point at a time."""
        omega = tra.grid.points
        series = [tra.transmission.values, tra.reflection.values, tra.absorption.values]
        ylo = min(float(s.min()) for s in series)
        yhi = max(float(s.max()) for s in series)
        if yhi == ylo:
            yhi = ylo + 1.0
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad
        xlo, xhi = float(omega[0]), float(omega[-1])
        plot_w = fileio._SVG_W - fileio._ML - fileio._MR
        plot_h = fileio._SVG_H - fileio._MT - fileio._MB
        stride = max(1, omega.size // 2000)
        return [
            " ".join(
                f"{fileio._ML + (x - xlo) / (xhi - xlo) * plot_w:.2f},"
                f"{fileio._MT + (yhi - y) / (yhi - ylo) * plot_h:.2f}"
                for x, y in zip(omega[::stride], vals[::stride])
            )
            for vals in series
        ]


class TestTabulatedChi:
    """A table off the scenario grid is interpolated onto it, never extrapolated."""

    def _table(self, tmp_path):
        from polarispec.susceptibility import TlsEnsemble, chi_tls_thermal

        table = chi_tls_thermal(TlsEnsemble(1.0, 1.0, 0.5, math.inf, 0.3), make_grid(-5, 5, 1601))
        path = str(tmp_path / "chi.csv")
        fileio.write_chi_csv(path, table)
        return fileio.TabulatedChi(path), fileio.read_chi_csv(path)

    def test_wider_finer_table_is_interpolated(self, tmp_path):
        model, table = self._table(tmp_path)
        grid = make_grid(-4, 4, 401)
        chi = model.chi(grid)
        assert chi.grid == grid
        w, x = grid.points, table.grid.points
        assert np.array_equal(chi.values.real, np.interp(w, x, table.values.real))
        assert np.array_equal(chi.values.imag, np.interp(w, x, table.values.imag))

    @pytest.mark.parametrize("bounds", [(-6.0, 4.0), (-4.0, 5.5)])
    def test_grid_beyond_the_table_is_rejected(self, tmp_path, bounds):
        model, _ = self._table(tmp_path)
        with pytest.raises(ValidationError, match="beyond the tabulated susceptibility"):
            model.chi(make_grid(*bounds, 401))
