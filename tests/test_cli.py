import json
import math
import os
import time

import numpy as np
import pytest

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
from polarispec.core import local_maxima, make_grid
from polarispec import fileio


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
        tra_fin = run_scenario(parse_scenario(cfg))
        cfg["method"] = "harmonic"
        tra_h = run_scenario(parse_scenario(cfg))
        assert np.abs(
            tra_fin.transmission.values - tra_h.transmission.values
        ).max() < 5e-3


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
        run_scenario(parse_scenario(cfg))
        assert len(reads) == 1


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
